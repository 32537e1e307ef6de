"""Tests for the batch command-line front end."""

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from deltainv import cli, conj_invariants
from deltainv.cli import _document, main
from deltainv.conj_invariants import _gradient_row, jacobian_rank, \
    jacobian_rows, theta_rank
from deltainv.exact_arith import TruncatedPadic
from deltainv.multipoly import MultiPoly, Tvar, VarId, _det_rows, uvar, \
    var_name, vvar, zvar
from deltainv.quad_invariants import theta, theta_multidegrees
from deltainv.serre_tate import expansion_basic

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dims_small(capsys):
    code, out = run_cli(capsys, "dims", "--g", "2", "--r", "1", "--s", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 3


def test_dims_half_integer(capsys):
    code, out = run_cli(capsys, "dims", "--g", "2", "--r", "1", "--s", "1/2")
    assert code == 0
    assert json.loads(out)["dimension"] == 0
    # integral total degree, but det^(2/3) is no weight
    code, out = run_cli(capsys, "dims", "--g", "3", "--r", "1", "--s", "1/3")
    assert code == 0
    assert json.loads(out)["dimension"] == 0


@pytest.mark.parametrize("argv,name", [
    ("dims --g -1 --r 1 --s 1", "g"),
    ("dims --g 2 --r -1 --s 1", "r"),
    ("dims --g 2 --r 1 --s -1", "s"),
    ("b0 --g 3 --q 4", "q"),
    ("b0 --g 3 --q 3317044064679887385961981", "q"),
    ("rank --g 2 --r 0", "r"),
    ("hilbert --r -1", "r"),
    ("relations --kind plucker --split 3", "split"),
    ("theta --g 0 --multidegree 0", "g"),
    ("expand --kind f_r --g 0", "g"),
    ("expand --kind f_r --index 0", "index"),
    ("expand --kind f_partial --prec 0", "N"),
    ("expand --kind f_partial --deg -1", "D"),
    ("diamond --g 0", "g"),
    ("diamond --prec 0", "N"),
    ("diamond --deg -1", "D"),
    ("xi --cycle 0,-1", "cycle entries"),
    ("upsilon --g 2 --levels 0,1,-2", "levels"),
    ("b0 --g 3 --q 2", "q"),
    ("theta --g 2 --multidegree 1,x", "multidegree"),
    ("dims --g 2 --r 1 --s abc", "s"),
])
def test_error_names_the_bad_argument(capsys, argv, name):
    assert main(argv.split()) == 2
    assert capsys.readouterr().err.startswith(f"error: {name} must be")


def test_theta_json(capsys):
    code, out = run_cli(capsys, "theta", "--g", "2", "--multidegree", "1,1")
    assert code == 0
    doc = json.loads(out)
    names = {n for term in doc["polynomial"] for n in term if n != "coefficient"}
    assert names == {"T0_11", "T0_12", "T0_22", "T1_11", "T1_12", "T1_22"}


def test_theta_beyond_six_rows(capsys):
    code, out = run_cli(capsys, "theta", "--g", "7", "--multidegree", "6,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["multidegree"] == [6, 1] and doc["polynomial"]


def test_xi_and_upsilon_agree(capsys):
    code1, out1 = run_cli(capsys, "xi", "--cycle", "0,1,2")
    code2, out2 = run_cli(capsys, "upsilon", "--g", "2", "--levels", "0,1,2")
    assert code1 == code2 == 0
    assert json.loads(out1)["polynomial"] == json.loads(out2)["polynomial"]


def test_hilbert(capsys):
    code, out = run_cli(capsys, "hilbert", "--variant", "even", "--r", "2",
                        "--terms", "4")
    assert code == 0
    assert json.loads(out)["coefficients"] == [1, 6, 21, 56]


def test_hilbert_beyond_stored_numerators(capsys):
    code, out = run_cli(capsys, "hilbert", "--r", "5", "--terms", "4")
    assert code == 0
    assert json.loads(out)["coefficients"] == [1, 21, 231, 1771]


def test_relations_cyclic(capsys):
    code, out = run_cli(capsys, "relations", "--kind", "cyclic",
                        "--indices", "0,1,2,3", "--split", "3")
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_b0_deterministic(capsys):
    code1, out1 = run_cli(capsys, "b0", "--g", "2", "--q", "101",
                          "--trials", "20", "--seed", "7")
    code2, out2 = run_cli(capsys, "b0", "--g", "2", "--q", "101",
                          "--trials", "20", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["max_count"] == 2


def test_seed_comes_from_the_flag_alone(capsys, monkeypatch):
    # no environment variable may choose the seed
    monkeypatch.setenv("DELTA_INV_SEED", "7")
    args = ("b0", "--g", "3", "--q", "101", "--trials", "5")
    _, out_default = run_cli(capsys, *args)
    _, out_zero = run_cli(capsys, *args, "--seed", "0")
    assert out_default == out_zero


_CAPTURE_RANK_ROWS = """
import contextlib, io, json
from deltainv import cli, conj_invariants

matrices = []


def capture(matrix):
    matrices.append(matrix)
    return 0


conj_invariants.rank = capture
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["rank", "--g", "2", "--r", "2", "--seed", "0"])
matrix = matrices[0]
print(json.dumps({"ncols": matrix.ncols,
                  "rows": [sorted(row.items()) for row in matrix.rows]}))
"""


def test_rank_point_is_independent_of_hash_seed():
    # the gradient rows are a function of the drawn tuple and points alone
    src = str(Path(cli.__file__).resolve().parent.parent)
    drawn = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _CAPTURE_RANK_ROWS],
                             env=env, capture_output=True, text=True,
                             check=True)
        drawn.append(json.loads(run.stdout))
    assert drawn[0] == drawn[1]
    assert drawn[0]["ncols"] == 9        # T^(0..2) entries of a 2x2 matrix
    assert len(drawn[0]["rows"]) == 6    # one row per point, rank 6 expected


def _rank_doc(capsys, g, r, seed=0):
    code, out = run_cli(capsys, "rank", "--g", str(g), "--r", str(r),
                        "--seed", str(seed))
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("g,r,expected", [(3, 2, 10), (6, 2, 28), (8, 1, 9)])
def test_rank_beyond_one_level_pair(capsys, g, r, expected):
    # g > 2 with r > 1, and r = 1 beyond the symbolic theta budget
    doc = _rank_doc(capsys, g, r)
    assert doc["rank"] == doc["expected"] == expected


@pytest.mark.parametrize("r", [1, 2, 5])
def test_rank_of_one_by_one_matrices(capsys, r):
    # the r + 1 entries are their own invariants
    doc = _rank_doc(capsys, 1, r)
    assert doc["rank"] == doc["expected"] == r + 1


def test_rank_reaches_the_formula_up_to_g_10(capsys):
    for g in range(1, 11):
        for r in (1, 2, 3):
            doc = _rank_doc(capsys, g, r)
            assert doc["expected"] == (r + 1) * g * (g + 1) // 2 - g * g + 1
            assert doc["rank"] == doc["expected"], (g, r)


def test_rank_seed_sweep_never_exceeds_the_formula(capsys):
    for g, r in ((2, 3), (3, 2), (4, 1)):
        ranks = [_rank_doc(capsys, g, r, seed) for seed in range(20)]
        assert all(doc["rank"] <= doc["expected"] for doc in ranks)
        assert all(doc["rank"] == doc["expected"] for doc in ranks)


@pytest.mark.parametrize("g,r", [(g, r) for g in range(1, 6)
                                 for r in range(1, 4)])
def test_rank_matches_the_symbolic_theta_jacobian(g, r):
    field = (1 << 31) - 1
    rng = random.Random(100 * g + r)
    point = {VarId("T", l, i, j): rng.randrange(field) for l in range(r + 1)
             for i in range(1, g + 1) for j in range(i, g + 1)}
    polys = [theta(g, m) for m in theta_multidegrees(g, r)]
    assert theta_rank(g, r, 0)["rank"] \
        == jacobian_rank(polys, point, field=field)


@pytest.mark.parametrize("g,r", [(1, 2), (2, 1), (2, 3), (3, 2), (4, 1)])
def test_gradient_rows_combine_theta_gradients(g, r):
    # det(sum_l y_l T^(l)) = sum_m theta_m(T) y^m, so det M(y) times the
    # row at y is sum_m y^m grad theta_m(T)
    field = (1 << 31) - 1
    rng = random.Random(7 * g + r)
    point = {VarId("T", l, i, j): rng.randrange(field) for l in range(r + 1)
             for i in range(1, g + 1) for j in range(i, g + 1)}
    mats = [[[point[VarId("T", l, min(i, j), max(i, j))]
              for j in range(1, g + 1)] for i in range(1, g + 1)]
            for l in range(r + 1)]
    mdegs = theta_multidegrees(g, r)
    jac = jacobian_rows([theta(g, m) for m in mdegs], point)
    for _ in range(3):
        y = [rng.randrange(field) for _ in range(r + 1)]
        M = [[sum(yl * T[i][j] for yl, T in zip(y, mats)) for j in range(g)]
             for i in range(g)]
        weights = [prod(yl ** e for yl, e in zip(y, m)) for m in mdegs]
        combined = [sum(w * row[k] for w, row in zip(weights, jac)) % field
                    for k in range(len(point))]
        row = _gradient_row(mats, dict(enumerate(y)), field)
        assert [_det_rows(M) * row.get(k, 0) % field
                for k in range(len(point))] == combined


def test_rank_refuses_work_over_the_budget(capsys):
    assert main(["rank", "--g", "40", "--r", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rank at g = 40, r = 3 needs ")
    assert f"over the budget {conj_invariants.RANK_BUDGET}" in err


def test_xi_over_the_budget_is_refused(capsys):
    assert main(["xi", "--cycle", ",".join(map(str, range(16)))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: xi of 16 levels needs 1048576 ")


def test_expand_emits_entries(capsys):
    code, out = run_cli(capsys, "expand", "--kind", "f_angle", "--index", "1",
                        "--g", "1", "--p", "3", "--prec", "2", "--deg", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["g"] == 1 and doc["p"] == 3 and doc["N"] == 2 and doc["D"] == 3
    assert len(doc["entries"]) == 1


def test_verify_delta_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "delta", "--p", "3",
                        "--prec", "2", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0


def test_verify_expansions_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "expansions", "--p", "3",
                        "--prec", "2", "--deg", "3")
    assert code == 0
    assert json.loads(out)["failed"] == 0


def test_verify_expansions_needs_degree_one(capsys):
    # at --deg 0 the series has no linear part to compare with T' - T
    code, out = run_cli(capsys, "verify", "--suite", "expansions", "--p", "2",
                        "--prec", "2", "--deg", "0")
    assert code == 2 and out == ""
    code, out = run_cli(capsys, "verify", "--suite", "expansions", "--p", "2",
                        "--prec", "2", "--deg", "1")
    doc = json.loads(out)
    assert code == 0 and doc["passed"] == doc["total"] == 5


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["dims", "--g", "2"]) == 2


@pytest.mark.parametrize("argv", [
    "expand --kind f_angle --p 4",
    "expand --kind f_r --index 0",
    "expand --kind f_angle --index 0",
    "expand --kind f_angle --deg -1",
    "upsilon --g 2 --levels 0,0,1",
    "theta --g 7 --multidegree 1,1,1,1,1,1,1",
    "theta --g 2 --multidegree 3,-1",
    "diamond --multidegree 3,-1",
    "expand --kind f_angle --prec -1",
    "diamond --prec -1",
    "verify --suite expansions --prec -1",
    "verify --suite expansions --deg 0",
    "hilbert --terms -2",
    "hilbert --r -1",
    "hilbert --variant grassmannian --r -1",
    "hilbert --r 4 --terms 5001",
    "hilbert --variant grassmannian --terms 1000001",
    "xi --cycle 0,-1",
    "upsilon --g 2 --levels 0,1,-2",
    "relations --kind plucker --indices 0,1,2",
    "relations --kind plucker --indices 0,1,2,3,4",
    "relations --kind plucker --split 3",
    "expand --kind f_partial --index -5",
    "expand --kind f_partial --index 0",
    "expand --kind f_partial --deg -1",
    "dims --g 0 --r 1 --s 1",
    "dims --g -1 --r 1 --s 1",
    "dims --g 2 --r -1 --s 1",
    "dims --g 2 --r 1 --s -1",
    "dims --g 2 --r 1 --s 1/0",
    "dims --g 2 --r 1 --s 1e400",
    "dims --g 2 --r 1 --s 1 --out /nonexistent/x.json",
    "theta --g 0 --multidegree 0",
    "diamond --g 0",
    "rank --g 0 --r 1",
    "rank --g 2 --r 0",
    "rank --g 2 --r -1",
    "rank --g 40 --r 3",
    "expand --kind f_angle --g -1",
    "expand --kind f_partial --p 4",
    "verify --suite delta --p 4",
    "b0 --g 2 --q 101 --trials 0",
    "b0 --g 3 --q 1",
    "b0 --g 3 --q 2",
    "b0 --g 3 --q 101 --trials 100000000",
    "hilbert --r 1000000 --terms 1400",
])
def test_invalid_input_is_a_usage_error(capsys, argv):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _flag_value(spec):
    if "choices" in spec:
        return spec["choices"][0]
    return "2" if spec.get("type") is int else "1,1"


def _parser_grid(name):
    """Valid and invalid argv for one subcommand, built from its flags."""
    flags = cli._COMMANDS[name][1]
    required = [flag for flag, spec in flags.items() if spec.get("required")]
    valid = [name]
    for flag in required:
        valid += [f"--{flag}", _flag_value(flags[flag])]
    grid = [valid, valid + ["--out", "x.json"], valid + ["--bogus"],
            valid + ["extra"], [name, "-h"], valid + ["-h"]]
    for flag, spec in flags.items():
        if spec.get("required"):
            i = valid.index(f"--{flag}")
            grid.append(valid[:i] + valid[i + 2:])
        if spec.get("type") is int:
            grid.append(valid + [f"--{flag}", "x"])
        if "choices" in spec:
            grid.append(valid + [f"--{flag}", "no-such-choice"])
        if len(flag) > 4:
            grid.append(valid + [f"--{flag[:4]}", _flag_value(spec)])
    return grid


def _parse(parser, argv, capsys):
    try:
        result = parser.parse_args(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_one_command_parser_matches_full_parser(capsys, name):
    grid = _parser_grid(name)
    for argv in grid:
        full = _parse(cli._build_parser(), argv, capsys)
        one = _parse(cli._build_parser([name]), argv, capsys)
        assert one == full, argv
    assert _parse(cli._build_parser([name]), grid[0], capsys)[0].command \
        == name


@pytest.mark.parametrize("argv,code,message", [
    ([], 2, "delta-inv: error: the following arguments are required: command"),
    (["-h"], 0, "show this help message and exit"),
    (["no-such-command"], 2, "delta-inv: error: argument command: invalid"),
    (["-h", "dims"], 0, "show this help message and exit"),
])
def test_top_level_usage_lists_every_command(capsys, argv, code, message):
    assert main(argv) == code
    captured = capsys.readouterr()
    text = captured.out + captured.err
    assert text.startswith("usage: delta-inv [-h]")
    assert "{" + ",".join(cli._COMMANDS) + "}" in text
    assert message in text


def test_main_reads_sys_argv(capsys, monkeypatch):
    argv = ["dims", "--g", "2", "--r", "1", "--s", "1"]
    expected = run_cli(capsys, *argv)
    monkeypatch.setattr("sys.argv", ["delta-inv", *argv])
    assert (main(), capsys.readouterr().out) == expected
    monkeypatch.setattr("sys.argv", ["delta-inv", "dims", "--g", "2"])
    assert main() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "delta-inv dims: error: the following arguments are required" \
        in captured.err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = main(["dims", "--g", "2", "--r", "0", "--s", "1", "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["dimension"] == 1


def test_out_file_has_the_stdout_bytes(tmp_path, capsys):
    argv = ["theta", "--g", "3", "--multidegree", "2,1"]
    code, out = run_cli(capsys, *argv)
    target = tmp_path / "theta.json"
    assert main(argv + ["--out", str(target)]) == 0 == code
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode()


def test_failed_verification_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "initial_form_identity_check",
                        lambda F, D: False)
    code, out = run_cli(capsys, "verify", "--suite", "expansions", "--p", "3",
                        "--prec", "2", "--deg", "3")
    doc = json.loads(out)
    assert code == 1 and doc["failed"] == 1
    assert doc["passed"] == doc["total"] - 1


# ---------------------------------------------------------------- the writer

# quotes, backslashes, control characters and non-ASCII among any characters
_SPECIAL = '"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'
_TEXT = st.text(st.one_of(st.sampled_from(_SPECIAL), st.characters()))
_SCALARS = st.one_of(_TEXT, st.integers(), st.integers(min_value=2**64),
                     st.integers(max_value=-2**64), st.booleans(), st.none())
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=30)


@given(_DOCS)
@example({"a": [{}, [], [[]], {"b": {}}], "": [None, True, False, -0]})
@example('quote " backslash \\ nul \x00 e\u0301 \U0001f600')
def test_document_matches_json_dumps(doc):
    assert _document(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    0.5, Fraction(1, 2), [1, Fraction(1, 2)], {"x": 1.0}, (1, 2)])
def test_document_refuses_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        _document({"value": value})


def _records(poly):
    """The terms of ``poly`` as dicts, as the CLI wrote them through
    ``json.dumps`` before it wrote polynomials directly."""
    out = []
    for key in sorted(poly.terms):
        rec = {var_name(v): e for v, e in key}
        rec["coefficient"] = str(poly.terms[key])
        out.append(rec)
    return out


def _var(family, level, i, j):
    return MultiPoly.var(VarId(family, level, i, j))


_POLYS = {
    "zero": MultiPoly({}),
    "int-constant": MultiPoly.constant(-7),
    "fraction-constant": MultiPoly.constant(Fraction(3, 4)),
    "int": Tvar(1, 1, 2) * Tvar(0, 1, 1) * 3 - Tvar(0, 1, 1) ** 2 + 5,
    "fraction": (Tvar(0, 1, 2) * Fraction(-1, 3)) ** 3
    + Tvar(2, 2, 2) * Fraction(1),
    "padic": (Tvar(0, 1, 1) * TruncatedPadic(3, 2, 1)
              + Tvar(1, 1, 2) * TruncatedPadic(3, 2, 1) * 4) ** 2,
    "every-name": (Tvar(0, 1, 2) + _var("Q", 1, 2, 3) * _var("X", 0, 3, 1)
                   + uvar(2) * vvar(0) ** 3 + zvar(1, 0) * zvar(1, 2)
                   + _var("w", 1, 2, 0)) ** 2,
}


@pytest.mark.parametrize("name", _POLYS)
def test_polynomial_is_written_as_its_records(name):
    f = _POLYS[name]
    doc = {"g": 2, "polynomial": f}
    old = {"g": 2, "polynomial": _records(f)}
    assert _document(doc) == json.dumps(old, indent=2) + "\n"


def test_constant_is_one_coefficient_record():
    doc = json.loads(_document({"polynomial": MultiPoly.constant(5)}))
    assert doc == {"polynomial": [{"coefficient": "5"}]}


def test_expand_entries_are_written_as_their_records():
    series = expansion_basic("f_angle", 1, 2, 3, 2, 4)
    entries = cli._matrix_entries(series)
    old = [dict(entry, terms=_records(entry["terms"])) for entry in entries]
    assert any(entry["terms"] for entry in old)
    assert _document({"entries": entries}) \
        == json.dumps({"entries": old}, indent=2) + "\n"


def test_variables_with_one_name_are_refused():
    # "a1" at level 2 and "a" at level 12 are both named a12_0_0
    f = _var("a1", 2, 0, 0) + _var("a", 12, 0, 0)
    assert var_name(VarId("a1", 2, 0, 0)) == var_name(VarId("a", 12, 0, 0))
    with pytest.raises(ValueError, match="share a name"):
        _document({"polynomial": f})


def _readme_commands():
    """Each ``delta-inv`` line of the README's "Command line" block, with
    the JSON fields its ``# {...}`` comment promises."""
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```",
                      README.read_text(), re.M | re.S).group(1)
    cases = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        comment = comment.strip()
        cases.append(pytest.param(
            command.split(),
            json.loads(comment) if comment.startswith("{") else {},
            id=command.strip()))
    return cases


def test_readme_block_is_found():
    commands = [case.values[0] for case in _readme_commands()]
    assert len(commands) >= 10
    assert {argv[1] for argv in commands} >= {"dims", "hilbert", "b0", "verify"}


@pytest.mark.parametrize("argv,fields", _readme_commands())
def test_readme_command_runs(capsys, argv, fields):
    assert argv[0] == "delta-inv"
    code, out = run_cli(capsys, *argv[1:])
    assert code == 0
    doc = json.loads(out)
    assert {key: doc[key] for key in fields} == fields
