"""Tests for the batch command-line front end."""

import json
import re
from pathlib import Path

import pytest

from deltainv import cli
from deltainv.cli import main

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


def test_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("DELTA_INV_SEED", "7")
    _, out_env = run_cli(capsys, "b0", "--g", "2", "--q", "101", "--trials", "5")
    _, out_flag = run_cli(capsys, "b0", "--g", "2", "--q", "101", "--trials", "5",
                          "--seed", "7")
    assert out_env == out_flag


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
    "hilbert --terms -2",
    "hilbert --r -1",
    "hilbert --variant grassmannian --r -1",
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
    "dims --g 2 --r 1 --s 1 --out /nonexistent/x.json",
    "theta --g 0 --multidegree 0",
    "diamond --g 0",
    "rank --g 0 --r 1",
    "rank --g 2 --r 0",
    "rank --g 2 --r -1",
    "expand --kind f_angle --g -1",
    "expand --kind f_partial --p 4",
    "verify --suite delta --p 4",
    "b0 --g 2 --q 101 --trials 0",
    "b0 --g 3 --q 1",
    "b0 --g 3 --q 2",
])
def test_invalid_input_is_a_usage_error(capsys, argv):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = main(["dims", "--g", "2", "--r", "0", "--s", "1", "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["dimension"] == 1


def test_failed_verification_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "initial_form_identity_check",
                        lambda F, D: False)
    code, out = run_cli(capsys, "verify", "--suite", "expansions", "--p", "3",
                        "--prec", "2", "--deg", "3")
    doc = json.loads(out)
    assert code == 1 and doc["failed"] == 1
    assert doc["passed"] == doc["total"] - 1


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
