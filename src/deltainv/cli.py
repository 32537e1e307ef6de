"""Batch command-line front end.

Every subcommand handler runs one computation and returns one JSON document,
which ``main`` writes on standard output (or to ``--out FILE``) in the layout
of ``json.dumps(doc, indent=2)``; a polynomial in a document is written as
the list of its terms, one ``{name: exponent, ..., "coefficient": str}``
record per monomial in sorted order.  Exit codes:
0 on success, 1 when a verification suite reports failures, 2 on usage
errors, invalid input and an unwritable ``--out``.  Randomized subcommands
draw from ``--seed`` alone (default 0), so the same arguments print the same
bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json.encoder
import random
import sys
from fractions import Fraction

from .delta_calculus import canonical_delta, delta_bracket
from .exact_arith import require_prime
from .exact_linalg import ExactMatrix, inverse, rank
from .multipoly import MultiPoly, SizeTooLarge, Tvar, _det_rows, \
    generic_sym_matrix, homogeneous_component, var_name
from .quad_invariants import (
    b0_count,
    hilbert_closed,
    invariant_dimension,
    relation_check,
    theta,
    upsilon,
    xi_lift,
)
from .serre_tate import (
    diamond_realize,
    expansion_basic,
    initial_form_identity_check,
    phi_twist,
    psi_phi_direct,
    reduce_rational_poly,
)


def _int_tuple(text: str):
    return tuple(int(part) for part in text.split(","))


def _matrix_entries(series) -> list:
    return [{"row": i, "col": j, "terms": entry}
            for i, row in enumerate(series, 1)
            for j, entry in enumerate(row, 1)]


# ---------------------------------------------------------------------------
# the document writer
# ---------------------------------------------------------------------------

# json.dumps encodes in pure Python whenever ``indent`` is set; these are the
# C scalar encoders it would call.
_quote = json.encoder.encode_basestring_ascii
_int = int.__repr__


def _document(doc) -> str:
    """``json.dumps(doc, indent=2) + "\n"``, with ``MultiPoly`` values.

    Dict keys must be strings; a value other than a dict, list, str, int,
    bool, None or ``MultiPoly`` raises ``TypeError``."""
    out = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, nl, out):
    """Append ``value`` to ``out``; ``nl`` starts the line it is on."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(_int(value))
    elif isinstance(value, MultiPoly):
        _write_poly(value, nl, out)
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")


def _write_poly(poly, nl, out):
    """The terms of ``poly`` as records, each variable's quoted name
    prefix built once."""
    terms = poly.terms
    if not terms:
        out.append("[]")
        return
    record = nl + "  "
    field = record + "  "
    names = {v: var_name(v) for v in {v for key in terms for v, _ in key}}
    if len(set(names.values())) < len(names):
        raise ValueError("two variables of a polynomial share a name")
    prefix = {v: field + _quote(name) + ": " for v, name in names.items()}
    coefficient = field + '"coefficient": '
    close = record + "}"
    sep = "[" + record + "{"
    for key in sorted(terms):
        out.append(sep + "".join([prefix[v] + _int(e) + "," for v, e in key])
                   + coefficient + _quote(str(terms[key])) + close)
        sep = "," + record + "{"
    out.append(nl + "]")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_dims(args):
    try:
        s = Fraction(args.s)
    except ZeroDivisionError:
        raise ValueError(f"s must have a nonzero denominator, got {args.s}") \
            from None
    dimension = invariant_dimension(args.g, args.r, s)
    return {"g": args.g, "r": args.r, "s": str(args.s),
            "dimension": dimension}


def _cmd_hilbert(args):
    coeffs = hilbert_closed(args.r, args.terms, variant=args.variant)
    return {"variant": args.variant, "r": args.r, "terms": args.terms,
            "coefficients": list(coeffs)}


def _cmd_theta(args):
    mdeg = _int_tuple(args.multidegree)
    poly = theta(args.g, mdeg)
    return {"g": args.g, "multidegree": list(mdeg),
            "polynomial": poly}


def _cmd_upsilon(args):
    levels = _int_tuple(args.levels)
    poly = upsilon(args.g, levels)
    return {"g": args.g, "levels": list(levels),
            "polynomial": poly}


def _cmd_xi(args):
    cycle = _int_tuple(args.cycle)
    poly = xi_lift(cycle)
    return {"cycle": list(cycle), "polynomial": poly}


def _cmd_relations(args):
    indices = _int_tuple(args.indices)
    holds, witness = relation_check(args.kind, indices, split=args.split)
    doc = {"kind": args.kind, "indices": list(indices), "holds": holds}
    if args.split is not None:
        doc["split"] = args.split
    for key, value in witness.items():
        doc[key] = value if isinstance(value, (int, bool)) else str(value)
    return doc


def _cmd_expand(args):
    series = expansion_basic(args.kind, args.index, args.g, args.p,
                             args.prec, args.deg)
    return {"kind": args.kind, "index": args.index, "g": args.g,
            "p": args.p, "N": args.prec, "D": args.deg,
            "entries": _matrix_entries(series)}


def _cmd_diamond(args):
    if args.multidegree:
        mdeg = _int_tuple(args.multidegree)
        invariant = theta(args.g, mdeg)
        label = {"invariant": "theta", "multidegree": list(mdeg)}
        r = len(mdeg)
    else:
        invariant = _det_rows(generic_sym_matrix(args.g, level=0))
        label = {"invariant": "det"}
        r = 1
    poly = diamond_realize(invariant, r, args.g, args.p, args.prec, args.deg)
    doc = {"g": args.g, "r": r, "p": args.p, "N": args.prec, "D": args.deg}
    doc.update(label)
    doc["polynomial"] = poly
    return doc


# rows^2 * columns of the elimination behind one rank: about 3 s at the budget
RANK_BUDGET = 10 ** 7


def _gradient_row(mats, y, field):
    """The gradient of det M, M = sum_l y_l T^(l), in the entries T^(l)_ij
    (by l, then i <= j), over det M and mod ``field``: y_l c_ij (M^-1)_ij,
    with c = 1 on the diagonal and 2 off it.  ``ZeroDivisionError`` when M
    is singular."""
    g = len(mats[0])
    inv = inverse([[sum(yl * T[i][j] for yl, T in zip(y, mats)) % field
                    for j in range(g)] for i in range(g)], field)
    return [yl * (1 if i == j else 2) * inv[i][j] % field
            for yl in y for i in range(g) for j in range(i, g)]


def _cmd_rank(args):
    g, r = args.g, args.r
    for name, value in (("g", g), ("r", r)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    # for r >= 1 a generic tuple has a finite stabiliser in SL_g, so the
    # invariants have transcendence degree dim V - dim SL_g
    n = g * (g + 1) // 2
    expected = (r + 1) * n - (g * g - 1)
    work = expected ** 2 * (r + 1) * n
    if work > RANK_BUDGET:
        raise SizeTooLarge(f"rank at g = {g}, r = {r} needs {work} steps "
                           f"(rows^2 * columns), over the budget {RANK_BUDGET}")
    field = (1 << 31) - 1
    rng = random.Random(args.seed)
    upper = [{(i, j): rng.randrange(field) for i in range(g)
              for j in range(i, g)} for _ in range(r + 1)]
    mats = [[[T[min(i, j), max(i, j)] for j in range(g)] for i in range(g)]
            for T in upper]
    # det(sum_l y_l T^(l)) = sum_m theta_m(T) y^m, so each gradient row is a
    # combination of rows of the theta Jacobian: their rank is at most its
    # rank, which is at most ``expected``.  g + 1 points on the levels 0, 1
    # reach the pencil's g + 1; a generic pencil has a finite stabiliser, so
    # n points on the levels 0, 1, l add n for each further level l, in
    # sparse rows.
    rows = []
    for levels in [(0, 1)] * (g + 1) + [(0, 1, l) for l in range(2, r + 1)
                                        for _ in range(n)]:
        while True:
            y = [rng.randrange(1, field) if l in levels else 0
                 for l in range(r + 1)]
            # a point where M(y) is singular mod p is drawn again
            with contextlib.suppress(ZeroDivisionError):
                rows.append(_gradient_row(mats, y, field))
                break
    return {"g": g, "r": r, "rank": rank(ExactMatrix(rows, field=field)),
            "expected": expected, "field": field, "seed": args.seed}


def _cmd_b0(args):
    result = b0_count(args.g, args.q, trials=args.trials, seed=args.seed)
    return {"g": args.g, "q": args.q, "trials": args.trials,
            "seed": args.seed,
            "max_count": result["max_count"], "counts": result["counts"]}


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _random_int_poly(rng, nvars: int, terms: int) -> MultiPoly:
    gens = [Tvar(0, 1, 1), Tvar(0, 1, 2), Tvar(0, 2, 2)][:nvars]
    acc = MultiPoly.constant(rng.randrange(-3, 4))
    for _ in range(terms):
        mono = MultiPoly.constant(rng.randrange(-3, 4))
        for _ in range(rng.randrange(1, 3)):
            mono = mono * rng.choice(gens)
        acc = acc + mono
    return acc


def _suite_delta(args):
    p = args.p
    require_prime(p)
    rng = random.Random(args.seed)
    for trial in range(3):
        F = _random_int_poly(rng, 3, 3)
        G = _random_int_poly(rng, 3, 3)
        corr = (F ** p + G ** p - (F + G) ** p).map_coeffs(
            lambda c: Fraction(c, p))
        yield f"sum-rule-{trial}", canonical_delta(F + G, p) == (
            canonical_delta(F, p) + canonical_delta(G, p) + corr)
        yield f"product-rule-{trial}", canonical_delta(F * G, p) == (
            F ** p * canonical_delta(G, p) + G ** p * canonical_delta(F, p)
            + canonical_delta(F, p) * canonical_delta(G, p) * p)

    a, b = Tvar(0, 1, 1), Tvar(0, 1, 2)
    yield ("bracket-antisymmetry",
           delta_bracket(a, b, p) == -delta_bracket(b, a, p))
    yield ("constant-has-zero-image",
           not canonical_delta(MultiPoly.constant(1), p))


def _suite_expansions(args):
    p, N, D = args.p, args.prec, args.deg
    if D < 1:
        raise ValueError(f"deg must be at least 1, got {D}")
    base = psi_phi_direct(1, 2, p, N, D)
    linear = reduce_rational_poly(Tvar(1, 1, 1) - Tvar(0, 1, 1), p, N)
    yield "linear-part", homogeneous_component(base[0][0], 1) == linear
    yield ("twist-route",
           psi_phi_direct(2, 2, p, N, D) == phi_twist(base, p))
    angle = expansion_basic("f_angle", 1, 2, p, N, D)
    yield "angle-is-base-series", angle == base
    partial = expansion_basic("f_partial", 1, 2, p, N, D)
    yield ("partial-is-identity",
           all(partial[i][i].constant_value() for i in (0, 1))
           and not partial[0][1])
    det0 = _det_rows(generic_sym_matrix(2, level=0))
    yield "initial-form-det", initial_form_identity_check(det0, 2)


def _cmd_verify(args):
    suites = {"delta": _suite_delta, "expansions": _suite_expansions}
    checks = [{"name": name, "passed": bool(passed)}
              for name, passed in suites[args.suite](args)]
    failed = sum(not c["passed"] for c in checks)
    return {"suite": args.suite, "total": len(checks),
            "passed": len(checks) - failed, "failed": failed,
            "checks": checks}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_COMMANDS = {
    "dims": (_cmd_dims, dict(
        g={"type": int, "required": True},
        r={"type": int, "required": True},
        s={"required": True})),
    "hilbert": (_cmd_hilbert, dict(
        variant={"choices": ("even", "grassmannian"), "default": "even"},
        r={"type": int, "default": 4},
        terms={"type": int, "default": 4})),
    "theta": (_cmd_theta, dict(
        g={"type": int, "required": True},
        multidegree={"required": True})),
    "upsilon": (_cmd_upsilon, dict(
        g={"type": int, "required": True},
        levels={"required": True})),
    "xi": (_cmd_xi, dict(
        cycle={"required": True})),
    "relations": (_cmd_relations, dict(
        kind={"choices": ("cyclic", "plucker"), "required": True},
        indices={"default": "0,1,2,3"},
        split={"type": int, "default": None})),
    "expand": (_cmd_expand, dict(
        kind={"choices": ("f_partial", "f_angle", "f_r", "f_bracket"),
              "required": True},
        index={"type": int, "default": 1},
        g={"type": int, "default": 2},
        p={"type": int, "default": 3},
        prec={"type": int, "default": 3},
        deg={"type": int, "default": 4})),
    "diamond": (_cmd_diamond, dict(
        g={"type": int, "default": 2},
        multidegree={"default": None},
        p={"type": int, "default": 3},
        prec={"type": int, "default": 3},
        deg={"type": int, "default": 4})),
    "rank": (_cmd_rank, dict(
        g={"type": int, "required": True},
        r={"type": int, "required": True},
        seed={"type": int, "default": 0})),
    "b0": (_cmd_b0, dict(
        g={"type": int, "required": True},
        q={"type": int, "required": True},
        trials={"type": int, "default": 100},
        seed={"type": int, "default": 0})),
    "verify": (_cmd_verify, dict(
        suite={"choices": ("delta", "expansions"), "required": True},
        p={"type": int, "default": 3},
        prec={"type": int, "default": 3},
        deg={"type": int, "default": 4},
        seed={"type": int, "default": 0})),
}


def _build_parser(names=_COMMANDS) -> argparse.ArgumentParser:
    """The parser for the subcommands ``names``.

    A parser for some of the subcommands still names all of them in its
    usage line, so its errors read as the full parser's do.  The full
    parser keeps argparse's own metavar, which its "required" and
    "invalid choice" errors depend on."""
    parser = argparse.ArgumentParser(prog="delta-inv", description=__doc__)
    metavar = None if len(names) == len(_COMMANDS) \
        else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)
    for name in names:
        handler, flags = _COMMANDS[name]
        cmd = sub.add_parser(name)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--out", default=None)
        for flag, spec in flags.items():
            cmd.add_argument(f"--{flag}", **spec)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Only the named subcommand's parser is built; help, a missing or
    # unknown command and a leading option go through the full parser.
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    parser = _build_parser(names)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        doc = args.handler(args)
        text = _document(doc)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 1 if args.command == "verify" and doc["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
