"""Batch command-line front end.

Every subcommand handler runs one computation and returns one JSON document,
which ``main`` writes on standard output (or to ``--out FILE``).  Exit codes:
0 on success, 1 when a verification suite reports failures, 2 on usage
errors, invalid input and an unwritable ``--out``.  Randomized subcommands
draw from ``--seed``; when the flag is absent the environment variable
``DELTA_INV_SEED`` is consulted, and 0 is the final fallback.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .delta_calculus import canonical_delta, delta_bracket
from .conj_invariants import jacobian_rank
from .exact_arith import require_prime
from .multipoly import MultiPoly, Tvar, generic_sym_matrix, \
    homogeneous_component, sym_det
from .quad_invariants import (
    b0_count,
    hilbert_closed,
    invariant_dimension,
    relation_check,
    theta,
    theta_multidegrees,
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


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("DELTA_INV_SEED")
    return int(env) if env else 0


def _matrix_entries(series) -> list:
    entries = []
    for i in range(1, series.g + 1):
        for j in range(1, series.g + 1):
            entries.append({"row": i, "col": j,
                            "terms": series.entry(i, j).serialize()})
    return entries


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
            "polynomial": poly.serialize()}


def _cmd_upsilon(args):
    levels = _int_tuple(args.levels)
    poly = upsilon(args.g, levels)
    return {"g": args.g, "levels": list(levels),
            "polynomial": poly.serialize()}


def _cmd_xi(args):
    cycle = _int_tuple(args.cycle)
    poly = xi_lift(cycle)
    return {"cycle": list(cycle), "polynomial": poly.serialize()}


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
        invariant = sym_det(generic_sym_matrix(args.g, level=0))
        label = {"invariant": "det"}
        r = 1
    poly = diamond_realize(invariant, r, args.g, args.p, args.prec, args.deg)
    doc = {"g": args.g, "r": r, "p": args.p, "N": args.prec, "D": args.deg}
    doc.update(label)
    doc["polynomial"] = poly.serialize()
    return doc


def _cmd_rank(args):
    if args.r < 1:
        raise ValueError(f"r must be at least 1, got {args.r}")
    field = (1 << 31) - 1
    seed = _resolve_seed(args)
    rng = random.Random(seed)
    if args.r == 1:
        polys = [theta(args.g, m) for m in theta_multidegrees(args.g, 1)]
        expected = args.g + 1
    elif args.g == 2:
        polys = [theta(2, m) for m in theta_multidegrees(2, args.r)
                 if sum(1 for c in m[2:] if c) <= 1]
        expected = 3 * args.r
    else:
        raise ValueError("rank families available for r = 1 or g = 2")
    point = {v: rng.randrange(1, field) for f in polys for v in f.variables()}
    rank = jacobian_rank(polys, point, field=field)
    return {"g": args.g, "r": args.r, "rank": rank, "expected": expected,
            "field": field, "seed": seed}


def _cmd_b0(args):
    seed = _resolve_seed(args)
    result = b0_count(args.g, args.q, trials=args.trials, seed=seed)
    return {"g": args.g, "q": args.q, "trials": args.trials, "seed": seed,
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
    rng = random.Random(_resolve_seed(args))
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
           canonical_delta(MultiPoly.constant(1), p).is_zero())


def _suite_expansions(args):
    p, N, D = args.p, args.prec, args.deg
    base = psi_phi_direct(1, 2, p, N, D)
    linear = reduce_rational_poly(
        Tvar(1, 1, 1, one=Fraction(1)) - Tvar(0, 1, 1, one=Fraction(1)), p, N)
    yield "linear-part", homogeneous_component(base.entry(1, 1), 1) == linear
    yield ("twist-route",
           psi_phi_direct(2, 2, p, N, D) == phi_twist(base, p))
    angle = expansion_basic("f_angle", 1, 2, p, N, D)
    yield "angle-is-base-series", angle == base
    partial = expansion_basic("f_partial", 1, 2, p, N, D)
    yield ("partial-is-identity",
           all(partial.entry(i, i).constant_value() for i in (1, 2))
           and partial.entry(1, 2).is_zero())
    det0 = sym_det(generic_sym_matrix(2, level=0))
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
        seed={"type": int, "default": None})),
    "b0": (_cmd_b0, dict(
        g={"type": int, "required": True},
        q={"type": int, "required": True},
        trials={"type": int, "default": 100},
        seed={"type": int, "default": None})),
    "verify": (_cmd_verify, dict(
        suite={"choices": ("delta", "expansions"), "required": True},
        p={"type": int, "default": 3},
        prec={"type": int, "default": 3},
        deg={"type": int, "default": 4},
        seed={"type": int, "default": None})),
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
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(doc, indent=2) + "\n"
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
