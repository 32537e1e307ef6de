"""The job menus of the three workloads, their seeded order, and the oracles.

A job is one ``delta-inv`` command line.  Every menu item is deterministic:
randomized subcommands carry their own ``--seed``, so each item has exactly
one correct standard output, whose SHA-256 is recorded in ``golden.json``.

Each menu has an odd number of items whose 50th and 90th percentile
positions fall inside one item's block of latencies rather than between two,
so whole rounds give steady percentiles.  No item takes much more than half a
second on the seed code; stretch sizes such as ``dims --g 3 --r 2 --s 2``
(about 2.5 s) and ``theta --g 6`` with three parts (about 8 s) stay out.
"""

from __future__ import annotations

import json
import random
import re


def _dims(g, r, s):
    return f"dims --g {g} --r {r} --s {s}"


def _theta(mdeg):
    return f"theta --g {sum(mdeg)} --multidegree {','.join(map(str, mdeg))}"


def _levels(n):
    return ",".join(str(i) for i in range(n))


TABLES = (
    # g = 2 slices, r 1-4 and s 2-3, without (4, 3) at about 2.8 s
    [_dims(2, r, s) for r in (1, 2, 3, 4) for s in (2, 3) if (r, s) != (4, 3)]
    # g = 3 slices, r 0-2 and s 1-2, without (2, 2) at about 2.5 s
    + [_dims(3, r, s) for r in (0, 1, 2) for s in (1, 2) if (r, s) != (2, 2)]
    + [_dims(4, 1, 1),
       "b0 --g 2 --q 10007 --trials 100 --seed 1",
       "b0 --g 3 --q 101 --trials 100 --seed 2",
       "b0 --g 3 --q 1009 --trials 100 --seed 3",
       "hilbert --variant even --r 4 --terms 6"]
)

GENERATORS = (
    # theta expands one determinant per (g, parts); at g = 6 the other
    # two-part multidegrees would repeat the 5,1 work in the heaviest jobs
    [_theta(m) for m in ((3, 1), (2, 2), (2, 1, 1),
                         (4, 1), (3, 2), (3, 1, 1), (2, 2, 1),
                         (5, 1))]
    + ["upsilon --g 2 --levels 0,1,2",
       "upsilon --g 3 --levels 0,1,2,3,4,5"]
    + [f"xi --cycle {_levels(n)}" for n in (5, 6, 7)]
    + ["relations --kind plucker",
       f"relations --kind cyclic --indices {_levels(5)} --split 2",
       f"relations --kind cyclic --indices {_levels(5)} --split 4",
       f"relations --kind cyclic --indices {_levels(6)} --split 2",
       f"relations --kind cyclic --indices {_levels(6)} --split 4"]
    + [f"rank --g {g} --r 1 --seed 11" for g in (4, 5)]
    + [f"rank --g 2 --r {r} --seed 12" for r in (3, 4, 5, 6, 8)]
)


def _expand(kind, index, g, p, prec, deg):
    return (f"expand --kind {kind} --index {index} --g {g} --p {p} "
            f"--prec {prec} --deg {deg}")


def _diamond(g, p, prec, deg, mdeg=None):
    theta = f" --multidegree {','.join(map(str, mdeg))}" if mdeg else ""
    return f"diamond --g {g}{theta} --p {p} --prec {prec} --deg {deg}"


EXPANSIONS = [
    _expand("f_partial", 1, 2, 3, 3, 6),
    _expand("f_partial", 1, 3, 7, 6, 12),
    _expand("f_angle", 2, 2, 3, 6, 12),
    _expand("f_angle", 2, 2, 7, 6, 12),
    _expand("f_angle", 3, 3, 3, 3, 12),
    _expand("f_angle", 1, 3, 5, 4, 10),
    _expand("f_angle", 2, 2, 5, 5, 8),
    _expand("f_r", 2, 2, 3, 3, 6),
    _expand("f_r", 2, 2, 7, 6, 12),
    _expand("f_r", 3, 2, 3, 4, 10),
    _expand("f_r", 2, 3, 5, 3, 8),
    _expand("f_bracket", 2, 2, 5, 4, 8),
    _expand("f_bracket", 2, 2, 3, 6, 12),
    _expand("f_bracket", 3, 2, 5, 5, 9),
    _diamond(2, 5, 4, 8),
    _diamond(3, 7, 3, 6),
    _diamond(2, 5, 5, 8, (1, 1)),
    _diamond(3, 3, 3, 6, (2, 1)),
    _diamond(3, 3, 4, 7, (1, 2)),
    "verify --suite delta --p 3 --prec 3",
    "verify --suite delta --p 7 --prec 3",
    "verify --suite expansions --p 5 --prec 4 --deg 8",
    "verify --suite expansions --p 7 --prec 6 --deg 10",
]

MENUS = {"tables": TABLES, "generators": GENERATORS, "expansions": EXPANSIONS}


def rounds(menu, seed):
    """Endless seeded rounds; each round is a fresh shuffle of the menu."""
    rng = random.Random(seed)
    while True:
        order = list(menu)
        rng.shuffle(order)
        yield order


# ---------------------------------------------------------------------------
# oracles: independent checks of an item's output, run outside the timed loop
# ---------------------------------------------------------------------------

def _flag(item: str, name: str) -> str:
    words = item.split()
    return words[words.index(f"--{name}") + 1]


def _parse_poly(records):
    """Rebuild a MultiPoly in the T-variables from its serialized terms."""
    from fractions import Fraction

    from deltainv.multipoly import MultiPoly, VarId

    terms = {}
    for rec in records:
        key = []
        for name, exp in rec.items():
            if name == "coefficient":
                continue
            m = re.fullmatch(r"T(\d+)_(\d)(\d)", name)
            if m is None:
                raise ValueError(f"unexpected variable {name}")
            key.append((VarId("T", int(m[1]), int(m[2]), int(m[3])), exp))
        terms[tuple(sorted(key))] = Fraction(rec["coefficient"])
    return MultiPoly(terms)


def _dims_oracle(item, doc):
    from deltainv.quad_invariants import hilbert_closed

    r, s = int(_flag(item, "r")), int(_flag(item, "s"))
    return doc["dimension"] == hilbert_closed(r, s + 1)[s]


def _rank_oracle(item, doc):
    g, r = int(_flag(item, "g")), int(_flag(item, "r"))
    expected = g + 1 if r == 1 else 3 * r
    return doc["rank"] == doc["expected"] == expected


def _verify_oracle(item, doc):
    return doc["failed"] == 0 and doc["passed"] == doc["total"] > 0


def _xi_oracle(item, doc):
    from deltainv.quad_invariants import jmath, xi_target

    cycle = tuple(int(c) for c in _flag(item, "cycle").split(","))
    return jmath(_parse_poly(doc["polynomial"])) == xi_target(cycle)


def _b0_oracle(item, doc):
    return doc["max_count"] <= 2 and max(doc["counts"]) == doc["max_count"]


def oracle_for(item: str):
    """The oracle that applies to a menu item, or None."""
    cmd = item.split()[0]
    if cmd == "dims" and _flag(item, "g") == "2":
        return _dims_oracle
    if cmd == "b0" and _flag(item, "g") == "2":
        return _b0_oracle
    return {"rank": _rank_oracle, "verify": _verify_oracle,
            "xi": _xi_oracle}.get(cmd)


def oracle_holds(item: str, stdout: str) -> bool:
    """Run the item's oracle on its output; True when it has none."""
    check = oracle_for(item)
    return check is None or bool(check(item, json.loads(stdout)))
