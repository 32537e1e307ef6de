"""Truncated p-adic expansion engine.

The basic object is the entrywise series
``(1/p) log((1 + t^phi) / (1 + t)^p)``, where ``t^phi`` is the Frobenius lift
``t^p + p t'``.  Everything is computed as a polynomial truncated at a total
degree D, with coefficients either exact rationals or truncated p-adic
residues at precision N.  Every matrix entry carries the same series in its
own variables, so each twist level's series is built once,
in the entry variable ``T^(0)_11``, and renamed for every entry.

The lift is a ring endomorphism, so every twisted series is a difference of
Frobenius lifts of one logarithm ``L = log(1 + T^(0)_11)``: twist level a is
``(phi^a(L) - p phi^(a-1)(L)) / p``, and the full forms ``f_r``/``f_bracket``,
``sum_(i < a) p^i`` times level ``a - i``, telescope to
``(phi^a(L) - p^a L) / p``.  A call builds one tower ``L, phi(L), ...`` up
to the highest lift it needs, each entry one lift of the last, and reads
every level's series off it.
"""

from __future__ import annotations

from fractions import Fraction

from .conj_invariants import y_invariant
from .delta_calculus import frobenius_lift
from .exact_arith import rational_reduce, require_at_least, require_prime
from .multipoly import MultiPoly, VarId, homogeneous_component, substitute


def reduce_rational_poly(f: MultiPoly, p: int, N: int) -> MultiPoly:
    """Reduce every coefficient to a truncated p-adic residue."""
    return f.map_coeffs(lambda c: rational_reduce(c, p, N))


# ---------------------------------------------------------------------------
# the scalar series and its twists
# ---------------------------------------------------------------------------

_ENTRY = VarId("T", 0, 1, 1)


def _lifts(p: int, D: int, a: int) -> list:
    """The tower ``[L, phi(L), ..., phi^a(L)]`` of Frobenius lifts of
    ``L = log(1 + T^(0)_11)``, with exact rational coefficients, truncated
    at degree D: each entry is one lift of the last."""
    require_prime(p)
    require_at_least(D, 0, "D")
    tower = [MultiPoly({((_ENTRY, n),): Fraction((-1) ** (n + 1), n)
                        for n in range(1, D + 1)}, trunc=D)]
    for _ in range(a):
        tower.append(frobenius_lift(tower[-1], p))
    return tower


def _twist(tower: list, a: int, p: int) -> MultiPoly:
    """Twist level a, ``(1/p) log((1 + tau_a) / (1 + tau_(a-1))^p)``, read
    off a tower of at least a + 1 lifts as ``(phi^a(L) - p phi^(a-1)(L)) /
    p``: ``tau_k`` is the k-fold Frobenius lift of the entry variable
    ``T^(0)_11``, and ``log(1 + tau_k) = phi^k(L)``.  :func:`_rename` moves
    the series to any other entry."""
    require_at_least(a, 1, "twist level")
    return (tower[a] - tower[a - 1] * p) * Fraction(1, p)


def _rename(f: MultiPoly, i: int, j: int) -> MultiPoly:
    """f with every ``T^(l)_11`` renamed to the entry (i, j) of level l.

    Only the indices change, so every key stays sorted.
    """
    i, j = min(i, j), max(i, j)
    return MultiPoly({tuple((VarId("T", v.level, i, j), e) for v, e in key): c
                      for key, c in f.terms.items()}, trunc=f.trunc)


def _entrywise(f: MultiPoly, g: int, p: int, N: int):
    """The g x g matrix (a list of rows) carrying f, reduced mod p^N once,
    in each entry's variables."""
    f = reduce_rational_poly(f, p, N)
    return [[_rename(f, i, j) for j in range(1, g + 1)]
            for i in range(1, g + 1)]


def psi_phi_direct(a: int, g: int, p: int, N: int, D: int):
    """The (a-1)-fold twisted series, built directly from Frobenius iterates."""
    return _entrywise(_twist(_lifts(p, D, a), a, p), g, p, N)


def phi_twist(S, p: int):
    """Apply the Frobenius lift to every variable of every entry; each entry
    keeps its degree bound."""
    return [[frobenius_lift(f, p) for f in row] for row in S]


# ---------------------------------------------------------------------------
# expansions of the basic forms
# ---------------------------------------------------------------------------

def expansion_basic(kind: str, index: int, g: int, p: int, N: int, D: int):
    require_prime(p)
    require_at_least(g, 1, "g")
    if kind not in ("f_partial", "f_angle", "f_r", "f_bracket"):
        raise ValueError(f"unknown expansion kind: {kind}")
    for name, value, low in (("index", index, 1), ("N", N, 1), ("D", D, 0)):
        require_at_least(value, low, name)
    if kind == "f_partial":
        one = rational_reduce(1, p, N)
        return [[MultiPoly.constant(one if i == j else one * 0)
                 for j in range(g)] for i in range(g)]
    if kind == "f_angle":
        return psi_phi_direct(index, g, p, N, D)
    # sum_(i < index) p^i psi_(index - i), telescoped
    tower = _lifts(p, D, index)
    return _entrywise((tower[index] - tower[0] * p ** index) * Fraction(1, p),
                      g, p, N)


# ---------------------------------------------------------------------------
# suit maps
# ---------------------------------------------------------------------------

def _slot_images(F: MultiPoly, series: dict) -> dict:
    """Each variable of F mapped to ``series[level]``, renamed to its
    entry."""
    return {v: _rename(series[v.level], v.i, v.j) for v in F.variables()}


def diamond_realize(F: MultiPoly, r: int, g: int, p: int, N: int,
                    D: int) -> MultiPoly:
    """Substitute the (level)-fold twisted series for each slot of F, every
    level read off one tower of lifts."""
    for name, value, low in (("g", g, 1), ("N", N, 1), ("D", D, 0)):
        require_at_least(value, low, name)
    for v in sorted(F.variables()):
        if v.level >= r:
            raise ValueError(f"slot {v.level} needs r > {v.level}")
        if not (1 <= v.i <= g and 1 <= v.j <= g):
            raise ValueError(f"entry ({v.i}, {v.j}) is outside g = {g}")
    levels = {v.level for v in F.variables()}
    tower = _lifts(p, D, max(levels, default=-1) + 1)
    series = {level: reduce_rational_poly(_twist(tower, level + 1, p), p, N)
              for level in levels}
    return substitute(reduce_rational_poly(F, p, N),
                      _slot_images(F, series), D)


def spade(F: MultiPoly, D: int, p: int = 3) -> MultiPoly:
    """Slot 0 becomes the entrywise logarithm; slot k >= 1 the rational
    (k-1)-fold twisted series, every level read off one tower of lifts."""
    levels = {v.level for v in F.variables()}
    tower = _lifts(p, D, max(levels, default=0))
    series = {level: _twist(tower, level, p) if level else tower[0]
              for level in levels}
    return substitute(F.map_coeffs(Fraction), _slot_images(F, series), D)


def _difference(v: VarId, p: int) -> MultiPoly:
    """``p^l (v' - v)`` for a slot-l variable v, v' the same entry one level
    up."""
    up = v._replace(level=v.level + 1)
    return (MultiPoly.var(up) - MultiPoly.var(v)) * Fraction(p ** v.level)


def difference_substitution(F: MultiPoly, p: int) -> MultiPoly:
    """Replace each slot-l variable by ``p^l`` times the next-level difference."""
    return substitute(F.map_coeffs(Fraction),
                      {v: _difference(v, p) for v in F.variables()})


def initial_form_identity_check(F: MultiPoly, D: int) -> bool:
    """The lowest-degree form of the slot substitution of F equals F applied
    to (T, T'-T, p(T''-T'), ...), for every small prime."""
    d = F.degree()
    for p in (2, 3, 5):
        lhs = homogeneous_component(spade(F, max(D, d), p), d)
        sigma = {v: _difference(v._replace(level=v.level - 1), p) if v.level
                 else MultiPoly.var(v).map_coeffs(Fraction)
                 for v in F.variables()}
        rhs = substitute(F.map_coeffs(Fraction), sigma)
        if not lhs == rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# cyclic word comparison
# ---------------------------------------------------------------------------

def cyclic_word_check(levels, j: int, g: int, p: int) -> dict:
    """Compare the cyclic product of basic-form expansions with the
    corresponding one-term word in the twisted matrices, modulo p.

    The comparison lives in the polynomial ring whose variables are the
    entries of the symmetric matrices ``Q^(m)`` (one matrix per level,
    entries algebraically independent over the integers).  Each cycle edge
    (a, b) contributes the factor ``Q^(hi) + p Q^(hi-1) + ... + p^(hi-lo-1)
    Q^(lo+1)`` with hi = max(a, b), lo = min(a, b); every second factor is
    adjugated.  The single-word side is
    :func:`~deltainv.conj_invariants.y_invariant`, which keeps only
    ``Q^(max(a, b))`` in each slot.

    Each factor is congruent to ``Q^(hi)`` mod p, reduction mod p is a ring
    map, and adjugates and characteristic coefficients are integer
    polynomials in the entries, so the two j-th coefficients agree mod p for
    every input: ``equal`` is always true.  Only ``nonzero``, whether the
    single-word side is nonzero mod p, carries information, and only that
    side is computed; the status is ``"verified"`` when it is nonzero and
    ``"inconclusive"`` otherwise.  The computation is exact and needs no
    degree truncation.  p must be prime.
    """
    require_prime(p)
    levels = tuple(levels)
    if len(levels) % 2 or len(levels) < 2:
        raise ValueError("cycle must have positive even length")
    if any(a == b for a, b in zip(levels, levels[1:] + levels[:1])):
        raise ValueError(f"cycle entries must alternate, got {levels}")
    cY = y_invariant(j, levels, g)
    nonzero = bool(cY.map_coeffs(lambda c: c % p))
    return {"equal": True, "nonzero": nonzero,
            "status": "verified" if nonzero else "inconclusive"}
