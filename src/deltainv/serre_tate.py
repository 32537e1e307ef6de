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
``(phi^a(L) - p^a L) / p``.
"""

from __future__ import annotations

from fractions import Fraction

from .conj_invariants import y_invariant
from .delta_calculus import frobenius_lift
from .exact_arith import TruncatedPadic, rational_reduce, require_prime
from .multipoly import MultiPoly, VarId, homogeneous_component, substitute


def reduce_rational_poly(f: MultiPoly, p: int, N: int) -> MultiPoly:
    """Reduce every coefficient to a truncated p-adic residue."""
    return f.map_coeffs(lambda c: rational_reduce(c, p, N))


# ---------------------------------------------------------------------------
# the scalar series and its twists
# ---------------------------------------------------------------------------

_ENTRY = VarId("T", 0, 1, 1)


def _log_entry(D: int) -> MultiPoly:
    """``L = log(1 + T^(0)_11)`` with exact rational coefficients, truncated
    at degree D: every twist level's series is a combination of Frobenius
    lifts of L."""
    if D < 0:
        raise ValueError(f"degree bound must be nonnegative, got {D}")
    return MultiPoly({((_ENTRY, n),): Fraction((-1) ** (n + 1), n)
                      for n in range(1, D + 1)}, trunc=D)


def _log_series(a: int, p: int, D: int) -> MultiPoly:
    """``(1/p) log((1 + tau_a) / (1 + tau_(a-1))^p)`` with exact rational
    coefficients, truncated at degree D.

    ``tau_k`` is the k-fold Frobenius lift of the entry variable
    ``T^(0)_11``; :func:`_rename` moves the series to any other entry.  The
    lift is a ring endomorphism, so ``log(1 + tau_k) = phi^k(L)`` and the
    series is ``(phi^a(L) - p phi^(a-1)(L)) / p``.
    """
    require_prime(p)
    if a < 1:
        raise ValueError(f"twist level must be at least 1, got {a}")
    prev = _log_entry(D)
    for _ in range(a - 1):
        prev = frobenius_lift(prev, p)
    return (frobenius_lift(prev, p) - prev * p) * Fraction(1, p)


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
    return _entrywise(_log_series(a, p, D), g, p, N)


def phi_twist(S, p: int):
    """Apply the Frobenius lift to every variable of every entry; each entry
    keeps its degree bound."""
    return [[frobenius_lift(f, p) for f in row] for row in S]


# ---------------------------------------------------------------------------
# expansions of the basic forms
# ---------------------------------------------------------------------------

def expansion_basic(kind: str, index: int, g: int, p: int, N: int, D: int):
    require_prime(p)
    if g < 1:
        raise ValueError(f"matrix size must be at least 1, got {g}")
    if kind not in ("f_partial", "f_angle", "f_r", "f_bracket"):
        raise ValueError(f"unknown expansion kind: {kind}")
    if index < 1:
        raise ValueError(f"{kind} needs index at least 1, got {index}")
    if D < 0:
        raise ValueError(f"degree bound must be nonnegative, got {D}")
    if kind == "f_partial":
        one = TruncatedPadic(p, N, 1)
        return [[MultiPoly.constant(one if i == j else one * 0)
                 for j in range(g)] for i in range(g)]
    if kind == "f_angle":
        return psi_phi_direct(index, g, p, N, D)
    # sum_(i < index) p^i psi_(index - i), telescoped
    L = top = _log_entry(D)
    for _ in range(index):
        top = frobenius_lift(top, p)
    return _entrywise((top - L * p ** index) * Fraction(1, p), g, p, N)


# ---------------------------------------------------------------------------
# suit maps
# ---------------------------------------------------------------------------

def _slot_images(F: MultiPoly, level_series) -> dict:
    """Each variable of F mapped to its level's series, renamed to its
    entry; ``level_series(level)`` is called once per level."""
    series = {}
    sigma = {}
    for v in F.variables():
        if v.level not in series:
            series[v.level] = level_series(v.level)
        sigma[v] = _rename(series[v.level], v.i, v.j)
    return sigma


def diamond_realize(F: MultiPoly, r: int, g: int, p: int, N: int,
                    D: int) -> MultiPoly:
    """Substitute the (level)-fold twisted series for each slot of F."""
    if g < 1:
        raise ValueError(f"matrix size must be at least 1, got {g}")
    for v in sorted(F.variables()):
        if v.level >= r:
            raise ValueError(f"slot {v.level} needs r > {v.level}")
        if not (1 <= v.i <= g and 1 <= v.j <= g):
            raise ValueError(f"entry ({v.i}, {v.j}) is outside g = {g}")
    sigma = _slot_images(F, lambda level: reduce_rational_poly(
        _log_series(level + 1, p, D), p, N))
    return substitute(reduce_rational_poly(F, p, N), sigma, D)


def spade(F: MultiPoly, D: int, p: int = 3) -> MultiPoly:
    """Slot 0 becomes the entrywise logarithm; slot k >= 1 the rational
    (k-1)-fold twisted series."""
    sigma = _slot_images(F, lambda level: (
        _log_entry(D) if level == 0 else _log_series(level, p, D)))
    return substitute(F.map_coeffs(Fraction), sigma, D)


def difference_substitution(F: MultiPoly, p: int) -> MultiPoly:
    """Replace each slot-l variable by ``p^l`` times the next-level difference."""
    sigma = {}
    for v in F.variables():
        up = VarId(v.family, v.level + 1, v.i, v.j)
        sigma[v] = (MultiPoly.var(up) - MultiPoly.var(v)) * \
            Fraction(p ** v.level)
    return substitute(F.map_coeffs(Fraction), sigma)


def initial_form_identity_check(F: MultiPoly, D: int) -> bool:
    """The lowest-degree form of the slot substitution of F equals F applied
    to (T, T'-T, p(T''-T'), ...), for every small prime."""
    d = F.degree()
    for p in (2, 3, 5):
        lhs = homogeneous_component(spade(F, max(D, d), p), d)
        sigma = {}
        for v in F.variables():
            if v.level == 0:
                sigma[v] = MultiPoly.var(v).map_coeffs(Fraction)
            else:
                up = VarId(v.family, v.level, v.i, v.j)
                dn = VarId(v.family, v.level - 1, v.i, v.j)
                sigma[v] = (MultiPoly.var(up) - MultiPoly.var(dn)) * \
                    Fraction(p ** (v.level - 1))
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
    edges = list(zip(levels, levels[1:] + levels[:1]))
    if any(a == b for a, b in edges):
        raise ValueError(f"cycle entries must alternate, got {levels}")
    cY = y_invariant(j, levels, g)
    nonzero = not cY.map_coeffs(lambda c: c % p).is_zero()
    return {"equal": True, "nonzero": nonzero,
            "status": "verified" if nonzero else "inconclusive"}
