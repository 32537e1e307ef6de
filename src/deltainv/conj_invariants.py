"""Conjugation-invariant theory: trace words, the wedge-commutant
polynomial, adjugate-product tuples, and Jacobian-rank certificates.

Numeric and symbolic constructions share the cofactor kernels of
:mod:`multipoly`, which work over any exact commutative ring.
"""

from __future__ import annotations

import itertools
import random
from contextlib import suppress
from math import comb, factorial, perm

from .exact_arith import require_at_least
from .exact_linalg import ExactMatrix, inverse, rank
from .multipoly import MultiPoly, _det_rows, _mat_mul, _order, \
    alternating_product, charpoly_coeff, generic_sym_matrix, \
    require_within_budget, wedge_power
from .quad_invariants import THETA_BUDGET

# rows^2 * columns of one theta_rank elimination: about 3 s at the budget
RANK_BUDGET = 10 ** 7


# ---------------------------------------------------------------------------
# actions and trace words
# ---------------------------------------------------------------------------

def conj_act(L, mats):
    """Apply M -> L M L^(-1) to each matrix in the tuple."""
    _order(L, *mats)
    Linv = inverse(L)
    return [_mat_mul(_mat_mul(L, M), Linv) for M in mats]


def trace_word(j: int, word, mats):
    """j-th characteristic coefficient of the product along the word."""
    g = _order(*mats)
    P = [[1 if a == b else 0 for b in range(g)] for a in range(g)]
    for w in word:
        if not 0 <= w < len(mats):
            raise ValueError(f"letter {w} is not in 0..{len(mats) - 1}")
        P = _mat_mul(P, mats[w])
    return charpoly_coeff(P, j)


def phi_q(M0, M1, q: int):
    """Determinant of the commutator of the q-th exterior powers."""
    _order(M0, M1)
    A = wedge_power(M0, q)
    B = wedge_power(M1, q)
    AB = _mat_mul(A, B)
    BA = _mat_mul(B, A)
    return _det_rows([[a - b for a, b in zip(r1, r2)]
                      for r1, r2 in zip(AB, BA)])


def pi_n(Qs):
    """Adjugate-product tuple: (Q_0 Q_1*, Q_1 Q_2*, ..., Q_(n-1) Q_n*)."""
    return [alternating_product([A, B]) for A, B in zip(Qs, Qs[1:])]


# ---------------------------------------------------------------------------
# symbolic cyclic products
# ---------------------------------------------------------------------------

def cyclic_matrix_product(levels, g: int):
    """Alternating product of matrices and adjugates along a cyclic word.

    The k-th factor (k from 0) is ``Q^(max(levels[k], levels[k+1]))``, indices
    cyclic, adjugated for odd k as in :func:`alternating_product`.
    """
    levels = tuple(levels)
    return alternating_product([
        generic_sym_matrix(g, max(a, b), family="Q")
        for a, b in zip(levels, levels[1:] + levels[:1])])


def y_invariant(j: int, levels, g: int) -> MultiPoly:
    """j-th characteristic coefficient of the cyclic product, levels >= 0.
    An entry of n factors has at most t = g^(n-1) ((g-1)!)^(n//2) terms, and
    the products take (n-1) g^2 t.  The c adjacent pairs Q, adj Q are det Q *
    1, so the j x j minors take g!/(g-j)! (t/g^c)^j, or C(g, j) (g!)^(cj) if
    n = 2c; a sum over ``THETA_BUDGET`` is refused first."""
    levels = tuple(levels)
    require_at_least(min(levels, default=0), 0, "levels")
    n, k = len(levels), max(j, 0)       # charpoly_coeff rejects j < 0
    c = sum(len(list(run)) // 2 for _, run in itertools.groupby(
        max(a, b) for a, b in zip(levels, levels[1:] + levels[:1])))
    t = g ** (n - 1) * factorial(g - 1) ** (n // 2)
    work = (n - 1) * g * g * t + (perm(g, k) * (t // g ** c) ** k if n > 2 * c
                                  else comb(g, k) * factorial(g) ** (c * k))
    require_within_budget(f"c_{j} of {n} cyclic factors of size {g}", work,
                          "products", THETA_BUDGET)
    return charpoly_coeff(cyclic_matrix_product(levels, g), j)


# ---------------------------------------------------------------------------
# Jacobian ranks
# ---------------------------------------------------------------------------

def jacobian_rows(polys, point: dict):
    """Gradients of the family at the point, over its sorted variables: each
    entry is one derivative polynomial evaluated.  Entries are exact;
    :func:`jacobian_rank` reduces them mod p."""
    vars_ = sorted({v for f in polys for v in f.variables()})
    return [[f.derivative(v).evaluate(point) for v in vars_] for f in polys]


def jacobian_rank(polys, point: dict, field: int) -> int:
    """Rank over F_p, p = ``field`` a prime, of the Jacobian of the
    polynomial family at the given point."""
    return rank(ExactMatrix(jacobian_rows(polys, point), field=field))


def _gradient_row(mats, y: dict, field: int) -> dict:
    """The gradient of det M, M = sum_l y_l T^(l) over the levels l of the
    dict ``y``, in the T^(l)_ij (column l g(g+1)/2 + index of i <= j), over
    det M and mod ``field``: y_l c_ij (M^-1)_ij, with c = 1 on the diagonal
    and 2 off it.  ``ZeroDivisionError`` when M is singular."""
    g = len(mats[0])
    inv = inverse([[sum(yl * mats[l][i][j] for l, yl in y.items()) % field
                    for j in range(g)] for i in range(g)], field)
    entries = [(1 if i == j else 2) * inv[i][j]
               for i in range(g) for j in range(i, g)]
    return {l * len(entries) + k: yl * v % field
            for l, yl in y.items() for k, v in enumerate(entries)}


def theta_rank(g: int, r: int, seed) -> dict:
    """The rank mod p = 2^31 - 1 of the gradients of det(sum_l y_l T^(l)) =
    sum_m theta_m(T) y^m, rows in the span of the theta Jacobian, at a seeded
    symmetric g x g tuple T^(0..r) and seeded points y; and the ``expected``
    rank (r+1) g(g+1)/2 - (g^2 - 1), the transcendence degree of the
    invariants, as a generic tuple has a finite stabiliser in SL_g for
    r >= 1.  Work over ``RANK_BUDGET`` (rows^2 * columns) is refused."""
    require_at_least(g, 1, "g")
    require_at_least(r, 1, "r")
    n = g * (g + 1) // 2
    expected = (r + 1) * n - (g * g - 1)
    require_within_budget(f"rank at g = {g}, r = {r}",
                          expected ** 2 * (r + 1) * n,
                          "steps (rows^2 * columns)", RANK_BUDGET)
    field = (1 << 31) - 1
    rng = random.Random(seed)
    mats = [[[0] * g for _ in range(g)] for _ in range(r + 1)]
    for T in mats:
        for i in range(g):
            for j in range(i, g):
                T[i][j] = T[j][i] = rng.randrange(field)
    # g + 1 points on levels 0, 1 reach the pencil's rank g + 1, and n on
    # levels 0, 1, l add n for each further l; a singular M(y) is redrawn
    rows = []
    for levels in [(0, 1)] * (g + 1) + [(0, 1, l) for l in range(2, r + 1)
                                        for _ in range(n)]:
        while True:
            with suppress(ZeroDivisionError):
                rows.append(_gradient_row(
                    mats, {l: rng.randrange(1, field) for l in levels}, field))
                break
    return {"rank": rank(ExactMatrix(rows, field=field, ncols=(r + 1) * n)),
            "expected": expected, "field": field}
