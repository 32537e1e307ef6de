"""Conjugation-invariant theory: trace words, the wedge-commutant
polynomial, adjugate-product tuples, and Jacobian-rank certificates.

Numeric and symbolic constructions share the cofactor kernels of
:mod:`multipoly`, which work over any exact commutative ring.
"""

from __future__ import annotations

from .exact_linalg import ExactMatrix, inverse, rank
from .multipoly import MultiPoly, _det_rows, _mat_mul, _order, \
    alternating_product, charpoly_coeff, generic_sym_matrix, wedge_power


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
    """j-th characteristic coefficient of the cyclic product."""
    return charpoly_coeff(cyclic_matrix_product(levels, g), j)


# ---------------------------------------------------------------------------
# Jacobian ranks
# ---------------------------------------------------------------------------

def jacobian_rows(polys, point: dict):
    """Gradients of the family at the point, over its sorted variables.

    One pass over each polynomial's terms: the term c * prod x_w^(e_w) adds
    c * e_v * x_v^(e_v - 1) * prod_{w != v} x_w^(e_w) to the entry of each
    of its variables v.  Entries are exact; :func:`jacobian_rank` reduces
    them mod p.
    """
    vars_ = sorted({v for f in polys for v in f.variables()})
    col = {v: k for k, v in enumerate(vars_)}
    rows = []
    for f in polys:
        row = [0] * len(vars_)
        for key, coeff in f.terms.items():
            for v, e in key:
                term = coeff * e
                for w, d in key:
                    term = term * point[w] ** (d - 1 if w == v else d)
                row[col[v]] += term
        rows.append(row)
    return rows


def jacobian_rank(polys, point: dict, field=None) -> int:
    """Rank of the Jacobian of the polynomial family at the given point,
    over Q or, when ``field`` is a prime p, over F_p."""
    return rank(ExactMatrix(jacobian_rows(polys, point), field=field))
