"""Tests for exact rational / prime-field linear algebra.

Oracles: hand row reduction, determinant products for
Vandermonde matrices, sympy's rank over Q and over GF(101), and sympy
on the matrices that ``rank`` and ``relations --kind plucker`` build.
"""

import json
import random
from fractions import Fraction
from math import gcd, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from deltainv.cli import main
from deltainv.conj_invariants import jacobian_rank, jacobian_rows
from deltainv.exact_linalg import ExactMatrix, inverse, kernel_basis, rank
from deltainv.multipoly import MultiPoly, VarId
from deltainv.quad_invariants import _pluecker_products, theta, \
    theta_multidegrees, xi_target


def _matvec(rows, v, q=None):
    out = []
    for row in rows:
        s = sum(a * b for a, b in zip(row, v))
        out.append(s % q if q else s)
    return out


# ---------------------------------------------------------------- kernels

def test_sparse_rows_need_a_column_count():
    with pytest.raises(ValueError, match="ncols"):
        ExactMatrix([{0: 1}])


def test_kernel_of_identity_is_empty():
    for n in (1, 2, 5):
        A = ExactMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])
        assert kernel_basis(A) == []


def test_kernel_of_zero_matrix():
    A = ExactMatrix([[0, 0, 0], [0, 0, 0]])
    basis = kernel_basis(A)
    assert len(basis) == 3


def test_kernel_rank_one_rows():
    A = ExactMatrix([[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(A)
    assert len(basis) == 2           # hand reduction: one pivot
    for v in basis:
        assert _matvec([[1, 2, 3], [2, 4, 6]], v) == [0, 0]


def test_kernel_vectors_exact_random():
    rng = random.Random(77)
    for _ in range(10):
        m, n = rng.randrange(2, 5), rng.randrange(2, 6)
        rows = [[Fraction(rng.randrange(-4, 5)) for _ in range(n)] for _ in range(m)]
        A = ExactMatrix(rows)
        basis = kernel_basis(A)
        assert len(basis) == n - rank(A)
        for v in basis:
            assert all(x == 0 for x in _matvec(rows, v))


# ---------------------------------------------------------------- rank

def test_rank_identity():
    for n in (1, 3, 6):
        A = ExactMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])
        assert rank(A) == n


def test_rank_over_f2():
    A = ExactMatrix([[1, 1], [1, 1]], field=2)
    assert rank(A) == 1


def test_rank_vandermonde_full():
    nodes = [0, 1, 2, 3, 4]
    rows = [[x ** j for j in range(5)] for x in nodes]
    # oracle: Vandermonde determinant = prod of node differences, nonzero
    det = 1
    for i in range(5):
        for j in range(i):
            det *= nodes[i] - nodes[j]
    assert det != 0
    assert rank(ExactMatrix(rows)) == 5


def test_rank_transpose_random():
    rng = random.Random(3)
    for _ in range(10):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(m)]
        At = [[rows[i][j] for i in range(m)] for j in range(n)]
        assert rank(ExactMatrix(rows)) == rank(ExactMatrix(At))


def test_rank_prime_field_vs_rational_bound():
    rng = random.Random(21)
    for _ in range(10):
        rows = [[rng.randrange(-9, 10) for _ in range(4)] for _ in range(4)]
        assert rank(ExactMatrix(rows, field=10007)) <= rank(ExactMatrix(rows))


def test_fraction_entries_reduce_mod_p():
    # 1/2 is 51 mod 101, so the first row is 51 times the second
    rows = [[Fraction(1, 2), 1], [1, 2]]
    assert rank(ExactMatrix(rows)) == 1
    assert rank(ExactMatrix(rows, field=101)) == 1
    # d(x^2)/dx = 2x is 1/2 at x = 1/4, a unit mod 101
    x = VarId("X", 0, 1, 1)
    assert jacobian_rank([MultiPoly.var(x) ** 2], {x: Fraction(1, 4)},
                         field=101) == 1
    with pytest.raises(ValueError, match="entry 3/202"):
        ExactMatrix([[1, Fraction(3, 202)]], field=101)


def _random_rows(rng, fractions):
    m, n = rng.randrange(1, 6), rng.randrange(1, 6)
    return [[Fraction(rng.randrange(-5, 6), rng.choice((1, 2, 3, 4, 7)))
             if fractions else rng.randrange(-5, 6)
             for _ in range(n)] for _ in range(m)]


@pytest.mark.parametrize("fractions", [False, True])
def test_rank_against_sympy(fractions):
    rng = random.Random(8 + fractions)
    F = sympy.GF(101)
    for _ in range(40):
        rows = _random_rows(rng, fractions)
        # sparse rows give the rank deficits something to find
        rows = [[v if rng.random() < 0.6 else 0 for v in row] for row in rows]
        shape = (len(rows), len(rows[0]))
        assert rank(ExactMatrix(rows)) == \
            sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                           for v in row] for row in rows]).rank()
        gf_rows = [[F(v.numerator) / F(v.denominator) for v in row]
                   for row in rows]
        assert rank(ExactMatrix(rows, field=101)) == \
            DomainMatrix(gf_rows, shape, F).rank()


@pytest.mark.parametrize("fractions", [False, True])
def test_inverse_against_sympy(fractions):
    rng = random.Random(60 + fractions)
    F = sympy.GF(101)
    for n in (1, 2, 3, 4, 6, 8):
        rows = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                 if fractions else rng.randrange(-9, 10) for _ in range(n)]
                for _ in range(n)]
        M = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                           for v in row] for row in rows])
        if M.det() == 0:
            with pytest.raises(ZeroDivisionError):
                inverse(rows)
        else:
            assert inverse(rows) == [[Fraction(int(v.p), int(v.q)) for v in row]
                                     for row in M.inv().tolist()]
        gf = DomainMatrix([[F(v.numerator) / F(v.denominator) for v in row]
                           for row in rows], (n, n), F)
        if gf.det() == 0:
            with pytest.raises(ZeroDivisionError):
                inverse(rows, field=101)
        else:
            assert inverse(rows, field=101) == [
                [int(v) % 101 for v in row] for row in gf.inv().to_Matrix().tolist()]


def test_inverse_of_a_singular_matrix():
    with pytest.raises(ZeroDivisionError, match="singular"):
        inverse([[1, 2], [2, 4]])
    # nonsingular over Q, singular mod 7
    with pytest.raises(ZeroDivisionError, match="singular"):
        inverse([[1, 2], [3, 13]], field=7)
    assert inverse([[1, 2], [3, 13]]) == [[Fraction(13, 7), Fraction(-2, 7)],
                                          [Fraction(-3, 7), Fraction(1, 7)]]


@pytest.mark.parametrize("fractions", [False, True])
def test_rational_kernel_vectors_are_primitive_integers(fractions):
    rng = random.Random(31 + fractions)
    for _ in range(40):
        rows = _random_rows(rng, fractions)
        for v in kernel_basis(ExactMatrix(rows)):
            assert all(type(x) is int for x in v)
            assert gcd(*v) == 1
            assert next(x for x in v if x) > 0
            assert _matvec(rows, v) == [0] * len(rows)


# entries that vanish mod 101 make the two ranks differ now and then
_ENTRIES = st.integers(-3, 3) | st.sampled_from([101, -101, 202])
# denominators prime to 101: reduced mod 101, these keep the rank bound
_FRACTIONS = st.sampled_from([Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3),
                              Fraction(101, 4), Fraction(5, 6)])


@st.composite
def _matrices(draw, entries=_ENTRIES):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))


@st.composite
def _rational_matrices(draw):
    """Fraction entries, plus fraction multiples of the first row so that
    the rank over Q falls short now and then."""
    rows = draw(_matrices(_ENTRIES | _FRACTIONS))
    scales = draw(st.lists(_FRACTIONS, max_size=2))
    return rows + [[c * v for v in rows[0]] for c in scales]


@settings(derandomize=True, deadline=None)
@given(rows=_rational_matrices())
def test_rank_over_q_bounds_rank_mod_p(rows):
    assert rank(ExactMatrix(rows)) >= rank(ExactMatrix(rows, field=101))


@settings(derandomize=True, deadline=None)
@given(rows=_matrices(), field=st.sampled_from([None, 101]))
def test_kernel_vectors_annihilate_the_matrix(rows, field):
    A = ExactMatrix(rows, field=field)
    basis = kernel_basis(A)
    assert len(basis) == A.ncols - rank(A)
    for v in basis:
        assert _matvec(rows, v, field) == [0] * len(rows)
    if basis:
        assert rank(ExactMatrix(basis, field=field)) == len(basis)


# ---------------------------------------------------------------- workload


def _rank_jacobian(g, r, seed):
    """The Jacobian rows of a theta family with rank g + 1 (r = 1) or
    3r (g = 2), at a seeded point."""
    field = (1 << 31) - 1
    rng = random.Random(seed)
    if r == 1:
        polys = [theta(g, m) for m in theta_multidegrees(g, 1)]
    else:
        polys = [theta(2, m) for m in theta_multidegrees(2, r)
                 if sum(1 for c in m[2:] if c) <= 1]
    point = {v: rng.randrange(1, field)
             for v in sorted({v for f in polys for v in f.variables()})}
    return jacobian_rows(polys, point), field


@pytest.mark.parametrize("g,r,seed", [(4, 1, 11), (5, 1, 11)]
                         + [(2, r, 12) for r in (3, 4, 5, 6, 8)])
def test_rank_jacobians_against_sympy(capsys, g, r, seed):
    rows, field = _rank_jacobian(g, r, seed)
    F = sympy.GF(field)
    oracle = DomainMatrix([[F(v) for v in row] for row in rows],
                          (len(rows), len(rows[0])), F).rank()
    assert rank(ExactMatrix(rows, field=field)) == oracle
    main(["rank", "--g", str(g), "--r", str(r), "--seed", str(seed)])
    assert json.loads(capsys.readouterr().out)["rank"] == oracle


def test_plucker_kernel_against_sympy():
    images = [prod(map(xi_target, pairs), start=MultiPoly.constant(1))
              for pairs in _pluecker_products((0, 1, 2, 3))]
    keys = sorted({k for f in images for k in f.terms})
    rows = [[f.terms.get(k, 0) for f in images] for k in keys]
    assert (len(rows), len(rows[0])) == (85, 6)
    basis = kernel_basis(ExactMatrix(rows))
    oracle = sympy.Matrix(rows).nullspace()
    assert len(basis) == len(oracle) == 1
    assert sympy.Matrix([basis[0], list(oracle[0])]).rank() == 1
