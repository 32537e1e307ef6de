"""Tests for conjugation-invariant theory: trace words, the wedge-commutant
polynomial, adjugate-product tuples, and Jacobian-rank certificates.

Oracles: sympy matrix arithmetic on random integer samples, and gradients
taken one derivative polynomial at a time.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
import sympy

from deltainv.conj_invariants import (
    conj_act,
    cyclic_matrix_product,
    jacobian_rank,
    jacobian_rows,
    phi_q,
    pi_n,
    trace_word,
    y_invariant,
)
from deltainv.exact_linalg import ExactMatrix, rank
from deltainv.multipoly import (
    _det_rows,
    _mat_mul,
    MultiPoly,
    VarId,
    adjugate,
    alternating_product,
    charpoly_coeff,
    generic_matrix,
    generic_sym_matrix,
    wedge_power,
)
from deltainv.quad_invariants import congruence_act, theta, \
    theta_multidegrees
from deltainv.serre_tate import cyclic_word_check


def _rand_mat(rng, g, span=4):
    return [[Fraction(rng.randrange(-span, span + 1)) for _ in range(g)] for _ in range(g)]


def _rand_invertible(rng, g):
    while True:
        L = _rand_mat(rng, g)
        if sympy.Matrix(L).det() != 0:
            return L


# ---------------------------------------------------------------- conjugation

def test_conj_act_identity():
    M = [[1, 2], [3, 4]]
    eye = [[1, 0], [0, 1]]
    assert conj_act(eye, [M]) == [M]


def test_conj_act_preserves_charpoly():
    rng = random.Random(31)
    for g in (2, 3):
        for _ in range(5):
            L = _rand_invertible(rng, g)
            M = _rand_mat(rng, g)
            (out,) = conj_act(L, [M])
            assert sympy.Matrix(out).charpoly().all_coeffs() == \
                sympy.Matrix(M).charpoly().all_coeffs()


# ---------------------------------------------------------------- trace words

def test_trace_word_is_trace():
    M = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert trace_word(1, (0,), [M]) == 5


def test_trace_word_identity_binomials():
    for g in (2, 3):
        eye = [[Fraction(1 if i == j else 0) for j in range(g)] for i in range(g)]
        for j in range(1, g + 1):
            assert trace_word(j, (0, 0), [eye]) == comb(g, j)


def test_trace_word_conjugation_invariance():
    rng = random.Random(7)
    for _ in range(10):
        mats = [_rand_mat(rng, 2) for _ in range(2)]
        L = _rand_invertible(rng, 2)
        moved = conj_act(L, mats)
        word = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
        for j in (1, 2):
            assert trace_word(j, word, mats) == trace_word(j, word, moved)


def test_trace_word_matches_sympy():
    rng = random.Random(71)
    mats = [_rand_mat(rng, 3) for _ in range(2)]
    prod = sympy.Matrix(mats[0]) * sympy.Matrix(mats[1]) * sympy.Matrix(mats[0])
    assert trace_word(1, (0, 1, 0), mats) == prod.trace()
    assert trace_word(3, (0, 1, 0), mats) == prod.det()


# ---------------------------------------------------------------- phi_q

def test_phi_q_commuting_pair():
    A = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
    B = [[Fraction(5), Fraction(0)], [Fraction(0), Fraction(7)]]
    assert phi_q(A, B, 1) == 0


def test_phi_q_block_pair():
    # both matrices fix the span of the first two coordinates
    A = [[1, 2, 0], [3, 4, 0], [0, 0, 5]]
    B = [[0, 1, 0], [1, 1, 0], [0, 0, 2]]
    A = [[Fraction(x) for x in row] for row in A]
    B = [[Fraction(x) for x in row] for row in B]
    assert phi_q(A, B, 2) == 0


def test_phi_q_diagonal_cycle_pair():
    rng = random.Random(3)
    q0 = 1009
    for g in (2, 3, 4):
        for _ in range(5):
            units = rng.sample(range(2, q0 - 1), g)
            D = [[units[i] if i == j else 0 for j in range(g)] for i in range(g)]
            # a distinct diagonal against a full cycle is a generic pair
            P = [[1 if j == (i + 1) % g else 0 for j in range(g)] for i in range(g)]
            for qq in range(1, g):
                assert phi_q(D, P, qq) % q0 != 0


def _sympy_wedge(M, q):
    subsets = [list(S) for S in combinations(range(M.rows), q)]
    return sympy.Matrix(len(subsets), len(subsets),
                        lambda a, b: M.extract(subsets[a], subsets[b]).det())


def test_phi_q_against_sympy():
    rng = random.Random(909)
    for g in (2, 3, 4):
        for _ in range(3):
            A = [[rng.randrange(-9, 10) for _ in range(g)] for _ in range(g)]
            B = [[rng.randrange(-9, 10) for _ in range(g)] for _ in range(g)]
            for q in range(1, g):
                full = phi_q(A, B, q)
                WA = _sympy_wedge(sympy.Matrix(A), q)
                WB = _sympy_wedge(sympy.Matrix(B), q)
                assert full == (WA * WB - WB * WA).det()


def test_trace_word_keeps_integer_type():
    rng = random.Random(910)
    for g in (1, 2, 3):
        mats = [[[rng.randrange(-4, 5) for _ in range(g)] for _ in range(g)]
                for _ in range(2)]
        prod = sympy.Matrix(mats[0]) * sympy.Matrix(mats[1])
        # det(t - P) = sum_j (-1)^j c_j t^(g - j)
        coeffs = prod.charpoly().all_coeffs()
        for j in range(g + 1):
            val = trace_word(j, (0, 1), mats)
            assert type(val) is int
            assert val == (-1) ** j * coeffs[j]


# ---------------------------------------------------------------- pi_n

def test_pi_n_identity_tuple():
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert pi_n([eye, eye, eye]) == [eye, eye]


def test_pi_n_adjugate_products():
    rng = random.Random(19)
    Q1 = _rand_mat(rng, 2)
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    out = pi_n([Q1, eye])
    assert out == [Q1]


def test_pi_n_one_by_one_uses_the_unit_adjugate():
    out = pi_n([[[3]], [[5]], [[7]]])
    assert out == [[[3]], [[5]]]
    assert type(out[0][0][0]) is int


def test_pi_n_rescaling_invariance():
    # scaling Q_i by lambda_i with lambda_i = lambda_{i+1}^(1-g) fixes the output
    rng = random.Random(23)
    g = 3
    Qs = [_rand_mat(rng, g) for _ in range(3)]
    lam2 = Fraction(2)
    lam1 = lam2 ** (1 - g)
    lam0 = lam1 ** (1 - g)
    scaled = [[[lam * x for x in row] for row in Q]
              for lam, Q in zip([lam0, lam1, lam2], Qs)]
    assert pi_n(scaled) == pi_n(Qs)


def test_pi_n_equivariance():
    # congruence on the inputs becomes conjugation-like twisting on the outputs
    rng = random.Random(29)
    g = 2
    Qs = [_rand_mat(rng, g) for _ in range(3)]
    Qs = [[[Q[min(i, j)][max(i, j)] for j in range(g)] for i in range(g)] for Q in Qs]
    L = _rand_invertible(rng, g)
    while sympy.Matrix(L).det() != 1:
        L = _rand_invertible(rng, g)
    moved = [[[sum(L[i][k] * Q[k][l] * L[j][l] for k in range(g) for l in range(g))
               for j in range(g)] for i in range(g)] for Q in Qs]
    lhs = pi_n(moved)
    rhs = conj_act(L, pi_n(Qs))
    assert lhs == rhs


# ---------------------------------------------------------------- cyclic products

def test_cyclic_product_two_levels_is_scaled_identity():
    for a in (1, 2):
        Y = cyclic_matrix_product((0, a), 2)
        det = _det_rows(generic_sym_matrix(2, a, family="Q"))
        for i in range(1, 3):
            for j in range(1, 3):
                expect = det if i == j else MultiPoly.constant(0)
                assert Y[i - 1][j - 1] == expect
        assert y_invariant(1, (0, a), 2) == det * 2


def test_y_invariant_is_trace():
    Y = cyclic_matrix_product((1, 2, 1, 3), 2)
    trace = Y[0][0] + Y[1][1]
    assert y_invariant(1, (1, 2, 1, 3), 2) == trace


def test_y_invariant_cyclic_rotation():
    a = (1, 2, 1, 3)
    b = (1, 3, 1, 2)   # rotation by two positions
    assert y_invariant(1, a, 2) == y_invariant(1, b, 2)


@pytest.mark.parametrize("coefficient,one", [
    (lambda j: charpoly_coeff([[1, 2], [3, 4]], j), 1),
    (lambda j: trace_word(j, (0, 1), [[[1, 2], [3, 4]], [[0, 1], [1, 1]]]),
     1),
    (lambda j: y_invariant(j, (0, 1), 2), 1),
    (lambda j: cyclic_word_check((0, 1), j, 2, 3),
     {"equal": True, "nonzero": True, "status": "verified"}),
], ids=["charpoly_coeff", "trace_word", "y_invariant", "cyclic_word_check"])
def test_coefficient_index_must_lie_in_0_to_g(coefficient, one):
    for j in (-1, 3):
        with pytest.raises(ValueError, match="coefficient index"):
            coefficient(j)
    assert coefficient(0) == one


def test_empty_inputs():
    # the 0 x 0 matrix has c_0 = det = 1; a trace word needs a matrix
    assert charpoly_coeff([], 0) == 1
    with pytest.raises(ValueError):
        trace_word(1, (), [])


@pytest.mark.parametrize("letter", [2, -1])
def test_trace_word_rejects_letters_outside_the_tuple(letter):
    # before the check, 2 raised IndexError and -1 read the last matrix
    mats = [[[1, 0], [0, 1]], [[2, 0], [0, 3]]]
    assert trace_word(1, (1,), mats) == 5
    with pytest.raises(ValueError, match="letter"):
        trace_word(1, (letter,), mats)


_I2 = [[1, 0], [0, 1]]
_BAD_SHAPES = {
    "ragged": [[1, 2], [3]],
    "non-square": [[1, 2], [3, 4], [5, 6]],
}
_ONE_MATRIX = {
    "adjugate": adjugate,
    "charpoly_coeff": lambda M: charpoly_coeff(M, 1),
    "wedge_power": lambda M: wedge_power(M, 1),
}
_TWO_MATRICES = {
    "alternating_product": lambda A, B: alternating_product([A, B]),
    "trace_word": lambda A, B: trace_word(1, (0, 1), [A, B]),
    "phi_q": lambda A, B: phi_q(A, B, 1),
    "pi_n": lambda A, B: pi_n([A, B]),
    "conj_act": lambda A, B: conj_act(A, [B]),
    "congruence_act": lambda A, B: congruence_act(A, [B]),
}


def _shape_cases():
    for name, fn in _ONE_MATRIX.items():
        for shape, M in _BAD_SHAPES.items():
            yield pytest.param(fn, (M,), id=f"{name}-{shape}")
    for name, fn in _TWO_MATRICES.items():
        for shape, M in _BAD_SHAPES.items():
            yield pytest.param(fn, (_I2, M), id=f"{name}-second-{shape}")
            yield pytest.param(fn, (M, _I2), id=f"{name}-first-{shape}")
        # a 3 x 3 matrix with a 2 x 2 one, which a zipped product truncates
        M3 = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
        yield pytest.param(fn, (_I2, M3), id=f"{name}-size-mismatch")


@pytest.mark.parametrize("fn,args", _shape_cases())
def test_matrix_shapes_are_checked(fn, args):
    with pytest.raises(ValueError, match="must be square|must all be"):
        fn(*args)


# ---------------------------------------------------------------- jacobian ranks

def test_jacobian_full_rank_for_coordinates():
    g = 2
    X = generic_matrix(g, 0)
    polys = [X[i - 1][j - 1] for i in range(1, g + 1) for j in range(1, g + 1)]
    point = {v: 3 + k for k, v in enumerate(sorted(set().union(*[p.variables() for p in polys])))}
    assert jacobian_rank(polys, point, field=(1 << 31) - 1) == 4


def test_jacobian_detects_dependence():
    x = MultiPoly.var(VarId("X", 0, 1, 1))
    assert jacobian_rank([x, x * x], {VarId("X", 0, 1, 1): 5}, field=101) == 1


def _derivative_rows(polys, point):
    """Gradient rows built from one derivative polynomial per entry."""
    vars_ = sorted({v for f in polys for v in f.variables()})
    return [[f.derivative(v).evaluate(point) for v in vars_] for f in polys]


def _reduced(rows, field):
    """The integer rows mod ``field``, or unchanged over Q."""
    return rows if field is None else [[x % field for x in row] for row in rows]


FIELDS = [None, (1 << 31) - 1, 101]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("g", [3, 4, 5])
def test_jacobian_rows_match_derivatives_on_theta_family(g, field):
    polys = [theta(g, m) for m in theta_multidegrees(g, 1)]
    rng = random.Random(g)
    point = {v: rng.randrange(1, (1 << 31) - 1)
             for f in polys for v in f.variables()}
    assert _reduced(jacobian_rows(polys, point), field) == \
        _reduced(_derivative_rows(polys, point), field)


def _random_poly(rng, gens):
    terms = {}
    for _ in range(rng.randrange(0, 8)):
        exps = {v: rng.randrange(0, 4) for v in rng.sample(gens, 3)}
        key = tuple(sorted((v, e) for v, e in exps.items() if e))
        terms[key] = rng.randrange(-9, 10)
    return MultiPoly(terms)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("seed", range(8))
def test_jacobian_rows_match_derivatives_on_random_polys(seed, field):
    rng = random.Random(seed)
    gens = [VarId("X", 0, i, j) for i in range(1, 3) for j in range(1, 4)]
    polys = [_random_poly(rng, gens) for _ in range(rng.randrange(1, 5))]
    # zeros and negatives exercise 0 ** 0 and signs; rationals over Q
    values = [0, -3, 2, 7, 12345678901]
    if field is None:
        values.append(Fraction(-5, 3))
    point = {v: rng.choice(values) for v in gens}
    assert _reduced(jacobian_rows(polys, point), field) == \
        _reduced(_derivative_rows(polys, point), field)


def test_jacobian_keeps_fractions_exact():
    # d(x^2)/dx at x = 1/4 is exactly 1/2, which is 2^(-1) = 51 in F_101
    x = MultiPoly.var(VarId("X", 0, 1, 1))
    point = {VarId("X", 0, 1, 1): Fraction(1, 4)}
    assert jacobian_rows([x * x], point) == [[Fraction(1, 2)]]
    assert jacobian_rank([x * x], point, field=101) == \
        rank(ExactMatrix([[51]], field=101)) == 1


def test_trace_word_rank_small():
    # five words on a generic pair of 2x2 matrices: full rank 5 = r g^2 + 1
    rng = random.Random(2024)
    X0, X1 = generic_matrix(2, 0), generic_matrix(2, 1)
    polys = [
        charpoly_coeff(X0, 1), charpoly_coeff(X0, 2),
        charpoly_coeff(X1, 1), charpoly_coeff(X1, 2),
        charpoly_coeff(_mat_mul(X0, X1), 1),
    ]
    vars_ = sorted(set().union(*[p.variables() for p in polys]))
    q0 = (1 << 31) - 1
    ranks = []
    for _ in range(3):
        point = {v: rng.randrange(1, q0) for v in vars_}
        ranks.append(jacobian_rank(polys, point, field=q0))
    assert max(ranks) == 5
