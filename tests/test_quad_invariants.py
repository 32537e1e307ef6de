"""Tests for the congruence-invariant theory of tuples of symmetric matrices.

Oracles: the rational kernel of the trace-free derivations on an
exhaustively enumerated torus slice, the determinant of the s-weighted
matrix sum_l s_l T^(l), sympy determinants, direct evaluation at
random tuples over Q and prime fields, binomial closed forms recomputed with
math.comb, and brute-force solution counting over F_q.
"""

import functools
import itertools
import random
import time
from fractions import Fraction
from math import comb, prod

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from deltainv.exact_linalg import ExactMatrix, kernel_basis, rank
from deltainv.multipoly import (
    _det_rows,
    MultiPoly,
    SizeTooLarge,
    Tvar,
    VarId,
    uvar,
    vvar,
)
from deltainv import quad_invariants
from deltainv.quad_invariants import (
    DIMS_BUDGET,
    HILBERT_BUDGET,
    THETA_BUDGET,
    _apply_derivation,
    _count_g2,
    _count_g3,
    b0_count,
    binary_discriminant,
    congruence_act,
    hilbert_closed,
    invariant_dimension,
    jmath,
    pluecker_y,
    relation_check,
    separating_F0,
    sl_annihilates,
    tact_invariant,
    theta,
    theta_multidegrees,
    upsilon,
    xi_lift,
    xi_target,
)


def _rand_sl2(rng):
    a, b = rng.randrange(-3, 4), rng.randrange(-3, 4)
    # product of elementary matrices, always determinant 1
    return [[1 + a * b, a], [b, 1]]


def _sym_tuple_point(g, r, rng, span=7):
    point = {}
    for l in range(r + 1):
        for i in range(1, g + 1):
            for j in range(i, g + 1):
                point[VarId("T", l, i, j)] = Fraction(rng.randrange(-span, span + 1))
    return point


def _transform_point(point, lam, g, r):
    """Congruence-transform a T-point by lam, returning the new point."""
    out = {}
    for l in range(r + 1):
        M = [[point[VarId("T", l, min(i, j), max(i, j))] for j in range(1, g + 1)]
             for i in range(1, g + 1)]
        new = congruence_act(lam, [M])[0]
        for i in range(1, g + 1):
            for j in range(i, g + 1):
                out[VarId("T", l, i, j)] = new[i - 1][j - 1]
    return out


# ---------------------------------------------------------------- action

def test_congruence_act_identity():
    M = [[1, 2], [2, 5]]
    assert congruence_act([[1, 0], [0, 1]], [M]) == [M]


def test_congruence_act_torus():
    lam = Fraction(3)
    L = [[lam, 0], [0, 1 / lam]]
    M = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    (out,) = congruence_act(L, [M])
    assert out[0][0] == lam ** 2 and out[1][1] == lam ** -2 and out[0][1] == 1


def test_congruence_preserves_det():
    rng = random.Random(8)
    for _ in range(5):
        L = _rand_sl2(rng)
        M = [[rng.randrange(-4, 5) for _ in range(2)] for _ in range(2)]
        M = [[M[0][0], M[0][1]], [M[0][1], M[1][1]]]
        (out,) = congruence_act(L, [M])
        assert out[0][0] * out[1][1] - out[0][1] * out[1][0] == M[0][0] * M[1][1] - M[0][1] ** 2


# ---------------------------------------------------------------- dimensions

def _index_count(key, m):
    total = 0
    for vid, e in key:
        total += e * ((vid.i == m) + (vid.j == m))
    return total


def _slice_oracle(g, r, s):
    """Exhaustive enumeration of degree g*s monomials with balanced indices."""
    gs = int(g * s)
    vars_ = [VarId("T", l, i, j)
             for l in range(r + 1)
             for i in range(1, g + 1) for j in range(i, g + 1)]
    found = set()
    for combo in itertools.combinations_with_replacement(vars_, gs):
        key = []
        for v in sorted(set(combo)):
            key.append((v, combo.count(v)))
        key = tuple(key)
        if all(_index_count(key, m) == 2 * s for m in range(1, g + 1)):
            found.add(key)
    return found


def _kernel_reference(g, r, s):
    """A basis of the invariants of degree g*s: the kernel of the trace-free
    derivations on the balanced slice, over Q."""
    s = Fraction(s)
    if (g * s).denominator != 1:
        raise ValueError(f"total degree {g * s} is not an integer")
    monomials = sorted(_slice_oracle(g, r, s))
    if not monomials:
        return []
    rows = {}
    for idx, key in enumerate(monomials):
        for a in range(1, g + 1):
            for b in range(1, g + 1):
                if a != b:
                    image = _apply_derivation(MultiPoly({key: 1}), a, b)
                    for out, coeff in image.terms.items():
                        row = rows.setdefault((a, b, out), {})
                        row[idx] = row.get(idx, 0) + coeff
    kernel = kernel_basis(ExactMatrix(list(rows.values()),
                                      ncols=len(monomials)))
    return [MultiPoly({key: c for key, c in zip(monomials, vec) if c})
            for vec in kernel]


def _reference_grid():
    cases = [(g, r, s) for g in (1, 2, 3) for r in (0, 1, 2)
             for s in (0, Fraction(1, 2), 1, Fraction(3, 2), 2)]
    # (3, 2, 2) takes seconds on the kernel route; it is pinned below
    cases.remove((3, 2, 2))
    return cases + [(3, 1, Fraction(1, 3)), (4, 1, 1)]


@pytest.mark.parametrize("g,r,s", _reference_grid())
def test_dimension_matches_kernel_reference(g, r, s):
    if (g * s).denominator != 1:
        with pytest.raises(ValueError):
            _kernel_reference(g, r, s)
        with pytest.raises(ValueError):
            invariant_dimension(g, r, s)
        return
    dimension = invariant_dimension(g, r, s)
    assert type(dimension) is int
    assert dimension == len(_kernel_reference(g, r, s))


def test_dimension_g2_matches_hilbert_series():
    for r in range(1, 5):
        coefficients = _even_closed_form(r, 7)
        for s in range(7):
            assert invariant_dimension(2, r, s) == coefficients[s]


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_dimension_of_a_pencil(g):
    # the invariants of a pencil (A, B) are generated by the g + 1
    # coefficients of det(xA + yB), which are algebraically independent
    for s in range(6):
        assert invariant_dimension(g, 1, s) == comb(s + g, g)


def test_dimension_of_triples_of_ternary_forms():
    # the value the kernel route gives
    assert invariant_dimension(3, 2, 2) == 56


def test_dimension_constants():
    for g, r in ((2, 0), (2, 1), (3, 0)):
        assert invariant_dimension(g, r, 0) == 1


def test_dimension_single_quadratic_pair():
    assert invariant_dimension(2, 1, 1) == 3


def test_dimension_half_integer_vanishes():
    assert invariant_dimension(2, 1, Fraction(1, 2)) == 0


def test_dimension_refuses_a_weight_count_over_the_budget():
    # 2 (2s + 2)^2 steps at g = 2: s = 4999 is the last one in the budget
    assert invariant_dimension(2, 1, 4999) == comb(4999 + 2, 2)
    for g, s in ((2, 5000), (2, 10 ** 400), (3, 300), (8, 1)):
        with pytest.raises(SizeTooLarge, match=f"over the budget {DIMS_BUDGET}"):
            invariant_dimension(g, 1, s)


@pytest.mark.parametrize("g,r,s", [(0, 1, 1), (-1, 1, 1), (2, -1, 1),
                                   (2, 1, -1), (2, 1, Fraction(-1, 2))])
def test_dimension_rejects_out_of_range_arguments(g, r, s):
    with pytest.raises(ValueError):
        invariant_dimension(g, r, s)


def test_basis_members_transform_correctly():
    rng = random.Random(15)
    basis = _kernel_reference(2, 1, 1)
    assert len(basis) == 3
    for f in basis:
        for _ in range(5):
            point = _sym_tuple_point(2, 1, rng)
            lam = _rand_sl2(rng)
            moved = _transform_point(point, lam, 2, 1)
            assert f.evaluate(point) == f.evaluate(moved)


# ---------------------------------------------------------------- theta

def T(l, i, j):
    return Tvar(l, i, j)


def test_theta_pure_slot_is_det():
    assert theta(2, (2, 0)) == T(0, 1, 1) * T(0, 2, 2) - T(0, 1, 2) ** 2
    assert theta(2, (0, 2)) == T(1, 1, 1) * T(1, 2, 2) - T(1, 1, 2) ** 2


def test_theta_mixed_polarization():
    expect = (T(0, 1, 1) * T(1, 2, 2) + T(0, 2, 2) * T(1, 1, 1)
              - T(0, 1, 2) * T(1, 1, 2) * 2)
    assert theta(2, (1, 1)) == expect


def test_theta_count():
    for g, r in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        assert len(theta_multidegrees(g, r)) == comb(g + r, r)


def test_sl_annihilates_detects_a_non_invariant():
    assert not sl_annihilates(Tvar(0, 1, 1), 2)


def test_theta_is_invariant():
    rng = random.Random(99)
    for g, r in ((2, 1), (3, 1)):
        for md in theta_multidegrees(g, r):
            f = theta(g, md)
            assert sl_annihilates(f, g)


def test_theta_evaluates_as_det_coefficient():
    # oracle: sympy expansion of det(y0 A + y1 B) on a random integer pair
    rng = random.Random(2)
    A = sympy.Matrix(2, 2, lambda i, j: rng.randrange(-4, 5))
    A = (A + A.T) / 2 * 2
    B = sympy.Matrix(2, 2, lambda i, j: rng.randrange(-4, 5))
    B = (B + B.T) / 2 * 2
    y0, y1 = sympy.symbols("y0 y1")
    poly = sympy.expand((y0 * A + y1 * B).det())
    point = {}
    for i in range(1, 3):
        for j in range(i, 3):
            point[VarId("T", 0, i, j)] = Fraction(int(A[i - 1, j - 1]))
            point[VarId("T", 1, i, j)] = Fraction(int(B[i - 1, j - 1]))
    assert theta(2, (1, 1)).evaluate(point) == Fraction(int(poly.coeff(y0 * y1)))


@functools.cache
def _s_weighted_det(g, r):
    """det(sum_l s_l T^(l)) with auxiliary scalar variables s_l."""
    rows = [[sum((MultiPoly.var(VarId("s", l, 0, 0)) * T(l, i, j)
                  for l in range(r + 1)), MultiPoly.constant(0))
             for j in range(1, g + 1)] for i in range(1, g + 1)]
    return _det_rows(rows)


def _theta_det_reference(g, mdeg):
    """theta by the determinant route: the s-monomial prod s_l^(m_l)."""
    out = {}
    for key, coeff in _s_weighted_det(g, len(mdeg) - 1).terms.items():
        svars = {v.level: e for v, e in key if v.family == "s"}
        if all(svars.get(l, 0) == m for l, m in enumerate(mdeg)):
            rest = tuple((v, e) for v, e in key if v.family != "s")
            out[rest] = out.get(rest, 0) + coeff
    return MultiPoly(out)


@pytest.mark.parametrize("g,mdeg", [
    (g, mdeg) for g in range(1, 5) for r in range(3)
    for mdeg in theta_multidegrees(g, r)] + [
    (5, mdeg) for mdeg in theta_multidegrees(5, 1)], ids=str)
def test_theta_matches_determinant_reference(g, mdeg):
    f = theta(g, mdeg)
    assert f.terms == _theta_det_reference(g, mdeg).terms
    assert all(type(c) is int for c in f.terms.values())


def test_theta_beyond_six_rows_is_a_det_coefficient():
    # oracle: the y-coefficient of sympy's det(A + y B) for a 7x7 pair
    rng = random.Random(7)
    g = 7
    A = sympy.zeros(g, g)
    B = sympy.zeros(g, g)
    point = {}
    for i in range(g):
        for j in range(i, g):
            for l, M in ((0, A), (1, B)):
                M[i, j] = M[j, i] = rng.randrange(-5, 6)
                point[VarId("T", l, i + 1, j + 1)] = int(M[i, j])
    y = sympy.symbols("y")
    pencil = DomainMatrix.from_Matrix(A + y * B)        # over ZZ[y]
    det = pencil.domain.to_sympy(pencil.det())
    expect = sympy.Poly(det, y).coeff_monomial(y)
    assert theta(g, (6, 1)).evaluate(point) == int(expect)


@pytest.mark.parametrize("mdeg", [(2, 2, 2), (3, 2, 1), (2, 2, 1, 1)],
                         ids=str)
def test_theta_at_six_rows_with_three_and_four_levels(mdeg):
    # oracle: the coefficient of y^mdeg in sympy's det(sum_l y_l A_l) for a
    # seeded tuple of integer symmetric 6x6 matrices
    rng = random.Random(sum(mdeg) * 10 + len(mdeg))
    g = 6
    ys = sympy.symbols(f"y0:{len(mdeg)}")
    mats = [sympy.zeros(g, g) for _ in mdeg]
    point = {}
    for i in range(g):
        for j in range(i, g):
            for l, M in enumerate(mats):
                M[i, j] = M[j, i] = rng.randrange(-5, 6)
                point[VarId("T", l, i + 1, j + 1)] = int(M[i, j])
    pencil = DomainMatrix.from_Matrix(
        sum((y * M for y, M in zip(ys, mats)), sympy.zeros(g, g)))
    det = pencil.domain.to_sympy(pencil.det())
    expect = sympy.Poly(det, *ys).coeff_monomial(
        prod(y ** m for y, m in zip(ys, mdeg)))
    assert theta(g, mdeg).evaluate(point) == int(expect)


@pytest.mark.parametrize("n", range(1, 6))
def test_leibniz_of_distinct_entries_is_the_cofactor_determinant(n):
    # with one variable per entry the expansion is the generic determinant,
    # so every sign of S_n shows; with each entry split into two parts it is
    # the coefficient of s^k t^(n-k) in det(s X + t Y)
    X = [[VarId("X", 0, i, j) for j in range(n)] for i in range(n)]
    Y = [[VarId("X", 1, i, j) for j in range(n)] for i in range(n)]
    generic = _det_rows([[MultiPoly.var(v) for v in row] for row in X])
    assert quad_invariants._leibniz(
        [[[(v, 0)] for v in row] for row in X], (n,)).terms == generic.terms
    s, t = MultiPoly.var(VarId("s", 0, 0, 0)), MultiPoly.var(VarId("t", 0, 0, 0))
    pencil = _det_rows([[s * MultiPoly.var(x) + t * MultiPoly.var(y)
                         for x, y in zip(rx, ry)] for rx, ry in zip(X, Y)])
    for k in range(n + 1):
        expect = {tuple(p for p in key if p[0].family == "X"): c
                  for key, c in pencil.terms.items()
                  if dict((v.family, e) for v, e in key).get("s", 0) == k}
        got = quad_invariants._leibniz(
            [[[(x, 0), (y, 1)] for x, y in zip(rx, ry)]
             for rx, ry in zip(X, Y)], (k, n - k))
        assert got.terms == expect


def test_upsilon_evaluates_as_a_column_determinant():
    # oracle: sympy's determinant of the 6 x 6 entry-column matrix at a
    # seeded integer point, levels out of order
    rng = random.Random(5)
    levels = (3, 0, 7, 1, 5, 2)
    rows = [(i, j) for i in range(1, 4) for j in range(i, 4)]
    point = {VarId("T", q, i, j): rng.randrange(-9, 10)
             for q in levels for i, j in rows}
    M = sympy.Matrix([[point[VarId("T", q, i, j)] for q in levels]
                      for i, j in rows])
    assert upsilon(3, levels).evaluate(point) == M.det()


@pytest.mark.parametrize("call,match", [
    (lambda: theta(2, (1, 0)), "sum to the matrix size"),
    (lambda: upsilon(2, (0, 1)), "need 3 levels"),
    (lambda: jmath(Tvar(0, 3, 3)), "defined for size 2"),
    (lambda: relation_check("cyclic"), "needs a split"),
    (lambda: relation_check("no-such-kind"), "unknown relation kind"),
    (lambda: binary_discriminant([5]), "degree must be at least 1, got 0"),
    (lambda: b0_count(4, 101), "sizes 2 and 3"),
], ids=["theta-sum", "upsilon-count", "jmath-size-3", "cyclic-no-split",
        "relation-kind", "discriminant-degree-0", "b0-size-4"])
def test_rejects_invalid_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_theta_rejects_negative_parts():
    with pytest.raises(ValueError,
                       match="^multidegree parts must be at least 0, got -1$"):
        theta(2, (3, -1))


def test_theta_refuses_over_budget_before_expanding():
    # 7! * 7! = 25401600 products, which would take minutes and gigabytes;
    # the refusal names both numbers
    with pytest.raises(SizeTooLarge, match=f"25401600.*{THETA_BUDGET}"):
        theta(7, (1,) * 7)


# ---------------------------------------------------------------- upsilon

def test_upsilon_rejects_repeats():
    with pytest.raises(ValueError,
                       match=r"^levels must be distinct, got \(0, 0, 1\)$"):
        upsilon(2, (0, 0, 1))


def test_upsilon_g1():
    assert upsilon(1, (3,)) == T(3, 1, 1)


@pytest.mark.parametrize("g,levels", [(2, (0, 1, 2)), (2, (4, 0, 2)),
                                      (3, (0, 1, 2, 3, 4, 5)),
                                      (3, (5, 2, 7, 0, 1, 3))])
def test_upsilon_leibniz_sum_matches_cofactor_determinant(g, levels):
    pairs = [(i, j) for i in range(1, g + 1) for j in range(i, g + 1)]
    cofactor = _det_rows([[T(q, i, j) for q in levels] for i, j in pairs])
    got = upsilon(g, levels)
    assert got == cofactor
    assert len(got.terms) == len(cofactor.terms) == prod(range(1, len(pairs) + 1))


def test_upsilon_refuses_over_budget():
    # g = 4 has 10 rows: 10! = 3628800 products
    with pytest.raises(SizeTooLarge, match=f"3628800.*{THETA_BUDGET}"):
        upsilon(4, tuple(range(10)))


def test_upsilon_g2_against_sympy():
    rows = []
    syms = {}
    for i, j in ((1, 1), (1, 2), (2, 2)):
        row = []
        for q in (0, 1, 2):
            s = sympy.Symbol(f"T{q}_{i}{j}")
            syms[VarId("T", q, i, j)] = s
            row.append(s)
        rows.append(row)
    expect = sympy.expand(sympy.Matrix(rows).det())
    got = upsilon(2, (0, 1, 2))
    expr = sympy.Integer(0)
    for key, coeff in got.terms.items():
        term = sympy.Integer(coeff) if not isinstance(coeff, Fraction) else sympy.Rational(coeff)
        for vid, e in key:
            term *= syms[vid] ** e
        expr += term
    assert sympy.expand(expr - expect) == 0


# ---------------------------------------------------------------- jmath and xi

def test_jmath_kills_det():
    for l in (0, 1, 3):
        det = T(l, 1, 1) * T(l, 2, 2) - T(l, 1, 2) ** 2
        assert not jmath(det)


def test_jmath_on_entries():
    assert jmath(T(0, 1, 1)) == uvar(0) * uvar(0)
    assert jmath(T(2, 2, 2)) == vvar(2) * vvar(2)
    assert jmath(T(1, 1, 2)) == uvar(1) * vvar(1)


def test_jmath_of_mixed_theta_is_pluecker_square():
    y01 = pluecker_y(0, 1)
    assert jmath(theta(2, (1, 1))) == y01 * y01


def test_xi_two_cycle_is_theta():
    assert xi_lift((0, 1)) == theta(2, (1, 1))
    assert jmath(xi_lift((0, 1))) == xi_target((0, 1))


def test_xi_three_cycles_are_upsilon():
    assert xi_lift((0, 1, 2)) == upsilon(2, (0, 1, 2))
    assert xi_lift((0, 2, 1)) == upsilon(2, (0, 1, 2)) * (-1)


def _xi_cycles():
    rng = random.Random(808)
    cycles = [tuple(range(n)) for n in range(1, 9)]
    cycles += [tuple(rng.sample(range(12), n)) for n in range(1, 9)]
    return cycles + [(3, 0, 5, 1)]


@pytest.mark.parametrize("cycle", _xi_cycles())
def test_xi_lift_is_a_multilinear_integer_preimage(cycle):
    lift = xi_lift(cycle)
    assert jmath(lift) == xi_target(cycle)
    assert (not lift) == (len(cycle) == 1)
    for key, coeff in lift.terms.items():
        assert sorted(v.level for v, _ in key) == sorted(cycle)
        assert all(v.family == "T" and e == 1 for v, e in key)
        assert type(coeff) is int


def _xi_lift_by_rewriting(cycle):
    """The lift read off the expanded target: each term's u-degree at each
    level names the entry T_11, T_12 or T_22 of that level."""
    entry_of = {2: (1, 1), 1: (1, 2), 0: (2, 2)}
    out = {}
    for key, coeff in xi_target(cycle).terms.items():
        u_deg = {v.level: e for v, e in key if v.family == "u"}
        out[tuple((VarId("T", level, *entry_of[u_deg.get(level, 0)]), 1)
                  for level in sorted(cycle))] = coeff
    return MultiPoly(out)


@pytest.mark.parametrize("n", range(1, 11))
def test_xi_lift_matches_the_rewritten_target(n):
    rng = random.Random(1000 + n)
    for cycle in (tuple(range(n)), tuple(rng.sample(range(3 * n + 1), n))):
        got = xi_lift(cycle)
        assert got.terms == _xi_lift_by_rewriting(cycle).terms
        # the two constant sign choices meet on the all-T_12 monomial, where
        # they cancel for odd n and add up for even n
        assert len(got.terms) == 2 ** n - (2 if n % 2 else 1)


def test_xi_lift_rejects_repeated_levels():
    with pytest.raises(ValueError, match=r"^cycle entries must be distinct, "
                       r"got \(0, 1, 0\)$"):
        xi_lift((0, 1, 0))


class _Expanded(Exception):
    pass


def test_xi_refuses_over_budget_before_expanding(monkeypatch):
    # 16 * 2^16 = 1048576 term products, which would take several seconds;
    # the refusal names both numbers and comes before the first bracket of
    # the target, and before the lift builds its first entry
    def expanded(*args):
        raise _Expanded
    monkeypatch.setattr(quad_invariants, "pluecker_y", expanded)
    monkeypatch.setattr(quad_invariants, "VarId", expanded)
    for call in (xi_target, xi_lift):
        with pytest.raises(SizeTooLarge, match=f"1048576.*{THETA_BUDGET}"):
            call(range(16))
    # 15 * 2^15 = 491520 is inside the budget: the estimate passes, and the
    # expansion is reached without being run
    for call in (xi_target, xi_lift):
        with pytest.raises(_Expanded):
            call(range(15))


def test_xi_target_is_minus_circular_product():
    y01, y12, y20 = pluecker_y(0, 1), pluecker_y(1, 2), pluecker_y(2, 0)
    assert xi_target((0, 1, 2)) == y01 * y12 * y20 * (-1)


# ---------------------------------------------------------------- relations

def test_relation_rejects_repeated_indices():
    with pytest.raises(ValueError):
        relation_check("cyclic", indices=(0, 1, 1, 2), split=3)


@pytest.mark.parametrize("call,message", [
    (lambda: upsilon(2, (0, 1, -2)), "levels must be at least 0, got -2"),
    (lambda: xi_lift((0, -1)), "cycle entries must be at least 0, got -1"),
    (lambda: relation_check("plucker", (0, 1, 2, -3)),
     "indices must be at least 0, got -3"),
    (lambda: relation_check("cyclic", (0, -1, 2, 3), split=2),
     "indices must be at least 0, got -1"),
], ids=["upsilon", "xi", "plucker", "cyclic"])
def test_negative_levels_are_rejected(call, message):
    # before, xi_lift((0, -1)) named a variable T-1_11
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_cyclic_relation_smallest_case():
    holds, witness = relation_check("cyclic", indices=(0, 1, 2, 3), split=3)
    assert holds
    assert witness["residual_terms"] == 0


def test_plucker_kernel_slice():
    holds, witness = relation_check("plucker", indices=(0, 1, 2, 3))
    assert holds
    assert witness["kernel_dimension"] == 1


# ---------------------------------------------------------------- hilbert series

# the closed forms once stored in the library: numerators over (1 - x)^d
_EVEN_NUMERATORS = {1: [1], 2: [1], 3: [1, 1, 1, 1], 4: [1, 3, 6, 10]}


def _over_power_of_one_minus_x(num, d, terms):
    """First coefficients of num(x) / (1 - x)^d."""
    return [sum(num[j] * comb(s - j + d - 1, d - 1)
                for j in range(len(num)) if s - j >= 0) for s in range(terms)]


def _even_closed_form(r, terms):
    return _over_power_of_one_minus_x(_EVEN_NUMERATORS[r], 3 * r, terms)


def _grassmannian_closed_form(r, terms):
    """Narayana numerator over (1 - x)^(2r - 1), for r >= 2."""
    num = [Fraction(comb(r - 1, j) * comb(r - 1, j - 1), r - 1)
           for j in range(1, r)]
    return _over_power_of_one_minus_x(num, 2 * r - 1, terms)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_hilbert_even_matches_stored_numerators(r):
    assert hilbert_closed(r, 15) == _even_closed_form(r, 15)


@pytest.mark.parametrize("r", range(2, 9))
def test_hilbert_grassmannian_matches_narayana_form(r):
    assert hilbert_closed(r, 10, variant="grassmannian") == \
        _grassmannian_closed_form(r, 10)


def _bracket_span_rank(r, s):
    """Rank of the degree-s products of the brackets y_ij on r + 1 levels."""
    ys = [pluecker_y(i, j) for i in range(r + 1) for j in range(i + 1, r + 1)]
    products = []
    for combo in itertools.combinations_with_replacement(ys, s):
        f = MultiPoly.constant(1)
        for y in combo:
            f = f * y
        products.append(f)
    keys = sorted({k for f in products for k in f.terms})
    col = {k: n for n, k in enumerate(keys)}
    return rank(ExactMatrix([{col[k]: c for k, c in f.terms.items()}
                             for f in products], ncols=len(keys)))


@pytest.mark.parametrize("r,s", [(r, s) for r in range(1, 6) for s in range(4)
                                 if (r, s) != (5, 3)])
def test_hilbert_grassmannian_counts_bracket_products(r, s):
    # the brackets generate the invariants of r + 1 vectors in the plane
    assert hilbert_closed(r, s + 1, variant="grassmannian")[s] == \
        _bracket_span_rank(r, s)


@pytest.mark.parametrize("r,dimension", [(5, 231), (6, 406)])
def test_hilbert_even_beyond_stored_numerators(r, dimension):
    coefficients = hilbert_closed(r, 3)
    assert coefficients[2] == dimension == len(_kernel_reference(2, r, 2))


def test_hilbert_of_one_level():
    # one matrix: only powers of det; one vector: only constants
    assert hilbert_closed(0, 5) == [1, 1, 1, 1, 1]
    assert hilbert_closed(0, 5, variant="grassmannian") == [1, 0, 0, 0, 0]
    assert hilbert_closed(1, 3, variant="grassmannian") == [1, 1, 1]


def test_hilbert_rejects_negative_r():
    for variant in ("even", "grassmannian"):
        with pytest.raises(ValueError, match="^r must be at least 0"):
            hilbert_closed(-1, 3, variant=variant)


def test_hilbert_rejects_unknown_variant():
    with pytest.raises(ValueError, match="unknown variant"):
        hilbert_closed(2, 3, variant="odd")


def test_hilbert_even_r1_r2():
    assert hilbert_closed(1, 5) == [comb(s + 2, 2) for s in range(5)]
    assert hilbert_closed(2, 5) == [comb(s + 5, 5) for s in range(5)]


def test_hilbert_even_r3():
    expect = [sum(comb(s + i, 8) for i in range(5, 9)) for s in range(5)]
    assert hilbert_closed(3, 5) == expect
    assert hilbert_closed(3, 3)[1] == 10
    assert hilbert_closed(3, 3)[2] == 55


def test_hilbert_even_r4_series():
    # (1 + 3x + 6x^2 + 10x^3) / (1-x)^12 expanded by hand
    num = [1, 3, 6, 10]
    expect = [sum(num[j] * comb(s - j + 11, 11) for j in range(4) if s - j >= 0)
              for s in range(6)]
    got = hilbert_closed(4, 6)
    assert got == expect
    assert got[1] == 15 and got[2] == 120


def test_hilbert_term_count():
    assert hilbert_closed(2, 0) == []
    for variant in ("even", "grassmannian"):
        with pytest.raises(ValueError, match="terms"):
            hilbert_closed(3, -2, variant=variant)


def test_hilbert_refuses_a_series_over_the_budget_before_any_term():
    # 5001 even terms took about 100 s, and the per-term dimension budget
    # only tripped at the last one
    start = time.perf_counter()
    for variant, terms, work in (("even", 5001, 5001 * 5002),
                                 ("even", 10 ** 5, 10 ** 5 * (10 ** 5 + 1)),
                                 ("grassmannian", 10 ** 6 + 1, 2 * 10 ** 6 + 2)):
        with pytest.raises(SizeTooLarge, match=(
                f"^the {variant} Hilbert series to {terms} terms needs {work} "
                f"weight counts, over the budget {HILBERT_BUDGET}$")):
            hilbert_closed(4, terms, variant=variant)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("variant,last", [("even", 1413),
                                          ("grassmannian", 10 ** 6)])
def test_hilbert_budget_boundary(monkeypatch, variant, last):
    # each count stubbed out: the estimate alone decides, and the last
    # accepted length is the largest within the budget
    monkeypatch.setattr(quad_invariants, "invariant_dimension",
                        lambda g, r, s: 0)
    monkeypatch.setattr(quad_invariants, "_weyl_sum", lambda g, s, count: 0)
    assert len(hilbert_closed(4, last, variant=variant)) == last
    with pytest.raises(SizeTooLarge):
        hilbert_closed(4, last + 1, variant=variant)


def test_hilbert_grassmannian_r3():
    # (1 + x) / (1-x)^5
    expect = [comb(s + 4, 4) + (comb(s + 3, 4) if s >= 1 else 0) for s in range(3)]
    assert hilbert_closed(3, 3, variant="grassmannian") == expect
    assert expect == [1, 6, 20]


# ---------------------------------------------------------------- b0 counts

def test_b0_g2():
    out = b0_count(2, 101, trials=50, seed=1)
    assert out["max_count"] == 2
    assert all(c <= 2 for c in out["counts"])


def test_b0_g2_zero_discriminant():
    # d12 = 0 admits exactly the solution q12 = 0
    assert _count_g2(101, 0) == 1


def _square_roots(q):
    table = {}
    for x in range(q):
        table.setdefault(x * x % q, []).append(x)
    return table


@pytest.mark.parametrize("q", [2, 3, 101])
def test_b0_g2_matches_square_root_table(q):
    roots = _square_roots(q)
    for draw in range(q):
        expect = len(roots[draw * draw % q])
        assert _count_g2(q, draw) == expect
    seeded = b0_count(2, q, trials=50, seed=4)["counts"]
    rng = random.Random(4)
    assert seeded == [len(roots[rng.randrange(q) ** 2 % q]) for _ in range(50)]


def _count_g3_loop(q, alpha, beta, gamma, nu):
    """Reference count: scan z over F_q and look x, y up in a root table."""
    roots = _square_roots(q)
    rhs1 = (alpha * alpha + beta * beta + gamma * gamma) % q
    rhs2 = (beta * beta + nu * gamma * gamma) % q
    rhs3 = (alpha * beta * gamma - gamma * gamma) % q
    count = 0
    for z in range(q):
        y2 = (rhs2 - nu * z * z) % q
        for y in roots.get(y2, ()):
            x2 = (rhs1 - y2 - z * z) % q
            for x in roots.get(x2, ()):
                if (x * y * z - z * z) % q == rhs3:
                    count += 1
    return count


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_b0_g3_resolvent_matches_loop_on_every_draw(q):
    for abc in itertools.product(range(1, q), repeat=3):
        for nu in range(2, q):
            got = _count_g3(q, *abc, nu)
            assert got == _count_g3_loop(q, *abc, nu) and got <= 12


@pytest.mark.parametrize("q", [13, 101, 1009])
def test_b0_g3_resolvent_matches_loop_on_random_draws(q):
    rng = random.Random(q)
    seen = set()
    for _ in range(500):
        draw = (rng.randrange(1, q), rng.randrange(1, q), rng.randrange(1, q),
                rng.randrange(2, q))
        got = _count_g3(q, *draw)
        assert got == _count_g3_loop(q, *draw) and got <= 12
        seen.add(got)
    assert max(seen) == 12


def test_b0_g3_seeded_trials_follow_the_draw_order():
    q, seed = 101, 6
    rng = random.Random(seed)
    draws = [(rng.randrange(1, q), rng.randrange(1, q), rng.randrange(1, q),
              rng.randrange(2, q)) for _ in range(40)]
    out = b0_count(3, q, trials=40, seed=seed)
    assert out["counts"] == [_count_g3_loop(q, *d) for d in draws]
    assert out["max_count"] == max(out["counts"])


def test_b0_g3_large_field():
    # a scan over F_q takes minutes at this size; the resolvent is O(log q)
    out = b0_count(3, 1000003, trials=100, seed=1)
    assert len(out["counts"]) == 100 and out["max_count"] <= 12


def test_b0_g3_matches_exhaustive_oracle():
    q = 11
    rng = random.Random(5)
    for _ in range(3):
        alpha, beta, gamma = (rng.randrange(1, q) for _ in range(3))
        nu = rng.choice([x for x in range(2, q)])
        rhs1 = (alpha ** 2 + beta ** 2 + gamma ** 2) % q
        rhs2 = (beta ** 2 + nu * gamma ** 2) % q
        rhs3 = (alpha * beta * gamma - gamma ** 2) % q
        expect = sum(1 for X, Y, Z in itertools.product(range(q), repeat=3)
                     if (X ** 2 + Y ** 2 + Z ** 2) % q == rhs1
                     and (Y ** 2 + nu * Z ** 2) % q == rhs2
                     and (X * Y * Z - Z ** 2) % q == rhs3)
        assert _count_g3(q, alpha, beta, gamma, nu) == expect


# ---------------------------------------------------------------- discriminants

def test_binary_discriminant_quadratic():
    b, c = Fraction(7), Fraction(3)
    assert binary_discriminant([1, b, c]) == b * b - 4 * c


def _sympy_discriminant(cs):
    t = sympy.Symbol("t")
    g = len(cs) - 1
    return sympy.discriminant(
        sum(sympy.Integer(c) * t ** (g - j) for j, c in enumerate(cs)), t)


def test_binary_discriminant_detects_multiple_roots():
    # (t-1)^2 (t-2) = t^3 - 4t^2 + 5t - 2
    assert binary_discriminant([1, -4, 5, -2]) == 0
    # (t-1)(t-2)(t-3) has distinct roots
    assert binary_discriminant([1, -6, 11, -6]) != 0


@pytest.mark.parametrize("g", [2, 3, 4])
def test_binary_discriminant_against_sympy(g):
    rng = random.Random(400 + g)
    for _ in range(10):
        cs = [rng.choice((-1, 1)) * rng.randrange(1, 8)] + \
            [rng.randrange(-7, 8) for _ in range(g)]
        assert binary_discriminant(cs) == _sympy_discriminant(cs)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_binary_discriminant_with_zero_leading_coefficient(g):
    # disc(c_0, ..., c_g) = disc(c_g, ..., c_0); with c_0 = 0 the reversed
    # form has a nonzero leading coefficient whenever c_g != 0
    rng = random.Random(500 + g)
    for _ in range(10):
        cs = [0] + [rng.randrange(-7, 8) for _ in range(g)]
        disc = binary_discriminant(cs)
        assert disc == binary_discriminant(cs[::-1])
        if cs[-1]:
            assert disc == _sympy_discriminant(cs[::-1])


def test_binary_discriminant_refuses_degree_five():
    with pytest.raises(SizeTooLarge):
        binary_discriminant([1, 0, 0, 0, 0, 1])


def test_tact_invariant_cubic_against_sympy():
    # the discriminant of the binary cubic det(y0 T + y1 T') at integer
    # points, against sympy's discriminant of det(t T + T')
    J = tact_invariant(3)
    rng = random.Random(3030)
    t = sympy.Symbol("t")
    for _ in range(5):
        mats = []
        for _ in range(2):
            M = [[0] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    M[i][j] = M[j][i] = rng.randrange(-4, 5)
            mats.append(M)
        T0, T1 = (sympy.Matrix(M) for M in mats)
        if T0.det() == 0:
            continue
        point = {VarId("T", l, i + 1, j + 1): mats[l][i][j]
                 for l in range(2) for i in range(3) for j in range(i, 3)}
        assert J.evaluate(point) == \
            sympy.discriminant((t * T0 + T1).det(), t)


def test_tact_invariant_values():
    J = tact_invariant(2)
    point_eq = {}
    point_ne = {}
    for i in range(1, 3):
        for j in range(i, 3):
            point_eq[VarId("T", 0, i, j)] = Fraction(1 if i == j else 0)
            point_eq[VarId("T", 1, i, j)] = Fraction(1 if i == j else 0)
            point_ne[VarId("T", 0, i, j)] = Fraction(1 if i == j else 0)
            point_ne[VarId("T", 1, i, j)] = Fraction((1 if i == 1 else 2) if i == j else 0)
    assert J.evaluate(point_eq) == 0
    # oracle: discriminant of (y0 + y1)(y0 + 2 y1) = y0^2 + 3 y0 y1 + 2 y1^2
    assert J.evaluate(point_ne) == Fraction(3) ** 2 - 4 * 2


def test_tact_invariant_theta_degree():
    # degree 2g-2 in the thetas means T-degree g(2g-2)
    assert tact_invariant(2).degree() == 2 * (2 * 2 - 2)


def test_separating_polynomial_at_two_has_the_extra_theta_factor():
    F0 = separating_F0(2, 2)
    assert F0 == separating_F0(2, 3) * theta(2, (1, 1))
    assert sl_annihilates(F0, 2)


def test_separating_polynomial():
    F0 = separating_F0(2, 3)
    point = {}
    for i in range(1, 3):
        for j in range(i, 3):
            point[VarId("T", 0, i, j)] = Fraction(1 if i == j else 0)
            point[VarId("T", 1, i, j)] = Fraction((1 if i == 1 else 2) if i == j else 0)
    assert F0.evaluate(point) != 0
    # vanishes when the slot-0 determinant does
    point[VarId("T", 0, 2, 2)] = Fraction(0)
    assert F0.evaluate(point) == 0
