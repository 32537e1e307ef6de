"""Tests for the weight ring, the canonical p-derivation on polynomial rings,
the bracket, and the graded-membership decomposition.

Oracles: direct Fraction expansion of the defining formulas.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltainv.delta_calculus import (
    Weight,
    _to_phi_coordinates,
    canonical_delta,
    delta_bracket,
    delta_homog_decompose,
    frobenius_lift,
    homogeneous_weight,
    phi_coordinate,
    phi_to_levels,
)
from deltainv.multipoly import MultiPoly, VarId, zvar


def z(i, level=0):
    return zvar(i, level)


# ---------------------------------------------------------------- weights

def test_weight_ring_ops():
    phi = Weight([0, 1])
    assert phi + Weight([3]) == Weight([3, 1])
    assert Weight([0, 1, 0]) == phi            # trailing zeros normalized


@pytest.mark.parametrize("p", [2, 3, 5])
def test_weight_of_product_is_sum_of_weights(p):
    factors = [z(0), z(1), delta_bracket(z(0), z(1), p),
               frobenius_lift(z(0), p)]
    for f in factors:
        for g in factors:
            assert homogeneous_weight(f * g, p) == \
                homogeneous_weight(f, p) + homogeneous_weight(g, p)
    bracket = delta_bracket(z(0), z(1), p)
    assert homogeneous_weight(z(0) * bracket, p) == Weight([p + 1, 1])
    assert homogeneous_weight(bracket * bracket, p) == Weight([2 * p, 2])
    assert homogeneous_weight(frobenius_lift(z(0), p), p) == Weight([0, 1])


# ---------------------------------------------------------------- delta, phi

def test_delta_of_variable_is_prime():
    for p in (2, 3, 5):
        assert canonical_delta(z(0), p) == z(0, 1)


def test_delta_of_constants():
    for p in (2, 3):
        assert not canonical_delta(MultiPoly.constant(0), p)
        assert not canonical_delta(MultiPoly.constant(1), p)
        # Fermat quotient of an integer constant
        c = MultiPoly.constant(2)
        expect = Fraction(2 - 2 ** p, p)
        assert canonical_delta(c, p) == MultiPoly.constant(expect)


def test_delta_additive_defect_is_cp():
    x, y = z(0), z(1)
    for p in (2, 3, 5):
        lhs = canonical_delta(x + y, p) - canonical_delta(x, p) - canonical_delta(y, p)
        # oracle: C_p(x, y) = (x^p + y^p - (x+y)^p)/p expanded over Q
        cp = (x ** p + y ** p - (x + y) ** p) * Fraction(-1, p) * -1
        assert lhs == cp


def test_frobenius_lift_on_variable():
    for p in (2, 3):
        assert frobenius_lift(z(0), p) == z(0) ** p + z(0, 1) * p
        assert frobenius_lift(MultiPoly.constant(2), p) == MultiPoly.constant(2)


def test_frobenius_lift_is_homomorphism():
    rng = random.Random(41)
    vars_ = [z(0), z(1), z(0, 1)]
    for p in (2, 3):
        for _ in range(5):
            f = sum((v * rng.randrange(-2, 3) for v in vars_), MultiPoly.constant(rng.randrange(3)))
            g = sum((v * rng.randrange(-2, 3) for v in vars_), MultiPoly.constant(rng.randrange(3)))
            assert frobenius_lift(f * g, p) == frobenius_lift(f, p) * frobenius_lift(g, p)


def test_phi_equals_power_plus_p_delta():
    rng = random.Random(43)
    vars_ = [z(0), z(1), z(0, 1), z(1, 1)]
    for p in (2, 3):
        for _ in range(5):
            f = MultiPoly.constant(rng.randrange(-2, 3))
            for v in vars_:
                f = f + v * rng.randrange(-2, 3)
            f = f + z(0) * z(1) * rng.randrange(-2, 3)
            assert frobenius_lift(f, p) == f ** p + canonical_delta(f, p) * p


_Z_VARS = [VarId("z", 0, 0, 0), VarId("z", 0, 1, 0), VarId("z", 1, 0, 0)]


@st.composite
def _int_polys(draw):
    exps = st.tuples(*[st.integers(0, 2)] * len(_Z_VARS))
    terms = draw(st.dictionaries(exps, st.integers(-3, 3), max_size=3))
    return MultiPoly({tuple((v, e) for v, e in zip(_Z_VARS, key) if e): c
                      for key, c in terms.items()})


def _divided_over_q(num, p):
    return (num * Fraction(1, p)).terms


@settings(derandomize=True, deadline=None, max_examples=100)
@given(p=st.sampled_from((2, 3, 5, 7)), F=_int_polys(), G=_int_polys())
def test_delta_of_integer_polynomial_is_integral(p, F, G):
    # phi(F) = F^p mod p, so the division by p is exact in Z[z]
    dF = canonical_delta(F, p)
    assert dF.terms == _divided_over_q(frobenius_lift(F, p) - F ** p, p)
    br = delta_bracket(F, G, p)
    assert br.terms == _divided_over_q(
        F ** p * frobenius_lift(G, p) - G ** p * frobenius_lift(F, p), p)
    assert all(type(c) is int for c in dF.terms.values())
    assert all(type(c) is int for c in br.terms.values())


def test_delta_of_non_integral_polynomial_stays_rational():
    for p in (2, 3, 5, 7):
        F = z(0) * Fraction(1, 2)
        G = z(1) + Fraction(1, 3)
        dF = canonical_delta(F, p)
        assert dF.terms == _divided_over_q(frobenius_lift(F, p) - F ** p, p)
        assert all(type(c) is Fraction for c in dF.terms.values())
        br = delta_bracket(F, G, p)
        assert br.terms == _divided_over_q(
            F ** p * frobenius_lift(G, p) - G ** p * frobenius_lift(F, p), p)
        assert all(type(c) is Fraction for c in br.terms.values())


# ---------------------------------------------------------------- bracket

def test_bracket_of_coordinates():
    for p in (2, 3, 5):
        lhs = delta_bracket(z(0), z(1), p)
        expect = z(0) ** p * z(1, 1) - z(1) ** p * z(0, 1)
        assert lhs == expect


def test_bracket_diagonal_vanishes():
    b = z(0) * 2 + z(1)
    for p in (2, 3):
        assert not delta_bracket(b, b, p)


def test_bracket_scaled_variable():
    for p in (2, 3, 5):
        lhs = delta_bracket(z(0), z(0) * 2, p)
        scale = Fraction(2 - 2 ** p, p)
        phi_z = z(0) ** p + z(0, 1) * p
        assert lhs == z(0) ** p * phi_z * scale


def test_bracket_weight():
    # bracket of two weight-1 elements lands in weight phi + p, delta-homogeneous
    for p in (2, 3):
        out = delta_bracket(z(0), z(1), p)
        w = homogeneous_weight(out, p)
        assert w == Weight([p, 1])


# ---------------------------------------------------------------- decomposition

def test_prime_variable_decomposes_in_two_weights():
    for p in (2, 3):
        comps = delta_homog_decompose(z(0, 1), p)
        wphi, wp = Weight([0, 1]), Weight([p])
        assert set(comps) == {wphi, wp}
        assert comps[wphi] == phi_coordinate(0, 1) * Fraction(1, p)
        assert comps[wp] == phi_coordinate(0, 0) ** p * Fraction(-1, p)
        # neither component is integral, so z' is not delta-homogeneous
        assert homogeneous_weight(z(0, 1), p) is None


@pytest.mark.parametrize("f", [MultiPoly({}), zvar(0, 0) * Fraction(1, 2)],
                         ids=["zero", "non-integral"])
def test_no_weight_for_zero_or_non_integral(f):
    for p in (2, 3):
        assert homogeneous_weight(f, p) is None


def test_coordinate_changes_reject_the_other_family():
    with pytest.raises(ValueError, match="level-coordinate"):
        delta_homog_decompose(MultiPoly.var(VarId("T", 0, 1, 1)), 2)
    with pytest.raises(ValueError, match="Frobenius-iterate"):
        phi_to_levels(zvar(0, 0), 2)


def test_plain_variable_is_weight_one():
    for p in (2, 3):
        assert homogeneous_weight(z(0), p) == Weight([1])


def test_bracket_formula_is_homogeneous():
    for p in (2, 3):
        f = z(0) ** p * z(1, 1) - z(1) ** p * z(0, 1)
        assert homogeneous_weight(f, p) == Weight([p, 1])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_phi_coordinates_of_a_level_variable_map_back_to_it(p):
    # phi_to_levels is the inverse change of coordinates, built from
    # Frobenius lifts of z rather than from the shift recursion
    for level in range(4):
        G = _to_phi_coordinates(z(1, level), p)
        assert {v.level for v in G.variables()} == set(range(level + 1))
        assert phi_to_levels(G, p) == z(1, level).map_coeffs(Fraction)


def test_decomposition_reassembles():
    rng = random.Random(47)
    for p in (2, 3):
        f = z(0) ** p * z(1, 1) + z(0, 1) * rng.randrange(1, 4) + z(1) * 5
        comps = delta_homog_decompose(f, p)
        total = MultiPoly.constant(0)
        for poly in comps.values():
            total = total + phi_to_levels(poly, p)
        assert total == f.map_coeffs(Fraction)


def test_decomposition_with_a_skipped_level():
    # z_0 at levels 0 and 2 (level 1 absent) next to a second index z_1:
    # z_0'' = (w_02 - w_01^p - p^(1-p) (w_01 - w_00^p)^p) / p^2, so z_0 z_0''
    # has weights 1 + phi^2 and 1 + p (p - k) + k phi for k = 0..p
    for p in (2, 3):
        f = z(0) * z(0, 2) + z(1) * 2
        comps = delta_homog_decompose(f, p)
        assert set(comps) == {Weight([1, 0, 1]), Weight([1])} | {
            Weight([p * (p - k) + 1, k]) for k in range(p + 1)}
        assert comps[Weight([1, 0, 1])] == \
            phi_coordinate(0, 0) * phi_coordinate(0, 2) * Fraction(1, p * p)
        assert comps[Weight([1])] == phi_coordinate(1, 0) * 2
        total = MultiPoly.constant(0)
        for poly in comps.values():
            total = total + phi_to_levels(poly, p)
        assert total == f.map_coeffs(Fraction)
