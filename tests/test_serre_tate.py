"""Tests for the truncated p-adic expansion engine.

Oracles: the scalar logarithm from exact_arith evaluated by exact-rational
partial sums, independent route comparisons, and rational-side substitution.
"""

import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltainv import serre_tate
from deltainv.delta_calculus import frobenius_lift
from deltainv.exact_arith import TruncatedPadic, rational_reduce
from deltainv.conj_invariants import y_invariant
from deltainv.multipoly import (_det_rows, MultiPoly, Tvar, VarId,
                                 alternating_product, charpoly_coeff,
                                 generic_sym_matrix, homogeneous_component,
                                 substitute)
from deltainv.serre_tate import (
    _ENTRY,
    _lifts,
    _rename,
    _twist,
    cyclic_word_check,
    diamond_realize,
    difference_substitution,
    expansion_basic,
    initial_form_identity_check,
    phi_twist,
    psi_phi_direct,
    reduce_rational_poly,
    spade,
)


def detT(level=0):
    return (Tvar(level, 1, 1) * Tvar(level, 2, 2)
            - Tvar(level, 1, 2) ** 2)


def theta11():
    return (Tvar(0, 1, 1) * Tvar(1, 2, 2) + Tvar(0, 2, 2) * Tvar(1, 1, 1)
            - Tvar(0, 1, 2) * Tvar(1, 1, 2) * 2)


def _add_scaled(A, c, B):
    """The matrix A + c B, entrywise."""
    return [[a + b * c for a, b in zip(r1, r2)] for r1, r2 in zip(A, B)]


# ---------------------------------------------------------------- psi

def test_psi_has_no_constant_term():
    S = psi_phi_direct(1, 2, 3, 2, 3)
    for i in range(1, 3):
        for j in range(i, 3):
            entry = S[i - 1][j - 1]
            assert not homogeneous_component(entry, 0)


def test_psi_linear_part_is_difference():
    for p in (2, 3):
        S = psi_phi_direct(1, 2, p, 2, 4)
        for i in range(1, 3):
            for j in range(i, 3):
                lin = homogeneous_component(S[i - 1][j - 1], 1)
                expect = reduce_rational_poly(
                    (Tvar(1, i, j) - Tvar(0, i, j)) * Fraction(1),
                    p, 2)
                assert lin == expect


def test_psi_scalar_specialization():
    # psi at (t, t') = (0, 1) equals the scalar (1/p) log(1 + p)
    S = psi_phi_direct(1, 1, 3, 2, 8)
    values = {VarId("T", 0, 1, 1): TruncatedPadic(3, 2, 0),
              VarId("T", 1, 1, 1): TruncatedPadic(3, 2, 1)}
    got = S[0][0].evaluate(values)
    # oracle value established in test_exact_arith: 7 mod 9
    assert got == TruncatedPadic(3, 2, 7)

    S2 = psi_phi_direct(1, 1, 2, 3, 12)
    values2 = {VarId("T", 0, 1, 1): TruncatedPadic(2, 3, 0),
               VarId("T", 1, 1, 1): TruncatedPadic(2, 3, 1)}
    assert S2[0][0].evaluate(values2) == TruncatedPadic(2, 3, 2)


def test_psi_is_symmetric():
    S = psi_phi_direct(1, 2, 3, 2, 3)
    assert S[1][0] == S[0][1]


# ---------------------------------------------------------------- the series

def _log1p(x, D):
    """``log(1 + x)`` truncated at degree D, for x without constant term,
    as the partial sum of its Mercator series in powers of x."""
    out = MultiPoly.constant(Fraction(0)).truncate(D)
    xn = MultiPoly.constant(1).truncate(D)
    for n in range(1, D + 1):
        xn = xn * x
        out = out + xn * Fraction((-1) ** (n + 1), n)
    return out


@pytest.mark.parametrize("D", range(7))
def test_log_entry_is_the_logarithm_of_the_entry(D):
    got = _lifts(2, D, 0)[0]
    assert got.terms == _log1p(MultiPoly.var(_ENTRY).truncate(D), D).terms
    assert got.trunc == D


def _log_series_binomial_reference(a, p, D):
    """The twisted series without the logarithm of a lift: with B the
    (a-1)-fold lift of the entry variable and A = phi(B), expand
    (1 + A) / (1 + B)^p = 1 + p u binomially and take (1/p) log(1 + p u)."""
    B = MultiPoly.var(_ENTRY).truncate(D)
    for _ in range(a - 1):
        B = frobenius_lift(B, p)
    A = frobenius_lift(B, p)
    # A - ((1+B)^p - 1) = phi(1 + tau) - (1 + tau)^p is divisible by p
    num = A - ((MultiPoly.constant(1).truncate(D) + B) ** p - 1)
    assert all(c % p == 0 for c in num.terms.values())
    num = num.map_coeffs(lambda c: c // p)
    inv = MultiPoly.constant(0).truncate(D)
    Bk = MultiPoly.constant(1).truncate(D)
    for k in range(D + 1):
        inv = inv + Bk * ((-1) ** k * comb(p + k - 1, k))
        Bk = Bk * B
    return _log1p(num * inv * p, D) * Fraction(1, p)


@pytest.mark.parametrize("D", [4, 8, 12])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_log_series_matches_binomial_reference(a, p, D):
    got = _twist(_lifts(p, D, a), a, p)
    assert got.terms == _log_series_binomial_reference(a, p, D).terms
    assert got.trunc == D


_X_VARS = [VarId("T", 0, 1, 1), VarId("T", 0, 1, 2), VarId("T", 1, 2, 2)]


@st.composite
def _no_constant_polys(draw):
    nvars = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(0, 2)] * nvars).filter(any)
    terms = draw(st.dictionaries(exps, st.integers(-3, 3), min_size=1,
                                 max_size=4))
    return MultiPoly({tuple((v, e) for v, e in zip(_X_VARS, key) if e): c
                      for key, c in terms.items()})


@settings(derandomize=True, deadline=None)
@given(x=_no_constant_polys(), p=st.sampled_from([2, 3, 5]),
       D=st.integers(0, 6))
def test_frobenius_lift_commutes_with_log(x, p, D):
    # phi is a ring endomorphism that never lowers degree, so it commutes
    # with the truncated logarithm
    lhs = frobenius_lift(_log1p(x, D), p)
    rhs = _log1p(frobenius_lift(x, p), D)
    assert lhs.terms == rhs.terms


# ---------------------------------------------------------------- twists

def test_route_equality_small():
    for (p, N, D) in ((3, 2, 4), (2, 2, 3)):
        a2_direct = psi_phi_direct(2, 1, p, N, D)
        a2_twist = phi_twist(psi_phi_direct(1, 1, p, N, D), p)
        assert a2_direct[0][0] == a2_twist[0][0]


def test_route_equality_a3_g2():
    p, N, D = 3, 2, 3
    direct = psi_phi_direct(3, 2, p, N, D)
    twisted = phi_twist(phi_twist(psi_phi_direct(1, 2, p, N, D), p), p)
    for i in range(1, 3):
        for j in range(i, 3):
            assert direct[i - 1][j - 1] == twisted[i - 1][j - 1]


def test_twisted_linear_part():
    # degree-1 component of the once-twisted series is p (T'' - T')
    for p in (2, 3):
        S = psi_phi_direct(2, 2, p, 2, 4)
        for i in range(1, 3):
            for j in range(i, 3):
                lin = homogeneous_component(S[i - 1][j - 1], 1)
                expect = reduce_rational_poly(
                    (Tvar(2, i, j) - Tvar(1, i, j)) * Fraction(p),
                    p, 2)
                assert lin == expect


# ---------------------------------------------------------------- basic forms

def test_basic_form_partial_is_identity():
    S = expansion_basic("f_partial", 1, 2, 3, 2, 3)
    one = TruncatedPadic(3, 2, 1)
    for i in range(1, 3):
        for j in range(1, 3):
            expect = MultiPoly.constant(one) if i == j else MultiPoly.constant(0 * one)
            assert S[i - 1][j - 1] == expect


def test_basic_form_angle_one_is_psi():
    S = expansion_basic("f_angle", 1, 2, 3, 2, 3)
    P = psi_phi_direct(1, 2, 3, 2, 3)
    for i in range(1, 3):
        for j in range(i, 3):
            assert S[i - 1][j - 1] == P[i - 1][j - 1]


@pytest.mark.parametrize("kind", ["f_r", "f_bracket"])
@pytest.mark.parametrize("a", [2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_full_form_is_sum_of_twisted_psi(kind, a, p):
    # independent route: sum of p^i times the (a-1-i)-fold Frobenius lift of
    # the level-1 series; g = 3 covers off-diagonal and transposed entries
    N, D = 2, 4
    S = psi_phi_direct(1, 3, p, N, D)
    twists = [S]
    for _ in range(a - 1):
        twists.append(phi_twist(twists[-1], p))
    rhs = twists[a - 1]
    for i in range(1, a):
        rhs = _add_scaled(rhs, p ** i, twists[a - 1 - i])
    lhs = expansion_basic(kind, a, 3, p, N, D)
    for i in range(1, 4):
        for j in range(1, 4):
            assert lhs[i - 1][j - 1] == rhs[i - 1][j - 1]


@pytest.mark.parametrize("N", [1, 2, 4])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_telescoping_commutes_with_reduction(p, N):
    # the full form is reduced once; the sum reduces each level on its own
    D = 4
    for a in range(1, 5):
        rhs = psi_phi_direct(a, 2, p, N, D)
        for i in range(1, a):
            rhs = _add_scaled(rhs, p ** i, psi_phi_direct(a - i, 2, p, N, D))
        assert expansion_basic("f_r", a, 2, p, N, D) == rhs


def test_key_identity_expansion_level():
    # the order-2 form equals (twisted psi) * 1 + p * 1 * psi entrywise
    for p in (2, 3, 5):
        for N in (2, 3):
            for D in (3, 4):
                lhs = expansion_basic("f_r", 2, 2, p, N, D)
                base = psi_phi_direct(1, 2, p, N, D)
                rhs = _add_scaled(phi_twist(base, p), p, base)
                for i in range(1, 3):
                    for j in range(i, 3):
                        assert lhs[i - 1][j - 1] == rhs[i - 1][j - 1]


# ---------------------------------------------------------------- suit maps

def test_diamond_constant():
    F = MultiPoly.constant(Fraction(5))
    out = diamond_realize(F, 1, 2, 3, 2, 3)
    assert out == MultiPoly.constant(TruncatedPadic(3, 2, 5))


def test_club_of_diamond_det():
    # degree-2 part of det(psi) is det(T' - T): direct truncation oracle
    p, N, D = 3, 2, 4
    out = diamond_realize(detT(), 1, 2, p, N, D)
    psi = psi_phi_direct(1, 2, p, N, D)
    oracle = homogeneous_component(_det_rows(psi), 2)
    assert homogeneous_component(out, 2) == oracle
    heart = difference_substitution(detT(), p)
    assert homogeneous_component(out, 2) == reduce_rational_poly(heart, p, N)


def test_club_of_diamond_theta():
    p, N, D = 3, 2, 4
    out = diamond_realize(theta11(), 2, 2, p, N, D)
    heart = difference_substitution(theta11(), p)
    assert homogeneous_component(out, 2) == reduce_rational_poly(heart, p, N)


def test_diamond_congruence_stability():
    # The coordinates transform multiplicatively under an integral unimodular
    # congruence: 1 + T_ij maps to prod_ab (1 + T_ab)^(lam_ia * lam_jb), and
    # higher levels transform by the induced p-derivation images.  The scalar
    # output of the determinant realization is fixed by this substitution.
    from deltainv.delta_calculus import canonical_delta
    from deltainv.serre_tate import reduce_rational_poly

    p, N, D = 3, 2, 3
    out = diamond_realize(detT(), 1, 2, p, N, D)
    lam = [[1, 1], [0, 1]]   # SL_2(Z)
    one = MultiPoly.constant(Fraction(1)).truncate(D)
    level0 = {}
    for i in range(1, 3):
        for j in range(i, 3):
            acc = one
            for a in range(1, 3):
                for b in range(1, 3):
                    e = lam[i - 1][a - 1] * lam[j - 1][b - 1]
                    if e:
                        t = Tvar(0, min(a, b), max(a, b)) * Fraction(1)
                        acc = (acc * (one + t) ** e).truncate(D)
            level0[(i, j)] = acc - one
    sub = {}
    for (i, j), val in level0.items():
        sub[VarId("T", 0, i, j)] = reduce_rational_poly(val, p, N)
        delta_val = canonical_delta(val, p).truncate(D)
        sub[VarId("T", 1, i, j)] = reduce_rational_poly(delta_val, p, N)
    assert substitute(out, sub, D) == out


@pytest.mark.parametrize("call,match", [
    (lambda: expansion_basic("f_unknown", 1, 2, 3, 2, 3), "unknown expansion"),
    (lambda: diamond_realize(Tvar(1, 1, 1), 1, 2, 3, 2, 3), "slot 1 needs r"),
    (lambda: diamond_realize(Tvar(0, 1, 3), 1, 2, 3, 2, 3), "outside g = 2"),
    (lambda: diamond_realize(Tvar(0, 1, 1), 1, 2, 3, 2, -1),
     "^D must be at least 0, got -1$"),
    (lambda: _twist(_lifts(3, 4, 0), 0, 3), "twist level"),
], ids=["expansion-kind", "diamond-slot", "diamond-entry", "diamond-degree",
        "log-series-level"])
def test_rejects_invalid_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def _per_level(F, series, D):
    """F with each variable replaced by ``series(level)`` renamed to its
    entry, every level's series built from a tower of its own."""
    sigma = {v: _rename(series(v.level), v.i, v.j) for v in F.variables()}
    return substitute(F, sigma, D)


@pytest.mark.parametrize("D", [0, 4, 8])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_one_tower_of_lifts_per_call(monkeypatch, p, D):
    lifts = []

    def counted(F, q):
        lifts.append(q)
        return frobenius_lift(F, q)

    def twist(a):
        return _twist(_lifts(p, D, a), a, p)

    def per_level_diamond(F):
        return _per_level(reduce_rational_poly(F, p, N),
                          lambda l: reduce_rational_poly(twist(l + 1), p, N),
                          D)

    N = 3
    levels_0_2 = Tvar(0, 1, 1) * Tvar(2, 2, 2) - Tvar(0, 1, 2) * 3
    for call, n_lifts, want in [
        # levels {0, 1}: a tower of 2 lifts
        (lambda: diamond_realize(theta11(), 2, 2, p, N, D), 2,
         lambda: per_level_diamond(theta11())),
        # level 2 alone at r = 4: 3 lifts, up to the level present, not r
        (lambda: diamond_realize(detT(2), 4, 2, p, N, D), 3,
         lambda: per_level_diamond(detT(2))),
        # spade on levels {0, 2}: 2 lifts
        (lambda: spade(levels_0_2, D, p), 2,
         lambda: _per_level(levels_0_2.map_coeffs(Fraction),
                            lambda l: twist(l) if l else _lifts(p, D, 0)[0],
                            D)),
    ]:
        lifts.clear()
        monkeypatch.setattr(serre_tate, "frobenius_lift", counted)
        got = call()
        monkeypatch.undo()
        assert lifts == [p] * n_lifts
        assert got.terms == want().terms
        assert got.trunc == D


def test_spade_scalar_log():
    # slot-0 projection for g = 1 becomes the truncated log series
    F = Tvar(0, 1, 1) * Fraction(1)
    out = spade(F, 5)
    t = Tvar(0, 1, 1) * Fraction(1)
    expect = MultiPoly.constant(Fraction(0))
    for n in range(1, 6):
        expect = expect + t ** n * Fraction((-1) ** (n + 1), n)
    assert out == expect


def test_spade_det_matches_log_entries():
    out = spade(detT(), 4)
    ell = {}
    for i in range(1, 3):
        for j in range(i, 3):
            t = Tvar(0, i, j) * Fraction(1)
            s = MultiPoly.constant(Fraction(0))
            for n in range(1, 5):
                s = s + t ** n * Fraction((-1) ** (n + 1), n)
            ell[(i, j)] = s
    expect = (ell[(1, 1)] * ell[(2, 2)] - ell[(1, 2)] * ell[(1, 2)]).truncate(4)
    assert out == expect


def test_initial_form_identity():
    for F in (detT(), theta11()):
        assert initial_form_identity_check(F, 4)
    assert initial_form_identity_check(MultiPoly.constant(Fraction(3)), 4)
    T = Tvar(0, 1, 1)
    assert not initial_form_identity_check(T + T * T, 2)   # not homogeneous


# ---------------------------------------------------------------- cyclic words

def test_cyclic_word_two_levels():
    out = cyclic_word_check((0, 1), 1, 2, 3)
    assert out["status"] == "verified"
    out = cyclic_word_check((0, 2), 1, 2, 3)
    assert out["status"] == "verified"


def test_cyclic_word_adjacent_max_rule():
    out = cyclic_word_check((1, 2), 1, 2, 3)
    assert out["status"] == "verified"


def test_cyclic_word_rejects_bad_cycle():
    with pytest.raises(ValueError, match="must alternate"):
        cyclic_word_check((0, 0), 1, 2, 3)
    with pytest.raises(ValueError, match="must alternate"):
        cyclic_word_check((0, 1, 1, 2), 1, 2, 3)
    with pytest.raises(ValueError, match="positive even length"):
        cyclic_word_check((0, 1, 2), 1, 2, 3)
    # every input is 0 mod 1, and Z/4 is not a field
    for p in (4, 1):
        with pytest.raises(ValueError, match="must be prime"):
            cyclic_word_check((0, 1), 1, 2, p)


@pytest.mark.parametrize("levels,j,g,p,status,nonzero", [
    # the one-word side vanishes mod 2, so agreement proves nothing
    ((0, 1, 0, 2), 1, 2, 2, "inconclusive", False),
    ((0, 2, 1, 3), 1, 2, 5, "verified", True),
    ((0, 3), 1, 2, 3, "verified", True),
    ((0, 2), 2, 2, 2, "verified", True),
    ((0, 1, 2, 3), 1, 3, 3, "verified", True),
    # the product is det Q^1 det Q^2 times the identity, so its trace
    # 3 det Q^1 det Q^2 vanishes mod 3
    ((0, 1, 0, 2), 1, 3, 3, "inconclusive", False),
])
def test_cyclic_word_pinned_results(levels, j, g, p, status, nonzero):
    out = cyclic_word_check(levels, j, g, p)
    assert out == {"equal": True, "nonzero": nonzero, "status": status}


def _cyclic_expansion_coeff(levels, j, g, p):
    """The j-th characteristic coefficient of the alternating product of the
    pair sums ``Q^(hi) + p Q^(hi-1) + ... + p^(hi-lo-1) Q^(lo+1)``, one per
    cycle edge: the two-sided product that ``cyclic_word_check`` compares
    with the one-word side."""
    def pair_sum(a, b):
        lo, hi = min(a, b), max(a, b)
        S = generic_sym_matrix(g, level=hi, family="Q")
        for i in range(1, hi - lo):
            S = _add_scaled(
                S, p ** i, generic_sym_matrix(g, level=hi - i, family="Q"))
        return S

    edges = zip(levels, levels[1:] + levels[:1])
    return charpoly_coeff(alternating_product(
        [pair_sum(a, b) for a, b in edges]), j)


def _alternating_cycles(length, levels):
    for cycle in itertools.product(levels, repeat=length):
        if all(a != b for a, b in zip(cycle, cycle[1:] + cycle[:1])):
            yield cycle


def test_cyclic_expansion_agrees_with_one_word_mod_p():
    # every pair sum is Q^(hi) mod p, so the two sides agree mod p; the
    # check's nonzero flag must then match the expansion side too
    cycles = [c for n in (2, 4) for c in _alternating_cycles(n, range(4))]
    assert len(cycles) == 96
    for levels in cycles:
        for j in (1, 2):
            cY = y_invariant(j, levels, 2)
            for p in (2, 3, 5):
                cF = _cyclic_expansion_coeff(levels, j, 2, p)
                assert not (cF - cY).map_coeffs(lambda c: c % p)
                nonzero = bool(cF.map_coeffs(lambda c: c % p))
                out = cyclic_word_check(levels, j, 2, p)
                assert out["equal"] and out["nonzero"] == nonzero
