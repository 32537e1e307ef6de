"""End-to-end acceptance checks for the whole library.

Each test function covers one headline guarantee.  All comparisons are exact
(integer / rational / residue arithmetic); there are no tolerances anywhere.
"""

import random
from fractions import Fraction
from math import comb

from deltainv.conj_invariants import jacobian_rank, phi_q
from deltainv.delta_calculus import (
    Weight,
    canonical_delta,
    delta_bracket,
    homogeneous_weight,
)
from deltainv.exact_arith import rational_reduce
from deltainv.exact_linalg import ExactMatrix, rank
from deltainv.multipoly import (
    _det_rows,
    _mat_mul,
    MultiPoly,
    Tvar,
    VarId,
    adjugate,
    charpoly_coeff,
    generic_matrix,
    generic_sym_matrix,
    homogeneous_component,
    zvar,
)
from deltainv.quad_invariants import (
    b0_count,
    hilbert_closed,
    invariant_dimension,
    jmath,
    pluecker_y,
    relation_check,
    sl_annihilates,
    theta,
    theta_multidegrees,
    upsilon,
    xi_lift,
)
from deltainv.serre_tate import (
    cyclic_word_check,
    expansion_basic,
    initial_form_identity_check,
    phi_twist,
    psi_phi_direct,
)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _random_poly(rng, nvars=2, max_terms=3, max_deg=2, max_coeff=6):
    f = MultiPoly.constant(0)
    for _ in range(rng.randint(1, max_terms)):
        m = MultiPoly.constant(rng.randint(-max_coeff, max_coeff))
        for _ in range(rng.randint(0, max_deg)):
            m = m * zvar(rng.randrange(nvars), 0)
        f = f + m
    return f


def _reduce_coeffs(f, p, N):
    return {k: str(rational_reduce(Fraction(c), p, N)) for k, c in f.terms.items()}


def _coeff_matrix(polys):
    """Integer matrix of coefficients of `polys` on their common monomials."""
    keys = sorted({k for f in polys for k in f.terms})
    col = {k: i for i, k in enumerate(keys)}
    rows = []
    for f in polys:
        row = [0] * len(keys)
        for k, c in f.terms.items():
            row[col[k]] = c
        rows.append(row)
    return ExactMatrix(rows)


def _rand_sym(rng, g, q):
    m = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            m[i][j] = m[j][i] = rng.randrange(q)
    return m


# ---------------------------------------------------------------------------
# 1. p-derivation axioms
# ---------------------------------------------------------------------------

def test_criterion_01_p_derivation_axioms():
    rng = random.Random(101)
    grid = [(p, N) for p in (2, 3, 5) for N in (2, 3)]
    for trial in range(100):
        p, N = grid[trial % len(grid)]
        F = _random_poly(rng)
        G = _random_poly(rng)
        dF = canonical_delta(F, p)
        dG = canonical_delta(G, p)

        # additivity with the divided binomial correction term
        corr = (F ** p + G ** p - (F + G) ** p).map_coeffs(
            lambda c: Fraction(c, p))
        lhs = canonical_delta(F + G, p)
        rhs = dF + dG + corr
        assert lhs == rhs

        # Leibniz-type product rule
        lhs2 = canonical_delta(F * G, p)
        rhs2 = (F ** p) * dG + (G ** p) * dF + dF * dG * p
        assert lhs2 == rhs2

        # both identities survive reduction to p-adic residues
        assert _reduce_coeffs(lhs, p, N) == _reduce_coeffs(rhs, p, N)
        assert _reduce_coeffs(lhs2, p, N) == _reduce_coeffs(rhs2, p, N)


# ---------------------------------------------------------------------------
# 2. delta-bracket identity, symbolically, for p in {2, 3, 5}
# ---------------------------------------------------------------------------

def test_criterion_02_bracket_identity():
    for p in (2, 3, 5):
        z0, z1 = zvar(0, 0), zvar(1, 0)
        br = delta_bracket(z0, z1, p)
        expected = (z0 ** p) * zvar(1, 1) - (z1 ** p) * zvar(0, 1)
        assert br == expected
        # the bracket of coordinates is homogeneous of weight phi + p
        assert homogeneous_weight(br, p) == Weight([p, 1])
        # antisymmetry and self-annihilation, as full polynomial identities
        assert delta_bracket(z1, z0, p) == MultiPoly.constant(0) - br
        assert delta_bracket(z0, z0, p).is_zero()


# ---------------------------------------------------------------------------
# 3. invariant dimension grid
# ---------------------------------------------------------------------------

def test_criterion_03_dimension_grid():
    # one matrix, g = 2: binomial(s + 2, 2)
    for s in range(5):
        assert invariant_dimension(2, 1, s) == comb(s + 2, 2)
    # pairs of 2x2 matrices: binomial(s + 5, 5)
    for s in range(4):
        assert invariant_dimension(2, 2, s) == comb(s + 5, 5)
    # half-integral s gives 0 in even genus
    for r in (1, 2, 3):
        assert invariant_dimension(2, r, Fraction(1, 2)) == 0
    # one 3x3 matrix
    for s in range(3):
        assert invariant_dimension(3, 1, s) == comb(s + 3, 3)
    # triples and quadruples of 2x2 matrices
    assert invariant_dimension(2, 3, 1) == 10
    assert invariant_dimension(2, 3, 2) == 55
    assert invariant_dimension(2, 4, 1) == 15
    assert invariant_dimension(2, 4, 2) == 120


# ---------------------------------------------------------------------------
# 4. theta generators: count, linear independence, Lie-algebra invariance
# ---------------------------------------------------------------------------

def test_criterion_04_theta_generators():
    for g, r in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        mdegs = theta_multidegrees(g, r)
        assert len(mdegs) == comb(g + r, r)
        thetas = [theta(g, m) for m in mdegs]
        assert all(not f.is_zero() for f in thetas)
        # pairwise distinct multidegrees give linearly independent polynomials
        assert rank(_coeff_matrix(thetas)) == len(thetas)
        for f in thetas:
            assert sl_annihilates(f, g)


# ---------------------------------------------------------------------------
# 5. Jacobian ranks of theta families
# ---------------------------------------------------------------------------

def test_criterion_05_jacobian_ranks():
    q = (1 << 31) - 1
    rng = random.Random(505)

    # single-matrix family: rank g + 1 at three random points
    for g in (2, 3):
        polys = [theta(g, m) for m in theta_multidegrees(g, 1)]
        for _ in range(3):
            point = {v: rng.randrange(1, q) for f in polys
                     for v in f.variables()}
            assert jacobian_rank(polys, point, field=q) == g + 1

    # transcendence bases: multidegrees with at most one late nonzero slot
    def basis(g, r):
        out = []
        for m in theta_multidegrees(g, r):
            if sum(1 for c in m[2:] if c) <= 1:
                out.append(theta(g, m))
        return out

    fam22 = basis(2, 2)
    assert len(fam22) == 6
    fam23 = basis(2, 3)
    assert len(fam23) == 9
    for polys, expected in [(fam22, 6), (fam23, 9)]:
        for _ in range(3):
            point = {v: rng.randrange(1, q) for f in polys
                     for v in f.variables()}
            assert jacobian_rank(polys, point, field=q) == expected


# ---------------------------------------------------------------------------
# 6. rank-one substitution map and xi lifts
# ---------------------------------------------------------------------------

def test_criterion_06_jmath_and_xi():
    # determinants generate the kernel: each det T^(l) maps to 0
    for level in range(3):
        assert jmath(_det_rows(generic_sym_matrix(2, level))).is_zero()

    # the basic mixed theta maps onto the squared pair bracket
    th = theta(2, (1, 1))
    assert jmath(th) == pluecker_y(0, 1) * pluecker_y(0, 1)

    # xi lifts reproduce the expected closed forms
    assert xi_lift((0, 1)) == th
    assert xi_lift((0, 1, 2)) == upsilon(2, (0, 1, 2))
    assert jmath(xi_lift((0, 2, 1, 3))) == (
        MultiPoly.constant(-1) * pluecker_y(0, 2) * pluecker_y(2, 1)
        * pluecker_y(1, 3) * pluecker_y(3, 0))


# ---------------------------------------------------------------------------
# 7. cyclic relation and the quartic kernel relation
# ---------------------------------------------------------------------------

def test_criterion_07_relations():
    ok, witness = relation_check("cyclic", indices=(0, 1, 2, 3), split=3)
    assert ok
    assert witness["residual_terms"] == 0

    ok, witness = relation_check("plucker")
    assert ok
    assert witness["kernel_dimension"] == 1
    # the kernel element genuinely maps to 0 in the rank-one model
    combo = MultiPoly.constant(0)
    for coeff, factors in witness["combination"]:
        term = MultiPoly.constant(coeff)
        for pair in factors:
            term = term * xi_lift(pair)
        combo = combo + term
    assert jmath(combo).is_zero()


# ---------------------------------------------------------------------------
# 8. Hilbert series closed forms
# ---------------------------------------------------------------------------

def test_criterion_08_hilbert_series():
    # quadruples of 2x2 matrices: numerator 1 + 3x + 6x^2 + 10x^3
    vals = hilbert_closed(4, 4)
    assert vals[1] == 15 and vals[2] == 120
    num = [1, 3, 6, 10]
    # reconstruct the numerator from the series against (1 - x)^{-12}
    recon = []
    for j in range(4):
        c = vals[j] - sum(recon[i] * comb(j - i + 11, 11) for i in range(j))
        recon.append(c)
    assert recon == num

    # Grassmannian variant, r = 3: 1, 6, 20, ...
    gr = hilbert_closed(3, 3, variant="grassmannian")
    assert gr[:3] == [1, 6, 20]

    # brute force: 21 quadratic monomials in the six pair brackets satisfy
    # exactly one linear relation in the rank-one model
    ys = [pluecker_y(i, j) for i in range(4) for j in range(i + 1, 4)]
    quads = [ys[a] * ys[b] for a in range(6) for b in range(a, 6)]
    assert len(quads) == 21
    assert rank(_coeff_matrix(quads)) == 20


# ---------------------------------------------------------------------------
# 9. point counts on the residual fibres
# ---------------------------------------------------------------------------

def test_criterion_09_b0_counts():
    res = b0_count(2, 101, trials=50, seed=9)
    assert res["max_count"] == 2
    assert all(c in (1, 2) for c in res["counts"])

    for q in (101, 211):
        res = b0_count(3, q, trials=500, seed=9)
        assert res["max_count"] == 12
        assert all(c <= 12 for c in res["counts"])


# ---------------------------------------------------------------------------
# 10. conjugation invariants
# ---------------------------------------------------------------------------

def test_criterion_10_conjugation_invariants():
    rng = random.Random(1010)
    q = 1009

    # commuting pairs kill phi_q, generic pairs do not
    for trial in range(20):
        g = 2 + trial % 3
        d0 = [[rng.randrange(1, q) if i == j else 0 for j in range(g)]
              for i in range(g)]
        d1 = [[rng.randrange(1, q) if i == j else 0 for j in range(g)]
              for i in range(g)]
        for qq in range(1, g):
            assert phi_q(d0, d1, qq) % q == 0
        # a tridiagonal matrix against a full-cycle permutation is generic;
        # evaluate over a large field so chance vanishing is negligible
        qbig = (1 << 31) - 1
        cyc = [[1 if j == (i + 1) % g else 0 for j in range(g)]
               for i in range(g)]
        tri = [[0] * g for _ in range(g)]
        for i in range(g):
            tri[i][i] = rng.randrange(1, qbig)
            if i + 1 < g:
                tri[i][i + 1] = tri[i + 1][i] = 1
        vals = [phi_q(tri, cyc, qq) % qbig for qq in range(1, g)]
        assert any(v != 0 for v in vals)

    # five basic trace words have Jacobian rank 5 = 1 * 2^2 + 1
    X0 = generic_matrix(2, 0)
    X1 = generic_matrix(2, 1)
    pair_words = [
        charpoly_coeff(X0, 1), charpoly_coeff(X0, 2),
        charpoly_coeff(X1, 1), charpoly_coeff(X1, 2),
        charpoly_coeff(_mat_mul(X0, X1), 1),
    ]
    prime = (1 << 31) - 1
    for _ in range(3):
        point = {v: rng.randrange(1, prime) for f in pair_words
                 for v in f.variables()}
        assert jacobian_rank(pair_words, point, field=prime) == 5

    # pulled back through the adjugate-product map the rank is still 5
    Qs = [generic_sym_matrix(2, l, family="Q") for l in range(3)]
    W1 = _mat_mul(Qs[0], adjugate(Qs[1]))
    W2 = _mat_mul(Qs[1], adjugate(Qs[2]))
    pulled = [
        charpoly_coeff(W1, 1), charpoly_coeff(W1, 2),
        charpoly_coeff(W2, 1), charpoly_coeff(W2, 2),
        charpoly_coeff(_mat_mul(W1, W2), 1),
    ]
    vars_ = sorted({v for f in pulled for v in f.variables()})
    assert len(vars_) == 9
    for _ in range(3):
        point = {v: rng.randrange(1, prime) for v in vars_}
        assert jacobian_rank(pulled, point, field=prime) == 5


# ---------------------------------------------------------------------------
# 11. expansion engine
# ---------------------------------------------------------------------------

def test_criterion_11_expansion_engine():
    # linear parts: p^i (T^(i+1) - T^(i))
    for p in (2, 3):
        S = psi_phi_direct(1, 1, p, 2, 3)
        lin = homogeneous_component(S[0][0], 1)
        expected = (MultiPoly.constant(rational_reduce(1, p, 2))
                    * (Tvar(1, 1, 1) - Tvar(0, 1, 1)))
        assert lin == expected

    # both routes to the twisted series agree
    for a in (2, 3):
        assert psi_phi_direct(a, 1, 3, 2, 3) == _twist_times(
            psi_phi_direct(1, 1, 3, 2, 3), 3, a - 1)
    assert psi_phi_direct(2, 2, 2, 2, 3) == _twist_times(
        psi_phi_direct(1, 2, 2, 2, 3), 2, 1)

    # the angle expansions are pure twists
    for a in (2, 3):
        assert expansion_basic("f_angle", a, 1, 3, 2, 3) == \
            psi_phi_direct(a, 1, 3, 2, 3)

    # key composition identity on the grid
    for p in (2, 3, 5):
        for N in (2, 3):
            for D in (3, 4):
                f2 = expansion_basic("f_r", 2, 1, p, N, D)
                S = psi_phi_direct(1, 1, p, N, D)
                rhs = [[a + b * p for a, b in zip(r1, r2)]
                       for r1, r2 in zip(phi_twist(S, p), S)]
                assert f2 == rhs

    # scalar series oracle values
    val3 = psi_phi_direct(1, 1, 3, 2, 8)[0][0].evaluate(
        {Tvar(0, 1, 1).variables().pop(): 0,
         Tvar(1, 1, 1).variables().pop(): 1})
    assert str(val3) == "7 mod 3^2"
    val2 = psi_phi_direct(1, 1, 2, 3, 12)[0][0].evaluate(
        {Tvar(0, 1, 1).variables().pop(): 0,
         Tvar(1, 1, 1).variables().pop(): 1})
    assert str(val2) == "2 mod 2^3"

    # cyclic word comparison in the 2x2 case
    res = cyclic_word_check((0, 1, 2, 3), 1, 2, 3)
    assert res["status"] == "verified"
    assert res["equal"] and res["nonzero"]


def _twist_times(S, p, k):
    for _ in range(k):
        S = phi_twist(S, p)
    return S


# ---------------------------------------------------------------------------
# 12. initial-form identity for the difference substitution
# ---------------------------------------------------------------------------

def test_criterion_12_initial_form_identity():
    det2 = _det_rows(generic_sym_matrix(2, 0))
    th11 = theta(2, (1, 1))
    for F in (det2, th11):
        assert initial_form_identity_check(F, F.degree())
