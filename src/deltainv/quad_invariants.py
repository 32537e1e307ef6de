"""Invariants of tuples of symmetric matrices under congruence.

A tuple (T^(0), ..., T^(r)) of symmetric g x g matrices carries the action
M -> L M L^t of SL_g.  This module computes graded dimensions of the
invariant ring, the determinant-coefficient generators (theta), the moment
determinants (upsilon), the rank-one substitution map and its lifts (xi),
the known relations between them, and point counts on the fibres of the
separating invariants.  Every graded dimension and Hilbert coefficient is one
Weyl-group sum over a monomial weight count.  A g = 3 fibre count is read off
the roots of a cubic resolvent in w = z^2: with x^2 = X(w) and y^2 = Y(w),
the points with z != 0 lie over the roots of (w + R3)^2 - w X(w) Y(w), found
by a gcd with w^q - w and Cantor-Zassenhaus splitting in O(log q) operations,
and a count is at most 3 roots x 2 square roots x 2 sign choices = 12.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from math import comb, factorial, log, prod

from .exact_arith import require_prime
from .exact_linalg import ExactMatrix, kernel_basis
from .multipoly import (
    MultiPoly,
    SizeTooLarge,
    VarId,
    _det_rows,
    _mat_mul,
    _order,
    substitute,
    uvar,
    vvar,
)


class BadLevels(ValueError):
    """Level tuple with repeats or of the wrong length."""


# products in the Leibniz sum of one theta, g! * multinomial(g; mdeg)
THETA_BUDGET = 10 ** 6
# steps of the weight-count DP behind one dimension, estimated as
# g (2s + g)^g (remaining weights times counts per weight): about 10 s at
# the budget.  At g = 2, where all counts but the first are forced, it
# overcounts and refuses s >= 5000.
DIMS_BUDGET = 2 * 10 ** 8


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------

def congruence_act(L, mats):
    """Apply M -> L M L^t to each matrix in the tuple."""
    _order(L, *mats)
    Lt = list(zip(*L))
    return [_mat_mul(_mat_mul(L, M), Lt) for M in mats]


def _entry_derivative_images(v: VarId, a: int, b: int):
    """Images of the entry T_{ij} under the elementary generator E_{ab}.

    The infinitesimal action is T -> E T + T E^t, so the entry (i, j) moves
    by [i == a] T_{bj} + [j == a] T_{ib}.
    """
    out = []
    if v.i == a:
        out.append(VarId(v.family, v.level, min(b, v.j), max(b, v.j)))
    if v.j == a:
        out.append(VarId(v.family, v.level, min(v.i, b), max(v.i, b)))
    return out


def _apply_derivation(f: MultiPoly, a: int, b: int) -> MultiPoly:
    total = MultiPoly.constant(0)
    for v in f.variables():
        images = _entry_derivative_images(v, a, b)
        for w in images:
            total = total + f.derivative(v) * MultiPoly.var(w)
    return total


def sl_annihilates(f: MultiPoly, g: int) -> bool:
    """True when every elementary trace-free derivation kills f."""
    for a in range(1, g + 1):
        for b in range(1, g + 1):
            if a != b and _apply_derivation(f, a, b):
                return False
    return True


# ---------------------------------------------------------------------------
# graded dimensions
# ---------------------------------------------------------------------------

def _signed_permutations(n: int):
    """Each permutation of range(n) with its sign, in lexicographic order."""
    for w in itertools.permutations(range(n)):
        yield (-1) ** sum(w[a] > w[b]
                          for a, b in itertools.combinations(range(n), 2)), w


def _weyl_sum(g: int, lam: int, count) -> int:
    """Multiplicity of det^lam in the GL_g character with weight counts
    ``count``: the Racah-Speiser sum over S_g of sgn(w) count(lambda + rho -
    w rho), with lambda = (lam, ..., lam) and rho = (g-1, ..., 0)."""
    return sum(sign * count(tuple(lam + w[a] - a for a in range(g)))
               for sign, w in _signed_permutations(g))


def invariant_dimension(g: int, r: int, s) -> int:
    """Dimension of the invariants of degree g*s.

    They are the copies of det^(2s) in the GL_g character of the polynomial
    ring: :func:`_weyl_sum` over the number of monomials in the entries
    ``T^(l)_ij`` (index weight e_i + e_j) of each total index weight.
    """
    for name, value, low in (("g", g, 1), ("r", r, 0), ("s", s, 0)):
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
    s = Fraction(s)
    if (g * s).denominator != 1:
        raise ValueError(f"total degree {g * s} is not an integer")
    if (2 * s).denominator != 1:
        return 0
    lam = int(2 * s)
    if log(g) + g * log(lam + g) > log(DIMS_BUDGET):
        raise SizeTooLarge(f"the dimension at g = {g}, s = {s} needs about "
                           f"g (2s + g)^g DP steps, over the budget "
                           f"{DIMS_BUDGET}")
    pairs = [(i, j) for i in range(g) for j in range(i, g)]

    @functools.cache
    def monomials(k, rem):
        """Monomials in the pairs from k on of index weight rem."""
        if k == len(pairs):
            return 1
        i, j = pairs[k]
        if j < g - 1:
            counts = range(min(rem[i], rem[j]) // (1 + (i == j)) + 1)
        else:
            # no later pair holds index i, so n is forced; rem[i] is even on
            # the diagonal, as every pair takes an even share of the total 2gs.
            # n <= rem[j] only prunes: the diagonal's n >= 0 would catch it
            n = rem[i] // (1 + (i == j))
            counts = [n] if 0 <= n <= rem[j] else []
        total = 0
        for n in counts:
            left = list(rem)
            left[i] -= n
            left[j] -= n
            # n factors of one pair spread over the r + 1 levels
            total += comb(n + r, r) * monomials(k + 1, tuple(left))
        return total

    return _weyl_sum(g, lam, functools.partial(monomials, 0))


# ---------------------------------------------------------------------------
# theta and upsilon generators
# ---------------------------------------------------------------------------

def theta_multidegrees(g: int, r: int):
    """All (r+1)-part multidegrees of total degree g, lexicographic."""
    out = []
    for combo in itertools.combinations_with_replacement(range(r + 1), g):
        m = [0] * (r + 1)
        for c in combo:
            m[c] += 1
        out.append(tuple(m))
    return sorted(out, reverse=True)


def theta(g: int, mdeg) -> MultiPoly:
    """Coefficient of prod y_l^(m_l) in det(sum_l y_l T^(l)).

    The Leibniz sum sum_sigma sgn(sigma) sum_f prod_i T^(f(i))_{i,sigma(i)}
    over sigma in S_g and the distinct assignments f of levels to rows that
    use level l exactly m_l times.  Its g! * multinomial(g; mdeg) products
    are counted first and refused above ``THETA_BUDGET``.
    """
    mdeg = tuple(mdeg)
    if g < 1:
        raise ValueError(f"matrix size must be at least 1, got {g}")
    if any(m < 0 for m in mdeg):
        raise ValueError(f"multidegree parts must be non-negative, got {mdeg}")
    if sum(mdeg) != g:
        raise ValueError("multidegree must sum to the matrix size")
    work = factorial(g) ** 2 // prod(factorial(m) for m in mdeg)
    if work > THETA_BUDGET:
        raise SizeTooLarge(f"theta of size {g} and multidegree {mdeg} needs "
                           f"{work} products, over the budget {THETA_BUDGET}")
    pairs = [(i, j) for i in range(g) for j in range(i, g)]
    npairs = len(pairs)
    pair_of = {(i, j): k for k, (i, j) in enumerate(pairs)}
    # variable k is T^(k // npairs) at entry pairs[k % npairs], so sorted
    # indices are sorted VarIds
    assignments = set(itertools.permutations(
        [l for l, m in enumerate(mdeg) for _ in range(m)]))
    terms = {}
    for sign, sigma in _signed_permutations(g):
        # choices[i][l] is the variable T^(l) at entry (i, sigma(i))
        choices = [[l * npairs + pair_of[min(i, s), max(i, s)]
                    for l in range(len(mdeg))] for i, s in enumerate(sigma)]
        for f in assignments:
            key = tuple(sorted(map(list.__getitem__, choices, f)))
            terms[key] = terms.get(key, 0) + sign
    var = [VarId("T", l, i + 1, j + 1)
           for l in range(len(mdeg)) for i, j in pairs]
    return MultiPoly({tuple((var[k], key.count(k)) for k in dict.fromkeys(key)):
                      c for key, c in terms.items()})


def upsilon(g: int, levels) -> MultiPoly:
    """Determinant of the matrix of entry-columns at the given levels: its
    entries are distinct variables, so each of the n! permutations of its
    n = g(g+1)/2 rows gives its own monomial; n! above ``THETA_BUDGET`` is
    refused."""
    levels = tuple(levels)
    n = g * (g + 1) // 2
    if len(set(levels)) != len(levels):
        raise BadLevels(f"levels must be distinct, got {levels}")
    if len(levels) != n:
        raise BadLevels(f"need {n} levels for size {g}, got {len(levels)}")
    if factorial(n) > THETA_BUDGET:
        raise SizeTooLarge(f"upsilon of size {g} needs {factorial(n)} "
                           f"products, over the budget {THETA_BUDGET}")
    var = [[VarId("T", q, i, j) for q in levels]
           for i in range(1, g + 1) for j in range(i, g + 1)]
    return MultiPoly({tuple(sorted((var[k][c], 1) for k, c in enumerate(w))):
                      sign for sign, w in _signed_permutations(n)})


# ---------------------------------------------------------------------------
# the rank-one substitution map and xi lifts (g = 2)
# ---------------------------------------------------------------------------

def jmath(f: MultiPoly) -> MultiPoly:
    """Substitute the rank-one parametrization T^(l) = (u_l, v_l)^t (u_l, v_l)."""
    sigma = {}
    for v in f.variables():
        if v.family != "T" or v.j > 2:
            raise ValueError("the substitution map is defined for size 2")
        if (v.i, v.j) == (1, 1):
            sigma[v] = uvar(v.level) * uvar(v.level)
        elif (v.i, v.j) == (2, 2):
            sigma[v] = vvar(v.level) * vvar(v.level)
        else:
            sigma[v] = uvar(v.level) * vvar(v.level)
    return substitute(f, sigma)


def pluecker_y(i: int, j: int) -> MultiPoly:
    return uvar(i) * vvar(j) - vvar(i) * uvar(j)


def xi_target(cycle) -> MultiPoly:
    """Minus the circular product of pair brackets along the cycle."""
    cycle = tuple(cycle)
    out = MultiPoly.constant(-1)
    for k, q in enumerate(cycle):
        out = out * pluecker_y(q, cycle[(k + 1) % len(cycle)])
    return out


def xi_lift(cycle) -> MultiPoly:
    """The unique multilinear preimage of ``xi_target(cycle)``.

    Each level lies in exactly two brackets of the cycle, so every term of
    the target has degree 2 in (u_l, v_l) at each level.  The rank-one map
    sends T_11, T_12, T_22 to u^2, uv, v^2, so the preimage rewrites each
    term level by level and keeps its coefficient.
    """
    cycle = tuple(cycle)
    if len(set(cycle)) != len(cycle):
        raise BadLevels(f"cycle entries must be distinct, got {cycle}")
    entry_of = {2: (1, 1), 1: (1, 2), 0: (2, 2)}      # u-degree -> (i, j)
    out = {}
    for key, coeff in xi_target(cycle).terms.items():
        u_deg = {v.level: e for v, e in key if v.family == "u"}
        out[tuple((VarId("T", level, *entry_of[u_deg.get(level, 0)]), 1)
                  for level in sorted(cycle))] = coeff
    return MultiPoly(out)


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

def _pluecker_products(indices):
    """The six quartic pair-products on four levels, as pair lists."""
    i0, i1, i2, i3 = indices
    return [
        [(i0, i1), (i0, i1), (i2, i3), (i2, i3)],
        [(i0, i2), (i0, i2), (i1, i3), (i1, i3)],
        [(i0, i3), (i0, i3), (i1, i2), (i1, i2)],
        [(i0, i1), (i1, i2), (i2, i3), (i0, i3)],
        [(i0, i1), (i1, i3), (i2, i3), (i0, i2)],
        [(i0, i2), (i1, i2), (i1, i3), (i0, i3)],
    ]


def relation_check(kind: str, indices=(0, 1, 2, 3), split=None):
    """Verify one of the known relations; returns (holds, witness)."""
    indices = tuple(indices)
    if len(set(indices)) != len(indices):
        raise ValueError(f"indices must be distinct, got {indices}")
    if kind == "cyclic":
        if split is None or not 2 <= split <= len(indices) - 1:
            raise ValueError("cyclic relation needs a split position")
        s = split
        head, inner, tail = indices[:1], indices[1:s], indices[s:]
        lhs = xi_lift(indices) + xi_lift(head + tail) * xi_lift(inner)
        rhs = xi_lift(head + inner[::-1] + tail) * ((-1) ** s)
        residual = lhs - rhs
        return not residual, {"residual_terms": len(residual.terms)}
    if kind == "plucker":
        if split is not None:
            raise ValueError(f"split must be omitted for the Plucker "
                             f"relation, got {split}")
        if len(indices) != 4:
            raise ValueError(f"the Plucker relation needs exactly 4 distinct "
                             f"indices, got {len(indices)}")
        products = _pluecker_products(indices)
        images = [prod(map(xi_target, pairs), start=MultiPoly.constant(1))
                  for pairs in products]
        keys = sorted({k for f in images for k in f.terms})
        kern = kernel_basis(ExactMatrix(
            [[f.terms.get(k, 0) for f in images] for k in keys]))
        witness = {"kernel_dimension": len(kern)}
        holds = len(kern) == 1
        if holds:
            witness["combination"] = list(zip(kern[0], products))
        return holds, witness
    raise ValueError(f"unknown relation kind: {kind}")


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------

def hilbert_closed(r: int, terms: int, variant: str = "even"):
    """First coefficients of a g = 2 Hilbert series, from the weight count:
    the invariants of degree 2s of r + 1 symmetric matrices (``even``) or of
    their rank-one images, r + 1 vectors (u_l, v_l) with C(a + r, r)
    C(b + r, r) monomials of weight (a, b) (``grassmannian``)."""
    if terms < 0:
        raise ValueError(f"terms must be at least 0, got {terms}")
    if r < 0:
        raise ValueError(f"r must be at least 0, got {r}")
    if variant == "even":
        return [invariant_dimension(2, r, s) for s in range(terms)]
    if variant == "grassmannian":
        def vectors(mu):
            return prod(comb(m + r, r) for m in mu) if min(mu) >= 0 else 0
        return [_weyl_sum(2, s, vectors) for s in range(terms)]
    raise ValueError(f"unknown variant: {variant}")


# ---------------------------------------------------------------------------
# discriminants and the separating invariant
# ---------------------------------------------------------------------------

def _discriminant(cs):
    """Discriminant of the binary form F = sum_j c_j x^(g-j) y^j, over any
    commutative ring whose values scale by a Fraction.

    By Euler's identity g F = x F_x + y F_y it is (-1)^(g(g-1)/2)
    Res(F_x, F_y) / g^(g-2), with the resultant the determinant of the
    (2g-2)-square Sylvester matrix of the two partials.  No leading
    coefficient is divided out, so c_0 = 0 needs no special case.
    """
    g = len(cs) - 1
    if g < 1:
        raise ValueError(f"a binary form needs degree at least 1, got {g}")
    fx = [c * (g - j) for j, c in enumerate(cs[:-1])]
    fy = [c * j for j, c in enumerate(cs) if j]
    zero = cs[0] * 0
    rows = [[zero] * k + f + [zero] * (g - 2 - k)
            for f in (fx, fy) for k in range(g - 1)]
    # a linear form has no partials to eliminate: its discriminant is 1
    res = _det_rows(rows) if rows else cs[0] ** 0
    return res * Fraction((-1) ** (g * (g - 1) // 2), g ** max(g - 2, 0))


def binary_discriminant(coeffs):
    """Discriminant of the binary form with the given coefficient list,
    leading coefficient first; degree at most 4 (a 6 x 6 determinant)."""
    disc = _discriminant(list(coeffs))
    return int(disc) if disc.denominator == 1 else disc


def tact_invariant(g: int) -> MultiPoly:
    """Discriminant of det(y0 T + y1 T'), whose coefficients are thetas."""
    return _discriminant([theta(g, (g - j, j)) for j in range(g + 1)])


def separating_F0(g: int, p: int) -> MultiPoly:
    """The invariant whose non-vanishing separates generic pairs."""
    f = theta(g, (g, 0)) * tact_invariant(g)
    if p == 2:
        f = f * theta(g, (g - 1, 1))
    return f


# ---------------------------------------------------------------------------
# point counts
# ---------------------------------------------------------------------------

def _chi(a: int, q: int) -> int:
    """The Legendre symbol of a mod the odd prime q, by Euler's criterion."""
    t = pow(a, (q - 1) // 2, q)
    return -1 if t == q - 1 else t


def _sqrt_mod(a: int, q: int) -> int:
    """A square root of the square a mod the odd prime q (Tonelli-Shanks)."""
    s, m = 0, q - 1
    while m % 2 == 0:
        s, m = s + 1, m // 2
    z = 2
    while _chi(z, q) != -1:
        z += 1
    c, x, t = pow(z, m, q), pow(a, (m + 1) // 2, q), pow(a, m, q)
    while t not in (0, 1):
        i, t2 = 0, t
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % q
        b = pow(c, 1 << (s - i - 1), q)
        s, c, x, t = i, b * b % q, x * b % q, t * b * b % q
    return x


# Polynomials over F_q are coefficient lists, constant term first, with no
# trailing zeros; the divisors below are monic.

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _monic(a, q):
    inv = pow(a[-1], -1, q)
    return [c * inv % q for c in a]


def _pdivmod(a, m, q):
    """Quotient and remainder of a by the monic polynomial m."""
    rem, d = a[:], len(m) - 1
    quot = [0] * max(len(a) - d, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = rem[k + d]
        if c:
            for i in range(d + 1):
                rem[k + i] = (rem[k + i] - c * m[i]) % q
    return quot, _trim(rem[:d])


def _pgcd(a, b, q):
    """The monic gcd of a and b, a nonzero."""
    while b:
        b = _monic(b, q)
        a, b = b, _pdivmod(a, b, q)[1]
    return _monic(a, q)


def _powmod3(base, e, f, q):
    """base**e mod the monic cubic f, by square-and-multiply on residue
    triples (c0, c1, c2), reducing with w^3 = -(f0 + f1 w + f2 w^2)."""
    f0, f1, f2 = f[:3]

    def mul(a, b):
        a0, a1, a2 = a
        b0, b1, b2 = b
        p4 = a2 * b2 % q
        p3 = (a1 * b2 + a2 * b1 - p4 * f2) % q
        return ((a0 * b0 - p3 * f0) % q,
                (a0 * b1 + a1 * b0 - p4 * f0 - p3 * f1) % q,
                (a0 * b2 + a1 * b1 + a2 * b0 - p4 * f1 - p3 * f2) % q)

    out = (1, 0, 0)
    while e:
        if e & 1:
            out = mul(out, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return out


def _minus(residue, c, q):
    """The residue triple minus the triple c, as a trimmed polynomial."""
    return _trim([(x - y) % q for x, y in zip(residue, c)])


def _split_roots(g, q):
    """The roots of g, monic of degree <= 3 with distinct roots all in F_q."""
    if len(g) == 2:
        return [-g[0] % q]
    if len(g) == 3:
        s, half = _sqrt_mod((g[1] * g[1] - 4 * g[0]) % q, q), (q + 1) // 2
        return [(-g[1] + s) * half % q, (-g[1] - s) * half % q]
    if len(g) == 4:
        # Cantor-Zassenhaus: (w + a)^((q-1)/2) - 1 vanishes exactly at the
        # roots r with r + a a nonzero square; some shift a < q separates two
        # roots, since no proper subset of F_q is invariant under translation
        for a in range(q):
            h = _pgcd(g, _minus(_powmod3((a, 1, 0), (q - 1) // 2, g, q),
                                (1, 0, 0), q), q)
            if 1 < len(h) < 4:
                return _split_roots(h, q) + _split_roots(_pdivmod(g, h, q)[0], q)
    return []


def _distinct_roots(f, q):
    """The distinct roots in F_q of the cubic f, q an odd prime."""
    f = _monic([c % q for c in f], q)
    # gcd(w^q - w, f) is the product of (w - r) over the distinct roots r
    wq = _powmod3((0, 1, 0), q, f, q)
    return _split_roots(_pgcd(f, _minus(wq, (0, 1, 0), q), q), q)


def _count_g3(q, alpha, beta, gamma, nu):
    """Solutions (x, y, z) in F_q^3 of x^2 + y^2 + z^2 = R1, y^2 + nu z^2 = R2
    and x y z - z^2 = R3, from the roots of the cubic resolvent in w = z^2."""
    r1 = (alpha * alpha + beta * beta + gamma * gamma) % q
    r2 = (beta * beta + nu * gamma * gamma) % q
    r3 = (alpha * beta * gamma - gamma * gamma) % q
    # x^2 = X(w) = x0 + x1 w and y^2 = Y(w) = y0 + y1 w
    x0, x1, y0, y1 = (r1 - r2) % q, nu - 1, r2, -nu
    # squaring x y z = w + R3 gives f(w) = (w + R3)^2 - w X(w) Y(w) = 0
    f = [r3 * r3, 2 * r3 - x0 * y0, 1 - x0 * y1 - x1 * y0, -x1 * y1]
    count = (1 + _chi(x0, q)) * (1 + _chi(y0, q)) if r3 == 0 else 0
    for w in _distinct_roots(f, q):
        if w:
            # x y = (w + R3)/z fixes y from x, unless it is 0
            n = 1 + _chi(x0 + x1 * w, q)
            if (w + r3) % q == 0:
                n *= 1 + _chi(y0 + y1 * w, q)
            count += (1 + _chi(w, q)) * n
    return count


def b0_count(g: int, q: int, trials: int = 100, seed=None, draw=None):
    """Solution counts on random fibres of the separating invariants.

    At g = 2 a fibre is x^2 = d, with 1 point when d = 0 or q = 2 and 2
    otherwise.  At g = 3 it is the system solved by `_count_g3`: with
    w = z^2, the points with z = 0 exist only when R3 = 0, and the others lie
    over the nonzero roots w of a cubic resolvent f, found by a gcd with
    w^q - w and Cantor-Zassenhaus splitting, so a trial costs O(log q)
    operations.  A count is at most 3 roots x 2 square roots z x 2 sign
    choices of x = 12.  `draw` fixes the fibre of every trial: an int whose
    square is d at g = 2, or (alpha, beta, gamma, nu) with nu not 0 or 1
    mod q at g = 3, where f would not be a cubic.
    """
    if g not in (2, 3):
        raise ValueError("point counts implemented for sizes 2 and 3")
    require_prime(q, "q")
    if g == 3 and q < 3:
        raise ValueError(f"size 3 needs q >= 3, got {q}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if g == 3 and draw is not None and draw[3] % q in (0, 1):
        raise ValueError(f"nu must not be 0 or 1 mod q, got {draw[3]}")
    rng = random.Random(seed)
    counts = []
    for _ in range(trials):
        if g == 2:
            d = (draw if draw is not None else rng.randrange(q)) ** 2 % q
            counts.append(1 if d == 0 or q == 2 else 2)
        else:
            if draw is not None:
                alpha, beta, gamma, nu = draw
            else:
                alpha = rng.randrange(1, q)
                beta = rng.randrange(1, q)
                gamma = rng.randrange(1, q)
                nu = rng.randrange(2, q)
            counts.append(_count_g3(q, alpha, beta, gamma, nu))
    return {"counts": counts, "max_count": max(counts)}
