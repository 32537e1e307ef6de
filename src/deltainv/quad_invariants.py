"""Invariants of tuples of symmetric matrices under congruence.

A tuple (T^(0), ..., T^(r)) of symmetric g x g matrices carries the action
M -> L M L^t of SL_g.  This module computes graded dimensions of the
invariant ring, the determinant-coefficient generators (theta), the moment
determinants (upsilon), the rank-one substitution map and its lifts (xi),
the known relations between them, and point counts on the fibres of the
separating invariants.  Every graded dimension and Hilbert coefficient is one
Weyl-group sum over a monomial weight count.  A g = 3 fibre count is read off
the roots of a cubic resolvent in w = z^2: with x^2 = X(w) and y^2 = Y(w),
the points with z != 0 lie over the roots of (w + R3)^2 - w X(w) Y(w).  The
drawn point gives one root, gamma^2, and the quadratic cofactor the others, so
a trial costs a few modular powers and a count is at most 3 roots x 2 square
roots x 2 sign choices = 12.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from math import comb, factorial, log, prod

from .exact_arith import require_at_least, require_prime
from .exact_linalg import ExactMatrix, kernel_basis
from .multipoly import (
    MultiPoly,
    SizeTooLarge,
    VarId,
    _Packing,
    _det_rows,
    _mat_mul,
    _order,
    require_within_budget,
    substitute,
    uvar,
    vvar,
)


# term products of one theta, upsilon, xi (n * 2^n for n levels, n = 15 the
# largest accepted) or conj_invariants.y_invariant
THETA_BUDGET = 10 ** 6
# steps of the weight-count DP behind one dimension, estimated as
# g (2s + g)^g (remaining weights times counts per weight): about 10 s at
# the budget.  At g = 2, where all counts but the first are forced, it
# overcounts and refuses s >= 5000.
DIMS_BUDGET = 2 * 10 ** 8
# weight counts of one Hilbert series: 7-10 s at the budget when r = 4
HILBERT_BUDGET = 2 * 10 ** 6
# b0 trials, times the bit length of q at g = 3: 0.7-2.4 s at the budget
B0_BUDGET = 2 * 10 ** 6


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
        for w in _entry_derivative_images(v, a, b):
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
        require_at_least(value, low, name)
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
    # C(n + r, r): n factors of one pair spread over the r + 1 levels, for
    # every n up to the largest weight lam + g - 1
    binom = list(itertools.accumulate(
        range(1, lam + g), lambda c, n: c * (n + r) // n, initial=1))

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
            total += binom[n] * monomials(k + 1, tuple(left))
        return total

    return _weyl_sum(g, lam, functools.partial(monomials, 0))


# ---------------------------------------------------------------------------
# theta and upsilon generators
# ---------------------------------------------------------------------------

def _distinct_levels(levels, name: str) -> tuple:
    """``levels`` as a tuple, checked distinct and non-negative."""
    levels = tuple(levels)
    if len(set(levels)) != len(levels):
        raise ValueError(f"{name} must be distinct, got {levels}")
    require_at_least(min(levels, default=0), 0, name)
    return levels


def theta_multidegrees(g: int, r: int):
    """All (r+1)-part multidegrees of total degree g, lexicographic."""
    out = []
    for combo in itertools.combinations_with_replacement(range(r + 1), g):
        m = [0] * (r + 1)
        for c in combo:
            m[c] += 1
        out.append(tuple(m))
    return sorted(out, reverse=True)


def _leibniz(entries, counts) -> MultiPoly:
    """The sum over permutations sigma of the n rows of sgn(sigma) times one
    variable from each entry ``entries[i][sigma(i)]``, a list of ``(variable,
    part)`` pairs, with exactly ``counts[l]`` factors from part l.

    Rows go in one at a time, and the partial products are summed per state
    (columns used, factors left per part) as packed keys of one ``_Packing``
    with bound n: a factor is one integer addition, and row i in column c
    takes the parity of the used columns above c as its sign.  The sum is
    unpacked once.
    """
    fields = _Packing({v for row in entries for cell in row for v, _ in cell},
                      len(entries))
    # the packed key of each variable alone, the variable riding as its
    # coefficient
    unit = {v: k for k, v in fields.pack({((v, 1),): v
                                          for v in fields.variables})}
    states = {(0, tuple(counts)): {0: 1}}
    for row in entries:
        after = {}
        for (used, left), terms in states.items():
            for c, cell in enumerate(row):
                if used >> c & 1:
                    continue
                sign = -1 if (used >> c).bit_count() & 1 else 1
                for v, part in cell:
                    if not left[part]:
                        continue
                    out = after.setdefault(
                        (used | 1 << c,
                         left[:part] + (left[part] - 1,) + left[part + 1:]),
                        {})
                    u = unit[v]
                    for k, x in terms.items():
                        k += u
                        out[k] = out.get(k, 0) + sign * x
        states = after
    return fields.unpack([kc for terms in states.values()
                          for kc in terms.items()], None)


def theta(g: int, mdeg) -> MultiPoly:
    """Coefficient of prod y_l^(m_l) in det(sum_l y_l T^(l)).

    The entry (i, j) of sum_l y_l T^(l) holds the variables T^(l)_ij of the
    levels with m_l > 0, each tagged with its level, and :func:`_leibniz`
    expands the determinant with level l giving m_l factors.  The
    g! * multinomial(g; mdeg) Leibniz products are counted first and
    refused above ``THETA_BUDGET``.
    """
    mdeg = tuple(mdeg)
    require_at_least(g, 1, "g")
    require_at_least(min(mdeg, default=0), 0, "multidegree parts")
    if sum(mdeg) != g:
        raise ValueError("multidegree must sum to the matrix size")
    require_within_budget(f"theta of size {g} and multidegree {mdeg}",
                          factorial(g) ** 2 // prod(map(factorial, mdeg)),
                          "products", THETA_BUDGET)
    return _leibniz([[[(VarId("T", l, min(i, j), max(i, j)), l)
                       for l, m in enumerate(mdeg) if m]
                      for j in range(1, g + 1)] for i in range(1, g + 1)],
                    mdeg)


def upsilon(g: int, levels) -> MultiPoly:
    """Determinant of the matrix of entry-columns at the given levels: row
    (i, j) holds T^(q)_ij in the column of level q.  :func:`_leibniz`
    expands it with one part of n = g(g+1)/2 factors; its entries are
    distinct variables, so each of the n! permutations gives its own
    monomial, and n! above ``THETA_BUDGET`` is refused."""
    levels = _distinct_levels(levels, "levels")
    n = g * (g + 1) // 2
    if len(levels) != n:
        raise ValueError(f"need {n} levels for size {g}, got {len(levels)}")
    require_within_budget(f"upsilon of size {g}", factorial(n), "products",
                          THETA_BUDGET)
    return _leibniz([[[(VarId("T", q, i, j), 0)] for q in levels]
                     for i in range(1, g + 1) for j in range(i, g + 1)], (n,))


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


def _require_xi_budget(n: int):
    """Refuse a cycle of n levels: its n two-term brackets give up to 2^n
    terms, n * 2^n term products, counted against ``THETA_BUDGET``."""
    require_within_budget(f"xi of {n} levels", n * 2 ** n, "term products",
                          THETA_BUDGET)


def xi_target(cycle) -> MultiPoly:
    """Minus the circular product of pair brackets along the cycle, the
    product refused first by :func:`_require_xi_budget`."""
    cycle = tuple(cycle)
    n = len(cycle)
    _require_xi_budget(n)
    out = MultiPoly.constant(-1)
    for k, q in enumerate(cycle):
        out = out * pluecker_y(q, cycle[(k + 1) % n])
    return out


def xi_lift(cycle) -> MultiPoly:
    """The unique multilinear preimage of ``xi_target(cycle)``.

    Bracket k of the cycle q_0, ..., q_(n-1) is u_(q_k) v_(q_(k+1)) - v_(q_k)
    u_(q_(k+1)); let s_k = 1 when a term takes its second product.  Level q_k
    lies in brackets k and k - 1, so the term has u-degree (1 - s_k) +
    s_(k-1) and v-degree 2 minus that at q_k, and coefficient -(-1)^|s|.
    The rank-one map sends T_11, T_12, T_22 to u^2, uv, v^2, so each of the
    2^n sign choices gives one T-monomial, with one entry per level, and the
    preimage sums them without expanding the target.  The cycle is refused
    first by :func:`_require_xi_budget`.
    """
    cycle = _distinct_levels(cycle, "cycle entries")
    _require_xi_budget(len(cycle))
    # each level's entry (T_22, T_12, T_11) by its u-degree 0, 1, 2
    entries = [[(VarId("T", q, *ij), 1) for ij in ((2, 2), (1, 2), (1, 1))]
               for q in cycle]
    order = sorted(range(len(cycle)), key=cycle.__getitem__)
    out = {}
    for s in itertools.product((0, 1), repeat=len(cycle)):
        key = tuple(entries[k][1 - s[k] + s[k - 1]] for k in order)
        c = 1 if sum(s) & 1 else -1
        out[key] = out.get(key, 0) + c
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
    indices = _distinct_levels(indices, "indices")
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
    require_at_least(terms, 0, "terms")
    require_at_least(r, 0, "r")
    if variant not in ("even", "grassmannian"):
        raise ValueError(f"unknown variant: {variant}")
    # two weight counts per degree s, an even one over s + 1 exponents with
    # binomials up to C(2 terms + r, r), so weighed by 1 + its bits // 1000:
    # 1 for r <= 150, and for r up to 10^18 the longest series admitted runs
    # about as long as at r = 4.  C is built once the bare count is in budget
    work = terms * (terms + 1 if variant == "even" else 2)
    if variant == "even" and work <= HILBERT_BUDGET:
        work *= 1 + comb(2 * terms + r, r).bit_length() // 1000
    require_within_budget(f"the {variant} Hilbert series to {terms} terms",
                          work, "weight counts", HILBERT_BUDGET)
    if variant == "even":
        return [invariant_dimension(2, r, s) for s in range(terms)]

    def vectors(mu):
        return prod(comb(m + r, r) for m in mu) if min(mu) >= 0 else 0
    return [_weyl_sum(2, s, vectors) for s in range(terms)]


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
    require_at_least(g, 1, "degree")
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


def _sqrt_mod(a: int, q: int, c) -> int:
    """A square root of the square a mod the odd prime q; a may be 0, whose
    root is 0.  When q = 3 (mod 4) it is a^((q+1)/4); otherwise it is found
    by Tonelli-Shanks from c = `_two_power_unit(q)`."""
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    s, m = 0, q - 1
    while m % 2 == 0:
        s, m = s + 1, m // 2
    x, t = pow(a, (m + 1) // 2, q), pow(a, m, q)
    while t not in (0, 1):
        i, t2 = 0, t
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % q
        b = pow(c, 1 << (s - i - 1), q)
        s, c, x, t = i, b * b % q, x * b % q, t * b * b % q
    return x


def _two_power_unit(q: int):
    """z^m for the least quadratic non-residue z mod the odd prime q, with
    q - 1 = 2^s m and m odd: the element of order 2^s that Tonelli-Shanks
    starts from.  ``None`` when q = 3 (mod 4), whose square roots need none."""
    if q % 4 == 3:
        return None
    m = q - 1
    while m % 2 == 0:
        m //= 2
    z = 2
    while _chi(z, q) != -1:
        z += 1
    return pow(z, m, q)


def _count_g3(q, alpha, beta, gamma, nu, unit):
    """Solutions (x, y, z) in F_q^3 of x^2 + y^2 + z^2 = R1, y^2 + nu z^2 = R2
    and x y z - z^2 = R3, from the roots of the cubic resolvent in w = z^2.

    The drawn point (alpha, beta, gamma) lies on the fibre, so w0 = gamma^2
    is a root, and the other two are those of the quadratic left after
    dividing by w - w0; ``unit`` is `_two_power_unit(q)`."""
    r1 = (alpha * alpha + beta * beta + gamma * gamma) % q
    r2 = (beta * beta + nu * gamma * gamma) % q
    r3 = (alpha * beta * gamma - gamma * gamma) % q
    # x^2 = X(w) = x0 + x1 w and y^2 = Y(w) = y0 + y1 w
    x0, x1, y0, y1 = (r1 - r2) % q, nu - 1, r2, -nu
    count = (1 + _chi(x0, q)) * (1 + _chi(y0, q)) if r3 == 0 else 0
    # squaring x y z = w + R3 gives f(w) = (w + R3)^2 - w X(w) Y(w) = 0;
    # X(w0) = alpha^2, Y(w0) = beta^2 and w0 + R3 = alpha beta gamma make
    # f(w0) = 0, and synthetic division by w - w0 leaves a w^2 + b w + c,
    # with a = -x1 y1 = nu (nu - 1) != 0
    w0 = gamma * gamma % q
    a = -x1 * y1 % q
    b = (1 - x0 * y1 - x1 * y0 + a * w0) % q
    c = (2 * r3 - x0 * y0 + b * w0) % q
    disc = (b * b - 4 * a * c) % q
    # w0 is a nonzero square, X(w0) = alpha^2 != 0 and w0 + R3 != 0: the
    # points z = +-gamma, x = +-alpha, y = (w0 + R3)/(x z)
    count += 4
    if _chi(disc, q) == -1:
        return count
    s, inv = _sqrt_mod(disc, q, unit), pow(2 * a, -1, q)
    for w in {(-b + s) * inv % q, (-b - s) * inv % q} - {w0}:
        # a root w gives z only when it is a nonzero square, and then two
        if _chi(w, q) != 1:
            continue
        # x y = (w + R3)/z fixes y from x, unless it is 0
        n = 1 + _chi(x0 + x1 * w, q)
        if (w + r3) % q == 0:
            n *= 1 + _chi(y0 + y1 * w, q)
        count += 2 * n
    return count


def _count_g2(q, a):
    """Solutions x in F_q of x^2 = a^2: 1 when a = 0 or q = 2, else 2."""
    return 1 if a % q == 0 or q == 2 else 2


def b0_count(g: int, q: int, trials: int = 100, seed=None):
    """Solution counts on random fibres of the separating invariants.

    At g = 2 a fibre is x^2 = d, counted by `_count_g2`.  At g = 3 it is
    the system solved by `_count_g3`: with w = z^2, the points with z = 0
    exist only when R3 = 0, and the others lie over the roots w of a cubic
    resolvent f that are nonzero squares.  The drawn z^2 is one root, with
    4 points always, and the quadratic left after dividing it out has the
    others, so a trial costs a few Legendre symbols and at most one square
    root mod q; the non-residue power that Tonelli-Shanks needs when
    q = 1 (mod 4) is found once per run.  A count is at
    most 3 roots x 2 square roots z x 2 sign choices of x = 12.  A run over
    ``B0_BUDGET`` trial bits is refused first.
    """
    if g not in (2, 3):
        raise ValueError("point counts implemented for sizes 2 and 3")
    require_prime(q, "q")
    require_at_least(q, g, "q")     # size 3 needs an odd q
    require_at_least(trials, 1, "trials")
    require_within_budget(f"b0 of size {g} with {trials} trials",
                          trials * (q.bit_length() if g == 3 else 1),
                          "trial bits", B0_BUDGET)
    rng = random.Random(seed)
    if g == 2:
        counts = [_count_g2(q, rng.randrange(q)) for _ in range(trials)]
    else:
        unit = _two_power_unit(q)
        # nu = 0 or 1 would leave no cubic resolvent
        counts = [_count_g3(q, rng.randrange(1, q), rng.randrange(1, q),
                            rng.randrange(1, q), rng.randrange(2, q), unit)
                  for _ in range(trials)]
    return {"max_count": max(counts), "counts": counts}
