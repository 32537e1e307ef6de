"""The canonical p-derivation on polynomial rings and its grading.

Variables carry a level: ``z`` is level 0, ``z'`` level 1, and so on.  The
Frobenius lift sends a level-l variable to ``v**p + p * v_next``; the
p-derivation is ``delta(F) = (phi(F) - F**p) / p``, computed exactly: over
the integers for integer input, since phi(F) = F**p mod p, and over the
rationals otherwise.  Weights live in the polynomial ring Z[phi]; a
polynomial is graded-homogeneous when its expansion in Frobenius-iterate
coordinates has a single weight component.
"""

from __future__ import annotations

from fractions import Fraction

from .multipoly import MultiPoly, VarId, substitute


class Weight:
    """An element of Z[phi], stored as its coefficient list."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    def deg(self) -> int:
        return sum(self.coeffs)

    def ord(self) -> int:
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return 0

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def serialize(self) -> str:
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return Weight([x + y for x, y in zip(a, b)])

    def __mul__(self, other):
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return Weight(out)

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __le__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return all(x <= y for x, y in zip(a, b))

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __repr__(self):
        return f"Weight({self.coeffs})"


def _raise_level(vid: VarId) -> VarId:
    return VarId(vid.family, vid.level + 1, vid.i, vid.j)


def frobenius_lift(F: MultiPoly, p: int) -> MultiPoly:
    """Ring endomorphism with v -> v**p + p * v_next on every variable."""
    sigma = {v: MultiPoly.var(v) ** p + MultiPoly.var(_raise_level(v)) * p
             for v in F.variables()}
    return substitute(F, sigma)


def _divide_by_p(F: MultiPoly, p: int) -> MultiPoly:
    """F / p coefficientwise: an ``int`` divisible by p stays an ``int``,
    any other coefficient becomes a ``Fraction``."""
    return F.map_coeffs(lambda c: c // p if isinstance(c, int) and c % p == 0
                        else Fraction(c, p))


def canonical_delta(F: MultiPoly, p: int) -> MultiPoly:
    """The p-derivation ``(phi(F) - F**p) / p``: over Z for integer F, since
    phi(F) = F**p mod p, and over Q otherwise."""
    return _divide_by_p(frobenius_lift(F, p) - F ** p, p)


def delta_bracket(b1: MultiPoly, b2: MultiPoly, p: int) -> MultiPoly:
    """``(b1**p phi(b2) - b2**p phi(b1)) / p``, over Z for integer b1, b2."""
    num = (b1 ** p) * frobenius_lift(b2, p) - (b2 ** p) * frobenius_lift(b1, p)
    return _divide_by_p(num, p)


def phi_coordinate(i: int, j: int) -> MultiPoly:
    """The coordinate representing the j-th Frobenius iterate of z_i."""
    return MultiPoly.var(VarId("w", j, i, 0))


def _iterate_images(i: int, max_level: int, p: int):
    """Level variables expressed in Frobenius-iterate coordinates.

    Returns g[0..max_level] with g[j] the polynomial (over Q) in the
    coordinates w_{i,0..j} whose value is z_i^(j).
    """
    z0 = MultiPoly.var(VarId("z", 0, i, 0))
    gs = [phi_coordinate(i, 0)]
    W = z0
    for j in range(1, max_level + 1):
        W = frobenius_lift(W, p)
        # W = p^j z^(j) + R(z^(0..j-1))
        R = W - MultiPoly.var(VarId("z", j, i, 0)) * p ** j
        sigma = {VarId("z", l, i, 0): gs[l] for l in range(j)}
        Rw = substitute(R.map_coeffs(Fraction), sigma)
        gs.append((phi_coordinate(i, j) - Rw) * Fraction(1, p ** j))
    return gs


def _to_phi_coordinates(F: MultiPoly, p: int) -> MultiPoly:
    variables = F.variables()
    top = {}
    for v in variables:
        if v.family != "z":
            raise ValueError("expected level-coordinate variables")
        top[v.i] = max(top.get(v.i, 0), v.level)
    images = {i: _iterate_images(i, level, p) for i, level in top.items()}
    sigma = {v: images[v.i][v.level] for v in variables}
    return substitute(F.map_coeffs(Fraction), sigma)


def _monomial_weight(key) -> Weight:
    w = Weight([])
    for v, e in key:
        coeffs = [0] * v.level + [e]
        w = w + Weight(coeffs)
    return w


def delta_homog_decompose(F: MultiPoly, p: int) -> dict:
    """Split F, rewritten in Frobenius-iterate coordinates, by weight."""
    groups: dict = {}
    for key, coeff in _to_phi_coordinates(F, p).terms.items():
        groups.setdefault(_monomial_weight(key), {})[key] = coeff
    return {w: MultiPoly(terms) for w, terms in groups.items()}


def homogeneous_weight(F: MultiPoly, p: int):
    """The weight of F if it is graded-homogeneous and integral, else None."""
    if F.is_zero():
        return None
    for c in F.terms.values():
        if isinstance(c, Fraction) and c.denominator != 1:
            return None
    comps = delta_homog_decompose(F, p)
    if len(comps) != 1:
        return None
    return next(iter(comps))


def phi_to_levels(F: MultiPoly, p: int) -> MultiPoly:
    """Rewrite a polynomial in Frobenius-iterate coordinates back in levels."""
    sigma = {}
    for v in F.variables():
        if v.family != "w":
            raise ValueError("expected Frobenius-iterate coordinates")
        img = MultiPoly.var(VarId("z", 0, v.i, 0))
        for _ in range(v.level):
            img = frobenius_lift(img, p)
        sigma[v] = img.map_coeffs(Fraction)
    return substitute(F, sigma)
