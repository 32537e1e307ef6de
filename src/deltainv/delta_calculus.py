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

from .multipoly import MultiPoly, VarId, substitute, zvar


class Weight:
    """A weight sum a_k phi^k in Z[phi], held as its coefficient list
    [a_0, a_1, ...] without trailing zeros; closed under ``+``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return Weight([x + y for x, y in zip(a, b)])

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __repr__(self):
        return f"Weight({self.coeffs})"


def _raise_level(vid: VarId) -> VarId:
    return VarId(vid.family, vid.level + 1, vid.i, vid.j)


def frobenius_lift(F: MultiPoly, p: int) -> MultiPoly:
    """Ring endomorphism with v -> v**p + p * v_next on every variable."""
    sigma = {v: MultiPoly({((v, p),): 1, ((_raise_level(v), 1),): p})
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


def _to_phi_coordinates(F: MultiPoly, p: int) -> MultiPoly:
    """F over Q in the Frobenius-iterate coordinates w_(i,k) = phi^k(z_i).
    There phi is the shift w_k -> w_(k+1), and z^(l+1) = delta(z^(l)), so
    z_i^(l) is G_l, with G_0 = w_(i,0) and G_(l+1) = (G_l(shifted w) -
    G_l^p) / p."""
    images = {}
    for v in F.variables():
        if v.family != "z":
            raise ValueError("expected level-coordinate variables")
        gs = images.setdefault(v.i, [phi_coordinate(v.i, 0)])
        while len(gs) <= v.level:
            G = gs[-1]
            shifted = substitute(G, {w: MultiPoly.var(_raise_level(w))
                                     for w in G.variables()})
            gs.append((shifted - G ** p) * Fraction(1, p))
    sigma = {v: images[v.i][v.level] for v in F.variables()}
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
    if not F:
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
        img = zvar(v.i, 0)
        for _ in range(v.level):
            img = frobenius_lift(img, p)
        sigma[v] = img.map_coeffs(Fraction)
    return substitute(F, sigma)
