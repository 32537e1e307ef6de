"""Sparse multivariate polynomials, and matrices as lists of rows.

Monomials are stored as sorted tuples of ``(VarId, exponent)`` pairs, every
exponent positive, mapping to exact coefficients (int, Fraction, or
TruncatedPadic).  A polynomial may carry a degree bound (``trunc``); every
operation on such a value re-applies the bound, so truncated power series are
just polynomials with a sticky cap.

Results are built in one of three ways.  The public ``MultiPoly(terms, trunc)``
drops every term above the bound and every zero coefficient.  Negations,
coefficient maps, and sums and scalar products whose operands carry the
result's bound produce only monomials within the bound already, so they go
through the private ``MultiPoly._build``, which drops zero coefficients only,
and a decoded packed result, already free of both, is kept as it is
(``MultiPoly._wrap``).

A product with a scalar (a polynomial whose only key is ``()``) scales the
other operand's coefficients.  Every other product (one term or none
included), every power and every substitution work on packed monomials: each
variable of the operands gets a fixed-width exponent field of one int, wide
enough that no sum of exponents carries, and the total degree sits above them.
A monomial product is then one integer addition, a pair lies above the bound
exactly when its packed sum reaches ``(trunc + 1) << top``, and a power or a
substitution keeps its running values packed through all of its steps.  Keys
are decoded once per output term, by their nonzero fields: a run of zero
fields is passed over in one shift, and zero coefficients are dropped in the
same pass.  A key whose fields span more than one int digit is decoded by
chunks of whole fields, each at most one digit wide and masked in place; the
output terms of one result share most of their chunks, so each distinct
chunk is decoded once per call.

Polynomials are never changed after construction, so the coefficient domain
(rational or p-adic) of each is scanned once, from the coefficients it holds,
and kept.  ``+`` and ``*`` compare the two operands' domains; ``substitute``
asks for one domain among f and its truncated images.  A polynomial or a
substitution holding two domains raises one message, the domains sorted.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .exact_arith import TruncatedPadic, require_at_least


class DomainMismatch(ValueError):
    """Rational and p-adic coefficients cannot be combined implicitly."""


class SizeTooLarge(ValueError):
    """Input too large for exact expansion."""


def require_within_budget(what: str, work: int, unit: str, budget: int):
    """Raise :class:`SizeTooLarge` when ``work`` is over ``budget``."""
    if work > budget:
        raise SizeTooLarge(f"{what} needs {work} {unit}, over the budget "
                           f"{budget}")


class VarId(NamedTuple):
    family: str
    level: int
    i: int
    j: int


def var_name(v: VarId) -> str:
    """Stable display name used in serialized output."""
    if v.family in ("T", "Q", "X"):
        return f"{v.family}{v.level}_{v.i}{v.j}"
    if v.family in ("u", "v"):
        return f"{v.family}{v.level}"
    if v.family == "z":
        return f"z{v.i}" + "'" * v.level
    return f"{v.family}{v.level}_{v.i}_{v.j}"


def Tvar(level: int, i: int, j: int) -> "MultiPoly":
    """Entry of a symmetric matrix variable; indices are order-normalized."""
    return MultiPoly.var(VarId("T", level, min(i, j), max(i, j)))


def uvar(level: int) -> "MultiPoly":
    return MultiPoly.var(VarId("u", level, 0, 0))


def vvar(level: int) -> "MultiPoly":
    return MultiPoly.var(VarId("v", level, 0, 0))


def zvar(i: int, level: int) -> "MultiPoly":
    return MultiPoly.var(VarId("z", level, i, 0))


def _domain(coeff):
    if isinstance(coeff, TruncatedPadic):
        return ("padic", coeff.p, coeff.N)
    if isinstance(coeff, Fraction):
        return "rat"
    return None


def _one_domain(doms):
    """The one coefficient domain among ``doms``, ``None`` dropped; raise
    ``DomainMismatch``, naming the domains in sorted order, when more than
    one is left."""
    doms = set(doms)
    doms.discard(None)
    if len(doms) > 1:
        raise DomainMismatch("mixed coefficients "
                             + " and ".join(sorted(map(str, doms))))
    return doms.pop() if doms else None


_UNSCANNED = object()


def _poly_domain(poly):
    dom = poly._dom
    if dom is _UNSCANNED:
        dom = poly._dom = _one_domain(
            _domain(c) for c in poly.terms.values() if type(c) is not int)
    return dom


def _check_domains(a, b):
    da, db = _poly_domain(a), _poly_domain(b)
    if da is not None and db is not None and da != db:
        raise DomainMismatch(f"cannot combine {da} with {db}")


def _key_degree(key) -> int:
    return sum(e for _, e in key)


# the bits of one digit of a CPython int (30 on 64-bit builds): a packed key
# whose fields fit in one digit is decoded whole, a wider one by chunks of
# at most one digit each
_DIGIT_BITS = sys.int_info.bits_per_digit


def _max_exponent(terms) -> int:
    return max((e for key in terms for _, e in key), default=0)


class _Packing:
    """Exponent fields for the monomials of a product.

    Each variable gets ``width`` bits, in sorted order from the lowest bits
    up, and the total degree sits above them at bit ``top``.  ``bound`` is
    the largest exponent any product may reach; the width holds it, so
    packed keys add without a carry from one field into the next.
    """

    __slots__ = ("variables", "bound", "width", "offsets", "top")

    def __init__(self, variables, bound: int):
        self.variables = sorted(variables)
        self.bound = bound
        self.width = bound.bit_length()
        self.offsets = {v: i * self.width
                        for i, v in enumerate(self.variables)}
        self.top = len(self.variables) * self.width

    def limit(self, trunc) -> int:
        """The packed keys at or above this one have a degree beyond
        ``trunc``; with no ``trunc``, no key reaches it."""
        if trunc is None:       # each field holds at most ``bound``
            trunc = len(self.variables) * self.bound
        return (trunc + 1) << self.top

    def pack(self, terms):
        """``[(packed key, coefficient)]`` in the order of ``terms``."""
        offsets, top = self.offsets, self.top
        out = []
        for key, c in terms.items():
            k = d = 0
            for v, e in key:
                k += e << offsets[v]
                d += e
            out.append((k + (d << top), c))
        return out

    def unpack(self, packed, trunc) -> "MultiPoly":
        """The polynomial of ``(packed key, coefficient)`` pairs, zero
        coefficients dropped and the degree field ignored.

        A key is decoded by its nonzero fields, read from the lowest: a run
        of zero fields is one shift, its length read off the lowest set bit.
        Keys whose fields fit in one int digit are decoded whole.  Wider keys
        are cut, in place, into chunks of as many whole fields as one digit
        holds; the chunks of the keys of one call repeat, so each distinct
        nonzero chunk is decoded once, into a memo that lives for the call,
        and a key is the concatenation of its chunks' pairs.
        """
        width, variables, top = self.width, self.variables, self.top
        mask = (1 << width) - 1

        def decode(k):
            key = []
            i = 0
            while k:
                e = k & mask
                if e:
                    key.append((variables[i], e))
                    k >>= width
                    i += 1
                else:
                    skip = ((k & -k).bit_length() - 1) // width
                    k >>= skip * width
                    i += skip
            return tuple(key)

        fields = (1 << top) - 1
        if top <= _DIGIT_BITS:
            return MultiPoly._wrap({decode(k & fields): c
                                    for k, c in packed if c}, trunc)
        step = max(_DIGIT_BITS // width, 1) * width
        chunks = [fields & (((1 << step) - 1) << lo)
                  for lo in range(0, top, step)]
        memo = {}
        terms = {}
        for k, c in packed:
            if not c:
                continue
            key = ()
            for m in chunks:
                part = k & m
                if part:
                    pairs = memo.get(part)
                    if pairs is None:
                        pairs = memo[part] = decode(part)
                    key += pairs
            terms[key] = c
        return MultiPoly._wrap(terms, trunc)


def _packed_mul(left, right, limit):
    """``{packed key: coefficient}`` of the product of two packed term lists,
    keeping the pairs whose packed sum is below ``limit``."""
    out = {}
    for k1, c1 in left:
        room = limit - k1
        for k2, c2 in right:
            if k2 < room:
                k = k1 + k2
                c = c1 * c2
                out[k] = out[k] + c if k in out else c
    return out


def _packed_powers(base, n: int, limit):
    """``[base, base**2, ..., base**n]`` for a packed term list ``base``,
    n >= 1: each power is one product of the last with ``base``, below
    ``limit`` and with its zero coefficients dropped."""
    powers = [base]
    for _ in range(n - 1):
        powers.append([kc for kc in _packed_mul(powers[-1], base, limit).items()
                       if kc[1]])
    return powers


class MultiPoly:
    __slots__ = ("terms", "trunc", "_dom")

    def __init__(self, terms=None, trunc=None):
        self.trunc = trunc
        self.terms = {}
        self._dom = _UNSCANNED
        if terms:
            for key, coeff in terms.items():
                if trunc is not None and _key_degree(key) > trunc:
                    continue
                if coeff:
                    self.terms[key] = coeff

    @classmethod
    def _build(cls, terms, trunc) -> "MultiPoly":
        """A result whose monomials are all within ``trunc``: only zero
        coefficients are dropped."""
        return cls._wrap({k: c for k, c in terms.items() if c}, trunc)

    @classmethod
    def _wrap(cls, terms, trunc) -> "MultiPoly":
        """``terms``, within ``trunc`` and free of zeros, kept uncopied."""
        self = object.__new__(cls)
        self.trunc = trunc
        self.terms = terms
        self._dom = _UNSCANNED
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "MultiPoly":
        return cls({(): c})

    @classmethod
    def var(cls, vid: VarId) -> "MultiPoly":
        return cls({((vid, 1),): 1})

    # -- inspection ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(_key_degree(k) for k in self.terms)

    def variables(self):
        return {v for key in self.terms for v, _ in key}

    def constant_value(self):
        if any(key for key in self.terms):
            raise ValueError("polynomial is not constant")
        return self.terms.get((), 0)

    def truncate(self, D: int) -> "MultiPoly":
        """The terms of degree at most D, under the lower of D and the bound
        already carried: a cap never claims precision the value lacks."""
        return MultiPoly(self.terms, trunc=self._combine_trunc(self.trunc, D))

    def map_coeffs(self, fn) -> "MultiPoly":
        return MultiPoly._build({k: fn(c) for k, c in self.terms.items()},
                                self.trunc)

    def derivative(self, vid: VarId) -> "MultiPoly":
        out = {}
        for key, coeff in self.terms.items():
            for idx, (v, e) in enumerate(key):
                if v == vid:
                    rest = key[:idx] + ((v, e - 1),) + key[idx + 1:]
                    rest = tuple(p for p in rest if p[1])
                    out[rest] = out.get(rest, 0) + coeff * e
                    break
        return MultiPoly(out, trunc=self.trunc)

    def evaluate(self, values: dict):
        total = 0
        for key, coeff in self.terms.items():
            term = coeff
            for v, e in key:
                term = term * values[v] ** e
            total = total + term
        return total

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _as_poly(other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction, TruncatedPadic)):
            return MultiPoly.constant(other)
        return None

    @staticmethod
    def _combine_trunc(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def __add__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        _check_domains(self, other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        if self.trunc == other.trunc:
            return MultiPoly._build(out, self.trunc)
        return MultiPoly(out, self._combine_trunc(self.trunc, other.trunc))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._build({k: -c for k, c in self.terms.items()},
                                self.trunc)

    def __sub__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        _check_domains(self, other)
        trunc = self._combine_trunc(self.trunc, other.trunc)
        for scalar, poly in ((self, other), (other, self)):
            if len(scalar.terms) == 1 and () in scalar.terms:
                c = scalar.terms[()]
                out = {k: c * v for k, v in poly.terms.items()}
                if poly.trunc == trunc:
                    return MultiPoly._build(out, trunc)
                return MultiPoly(out, trunc)
        fields = _Packing(
            self.variables() | other.variables(),
            _max_exponent(self.terms) + _max_exponent(other.terms))
        out = _packed_mul(fields.pack(self.terms),
                          fields.pack(other.terms), fields.limit(trunc))
        return fields.unpack(out.items(), trunc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        require_at_least(n, 0, "exponent")
        if n == 0:
            return MultiPoly({(): 1}, self.trunc)
        _poly_domain(self)
        fields = _Packing(self.variables(), n * _max_exponent(self.terms))
        powers = _packed_powers(fields.pack(self.terms), n,
                                fields.limit(self.trunc))
        return fields.unpack(powers[-1], self.trunc)

    def __eq__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        return not self - other

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for key in sorted(self.terms):
            mono = "*".join(f"{var_name(v)}^{e}" if e > 1 else var_name(v)
                            for v, e in key) or "1"
            bits.append(f"({self.terms[key]})*{mono}")
        return " + ".join(bits)


def homogeneous_component(f: MultiPoly, d: int) -> MultiPoly:
    return MultiPoly({k: c for k, c in f.terms.items()
                      if _key_degree(k) == d})


def substitute(f: MultiPoly, sigma: dict, D: int | None = None) -> MultiPoly:
    """Replace each variable of f by ``sigma[vid]``.

    An optional degree cap D, else the bound of f, truncates the images, and
    the result is bounded by that cap lowered to the bound of each image.
    The inputs are checked once: when the coefficients of f and of the
    truncated images of its variables hold more than one domain, the call
    raises ``DomainMismatch``, whether or not the clashing terms would meet
    below the bound.  A variable of f with no image then raises KeyError.

    One packing serves the whole call, its fields wide enough for every
    exponent that the image of a term of f can reach.  The powers of each
    image are built in it first, each one product of the last with the
    image, up to the largest exponent of its variable in f.  The image of a
    term is its coefficient multiplied through the powers of its variables,
    every product cut at the bound.  The term images are summed into one
    packed dict, in the order of f, with each coefficient that cancels
    removed at once, and the sum is unpacked once: its value is that of
    adding the term images up one by one.
    """
    bound = D if D is not None else f.trunc
    top_exp: dict = {}      # each variable of f: its largest exponent in f
    for key in f.terms:
        for v, e in key:
            if e > top_exp.get(v, 0):
                top_exp[v] = e
    images = {v: sigma[v] if bound is None else sigma[v].truncate(bound)
              for v in top_exp if v in sigma}
    _one_domain(map(_poly_domain, (f, *images.values())))
    for img in images.values():
        bound = MultiPoly._combine_trunc(bound, img.trunc)
    reach = {v: _max_exponent(img.terms) for v, img in images.items()}
    fields = _Packing(
        set().union(*(img.variables() for img in images.values())),
        max((sum(e * reach.get(v, 0) for v, e in key) for key in f.terms),
            default=0))
    limit = fields.limit(bound)
    powers = {v: _packed_powers(fields.pack(images[v].terms), e, limit)
              for v, e in top_exp.items()}  # KeyError(v) when v has no image
    out: dict = {}
    for key, coeff in f.terms.items():
        term = {0: coeff} if limit > 0 else {}
        for v, e in key:
            term = _packed_mul((kc for kc in term.items() if kc[1]),
                               powers[v][e - 1], limit)
        for k, c in term.items():
            if not c:
                continue
            if k in out:
                c = out[k] + c
                if not c:
                    del out[k]
                    continue
            out[k] = c
    return fields.unpack(out.items(), bound)


# ---------------------------------------------------------------------------
# matrices: lists of rows over any commutative ring (MultiPoly, int, Fraction)
# ---------------------------------------------------------------------------

def _mat_mul(A, B):
    """Product of two matrices given as lists of rows, over any ring."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def _order(*mats) -> int:
    """The common size g of one or more square matrices; ``ValueError`` if
    there are none, one is not square, or two differ in size."""
    if not mats:
        raise ValueError("at least one matrix is needed")
    g = len(mats[0])
    for M in mats:
        if any(len(row) != len(M) for row in M):
            raise ValueError("matrix must be square")
        if len(M) != g:
            raise ValueError(f"matrices must all be {g} x {g}, "
                             f"got {len(M)} x {len(M)}")
    return g


def generic_sym_matrix(g: int, level: int, family: str = "T"):
    return [[MultiPoly.var(VarId(family, level, min(i, j), max(i, j)))
             for j in range(1, g + 1)] for i in range(1, g + 1)]


def generic_matrix(g: int, level: int):
    return [[MultiPoly.var(VarId("X", level, i, j))
             for j in range(1, g + 1)] for i in range(1, g + 1)]


def _det_rows(rows):
    """Cofactor determinant of a square list of rows.

    Entries may come from any commutative ring (MultiPoly, int, Fraction);
    the result has the entries' type, and the empty matrix has determinant 1.
    """
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n > 6:
        raise SizeTooLarge(f"exact determinant limited to size 6, got {n}")
    # cofactor expansion along the first column
    total = rows[0][0] * 0
    for i in range(n):
        if not rows[i][0]:
            continue
        minor = [r[1:] for k, r in enumerate(rows) if k != i]
        term = rows[i][0] * _det_rows(minor)
        total = total + term if i % 2 == 0 else total - term
    return total


def adjugate(M):
    g = _order(M)
    out = [[None] * g for _ in range(g)]
    for i in range(g):
        for j in range(g):
            minor = [[M[r][c] for c in range(g) if c != j]
                     for r in range(g) if r != i]
            cof = _det_rows(minor) if minor else M[0][0] ** 0
            out[j][i] = cof if (i + j) % 2 == 0 else -cof
    return out


def alternating_product(factors):
    """F_0 adj(F_1) F_2 adj(F_3) ... for a nonempty list of matrices of one
    size."""
    _order(*factors)
    return functools.reduce(_mat_mul, (
        adjugate(F) if k % 2 else F for k, F in enumerate(factors)))


def charpoly_coeff(M, j: int):
    """The coefficient c_j, 0 <= j <= g, in det(t*1 - M) = sum (-1)^j c_j
    t^(g-j): the sum of the j x j principal minors of M."""
    g = _order(M)
    if not 0 <= j <= g:
        raise ValueError(f"coefficient index must be in [0, {g}], got {j}")
    if j == 0:
        return M[0][0] ** 0 if g else 1
    return sum(_det_rows([[M[r][c] for c in S] for r in S])
               for S in combinations(range(g), j))


def wedge_power(M, q: int):
    """q-th exterior power on the lexicographic basis of q-subsets."""
    g = _order(M)
    if not 1 <= q <= g - 1:
        raise ValueError(f"exterior power order must be in [1, {g - 1}], "
                         f"got {q}")
    subsets = list(combinations(range(g), q))
    return [[_det_rows([[M[r][c] for c in T] for r in S]) for T in subsets]
            for S in subsets]
