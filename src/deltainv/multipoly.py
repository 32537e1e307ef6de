"""Sparse multivariate polynomials and polynomial matrices.

Monomials are stored as sorted tuples of ``(VarId, exponent)`` pairs mapping
to exact coefficients (int, Fraction, or TruncatedPadic).  A polynomial may
carry a degree bound (``trunc``); every operation on such a value re-applies
the bound, so truncated power series are just polynomials with a sticky cap.

Results are built in one of two ways.  The public ``MultiPoly(terms, trunc)``
drops every term above the bound and every zero coefficient.  Products,
negations, coefficient maps and sums of operands with the same bound produce
only monomials within the bound already, so they go through the private
``MultiPoly._build``, which drops zero coefficients only.  A product takes
each right-hand monomial's degree once, and skips a pair before multiplying
it when that degree exceeds the room the left-hand monomial leaves under the
bound (unlimited when untruncated).
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .exact_arith import TruncatedPadic


class DomainMismatch(ValueError):
    """Rational and p-adic coefficients cannot be combined implicitly."""


class BadQ(ValueError):
    """Exterior-power order out of range."""


class SizeTooLarge(ValueError):
    """Input too large for exact expansion."""


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
    if v.family == "y":
        return f"y{v.i}_{v.j}"
    if v.family == "z":
        return f"z{v.i}" + "'" * v.level
    return f"{v.family}{v.level}_{v.i}_{v.j}"


def Tvar(level: int, i: int, j: int, one=1) -> "MultiPoly":
    """Entry of a symmetric matrix variable; indices are order-normalized."""
    return MultiPoly.var(VarId("T", level, min(i, j), max(i, j)), one)


def uvar(level: int, one=1) -> "MultiPoly":
    return MultiPoly.var(VarId("u", level, 0, 0), one)


def vvar(level: int, one=1) -> "MultiPoly":
    return MultiPoly.var(VarId("v", level, 0, 0), one)


def zvar(i: int, level: int, one=1) -> "MultiPoly":
    return MultiPoly.var(VarId("z", level, i, 0), one)


def _domain(coeff):
    if isinstance(coeff, TruncatedPadic):
        return ("padic", coeff.p, coeff.N)
    if isinstance(coeff, Fraction):
        return "rat"
    return None


def _poly_domain(poly):
    dom = None
    for c in poly.terms.values():
        d = _domain(c)
        if d is None:
            continue
        if dom is None:
            dom = d
        elif dom != d:
            raise DomainMismatch(f"mixed coefficients {dom} and {d}")
    return dom


def _check_domains(a, b):
    da, db = _poly_domain(a), _poly_domain(b)
    if da is not None and db is not None and da != db:
        raise DomainMismatch(f"cannot combine {da} with {db}")


def _key_degree(key) -> int:
    return sum(e for _, e in key)


def _key_mul(k1, k2):
    if not k1:
        return k2
    if not k2:
        return k1
    exps = dict(k1)
    for v, e in k2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


class MultiPoly:
    __slots__ = ("terms", "trunc")

    def __init__(self, terms=None, trunc=None):
        self.trunc = trunc
        self.terms = {}
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
        self = object.__new__(cls)
        self.trunc = trunc
        self.terms = {k: c for k, c in terms.items() if c}
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "MultiPoly":
        return cls({(): c})

    @classmethod
    def var(cls, vid: VarId, one=1) -> "MultiPoly":
        return cls({((vid, 1),): one})

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

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
        return MultiPoly(self.terms, trunc=D)

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

    def serialize(self):
        out = []
        for key in sorted(self.terms):
            rec = {var_name(v): e for v, e in key}
            rec["coefficient"] = str(self.terms[key])
            out.append(rec)
        return out

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
        out = {}
        right = [(k2, c2, _key_degree(k2)) for k2, c2 in other.terms.items()]
        for k1, c1 in self.terms.items():
            room = math.inf if trunc is None else trunc - _key_degree(k1)
            for k2, c2, d2 in right:
                if d2 > room:
                    continue
                k = _key_mul(k1, k2)
                c = c1 * c2
                out[k] = out[k] + c if k in out else c
        return MultiPoly._build(out, trunc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative exponent")
        result = MultiPoly.constant(1)
        if self.trunc is not None:
            result = result.truncate(self.trunc)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()

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

    Raises KeyError when a variable of f has no image.  An optional degree
    cap D truncates the result (and all intermediates).
    """
    trunc = D if D is not None else f.trunc
    zero = MultiPoly.constant(0)
    if trunc is not None:
        zero = zero.truncate(trunc)
    total = zero
    power_cache: dict = {}
    for key, coeff in f.terms.items():
        term = MultiPoly.constant(coeff)
        if trunc is not None:
            term = term.truncate(trunc)
        for v, e in key:
            if v not in sigma:
                raise KeyError(v)
            pw = power_cache.get((v, e))
            if pw is None:
                img = sigma[v]
                if trunc is not None:
                    img = img.truncate(trunc)
                pw = img ** e
                power_cache[(v, e)] = pw
            term = term * pw
        total = total + term
    return total


# ---------------------------------------------------------------------------
# polynomial matrices
# ---------------------------------------------------------------------------

def _mat_mul(A, B):
    """Product of two matrices given as lists of rows, over any ring."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


class MatrixPoly:
    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.g = len(self.rows)
        if any(len(r) != self.g for r in self.rows):
            raise ValueError("matrix must be square")

    def entry(self, i: int, j: int) -> MultiPoly:
        return self.rows[i - 1][j - 1]

    def scale(self, factor) -> "MatrixPoly":
        return MatrixPoly([[e * factor for e in row] for row in self.rows])

    def map_entries(self, fn) -> "MatrixPoly":
        return MatrixPoly([[fn(e) for e in row] for row in self.rows])

    def __add__(self, other):
        return MatrixPoly([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return MatrixPoly([[a - b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __matmul__(self, other):
        return MatrixPoly(_mat_mul(self.rows, other.rows))

    def __eq__(self, other):
        if not isinstance(other, MatrixPoly) or other.g != self.g:
            return NotImplemented
        return all(a == b for r1, r2 in zip(self.rows, other.rows)
                   for a, b in zip(r1, r2))


class SymMatrixPoly(MatrixPoly):
    def __init__(self, rows):
        super().__init__(rows)
        for i in range(self.g):
            for j in range(i):
                if not (self.rows[i][j] == self.rows[j][i]):
                    raise ValueError("matrix is not symmetric")


def identity_matrix(g: int) -> MatrixPoly:
    return MatrixPoly([[MultiPoly.constant(1 if i == j else 0)
                        for j in range(g)] for i in range(g)])


def generic_sym_matrix(g: int, level: int, family: str = "T") -> SymMatrixPoly:
    return SymMatrixPoly(
        [[MultiPoly.var(VarId(family, level, min(i, j), max(i, j)))
          for j in range(1, g + 1)] for i in range(1, g + 1)])


def generic_matrix(g: int, level: int) -> MatrixPoly:
    return MatrixPoly([[MultiPoly.var(VarId("X", level, i, j))
                        for j in range(1, g + 1)] for i in range(1, g + 1)])


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


def sym_det(M: MatrixPoly) -> MultiPoly:
    return _det_rows(M.rows)


def adjugate(M: MatrixPoly) -> MatrixPoly:
    g = M.g
    unit = M.rows[0][0] ** 0
    out = [[None] * g for _ in range(g)]
    for i in range(g):
        for j in range(g):
            minor = [[M.rows[r][c] for c in range(g) if c != j]
                     for r in range(g) if r != i]
            cof = _det_rows(minor) if minor else unit
            out[j][i] = cof if (i + j) % 2 == 0 else -cof
    return MatrixPoly(out)


def alternating_product(factors) -> MatrixPoly:
    """F_0 adj(F_1) F_2 adj(F_3) ... for a nonempty list of matrices."""
    return functools.reduce(operator.matmul, (
        adjugate(F) if k % 2 else F for k, F in enumerate(factors)))


def charpoly_coeffs(M: MatrixPoly):
    """Coefficients c_0..c_g with det(t*1 - M) = sum (-1)^j c_j t^(g-j)."""
    from itertools import combinations

    g = M.g
    coeffs = [M.rows[0][0] ** 0]
    for j in range(1, g + 1):
        coeffs.append(sum(_det_rows([[M.rows[r][c] for c in S] for r in S])
                          for S in combinations(range(g), j)))
    return coeffs


def wedge_power(M: MatrixPoly, q: int) -> MatrixPoly:
    """q-th exterior power on the lexicographic basis of q-subsets."""
    from itertools import combinations

    g = M.g
    if not 1 <= q <= g - 1:
        raise BadQ(f"exterior power order must be in [1, {g - 1}], got {q}")
    subsets = list(combinations(range(g), q))
    out = []
    for S in subsets:
        row = []
        for T in subsets:
            row.append(_det_rows([[M.rows[r][c] for c in T] for r in S]))
        out.append(row)
    return MatrixPoly(out)
