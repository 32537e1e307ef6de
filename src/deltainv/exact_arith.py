"""Exact arithmetic domains: truncated p-adic residues and their helpers.

A :class:`TruncatedPadic` models an element of ``Z/p^N`` regarded as a
p-adic integer known to ``N`` digits.  All operations are exact; mixing
different primes or precisions raises :class:`PrecisionMismatch` instead of
coercing silently.
"""

from __future__ import annotations

from fractions import Fraction


class PrecisionMismatch(ValueError):
    """Operands live over different primes or precisions."""


class NegativeValuation(ValueError):
    """A rational number with p in its denominator cannot be reduced."""


class TruncatedPadic:
    """An integer modulo ``p**N``, printed as ``"c mod p^N"``."""

    __slots__ = ("p", "N", "residue")

    def __init__(self, p: int, N: int, residue: int):
        if N < 1:
            raise ValueError("precision must be at least 1")
        self.p = p
        self.N = N
        self.residue = residue % p ** N

    # -- helpers ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TruncatedPadic):
            if (other.p, other.N) != (self.p, self.N):
                raise PrecisionMismatch(
                    f"cannot mix mod {self.p}^{self.N} with "
                    f"mod {other.p}^{other.N}")
            return other
        if isinstance(other, int):
            return TruncatedPadic(self.p, self.N, other)
        if isinstance(other, Fraction):
            return rational_reduce(other, self.p, self.N)
        return NotImplemented

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return TruncatedPadic(self.p, self.N, self.residue + other.residue)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return TruncatedPadic(self.p, self.N, self.residue - other.residue)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return TruncatedPadic(self.p, self.N, self.residue * other.residue)

    __rmul__ = __mul__

    def __neg__(self):
        return TruncatedPadic(self.p, self.N, -self.residue)

    def __pow__(self, exponent: int):
        return TruncatedPadic(
            self.p, self.N, pow(self.residue, exponent, self.p ** self.N))

    def __eq__(self, other):
        if isinstance(other, int):
            other = TruncatedPadic(self.p, self.N, other)
        if not isinstance(other, TruncatedPadic):
            return NotImplemented
        return (self.p, self.N, self.residue) == \
            (other.p, other.N, other.residue)

    def __hash__(self):
        return hash((self.p, self.N, self.residue))

    def __bool__(self):
        return self.residue != 0

    def __str__(self):
        return f"{self.residue} mod {self.p}^{self.N}"

    def __repr__(self):
        return f"TruncatedPadic({self.p}, {self.N}, {self.residue})"


# Miller-Rabin on the primes up to 41 is exact below PRIME_BOUND
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, for 2 <= n < PRIME_BOUND."""
    if any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def require_prime(n: int, name: str = "p") -> None:
    """Raise ``ValueError`` unless n is a prime below ``PRIME_BOUND``;
    ``name`` is the argument named in the message."""
    if n >= PRIME_BOUND:
        raise ValueError(f"{name} must be below {PRIME_BOUND}, got {n}")
    if n < 2 or not _is_prime(n):
        raise ValueError(f"{name} must be prime, got {n}")


def rational_reduce(value, p: int, N: int) -> TruncatedPadic:
    """Reduce an integer or Fraction modulo ``p**N``.

    Raises :class:`NegativeValuation` if the denominator is divisible by p,
    and ``ValueError`` if N is below 1 or the value is not rational.
    """
    if N < 1:
        raise ValueError(f"precision must be at least 1, got {N}")
    if not isinstance(value, (int, Fraction)):
        raise ValueError(f"only an integer or Fraction reduces, got {value!r}")
    value = Fraction(value)
    if value.denominator % p == 0:
        raise NegativeValuation(
            f"{value} has {p} in its denominator")
    modulus = p ** N
    residue = value.numerator * pow(value.denominator, -1, modulus)
    return TruncatedPadic(p, N, residue)


def fermat_quotient(a: TruncatedPadic) -> TruncatedPadic:
    """``(a - a**p) / p`` — exact, at one digit lower precision."""
    p = a.p
    if a.N < 2:
        raise PrecisionMismatch("need at least two digits")
    diff = (a.residue - pow(a.residue, p, p ** (a.N + 1))) % p ** a.N
    return TruncatedPadic(p, a.N - 1, diff // p)


def cp_value(x: TruncatedPadic, y: TruncatedPadic) -> TruncatedPadic:
    """``(x**p + y**p - (x+y)**p) / p`` at the common precision.

    The integer numerator is divisible by p for any lifts of x and y, and
    its value modulo ``p**(N+1)`` only depends on x, y modulo ``p**N``, so
    the quotient is well defined at precision N.
    """
    x._coerce(y)
    p, N = x.p, x.N
    modulus = p ** (N + 1)
    num = (pow(x.residue, p, modulus) + pow(y.residue, p, modulus)
           - pow(x.residue + y.residue, p, modulus)) % modulus
    return TruncatedPadic(p, N, num // p)


def padic_log1p_scaled(u: TruncatedPadic) -> TruncatedPadic:
    """``(1/p) log(1 + p*u)`` as a truncated p-adic integer.

    Computed as the series ``sum_{n>=1} (-1)^(n+1) p^(n-1) u^n / n``.
    Every term with ``n > 2N + 4`` has valuation at least N, so the sum
    below is exact modulo ``p**N``.
    """
    p, N = u.p, u.N
    modulus = p ** N
    total = 0
    for n in range(1, 2 * N + 5):
        term = Fraction((-1) ** (n + 1) * p ** (n - 1), n)
        total = (total + pow(u.residue, n, modulus)
                 * term.numerator * pow(term.denominator, -1, modulus))
    return TruncatedPadic(p, N, total)
