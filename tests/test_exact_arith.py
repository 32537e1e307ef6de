"""Tests for the exact coefficient domains.

Expected values are recomputed here by independent means (plain integer
arithmetic, extended Euclid, exact Fraction partial sums) rather than by
calling back into the library.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltainv.exact_arith import (
    NegativeValuation,
    PrecisionMismatch,
    TruncatedPadic,
    cp_value,
    fermat_quotient,
    padic_log1p_scaled,
    rational_reduce,
    require_prime,
)


def tp(p, N, c):
    return TruncatedPadic(p, N, c)


# ---------------------------------------------------------------- require_prime

def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _accepts(n):
    try:
        require_prime(n)
    except ValueError:
        return False
    return True


def test_require_prime_matches_trial_division():
    assert [n for n in range(-2, 20000) if _accepts(n)] == \
        [n for n in range(-2, 20000) if _is_prime_by_trial_division(n)]


@pytest.mark.parametrize("n", [
    561,                             # Carmichael number
    3215031751,                      # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,             # ... to the primes up to 31
    318665857834031151167461,        # ... to the primes up to 37
])
def test_require_prime_rejects_strong_pseudoprimes(n):
    with pytest.raises(ValueError, match="must be prime"):
        require_prime(n)


@pytest.mark.parametrize("n", [10 ** 13 + 37, 2 ** 61 - 1,
                               3317044064679887385961813])
def test_require_prime_accepts_large_primes(n):
    require_prime(n)


def test_require_prime_refuses_beyond_its_proven_range():
    # the bound itself is a strong pseudoprime to all thirteen bases
    for n in (3317044064679887385961981, 10 ** 30):
        with pytest.raises(ValueError, match="q must be below"):
            require_prime(n, "q")


# ---------------------------------------------------------------- rational_reduce

def test_rational_reduce_zero():
    assert rational_reduce(Fraction(0), 3, 2).residue == 0


def test_rational_reduce_half_mod_nine():
    # oracle: extended Euclid inverse of 2 mod 9
    inv2 = pow(2, -1, 9)
    assert inv2 == 5
    assert rational_reduce(Fraction(1, 2), 3, 2).residue == 5


def test_rational_reduce_negative_valuation():
    with pytest.raises(NegativeValuation):
        rational_reduce(Fraction(1, 3), 3, 2)
    with pytest.raises(NegativeValuation):
        rational_reduce(Fraction(5, 6), 3, 2)


@pytest.mark.parametrize("N", [0, -1])
def test_rational_reduce_rejects_precision_below_one(N):
    for value in (5, Fraction(1, 2), TruncatedPadic(3, 2, 4)):
        with pytest.raises(ValueError, match="precision"):
            rational_reduce(value, 3, N)


def test_rational_reduce_rejects_a_non_rational_value():
    with pytest.raises(ValueError, match=r"TruncatedPadic\(3, 2, 4\)"):
        rational_reduce(TruncatedPadic(3, 2, 4), 3, 2)


def test_rational_reduce_integer_input():
    assert rational_reduce(7, 2, 3).residue == 7


# ---------------------------------------------------------------- fermat quotient

def test_fermat_quotient_fixed_points():
    for p in (2, 3, 5):
        for c in (0, 1):
            out = fermat_quotient(tp(p, 3, c))
            assert out.residue == 0
            assert out.N == 2


def test_fermat_quotient_p3():
    # (2 - 2**3) / 3 = -2 = 1 mod 3
    out = fermat_quotient(tp(3, 2, 2))
    assert (out.p, out.N, out.residue) == (3, 1, 1)


def test_fermat_quotient_p2():
    # (3 - 3**2) / 2 = -3 = 1 mod 4
    out = fermat_quotient(tp(2, 3, 3))
    assert (out.p, out.N, out.residue) == (2, 2, 1)


def test_fermat_quotient_random_against_integers():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(20):
            a = rng.randrange(0, p ** 4)
            expect = ((a - a ** p) // p) % p ** 3
            assert fermat_quotient(tp(p, 4, a)).residue == expect


# ---------------------------------------------------------------- C_p values

def test_cp_second_argument_zero():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(5):
            x = tp(p, 3, rng.randrange(p ** 3))
            assert cp_value(x, tp(p, 3, 0)).residue == 0


def test_cp_small_values():
    # C_2(1,1) = (1+1-4)/2 = -1 ; C_3(1,1) = (1+1-8)/3 = -2
    out2 = cp_value(tp(2, 3, 1), tp(2, 3, 1))
    assert out2.residue == (-1) % 8
    out3 = cp_value(tp(3, 2, 1), tp(3, 2, 1))
    assert out3.residue == (-2) % 9


def test_cp_matches_integer_formula():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(10):
            a, b = rng.randrange(p ** 3), rng.randrange(p ** 3)
            expect = ((a ** p + b ** p - (a + b) ** p) // p) % p ** 3
            assert cp_value(tp(p, 3, a), tp(p, 3, b)).residue == expect


# ---------------------------------------------------------------- scaled log

def _log1p_scaled_oracle(u, p, N):
    """Exact-rational partial sums of (1/p) log(1 + p u), reduced mod p^N."""
    modulus = p ** N
    total = 0
    for n in range(1, 8 * N + 8):
        term = Fraction((-1) ** (n + 1) * p ** (n - 1) * u ** n, n)
        den = term.denominator
        # all terms are p-adically integral
        assert den % p != 0
        total = (total + term.numerator * pow(den, -1, modulus)) % modulus
    return total


def test_log_zero():
    assert padic_log1p_scaled(tp(3, 2, 0)).residue == 0


def test_log_unit_values():
    assert padic_log1p_scaled(tp(3, 2, 1)).residue == _log1p_scaled_oracle(1, 3, 2)
    assert _log1p_scaled_oracle(1, 3, 2) == 7
    assert padic_log1p_scaled(tp(2, 3, 1)).residue == _log1p_scaled_oracle(1, 2, 3)
    assert _log1p_scaled_oracle(1, 2, 3) == 2


def test_log_random_against_oracle():
    rng = random.Random(3)
    for p, N in ((2, 3), (3, 2), (5, 2)):
        for _ in range(8):
            u = rng.randrange(p ** N)
            assert padic_log1p_scaled(tp(p, N, u)).residue == _log1p_scaled_oracle(u, p, N)


def test_log_additivity():
    # L(u) + L(v) = L(u + v + p u v), the group law on 1 + pZ_p
    rng = random.Random(19)
    for p, N in ((2, 3), (3, 3), (5, 2)):
        for _ in range(10):
            u = tp(p, N, rng.randrange(p ** N))
            v = tp(p, N, rng.randrange(p ** N))
            lhs = padic_log1p_scaled(u) + padic_log1p_scaled(v)
            rhs = padic_log1p_scaled(u + v + u * v * p)
            assert lhs == rhs


# ---------------------------------------------------------------- arithmetic model

def test_frobenius_is_identity_on_zp():
    # a^p + p * fermat_quotient(a) = a, one precision digit lower
    rng = random.Random(23)
    for p in (2, 3, 5):
        for _ in range(10):
            a = tp(p, 4, rng.randrange(p ** 4))
            a3 = tp(p, 3, a.residue)
            assert a3 ** p + fermat_quotient(a) * p == a3


def test_delta_axioms_on_residues():
    rng = random.Random(29)
    for p in (2, 3):
        for _ in range(10):
            a = tp(p, 4, rng.randrange(p ** 4))
            b = tp(p, 4, rng.randrange(p ** 4))
            da, db = fermat_quotient(a), fermat_quotient(b)
            a3, b3 = tp(p, 3, a.residue), tp(p, 3, b.residue)
            # additive axiom
            assert fermat_quotient(a + b) == da + db + cp_value(a3, b3)
            # multiplicative axiom
            assert fermat_quotient(a * b) == a3 ** p * db + b3 ** p * da + da * db * p


def test_mixed_precision_is_an_error():
    with pytest.raises(PrecisionMismatch):
        tp(3, 2, 1) + tp(3, 3, 1)
    with pytest.raises(PrecisionMismatch):
        tp(3, 2, 1) * tp(5, 2, 1)


def test_residues_are_reduced_and_printable():
    x = tp(3, 2, 11)
    assert x.residue == 2
    assert str(x) == "2 mod 3^2"
    assert str(tp(2, 3, -1)) == "7 mod 2^3"


@settings(derandomize=True, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), N=st.integers(1, 6),
       a=st.integers(-10 ** 6, 10 ** 6), b=st.integers(-10 ** 6, 10 ** 6),
       e=st.integers(0, 12))
def test_arithmetic_matches_integers_mod_power(p, N, a, b, e):
    m = p ** N
    x, y = tp(p, N, a), tp(p, N, b)
    for got, want in ((x + y, a + b), (x - y, a - b), (x * y, a * b),
                      (x + b, a + b), (b - x, b - a), (b * x, a * b),
                      (-x, -a), (x ** e, a ** e)):
        assert (got.p, got.N, got.residue) == (p, N, want % m)
