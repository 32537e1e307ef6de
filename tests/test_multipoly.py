"""Tests for sparse polynomials, truncated series, and matrix algebra.

Oracles: sympy (determinants, adjugates, characteristic polynomials on random
integer matrices) and hand expansion for the small fixed cases.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from deltainv.multipoly import (
    _det_rows,
    _mat_mul,
    _Packing,
    DomainMismatch,
    MultiPoly,
    Tvar,
    adjugate,
    alternating_product,
    charpoly_coeff,
    generic_sym_matrix,
    homogeneous_component,
    substitute,
    var_name,
    wedge_power,
)
from deltainv.cli import _document
from deltainv.delta_calculus import frobenius_lift
from deltainv.multipoly import VarId
from deltainv.exact_arith import TruncatedPadic
from deltainv.serre_tate import _lifts


def T(l, i, j):
    return Tvar(l, i, j)


def _identity(g):
    return [[MultiPoly.constant(1 if i == j else 0) for j in range(g)]
            for i in range(g)]


# ---------------------------------------------------------------- ring basics

def test_mul_identity():
    f = T(0, 1, 1) * T(0, 2, 2) + T(0, 1, 2) * 3
    assert f.truncate(10) * MultiPoly.constant(1).truncate(10) == f


def test_truncation_drops_high_degree():
    one = MultiPoly.constant(1)
    f = one + T(0, 1, 1)
    g = one - T(0, 1, 1)
    assert f.truncate(1) * g.truncate(1) == one


def test_square_hand_expansion():
    f = T(0, 1, 1) + T(0, 1, 2)
    sq = f.truncate(2) * f.truncate(2)
    expect = (T(0, 1, 1) ** 2 + T(0, 1, 2) ** 2
              + T(0, 1, 1) * T(0, 1, 2) * 2)
    assert sq == expect


def test_truncation_sticks_to_the_value():
    f = (MultiPoly.constant(1) + T(0, 1, 1)).truncate(2)
    g = f * f * f          # would have degree 3 terms if truncation were lost
    assert g.degree() <= 2
    assert g.trunc == 2


def test_ring_axioms_random():
    rng = random.Random(101)
    vars_ = [T(0, 1, 1), T(0, 1, 2), T(0, 2, 2), T(1, 1, 1)]

    def rand_poly():
        out = MultiPoly.constant(rng.randrange(-3, 4))
        for _ in range(4):
            term = MultiPoly.constant(rng.randrange(-2, 3))
            for v in rng.sample(vars_, rng.randrange(1, 3)):
                term = term * v
            out = out + term
        return out.truncate(4)

    for _ in range(10):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


_RING_VARS = [VarId("T", 0, 1, 1), VarId("T", 0, 1, 2), VarId("T", 1, 2, 2)]


@st.composite
def _int_polys(draw):
    exps = st.tuples(*[st.integers(0, 2)] * len(_RING_VARS))
    terms = draw(st.dictionaries(exps, st.integers(-3, 3), max_size=5))
    return MultiPoly({tuple((v, e) for v, e in zip(_RING_VARS, key) if e): c
                      for key, c in terms.items()})


@settings(derandomize=True, deadline=None)
@given(a=_int_polys(), b=_int_polys(), c=_int_polys(), D=st.integers(0, 6))
def test_truncated_ring_laws(a, b, c, D):
    exact = a * b
    a, b, c = a.truncate(D), b.truncate(D), c.truncate(D)
    assert ((a + b) + c).terms == (a + (b + c)).terms
    assert (a + b).terms == (b + a).terms
    assert ((a * b) * c).terms == (a * (b * c)).terms
    assert (a * b).terms == (b * a).terms
    assert (a * (b + c)).terms == (a * b + a * c).terms
    # truncating the product is the same as multiplying truncated factors
    assert (a * b).terms == exact.truncate(D).terms
    assert (a * b).trunc == D


def test_domain_mismatch():
    f = Tvar(0, 1, 1) * Fraction(1)
    g = Tvar(0, 1, 1) * TruncatedPadic(3, 2, 1)
    with pytest.raises(DomainMismatch):
        f.truncate(4) * g.truncate(4)
    with pytest.raises(DomainMismatch):
        f.truncate(4) + g.truncate(4)


def test_domain_mismatch_with_the_domains_already_known():
    x, y = T(0, 1, 1), T(0, 2, 2)
    rat = x * Fraction(1, 2) + y
    padic = x * TruncatedPadic(3, 2, 1) + y
    one_term = x * TruncatedPadic(3, 2, 1)
    for _ in range(2):      # the second round meets the domains found before
        for a, b in [(rat, padic), (padic, rat), (rat, one_term)]:
            with pytest.raises(DomainMismatch):
                a * b
            with pytest.raises(DomainMismatch):
                a + b
            with pytest.raises(DomainMismatch):
                a - b
        with pytest.raises(DomainMismatch):
            rat * TruncatedPadic(3, 2, 1)
        with pytest.raises(DomainMismatch):
            padic + Fraction(1, 2)
    assert rat * rat == x ** 2 * Fraction(1, 4) + x * y + y ** 2
    assert padic * 2 == padic + padic


def test_mixed_polynomial_fails_every_operation():
    mixed = MultiPoly({((VarId("T", 0, 1, 1), 1),): Fraction(1, 2),
                       ((VarId("T", 0, 2, 2), 1),): TruncatedPadic(3, 2, 1)})
    for _ in range(2):
        for op in (lambda: mixed * mixed, lambda: mixed + 1,
                   lambda: mixed * T(0, 1, 1), lambda: mixed ** 2,
                   lambda: 3 * mixed):
            with pytest.raises(DomainMismatch, match="mixed coefficients"):
                op()
    assert mixed ** 0 == MultiPoly.constant(1)


def test_every_operation_names_a_clash_the_same_way():
    x, y = VarId("T", 0, 1, 1), VarId("T", 0, 2, 2)
    u = T(1, 1, 1)
    terms = [(((x, 1),), Fraction(1, 2)), (((y, 1),), TruncatedPadic(3, 2, 1))]
    message = r"^mixed coefficients \('padic', 3, 2\) and rat$"
    for order in (terms, terms[::-1]):
        mixed = MultiPoly(dict(order))
        for op in (lambda: mixed * u, lambda: u * mixed, lambda: mixed + u,
                   lambda: u + mixed, lambda: mixed ** 2,
                   lambda: substitute(mixed, {x: u, y: u}),
                   lambda: substitute(MultiPoly.var(x), {x: mixed})):
            with pytest.raises(DomainMismatch, match=message):
                op()


def test_cancelled_rational_terms_leave_no_domain():
    x, y = T(0, 1, 1), T(0, 2, 2)
    half = Fraction(1, 2)
    rat = x * half + y * 2
    int_only = rat + x * -half      # the Fraction terms cancel
    assert int_only.terms == {((VarId("T", 0, 2, 2), 1),): 2}
    assert type(int_only.terms[((VarId("T", 0, 2, 2), 1),)]) is int
    padic = x * TruncatedPadic(3, 2, 1) + y * TruncatedPadic(3, 2, 4)
    assert (int_only * padic).terms == {
        ((VarId("T", 0, 1, 1), 1), (VarId("T", 0, 2, 2), 1)):
            TruncatedPadic(3, 2, 2),
        ((VarId("T", 0, 2, 2), 2),): TruncatedPadic(3, 2, 8)}
    assert (int_only + padic).terms == {
        ((VarId("T", 0, 1, 1), 1),): TruncatedPadic(3, 2, 1),
        ((VarId("T", 0, 2, 2), 1),): TruncatedPadic(3, 2, 6)}
    with pytest.raises(DomainMismatch):
        rat * padic


def test_substitute_domain_mismatch():
    x, y, z = (VarId("T", 0, 1, 1), VarId("T", 0, 1, 2), VarId("T", 0, 2, 2))
    u = T(1, 1, 1)
    half, padic = Fraction(1, 2), TruncatedPadic(3, 2, 1)
    f = MultiPoly.var(x) + MultiPoly.var(y) + MultiPoly.var(z)
    with pytest.raises(DomainMismatch):
        substitute(f, {x: u * half, y: u * 3, z: u * padic})
    # the rational images cancel in the sum before the p-adic one arrives,
    # but the inputs hold both domains, and they are checked before any sum
    with pytest.raises(DomainMismatch):
        substitute(f, {x: u * half, y: u * -half, z: u * padic})
    # a p-adic coefficient of f against rational images
    g = MultiPoly.var(x) * padic + MultiPoly.var(y) * padic
    with pytest.raises(DomainMismatch):
        substitute(g, {x: u * half + 1, y: u})
    with pytest.raises(DomainMismatch):
        substitute(MultiPoly.var(x) * padic, {x: u * half + 1})


def test_substitute_checks_its_inputs_once():
    x, y, z = (VarId("T", 0, 1, 1), VarId("T", 0, 1, 2), VarId("T", 0, 2, 2))
    u, w = T(1, 1, 1), T(1, 2, 2)
    half, padic = Fraction(1, 2), TruncatedPadic(3, 2, 1)
    sigma = {x: u * half, y: u + w, z: w * padic}
    # every ordering of the terms of f meets the same clash, named the same
    terms = [(((x, 1),), 1), (((y, 1),), Fraction(1, 3)), (((z, 2),), 1),
             (((x, 1), (z, 1)), 2)]
    for order in itertools.permutations(terms):
        with pytest.raises(DomainMismatch, match=r"^mixed coefficients "
                           r"\('padic', 3, 2\) and rat$"):
            substitute(MultiPoly(dict(order)), sigma)
    # the clash is found before a missing image
    with pytest.raises(DomainMismatch):
        substitute(MultiPoly.var(x) + MultiPoly.var(y) + MultiPoly.var(z),
                   {x: u * half, z: w * padic})
    # a clash only in a product above the bound: the image of y z has
    # degree 3
    f = MultiPoly.var(x) + MultiPoly.var(y) * MultiPoly.var(z)
    above = {x: u * half, y: u, z: u * w * padic}
    for D, bounded in [(2, f), (None, f.truncate(2))]:
        with pytest.raises(DomainMismatch):
            substitute(bounded, above, D)
    # a clash only in image terms that the bound cuts away is no clash
    mixed = MultiPoly({((VarId("T", 1, 1, 1), 1),): half,
                       ((VarId("T", 1, 2, 2), 2),): padic})
    g = MultiPoly.var(x) * 3 + MultiPoly.var(y)
    for D, bounded in [(1, g), (None, g.truncate(1))]:
        got = substitute(bounded, {x: mixed, y: u}, D)
        _same(got, _reference_substitute(bounded, {x: mixed, y: u}, D))
        assert got.terms == {((VarId("T", 1, 1, 1), 1),): Fraction(5, 2)}
    with pytest.raises(DomainMismatch):
        substitute(g, {x: mixed, y: u})


_MIXED_MESSAGE = """
from fractions import Fraction
from deltainv.exact_arith import TruncatedPadic
from deltainv.multipoly import MultiPoly, Tvar, VarId, substitute
u = Tvar(1, 1, 1)
f = MultiPoly({((VarId("T", 0, 1, 1), 1),): Fraction(1, 2),
               ((VarId("T", 0, 2, 2), 1),): 1})
try:
    substitute(f, {VarId("T", 0, 1, 1): u * TruncatedPadic(3, 2, 1),
                   VarId("T", 0, 2, 2): u * TruncatedPadic(5, 3, 1)})
except ValueError as exc:
    print(exc)
"""


def test_substitute_mismatch_message_is_independent_of_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    messages = []
    for hash_seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _MIXED_MESSAGE], env=env,
                             capture_output=True, text=True, check=True)
        messages.append(run.stdout)
    assert messages == ["mixed coefficients ('padic', 3, 2) and "
                        "('padic', 5, 3) and rat\n"] * 2


# ------------------------------------------- products against the pairwise way

def _reference_mul(a, b):
    """The pairwise product: a degree test on every pair of monomials, and
    the result built by the filtering public constructor."""
    trunc = MultiPoly._combine_trunc(a.trunc, b.trunc)
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            exps = dict(k1)
            for v, e in k2:
                exps[v] = exps.get(v, 0) + e
            if trunc is not None and sum(exps.values()) > trunc:
                continue
            k = tuple(sorted(exps.items()))
            out[k] = out[k] + c1 * c2 if k in out else c1 * c2
    return MultiPoly(out, trunc)


def _reference_add(a, b):
    out = dict(a.terms)
    for k, c in b.terms.items():
        out[k] = out[k] + c if k in out else c
    return MultiPoly(out, MultiPoly._combine_trunc(a.trunc, b.trunc))


_COEFFS = {
    "int": st.integers(-3, 3),
    "rat": st.fractions(-3, 3, max_denominator=4),
    # residues mod 9: multiples of 3 multiply to zero, so products cancel
    "padic": st.integers(-9, 9).map(lambda n: TruncatedPadic(3, 2, n)),
}


@st.composite
def _coeff_polys(draw, kind, max_exp=2, max_size=5):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(_RING_VARS))
    terms = draw(st.dictionaries(exps, _COEFFS[kind], max_size=max_size))
    return MultiPoly({tuple((v, e) for v, e in zip(_RING_VARS, key) if e): c
                      for key, c in terms.items()},
                     draw(st.none() | st.integers(0, 6)))


def _same(got, want):
    assert got.terms == want.terms
    assert {k: type(c) for k, c in got.terms.items()} == \
        {k: type(c) for k, c in want.terms.items()}
    assert got.trunc == want.trunc


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data(), kinds=st.sampled_from([
    ("int", "int"), ("int", "rat"), ("rat", "rat"), ("int", "padic"),
    ("padic", "int"), ("padic", "padic")]))
def test_product_and_sum_match_pairwise_reference(data, kinds):
    a = data.draw(_coeff_polys(kinds[0]))
    b = data.draw(_coeff_polys(kinds[1]))
    _same(a * b, _reference_mul(a, b))
    _same(a + b, _reference_add(a, b))
    _same(a - b, _reference_add(
        a, MultiPoly({k: -c for k, c in b.terms.items()}, b.trunc)))


@pytest.mark.parametrize("trunc", [None, 0, 1, 2, 6])
def test_products_that_cancel_to_zero(trunc):
    x, y = T(0, 1, 1), T(0, 2, 2)
    three = TruncatedPadic(3, 2, 3)
    for a, b in [(x * three, y * three),    # 3 * 3 = 0 mod 9: all cancel
                 (x + y, x - y)]:            # the xy coefficient cancels
        a = a if trunc is None else a.truncate(trunc)
        _same(a * b, _reference_mul(a, b))
        if trunc is not None and trunc < 2:
            assert not (a * b)
    assert not (x * three * (y * three))
    assert len(((x + y) * (x - y)).terms) == 2


def _reference_pow(a, n):
    """``n`` pairwise products, starting from the bounded constant 1."""
    out = MultiPoly({(): 1}, a.trunc)
    for _ in range(n):
        out = _reference_mul(out, a)
    return out


_X = _RING_VARS[0]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(a=st.sampled_from(["int", "rat", "padic"]).flatmap(
    lambda kind: _coeff_polys(kind, max_exp=3, max_size=4)),
    n=st.integers(0, 7))
# one-term truncated bases: the bound cuts the power (x^6 above 5), keeps
# it exactly (x^4 at 4), or holds a constant
@example(a=MultiPoly({((_X, 2),): 2}, 5), n=3)
@example(a=MultiPoly({((_X, 2),): Fraction(1, 2)}, 4), n=2)
@example(a=MultiPoly({((_X, 1),): TruncatedPadic(3, 2, 4)}, 5), n=6)
@example(a=MultiPoly({(): Fraction(-2, 3)}, 0), n=4)
# the zero polynomial, bounded and not
@example(a=MultiPoly(), n=0)
@example(a=MultiPoly(), n=3)
@example(a=MultiPoly({}, 2), n=1)
@example(a=MultiPoly({}, 2), n=0)
def test_power_matches_repeated_pairwise_products(a, n):
    _same(a ** n, _reference_pow(a, n))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data(), kinds=st.sampled_from([
    ("int", "int"), ("rat", "int"), ("padic", "padic")]))
def test_products_with_large_exponents(data, kinds):
    a = data.draw(_coeff_polys(kinds[0], max_exp=9))
    b = data.draw(_coeff_polys(kinds[1], max_exp=9))
    _same(a * b, _reference_mul(a, b))
    _same(a ** 2, _reference_pow(a, 2))


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("trunc", [None, 40])
def test_exponents_at_a_field_boundary(k, trunc):
    # 2^k - 1 fills k bits, and a product of two such exponents needs k + 1:
    # a field one bit too narrow would carry into the next variable
    x, y, z = T(0, 1, 1), T(0, 1, 2), T(0, 2, 2)
    e = 2 ** k - 1
    a = x ** e + y
    b = x ** e - z * 2
    if trunc is not None:
        a, b = a.truncate(trunc), b.truncate(trunc)
    _same(a * b, _reference_mul(a, b))
    _same(b * a, _reference_mul(b, a))
    for n in range(2, 5):
        _same(a ** n, _reference_pow(a, n))
    c = x ** (e + 1) + y ** e      # e + (e + 1) = 2^(k+1) - 1 still fits
    _same(c * a, _reference_mul(c, a))


@pytest.mark.parametrize("trunc", [None, 0, 1, 3])
@pytest.mark.parametrize("coeff", [2, Fraction(-1, 3), TruncatedPadic(3, 2, 3)])
def test_empty_and_one_term_operands(trunc, coeff):
    x, y = T(0, 1, 1), T(0, 2, 2)
    many = (x + y * 2 + x * y) * coeff + 1
    unbounded = [MultiPoly.constant(0), MultiPoly.constant(coeff),
                 x * coeff, x * y * y * coeff, many]
    operands = unbounded
    if trunc is not None:
        operands = [p.truncate(trunc) for p in operands]
    for a in operands:
        for b in operands:
            _same(a * b, _reference_mul(a, b))
        for n in range(4):
            _same(a ** n, _reference_pow(a, n))
        _same(a * coeff, _reference_mul(a, MultiPoly.constant(coeff)))
        _same(coeff * a, _reference_mul(a, MultiPoly.constant(coeff)))
    # a scalar whose bound differs from the other operand's, either side
    for c in (MultiPoly.constant(coeff).truncate(d) for d in (0, 2)):
        for d in (None, 1, 6):
            for a in unbounded:
                a = a if d is None else a.truncate(d)
                _same(c * a, _reference_mul(c, a))
                _same(a * c, _reference_mul(a, c))


@st.composite
def _packed_terms(draw):
    """Variables, an exponent bound and terms in them, the keys sparse or
    dense, some coefficients zero."""
    n = draw(st.integers(1, 60))
    bound = draw(st.integers(1, 255))       # fields 1 to 8 bits wide
    variables = [VarId("x", i, 0, 0) for i in range(n)]
    fields = st.dictionaries(st.integers(0, n - 1), st.integers(1, bound),
                             max_size=n)
    keys = st.one_of(
        fields,
        # the last field alone, at a small and at the largest exponent
        st.integers(1, bound).map(lambda e: {n - 1: e}),
        st.just({n - 1: bound}),
        # every field
        st.lists(st.integers(1, bound), min_size=n, max_size=n).map(
            lambda es: dict(enumerate(es))))
    terms = draw(st.dictionaries(
        keys.map(lambda f: tuple((variables[i], f[i]) for i in sorted(f))),
        st.integers(-3, 3), max_size=12))
    return variables, bound, terms


def _x(i, e):
    return VarId("x", i, 0, 0), e


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_packed_terms(), high=st.integers(0, 2 ** 70))
@example(case=([VarId("x", i, 0, 0) for i in range(50)], 127,
               {(_x(49, 127),): 5, (): 0, (_x(0, 1), _x(49, 1)): -1}),
         high=0)
# 8-bit fields, three to a chunk: zero runs across the chunk boundaries at
# fields 3 and 6, a boundary between nonzero fields 2 and 3, the last field
@example(case=([VarId("x", i, 0, 0) for i in range(60)], 255,
               {(_x(2, 1), _x(7, 255)): 3, (_x(2, 5), _x(3, 1)): -2,
                (_x(59, 255),): 1, (): 4, (_x(0, 1),): 0}),
         high=2 ** 70)
def test_pack_then_unpack_is_the_identity(case, high):
    # unpack drops zero coefficients, ignores the degree field, and every
    # other term comes back with its key and coefficient; the keys span one
    # int digit or many, so both the whole and the chunked decode run
    variables, bound, terms = case
    fields = _Packing(variables, bound)
    packed = [(k + (high << fields.top), c) for k, c in fields.pack(terms)]
    out = fields.unpack(packed, None)
    assert out.trunc is None
    assert out.terms == {k: c for k, c in terms.items() if c}


# ---------------------------------------------------------------- substitution

def test_substitute_identity():
    f = T(0, 1, 1) * T(0, 2, 2) - T(0, 1, 2) ** 2
    sigma = {v: MultiPoly.var(v) for v in f.variables()}
    assert substitute(f, sigma) == f


def test_substitute_to_zero():
    f = T(0, 1, 1) * T(0, 2, 2)
    sigma = {VarId("T", 0, 1, 1): MultiPoly.constant(0),
             VarId("T", 0, 2, 2): MultiPoly.var(VarId("T", 0, 2, 2))}
    assert not substitute(f, sigma)


def test_substitute_unbound_variable():
    f = T(0, 1, 1) + T(0, 2, 2)
    with pytest.raises(KeyError):
        substitute(f, {VarId("T", 0, 1, 1): MultiPoly.constant(0)})


def _reference_substitute(f, sigma, D=None):
    """The term images, each from pairwise products, added up one by one."""
    trunc = D if D is not None else f.trunc
    total = MultiPoly({}, trunc)
    for key, coeff in f.terms.items():
        term = MultiPoly({(): coeff}, trunc)
        for v, e in key:
            img = MultiPoly(sigma[v].terms,
                            MultiPoly._combine_trunc(trunc, sigma[v].trunc))
            term = _reference_mul(term, _reference_pow(img, e))
        total = _reference_add(total, term)
    return total


def test_substitute_term_images_cancel_across_terms():
    # x + y with x -> u + w, y -> -u leaves w; x - y with x, y -> u is 0,
    # over the integers and mod 9.  An int coefficient of f stays an int
    # where the images vanish or cancel before it: 1 + 3x and 3x + 1 with
    # x -> 3 mod 9, and x - y + 1 with x, y -> 1/1, are the int 1
    x, y, u, w = (VarId("v", level, 0, 0) for level in range(4))

    def linear(*pairs):
        return MultiPoly({((v, 1),): c for v, c in pairs})

    cases = []
    for one in (1, TruncatedPadic(3, 2, 1)):
        cases += [(linear((x, one), (y, one)),
                   {x: linear((u, one), (w, one)), y: linear((u, -one))},
                   linear((w, one * one))),
                  (linear((x, one), (y, -one)),
                   {x: linear((u, one)), y: linear((u, one))}, MultiPoly())]
    nine = {x: MultiPoly.constant(TruncatedPadic(3, 2, 3))}
    rational = {v: MultiPoly.constant(Fraction(1)) for v in (x, y)}
    for terms, sigma in (({(): 1, ((x, 1),): 3}, nine),
                         ({((x, 1),): 3, (): 1}, nine),
                         ({((x, 1),): 1, ((y, 1),): -1, (): 1}, rational)):
        cases.append((MultiPoly(terms), sigma, MultiPoly.constant(1)))
    for f, sigma, want in cases:
        got = substitute(f, sigma)
        _same(got, _reference_substitute(f, sigma))
        _same(got, want)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data(), kinds=st.sampled_from([
    ("int", "int"), ("int", "rat"), ("rat", "rat"), ("rat", "int"),
    ("int", "padic"), ("padic", "int"), ("padic", "padic")]))
def test_substitute_matches_termwise_reference(data, kinds):
    f = data.draw(_coeff_polys(kinds[0], max_size=6))
    sigma = {v: data.draw(_coeff_polys(kinds[1], max_exp=1, max_size=3))
             for v in _RING_VARS}
    D = data.draw(st.none() | st.integers(0, 6))
    _same(substitute(f, sigma, D), _reference_substitute(f, sigma, D))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data(), kinds=st.sampled_from([("rat", "padic"),
                                             ("padic", "rat")]))
def test_substitute_raises_exactly_when_the_inputs_mix_domains(data, kinds):
    f = data.draw(_coeff_polys(kinds[0], max_size=6))
    sigma = {v: data.draw(_coeff_polys(kinds[1], max_exp=1, max_size=3))
             for v in _RING_VARS}
    D = data.draw(st.none() | st.integers(0, 6))
    trunc = D if D is not None else f.trunc
    images = [sigma[v] if trunc is None else sigma[v].truncate(trunc)
              for v in f.variables()]
    if len({type(c) for p in [f, *images] for c in p.terms.values()}) > 1:
        with pytest.raises(DomainMismatch):
            substitute(f, sigma, D)
    else:
        _same(substitute(f, sigma, D), _reference_substitute(f, sigma, D))


_AS_KIND = {"int": int, "rat": Fraction,
            "padic": lambda c: TruncatedPadic(3, 2, c)}


def _lift_images(f, p):
    """v -> v^p + p v' for every variable v of f, v' one level up."""
    return {v: MultiPoly({((v, p),): 1,
                          ((VarId(v.family, v.level + 1, v.i, v.j), 1),): p})
            for v in f.variables()}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data(), kind=st.sampled_from(["int", "rat", "padic"]),
       p=st.sampled_from([2, 3, 5, 7]), D=st.none() | st.integers(0, 12))
def test_substitute_of_a_series_by_two_term_images(data, kind, p, D):
    # a one-variable series in the shape of log(1 + x), exponents up to 12,
    # under x -> x^p + p x': the fields must hold 12 p
    coeffs = data.draw(st.lists(_COEFFS[kind], min_size=1, max_size=12))
    f = MultiPoly({((_X, n),): c for n, c in enumerate(coeffs, 1)},
                  data.draw(st.none() | st.integers(0, 12)))
    sigma = _lift_images(f, p)
    if data.draw(st.booleans()):
        sigma = {v: img.map_coeffs(_AS_KIND[kind]) for v, img in sigma.items()}
    _same(substitute(f, sigma, D), _reference_substitute(f, sigma, D))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_twice_lifted_log_series_matches_termwise_reference(p):
    L = _lifts(p, 12, 0)[0]
    once = frobenius_lift(L, p)
    _same(once, _reference_substitute(L, _lift_images(L, p)))
    _same(frobenius_lift(once, p),
          _reference_substitute(once, _lift_images(once, p)))


def test_substitute_images_with_different_bounds():
    x, y = VarId("T", 0, 1, 1), VarId("T", 0, 2, 2)
    u, w = T(1, 1, 1), T(1, 2, 2)
    f = MultiPoly.var(x) ** 3 + MultiPoly.var(y) + MultiPoly.var(x)
    sigma = {x: (u + w * 2).truncate(5), y: (u * u - w).truncate(2)}
    got = substitute(f, sigma)
    _same(got, _reference_substitute(f, sigma))
    assert got.trunc == 2


@settings(derandomize=True, deadline=None, max_examples=200)
@given(f=_coeff_polys("int", max_size=6),
       images=st.lists(_coeff_polys("int", max_exp=1, max_size=3),
                       min_size=len(_RING_VARS), max_size=len(_RING_VARS)),
       D=st.none() | st.integers(0, 6))
# a cap above the image's bound: x^3 under x -> u, bounded at 2, is 0
@example(f=MultiPoly.var(_RING_VARS[0]) ** 3,
         images=[T(1, 1, 1).truncate(2)] * len(_RING_VARS), D=5)
def test_substitute_bound_never_exceeds_an_image_bound(f, images, D):
    sigma = dict(zip(_RING_VARS, images))
    got = substitute(f, sigma, D)
    for v in f.variables():
        if sigma[v].trunc is not None:
            assert got.trunc is not None and got.trunc <= sigma[v].trunc
    if D is not None:
        assert got.trunc <= D


def test_truncate_keeps_a_lower_bound():
    u = T(1, 1, 1)
    assert u.truncate(2).truncate(5).trunc == 2
    assert u.truncate(5).truncate(2).trunc == 2
    assert u.truncate(3).trunc == 3


def test_det_invariant_under_unimodular_congruence():
    # T -> Lam T Lam^t with Lam = diag(2, 1/2): det unchanged since det Lam = 1.
    det = T(0, 1, 1) * T(0, 2, 2) - T(0, 1, 2) ** 2
    lam = [Fraction(2), Fraction(1, 2)]
    sigma = {
        VarId("T", 0, 1, 1): Tvar(0, 1, 1) * (lam[0] * lam[0]),
        VarId("T", 0, 2, 2): Tvar(0, 2, 2) * (lam[1] * lam[1]),
        VarId("T", 0, 1, 2): Tvar(0, 1, 2) * (lam[0] * lam[1]),
    }
    assert substitute(det, sigma) == det.map_coeffs(Fraction)


# ---------------------------------------------------------------- components

def test_homogeneous_component_constant():
    f = MultiPoly.constant(1) + T(0, 1, 1)
    assert homogeneous_component(f, 0) == MultiPoly.constant(1)
    assert homogeneous_component(f, 1) == T(0, 1, 1)


def test_homogeneous_det_is_homogeneous():
    det = T(0, 1, 1) * T(0, 2, 2) - T(0, 1, 2) ** 2
    assert homogeneous_component(det, 2) == det
    assert not homogeneous_component(det, 1)


def test_components_partition():
    rng = random.Random(55)
    f = MultiPoly.constant(3)
    for _ in range(6):
        t = MultiPoly.constant(rng.randrange(-4, 5))
        for _ in range(rng.randrange(1, 4)):
            t = t * T(rng.randrange(2), 1, rng.randrange(1, 3))
        f = f + t
    total = MultiPoly.constant(0)
    for d in range(f.degree() + 1):
        total = total + homogeneous_component(f, d)
    assert total == f


# ---------------------------------------------------------------- matrices

def _sympy_of(mp, syms):
    expr = sympy.Integer(0)
    for key, coeff in mp.terms.items():
        term = sympy.Rational(coeff) if isinstance(coeff, Fraction) else sympy.Integer(coeff)
        for vid, e in key:
            term *= syms[vid] ** e
        expr += term
    return sympy.expand(expr)


def test_det_identity_and_diag():
    assert _det_rows(_identity(3)) == MultiPoly.constant(1)
    d = [[T(0, 1, 1), MultiPoly.constant(0)],
         [MultiPoly.constant(0), T(0, 2, 2)]]
    assert _det_rows(d) == T(0, 1, 1) * T(0, 2, 2)


def test_det_generic_symmetric_2x2():
    M = generic_sym_matrix(2, 0)
    assert _det_rows(M) == T(0, 1, 1) * T(0, 2, 2) - T(0, 1, 2) ** 2


def test_det_against_sympy():
    for g in (2, 3, 4):
        M = generic_sym_matrix(g, 0)
        det = _det_rows(M)
        syms = {v: sympy.Symbol(var_name(v)) for v in det.variables()}
        ours = _sympy_of(det, syms)
        smat = sympy.Matrix(g, g, lambda i, j: syms[VarId("T", 0, min(i, j) + 1, max(i, j) + 1)])
        assert sympy.expand(ours - smat.det()) == 0


def _sympy_scalar(x):
    return sympy.Rational(x.numerator, x.denominator)


def _rand_scalar_rows(rng, n, fraction):
    # about a third of the entries are zero, so zero-skipping is exercised
    def entry():
        a = rng.randrange(-4, 5) if rng.random() < 0.7 else 0
        return Fraction(a, rng.randrange(1, 4)) if fraction else a
    return [[entry() for _ in range(n)] for _ in range(n)]


def test_det_rows_scalars_against_sympy():
    rng = random.Random(606)
    for fraction in (False, True):
        for n in range(7):
            for _ in range(3):
                rows = _rand_scalar_rows(rng, n, fraction)
                got = _det_rows(rows)
                oracle = sympy.Matrix(n, n, [_sympy_scalar(x) for r in rows
                                             for x in r]).det()
                assert _sympy_scalar(got) == oracle
                if n:
                    assert type(got) is (Fraction if fraction else int)


def test_det_rows_polys_against_sympy():
    rng = random.Random(607)
    gens = [T(0, 1, 1), T(0, 1, 2), T(1, 2, 2)]
    syms = {next(iter(v.variables())): sympy.Symbol(f"x{k}")
            for k, v in enumerate(gens)}
    for n in range(1, 7):
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                e = MultiPoly.constant(rng.randrange(-2, 3))
                for v in gens:
                    if rng.random() < 0.4:
                        e = e + v * rng.randrange(-2, 3)
                row.append(e)
            rows.append(row)
        got = _det_rows(rows)
        assert isinstance(got, MultiPoly)
        smat = sympy.Matrix(n, n, [_sympy_of(e, syms) for r in rows for e in r])
        dm = DomainMatrix.from_Matrix(smat)
        oracle = dm.domain.to_sympy(dm.det())
        assert sympy.expand(_sympy_of(got, syms) - oracle) == 0


def test_bool_is_nonzero():
    assert bool(MultiPoly.constant(0)) is False
    assert bool(MultiPoly.constant(Fraction(0))) is False
    assert bool(T(0, 1, 1) - T(0, 1, 1)) is False
    assert bool(T(0, 1, 1)) is True
    assert bool(MultiPoly.constant(-1)) is True


def test_polynomials_and_matrices_are_unhashable():
    # equality is ring equality under sticky truncation, which no hash of
    # the stored coefficients can agree with
    a = MultiPoly.constant(1)
    b = MultiPoly.constant(TruncatedPadic(3, 2, 1))
    assert a == b
    for value in (a, b, _identity(2), generic_sym_matrix(2, 0)):
        with pytest.raises(TypeError):
            hash(value)


def test_scalar_kernels_keep_the_entry_type():
    assert adjugate([[7]]) == [[1]]
    assert type(adjugate([[7]])[0][0]) is int
    M = [[Fraction(1, 2), 1], [3, 4]]
    coeffs = [charpoly_coeff(M, j) for j in range(3)]
    assert coeffs == [1, Fraction(9, 2), -1]
    assert all(type(c) is Fraction for c in coeffs)
    assert wedge_power([[1, 2, 0], [0, 1, 3], [4, 0, 1]], 2)[0] == [1, 3, 6]


def test_adjugate_small():
    assert adjugate(_identity(2))[0][0] == MultiPoly.constant(1)
    a, b = T(0, 1, 1), T(0, 1, 2)
    c, d = T(1, 1, 2), T(0, 2, 2)
    M = [[a, b], [c, d]]
    adj = adjugate(M)
    assert adj[0][0] == d and adj[1][1] == a
    assert adj[0][1] == b * (-1) and adj[1][0] == c * (-1)


def test_adjugate_identity_law():
    rng = random.Random(9)
    for g in (2, 3, 4):
        M = generic_sym_matrix(g, 0)
        prod = _mat_mul(M, adjugate(M))
        det = _det_rows(M)
        for i in range(1, g + 1):
            for j in range(1, g + 1):
                expect = det if i == j else MultiPoly.constant(0)
                assert prod[i - 1][j - 1] == expect


# ---------------------------------------------------------------- matrix products

def _triple_loop(A, B):
    out = []
    for i in range(len(A)):
        row = []
        for j in range(len(B[0])):
            acc = A[i][0] * B[0][j]
            for k in range(1, len(B)):
                acc = acc + A[i][k] * B[k][j]
            row.append(acc)
        out.append(row)
    return out


@pytest.mark.parametrize("entry", [
    lambda rng: rng.randrange(-9, 10),
    lambda rng: Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)),
    lambda rng: TruncatedPadic(3, 4, rng.randrange(81)),
    lambda rng: T(rng.randrange(2), 1, rng.randrange(1, 3))
    * rng.randrange(-3, 4) + rng.randrange(-3, 4),
], ids=["int", "Fraction", "TruncatedPadic", "MultiPoly"])
def test_mat_mul_against_triple_loop(entry):
    rng = random.Random(4)
    for _ in range(10):
        m, k, n = (rng.randrange(1, 4) for _ in range(3))
        A = [[entry(rng) for _ in range(k)] for _ in range(m)]
        B = [[entry(rng) for _ in range(n)] for _ in range(k)]
        C = _mat_mul(A, B)
        assert len(C) == m and all(len(row) == n for row in C)
        assert C == _triple_loop(A, B)


def test_alternating_product_against_hand_products():
    rng = random.Random(12)

    def mm(*Ms):
        rows = Ms[0]
        for M in Ms[1:]:
            rows = _triple_loop(rows, M)
        return rows

    for g in (1, 2, 3):
        numeric = [[[rng.randrange(-5, 6) for _ in range(g)]
                    for _ in range(g)] for _ in range(4)]
        symbolic = [generic_sym_matrix(g, level) for level in range(4)]
        for F0, F1, F2, F3 in (numeric, symbolic):
            adj = adjugate
            assert alternating_product([F0]) == F0
            assert alternating_product([F0, F1]) == mm(F0, adj(F1))
            assert alternating_product([F0, F1, F2]) == mm(F0, adj(F1), F2)
            assert alternating_product([F0, F1, F2, F3]) == \
                mm(F0, adj(F1), F2, adj(F3))


def test_charpoly_conventions():
    g = 3
    M = generic_sym_matrix(g, 0)
    cs = [charpoly_coeff(M, j) for j in range(g + 1)]
    assert cs[0] == MultiPoly.constant(1)
    trace = T(0, 1, 1) + T(0, 2, 2) + T(0, 3, 3)
    assert cs[1] == trace
    assert cs[g] == _det_rows(M)
    # identity matrix: det(t 1 - 1) = (t-1)^g, so c_j = binomial(g, j)
    from math import comb
    for g2 in (2, 3, 4):
        cs2 = [charpoly_coeff(_identity(g2), j) for j in range(g2 + 1)]
        assert [c.constant_value() for c in cs2] == [comb(g2, j) for j in range(g2 + 1)]


@pytest.mark.parametrize("entry", [
    lambda rng: rng.randrange(-9, 10),
    lambda rng: Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)),
], ids=["int", "Fraction"])
def test_charpoly_coeff_against_sympy(entry):
    rng = random.Random(16)
    for g in (1, 2, 3, 4, 5):
        for _ in range(3):
            rows = [[entry(rng) for _ in range(g)] for _ in range(g)]
            # det(t - M) = sum_j (-1)^j c_j t^(g - j)
            expect = sympy.Matrix(rows).charpoly().all_coeffs()
            for j in range(g + 1):
                c = charpoly_coeff(rows, j)
                assert type(c) is type(rows[0][0])
                assert c == (-1) ** j * expect[j]


def test_cayley_hamilton_numeric():
    rng = random.Random(13)
    for g in (2, 3, 4):
        M = [[MultiPoly.constant(rng.randrange(-5, 6)) for _ in range(g)]
             for _ in range(g)]
        cs = [charpoly_coeff(M, j) for j in range(g + 1)]
        acc = [[0] * g for _ in range(g)]
        for j in range(g + 1):
            term = _identity(g)
            for _ in range(g - j):
                term = _mat_mul(term, M)
            c = MultiPoly.constant((-1) ** j) * cs[j]
            acc = [[a + e * c for a, e in zip(r1, r2)]
                   for r1, r2 in zip(acc, term)]
        for i in range(1, g + 1):
            for j in range(1, g + 1):
                assert not acc[i - 1][j - 1]


def test_wedge_basics():
    from math import comb
    for g, q in ((3, 1), (3, 2), (4, 2)):
        W = wedge_power(_identity(g), q)
        assert len(W) == comb(g, q)
        for i in range(1, len(W) + 1):
            for j in range(1, len(W) + 1):
                expect = MultiPoly.constant(1 if i == j else 0)
                assert W[i - 1][j - 1] == expect


def test_wedge_diagonal():
    lam = [2, 3, 5]
    D = [[MultiPoly.constant(lam[i] if i == j else 0) for j in range(3)]
         for i in range(3)]
    W = wedge_power(D, 2)
    # lexicographic pairs (1,2), (1,3), (2,3)
    expect = [2 * 3, 2 * 5, 3 * 5]
    for i in range(1, 4):
        assert W[i - 1][i - 1].constant_value() == expect[i - 1]


def test_wedge_multiplicative():
    rng = random.Random(31)
    for _ in range(5):
        A = [[MultiPoly.constant(rng.randrange(-3, 4)) for _ in range(3)]
             for _ in range(3)]
        B = [[MultiPoly.constant(rng.randrange(-3, 4)) for _ in range(3)]
             for _ in range(3)]
        lhs = wedge_power(_mat_mul(A, B), 2)
        rhs = _mat_mul(wedge_power(A, 2), wedge_power(B, 2))
        for i in range(1, 4):
            for j in range(1, 4):
                assert lhs[i - 1][j - 1] == rhs[i - 1][j - 1]


def test_wedge_bad_q():
    for q in (3, 0):
        with pytest.raises(ValueError, match=r"^exterior power order must be "
                           rf"in \[1, 2\], got {q}$"):
            wedge_power(_identity(3), q)


# ---------------------------------------------------------------- serialization

def test_serialization_is_deterministic_and_named():
    f = T(1, 1, 2) * T(0, 1, 1) + T(0, 1, 1) * 2
    text = _document({"polynomial": f})
    assert text == _document({"polynomial": f})
    rec = json.loads(text)["polynomial"]
    names = {n for term in rec for n in term if n != "coefficient"}
    assert names == {"T0_11", "T1_12"}


def test_symmetric_alias():
    M = generic_sym_matrix(2, 0)
    assert M[1][0] == M[0][1]
    assert Tvar(0, 2, 1) == Tvar(0, 1, 2)
