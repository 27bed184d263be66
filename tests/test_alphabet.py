import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psmc.alphabet import (
    Polynomial,
    field_of_order,
    format_poly,
    make_field,
    poly_pretty,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def brute_order(field, a):
    """Multiplicative order by exhaustive powering, independent of Alphabet.pow."""
    acc = a
    for k in range(1, field.q):
        if acc == 1:
            return k
        acc = field.mul(acc, a)
    raise AssertionError("no order found")


def int_conv(a, b, q):
    """Schoolbook integer convolution mod q (hand-multiplication oracle)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_gf3_prime_field():
    f = make_field(3)
    assert f.q == 3 and f.p == 3 and f.m == 1


def test_gf2_trivial():
    f = make_field(2)
    assert f.q == 2
    assert f.add(1, 1) == 0


def test_gf9_primitive_order_eight():
    f = make_field(3, 2)
    assert f.q == 9
    assert brute_order(f, f.primitive) == 8


def test_gf9_modulus_is_smallest_irreducible():
    # Enumeration oracle: x^2 (v=0) has root 0, so x^2 + 1 (v=1) must win.
    f = make_field(3, 2)
    assert f.modulus.coeffs == (1, 0, 1)
    gf3 = make_field(3)
    for e in range(3):
        assert Polynomial(gf3, (1, 0, 1))(e) != 0


def _candidates(p, m):
    """Monic degree-m polynomials over GF(p) in the documented order: by the
    base-p integer of the non-leading coefficients, constant term lowest."""
    gf = make_field(p)
    for v in range(p ** m):
        yield Polynomial(gf, [v // p ** i % p for i in range(m)] + [1])


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5, 7) for m in range(2, 10) if p ** m <= 729])
def test_modulus_is_first_candidate_without_a_small_factor(p, m):
    # Oracle independent of the Rabin test: trial division by every monic
    # polynomial of degree 1..m/2.
    divisors = [d for k in range(1, m // 2 + 1) for d in _candidates(p, k)]
    first = next(f for f in _candidates(p, m) if all(not (f % d).is_zero for d in divisors))
    assert make_field(p, m).modulus == first


def test_canonical_binary_moduli():
    # Deterministic rule reproduces the usual textbook choices.
    assert make_field(2, 2).modulus.coeffs == (1, 1, 1)
    assert make_field(2, 3).modulus.coeffs == (1, 1, 0, 1)
    assert make_field(2, 4).modulus.coeffs == (1, 1, 0, 0, 1)
    assert make_field(2, 5).modulus.coeffs == (1, 0, 1, 0, 0, 1)


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(6)
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(3, 0)
    with pytest.raises(ValueError):
        make_field(2, 21)  # 2^21 > 2^20 bound


def test_make_field_supports_2_pow_20():
    f = make_field(2, 20)
    assert f.q == 1 << 20
    a, b = 123456, 654321
    ab = f.mul(a, b)
    assert f.mul(ab, f.inv(b)) == a


def test_field_of_order():
    assert field_of_order(9) is make_field(3, 2)
    assert field_of_order(7) is make_field(7)
    assert field_of_order(1 << 11) is make_field(2, 11)
    for q in (-4, 0, 1, 6, 12, 100):
        with pytest.raises(ValueError, match="prime power"):
            field_of_order(q)
    with pytest.raises(ValueError):
        field_of_order(1 << 21)


def test_alphabets_are_cached():
    assert make_field(3, 2) is make_field(3, 2)


# ---------------------------------------------------------------------------
# field axioms
# ---------------------------------------------------------------------------

AXIOM_FIELDS = [make_field(7), make_field(2, 3), make_field(3, 2), make_field(3, 3)]


@pytest.mark.parametrize("f", AXIOM_FIELDS, ids=repr)
def test_field_axioms_exhaustive(f):
    add, mul = f.add_table(), f.mul_table()
    q = f.q
    for c in range(q):
        assert np.array_equal(add[add, c], add[:, add[:, c]]), "add associativity"
        assert np.array_equal(mul[mul, c], mul[:, mul[:, c]]), "mul associativity"
        assert np.array_equal(mul[add, c], add[mul[:, c][:, None], mul[:, c][None, :]]), "distributivity"
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, q - 1) == 1


def test_field_axioms_exhaustive_gf512():
    # Largest exhaustive case; chunked over the third operand.
    f = make_field(2, 9)
    add, mul = f.add_table(), f.mul_table()
    for c in range(0, f.q, 37):
        assert np.array_equal(mul[add, c], add[mul[:, c][:, None], mul[:, c][None, :]])
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1


@given(st.integers(1, (1 << 13) - 1), st.integers(1, (1 << 13) - 1), st.integers(1, (1 << 13) - 1))
@settings(max_examples=200, deadline=None)
def test_field_axioms_sampled_gf8192(a, b, c):
    f = make_field(2, 13)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(a, f.inv(a)) == 1


# ---------------------------------------------------------------------------
# array arithmetic
# ---------------------------------------------------------------------------

def assert_array_ops_match_scalar(f, a, b):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert f.vadd(a, b).tolist() == [f.add(x, y) for x, y in pairs]
    assert f.vsub(a, b).tolist() == [f.sub(x, y) for x, y in pairs]
    assert f.vmul(a, b).tolist() == [f.mul(x, y) for x, y in pairs]
    assert f.vneg(a).tolist() == [f.neg(x) for x in a.tolist()]


@pytest.mark.parametrize("p,m", [(7, 1), (2, 3), (3, 2)], ids=["GF(7)", "GF(2^3)", "GF(3^2)"])
def test_array_ops_match_scalar_exhaustive(p, m):
    f = make_field(p, m)
    grid = np.indices((f.q, f.q)).reshape(2, -1)
    assert_array_ops_match_scalar(f, grid[0], grid[1])


@pytest.mark.parametrize("p,m", [(2, 11), (3, 7), (1009, 1)], ids=["GF(2^11)", "GF(3^7)", "GF(1009)"])
def test_array_ops_match_scalar_sampled(p, m):
    f = make_field(p, m)
    rng = np.random.default_rng(2048)
    a, b = rng.integers(0, f.q, size=(2, 3000))
    a[:5] = 0  # products and sums with zero
    b[5:10] = 0
    assert_array_ops_match_scalar(f, a, b)


def test_matmul_matches_scalar_dot_products():
    rng = np.random.default_rng(3)
    for f in (make_field(5), make_field(2, 4), make_field(3, 3), make_field(2, 11)):
        a = rng.integers(0, f.q, size=(3, 4))
        b = rng.integers(0, f.q, size=(4, 5))
        for i in range(3):
            for j in range(5):
                acc = 0
                for t in range(4):
                    acc = f.add(acc, f.mul(int(a[i, t]), int(b[t, j])))
                assert f.matmul(a, b)[i, j] == acc


def test_array_mul_above_2_pow_16_is_refused():
    f = make_field(2, 17)
    assert f.vadd(np.array([3]), np.array([5])).tolist() == [6]
    with pytest.raises(ValueError, match="65536"):
        f.vmul(np.array([3]), np.array([5]))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_hand_multiplication():
    gf3 = make_field(3)
    a = Polynomial(gf3, (2, 1))  # x + 2
    b = Polynomial(gf3, (1, 1))  # x + 1
    assert (a * b).coeffs == int_conv((2, 1), (1, 1), 3)
    assert (a * b).coeffs == (2, 0, 1)  # x^2 + 2


def test_poly_divmod_x8_minus_1():
    gf3 = make_field(3)
    x8m1 = Polynomial(gf3, (-1 % 3,) + (0,) * 7 + (1,))
    xm1 = Polynomial(gf3, (-1 % 3, 1))
    quot, rem = divmod(x8m1, xm1)
    assert quot.coeffs == (1,) * 8  # 1 + x + ... + x^7
    assert rem.is_zero


def test_poly_eval():
    gf3 = make_field(3)
    p = Polynomial(gf3, (1, 0, 1))  # x^2 + 1
    assert p(0) == 1
    assert p(1) == 2
    assert p(2) == 2


def test_poly_degree_and_normalization():
    gf3 = make_field(3)
    assert Polynomial(gf3, (1, 2, 0, 0)).coeffs == (1, 2)
    assert Polynomial(gf3).degree == -math.inf
    assert Polynomial(gf3, (0, 0)).is_zero
    assert Polynomial.one(gf3).degree == 0


def test_poly_alphabet_mismatch():
    a = Polynomial(make_field(3), (1,))
    b = Polynomial(make_field(5), (1,))
    with pytest.raises(ValueError):
        a + b


def test_poly_division_by_zero():
    gf3 = make_field(3)
    with pytest.raises(ZeroDivisionError):
        divmod(Polynomial.one(gf3), Polynomial(gf3))


@st.composite
def polys(draw, *max_degs):
    """Polynomials of at most the given degrees over one field, GF(3) or GF(9)."""
    f = draw(st.sampled_from([make_field(3), make_field(3, 2)]))
    return [Polynomial(f, draw(st.lists(st.integers(0, f.q - 1), max_size=d + 1))) for d in max_degs]


@given(polys(8, 8))
@settings(max_examples=300, deadline=None)
def test_poly_divmod_roundtrip(ab):
    a, b = ab
    if b.is_zero:
        return
    quot, rem = divmod(a, b)
    assert quot * b + rem == a
    assert rem.degree < b.degree


def test_poly_over_extension_field():
    gf9 = make_field(3, 2)
    x = Polynomial(gf9, (0, 1))
    alpha = gf9.primitive
    p = (x - Polynomial(gf9, (alpha,))) * (x - Polynomial(gf9, (gf9.pow(alpha, 3),)))
    assert p(alpha) == 0 and p(gf9.pow(alpha, 3)) == 0
    assert p(1) != 0


# ---------------------------------------------------------------------------
# textual syntax
# ---------------------------------------------------------------------------

def test_parse_format_roundtrip():
    gf3 = make_field(3)
    assert format_poly(Polynomial(gf3, (2, 1))) == "2,1"
    assert format_poly(Polynomial(gf3)) == "0"


def test_poly_pretty():
    gf3 = make_field(3)
    assert poly_pretty(Polynomial(gf3, (2, 1))) == "x + 2"
    assert poly_pretty(Polynomial(gf3, (2, 2, 0, 1))) == "x^3 + 2x + 2"
    assert poly_pretty(Polynomial(gf3)) == "0"


def test_random_element_order_divides_group_order():
    rng = random.Random(7)
    f = make_field(3, 3)
    for _ in range(20):
        a = rng.randrange(1, f.q)
        assert (f.q - 1) % f.element_order(a) == 0
        assert f.element_order(a) == brute_order(f, a)
