import hashlib
import math
import random
import re
import time
from functools import reduce
from itertools import zip_longest
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import psmc.alphabet
from psmc.alphabet import (
    BudgetExceeded,
    Polynomial,
    _pdivmod,
    _pgcd,
    _pmul,
    _pprod,
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


@pytest.mark.parametrize(
    "p,m", [(p, m) for p in (2, 3, 5, 7, 11, 13) for m in range(2, 13) if p ** m <= 4096]
)
def test_modulus_is_first_candidate_without_a_small_factor(p, m):
    # Oracle independent of Ben-Or's test: trial division by every monic
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


# (modulus, primitive element, sha256 of repr(_tables)) of every extension
# field with p <= 13 and q <= 2^20; fields above 2^16 have no tables.
BOOTSTRAP_PINS = {
    (2, 2): ((1, 1, 1), 2,
             "fc0e82ee9bfd0514628565b4d5ea75b30e0ca0da9de26ae914541cae687b4829"),
    (2, 3): ((1, 1, 0, 1), 2,
             "a57351b17ea7efb15d531711905f1fd5eb0d0782b8e9f5ce110333be0946c926"),
    (2, 4): ((1, 1, 0, 0, 1), 2,
             "9391506b6e46d20c84d0bb730fae486d3ae0bf2deb8479ff69bc1ba7859b257b"),
    (2, 5): ((1, 0, 1, 0, 0, 1), 2,
             "a3f0a82fa049c92fa1f569f82b896a2804746f955a48e3eadce6ef801e67400a"),
    (2, 6): ((1, 1, 0, 0, 0, 0, 1), 2,
             "5659f9b7863034f9f8e2280a2a32c146735d1d0ab65d4275c7387ebebc38168e"),
    (2, 7): ((1, 1, 0, 0, 0, 0, 0, 1), 2,
             "ff4de26b91f64c1f2484e9e256f71997a789394ca4b677b590974a5688e02797"),
    (2, 8): ((1, 1, 0, 1, 1, 0, 0, 0, 1), 3,
             "f06ae3277eddb501a7c0ec789d08a3f7bf23c97b4e15017df0ceb4ddbd8fff7f"),
    (2, 9): ((1, 1, 0, 0, 0, 0, 0, 0, 0, 1), 7,
             "b5d8e04609db8943490c42c835e1a06721a473be7b2ee1191d895bff674bbb11"),
    (2, 10): ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), 2,
              "38572052f7b735fcae0e78f37874b5a8238dc10951aedb80ebc89afc0839d8f7"),
    (2, 11): ((1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2,
              "af06accd5b4539a550f8414335829578bb52d468263ba1ea343f5a41838d1859"),
    (2, 12): ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 3,
              "1997a4015be58bd2eea3b9414ebcf8163b1c28e6156dacc67ea2c8da413d311e"),
    (2, 13): ((1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2,
              "768303f77bb82397093195726bd4d96a0e3904d1e3c9ac04194e6ec1cbf4aa4a"),
    (2, 14): ((1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 7,
              "885871fff611f6584751ade217d53850853302c0ca0668454a07a57a65947e00"),
    (2, 15): ((1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2,
              "d6b1c03d5f4310476eec82f38643df39086859abb7cb98cdc0ccdc4507dcbdbb"),
    (2, 16): ((1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 3,
              "e696b56bb18d2cdf5c89ec10b26e5fa4abcd28ce64990e7e47be9791bc8ec797"),
    (2, 17): ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2, None),
    (2, 18): ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 10, None),
    (2, 19): ((1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2, None),
    (2, 20): ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2, None),
    (3, 2): ((1, 0, 1), 4,
             "231f938b670f5d1a611cc85d95503017d4eba86e2e50ae2713c8c0834c28d630"),
    (3, 3): ((1, 2, 0, 1), 3,
             "591c1eab7152f0f77e812cdaee731ba4449e5f37de0b766befd9469d76457411"),
    (3, 4): ((2, 1, 0, 0, 1), 3,
             "e4fe7075930823bee03c391c826c04db1863b2d7db13a6e335e7cef37540c1f7"),
    (3, 5): ((1, 2, 0, 0, 0, 1), 3,
             "a7ad5e04dca4cd913e073723958d9d018bba0a526779ee7f98d59a07bc8be319"),
    (3, 6): ((2, 1, 0, 0, 0, 0, 1), 3,
             "be14635b031e280697546b1aa9b31f3091d5aec65627a20a4ef7c32c2f019861"),
    (3, 7): ((2, 0, 1, 0, 0, 0, 0, 1), 5,
             "f5547572da8d97824fffa31a857c97fbb451454c61624df2b7b31fe46bd0897e"),
    (3, 8): ((2, 0, 1, 0, 0, 0, 0, 0, 1), 38,
             "aa704dd05466a4632d2033bbfd72056313a54650cf659b7d0bc1575563edc499"),
    (3, 9): ((1, 0, 1, 2, 0, 0, 0, 0, 0, 1), 3,
             "c5e15da03cd7358a903bbb7413111fcc26d50313127e7d1e1ff1d9a756cd6011"),
    (3, 10): ((1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1), 34,
              "925dd52ce43e091beddc34b64ae979840d6b9beb8bcf1e7dd260742e31dd2bd7"),
    (3, 11): ((2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 5, None),
    (3, 12): ((2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 14, None),
    (5, 2): ((2, 0, 1), 6,
             "551e179e4089531974e539bf376f96a5d5f0663b7f5982ed9c93172dabbf003d"),
    (5, 3): ((1, 1, 0, 1), 9,
             "e2dd0f25b81e8ba8b83964225fc885a7f8909c76c12ef25a92bef2979ebb841f"),
    (5, 4): ((2, 0, 0, 0, 1), 6,
             "8e37719fbaee013b057cf0fe95dc2e0b797eb341e95d0a3569e91d88a46d0e03"),
    (5, 5): ((1, 4, 0, 0, 0, 1), 10,
             "b15b750071c11fa656f8b72e34001d28358804ca8192b8e3e839301af33824a7"),
    (5, 6): ((2, 1, 0, 0, 0, 0, 1), 5,
             "037a8e8ab757e9b81834bd4c0e226475e4f2f8844aaf9bea6ec35f194868b863"),
    (5, 7): ((1, 1, 0, 0, 0, 0, 0, 1), 9, None),
    (5, 8): ((2, 0, 0, 0, 0, 0, 0, 0, 1), 6, None),
    (7, 2): ((1, 0, 1), 9,
             "316fb94acd8deca640e994c8463a9e9ce076638d5c5691fb8a583a26549440da"),
    (7, 3): ((2, 0, 0, 1), 22,
             "5653a0a489bb950b2d7ad135e3a20108d7c4fce1905ecfa0078c6a86c767584b"),
    (7, 4): ((1, 1, 0, 0, 1), 12,
             "ac5b0268f0213748294702636f527039e0df36e15e86931f249059ec6b4a550a"),
    (7, 5): ((3, 1, 0, 0, 0, 1), 9,
             "85928015ee8188d29e02d735ac20a477085e32efbe44715bdb39469bb7af1673"),
    (7, 6): ((2, 0, 0, 0, 0, 0, 1), 8, None),
    (7, 7): ((1, 6, 0, 0, 0, 0, 0, 1), 14, None),
    (11, 2): ((1, 0, 1), 15,
              "85dec61de9a774d5dcdfae2f9ba966f6d3e4ada8846474645fbd26e28e68b637"),
    (11, 3): ((4, 1, 0, 1), 11,
              "9846970ce6d83cbea0ca62ae6a199b5aaade391a8d1e80fd34b04d40de1e4503"),
    (11, 4): ((2, 1, 0, 0, 1), 11,
              "a37a2bf02028f7d4adc035deb1cb619f7a866bbbf0b79e43fa6dd942679c806a"),
    (11, 5): ((2, 0, 0, 0, 0, 1), 13, None),
    (13, 2): ((2, 0, 1), 15,
              "2dfbbacfd95a7da319bfa9076d01ac37201507df6684fa352420c7dfb817f11c"),
    (13, 3): ((2, 0, 0, 1), 15,
              "21c7b88a8a9be495fd01547faa6d84eefc6f90e7512d8d9b15c5a2516a0e65f4"),
    (13, 4): ((2, 0, 0, 0, 1), 17,
              "28ae2de6085dddffefec765d1cf69308e98bef683a61394b514b4826c4f03240"),
    (13, 5): ((2, 4, 0, 0, 0, 1), 13, None),
}


@pytest.mark.parametrize("p,m", sorted(BOOTSTRAP_PINS), ids=lambda v: str(v))
def test_bootstrap_matches_its_pins(p, m):
    # A fresh instance, so this test runs the bootstrap, not a cache.
    f = psmc.alphabet.Alphabet(p, m)
    modulus, primitive, digest = BOOTSTRAP_PINS[p, m]
    assert f.modulus.coeffs == modulus
    assert f.primitive == primitive
    if digest is None:
        assert p ** m > 1 << 16
    else:
        assert hashlib.sha256(repr(f._tables).encode()).hexdigest() == digest


@pytest.mark.parametrize("p,m", [(2, 16), (3, 10), (5, 6)], ids=["GF(2^16)", "GF(3^10)", "GF(5^6)"])
def test_table_products_match_the_table_free_path(p, m):
    f = make_field(p, m)
    rng = random.Random(p ** m)
    for _ in range(2000):
        a, b = rng.randrange(f.q), rng.randrange(1, f.q)
        assert f.mul(a, b) == f._ext_mul_raw(a, b)
        assert f._ext_mul_raw(b, f.inv(b)) == 1


def test_gf2_16_tables_take_well_under_a_second():
    # The best of three fresh builds, so a loaded runner cannot fail it alone.
    times = []
    for _ in range(3):
        start = time.perf_counter()
        psmc.alphabet.Alphabet(2, 16)._tables
        times.append(time.perf_counter() - start)
    assert min(times) < 0.5


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(6)
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(3, 0)
    with pytest.raises(BudgetExceeded):
        make_field(2, 21)  # 2^21 > 2^20 bound


def test_field_order_limits_are_budget_errors_raised_by_the_alphabet_module():
    # One class for every resource limit, defined with the field-order limits.
    import psmc
    import psmc.linear

    assert psmc.linear.BudgetExceeded is psmc.alphabet.BudgetExceeded is psmc.BudgetExceeded
    with pytest.raises(BudgetExceeded, match=r"^GF\(2\^21\) is above the supported order 2\^20$"):
        make_field(2, 21)
    with pytest.raises(BudgetExceeded, match=r"^GF\(1048583\) is above the supported order 2\^20$"):
        field_of_order(1048583)
    with pytest.raises(BudgetExceeded, match=r"^array arithmetic over GF\(2\^17\) needs order <= 65536$"):
        make_field(2, 17)._check_arrays()
    make_field(2, 16)._check_arrays()
    make_field(1048573)._check_arrays()  # prime fields need no exp/log arrays


def test_make_field_rejects_non_integer_orders():
    for p, m in ((5.0, 1), (3, 2.0)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            make_field(p, m)
    assert make_field(np.int64(5), np.int64(1)) is make_field(5)


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
    with pytest.raises(BudgetExceeded):
        field_of_order(1 << 21)


def test_alphabets_are_cached():
    assert make_field(3, 2) is make_field(3, 2)


def test_scalar_input_checks():
    gf7 = make_field(7)
    with pytest.raises(ZeroDivisionError, match=r"^0 has no multiplicative inverse$"):
        gf7.inv(0)
    with pytest.raises(ValueError, match=r"^0 has no multiplicative order$"):
        gf7.element_order(0)
    with pytest.raises(ValueError, match=r"^dense tables limited to q <= 1024$"):
        make_field(2, 11).add_table()
    with pytest.raises(ValueError, match=r"^symbol 7 out of range for GF\(7\)$"):
        gf7.check(7)
    for f in (gf7, make_field(2, 3), make_field(2, 17)):
        for a in (2, 3):
            for e in (1, 2, 5):
                assert f.mul(f.pow(a, -e), f.pow(a, e)) == 1


# ---------------------------------------------------------------------------
# field axioms
# ---------------------------------------------------------------------------

AXIOM_FIELDS = [make_field(7), make_field(2, 3), make_field(3, 2), make_field(3, 3)]


@pytest.mark.parametrize("f", AXIOM_FIELDS, ids=repr)
def test_field_axioms_exhaustive(f):
    idx = np.arange(f.q)
    add, mul = f.add_table(), f.vmul(idx[:, None], idx[None, :])
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
    idx = np.arange(f.q)
    add, mul = f.add_table(), f.vmul(idx[:, None], idx[None, :])
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

def digit_sum(f, x, y, sign):
    """x + sign * y on digit tuples (oracle independent of _digitwise)."""
    return f.from_digits(dx + sign * dy for dx, dy in zip(f.digits(x), f.digits(y)))


def assert_array_ops_match_scalar(f, a, b):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert f.add(a, b).tolist() == [f.add(x, y) for x, y in pairs]
    assert f.sub(a, b).tolist() == [f.sub(x, y) for x, y in pairs]
    assert f.vmul(a, b).tolist() == [f.mul(x, y) for x, y in pairs]
    assert f.neg(a).tolist() == [f.neg(x) for x in a.tolist()]
    # add, sub and neg return an int for ints and an int64 array of the
    # same shape for int64 arrays, 2-D ones included.
    x, y = pairs[-1]
    assert {type(f.add(x, y)), type(f.sub(x, y)), type(f.neg(x))} == {int}
    a2, b2 = a.reshape(-1, 1), b.reshape(-1, 1)
    for out in (f.add(a, b), f.sub(a, b), f.neg(a), f.add(a2, b2), f.sub(a2, b2), f.neg(a2)):
        assert isinstance(out, np.ndarray) and out.dtype == np.int64
    assert f.add(a2, b2).shape == f.sub(a2, b2).shape == f.neg(a2).shape == a2.shape
    if f.m > 1:
        # Symbols and arrays share one expression, so check both against
        # digit-tuple sums and the table-free product.
        assert f.add(a, b).tolist() == [digit_sum(f, x, y, 1) for x, y in pairs]
        assert f.sub(a, b).tolist() == [digit_sum(f, x, y, -1) for x, y in pairs]
        assert f.neg(a).tolist() == [digit_sum(f, 0, x, -1) for x in a.tolist()]
        assert f.vmul(a, b).tolist() == [f._ext_mul_raw(x, y) for x, y in pairs]


@pytest.mark.parametrize(
    "p,m", [(7, 1), (2, 3), (3, 2), (5, 1)], ids=["GF(7)", "GF(2^3)", "GF(3^2)", "GF(5)"]
)
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


def scalar_matmul(f, a, b):
    """Matrix product by scalar dot products (oracle for Alphabet.matmul)."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    cols = b.shape[1]
    a, b = a.tolist(), b.tolist()
    for i, row in enumerate(a):
        for j in range(cols):
            acc = 0
            for t, x in enumerate(row):
                acc = f.add(acc, f.mul(x, b[t][j]))
            out[i, j] = acc
    return out


def loop_matmul(f, a, b):
    """One vmul and one add pass per inner index (reference for large shapes)."""
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(a.shape[1]):
        acc = f.add(acc, f.vmul(a[:, i, None], b[i]))
    return acc


# Dense-table fields, exp/log-array fields (q > 1024), and a prime-field control.
KERNEL_FIELDS = [(2, 3), (2, 4), (2, 8), (3, 2), (3, 3), (5, 2), (2, 11), (3, 7), (5, 1)]
SMALL_BLOCK = 64
# (rows, k, cols): no rows; k = 0 (a zero product); k = 1; odd k; one column;
# with SMALL_BLOCK, 11 rows of k*cols = 15 are 2 blocks of 4 plus 3, and
# k*cols = 72 > SMALL_BLOCK puts each of the 3 rows in its own block.
KERNEL_SHAPES = [(0, 4, 5), (3, 0, 5), (3, 1, 5), (4, 5, 3), (2, 7, 1), (11, 5, 3), (3, 9, 8)]


def random_symbols(f, shape, seed):
    a = np.random.default_rng(seed).integers(0, f.q, size=shape)
    a.flat[: min(a.size, 2)] = 0  # products with zero
    return a


def test_matmul_matches_scalar_dot_products():
    with mock.patch.object(psmc.alphabet, "_MATMUL_BLOCK", SMALL_BLOCK):
        for p, m in KERNEL_FIELDS:
            f = make_field(p, m)
            for rows, k, cols in KERNEL_SHAPES:
                a = random_symbols(f, (rows, k), rows * 100 + k)
                b = random_symbols(f, (k, cols), k * 100 + cols)
                got = f.matmul(a, b)
                assert got.shape == (rows, cols) and got.dtype == np.int64
                assert got.tolist() == scalar_matmul(f, a, b).tolist(), (f, rows, k, cols)


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(KERNEL_FIELDS),
    rows=st.integers(0, 12),
    k=st.integers(0, 9),
    cols=st.integers(0, 6),
    block=st.sampled_from([1, 16, SMALL_BLOCK, psmc.alphabet._MATMUL_BLOCK]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_kernel_random_shapes(field, rows, k, cols, block, seed):
    f = make_field(*field)
    a = random_symbols(f, (rows, k), seed)
    b = random_symbols(f, (k, cols), seed + 1)
    with mock.patch.object(psmc.alphabet, "_MATMUL_BLOCK", block):
        assert f.matmul(a, b).tolist() == scalar_matmul(f, a, b).tolist()


@pytest.mark.parametrize("p,m", [(2, 8), (5, 2)], ids=["GF(2^8)", "GF(5^2)"])
def test_matmul_kernel_spans_blocks_at_module_block_size(p, m):
    f = make_field(p, m)
    k, cols = 31, 32
    step = psmc.alphabet._MATMUL_BLOCK // (k * cols)
    rows = 2 * step + 5
    a = random_symbols(f, (rows, k), 7)
    b = random_symbols(f, (k, cols), 8)
    assert f.matmul(a, b).tolist() == loop_matmul(f, a, b).tolist()


def test_scalar_products_with_zero_above_2_pow_16():
    # Above 2^16 mul has no zero test: the table-free product returns 0.
    f = make_field(2, 17)
    for a in (0, 1, 2, 12345, f.q - 1):
        assert f.mul(a, 0) == f.mul(0, a) == 0
    assert f.mul(3, 5) == 15 and f.mul(f.q - 1, 1) == f.q - 1


def test_array_mul_above_2_pow_16_is_refused():
    f = make_field(2, 17)
    assert f.add(np.array([3]), np.array([5])).tolist() == [6]
    with pytest.raises(BudgetExceeded, match="65536"):
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


def test_poly_input_checks():
    gf3 = make_field(3)
    with pytest.raises(ValueError, match=r"^degree 2 does not fit in length 2$"):
        Polynomial(gf3, [1, 0, 1]).vector(2)
    with pytest.raises(TypeError, match=r"^expected Polynomial, got int$"):
        Polynomial(gf3, [1]) + 1


def test_poly_symbols_must_be_integers():
    gf3 = make_field(3)
    p = Polynomial(gf3, [1, 1])
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        p(1.5)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        Polynomial(gf3, [1.0])
    assert Polynomial(gf3, np.array([1, 2])).coeffs == (1, 2)
    assert all(type(c) is int for c in Polynomial(gf3, np.array([1, 2])).coeffs)
    assert p(np.int64(1)) == 2 and type(p(np.int64(1))) is int


def test_poly_is_an_immutable_value():
    gf3 = make_field(3)
    p = Polynomial(gf3, (1, 2, 0))
    assert p == Polynomial(gf3, [1, 2]) and hash(p) == hash((gf3, (1, 2)))
    assert p != Polynomial(make_field(5), (1, 2)) and p != (1, 2)
    assert len({p, Polynomial(gf3, (1, 2)), Polynomial.one(gf3)}) == 2
    for name in ("alphabet", "coeffs"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(p, name, (1,))
    # A frozen slots dataclass refuses other names too; Python 3.10 and 3.11
    # raise TypeError there rather than AttributeError.
    with pytest.raises((AttributeError, TypeError)):
        p.other = 1
    assert p.coeffs == (1, 2) and p.alphabet is gf3


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


# The kernels on coefficient tuples, over prime fields small and large,
# against the schoolbook oracle int_conv.  Operands of up to 40 symbols over
# these fields draw every lane width (1, 2, 4 and 8 bytes) and both sides of
# the one-byte gate (a GF(7) product takes one byte while its shorter operand
# has at most 7 symbols, then two).
POLY_KERNEL_FIELDS = [make_field(p) for p in (2, 3, 7, 251, 257, 1048573)]


def trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


@st.composite
def kernel_operands(draw):
    f = draw(st.sampled_from(POLY_KERNEL_FIELDS))
    coeffs = st.lists(st.integers(0, f.q - 1), max_size=40).map(trim)
    return f, draw(coeffs), draw(coeffs), draw(coeffs), draw(st.integers(1, f.q - 1))


def divides(f, d, x):
    """Whether d divides x, the quotient checked by the oracle."""
    quot, rem = _pdivmod(f, x, d)
    return not rem and int_conv(quot, d, f.q) == x


@given(kernel_operands())
@settings(max_examples=300, deadline=None)
def test_prime_field_kernels_match_schoolbook_oracle(operands):
    f, a, b, c, scale = operands
    q = f.q
    assert _pmul(f, a, b) == int_conv(a, b, q)
    # b, and b scaled so that its leading symbol is any nonzero one
    for d in (b, int_conv((scale,), b, q)) if b else ():
        quot, rem = _pdivmod(f, a, d)
        recombined = [(x + y) % q for x, y in zip_longest(int_conv(quot, d, q), rem, fillvalue=0)]
        assert trim(recombined) == a
        assert len(rem) < len(d)
    # With a common factor c the monic gcd divides both inputs, and c divides it.
    ca, cb = int_conv(c, a, q), int_conv(c, b, q)
    g = _pgcd(f, ca, cb)
    if not ca and not cb:
        assert g == ()
        return
    assert g[-1] == 1 and divides(f, g, ca) and divides(f, g, cb) and divides(f, c, g)


@st.composite
def chain_factors(draw):
    f = draw(st.sampled_from(POLY_KERNEL_FIELDS))
    symbols = st.integers(0, f.q - 1)
    nonzero = st.builds(lambda low, top: (*low, top), st.lists(symbols, max_size=11), st.integers(1, f.q - 1))
    return f, draw(st.lists(nonzero, min_size=1, max_size=8))


@given(chain_factors())
@example(case=(make_field(257), [(1, 1)]))
@settings(max_examples=300, deadline=None)
def test_chain_product_matches_schoolbook_oracle(case):
    # Over GF(1048573) a few factors outgrow 8-byte lanes and split the chain.
    # Over GF(257) a chain of small symbols still takes two-byte lanes.
    f, factors = case
    assert _pprod(f, factors) == reduce(lambda a, b: int_conv(a, b, f.q), factors)


def ones(n):
    return (1,) * n


@pytest.mark.parametrize("bound", [255, 256])
def test_product_at_the_one_byte_gate(bound):
    # All-ones operands of length `bound` over GF(2): the middle lane of the
    # product holds exactly min(len a, len b) (q-1)^2 = bound.
    f, a = make_field(2), ones(bound)
    assert psmc.alphabet._lane_bytes(bound) == (1 if bound == 255 else 2)
    assert _pmul(f, a, a) == int_conv(a, a, 2)
    if bound == 256:  # one-byte lanes would carry
        with mock.patch.object(psmc.alphabet, "_lane_bytes", lambda bound: 1):
            assert _pmul(f, a, a) != int_conv(a, a, 2)


@pytest.mark.parametrize("bound", [255, 256])
def test_division_at_the_one_byte_gate(bound):
    # Over GF(2), all-ones b and quotient of lengths bound + 1 and bound - 1:
    # remainder lane bound - 2 takes min(len b, len quot) = bound - 1 terms
    # on top of its own symbol, which the all-ones remainder of length 254
    # makes 1, so it ends at exactly min(len b, len quot) (q-1)^2 + q - 1.
    # The lane above it is a remainder lane too, so a carry out of it would show.
    f, b, quot, rem = make_field(2), ones(bound + 1), ones(bound - 1), ones(254)
    a = trim((x + y) % 2 for x, y in zip_longest(int_conv(quot, b, 2), rem, fillvalue=0))
    assert psmc.alphabet._lane_bytes(bound) == (1 if bound == 255 else 2)
    assert _pdivmod(f, a, b) == (quot, rem)
    if bound == 256:  # one-byte lanes would carry
        with mock.patch.object(psmc.alphabet, "_lane_bytes", lambda bound: 1):
            assert _pdivmod(f, a, b) != (quot, rem)


def test_char2_scalar_ops_match_digitwise_exhaustive():
    for m in range(2, 7):
        f = make_field(2, m)
        for a in range(f.q):
            assert f.neg(a) == f._digitwise(0, a, -1)
            for b in range(f.q):
                assert f.add(a, b) == f._digitwise(a, b, 1) == f.sub(a, b) == f._digitwise(a, b, -1)


def test_char2_scalar_ops_match_digitwise_sampled():
    rng = random.Random(20)
    for m in range(7, 21):
        f = make_field(2, m)
        for _ in range(200):
            a, b = rng.randrange(f.q), rng.randrange(f.q)
            assert f.add(a, b) == f._digitwise(a, b, 1)
            assert f.sub(a, b) == f._digitwise(a, b, -1)
            assert f.neg(a) == f._digitwise(0, a, -1)


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


def test_element_order_checks_its_argument():
    for f, a in ((make_field(2, 3), 9), (make_field(7), 9), (make_field(7), -1), (make_field(2, 17), 1 << 17)):
        with pytest.raises(ValueError, match=rf"^symbol {a} out of range for {re.escape(repr(f))}$"):
            f.element_order(a)
    for f in (make_field(7), make_field(2, 3), make_field(2, 17)):
        for a in (1.0, 1.5, "1", None):
            with pytest.raises(TypeError):
                f.element_order(a)
        with pytest.raises(ValueError, match=r"^0 has no multiplicative order$"):
            f.element_order(0)
        assert f.element_order(np.int64(1)) == 1


@pytest.mark.parametrize("p,m", [(7, 1), (2, 4), (3, 3), (5, 2), (2, 17)], ids=repr)
def test_element_order_matches_the_least_power_reaching_one(p, m):
    # pow reads the tables where they exist; the oracle powers without them.
    f = make_field(p, m)
    divisors = [d for d in range(1, f.q) if (f.q - 1) % d == 0]
    rng = random.Random(p ** m)
    for a in range(1, f.q) if f.q < 1000 else [rng.randrange(1, f.q) for _ in range(30)]:
        assert f.element_order(a) == next(d for d in divisors if f._pow_raw(a, d) == 1)
    assert f.element_order(f.primitive) == f.q - 1


def test_random_element_order_divides_group_order():
    rng = random.Random(7)
    f = make_field(3, 3)
    for _ in range(20):
        a = rng.randrange(1, f.q)
        assert (f.q - 1) % f.element_order(a) == 0
        assert f.element_order(a) == brute_order(f, a)
