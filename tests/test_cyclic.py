import hashlib
import math
import tracemalloc
from functools import partial, reduce
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import psmc.alphabet
import psmc.cyclic
from psmc.alphabet import Polynomial, _pmul, field_of_order, format_poly, make_field, poly_pretty
from psmc.cyclic import (
    all_cosets,
    bch_bound_from_defining_set,
    build_cyclic_code,
    cyclotomic_coset,
    extension_degree,
    minimal_polynomial,
    root_context,
)
from psmc.linear import BudgetExceeded

GF3 = make_field(3)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def coset_by_iteration(a, n, q):
    """Direct orbit iteration, independent of the library implementation."""
    out = {a}
    x = a * q % n
    while x != a:
        out.add(x)
        x = x * q % n
    return tuple(sorted(out))


def check_polynomial(spec):
    """h = (x^n - 1) / g, asserting that g divides x^n - 1 exactly."""
    f = spec.alphabet
    h, rem = divmod(Polynomial(f, (f.neg(1),) + (0,) * (spec.n - 1) + (1,)), spec.g)
    assert rem.is_zero
    return h


def longest_run_bruteforce(members, n):
    """Longest cyclic run by checking every (start, length) pair."""
    best = 0
    s = set(members)
    for start in range(n):
        length = 0
        while length < n and (start + length) % n in s:
            length += 1
        best = max(best, length)
    return best


# ---------------------------------------------------------------------------
# cosets
# ---------------------------------------------------------------------------

def test_coset_fixed_point():
    assert cyclotomic_coset(0, 8, 3).members == (0,)


@pytest.mark.parametrize("a,expected", [(1, (1, 3)), (5, (5, 7)), (2, (2, 6)), (4, (4,))])
def test_coset_n8_q3(a, expected):
    c = cyclotomic_coset(a, 8, 3)
    assert c.members == expected == coset_by_iteration(a, 8, 3)
    assert c.representative == min(expected)


def test_cosets_partition():
    for n, q in [(8, 3), (13, 3), (7, 2), (15, 2), (5, 4)]:
        cosets = all_cosets(n, q)
        union = sorted(x for c in cosets for x in c.members)
        assert union == list(range(n))
        for c in cosets:
            assert set(m * q % n for m in c.members) == set(c.members)
            assert [b for b in range(n) if c.mask >> b & 1] == list(c.members)


def test_coset_requires_coprime():
    with pytest.raises(ValueError):
        cyclotomic_coset(1, 9, 3)


def test_coset_seed_and_extension_degree_input_checks():
    for seed in (8, -1):
        with pytest.raises(ValueError, match=rf"^coset seed {seed} out of range \[0, 8\)$"):
            cyclotomic_coset(seed, 8, 3)
    with pytest.raises(ValueError, match=r"^gcd\(n=6, q=3\) must be 1$"):
        extension_degree(6, 3)


def test_a_float_coset_argument_is_refused_before_the_cache():
    # cyclotomic_coset(1.0, 8, 3) used to cache members (1.0, 3.0) under the key
    # of (1, 8, 3), and build_cyclic_code(8, GF(3), (1,)) then failed on them.
    psmc.cyclic._coset.cache_clear()
    for args in ((1.0, 8, 3), (1, 8.0, 3), (1, 8, 3.0)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            cyclotomic_coset(*args)
    coset = cyclotomic_coset(1, 8, 3)
    assert coset.members == (1, 3) and [type(m) for m in coset.members] == [int, int]
    assert build_cyclic_code(8, make_field(3), (1,)).defining_set == (1, 3)


def test_extension_degree():
    assert extension_degree(8, 3) == 2
    assert extension_degree(13, 3) == 3
    assert extension_degree(7, 2) == 3
    assert extension_degree(2, 3) == 1


def test_nonpositive_length_is_rejected():
    # n = 1 is covered through the CLI in a child process with a timeout.
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"n = {n} must be >= 1"):
            all_cosets(n, 3)
        with pytest.raises(ValueError, match=f"n = {n} must be >= 1"):
            extension_degree(n, 3)


@pytest.mark.parametrize("a,n,q", [(0, 0, 3), (0, -3, 2)])
def test_coset_rejects_a_nonpositive_length(a, n, q):
    # The length is checked first: the gcd and seed checks would misname n < 1.
    with pytest.raises(ValueError, match=rf"^length n = {n} must be >= 1$"):
        cyclotomic_coset(a, n, q)


@pytest.mark.parametrize("n", [0, -3])
def test_bch_bound_rejects_a_nonpositive_length(n):
    with pytest.raises(ValueError, match=rf"^length n = {n} must be >= 1$"):
        bch_bound_from_defining_set((), n)


@pytest.mark.parametrize("n", [0, -3])
def test_build_code_rejects_a_nonpositive_length(n):
    with pytest.raises(ValueError, match=rf"^length n = {n} must be >= 1$"):
        build_cyclic_code(n, GF3, ())


# ---------------------------------------------------------------------------
# minimal polynomials
# ---------------------------------------------------------------------------

def test_minpoly_of_one_is_x_minus_1():
    p = minimal_polynomial(0, 8, GF3)
    assert p.coeffs == (2, 1)  # x - 1


def test_minpoly_of_minus_one():
    # alpha^4 has order 2, so it is -1 and its minimal polynomial is x + 1.
    ctx = root_context(8, GF3)
    a4 = ctx.ext.pow(ctx.alpha, 4)
    assert ctx.ext.mul(a4, a4) == 1 and a4 != 1
    assert minimal_polynomial(4, 8, GF3).coeffs == (1, 1)


def test_minpoly_product_is_xn_minus_1():
    for n, q in [(8, 3), (13, 3), (7, 2)]:
        f = make_field(q)
        prod = Polynomial.one(f)
        for c in all_cosets(n, q):
            prod = prod * minimal_polynomial(c.representative, n, f)
        assert prod.coeffs == (f.neg(1),) + (0,) * (n - 1) + (1,)


def test_minpoly_n8_q3_factor_set():
    # The five ternary factors of x^8 - 1, as polynomials (labels are
    # alpha-dependent, the set of factors is not).
    factors = {minimal_polynomial(c.representative, 8, GF3).coeffs for c in all_cosets(8, 3)}
    assert factors == {
        (2, 1),  # x + 2
        (1, 1),  # x + 1
        (1, 0, 1),  # x^2 + 1
        (2, 1, 1),  # x^2 + x + 2
        (2, 2, 1),  # x^2 + 2x + 2
    }


def test_minpoly_roots_exactly_on_coset():
    ctx = root_context(8, GF3)
    for a in (0, 1, 2, 4, 5):
        mp = minimal_polynomial(a, 8, GF3)
        embedded = Polynomial(ctx.ext, (ctx.embed(c) for c in mp.coeffs))
        coset = set(cyclotomic_coset(a, 8, 3).members)
        for b in range(8):
            val = embedded(ctx.ext.pow(ctx.alpha, b))
            assert (val == 0) == (b in coset)


def test_minpoly_degree_equals_coset_size():
    for a in range(13):
        mp = minimal_polynomial(a, 13, GF3)
        assert mp.degree == len(cyclotomic_coset(a, 13, 3).members)
        assert mp.coeffs[-1] == 1


def test_minpoly_coeffs_frobenius_fixed():
    ctx = root_context(13, GF3)
    for a in (0, 1, 2, 4, 7):
        for c in minimal_polynomial(a, 13, GF3).coeffs:
            e = ctx.embed(c)
            assert ctx.ext.pow(e, GF3.q) == e


def test_minpoly_over_extension_base_field():
    # GF(4)-cyclic code machinery goes through the proper subfield embedding.
    gf4 = make_field(2, 2)
    prod = Polynomial.one(gf4)
    for c in all_cosets(5, 4):
        mp = minimal_polynomial(c.representative, 5, gf4)
        assert mp.degree == len(c.members)
        prod = prod * mp
    assert prod.coeffs == (1,) + (0,) * 4 + (1,)  # x^5 + 1 over GF(4)


def test_minpoly_built_once_per_coset_in_n26_sweep(monkeypatch):
    root_context.cache_clear()
    products = []
    uncached = psmc.cyclic._linear_product

    def counted(field, roots):
        products.append(field)
        return uncached(field, roots)

    monkeypatch.setattr(psmc.cyclic, "_linear_product", counted)
    cosets = all_cosets(26, 3)
    specs = {}
    for take in range(len(cosets)):
        for chosen in combinations([c.representative for c in cosets], take):
            specs[chosen] = build_cyclic_code(26, GF3, chosen)
    assert len(specs) == 1023
    assert len(products) == len(cosets) == 10

    ctx = root_context(26, GF3)
    fresh = {}
    for c in cosets:
        roots = [ctx.ext.pow(ctx.alpha, b) for b in c.members]
        fresh[c.representative] = Polynomial(
            GF3, (ctx.project(x) for x in uncached(ctx.ext, roots))
        )
        for a in c.members:
            assert minimal_polynomial(a, 26, GF3) == fresh[c.representative]
    for chosen, spec in specs.items():
        assert spec.g == reduce(lambda acc, r: acc * fresh[r], chosen, Polynomial.one(GF3))
    assert len(products) == 10


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (2, 4)], ids=["GF(4)", "GF(8)", "GF(9)", "GF(16)"])
def test_embedding_is_identity_when_n_divides_q_minus_1(p, m):
    base = make_field(p, m)
    for n in (d for d in range(2, base.q) if (base.q - 1) % d == 0):
        ctx = root_context(n, base)
        assert ctx.ext is base
        assert [ctx.embed(a) for a in range(base.q)] == list(range(base.q))
        assert [ctx.project(a) for a in range(base.q)] == list(range(base.q))
        # Every n-th root of unity lies in GF(q), so each minimal polynomial is linear.
        assert all(minimal_polynomial(a, n, base).degree == 1 for a in range(n))


def test_project_refuses_elements_outside_the_base_field():
    # GF(3) sits in GF(9) as {0, 1, 2}, and 5 = 2 + 1*X is outside it.
    ctx = root_context(8, GF3)
    assert [ctx.project(ctx.embed(a)) for a in range(3)] == [0, 1, 2]
    with pytest.raises(ArithmeticError, match=r"^element 5 of GF\(3\^2\) is not in the base field GF\(3\)$"):
        ctx.project(5)
    # An extension base field maps through its embedding instead.
    gf4 = make_field(2, 2)
    ctx = root_context(5, gf4)
    image = [ctx.embed(a) for a in range(4)]
    assert [ctx.project(b) for b in image] == [0, 1, 2, 3]
    outside = next(b for b in range(ctx.ext.q) if b not in image)
    with pytest.raises(ArithmeticError, match="is not in the base field GF\\(2\\^2\\)"):
        ctx.project(outside)


def test_prime_root_context_holds_no_per_symbol_maps():
    # The prime subfield maps by identity, so a context over GF(1048573)
    # holds nothing per symbol; two q-entry dicts would take about 112 MiB.
    field = make_field(1048573)
    root_context.cache_clear()
    tracemalloc.start()
    try:
        ctx = root_context(4, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert root_context(4, field) is ctx
    assert ctx.embed(1048572) == ctx.project(1048572) == 1048572


# ---------------------------------------------------------------------------
# BCH bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "defining,n,expected",
    [
        ((), 8, 1),
        ((4,), 8, 2),
        ((0, 1, 3), 8, 3),
        ((0, 1, 2, 3, 6), 8, 5),
        ((0, 1, 3, 5, 7), 8, 4),  # run 7 -> 0 -> 1 wraps
        ((6, 7, 0), 8, 4),
    ],
)
def test_bch_bound_values(defining, n, expected):
    assert bch_bound_from_defining_set(defining, n) == expected
    assert expected == longest_run_bruteforce(defining, n) + 1


def test_bch_bound_matches_bruteforce_on_every_proper_subset():
    for n in range(1, 13):
        for size in range(n):
            for defining in combinations(range(n), size):
                assert bch_bound_from_defining_set(defining, n) == longest_run_bruteforce(defining, n) + 1


@st.composite
def defining_sets(draw):
    n = draw(st.integers(1, 200))
    return draw(st.lists(st.integers(0, n - 1), max_size=n)), n


@given(defining_sets())
@settings(max_examples=200, deadline=None)
def test_bch_bound_matches_bruteforce_on_sampled_sets(case):
    # Members may repeat; a set that covers [0, n) has no bound.
    defining, n = case
    if len(set(defining)) == n:
        with pytest.raises(ValueError, match=r"^defining set covers all of \[0, n\)$"):
            bch_bound_from_defining_set(defining, n)
    else:
        assert bch_bound_from_defining_set(defining, n) == longest_run_bruteforce(defining, n) + 1


def test_bch_bound_rejects_non_integers():
    # [1.5] used to give a bound of 1.
    for defining, n in (([1.5], 8), ([1], 8.0)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            bch_bound_from_defining_set(defining, n)


def test_bch_bound_rejects_full_set():
    with pytest.raises(ValueError):
        bch_bound_from_defining_set(range(8), 8)


@pytest.mark.parametrize("defining, bad", [([1, 2, 9], 9), ([30], 30), ([3, -1, 8], -1)])
def test_bch_bound_rejects_members_outside_the_length(defining, bad):
    with pytest.raises(ValueError, match=rf"^defining-set member {bad} is outside \[0, 8\)$"):
        bch_bound_from_defining_set(defining, 8)


# ---------------------------------------------------------------------------
# code construction
# ---------------------------------------------------------------------------

def test_build_code_table_row3_shape():
    code = build_cyclic_code(8, GF3, [0, 1])
    assert code.defining_set == (0, 1, 3)
    assert code.g.degree == 3
    assert code.k == 5
    assert code.bch_bound == 3


def test_build_code_table_row5_shape():
    code = build_cyclic_code(8, GF3, [0, 1, 2])
    assert code.defining_set == (0, 1, 2, 3, 6)
    assert code.bch_bound == 5
    assert code.k == 3


def test_build_code_empty_defining_set():
    code = build_cyclic_code(8, GF3, [])
    assert code.g.coeffs == (1,)
    assert code.k == 8
    assert code.bch_bound == 1


def test_build_code_g_times_h():
    for reps in [(0,), (1,), (4, 5), (0, 1, 2), (2, 5), (1, 2, 5)]:
        code = build_cyclic_code(8, GF3, reps)
        prod = code.g * check_polynomial(code)
        assert prod.coeffs == (2,) + (0,) * 7 + (1,)
        assert code.g.degree == len(code.defining_set)


# (n, q) with n <= 30 coprime to q and x^n - 1 split in a field of order <= 2^16
SPLIT_PAIRS = [
    (n, q)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for n in range(1, 31)
    if math.gcd(n, q) == 1 and q ** extension_degree(n, q) <= 1 << 16
]


@st.composite
def coset_subsets(draw):
    n, q = draw(st.sampled_from(SPLIT_PAIRS))
    reps = [c.representative for c in all_cosets(n, q)]
    chosen = draw(st.lists(st.sampled_from(reps), unique=True, max_size=len(reps) - 1))
    return n, q, chosen


@given(coset_subsets())
@settings(max_examples=300, deadline=None)
def test_generator_divides_xn_minus_1_and_without_root_1_the_all_ones_polynomial(case):
    # A product of minimal polynomials of distinct cosets divides x^n - 1, and
    # without the coset of 0 it divides (x^n - 1)/(x - 1) = 1 + x + ... + x^(n-1).
    n, q, chosen = case
    spec = build_cyclic_code(n, field_of_order(q), chosen)
    check_polynomial(spec)
    assert spec.g.degree == len(spec.defining_set)
    if 0 not in spec.defining_set:
        assert (Polynomial(spec.alphabet, (1,) * n) % spec.g).is_zero


def test_build_code_rejects_zero_code():
    with pytest.raises(ValueError):
        build_cyclic_code(8, GF3, [0, 1, 2, 4, 5])


def test_splitting_field_above_max_order_is_a_budget_error():
    # x^29 - 1 over GF(2) splits in GF(2^28), above the 2^20 bound.
    gf2 = make_field(2)
    with pytest.raises(BudgetExceeded, match=r"GF\(2\^28\)"):
        root_context(29, gf2)
    with pytest.raises(BudgetExceeded):
        build_cyclic_code(29, gf2, (1,))


# sha256 of one line per code, "defining set;g;h;BCH bound", over every
# non-full union of cosets in the order of the benchmark's analysis sweep;
# h = (x^n - 1)/g is divided out here, by check_polynomial.
SWEEP_DIGESTS = {
    (26, 3): ("f201cac3933565376f1c4c02004f3a1387138fe8f61620149a8c42ce0eba7bf5", 1023),
    (21, 4): ("2cebd30de9e1b6da006f13ed54b576f330972ebc9671d88ed0adf22081ae6810", 511),
    (9, 8): ("1c3d179013b8e5c48d20a41db36ab935a9be05576ad3071922459aef49c30f73", 31),
    (15, 2): ("9e9a429b6b24155a0135d4933762d685fb9c9d674e1f2d02b5a5ba39e737a7e3", 31),
    # two-byte lanes: division by generators of up to 16 symbols over GF(7),
    # and products of minimal polynomials over GF(11)
    (16, 7): ("c23a1af51edc7bb8dc86832fcee08fc68008d15b7bc84a30c69edac431e794d5", 511),
    (12, 11): ("40a5d586a349494e3c19022dd20604e84badde053ece9e6b51a66cd18710faf4", 127),
}


def sweep(n, q):
    """(representatives, code) for every non-full union of cosets, in the
    order of the benchmark's analysis sweep."""
    base = field_of_order(q)
    reps = [c.representative for c in all_cosets(n, q)]
    for take in range(len(reps)):
        for chosen in combinations(reps, take):
            yield chosen, build_cyclic_code(n, base, chosen)


SWEEP_IDS = [f"n{n}-q{q}" for n, q in SWEEP_DIGESTS]


@pytest.mark.parametrize("n,q", list(SWEEP_DIGESTS), ids=SWEEP_IDS)
def test_cyclic_construction_sweep_digest(n, q):
    lines = []
    for _, spec in sweep(n, q):
        members = ",".join(map(str, spec.defining_set))
        lines.append(f"{members};{format_poly(spec.g)};{format_poly(check_polynomial(spec))};{spec.bch_bound}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (digest, len(lines)) == SWEEP_DIGESTS[n, q]


@pytest.mark.parametrize("n,q", list(SWEEP_DIGESTS), ids=SWEEP_IDS)
def test_generator_and_matrix_match_the_fold_and_the_rolled_rows(n, q):
    # Oracles: g as a fold of pairwise products of the minimal polynomials,
    # and G as k rolled copies of g's coefficient vector.
    base = field_of_order(q)
    for chosen, spec in sweep(n, q):
        fold = reduce(partial(_pmul, base), [minimal_polynomial(r, n, base).coeffs for r in chosen], (1,))
        assert spec.g.coeffs == fold
        gvec = spec.g.vector(n)
        G = spec.generator_matrix()
        assert G.dtype == np.int64
        assert np.array_equal(G, np.array([np.roll(gvec, i) for i in range(spec.k)]))


def test_generator_product_splits_its_packed_chain_past_eight_bytes(monkeypatch):
    # Eight linear factors over GF(1048573): the product of their coefficient
    # sums has 132 bits, so no 8-byte lane holds the whole chain.
    field = make_field(1048573)
    chains = []
    uncounted = psmc.alphabet._chain_product

    def counted(chain, bound, q):
        chains.append(bound)
        return uncounted(chain, bound, q)

    monkeypatch.setattr(psmc.alphabet, "_chain_product", counted)
    spec = build_cyclic_code(12, field, range(1, 9))
    factors = [minimal_polynomial(a, 12, field).coeffs for a in range(1, 9)]
    assert math.prod(map(sum, factors)).bit_length() == 132
    assert len(chains) > 1 and all(bound < 1 << 64 for bound in chains)
    assert spec.g.coeffs == reduce(partial(_pmul, field), factors)
    assert (spec.g * check_polynomial(spec)).coeffs == (field.q - 1,) + (0,) * 11 + (1,)


def test_generator_of_small_symbols_over_a_field_above_256():
    # x + 1 has a lane bound of 1, but its lanes must still hold any symbol of GF(257).
    spec = build_cyclic_code(2, make_field(257), (1,))
    assert (spec.g.coeffs, check_polynomial(spec).coeffs) == ((1, 1), (256, 1))


def test_generator_matrix_rows_are_shifts():
    code = build_cyclic_code(8, GF3, [4, 5])
    G = code.generator_matrix()
    assert G.shape == (5, 8)
    gv = code.g.vector(8)
    assert (G[0] == gv).all()
    assert (G[2] == list(gv[-2:]) + list(gv[:-2])).all()


def test_deterministic_alpha_labels():
    # Fixed alpha makes the label-to-polynomial map reproducible.
    assert poly_pretty(minimal_polynomial(1, 8, GF3)) == "x^2 + x + 2"
    assert poly_pretty(minimal_polynomial(5, 8, GF3)) == "x^2 + 2x + 2"
    assert poly_pretty(minimal_polynomial(2, 8, GF3)) == "x^2 + 1"
