import tracemalloc
from collections import Counter
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import psmc.alphabet
import psmc.linear
from psmc.alphabet import make_field
from psmc.constructions import DecodingFailure, PsmcCyclicCode, PsmcMatrixCode
from psmc.cyclic import all_cosets, build_cyclic_code
from psmc.linear import (
    ENUM_BUDGET,
    TIE,
    BudgetExceeded,
    LinearCode,
    _syndrome_key,
    as_word,
    mat_mul,
    min_distance,
    parity_check_matrix,
    rref,
)
from psmc.presets import PRESETS, get_preset

GF2 = make_field(2)
GF3 = make_field(3)
GF4 = make_field(2, 2)
GF5 = make_field(5)
GF8 = make_field(2, 3)


def table_key(code, word) -> bytes:
    """The syndrome table's key for the syndrome of word."""
    return _syndrome_key(code.syndrome(word), code.alphabet)


def weight_patterns(n, q, t):
    """All error vectors of Hamming weight <= t (oracle enumeration)."""
    yield np.zeros(n, dtype=np.int64)
    for w in range(1, t + 1):
        for pos in combinations(range(n), w):
            for vals in product(range(1, q), repeat=w):
                e = np.zeros(n, dtype=np.int64)
                e[list(pos)] = vals
                yield e


def row3_code():
    return build_cyclic_code(8, GF3, [4, 5]).to_linear_code()


# ---------------------------------------------------------------------------
# construction and parity checks
# ---------------------------------------------------------------------------

def test_as_word_rejects_non_integer_symbols():
    for bad in ([0.0, 1.0, 2.0], np.array([0.5, 1.0]), [1, 2.7], ["1", "2"]):
        with pytest.raises(ValueError, match="integers"):
            as_word(bad, GF3, len(bad))
    for good in ([0, 1, 2], np.array([2, 0], dtype=np.uint8), (np.int32(1),)):
        w = as_word(good, GF3, len(good))
        assert w.dtype == np.int64 and w.tolist() == [int(x) for x in good]
    empty = as_word([], GF3, 0)
    assert empty.dtype == np.int64 and empty.shape == (0,)


def test_as_word_range_check_covers_both_ends_of_int64():
    # The range check covers both bounds, over GF(3) by bytes and translate
    # and over GF(1048573) by min and max; a uint64 above 2^63 becomes a
    # negative int64 before the check.
    for bad in (-1, 3, 2**63 - 1, -(2**63)):
        with pytest.raises(ValueError, match="out of range"):
            as_word([0, bad, 1], GF3, 3)
        with pytest.raises(ValueError, match="out of range"):
            as_word(np.array([bad, 0], dtype=np.int64), GF3, 2)
    with pytest.raises(ValueError, match="out of range"):
        as_word(np.array([2**64 - 1], dtype=np.uint64), GF3, 1)
    assert as_word([0, 2, 1], GF3, 3).tolist() == [0, 2, 1]
    big = make_field(1048573)
    for bad in (-1, 1048573, 2**63 - 1, -(2**63)):
        with pytest.raises(ValueError, match="out of range"):
            as_word([0, bad, 1], big, 3)
    assert as_word([0, 1048572, 1], big, 3).tolist() == [0, 1048572, 1]


# One code each over GF(3), GF(8) and GF(256), for the input-checking table.
INPUT_CHECK_CODES = {
    3: lambda: get_preset("masking-n8-r0").base,
    8: lambda: build_cyclic_code(9, GF8, (1,)).to_linear_code(),
    256: lambda: LinearCode(np.eye(4, 6, dtype=np.int64) + np.eye(4, 6, 2, dtype=np.int64), make_field(2, 8)),
}


@pytest.mark.parametrize("q", sorted(INPUT_CHECK_CODES))
def test_word_methods_reject_bad_words_as_before(q):
    code = INPUT_CHECK_CODES[q]()
    k, n, A = code.k, code.n, code.alphabet
    not_integers = "symbols must be integers, got dtype float64"
    bounded = lambda y: code.decode_bounded(y, 1)
    cases = [
        (code.encode, [0.0] * k, not_integers),
        (code.encode, [0] * (k - 1), f"expected length {k}, got {k - 1}"),
        (code.encode, [[0] * k], "expected a 1-D symbol vector"),
        (code.syndrome, [0.5] * n, not_integers),
        (code.syndrome, [0] * (n - 1), f"expected length {n}, got {n - 1}"),
        (code.syndrome, [[0] * n], "expected a 1-D symbol vector"),
        (bounded, [1.5] * n, not_integers),
        (bounded, [0] * (n + 1), f"expected length {n}, got {n + 1}"),
        (bounded, [[0] * n], "expected a 1-D symbol vector"),
    ]
    for s in (-1, q, 256, 2**40):
        cases += [(code.encode, [s] + [0] * (k - 1), f"symbols out of range for {A!r}"),
                  (code.syndrome, [0] * (n - 1) + [s], f"symbols out of range for {A!r}"),
                  (bounded, [0, s] + [0] * (n - 2), f"symbols out of range for {A!r}")]
    for call, word, text in cases:
        with pytest.raises(ValueError) as info:
            call(word)
        assert type(info.value) is ValueError and str(info.value) == text


def test_parity_check_orthogonality():
    for reps in [(4,), (4, 5), (2, 5), (1, 2, 5)]:
        code = build_cyclic_code(8, GF3, reps).to_linear_code()
        assert not mat_mul(code.G, code.H.T, GF3).any()
        assert code.H.shape == (8 - code.k, 8)


def test_rejects_rank_deficient_generator():
    with pytest.raises(ValueError):
        LinearCode(np.array([[1, 2, 0], [2, 4 % 3, 0]]) % 3, GF3)


def test_generator_must_be_a_matrix_of_symbols():
    with pytest.raises(ValueError, match=r"^generator must be a 2-D matrix$"):
        LinearCode([1, 2, 0], GF3)
    with pytest.raises(ValueError, match=r"^generator entries out of range for GF\(3\)$"):
        LinearCode([[1, 3, 0]], GF3)


def test_generator_without_rows_is_refused():
    # A code with no nonzero word has no minimum distance to report.
    with pytest.raises(ValueError, match=r"^generator has no rows: the code has no nonzero word$"):
        LinearCode(np.zeros((0, 3)), GF3)


def test_message_of_inverts_encode():
    rng = np.random.default_rng(8)
    codes = [row3_code(), build_cyclic_code(9, make_field(2, 3), (1,)).to_linear_code()]
    for code in codes:
        for _ in range(20):
            m = rng.integers(0, code.alphabet.q, size=code.k)
            assert (code.message_of(code.encode(m)) == m).all()


def test_message_of_and_parity_check_matrix_check_their_inputs():
    code = LinearCode([[1, 0, 1], [0, 1, 1]], GF3)
    assert code.message_of([2, 1, 0]).tolist() == [2, 1]
    # A short word and out-of-range or fractional symbols used to give [0 1] and [0 2].
    with pytest.raises(ValueError, match=r"^expected length 3, got 2$"):
        code.message_of([0, 1])
    with pytest.raises(ValueError, match=r"^symbols must be integers, got dtype float64$"):
        code.message_of([0.7, 5, 1])
    with pytest.raises(ValueError, match=r"^symbols out of range for GF\(3\)$"):
        code.message_of([0, 5, 1])
    # parity_check_matrix checks its generator as LinearCode does; both used to give [[1 1]].
    assert parity_check_matrix([[1, 2]], GF3).tolist() == [[1, 1]]
    with pytest.raises(ValueError, match=r"^generator entries out of range for GF\(3\)$"):
        parity_check_matrix([[1, 5]], GF3)
    with pytest.raises(ValueError, match=r"^symbols must be integers, got dtype float64$"):
        parity_check_matrix([[1.5, 2]], GF3)
    with pytest.raises(ValueError, match=r"^generator matrix is not full rank$"):
        parity_check_matrix([[1, 2], [2, 1]], GF3)


def test_gf2048_linear_code_builds_encodes_decodes():
    F = make_field(2, 11)
    parity = LinearCode(np.array([[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 1500]]), F)
    repetition = LinearCode(np.array([[1, 5, 2047]]), F)  # d = 3, decoded by enumeration
    rng = np.random.default_rng(11)
    for code in (parity, repetition):
        assert not mat_mul(code.G, code.H.T, F).any()
        for _ in range(10):
            m = rng.integers(0, F.q, size=code.k)
            c = code.encode(m)
            assert not code.syndrome(c).any()
            assert (code.message_of(c) == m).all()
            y = c.copy()
            y[1] = F.add(int(y[1]), int(rng.integers(1, F.q)))
            if code is parity:
                assert (code.decode_bounded(c, 0) == c).all()
                assert code.decode_bounded(y, 0) is None
            else:
                assert (code.decode_bounded(y, 1) == c).all()


def test_full_rate_code_has_empty_parity_check():
    code = LinearCode(np.eye(4, dtype=int), GF3)
    assert code.H.shape == (0, 4)
    assert not code.syndrome([1, 2, 0, 1]).any()
    assert (code.decode_bounded([1, 2, 0, 1], 0) == [1, 2, 0, 1]).all()


# ---------------------------------------------------------------------------
# minimum distance oracle
# ---------------------------------------------------------------------------

def test_repetition_code_distance():
    for n in (3, 5, 8):
        code = LinearCode(np.ones((1, n), dtype=int), GF3)
        assert min_distance(code).d == n


def test_row3_code_distance_at_least_3():
    rep = min_distance(row3_code(), bch_lower_bound=3)
    assert rep.d >= 3
    assert rep.t >= 1
    assert rep.bch_lower_bound == 3


def test_row5_code_distance_at_least_5():
    spec = build_cyclic_code(8, GF3, [2, 4, 5])
    rep = min_distance(spec.to_linear_code())
    assert rep.d >= 5
    assert rep.t == 2


def test_min_distance_matches_exhaustive_oracle():
    # Cross-check the chunked enumeration against a direct itertools walk.
    spec = build_cyclic_code(8, GF3, [4, 5])
    code = spec.to_linear_code()
    G = code.G
    best = 8
    for m in product(range(3), repeat=code.k):
        if any(m):
            best = min(best, int(np.count_nonzero(np.array(m) @ G % 3)))
    assert min_distance(code).d == best == 3


def test_min_distance_budget():
    # [30, 15]: the code and its dual both have 3^15 words.
    code = LinearCode(np.hstack([np.eye(15, dtype=int), np.ones((15, 15), dtype=int)]), GF3)
    assert code.k == code.n - code.k == 15
    assert 3 ** 15 > ENUM_BUDGET
    with pytest.raises(BudgetExceeded):
        min_distance(code)


def walk_distance(G, field):
    """Minimum weight over the nonzero codewords, by a direct walk over the messages.

    itertools walks the leading message symbols; the words of the last
    rows (at most 4096) are added to each as one block.
    """
    k, n = G.shape
    q = field.q
    tail = 0
    while tail < k and q ** (tail + 1) <= 4096:
        tail += 1
    tails = np.array(list(product(range(q), repeat=tail)), dtype=np.int64).reshape(-1, tail)
    block = field.matmul(tails, G[k - tail:])
    best = n
    for head in product(range(q), repeat=k - tail):
        offset = field.matmul(np.array(head, dtype=np.int64).reshape(1, -1), G[:k - tail])
        weights = np.count_nonzero(field.add(block, offset), axis=1)
        if not any(head):
            weights = weights[1:]  # the zero codeword
        best = min(best, int(weights.min()))
    return best


def distance_and_rows(code):
    """min_distance of code, and the number of words it built through mat_mul."""
    rows = []

    def counting(a, b, alphabet):
        rows.append(np.atleast_2d(a).shape[0])
        return mat_mul(a, b, alphabet)

    with mock.patch.object(psmc.linear, "mat_mul", counting):
        report = min_distance(code)
    return report, sum(rows)


def assert_distance_matches_walk(code):
    report, rows = distance_and_rows(code)
    assert report.d == walk_distance(code.G, code.alphabet)
    assert report.t == (report.d - 1) // 2
    assert rows <= code.alphabet.q ** min(code.k, code.n - code.k)


def test_min_distance_matches_walk_on_presets():
    from psmc.presets import PRESETS

    for build in PRESETS.values():
        code = build()
        assert_distance_matches_walk(code.base)
        checked = LinearCode(parity_check_matrix(code.H0, code.alphabet), code.alphabet)
        assert_distance_matches_walk(checked)
        assert code.d0 == walk_distance(checked.G, code.alphabet)


def test_min_distance_matches_walk_on_bch_sweep():
    checked = 0
    for n in (8, 13):
        reps = [c.representative for c in all_cosets(n, 3)]
        for take in range(len(reps)):
            for chosen in combinations(reps, take):
                assert_distance_matches_walk(build_cyclic_code(n, GF3, chosen).to_linear_code())
                checked += 1
    assert checked == 62


def test_min_distance_matches_walk_on_gf8_cyclic_code():
    code = PsmcCyclicCode(9, GF8, (1,)).base
    assert (code.k, code.n) == (7, 9)
    assert_distance_matches_walk(code)


def test_min_distance_matches_walk_through_several_matmul_blocks():
    # k = n - k, so min_distance enumerates the 4^6 = 4096 codewords, whose
    # 6 x 12 products per word span several extension-field matmul blocks.
    P = np.random.default_rng(12).integers(0, 4, size=(6, 6))
    code = LinearCode(np.hstack([np.eye(6, dtype=np.int64), P]), GF4)
    assert code.k == code.n - code.k == 6
    assert 4 ** 6 > 2 * (psmc.alphabet._MATMUL_BLOCK // (6 * 12))
    assert_distance_matches_walk(code)


MAX_N = {GF2: 10, GF3: 7, GF4: 5, GF5: 5}  # keeps the walk to q^n <= 3125 words


@st.composite
def full_rank_generators(draw):
    field = draw(st.sampled_from(list(MAX_N)))
    n = draw(st.integers(1, MAX_N[field]))
    k = draw(st.integers(1, n))
    entries = draw(st.lists(st.integers(0, field.q - 1), min_size=k * n, max_size=k * n))
    G = np.array(entries, dtype=np.int64).reshape(k, n)
    basis = list(rref(G.T, field)[1])  # independent rows of G
    assume(basis)
    return field, G[basis]


@given(full_rank_generators())
@example((GF5, np.eye(5, dtype=np.int64)))  # k = n: the dual is {0}
@example((GF2, np.ones((10, 10), dtype=np.int64) - np.eye(10, dtype=np.int64)))  # k = n
@example((GF4, np.array([[1, 2, 3, 1, 0]], dtype=np.int64)))  # k = 1
@example((GF3, np.array([[0, 0, 0, 1, 2, 0, 1]], dtype=np.int64)))  # k = 1
def test_min_distance_matches_walk_on_random_codes(case):
    field, G = case
    assert_distance_matches_walk(LinearCode(G, field))


def smallest_dependent_columns(H, q):
    """Fewest columns of H (over prime GF(q)) with a vanishing nonzero combination."""
    n = H.shape[1]
    for w in range(1, n + 1):
        for cols in combinations(range(n), w):
            for coeffs in product(range(1, q), repeat=w):
                if not (H[:, cols] @ np.array(coeffs) % q).any():
                    return w
    return n + 1


def test_large_cyclic_code_derives_t_from_its_dual():
    code = PsmcCyclicCode(26, GF3, (1,))
    assert (code.base.k, code.base.n) == (23, 26)
    assert 3 ** 23 > ENUM_BUDGET
    report, rows = distance_and_rows(code.base)
    assert report.d == smallest_dependent_columns(code.base.H, 3) == 2
    assert rows <= 3 ** 3
    assert code.t == 0


# ---------------------------------------------------------------------------
# syndromes and decoding
# ---------------------------------------------------------------------------

def test_syndrome_zero_iff_codeword():
    code = row3_code()
    c = code.encode([1, 0, 2, 2, 1])
    assert not code.syndrome(c).any()
    c[3] = (c[3] + 1) % 3
    assert code.syndrome(c).any()


def test_syndrome_of_unit_error_is_column_of_h():
    code = row3_code()
    for i in range(code.n):
        e = np.zeros(code.n, dtype=np.int64)
        e[i] = 2
        assert (code.syndrome(e) == 2 * code.H[:, i] % 3).all()


def test_decode_identity_on_codewords():
    code = row3_code()
    c = code.encode([2, 2, 0, 1, 0])
    assert (code.decode_bounded(c, 1) == c).all()


def test_decode_all_single_errors_ternary():
    code = row3_code()  # d = 3, t = 1
    c = code.encode([0, 1, 2, 1, 0])
    for e in weight_patterns(8, 3, 1):
        got = code.decode_bounded((c + e) % 3, 1)
        assert got is not None and (got == c).all()


def test_decode_all_single_errors_binary_hamming():
    code = build_cyclic_code(7, GF2, [1]).to_linear_code()  # [7, 4, 3]
    assert min_distance(code).d == 3
    c = code.encode([1, 0, 1, 1])
    for e in weight_patterns(7, 2, 1):
        got = code.decode_bounded((c + e) % 2, 1)
        assert got is not None and (got == c).all()


def test_decode_all_double_errors_t2_code():
    code = build_cyclic_code(8, GF3, [2, 4, 5]).to_linear_code()  # d = 5
    c = code.encode([2, 0, 1])
    for e in weight_patterns(8, 3, 2):
        got = code.decode_bounded((c + e) % 3, 2)
        assert got is not None and (got == c).all()


def test_gf8_syndrome_table_round_trips_every_double_error():
    code = build_cyclic_code(9, GF8, (1, 3)).to_linear_code()
    assert (code.n, code.k, min_distance(code).d) == (9, 5, 5)
    patterns = list(weight_patterns(9, 8, 2))
    # The 1764 double errors of the table build span several matmul blocks
    # of the 9 x (4 + 5) read matrix.
    assert len(patterns) - 64 > psmc.alphabet._MATMUL_BLOCK // (9 * 9)
    table = code._syndrome_table(2)
    assert len(table.rows) == len(table.offsets) == len(patterns)  # no ties at d = 5
    c = code.encode([1, 2, 3, 4, 5])
    for e in patterns:
        assert (code.decode_bounded(GF8.add(c, e), 2) == c).all()


def test_decode_failure_is_none():
    # [8,5,3] ternary: 27 syndromes, 17 weight<=1 cosets, so some syndrome
    # has no leader within t=1; decoding such a word must fail explicitly.
    code = row3_code()
    covered = {code.syndrome(e).tobytes() for e in weight_patterns(8, 3, 1)}
    missing = next(
        s for s in product(range(3), repeat=3)
        if np.array(s, dtype=np.int64).tobytes() not in covered
    )
    # Solve for a word with that syndrome: y = e0 with H e0^T = s.
    y = np.zeros(8, dtype=np.int64)
    target = np.array(missing, dtype=np.int64)
    for cand in weight_patterns(8, 3, 3):
        if (code.syndrome(cand) == target).all():
            y = cand
            break
    assert code.decode_bounded(y, 1) is None


def test_decode_enumeration_path_agrees_with_table():
    code = row3_code()
    c = code.encode([1, 1, 0, 2, 0])
    y = c.copy()
    y[6] = (y[6] + 2) % 3
    via_table = code.decode_bounded(y, 1)
    via_enum = code._decode_by_enumeration(y, 1)
    assert (via_table == via_enum).all() and (via_table == c).all()


def test_decoder_path_is_decided_once_per_t():
    code = row3_code()
    with pytest.raises(ValueError):
        code.decode_bounded(np.zeros(8, dtype=np.int64), -1)
    code.decode_bounded(code.encode([1, 0, 0, 0, 0]), 1)
    table = code._tables[1]
    code.decode_bounded(np.zeros(8, dtype=np.int64), 1)
    assert code._tables == {1: table} and table is not None
    # 1 + 3*2047 + 3*2047^2 patterns of weight <= 2 exceed TABLE_BUDGET:
    # decoding enumerates the 2048 codewords.
    repetition = LinearCode(np.array([[1, 5, 2047]]), make_field(2, 11))
    assert (repetition.decode_bounded([1, 5, 0], 2) == [1, 5, 2047]).all()
    assert repetition._tables == {2: None}


def test_syndrome_table_is_gated_by_pattern_count_alone():
    # 2048^2 syndromes, but only 1 + 3*2047 patterns of weight <= 1.
    repetition = LinearCode(np.array([[1, 5, 2047]]), make_field(2, 11))
    assert (repetition.decode_bounded([1, 5, 0], 1) == [1, 5, 2047]).all()
    assert len(repetition._tables[1].rows) == 1 + 3 * 2047
    # [40, 20] over GF(3): 3^20 syndromes, 1 + 40*2 + 780*4 = 3201 patterns.
    code = PsmcCyclicCode(40, GF3, (1, 2, 4, 7, 11), t=2)
    assert code.base.n - code.base.k == 20
    m = np.arange(code.k1) % 3
    y = code.encode(m).codeword
    y[3] = (y[3] + 1) % 3
    y[30] = (y[30] + 2) % 3
    assert (code.decode(y) == m).all()
    assert len(code.base._tables[2].rows) == 3201


def test_syndrome_table_memory_on_a_40_20_code():
    # [40, 20] over GF(3) at t = 3: 82 241 patterns reach 81 841 syndromes.
    # One-byte keys and uint8 offset rows keep well under the 419 B per
    # syndrome (531 B at peak) that 160-byte int64 keys and rows took.
    base = PsmcCyclicCode(40, GF3, (1, 2, 4, 7, 11), t=3).base
    base._read_matrix
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = base._syndrome_table(3)
        kept, peak = (b - before for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    count = len(table.rows)
    assert count == len(table.offsets) == 81_841 and table.offsets.dtype == np.uint8
    assert kept <= 200 * count, kept / count
    assert peak <= 531 * count, peak / count


def test_decode_enumeration_tie_returns_none():
    rep = LinearCode(np.ones((1, 4), dtype=int), GF2)  # d = 4
    y = np.array([0, 0, 1, 1], dtype=np.int64)  # equidistant from both codewords
    assert rep._decode_by_enumeration(y, 2) is None


def test_decode_table_and_enumeration_agree_on_random_words():
    # Differential check: both decode paths must give identical results,
    # including identical failures, on arbitrary words.
    rng = np.random.default_rng(17)
    for reps in [(4,), (4, 5), (2, 5), (2, 4, 5)]:
        code = build_cyclic_code(8, GF3, reps).to_linear_code()
        t = min_distance(code).t
        for _ in range(150):
            y = rng.integers(0, 3, code.n)
            a = code.decode_bounded(y, t)
            b = code._decode_by_enumeration(y, t)
            if a is None:
                assert b is None
            else:
                assert b is not None and (a == b).all()


def test_random_extension_field_codes_are_consistent():
    gf4 = make_field(2, 2)
    rng = np.random.default_rng(23)
    built = 0
    while built < 5:
        G = rng.integers(0, 4, size=(3, 7))
        try:
            code = LinearCode(G, gf4)  # validates rank and G H^T = 0
        except ValueError:
            continue
        built += 1
        m = rng.integers(0, 4, size=3)
        assert not code.syndrome(code.encode(m)).any()


def test_decode_extension_field_code():
    gf4 = make_field(2, 2)
    code = LinearCode(np.array([[1, 0, 1, 1], [0, 1, 1, 2]]), gf4)
    m = np.array([2, 3], dtype=np.int64)
    c = code.encode(m)
    assert not code.syndrome(c).any()
    got = code.decode_bounded(c, 0)
    assert (got == c).all()


# ---------------------------------------------------------------------------
# the decode kernel against the enumeration oracle
# ---------------------------------------------------------------------------

def assert_kernel_matches_enumeration(code: LinearCode, t: int, Y: np.ndarray) -> np.ndarray:
    """Compare _decode_word with _decode_by_enumeration + message_of, row by
    row, and decode_bounded with the oracle's codeword; returns ok."""
    ok = []
    for y in Y:
        x = code._decode_word(y.tolist(), t, code.k)
        c = code._decode_by_enumeration(y, t)
        assert (x is not None) == (c is not None)
        got = code.decode_bounded(y, t)
        if c is None:
            assert got is None
        else:
            assert x.shape == (code.k,) and (x == code.message_of(c)).all() and (got == c).all()
            # Keeping fewer symbols keeps a prefix of the same message.
            assert (code._decode_word(y.tolist(), t, 1) == x[:1]).all()
        ok.append(x is not None)
    return np.array(ok, dtype=bool).reshape(len(Y))


def words_around(code: LinearCode, t: int, rng, count: int) -> np.ndarray:
    """Codewords plus errors of weight 0..t+2, and uniform words."""
    A, n = code.alphabet, code.n
    rows = []
    for i in range(count):
        c = code.encode(rng.integers(0, A.q, code.k))
        e = np.zeros(n, dtype=np.int64)
        cells = rng.choice(n, size=min(n, i % (t + 3)), replace=False)
        e[cells] = rng.integers(1, A.q, len(cells))
        rows.append(A.add(c, e))
    rows += [rng.integers(0, A.q, n) for _ in range(count // 2)]
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


EXTENSION_FIELD_CODES = {
    "cyclic-n9-gf8": lambda: PsmcCyclicCode(9, GF8, (1,)),
    "cyclic-n10-gf9": lambda: PsmcCyclicCode(10, make_field(3, 2), (1, 2)),
}


@pytest.mark.parametrize("name", sorted(PRESETS) + list(EXTENSION_FIELD_CODES))
def test_decode_kernel_matches_enumeration_on_presets(name):
    code = EXTENSION_FIELD_CODES[name]() if name in EXTENSION_FIELD_CODES else get_preset(name)
    base, t = code.base, code.t
    rng = np.random.default_rng(sum(map(ord, name)))
    # The oracle walks all q^k codewords per word, so the big codes get fewer.
    size = base.alphabet.q ** base.k
    Y = words_around(base, t, rng, 12 if size <= 20_000 else 3 if size <= 10**6 else 1)
    ok = assert_kernel_matches_enumeration(base, t, Y)
    for y, good in zip(Y, ok):
        if good:
            assert (code.decode(y) == base._decode_word(y.tolist(), t, base.k)[: code.k1]).all()
        else:
            with pytest.raises(DecodingFailure, match=f"no unique codeword within distance {t}$"):
                code.decode(y)


def test_decode_kernel_ties_on_appendix_n14_single_errors():
    code = get_preset("appendix-n14")
    base, t = code.base, code.t
    assert t == 1
    c = base.encode(np.arange(base.k) % 3)
    Y = np.array([GF3.add(c, e) for e in weight_patterns(base.n, 3, 1)][1:])
    assert len(Y) == 28
    ok = assert_kernel_matches_enumeration(base, t, Y)
    assert int(ok.sum()) == 24  # 4 of the 28 single errors tie: 6/7 decode
    table = base._syndrome_table(t)
    r = base.n - base.k
    for y, good in zip(Y, ok):
        entry = table.rows[table_key(base, y)]
        assert (entry == TIE) == (not good)
        if good:  # the correction is -e R for the single error e
            e = GF3.sub(y, c)
            assert (table.offsets[entry] == GF3.matmul(GF3.neg(e)[None, :], base._read_matrix[:, r:])[0]).all()


def test_decode_kernel_reaches_every_table_outcome_on_appendix_n14():
    # At t = 1 the table holds all 27 syndromes of the [14, 11] code: the
    # codeword reads row 0, 24 single errors a nonzero row and 4 a tie.  At
    # t = 0 it holds the zero syndrome alone, so every single error is absent.
    base = get_preset("appendix-n14").base
    c = base.encode(np.arange(base.k) % 3)
    x, r = base.message_of(c), base.n - base.k
    seen = Counter()
    for t in (0, 1):
        table = base._syndrome_table(t)
        for e in weight_patterns(base.n, 3, 1):
            y = GF3.add(c, e)
            entry = table.rows.get(table_key(base, y), psmc.linear._ABSENT)
            got = base._read.read(y.tolist(), table, r, base.k)
            assert (got is None) == (entry < 0)
            assert got is None or (got == x).all()
            kind = {TIE: "tie", psmc.linear._ABSENT: "absent", 0: "zero row"}.get(entry, "nonzero row")
            seen[t, kind] += 1
    assert seen == {
        (0, "zero row"): 1, (0, "absent"): 28, (1, "zero row"): 1, (1, "nonzero row"): 24, (1, "tie"): 4,
    }


def reference_table(code: LinearCode, t: int) -> dict:
    """Syndrome -> lightest pattern, or None for a tie, one pattern at a time."""
    best = {}
    for e in weight_patterns(code.n, code.alphabet.q, t):
        key, w = table_key(code, e), np.count_nonzero(e)
        prev = best.get(key)
        if prev is None:
            best[key] = (w, e)
        elif prev[0] == w:
            best[key] = (w, None)
    return {key: e for key, (_, e) in best.items()}


@pytest.mark.parametrize("block", [8192, 7, 1])
def test_syndrome_table_matches_one_pattern_at_a_time(block):
    cases = [
        (build_cyclic_code(8, GF3, [2, 4, 5]).to_linear_code(), 3),  # [8, 3, 5]
        (row3_code(), 2),
        (build_cyclic_code(9, GF8, (1,)).to_linear_code(), 2),
        (LinearCode(np.eye(4, dtype=np.int64), GF5), 1),  # empty H
    ]
    with mock.patch.object(psmc.linear, "BLOCK_ROWS", block):
        for code, t in cases:
            table = code._syndrome_table(t)
            reference = reference_table(code, t)
            assert table.rows.keys() == reference.keys()
            R = code._read_matrix[:, code.n - code.k :]
            for key, e in reference.items():
                row = table.rows[key]
                if e is None:
                    assert row == TIE
                else:
                    assert (table.offsets[row] == code.alphabet.matmul(code.alphabet.neg(e)[None, :], R)[0]).all()
            assert len(table.offsets) == len(table.rows)  # one row per syndrome held


def test_decode_kernel_absent_syndromes_fail_beyond_the_radius():
    code = row3_code()  # [8, 5, 3]: 27 syndromes, 17 reached by weight <= 1
    table = code._syndrome_table(1)
    assert len(table.rows) == 17 and TIE not in table.rows.values()
    Y = np.array(list(weight_patterns(8, 3, 2)), dtype=np.int64)
    ok = assert_kernel_matches_enumeration(code, 1, Y)
    for y, good in zip(Y, ok):
        assert good == (table_key(code, y) in table.rows)
    assert not ok.all()


def test_decode_kernel_on_empty_check_matrix():
    base = get_preset("masking-n8-r0").base  # [8, 8]: every word is a codeword
    assert base.H.shape == (0, 8)
    rng = np.random.default_rng(5)
    Y = rng.integers(0, 3, (40, 8))
    assert all((base.encode(base._decode_word(y.tolist(), 0, base.k)) == y).all() for y in Y)
    assert list(base._tables[0].rows) == [b""]
    # At t = 1 the single errors share the zero pattern's empty syndrome but
    # weigh more, so the zero pattern keeps it and there is no tie.
    assert all((base.encode(base._decode_word(y.tolist(), 1, base.k)) == y).all() for y in Y)


def test_decode_kernel_on_gf2048_codes():
    F = make_field(2, 11)
    rng = np.random.default_rng(12)
    repetition = LinearCode(np.array([[1, 5, 2047]]), F)  # d = 3
    for t in (1, 2):
        ok = assert_kernel_matches_enumeration(repetition, t, words_around(repetition, t, rng, 10))
        assert ok.any() and not ok.all()
    assert repetition._tables[2] is None  # t = 2 decodes by enumeration


@settings(max_examples=100, deadline=None)
@given(full_rank_generators(), st.integers(0, 2), st.integers(0, 5), st.integers(0, 2**32 - 1))
@example((GF3, np.eye(4, dtype=np.int64)), 1, 3, 0)  # k = n, empty H
@example((GF2, np.ones((1, 4), dtype=np.int64)), 2, 4, 1)  # ties at weight 2
@example((GF4, np.array([[1, 2, 3, 1, 0]], dtype=np.int64)), 1, 0, 2)  # no rows
def test_decode_kernel_matches_enumeration_on_random_codes(case, t, rows, seed):
    field, G = case
    code = LinearCode(G, field)
    rng = np.random.default_rng(seed)
    assert_kernel_matches_enumeration(code, t, words_around(code, t, rng, rows))


def test_codes_over_extension_fields_above_2_pow_16_are_refused_as_a_resource_limit():
    # Array arithmetic over an extension field needs exp/log arrays of q
    # entries, up to 2^16: beyond, a code is refused when built, not on
    # its first encode.
    for build in (
        lambda: LinearCode([[1, 0, 0], [0, 1, 0]], make_field(2, 17)),
        lambda: PsmcMatrixCode(6, make_field(3, 11), t=0),
    ):
        with pytest.raises(BudgetExceeded, match=r"array arithmetic over GF\(\d\^1\d\) needs order <= 65536"):
            build()
    assert LinearCode([[1, 1]], make_field(2, 16)).n == 2  # at the limit
    # Prime fields multiply mod q with no tables, up to 2^20.
    big = LinearCode([[1, 0, 0], [0, 1, 0]], make_field(1048573))
    assert big.encode([5, 7]).tolist() == [5, 7, 0]
    assert big.decode_bounded([5, 7, 3], 0) is None
