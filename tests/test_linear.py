from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import psmc.linear
from psmc.alphabet import make_field
from psmc.constructions import PsmcCyclicCode
from psmc.cyclic import all_cosets, build_cyclic_code
from psmc.linear import (
    ENUM_BUDGET,
    BudgetExceeded,
    LinearCode,
    mat_mul,
    min_distance,
    parity_check_matrix,
    rref,
    systematize,
)

GF2 = make_field(2)
GF3 = make_field(3)
GF4 = make_field(2, 2)
GF5 = make_field(5)
GF8 = make_field(2, 3)


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

def test_parity_check_orthogonality():
    for reps in [(4,), (4, 5), (2, 5), (1, 2, 5)]:
        code = build_cyclic_code(8, GF3, reps).to_linear_code()
        assert not mat_mul(code.G, code.H.T, GF3).any()
        assert code.H.shape == (8 - code.k, 8)


def test_rejects_rank_deficient_generator():
    with pytest.raises(ValueError):
        LinearCode(np.array([[1, 2, 0], [2, 4 % 3, 0]]) % 3, GF3)


def test_message_of_inverts_encode():
    rng = np.random.default_rng(8)
    codes = [row3_code(), build_cyclic_code(9, make_field(2, 3), (1,)).to_linear_code()]
    for code in codes:
        for _ in range(20):
            m = rng.integers(0, code.alphabet.q, size=code.k)
            assert (code.message_of(code.encode(m)) == m).all()


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
        weights = np.count_nonzero(field.vadd(block, offset), axis=1)
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
        if hasattr(code, "masked_code"):
            assert_distance_matches_walk(code.masked_code)
            assert code.d0 == walk_distance(code.masked_code.G, GF3)


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
    assert len(repetition._tables[1]) == 1 + 3 * 2047
    # [40, 20] over GF(3): 3^20 syndromes, 1 + 40*2 + 780*4 = 3201 patterns.
    code = PsmcCyclicCode(40, GF3, (1, 2, 4, 7, 11), t=2)
    assert code.base.n - code.base.k == 20
    m = np.arange(code.k1) % 3
    y = code.encode(m).codeword
    y[3] = (y[3] + 1) % 3
    y[30] = (y[30] + 2) % 3
    assert (code.decode(y) == m).all()
    assert len(code.base._tables[2]) == 3201


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
# systematize
# ---------------------------------------------------------------------------

def psmc_form_ok(M, k):
    n = M.shape[1]
    k1 = k - 1
    return (
        (M[:k1, 0] == 0).all()
        and (M[:k1, 1 : k1 + 1] == np.eye(k1, dtype=int)).all()
        and (M[k1] == 1).all()
    )


def test_systematize_already_in_form():
    P = np.array([[1, 2], [0, 1], [2, 2]])
    G = np.vstack([
        np.hstack([np.zeros((3, 1), dtype=int), np.eye(3, dtype=int), P]),
        np.ones((1, 6), dtype=int),
    ])
    out, perm = systematize(G, GF3)
    assert perm == (0, 1, 2, 3, 4, 5)
    assert (out == G).all()


def test_systematize_random_code_with_all_ones():
    rng = np.random.default_rng(11)
    while True:
        rows = rng.integers(0, 3, size=(3, 7))
        G = np.vstack([rows, np.ones((1, 7), dtype=np.int64)])
        R, piv = rref(G, GF3)
        if len(piv) == 4:
            break
    out, perm = systematize(G, GF3)
    assert psmc_form_ok(out, 4)
    # Same row space after permuting the original columns the same way.
    a, _ = rref(out, GF3)
    b, _ = rref(G[:, list(perm)], GF3)
    assert (a == b).all()


def test_systematize_rejects_code_without_all_ones():
    G = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(ValueError):
        systematize(G, GF3)
