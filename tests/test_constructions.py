import hashlib
import pickle
import random
import time
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import psmc.constructions
import psmc.linear
from psmc.alphabet import Polynomial, field_of_order, make_field
from psmc.constructions import (
    DecodingFailure,
    MaskingImpossible,
    PsmcCyclicCode,
    PsmcExtendedCode,
    PsmcMatrixCode,
    StuckCellProfile,
    masking_probability,
    redundancy_gain,
    stuck_redundancy_lower_bound,
)
from psmc.linear import (TIE, BudgetExceeded, LinearCode, _BatchOfOne, _PackedMatrix, _packs,
                         _syndrome_key, min_distance, parity_check_matrix)
from psmc.presets import (
    DEMO14_ECC_COLUMNS,
    PRESETS,
    demo14_code,
    demo14_masking_only,
    extended8_l2_code,
    extended8_l3_code,
    get_preset,
    table8_code,
)

GF3 = make_field(3)

APPENDIX_M1 = [0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0]
APPENDIX_M2 = [0, 2, 1, 0, 2, 1, 0, 2, 1, 0]
APPENDIX_STUCK = (4, 6)


def weight_patterns(n, q, t):
    yield np.zeros(n, dtype=np.int64)
    for w in range(1, t + 1):
        for pos in combinations(range(n), w):
            for vals in product(range(1, q), repeat=w):
                e = np.zeros(n, dtype=np.int64)
                e[list(pos)] = vals
                yield e


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_profile_sorts_and_validates():
    p = StuckCellProfile((6, 4))
    assert p.positions == (4, 6) and p.u == 2
    with pytest.raises(ValueError):
        StuckCellProfile((1, 1))


def test_non_integer_inputs_are_rejected_not_truncated():
    code = get_preset("table8-row3")
    with pytest.raises(ValueError, match="integers"):
        code.encode([0.9, 1.2, 2.7, 1.0], (1, 6))
    word = code.encode([0, 1, 2, 1], (1, 6)).codeword
    assert (code.decode(word) == [0, 1, 2, 1]).all()
    with pytest.raises(ValueError, match="integers"):
        code.decode(word + 0.6)
    with pytest.raises(TypeError):
        StuckCellProfile((1.9, 6.2))
    assert StuckCellProfile(np.array([6, 1])).positions == (1, 6)


def test_non_integer_code_inputs_are_rejected_not_truncated():
    with pytest.raises(ValueError, match="integers"):
        LinearCode([[1.9, 0, 1.2], [0, 1, 1]], GF3)
    with pytest.raises(ValueError, match="integers"):
        PsmcExtendedCode(GF3, [[1.0, 1.7, 1, 1, 1, 1]], t=0)
    with pytest.raises(ValueError, match="integers"):
        PsmcMatrixCode(5, GF3, [[1.5], [0.2], [2.9]], t=0)
    with pytest.raises(TypeError):
        Polynomial(GF3, [1.7, 2.2])
    assert LinearCode(np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8), GF3).G.dtype == np.int64
    assert PsmcMatrixCode(5, GF3, np.array([[1], [0], [2]], dtype=np.int8), t=0).r == 1
    assert Polynomial(GF3, np.array([1, 2])).coeffs == (1, 2)


# One code each over GF(3), GF(8) and GF(256), for the input-checking table.
INPUT_CHECK_CODES = {
    3: lambda: get_preset("masking-n8-r0"),
    8: lambda: PsmcCyclicCode(9, field_of_order(8), (1,)),
    256: lambda: PsmcMatrixCode(5, field_of_order(256), t=0),
}


@cache
def input_check_code(q):
    return INPUT_CHECK_CODES[q]()


def assert_raises_exactly(exc_type, text, call, *args, **kwargs):
    with pytest.raises(exc_type) as info:
        call(*args, **kwargs)
    assert type(info.value) is exc_type and str(info.value) == text


@pytest.mark.parametrize("q", sorted(INPUT_CHECK_CODES))
@pytest.mark.parametrize("cells, exc_type, text", [
    ((1, 1), ValueError, "stuck positions must be distinct and non-negative"),
    ((-1, 2), ValueError, "stuck positions must be distinct and non-negative"),
    ((1.5,), TypeError, "'float' object cannot be interpreted as an integer"),
    ("past the word", ValueError, "stuck position {n} outside word length {n}"),
])
def test_encode_rejects_bad_cells_as_before(q, cells, exc_type, text):
    code = input_check_code(q)
    n, m = code.n, [0] * code.k1
    if cells == "past the word":
        cells = (0, n)
    text = text.format(n=n)
    assert_raises_exactly(exc_type, text, code.encode, m, cells, probabilistic=True)
    assert_raises_exactly(exc_type, text, code.encode, m, list(cells), probabilistic=True)
    if cells[-1] == n:  # a profile holds any cells; encode checks them against n
        assert_raises_exactly(exc_type, text, code.encode, m, StuckCellProfile(cells), probabilistic=True)
    else:
        assert_raises_exactly(exc_type, text, StuckCellProfile, cells)


@pytest.mark.parametrize("q", sorted(INPUT_CHECK_CODES))
def test_encode_and_decode_reject_bad_words_as_before(q):
    code = input_check_code(q)
    k1, n, A = code.k1, code.n, code.alphabet
    encode = lambda m: code.encode(m, ())
    not_integers = "symbols must be integers, got dtype float64"
    cases = [
        (encode, [0.0] * k1, not_integers),
        (encode, [0] * (k1 - 1), f"expected length {k1}, got {k1 - 1}"),
        (encode, [[0] * k1], "expected a 1-D symbol vector"),
        (code.decode, [0.5] * n, not_integers),
        (code.decode, [0] * (n + 1), f"expected length {n}, got {n + 1}"),
        (code.decode, [[0] * n], "expected a 1-D symbol vector"),
    ]
    for s in (-1, q, 256, 2**40):
        cases += [(encode, [0] * (k1 - 1) + [s], f"symbols out of range for {A!r}"),
                  (code.decode, [s] + [0] * (n - 1), f"symbols out of range for {A!r}")]
    for call, word, text in cases:
        assert_raises_exactly(ValueError, text, call, word)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_stuck_cells_in_any_form_give_the_same_outcome(data):
    code = input_check_code(data.draw(st.sampled_from(sorted(INPUT_CHECK_CODES))))
    q, n = code.alphabet.q, code.n
    m = data.draw(st.lists(st.integers(0, q - 1), min_size=code.k1, max_size=code.k1))
    cells = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))  # any order
    forms = [tuple(cells), list(cells), np.array(cells, dtype=np.int64), StuckCellProfile(tuple(cells))]
    outcomes = []
    for form in forms:
        try:
            out = code.encode(m, form, probabilistic=True)
        except MaskingImpossible as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append((out.codeword.tolist(), out.z, out.v))
    assert outcomes.count(outcomes[0]) == len(forms)
    if isinstance(outcomes[0], str):
        assert outcomes[0] == f"no masking vector z for positions {tuple(sorted(cells))}"


def test_masking_failure_text_is_pinned():
    exc = MaskingImpossible.at((0, 1, 2))
    text = "no masking vector z for positions (0, 1, 2)"
    assert str(exc) == text and repr(exc) == f"MaskingImpossible({text!r})"
    free = MaskingImpossible("x")
    assert str(free) == "x" and repr(free) == "MaskingImpossible('x')"
    for e in (exc, free):
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is MaskingImpossible and str(back) == str(e) and repr(back) == repr(e)
    # The encode behind `psmc encode --preset masking-n8-r0 --m 1200000 --stuck 0,1,2`.
    assert_raises_exactly(MaskingImpossible, text, get_preset("masking-n8-r0").encode,
                          [1, 2, 0, 0, 0, 0, 0], (2, 1, 0), probabilistic=True)


# l = 1 masking rows [1 | tail], with and without a zero entry.
L1_MASKING_ROWS = [
    (GF3, (1, 2, 2)), (GF3, (2, 0, 1, 1)), (GF3, (0,)),
    (make_field(2, 3), (3, 5, 7, 1, 2)), (make_field(2, 3), (1, 0, 6, 0)),
    (make_field(1048573), (5, 1048572, 7, 2)), (make_field(1048573), (3, 0, 0, 1, 1048572, 2, 9, 11)),
]


@pytest.mark.parametrize("field, tail", L1_MASKING_ROWS)
def test_l1_d0_closed_form_matches_min_distance(field, tail):
    code = PsmcExtendedCode(field, [[1, *tail]], t=0)
    checked = LinearCode(parity_check_matrix(code.H0, field), field)
    assert code.d0 == min_distance(checked).d == (1 if 0 in tail else 2)


def test_l1_code_is_built_without_min_distance(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("min_distance called")

    monkeypatch.setattr(psmc.constructions, "min_distance", refuse)
    for field, tail in L1_MASKING_ROWS:
        code = PsmcExtendedCode(field, [[1, *tail]], t=0)
        assert code.d0 == (1 if 0 in tail else 2)
        assert code.u_max == (0 if 0 in tail else min(code.n, field.q - 1))
    assert extended8_l2_code().d0 == 2  # l = 2 reads d0 off H0's rows, not min_distance


# ---------------------------------------------------------------------------
# matrix construction
# ---------------------------------------------------------------------------

def test_matrix_masking_only_demo_vector():
    code = demo14_masking_only()
    out = code.encode(APPENDIX_M1, APPENDIX_STUCK)
    assert out.v == 2 and out.z == (1,)
    assert "".join(map(str, out.codeword)) == "11021021021021"


def test_encoder_outcome_is_immutable():
    for name in ("masking-n8-r0", "extended-n8-l3"):  # one masking symbol, and three
        code = get_preset(name)
        out = code.encode([0] * code.k1, (1,))
        with pytest.raises(AttributeError):
            out.v = 0


def test_matrix_ecc_demo_vector():
    code = demo14_code()
    out = code.encode(APPENDIX_M2, APPENDIX_STUCK)
    assert out.z == (1,)
    assert "".join(map(str, out.codeword)) == "11021021021000"
    assert all(out.codeword[p] >= 1 for p in APPENDIX_STUCK)


def test_matrix_decode_single_error_at_position_9():
    code = demo14_code()
    c = code.encode(APPENDIX_M2, APPENDIX_STUCK).codeword
    y = c.copy()
    y[9] = 0
    error = (y - c) % 3
    assert (code.base.syndrome(error) == code.base.syndrome(y)).all()
    assert (code.base.syndrome(y) == [1, 1, 0]).all()
    assert (code.decode(y) == APPENDIX_M2).all()


def test_matrix_decode_error_free():
    code = demo14_code()
    c = code.encode(APPENDIX_M2, APPENDIX_STUCK).codeword
    assert not code.base.syndrome(c).any()
    assert (code.decode(c) == APPENDIX_M2).all()


def test_matrix_empty_profile_smallest_v():
    code = demo14_masking_only()
    out = code.encode(APPENDIX_M1, ())
    assert out.v == 0 and out.z == (0,)
    assert (out.codeword == code.encode(APPENDIX_M1, ()).codeword).all()


def test_matrix_guaranteed_mode_rejects_large_u():
    code = PsmcMatrixCode(8, GF3, None, t=0)
    with pytest.raises(ValueError, match="probabilistic"):
        code.encode([0] * 7, (0, 1, 2))


def test_matrix_probabilistic_masking_worked_example():
    # Seven of eight cells stuck; the intermediate word (0,2,0,0,2,2,2,0)
    # misses symbol 1 on the stuck positions, so v=1, z0=2.
    code = PsmcMatrixCode(8, GF3, None, t=0)
    out = code.encode([2, 0, 0, 2, 2, 2, 0], range(7), probabilistic=True)
    assert out.v == 1 and out.z == (2,)
    assert "".join(map(str, out.codeword)) == "21221112"


def test_matrix_probabilistic_masking_impossible():
    code = PsmcMatrixCode(8, GF3, None, t=0)
    # w = (0, m): choose stuck positions where w covers the whole alphabet.
    m = [1, 2, 0, 0, 0, 0, 0]
    with pytest.raises(MaskingImpossible):
        code.encode(m, (0, 1, 2), probabilistic=True)


def test_matrix_probabilistic_success_when_not_covered():
    code = PsmcMatrixCode(8, GF3, None, t=0)
    out = code.encode([1, 1, 1, 0, 0, 0, 0], (0, 1, 2, 3), probabilistic=True)
    assert (out.codeword[[0, 1, 2, 3]] >= 1).all()


@given(q=st.sampled_from([2, 3, 5, 7]), n=st.integers(4, 10), data=st.data())
@settings(max_examples=120, deadline=None)
def test_matrix_masking_soundness_property(q, n, data):
    code = PsmcMatrixCode(n, make_field(q), None, t=0)
    m = data.draw(st.lists(st.integers(0, q - 1), min_size=n - 1, max_size=n - 1))
    u = data.draw(st.integers(0, min(n, q - 1)))
    phi = tuple(sorted(data.draw(st.permutations(range(n)))[:u]))
    out = code.encode(m, phi)
    assert all(out.codeword[p] >= 1 for p in phi)
    assert (code.decode(out.codeword) == m).all()


def test_matrix_derives_t_from_oracle():
    code = PsmcMatrixCode(8, GF3, None)
    assert code.t == 0  # full [8, 8] space has d = 1
    row3 = table8_code(3)
    assert row3.t == 1


def test_matrix_all_zero_word_decodes_to_zero():
    code = PsmcMatrixCode(8, GF3, None, t=0)
    assert (code.decode(np.zeros(8, dtype=np.int64)) == 0).all()


# ---------------------------------------------------------------------------
# cyclic construction
# ---------------------------------------------------------------------------

def test_cyclic_rejects_g1_not_dividing_g0():
    with pytest.raises(ValueError, match="divide"):
        PsmcCyclicCode(8, GF3, (0,))


def test_cyclic_g1_must_leave_information_symbols():
    # Cosets {1, 3}, {2, 6}, {4} and {5, 7} of 8 over GF(3): r = 7, so k1 = 0.
    with pytest.raises(ValueError, match=r"^no room for information symbols \(deg g1 too large\)$"):
        PsmcCyclicCode(8, GF3, (1, 2, 4, 5))


def test_cyclic_r0_reduction():
    code = PsmcCyclicCode(8, GF3, ())
    assert code.r == 0 and code.k1 == 7 and code.g1.coeffs == (1,)
    m = [0, 2, 1, 1, 0, 2, 0]
    out = code.encode(m, (0, 3))
    z0 = out.z[0]
    expected = (np.array(m + [0]) + z0) % 3
    assert (out.codeword == expected).all()
    assert (code.decode(out.codeword) == m).all()


def test_cyclic_zero_message_gives_constant_codeword():
    code = table8_code(5)
    out = code.encode([0] * code.k1, (2, 5))
    assert out.v == 1 and out.z == (2,)
    assert (out.codeword == out.z[0]).all()
    out2 = code.encode([0] * code.k1, ())
    assert (out2.codeword == 0).all() and out2.z == (0,)


def test_cyclic_row3_masks_exhaustively():
    code = table8_code(3)
    stuck_sets = [()] + [(i,) for i in range(8)] + list(combinations(range(8), 2))
    for m in product(range(3), repeat=code.k1):
        for phi in stuck_sets:
            out = code.encode(m, phi)
            assert all(out.codeword[p] >= 1 for p in phi)


def test_cyclic_row3_decodes_all_single_errors():
    code = table8_code(3)
    assert code.t == 1
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.integers(0, 3, code.k1)
        c = code.encode(m, (1, 6)).codeword
        for e in weight_patterns(8, 3, 1):
            assert (code.decode((c + e) % 3) == m).all()


def test_cyclic_decode_zero():
    code = table8_code(3)
    out = code.encode([0] * code.k1, ())
    assert (code.decode(out.codeword) == 0).all()


def test_cyclic_decoding_failure_surfaces():
    code = table8_code(3)
    c = code.encode([1, 0, 0, 2], ()).codeword
    # Hit a syndrome with no weight<=1 leader (exists: 27 syndromes, 17 leaders).
    for e in weight_patterns(8, 3, 2):
        if np.count_nonzero(e) == 2 and code.base.decode_bounded((c + e) % 3, 1) is None:
            with pytest.raises(DecodingFailure):
                code.decode((c + e) % 3)
            return
    raise AssertionError("expected an uncorrectable double error")


def test_tie_failure_message_is_true():
    # appendix-n14 has d = 2 but t = 1.  A single error on the zero codeword
    # is within distance 1 of it, yet 4 of the 28 single errors share their
    # syndrome with another single error, so no codeword is the unique nearest.
    code = get_preset("appendix-n14")
    assert not code.encode([0] * code.k1, ()).codeword.any() and code.t == 1
    singles = {}
    for j, v in product(range(code.n), (1, 2)):
        y = np.zeros(code.n, dtype=np.int64)
        y[j] = v
        singles[j, v] = y
    failed = []
    for (j, v), y in singles.items():
        try:
            assert not code.decode(y).any()
        except DecodingFailure as exc:
            assert str(exc) == "no unique codeword within distance 1"
            s = code.base.syndrome(y)
            assert sum((code.base.syndrome(e) == s).all() for e in singles.values()) == 2
            failed.append((j, v))
    assert failed == [(0, 1), (0, 2), (5, 1), (5, 2)]


def test_cyclic_message_length_validation():
    code = table8_code(3)
    with pytest.raises(ValueError):
        code.encode([0] * (code.k1 + 1), ())


def test_cyclic_stacked_code_is_the_code_g1_generates():
    for row in (1, 3, 5, 7):
        code = table8_code(row)
        ref = code.spec.to_linear_code()
        assert code.base.k == ref.k == code.k1 + 1
        assert (code.base.H == ref.H).all()


# ---------------------------------------------------------------------------
# masking probability and redundancy accounting
# ---------------------------------------------------------------------------

def test_masking_probability_known_values():
    assert masking_probability(3, 7) == Fraction(381, 2187)
    assert masking_probability(3, 3) == Fraction(21, 27)
    for q in range(2, 8):
        for u in range(q):
            assert masking_probability(q, u) == 1
    assert masking_probability(1048573, 7) == 1  # a field the codes support


def test_masking_probability_budget():
    # q * u * bit_length(q): 1031 is about 1.2e7, within PROB_BUDGET; 4099
    # is about 2.2e8, over it, and refused before any term is summed.
    p = masking_probability(1031, 1031)
    assert isinstance(p, Fraction) and 0 < p < 1
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="exceeds budget"):
        masking_probability(4099, 4099)
    assert time.perf_counter() - start < 1


def test_masking_probability_monotone_in_u():
    for q in (2, 3, 5):
        vals = [masking_probability(q, u) for u in range(0, 13)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_masking_probability_matches_direct_count():
    # Oracle: count vectors of [q]^u that miss at least one symbol.
    for q, u in [(2, 3), (3, 4), (3, 5), (4, 4)]:
        count = sum(1 for w in product(range(q), repeat=u) if len(set(w)) < q)
        assert masking_probability(q, u) == Fraction(count, q**u)


def test_redundancy_gain_published_values():
    k1s, ls = redundancy_gain(6, 2, 6)
    assert round(k1s, 3) == 6.387 and round(ls, 3) == 0.613
    k1s, ls = redundancy_gain(6, 2, 1)
    assert round(k1s, 3) == 1.387 and round(ls, 3) == 0.613
    k1s, ls = redundancy_gain(5, 4, 9)
    assert k1s == 9.0 and ls == 1.0  # floor(q/q) = 1, zero gain
    with pytest.raises(ValueError):
        redundancy_gain(3, 3, 5)


def test_stuck_redundancy_lower_bound():
    assert stuck_redundancy_lower_bound(2) == 2
    assert stuck_redundancy_lower_bound(0) == 0


def test_accounting_input_checks():
    with pytest.raises(ValueError, match=r"^need q >= 2 and u >= 0$"):
        masking_probability(1, 0)
    with pytest.raises(ValueError, match=r"^u must be >= 0$"):
        stuck_redundancy_lower_bound(-1)


# ---------------------------------------------------------------------------
# extended construction
# ---------------------------------------------------------------------------

def test_extended_l1_allones_matches_matrix_construction():
    ones = np.ones((1, 8), dtype=np.int64)
    ext = PsmcExtendedCode(GF3, ones)
    mat = PsmcMatrixCode(8, GF3, None)
    assert ext.d0 == 2 and ext.u_max == 2 == mat.u_max
    for m in product(range(3), repeat=7):
        for phi in [(), (2,), (1, 5), (0, 7)]:
            a = ext.encode(m, phi)
            b = mat.encode(m, phi)
            assert (a.codeword == b.codeword).all()
            assert a.z == b.z


def test_extended_l1_decodes_demo_vectors_like_matrix():
    ones = np.ones((1, 14), dtype=np.int64)
    ext = PsmcExtendedCode(GF3, ones, DEMO14_ECC_COLUMNS, t=1)
    mat = demo14_code()
    y = mat.encode(APPENDIX_M2, APPENDIX_STUCK).codeword
    y[9] = 0
    assert (ext.decode(y) == mat.decode(y)).all()
    assert (ext.decode(y) == APPENDIX_M2).all()


def test_extended_l2_demo_shape():
    code = extended8_l2_code()
    assert (code.n, code.k1, code.l, code.r) == (8, 3, 2, 3)
    assert code.d0 == 2  # best possible for an [8, 6] ternary code
    assert code.u_max == 2
    assert code.t == 1


def test_extended_l2_deterministic_first_z():
    code = extended8_l2_code()
    out = code.encode([0, 0, 0], ())
    assert out.z == (0, 0)
    # Cell 0 reads z0 directly (systematic column), so any z with z0 != 0
    # works; the v-lexicographic scan reaches v = (1, 0), i.e. z = (2, 0).
    out = code.encode([0, 0, 0], (0,))
    assert out.z == (2, 0)


def test_extended_l2_guaranteed_regime():
    code = extended8_l2_code()
    for m in product(range(3), repeat=3):
        for phi in combinations(range(8), 2):
            out = code.encode(m, phi)
            assert all(out.codeword[p] >= 1 for p in phi)


def test_extended_l3_demo_guarantees_u3():
    code = extended8_l3_code()
    assert (code.n, code.k1, code.l, code.r) == (8, 2, 3, 3)
    assert code.d0 == 3
    assert code.u_max == 3
    for m in product(range(3), repeat=2):
        for phi in combinations(range(8), 3):
            out = code.encode(m, phi)  # guaranteed mode must never raise
            assert all(out.codeword[p] >= 1 for p in phi)


def test_extended_decode_roundtrip_with_errors():
    code = extended8_l2_code()
    rng = np.random.default_rng(5)
    for _ in range(5):
        m = rng.integers(0, 3, 3)
        c = code.encode(m, (0, 4)).codeword
        for e in weight_patterns(8, 3, 1):
            assert (code.decode((c + e) % 3) == m).all()


def test_extended_requires_systematic_check():
    bad = np.array([[0, 1, 1, 1, 1, 1, 1, 1]], dtype=np.int64)
    with pytest.raises(ValueError, match="systematic"):
        PsmcExtendedCode(GF3, bad)


@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("k", range(1, 6))
@settings(max_examples=15, deadline=None)
@given(field=st.sampled_from([GF3, make_field(2, 2), make_field(5)]), data=st.data())
def test_extended_d0_matches_min_distance_of_the_checked_code(l, k, field, data):
    # n = l + k from l + 1 to l + 5: the checked [n, k] code's distance is
    # read off its generator for k <= l and off H0 through MacWilliams above.
    # min_distance runs the same enumeration, so a scan of the checked
    # code's nonzero words backs it up.
    entry = st.integers(0, field.q - 1)
    A = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=l, max_size=l))
    H0 = np.hstack([np.eye(l, dtype=np.int64), np.array(A, dtype=np.int64)])
    code = PsmcExtendedCode(field, H0, t=0)
    checked = LinearCode(parity_check_matrix(H0, field), field)
    assert code.d0 == min_distance(checked).d
    messages = np.array(list(product(range(field.q), repeat=k))[1:], dtype=np.int64)
    assert code.d0 == np.count_nonzero(field.matmul(messages, checked.G), axis=1).min()


def test_extended_d0_enumerates_the_smaller_side():
    # n = 3 < 2l: the checked code has 1048573 words and its dual 1048573^2,
    # so d0 comes from the code's own rows, within the enumeration budget.
    code = PsmcExtendedCode(make_field(1048573), [[1, 0, 5], [0, 1, 7]], t=0)
    assert code.d0 == 3


def test_extended_input_checks():
    with pytest.raises(ValueError, match=r"^masking check must be an l x n matrix$"):
        PsmcExtendedCode(GF3, [1, 1, 1])
    with pytest.raises(ValueError, match=r"^no room for information symbols$"):
        PsmcExtendedCode(GF3, [[1, 1, 1]], np.zeros((1, 2), dtype=np.int64))
    with pytest.raises(ValueError, match=r"^ecc_columns must have 5 rows, got 3$"):
        PsmcMatrixCode(8, GF3, np.zeros((3, 2), dtype=np.int64))


def test_extended_masking_impossible_outside_regime():
    # Check columns 0, 2, 3 all lie in the projective class of (1, 0), so
    # stuck values demanding three distinct z0 lines cover all of GF(3)^2.
    H0 = np.array([[1, 0, 1, 2, 1, 0, 0, 0], [0, 1, 0, 0, 0, 1, 1, 1]], dtype=np.int64)
    code = PsmcExtendedCode(GF3, H0)
    # w = (0, 0, m0, m1, ...): lines z0 = 0, z0 = -m0, z0 = -2*m1; m = (1, 1)
    # makes them {0, 2, 1}, leaving no masking vector.
    with pytest.raises(MaskingImpossible):
        code.encode([1, 1, 0, 0, 0, 0], (0, 2, 3), probabilistic=True)


def test_extended_empty_profile_zero_shift():
    code = extended8_l3_code()
    out = code.encode([1, 2], ())
    assert out.z == (0, 0, 0)
    assert (out.codeword == code.base.encode(np.concatenate([[1, 2], [0, 0, 0]]))).all()
    assert (code.decode(out.codeword) == [1, 2]).all()


def test_code_reprs():
    # bench/workloads.py describe records these strings for each built code.
    expected = {
        "masking-n8-r0": "PsmcMatrixCode(n=8, k1=7, r=0, t=0, GF(3))",
        "appendix-n14": "PsmcMatrixCode(n=14, k1=10, r=3, t=1, GF(3))",
        "table8-row5": "PsmcCyclicCode(n=8, k1=2, r=5, delta1>=5, t=2, GF(3))",
        "extended-n8-l2": "PsmcExtendedCode(n=8, k1=3, l=2, r=3, d0=2, t=1, GF(3))",
        "extended-n8-l3": "PsmcExtendedCode(n=8, k1=2, l=3, r=3, d0=3, t=1, GF(3))",
    }
    for name, text in expected.items():
        assert repr(get_preset(name)) == text
    assert repr(get_preset("table8-row5").base) == "LinearCode([8, 3] over GF(3))"
    assert repr(Polynomial(GF3, [2, 0, 1, 0])) == "Polynomial(GF(3), [2, 0, 1])"
    assert repr(Polynomial(make_field(2, 2))) == "Polynomial(GF(2^2), [])"


# ---------------------------------------------------------------------------
# one masking core behind the three constructors
# ---------------------------------------------------------------------------

GOLDEN_WORDS = 150

# sha256 of the encode results (codeword, z, v, or "impossible") and the
# one-error decode results over a seeded set of (message, stuck set)
# inputs at u = u_max and u_max + 1, recorded with the three separate
# per-construction encoders and decoders that the shared core replaced.
# The GF(9), GF(25) and GF(3^7) codes pin odd-characteristic extension
# fields; their digests were recorded before scalar and array field ops
# shared one digit kernel and one exp/log layout.
GOLDEN_DIGESTS = {
    "appendix-n14": "ee11bb7f11470269313cb8b70826f19749ee142834478640364d268b6c37e04c",
    "appendix-n14-r0": "b20abc1bfe5ed3f8cb550c2368401803c2b53475c64d93a76149afa9062a6d66",
    "extended-n8-l2": "cf87bf072c126f750c1763a27ccb41baf3b8ef953c8141937f80a615e5f2a9cb",
    "extended-n8-l3": "5a752e98cfaa873fdd7743d4a10a971e844c9010ee9ce52e735b96dd52cf8f6a",
    "masking-n8-r0": "6d9595a4e1f2ac11009350166035222f357cf10be696c5446696307733418fa9",
    "table8-row1": "fac13b085ccb873655e83b41bcbe9371719f03b3f457d3dfd2214c0fbdfcbde5",
    "table8-row2": "038c79eb4a73d8e13d779ca3d62ffc17807f255e8aad7581c64a642821f7abbe",
    "table8-row3": "63e7ec80439e7b15a35f08f3aaaea4682a19adb82f946507ede5f99b626f268b",
    "table8-row4": "2ccce609b4796fc4779938136f71c5a0b336122d593046e515810b6a2bcfb3dc",
    "table8-row5": "92990d0183d4351ba715c05b3081581f5f20009071c5a7aa88a9838bba10b2dd",
    "table8-row6": "247f6bba519ff363ab4878f9eb9b534dc17553b6520b329ebf68a441b0bdc918",
    "table8-row7": "66f48577c0c6a7494ac1278cea42dff0b9757ad97a42e72f27d453d9b44f19be",
    "cyclic-n9-gf8": "5de171ec1e596d1b221a3b429579985dfa67840f6479ce0a4c1be92829bfaa5c",
    "cyclic-n10-gf9": "bc59878771bc0a9a0e94cd375cf2f52bf8ee97fca2a17248cda0382755c0b075",
    "cyclic-n8-gf25": "b2ca16c43a6af0a3c862f82007edaf36b07a9876e01a3a3871f39cd06eb05fd0",
    "matrix-n6-gf2187": "8ec13c0d4f14414ff7e8e5875316935fd6435563df030659b4f67ddef56eac19",
}


def golden_codes():
    codes = {name: get_preset(name) for name in sorted(PRESETS)}
    codes["cyclic-n9-gf8"] = PsmcCyclicCode(9, make_field(2, 3), (1,))
    codes["cyclic-n10-gf9"] = PsmcCyclicCode(10, make_field(3, 2), (1, 2))
    codes["cyclic-n8-gf25"] = PsmcCyclicCode(8, make_field(5, 2), (1, 2))
    codes["matrix-n6-gf2187"] = PsmcMatrixCode(6, make_field(3, 7), None, t=0)
    return codes


def golden_digest(code, seed):
    A = code.alphabet
    rnd = random.Random(seed)
    h = hashlib.sha256()
    for u in (code.u_max, code.u_max + 1):
        if u > code.n:
            continue
        for _ in range(GOLDEN_WORDS):
            m = [rnd.randrange(A.q) for _ in range(code.k1)]
            stuck = tuple(sorted(rnd.sample(range(code.n), u)))
            pos, val = rnd.randrange(code.n), rnd.randrange(1, A.q)
            try:
                out = code.encode(m, stuck, probabilistic=True)
            except MaskingImpossible:
                h.update(b"impossible;")
                continue
            y = [int(x) for x in out.codeword]
            y[pos] = A.add(y[pos], val)
            try:
                dec = ",".join(str(int(x)) for x in code.decode(y))
            except DecodingFailure:
                dec = "fail"
            word = ",".join(str(int(x)) for x in out.codeword)
            z = ",".join(str(int(x)) for x in out.z)
            h.update(f"{word}|{z}|{out.v}|{dec};".encode())
    return h.hexdigest()


def test_golden_digests_match_separate_constructions():
    codes = golden_codes()
    assert list(codes) == list(GOLDEN_DIGESTS)
    for i, (name, code) in enumerate(codes.items()):
        assert golden_digest(code, 1000 + i) == GOLDEN_DIGESTS[name], name


GF9 = make_field(3, 2)
GF9_EXTENDED = PsmcExtendedCode(GF9, [[1, 0, 1, 1, 1, 1], [0, 1, 1, 2, 3, 4]], t=0)
ORACLE_CODES = {
    "masking-n8-r0": get_preset("masking-n8-r0"),
    "table8-row3": table8_code(3),
    "extended-n8-l2": extended8_l2_code(),
    "extended-n8-l3": extended8_l3_code(),
    "cyclic-n9-gf8": PsmcCyclicCode(9, make_field(2, 3), (1,), t=1),
    "extended-gf9-l2": GF9_EXTENDED,
}


def scalar_first_mask(code, m, stuck):
    """(codeword, z) of the first valid v-lexicographic candidate, by scalar ops."""
    A, n = code.alphabet, code.n
    w = [0] * n
    for i, mi in enumerate(m):
        for j in range(n):
            w[j] = A.add(w[j], A.mul(mi, int(code.G1[i, j])))
    for v in product(range(A.q), repeat=code.l):
        z = tuple(A.neg(x) for x in v)
        c = list(w)
        for i, zi in enumerate(z):
            for j in range(n):
                c[j] = A.add(c[j], A.mul(zi, int(code.H0[i, j])))
        if all(c[j] != 0 for j in stuck):
            return c, z
    return None


@given(name=st.sampled_from(sorted(ORACLE_CODES)), data=st.data())
@settings(max_examples=150, deadline=None)
def test_masking_vector_is_first_valid_candidate(name, data):
    code = ORACLE_CODES[name]
    q = code.alphabet.q
    m = data.draw(st.lists(st.integers(0, q - 1), min_size=code.k1, max_size=code.k1))
    u = data.draw(st.integers(0, code.n))
    stuck = tuple(sorted(data.draw(st.permutations(range(code.n)))[:u]))
    expected = scalar_first_mask(code, m, stuck)
    if expected is None:
        assert u > code.u_max
        with pytest.raises(MaskingImpossible):
            code.encode(m, stuck, probabilistic=True)
        return
    out = code.encode(m, stuck, probabilistic=True)
    assert out.codeword.tolist() == expected[0] and out.z == expected[1]
    assert out.v == (code.alphabet.neg(out.z[0]) if code.l == 1 else None)
    assert (code.decode(out.codeword) == m).all()


@st.composite
def systematic_masking_codes(draw):
    """PsmcExtendedCode over GF(3), GF(4) or GF(5) with a random systematic
    l x n masking check, l in {1, 2, 3}.  Entries may be 0, zero columns
    included (d0 = 1), and an l = 1 check may be the all-ones row."""
    field = draw(st.sampled_from([GF3, make_field(2, 2), make_field(5)]))
    l = draw(st.integers(1, 3))
    n = draw(st.integers(l + 1, l + 4))
    if l == 1 and draw(st.booleans()):
        tail = [1] * (n - 1)
    else:
        tail = draw(st.lists(st.integers(0, field.q - 1), min_size=l * (n - l), max_size=l * (n - l)))
    H0 = np.hstack([np.eye(l, dtype=np.int64), np.array(tail, dtype=np.int64).reshape(l, n - l)])
    return PsmcExtendedCode(field, H0, t=0)


@given(code=systematic_masking_codes(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_masking_rule_matches_a_scan_of_every_candidate(code, data):
    q = code.alphabet.q
    m = data.draw(st.lists(st.integers(0, q - 1), min_size=code.k1, max_size=code.k1))
    u = data.draw(st.integers(0, code.n))
    stuck = tuple(sorted(data.draw(st.permutations(range(code.n)))[:u]))
    expected = scalar_first_mask(code, m, stuck)
    if expected is None:
        assert u > code.u_max
        with pytest.raises(MaskingImpossible):
            code.encode(m, stuck, probabilistic=True)
        return
    out = code.encode(m, stuck, probabilistic=True)
    assert out.codeword.tolist() == expected[0] and out.z == expected[1]
    assert out.v == (code.alphabet.neg(out.z[0]) if code.l == 1 else None)
    assert (code.decode(out.codeword) == m).all()


def test_zero_column_in_masking_check_guarantees_nothing():
    code = PsmcExtendedCode(GF3, [[1, 0, 2]], t=0)  # cell 1 is never shifted
    assert code.d0 == 1 and code.u_max == 0
    with pytest.raises(ValueError, match="exceeds the guaranteed bound 0"):
        code.encode([0, 0], (1,))
    with pytest.raises(MaskingImpossible):
        code.encode([0, 0], (1,), probabilistic=True)
    assert code.encode([1, 0], (1,), probabilistic=True).codeword.tolist() == [0, 1, 0]


def encode_masks(code, message, stuck) -> bool:
    try:
        code.encode(message, stuck, probabilistic=True)
    except MaskingImpossible:
        return False
    return True


def assert_block_rule_matches_encode(code, messages, stuck):
    """_maskable over the block agrees with a probabilistic encode per row."""
    got = code._maskable(messages, stuck).tolist()
    want = [encode_masks(code, m, s) for m, s in zip(messages, stuck.tolist())]
    assert got == want
    return got


# (code, u values): every message and every stuck set of each size, above the
# guarantee.  The GF(3) row and the GF(4) l = 2 check have zero entries: a
# zero column (cell never shifted), and at GF(4) column 2 a zero in the last
# row only, whose cell the prefix rows still shift.
EXHAUSTIVE_BLOCK_RULE_CASES = {
    "masking-n8-r0": (lambda: get_preset("masking-n8-r0"), (7, 8)),
    "extended-n8-l2": (extended8_l2_code, (3, 4)),
    "extended-n8-l3": (extended8_l3_code, (4, 5)),
    "table8-row5": (lambda: table8_code(5), (4,)),
    "gf3-zero-entry": (lambda: PsmcExtendedCode(GF3, [[1, 0, 2]], t=0), (1, 2, 3)),
    "gf4-l2-zero-column": (
        lambda: PsmcExtendedCode(make_field(2, 2), [[1, 0, 1, 0, 2], [0, 1, 0, 0, 3]], t=0), (1, 2, 3, 4, 5)),
}


@pytest.mark.parametrize("name", sorted(EXHAUSTIVE_BLOCK_RULE_CASES))
def test_block_masking_rule_matches_encode_exhaustively(name):
    make, us = EXHAUSTIVE_BLOCK_RULE_CASES[name]
    code = make()
    assert min(us) > code.u_max
    messages = np.array(list(product(range(code.alphabet.q), repeat=code.k1)), dtype=np.int64)
    outcomes = set()
    for u in us:
        sets = np.array(list(combinations(range(code.n), u)), dtype=np.int64).reshape(-1, u)
        block_messages = np.repeat(messages, len(sets), axis=0)
        block_stuck = np.tile(sets, (len(messages), 1))
        outcomes.update(assert_block_rule_matches_encode(code, block_messages, block_stuck))
    assert outcomes == {False, True}


# Masking rows [1 | tail] over GF(1048573) with zero entries, built once each.
LARGE_FIELD_TAILS = [(0,), (0, 5, 1048572, 7), (3, 0, 0, 1, 1048572, 2, 9, 11)]


@cache
def large_field_zero_entry_code(tail):
    return PsmcExtendedCode(make_field(1048573), [[1, *tail]], t=0)


@st.composite
def zero_entry_l1_codes(draw):
    """An l = 1 extended code over GF(8) or GF(1048573) whose masking row
    has a zero entry, so d0 = 1 and every u >= 1 is above the guarantee."""
    if draw(st.booleans()):
        code = large_field_zero_entry_code(draw(st.sampled_from(LARGE_FIELD_TAILS)))
    else:
        n = draw(st.integers(2, 9))
        tail = draw(st.lists(st.integers(0, 7), min_size=n - 1, max_size=n - 1))
        tail[draw(st.integers(0, n - 2))] = 0
        code = PsmcExtendedCode(make_field(2, 3), [[1, *tail]], t=0)
    assert code.u_max == 0
    return code


@given(code=zero_entry_l1_codes(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_block_masking_rule_matches_encode_on_zero_entry_codes(code, data):
    q, n = code.alphabet.q, code.n
    symbol = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1))
    u = data.draw(st.integers(1, n))
    rows = data.draw(st.integers(1, 8))
    messages = np.array(
        [data.draw(st.lists(symbol, min_size=code.k1, max_size=code.k1)) for _ in range(rows)], dtype=np.int64)
    stuck = np.array([sorted(data.draw(st.permutations(range(n)))[:u]) for _ in range(rows)], dtype=np.int64)
    assert_block_rule_matches_encode(code, messages, stuck)


def test_first_encode_over_a_large_prime_field_stays_small():
    # The masking search keeps no table with a row per symbol value, which
    # at q = 1048573 would take hundreds of megabytes.
    code = PsmcMatrixCode(6, make_field(1048573), t=0)
    tracemalloc.start()
    try:
        out = code.encode([1, 2, 3, 4, 5], (0, 1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.codeword.tolist() == [1048570, 1048571, 1048572, 0, 1, 2] and out.v == 3
    assert peak < 16 * 2**20, peak


def test_first_encode_of_an_l2_code_over_gf256_stays_small():
    # The masking search keeps the q^(l-1) = 256 prefix rows and builds the
    # shift of the one z it picks, never a row for each of the q^l = 65 536
    # candidates.
    code = PsmcExtendedCode(make_field(2, 8), [[1, 0, 1, 1, 1, 1], [0, 1, 1, 2, 3, 4]], t=0)
    m, stuck = [7, 0, 200, 13], (0, 1, 2, 3, 4, 5)
    tracemalloc.start()
    try:
        out = code.encode(m, stuck)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.codeword.tolist(), out.z) == scalar_first_mask(code, m, stuck)
    assert out.v is None and (code.decode(out.codeword) == m).all()
    assert peak <= 2 * 2**20, peak


def test_gf2048_matrix_code_roundtrip_with_stuck_cells():
    F = make_field(2, 11)
    code = PsmcMatrixCode(6, F, None, t=0)
    assert code.u_max == 6
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.integers(0, F.q, size=code.k1)
        stuck = tuple(sorted(rng.choice(6, size=6, replace=False)))
        out = code.encode(m, stuck)
        assert all(out.codeword[p] >= 1 for p in stuck)
        assert (code.decode(out.codeword) == m).all()


# ---------------------------------------------------------------------------
# the packed word kernel against the numpy kernel
# ---------------------------------------------------------------------------

# (q, rows, packed): characteristic 2 packs up to q = 256 at any row count;
# a prime q packs while (rows + 1)(q - 1) <= 255; nothing else packs.
GATE_CASES = [
    (2, 1000, True), (8, 40, True), (256, 1, True), (512, 1, False),
    (3, 126, True), (3, 127, False), (31, 7, True), (31, 8, False),
    (251, 0, True), (251, 1, False), (9, 1, False), (25, 1, False), (1048573, 1, False),
]


@pytest.mark.parametrize("q, rows, packed", GATE_CASES)
def test_gate_picks_the_packed_kernel_only_where_no_byte_can_carry(q, rows, packed):
    assert _packs(field_of_order(q), rows) == packed


def test_gate_picks_each_kernel_of_a_code():
    # GF(31), n = 7: m G1 sums k1 = 5 rows and y K sums n = 7, so both pack;
    # at n = 8 y K would carry, while m G1 (k1 = 6) still packs.
    for n, read_form in ((7, _PackedMatrix), (8, _BatchOfOne)):
        code = PsmcMatrixCode(n, make_field(31), np.ones((n - 2, 1), dtype=np.int64), t=0)
        assert isinstance(code._g1, _PackedMatrix)
        assert isinstance(code.base._read, read_form)
    for code in (get_preset("appendix-n14"), PsmcCyclicCode(9, make_field(2, 3), (1,))):
        assert isinstance(code._g1, _PackedMatrix) and isinstance(code.base._read, _PackedMatrix)
    for code in (PsmcCyclicCode(10, make_field(3, 2), (1, 2)), PsmcMatrixCode(6, make_field(1048573), t=0)):
        assert isinstance(code._g1, _BatchOfOne) and isinstance(code.base._read, _BatchOfOne)


def test_one_gate_in_linear_chooses_the_forms_of_g1_and_k():
    # psmc.linear._product is the only place a form is chosen: gating
    # _packs off there alone gives both products as batches of one, and
    # the gate is asked about k1 rows for G1 and n rows for K.
    F = make_field(2, 3)
    with mock.patch.object(psmc.linear, "_packs", return_value=False) as gate:
        code = PsmcCyclicCode(9, F, (1,), t=1)
        assert isinstance(code._g1, _BatchOfOne) and isinstance(code.base._read, _BatchOfOne)
    assert [call.args for call in gate.call_args_list] == [(F, code.k1), (F, code.n)]
    packed = PsmcCyclicCode(9, F, (1,), t=1)
    assert isinstance(packed._g1, _PackedMatrix) and isinstance(packed.base._read, _PackedMatrix)
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rng.integers(0, F.q, code.k1)
        out, ref = packed.encode(m, (0, 4)), code.encode(m, (0, 4))
        assert (out.codeword.tolist(), out.z, out.v) == (ref.codeword.tolist(), ref.z, ref.v)
        e = np.zeros(code.n, dtype=np.int64)
        e[rng.integers(code.n)] = rng.integers(1, F.q)
        y = F.add(out.codeword, e)
        assert packed.decode(y).tolist() == code.decode(y).tolist() == m.tolist()


def test_mixed_forms_match_the_numpy_twin_and_the_oracle():
    # Cyclic n = 8 over GF(31): m G1 sums k1 = 3 rows and packs, while y K
    # sums n = 8 rows, whose bytes could carry, so K is a batch of one.
    F = make_field(31)
    code = PsmcCyclicCode(8, F, (1, 2))
    assert (code.k1, code.t) == (3, 1)
    assert isinstance(code._g1, _PackedMatrix) and isinstance(code.base._read, _BatchOfOne)
    with mock.patch.object(psmc.linear, "_packs", return_value=False):
        twin = PsmcCyclicCode(8, F, (1, 2), t=1)
        assert isinstance(twin._g1, _BatchOfOne) and isinstance(twin.base._read, _BatchOfOne)
    rng = np.random.default_rng(20260811)
    base, checked = code.base, 0
    for trial in range(400):
        m = rng.integers(0, F.q, code.k1)
        stuck = tuple(sorted(rng.choice(code.n, size=int(rng.integers(0, code.n + 1)), replace=False).tolist()))
        try:
            out = code.encode(m, stuck, probabilistic=True)
        except MaskingImpossible:
            with pytest.raises(MaskingImpossible):
                twin.encode(m, stuck, probabilistic=True)
            continue
        ref = twin.encode(m, stuck, probabilistic=True)
        assert out.codeword.dtype == np.int64
        assert (out.codeword.tolist(), out.z, out.v) == (ref.codeword.tolist(), ref.z, ref.v)
        e = np.zeros(code.n, dtype=np.int64)
        cells = rng.choice(code.n, size=int(rng.integers(0, 3)), replace=False)
        e[cells] = rng.integers(1, F.q, len(cells))
        y = F.add(out.codeword, e)
        x = base._decode_word(y, 1, base.k, y.tolist())
        other = twin.base._decode_word(y, 1, base.k, y.tolist())
        assert (x is None) == (other is None)
        if x is None:
            with pytest.raises(DecodingFailure):
                code.decode(y)
        else:
            assert x.dtype == np.int64 and x.tolist() == other.tolist()
            assert code.decode(y).tolist() == twin.decode(y).tolist() == x[: code.k1].tolist()
        if trial % 40 == 0:  # the enumeration oracle walks all 31^4 codewords
            oracle = base._decode_by_enumeration(y, 1)
            assert (x is None) == (oracle is None)
            assert x is None or x.tolist() == base.message_of(oracle).tolist()
            checked += 1
    assert checked >= 5


def numpy_kernel(code):
    """A copy of code built with the packed kernel gated off, at its one gate."""
    with mock.patch.object(psmc.linear, "_packs", return_value=False):
        twin = PsmcExtendedCode(code.alphabet, code.H0, code.G1[:, code.n - code.r :], t=code.t)
        assert isinstance(twin._g1, _BatchOfOne) and isinstance(twin.base._read, _BatchOfOne)
    return twin


# (q, n): every field on both sides of the gate, and GF(31) words just inside
# (n = 7) and just outside (n = 8) its byte limit.
KERNEL_SHAPES = [(2, 6), (2, 9), (3, 8), (4, 6), (5, 6), (7, 5), (8, 5), (256, 3), (31, 7), (31, 8)]


@st.composite
def kernel_codes(draw):
    """A code [0 | I | P ; H0] with H0 = [I | X] whose q^k codewords the
    enumeration oracle can walk, at t <= 2 (t <= 1 above q = 8)."""
    q, n = draw(st.sampled_from(KERNEL_SHAPES))
    field = field_of_order(q)
    l = draw(st.integers(1, 2 if q <= 8 else 1))
    kmax = max(k for k in range(1, n + 1) if q**k <= 1 << 16)
    r = draw(st.integers(max(0, n - kmax), n - l - 1))
    symbols = lambda count: draw(st.lists(st.integers(0, q - 1), min_size=count, max_size=count))
    H0 = np.hstack([np.eye(l, dtype=np.int64), np.array(symbols(l * (n - l)), dtype=np.int64).reshape(l, n - l)])
    P = np.array(symbols((n - l - r) * r), dtype=np.int64).reshape(n - l - r, r)
    t = draw(st.integers(0, 2 if q <= 8 else 1))
    return PsmcExtendedCode(field, H0, P, t=t)


@given(code=kernel_codes(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_packed_kernel_matches_the_numpy_kernel_and_the_oracle(code, data):
    A, n, t = code.alphabet, code.n, code.t
    twin = numpy_kernel(code)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    base, other = code.base, twin.base
    for _ in range(6):
        m = rng.integers(0, A.q, code.k1)
        stuck = tuple(sorted(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist()))
        try:
            out = code.encode(m, stuck, probabilistic=True)
        except MaskingImpossible:
            with pytest.raises(MaskingImpossible):
                twin.encode(m, stuck, probabilistic=True)
            out = None
        else:
            ref = twin.encode(m, stuck, probabilistic=True)
            assert out.codeword.dtype == np.int64
            assert (out.codeword.tolist(), out.z, out.v) == (ref.codeword.tolist(), ref.z, ref.v)
            assert (code.decode(out.codeword) == m).all()
        e = np.zeros(n, dtype=np.int64)
        cells = rng.choice(n, size=int(rng.integers(0, min(n, t + 2) + 1)), replace=False)
        e[cells] = rng.integers(1, A.q, len(cells))
        c = base.encode(rng.integers(0, A.q, base.k)) if out is None else out.codeword
        for y in (A.add(c, e), rng.integers(0, A.q, n)):
            x = base._decode_word(y, t, base.k, y.tolist())
            assert x is None or x.dtype == np.int64
            ref = other._decode_word(y, t, base.k, y.tolist())
            oracle = base._decode_by_enumeration(y, t)
            assert (x is None) == (ref is None) == (oracle is None)
            key = _syndrome_key(base.syndrome(y), A)
            assert base._syndrome_table(t).rows.get(key) == other._syndrome_table(t).rows.get(key)
            if x is None:  # a tie or an absent syndrome
                assert base._syndrome_table(t).rows.get(key, TIE) == TIE
            else:
                assert x.tolist() == ref.tolist() == base.message_of(oracle).tolist()
