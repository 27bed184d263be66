"""Acceptance suite: one test per release criterion, strict tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line
per criterion; any assertion failure is a hard red for that criterion.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from psmc.alphabet import make_field
from psmc.constructions import (
    MaskingImpossible,
    PsmcExtendedCode,
    masking_probability,
    stuck_redundancy_lower_bound,
)
from psmc.cyclic import all_cosets, build_cyclic_code
from psmc.linear import min_distance
from psmc.presets import (
    EXTENDED8_L2_CHECK,
    EXTENDED8_L2_ECC_COLUMNS,
    TABLE8_ROWS,
    demo14_code,
    demo14_masking_only,
    masking8_code,
    table8_code,
)
from psmc.sim import ChannelConfig, run_campaign
from psmc.tables import build_table, render_text, table_footnotes

GF3 = make_field(3)


def ok(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


def weight_patterns(n, q, t):
    yield np.zeros(n, dtype=np.int64)
    for w in range(1, t + 1):
        for pos in combinations(range(n), w):
            for vals in product(range(1, q), repeat=w):
                e = np.zeros(n, dtype=np.int64)
                e[list(pos)] = vals
                yield e


# ---------------------------------------------------------------------------
# 1. golden worked-example vectors, bit exact
# ---------------------------------------------------------------------------

def test_criterion_1_golden_vectors():
    masking = demo14_masking_only()
    out = masking.encode([0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0], (4, 6))
    assert "".join(map(str, out.codeword)) == "11021021021021"

    ecc = demo14_code()
    m = [0, 2, 1, 0, 2, 1, 0, 2, 1, 0]
    out = ecc.encode(m, (4, 6))
    assert "".join(map(str, out.codeword)) == "11021021021000"

    y = out.codeword.copy()
    y[9] = 0  # single substitution error in the tenth cell
    assert ecc.base.syndrome(y).tolist() == [1, 1, 0]
    assert (ecc.decode(y) == m).all()
    assert (ecc.decode(out.codeword) == m).all()
    ok(1, "masking-only and ECC codewords, syndrome (1,1,0), full decode")


# ---------------------------------------------------------------------------
# 2. exact masking-probability formula
# ---------------------------------------------------------------------------

def test_criterion_2_probability_formula():
    assert masking_probability(3, 7) == Fraction(381, 2187)
    assert f"{float(masking_probability(3, 7)):.2f}" == "0.17"
    assert masking_probability(3, 3) == Fraction(21, 27)
    assert float(masking_probability(3, 3)) == pytest.approx(0.77, abs=0.01)
    for q in range(2, 8):
        for u in range(q):
            assert masking_probability(q, u) == 1
    ok(2, "381/2187, 21/27, and exact 1 for u < q over q in 2..7")


# ---------------------------------------------------------------------------
# 3. Monte Carlo agrees with the formula
# ---------------------------------------------------------------------------

def test_criterion_3_monte_carlo_agreement():
    code = masking8_code()
    p = float(masking_probability(3, 7))
    trials = 100_000
    band = 3 * math.sqrt(p * (1 - p) / trials)
    assert band == pytest.approx(0.0036, abs=0.0002)

    def campaign(seed):
        cfg = ChannelConfig(n=8, q=3, u=7, t_inj=0, trials=trials, seed=seed)
        return run_campaign(code, cfg), cfg

    report, cfg = campaign(20260811)
    replay, _ = campaign(20260811)
    assert report.to_dict() == replay.to_dict(), "replay must be bit-identical"

    deviation = abs(report.masking_rate - p)
    if deviation > band:
        # One out-of-band run is flagged; a repeat with a fresh seed fails.
        print(f"ACCEPTANCE 3: flagged deviation {deviation:.5f} > {band:.5f}, retrying")
        report2, _ = campaign(20260812)
        assert abs(report2.masking_rate - p) <= band, "repeated 3-sigma violation"
    assert report.expected_rate == pytest.approx(0.17421, abs=5e-6)
    ok(3, f"rate {report.masking_rate:.5f} within {band:.4f} of {p:.5f}, deterministic replay")


# ---------------------------------------------------------------------------
# 4. parameter-table reproduction
# ---------------------------------------------------------------------------

def test_criterion_4_table_reproduction():
    rows = build_table()
    shapes = [(r.k1, r.l, r.r) for r in rows]
    assert shapes == [(6, 1, 1), (5, 1, 2), (4, 1, 3), (3, 1, 4), (2, 1, 5), (2, 1, 5), (1, 1, 6)]

    by_row = {r.row: r for r in rows}
    for rno in (1, 2, 3, 5, 6):
        assert by_row[rno].d_measured >= by_row[rno].delta1_stated

    # Rows whose published delta1 conflicts with the stuck-cell table carry
    # the oracle value and an explicit flag; nothing is silently corrected.
    assert by_row[4].delta1_stated == 3 and by_row[4].d_measured == 4 and by_row[4].flag
    assert by_row[7].delta1_stated == 4 and by_row[7].d_measured == 4
    rendered = render_text(rows, table_footnotes())
    assert "published delta1=3, recomputed BCH bound=4" in rendered

    gain = math.log(2) / math.log(6)
    for r in rows:
        assert r.k1_star == pytest.approx(r.k1 + gain, abs=5e-4)
        assert r.l_star == pytest.approx(1 - gain, abs=5e-4)
        assert f"{r.l_star:.3f}" == "0.613"
    assert f"{by_row[1].k1_star:.3f}" == "6.387"
    ok(4, "all 7 rows: exact (k1, l, r); oracle d; 0.613/+0.387 gain columns")


# ---------------------------------------------------------------------------
# 5. exhaustive masking soundness and round trips
# ---------------------------------------------------------------------------

def test_criterion_5_exhaustive_masking_soundness():
    stuck_sets = [()] + [(i,) for i in range(8)] + list(combinations(range(8), 2))
    checked = 0
    for spec in TABLE8_ROWS:
        code = table8_code(spec["row"])
        errors = list(weight_patterns(8, 3, code.t))
        for m in product(range(3), repeat=code.k1):
            mv = np.array(m, dtype=np.int64)
            for phi in stuck_sets:
                out = code.encode(mv, phi)
                assert all(out.codeword[p] >= 1 for p in phi), (spec["row"], m, phi)
                for e in errors:
                    got = code.decode((out.codeword + e) % 3)
                    assert (got == mv).all(), (spec["row"], m, phi, e)
                    checked += 1
    ok(5, f"{checked} decode round trips across all 7 codes, zero failures")


# ---------------------------------------------------------------------------
# 6. extended construction at u = 3 with l = 2
# ---------------------------------------------------------------------------

def test_criterion_6_extended_masking_u3():
    # No [8, 6, 3] ternary code exists: GF(3)^2 has only 4 projective
    # classes of nonzero columns, so any 2 x 8 check matrix repeats a
    # class and the checked code has a weight-2 word.  The demo therefore
    # uses the best achievable d0 = 2 check with balanced columns, for
    # which a masking vector still always exists at u = 3.
    def proj_class(vec):
        inv = pow(next(x for x in vec if x), -1, 3)
        return tuple(x * inv % 3 for x in vec)

    classes = {proj_class(v) for v in product(range(3), repeat=2) if v != (0, 0)}
    assert len(classes) == 4 < 8

    code = PsmcExtendedCode(GF3, EXTENDED8_L2_CHECK, EXTENDED8_L2_ECC_COLUMNS)
    assert (code.n, code.k1, code.l, code.r) == (8, 3, 2, 3)
    assert code.d0 == 2  # measured; the claimed d0 = 3 is unattainable at l = 2
    assert code.t == 1
    u = 3  # the target regime q + 3 - 3 = 3

    masked = 0
    for m in product(range(3), repeat=3):
        mv = np.array(m, dtype=np.int64)
        for phi in combinations(range(8), u):
            try:
                out = code.encode(mv, phi, probabilistic=True)
            except MaskingImpossible:
                raise AssertionError(f"no masking vector for m={m}, phi={phi}")
            assert all(out.codeword[p] >= 1 for p in phi)
            masked += 1
    assert masked == 27 * 56

    decoded = 0
    errors = list(weight_patterns(8, 3, code.t))
    for m in product(range(3), repeat=3):
        mv = np.array(m, dtype=np.int64)
        for phi in combinations(range(8), u):
            c = code.encode(mv, phi, probabilistic=True).codeword
            for e in errors:
                assert (code.decode((c + e) % 3) == mv).all()
                decoded += 1
    ok(6, f"z exists for all {masked} (m, phi) at u=3; {decoded} error round trips")


# ---------------------------------------------------------------------------
# 7. BCH bound never exceeds the true distance
# ---------------------------------------------------------------------------

def test_criterion_7_bch_bound_consistency():
    checked = 0
    for n in (8, 13):
        reps = [c.representative for c in all_cosets(n, 3)]
        for take in range(len(reps) + 1):
            for chosen in combinations(reps, take):
                try:
                    spec = build_cyclic_code(n, GF3, chosen)
                except ValueError:
                    continue  # the full union gives the zero code
                report = min_distance(spec.to_linear_code(), bch_lower_bound=spec.bch_bound)
                assert report.d >= spec.bch_bound, (n, chosen, report.d, spec.bch_bound)
                checked += 1
    assert checked == 62  # 31 proper coset unions per length
    ok(7, f"oracle distance >= BCH bound for {checked} cyclic codes at n=8 and n=13")


# ---------------------------------------------------------------------------
# 8. masking redundancy vs the stuck-cell baseline
# ---------------------------------------------------------------------------

def test_criterion_8_redundancy_comparison():
    u = 2
    baseline = stuck_redundancy_lower_bound(u)
    assert baseline == 2  # Singleton: masking u stuck cells needs >= u symbols
    ours = build_table()[0].l
    assert ours == 1 < baseline
    notes = table_footnotes()
    assert any("Singleton" in n and ">= 2" in n for n in notes)
    ok(8, f"masking redundancy 1 symbol vs stuck-cell baseline >= {baseline}")
