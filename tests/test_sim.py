import json
import math

import numpy as np
import pytest

from psmc.alphabet import make_field
from psmc.constructions import StuckCellProfile
from psmc.presets import demo14_code, masking8_code, table8_code
from psmc.sim import (
    CSV_COLUMNS,
    CampaignReport,
    ChannelConfig,
    _trial_rng,
    inject,
    run_campaign,
    wilson_interval,
)


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(n=8, q=3, u=9, t_inj=0, trials=1, seed=0)
    with pytest.raises(ValueError):
        ChannelConfig(n=8, q=3, u=1, t_inj=9, trials=1, seed=0)
    with pytest.raises(ValueError):
        ChannelConfig(n=8, q=3, u=1, t_inj=0, trials=-1, seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_config_rejects_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed"):
        ChannelConfig(n=8, q=3, u=1, t_inj=0, trials=1, seed=seed)
    ChannelConfig(n=8, q=3, u=1, t_inj=0, trials=1, seed=2**64 - 1)


def test_trial_streams_of_neighbouring_seeds_differ():
    # 20260811 ^ 7 == 20260812 ^ 0: XOR keying gave these two trials one stream.
    a = _trial_rng(20260811, 7).integers(0, 2**63, size=4)
    b = _trial_rng(20260812, 0).integers(0, 2**63, size=4)
    assert (a != b).any()


def test_neighbouring_seeds_give_different_campaigns():
    code = masking8_code()
    runs = [
        run_campaign(code, ChannelConfig(n=8, q=3, u=7, t_inj=0, trials=4096, seed=s))
        for s in (0, 1)
    ]
    assert runs[0].masking_successes != runs[1].masking_successes


def test_config_code_mismatch():
    cfg = ChannelConfig(n=9, q=3, u=1, t_inj=0, trials=1, seed=0)
    with pytest.raises(ValueError, match="does not match"):
        run_campaign(masking8_code(), cfg)


def test_inject_no_error():
    c = np.array([1, 2, 0, 1])
    y = inject(c, StuckCellProfile((1,)), np.zeros(4, dtype=int), make_field(3))
    assert (y == c).all()


def test_inject_extension_field_matches_scalar_add():
    f = make_field(3, 2)
    c = np.array([0, 4, 8, 5])
    e = np.array([7, 5, 1, 0])
    y = inject(c, StuckCellProfile(()), e, f)
    assert y.tolist() == [f.add(int(a), int(b)) for a, b in zip(c, e)]


def test_inject_appendix_single_error():
    code = demo14_code()
    c = code.encode([0, 2, 1, 0, 2, 1, 0, 2, 1, 0], (4, 6)).codeword
    e = np.zeros(14, dtype=np.int64)
    e[9] = 1  # 2 + 1 = 0 mod 3: flips the tenth cell to zero
    y = inject(c, StuckCellProfile((4, 6)), e, make_field(3))
    assert "".join(map(str, y)) == "11021021001000"


def test_inject_does_not_reclamp_stuck_cells():
    profile = StuckCellProfile((0,))
    c = np.array([1, 0, 0, 0])
    e = np.array([2, 0, 0, 0])
    y = inject(c, profile, e, make_field(3))
    assert y[0] == 0  # stuck cell may read back 0 after read noise


def test_wilson_interval_brackets_estimate():
    for s, n in [(0, 10), (10, 10), (3, 17), (500, 1000)]:
        lo, hi = wilson_interval(s, n)
        assert 0.0 <= lo <= s / n <= hi <= 1.0


def test_campaign_reproducible():
    code = table8_code(3)
    cfg = ChannelConfig(n=8, q=3, u=2, t_inj=1, trials=300, seed=99)
    a = run_campaign(code, cfg)
    b = run_campaign(code, cfg)
    assert a.to_dict() == b.to_dict()
    c = run_campaign(code, ChannelConfig(n=8, q=3, u=2, t_inj=1, trials=300, seed=100))
    assert c.to_dict() != a.to_dict()


def test_campaign_guaranteed_regime_masks_everything():
    code = table8_code(3)
    cfg = ChannelConfig(n=8, q=3, u=2, t_inj=0, trials=500, seed=7)
    report = run_campaign(code, cfg)
    assert report.masking_rate == 1.0
    assert report.expected_rate == 1.0
    assert report.decode_rate == 1.0
    assert report.failures == []


def test_campaign_decodes_injected_errors_within_t():
    code = table8_code(3)  # t = 1
    cfg = ChannelConfig(n=8, q=3, u=1, t_inj=1, trials=400, seed=13)
    report = run_campaign(code, cfg)
    assert report.decode_rate == 1.0


def test_campaign_logs_failures_beyond_t():
    code = table8_code(3)  # t = 1, double errors may fail or miscorrect
    cfg = ChannelConfig(n=8, q=3, u=1, t_inj=2, trials=400, seed=13)
    report = run_campaign(code, cfg)
    assert report.decode_rate is not None and report.decode_rate < 1.0
    assert report.failures
    assert all(f["stage"] == "decode" for f in report.failures)
    assert len(report.failures) <= 100


def test_campaign_empty():
    cfg = ChannelConfig(n=8, q=3, u=2, t_inj=0, trials=0, seed=1)
    report = run_campaign(masking8_code(), cfg)
    assert report.masking_rate is None
    assert report.ci95 is None
    assert report.decode_rate is None


def test_campaign_statistics_near_formula():
    # Loose 4-sigma screen at 10^4 trials; the acceptance suite runs the
    # strict 3-sigma check at 10^5.
    cfg = ChannelConfig(n=8, q=3, u=7, t_inj=0, trials=10000, seed=4242)
    report = run_campaign(masking8_code(), cfg)
    p = report.expected_rate
    sigma = math.sqrt(p * (1 - p) / cfg.trials)
    assert abs(report.masking_rate - p) <= 4 * sigma


def test_report_serialization():
    cfg = ChannelConfig(n=8, q=3, u=2, t_inj=0, trials=50, seed=3)
    report = run_campaign(table8_code(1), cfg)
    blob = json.loads(report.to_json())
    assert blob["config"]["seed"] == 3
    assert blob["rng"].startswith("numpy.random.Philox")
    line = report.csv_line(header=True).splitlines()
    assert line[0] == ",".join(CSV_COLUMNS)
    cells = line[1].split(",")
    assert cells[0] == "8" and cells[-1] == "3"


def test_csv_columns_frozen():
    assert CSV_COLUMNS == [
        "n", "q", "u", "t_inj", "trials",
        "mask_rate", "ci_lo", "ci_hi", "expected", "decode_rate", "seed",
    ]
