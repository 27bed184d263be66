import copy
import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from psmc import sim
from psmc.alphabet import make_field
from psmc.constructions import (
    DecodingFailure,
    MaskingImpossible,
    PsmcCyclicCode,
    PsmcExtendedCode,
    PsmcMatrixCode,
    StuckCellProfile,
    masking_probability,
)
from psmc.presets import (
    PRESETS,
    demo14_code,
    extended8_l2_code,
    extended8_l3_code,
    get_preset,
    masking8_code,
    table8_code,
)
from psmc.sim import (
    CSV_COLUMNS,
    ChannelConfig,
    _draw,
    inject,
    run_campaign,
    wilson_interval,
)


def gf8_cyclic_code():
    return PsmcCyclicCode(9, make_field(2, 3), (1,))


def table8_row5_code():
    return table8_code(5)


def gf3_zero_entry_code():
    # Cell 1 is never shifted, so d0 = 1 and u_max = 0.
    return PsmcExtendedCode(make_field(3), [[1, 0, 2]], t=0)


def gf9_cyclic_code():
    # u_max = 8; odd-characteristic extension-field sums.
    return PsmcCyclicCode(10, make_field(3, 2), (1, 2))


def gf9_zero_column_code():
    # Column 2 is zero, so d0 = 1 and u_max = 0; l = 2 prefix rows summed digit by digit.
    return PsmcExtendedCode(make_field(3, 2), [[1, 0, 0, 1, 2, 5], [0, 1, 0, 3, 4, 7]], t=0)


def gf257_extended_code():
    # q > 256: encode multiplies each word as a batch of one.
    return PsmcExtendedCode(make_field(257), [[1, 0, 3, 5, 7, 11]], t=0)


def config_for(code, u, t_inj, trials, seed):
    return ChannelConfig(n=code.n, q=code.alphabet.q, u=u, t_inj=t_inj, trials=trials, seed=seed)


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
    # 20260811 ^ 7 == 20260812 ^ 0: XOR keying once gave these two trials one stream.
    code = demo14_code()
    a = _draw(config_for(code, 2, 1, 8, 20260811), code.k1, 7, 8)
    b = _draw(config_for(code, 2, 1, 1, 20260812), code.k1, 0, 1)
    assert any((x != y).any() for x, y in zip(a, b))
    # Seeds 0 and 1 once gave the same 4096 trials in another order; now
    # almost every trial draws another message (equal with chance 3^-7).
    code = masking8_code()
    a, b = (_draw(config_for(code, 7, 0, 4096, s), code.k1, 0, 4096) for s in (0, 1))
    assert (a.messages != b.messages).any(axis=1).mean() > 0.99
    assert (a.stuck != b.stuck).any()


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
    y = inject(c, np.zeros(4, dtype=int), make_field(3))
    assert (y == c).all()


def test_inject_extension_field_matches_scalar_add():
    f = make_field(3, 2)
    c = np.array([0, 4, 8, 5])
    e = np.array([7, 5, 1, 0])
    y = inject(c, e, f)
    assert y.tolist() == [f.add(int(a), int(b)) for a, b in zip(c, e)]


def test_inject_appendix_single_error():
    code = demo14_code()
    c = code.encode([0, 2, 1, 0, 2, 1, 0, 2, 1, 0], (4, 6)).codeword
    e = np.zeros(14, dtype=np.int64)
    e[9] = 1  # 2 + 1 = 0 mod 3: flips the tenth cell to zero
    y = inject(c, e, make_field(3))
    assert "".join(map(str, y)) == "11021021001000"


def test_inject_does_not_reclamp_stuck_cells():
    c = np.array([1, 0, 0, 0])  # cell 0 is stuck and masked to 1
    e = np.array([2, 0, 0, 0])
    y = inject(c, e, make_field(3))
    assert y[0] == 0  # stuck cell may read back 0 after read noise


def test_wilson_interval_brackets_estimate():
    for s, n in [(0, 10), (10, 10), (3, 17), (500, 1000)]:
        lo, hi = wilson_interval(s, n)
        assert 0.0 <= lo <= s / n <= hi <= 1.0


def test_inject_and_wilson_input_checks():
    with pytest.raises(ValueError, match=r"^word and error must have the same length$"):
        inject([0, 1, 2], [0, 1], make_field(3))
    with pytest.raises(ValueError, match=r"^no trials$"):
        wilson_interval(0, 0)


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


# ---------------------------------------------------------------------------
# stream v3: block independence, the draws, and a trial-by-trial oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make, u, t_inj", [(demo14_code, 2, 1), (masking8_code, 7, 0), (table8_row5_code, 4, 3)])
def test_campaign_does_not_depend_on_block_size(monkeypatch, make, u, t_inj):
    code = make()
    cfg = config_for(code, u, t_inj, 300, 2**64 - 1)
    reports = []
    for block in (1, 7, sim.BLOCK_TRIALS):
        monkeypatch.setattr(sim, "BLOCK_TRIALS", block)
        reports.append(run_campaign(code, cfg).to_dict())
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("make, u, t_inj", [(demo14_code, 2, 1), (masking8_code, 7, 0)])
def test_draws_resume_at_any_trial(make, u, t_inj):
    code = make()
    cfg = config_for(code, u, t_inj, 300, 2**64 - 1)
    for start, stop in [(0, 1), (1, 2), (5, 13), (123, 250), (299, 300)]:
        whole = _draw(cfg, code.k1, 0, stop)
        part = _draw(cfg, code.k1, start, stop)
        for w, p in zip(whole, part):
            assert np.array_equal(w[start:stop], p)


def _stream_oracle(cfg, k1, trial):
    """Trial inputs of stream v3 by Python integer arithmetic on raw words."""
    n, q = cfg.n, cfg.q
    width = k1 + (n if cfg.u else 0) + (n + cfg.t_inj if cfg.t_inj else 0)
    width += -width % 4
    words = np.random.Philox(key=cfg.seed | 3 << 64).random_raw((trial + 1) * width)
    words = [int(w) for w in words[trial * width :]]
    message = [(w >> 32) * q >> 32 for w in words[:k1]]
    stuck, error, col = [], [0] * n, k1
    if cfg.u:
        keys = words[col : col + n]
        stuck = sorted(sorted(range(n), key=lambda j: (keys[j], j))[: cfg.u])
        col += n
    if cfg.t_inj:
        keys, mags = words[col : col + n], words[col + n : col + n + cfg.t_inj]
        cells = sorted(range(n), key=lambda j: (keys[j], j))[: cfg.t_inj]
        for j, w in zip(cells, mags):
            error[j] = 1 + ((w >> 32) * (q - 1) >> 32)
    return message, stuck, error


@pytest.mark.parametrize("make, u, t_inj", [
    (masking8_code, 7, 0), (masking8_code, 7, 1), (demo14_code, 0, 2), (demo14_code, 2, 1),
    (extended8_l3_code, 4, 1), (gf8_cyclic_code, 7, 2),
])
def test_draws_follow_the_stream_layout(make, u, t_inj):
    code = make()
    cfg = config_for(code, u, t_inj, 40, 20260811)
    d = _draw(cfg, code.k1, 0, cfg.trials)
    assert d.messages.shape == (40, code.k1) and d.stuck.shape == (40, u) and d.errors.shape == (40, code.n)
    for trial in (0, 1, 17, 39):
        m, stuck, e = _stream_oracle(cfg, code.k1, trial)
        assert d.messages[trial].tolist() == m
        assert d.stuck[trial].tolist() == stuck
        assert d.errors[trial].tolist() == e
    q = code.alphabet.q
    assert ((0 <= d.messages) & (d.messages < q)).all()
    for stuck, e in zip(d.stuck.tolist(), d.errors):
        assert stuck == sorted(set(stuck)) and all(0 <= j < code.n for j in stuck)
        assert np.count_nonzero(e) == t_inj
        assert ((e == 0) | ((1 <= e) & (e < q))).all()


def _within_5_sigma(counts, trials, p):
    sigma = math.sqrt(trials * p * (1 - p))
    return np.abs(np.asarray(counts) - trials * p).max() <= 5 * sigma


@pytest.mark.parametrize("make, u, t_inj", [(masking8_code, 3, 1), (gf8_cyclic_code, 3, 2)])
def test_draw_frequencies_near_uniform(make, u, t_inj):
    code = make()
    n, q, trials = code.n, code.alphabet.q, 16000
    d = _draw(config_for(code, u, t_inj, trials, 7), code.k1, 0, trials)
    symbols = d.messages.size  # 112 000 over GF(3), 96 000 over GF(8)
    assert _within_5_sigma(np.bincount(d.messages.ravel(), minlength=q), symbols, 1 / q)
    stuck_cells = np.bincount(d.stuck.ravel(), minlength=n)
    assert stuck_cells.sum() == trials * u
    assert _within_5_sigma(stuck_cells, trials, u / n)
    error_cells = np.count_nonzero(d.errors, axis=0)
    assert _within_5_sigma(error_cells, trials, t_inj / n)
    magnitudes = np.bincount(d.errors[d.errors > 0], minlength=q)[1:]
    assert _within_5_sigma(magnitudes, trials * t_inj, 1 / (q - 1))


def _replay(code, cfg):
    """The campaign's outcome recomputed from its drawn inputs, one public call at a time."""
    d = _draw(cfg, code.k1, 0, cfg.trials)
    masked = attempts = decoded = 0
    failures = []
    for trial in range(cfg.trials):
        m, profile = d.messages[trial], StuckCellProfile(tuple(d.stuck[trial].tolist()))
        try:
            out = code.encode(m, profile, probabilistic=True)
        except MaskingImpossible as exc:
            failures.append({"trial": trial, "stage": "mask", "detail": str(exc)})
            continue
        masked += 1
        assert out.codeword[list(profile.positions)].all()
        y = inject(out.codeword, d.errors[trial], code.alphabet)
        attempts += 1
        try:
            mhat = code.decode(y)
        except DecodingFailure as exc:
            failures.append({"trial": trial, "stage": "decode", "detail": str(exc)})
            continue
        if mhat.tolist() == m.tolist():
            decoded += 1
        else:
            failures.append({"trial": trial, "stage": "decode", "detail": "decoded to a different message"})
    return masked, attempts, decoded, failures[: sim.FAILURE_LOG_CAP]


# Above the guarantee, where the block check runs: masking8 at u = 7,
# extended8_l3 at u = 4, extended8_l2 at u = 4, table8 row 5 at u = 4, the
# zero-entry GF(3) code at u = 2, the GF(9) cyclic code at u = 10, and the
# GF(9) zero-column and GF(257) extended codes at u = 3.
@pytest.mark.parametrize("make, u, t_inj", [
    (masking8_code, 7, 0), (demo14_code, 2, 1), (extended8_l3_code, 4, 1), (gf8_cyclic_code, 7, 2),
    (extended8_l2_code, 4, 1), (table8_row5_code, 4, 3), (gf3_zero_entry_code, 2, 0),
    (gf9_cyclic_code, 10, 1), (gf9_zero_column_code, 3, 0), (gf257_extended_code, 3, 0),
])
def test_campaign_matches_trial_by_trial_replay(make, u, t_inj):
    code = make()
    cfg = config_for(code, u, t_inj, 400, 20260811)
    report = run_campaign(code, cfg)
    masked, attempts, decoded, failures = _replay(code, cfg)
    assert (report.masking_successes, report.decode_attempts, report.decode_successes) == (
        masked, attempts, decoded)
    assert report.failures == failures


@pytest.mark.parametrize("make, u, t_inj", [(masking8_code, 7, 0), (table8_row5_code, 4, 3)])
def test_failure_log_matches_replay_across_small_blocks(monkeypatch, make, u, t_inj):
    # Blocks of 7 trials: rejected trials at a block's start and end, and mask
    # failures interleaved with decode failures, log in trial order up to the cap.
    code = make()
    cfg = config_for(code, u, t_inj, 400, 20260811)
    monkeypatch.setattr(sim, "BLOCK_TRIALS", 7)
    report = run_campaign(code, cfg)
    masked, attempts, decoded, failures = _replay(code, cfg)
    assert (report.masking_successes, report.decode_attempts, report.decode_successes) == (
        masked, attempts, decoded)
    assert report.failures == failures
    assert len(failures) == sim.FAILURE_LOG_CAP
    assert {f["stage"] for f in failures} == ({"mask"} if t_inj == 0 else {"mask", "decode"})


def counting(code):
    """A copy of code, an instance of a subclass, that counts its calls of
    encode, decode and the block masking check."""
    calls = Counter()
    base = type(code)

    class Counting(base):
        def encode(self, *args, **kwargs):
            calls["encode"] += 1
            return base.encode(self, *args, **kwargs)

        def decode(self, word):
            calls["decode"] += 1
            return base.decode(self, word)

        def _maskable(self, messages, stuck):
            calls["_maskable"] += 1
            return base._maskable(self, messages, stuck)

    twin = copy.copy(code)
    twin.__class__ = Counting
    return twin, calls


@pytest.mark.parametrize("make, u, t_inj", [
    (masking8_code, 7, 0), (extended8_l3_code, 5, 1), (table8_row5_code, 4, 3), (gf3_zero_entry_code, 2, 0),
    (masking8_code, 2, 1), (demo14_code, 2, 1), (extended8_l3_code, 3, 1),
])
def test_campaign_encodes_only_maskable_trials(make, u, t_inj):
    twin, calls = counting(make())
    trials = sim.BLOCK_TRIALS + 500  # two blocks
    report = run_campaign(twin, config_for(twin, u, t_inj, trials, 20260811))
    assert calls["encode"] == report.masking_successes
    assert calls["decode"] == report.decode_attempts
    if u <= twin.u_max:
        assert report.masking_successes == trials and calls["_maskable"] == 0
    else:
        assert report.masking_successes < trials and calls["_maskable"] == 2


# ---------------------------------------------------------------------------
# expected rate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [extended8_l2_code, extended8_l3_code])
def test_extended_expected_rate(make):
    code = make()
    inside = run_campaign(code, config_for(code, code.u_max, 0, 200, 5))
    assert inside.masking_rate == 1.0 and inside.expected_rate == 1.0
    above = run_campaign(code, config_for(code, code.u_max + 1, 0, 200, 5))
    assert above.expected_rate is None
    assert above.csv_row()[CSV_COLUMNS.index("expected")] == ""


def test_matrix_and_cyclic_expected_rates_unchanged():
    for code in (masking8_code(), table8_code(3), gf8_cyclic_code()):
        q = code.alphabet.q
        for u in (code.u_max, code.u_max + 1, code.n - 1, code.n):
            report = run_campaign(code, config_for(code, u, 0, 10, 5))
            assert report.expected_rate == float(masking_probability(q, u))


# sha256 of json.dumps(run_campaign(code, cfg).to_dict(), sort_keys=True),
# failure log included, for (code, u, t_inj) at (u_max, t) and
# (min(n, u_max + 2), t + 1), 1000 trials each with CAMPAIGN_DIGEST_SEED,
# recorded on stream v3 before any later change to the campaign engine.
# The GF(9), GF(25) and GF(3^7) entries pin odd-characteristic extension
# fields; they were recorded before scalar and array field ops shared one
# digit kernel and one exp/log layout.
CAMPAIGN_DIGEST_SEED = 20260811
CAMPAIGN_DIGESTS = {
    ("appendix-n14", 2, 1): "61c1b5a9adbe5f92b9faddd54934ec21b654c445bc60b7a60d395a1951992c45",
    ("appendix-n14", 4, 2): "1f393eca94af3be4c52711cfa5ce0463794a81ce7a3964b2cbe12b108c4908b7",
    ("appendix-n14-r0", 2, 0): "7cd13911e37704023d54ff113643868975c729ffdc76048e34ef69d7208a059c",
    ("appendix-n14-r0", 4, 1): "e8b4f387de509ecd0b3d2373b3d15dcb2a472c70abc5e795b42abc916d59d21d",
    ("extended-n8-l2", 2, 1): "26c43f4b53cad360e7316fccbf2a3860b0651911802bc7bb075f89f17383e555",
    ("extended-n8-l2", 4, 2): "ce431023dfd267074a0dc639af6ad76677d10d42282ee67b80b457140bad36ec",
    ("extended-n8-l3", 3, 1): "3aae5d81044e2e43889c9febd62dd35e1c907ce1af03e6b42752cb55c3e55968",
    ("extended-n8-l3", 5, 2): "1bc1e97d6f141683699a33b34b6295ef8491c370f07bcb86904dccec3b365f0e",
    ("masking-n8-r0", 2, 0): "fbaab57a5c9cd15feb669e1f65cf16c6e7b2548d0dc6defcde12a7e5199befad",
    ("masking-n8-r0", 4, 1): "79f73b4cbc344801f394bec85cbc7dcf4758288fa0f223bcb7cd79d93f4794ca",
    ("table8-row1", 2, 0): "fbaab57a5c9cd15feb669e1f65cf16c6e7b2548d0dc6defcde12a7e5199befad",
    ("table8-row1", 4, 1): "060f64bf2966071d23e392c6ad308fc2fd2463d600498e3d65be17238278d465",
    ("table8-row2", 2, 0): "fbaab57a5c9cd15feb669e1f65cf16c6e7b2548d0dc6defcde12a7e5199befad",
    ("table8-row2", 4, 1): "4b50eb6e1f931a6e67c0bed72339f90116792981cc1fb21f94dffcf695bf279b",
    ("table8-row3", 2, 1): "26c43f4b53cad360e7316fccbf2a3860b0651911802bc7bb075f89f17383e555",
    ("table8-row3", 4, 2): "a81523534664318da065d113ce53b553db3ecc2056a3f41372078b48df9a9ec2",
    ("table8-row4", 2, 1): "26c43f4b53cad360e7316fccbf2a3860b0651911802bc7bb075f89f17383e555",
    ("table8-row4", 4, 2): "dde7b71c57f4a00df6cdb658c87727ccae4ae806ef42653455e7524a30d4b2e4",
    ("table8-row5", 2, 2): "d4ffeaafa3c5c38a5c3daa145b30890777e2006c11c26380e64bc1ae13206e82",
    ("table8-row5", 4, 3): "4d278e0f5693feca8bfe63eb80ce77df6911e589c83ecf9b7d0a010a5af9132b",
    ("table8-row6", 2, 1): "26c43f4b53cad360e7316fccbf2a3860b0651911802bc7bb075f89f17383e555",
    ("table8-row6", 4, 2): "a97e24aa602afdd045db31da96859c0c7df92f2be650dacf100bccfcc7594c04",
    ("table8-row7", 2, 1): "26c43f4b53cad360e7316fccbf2a3860b0651911802bc7bb075f89f17383e555",
    ("table8-row7", 4, 2): "f4f81c5b720b713b18894a574e899d47fb1e8a64503242d33e9ca46e03302c85",
    ("cyclic-n9-gf8", 7, 1): "fb0221fe3e2622ed23c995a016b95912ba2adf1ce2c9bd2ce9ee731ddbb443f7",
    ("cyclic-n9-gf8", 9, 2): "492de7e5aefb6968577d9d2ca0bd28cdfd2b2cf20b3ca8e4c10ea25c3ad06b19",
    ("cyclic-n10-gf9", 8, 1): "db0e54c9a2a67e1003dbd9ffe87d8a9b2144ac10bf7f68c4619a5d103f4e6afc",
    ("cyclic-n10-gf9", 10, 2): "8d077a492c09ffc33e45d4aa475ed1a0b951fc3b1202d374a5e03c513224b875",
    ("cyclic-n8-gf25", 8, 1): "2c42db2f2086fa25f4541bff5ee40a67e562e41d354dc0adbf763f365f2eee33",
    ("cyclic-n8-gf25", 8, 2): "f879916d58d08cda4570f253c4c17f00a7aab60fbe7ed4ddecbe4c3261767360",
    ("matrix-n6-gf2187", 6, 0): "9c678ea7ae99ed08ac44fb3fd79681782fd13dfba49e09fe4b2633b121ec3485",
    ("matrix-n6-gf2187", 6, 1): "362572fd1ecdbe52c48034ebf9f8a46c933dbd84bfaefcbfab08ac3be0c2c716",
}


def test_campaign_outputs_match_recorded_stream_v3_digests():
    codes = {name: get_preset(name) for name in sorted(PRESETS)}
    codes["cyclic-n9-gf8"] = gf8_cyclic_code()
    codes["cyclic-n10-gf9"] = PsmcCyclicCode(10, make_field(3, 2), (1, 2))
    codes["cyclic-n8-gf25"] = PsmcCyclicCode(8, make_field(5, 2), (1, 2))
    codes["matrix-n6-gf2187"] = PsmcMatrixCode(6, make_field(3, 7), None, t=0)
    got = {}
    for name, code in codes.items():
        for u, t_inj in ((code.u_max, code.t), (min(code.n, code.u_max + 2), code.t + 1)):
            report = run_campaign(code, config_for(code, u, t_inj, 1000, CAMPAIGN_DIGEST_SEED))
            blob = json.dumps(report.to_dict(), sort_keys=True).encode()
            got[name, u, t_inj] = hashlib.sha256(blob).hexdigest()
    assert got == CAMPAIGN_DIGESTS
