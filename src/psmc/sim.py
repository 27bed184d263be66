"""Defective-memory channel simulator.

Each trial draws a uniform message and a uniform set of stuck-cell
positions (without replacement), encodes in probabilistic mode, stores
the word, adds a random error of the configured Hamming weight (uniform
positions, uniform nonzero magnitudes), and decodes.  Memory words are
plain numpy symbol vectors.

Determinism: trial i uses its own counter-based generator,
``numpy.random.Philox`` keyed with the two 64-bit words ``(seed, i)``, so
campaigns replay bit-identically for a given config and can be
parallelized or resumed per trial without changing results, and no two
(seed, trial) pairs share a stream.  Seeds must lie in [0, 2^64).
Aggregation is a commutative count, independent of trial order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .constructions import (
    DecodingFailure,
    MaskingImpossible,
    StuckCellProfile,
    masking_probability,
)

RNG_SPEC = (
    "numpy.random.Philox (4x64 counter-based), stream v2: "
    "per-trial 128-bit key = the 64-bit words (seed, trial index)"
)

CSV_COLUMNS = [
    "n", "q", "u", "t_inj", "trials",
    "mask_rate", "ci_lo", "ci_hi", "expected", "decode_rate", "seed",
]

FAILURE_LOG_CAP = 100


@dataclass(frozen=True)
class ChannelConfig:
    """Campaign parameters; the seed is recorded in every output artifact."""

    n: int
    q: int
    u: int
    t_inj: int
    trials: int
    seed: int

    def __post_init__(self):
        if not 0 <= self.u <= self.n:
            raise ValueError(f"u = {self.u} out of range [0, {self.n}]")
        if not 0 <= self.t_inj <= self.n:
            raise ValueError(f"t_inj = {self.t_inj} out of range [0, {self.n}]")
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed = {self.seed} out of range [0, 2^64)")


def wilson_interval(successes: int, trials: int, z: float = 1.959964) -> tuple[float, float]:
    """95% Wilson score interval; always brackets the point estimate."""
    if trials == 0:
        raise ValueError("no trials")
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # Clamp against float jitter so the interval always brackets phat.
    return max(0.0, min(center - half, phat)), min(1.0, max(center + half, phat))


@dataclass
class CampaignReport:
    config: ChannelConfig
    masking_successes: int
    decode_attempts: int
    decode_successes: int
    masking_rate: float | None
    ci95: tuple[float, float] | None
    expected_rate: float
    decode_rate: float | None
    failures: list[dict] = field(default_factory=list)
    rng: str = RNG_SPEC

    def to_dict(self) -> dict:
        d = asdict(self)
        d["config"] = asdict(self.config)
        return d

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    def csv_row(self) -> list:
        c = self.config
        fmt = lambda x: "" if x is None else f"{x:.10g}"
        return [
            c.n, c.q, c.u, c.t_inj, c.trials,
            fmt(self.masking_rate),
            fmt(self.ci95[0] if self.ci95 else None),
            fmt(self.ci95[1] if self.ci95 else None),
            fmt(self.expected_rate),
            fmt(self.decode_rate),
            c.seed,
        ]

    def csv_line(self, header: bool = False) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        if header:
            w.writerow(CSV_COLUMNS)
        w.writerow(self.csv_row())
        return buf.getvalue()


def inject(word, profile: StuckCellProfile, error, alphabet) -> np.ndarray:
    """Read-back word y = c + e over the alphabet.

    Stuck cells are not re-clamped after the error is added: errors model
    read noise downstream of the physical cell.
    """
    c = np.asarray(word, dtype=np.int64)
    e = np.asarray(error, dtype=np.int64)
    if c.shape != e.shape:
        raise ValueError("word and error must have the same length")
    return alphabet.vadd(c, e)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # Philox reads an int key as two 64-bit words, low word first.
    return np.random.Generator(np.random.Philox(key=seed | trial << 64))


def run_campaign(code, cfg: ChannelConfig) -> CampaignReport:
    """Run encode -> store -> corrupt -> decode trials and aggregate.

    ``code`` may be any of the three construction classes (duck-typed:
    n, k1, u_max, alphabet, encode, decode).  Masking runs in
    probabilistic mode; a masking failure inside the guaranteed regime
    (u <= code.u_max) is an internal error and raises immediately.
    """
    q = code.alphabet.q
    if cfg.n != code.n or cfg.q != q:
        raise ValueError(
            f"config (n={cfg.n}, q={cfg.q}) does not match code (n={code.n}, q={q})"
        )
    masked = 0
    decoded = 0
    attempts = 0
    failures: list[dict] = []

    def log_failure(trial, stage, detail):
        if len(failures) < FAILURE_LOG_CAP:
            failures.append({"trial": trial, "stage": stage, "detail": detail})

    for trial in range(cfg.trials):
        rng = _trial_rng(cfg.seed, trial)
        m = rng.integers(0, q, size=code.k1)
        positions = np.sort(rng.choice(cfg.n, size=cfg.u, replace=False))
        profile = StuckCellProfile(tuple(int(p) for p in positions))
        try:
            out = code.encode(m, profile, probabilistic=True)
        except MaskingImpossible as exc:
            if cfg.u <= code.u_max:
                raise AssertionError(
                    f"masking failed inside the guaranteed regime (u={cfg.u})"
                ) from exc
            log_failure(trial, "mask", str(exc))
            continue
        masked += 1
        e = np.zeros(cfg.n, dtype=np.int64)
        if cfg.t_inj:
            epos = rng.choice(cfg.n, size=cfg.t_inj, replace=False)
            e[epos] = rng.integers(1, q, size=cfg.t_inj)
        y = inject(out.codeword, profile, e, code.alphabet)
        attempts += 1
        try:
            mhat = code.decode(y)
        except DecodingFailure as exc:
            log_failure(trial, "decode", str(exc))
            continue
        if (mhat == m).all():
            decoded += 1
        else:
            log_failure(trial, "decode", "decoded to a different message")

    has_trials = cfg.trials > 0
    return CampaignReport(
        config=cfg,
        masking_successes=masked,
        decode_attempts=attempts,
        decode_successes=decoded,
        masking_rate=masked / cfg.trials if has_trials else None,
        ci95=wilson_interval(masked, cfg.trials) if has_trials else None,
        expected_rate=float(masking_probability(cfg.q, cfg.u)),
        decode_rate=decoded / attempts if attempts else None,
        failures=failures,
    )
