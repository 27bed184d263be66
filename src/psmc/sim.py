"""Defective-memory channel simulator.

Each trial draws a uniform message and a uniform set of stuck-cell
positions (without replacement), encodes in probabilistic mode, stores
the word, adds a random error of the configured Hamming weight (uniform
positions, uniform nonzero magnitudes), and decodes.  Memory words are
plain numpy symbol vectors.  Above the construction's guarantee, one
array pass over each block of trials gives each trial a verdict: a
trial that no masking vector fits logs its masking failure without
calling encode, and encode must succeed on every other one.

Determinism (stream v3): a campaign reads one counter-based stream,
``numpy.random.Philox`` keyed with the two 64-bit words ``(seed, 3)``,
the second word being the stream version.  Trial i reads the 64-bit
words ``[i*W, (i+1)*W)`` of that stream, where
``W = k1 + (n if u else 0) + (n + t_inj if t_inj else 0)`` rounded up to
a multiple of 4 (one Philox-4x64 block), laid out as

* k1 message words: symbol ``(hi32 * q) >> 32``;
* n stuck-cell keys (when u > 0): the stuck cells are the sorted first
  u indices of a stable argsort of the keys;
* n error-cell keys and t_inj magnitude words (when t_inj > 0): the
  error cells are the first t_inj indices of a stable argsort of the
  keys, and the j-th of them gets magnitude ``1 + (hi32 * (q - 1)) >> 32``
  of the j-th magnitude word;

hi32 being the high 32 bits of a word.  Multiply-shift (Lemire, ACM
TOMACS 2019) gives each symbol probability within 2^-32 of uniform, a
relative bias below q/2^32; two equal 64-bit keys, which a stable sort
orders by index, occur with probability below n^2/2^65 per trial.
Trials are drawn in blocks of :data:`BLOCK_TRIALS` with one
``random_raw`` call each, after advancing the stream to the block's first
trial, so results do not depend on the block size and a campaign can be
resumed or sharded at any trial.  Seeds must lie in [0, 2^64).
Aggregation is a commutative count, independent of trial order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .constructions import (
    DecodingFailure,
    MaskingImpossible,
    StuckCellProfile,
    masking_probability,
)

STREAM_VERSION = 3

RNG_SPEC = (
    f"numpy.random.Philox (4x64 counter-based), stream v{STREAM_VERSION}: one stream per campaign, "
    f"128-bit key = the 64-bit words (seed, {STREAM_VERSION}); trial i reads words [i*W, (i+1)*W), "
    "W = k1 + (n if u) + (n + t_inj if t_inj) rounded up to a multiple of 4; "
    "symbols by multiply-shift of the high 32 bits (bias below q/2^32), "
    "cells by stable argsort of n key words"
)

BLOCK_TRIALS = 4096

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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; always brackets the point estimate."""
    z = 1.959964  # two-sided 95% quantile of the standard normal
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
    expected_rate: float | None
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


def inject(word, error, alphabet) -> np.ndarray:
    """Read-back word y = c + e over the alphabet.

    The stuck cells play no part: they are not re-clamped after the error
    is added, because errors model read noise downstream of the physical
    cell.
    """
    c = np.asarray(word, dtype=np.int64)
    e = np.asarray(error, dtype=np.int64)
    if c.shape != e.shape:
        raise ValueError("word and error must have the same length")
    return alphabet.add(c, e)


class _Draws(NamedTuple):
    """The inputs of a block of trials, one row per trial."""

    messages: np.ndarray  # (trials, k1) symbols in [0, q)
    stuck: np.ndarray     # (trials, u) sorted distinct cells
    errors: np.ndarray    # (trials, n) words with t_inj nonzero cells


def _draw(cfg: ChannelConfig, k1: int, start: int, stop: int) -> _Draws:
    """Inputs of trials [start, stop) of the campaign's stream (module docstring)."""
    n, q, count = cfg.n, cfg.q, stop - start
    width = k1 + (n if cfg.u else 0) + (n + cfg.t_inj if cfg.t_inj else 0)
    width += -width % 4
    # Philox reads an int key as two 64-bit words, low word first; each
    # counter step yields 4 words.
    bits = np.random.Philox(key=cfg.seed | STREAM_VERSION << 64)
    bits.advance(start * width // 4)
    raw = bits.random_raw(count * width).reshape(count, width)
    messages = ((raw[:, :k1] >> 32) * q >> 32).astype(np.int64)
    stuck = np.empty((count, 0), dtype=np.int64)
    errors = np.zeros((count, n), dtype=np.int64)
    col = k1
    if cfg.u:
        keys = raw[:, col : col + n]
        stuck = np.sort(np.argsort(keys, axis=1, kind="stable")[:, : cfg.u], axis=1)
        col += n
    if cfg.t_inj:
        keys, mags = raw[:, col : col + n], raw[:, col + n : col + n + cfg.t_inj]
        cells = np.argsort(keys, axis=1, kind="stable")[:, : cfg.t_inj]
        np.put_along_axis(errors, cells, 1 + ((mags >> 32) * (q - 1) >> 32).astype(np.int64), axis=1)
    return _Draws(messages, stuck, errors)


def _expected_rate(code, u: int) -> float | None:
    """Reference masking probability at u stuck cells, or None.

    Every trial masks inside the guarantee.  Above it, one masking symbol
    (l = 1) reports the single-symbol formula, which is exact only when
    H0's row has no zero entry and every u columns of the stacked
    generator are independent; otherwise the rate differs.  Several
    masking symbols report None.
    """
    if u <= code.u_max:
        return 1.0
    if code.l == 1:
        return float(masking_probability(code.alphabet.q, u))
    return None


def run_campaign(code, cfg: ChannelConfig) -> CampaignReport:
    """Run encode -> store -> corrupt -> decode trials and aggregate.

    ``code`` may be any of the three construction classes (duck-typed:
    n, k1, l, u_max, alphabet, encode, decode, and _maskable above the
    guarantee).  Trial inputs come from the campaign's stream (module
    docstring), drawn a block of :data:`BLOCK_TRIALS` trials at a time.
    Each block gets one verdict per trial, walked once in trial order:
    every verdict is True inside the guaranteed regime (u <= code.u_max),
    and one block check (``code._maskable``) gives them above it.  A
    rejected trial logs the failure encode would raise; an accepted one
    runs encode, inject and decode, in that order, so every masked trial
    is a decode attempt.  Masking runs in probabilistic mode; an encode
    that fails on an accepted trial is an internal error and raises
    immediately.
    """
    q = code.alphabet.q
    if cfg.n != code.n or cfg.q != q:
        raise ValueError(
            f"config (n={cfg.n}, q={cfg.q}) does not match code (n={code.n}, q={q})"
        )
    masked = 0
    decoded = 0
    failures: list[dict] = []
    guaranteed = cfg.u <= code.u_max

    def log_failure(trial, stage, detail):
        """Log a failure while the log has room; detail is a message or an
        exception, formatted only when logged."""
        if len(failures) < FAILURE_LOG_CAP:
            failures.append({"trial": trial, "stage": stage, "detail": str(detail)})

    for start in range(0, cfg.trials, BLOCK_TRIALS):
        count = min(BLOCK_TRIALS, cfg.trials - start)
        draws = _draw(cfg, code.k1, start, start + count)
        stuck = draws.stuck.tolist()
        fits = [True] * count if guaranteed else code._maskable(draws.messages, draws.stuck).tolist()
        for i, fit in enumerate(fits):
            if not fit:
                # The failure encode would raise, built only while the log has room.
                if len(failures) < FAILURE_LOG_CAP:
                    log_failure(start + i, "mask", MaskingImpossible.at(tuple(stuck[i])))
                continue
            trial, m = start + i, draws.messages[i]
            try:
                out = code.encode(m, StuckCellProfile._of(tuple(stuck[i])), probabilistic=True)
            except MaskingImpossible as exc:
                where = "inside the guaranteed regime" if guaranteed else "on a trial the block check accepted"
                raise AssertionError(f"masking failed {where} (trial {trial}, u={cfg.u})") from exc
            masked += 1
            # With no errors to inject, the stored word is read back as it is.
            y = inject(out.codeword, draws.errors[i], code.alphabet) if cfg.t_inj else out.codeword
            try:
                mhat = code.decode(y)
            except DecodingFailure as exc:
                log_failure(trial, "decode", exc)
                continue
            if mhat.tolist() == m.tolist():
                decoded += 1
            else:
                log_failure(trial, "decode", "decoded to a different message")

    has_trials = cfg.trials > 0
    return CampaignReport(
        config=cfg,
        masking_successes=masked,
        decode_attempts=masked,
        decode_successes=decoded,
        masking_rate=masked / cfg.trials if has_trials else None,
        ci95=wilson_interval(masked, cfg.trials) if has_trials else None,
        expected_rate=_expected_rate(code, cfg.u),
        decode_rate=decoded / masked if masked else None,
        failures=failures,
    )
