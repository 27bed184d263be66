"""Workload definitions, code set-up and the exact correctness references.

Every reference is computed here from exact formulas and psmc's oracles
(``min_distance``, ``LinearCode.syndrome``, ``masking_probability``,
exhaustive encoding) on codes rebuilt from the published preset
constants, never from a campaign report.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np

GOLDEN_TABLES = Path(__file__).resolve().parent / "golden" / "tables.txt"
GF8_CODE = "gf8-n9"
EXHAUSTIVE_BUDGET = 100_000  # encodes an exhaustive masking enumeration may make


@dataclass(frozen=True)
class Spec:
    """One campaign regime: a code, u stuck cells and t_inj injected errors."""

    code: str
    u: int
    t_inj: int

    @property
    def label(self) -> str:
        return f"{self.code}/u{self.u}/t{self.t_inj}"


@dataclass(frozen=True)
class Workload:
    name: str
    setup_codes: tuple[str, ...]
    specs: tuple[Spec, ...]
    chunk_trials: int      # trials per run_campaign call; a round is one call per spec
    words_per_batch: int   # single-word inputs per spec per batch
    campaign_share: float  # share of --seconds for the campaign; the rest is single words
    setup_samples: int     # cold set-ups per run (the first in the benchmark process)
    solve_samples: int     # exact-analysis jobs per run, each in a fresh interpreter


TABLE_ROWS = tuple(f"table8-row{r}" for r in range(1, 8))
PRESET_NAMES = (
    "appendix-n14", "appendix-n14-r0", "masking-n8-r0", "extended-n8-l2", "extended-n8-l3",
) + TABLE_ROWS

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "campaign-mask", ("masking-n8-r0",), (Spec("masking-n8-r0", 7, 0),),
            chunk_trials=4000, words_per_batch=1000, campaign_share=0.7,
            setup_samples=5, solve_samples=5,
        ),
        Workload(
            "campaign-ecc", ("appendix-n14", "table8-row5", "extended-n8-l3"),
            (Spec("appendix-n14", 2, 1), Spec("table8-row5", 2, 2), Spec("extended-n8-l3", 3, 1)),
            chunk_trials=1000, words_per_batch=300, campaign_share=0.6,
            setup_samples=5, solve_samples=5,
        ),
        Workload(
            "campaign-gf8", (GF8_CODE,), (Spec(GF8_CODE, 7, 1),),
            chunk_trials=800, words_per_batch=200, campaign_share=0.65,
            setup_samples=2, solve_samples=3,
        ),
        # The table's codes at their measured radius: the campaign and the
        # single-word phase confirm each row's t by simulation.
        Workload(
            "analysis", PRESET_NAMES,
            tuple(Spec(row, 2, t) for row, t in zip(TABLE_ROWS, (0, 0, 1, 1, 2, 1, 1))),
            chunk_trials=300, words_per_batch=100, campaign_share=0.5,
            setup_samples=5, solve_samples=3,
        ),
    )
}


# ---------------------------------------------------------------------------
# set-up: what a user builds before the first trial
# ---------------------------------------------------------------------------

def build_code(psmc, name: str):
    if name == GF8_CODE:
        return psmc.PsmcCyclicCode(9, psmc.make_field(2, 3), (1,))
    return psmc.get_preset(name)


def setup(psmc, workload: Workload) -> dict:
    """Build the workload's codes and fill their syndrome tables.

    The first decode of each code builds its table; the zero word is a
    codeword of every construction and must decode to the zero message.
    """
    codes = {}
    for name in workload.setup_codes:
        code = build_code(psmc, name)
        if code.decode(np.zeros(code.n, dtype=np.int64)).any():
            raise AssertionError(f"{name}: the zero word did not decode to the zero message")
        codes[name] = code
    return codes


def describe(codes: dict) -> dict[str, str]:
    return {name: repr(code) for name, code in codes.items()}


# ---------------------------------------------------------------------------
# reference codes rebuilt from the published constants
# ---------------------------------------------------------------------------

def _stacked(psmc, field, masking_rows, ecc_columns=None):
    """LinearCode generated by [0 | I | P] stacked over the masking rows."""
    H0 = np.asarray(masking_rows, dtype=np.int64)
    l, n = H0.shape
    r = 0 if ecc_columns is None else ecc_columns.shape[1]
    k1 = n - l - r
    blocks = [np.zeros((k1, l), dtype=np.int64), np.eye(k1, dtype=np.int64)]
    if ecc_columns is not None:
        blocks.append(np.asarray(ecc_columns, dtype=np.int64) % field.q)
    return psmc.LinearCode(np.vstack([np.hstack(blocks), H0]), field)


def _single_symbol_limit(psmc, q: int, n: int) -> int:
    """Largest u that one all-ones masking row always masks, by the exact formula."""
    return max(u for u in range(n + 1) if psmc.masking_probability(q, u) == 1)


def reference_code(psmc, name: str):
    """(LinearCode whose radius governs decoding, guaranteed maskable u)."""
    p = psmc.presets
    gf3 = psmc.make_field(3)
    if name == "masking-n8-r0":
        return _stacked(psmc, gf3, np.ones((1, 8))), _single_symbol_limit(psmc, 3, 8)
    if name == "appendix-n14":
        return _stacked(psmc, gf3, np.ones((1, 14)), p.DEMO14_ECC_COLUMNS), _single_symbol_limit(psmc, 3, 14)
    if name == "extended-n8-l3":
        H0 = p.EXTENDED8_L3_CHECK
        checked = psmc.LinearCode(psmc.linear.parity_check_matrix(H0, gf3), gf3)
        d0 = psmc.min_distance(checked).d
        return _stacked(psmc, gf3, H0, p.EXTENDED8_L3_ECC_COLUMNS), min(8, gf3.q + d0 - 3)
    if name in TABLE_ROWS:
        reps = p.TABLE8_ROWS[TABLE_ROWS.index(name)]["g1_reps"]
        return psmc.build_cyclic_code(8, gf3, reps).to_linear_code(), _single_symbol_limit(psmc, 3, 8)
    if name == GF8_CODE:
        gf8 = psmc.make_field(2, 3)
        return psmc.build_cyclic_code(9, gf8, (1,)).to_linear_code(), _single_symbol_limit(psmc, 8, 9)
    raise KeyError(f"no reference for code {name!r}")


def decodable_fraction(code, t: int) -> tuple[int, int]:
    """(correctable, total) weight-t error patterns at decoding radius t.

    A pattern is corrected exactly when no other pattern of weight <= t
    shares its syndrome; an equal-weight twin makes the decoder refuse.
    """
    q, n = code.alphabet.q, code.n
    best: dict[bytes, tuple[int, int]] = {}  # syndrome -> (min weight, patterns at it)
    weight_t = []
    for w in range(t + 1):
        for pos in combinations(range(n), w):
            for vals in product(range(1, q), repeat=w):
                e = np.zeros(n, dtype=np.int64)
                e[list(pos)] = vals
                key = code.syndrome(e).tobytes()
                prev = best.get(key)
                if prev is None or w < prev[0]:
                    best[key] = (w, 1)
                elif w == prev[0]:
                    best[key] = (w, prev[1] + 1)
                if w == t:
                    weight_t.append(key)
    ok = sum(1 for key in weight_t if best[key] == (t, 1))
    return ok, len(weight_t)


def exhaustive_masking(psmc, code, u: int) -> tuple[int, int, int]:
    """(masked, total, zero_at_stuck) over every message and u-subset of cells."""
    q, n, k1 = code.alphabet.q, code.n, code.k1
    total = len(list(combinations(range(n), u))) * q**k1
    if total > EXHAUSTIVE_BUDGET:
        raise ValueError(f"exhaustive masking needs {total} encodes")
    masked = zero = 0
    messages = [np.array(m, dtype=np.int64) for m in product(range(q), repeat=k1)]
    for stuck in combinations(range(n), u):
        cells = list(stuck)
        for m in messages:
            try:
                out = code.encode(m, stuck, probabilistic=True)
            except psmc.MaskingImpossible:
                continue
            masked += 1
            zero += int(not out.codeword[cells].all())
    return masked, total, zero


def _frac(x) -> list[int]:
    x = Fraction(x)
    return [x.numerator, x.denominator]


def spec_reference(psmc, spec: Spec) -> dict:
    """Exact masking and decode rates for one regime.

    'exact' marks a rate of 1 that every trial must meet; otherwise the
    campaign rate is tested against the exact probability with a z-bound.
    """
    ref_code, u_max = reference_code(psmc, spec.code)
    q = ref_code.alphabet.q
    d = psmc.min_distance(ref_code).d
    out = {"d": d, "u_guaranteed": u_max}
    if spec.u <= u_max:
        out["mask"], out["mask_exact"] = _frac(1), True
    else:
        out["mask"], out["mask_exact"] = _frac(psmc.masking_probability(q, spec.u)), False
    if 2 * spec.t_inj + 1 <= d:
        out["decode"], out["decode_exact"] = _frac(1), True
    else:
        ok, total = decodable_fraction(ref_code, spec.t_inj)
        out["decode"], out["decode_exact"] = _frac(Fraction(ok, total)), False
        out["decodable_patterns"] = [ok, total]
    return out


# ---------------------------------------------------------------------------
# the exact-analysis job of each workload (solve_s)
# ---------------------------------------------------------------------------

def analysis_job(psmc) -> dict:
    """Criterion-7 sweep, the n=26 generator sweep and the parameter table."""
    gf3 = psmc.make_field(3)
    checked = violations = 0
    for n in (8, 13):
        reps = [c.representative for c in psmc.all_cosets(n, 3)]
        for take in range(len(reps) + 1):
            for chosen in combinations(reps, take):
                try:
                    spec = psmc.build_cyclic_code(n, gf3, chosen)
                except ValueError:
                    continue  # the full union gives the zero code
                report = psmc.min_distance(spec.to_linear_code(), bch_lower_bound=spec.bch_bound)
                violations += int(report.d < spec.bch_bound)
                checked += 1
    n26 = 0
    reps = [c.representative for c in psmc.all_cosets(26, 3)]
    for take in range(len(reps) + 1):
        for chosen in combinations(reps, take):
            try:
                spec = psmc.build_cyclic_code(26, gf3, chosen)
            except ValueError:
                continue
            n26 += int(spec.g.degree == len(spec.defining_set))
    from psmc import tables

    text = tables.render_text(tables.build_table(), tables.table_footnotes()) + "\n"
    return {
        "bch_checked": checked,
        "bch_violations": violations,
        "n26_codes": n26,
        "table_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def solve(psmc, workload: Workload) -> dict:
    """References for every spec plus the workload's own exact analysis."""
    refs = {"specs": {s.label: spec_reference(psmc, s) for s in workload.specs}}
    if workload.name == "analysis":
        refs["analysis"] = analysis_job(psmc)
    for s in workload.specs:
        if not refs["specs"][s.label]["mask_exact"]:
            masked, total, zero = exhaustive_masking(psmc, build_code(psmc, s.code), s.u)
            refs["specs"][s.label]["exhaustive"] = [masked, total, zero]
    return refs


def golden_tables_sha256() -> str:
    return hashlib.sha256(GOLDEN_TABLES.read_bytes()).hexdigest()
