#!/usr/bin/env python3
"""psmc benchmark: campaign throughput, per-word latency and analysis time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; psmc is imported from its src/.
With --trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; details and
spans go to .bench_out/.  bench/README.md defines every metric.

Everything runs in this one process with no extra threads, except cold
samples (set-up, exact analysis, CLI), which run one at a time in fresh
interpreters.  Every time is reported at one reference speed of the
host (speed.py).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import COLD_REF_CODE, COLD_REF_NOMINAL_S, MIXED_NOMINAL_S, Speed, mixed_loop, pin  # noqa: E402
from workloads import (  # noqa: E402
    GOLDEN_TABLES, WORKLOADS, Spec, describe, golden_tables_sha256, setup, solve,
)

Z_BOUND = 5.0          # |z| allowed between a sampled rate and its exact probability
CLI_SAMPLES = 9        # fresh `python -m psmc tables` processes per untraced run
MIN_ROUNDS = 3         # campaign rounds and word batches a run makes at least
IMPORT_SAMPLES = 3     # fresh `python -c "import psmc"` processes per traced run
CHILD_TIMEOUT_S = 150
SELF_TEST_TRIALS = 20
PROBE_PRESETS = ("masking-n8-r0", "table8-row1", "extended-n8-l2")  # one per construction


def load_psmc():
    if not (SRC / "psmc" / "__init__.py").is_file():
        sys.exit(f"bench: no psmc sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import psmc

    if Path(psmc.__file__).resolve().parent != (SRC / "psmc").resolve():
        sys.exit(f"bench: imported psmc from {psmc.__file__}, not from {SRC}")
    return psmc


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(job: str, workload) -> tuple[float, float, dict]:
    """Run one cold job in a fresh interpreter; returns (raw s, scaled s, result).

    The child times the job and scales it by mixed reference samples it
    takes itself, just before and after: they run where the job ran.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--job", job, "--workload", workload.name],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{job} job failed:\n{proc.stderr[-4000:]}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    return data["raw_seconds"], data["seconds"], data["result"]


def timed_process(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


# ---------------------------------------------------------------------------
# outcome accounting and checks
# ---------------------------------------------------------------------------

class Ledger:
    """Outcome counts per phase and regime, and the checks made on them.

    Failures are unexpected exceptions, masking failures inside the
    guaranteed regime, wrong decoded messages and zeros written to stuck
    cells.  MaskingImpossible above the guarantee and DecodingFailure are
    documented outcomes: counted and tested against their exact rates.
    """

    def __init__(self):
        self.counts: dict[str, Counter] = {}
        self.checks: list[dict] = []
        self.errors: list[str] = []
        self.rng: str | None = None

    def tally(self, phase: str, spec: Spec) -> Counter:
        return self.counts.setdefault(f"{phase}:{spec.label}", Counter())

    def check(self, name: str, ok: bool, detail="") -> None:
        self.checks.append({"check": name, "ok": bool(ok), "detail": str(detail)})

    def error(self, where: str, exc: BaseException) -> None:
        if len(self.errors) < 20:
            self.errors.append(f"{where}: {type(exc).__name__}: {exc}")

    def judge(self, refs: dict) -> tuple[int, int]:
        """Check every tally against the references; returns (attempted, failed)."""
        attempted = failed = 0
        for key, c in self.counts.items():
            label = key.split(":", 1)[1]
            ref = refs[label]
            guaranteed = ref["mask_exact"]
            attempted += c["trials"] + c["errors"] + c["decode_calls"]
            failed += c["wrong"] + c["zero_stuck"] + c["errors"]
            if guaranteed:
                failed += c["trials"] - c["masked"]
            if c["mismatched_chunks"]:
                self.check(f"{key}:accounting", False, f"{c['mismatched_chunks']} chunks disagree with their reports")
            self._rate(f"{key}:mask", c["masked"], c["trials"], ref["mask"], ref["mask_exact"])
            self._rate(f"{key}:decode", c["decoded"], c["decode_attempts"], ref["decode"], ref["decode_exact"])
        return attempted, failed

    def _rate(self, name, k, n, prob, exact) -> None:
        p = Fraction(*prob)
        if n == 0:
            return
        if exact:
            self.check(name, k == n * p, f"{k}/{n}, exact {p}")
            return
        z = (k - n * float(p)) / (n * float(p) * (1 - float(p))) ** 0.5
        self.check(name, abs(z) <= Z_BOUND, f"{k}/{n} = {k / n:.5f}, exact {p} = {float(p):.5f}, z = {z:+.2f}")

    @property
    def passed(self) -> bool:
        return all(c["ok"] for c in self.checks)


def checked(code, tally: Counter, *, corrupt: bool = False):
    """A copy of code whose encode/decode check each stored word and message.

    The copy is an instance of a subclass, so campaign code that inspects
    the construction's type still sees it.  corrupt=True alters every
    decoded message, for the self-test.
    """
    base = type(code)

    class Checked(base):
        _bench_message = None

        def encode(self, message, profile=(), **kwargs):
            out = base.encode(self, message, profile, **kwargs)
            tally["stored"] += 1
            cells = list(getattr(profile, "positions", profile))
            if cells and not out.codeword[cells].all():
                tally["zero_stuck"] += 1
            self._bench_message = np.asarray(message)
            return out

        def decode(self, word):
            message = base.decode(self, word)
            if corrupt:
                message = (message + 1) % self.alphabet.q
            tally["returned"] += 1
            if self._bench_message is not None and not np.array_equal(message, self._bench_message):
                tally["wrong"] += 1
            return message

    twin = copy.copy(code)
    twin.__class__ = Checked
    return twin


def chunk_seeder(seed: int):
    """Campaign seed of chunk c.

    run_campaign keys trial i with (seed XOR i), so two chunk seeds must
    differ above the trial-index bits or their trials repeat: chunk seeds
    share a hashed base and differ in bits 32..62 by the chunk index.
    """
    state = np.random.SeedSequence([seed, 2]).generate_state(1, np.uint64)[0]
    base = int(state) & 0x7FFF_FFFF_0000_0000
    return lambda c: base ^ (c << 32)


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def run_chunk(psmc, code, spec, trials, seed, ledger, phase, *, corrupt=False):
    """One run_campaign call; returns (seconds, outcome tuple or None)."""
    chunk = Counter()
    twin = checked(code, chunk, corrupt=corrupt)
    cfg = psmc.ChannelConfig(n=code.n, q=code.alphabet.q, u=spec.u, t_inj=spec.t_inj, trials=trials, seed=seed)
    tally = ledger.tally(phase, spec)
    t0 = time.perf_counter()
    try:
        report = psmc.run_campaign(twin, cfg)
    except Exception as exc:  # counted: every trial of the chunk failed
        elapsed = time.perf_counter() - t0
        tally["errors"] += trials
        ledger.error(f"{phase} {spec.label} seed {seed}", exc)
        return elapsed, None
    elapsed = time.perf_counter() - t0
    ledger.rng = report.rng
    failed_decodes = report.decode_attempts - report.decode_successes
    tally.update(
        trials=trials, masked=report.masking_successes, decode_attempts=report.decode_attempts,
        decoded=report.decode_successes, wrong=chunk["wrong"], zero_stuck=chunk["zero_stuck"],
        decode_failures=failed_decodes - chunk["wrong"], stored_checked=chunk["stored"],
    )
    # When the campaign calls encode/decode once per trial, the checked
    # counts must agree with the report's.
    if chunk["stored"] and (
        chunk["stored"] != report.masking_successes
        or chunk["returned"] - chunk["wrong"] != report.decode_successes
    ):
        tally["mismatched_chunks"] += 1
    outcome = (report.masking_successes, report.decode_attempts, report.decode_successes,
               chunk["wrong"], chunk["zero_stuck"])
    return elapsed, outcome


class Campaign:
    """Rounds of run_campaign calls, one chunk per spec.

    The seed of every chunk is fixed by --seed and the round index, so
    round r has the same outcomes in every run.  Each round is followed
    by a reference sample and scaled when the run is over.
    """

    def __init__(self, psmc, codes, workload, seed_of, ledger, phase, speed):
        self.psmc, self.codes, self.workload = psmc, codes, workload
        self.seed_of, self.ledger, self.phase = seed_of, ledger, phase
        self.speed = speed
        self.trials = 0
        self.raw_seconds: list[float] = []
        self.blocks: list[int] = []
        self.outcomes: list[list] = []

    def round(self) -> float:
        """One round; returns its raw wall time."""
        specs = self.workload.specs
        r, elapsed, outcomes = len(self.outcomes), 0.0, []
        for i, spec in enumerate(specs):
            dt, out = run_chunk(self.psmc, self.codes[spec.code], spec, self.workload.chunk_trials,
                                self.seed_of(r * len(specs) + i), self.ledger, self.phase)
            elapsed += dt
            outcomes.append(out)
        self.trials += self.workload.chunk_trials * len(specs)
        self.raw_seconds.append(elapsed)
        self.blocks.append(self.speed.block())
        self.outcomes.append(outcomes)
        return elapsed

    @property
    def round_seconds(self) -> list[float]:
        return [s * self.speed.smoothed(k) for s, k in zip(self.raw_seconds, self.blocks)]

    @property
    def seconds(self) -> float:
        return sum(self.round_seconds)

    @property
    def rate(self) -> float:
        return self.trials / self.seconds


class Words:
    """Single-word encode and decode calls, one at a time from one caller.

    Inputs come from a generator seeded by --seed: uniform messages, a
    uniform u-subset of stuck cells and t_inj uniform errors per word.
    Latencies are kept in raw nanoseconds; each batch is followed by a
    reference sample, and its latencies are scaled when the run is over.
    """

    def __init__(self, psmc, codes, workload, seed, ledger, speed):
        self.psmc, self.codes, self.workload, self.ledger = psmc, codes, workload, ledger
        self.speed = speed
        self.rng = np.random.default_rng([seed, 1])
        self.enc: list[int] = []
        self.dec: list[int] = []
        self.blocks: list[tuple[int, int, int]] = []  # (end of encodes, end of decodes, block)

    def batch(self) -> float:
        """words_per_batch words of every spec; returns the batch's raw wall time."""
        t_batch = time.perf_counter()
        for spec in self.workload.specs:
            self._words(spec)
        elapsed = time.perf_counter() - t_batch
        self.blocks.append((len(self.enc), len(self.dec), self.speed.block()))
        return elapsed

    @property
    def batches(self) -> int:
        return len(self.blocks)

    def _words(self, spec) -> None:
        psmc, ledger, rng, clock = self.psmc, self.ledger, self.rng, time.perf_counter_ns
        code = self.codes[spec.code]
        q, n, B = code.alphabet.q, code.n, self.workload.words_per_batch
        messages = rng.integers(0, q, size=(B, code.k1))
        stuck = np.sort(np.argsort(rng.random((B, n)), axis=1)[:, : spec.u], axis=1)
        epos = np.argsort(rng.random((B, n)), axis=1)[:, : spec.t_inj]
        evals = rng.integers(1, q, size=(B, spec.t_inj))
        add = code.alphabet.add_table()
        tally = ledger.tally("words", spec)
        for b in range(B):
            m, cells = messages[b], tuple(int(x) for x in stuck[b])
            t0 = clock()
            try:
                out = code.encode(m, cells, probabilistic=True)
            except psmc.MaskingImpossible:
                self.enc.append(clock() - t0)
                tally["trials"] += 1
                continue
            except Exception as exc:
                tally["errors"] += 1
                ledger.error(f"words encode {spec.label}", exc)
                continue
            self.enc.append(clock() - t0)
            tally["trials"] += 1
            tally["masked"] += 1
            c = out.codeword
            if cells and not c[list(cells)].all():
                tally["zero_stuck"] += 1
            e = np.zeros(n, dtype=np.int64)
            e[epos[b]] = evals[b]
            y = add[c, e]
            t0 = clock()
            try:
                mhat = code.decode(y)
            except psmc.DecodingFailure:
                self.dec.append(clock() - t0)
                tally.update(decode_calls=1, decode_attempts=1, decode_failures=1)
                continue
            except Exception as exc:
                tally["errors"] += 1
                ledger.error(f"words decode {spec.label}", exc)
                continue
            self.dec.append(clock() - t0)
            tally.update(decode_calls=1, decode_attempts=1)
            if np.array_equal(mhat, m):
                tally["decoded"] += 1
            else:
                tally["wrong"] += 1

    def percentile(self, which: str, pct: float) -> float:
        """pct-th percentile in microseconds over every call of the run, at the reference speed."""
        raw = np.asarray(getattr(self, which), dtype=float)
        factor = np.empty_like(raw)
        start = 0
        for end_enc, end_dec, k in self.blocks:
            end = end_enc if which == "enc" else end_dec
            factor[start:end] = self.speed.smoothed(k)
            start = end
        return float(np.percentile(raw * factor, pct)) / 1000.0


def self_test(psmc, codes, workload, seed_of, main_ledger) -> None:
    """A code that corrupts decoded messages must produce failures and a red check."""
    spec = workload.specs[0]
    probe = Spec(spec.code, 0, 0)
    ledger = Ledger()
    run_chunk(psmc, codes[spec.code], probe, SELF_TEST_TRIALS, seed_of(0), ledger, "self-test", corrupt=True)
    one = {"mask": [1, 1], "mask_exact": True, "decode": [1, 1], "decode_exact": True}
    attempted, failed = ledger.judge({probe.label: one})
    main_ledger.check(
        "self-test:corrupted-decodes-detected",
        failed > 0 and not ledger.passed,
        f"fail_ratio {failed}/{attempted}",
    )


def check_references(refs: dict, workload, ledger) -> None:
    for label, ref in refs["specs"].items():
        if "exhaustive" in ref:
            masked, total, zero = ref["exhaustive"]
            exact = Fraction(*ref["mask"])
            ledger.check(f"solve:{label}:exhaustive-rate", Fraction(masked, total) == exact,
                         f"{masked}/{total} vs formula {exact}")
            ledger.check(f"solve:{label}:exhaustive-stuck-nonzero", zero == 0, f"{zero} zero cells")
    if workload.name == "analysis":
        a = refs["analysis"]
        ledger.check("solve:bch-bound", a["bch_checked"] == 62 and a["bch_violations"] == 0,
                     f"{a['bch_checked']} codes, {a['bch_violations']} below the bound")
        ledger.check("solve:n26-codes", a["n26_codes"] == 1023, a["n26_codes"])
        ledger.check("solve:table-golden", a["table_sha256"] == golden_tables_sha256(), a["table_sha256"])


def cli_sample(ledger, cold_refs: list[float]) -> tuple[float, float]:
    """Time one fresh `python -m psmc tables` process and check its output.

    Returns raw seconds and seconds scaled by the cold reference processes
    run just before and after it (speed.py).
    """
    before, _ = timed_process([sys.executable, "-c", COLD_REF_CODE])
    seconds, proc = timed_process([sys.executable, "-m", "psmc", "tables"])
    after, _ = timed_process([sys.executable, "-c", COLD_REF_CODE])
    cold_refs += [before, after]
    ledger.check("cli:tables-golden", proc.returncode == 0 and proc.stdout == GOLDEN_TABLES.read_bytes())
    return seconds, seconds * COLD_REF_NOMINAL_S / ((before + after) / 2)


def compare_outcomes(ledger, name, a, b) -> None:
    n = min(len(a), len(b))
    ledger.check(name, n > 0 and a[:n] == b[:n] and None not in sum(a[:n], []), f"{n} rounds compared")


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def plain_run(psmc, workload, seed, seconds, ledger) -> tuple[dict, dict]:
    cold_speed = Speed(mixed_loop, MIXED_NOMINAL_S)
    cold_speed.begin(3)
    t0 = time.perf_counter()
    codes = setup(psmc, workload)  # this interpreter is fresh: the first cold sample
    raw = {"setup_s": [time.perf_counter() - t0], "solve_s": [], "cli_cold_s": []}
    setup_times = [raw["setup_s"][0] * cold_speed.factor()]
    check_speed(ledger, cold_speed)
    speed = Speed()
    built = describe(codes)
    seed_of = chunk_seeder(seed)
    self_test(psmc, codes, workload, seed_of, ledger)

    solve_times, results, cli_times, cold_refs = [], [], [], []

    def setup_job():
        raw_s, s, result = run_child("setup", workload)
        ledger.check("setup:same-codes", result == built)
        return raw_s, s

    def solve_job():
        raw_s, s, result = run_child("solve", workload)
        results.append(result)
        return raw_s, s

    cold = [job for trio in zip_longest(
        [("cli_cold_s", cli_times, lambda: cli_sample(ledger, cold_refs))] * CLI_SAMPLES,
        [("solve_s", solve_times, solve_job)] * workload.solve_samples,
        [("setup_s", setup_times, setup_job)] * (workload.setup_samples - 1),
    ) for job in trio if job is not None]
    campaign = Campaign(psmc, codes, workload, seed_of, ledger, "campaign", speed)
    words = Words(psmc, codes, workload, seed, ledger, speed)
    interleave(campaign, words, workload.campaign_share, seconds, cold, raw, speed)

    refs = results[0]
    ledger.check("solve:deterministic", all(r == refs for r in results))
    check_references(refs, workload, ledger)
    replay = Campaign(psmc, codes, workload, seed_of, Ledger(), "replay", speed)
    replay.round()
    compare_outcomes(ledger, "determinism:replayed-round", campaign.outcomes, replay.outcomes)
    check_speed(ledger, speed)

    values = {
        "trials_per_s": campaign.rate,
        "setup_s": statistics.median(setup_times),
        "encode_us.p50": words.percentile("enc", 50),
        "encode_us.p99": words.percentile("enc", 99),
        "decode_us.p50": words.percentile("dec", 50),
        "decode_us.p99": words.percentile("dec", 99),
        "solve_s": statistics.median(solve_times),
        "cli_cold_s": statistics.median(cli_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "campaign_rounds": len(campaign.outcomes), "campaign_trials": campaign.trials,
        "round_s": campaign.round_seconds, "setup_s": setup_times, "solve_s": solve_times,
        "cli_cold_s": cli_times, "encode_calls": len(words.enc), "decode_calls": len(words.dec),
        "chunk_outcomes_round0": campaign.outcomes[0],
        "raw": {"trials_per_s": campaign.trials / sum(campaign.raw_seconds), "round_s": campaign.raw_seconds,
                **raw},
        "reference_s": speed.samples, "setup_reference_s": cold_speed.samples, "cold_reference_s": cold_refs,
    }
    return values, {"references": refs, "codes": built, "samples": samples}


def interleave(campaign, words, share, seconds, cold_jobs, raw, speed) -> None:
    """Alternate campaign rounds and word batches until `seconds` are spent.

    The campaign keeps `share` of the measured time, and the cold jobs run
    at evenly spaced points, so every metric samples the whole run: the
    machine's speed drifts over seconds.  A cold job is (metric, list of
    its scaled times, job returning raw and scaled seconds); raw times go
    to `raw`.
    """
    spent_campaign = spent_words = 0.0
    done = 0
    speed.begin()
    while True:
        spent = spent_campaign + spent_words
        while done < len(cold_jobs) and spent >= seconds * done / len(cold_jobs):
            metric, times, job = cold_jobs[done]
            raw_s, s = job()
            raw[metric].append(raw_s)
            times.append(s)
            speed.begin()
            done += 1
        if spent >= seconds and len(campaign.outcomes) >= MIN_ROUNDS and words.batches >= MIN_ROUNDS:
            return
        if spent_campaign * (1 - share) <= spent_words * share:
            spent_campaign += campaign.round()
        else:
            spent_words += words.batch()


def check_speed(ledger, speed) -> None:
    ledger.check("speed:reference-ran-alone", *speed.alone())


def traced_run(psmc, workload, seed, seconds, ledger) -> tuple[dict, dict]:
    tracer = Tracer()
    layers.install(tracer, psmc)
    seed_of = chunk_seeder(seed)
    share = workload.campaign_share
    with tracer.active(), tracer.span("bench.setup"):
        codes = setup(psmc, workload)
    with tracer.active(), tracer.span("bench.solve"):
        refs = json.loads(json.dumps(solve(psmc, workload)))
    check_references(refs, workload, ledger)
    self_test(psmc, codes, workload, seed_of, ledger)
    # A quarter of an untraced run's campaign and word time: first the
    # campaign untraced, then the same rounds traced.
    speed = Speed()
    plain = Campaign(psmc, codes, workload, seed_of, ledger, "campaign", speed)
    while len(plain.outcomes) < MIN_ROUNDS or sum(plain.raw_seconds) < 0.25 * share * seconds:
        plain.round()
    traced = Campaign(psmc, codes, workload, seed_of, ledger, "campaign-traced", speed)
    with tracer.active(), tracer.span("bench.campaign"):
        for _ in plain.outcomes:
            traced.round()
    compare_outcomes(ledger, "determinism:traced-vs-untraced", plain.outcomes, traced.outcomes)
    words = Words(psmc, codes, workload, seed, ledger, speed)
    spent = 0.0
    with tracer.active(), tracer.span("bench.words"):
        while words.batches < MIN_ROUNDS or spent < 0.25 * (1 - share) * seconds:
            spent += words.batch()
    buf = io.StringIO()
    with tracer.active(), tracer.span("bench.cli"), contextlib.redirect_stdout(buf):
        status = psmc.cli.main(["tables"])
    ledger.check("cli:in-process-tables-golden",
                 status == 0 and buf.getvalue().encode() == GOLDEN_TABLES.read_bytes())
    # One word through each construction, so that every layer reports a
    # measured time on every workload: a layer the workload does not use
    # reads as this probe's few calls, not as a constant zero.
    with tracer.active(), tracer.span("bench.probe"):
        for name in PROBE_PRESETS:
            code = psmc.get_preset(name)
            zero = np.zeros(code.k1, dtype=np.int64)
            ledger.check(f"probe:{name}", not code.decode(code.encode(zero).codeword).any())
    imports = [timed_process([sys.executable, "-c", "import psmc"]) for _ in range(IMPORT_SAMPLES)]
    ledger.check("cli:import", all(proc.returncode == 0 for _, proc in imports))

    check_speed(ledger, speed)
    stats = tracer.stats()
    gap = abs(stats["self_total_s"] - stats["wall_s"])
    ledger.check("trace:self-times-cover-wall", gap <= 0.01 * stats["wall_s"],
                 f"sum of self times {stats['self_total_s']:.4f} s vs traced wall {stats['wall_s']:.4f} s")
    overhead = traced.rate / plain.rate
    values = layers.per_layer(stats, overhead_ratio=overhead, import_s=statistics.median(s for s, _ in imports))
    OUT.mkdir(exist_ok=True)
    np.savez(OUT / f"spans-{workload.name}-seed{seed}.npz", names=np.array(tracer.names), **tracer.arrays())
    details = {
        "references": refs, "codes": describe(codes),
        "trace": {k: stats[k] for k in ("wall_s", "self_total_s", "spans")},
        "layers": stats["by_name"],
        "samples": {"untraced_trials_per_s": plain.rate, "traced_trials_per_s": traced.rate,
                    "campaign_rounds": len(plain.outcomes)},
    }
    return values, details


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def provenance(psmc, args, rng, cpu) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "psmc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "campaign_rng": rng, "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "pinned_cpu": cpu, "commit": commit, "src_sha256": digest.hexdigest(),
        "psmc_version": getattr(psmc, "__version__", None),
    }


def child_main(args) -> None:
    psmc = load_psmc()
    workload = WORKLOADS[args.workload]
    speed = Speed(mixed_loop, MIXED_NOMINAL_S)
    speed.begin(3)
    t0 = time.perf_counter()
    result = describe(setup(psmc, workload)) if args.job == "setup" else solve(psmc, workload)
    seconds = time.perf_counter() - t0
    scaled = seconds * speed.factor()
    alone, detail = speed.alone()
    if not alone:
        sys.exit(f"bench: {detail}")
    print(json.dumps({"raw_seconds": seconds, "seconds": scaled, "result": result}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--job", choices=("setup", "solve"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.job:
        child_main(args)
        return 0

    cpu = pin()
    psmc = load_psmc()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    ledger = Ledger()
    run = traced_run if args.trace else plain_run
    values, details = run(psmc, workload, args.seed, args.seconds, ledger)
    attempted, failed = ledger.judge(details["references"]["specs"])
    correct = ledger.passed and failed == 0 and not ledger.errors
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    details.update(
        provenance=provenance(psmc, args, ledger.rng, cpu), counts=ledger.counts, checks=ledger.checks,
        errors=ledger.errors, attempted=attempted, failed=failed, metrics=metrics,
    )
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(details, indent=1, default=str) + "\n")

    print(f"provenance {json.dumps(details['provenance'])}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    bad = [c for c in ledger.checks if not c["ok"]]
    print(f"checks: {len(ledger.checks) - len(bad)}/{len(ledger.checks)} passed; details in {out_file.relative_to(ROOT)}")
    for c in bad:
        print(f"FAILED {c['check']}: {c['detail']}")
    for e in ledger.errors:
        print(f"ERROR {e}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
