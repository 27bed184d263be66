"""Which psmc functions the traced run wraps, and the per-layer metrics."""

from __future__ import annotations

import numpy as np

CLASSES = (("PsmcMatrixCode", "Matrix"), ("PsmcCyclicCode", "Cyclic"), ("PsmcExtendedCode", "Extended"))
SCALAR_OPS = ("add", "sub", "neg", "mul")


def _rows(args) -> int:
    return int(np.shape(args[0])[0]) if np.ndim(args[0]) == 2 else 1


def _codewords(args) -> int:
    code = args[0]
    return code.alphabet.q ** code.k


def _table_missing(args) -> bool:
    # Only builds are spans; a cache hit is timed as part of decode_bounded.
    code, t = args[0], args[1]
    return t not in getattr(code, "_tables", {})


def install(tracer, psmc) -> None:
    import psmc.cli  # noqa: F401  (loaded so that its re-imports get wrapped)

    sim, con, lin = psmc.sim, psmc.constructions, psmc.linear
    tracer.patch_function(sim, "run_campaign", "sim.run_campaign")
    tracer.patch_function(sim, "inject", "sim.inject")
    for cls_name, label in CLASSES:
        cls = getattr(con, cls_name)
        tracer.patch_method(cls, "encode", f"constructions.{label}.encode", outcome=lambda r: True)
        tracer.patch_method(cls, "decode", f"constructions.{label}.decode")
    tracer.patch_method(lin.LinearCode, "decode_bounded", "linear.decode_bounded", outcome=lambda r: r is None)
    tracer.patch_method(lin.LinearCode, "syndrome", "linear.syndrome")
    tracer.patch_method(lin.LinearCode, "_syndrome_table", "linear.syndrome_table", when=_table_missing)
    tracer.patch_function(lin, "mat_mul", "linear.mat_mul", work=_rows)
    tracer.patch_function(lin, "min_distance", "linear.min_distance", work=_codewords)
    tracer.patch_function(lin, "rref", "linear.rref")
    tracer.patch_function(lin, "as_word", "linear.as_word")
    for op in SCALAR_OPS:
        tracer.patch_method(psmc.alphabet.Alphabet, op, f"alphabet.{op}")
    tracer.patch_method(psmc.alphabet.Polynomial, "__mul__", "alphabet.Polynomial.mul")
    tracer.patch_method(psmc.alphabet.Polynomial, "__divmod__", "alphabet.Polynomial.divmod")
    tracer.patch_function(psmc.cyclic, "build_cyclic_code", "cyclic.build_cyclic_code")
    tracer.patch_function(psmc.cyclic, "minimal_polynomial", "cyclic.minimal_polynomial")
    tracer.patch_function(psmc.presets, "get_preset", "presets.get_preset")
    tracer.patch_function(psmc.tables, "build_table", "tables.build_table")
    tracer.patch_function(psmc.cli, "main", "cli.main")


_EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "hits": 0}


def per_layer(stats: dict, *, overhead_ratio: float, import_s: float) -> dict[str, float]:
    """Per-layer metric values keyed by the names BENCHMARK.json lists."""
    by = stats["by_name"]
    get = lambda span: by.get(span, _EMPTY)
    m: dict[str, float] = {}

    def fields(prefix, span, names=("calls", "s")):
        for f in names:
            m[f"{prefix}.{f}"] = get(span)[f]

    m["sim.run_campaign.self_s"] = get("sim.run_campaign")["self_s"]
    fields("sim.inject", "sim.inject")
    encodes = masked = 0
    for _, label in CLASSES:
        for op in ("encode", "decode"):
            fields(f"constructions.{label}.{op}", f"constructions.{label}.{op}", ("calls", "s", "self_s"))
        encodes += get(f"constructions.{label}.encode")["calls"]
        masked += get(f"constructions.{label}.encode")["hits"]
    m["constructions.encode.ok_ratio"] = masked / encodes if encodes else 0.0
    ext = get("constructions.Extended.encode")["calls"]
    inner = stats["child_counts"].get("constructions.Extended.encode>linear.mat_mul", 0)
    m["constructions.mask_candidates"] = inner / ext - 1 if ext else 0.0

    fields("linear.decode_bounded", "linear.decode_bounded")
    db = get("linear.decode_bounded")
    m["linear.decode_bounded.none_ratio"] = db["hits"] / db["calls"] if db["calls"] else 0.0
    fields("linear.syndrome", "linear.syndrome")
    m["linear.syndrome_table.build_s"] = get("linear.syndrome_table")["s"]
    fields("linear.mat_mul", "linear.mat_mul")
    m["linear.mat_mul.rows"] = get("linear.mat_mul")["work"]
    fields("linear.min_distance", "linear.min_distance")
    m["linear.min_distance.codewords"] = get("linear.min_distance")["work"]
    fields("linear.rref", "linear.rref")
    fields("linear.as_word", "linear.as_word")

    for op in SCALAR_OPS:
        fields(f"alphabet.{op}", f"alphabet.{op}")
    for op in ("mul", "divmod"):
        fields(f"alphabet.Polynomial.{op}", f"alphabet.Polynomial.{op}")
    fields("cyclic.build_cyclic_code", "cyclic.build_cyclic_code")
    fields("cyclic.minimal_polynomial", "cyclic.minimal_polynomial")
    m["presets.get_preset.s"] = get("presets.get_preset")["s"]
    m["tables.build_table.s"] = get("tables.build_table")["s"]
    m["cli.main.s"] = get("cli.main")["s"]
    m["cli.import_s"] = import_s
    m["trace.overhead_ratio"] = overhead_ratio
    return m
