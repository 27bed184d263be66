"""Parameter-table generation for the partitioned cyclic construction.

For each configured g1 factor combination the builder constructs the
code, recomputes the BCH bound under this library's deterministic alpha,
measures the exact minimum distance of the error-correction part with
the brute-force oracle, and evaluates the fractional-redundancy columns
(k1*, l*).  Published designed values ride along for comparison; any row
where the published delta1 disagrees with the recomputed bound is
flagged, never silently corrected.

Coset labels (which minimal polynomial is called M^(a)) depend on the
choice of primitive root, so published label strings may differ from the
computed ones; rows are compared by parameters, not by labels.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields

from .alphabet import poly_pretty
from .constructions import (
    PsmcCyclicCode,
    redundancy_gain,
    stuck_redundancy_lower_bound,
)
from .cyclic import cyclotomic_coset
from .linear import min_distance
from .presets import GAIN_Q, GAIN_U, TABLE8_ROWS, table8_code


@dataclass(frozen=True)
class TableRow:
    row: int
    k1: int
    k1_star: float
    l: int
    l_star: float
    r: int
    delta0: int
    delta1_stated: int
    bch_bound: int
    d_measured: int
    t: int
    h0_label: str
    g1_labels: str
    published_h0: str
    published_g1: str
    g1_poly: str
    flag: str


TABLE_CSV_COLUMNS = [f.name for f in fields(TableRow)]


def _coset_label(rep: int, code: PsmcCyclicCode) -> str:
    return f"M^({cyclotomic_coset(rep, code.n, code.alphabet.q).representative})"


def build_table() -> list[TableRow]:
    rows = []
    for spec in TABLE8_ROWS:
        code = table8_code(spec["row"])
        # The row reads t off this report, never code.t, so the code is enumerated once.
        report = min_distance(code.base)
        k1_star, l_star = redundancy_gain(GAIN_Q, GAIN_U, code.k1)
        h0_label = _coset_label(0, code)
        g1_labels = "*".join(_coset_label(a, code) for a in spec["g1_reps"])
        issues = []
        if spec["stated_delta1"] != code.delta1:
            issues.append(
                f"published delta1={spec['stated_delta1']}, recomputed BCH bound={code.delta1}"
            )
        if (g1_labels, h0_label) != (spec["published_g1"], spec["published_h0"]):
            issues.append("labels permuted vs published")
        rows.append(
            TableRow(
                row=spec["row"],
                k1=code.k1,
                k1_star=round(k1_star, 3),
                l=1,
                l_star=round(l_star, 3),
                r=code.r,
                delta0=code.d0,
                delta1_stated=spec["stated_delta1"],
                bch_bound=code.delta1,
                d_measured=report.d,
                t=report.t,
                h0_label=h0_label,
                g1_labels=g1_labels,
                published_h0=spec["published_h0"],
                published_g1=spec["published_g1"],
                g1_poly=poly_pretty(code.g1),
                flag="; ".join(issues),
            )
        )
    return rows


def table_footnotes() -> list[str]:
    baseline = stuck_redundancy_lower_bound(GAIN_U)
    return [
        f"masking redundancy: l=1 symbol here vs >= {baseline} symbols to mask "
        f"u={GAIN_U} fully stuck cells (Singleton bound: d > u forces n-k >= u).",
        f"k1*/l* computed for alphabet size {GAIN_Q} with u={GAIN_U}: "
        f"shift log_{GAIN_Q}(floor({GAIN_Q}/{GAIN_U + 1})) = "
        f"{redundancy_gain(GAIN_Q, GAIN_U, 0)[0]:.3f}.",
        "M^(a) labels use this library's fixed primitive root; published label "
        "strings may be permuted. Rows are validated by (k1, l, r) and measured d.",
        "flagged rows keep the published delta1 alongside the recomputed bound.",
    ]


def render_text(rows: list[TableRow], footnotes: list[str]) -> str:
    headers = [
        "row", "k1", "k1*", "l", "l*", "r", "d0",
        "d1(pub)", "bch", "d", "t", "h0", "g1", "flag",
    ]
    grid = [headers]
    for r in rows:
        grid.append([
            str(r.row), str(r.k1), f"{r.k1_star:.3f}", str(r.l), f"{r.l_star:.3f}",
            str(r.r), str(r.delta0), str(r.delta1_stated), str(r.bch_bound),
            str(r.d_measured), str(r.t), r.h0_label, r.g1_labels, r.flag,
        ])
    widths = [max(len(row[i]) for row in grid) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in grid]
    lines.insert(1, "-" * len(lines[0]))
    lines.append("")
    lines.extend(f"note: {fn}" for fn in footnotes)
    return "\n".join(lines)


def render_csv(rows: list[TableRow]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(TABLE_CSV_COLUMNS)
    for r in rows:
        w.writerow([getattr(r, c) for c in TABLE_CSV_COLUMNS])
    return buf.getvalue()


def render_json(rows: list[TableRow], footnotes: list[str]) -> str:
    return json.dumps({"rows": [asdict(r) for r in rows], "notes": footnotes}, indent=2)
