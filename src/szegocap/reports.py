"""Report serialization: fixed-column CSV and lossless nested JSON.

CSV column order is part of the external contract and must not change.
Floats are written with 17 significant digits so that a written value parses
back to the identical double.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from .harness import SweepRecord, SweepReport

CSV_COLUMNS = (
    "alpha",
    "capacity_discrete",
    "capacity_symbol",
    "error_total",
    "error_stability",
    "error_calculus",
    "hs_cross_norm",
    "q_alpha_s0.25",
    "q_alpha_s0.5",
    "q_alpha_s1.0",
    "tp_i1",
    "tp_i2",
    "eps",
    "hermitian_defect",
)

_Q_COLUMNS = {"q_alpha_s0.25": 0.25, "q_alpha_s0.5": 0.5, "q_alpha_s1.0": 1.0}


def fmt17(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, int):          # bool included
        return str(value)
    return format(float(value), ".17g")


def record_csv_row(rec: SweepRecord) -> str:
    cells = []
    for col in CSV_COLUMNS:
        if col in _Q_COLUMNS:
            cells.append(fmt17(rec.q_alpha.get(_Q_COLUMNS[col])))
        else:
            cells.append(fmt17(getattr(rec, col)))
    return ",".join(cells)


def report_csv(report: SweepReport) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(record_csv_row(rec) for rec in report.records)
    return "\n".join(lines) + "\n"


def report_dict(report: SweepReport) -> dict:
    """Full nested report: config echo, per-alpha records, fit results."""
    records = []
    for rec in report.records:
        d = dataclasses.asdict(rec)
        d["q_alpha"] = {str(k): v for k, v in rec.q_alpha.items()}
        records.append(d)
    return {
        "schema_version": 1,
        "command": report.command,
        "config": report.config,
        "records": records,
        "fits": {name: dataclasses.asdict(fit) for name, fit in report.fits.items()},
        "summary": report.summary,
    }


def report_json(report: SweepReport) -> str:
    return json.dumps(report_dict(report), indent=2, sort_keys=True,
                      allow_nan=True) + "\n"


def write_report_files(report: SweepReport, path: str, fmt: str) -> list[str]:
    """Write the report in the requested format; returns written paths."""
    if fmt == "csv":
        text = report_csv(report)
    elif fmt == "json":
        text = report_json(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return [path]
