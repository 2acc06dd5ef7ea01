"""Seeded workloads for the szegocap benchmark and the checks on their reports.

A workload is a fixed sequence of CLI commands.  The seed draws only the
power budget S (log-uniform) and one shape parameter per symbol family from
a small range; every dense size depends on alpha alone, so the cost of a
pass does not depend on the seed.  Each command writes a JSON report that
`check_report` validates.

Each workload has three command kinds, reported as the end-to-end metrics
`cmd1_s`, `cmd2_s` and `cmd3_s` (median latency of that kind).  KIND_NAMES
gives the name each kind is known by in the benchmark's documentation.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 0
S_RANGE = (0.25, 4.0)              # power budget, drawn log-uniform
W_RANGE = (0.9, 1.1)               # cosine_gauss band width w
TWO_TONE_C_STABILITY = (3.5, 4.5)  # keeps part of the spectrum above 1
TWO_TONE_C_CAPACITY = (0.8, 1.2)
WATERFILL_N = 2048                 # eigenvalues per waterfill command
WATERFILL_ALPHA = 128.0
CAPACITY_CALLS = 64                # per family
WATERFILL_CALLS = 128

SPLIT_TOL = 1e-12                  # error_total vs stability + calculus
POWER_REL_TOL = 1e-9
REFERENCE_REL_TOL = 1e-8
REFERENCE_ABS_FLOOR = 1e-12

KIND_NAMES = {
    "operator-sweep": ("sweep_s", "sweep_stationary_s", "check_stability_s"),
    "trace-diagnostics": ("check_product_s", "check_tracenorm_s", "check_hs_s"),
    "capacity-curve": ("capacity_cosine_gauss_p50_s", "capacity_two_tone_p50_s",
                       "waterfill_p50_s"),
}
WORKLOADS = tuple(KIND_NAMES)


@dataclass
class Command:
    kind: int                      # 0, 1 or 2: index into KIND_NAMES[workload]
    label: str                     # stable key for reference values
    argv: list[str]
    report_path: str
    expect: dict = field(default_factory=dict)   # inputs the checks need
    warm_argv: list[str] | None = None            # the command at small alphas


def _write_config(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def _config_command(workdir: str, kind: int, label: str, doc: dict,
                    expect: dict | None = None) -> Command:
    doc = {"schema_version": 1, **doc}
    report = os.path.join(workdir, label + ".report.json")
    doc["output"] = {"path": report, "format": "json"}
    argv = ["-c", _write_config(workdir, label, doc)]
    warm = argv
    if "alphas" in doc:
        warm = ["-c", _write_config(workdir, label + ".warm", {**doc, "alphas": [16, 32]})]
    return Command(kind, label, argv, report, expect or {}, warm)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _operator_sweep(rng: random.Random, workdir: str) -> list[Command]:
    alphas = [32, 64, 128]
    w = rng.uniform(*W_RANGE)
    c = rng.uniform(*TWO_TONE_C_STABILITY)
    return [
        _config_command(workdir, 0, "sweep-cosine_gauss", {
            "command": "sweep", "alphas": alphas,
            "symbol": {"family": "cosine_gauss", "params": {"w": w}},
            "power_S": _log_uniform(rng, *S_RANGE)}),
        _config_command(workdir, 1, "sweep-band_constant", {
            "command": "sweep", "alphas": alphas,
            "symbol": {"family": "band_constant", "params": {"c": 1.0, "W": 0.25}},
            "power_S": _log_uniform(rng, *S_RANGE)}, {"stationary": True}),
        _config_command(workdir, 2, "check-stability-two_tone", {
            "command": "check-stability", "alphas": alphas,
            "symbol": {"family": "two_tone", "params": {"c": c}},
            "eps_schedule": {"mode": "fixed", "eps": 0.1},
            "grid": {"padding_tol": 1e-6}}),
    ]


def _trace_diagnostics(rng: random.Random, workdir: str) -> list[Command]:
    def symbol():
        return {"family": "cosine_gauss", "params": {"w": rng.uniform(*W_RANGE)}}
    return [
        _config_command(workdir, 0, "check-product", {
            "command": "check-product", "alphas": [16, 32, 64], "symbol": symbol()}),
        _config_command(workdir, 1, "check-tracenorm", {
            "command": "check-tracenorm", "alphas": [16, 32, 64], "s": 0.5,
            "symbol": symbol()}),
        _config_command(workdir, 2, "check-hs", {
            "command": "check-hs", "alphas": [32, 64, 128], "symbol": symbol()}),
    ]


def _spectrum(rng: random.Random) -> list[float]:
    """A descending 2,048-entry spectrum in (0, 1]: a smooth profile with jitter."""
    nprng = np.random.default_rng(rng.getrandbits(64))
    u = np.sort(nprng.uniform(0.0, 1.0, WATERFILL_N))
    vals = np.exp(-4.0 * u ** 2) * (1.0 + 0.05 * nprng.standard_normal(WATERFILL_N))
    return [float(v) for v in np.sort(np.clip(vals, 1e-6, 1.0))[::-1]]


def _capacity_curve(rng: random.Random, workdir: str) -> list[Command]:
    families = [("cosine_gauss", {"w": rng.uniform(*W_RANGE)}),
                ("two_tone", {"c": rng.uniform(*TWO_TONE_C_CAPACITY)})]
    cmds = []
    for kind, (family, params) in enumerate(families):
        for i in range(CAPACITY_CALLS):
            S = _log_uniform(rng, *S_RANGE)
            cmds.append(_config_command(workdir, kind, f"capacity-{family}-{i:03d}", {
                "command": "capacity", "power_S": S,
                "symbol": {"family": family, "params": params}}, {"S": S}))
    for i in range(WATERFILL_CALLS):
        S = _log_uniform(rng, *S_RANGE)
        eigs = _spectrum(rng)
        cmd = _config_command(workdir, 2, f"waterfill-{i:03d}", {
            "command": "waterfill", "power_S": S, "alpha": WATERFILL_ALPHA},
            {"S": S, "eigs": eigs})
        cmd.argv += ["--eigs", ",".join(repr(v) for v in eigs)]
        cmd.warm_argv = cmd.argv
        cmds.append(cmd)
    # interleave the kinds so that drift in machine speed hits each alike
    order = sorted(range(len(cmds)), key=lambda k: (k % CAPACITY_CALLS, k))
    return [cmds[k] for k in order]


def build(workload: str, seed: int, workdir: str) -> list[Command]:
    """The workload's commands, with their configs written under workdir."""
    rng = random.Random(f"{workload}:{seed}")
    make = {"operator-sweep": _operator_sweep,
            "trace-diagnostics": _trace_diagnostics,
            "capacity-curve": _capacity_curve}[workload]
    return make(rng, workdir)


# --- report checks -----------------------------------------------------------

def _nonfinite(obj, path: str = "") -> list[str]:
    """Paths of numbers in obj that are NaN or infinite."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return []
    if isinstance(obj, (int, float)):
        return [] if math.isfinite(obj) else [path]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _nonfinite(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _nonfinite(v, f"{path}[{i}]")]
    return [f"{path} (unexpected {type(obj).__name__})"]


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _check_waterfill(summary: dict, expect: dict) -> list[str]:
    """Recompute the water level's power sum and the capacity in numpy."""
    lam = np.asarray(expect["eigs"], dtype=float)
    B = summary["B"]
    act = B * lam > 1.0
    power = float(np.sum(B - 1.0 / lam[act])) / WATERFILL_ALPHA
    rate = float(np.sum(np.log(B * lam[act]))) / WATERFILL_ALPHA
    errs = []
    if not _rel_close(power, expect["S"], POWER_REL_TOL):
        errs.append(f"KKT power sum {power!r} != S {expect['S']!r}")
    if not _rel_close(rate, summary["capacity_rate"], POWER_REL_TOL):
        errs.append(f"capacity {summary['capacity_rate']!r} != recomputed {rate!r}")
    if summary["active_count"] != int(np.count_nonzero(act)):
        errs.append(f"active_count {summary['active_count']} != {int(np.count_nonzero(act))}")
    return errs


def _check_records(report: dict, expect: dict) -> list[str]:
    errs = []
    recs = report["records"]
    for rec in recs:
        if "error" in rec["extra"]:
            errs.append(f"alpha={rec['alpha']}: {rec['extra']['error']}")
    if errs:
        return errs
    command = report["command"]
    if command == "sweep":
        for rec in recs:
            split = rec["error_stability"] + rec["error_calculus"]
            if abs(rec["error_total"] - split) > SPLIT_TOL:
                errs.append(f"alpha={rec['alpha']}: error_total {rec['error_total']!r} "
                            f"!= stability + calculus {split!r}")
            if expect.get("stationary") and rec["hermitian_defect"] != 0.0:
                errs.append(f"alpha={rec['alpha']}: hermitian_defect "
                            f"{rec['hermitian_defect']!r} != 0 on a stationary symbol")
        diff = {rec["alpha"]: rec["extra"]["capacity_abs_diff"] for rec in recs}
        if not diff[128] < diff[32]:
            errs.append(f"capacity_abs_diff at 128 ({diff[128]!r}) not below 32 ({diff[32]!r})")
    elif command == "check-hs":
        if report["summary"].get("hs_bound_ok_all") is not True:
            errs.append("hs_bound_ok_all is not true")
    elif command == "check-tracenorm":
        for rec in recs:
            i1, i2 = rec["tp_i1"], rec["tp_i2"]
            window = rec["alpha"] / rec["grid_meta"]["h_x"]
            if not (i2 <= i1 * (1 + 1e-12) and i1 <= math.sqrt(window) * i2 * (1 + 1e-12)):
                errs.append(f"alpha={rec['alpha']}: not tp_i2 <= tp_i1 <= "
                            f"sqrt(window) tp_i2 ({i2!r}, {i1!r}, window {window})")
    return errs


def check_report(report: dict, expect: dict) -> list[str]:
    """Problems found in one command's report (an empty list if it is correct)."""
    errs = [f"non-finite value at {p}" for p in _nonfinite(
        {k: report[k] for k in ("records", "fits", "summary")})]
    if errs:
        return errs
    command = report["command"]
    if command in ("capacity", "waterfill"):
        summary = report["summary"]
        if not _rel_close(summary["power_achieved"], expect["S"], POWER_REL_TOL):
            errs.append(f"power_achieved {summary['power_achieved']!r} != S {expect['S']!r}")
        if command == "waterfill":
            errs += _check_waterfill(summary, expect)
        return errs
    if not report["records"]:
        return ["report has no records"]
    return errs + _check_records(report, expect)


# --- reference values recorded on the seed commit ----------------------------

def reference_values(report: dict) -> dict[str, float]:
    """Numeric leaves of records, fits and summary, keyed by path.

    hermitian_defect is left out: it is an estimate that an exact method may
    replace.
    """
    out: dict[str, float] = {}

    def walk(obj, path):
        if "hermitian_defect" in path:
            return
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(v, f"{path}.{k}" if path else str(k))
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(v, f"{path}[{i}]")
        elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
            out[path] = float(obj)

    walk({k: report[k] for k in ("records", "fits", "summary")}, "")
    return out


def _roundoff_only(ref: dict[str, float]) -> set[str]:
    """Paths whose reference value is a ratio of roundoff-level residuals: the
    r2 of a fit whose residuals are below the absolute floor (for example a
    fit to a quantity that is constant in alpha), and the residual ratio of
    two such fits."""
    flat = {path.rsplit(".", 1)[0] for path in ref
            if path.startswith("fits.") and path.endswith(".rms_resid")
            and abs(ref[path]) <= REFERENCE_ABS_FLOOR}
    skip = {fit + ".r2" for fit in flat}
    if flat & {"fits.hs_cross_vs_alpha", "fits.hs_cross_vs_log_alpha"}:
        skip.add("summary.resid_ratio_linear_over_log")
    return skip


def compare_reference(values: dict[str, float], ref: dict[str, float]) -> list[str]:
    errs = []
    skip = _roundoff_only(ref)
    for path in sorted(set(ref) | set(values)):
        if path in skip:
            continue
        if path not in values or path not in ref:
            errs.append(f"{path}: present in only one of report and reference")
            continue
        a, b = values[path], ref[path]
        if abs(a - b) > max(REFERENCE_REL_TOL * max(abs(a), abs(b)), REFERENCE_ABS_FLOOR):
            errs.append(f"{path}: {a!r} differs from reference {b!r}")
    return errs
