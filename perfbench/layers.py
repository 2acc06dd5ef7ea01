"""The traced layers of szegocap: which functions are wrapped, the counters
computed from their arguments and results, and which end-to-end metric each
layer metric is expected to move.

Layers are the package modules.  `grid` is too cheap to trace.  Every span
reports `<span>.calls` and `<span>.self_s`.  Counters are computed from array
sizes, not measured.
"""

from __future__ import annotations

import os

from tracer import Target


def _window_or_full(args, kwargs) -> str:
    want_basis = kwargs.get("want_basis", args[1] if len(args) > 1 else True)
    return "spectral.eigh_full" if want_basis else "spectral.eigvalsh_window"


def _count_kernel(tracer, args, kwargs, result) -> None:
    values, grid = args[0], args[1]
    tracer.add("transforms.kernel_from_values.gflop",
               8.0 * values.shape[0] ** 2 * grid.n_omega / 1e9)


def _count_quantize(tracer, args, kwargs, result) -> None:
    tracer.add("operators.quantize.matrix_mb", result.matrix.nbytes / 1e6)


def _count_eigh(tracer, args, kwargs, result) -> None:
    matrix = args[0] if args else kwargs["matrix"]
    tracer.add(_window_or_full(args, kwargs) + ".n_sum", matrix.shape[0])


def _count_report(tracer, args, kwargs, result) -> None:
    tracer.add("reports.bytes", sum(os.path.getsize(p) for p in result))


def _count_records(tracer, args, kwargs, result) -> None:
    recs = result.records
    tracer.add("harness.record_errors", sum("error" in r.extra for r in recs))
    if result.command == "sweep":
        # each window eigenvalue is one the water-fill may use; count the active ones
        for r in recs:
            if "active_count" in r.extra:
                tracer.add("sweep.active_eigs", r.extra["active_count"])
                tracer.add("sweep.window_eigs", round(r.alpha / r.grid_meta["h_x"]))


def _harness(name: str) -> Target:
    return Target("szegocap.harness", name, "harness", count=_count_records)


TARGETS = (
    Target("szegocap.cli", "main", "cli.main"),
    Target("szegocap.cli", "parse_config", "cli.parse_config"),
    _harness("run_convergence_sweep"),
    _harness("run_stability_check"),
    _harness("run_hs_boundary_check"),
    _harness("run_symbol_calculus_check"),
    _harness("run_trace_norm_scaling"),
    Target("szegocap.operators", "quantize", "operators.quantize", count=_count_quantize),
    Target("szegocap.operators", "hermitian_defect_estimate",
           "operators.hermitian_defect_estimate"),
    Target("szegocap.operators", "hermitize", "operators.hermitize"),
    Target("szegocap.transforms", "kernel_from_values", "transforms.kernel_from_values",
           count=_count_kernel),
    Target("szegocap.transforms", "kernel_row_time_invariant",
           "transforms.kernel_row_time_invariant"),
    Target("szegocap.transforms", "two_symbol_kernel", "transforms.two_symbol_kernel"),
    Target("szegocap.transforms", "envelope_check", "transforms.envelope_check"),
    Target("szegocap.spectral", "eigh_matrix", "spectral.eigh_matrix",
           chooser=_window_or_full, count=_count_eigh),
    # the harness calls numpy's SVD for Schatten-1 norms; traced under spectral
    Target("numpy.linalg", "svd", "spectral.svd"),
    Target("szegocap.families", "sample_symbol", "families.sample_symbol"),
    Target("szegocap.families", "eval_symbol", "families.eval_symbol"),
    Target("szegocap.waterfill", "waterfill_symbol", "waterfill.waterfill_symbol"),
    Target("szegocap.waterfill", "waterfill_discrete", "waterfill.waterfill_discrete"),
    Target("szegocap.waterfill", "sup_abs_second_derivative",
           "waterfill.sup_abs_second_derivative"),
    Target("szegocap.reports", "write_report_files", "reports.write_report_files",
           count=_count_report),
)

# span -> the end-to-end metrics (by workload) it is expected to move, read off
# the per-command traced counts at seed 0 (perfbench/BASELINE.md, "Per layer,
# by command").  "small" marks a command where the span takes under 5% of its
# latency.  On any command not named, the span makes no call.
SPAN_MOVES = {
    "cli.main": "run_s on every workload (root span of each command)",
    "cli.parse_config": "capacity-curve cmd3_s (waterfill_p50_s); small elsewhere",
    "harness": "trace-diagnostics cmd1_s (check_product_s): run_* self time, including "
               "the inline products of check-product; also trace-diagnostics cmd2_s and "
               "operator-sweep cmd2_s; small on the other dense commands",
    "operators.quantize": "trace-diagnostics cmd1_s (21 calls: 7 per alpha); small on "
                          "operator-sweep cmd1_s-cmd3_s and trace-diagnostics cmd3_s",
    "transforms.kernel_from_values": "operator-sweep cmd1_s, cmd3_s; trace-diagnostics "
                                     "cmd1_s (21 of its 25 calls), cmd3_s",
    "transforms.kernel_row_time_invariant": "operator-sweep cmd2_s (sweep_stationary_s) only",
    "operators.hermitian_defect_estimate": "operator-sweep cmd1_s-cmd3_s; trace-diagnostics "
                                           "cmd1_s (7 quantizes per alpha), cmd3_s",
    "operators.hermitize": "operator-sweep cmd1_s-cmd3_s",
    "spectral.eigvalsh_window": "operator-sweep cmd1_s-cmd3_s; zero elsewhere",
    "spectral.eigh_full": "operator-sweep cmd1_s-cmd3_s; zero elsewhere",
    "spectral.svd": "trace-diagnostics cmd1_s, cmd2_s only",
    "transforms.two_symbol_kernel": "trace-diagnostics cmd2_s (check_tracenorm_s)",
    "transforms.envelope_check": "trace-diagnostics cmd3_s (check_hs_s)",
    "families.sample_symbol": "small on operator-sweep cmd1_s-cmd3_s and trace-diagnostics "
                              "cmd1_s-cmd3_s; zero on capacity-curve",
    "families.eval_symbol": "small on capacity-curve cmd1_s, cmd2_s and on every "
                            "operator-sweep and trace-diagnostics command",
    "waterfill.waterfill_symbol": "capacity-curve cmd1_s, cmd2_s (most of their latency); "
                                  "small on operator-sweep cmd1_s",
    "waterfill.waterfill_discrete": "capacity-curve cmd3_s (waterfill_p50_s); small on "
                                    "operator-sweep cmd1_s, cmd2_s",
    "waterfill.sup_abs_second_derivative": "operator-sweep cmd3_s (check_stability_s)",
    "reports.write_report_files": "run_s on every workload; capacity-curve cmd3_s; "
                                  "small elsewhere",
}

SPANS = tuple(SPAN_MOVES)

COUNTERS = (
    ("transforms.kernel_from_values.gflop", "Gflop", "lower"),
    ("operators.quantize.matrix_mb", "MB", "lower"),
    ("spectral.eigvalsh_window.n_sum", "count", "lower"),
    ("spectral.eigh_full.n_sum", "count", "lower"),
    ("reports.bytes", "bytes", "lower"),
    ("harness.record_errors", "count", "lower"),
)


def per_layer_metrics(tracer, untraced_run_s: float, traced_run_s: float) -> dict:
    """Every per-layer metric, by name, as {"value", "unit"}."""
    times = tracer.self_times()
    out = {}
    for span in SPANS:
        calls, self_s = times.get(span, (0, 0.0))
        out[f"{span}.calls"] = {"value": calls, "unit": "count"}
        out[f"{span}.self_s"] = {"value": self_s, "unit": "s"}
    for name, unit, _ in COUNTERS:
        out[name] = {"value": tracer.counters.get(name, 0.0), "unit": unit}
    window = tracer.counters.get("sweep.window_eigs", 0.0)
    out["spectral.eig_useful_ratio"] = {
        "value": tracer.counters.get("sweep.active_eigs", 0.0) / window if window else 0.0,
        "unit": "ratio"}
    out["trace_overhead_ratio"] = {"value": traced_run_s / untraced_run_s, "unit": "ratio"}
    out["trace.absent_spans"] = {"value": len(tracer.absent), "unit": "count"}
    return out


def per_layer_spec() -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in the order reported."""
    spec = []
    for span in SPANS:
        spec.append({"name": f"{span}.calls", "unit": "count", "better": "lower"})
        spec.append({"name": f"{span}.self_s", "unit": "s", "better": "lower"})
    spec += [{"name": n, "unit": u, "better": b} for n, u, b in COUNTERS]
    spec += [{"name": "spectral.eig_useful_ratio", "unit": "ratio", "better": "higher"},
             {"name": "trace_overhead_ratio", "unit": "ratio", "better": "lower"},
             {"name": "trace.absent_spans", "unit": "count", "better": "lower"}]
    return spec
