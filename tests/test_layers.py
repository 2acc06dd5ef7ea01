"""The benchmark's traced spans (perfbench/layers.py) name functions that exist.

A traced name that no longer resolves is only counted by the benchmark, as
`trace.absent_spans`; this test makes a moved or renamed function fail here
instead.  layers.py is imported without writing bytecode next to it.
"""

import importlib
import importlib.util
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# traced names of functions the package no longer has, absent since before
# this test; the benchmark counts them in trace.absent_spans
LEGACY_ABSENT = {"hermitian_defect_estimate", "kernel_row_time_invariant", "two_symbol_kernel"}


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))       # layers.py imports tracer
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    unresolved = {t.attr for t in layers.TARGETS
                  if not hasattr(importlib.import_module(t.module), t.attr)}
    assert unresolved <= LEGACY_ABSENT, f"untraceable: {sorted(unresolved - LEGACY_ABSENT)}"
