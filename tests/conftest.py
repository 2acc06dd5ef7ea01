import contextlib
import dataclasses
import importlib.util
import io
import json
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest

import szegocap as sc
from szegocap import cli
from szegocap.families import sample_symbol
from szegocap.operators import (DiscreteOperator, _block_size, _fourier_blocks,
                                skew_norm)

# padding dominates this grid: n_x = 1664 points against a 128-point window,
# so the limit (22 MB) sits above check-hs's fixed-size envelope integral
# (12.8 MB traced) and below any n_x x n_x array of complex numbers
GUARD_ALPHA = 8
GUARD_GRID_KW = {"padding": 48.0}


@pytest.fixture
def grid_with_kw():
    """grid_with_kw(alpha, **kw): make_grid(alpha, **kw), except that an
    h_omega keyword sets the frequency step on the same omega_max, which
    make_grid always takes as 1/span."""
    def build(alpha, h_omega=None, **kw):
        grid = sc.make_grid(alpha, **kw)
        if h_omega is None:
            return grid
        return dataclasses.replace(grid, h_omega=h_omega,
                                   n_omega=2 * round(grid.omega_max / h_omega) + 1)

    return build


@pytest.fixture
def dense_allocation_guard():
    """Runs runner([GUARD_ALPHA], GUARD_GRID_KW) under tracemalloc and fails
    when the traced peak exceeds half of one complex n_x x n_x array
    (16 n_x^2 bytes), the size of a dense operator on the guard grid."""
    limit = 8 * sc.make_grid(GUARD_ALPHA, **GUARD_GRID_KW).n_x ** 2

    def run(runner):
        tracemalloc.start()
        try:
            report = runner([GUARD_ALPHA], GUARD_GRID_KW)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit, f"traced peak {peak / 1e6:.1f} MB > {limit / 1e6:.1f} MB"
        return report

    return run


@pytest.fixture
def exp_operator():
    """exp_operator(spec, s, grid): the block operator of tau = e^{i 2 pi s sigma},
    quantized as identity plus the quantization of tau - 1 (the L_tau of
    operators.product_deviations)."""
    def build(spec, s, grid):
        b = _block_size(spec, grid)
        tau = np.exp(2j * np.pi * s * sample_symbol(spec, grid, rows=slice(b)))
        blocks = _fourier_blocks(tau - 1.0, grid) + np.eye(b)
        return DiscreteOperator(blocks=blocks, grid=grid, hermitian_defect=skew_norm(blocks))

    return build


@pytest.fixture
def perfbench_workloads(monkeypatch):
    """perfbench/workloads.py, imported without writing bytecode, and the
    values that perfbench/reference_seed0.json records at seed 0."""
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  perfbench / "workloads.py")
    wl = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, wl)   # its dataclasses look it up
    spec.loader.exec_module(wl)
    return wl, json.loads((perfbench / "reference_seed0.json").read_text())


@pytest.fixture
def seed0_reference_errors(perfbench_workloads, tmp_path):
    """seed0_reference_errors(workload, prefix): runs the benchmark's seed-0
    commands of the workload whose label starts with prefix through cli.main,
    in process, and checks each report as the benchmark does (check_report,
    then compare_reference against the recorded values).  Returns the
    number of commands and the problems found."""
    wl, reference = perfbench_workloads

    def run(workload, prefix):
        cmds = [c for c in wl.build(workload, 0, str(tmp_path)) if c.label.startswith(prefix)]
        errs = []
        for cmd in cmds:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(list(cmd.argv)) == cli.EXIT_OK, cmd.label
            report = json.loads(pathlib.Path(cmd.report_path).read_text())
            errs += [f"{cmd.label}: {e}" for e in wl.check_report(report, cmd.expect)
                     + wl.compare_reference(wl.reference_values(report),
                                            reference[workload][cmd.label])]
        return len(cmds), errs

    return run
