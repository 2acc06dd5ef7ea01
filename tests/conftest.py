import tracemalloc

import numpy as np
import pytest

import szegocap as sc
from szegocap.families import sample_symbol
from szegocap.operators import (DiscreteOperator, _block_size, _fourier_blocks,
                                skew_norm)

# padding dominates this grid: n_x = 1664 points against a 128-point window,
# so the limit (22 MB) sits above check-hs's fixed-size envelope scans
# (12.8 MB traced) and below any n_x x n_x array of complex numbers
GUARD_ALPHA = 8
GUARD_GRID_KW = {"padding": 48.0}


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
