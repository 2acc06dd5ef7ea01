import tracemalloc

import pytest

import szegocap as sc

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
