"""Dense symbol -> kernel quadrature, and the kernel envelope check.

Sign convention, fixed package-wide: symbol -> kernel integrates
e^{-i 2 pi omega z} sigma(x, omega) d omega at z = x - y.  The dense
quadrature serves the stability check, whose spectral interval feeds a
finite-difference sup of f'' (see harness.run_stability_check).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .families import SymbolSpec
from .grid import Grid
from .operators import assemble, quantize


# row panels of kernel_from_values's product: each holds a sixteenth of the
# left operand, and each repacks the whole right operand in BLAS
_PANELS = 16


def _phase_matrix(grid: Grid) -> np.ndarray:
    # phase[i, m] = e^{-i 2 pi omega_m x_i}
    phase = -2j * np.pi * np.outer(grid.x_points(), grid.omega_points())
    return np.exp(phase, out=phase)


def kernel_from_values(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Quadrature kernel k[i, j] = sum_m w_m values[i, m] e^{-i 2 pi omega_m (x_i - x_j)}.

    `values` holds the (possibly pointwise-mapped) symbol samples on the
    (x, omega) tensor grid.  The result is the unweighted kernel; quantization
    multiplies by h_x.  The product left @ conj(phase).T runs in _PANELS row
    panels, each panel's left = phase * weighted values in a panel-sized
    temporary, so besides the caller's samples only the conjugated phase and
    the result are whole arrays.  Every element sees the same IEEE operations
    and zgemm k-order as one product, so the kernel keeps its bits.
    """
    w = grid.omega_weights()
    cphase = _phase_matrix(grid)
    np.conjugate(cphase, out=cphase)
    n = cphase.shape[0]
    kernel = np.empty((n, n), dtype=complex)
    step = -(-n // _PANELS)
    for r in range(0, n, step):
        rows = slice(r, r + step)
        left = np.conjugate(cphase[rows])
        left *= values[rows] * w
        np.matmul(left, cphase.T, out=kernel[rows])
    return kernel


def envelope_check(spec: SymbolSpec, psi: Callable[[np.ndarray], np.ndarray],
                   grid: Grid) -> float:
    """Worst margin min psi(z) / |k(x, x-z)|^2 of the kernel envelope psi over
    the grid's kernel: psi bounds the kernel where the margin is >= 1.

    Samples are restricted to |z| <= span/2: beyond that the discrete kernel
    is dominated by its span-periodization image rather than the continuum
    profile the envelope describes.  Every distinct kernel value lies in the
    first b rows; with m > 1 blocks the kernel is span-periodic in z, which
    is wrapped into [-span/2, span/2] (psi must be even).
    """
    op = quantize(spec, grid)
    b = op.blocks.shape[1]
    kernel = assemble(op.blocks, rows=slice(b)) / grid.h_x
    x = grid.x_points()
    z = x[:b, None] - x[None, :]
    if b < grid.n_x:
        z -= grid.span * np.round(z / grid.span)
    keep = np.abs(z) <= grid.span / 2.0
    k2 = np.abs(kernel) ** 2
    psi_z = psi(z)

    # psi / |k|^2 may overflow to inf, which passes as it should
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(k2 > 0, psi_z / np.maximum(k2, 1e-300), np.inf)
    return float(np.where(keep, ratio, np.inf).min())
