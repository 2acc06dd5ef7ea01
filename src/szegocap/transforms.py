"""Dense symbol -> kernel quadrature, and the kernel envelope check.

Sign convention, fixed package-wide: symbol -> kernel integrates
e^{-i 2 pi omega z} sigma(x, omega) d omega at z = x - y.  The dense
quadrature serves the stability check, whose spectral interval feeds a
finite-difference sup of f'' (see harness.run_stability_check).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import KernelEnvelope, SymbolSpec
from .grid import Grid
from .operators import assemble, quantize


def _phase_matrix(grid: Grid) -> np.ndarray:
    # phase[i, m] = e^{-i 2 pi omega_m x_i}
    phase = -2j * np.pi * np.outer(grid.x_points(), grid.omega_points())
    return np.exp(phase, out=phase)


def kernel_from_values(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Quadrature kernel k[i, j] = sum_m w_m values[i, m] e^{-i 2 pi omega_m (x_i - x_j)}.

    `values` holds the (possibly pointwise-mapped) symbol samples on the
    (x, omega) tensor grid.  The result is the unweighted kernel; quantization
    multiplies by h_x.  At most the product's two complex operands and its
    result are alive at once: values is dropped once weighted, unless the
    caller holds it, and the phase is conjugated in place.
    """
    values = values * grid.omega_weights()
    phase = _phase_matrix(grid)
    left = values * phase
    del values
    return left @ np.conjugate(phase, out=phase).T


@dataclass
class EnvelopeReport:
    """Result of checking |k(x, x-z)|^2 <= psi(z) and the psi tail bound."""
    passed: bool
    pointwise_ok: bool
    tail_ok: bool
    worst_margin: float                        # min psi / |k|^2 over checked samples
    tail_results: list[tuple[float, float, float]]  # (s, tail beyond s, c / s)


def envelope_check(spec: SymbolSpec, env: KernelEnvelope, grid: Grid) -> EnvelopeReport:
    """Verify the kernel envelope pointwise on the grid and its tail constant.

    Pointwise samples are restricted to |z| <= span/2: beyond that the
    discrete kernel is dominated by its span-periodization image rather than
    the continuum profile the envelope describes.  Every distinct kernel
    value lies in the first b rows; with m > 1 blocks the kernel is
    span-periodic in z, which is wrapped into [-span/2, span/2] (psi must be
    even).  The tail bound is checked at 12 log-spaced s from
    max(4 h_x, 1/4) to span/2.  A failure is reported, not raised.
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
    psi_z = env.psi(z)

    # psi / |k|^2 may overflow to inf, which passes as it should
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(k2 > 0, psi_z / np.maximum(k2, 1e-300), np.inf)
    ratio = np.where(keep, ratio, np.inf)
    worst = float(ratio.min())
    pointwise_ok = worst >= 1.0

    # trapezoid on [0, 8 span]: step 1/1024 up to z = 8, then a geometric grid
    # of ratio 1 + 1/8192 that continues it; the step at each z, and so the
    # error against the 1e-9 slack, does not depend on the span
    z_max = 8.0 * grid.span
    z_head = min(8.0, z_max)
    zq = np.concatenate([
        np.linspace(0.0, z_head, int(np.ceil(1024 * z_head)) + 1),
        np.geomspace(z_head, z_max, int(np.ceil(8192 * np.log(z_max / z_head))) + 1)[1:]])
    psi_q = env.psi(zq)
    seg = 0.5 * (psi_q[1:] + psi_q[:-1]) * np.diff(zq)
    tail_cum = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    tail_results = []
    tail_ok = True
    for s in np.logspace(np.log10(max(4 * grid.h_x, 0.25)), np.log10(grid.span / 2.0), 12):
        tail = 2.0 * float(np.interp(s, zq, tail_cum))
        bound = env.tail_constant / s
        tail_results.append((float(s), tail, bound))
        if tail > bound * (1.0 + 1e-9):
            tail_ok = False

    return EnvelopeReport(passed=pointwise_ok and tail_ok,
                          pointwise_ok=pointwise_ok, tail_ok=tail_ok,
                          worst_margin=worst, tail_results=tail_results)
