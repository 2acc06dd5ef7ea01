import warnings
from typing import NamedTuple

import numpy as np
import pytest

import szegocap as sc
from szegocap.transforms import _phase_matrix, kernel_from_values

ALL_FAMILIES = ("band_constant", "cosine_gauss", "square_smooth", "two_tone")
TAIL_TOL = 1e-10


class TruncationWarning(UserWarning):
    """Kernel mass remains above the tail tolerance at the domain edge."""


class SymbolRecovery(NamedTuple):
    sigma: np.ndarray
    max_imag: float


def kernel_to_symbol(kernel, grid, tail_tol=TAIL_TOL) -> SymbolRecovery:
    """Recover sigma(x_i, omega_m) from an unweighted kernel matrix.

    Row-wise forward transform in z = x - y with weight h_x.  The imaginary
    residue is returned as a diagnostic; rows that have not decayed below
    tail_tol at the domain edge trigger a TruncationWarning.
    """
    kernel = np.asarray(kernel)
    if kernel.shape != (grid.n_x, grid.n_x):
        raise ValueError(f"kernel shape {kernel.shape} does not match grid n_x {grid.n_x}")
    # the discrete kernel is span-periodic in z = x - y, so rows "end" at |z| = span/2
    x = grid.x_points()
    z = np.abs(x[:, None] - x[None, :])
    edge_band = z >= grid.span / 2.0 - grid.h_x
    edge = float(np.abs(kernel[edge_band]).max()) if np.any(edge_band) else 0.0
    if edge > tail_tol:
        warnings.warn(TruncationWarning(
            f"kernel rows reach {edge:.3e} > tail_tol {tail_tol:.1e} at |z| ~ span/2; "
            "z-truncation may bias the recovered symbol"))
    phase = _phase_matrix(grid)
    # C[i, m] = h_x * sum_j k[i, j] e^{+i 2 pi omega_m (x_i - x_j)}
    C = grid.h_x * (kernel @ phase) * phase.conj()
    return SymbolRecovery(sigma=C.real.copy(), max_imag=float(np.abs(C.imag).max()))


def _kernel(spec, grid):
    return kernel_from_values(sc.sample_symbol(spec, grid), grid)


def _one_shot_kernel(values, grid):
    """The kernel as one product (weighted values * phase) @ conj(phase).T."""
    values = values * grid.omega_weights()
    phase = _phase_matrix(grid)
    left = values * phase
    del values
    return left @ np.conjugate(phase, out=phase).T


@pytest.mark.parametrize("alpha,grid_kw", [
    (2, {}), (8, {}), (24, {}),
    (5, {"h_x": 1 / 15, "omega_max": 7.0}),     # n_x 315: off-lattice, short last panel
    (40, {"h_x": 0.125, "omega_max": 4.0})], ids=str)
@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_kernel_panels_match_one_shot_product(name, alpha, grid_kw):
    grid = sc.make_grid(alpha, **grid_kw)
    values = sc.sample_symbol(sc.make_symbol(name), grid)
    assert np.array_equal(kernel_from_values(values, grid), _one_shot_kernel(values, grid))


def _quiet_recover(kernel, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return kernel_to_symbol(kernel, grid)


def test_band_kernel_diagonal_value():
    # z = 0 specialization: k(x, x) = int sigma(x, w) dw = 2 W c
    spec = sc.make_symbol("band_constant", c=1.0, W=0.5)
    grid = sc.make_grid(4)
    k = _kernel(spec, grid)
    assert np.abs(np.diag(k) - 1.0).max() < 1e-12


def test_band_kernel_sinc_profile(grid_with_kw):
    # closed-form Fourier integral of the box: c sin(2 pi W z) / (pi z)
    spec = sc.make_symbol("band_constant", c=1.0, W=0.25)
    grid = sc.make_grid(4)
    k = _kernel(spec, grid)
    x = grid.x_points()

    def sinc_band(z):
        return np.where(z == 0, 2 * 0.25, np.sin(2 * np.pi * 0.25 * z) / (np.pi * np.where(z == 0, 1, z)))

    i = grid.n_x // 2
    z = x[i] - x
    keep = np.abs(z) <= 4.0       # interior; periodization images are far
    err = np.abs(k[i, :] - sinc_band(z))[keep].max()
    assert err < 2e-2             # trapezoid O(h_omega^2) on the band

    # halving h_omega quarters the interior error (second-order quadrature)
    g2 = grid_with_kw(4, h_omega=0.5 / grid.span)
    k2 = _kernel(spec, g2)
    err2 = np.abs(k2[i, :] - sinc_band(z))[keep].max()
    assert err2 < 0.3 * err


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_roundtrip_symbol_kernel_symbol(name):
    spec = sc.make_symbol(name)
    grid = sc.make_grid(4)
    ref = sc.sample_symbol(spec, grid)
    rec = _quiet_recover(_kernel(spec, grid), grid)
    rel = np.linalg.norm(rec.sigma - ref) / np.linalg.norm(ref)
    assert rel <= 1e-8
    assert rec.max_imag <= 1e-8


def test_zero_kernel_gives_zero_symbol():
    grid = sc.make_grid(2)
    rec = kernel_to_symbol(np.zeros((grid.n_x, grid.n_x)), grid)
    assert np.all(rec.sigma == 0.0)
    assert rec.max_imag == 0.0


def test_cosine_gauss_gaussian_profile_recovered():
    spec = sc.make_symbol("cosine_gauss", w=1.0)
    grid = sc.make_grid(4)
    rec = _quiet_recover(_kernel(spec, grid), grid)
    x = grid.x_points()
    om = grid.omega_points()
    ref = 0.5 * (1 + np.cos(2 * np.pi * x[:, None])) * np.exp(-om[None, :] ** 2 / 2)
    rel = np.linalg.norm(rec.sigma - ref) / np.linalg.norm(ref)
    assert rel <= 1e-6


def test_envelope_check_band_passes_with_spec_envelope():
    c, W = 1.0, 0.25
    spec = sc.make_symbol("band_constant", c=c, W=W)

    def psi(z):
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore"):
            decay = 1.0 / np.maximum(2 * np.pi * W * np.abs(z), 1e-300) ** 2
        return (2 * W * c) ** 2 * np.minimum(1.0, decay) * 4.0

    assert sc.envelope_check(spec, psi, sc.make_grid(4)) >= 1.0


def test_envelope_check_zero_envelope_fails_at_diagonal():
    spec = sc.make_symbol("cosine_gauss")
    margin = sc.envelope_check(spec, lambda z: np.zeros_like(np.asarray(z, dtype=float)),
                               sc.make_grid(2))
    assert margin == 0.0


def test_envelope_scaling_doubles_margin():
    spec = sc.make_symbol("cosine_gauss")
    grid = sc.make_grid(2)
    psi = sc.default_envelope(spec, grid.omega_max)
    base = sc.envelope_check(spec, psi, grid)
    doubled = sc.envelope_check(spec, lambda z: 2.0 * psi(z), grid)
    assert base >= 1.0 and doubled >= 1.0
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)



def dense_worst_margin(spec, psi, grid):
    """Reference: min psi(z) / |k|^2 over every dense kernel entry with |z| <= span/2."""
    kernel = _kernel(spec, grid)
    x = grid.x_points()
    z = x[:, None] - x[None, :]
    k2 = np.abs(kernel) ** 2
    keep = (np.abs(z) <= grid.span / 2.0) & (k2 > 0)
    return float((psi(z[keep]) / k2[keep]).min())


@pytest.mark.parametrize("grid_kw", [{}, {"padding": 2.25}, {"h_omega": 0.5 / 18.0},
                                     {"omega_max": 4.0}, {"omega_max": 2.0}],
                         ids=["blocks", "m=1", "off-lattice", "omega_max=4", "omega_max=2"])
@pytest.mark.parametrize("alpha", [2, 8])
@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_envelope_check_margin_matches_dense_kernel(name, alpha, grid_kw, grid_with_kw):
    # the envelope's ringing floor is |sigma(., omega_max)| of the grid's own
    # band edge, so it holds on grids cut below the default omega_max = 8
    spec = sc.make_symbol(name)
    grid = grid_with_kw(alpha, **grid_kw)
    psi = sc.default_envelope(spec, grid.omega_max)
    margin = sc.envelope_check(spec, psi, grid)
    assert margin == pytest.approx(dense_worst_margin(spec, psi, grid), rel=1e-12)
    assert margin >= 1.0


@pytest.mark.parametrize("alpha, params", [(272, {}), (576, {"W": 0.25})])
def test_default_envelope_holds_pointwise_at_large_alpha(alpha, params):
    # check-hs exited 2 at these windows on a tail check that compared two
    # quadratures of the same psi; the pointwise bound held throughout
    spec = sc.make_symbol("band_constant", **params)
    grid = sc.make_grid(alpha)
    assert sc.envelope_check(spec, sc.default_envelope(spec, grid.omega_max), grid) >= 1.0
