import math

import numpy as np
import pytest

import szegocap as sc
from szegocap.errors import AliasingError, DomainError, GridMismatchError
from szegocap.families import default_envelope, sample_symbol
from szegocap.operators import SymbolFunctionSpec, order_differences
from szegocap.spectral import eigh_matrix, window_trace
from szegocap.transforms import _phase_matrix, kernel_from_values

ALL_FAMILIES = ("band_constant", "cosine_gauss", "square_smooth", "two_tone")
MAPS = ("identity", "exp_i2pi_s", "product_sigma_exp")
S_PHASE = 0.3

# grid id -> (make_grid keywords at alpha=2, block count of a 1-periodic symbol)
ORACLE_GRIDS = {
    "default": ({}, 18),
    "h_x=1/8": ({"h_x": 1.0 / 8.0, "omega_max": 4.0}, 18),
    "h_x=1/32": ({"h_x": 1.0 / 32.0}, 18),
    "padding=2.5": ({"padding": 2.5}, 7),          # span 7: whole periods fit
    "padding=2.25": ({"padding": 2.25}, 1),        # span 6.5: no shift symmetry
    "h_omega=0.5/span": ({"h_omega": 0.5 / 18.0}, 1),
}


def _sfs(name, pointwise_map):
    spec = sc.make_symbol(name)
    s = None if pointwise_map == "identity" else S_PHASE
    return SymbolFunctionSpec(spec, pointwise_map, s=s)


def dense_quadrature(sfs, grid):
    """Reference: the dense Nystrom matrix h_x * k(x_i, x_j) (+ identity),
    assembled by frequency quadrature over every grid row."""
    sigma = sample_symbol(sfs.base, grid)
    if sfs.pointwise_map == "identity":
        return grid.h_x * kernel_from_values(sigma, grid)
    phase = np.exp(2j * np.pi * sfs.s * sigma)
    if sfs.pointwise_map == "exp_i2pi_s":
        return grid.h_x * kernel_from_values(phase - 1.0, grid) + np.eye(grid.n_x)
    return grid.h_x * kernel_from_values(sigma * phase, grid)


def two_symbol_kernel(row_values, col_values, grid):
    """Mixed kernel K[i, j] = sum_m w_m row[i, m] col[j, m] e^{-i 2 pi omega_m (x_i - x_j)}.

    With col = 1 this is the plain (row-symbol) quadrature kernel; with row = 1
    it is the column-symbol kernel of an adjoint-style quantization.
    """
    phase = _phase_matrix(grid)
    return ((row_values * grid.omega_weights()) * phase) @ (col_values * phase.conj()).T


def dense_order_differences(spec, s, grid):
    """Reference: the dense T and T' of operators.order_differences."""
    sigma = sample_symbol(spec, grid)
    tau = np.exp(2j * np.pi * s * sigma)
    ones = np.ones_like(sigma)
    return (grid.h_x * (two_symbol_kernel(ones, tau, grid) - two_symbol_kernel(tau, ones, grid)),
            grid.h_x * (two_symbol_kernel(sigma, tau, grid)
                        - two_symbol_kernel(sigma * tau, ones, grid)))


def test_two_symbol_kernel_reduces_to_plain_kernel():
    grid = sc.make_grid(2)
    vals = sample_symbol(sc.make_symbol("cosine_gauss"), grid)
    plain = kernel_from_values(vals, grid)
    assert np.abs(plain - two_symbol_kernel(vals, np.ones_like(vals), grid)).max() < 1e-12


def test_quantize_band_diagonal():
    spec = sc.make_symbol("band_constant", c=1.0, W=0.5)
    grid = sc.make_grid(4)
    op = sc.quantize(spec, grid)
    assert np.abs(np.diag(op.matrix) - grid.h_x).max() < 1e-14


def test_time_invariant_fast_path_matches_generic_quadrature():
    spec = sc.make_symbol("band_constant", c=1.0, W=0.25)
    grid = sc.make_grid(4)
    op = sc.quantize(spec, grid)
    generic = grid.h_x * kernel_from_values(sc.sample_symbol(spec, grid), grid)
    assert np.abs(op.matrix - generic).max() < 1e-12
    # Toeplitz structure: entries depend on i - j only
    m = op.matrix
    for off in (1, 5, 17):
        d = np.diagonal(m, offset=off)
        assert np.abs(d - d[0]).max() < 1e-12


def test_quantize_aliasing_guard():
    spec = sc.make_symbol("band_constant")
    grid = sc.make_grid(4, h_x=0.25, omega_max=8.0)
    with pytest.raises(AliasingError):
        sc.quantize(spec, grid)


def test_compose_with_identity():
    spec = sc.make_symbol("cosine_gauss")
    grid = sc.make_grid(2)
    op = sc.quantize(spec, grid)
    ident = sc.quantize(SymbolFunctionSpec(spec, "exp_i2pi_s", s=0.0), grid)
    assert np.array_equal(ident.matrix, np.eye(grid.n_x))
    assert np.abs(sc.compose(op, ident).matrix - op.matrix).max() == 0.0


def test_compose_grid_mismatch():
    spec = sc.make_symbol("cosine_gauss")
    a = sc.quantize(spec, sc.make_grid(2))
    b = sc.quantize(spec, sc.make_grid(4))
    with pytest.raises(GridMismatchError):
        sc.compose(a, b)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["alpha", "h_x", "omega_max", "padding", "h_omega"])
def test_non_finite_grid_arguments_raise_domain_error(name, value):
    # these used to escape as a bare ValueError (NaN) or OverflowError (inf)
    with pytest.raises(DomainError, match=name):
        sc.make_grid(**{"alpha": 2.0, name: value})


def test_hermitize_fixed_point_and_defect():
    grid = sc.make_grid(2)
    h = sc.hermitize(sc.quantize(sc.make_symbol("cosine_gauss"), grid))
    assert np.array_equal(sc.hermitize(h).blocks, h.blocks)
    assert h.hermitian_defect == 0.0

    op = sc.quantize(sc.make_symbol("band_constant", c=1.0, W=0.25), grid)
    assert op.hermitian_defect <= 1e-10      # real symmetric Toeplitz
    herm = sc.hermitize(sc.quantize(sc.make_symbol("cosine_gauss"), grid)).matrix
    assert np.linalg.norm(0.5 * (herm - herm.conj().T), 2) <= 1e-13


def envelope_sqrt_l1_norm(env, z_lo, z_hi, n=400001):
    """Trapezoidal L1 norm of sqrt(psi) over the truncated window [z_lo, z_hi]."""
    z = np.linspace(z_lo, z_hi, n)
    return float(np.trapezoid(np.sqrt(env.psi(z)), z))


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_operator_norm_bounded_by_sqrt_envelope_l1(name):
    spec = sc.make_symbol(name)
    grid = sc.make_grid(4)
    op = sc.quantize(spec, grid)
    norm = np.linalg.norm(op.matrix, 2)
    env = default_envelope(spec)
    bound = envelope_sqrt_l1_norm(env, -grid.span, grid.span)
    assert norm <= bound + 1e-6


def test_window_block_is_the_window_submatrix():
    grid = sc.make_grid(2)
    op = sc.quantize(sc.make_symbol("cosine_gauss"), grid)
    mask = grid.window_mask()
    assert np.array_equal(sc.window_block(op), op.matrix[np.ix_(mask, mask)])


def test_nystrom_self_convergence():
    # doubling the grid density: eigenvalue drift is second order.  At the
    # default density the drift relative to each eigenvalue reaches a few
    # percent on the smallest retained eigenvalues (measured: order ~2.0,
    # worst 8% at alpha=4), while staying below 1% of the spectral scale.
    def restricted_eigs(name, h_x):
        spec = sc.make_symbol(name)
        grid = sc.make_grid(4, h_x=h_x)
        herm = sc.hermitize(sc.quantize(spec, grid))
        vals, _ = eigh_matrix(sc.window_block(herm), want_basis=False)
        return vals

    for name, rel_cap in (("band_constant", 0.01), ("cosine_gauss", 0.10)):
        l1 = restricted_eigs(name, 1.0 / 16.0)
        l2 = restricted_eigs(name, 1.0 / 32.0)
        sel = l1 > 1e-3
        drift = np.abs(l1[sel] - l2[: len(l1)][sel])
        assert (drift / l1[sel]).max() <= rel_cap
        assert drift.max() <= 0.01 * l1[0]


def test_adjoint_is_conjugate_transpose():
    op = sc.quantize(sc.make_symbol("cosine_gauss"), sc.make_grid(2))
    assert np.array_equal(sc.adjoint(op).matrix, op.matrix.conj().T)


@pytest.mark.parametrize("alpha", [2, 8])
@pytest.mark.parametrize("pointwise_map", MAPS)
@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_hermitian_defect_is_exact_operator_norm(name, pointwise_map, alpha):
    grid = sc.make_grid(alpha)
    sfs = _sfs(name, pointwise_map)
    dense = dense_quadrature(sfs, grid)
    exact = np.linalg.norm(0.5 * (dense - dense.conj().T), 2)
    # abs floor: a real time-invariant kernel has a defect of pure roundoff
    assert sc.quantize(sfs, grid).hermitian_defect == pytest.approx(exact, rel=1e-10,
                                                                     abs=1e-14)


@pytest.mark.parametrize("grid_id", ORACLE_GRIDS)
@pytest.mark.parametrize("pointwise_map", MAPS)
@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_block_quantize_matches_dense_quadrature(name, pointwise_map, grid_id):
    kwargs, periodic_blocks = ORACLE_GRIDS[grid_id]
    grid = sc.make_grid(2, **kwargs)
    sfs = _sfs(name, pointwise_map)
    op = sc.quantize(sfs, grid)
    lattice = grid_id != "h_omega=0.5/span"
    expect_m = (grid.n_x if lattice else 1) if name == "band_constant" else periodic_blocks
    assert op.blocks.shape[0] == expect_m
    assert np.abs(op.matrix - dense_quadrature(sfs, grid)).max() <= 1e-12


@pytest.mark.parametrize("grid_id", ["default", "padding=2.25"])
@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_block_algebra_matches_dense(name, grid_id):
    grid = sc.make_grid(2, **ORACLE_GRIDS[grid_id][0])
    a_sfs, b_sfs = _sfs(name, "identity"), _sfs(name, "exp_i2pi_s")
    a, b = sc.quantize(a_sfs, grid), sc.quantize(b_sfs, grid)
    da, db = dense_quadrature(a_sfs, grid), dense_quadrature(b_sfs, grid)
    mask = grid.window_mask()

    assert np.abs(sc.window_block(a) - da[np.ix_(mask, mask)]).max() <= 1e-12
    assert np.abs(sc.adjoint(b).matrix - db.conj().T).max() <= 1e-12
    prod, dense_prod = sc.compose(a, b), da @ db
    assert np.abs(prod.matrix - dense_prod).max() <= 1e-12
    exact = np.linalg.norm(0.5 * (dense_prod - dense_prod.conj().T), 2)
    assert prod.hermitian_defect == pytest.approx(exact, rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("grid_id", ["default", "padding=2.5", "padding=2.25"])
@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_block_window_trace_matches_dense_eigh(name, grid_id):
    grid = sc.make_grid(4, **ORACLE_GRIDS[grid_id][0])
    sfs = _sfs(name, "identity")
    herm = sc.hermitize(sc.quantize(sfs, grid))
    dense = dense_quadrature(sfs, grid)
    lam, basis = eigh_matrix(0.5 * (dense + dense.conj().T))
    weights = (np.abs(basis[grid.window_mask(), :]) ** 2).sum(axis=0)
    for f in (lambda x: x ** 2, lambda x: sc.rate_log(6.0 * x)):
        expect = float(np.sum(f(lam) * weights))
        assert window_trace(herm, f) == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("grid_id", ORACLE_GRIDS)
@pytest.mark.parametrize("name", ("cosine_gauss", "square_smooth", "two_tone"))
def test_order_differences_match_two_symbol_kernel(name, grid_id):
    grid = sc.make_grid(2, **ORACLE_GRIDS[grid_id][0])
    spec = sc.make_symbol(name)
    for blocks, dense in zip(order_differences(spec, 0.5, grid),
                             dense_order_differences(spec, 0.5, grid)):
        assert blocks.shape[0] == ORACLE_GRIDS[grid_id][1]
        assert np.abs(sc.operators.assemble(blocks) - dense).max() <= 1e-12


@pytest.mark.parametrize("alpha", [2, 8, 32])
def test_band_constant_defect_is_exactly_zero(alpha):
    # one-by-one blocks of a real symbol are real by construction
    op = sc.quantize(sc.make_symbol("band_constant", c=1.0, W=0.25), sc.make_grid(alpha))
    assert op.blocks.shape[1:] == (1, 1)
    assert op.hermitian_defect == 0.0
