import math
import tracemalloc

import numpy as np
import pytest

import szegocap as sc
from szegocap.errors import AliasingError, DomainError
from szegocap.families import default_envelope, sample_symbol
from szegocap.operators import (_conj_t, assemble, order_differences, product_deviations,
                                skew_norm)
from szegocap.spectral import eigh_matrix, window_trace
from szegocap.transforms import _phase_matrix, kernel_from_values

ALL_FAMILIES = ("band_constant", "cosine_gauss", "square_smooth", "two_tone")
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


def dense_quadrature(spec, grid, values=None):
    """Reference: the dense Nystrom matrix h_x * k(x_i, x_j) of sigma (or of
    the samples `values`), assembled by frequency quadrature over every row."""
    if values is None:
        values = sample_symbol(spec, grid)
    return grid.h_x * kernel_from_values(values, grid)


def dense_exp(spec, s, grid):
    """Reference: identity plus the dense quantization of tau - 1, tau = e^{i 2 pi s sigma}."""
    tau = np.exp(2j * np.pi * s * sample_symbol(spec, grid))
    return dense_quadrature(spec, grid, tau - 1.0) + np.eye(grid.n_x)


def dense_product_deviation(spec, s, grid):
    """Reference: the dense L_sigma L_tau - L_{sigma tau} of operators.product_deviations."""
    sigma = sample_symbol(spec, grid)
    tau = np.exp(2j * np.pi * s * sigma)
    return dense_quadrature(spec, grid) @ dense_exp(spec, s, grid) \
        - dense_quadrature(spec, grid, sigma * tau)


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


def test_compose_with_identity(exp_operator):
    spec = sc.make_symbol("cosine_gauss")
    grid = sc.make_grid(2)
    op = sc.quantize(spec, grid)
    ident = exp_operator(spec, 0.0, grid)
    assert np.array_equal(ident.matrix, np.eye(grid.n_x))
    assert np.abs(assemble(op.blocks @ ident.blocks) - op.matrix).max() == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["alpha", "h_x", "omega_max", "padding", "h_omega"])
def test_non_finite_grid_arguments_raise_domain_error(name, value):
    # these used to escape as a bare ValueError (NaN) or OverflowError (inf)
    with pytest.raises(DomainError, match=name):
        sc.make_grid(**{"alpha": 2.0, name: value})


def test_off_lattice_band_edge_raises_domain_error():
    # omega_max / h_omega = 576.0000000144: a tolerance of 1e-9 * omega_max
    # accepted it, and quantize then gave one dense 2304 x 2304 block
    with pytest.raises(DomainError, match="omega_max"):
        sc.make_grid(128, omega_max=4.0000000001)


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
    env = default_envelope(spec, grid.omega_max)
    bound = envelope_sqrt_l1_norm(env, -grid.span, grid.span)
    assert norm <= bound + 1e-6


def _index_formula(blocks):
    """Reference: the dense A[u b + r, v b + s] = C_{(u - v) mod m}[r, s] with
    the first block column C = ifft(blocks), entry by entry from an index
    array."""
    m, b, _ = blocks.shape
    col = np.fft.ifft(blocks, axis=0)
    i = np.arange(m * b)
    return col[(i[:, None] // b - i[None, :] // b) % m, (i % b)[:, None], i % b]


def _assemble_cases():
    rng = np.random.default_rng(0)
    for name, kw, shape in (("cosine_gauss", {}, "m=18"),
                            ("cosine_gauss", {"padding": 8.5}, "m=19"),
                            ("band_constant", {}, "b=1"),
                            ("two_tone", {"padding": 2.25}, "m=1")):
        grid = sc.make_grid(2, **kw)
        yield pytest.param(sc.quantize(sc.make_symbol(name), grid).blocks, False,
                           id=f"{name}-{shape}")
    for m, b in ((19, 16), (7, 1), (1, 5)):
        blocks = rng.standard_normal((m, b, b)) + 1j * rng.standard_normal((m, b, b))
        yield pytest.param(blocks, True, id=f"complex-m={m}-b={b}")
    # the transform of a real first column: its inverse is real up to roundoff
    yield pytest.param(np.fft.fft(rng.standard_normal((5, 3, 3)), axis=0), False,
                       id="real-first-column")


@pytest.mark.parametrize("blocks,stays_complex", _assemble_cases())
def test_assemble_is_the_index_formula(blocks, stays_complex):
    # any contiguous rows and columns, aligned to the blocks or not, and empty
    m, b, _ = blocks.shape
    n = m * b
    dense = _index_formula(blocks)
    if not stays_complex:
        assert np.abs(dense.imag).max() <= 1e-12 * np.abs(dense.real).max()
        dense = dense.real
    ranges = (slice(None), slice(b, 3 * b), slice(n // 3, n - 2), slice(3, 4),
              slice(n - 1, None), slice(-b - 2, None), slice(5, 5), slice(4, 2))
    for rows in ranges:
        for cols in ranges:
            got = assemble(blocks, rows, cols)
            assert got.dtype == dense.dtype
            assert np.array_equal(got, dense[rows, cols]), (rows, cols)
    with pytest.raises(ValueError):
        assemble(blocks, slice(None, None, 2))


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_assemble_window_columns_allocate_output_and_one_block_column(real):
    # the n_x x window read allocates its output and one copy of the first
    # block column laid out by block offset (its m blocks and the nv - 1
    # that the wrap repeats), and no index array the size of the output
    grid = sc.make_grid(32)
    blocks = sc.quantize(sc.make_symbol("cosine_gauss"), grid).blocks
    if not real:
        blocks = blocks * np.exp(1j * np.arange(blocks.shape[0]))[:, None, None]
    m, b, _ = blocks.shape
    w = grid.window
    nv = -(-w.stop // b) - w.start // b
    tracemalloc.start()
    try:
        cols = assemble(blocks, cols=w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cols.shape == (grid.n_x, w.stop - w.start)
    assert np.isrealobj(cols) == real
    block_col = (m + nv - 1) * b * b * cols.itemsize
    assert peak <= cols.nbytes + block_col + 2 ** 16, \
        f"peak {peak} > output {cols.nbytes} + block column {block_col}"


@pytest.mark.parametrize("alpha,kw", [(8, {}), (8, {"padding": 8.5}), (4, {"padding": 0.0}),
                                      (3, {"h_x": 1.0 / 15.0, "omega_max": 7.0}),
                                      (1, {"h_x": 2.0, "padding": 1.5, "omega_max": 0.25})],
                         ids=["default", "padding=8.5", "padding=0", "odd", "empty"])
def test_grid_window_is_the_rows_inside_the_window(alpha, kw):
    grid = sc.make_grid(alpha, **kw)
    x = grid.x_points()
    assert np.array_equal(np.arange(grid.n_x)[grid.window],
                          np.flatnonzero((x > 0.0) & (x < alpha)))


def test_nystrom_self_convergence():
    # doubling the grid density: eigenvalue drift is second order.  At the
    # default density the drift relative to each eigenvalue reaches a few
    # percent on the smallest retained eigenvalues (measured: order ~2.0,
    # worst 8% at alpha=4), while staying below 1% of the spectral scale.
    def restricted_eigs(name, h_x):
        spec = sc.make_symbol(name)
        grid = sc.make_grid(4, h_x=h_x)
        herm = sc.hermitize(sc.quantize(spec, grid))
        vals, _ = eigh_matrix(assemble(herm.blocks, grid.window, grid.window),
                              want_basis=False)
        return vals

    for name, rel_cap in (("band_constant", 0.01), ("cosine_gauss", 0.10)):
        l1 = restricted_eigs(name, 1.0 / 16.0)
        l2 = restricted_eigs(name, 1.0 / 32.0)
        sel = l1 > 1e-3
        drift = np.abs(l1[sel] - l2[: len(l1)][sel])
        assert (drift / l1[sel]).max() <= rel_cap
        assert drift.max() <= 0.01 * l1[0]


def _defect(dense):
    return np.linalg.norm(0.5 * (dense - dense.conj().T), 2)


def _expected_blocks(name, grid_id, grid):
    """Block count m of a quantized family on an oracle grid."""
    if name != "band_constant":
        return ORACLE_GRIDS[grid_id][1]
    return 1 if grid_id == "h_omega=0.5/span" else grid.n_x


@pytest.mark.parametrize("alpha", [2, 8])
@pytest.mark.parametrize("kind", ["identity", "exp_i2pi_s", "product_deviation"])
@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_hermitian_defect_is_exact_operator_norm(name, kind, alpha, exp_operator):
    grid = sc.make_grid(alpha)
    spec = sc.make_symbol(name)
    if kind == "identity":
        defect, dense = sc.quantize(spec, grid).hermitian_defect, dense_quadrature(spec, grid)
    elif kind == "exp_i2pi_s":
        defect, dense = exp_operator(spec, S_PHASE, grid).hermitian_defect, \
            dense_exp(spec, S_PHASE, grid)
    else:
        (dev,) = product_deviations(spec, [S_PHASE], grid)
        defect, dense = skew_norm(dev), dense_product_deviation(spec, S_PHASE, grid)
        if spec.time_invariant:
            # L_sigma and L_tau commute: the exact defect is 0, and both sides are roundoff
            assert defect <= 1e-12 and _defect(dense) <= 1e-12
            return
    # abs floor: a real time-invariant kernel has a defect of pure roundoff
    assert defect == pytest.approx(_defect(dense), rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("grid_id", ORACLE_GRIDS)
@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_block_quantize_matches_dense_quadrature(name, grid_id):
    grid = sc.make_grid(2, **ORACLE_GRIDS[grid_id][0])
    spec = sc.make_symbol(name)
    op = sc.quantize(spec, grid)
    assert op.blocks.shape[0] == _expected_blocks(name, grid_id, grid)
    assert np.abs(op.matrix - dense_quadrature(spec, grid)).max() <= 1e-12


@pytest.mark.parametrize("grid_id", ORACLE_GRIDS)
@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_product_deviations_match_dense_oracle(name, grid_id):
    grid = sc.make_grid(2, **ORACLE_GRIDS[grid_id][0])
    spec = sc.make_symbol(name)
    s_values = (S_PHASE, -1.0)
    blocks = list(product_deviations(spec, s_values, grid))
    assert len(blocks) == len(s_values)
    for s, dev in zip(s_values, blocks):
        assert dev.shape[0] == _expected_blocks(name, grid_id, grid)
        dense = dense_product_deviation(spec, s, grid)
        assert np.abs(sc.operators.assemble(dev) - dense).max() <= 1e-12
        if not spec.time_invariant:     # else L_sigma and L_tau commute: pure roundoff
            assert skew_norm(dev) == pytest.approx(_defect(dense), rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("grid_id", ORACLE_GRIDS)
@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_product_deviations_vanish_at_s_zero(name, grid_id):
    grid = sc.make_grid(2, **ORACLE_GRIDS[grid_id][0])
    (dev,) = product_deviations(sc.make_symbol(name), [0.0], grid)
    assert dev.shape[0] == _expected_blocks(name, grid_id, grid)
    assert not dev.any()                         # L_sigma I - L_sigma, exactly


@pytest.mark.parametrize("grid_id", ["default", "padding=2.25"])
@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_block_algebra_matches_dense(name, grid_id, exp_operator):
    grid = sc.make_grid(2, **ORACLE_GRIDS[grid_id][0])
    spec = sc.make_symbol(name)
    a, b = sc.quantize(spec, grid), exp_operator(spec, S_PHASE, grid)
    da, db = dense_quadrature(spec, grid), dense_exp(spec, S_PHASE, grid)
    w = grid.window

    assert np.abs(assemble(a.blocks, w, w) - da[w, w]).max() <= 1e-12
    assert np.abs(assemble(_conj_t(b.blocks)) - db.conj().T).max() <= 1e-12
    prod, dense_prod = a.blocks @ b.blocks, da @ db
    assert np.abs(assemble(prod) - dense_prod).max() <= 1e-12
    assert skew_norm(prod) == pytest.approx(_defect(dense_prod), rel=1e-10, abs=1e-14)
    assert b.hermitian_defect == pytest.approx(_defect(db), rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("grid_id", ["default", "padding=2.5", "padding=2.25"])
@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_block_window_trace_matches_dense_eigh(name, grid_id):
    grid = sc.make_grid(4, **ORACLE_GRIDS[grid_id][0])
    spec = sc.make_symbol(name)
    herm = sc.hermitize(sc.quantize(spec, grid))
    dense = dense_quadrature(spec, grid)
    lam, basis = eigh_matrix(0.5 * (dense + dense.conj().T))
    weights = (np.abs(basis[grid.window]) ** 2).sum(axis=0)
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
