import tracemalloc

import numpy as np
import pytest

import szegocap as sc
from szegocap.errors import NonHermitianError
from szegocap.operators import DiscreteOperator, assemble, order_differences, product_deviations
from szegocap.spectral import (_is_reflection_symmetric, _row_step, _splits, eigh_matrix,
                               trace_norm, window_trace)


def _tiny_grid(n):
    # a grid whose n_x equals n, for wrapping synthetic matrices
    return sc.make_grid(1.0, h_x=1.0 / n, omega_max=0.5, padding=0.0, h_omega=0.5)


def _synthetic_hermitian(n, complex_part=True):
    i, j = np.indices((n, n))
    re = 1.0 / (1.0 + np.abs(i - j))
    if not complex_part:
        return re
    im = 0.1 * (i - j) / (1.0 + (i - j) ** 2)
    return re + 1j * im


def test_eigh_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    op = DiscreteOperator(m[None], _tiny_grid(2), 0.5)
    with pytest.raises(NonHermitianError):
        window_trace(op, lambda v: v)


def test_prolate_eigenvalue_count():
    # time-band limiting: eigenvalues above half the plateau count ~ 2 W alpha
    spec = sc.make_symbol("band_constant", c=1.0, W=0.25)
    grid = sc.make_grid(16)
    herm = sc.hermitize(sc.quantize(spec, grid))
    vals, _ = eigh_matrix(assemble(herm.blocks, grid.window, grid.window), want_basis=False)
    count = int(np.sum(vals > 0.5))
    assert abs(count - 8) <= 2


@pytest.mark.parametrize("n,complex_part", [(300, True), (1024, False)])
def test_eigen_residual_contract(n, complex_part):
    m = _synthetic_hermitian(n, complex_part)
    vals, vecs = eigh_matrix(m)
    opnorm = np.abs(vals).max()
    resid = np.linalg.norm(m @ vecs - vecs * vals, axis=0).max()
    assert resid / opnorm <= 1e-10
    assert np.all(np.diff(vals) <= 1e-12)


def _assert_matches_eigvalsh(matrix):
    vals, _ = eigh_matrix(matrix, want_basis=False)
    expect = np.linalg.eigvalsh(matrix)[::-1]
    assert np.abs(vals - expect).max() <= 1e-13 * np.abs(expect).max()


@pytest.mark.parametrize("n", [1, 2, 7, 64, 65])
@pytest.mark.parametrize("complex_part", [False, True])
def test_reflection_split_matches_eigvalsh(n, complex_part):
    # W = H + JHJ commutes with the reflection J: i -> n - 1 - i and is split
    # when n is even; H itself is not
    rng = np.random.default_rng(n)
    h = rng.standard_normal((n, n))
    if complex_part:
        h = h + 1j * rng.standard_normal((n, n))
    h = h + h.conj().T
    w = h + h[::-1, ::-1]
    assert _is_reflection_symmetric(w)
    assert n == 1 or not _is_reflection_symmetric(h)
    _assert_matches_eigvalsh(w)
    _assert_matches_eigvalsh(h)


def _assert_trace_norm_matches_svd(x):
    expect = np.linalg.svd(x, compute_uv=False).sum()
    assert abs(trace_norm(x) - expect) <= 1e-13 * expect


@pytest.mark.parametrize("shape", [(2, 2), (64, 48), (48, 64)])
@pytest.mark.parametrize("complex_part", [False, True])
def test_reflection_split_trace_norm_matches_svd(shape, complex_part):
    # X + J X J is symmetric under the row and column reflections and is
    # split into two (n/2) x (p/2) SVDs; X itself takes one full SVD
    rng = np.random.default_rng(shape)
    x = rng.standard_normal(shape)
    if complex_part:
        x = x + 1j * rng.standard_normal(shape)
    w = x + x[::-1, ::-1]
    assert _splits(w)
    assert not _splits(x)
    _assert_trace_norm_matches_svd(w)
    assert trace_norm(x) == float(np.linalg.svd(x, compute_uv=False).sum())


@pytest.mark.parametrize("shape", [(7, 6), (6, 7), (7, 7)])
def test_odd_shapes_take_one_svd(shape):
    rng = np.random.default_rng(shape)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w = x + x[::-1, ::-1]
    assert _is_reflection_symmetric(w)
    assert not _splits(w)
    assert trace_norm(w) == float(np.linalg.svd(w, compute_uv=False).sum())


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_norm_out_of_float_range_takes_one_svd(scale):
    # ||X||_F^2 overflows or underflows, so the symmetry test proves nothing:
    # this X is not symmetric and must not be split
    x = np.array([[1.0, 2.0], [3.0, 5.0]]) * scale
    assert not _splits(x)
    assert trace_norm(x) == float(np.linalg.svd(x, compute_uv=False).sum())


def test_trace_norm_of_zero_is_exact():
    assert trace_norm(np.zeros((4, 6), dtype=complex)) == 0.0
    assert trace_norm(np.zeros((0, 6))) == 0.0


@pytest.mark.parametrize("name", ["band_constant", "cosine_gauss", "square_smooth",
                                  "two_tone"])
def test_diagnostic_matrices_split_but_square_smooth(name):
    # the n_x x window columns whose trace norms check-product (L_sigma L_tau -
    # L_{sigma tau}) and check-tracenorm (T, T') take; band_constant's are zero
    # or roundoff, since its operators commute
    grid = sc.make_grid(8)
    spec = sc.make_symbol(name)
    blocks = list(product_deviations(spec, [0.5, -1.0], grid)[1])
    blocks += order_differences(spec, 0.5, grid)
    for b in blocks:
        x = assemble(b, cols=grid.window)
        assert x.shape == (grid.n_x, grid.window.stop - grid.window.start)
        if not x.any():
            assert trace_norm(x) == 0.0
            continue
        assert _splits(x) == (name != "square_smooth")
        _assert_trace_norm_matches_svd(x)


def test_trace_norm_split_allocates_half_the_input():
    # the defect and the halves are built in row chunks: the traced peak is
    # the two halves (half the input), two chunk buffers of 2^18 entries,
    # numpy's buffers for the two reversed operands of each add, and 64 KiB
    # for the singular values and small objects.  Whole-array temporaries
    # (X - JXJ, or A and BJ beside the halves) need the input's size again.
    # LAPACK's work arrays are not traced.
    grid = sc.make_grid(64)
    x = assemble(order_differences(sc.make_symbol("cosine_gauss"), 0.5, grid)[0],
                 cols=grid.window)
    assert np.iscomplexobj(x) and _splits(x)
    limit = x.nbytes // 2 + 2 * (_row_step(1) + np.getbufsize()) * x.itemsize + 2 ** 16
    tracemalloc.start()
    try:
        trace_norm(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit, f"traced peak {peak / 1e6:.2f} MB > {limit / 1e6:.2f} MB"


@pytest.mark.parametrize("grid_kw", [{}, {"h_x": 1.0 / 15.0, "omega_max": 7.0}],
                         ids=["alpha=8", "alpha=3,odd"])
@pytest.mark.parametrize("name", ["band_constant", "cosine_gauss", "square_smooth",
                                  "two_tone"])
def test_window_spectrum_matches_eigvalsh(name, grid_kw):
    # every family but square_smooth is symmetric under x -> alpha - x
    grid = sc.make_grid(8 if not grid_kw else 3, **grid_kw)
    herm = sc.hermitize(sc.quantize(sc.make_symbol(name), grid))
    win = assemble(herm.blocks, grid.window, grid.window)
    assert win.shape[0] % 2 == (1 if grid_kw else 0)
    assert _is_reflection_symmetric(win) == (name != "square_smooth")
    _assert_matches_eigvalsh(win)


def test_spectrum_sum_matches_trace():
    grid = sc.make_grid(4)
    herm = sc.hermitize(sc.quantize(sc.make_symbol("cosine_gauss"), grid))
    tr = float(np.trace(assemble(herm.blocks, grid.window, grid.window)))
    assert window_trace(herm, lambda v: v) == pytest.approx(tr, rel=1e-9)


def test_hs_cross_norm_matches_brute_force_double_sum():
    spec = sc.make_symbol("band_constant", c=1.0, W=0.25)
    grid = sc.make_grid(16)
    op = sc.quantize(spec, grid)
    w = grid.window
    fast = float(np.sum(np.abs(np.delete(op.matrix[w], w, axis=1)) ** 2))
    # independent oracle: explicit double sum over unweighted kernel values
    kern = op.matrix / grid.h_x
    brute = 0.0
    inside = np.arange(grid.n_x)[w]
    outside = np.setdiff1d(np.arange(grid.n_x), inside)
    for i in inside:
        row = np.abs(kern[i, outside]) ** 2
        brute += float(row.sum()) * grid.h_x ** 2
    assert fast == pytest.approx(brute, rel=1e-9)

