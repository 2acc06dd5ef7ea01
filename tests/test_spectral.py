import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import szegocap as sc
from szegocap.errors import NonHermitianError
from szegocap.operators import DiscreteOperator, assemble, order_differences, product_deviations
from szegocap.spectral import (_reflection_halves, eigh_matrix, reflection_symmetric,
                               schatten_norms, window_eigvalsh, window_trace)


def _tiny_grid(n):
    # a grid whose n_x equals n, for wrapping synthetic matrices; three
    # frequencies, on half make_grid's step 1/span
    grid = sc.make_grid(1.0, h_x=1.0 / n, omega_max=1.0, padding=0.0)
    return dataclasses.replace(grid, omega_max=0.5, h_omega=0.5)


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
    vals = window_eigvalsh(herm.blocks, grid.window)
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


def _assert_matches_eigvalsh(blocks, window):
    vals = window_eigvalsh(blocks, window)
    expect = np.linalg.eigvalsh(assemble(blocks, window, window))[::-1]
    assert np.abs(vals - expect).max() <= 1e-13 * np.abs(expect).max()


def _random_blocks(m, b, complex_part, seed, hermitian=False, symmetric=True):
    """Fourier blocks of a random first block column C; with `symmetric`, C
    is made to satisfy C_{-d} = J C_d J, and with `hermitian`, C_{-d} = C_d*.
    The two projections commute."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((m, b, b))
    if complex_part:
        c = c + 1j * rng.standard_normal((m, b, b))
    flip = -np.arange(m) % m
    if hermitian:
        c = c + c[flip].conj().swapaxes(1, 2)
    if symmetric:
        c = c + c[flip, ::-1, ::-1]
    return np.fft.fft(c, axis=0)


def _centred(n_x, length):
    """The range of this length centred on an n_x-point grid, or as near to
    centred as the parities allow."""
    start = (n_x - length) // 2
    return slice(start, start + length)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 65])
@pytest.mark.parametrize("complex_part", [False, True])
def test_reflection_split_matches_eigvalsh(n, complex_part):
    # blocks whose first column is symmetrized commute with the reflection
    # J: i -> n_x - 1 - i, and a centred n x n window of them splits when n is
    # even; random blocks never split
    b = 2 if n % 2 == 0 else 3
    pad = next(p for p in range(3, 6) if (n + 2 * p) % b == 0)
    m = (n + 2 * pad) // b
    w = _centred(m * b, n)
    assert w.start + w.stop == m * b
    sym = _random_blocks(m, b, complex_part, n, hermitian=True)
    rand = _random_blocks(m, b, complex_part, n, hermitian=True, symmetric=False)
    assert reflection_symmetric(sym) and not reflection_symmetric(rand)
    assert (_reflection_halves(sym, w, w) is not None) == (n % 2 == 0)
    assert _reflection_halves(rand, w, w) is None
    _assert_matches_eigvalsh(sym, w)
    _assert_matches_eigvalsh(rand, w)


def _assert_halves_match_svd(blocks, rows, cols):
    halves = _reflection_halves(blocks, rows, cols)
    vals = np.sort(np.concatenate([np.linalg.svd(h, compute_uv=False) for h in halves]))
    expect = np.sort(np.linalg.svd(assemble(blocks, rows, cols), compute_uv=False))
    assert np.abs(vals - expect).max() <= 1e-13 * expect.max()


def _assert_schatten_matches_svd(blocks, cols):
    x = assemble(blocks, cols=cols)
    i1, i2 = schatten_norms(blocks, cols)
    assert abs(i1 - np.linalg.svd(x, compute_uv=False).sum()) <= 1e-13 * i1
    top = np.abs(x).max()       # numpy's norm over- or underflows at 1e200, 1e-170
    assert abs(i2 - top * np.linalg.norm(x / top)) <= 1e-13 * i2


@pytest.mark.parametrize("shape", [(2, 2), (64, 48), (48, 64)])
@pytest.mark.parametrize("complex_part", [False, True])
def test_reflection_split_trace_norm_matches_svd(shape, complex_part):
    # a centred rows x cols section of symmetrized blocks splits into two
    # (rows/2) x (cols/2) SVDs; random blocks take one full SVD
    sym = _random_blocks(34, 2, complex_part, shape)
    rand = _random_blocks(34, 2, complex_part, shape, symmetric=False)
    rows, cols = (_centred(68, k) for k in shape)
    _assert_halves_match_svd(sym, rows, cols)
    assert _reflection_halves(rand, rows, cols) is None
    assert _reflection_halves(sym, slice(None), cols) is not None
    _assert_schatten_matches_svd(sym, cols)
    x = assemble(rand, cols=cols)
    assert schatten_norms(rand, cols)[0] == float(np.linalg.svd(x, compute_uv=False).sum())


@pytest.mark.parametrize("shape", [(7, 6), (6, 7), (7, 7)])
def test_odd_shapes_take_one_svd(shape):
    # an odd length cannot be centred on an even grid, and an odd grid's
    # rows cannot be halved
    sym = _random_blocks(34, 2, True, shape)
    rows, cols = (_centred(68, k) for k in shape)
    assert _reflection_halves(sym, rows, cols) is None
    odd_grid = _random_blocks(23, 3, True, shape)
    cols = _centred(69, shape[1])
    assert reflection_symmetric(odd_grid)
    assert _reflection_halves(odd_grid, slice(None), cols) is None
    s = np.linalg.svd(assemble(odd_grid, cols=cols), compute_uv=False)
    assert schatten_norms(odd_grid, cols) == (float(s.sum()), math.hypot(*s))


def test_off_centre_ranges_and_one_block_do_not_split():
    sym = _random_blocks(34, 2, False, 0)
    assert _reflection_halves(sym, slice(10, 58), slice(10, 58)) is not None
    assert _reflection_halves(sym, slice(10, 58), slice(12, 60)) is None
    assert _reflection_halves(sym, slice(12, 60), slice(10, 58)) is None
    # with m = 1 the block is the dense matrix, which is not tested
    dense = assemble(sym)[None]
    assert not reflection_symmetric(dense)
    assert _reflection_halves(dense, slice(10, 58), slice(10, 58)) is None
    _assert_schatten_matches_svd(dense, slice(10, 58))


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_norm_out_of_float_range_takes_one_svd(scale):
    # ||C||_F^2 overflows or underflows: random blocks must still not split
    rand = _random_blocks(4, 2, False, 1, symmetric=False) * scale
    assert not reflection_symmetric(rand)
    x = assemble(rand, cols=slice(2, 6))
    assert schatten_norms(rand, slice(2, 6))[0] == float(np.linalg.svd(x, compute_uv=False).sum())


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_norm_out_of_float_range_still_splits(scale):
    sym = _random_blocks(4, 2, True, 1) * scale
    assert reflection_symmetric(sym)
    _assert_halves_match_svd(sym, slice(None), slice(2, 6))
    _assert_schatten_matches_svd(sym, slice(2, 6))


def test_trace_norm_of_zero_is_exact():
    assert schatten_norms(np.zeros((4, 2, 2), dtype=complex), slice(2, 6)) == (0.0, 0.0)
    assert schatten_norms(_random_blocks(4, 2, False, 2), slice(4, 4)) == (0.0, 0.0)


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
        if not b.any():
            assert schatten_norms(b, grid.window) == (0.0, 0.0)
            continue
        split = _reflection_halves(b, slice(None), grid.window) is not None
        assert split == (name != "square_smooth")
        _assert_schatten_matches_svd(b, grid.window)


def test_schatten_norms_allocate_the_top_half_rows_and_one_half():
    # only the top n_x/2 rows of the n_x x window columns X are assembled, and
    # A + BJ is written over A: the traced peak is those rows, A - BJ (a
    # quarter of X), a few arrays of the block column's size and 64 KiB for
    # the singular values and small objects.  LAPACK's work arrays are not
    # traced.
    grid = sc.make_grid(64)
    blocks = order_differences(sc.make_symbol("cosine_gauss"), 0.5, grid)[0]
    x = assemble(blocks, cols=grid.window)
    assert np.iscomplexobj(x) and _reflection_halves(blocks, slice(None), grid.window)
    limit = 3 * x.nbytes // 4 + 4 * blocks.nbytes + 2 ** 16
    del x
    tracemalloc.start()
    try:
        schatten_norms(blocks, grid.window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit, f"traced peak {peak / 1e6:.2f} MB > {limit / 1e6:.2f} MB"


@pytest.mark.parametrize("grid_kw", [{}, {"h_x": 1.0 / 15.0, "omega_max": 7.0}],
                         ids=["alpha=8", "alpha=3,odd"])
@pytest.mark.parametrize("name", ["band_constant", "cosine_gauss", "square_smooth",
                                  "two_tone"])
def test_window_spectrum_matches_eigvalsh(name, grid_kw):
    # every family but square_smooth is symmetric under x -> alpha - x, and
    # an odd window takes one full eigvalsh
    grid = sc.make_grid(8 if not grid_kw else 3, **grid_kw)
    herm = sc.hermitize(sc.quantize(sc.make_symbol(name), grid))
    w = grid.window
    assert (w.stop - w.start) % 2 == (1 if grid_kw else 0)
    assert reflection_symmetric(herm.blocks) == (name != "square_smooth")
    split = _reflection_halves(herm.blocks, w, w) is not None
    assert split == (name != "square_smooth" and not grid_kw)
    _assert_matches_eigvalsh(herm.blocks, w)


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

