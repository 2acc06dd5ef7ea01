import numpy as np
import pytest

import szegocap as sc
from szegocap.errors import NonHermitianError
from szegocap.operators import DiscreteOperator
from szegocap.spectral import _is_reflection_symmetric, eigh_matrix, window_trace


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
    vals, _ = eigh_matrix(sc.window_block(herm), want_basis=False)
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
    # W = H + JHJ commutes with the reflection J: i -> n - 1 - i and is split;
    # H itself is not
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


@pytest.mark.parametrize("grid_kw", [{}, {"h_x": 1.0 / 15.0, "omega_max": 7.0}],
                         ids=["alpha=8", "alpha=3,odd"])
@pytest.mark.parametrize("name", ["band_constant", "cosine_gauss", "square_smooth",
                                  "two_tone"])
def test_window_spectrum_matches_eigvalsh(name, grid_kw):
    # every family but square_smooth is symmetric under x -> alpha - x
    grid = sc.make_grid(8 if not grid_kw else 3, **grid_kw)
    win = sc.window_block(sc.hermitize(sc.quantize(sc.make_symbol(name), grid)))
    assert win.shape[0] % 2 == (1 if grid_kw else 0)
    assert _is_reflection_symmetric(win) == (name != "square_smooth")
    _assert_matches_eigvalsh(win)


def test_spectrum_sum_matches_trace():
    grid = sc.make_grid(4)
    herm = sc.hermitize(sc.quantize(sc.make_symbol("cosine_gauss"), grid))
    tr = float(np.trace(sc.window_block(herm)).real)
    assert window_trace(herm, lambda v: v) == pytest.approx(tr, rel=1e-9)


def test_hs_cross_norm_matches_brute_force_double_sum():
    spec = sc.make_symbol("band_constant", c=1.0, W=0.25)
    grid = sc.make_grid(16)
    op = sc.quantize(spec, grid)
    mask = grid.window_mask()
    fast = float(np.sum(np.abs(op.matrix[mask][:, ~mask]) ** 2))
    # independent oracle: explicit double sum over unweighted kernel values
    kern = op.matrix / grid.h_x
    brute = 0.0
    inside = np.where(mask)[0]
    outside = np.where(~mask)[0]
    for i in inside:
        row = np.abs(kern[i, outside]) ** 2
        brute += float(row.sum()) * grid.h_x ** 2
    assert fast == pytest.approx(brute, rel=1e-9)

