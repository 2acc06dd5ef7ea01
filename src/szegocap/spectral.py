"""Hermitian eigenvalues of dense matrices; window spectra, Schatten norms
and window traces of block-circulant operators from their Fourier blocks."""

from __future__ import annotations

import math

import numpy as np

from .errors import NonHermitianError
from .operators import DiscreteOperator, assemble, first_column, real_cast

HERMITIAN_DEFECT_TOL = 1e-8
_REFLECTION_TOL = 1e-13


def eigh_matrix(matrix: np.ndarray, want_basis: bool = True):
    """Descending eigenpairs of a Hermitian matrix; the basis is None without want_basis."""
    matrix = real_cast(matrix)
    if want_basis:
        vals, vecs = np.linalg.eigh(matrix)
        return vals[::-1].copy(), vecs[:, ::-1].copy()
    return np.linalg.eigvalsh(matrix)[::-1].copy(), None


def reflection_symmetric(blocks: np.ndarray) -> bool:
    """Whether the operator commutes with the reflection J: i -> n_x - 1 - i,
    that is, whether its first block column has C_{-d} = J_b C_d J_b for
    every d: ||C - J C_{-.} J||_F <= 1e-13 ||C||_F, on C / max|C| so that no
    norm overflows or underflows.  False for m = 1, whose C is the dense matrix.
    """
    m = blocks.shape[0]
    if m == 1:
        return False
    c = first_column(blocks)
    c = c / (np.abs(c).max() or 1.0)
    return bool(np.linalg.norm(c - c[-np.arange(m) % m, ::-1, ::-1])
                <= _REFLECTION_TOL * np.linalg.norm(c))


def _reflection_halves(blocks: np.ndarray, rows: slice, cols: slice):
    """(A + BJ, A - BJ) for the section X = A[rows, cols], or None.

    When the operator is reflection_symmetric and both ranges have even
    length and are centred (start + stop = n_x), J X J = X, and
    Q^T X Q' = diag(A + BJ, A - BJ) for A = X[:k, :l], B = X[:k, l:] and the
    orthogonal Q = [[I, I], [J, -J]] / sqrt(2) (Cantoni and Butler, Linear
    Algebra Appl. 13, 1976).  Only the top k rows are assembled; A + BJ is
    written over A.  The values move by at most ||X_bottom - J X_top J||_2
    <= 1e-13 ||L||_F / sqrt(2), for L the whole operator.
    """
    n = blocks.shape[0] * blocks.shape[1]
    r, c = range(n)[rows], range(n)[cols]
    if len(r) % 2 or len(c) % 2 or r.start + r.stop != n or c.start + c.stop != n \
            or not reflection_symmetric(blocks):
        return None
    # assemble may return a read-only view, which np.require copies
    top = np.require(assemble(blocks, slice(r.start, r.start + len(r) // 2), cols),
                     requirements="W")
    a, b = np.hsplit(top, 2)
    odd = a - b[:, ::-1]
    a += b[:, ::-1]
    return a, odd


def window_eigvalsh(blocks: np.ndarray, window: slice) -> np.ndarray:
    """Descending eigenvalues of the Hermitian A[window, window], from its
    reflection halves or one full eigvalsh."""
    parts = _reflection_halves(blocks, window, window) or (assemble(blocks, window, window),)
    vals = np.concatenate([eigh_matrix(h, want_basis=False)[0] for h in parts])
    return np.sort(vals)[::-1].copy()


def schatten_norms(blocks: np.ndarray, cols: slice) -> tuple[float, float]:
    """(||X||_1, ||X||_2) of X = A[:, cols] from the singular values of its
    reflection halves or of X; none are taken for an exactly zero operator.
    ||X||_2 is their scaled sum math.hypot, so it is finite when the norm is."""
    if not blocks.any():
        return 0.0, 0.0
    parts = _reflection_halves(blocks, slice(None), cols) or (assemble(blocks, cols=cols),)
    vals = [np.linalg.svd(h, compute_uv=False) for h in parts]
    return float(sum(v.sum() for v in vals)), math.hypot(*np.concatenate(vals))


def _require_hermitian(a: DiscreteOperator) -> None:
    if a.hermitian_defect > HERMITIAN_DEFECT_TOL:
        raise NonHermitianError(
            f"hermitian defect {a.hermitian_defect:.3e} exceeds {HERMITIAN_DEFECT_TOL:.1e}; "
            "hermitize the operator first")


def window_trace(a: DiscreteOperator, f) -> float:
    """tr_a f(A): the sum of f(A)'s diagonal over the window rows, for a
    hermitized operator.

    f(A) has the Fourier blocks U_k f(Lambda_k) U_k*, so its diagonal has
    period b and entry (1/m) sum_k sum_j |U_k[r, j]|^2 f(lambda_kj) at rows
    r mod b.  Only the blocks are decomposed.
    """
    _require_hermitian(a)
    m, b, _ = a.blocks.shape
    vals, vecs = np.linalg.eigh(real_cast(a.blocks))
    rows = a.grid.window_counts(b)
    weights = np.einsum("r,krj->kj", rows, np.abs(vecs) ** 2) / m
    return float(np.sum(np.asarray(f(vals.ravel()), dtype=float) * weights.ravel()))

