"""Hermitian eigenvalues of dense matrices, and full-space window traces
from the Fourier blocks of block-circulant operators."""

from __future__ import annotations

import numpy as np

from .errors import NonHermitianError
from .operators import DiscreteOperator

HERMITIAN_DEFECT_TOL = 1e-8
_REAL_CAST_TOL = 1e-12


def real_cast(matrix: np.ndarray) -> np.ndarray:
    """Drop a numerically negligible imaginary part (speeds up LAPACK paths)."""
    if np.iscomplexobj(matrix):
        scale = max(np.abs(matrix.real).max(), 1e-300)
        if np.abs(matrix.imag).max() <= _REAL_CAST_TOL * scale:
            return np.ascontiguousarray(matrix.real)
    return matrix


def eigh_matrix(matrix: np.ndarray, want_basis: bool = True):
    """Descending eigendecomposition of a Hermitian matrix."""
    matrix = real_cast(matrix)
    if want_basis:
        vals, vecs = np.linalg.eigh(matrix)
        return vals[::-1].copy(), vecs[:, ::-1].copy()
    return np.linalg.eigvalsh(matrix)[::-1].copy(), None


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
    rows = np.bincount(np.flatnonzero(a.grid.window_mask()) % b, minlength=b)
    weights = np.einsum("r,krj->kj", rows, np.abs(vecs) ** 2) / m
    return float(np.sum(np.asarray(f(vals.ravel()), dtype=float) * weights.ravel()))

