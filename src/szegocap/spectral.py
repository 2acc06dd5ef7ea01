"""Hermitian eigendecomposition, Schatten norms, restricted traces, and
spectral functional calculus, on dense matrices and on the Fourier blocks of
block-circulant operators."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonHermitianError
from .grid import Grid
from .operators import DiscreteOperator

HERMITIAN_DEFECT_TOL = 1e-8
_REAL_CAST_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues in descending order with an optional eigenvector basis."""
    values: np.ndarray
    basis: np.ndarray | None
    grid: Grid | None


def _as_matrix(a) -> np.ndarray:
    return a.matrix if isinstance(a, DiscreteOperator) else np.asarray(a)


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


def eigh(a: DiscreteOperator, want_basis: bool = True) -> Spectrum:
    """Spectrum of a hermitized operator (descending eigenvalues).

    Without a basis the spectrum is the union of the Fourier blocks' spectra;
    the basis is that of the dense matrix.  Raises NonHermitianError unless
    the operator's hermitian defect is at most HERMITIAN_DEFECT_TOL.
    """
    _require_hermitian(a)
    if want_basis:
        vals, vecs = eigh_matrix(a.matrix, want_basis=True)
    else:
        vals = np.sort(np.linalg.eigvalsh(real_cast(a.blocks)), axis=None)[::-1].copy()
        vecs = None
    return Spectrum(values=vals, basis=vecs, grid=a.grid)


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


def schatten_norm(a, p: int) -> float:
    """Schatten norm: p=1 sum of singular values, p=2 Frobenius."""
    matrix = _as_matrix(a)
    if p == 2:
        return float(np.linalg.norm(matrix))
    if p == 1:
        return float(np.linalg.svd(matrix, compute_uv=False).sum())
    raise DomainError(f"schatten_norm supports p in {{1, 2}}, got {p}")


def trace_restricted(a, grid: Grid | None = None) -> float:
    """Sum of diagonal entries at grid points inside the window [0, alpha]."""
    if isinstance(a, DiscreteOperator) and grid is None:
        grid = a.grid
    if grid is None:
        raise DomainError("trace_restricted needs a grid")
    diag = np.diagonal(_as_matrix(a))[grid.window_mask()]
    total = complex(diag.sum())
    if abs(total.imag) > 1e-9 * (abs(total.real) + 1.0):
        warnings.warn(f"restricted trace has imaginary residue {total.imag:.3e}")
    return float(total.real)

