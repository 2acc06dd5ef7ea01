"""Hermitian eigenvalues and trace norms of dense matrices, and full-space
window traces from the Fourier blocks of block-circulant operators."""

from __future__ import annotations

import math

import numpy as np

from .errors import NonHermitianError
from .operators import DiscreteOperator, real_cast

HERMITIAN_DEFECT_TOL = 1e-8
_REFLECTION_TOL = 1e-13


def eigh_matrix(matrix: np.ndarray, want_basis: bool = True):
    """Descending eigendecomposition of a Hermitian matrix.

    Without the basis, a matrix W that passes _splits is split (Cantoni and
    Butler, Linear Algebra Appl. 13, 1976): the values are those of
    S = (W + JWJ)/2, the union of the spectra of its two half-size blocks
    (see _reflection_halves).  By Weyl's inequality each moves from W's by at
    most ||W - S||_2 <= ||W - JWJ||_F / 2.  Any other matrix goes to one full
    eigvalsh.
    """
    matrix = real_cast(matrix)
    if want_basis:
        vals, vecs = np.linalg.eigh(matrix)
        return vals[::-1].copy(), vecs[:, ::-1].copy()
    if _splits(matrix):
        vals = np.concatenate([np.linalg.eigvalsh(h) for h in _reflection_halves(matrix)])
        return np.sort(vals)[::-1].copy(), None
    return np.linalg.eigvalsh(matrix)[::-1].copy(), None


def trace_norm(matrix: np.ndarray) -> float:
    """Schatten-1 norm ||X||_1, the sum of the singular values.

    An exactly zero matrix skips the SVD.  A matrix that passes _splits is
    split as in eigh_matrix: S = (X + JXJ)/2 is orthogonally equivalent to
    diag(A + BJ, A - BJ), so its singular values are those of the two halves.
    By the triangle inequality, ||X||_1 moves by at most
    ||X - S||_1 <= sqrt(p) ||X - JXJ||_F / 2 for p columns, at most
    1.6e-12 ||X||_F at p = 1024.  Any other matrix takes one full SVD.
    """
    if not matrix.any():
        return 0.0
    parts = _reflection_halves(matrix) if _splits(matrix) else (matrix,)
    return float(sum(np.linalg.svd(h, compute_uv=False).sum() for h in parts))


def _splits(x: np.ndarray) -> bool:
    """The rule by which eigh_matrix and trace_norm take two half-size
    problems: x has an even shape n x p and is reflection-symmetric."""
    return all(d % 2 == 0 for d in x.shape) and _is_reflection_symmetric(x)


def _row_step(n: int) -> int:
    """Rows of n entries per chunk of about 2^18: the chunked passes below
    reuse one buffer of this size instead of a whole-array temporary."""
    return max(1, 2 ** 18 // max(n, 1))


def _is_reflection_symmetric(w: np.ndarray) -> bool:
    """||W - JWJ||_F <= 1e-13 ||W||_F for W of shape n x p, where J reverses
    rows and columns: (JWJ)[i, j] = W[n - 1 - i, p - 1 - j].  False when
    ||W||_F^2 underflows to 0 or overflows, since the test then proves nothing."""
    n, p = w.shape
    step = _row_step(p)
    buf = np.empty((min(step, n), p), dtype=w.dtype)
    defect = norm = 0.0
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        rows = buf[:hi - lo]
        np.copyto(rows, w[lo:hi])
        norm += _sum_abs_sq(rows)
        rows -= w[n - hi:n - lo][::-1, ::-1]
        defect += _sum_abs_sq(rows)
    return 0.0 < norm < math.inf and defect <= _REFLECTION_TOL ** 2 * norm


def _sum_abs_sq(rows: np.ndarray) -> float:
    """sum |rows|^2 of a contiguous array, by einsum rather than BLAS: the
    same sum at every BLAS thread count, and without the threaded vdot's
    start-up cost (about 1 s on the first 8192 x 8192 pass, 2 cores)."""
    flat = rows.reshape(-1).view(rows.real.dtype)
    return float(np.einsum("i,i->", flat, flat))


def _reflection_halves(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two k x l blocks of S = (W + JWJ)/2, for W of shape n x p = 2k x 2l.

    S = J S J.  With A = S[:k, :l] and B = S[:k, l:], the orthogonal
    Q_n = [[I, I], [J, -J]] / sqrt(2) (and Q_p alike) give
    Q_n^T S Q_p = diag(A + BJ, A - BJ).  For square W these are the
    reflection-even ([x; Jx]) and odd ([x; -Jx]) eigenproblems.
    """
    n, p = w.shape
    k, l = n // 2, p // 2
    even = np.empty((k, l), dtype=w.dtype)
    odd = np.empty_like(even)
    step = _row_step(l)
    a = np.empty((min(step, k), l), dtype=w.dtype)
    bj = np.empty_like(a)
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        ra, rb = a[:hi - lo], bj[:hi - lo]
        np.add(w[lo:hi, :l], w[n - hi:n - lo, l:][::-1, ::-1], out=ra)     # 2 A
        np.add(w[lo:hi, l:][:, ::-1], w[n - hi:n - lo, :l][::-1], out=rb)  # 2 BJ
        np.add(ra, rb, out=even[lo:hi])
        np.subtract(ra, rb, out=odd[lo:hi])
    even *= 0.5
    odd *= 0.5
    return even, odd


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

