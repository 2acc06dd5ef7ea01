"""Hermitian eigenvalues of dense matrices, and full-space window traces
from the Fourier blocks of block-circulant operators."""

from __future__ import annotations

import numpy as np

from .errors import NonHermitianError
from .operators import DiscreteOperator, real_cast

HERMITIAN_DEFECT_TOL = 1e-8
_REFLECTION_TOL = 1e-13


def eigh_matrix(matrix: np.ndarray, want_basis: bool = True):
    """Descending eigendecomposition of a Hermitian matrix.

    Without the basis, a matrix W of even size n that is symmetric under the
    reflection J (index i -> n - 1 - i) to ||W - JWJ||_F <= 1e-13 ||W||_F is
    split (Cantoni and Butler, Linear Algebra Appl. 13, 1976): the values are
    those of S = (W + JWJ)/2, the union of the spectra of its two half-size
    blocks (see _reflection_halves).  By Weyl's inequality each moves from
    W's by at most ||W - S||_2 <= ||W - JWJ||_F / 2.  Any other matrix goes
    to one full eigvalsh.
    """
    matrix = real_cast(matrix)
    if want_basis:
        vals, vecs = np.linalg.eigh(matrix)
        return vals[::-1].copy(), vecs[:, ::-1].copy()
    if matrix.shape[0] % 2 == 0 and _is_reflection_symmetric(matrix):
        vals = np.concatenate([np.linalg.eigvalsh(h) for h in _reflection_halves(matrix)])
        return np.sort(vals)[::-1].copy(), None
    return np.linalg.eigvalsh(matrix)[::-1].copy(), None


def _row_step(n: int) -> int:
    """Rows per chunk of about 2^18 entries: the chunked passes below reuse
    one buffer of this size instead of an n x n temporary."""
    return max(1, 2 ** 18 // max(n, 1))


def _is_reflection_symmetric(w: np.ndarray) -> bool:
    """||W - JWJ||_F <= 1e-13 ||W||_F, where (JWJ)[i, j] = W[n - 1 - i, n - 1 - j]."""
    n = w.shape[0]
    step = _row_step(n)
    buf = np.empty((min(step, n), n), dtype=w.dtype)
    defect = norm = 0.0
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        rows = buf[:hi - lo]
        np.copyto(rows, w[lo:hi])
        norm += _sum_abs_sq(rows)
        rows -= w[n - hi:n - lo][::-1, ::-1]
        defect += _sum_abs_sq(rows)
    return defect <= _REFLECTION_TOL ** 2 * norm


def _sum_abs_sq(rows: np.ndarray) -> float:
    """sum |rows|^2 of a contiguous array, by einsum rather than BLAS: the
    same sum at every BLAS thread count, and without the threaded vdot's
    start-up cost (about 1 s on the first 8192 x 8192 pass, 2 cores)."""
    flat = rows.reshape(-1).view(rows.real.dtype)
    return float(np.einsum("i,i->", flat, flat))


def _reflection_halves(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two blocks whose spectra make up that of S = (W + JWJ)/2, n = 2k.

    S commutes with J.  With A = S[:k, :k] and B = S[:k, k:], the
    reflection-even eigenvectors [x; Jx] solve A + BJ and the odd ones
    [x; -Jx] solve A - BJ.
    """
    n = w.shape[0]
    k = n // 2
    even = np.empty((k, k), dtype=w.dtype)
    odd = np.empty_like(even)
    step = _row_step(k)
    a = np.empty((min(step, k), k), dtype=w.dtype)
    bj = np.empty_like(a)
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        ra, rb = a[:hi - lo], bj[:hi - lo]
        np.add(w[lo:hi, :k], w[n - hi:n - lo, k:][::-1, ::-1], out=ra)     # 2 A
        np.add(w[lo:hi, k:][:, ::-1], w[n - hi:n - lo, :k][::-1], out=rb)  # 2 BJ
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

