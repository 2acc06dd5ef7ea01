"""Quantized operators on a grid, held as the Fourier blocks of a block-circulant
matrix.

On the padded grid the Nystrom matrix h_x * k(x_i, x_j) of a symbol that is
periodic in time (period p) is block-circulant when the frequency samples
sit on the lattice Z / span: shifting both indices by b = p / h_x rows
leaves it unchanged, and the shift wraps around after m = n_x / b blocks.
A time-invariant symbol gives b = 1.  Such a matrix is stored as its m
Fourier blocks (shape (m, b, b)): the discrete Fourier transform over the
block index turns it into a block-diagonal matrix with these blocks, by a
unitary change of basis.  Products, adjoints, Hermitian parts, spectra and
operator norms therefore act block by block, as numpy operations on the
stacked blocks.  A grid without that shift symmetry gives m = 1, whose single
block is the dense matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import AliasingError, DomainError
from .families import SymbolSpec, sample_symbol
from .grid import Grid

_LATTICE_TOL = 1e-9
_REAL_CAST_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Operator on the grid, stored as Fourier blocks of shape (m, b, b), n_x = m * b.

    Every command works on the blocks; `assemble` builds any rows and columns
    of the dense matrix from them.
    """
    blocks: np.ndarray
    grid: Grid
    hermitian_defect: float      # exact ||(A - A*)/2||_2

    @property
    def matrix(self) -> np.ndarray:
        """The whole dense n_x x n_x matrix, built on every access.  No command
        reads it: it is kept for perfbench's `_count_quantize` and as the
        tests' dense view."""
        return assemble(self.blocks)


def assemble(blocks: np.ndarray, rows: slice = slice(None),
             cols: slice = slice(None)) -> np.ndarray:
    """Dense entries A[rows, cols] of the operator with these Fourier blocks.

    rows and cols are contiguous ranges (step 1).  The first block column
    C_d = (1/m) sum_k A_k e^{2 pi i d k / m} is an inverse FFT over k, real
    when real_cast finds its imaginary part negligible, and
    A[u b + r, v b + s] = C_{(u - v) mod m}[r, s].  The whole blocks that
    cover the ranges form a block-Toeplitz matrix, copied at once from C laid
    out by block offset, and the result is a slice of that copy.
    """
    m, b, _ = blocks.shape
    r, c = range(m * b)[rows], range(m * b)[cols]
    if r.step != 1 or c.step != 1:
        raise ValueError(f"assemble takes contiguous ranges, got {rows} and {cols}")
    u0, v0 = r.start // b, c.start // b
    nu, nv = -(-(r.start + len(r)) // b) - u0, -(-(c.start + len(c)) // b) - v0
    # a length-1 transform is the identity; skip copying the dense block
    first_col = real_cast(blocks if m == 1 else np.fft.ifft(blocks, axis=0))
    # diag[j] = C_{d0 + j}, so cover block (u, v) = C_{u0 + u - v0 - v} is
    # diag[u + nv - 1 - v]: a strided view, as in scipy.linalg.toeplitz
    d0 = u0 - v0 - nv + 1
    diag = first_col[np.arange(d0, d0 + nu + nv - 1) % m]
    del first_col       # only diag is held while the cover is copied
    step, row_step, col_step = diag.strides
    cover = as_strided(diag[max(nv - 1, 0):], shape=(nu, b, nv, b),
                       strides=(step, row_step, -step, col_step), writeable=False)
    r0, c0 = r.start - u0 * b, c.start - v0 * b
    return np.ascontiguousarray(cover).reshape(nu * b, nv * b)[r0:r0 + len(r), c0:c0 + len(c)]


def real_cast(matrix: np.ndarray) -> np.ndarray:
    """Drop a numerically negligible imaginary part (speeds up LAPACK paths)."""
    if np.iscomplexobj(matrix):
        scale = max(np.abs(matrix.real).max(), 1e-300)
        if np.abs(matrix.imag).max() <= _REAL_CAST_TOL * scale:
            return np.ascontiguousarray(matrix.real)
    return matrix


def _conj_t(blocks: np.ndarray) -> np.ndarray:
    return blocks.conj().swapaxes(-1, -2)


def skew_norm(blocks: np.ndarray) -> float:
    """Exact ||(A - A*)/2||_2: the largest block norm of the skew part."""
    skew = 0.5 * (blocks - _conj_t(blocks))
    if not skew.any():
        return 0.0
    # i * skew is Hermitian, and its eigenvalues are +- the singular values
    return float(np.abs(np.linalg.eigvalsh(1j * skew)).max())


def _block_size(spec: SymbolSpec, grid: Grid) -> int:
    """Rows per block b of the quantized symbol: the shift that leaves the
    Nystrom matrix unchanged, or n_x when there is none (m = 1)."""
    q = grid.omega_points() * grid.span
    if np.abs(q - np.round(q)).max() > _LATTICE_TOL:
        return grid.n_x
    if spec.time_invariant:
        return 1
    if spec.period_x is None:
        return grid.n_x
    b = round(spec.period_x / grid.h_x)
    if b < 1 or abs(b * grid.h_x - spec.period_x) > _LATTICE_TOL * spec.period_x \
            or grid.n_x % b:
        return grid.n_x
    return b


def _check_aliasing(grid: Grid) -> None:
    if 2.0 * grid.h_x * grid.omega_max > 1.0 + 1e-12:
        raise AliasingError(
            f"grid too coarse: 2 * h_x * omega_max = {2 * grid.h_x * grid.omega_max:.6f} > 1")


def _fourier_blocks(values: np.ndarray, grid: Grid, col_values=1.0) -> np.ndarray:
    """Fourier blocks of the kernel with amplitude V(x, omega) U(y, omega),
    A_k[r, s] = h_x m sum_{q = -k mod m} w_q V_r[q] U_s[q] e^{-2 pi i q (r - s) / n_x}.

    values (V) and col_values (U, default 1) hold samples of the first b
    rows; the amplitude keeps its value when x and y shift by one period.
    q = omega * span is the frequency index (an integer when m > 1; with m = 1
    every frequency falls in the one class and the block is the dense
    quadrature).
    """
    b = values.shape[0]
    m = grid.n_x // b
    omega = grid.omega_points()
    cls = np.round(-omega * grid.span).astype(np.int64) % m
    # row k of `index` lists the frequencies of class k; empty slots point at
    # an appended zero column
    counts = np.bincount(cls, minlength=m)
    order = np.lexsort((cls,))
    index = np.full((m, counts.max()), omega.size)
    index[cls[order], np.arange(omega.size) - (np.cumsum(counts) - counts)[cls[order]]] = order

    # phases relative to row 0, so a b = 1 block is real by construction
    phase = np.exp(-2j * np.pi * np.outer(np.arange(b) * grid.h_x, omega))
    zero = np.zeros((b, 1))
    left = np.concatenate([(values * grid.omega_weights()) * phase, zero], axis=1)
    right = np.concatenate([phase * np.conj(col_values), zero], axis=1)
    blocks = left.T[index].swapaxes(1, 2) @ right.T[index].conj()
    return (grid.h_x * m) * blocks


def quantize(spec: SymbolSpec, grid: Grid) -> DiscreteOperator:
    """Nystrom operator of the quantized symbol: h_x * kernel."""
    _check_aliasing(grid)
    sigma = sample_symbol(spec, grid, rows=slice(_block_size(spec, grid)))
    blocks = _fourier_blocks(sigma, grid)
    return DiscreteOperator(blocks=blocks, grid=grid, hermitian_defect=skew_norm(blocks))


def _phase(s: float, sigma: np.ndarray) -> np.ndarray:
    """tau = e^{i 2 pi s sigma}; DomainError where 2 pi s sigma overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        tau = np.exp(2j * np.pi * s * sigma)
    if not np.isfinite(tau).all():
        raise DomainError(f"e^(i 2 pi s sigma) is not finite at s = {s}")
    return tau


def order_differences(spec: SymbolSpec, s: float, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Fourier blocks of the quantization-order differences T and T', tau = e^{i 2 pi s sigma}.

    Their kernels integrate e^{-i 2 pi omega (x - y)} against tau(y, omega) -
    tau(x, omega) and sigma(x, omega) tau(y, omega) - (sigma tau)(x, omega).
    """
    _check_aliasing(grid)
    sigma = sample_symbol(spec, grid, rows=slice(_block_size(spec, grid)))
    tau = _phase(s, sigma)
    return (_fourier_blocks(np.ones_like(sigma), grid, tau) - _fourier_blocks(tau, grid),
            _fourier_blocks(sigma, grid, tau) - _fourier_blocks(sigma * tau, grid))


def product_deviations(spec: SymbolSpec, s_values, grid: Grid):
    """Fourier blocks of L_sigma L_tau - L_{sigma tau}, tau = e^{i 2 pi s sigma},
    for each s in s_values in turn, from one sample of sigma.

    tau tends to 1 at large frequency, so L_tau is quantized as identity plus
    the quantization of its decaying part tau - 1.  The constant symbol then
    maps to identity blocks, and s = 0 gives exactly zero blocks.
    """
    _check_aliasing(grid)
    b = _block_size(spec, grid)
    sigma = sample_symbol(spec, grid, rows=slice(b))
    a_sigma = _fourier_blocks(sigma, grid)
    for s in s_values:
        tau = _phase(s, sigma)
        # Fourier blocks multiply and subtract like their operators
        yield a_sigma @ (_fourier_blocks(tau - 1.0, grid) + np.eye(b)) \
            - _fourier_blocks(sigma * tau, grid)


def hermitize(a: DiscreteOperator) -> DiscreteOperator:
    """Hermitian part (A + A*)/2; the removed skew part is a.hermitian_defect."""
    blocks = 0.5 * (a.blocks + _conj_t(a.blocks))
    return DiscreteOperator(blocks=blocks, grid=a.grid, hermitian_defect=0.0)
