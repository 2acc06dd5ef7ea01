"""Quantized operators on a grid, held as the Fourier blocks of a block-circulant
matrix.

On the padded grid the Nystrom matrix h_x * k(x_i, x_j) of a symbol of
period 1 in time (the registry contract, see families) is block-circulant
when the frequency samples sit on the lattice Z / span: shifting both
indices by b = 1 / h_x rows leaves it unchanged, and the shift wraps around
after m = n_x / b blocks.  A time-invariant symbol gives b = 1.  Such a
matrix is stored as its m Fourier blocks (shape (m, b, b)): the discrete
Fourier transform over the block index turns it into a block-diagonal matrix
with these blocks, by a unitary change of basis.  Products, adjoints,
Hermitian parts, spectra and operator norms therefore act block by block, as
numpy operations on the stacked blocks.  A grid without that shift symmetry gives m = 1, whose single
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

    rows and cols are contiguous ranges (step 1).  With the first block
    column C (first_column), A[u b + r, v b + s] = C_{(u - v) mod m}[r, s].
    The whole blocks that cover the ranges form a block-Toeplitz matrix,
    copied at once from C laid out by block offset; the result is a slice.
    """
    m, b, _ = blocks.shape
    r, c = range(m * b)[rows], range(m * b)[cols]
    if r.step != 1 or c.step != 1:
        raise ValueError(f"assemble takes contiguous ranges, got {rows} and {cols}")
    u0, v0 = r.start // b, c.start // b
    nu, nv = -(-(r.start + len(r)) // b) - u0, -(-(c.start + len(c)) // b) - v0
    # diag[j] = C_{d0 + j}, so cover block (u, v) = C_{u0 + u - v0 - v} is
    # diag[u + nv - 1 - v]: a strided view with a negative column stride
    d0 = u0 - v0 - nv + 1
    diag = first_column(blocks)[np.arange(d0, d0 + nu + nv - 1) % m]
    step, row_step, col_step = diag.strides
    cover = as_strided(diag[max(nv - 1, 0):], shape=(nu, b, nv, b),
                       strides=(step, row_step, -step, col_step), writeable=False)
    r0, c0 = r.start - u0 * b, c.start - v0 * b
    return np.ascontiguousarray(cover).reshape(nu * b, nv * b)[r0:r0 + len(r), c0:c0 + len(c)]


def first_column(blocks: np.ndarray) -> np.ndarray:
    """C_d = (1/m) sum_k A_k e^{2 pi i d k / m}, shape (m, b, b): an inverse FFT
    over k, real when real_cast finds its imaginary part negligible."""
    # a length-1 transform is the identity; skip copying the dense block
    return real_cast(blocks if blocks.shape[0] == 1 else np.fft.ifft(blocks, axis=0))


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
    Nystrom matrix unchanged, or n_x when there is none (m = 1).  m > 1 needs
    the indices omega * span to be the consecutive integers -N..N."""
    q = np.arange(grid.n_omega) - grid.n_omega // 2
    if np.abs(grid.omega_points() * grid.span - q).max() > _LATTICE_TOL:
        return grid.n_x
    if spec.time_invariant:
        return 1
    b = round(1.0 / grid.h_x)       # the period is 1 (the registry contract)
    if b < 1 or abs(b * grid.h_x - 1.0) > _LATTICE_TOL or grid.n_x % b:
        return grid.n_x
    return b


def period_samples(spec: SymbolSpec, grid: Grid) -> np.ndarray:
    """sigma on one period, the first b = _block_size rows: shape (b, n_omega)."""
    if 2.0 * grid.h_x * grid.omega_max > 1.0 + 1e-12:
        raise AliasingError(
            f"grid too coarse: 2 * h_x * omega_max = {2 * grid.h_x * grid.omega_max:.6f} > 1")
    return sample_symbol(spec, grid, rows=slice(_block_size(spec, grid)))


def _fourier_blocks(values: np.ndarray, grid: Grid, col_values=1.0) -> np.ndarray:
    """Fourier blocks of the kernel with amplitude V(x, omega) U(y, omega),
    A_k[r, s] = h_x m sum_{q = -k mod m} w_q V_r[q] U_s[q] e^{-2 pi i q (r - s) / n_x}.

    values (V) and col_values (U, default 1) hold samples of the first b
    rows; the amplitude keeps its value when x and y shift by one period.
    Frequency j has index q = j - N, so with the columns padded to whole rows
    of m, class k is column (N - k) mod m; m = 1 gives the dense quadrature.
    """
    b = values.shape[0]
    m = grid.n_x // b
    omega = grid.omega_points()
    cls = (omega.size // 2 - np.arange(m)) % m
    # phases relative to row 0, so a b = 1 block is real by construction
    phase = np.exp(-2j * np.pi * np.outer(np.arange(b) * grid.h_x, omega))
    # (b, n_omega) -> (rows, m, b): the frequencies of class k in column k
    left, right = (np.pad(a, ((0, 0), (0, -omega.size % m))).T.reshape(-1, m, b)[:, cls]
                   for a in ((values * grid.omega_weights()) * phase, phase * np.conj(col_values)))
    return (grid.h_x * m) * (left.transpose(1, 2, 0) @ right.swapaxes(0, 1).conj())


def quantize(spec: SymbolSpec, grid: Grid) -> DiscreteOperator:
    """Nystrom operator of the quantized symbol: h_x * kernel."""
    blocks = _fourier_blocks(period_samples(spec, grid), grid)
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
    sigma = period_samples(spec, grid)
    tau = _phase(s, sigma)
    return (_fourier_blocks(np.ones_like(sigma), grid, tau) - _fourier_blocks(tau, grid),
            _fourier_blocks(sigma, grid, tau) - _fourier_blocks(sigma * tau, grid))


def product_deviations(spec: SymbolSpec, s_values, grid: Grid):
    """The Fourier blocks of L_sigma, and an iterator over those of
    L_sigma L_tau - L_{sigma tau}, tau = e^{i 2 pi s sigma}, for each s in
    s_values in turn, all from one sample of sigma.

    tau tends to 1 at large frequency, so L_tau is quantized as identity plus
    the quantization of its decaying part tau - 1.  The constant symbol then
    maps to identity blocks, and s = 0 gives exactly zero blocks.
    """
    sigma = period_samples(spec, grid)
    a_sigma = _fourier_blocks(sigma, grid)

    def deviation(s: float) -> np.ndarray:
        tau = _phase(s, sigma)
        # Fourier blocks multiply and subtract like their operators
        return a_sigma @ (_fourier_blocks(tau - 1.0, grid) + np.eye(sigma.shape[0])) \
            - _fourier_blocks(sigma * tau, grid)

    return a_sigma, map(deviation, s_values)


def hermitize(a: DiscreteOperator) -> DiscreteOperator:
    """Hermitian part (A + A*)/2; the removed skew part is a.hermitian_defect."""
    blocks = 0.5 * (a.blocks + _conj_t(a.blocks))
    return DiscreteOperator(blocks=blocks, grid=a.grid, hermitian_defect=0.0)
