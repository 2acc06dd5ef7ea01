"""Water-filling power allocation: discrete spectra, continuous symbols, and
the rate functions r, p together with their smooth surrogates f_eps.

Conventions: for water level B and per-unit-time power budget S,

    capacity rate = (1/alpha) sum_{B lam_k >= 1} log(B lam_k)
    power         = (1/alpha) sum_{B lam_k >= 1} (B - 1/lam_k)

and the continuous analogue replaces the sum by the (x, omega) integral of
r(B sigma) resp. B p(B sigma) over one period cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NoCapacityError, UnsupportedSymbolError
from .families import SymbolSpec, eval_symbol
from .grid import DEFAULT_OMEGA_MAX, DEFAULT_QUAD_DENSITY


def rate_log(x) -> np.ndarray:
    """r(x) = log(x) on [1, inf), zero elsewhere."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    act = x >= 1.0
    out[act] = np.log(x[act])
    return out


def smoothstep(t) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly increasing between."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    with np.errstate(over="ignore"):
        a = np.exp(-1.0 / tm)
        b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


def build_f_eps(eps: float) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth surrogate f_eps(x) = log(x) * step((x-1)/eps), rolled off to zero
    on [16, 17] so the result has compact support.

    f_eps agrees with the rate r(x) = log(x) * chi_[1,inf) exactly for x <= 1
    and 1 + eps <= x <= 16, so eps must lie in (0, 15).
    """
    if not 0.0 < eps < 15.0:
        raise DomainError(f"eps must lie in (0, 15), got {eps}")

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 1.0
        if np.any(pos):
            xp = x[pos]
            out[pos] = (np.log(xp) * smoothstep((xp - 1.0) / eps)
                        * (1.0 - smoothstep(xp - 16.0)))
        return out

    return f


@dataclass(frozen=True)
class WaterfillSolution:
    B: float
    capacity_rate: float
    power_achieved: float
    active_count: int


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) in numpy, not BLAS: the same bits for any BLAS thread count."""
    return float(np.einsum("i,i->", a, b))


def _solve_level(values: np.ndarray, weights: np.ndarray, S: float) -> WaterfillSolution:
    """Shared solver: values (positive, any order) with quadrature weights.

    power(B) = sum_{B v >= 1} w (B - 1/v),  rate(B) = sum_{B v >= 1} w log(B v).
    B solves power(B) = S in closed form on the active set, which a sort-free
    breakpoint search over inv = 1/v finds (Michelot 1986; Kiwiel 2008).  The
    linear model on the known-active entries and the candidates has a root
    Bm >= B, and every other entry has inv >= Bm.  Each round drops the
    candidates with inv > Bm (if none, B = Bm), then splits the rest at their
    median p: if power(p) < S every inv <= p is active, else every inv >= p is
    inactive.  Each round halves the candidates, so a solve is O(n).
    """
    with np.errstate(over="ignore"):       # 1/v = inf never activates
        inv = 1.0 / values
    w = weights
    top = int(np.argmin(inv))
    lo = float(inv[top])                   # B >= 1/v_max
    if S == 0.0:
        return WaterfillSolution(B=lo, capacity_rate=0.0,
                                 power_achieved=0.0, active_count=0)
    hi = lo + S / float(w[top])            # B <= hi, where the top entry alone takes S
    W = WI = 0.0                           # sums of w and w inv over the known active
    known_inv, known_w = [], []
    while True:
        B = max(lo, (S + WI + _dot(w, inv)) / (W + float(w.sum())))
        keep = inv <= min(hi, B)
        if keep.all():
            break
        inv, w = inv[keep], w[keep]
        if inv.size == 0:
            continue
        p = np.partition(inv, inv.size // 2)[inv.size // 2]
        low = inv <= p
        inv_low, w_low = inv[low], w[low]
        W_low, WI_low = W + float(w_low.sum()), WI + _dot(w_low, inv_low)
        if W_low * p - WI_low < S:         # power(p) < S: every inv <= p is active
            known_inv.append(inv_low)
            known_w.append(w_low)
            W, WI = W_low, WI_low
            inv, w = inv[~low], w[~low]
        else:                              # B <= p: every inv >= p is inactive
            below = inv_low < p
            inv, w = inv_low[below], w_low[below]
    inv = np.concatenate(known_inv + [inv])
    w = np.concatenate(known_w + [w])
    act = inv < B                          # strictly B v > 1
    return WaterfillSolution(B=float(B),
                             capacity_rate=_dot(w[act], np.log(B / inv[act])),
                             power_achieved=float(B * w.sum() - _dot(w, inv)),
                             active_count=int(np.count_nonzero(act)))


def waterfill_discrete(spectrum, S: float, alpha: float) -> WaterfillSolution:
    """Water-fill a discrete spectrum against the per-unit-time budget S.

    The eigenvalues may come in any order, each with weight 1/alpha.
    Nonpositive eigenvalues never activate and are ignored; a spectrum with no
    positive eigenvalue raises NoCapacityError, and a non-finite eigenvalue
    DomainError.
    """
    if S < 0:
        raise DomainError(f"power budget S must be nonnegative, got {S}")
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not np.isfinite(1.0 / alpha):
        raise DomainError(f"alpha {alpha} is too small: the weight 1/alpha overflows")
    values = np.asarray(spectrum, dtype=float)
    if not np.all(np.isfinite(values)):
        raise DomainError(f"eigenvalues must be finite, got {values[~np.isfinite(values)][:5]}")
    pos = values[values > 0.0]
    if pos.size == 0:
        raise NoCapacityError("no positive eigenvalues to allocate power over")
    weights = np.full(pos.size, 1.0 / alpha)
    return _solve_level(pos, weights, float(S))


def waterfill_symbol(spec: SymbolSpec, S: float, density: int = DEFAULT_QUAD_DENSITY,
                     omega_max: float = DEFAULT_OMEGA_MAX) -> WaterfillSolution:
    """Water-fill the continuous symbol: rate = integral of r(B sigma) over one
    period cell x in [0,1) and the truncated frequency axis.

    The tensor quadrature takes `density` uniform (periodic) nodes in x and a
    trapezoid of 2 round(omega_max density) + 1 nodes on [-omega_max, omega_max].
    """
    if S < 0:
        raise DomainError(f"power budget S must be nonnegative, got {S}")
    if not spec.unit_periodic:
        raise UnsupportedSymbolError(
            "continuous water-filling needs a time-invariant or 1-periodic symbol")

    n = 2 * int(round(omega_max * density)) + 1
    omega = np.linspace(-omega_max, omega_max, n)
    w_om = np.full(n, 2.0 * omega_max / (n - 1))
    w_om[[0, -1]] *= 0.5
    if spec.time_invariant:
        sigma = np.asarray(eval_symbol(spec, 0.0, omega), dtype=float)[None, :]
        w_x = 1.0
    else:
        x = np.arange(density) / density
        sigma = np.asarray(eval_symbol(spec, x[:, None], omega[None, :]), dtype=float)
        w_x = 1.0 / x.size

    pos = sigma > 0.0
    if not np.any(pos):
        raise NoCapacityError("symbol is nonpositive everywhere on the quadrature grid")
    weights = np.broadcast_to(w_x * w_om, sigma.shape)[pos]
    return _solve_level(sigma[pos], weights, float(S))


def sup_abs_second_derivative(f, lo: float, hi: float) -> float:
    """Sup norm of f'' on [lo, hi] by central second differences on 400,001 points."""
    xs = np.linspace(lo, hi, 400001)
    h = xs[1] - xs[0]
    v = np.asarray(f(xs), dtype=float)
    d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h ** 2
    return float(np.abs(d2).max())
