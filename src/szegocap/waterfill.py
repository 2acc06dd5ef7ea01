"""Water-filling power allocation: discrete spectra, continuous symbols, and
the rate functions r, p together with their smooth surrogates f_eps.

Conventions: for water level B and per-unit-time power budget S,

    capacity rate = (1/alpha) sum_{B lam_k >= 1} log(B lam_k)
    power         = (1/alpha) sum_{B lam_k >= 1} (B - 1/lam_k)

and the continuous analogue replaces the sum by the (x, omega) integral of
r(B sigma) resp. B p(B sigma) over one period cell.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainError, NoCapacityError
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


@np.errstate(over="ignore", invalid="ignore")    # an overflow ends in the DomainError below
def _solve_level(inv: np.ndarray, weight: float, S: float,
                 half: np.ndarray | None = None) -> WaterfillSolution:
    """Shared solver over the reciprocals inv = 1/v of the positive values.

    Every entry weighs `weight`, except the entries whose 1/v is also listed in
    `half` (the trapezoid's end nodes), which weigh weight/2.  inv is a
    contiguous 1-D array that the solver reorders in place.

    power(B) = sum_{inv < B} w (B - inv),  rate(B) = sum_{inv < B} w log(B/inv).
    B solves power(B) = S in closed form on the active set, which a sort-free
    breakpoint search finds (Michelot 1986; Kiwiel 2008).  inv[:a] is known
    active and inv[b:] inactive; each round partitions the candidates
    inv[a:b] in place at their median p: if power(p) < S, p and every entry
    left of it are active, else p and every entry right of it are inactive.
    Each round halves the candidates, so a solve is O(n).  Entries with
    1/v = inf never activate.  DomainError when B, the rate or the power
    overflows.
    """
    lo = float(inv.min())                  # B >= 1/v_max
    if S == 0.0:
        return _finite(WaterfillSolution(B=lo, capacity_rate=0.0,
                                         power_achieved=0.0, active_count=0))
    # the half-weight entries sorted, as lists that the pivot test bisects
    half = np.empty(0) if half is None else np.sort(half)
    ends = half.tolist()
    ends_sum = [0.0, *itertools.accumulate(ends)]  # ends_sum[j] = sum(ends[:j])
    a, b = 0, inv.size
    known = 0.0                            # sum of inv[:a]
    p_low = -math.inf                      # inv[:a] holds exactly the entries <= p_low
    while a < b:
        cand, m = inv[a:b], (b - a) // 2
        cand.partition(m)
        p = float(cand[m])
        below = known + float(cand[:m].sum())
        j = bisect.bisect_left(ends, p)    # end nodes with inv < p
        power = weight * ((a + m) * p - below) - 0.5 * weight * (j * p - ends_sum[j])
        if p <= p_low or power < S:        # B > p; p == p_low keeps ties together
            a, known, p_low = a + m + 1, below + p, p
        else:                              # B <= p
            b = a + m
    act, h = inv[:a], half[:bisect.bisect_right(ends, p_low)]
    total = weight * (a - 0.5 * h.size)
    # the prefix is empty only when power(lo) >= S rounds with ties at p = lo
    B = max(lo, (S + weight * (known - 0.5 * float(h.sum()))) / total) if a else lo
    # one buffer over the prefix: first the gaps max(B - 1/v, 0), whose sum
    # does not cancel as B a - sum 1/v does when B is near every 1/v ...
    buf = np.subtract(B, act)
    power = weight * (float(np.maximum(buf, 0.0, out=buf).sum())
                      - 0.5 * float(np.maximum(B - h, 0.0).sum()))
    np.divide(B, act, out=buf)             # ... then log(B/inv), zero where B/inv <= 1
    np.log(np.maximum(buf, 1.0, out=buf), out=buf)
    return _finite(WaterfillSolution(
        B=float(B),
        capacity_rate=weight * (float(buf.sum())
                                - 0.5 * float(np.log(np.maximum(B / h, 1.0)).sum())),
        power_achieved=power,
        active_count=int(np.count_nonzero(act < B))))


def _finite(sol: WaterfillSolution) -> WaterfillSolution:
    if not all(map(math.isfinite, (sol.B, sol.capacity_rate, sol.power_achieved))):
        raise DomainError(f"water-filling overflows: B = {sol.B}, capacity rate = "
                          f"{sol.capacity_rate}, power = {sol.power_achieved}")
    return sol


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
    inv = values[values > 0.0]
    if inv.size == 0:
        raise NoCapacityError("no positive eigenvalues to allocate power over")
    with np.errstate(over="ignore"):       # 1/v = inf never activates
        np.divide(1.0, inv, out=inv)
    return _solve_level(inv, 1.0 / alpha, float(S))


def waterfill_symbol(spec: SymbolSpec, S: float, density: int = DEFAULT_QUAD_DENSITY,
                     omega_max: float = DEFAULT_OMEGA_MAX) -> WaterfillSolution:
    """Water-fill the continuous symbol: rate = integral of r(B sigma) over one
    period cell x in [0,1) and the truncated frequency axis.

    The tensor quadrature takes `density` uniform (periodic) nodes in x, one
    for a time-invariant symbol, and a trapezoid of 2 round(omega_max density)
    + 1 nodes on [-omega_max, omega_max].
    Every registered symbol is even in omega, so it is evaluated on the
    omega >= 0 nodes only, each omega > 0 node standing for its mirror too:
    the omega = 0 column and the end column then weigh half as much as the rest.
    """
    if S < 0:
        raise DomainError(f"power budget S must be nonnegative, got {S}")
    if not omega_max * density > 0.5:     # round(0.5) = 0 would leave one node
        raise DomainError(f"omega_max * density must exceed 0.5 for a trapezoid of 3 or "
                          f"more nodes, got {omega_max} * {density}")
    half_nodes = int(round(omega_max * density))
    omega = np.linspace(-omega_max, omega_max, 2 * half_nodes + 1)[half_nodes:]
    x = np.arange(1 if spec.time_invariant else density) / density
    sigma = eval_symbol(spec, x[:, None], omega[None, :])
    w_x = 1.0 / x.size
    # the families return fresh arrays, so 1/sigma can overwrite sigma
    sigma = np.require(sigma, dtype=float, requirements="CW")
    pos = sigma > 0.0
    if not pos.any():
        raise NoCapacityError("symbol is nonpositive everywhere on the quadrature grid")
    with np.errstate(divide="ignore", over="ignore"):
        inv = np.divide(1.0, sigma, out=sigma)
    np.copyto(inv, np.inf, where=~pos)     # 1/v = inf never activates
    # the two half-weight columns, copied before the solve reorders inv
    ends = inv[:, [0, -1]]
    sol = _solve_level(inv.ravel(), 2.0 * w_x * (omega_max / half_nodes), float(S),
                       ends.ravel())
    # every active node but those at omega = 0 has an active mirror
    return replace(
        sol, active_count=2 * sol.active_count - int(np.count_nonzero(ends[:, 0] < sol.B)))


def sup_abs_second_derivative(f, lo: float, hi: float) -> float:
    """Sup norm of f'' on [lo, hi] by central second differences on 400,001 points.

    Raises DomainError when the squared step is not a positive normal float:
    an interval narrower than about 6e-149 would divide by a subnormal or by
    0, and one wider than about 5e159 by inf."""
    xs = np.linspace(lo, hi, 400001)
    h = xs[1] - xs[0]
    with np.errstate(over="ignore"):
        h2 = h ** 2
    if not sys.float_info.min <= h2 <= sys.float_info.max:
        raise DomainError(f"interval [{lo!r}, {hi!r}] is out of range for f'' by second "
                          f"differences: the squared step {float(h2)!r} is not a positive "
                          "normal float")
    v = np.asarray(f(xs), dtype=float)
    d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    return float(np.abs(d2).max())
