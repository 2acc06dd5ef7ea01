"""Water-filling power allocation: discrete spectra, continuous symbols, and
the rate functions r, p together with their smooth surrogates f_eps.

Conventions: for water level B and per-unit-time power budget S,

    capacity rate = (1/alpha) sum_{B lam_k >= 1} log(B lam_k)
    power         = (1/alpha) sum_{B lam_k >= 1} (B - 1/lam_k)

and the continuous analogue replaces the sum by the (x, omega) integral of
r(B sigma) resp. B p(B sigma) over one period cell.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainError, NoCapacityError
from .families import SymbolSpec, _family, eval_symbol
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


class _LevelTable:
    """The reciprocals inv = 1/v of a spectrum or quadrature, sorted once in
    place, so that the water level of each budget is a search.

    inv ascends, 1/v = inf (v <= 0) last.  Each entry weighs `weight`, those
    also in `ends` (the trapezoid's end nodes) weight/2.  Over the finite
    entries, heads[c] = sum(inv[:c CHUNK]) and head_power[c] is the power at
    the level inv[c CHUNK].  The arrays are read-only."""
    CHUNK = 256

    @np.errstate(over="ignore", invalid="ignore")    # an overflowing power never activates
    def __init__(self, inv: np.ndarray, weight: float, ends: np.ndarray = np.empty(0)):
        inv.sort()
        self.inv, self.weight, self.ends = inv, weight, np.sort(ends)
        self.ends_sum = np.concatenate(([0.0], np.cumsum(self.ends)))  # sums of ends[:j]
        self.n_finite = int(inv.searchsorted(np.inf))
        k = np.arange(0, self.n_finite, self.CHUNK)
        sums = inv[:max(k.size - 1, 0) * self.CHUNK].reshape(-1, self.CHUNK).sum(axis=1)
        self.heads = np.concatenate(([0.0], np.cumsum(sums)))[:k.size]
        self.head_power = self.power(k, inv[k], self.heads)
        for a in (inv, self.ends, self.ends_sum, self.heads, self.head_power):
            a.flags.writeable = False

    def power(self, k, p, below):
        """w (k p - below) - (w/2) sum_{ends < p} (p - end): the power at the
        level p = inv[k], where `below` = sum(inv[:k])."""
        j = self.ends.searchsorted(p)
        return self.weight * (k * p - below - 0.5 * (j * p - self.ends_sum[j]))

    @np.errstate(over="ignore", invalid="ignore")    # an overflow ends in the DomainError below
    def solve(self, S: float) -> WaterfillSolution:
        """The water level of the budget S.

        power(B) = sum_{inv < B} w (B - inv),  rate(B) = sum_{inv < B} w log(B/inv),
        with w/2 on the end nodes.  The active prefix inv[:a] ends at the first
        entry whose power reaches S: a binary search on the chunk heads'
        powers finds its chunk, one vectorised pass the entry, and a tie
        group stays active or inactive as a whole.  B then solves power(B) = S
        in closed form on the prefix.  DomainError when B, the rate or the
        power overflows.
        """
        inv, w, ends = self.inv, self.weight, self.ends
        lo, a = float(inv[0]), 0           # B >= 1/v_max
        c = int(self.head_power.searchsorted(S))   # chunk heads whose power is below S
        if c:                              # the prefix ends in chunk c - 1
            s = (c - 1) * self.CHUNK
            seg = inv[s:min(s + self.CHUNK, self.n_finite)]
            below = np.cumsum(seg) - seg + self.heads[c - 1]    # sum(inv[:k]), k in the chunk
            a = s + int(self.power(np.arange(s, s + seg.size), seg, below).searchsorted(S))
            a = int(inv.searchsorted(inv[a])) if a < inv.size else a  # ties together
        act, h = inv[:a], ends[:ends.searchsorted(inv[a - 1] if a else -np.inf, "right")]
        total = w * (a - 0.5 * h.size)
        # the prefix is empty at S = 0, or when power(lo) >= S rounds with ties at lo
        B = max(lo, (S + w * (float(act.sum()) - 0.5 * float(h.sum()))) / total) if a else lo
        # one buffer over the prefix: first the gaps max(B - 1/v, 0), whose sum
        # does not cancel as B a - sum 1/v does when B is near every 1/v ...
        buf = np.subtract(B, act)
        power = w * (float(np.maximum(buf, 0.0, out=buf).sum())
                     - 0.5 * float(np.maximum(B - h, 0.0).sum()))
        np.divide(B, act, out=buf)         # ... then log(B/inv), zero where B/inv <= 1
        np.log(np.maximum(buf, 1.0, out=buf), out=buf)
        return _finite(WaterfillSolution(
            B=float(B),
            capacity_rate=w * (float(buf.sum())
                               - 0.5 * float(np.log(np.maximum(B / h, 1.0)).sum())),
            power_achieved=power,
            active_count=int(act.searchsorted(B))))


def _finite(sol: WaterfillSolution) -> WaterfillSolution:
    if not all(map(math.isfinite, (sol.B, sol.capacity_rate, sol.power_achieved))):
        raise DomainError(f"water-filling overflows: B = {sol.B}, capacity rate = "
                          f"{sol.capacity_rate}, power = {sol.power_achieved}")
    return sol


def waterfill_discrete(spectrum, S: float, alpha: float) -> WaterfillSolution:
    """Water-fill a discrete spectrum against the per-unit-time budget S.

    The eigenvalues may come in any order, each with weight 1/alpha; the
    solution does not depend on the order.  Nonpositive eigenvalues never
    activate and are ignored; a spectrum with no positive eigenvalue raises
    NoCapacityError, and a non-finite eigenvalue or budget DomainError.
    """
    if not 0.0 <= S < math.inf:
        raise DomainError(f"power budget S must be finite and nonnegative, got {S}")
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
    return _LevelTable(inv, 1.0 / alpha).solve(float(S))


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
    The last few symbols' level tables are cached, so a further budget is a search.
    DomainError for a negative or non-finite S or omega_max, or a density that is
    not a positive integer.
    """
    if not 0.0 <= S < math.inf:
        raise DomainError(f"power budget S must be finite and nonnegative, got {S}")
    if not isinstance(density, numbers.Integral) or isinstance(density, bool) or density < 1:
        raise DomainError(f"quadrature density must be a positive integer, got {density!r}")
    if not (math.isfinite(omega_max) and omega_max * density > 0.5):  # round(0.5) = 0
        raise DomainError(f"omega_max * density must exceed 0.5 for a trapezoid of 3 or more "
                          f"nodes, and omega_max be finite, got {omega_max} * {density}")
    table, zero = _symbol_table(spec, _family(spec.family_name).sigma, int(density), omega_max)
    sol = table.solve(float(S))
    # every active node but those at omega = 0 has an active mirror
    return replace(sol, active_count=2 * sol.active_count - int(np.searchsorted(zero, sol.B)))


@functools.lru_cache(maxsize=4)
def _symbol_table(spec: SymbolSpec, sigma_fn, density: int,
                  omega_max: float) -> tuple[_LevelTable, np.ndarray]:
    """The level table of waterfill_symbol's folded quadrature and the sorted
    1/v of its omega = 0 column.  sigma_fn, the registry's sigma, only keys
    the cache: a replaced registry entry gets a table of its own."""
    half_nodes = int(round(omega_max * density))
    omega = np.linspace(-omega_max, omega_max, 2 * half_nodes + 1)[half_nodes:]
    x = np.arange(1 if spec.time_invariant else density) / density
    w_x = 1.0 / x.size
    # the families return fresh arrays, so 1/sigma can overwrite sigma
    sigma = np.require(eval_symbol(spec, x[:, None], omega[None, :]),
                       dtype=float, requirements="CW")
    pos = sigma > 0.0
    if not pos.any():
        raise NoCapacityError("symbol is nonpositive everywhere on the quadrature grid")
    with np.errstate(divide="ignore", over="ignore"):
        inv = np.divide(1.0, sigma, out=sigma)
    np.copyto(inv, np.inf, where=~pos)     # 1/v = inf never activates
    # the two half-weight columns, copied before the sort reorders inv
    ends = inv[:, [0, -1]]
    zero = np.sort(ends[:, 0])
    zero.flags.writeable = False
    return _LevelTable(inv.ravel(), 2.0 * w_x * (omega_max / half_nodes), ends.ravel()), zero


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
