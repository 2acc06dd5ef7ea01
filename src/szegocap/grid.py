"""Discretization grid: a padded time window paired with a truncated frequency axis.

The time axis covers [x_min, x_max) with n_x cells of width h_x; sample points
sit at cell midpoints so that interval-restricted sums are midpoint quadratures
(second order, no boundary term).  The frequency axis is the closed symmetric
interval [-omega_max, omega_max] with trapezoidal weights.  The pairing
h_omega <= 1/(x_max - x_min) keeps the discrete transform non-aliasing: the
kernel periodization images sit at least one full span away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

DEFAULT_H_X = 1.0 / 16.0
DEFAULT_OMEGA_MAX = 8.0
DEFAULT_PADDING = 8.0
DEFAULT_QUAD_DENSITY = 256      # symbol water-fill nodes per unit of x and of omega


@dataclass(frozen=True)
class Grid:
    alpha: float
    x_min: float
    x_max: float
    h_x: float
    omega_max: float
    h_omega: float
    n_x: int
    n_omega: int

    @property
    def span(self) -> float:
        return self.x_max - self.x_min

    def x_points(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_x) + 0.5) * self.h_x

    def omega_points(self) -> np.ndarray:
        return np.linspace(-self.omega_max, self.omega_max, self.n_omega)

    def omega_weights(self) -> np.ndarray:
        w = np.full(self.n_omega, self.h_omega)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @property
    def window(self) -> slice:
        """The rows whose sample points lie inside the window (0, alpha)."""
        x = self.x_points()
        return slice(int(np.searchsorted(x, 0.0, side="right")),
                     int(np.searchsorted(x, self.alpha, side="left")))

    def window_counts(self, b: int) -> np.ndarray:
        """How many window rows i have i mod b = r, for r = 0, ..., b - 1."""
        return np.bincount(np.arange(self.n_x)[self.window] % b, minlength=b)


def make_grid(alpha: float,
              h_x: float = DEFAULT_H_X,
              omega_max: float = DEFAULT_OMEGA_MAX,
              padding: float = DEFAULT_PADDING,
              h_omega: float | None = None) -> Grid:
    """Build a padded grid for the window [0, alpha].

    Raises DomainError on a non-finite argument, or when the requested geometry
    cannot be realized exactly (non-integer cell counts) or violates the
    non-aliasing pairing.
    """
    for name, v in (("alpha", alpha), ("h_x", h_x), ("omega_max", omega_max),
                    ("padding", padding), ("h_omega", h_omega)):
        if v is not None and not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v}")
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if h_x <= 0 or omega_max <= 0 or padding < 0:
        raise DomainError("h_x and omega_max must be positive, padding nonnegative")

    x_min = -float(padding)
    x_max = float(alpha) + float(padding)
    span = x_max - x_min

    n_x = round(span / h_x)
    if abs(n_x * h_x - span) > 1e-9 * span:
        raise DomainError(f"span {span} is not an integer multiple of h_x {h_x}")

    if h_omega is None:
        h_omega = 1.0 / span
    if h_omega > 1.0 / span + 1e-12:
        raise DomainError(
            f"h_omega {h_omega} violates the non-aliasing bound 1/span = {1.0 / span}")

    # in frequency-index units, with the tolerance of quantize's lattice test
    n_half = round(omega_max / h_omega)
    if abs(omega_max / h_omega - n_half) > 1e-9:
        raise DomainError(
            f"omega_max {omega_max} is not an integer multiple of h_omega {h_omega}")
    n_omega = 2 * n_half + 1

    return Grid(alpha=float(alpha), x_min=x_min, x_max=x_max, h_x=float(h_x),
                omega_max=float(omega_max), h_omega=float(h_omega),
                n_x=int(n_x), n_omega=int(n_omega))
