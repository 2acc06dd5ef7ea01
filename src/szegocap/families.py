"""Registered time-varying transfer function families sigma(x, omega).

Each family provides vectorized evaluation, analytic partial derivatives, and
a kernel envelope psi with |k(x, x-z)|^2 <= psi(z) plus a tail constant c such
that the tail integral of psi beyond s is bounded by c/s.

Families:
  band_constant      c * indicator(|omega| <= W); time-invariant.  Jump points
                     evaluate to c/2 (Fourier midpoint convention), which keeps
                     trapezoidal integrals exact when W lies on the grid.
  cosine_gauss       ((1 + cos 2 pi x)/2) * exp(-omega^2 / (2 w^2)); 1-periodic.
  square_smooth      smoothed square wave in x times a raised-cosine band in
                     omega; 1-periodic, C^1 in omega.
  two_tone           (0.6 + 0.4 cos 2 pi x) * squared-Lorentzian band; 1-periodic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError

_JUMP_TOL = 1e-9


@dataclass(frozen=True)
class SymbolSpec:
    """A named parametric symbol with periodicity and decay metadata."""
    family_name: str
    params: tuple[tuple[str, float], ...]
    period_x: float | None
    omega_decay: str
    smoothness_order: int
    time_invariant: bool = False

    @property
    def param_map(self) -> dict[str, float]:
        return dict(self.params)


@dataclass(frozen=True)
class KernelEnvelope:
    """Pointwise kernel bound psi and its tail constant."""
    psi: Callable[[np.ndarray], np.ndarray]
    tail_constant: float


@dataclass(frozen=True)
class _Family:
    name: str
    defaults: dict[str, float]
    validate: Callable[[dict[str, float]], None]
    sigma: Callable[..., np.ndarray]
    sigma_dx: Callable[..., np.ndarray]
    sigma_domega: Callable[..., np.ndarray]
    period_x: float | None
    omega_decay: str
    smoothness_order: int
    time_invariant: bool
    psi: Callable[[dict[str, float]], Callable[[np.ndarray], np.ndarray]]


def _require_positive(params: dict[str, float], *names: str) -> None:
    for n in names:
        if not params[n] > 0:
            raise DomainError(f"parameter {n!r} must be positive, got {params[n]}")


def _bx(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


# --- band_constant -----------------------------------------------------------

def _band_sigma(x, omega, p):
    c, W = p["c"], p["W"]
    a = np.abs(_bx(omega))
    vals = np.where(a < W - _JUMP_TOL, c, 0.0)
    vals = np.where(np.abs(a - W) <= _JUMP_TOL, 0.5 * c, vals)
    out = np.broadcast_arrays(_bx(x), vals)[1]
    return out.copy()


def _band_zero(x, omega, p):
    return np.zeros(np.broadcast_shapes(np.shape(_bx(x)), np.shape(_bx(omega))))


def _band_psi(p):
    c, W = p["c"], p["W"]
    peak = (2.0 * W * c) ** 2

    def psi(z):
        z = _bx(z)
        with np.errstate(divide="ignore"):
            decay = 1.0 / np.maximum(2.0 * np.pi * W * np.abs(z), 1e-300) ** 2
        return 4.0 * peak * np.minimum(1.0, decay)

    return psi


# --- cosine_gauss ------------------------------------------------------------

def _cg_time(x):
    return 0.5 * (1.0 + np.cos(2.0 * np.pi * _bx(x)))


def _cg_sigma(x, omega, p):
    return _cg_time(x) * np.exp(-_bx(omega) ** 2 / (2.0 * p["w"] ** 2))


def _cg_dx(x, omega, p):
    return -np.pi * np.sin(2.0 * np.pi * _bx(x)) * np.exp(-_bx(omega) ** 2 / (2.0 * p["w"] ** 2))


def _cg_domega(x, omega, p):
    w = p["w"]
    return _cg_time(x) * (-_bx(omega) / w ** 2) * np.exp(-_bx(omega) ** 2 / (2.0 * w ** 2))


def _cg_psi(p):
    w = p["w"]

    def psi(z):
        return 4.0 * 2.0 * np.pi * w ** 2 * np.exp(-4.0 * np.pi ** 2 * w ** 2 * _bx(z) ** 2)

    return psi


# --- square_smooth -----------------------------------------------------------

def _sq_time(x, steep):
    return 0.5 * (1.0 + np.tanh(steep * np.sin(2.0 * np.pi * _bx(x))))


def _raised_cosine(omega, W, beta):
    a = np.abs(_bx(omega))
    lo = W * (1.0 - beta)
    hi = W * (1.0 + beta)
    out = np.zeros_like(a)
    out[a <= lo] = 1.0
    mid = (a > lo) & (a < hi)
    out[mid] = 0.5 * (1.0 + np.cos(np.pi * (a[mid] - lo) / (2.0 * beta * W)))
    return out


def _sq_validate(p):
    _require_positive(p, "c", "W", "steep")
    if not 0.0 < p["beta"] <= 1.0:
        raise DomainError(f"parameter 'beta' must lie in (0, 1], got {p['beta']}")


def _sq_sigma(x, omega, p):
    return p["c"] * _sq_time(x, p["steep"]) * _raised_cosine(omega, p["W"], p["beta"])


def _sq_dx(x, omega, p):
    sech2 = 1.0 / np.cosh(p["steep"] * np.sin(2.0 * np.pi * _bx(x))) ** 2
    dt = np.pi * p["steep"] * np.cos(2.0 * np.pi * _bx(x)) * sech2
    return p["c"] * dt * _raised_cosine(omega, p["W"], p["beta"])


def _sq_domega(x, omega, p):
    W, beta = p["W"], p["beta"]
    om = _bx(omega)
    a = np.abs(om)
    lo = W * (1.0 - beta)
    hi = W * (1.0 + beta)
    d = np.zeros_like(a)
    mid = (a > lo) & (a < hi)
    d[mid] = -0.5 * np.pi / (2.0 * beta * W) * np.sin(np.pi * (a[mid] - lo) / (2.0 * beta * W))
    return p["c"] * _sq_time(x, p["steep"]) * d * np.sign(om)


def _sq_psi(p):
    c, W, beta = p["c"], p["W"], p["beta"]

    def psi(z):
        z = _bx(z)
        with np.errstate(divide="ignore"):
            decay = 1.0 / np.maximum(4.0 * np.pi * beta * W * z ** 2, 1e-300)
        return 4.0 * c ** 2 * np.minimum(2.0 * W, decay) ** 2

    return psi


# --- two_tone ----------------------------------------------------------------

def _tt_time(x):
    return 0.6 + 0.4 * np.cos(2.0 * np.pi * _bx(x))


def _tt_sigma(x, omega, p):
    u = _bx(omega) / p["gamma"]
    return p["c"] * _tt_time(x) / (1.0 + u ** 2) ** 2


def _tt_dx(x, omega, p):
    u = _bx(omega) / p["gamma"]
    return -0.8 * np.pi * np.sin(2.0 * np.pi * _bx(x)) * p["c"] / (1.0 + u ** 2) ** 2


def _tt_domega(x, omega, p):
    g = p["gamma"]
    u = _bx(omega) / g
    return _tt_time(x) * p["c"] * (-4.0 * u / g) / (1.0 + u ** 2) ** 3


def _tt_psi(p):
    c, g = p["c"], p["gamma"]

    def psi(z):
        z = np.abs(_bx(z))
        mag = 0.5 * np.pi * g * (1.0 + 2.0 * np.pi * g * z) * np.exp(-2.0 * np.pi * g * z)
        return 4.0 * (c * mag) ** 2

    return psi


_REGISTRY: dict[str, _Family] = {
    "band_constant": _Family(
        name="band_constant",
        defaults={"c": 1.0, "W": 0.5},
        validate=lambda p: _require_positive(p, "c", "W"),
        sigma=_band_sigma, sigma_dx=_band_zero, sigma_domega=_band_zero,
        period_x=None, omega_decay="compact", smoothness_order=0,
        time_invariant=True, psi=_band_psi,
    ),
    "cosine_gauss": _Family(
        name="cosine_gauss",
        defaults={"w": 1.0},
        validate=lambda p: _require_positive(p, "w"),
        sigma=_cg_sigma, sigma_dx=_cg_dx, sigma_domega=_cg_domega,
        period_x=1.0, omega_decay="gaussian", smoothness_order=99,
        time_invariant=False, psi=_cg_psi,
    ),
    "square_smooth": _Family(
        name="square_smooth",
        defaults={"c": 1.0, "W": 1.0, "beta": 0.5, "steep": 4.0},
        validate=_sq_validate,
        sigma=_sq_sigma, sigma_dx=_sq_dx, sigma_domega=_sq_domega,
        period_x=1.0, omega_decay="compact", smoothness_order=1,
        time_invariant=False, psi=_sq_psi,
    ),
    "two_tone": _Family(
        name="two_tone",
        defaults={"c": 1.0, "gamma": 1.0},
        validate=lambda p: _require_positive(p, "c", "gamma"),
        sigma=_tt_sigma, sigma_dx=_tt_dx, sigma_domega=_tt_domega,
        period_x=1.0, omega_decay="power4", smoothness_order=99,
        time_invariant=False, psi=_tt_psi,
    ),
}


def family_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _family(name: str) -> _Family:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown symbol family {name!r}; registered: {sorted(_REGISTRY)}") from None


def make_symbol(family_name: str, **params: float) -> SymbolSpec:
    """Construct a validated SymbolSpec for a registered family."""
    fam = _family(family_name)
    merged = dict(fam.defaults)
    for key, val in params.items():
        if key not in fam.defaults:
            raise DomainError(f"family {family_name!r} has no parameter {key!r}; "
                              f"known: {sorted(fam.defaults)}")
        merged[key] = float(val)
    fam.validate(merged)
    return SymbolSpec(
        family_name=family_name,
        params=tuple(sorted(merged.items())),
        period_x=fam.period_x,
        omega_decay=fam.omega_decay,
        smoothness_order=fam.smoothness_order,
        time_invariant=fam.time_invariant,
    )


def _checked(spec: SymbolSpec) -> tuple[_Family, dict[str, float]]:
    fam = _family(spec.family_name)
    params = spec.param_map
    missing = set(fam.defaults) - set(params)
    if missing:
        raise DomainError(f"spec for {spec.family_name!r} missing parameters {sorted(missing)}")
    fam.validate(params)
    return fam, params


def eval_symbol(spec: SymbolSpec, x, omega):
    """Evaluate sigma(x, omega); inputs broadcast, output is float or ndarray."""
    fam, params = _checked(spec)
    out = fam.sigma(x, omega, params)
    if np.ndim(x) == 0 and np.ndim(omega) == 0:
        return float(np.asarray(out).reshape(()))
    return out


def eval_symbol_dx(spec: SymbolSpec, x, omega):
    """Partial derivative of sigma in the time instant x."""
    fam, params = _checked(spec)
    return fam.sigma_dx(x, omega, params)


def eval_symbol_domega(spec: SymbolSpec, x, omega):
    """Partial derivative of sigma in the frequency omega."""
    fam, params = _checked(spec)
    return fam.sigma_domega(x, omega, params)


def sample_symbol(spec: SymbolSpec, grid, rows: int | None = None) -> np.ndarray:
    """Sample sigma on the grid's (x, omega) tensor product, shape (n_x, n_omega);
    with `rows`, only the first that many x points."""
    x = grid.x_points()[:rows, None]
    omega = grid.omega_points()[None, :]
    return np.asarray(eval_symbol(spec, x, omega), dtype=float)


def default_envelope(spec: SymbolSpec, omega_max: float = 8.0,
                     z_max: float = 400.0, n_scan: int = 200001) -> KernelEnvelope:
    """Family envelope describing the kernels the quantizer actually builds.

    The analytic magnitude bound is widened by the frequency-truncation
    ringing floor |sigma(., +-omega_max)| / (pi max(|z|, 1)) and a fixed
    float-roundoff floor, so symbols with slowly decaying frequency tails
    (or super-polynomially small true kernels) still satisfy the pointwise
    bound on discretely assembled kernels.  tail_constant is max over a
    log-spaced s scan of s * tail(s) for the widened psi.
    """
    fam, params = _checked(spec)
    psi_true = fam.psi(params)
    xs = np.arange(64) / 64.0
    edge = max(float(np.abs(fam.sigma(xs, np.full_like(xs, omega_max), params)).max()),
               float(np.abs(fam.sigma(xs, np.full_like(xs, -omega_max), params)).max()))
    roundoff = 1e-12 * float(np.sqrt(psi_true(np.array([0.0]))[0]) + 1.0)

    def psi(z):
        z = _bx(z)
        floor = 2.0 * edge / (np.pi * np.maximum(np.abs(z), 1.0)) + roundoff
        return (np.sqrt(psi_true(z)) + floor) ** 2

    z = np.linspace(0.0, z_max, n_scan)
    vals = psi(z)
    seg = 0.5 * (vals[1:] + vals[:-1]) * (z[1] - z[0])
    tail_one_sided = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    s_grid = np.logspace(-2, np.log10(z_max / 2.0), 600)
    tails = 2.0 * np.interp(s_grid, z, tail_one_sided)
    c = float(np.max(s_grid * tails)) * (1.0 + 1e-9)
    return KernelEnvelope(psi=psi, tail_constant=c)


def envelope_l1_norm(env: KernelEnvelope, z_max: float = 400.0, n: int = 400001) -> float:
    """Trapezoidal L1 norm of psi over [-z_max, z_max]."""
    z = np.linspace(0.0, z_max, n)
    vals = env.psi(z)
    return 2.0 * float(np.trapezoid(vals, z))


def envelope_sqrt_l1_norm(env: KernelEnvelope, z_lo: float, z_hi: float, n: int = 400001) -> float:
    """Trapezoidal L1 norm of sqrt(psi) over the truncated window [z_lo, z_hi]."""
    z = np.linspace(z_lo, z_hi, n)
    return float(np.trapezoid(np.sqrt(env.psi(z)), z))
