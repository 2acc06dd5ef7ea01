"""Registered time-varying transfer function families sigma(x, omega).

Each family provides vectorized evaluation and a kernel envelope psi with
|k(x, x-z)|^2 <= psi(z).  The kernels come from a grid whose frequency axis
stops at omega_max, and their truncation ringing grows with
|sigma(., omega_max)|, so default_envelope takes the grid's omega_max.

Families:
  band_constant      c * indicator(|omega| <= W); time-invariant.  Jump points
                     evaluate to c/2 (Fourier midpoint convention), which keeps
                     trapezoidal integrals exact when W lies on the grid.
  cosine_gauss       ((1 + cos 2 pi x)/2) * exp(-omega^2 / (2 w^2)); 1-periodic.
  square_smooth      smoothed square wave in x times a raised-cosine band in
                     omega; 1-periodic, C^1 in omega.
  two_tone           (0.6 + 0.4 cos 2 pi x) * squared-Lorentzian band; 1-periodic.

Every registered family keeps three contracts, which the tests check over
the whole registry.  It is even in omega, bit for bit: the symbol water-fill
evaluates the omega >= 0 half of the frequency axis, counting each omega > 0
node twice, and default_envelope reads the band-edge ringing at +omega_max.
It is time-invariant or has period 1 in x: the water-fill integrates over
x in [0, 1), and the quantizer samples the round(1/h_x) rows of that cell.
Its envelope psi peaks at z = 0: default_envelope finds an overflowing psi
by its value there.  A family that breaks one (a Doppler family is not even)
must add its choice.

A SymbolSpec is validated once, when it is built; evaluation trusts it.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError

_JUMP_TOL = 1e-9
ENVELOPE_Z_MAX = 400.0      # reach of envelope_integral


@dataclass(frozen=True)
class SymbolSpec:
    """A registered family and its parameters, validated when built:
    ConfigurationError for an unknown family, DomainError naming a missing,
    unknown, non-numeric, non-finite or out-of-domain parameter."""
    family_name: str
    params: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        fam = _family(self.family_name)
        params = self.param_map
        missing = set(fam.defaults) - set(params)
        if missing:
            raise DomainError(f"spec for {self.family_name!r} missing parameters {sorted(missing)}")
        for name, val in params.items():
            if name not in fam.defaults:
                raise DomainError(f"family {self.family_name!r} has no parameter {name!r}; "
                                  f"known: {sorted(fam.defaults)}")
            _finite_real(name, val)
        fam.validate(params)

    @property
    def param_map(self) -> dict[str, float]:
        return dict(self.params)

    @property
    def time_invariant(self) -> bool:
        return _family(self.family_name).time_invariant

    @property
    def smoothness_order(self) -> int:
        return _family(self.family_name).smoothness_order


@dataclass(frozen=True)
class _Family:
    defaults: dict[str, float]
    validate: Callable[[dict[str, float]], None]
    sigma: Callable[..., np.ndarray]
    smoothness_order: int
    time_invariant: bool
    psi: Callable[[dict[str, float]], Callable[[np.ndarray], np.ndarray]]


def _finite_real(name: str, value) -> float:
    """value as a float; a DomainError naming the parameter unless it is a
    finite real number (a bool, str, None or list is not one)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise DomainError(f"parameter {name!r} must be a real number, "
                          f"got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:           # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"parameter {name!r} must be finite, got {value}")
    return value


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


def _cg_validate(p):
    _require_positive(p, "w")
    if 2.0 * p["w"] * p["w"] < sys.float_info.min:
        raise DomainError(f"parameter 'w' = {p['w']} is too small: 2 w^2 underflows")


@np.errstate(over="ignore")     # exp(-inf) = 0 where omega^2 / (2 w^2) overflows
def _cg_sigma(x, omega, p):
    return _cg_time(x) * np.exp(-_bx(omega) ** 2 / (2.0 * p["w"] ** 2))


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


@np.errstate(over="ignore")     # the band is 0 where (omega / gamma)^2 overflows
def _tt_sigma(x, omega, p):
    u = _bx(omega) / p["gamma"]
    return p["c"] * _tt_time(x) / (1.0 + u ** 2) ** 2


def _tt_psi(p):
    c, g = p["c"], p["gamma"]

    def psi(z):
        z = np.abs(_bx(z))
        mag = 0.5 * np.pi * g * (1.0 + 2.0 * np.pi * g * z) * np.exp(-2.0 * np.pi * g * z)
        return 4.0 * (c * mag) ** 2

    return psi


_REGISTRY: dict[str, _Family] = {
    "band_constant": _Family(
        defaults={"c": 1.0, "W": 0.5},
        validate=lambda p: _require_positive(p, "c", "W"),
        sigma=_band_sigma, smoothness_order=0, time_invariant=True, psi=_band_psi,
    ),
    "cosine_gauss": _Family(
        defaults={"w": 1.0},
        validate=_cg_validate,
        sigma=_cg_sigma, smoothness_order=99, time_invariant=False, psi=_cg_psi,
    ),
    "square_smooth": _Family(
        defaults={"c": 1.0, "W": 1.0, "beta": 0.5, "steep": 4.0},
        validate=_sq_validate,
        sigma=_sq_sigma, smoothness_order=1, time_invariant=False, psi=_sq_psi,
    ),
    "two_tone": _Family(
        defaults={"c": 1.0, "gamma": 1.0},
        validate=lambda p: _require_positive(p, "c", "gamma"),
        sigma=_tt_sigma, smoothness_order=99, time_invariant=False, psi=_tt_psi,
    ),
}


def _family(name: str) -> _Family:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown symbol family {name!r}; registered: {sorted(_REGISTRY)}") from None


def make_symbol(family_name: str, /, **params: float) -> SymbolSpec:
    """The SymbolSpec of a registered family, params overriding its defaults."""
    merged = {**_family(family_name).defaults,
              **{k: _finite_real(k, v) for k, v in params.items()}}
    return SymbolSpec(family_name, tuple(sorted(merged.items())))


def eval_symbol(spec: SymbolSpec, x, omega):
    """Evaluate sigma(x, omega); inputs broadcast, output is float or ndarray."""
    params = spec.param_map
    try:
        out = _family(spec.family_name).sigma(x, omega, params)
    except OverflowError:           # Python-float ** of a parameter
        raise DomainError(f"{spec.family_name} symbol overflows at {params}") from None
    if np.ndim(x) == 0 and np.ndim(omega) == 0:
        return float(np.asarray(out).reshape(()))
    return out


def sample_symbol(spec: SymbolSpec, grid, rows=slice(None)) -> np.ndarray:
    """Sample sigma on the grid's (x, omega) tensor product, shape (n_x, n_omega);
    with `rows` (a slice or boolean mask of the x points), only those rows."""
    x = grid.x_points()[rows, None]
    omega = grid.omega_points()[None, :]
    return np.asarray(eval_symbol(spec, x, omega), dtype=float)


# an overflow in here ends in the typed error below, so numpy need not warn
@np.errstate(over="ignore", invalid="ignore")
def default_envelope(spec: SymbolSpec, omega_max: float) -> Callable[[np.ndarray], np.ndarray]:
    """Family envelope psi, with |k(x, x-z)|^2 <= psi(z) for the kernels the
    quantizer builds on a grid with band edge omega_max.

    The analytic magnitude bound is widened by the frequency-truncation
    ringing floor |sigma(., omega_max)| / (pi max(|z|, 1)) and a fixed
    float-roundoff floor, so symbols with slowly decaying frequency tails
    (or super-polynomially small true kernels) still satisfy the pointwise
    bound on discretely assembled kernels.  Each term peaks at z = 0, so
    psi is finite everywhere when psi(0) is; ConfigurationError otherwise.
    """
    fam, params = _family(spec.family_name), spec.param_map
    overflow = ConfigurationError(f"{spec.family_name} kernel envelope overflows at {params}")
    try:
        psi_true = fam.psi(params)
        roundoff = 1e-12 * float(np.sqrt(psi_true(np.array([0.0]))[0]) + 1.0)
    except OverflowError:           # Python-float ** in the family's psi
        raise overflow from None
    xs = np.arange(64) / 64.0
    # sigma is even in omega, so +omega_max gives the ringing at both band edges
    edge = float(np.abs(fam.sigma(xs, np.full_like(xs, omega_max), params)).max())

    def psi(z):
        z = _bx(z)
        floor = 2.0 * edge / (np.pi * np.maximum(np.abs(z), 1.0)) + roundoff
        return (np.sqrt(psi_true(z)) + floor) ** 2

    if not math.isfinite(psi(np.array([0.0]))[0]):
        raise overflow
    return psi


# a finite psi near float max can sum to inf, which each caller tests
@np.errstate(over="ignore")
def envelope_integral(psi: Callable[[np.ndarray], np.ndarray], lo: float = 0.0) -> float:
    """Trapezoidal integral of psi over lo <= |z| <= lo + ENVELOPE_Z_MAX: the
    L1 norm of psi at lo = 0, its two-sided tail beyond lo otherwise."""
    z = np.linspace(lo, lo + ENVELOPE_Z_MAX, 400001)
    return 2.0 * float(np.trapezoid(psi(z), z))
