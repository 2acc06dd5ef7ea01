import dataclasses
import math

import numpy as np
import pytest

import szegocap as sc
from szegocap.errors import ConfigurationError, DomainError, UnsupportedSymbolError
from szegocap.families import SymbolSpec, envelope_integral
from szegocap.grid import DEFAULT_OMEGA_MAX
from szegocap.harness import run_trace_norm_scaling

ALL_FAMILIES = ("band_constant", "cosine_gauss", "square_smooth", "two_tone")


def test_eval_band_constant_on_band():
    spec = sc.make_symbol("band_constant", c=1.0, W=0.5)
    assert sc.eval_symbol(spec, 0.3, 0.0) == 1.0


def test_eval_band_constant_midpoint_at_jump():
    spec = sc.make_symbol("band_constant", c=2.0, W=0.5)
    assert sc.eval_symbol(spec, 0.0, 0.5) == 1.0
    assert sc.eval_symbol(spec, 0.0, -0.5) == 1.0
    assert sc.eval_symbol(spec, 0.0, 0.5001) == 0.0


def test_eval_cosine_gauss_half_period_zero():
    spec = sc.make_symbol("cosine_gauss", w=1.0)
    assert abs(sc.eval_symbol(spec, 0.5, 0.0)) < 1e-15


def test_eval_cosine_gauss_quarter_period():
    spec = sc.make_symbol("cosine_gauss", w=1.0)
    expected = 0.5 * math.exp(-0.5)
    assert sc.eval_symbol(spec, 0.25, 1.0) == pytest.approx(expected, rel=1e-12)


def test_unknown_family_raises_configuration_error():
    with pytest.raises(ConfigurationError):
        sc.make_symbol("no_such_family")
    bogus = SymbolSpec(family_name="no_such_family", params=(), period_x=None,
                       smoothness_order=0)
    with pytest.raises(ConfigurationError):
        sc.eval_symbol(bogus, 0.0, 0.0)


def test_bad_parameters_raise_domain_error():
    with pytest.raises(DomainError):
        sc.make_symbol("band_constant", W=0.0)
    with pytest.raises(DomainError):
        sc.make_symbol("cosine_gauss", w=-1.0)
    with pytest.raises(DomainError):
        sc.make_symbol("square_smooth", beta=2.0)
    with pytest.raises(DomainError):
        sc.make_symbol("band_constant", bogus=1.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_non_finite_parameters_raise_domain_error(name, value):
    # an infinite symbol used to pass validation and hang the water-level
    # bisection, whose upper bracket never grows from 2 / inf = 0
    spec = sc.make_symbol(name)
    for param in spec.param_map:
        with pytest.raises(DomainError, match=param):
            sc.make_symbol(name, **{param: value})
        params = tuple({**spec.param_map, param: value}.items())
        built = SymbolSpec(family_name=name, params=params, period_x=spec.period_x,
                           smoothness_order=spec.smoothness_order,
                           time_invariant=spec.time_invariant)
        with pytest.raises(DomainError, match=param):
            sc.eval_symbol(built, 0.0, 0.0)


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_values_finite_and_real(name):
    spec = sc.make_symbol(name)
    x = np.linspace(-3.0, 3.0, 41)[:, None]
    omega = np.linspace(-9.0, 9.0, 57)[None, :]
    vals = sc.eval_symbol(spec, x, omega)
    assert np.all(np.isfinite(vals))
    assert vals.dtype == np.float64


def test_unit_periodic_is_the_one_periodicity_rule():
    # the symbol water-fill and the trace-norm check share the rule, each
    # with its own error
    assert all(sc.make_symbol(name).unit_periodic for name in ALL_FAMILIES)
    base = sc.make_symbol("cosine_gauss")
    assert dataclasses.replace(base, period_x=None, time_invariant=True).unit_periodic
    for period in (None, 2.0, 1.0 + 1e-9):
        spec = dataclasses.replace(base, period_x=period)
        assert not spec.unit_periodic
        with pytest.raises(UnsupportedSymbolError, match="needs a time-invariant or 1-periodic"):
            sc.waterfill_symbol(spec, 1.0)
        with pytest.raises(DomainError, match="trace-norm scaling needs a 1-periodic"):
            run_trace_norm_scaling(spec, 0.5, [2])


@pytest.mark.parametrize("name", ("cosine_gauss", "square_smooth", "two_tone"))
def test_periodicity(name):
    spec = sc.make_symbol(name)
    p = spec.period_x
    assert p == 1.0
    x = np.linspace(-2.0, 2.0, 101)[:, None]
    omega = np.linspace(-8.0, 8.0, 33)[None, :]
    a = sc.eval_symbol(spec, x, omega)
    b = sc.eval_symbol(spec, x + p, omega)
    assert np.abs(a - b).max() <= 1e-12


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_omega_square_integrability_under_doubling(name):
    # truncated int |sigma(x, .)|^2 converges as the truncation grows
    spec = sc.make_symbol(name)
    x = 0.1

    def tail_energy(om_max):
        # fixed spacing so the jump-quadrature residue cancels between ranges
        k = int(om_max * 4000)
        om = np.arange(-k, k + 1) / 4000.0
        vals = np.asarray(sc.eval_symbol(spec, x, om))
        return np.trapezoid(vals ** 2, om)

    e8, e16, e32 = tail_energy(8.0), tail_energy(16.0), tail_energy(32.0)
    assert abs(e16 - e8) <= 1e-6 * max(e8, 1e-12) + 1e-9
    assert abs(e32 - e16) <= abs(e16 - e8) + 1e-12


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_default_envelope_tail_constant(name):
    spec = sc.make_symbol(name)
    env = sc.default_envelope(spec, DEFAULT_OMEGA_MAX)
    assert env.tail_constant > 0
    z = np.linspace(0.0, 50.0, 2001)
    assert np.all(env.psi(z) >= 0)
    assert envelope_integral(env) > envelope_integral(env, lo=8.0) > 0


def test_metadata_flags():
    band = sc.make_symbol("band_constant")
    assert band.time_invariant and band.period_x is None
    assert band.smoothness_order == 0
    cg = sc.make_symbol("cosine_gauss")
    assert not cg.time_invariant and cg.period_x == 1.0
    assert cg.smoothness_order >= 3
    assert sc.make_symbol("square_smooth").smoothness_order < 3
