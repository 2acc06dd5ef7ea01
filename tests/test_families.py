import dataclasses
import math

import numpy as np
import pytest

import szegocap as sc
from szegocap.errors import ConfigurationError, DomainError
from szegocap.families import _REGISTRY, SymbolSpec, envelope_integral
from szegocap.grid import DEFAULT_OMEGA_MAX

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
    with pytest.raises(ConfigurationError):
        SymbolSpec(family_name="no_such_family", params=())


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
        with pytest.raises(DomainError, match=param):
            SymbolSpec(family_name=name, params=params)


@pytest.mark.parametrize("value", ["x", "1.0", None, True, False, [1.0], 10 ** 400],
                         ids=["str", "numeric-str", "None", "True", "False", "list", "huge-int"])
@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_non_numeric_parameters_raise_domain_error(name, value):
    # a library caller's non-number must not end in float()'s bare
    # ValueError or TypeError, nor a bool be taken as 0 or 1
    spec = sc.make_symbol(name)
    for param in spec.param_map:
        with pytest.raises(DomainError, match=param):
            sc.make_symbol(name, **{param: value})
        params = tuple({**spec.param_map, param: value}.items())
        with pytest.raises(DomainError, match=param):
            SymbolSpec(family_name=name, params=params)


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_values_finite_and_real(name):
    spec = sc.make_symbol(name)
    x = np.linspace(-3.0, 3.0, 41)[:, None]
    omega = np.linspace(-9.0, 9.0, 57)[None, :]
    vals = sc.eval_symbol(spec, x, omega)
    assert np.all(np.isfinite(vals))
    assert vals.dtype == np.float64


@pytest.mark.parametrize("name", sorted(_REGISTRY))
def test_periodicity(name):
    # the registry contract: time-invariant (sigma does not depend on x, bit
    # for bit) or 1-periodic in x; the quantizer and the symbol water-fill
    # take one period cell x in [0, 1)
    rng = np.random.default_rng(11)
    x = np.concatenate([np.linspace(-2.0, 2.0, 101), rng.uniform(-50.0, 50.0, 32)])[:, None]
    for params in [{}, *EVEN_PARAMS.get(name, [])]:
        spec = sc.make_symbol(name, **params)
        omega = np.concatenate([np.linspace(-8.0, 8.0, 33), rng.uniform(-12.0, 12.0, 64)])[None, :]
        a = sc.eval_symbol(spec, x, omega)
        if spec.time_invariant:
            assert np.array_equal(a, np.broadcast_to(a[:1], a.shape)), params
        else:
            assert np.abs(a - sc.eval_symbol(spec, x + 1.0, omega)).max() <= 1e-12, params


@pytest.mark.parametrize("name", sorted(_REGISTRY))
def test_hand_built_spec_is_checked_when_built(name):
    # every way to build a spec validates it: make_symbol, the constructor and
    # dataclasses.replace
    spec = sc.make_symbol(name)
    first = spec.params[0][0]
    bad_params = {
        "missing": spec.params[1:],
        "extra": spec.params + (("zz_bogus", 1.0),),
        "nan": ((first, math.nan), *spec.params[1:]),
        "out of domain": ((first, -1.0), *spec.params[1:]),
    }
    for why, params in bad_params.items():
        match = "zz_bogus" if why == "extra" else first
        with pytest.raises(DomainError, match=match):
            SymbolSpec(name, params)
        with pytest.raises(DomainError, match=match):
            dataclasses.replace(spec, params=params)
    with pytest.raises(ConfigurationError, match="no_such_family"):
        dataclasses.replace(spec, family_name="no_such_family")
    assert SymbolSpec(name, spec.params) == spec


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


# parameter sets beyond each family's defaults; a family missing here is
# checked at its defaults
EVEN_PARAMS = {
    "band_constant": [{"c": 2.5, "W": 0.25}, {"W": 3.0}],
    "cosine_gauss": [{"w": 0.3}, {"w": 1.7}],
    "square_smooth": [{"c": 2.0, "W": 0.5, "beta": 0.2, "steep": 9.0},
                      {"W": 1.0, "beta": 1.0}],
    "two_tone": [{"c": 0.8, "gamma": 0.3}, {"gamma": 5.0}],
}


@pytest.mark.parametrize("name", sorted(_REGISTRY))
def test_families_are_bitwise_even_in_omega(name):
    # the symbol water-fill evaluates only omega >= 0 and counts each omega > 0
    # node twice, so every registered family must be even bit for bit
    rng = np.random.default_rng(7)
    x = np.concatenate([np.arange(256) / 256, rng.uniform(-2.0, 2.0, 16)])[:, None]
    for params in [{}, *EVEN_PARAMS.get(name, [])]:
        spec = sc.make_symbol(name, **params)
        omega = np.concatenate([np.linspace(-8.0, 8.0, 4097), np.linspace(-0.3, 0.3, 3),
                                rng.uniform(-12.0, 12.0, 512), [params.get("W", 0.5)]])[None, :]
        assert np.array_equal(sc.eval_symbol(spec, x, omega), sc.eval_symbol(spec, x, -omega)), params


def test_metadata_flags():
    band = sc.make_symbol("band_constant")
    assert band.time_invariant
    assert band.smoothness_order == 0
    cg = sc.make_symbol("cosine_gauss")
    assert not cg.time_invariant
    assert cg.smoothness_order >= 3
    assert sc.make_symbol("square_smooth").smoothness_order < 3
    # the flags read the registry; a spec holds only its family and parameters
    assert [f.name for f in dataclasses.fields(cg)] == ["family_name", "params"]
