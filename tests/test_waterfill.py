import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import szegocap as sc
from szegocap.errors import DomainError, NoCapacityError, UnsupportedSymbolError
from szegocap.families import SymbolSpec, _REGISTRY
from szegocap.waterfill import WaterfillSolution, rate_log


def bisect_level(values, weights, S):
    """Oracle: the water level by bisection (doubled upper bracket) to
    relative 1e-12 over sorted cumulative sums."""
    order = np.argsort(values)[::-1]
    v = values[order]
    w = weights[order]
    with np.errstate(over="ignore"):
        inv = 1.0 / v                              # ascending
    cum_w = np.concatenate([[0.0], np.cumsum(w)])
    cum_winv = np.concatenate([[0.0], np.cumsum(w * inv)])
    cum_wlog = np.concatenate([[0.0], np.cumsum(w * np.log(v))])

    def power(B):
        k = int(np.searchsorted(inv, B, side="right"))
        return B * cum_w[k] - cum_winv[k]

    if S == 0.0:
        return WaterfillSolution(B=1.0 / v[0], capacity_rate=0.0,
                                 power_achieved=0.0, active_count=0)
    lo = 1.0 / v[0]
    hi = 2.0 * lo
    while power(hi) < S:
        hi *= 2.0
    while (hi - lo) > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if power(mid) < S:
            lo = mid
        else:
            hi = mid
    B = 0.5 * (lo + hi)
    k = int(np.searchsorted(inv, B, side="right"))
    return WaterfillSolution(B=float(B), capacity_rate=float(np.log(B) * cum_w[k] + cum_wlog[k]),
                             power_achieved=float(power(B)),
                             active_count=int(np.searchsorted(inv, B, side="left")))


def test_hand_solved_equal_eigenvalues():
    sol = sc.waterfill_discrete([1.0, 1.0], 2.0, 1.0)
    assert sol.B == pytest.approx(2.0, rel=1e-10)
    assert sol.capacity_rate == pytest.approx(2.0 * math.log(2.0), rel=1e-10)
    assert sol.power_achieved == pytest.approx(2.0, rel=1e-9)
    assert sol.active_count == 2


def test_hand_solved_single_active_mode():
    sol = sc.waterfill_discrete([4.0, 1.0], 0.5, 1.0)
    assert sol.B == pytest.approx(0.75, rel=1e-10)
    assert sol.capacity_rate == pytest.approx(math.log(3.0), rel=1e-10)
    assert sol.active_count == 1


def test_zero_budget_boundary():
    sol = sc.waterfill_discrete([5.0, 2.0, 0.1], 0.0, 3.0)
    assert sol.B == 0.2
    assert sol.capacity_rate == 0.0
    assert sol.power_achieved == 0.0
    assert sol.active_count == 0


def test_domain_and_capacity_errors():
    with pytest.raises(DomainError):
        sc.waterfill_discrete([1.0], -0.5, 1.0)
    with pytest.raises(NoCapacityError):
        sc.waterfill_discrete([0.0, -1.0], 1.0, 1.0)
    with pytest.raises(DomainError):
        sc.waterfill_discrete([1.0], 1.0, 0.0)


def test_negative_modes_are_inert():
    lam = [3.0, 1.0]
    with_neg = [3.0, 1.0, -8e-3, -0.5]
    a = sc.waterfill_discrete(lam, 1.5, 2.0)
    b = sc.waterfill_discrete(with_neg, 1.5, 2.0)
    assert b.B == a.B and b.capacity_rate == a.capacity_rate


def test_monotonicity_in_budget():
    lam = [3.0, 2.0, 1.0, 0.5]
    budgets = np.linspace(0.0, 5.0, 21)
    sols = [sc.waterfill_discrete(lam, s, 2.0) for s in budgets]
    bs = [s.B for s in sols]
    rates = [s.capacity_rate for s in sols]
    assert all(b2 > b1 for b1, b2 in zip(bs, bs[1:]))
    assert all(r2 >= r1 for r1, r2 in zip(rates, rates[1:]))


def test_power_budget_exactness():
    lam = [2.5, 1.7, 0.9, 0.3]
    for s in (0.1, 1.0, 7.3):
        sol = sc.waterfill_discrete(lam, s, 3.0)
        assert sol.power_achieved == pytest.approx(s, rel=1e-9)


def test_scale_coherence():
    # (sigma, B) -> (t sigma, B/t) preserves the active set {B sigma >= 1};
    # the matching budget transforms as S -> S/t
    lam = np.array([4.0, 2.0, 0.7])
    t = 3.7
    a = sc.waterfill_discrete(lam, 1.2, 1.0)
    active_orig = a.B * lam >= 1.0
    active_mapped = (a.B / t) * (t * lam) >= 1.0
    assert np.array_equal(active_orig, active_mapped)

    b = sc.waterfill_discrete(t * lam, 1.2 / t, 1.0)
    assert b.B == pytest.approx(a.B / t, rel=1e-9)
    assert b.active_count == a.active_count
    assert b.capacity_rate == pytest.approx(a.capacity_rate, rel=1e-9)


def test_symbol_band_closed_form():
    # flat band: B = 1/c + S/(2W), rate = 2 W log(1 + S c / (2W)); the jump at
    # the band edge leaves an O(h_omega) quadrature residue at default density
    spec = sc.make_symbol("band_constant", c=1.0, W=0.5)
    sol = sc.waterfill_symbol(spec, 1.0)
    assert sol.B == pytest.approx(2.0, rel=1e-2)
    assert sol.capacity_rate == pytest.approx(math.log(2.0), rel=1e-2)
    fine = sc.waterfill_symbol(spec, 1.0, density=1024)
    assert fine.B == pytest.approx(2.0, rel=2.5e-3)
    assert fine.capacity_rate == pytest.approx(math.log(2.0), rel=2.5e-3)


def test_symbol_zero_budget():
    spec = sc.make_symbol("band_constant", c=2.0, W=0.5)
    sol = sc.waterfill_symbol(spec, 0.0)
    assert sol.B == 0.5
    assert sol.capacity_rate == 0.0


def test_symbol_quadrature_self_convergence():
    spec = sc.make_symbol("cosine_gauss", w=1.0)
    r1 = sc.waterfill_symbol(spec, 1.0, density=256).capacity_rate
    r2 = sc.waterfill_symbol(spec, 1.0, density=512).capacity_rate
    assert abs(r1 - r2) <= 1e-4


def test_symbol_rejects_nonperiodic_time_varying():
    broken = SymbolSpec(family_name="cosine_gauss", params=(("w", 1.0),),
                        period_x=None, smoothness_order=99, time_invariant=False)
    with pytest.raises(UnsupportedSymbolError):
        sc.waterfill_symbol(broken, 1.0)


def test_symbol_no_capacity_for_nonpositive_symbol(monkeypatch):
    fam = _REGISTRY["cosine_gauss"]
    import dataclasses
    zero_fam = dataclasses.replace(
        fam, sigma=lambda x, omega, p: -np.ones(np.broadcast_shapes(np.shape(x), np.shape(omega))))
    monkeypatch.setitem(_REGISTRY, "cosine_gauss", zero_fam)
    with pytest.raises(NoCapacityError):
        sc.waterfill_symbol(sc.make_symbol("cosine_gauss"), 1.0)


def test_discrete_converges_to_time_invariant_closed_form():
    spec = sc.make_symbol("band_constant", c=1.0, W=0.25)
    grid = sc.make_grid(32)
    herm = sc.hermitize(sc.quantize(spec, grid))
    from szegocap.spectral import eigh_matrix
    vals, _ = eigh_matrix(sc.assemble(herm.blocks, grid.window, grid.window),
                          want_basis=False)
    sol = sc.waterfill_discrete(vals, 1.0, 32.0)
    closed = 2 * 0.25 * math.log(1 + 1.0 / (2 * 0.25))
    assert sol.capacity_rate == pytest.approx(closed, rel=0.03)


def test_rate_functions_at_threshold():
    r = rate_log
    assert r(np.array([1.0]))[0] == 0.0
    assert np.all(r(np.array([0.2, 0.9])) == 0.0)
    eps = 1e-9
    assert abs(r(np.array([1.0 + eps]))[0]) < 2e-9   # continuous across 1


def test_smoothstep_saturation_and_symmetry():
    t = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    v = sc.smoothstep(t)
    assert v[0] == 0.0 and v[1] == 0.0
    assert v[3] == 1.0 and v[4] == 1.0
    assert v[2] == pytest.approx(0.5, abs=1e-15)
    fine = sc.smoothstep(np.linspace(0, 1, 1001))
    assert np.all(np.diff(fine) >= 0)


def test_f_eps_exact_regions_and_bound():
    eps = 0.1
    f = sc.build_f_eps(eps)
    xs_below = np.array([-1.0, 0.0, 0.5, 1.0])
    assert np.all(f(xs_below) == 0.0)
    xs_above = np.array([1.0 + eps, 1.5, 4.0])
    assert np.abs(f(xs_above) - np.log(xs_above)).max() == 0.0
    # |f_eps - f| <= max_{[1, 1+eps]} |h|
    xs = np.linspace(0.5, 5.0, 2001)
    sharp = sc.rate_log(xs)
    bound = abs(math.log(1.0 + eps))
    assert np.abs(f(xs) - sharp).max() <= bound + 1e-15


def test_f_eps_validation():
    with pytest.raises(DomainError):
        sc.build_f_eps(0.0)
    with pytest.raises(DomainError):
        sc.build_f_eps(15.0)         # the step would reach the roll-off at 16


def test_f_eps_fourier_decay():
    # smoothness oracle: FFT of the densely sampled surrogate decays at least
    # like omega^-4 over the probed decade
    from scipy.stats import linregress
    eps = 0.1
    f = sc.build_f_eps(eps)
    L, N = 32.0, 2 ** 20
    xs = np.arange(N) * (L / N)
    spec = np.fft.rfft(f(xs)) * (L / N)
    freq = np.fft.rfftfreq(N, d=L / N)
    sel = (freq >= 10) & (freq <= 100)
    slope = linregress(np.log(freq[sel]), np.log(np.abs(spec[sel]))).slope
    assert slope <= -4.0


@pytest.mark.parametrize("eigs", [[math.inf, 1.0], [math.nan, 1.0, 0.5],
                                  [1.0, -math.inf]])
def test_non_finite_eigenvalues_raise(eigs):
    # an infinite eigenvalue would put the level at 1/inf = 0, and a NaN
    # would be silently dropped
    with pytest.raises(DomainError):
        sc.waterfill_discrete(eigs, 1.0, 1.0)


# --- the breakpoint solver against the bisection oracle ----------------------
# Spectra are water-filled with alpha = their length, so the weights sum to 1.

def solve(lam, S):
    lam = np.asarray(lam, dtype=float)
    return sc.waterfill_discrete(lam, S, float(lam.size))


def power_error_bound(sol, S, weight):
    """1e-10 relative, or what the rounding of B itself admits: power(B) = S
    has condition number B W / S (W = active_count * weight, the active
    weight), so no double B gets power(B) closer to S than about eps B W."""
    return max(1e-10 * S, 8 * np.finfo(float).eps * sol.B * sol.active_count * weight)


def assert_matches_oracle(lam, S):
    lam = np.asarray(lam, dtype=float)
    pos = lam[lam > 0.0]
    sol = solve(lam, S)
    ref = bisect_level(pos, np.full(pos.size, 1.0 / lam.size), S)
    assert sol.B == pytest.approx(ref.B, rel=1e-11)
    assert abs(sol.capacity_rate - ref.capacity_rate) <= 1e-10 * max(1.0, ref.capacity_rate)
    ties = int(np.count_nonzero(np.abs(sol.B * pos - 1.0) <= 1e-10))
    assert abs(sol.active_count - ref.active_count) <= ties
    return sol


exponents = st.floats(-3.0, 3.0, allow_nan=False)
spectra = st.one_of(
    st.lists(exponents, min_size=1, max_size=60),
    st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=1, max_size=60),   # ties
).map(lambda e: 10.0 ** np.array(e))


@settings(derandomize=True, deadline=None)
@given(spectra, st.floats(-6.0, 3.0))
def test_power_achieved_matches_budget(lam, log_s):
    S = 10.0 ** log_s
    sol = solve(lam, S)
    assert abs(sol.power_achieved - S) <= power_error_bound(sol, S, 1.0 / lam.size)


@settings(derandomize=True, deadline=None)
@given(spectra, st.floats(-6.0, 2.0), st.floats(1e-3, 1.0))
def test_level_increasing_capacity_monotone_and_concave(lam, log_s, log_ratio):
    # dC/dS = 1/B, so concavity is the tangent bound C(S') <= C(S) + (S' - S)/B(S)
    budgets = 10.0 ** (log_s + log_ratio * np.arange(6))
    sols = [solve(lam, S) for S in budgets]
    assert all(b.B > a.B for a, b in zip(sols, sols[1:]))
    assert all(b.capacity_rate >= a.capacity_rate for a, b in zip(sols, sols[1:]))
    for S0, a in zip(budgets, sols):
        for S1, b in zip(budgets, sols):
            tangent = a.capacity_rate + (S1 - S0) / a.B
            slack = 1e-12 * (abs(tangent) + b.capacity_rate + abs(S1 - S0) / a.B)
            assert b.capacity_rate <= tangent + slack


@settings(derandomize=True, deadline=None)
@given(spectra, st.floats(-2.0, 2.0))
def test_matches_bisection_oracle(lam, log_s):
    assert_matches_oracle(lam, 10.0 ** log_s)


@pytest.mark.parametrize("lam", [
    [2.0] * 7 + [0.5] * 5 + [3.0] * 2,                # ties
    [3.0],                                            # a single value
    10.0 ** np.linspace(-150.0, 150.0, 301),          # 300 decades
    1.9 ** -np.arange(2000.0),                        # geometric; 1/v overflows, v underflows
], ids=["ties", "single", "300_decades", "geometric_1.9"])
@pytest.mark.parametrize("S", [1e-2, 0.37, 1.0, 5.0, 1e2])
def test_edge_spectra_match_oracle(lam, S):
    sol = assert_matches_oracle(lam, S)
    assert abs(sol.power_achieved - S) <= power_error_bound(sol, S, 1.0 / len(lam))


@pytest.mark.parametrize("S", np.linspace(0.0, 5.0, 21)[1:])
def test_monotonicity_budgets_match_oracle(S):
    # the budgets of test_monotonicity_in_budget; at some of them the candidate
    # set empties after the linear-model step and the level comes from the
    # known active set alone
    lam = np.array([3.0, 2.0, 1.0, 0.5])
    sol = sc.waterfill_discrete(lam, S, 2.0)
    ref = bisect_level(lam, np.full(4, 0.5), S)
    assert sol.B == pytest.approx(ref.B, rel=1e-11)
    assert sol.capacity_rate == pytest.approx(ref.capacity_rate, rel=1e-10)
    assert sol.active_count == ref.active_count
    assert sol.power_achieved == pytest.approx(S, rel=1e-14)


def test_level_is_exact_where_bisection_is_not():
    # at S = 1e-6 the bisection's 1e-12 bracket on B leaves power off S by
    # about 1e-12 B W / S; the exact level is off by rounding only
    lam = np.array([1.0, 0.9, 0.5])
    S = 1e-6
    sol = sc.waterfill_discrete(lam, S, 1.0)
    ref = bisect_level(lam, np.ones(3), S)
    assert abs(sol.power_achieved - S) <= 1e-9 * S
    assert abs(ref.power_achieved - S) > abs(sol.power_achieved - S)


def test_symbol_matches_bisection_oracle():
    spec = sc.make_symbol("cosine_gauss", w=1.0)
    # the default omega_max = 8 at density 64: 1,025 trapezoid nodes, 64 in x
    omega = np.linspace(-8.0, 8.0, 1025)
    w_om = np.full(omega.size, 16.0 / 1024)
    w_om[[0, -1]] *= 0.5
    x = np.arange(64) / 64
    sigma = sc.eval_symbol(spec, x[:, None], omega[None, :]).ravel()
    weights = np.broadcast_to(w_om / x.size, (x.size, omega.size)).ravel()
    pos = sigma > 0.0
    sigma, weights = sigma[pos], weights[pos]
    for S in (1e-6, 0.25, 1.0, 4.0):
        sol = sc.waterfill_symbol(spec, S, density=64)
        ref = bisect_level(sigma, weights, S)
        assert sol.B == pytest.approx(ref.B, rel=1e-11)
        assert sol.capacity_rate == pytest.approx(ref.capacity_rate, rel=1e-9)
        assert sol.power_achieved == pytest.approx(S, rel=1e-10)


def test_level_where_budget_is_below_rounding_of_level():
    # B = 1/v + S/W rounds to 1/v, and the linear model may round below it;
    # the top entry must stay a candidate, or the active set would empty
    lam = np.full(24, 3e-14)
    sol = sc.waterfill_discrete(lam, 1e-6, 24.0)
    assert sol.B == pytest.approx(1.0 / 3e-14, rel=1e-15)
    assert sol.capacity_rate == pytest.approx(0.0, abs=1e-15)
    assert sol.active_count in (0, 24)


def test_symbol_waterfill_memory():
    # the default quadrature has 256 x 4,097 nodes, 8.4 MB per float array
    spec = sc.make_symbol("cosine_gauss")
    tracemalloc.start()
    try:
        sc.waterfill_symbol(spec, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64e6, f"traced peak {peak / 1e6:.1f} MB > 64 MB"
