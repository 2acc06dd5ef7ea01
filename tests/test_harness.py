import math

import numpy as np
import pytest
from scipy import special, stats

import szegocap as sc
from szegocap.errors import ConfigurationError, DomainError
from szegocap.families import sample_symbol
from szegocap.harness import (T975, fit_affine, fit_loglog, run_convergence_sweep,
                              run_hs_boundary_check, run_stability_check,
                              run_symbol_calculus_check, run_trace_norm_scaling)
from szegocap.reports import report_csv
from szegocap.spectral import eigh_matrix, window_trace


COSINE = sc.make_symbol("cosine_gauss")
BAND = sc.make_symbol("band_constant", c=1.0, W=0.25)


def test_split_identity_is_exact():
    rep = run_convergence_sweep(COSINE, 1.0, [2, 4])
    for rec in rep.records:
        assert "error" not in rec.extra
        gap = abs(rec.error_total - (rec.error_stability + rec.error_calculus))
        assert gap <= 1e-12


def test_degenerate_flat_band_matches_symbol_formula():
    # symbol constant across the whole truncated frequency axis: the residual
    # gap is quadrature-only
    wide = sc.make_symbol("band_constant", c=1.0, W=9.0)   # flat beyond omega_max
    edge = sc.make_symbol("band_constant", c=1.0, W=8.0)   # jump at omega_max
    for spec in (wide, edge):
        rep = run_convergence_sweep(spec, 1.0, [4, 8])
        for rec in rep.records:
            assert rec.extra["capacity_abs_diff"] <= 1e-3


def test_convergence_records_and_fits():
    rep = run_convergence_sweep(BAND, 1.0, [4, 8, 16])
    diffs = [r.extra["capacity_abs_diff"] for r in rep.records]
    assert diffs[2] < diffs[0]
    assert "capacity_abs_diff" in rep.fits
    assert rep.summary["capacity_symbol"] > 0


@pytest.mark.parametrize("grid_kw", [{}, {"padding": 8.5}, {"padding": 2.25}],
                         ids=["aligned", "unaligned", "m=1"])
@pytest.mark.parametrize("name", ["band_constant", "cosine_gauss", "square_smooth",
                                  "two_tone"])
def test_sweep_symbol_trace_from_one_period(name, grid_kw):
    # tr_a f(sigma), recovered from error_calculus = (tr_a f(L) - tr_a f(sigma)) / alpha,
    # against the quadrature over every window row
    spec = sc.make_symbol(name)
    [rec] = run_convergence_sweep(spec, 1.0, [8], grid_kw).records
    grid = sc.make_grid(8, **grid_kw)
    f = lambda v: sc.rate_log(rec.extra["B_continuous"] * np.asarray(v))
    tr_f_l = window_trace(sc.hermitize(sc.quantize(spec, grid)), f)
    every_row = grid.h_x * np.sum(f(sample_symbol(spec, grid, rows=grid.window))
                                  * grid.omega_weights())
    assert tr_f_l - 8 * rec.error_calculus == pytest.approx(every_row, rel=1e-13)


def test_sweep_with_an_empty_window_records_a_typed_error():
    # alpha = 1 with h_x = 2: the two cell midpoints sit at -0.5 and 1.5
    grid_kw = {"h_x": 2.0, "padding": 1.5, "omega_max": 0.25}
    grid = sc.make_grid(1, **grid_kw)
    assert not range(grid.n_x)[grid.window]
    [rec] = run_convergence_sweep(COSINE, 1.0, [1], grid_kw).records
    assert rec.extra["error"].startswith("NoCapacityError")


def test_eps_schedule_coupling_errors_decrease():
    # the eps-bias and the restriction bias carry opposite signs and cancel
    # near alpha ~ 8, so the decrease is asserted endpoint-to-endpoint
    rep = run_convergence_sweep(COSINE, 1.0, [4, 8, 16], eps_for=lambda a: a ** -0.125)
    errs = [abs(r.error_total) for r in rep.records]
    assert errs[-1] < errs[0]
    eps = [r.eps for r in rep.records]
    assert eps[0] == pytest.approx(4.0 ** -0.125)
    assert eps[0] > eps[1] > eps[2]


def test_stability_quadratic_identity():
    # f = x^2: trace difference equals -||P L (1-P)||_I2^2 / alpha exactly
    alpha = 4
    grid = sc.make_grid(alpha)
    herm = sc.hermitize(sc.quantize(COSINE, grid))
    w = grid.window
    lam_in, _ = eigh_matrix(sc.assemble(herm.blocks, w, w), want_basis=False)
    lam_full, basis = eigh_matrix(herm.matrix)
    wts = (np.abs(basis[w]) ** 2).sum(axis=0)
    diff = (np.sum(lam_in ** 2) - np.sum(lam_full ** 2 * wts)) / alpha
    hs_cross = float(np.sum(np.abs(np.delete(herm.matrix[w], w, axis=1)) ** 2))
    assert diff == pytest.approx(-hs_cross / alpha, rel=1e-9)


def test_stability_linear_function_vanishes():
    rep = run_stability_check(COSINE, lambda x: 2.0 * np.asarray(x), [2, 4])
    for rec in rep.records:
        assert abs(rec.error_stability) <= 1e-9


def test_stability_padding_guard():
    f = sc.build_f_eps(0.1)
    with pytest.raises(ConfigurationError):
        run_stability_check(BAND, f, [4])          # 1/z^2 envelope tail >> 1e-8
    rep = run_stability_check(BAND, f, [4, 8], padding_tol=1.0)
    assert all("error" not in r.extra for r in rep.records)
    assert all(r.extra["ratio"] >= 0 for r in rep.records)


def test_hs_boundary_check_band():
    rep = run_hs_boundary_check(BAND, [4, 8, 16])
    assert rep.summary["hs_bound_ok_all"]
    crosses = [r.hs_cross_norm for r in rep.records]
    assert crosses[0] < crosses[1] < crosses[2]   # grows with alpha
    assert "hs_cross_vs_log_alpha" in rep.fits


def test_symbol_calculus_zero_s_is_exact_zero():
    rep = run_symbol_calculus_check(COSINE, [0.0, 0.5], [2, 4])
    for rec in rep.records:
        assert rec.q_alpha[0.0] == 0.0
        assert rec.q_alpha[0.5] > 0.0


def test_symbol_calculus_rejects_rough_families():
    with pytest.raises(DomainError):
        run_symbol_calculus_check(BAND, [0.5], [4])
    with pytest.raises(DomainError):
        run_symbol_calculus_check(sc.make_symbol("square_smooth"), [0.5], [4])


def test_trace_norm_time_invariant_is_exact_zero():
    rep = run_trace_norm_scaling(BAND, 0.5, [2, 4])
    for rec in rep.records:
        assert rec.tp_i1 == 0.0 and rec.tp_i2 == 0.0


def test_trace_norm_requires_integer_alpha():
    with pytest.raises(DomainError):
        run_trace_norm_scaling(COSINE, 0.5, [2.5])


RUNNERS = {
    "sweep": lambda alphas: run_convergence_sweep(COSINE, 1.0, alphas),
    "check-stability": lambda alphas: run_stability_check(COSINE, np.asarray, alphas),
    "check-hs": lambda alphas: run_hs_boundary_check(COSINE, alphas),
    "check-product": lambda alphas: run_symbol_calculus_check(COSINE, [0.5], alphas),
    "check-tracenorm": lambda alphas: run_trace_norm_scaling(COSINE, 0.5, alphas),
}


@pytest.mark.parametrize("alphas", [[], [np.nan], [np.inf], [4, -np.inf], [0], [-2], [2.5],
                                    [2, 2, 2]],
                         ids=["empty", "nan", "inf", "minus-inf", "zero", "negative", "fraction",
                              "repeated"])
@pytest.mark.parametrize("command", RUNNERS)
def test_bad_alphas_raise_domain_error(command, alphas):
    with pytest.raises(DomainError, match="alphas"):
        RUNNERS[command](alphas)


def test_trace_norm_adjoint_consistency(exp_operator):
    # the blocks of T agree with L_{conj tau}* - L_tau
    from szegocap.operators import assemble, order_differences
    s, grid = 0.5, sc.make_grid(2)
    a_tau = exp_operator(COSINE, s, grid)
    a_tau_conj = exp_operator(COSINE, -s, grid)
    t_matrix = a_tau_conj.matrix.conj().T - a_tau.matrix
    assert np.abs(assemble(order_differences(COSINE, s, grid)[0]) - t_matrix).max() <= 1e-8


GUARDED = {
    # the symbol water-fill's quadrature does not grow with n_x; at the default
    # density it alone peaks at 101 MB traced
    "sweep": lambda alphas, grid_kw: run_convergence_sweep(
        COSINE, 1.0, alphas, grid_kw, density=16),
    "check-product": lambda alphas, grid_kw: run_symbol_calculus_check(
        COSINE, [0.5], alphas, grid_kw),
    "check-tracenorm": lambda alphas, grid_kw: run_trace_norm_scaling(
        COSINE, 0.5, alphas, grid_kw),
    "check-hs": lambda alphas, grid_kw: run_hs_boundary_check(COSINE, alphas, grid_kw),
}


@pytest.mark.parametrize("command", GUARDED)
def test_no_dense_allocation(command, dense_allocation_guard):
    report = dense_allocation_guard(GUARDED[command])
    assert all("error" not in r.extra for r in report.records)


def test_hs_boundary_check_memory():
    # the two HS sums read only the block column, so the peak does not grow
    # with the padding: at padding 8 the complex window x n_x rows alone take
    # 75.5 MB, and at padding 128 the limit is one float64 window x (one side's
    # padding) array, which the assembled cross entries took twice over
    import tracemalloc
    for padding, limit in ((8.0, 25e6), (128.0, 33.5e6)):
        tracemalloc.start()
        try:
            rep = run_hs_boundary_check(COSINE, [128], {"padding": padding})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "error" not in rep.records[0].extra
        assert peak <= limit, f"padding {padding}: traced peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("alpha", [32, 64])
def test_stability_check_dense_peak(alpha):
    # the dense oracle's kernel product, in row panels, holds the caller's
    # real samples, the conjugated phase, the result and one panel, about 2.6
    # complex n_x x n_x arrays (n_omega ~ n_x); every later step works in place
    import tracemalloc
    n_x = sc.make_grid(alpha).n_x
    tracemalloc.start()
    try:
        rep = run_stability_check(sc.make_symbol("two_tone", c=4.0), sc.build_f_eps(0.1),
                                  [alpha], padding_tol=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "error" not in rep.records[0].extra
    assert peak <= 2.75 * 16 * n_x ** 2, f"traced peak {peak / (16 * n_x ** 2):.2f} x 16 n_x^2"


def test_hs_full_sq_matches_dense_rows():
    # the counted sums of |C_d|^2 against the assembled window rows
    from szegocap.operators import assemble
    two_tone = sc.make_symbol("two_tone")
    for spec, grid_kw in ((COSINE, {}), (COSINE, {"padding": 2.25}), (BAND, {}),
                          (sc.make_symbol("square_smooth"), {}), (two_tone, {}),
                          (COSINE, {"padding": 8.5}),     # m = 21, the window not block-aligned
                          (two_tone, {"h_x": 1.0 / 15.0, "omega_max": 7.0}),     # b = 15
                          (COSINE, {"padding": 0.0})):    # the window is the whole circle
        rec = run_hs_boundary_check(spec, [4], grid_kw).records[0]
        grid = sc.make_grid(4, **grid_kw)
        rows = assemble(sc.quantize(spec, grid).blocks, grid.window)
        assert rec.extra["hs_full_sq"] == pytest.approx(np.sum(np.abs(rows) ** 2), rel=1e-14)
        assert rec.hs_cross_norm == pytest.approx(
            np.sum(np.abs(np.delete(rows, grid.window, axis=1)) ** 2), rel=1e-14)
    assert rec.hs_cross_norm == 0.0     # padding 0, the last case: every count cancels


def test_hs_boundary_check_band_at_long_windows():
    # the default envelope's tail constant used to cover only z <= 400, which
    # the tail check integrates past once alpha >= 48
    rep = run_hs_boundary_check(sc.make_symbol("band_constant"), [64, 128])
    assert rep.summary["hs_bound_ok_all"]


def test_sweep_determinism_bit_identical():
    a = run_hs_boundary_check(BAND, [2, 4])
    b = run_hs_boundary_check(BAND, [2, 4])
    assert report_csv(a) == report_csv(b)


def test_per_alpha_failures_are_recorded(monkeypatch):
    import szegocap.harness as hz

    real_quantize = hz.quantize

    def flaky(spec, grid):
        if grid.alpha == 4.0:
            raise sc.DomainError("synthetic failure")
        return real_quantize(spec, grid)

    monkeypatch.setattr(hz, "quantize", flaky)
    rep = run_hs_boundary_check(BAND, [2, 4, 8])
    assert "error" in rep.records[1].extra
    assert rep.records[0].hs_cross_norm is not None
    assert rep.records[2].hs_cross_norm is not None


def test_fit_loglog_recovers_slope():
    xs = np.array([4.0, 8.0, 16.0, 32.0])
    ys = 3.0 * xs ** 0.5
    fit = fit_loglog(xs, ys)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.ci95_lo <= 0.5 + 1e-12 and 0.5 - 1e-12 <= fit.ci95_hi


def test_fit_stderr_on_an_exact_law_is_rounding_noise():
    # 8 ulps up on the first value: a stderr taken from 1 - r^2, as scipy's
    # linregress does, reads 1.05e-8 here while the residual RMS is 3-4e-16
    xs = np.array([32.0, 64.0, 128.0])
    ys = 1.2666972610837 * np.sqrt(xs)
    for _ in range(8):
        ys[0] = np.nextafter(ys[0], np.inf)
    fit = fit_loglog(xs, ys)
    assert fit.rms_resid <= 1e-15
    assert fit.stderr <= 1e-14
    assert fit.ci95_hi - fit.ci95_lo <= 1e-12


def test_fit_affine_is_exact_under_power_of_two_scaling():
    # values near the top of the float range fit as their scaled-down copies;
    # unscaled, the squared residuals overflowed to inf CIs
    xs = np.array([8.0, 16.0, 32.0, 64.0])
    ys = np.array([0.83, 0.91, 0.99, 1.13])
    fit, big = fit_affine(xs, ys), fit_affine(xs, ys * 2.0 ** 1023)
    for name in ("slope", "intercept", "stderr", "ci95_lo", "ci95_hi", "rms_resid"):
        assert getattr(big, name) == getattr(fit, name) * 2.0 ** 1023
    assert big.r2 == fit.r2


def _scipy_fit(xs, ys):
    """fit_affine's fields as scipy's linregress and t.ppf give them, on the
    same power-of-two scaling."""
    xs = np.asarray(xs, dtype=float)
    scale = math.ldexp(1.0, math.frexp(float(np.abs(ys).max()))[1] - 1)
    ys = np.asarray(ys, dtype=float) / scale
    res = stats.linregress(xs, ys)
    n = xs.size
    tcrit = float(stats.t.ppf(0.975, n - 2)) if n > 2 else math.inf
    resid = ys - (res.intercept + res.slope * xs)
    stderr = math.sqrt(np.sum(resid ** 2) / (n - 2) / np.sum((xs - xs.mean()) ** 2)) \
        if n > 2 else 0.0
    return {"slope": float(res.slope * scale), "intercept": float(res.intercept * scale),
            "stderr": stderr * scale, "r2": float(res.rvalue ** 2),
            "ci95_lo": float(res.slope - tcrit * stderr) * scale,
            "ci95_hi": float(res.slope + tcrit * stderr) * scale, "n": n,
            "rms_resid": float(np.sqrt(np.mean(resid ** 2))) * scale}


def _same_bits(fit, expected):
    for name, want in expected.items():
        got = getattr(fit, name)
        assert got == want or (math.isnan(got) and math.isnan(want)), (name, got, want)


def test_t975_table_is_stdtrit_bit_for_bit():
    assert len(T975) == 30
    for k, tcrit in enumerate(T975, start=1):
        assert tcrit == float(special.stdtrit(k, 0.975)), k


# n = 2 stays on the tcrit = inf path (T975[n - 3] would read the last entry);
# n = 32 reads the last tabulated dof and n = 33 the first imported one
@pytest.mark.parametrize("n", [2, 3, 10, 32, 33])
@pytest.mark.parametrize("kind", ["random", "constant", "near_max"])
def test_fit_affine_matches_scipy_bit_for_bit(n, kind):
    rng = np.random.default_rng(n)
    for _ in range(50):
        xs = np.sort(rng.choice(500, n, replace=False)) * rng.uniform(0.01, 10.0)
        if kind == "near_max":
            xs = np.arange(1.0, n + 1.0)
        ys = {"random": rng.normal(size=n),
              "constant": np.full(n, rng.integers(-40, 40) / 8.0),
              "near_max": rng.uniform(0.45, 0.5, n) * np.finfo(float).max}[kind]
        fit = fit_affine(xs, ys)
        _same_bits(fit, _scipy_fit(xs, ys))
        assert math.isnan(fit.r2) == (kind == "constant")


@pytest.mark.parametrize("n", [3, 10])
def test_fit_loglog_matches_scipy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(50):
        xs = np.sort(rng.choice(np.arange(1, 500), n, replace=False)).astype(float)
        ys = rng.uniform(0.1, 10.0) * xs ** rng.uniform(-2.0, 2.0) * rng.uniform(0.9, 1.1, n)
        _same_bits(fit_loglog(xs, ys), _scipy_fit(np.log(xs), np.log(ys)))


def test_stability_zero_bound_with_a_rounding_error_reads_zero():
    # f'' = 0 on a constant f, while its trace error is 0 or a few ulps; the
    # ratio was inf and its fits NaN
    rep = run_stability_check(COSINE, lambda x: np.full(np.shape(x), 0.1), [2, 4, 8])
    assert max(abs(rec.error_stability) for rec in rep.records) <= 1e-15
    assert all(rec.extra["ratio"] == 0.0 for rec in rep.records)
    assert rep.fits == {} and "alphas [2, 4, 8]" in rep.summary["ratio_note"]
