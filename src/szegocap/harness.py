"""Asymptotic experiment runners: capacity convergence, interval-section
stability, Hilbert-Schmidt boundary growth, symbol-calculus deviation, and
trace-norm scaling of quantization-order differences.

Every runner sweeps a list of window lengths alpha, records one SweepRecord
per alpha, and fits log-log slopes of the recorded quantities.  Per-alpha
failures are recorded in the record's `extra` dict and the sweep continues.
All computations are deterministic: identical inputs give identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, SzegocapError
from .families import (SymbolSpec, default_envelope, envelope_integral,
                       sample_symbol)
from .grid import DEFAULT_OMEGA_MAX, DEFAULT_PADDING, DEFAULT_QUAD_DENSITY, Grid, make_grid
from .operators import (first_column, hermitize, order_differences, period_samples,
                        product_deviations, quantize, real_cast, skew_norm)
from .spectral import eigh_matrix, schatten_norms, window_eigvalsh, window_trace
from .transforms import envelope_check, kernel_from_values
from .waterfill import (build_f_eps, rate_log, sup_abs_second_derivative,
                        waterfill_discrete, waterfill_symbol)


@dataclass
class SweepRecord:
    alpha: int
    capacity_discrete: float | None = None
    capacity_symbol: float | None = None
    error_total: float | None = None
    error_stability: float | None = None
    error_calculus: float | None = None
    hs_cross_norm: float | None = None
    q_alpha: dict[float, float] = field(default_factory=dict)
    tp_i1: float | None = None
    tp_i2: float | None = None
    eps: float | None = None
    hermitian_defect: float | None = None
    grid_meta: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    stderr: float
    r2: float
    ci95_lo: float
    ci95_hi: float
    n: int
    rms_resid: float


@dataclass
class SweepReport:
    command: str
    config: dict
    records: list[SweepRecord]
    fits: dict[str, FitResult] = field(default_factory=dict)
    summary: dict = field(default_factory=dict)


# The 95% t quantile float(scipy.special.stdtrit(k, 0.975)) for k = 1..30
# degrees of freedom, as scipy 1.17.1 gives it, so a fit over 3-32 points
# imports nothing
T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378)


def fit_loglog(xs, ys) -> FitResult | None:
    """Least-squares fit of log(y) against log(x) with a 95% CI on the slope,
    over the points with x, y > 0; None below three such points."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = (xs > 0) & (ys > 0)
    if keep.sum() < 3:
        return None
    return fit_affine(np.log(xs[keep]), np.log(ys[keep]))


def fit_affine(xs, ys) -> FitResult:
    """Least-squares y = a + b x, reported with the residual RMS.

    The line and r take linregress's arithmetic and the t quantile the
    stdtrit call behind t.ppf, so the fits keep their bits.  Over 3-32 points
    the quantile is read from T975, stdtrit's own values, which
    tests/test_harness.py::test_t975_table_is_stdtrit_bit_for_bit pins; only a
    fit over more points imports scipy.special, here.  The fit runs on ys
    divided by the power of two at or below their largest magnitude, which is
    exact, so values near the top of the float range do not overflow in its
    sums of squares."""
    xs = np.asarray(xs, dtype=float)
    scale = math.ldexp(1.0, math.frexp(float(np.abs(ys).max()))[1] - 1)
    ys = np.asarray(ys, dtype=float) / scale
    ssxm, ssxym, _, ssym = np.cov(xs, ys, bias=1).flat
    slope = ssxym / ssxm
    intercept = ys.mean() - slope * xs.mean()
    r = min(max(ssxym / math.sqrt(ssxm * ssym), -1.0), 1.0) \
        if ssxm != 0.0 and ssym != 0.0 else math.nan
    resid = ys - (intercept + slope * xs)
    n = xs.size
    tcrit, stderr = math.inf, 0.0
    if n > 2:
        if n - 2 <= len(T975):
            tcrit = T975[n - 3]
        else:
            from scipy.special import stdtrit
            tcrit = float(stdtrit(n - 2, 0.975))
        # the slope's standard error from the residuals: linregress takes it from
        # 1 - r^2, which on an exact law reads 0 or at least about sqrt(eps)
        stderr = math.sqrt(np.sum(resid ** 2) / (n - 2) / np.sum((xs - xs.mean()) ** 2))
    return FitResult(slope=float(slope * scale), intercept=float(intercept * scale),
                     stderr=stderr * scale, r2=float(r ** 2),
                     ci95_lo=float(slope - tcrit * stderr) * scale,
                     ci95_hi=float(slope + tcrit * stderr) * scale,
                     n=n, rms_resid=float(np.sqrt(np.mean(resid ** 2))) * scale)


def _check_alphas(alphas) -> list[int]:
    alphas = list(alphas)
    if not alphas or not all(math.isfinite(a) and a > 0 and int(a) == a for a in alphas) \
            or len(set(alphas)) < len(alphas):
        raise DomainError(
            f"alphas must be a non-empty list of distinct positive integers, got {alphas}")
    return [int(a) for a in alphas]


def _sweep(command: str, alphas, grid_kw: dict | None, measure,
           fits: dict | None = None) -> tuple[SweepReport, list[SweepRecord]]:
    """The per-alpha loop shared by every runner.

    For each alpha, builds the grid (make_grid keywords `grid_kw`), records
    its geometry and calls measure(grid, rec) to fill the record; a
    SzegocapError is recorded as extra["error"] and the sweep moves on.  Then
    fits each `fits` entry, name -> value(rec), over the good records in
    log-log, once with all of them and once without the first
    (name + "_drop_first").  Returns the report and the good records.
    """
    report = SweepReport(command=command, config={}, records=[])
    for alpha in _check_alphas(alphas):
        rec = SweepRecord(alpha=alpha)
        report.records.append(rec)
        try:
            grid = make_grid(alpha, **(grid_kw or {}))
            rec.grid_meta = {"n_x": grid.n_x, "n_omega": grid.n_omega, "h_x": grid.h_x,
                             "omega_max": grid.omega_max, "padding": -grid.x_min,
                             "span": grid.span}
            measure(grid, rec)
        except SzegocapError as exc:
            rec.extra["error"] = f"{type(exc).__name__}: {exc}"

    ok = [r for r in report.records if "error" not in r.extra]
    a = [r.alpha for r in ok]
    for name, value in (fits or {}).items():
        v = [value(r) for r in ok]
        for key, fit in ((name, fit_loglog(a, v)),
                         (name + "_drop_first", fit_loglog(a[1:], v[1:]))):
            if fit is not None:
                report.fits[key] = fit
    return report, ok


def run_convergence_sweep(spec: SymbolSpec, S: float, alphas,
                          grid_kw: dict | None = None, density: int = DEFAULT_QUAD_DENSITY,
                          eps_for=None) -> SweepReport:
    """Capacity of the restricted operator versus the symbol-integral formula.

    Per alpha: water-fill the spectrum of the hermitized restricted operator,
    and decompose the fixed-f trace error (f = rate at the continuous water
    level) into its interval-stability and symbol-calculus parts.  With eps_for,
    a function of alpha, f smooths the rate as build_f_eps(eps_for(alpha)).
    """
    omega_max = (grid_kw or {}).get("omega_max", DEFAULT_OMEGA_MAX)
    sol_sym = waterfill_symbol(spec, S, density, omega_max)
    B = sol_sym.B

    def measure(grid: Grid, rec: SweepRecord) -> None:
        op = quantize(spec, grid)
        rec.hermitian_defect = op.hermitian_defect
        herm = hermitize(op)

        lam_in = window_eigvalsh(herm.blocks, grid.window)
        sol = waterfill_discrete(lam_in, S, rec.alpha)
        rec.capacity_discrete = sol.capacity_rate
        rec.capacity_symbol = sol_sym.capacity_rate

        r = rate_log
        if eps_for is not None:
            rec.eps = eps_for(rec.alpha)
            r = build_f_eps(rec.eps)
        f = lambda v: r(B * np.asarray(v, dtype=float))

        tr_f_plp = float(np.sum(f(lam_in)))
        tr_f_l = window_trace(herm, f)
        # tr_a of the quantized f(sigma): h_x times the omega-quadrature of
        # f(sigma(x_i, .)) summed over the window rows; sigma repeats every
        # b rows, so row r of one period counts once per window row = r mod b
        f_sigma = np.asarray(f(period_samples(spec, grid)), dtype=float)
        tr_l_fsigma = float(grid.h_x * (grid.window_counts(f_sigma.shape[0]) @ f_sigma
                                        @ grid.omega_weights()))

        rec.error_total = (tr_f_plp - tr_l_fsigma) / rec.alpha
        rec.error_stability = (tr_f_plp - tr_f_l) / rec.alpha
        rec.error_calculus = (tr_f_l - tr_l_fsigma) / rec.alpha
        rec.extra.update({
            "B_continuous": B,
            "B_discrete": sol.B,
            "capacity_abs_diff": abs(sol.capacity_rate - sol_sym.capacity_rate),
            "active_count": sol.active_count,
            "lambda_max": float(lam_in[0]),
            "lambda_min": float(lam_in[-1]),
        })

    report, _ = _sweep("sweep", alphas, grid_kw, measure, fits={
        "capacity_abs_diff": lambda r: r.extra["capacity_abs_diff"],
        "error_total_abs": lambda r: abs(r.error_total)})
    report.summary["capacity_symbol"] = sol_sym.capacity_rate
    report.summary["B_continuous"] = B
    return report


def run_stability_check(spec: SymbolSpec, f, alphas,
                        grid_kw: dict | None = None,
                        padding_tol: float = 1e-8) -> SweepReport:
    """Interval-section stability: (1/alpha) |tr_a(f(PLP) - f(L))| against the
    reference envelope ||f''||_inf log(alpha)/alpha.

    The kernel envelope tail beyond the padding must not exceed padding_tol;
    slowly decaying families need an explicitly loosened tolerance.  Where f''
    vanishes on the spectral interval, f is affine there, the trace error is 0
    up to rounding and the bound is 0: the ratio then reads 0, the log-log fit
    skips it, and the summary's ratio_note names those alphas.
    """
    grid_kw = grid_kw or {}
    padding = grid_kw.get("padding", DEFAULT_PADDING)
    psi = default_envelope(spec, grid_kw.get("omega_max", DEFAULT_OMEGA_MAX))
    tail = envelope_integral(psi, lo=padding)
    if tail > padding_tol:
        raise ConfigurationError(
            f"envelope tail beyond padding {padding} is {tail:.3e} > "
            f"padding_tol {padding_tol:.3e}; increase padding or loosen the tolerance")

    def measure(grid: Grid, rec: SweepRecord) -> None:
        if rec.alpha < 2:       # the bound log(alpha) / alpha is 0 at alpha = 1
            raise DomainError(f"stability check needs alpha >= 2, got {rec.alpha}")
        w = grid.window
        op = quantize(spec, grid)
        rec.hermitian_defect = op.hermitian_defect
        lam_in = window_eigvalsh(hermitize(op).blocks, w)

        # The spectral interval below feeds a finite-difference sup of f''
        # that moves by 1e-8 relative when lambda_max moves by a few ulps,
        # so this check keeps its dense quadrature and full eigh, built in
        # place to the bits of 0.5 (K + K^H) for K = h_x kernel.
        kernel = kernel_from_values(sample_symbol(spec, grid), grid)
        kernel *= grid.h_x
        herm = np.conjugate(kernel.T, order="C")
        herm += kernel
        del kernel
        herm *= 0.5
        herm = real_cast(herm)
        lam_full, basis = eigh_matrix(herm, want_basis=True)
        del herm
        wts = (np.abs(basis[w]) ** 2).sum(axis=0)
        del basis

        tr_f_plp = float(np.sum(np.asarray(f(lam_in), dtype=float)))
        tr_f_l = float(np.sum(np.asarray(f(lam_full), dtype=float) * wts))
        stab_signed = (tr_f_plp - tr_f_l) / rec.alpha
        rec.error_stability = stab_signed

        lo = min(0.0, float(lam_full[-1]))
        hi = max(0.0, float(lam_full[0]))
        f2 = sup_abs_second_derivative(f, lo, hi)
        bound = f2 * math.log(rec.alpha) / rec.alpha
        rec.extra.update({
            "stability_abs": abs(stab_signed),
            "bound": bound,
            "ratio": abs(stab_signed) / bound if bound > 0 else 0.0,
            "f_second_sup": f2,
            "spectral_interval": [lo, hi],
        })

    report, ok = _sweep("check-stability", alphas, grid_kw, measure,
                        fits={"stability_ratio": lambda r: r.extra["ratio"]})
    report.summary["envelope_tail_beyond_padding"] = tail
    zero = [r.alpha for r in ok if r.extra["bound"] == 0.0]
    if zero:
        report.summary["ratio_note"] = (
            f"f'' vanishes on the spectral interval at alphas {zero}: f is affine there, "
            "the trace error is 0 up to rounding and the bound is 0, so the ratio reads 0 "
            "and is not fitted")
    return report


def run_hs_boundary_check(spec: SymbolSpec, alphas,
                          grid_kw: dict | None = None) -> SweepReport:
    """Hilbert-Schmidt growth: ||P L||_I2^2 <= alpha ||psi||_1 and the log-law
    fit of the cross term ||P L (1-P)||_I2^2."""
    grid_kw = grid_kw or {}
    psi = default_envelope(spec, grid_kw.get("omega_max", DEFAULT_OMEGA_MAX))
    # checked on the first alpha whose grid builds; _sweep records the others' errors
    for alpha in _check_alphas(alphas):
        try:
            first_grid = make_grid(alpha, **grid_kw)
        except SzegocapError:
            continue
        margin = envelope_check(spec, psi, first_grid)
        if margin < 1.0:
            raise ConfigurationError(
                f"default envelope fails its own pointwise check (worst margin "
                f"{margin:.3e}); cannot certify HS bounds")
        break
    psi_l1 = envelope_integral(psi)

    def measure(grid: Grid, rec: SweepRecord) -> None:
        w = grid.window
        op = quantize(spec, grid)
        rec.hermitian_defect = op.hermitian_defect
        m, b, _ = op.blocks.shape
        # entry (u b + r, v b + s) is C_{(u - v) mod m}[r, s]; window row u b + r
        # has u in [lo_r, hi_r), and pairs[d, r, s] counts the window pairs with
        # (u - v) mod m = d: [lo_r, hi_r) meets [lo_s, hi_s) shifted by d or d - m
        c2 = np.abs(first_column(op.blocks)) ** 2
        lo, hi = (-((np.arange(b) - k) // b) for k in (w.start, w.stop))
        d = np.arange(m)[:, None, None]
        pairs = sum(np.maximum(np.minimum(hi[:, None], hi + k) - np.maximum(lo[:, None], lo + k),
                               0) for k in (d, d - m))
        n = (hi - lo)[:, None]      # the window rows of each residue r
        # counts times |C_d|^2: nonnegative terms, exact counts
        hs_full_sq, hs_cross_sq = (float(np.sum(x * c2)) for x in (n, n - pairs))
        if not all(map(math.isfinite, (hs_full_sq, hs_cross_sq, rec.alpha * psi_l1))):
            raise DomainError(f"a Hilbert-Schmidt value overflows at alpha = {rec.alpha}")
        rec.hs_cross_norm = hs_cross_sq
        rec.extra.update({
            "hs_full_sq": hs_full_sq,
            "alpha_psi_l1": rec.alpha * psi_l1,
            "hs_bound_ok": bool(hs_full_sq <= rec.alpha * psi_l1),
        })

    report, ok = _sweep("check-hs", alphas, grid_kw, measure)
    pos = [r for r in ok if r.hs_cross_norm > 0]    # 0 when the window covers the grid
    if len(pos) >= 3:
        a = np.array([r.alpha for r in pos], dtype=float)
        y = np.array([r.hs_cross_norm for r in pos])
        log_fit = fit_affine(np.log(a), y)
        lin_fit = fit_affine(a, y)
        report.fits["hs_cross_vs_log_alpha"] = log_fit
        report.fits["hs_cross_vs_alpha"] = lin_fit
        report.summary["resid_ratio_linear_over_log"] = (
            lin_fit.rms_resid / log_fit.rms_resid if log_fit.rms_resid > 0 else math.inf)
    report.summary["psi_l1"] = psi_l1
    report.summary["hs_bound_ok_all"] = bool(ok) and all(r.extra["hs_bound_ok"] for r in ok)
    return report


def run_symbol_calculus_check(spec: SymbolSpec, s_values, alphas,
                              grid_kw: dict | None = None) -> SweepReport:
    """Trace-norm deviation between operator composition and symbol product:
    Q_alpha(s) = || (L_sigma L_{e(s sigma)} - L_{sigma e(s sigma)}) P ||_I1."""
    if spec.smoothness_order < 3:
        raise DomainError(
            f"symbol-calculus check needs a C^3 family; {spec.family_name!r} "
            f"has smoothness order {spec.smoothness_order}")
    s_values = [float(s) for s in s_values]

    def measure(grid: Grid, rec: SweepRecord) -> None:
        a_sigma, deviations = product_deviations(spec, s_values, grid)
        rec.hermitian_defect = skew_norm(a_sigma)
        for s, blocks in zip(s_values, deviations):
            rec.q_alpha[s] = schatten_norms(blocks, grid.window)[0]

    report, _ = _sweep("check-product", alphas, grid_kw, measure, fits={
        f"q_s{s:g}": lambda r, s=s: r.q_alpha[s] for s in s_values})
    return report


def run_trace_norm_scaling(spec: SymbolSpec, s: float, alphas,
                           grid_kw: dict | None = None) -> SweepReport:
    """Schatten norms of the quantization-order differences T and T'.

    T = L*_{conj tau} - L_tau and T' = L_sigma L*_{conj tau} - L_{sigma tau}
    with tau = e^{i 2 pi s sigma}, built from their Fourier blocks
    (operators.order_differences) in the window columns.
    """
    s = float(s)

    def measure(grid: Grid, rec: SweepRecord) -> None:
        if spec.time_invariant:
            # the integrand tau(y, .) - tau(x, .) vanishes identically
            rec.tp_i1 = rec.tp_i2 = rec.extra["tp_prime_i1"] = rec.extra["tp_prime_i2"] = 0.0
            return
        norms = []
        for blocks in order_differences(spec, s, grid):
            norms += schatten_norms(blocks, grid.window)
        rec.tp_i1, rec.tp_i2, rec.extra["tp_prime_i1"], rec.extra["tp_prime_i2"] = norms

    report, _ = _sweep("check-tracenorm", alphas, grid_kw, measure, fits={
        "tp_i1": lambda r: r.tp_i1,
        "tp_i2": lambda r: r.tp_i2,
        "tp_prime_i1": lambda r: r.extra["tp_prime_i1"],
        "tp_prime_i2": lambda r: r.extra["tp_prime_i2"]})
    return report
