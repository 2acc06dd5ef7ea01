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
from scipy import stats

from .errors import ConfigurationError, DomainError, SzegocapError
from .families import (SymbolSpec, default_envelope, envelope_l1_norm,
                       sample_symbol)
from .grid import (DEFAULT_H_X, DEFAULT_OMEGA_MAX, DEFAULT_PADDING, Grid,
                   make_grid)
from .operators import (SymbolFunctionSpec, assemble, hermitize, quantize,
                        window_block)
from .spectral import eigh_matrix, window_trace
from .transforms import envelope_check, kernel_from_values, two_symbol_kernel
from .waterfill import (QuadratureConfig, build_f_eps, rate_log,
                        sup_abs_second_derivative, waterfill_discrete,
                        waterfill_symbol)


@dataclass(frozen=True)
class GridOptions:
    h_x: float = DEFAULT_H_X
    omega_max: float = DEFAULT_OMEGA_MAX
    padding: float = DEFAULT_PADDING

    def build(self, alpha: float) -> Grid:
        return make_grid(alpha, h_x=self.h_x, omega_max=self.omega_max,
                         padding=self.padding)


@dataclass(frozen=True)
class EpsSchedule:
    """Either a fixed smoothing width or the coupling eps = alpha^(-delta)."""
    mode: str = "alpha_power"
    eps: float | None = None
    delta: float | None = 0.125

    def __post_init__(self):
        if self.mode == "fixed":
            if self.eps is None or self.eps <= 0:
                raise DomainError("fixed eps schedule needs eps > 0")
        elif self.mode == "alpha_power":
            if self.delta is None or self.delta <= 0:
                raise DomainError("alpha_power eps schedule needs delta > 0")
        else:
            raise DomainError(f"unknown eps schedule mode {self.mode!r}")

    def value_for(self, alpha: float) -> float:
        if self.mode == "fixed":
            return float(self.eps)
        return float(alpha) ** (-float(self.delta))


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


def fit_loglog(xs, ys) -> FitResult | None:
    """Least-squares fit of log(y) against log(x) with a 95% CI on the slope."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = (xs > 0) & (ys > 0)
    if keep.sum() < 3:
        return None
    lx, ly = np.log(xs[keep]), np.log(ys[keep])
    res = stats.linregress(lx, ly)
    n = int(keep.sum())
    tcrit = float(stats.t.ppf(0.975, n - 2))
    resid = ly - (res.intercept + res.slope * lx)
    return FitResult(slope=float(res.slope), intercept=float(res.intercept),
                     stderr=float(res.stderr), r2=float(res.rvalue ** 2),
                     ci95_lo=float(res.slope - tcrit * res.stderr),
                     ci95_hi=float(res.slope + tcrit * res.stderr),
                     n=n, rms_resid=float(np.sqrt(np.mean(resid ** 2))))


def fit_affine(xs, ys) -> FitResult:
    """Least-squares y = a + b x, reported with the residual RMS."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    res = stats.linregress(xs, ys)
    n = xs.size
    tcrit = float(stats.t.ppf(0.975, n - 2)) if n > 2 else math.inf
    resid = ys - (res.intercept + res.slope * xs)
    stderr = float(res.stderr) if np.isfinite(res.stderr) else math.nan
    return FitResult(slope=float(res.slope), intercept=float(res.intercept),
                     stderr=stderr, r2=float(res.rvalue ** 2),
                     ci95_lo=float(res.slope - tcrit * stderr) if np.isfinite(stderr) else math.nan,
                     ci95_hi=float(res.slope + tcrit * stderr) if np.isfinite(stderr) else math.nan,
                     n=n, rms_resid=float(np.sqrt(np.mean(resid ** 2))))


def _add_loglog_fits(report: SweepReport, name: str, alphas, values) -> None:
    fit = fit_loglog(alphas, values)
    if fit is not None:
        report.fits[name] = fit
    if len(alphas) > 3:
        fit_drop = fit_loglog(alphas[1:], values[1:])
        if fit_drop is not None:
            report.fits[name + "_drop_first"] = fit_drop


def _grid_meta(grid: Grid, opts: GridOptions) -> dict:
    return {"n_x": grid.n_x, "n_omega": grid.n_omega, "h_x": grid.h_x,
            "omega_max": grid.omega_max, "padding": opts.padding,
            "span": grid.span}


def _check_alphas(alphas) -> list[int]:
    out = []
    for a in alphas:
        if a <= 0 or int(a) != a:
            raise DomainError(f"alphas must be positive integers, got {a}")
        out.append(int(a))
    return out


def _eigvalsh(matrix: np.ndarray) -> np.ndarray:
    vals, _ = eigh_matrix(matrix, want_basis=False)
    return vals


def _mapped_diag_trace(values: np.ndarray, f, grid: Grid) -> float:
    """Restricted trace of the quantization of f(sigma): h_x * sum over window
    rows of the omega-quadrature of f(sigma(x_i, .))."""
    mask = grid.window_mask()
    mapped = np.asarray(f(values[mask, :]), dtype=float)
    return float(grid.h_x * (mapped * grid.omega_weights()).sum())


def run_convergence_sweep(spec: SymbolSpec, S: float, alphas,
                          grid_opts: GridOptions | None = None,
                          quad: QuadratureConfig | None = None,
                          eps_schedule: EpsSchedule | None = None) -> SweepReport:
    """Capacity of the restricted operator versus the symbol-integral formula.

    Per alpha: water-fill the spectrum of the hermitized restricted operator,
    and decompose the fixed-f trace error (f = rate at the continuous water
    level) into its interval-stability and symbol-calculus parts.
    """
    alphas = _check_alphas(alphas)
    opts = grid_opts or GridOptions()
    if quad is None:
        quad = QuadratureConfig(omega_max=opts.omega_max)
    sol_sym = waterfill_symbol(spec, S, quad)
    B = sol_sym.B

    report = SweepReport(command="sweep", config={}, records=[])
    for alpha in alphas:
        rec = SweepRecord(alpha=alpha)
        report.records.append(rec)
        try:
            grid = opts.build(alpha)
            rec.grid_meta = _grid_meta(grid, opts)

            op = quantize(spec, grid)
            rec.hermitian_defect = op.hermitian_defect
            herm = hermitize(op)

            lam_in = _eigvalsh(window_block(herm))
            sol = waterfill_discrete(lam_in, S, alpha)
            rec.capacity_discrete = sol.capacity_rate
            rec.capacity_symbol = sol_sym.capacity_rate

            if eps_schedule is not None:
                eps = eps_schedule.value_for(alpha)
                f_eps = build_f_eps("log", eps)
                f = lambda v, _f=f_eps: _f(B * np.asarray(v, dtype=float))
                rec.eps = eps
            else:
                f = lambda v: rate_log(B * np.asarray(v, dtype=float))

            tr_f_plp = float(np.sum(f(lam_in)))
            tr_f_l = window_trace(herm, f)
            tr_l_fsigma = _mapped_diag_trace(sample_symbol(spec, grid), f, grid)

            rec.error_total = (tr_f_plp - tr_l_fsigma) / alpha
            rec.error_stability = (tr_f_plp - tr_f_l) / alpha
            rec.error_calculus = (tr_f_l - tr_l_fsigma) / alpha
            rec.extra.update({
                "B_continuous": B,
                "B_discrete": sol.B,
                "capacity_abs_diff": abs(sol.capacity_rate - sol_sym.capacity_rate),
                "active_count": sol.active_count,
                "lambda_max": float(lam_in[0]),
                "lambda_min": float(lam_in[-1]),
            })
        except SzegocapError as exc:
            rec.extra["error"] = f"{type(exc).__name__}: {exc}"

    ok = [r for r in report.records if "error" not in r.extra]
    diffs = [r.extra["capacity_abs_diff"] for r in ok]
    if diffs:
        _add_loglog_fits(report, "capacity_abs_diff",
                         [r.alpha for r in ok], diffs)
        _add_loglog_fits(report, "error_total_abs",
                         [r.alpha for r in ok],
                         [abs(r.error_total) for r in ok])
    report.summary["capacity_symbol"] = sol_sym.capacity_rate
    report.summary["B_continuous"] = B
    return report


def run_stability_check(spec: SymbolSpec, f, alphas,
                        grid_opts: GridOptions | None = None,
                        f_second_sup: float | None = None,
                        padding_tol: float = 1e-8) -> SweepReport:
    """Interval-section stability: (1/alpha) |tr_a(f(PLP) - f(L))| against the
    reference envelope ||f''||_inf log(alpha)/alpha.

    The kernel envelope tail beyond the padding must not exceed padding_tol;
    slowly decaying families need an explicitly loosened tolerance.
    """
    alphas = _check_alphas(alphas)
    opts = grid_opts or GridOptions()

    env = default_envelope(spec)
    z = np.linspace(opts.padding, opts.padding + 400.0, 400001)
    tail = 2.0 * float(np.trapezoid(env.psi(z), z))
    if tail > padding_tol:
        raise ConfigurationError(
            f"envelope tail beyond padding {opts.padding} is {tail:.3e} > "
            f"padding_tol {padding_tol:.3e}; increase padding or loosen the tolerance")

    report = SweepReport(command="check-stability", config={}, records=[])
    for alpha in alphas:
        rec = SweepRecord(alpha=alpha)
        report.records.append(rec)
        try:
            grid = opts.build(alpha)
            rec.grid_meta = _grid_meta(grid, opts)
            mask = grid.window_mask()
            rec.hermitian_defect = quantize(spec, grid).hermitian_defect
            # The spectral interval below feeds a finite-difference sup of f''
            # that moves by 1e-8 relative when lambda_max moves by a few ulps,
            # so this check keeps its dense quadrature and full eigh.
            matrix = grid.h_x * kernel_from_values(sample_symbol(spec, grid), grid)
            herm = 0.5 * (matrix + matrix.conj().T)
            del matrix

            lam_in = _eigvalsh(herm[np.ix_(mask, mask)])
            lam_full, basis = eigh_matrix(herm, want_basis=True)
            wts = (np.abs(basis[mask, :]) ** 2).sum(axis=0)

            tr_f_plp = float(np.sum(np.asarray(f(lam_in), dtype=float)))
            tr_f_l = float(np.sum(np.asarray(f(lam_full), dtype=float) * wts))
            stab_signed = (tr_f_plp - tr_f_l) / alpha
            rec.error_stability = stab_signed

            lo = min(0.0, float(lam_full[-1]))
            hi = max(0.0, float(lam_full[0]))
            f2 = f_second_sup if f_second_sup is not None else \
                sup_abs_second_derivative(f, lo, hi)
            bound = f2 * math.log(alpha) / alpha if alpha > 1 else math.inf
            rec.extra.update({
                "stability_abs": abs(stab_signed),
                "bound": bound,
                "ratio": abs(stab_signed) / bound if bound > 0 else math.inf,
                "f_second_sup": f2,
                "spectral_interval": [lo, hi],
            })
        except SzegocapError as exc:
            rec.extra["error"] = f"{type(exc).__name__}: {exc}"

    ok = [r for r in report.records if "error" not in r.extra]
    if ok:
        _add_loglog_fits(report, "stability_ratio",
                         [r.alpha for r in ok],
                         [r.extra["ratio"] for r in ok])
    report.summary["envelope_tail_beyond_padding"] = tail
    return report


def run_hs_boundary_check(spec: SymbolSpec, alphas,
                          grid_opts: GridOptions | None = None) -> SweepReport:
    """Hilbert-Schmidt growth: ||P L||_I2^2 <= alpha ||psi||_1 and the log-law
    fit of the cross term ||P L (1-P)||_I2^2."""
    alphas = _check_alphas(alphas)
    opts = grid_opts or GridOptions()
    env = default_envelope(spec)
    env_report = envelope_check(spec, env, opts.build(alphas[0]))
    if not env_report.passed:
        raise ConfigurationError(
            f"default envelope fails its own check (worst margin "
            f"{env_report.worst_margin:.3e}); cannot certify HS bounds")
    psi_l1 = envelope_l1_norm(env)

    report = SweepReport(command="check-hs", config={}, records=[])
    for alpha in alphas:
        rec = SweepRecord(alpha=alpha)
        report.records.append(rec)
        try:
            grid = opts.build(alpha)
            rec.grid_meta = _grid_meta(grid, opts)
            mask = grid.window_mask()
            op = quantize(spec, grid)
            rec.hermitian_defect = op.hermitian_defect
            rows = assemble(op.blocks, mask)
            hs_full_sq = float(np.sum(np.abs(rows) ** 2))
            hs_cross_sq = float(np.sum(np.abs(rows[:, ~mask]) ** 2))
            rec.hs_cross_norm = hs_cross_sq
            rec.extra.update({
                "hs_full_sq": hs_full_sq,
                "alpha_psi_l1": alpha * psi_l1,
                "hs_bound_ok": bool(hs_full_sq <= alpha * psi_l1),
            })
        except SzegocapError as exc:
            rec.extra["error"] = f"{type(exc).__name__}: {exc}"

    ok = [r for r in report.records if "error" not in r.extra]
    if len(ok) >= 3:
        a = np.array([r.alpha for r in ok], dtype=float)
        y = np.array([r.hs_cross_norm for r in ok])
        log_fit = fit_affine(np.log(a), y)
        lin_fit = fit_affine(a, y)
        report.fits["hs_cross_vs_log_alpha"] = log_fit
        report.fits["hs_cross_vs_alpha"] = lin_fit
        report.summary["resid_ratio_linear_over_log"] = (
            lin_fit.rms_resid / log_fit.rms_resid if log_fit.rms_resid > 0 else math.inf)
    report.summary["psi_l1"] = psi_l1
    report.summary["hs_bound_ok_all"] = all(
        r.extra.get("hs_bound_ok", False) for r in ok) if ok else False
    return report


def run_symbol_calculus_check(spec: SymbolSpec, s_values, alphas,
                              grid_opts: GridOptions | None = None) -> SweepReport:
    """Trace-norm deviation between operator composition and symbol product:
    Q_alpha(s) = || (L_sigma L_{e(s sigma)} - L_{sigma e(s sigma)}) P ||_I1."""
    alphas = _check_alphas(alphas)
    opts = grid_opts or GridOptions()
    if not spec.time_invariant:
        if spec.period_x is None or abs(spec.period_x - 1.0) > 1e-12:
            raise DomainError("symbol-calculus check needs a 1-periodic or "
                              "time-invariant symbol")
    if spec.smoothness_order < 3:
        raise DomainError(
            f"symbol-calculus check needs a C^3 family; {spec.family_name!r} "
            f"has smoothness order {spec.smoothness_order}")
    s_values = [float(s) for s in s_values]

    report = SweepReport(command="check-product", config={}, records=[])
    for alpha in alphas:
        rec = SweepRecord(alpha=alpha)
        report.records.append(rec)
        try:
            grid = opts.build(alpha)
            rec.grid_meta = _grid_meta(grid, opts)
            mask = grid.window_mask()
            a_sigma = quantize(spec, grid)
            rec.hermitian_defect = a_sigma.hermitian_defect
            for s in s_values:
                a_exp = quantize(SymbolFunctionSpec(spec, "exp_i2pi_s", s=s), grid)
                a_prod = quantize(SymbolFunctionSpec(spec, "product_sigma_exp", s=s), grid)
                # Fourier blocks multiply and subtract like their operators
                cols = assemble(a_sigma.blocks @ a_exp.blocks - a_prod.blocks,
                                cols=mask)
                if np.linalg.norm(cols) == 0.0:
                    rec.q_alpha[s] = 0.0
                else:
                    rec.q_alpha[s] = float(np.linalg.svd(cols, compute_uv=False).sum())
        except SzegocapError as exc:
            rec.extra["error"] = f"{type(exc).__name__}: {exc}"

    ok = [r for r in report.records if "error" not in r.extra]
    for s in s_values:
        qs = [r.q_alpha.get(s) for r in ok]
        if all(q is not None for q in qs) and qs:
            _add_loglog_fits(report, f"q_s{s:g}", [r.alpha for r in ok], qs)
    return report


def run_trace_norm_scaling(spec: SymbolSpec, s: float, alphas,
                           grid_opts: GridOptions | None = None) -> SweepReport:
    """Schatten norms of the quantization-order differences T and T'.

    T = L*_{conj tau} - L_tau and T' = L_sigma L*_{conj tau} - L_{sigma tau}
    with tau = e^{i 2 pi s sigma}, assembled directly from their kernels
    (frequency quadrature of tau(y, .) - tau(x, .) phase integrals).
    """
    alphas = _check_alphas(alphas)
    opts = grid_opts or GridOptions()
    if not spec.time_invariant:
        if spec.period_x is None or abs(spec.period_x - 1.0) > 1e-12:
            raise DomainError("trace-norm scaling needs a 1-periodic or "
                              "time-invariant symbol")
    s = float(s)

    report = SweepReport(command="check-tracenorm", config={}, records=[])
    for alpha in alphas:
        rec = SweepRecord(alpha=alpha)
        report.records.append(rec)
        try:
            grid = opts.build(alpha)
            rec.grid_meta = _grid_meta(grid, opts)
            mask = grid.window_mask()
            sigma = sample_symbol(spec, grid)
            if spec.time_invariant:
                # the integrand tau(y, .) - tau(x, .) vanishes identically
                t_mat = np.zeros((grid.n_x, grid.n_x))
                tp_mat = t_mat
            else:
                tau = np.exp(2j * np.pi * s * sigma)
                ones = np.ones_like(sigma)
                # t(x, y)  = int e^{-i2pi w (x-y)} (tau(y, w) - tau(x, w)) dw
                # t'(x, y) = int e^{-i2pi w (x-y)} sigma(x, w) (tau(y, w) - tau(x, w)) dw
                t_mat = grid.h_x * (two_symbol_kernel(ones, tau, grid)
                                    - two_symbol_kernel(tau, ones, grid))
                tp_mat = grid.h_x * (two_symbol_kernel(sigma, tau, grid)
                                     - two_symbol_kernel(sigma * tau, ones, grid))

            for name, m in (("tp", t_mat), ("tp_prime", tp_mat)):
                cols = m[:, mask]
                i2 = float(np.linalg.norm(cols))
                i1 = 0.0 if i2 == 0.0 else float(
                    np.linalg.svd(cols, compute_uv=False).sum())
                if name == "tp":
                    rec.tp_i1, rec.tp_i2 = i1, i2
                else:
                    rec.extra["tp_prime_i1"] = i1
                    rec.extra["tp_prime_i2"] = i2
        except SzegocapError as exc:
            rec.extra["error"] = f"{type(exc).__name__}: {exc}"

    ok = [r for r in report.records if "error" not in r.extra]
    if ok:
        a = [r.alpha for r in ok]
        _add_loglog_fits(report, "tp_i1", a, [r.tp_i1 for r in ok])
        _add_loglog_fits(report, "tp_i2", a, [r.tp_i2 for r in ok])
        _add_loglog_fits(report, "tp_prime_i1", a, [r.extra["tp_prime_i1"] for r in ok])
        _add_loglog_fits(report, "tp_prime_i2", a, [r.extra["tp_prime_i2"] for r in ok])
    return report
