"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy spectral bundles
are session-cached and shared across criteria.  Criterion 7b checks the
linear law that the trace norm of the quantization-order difference obeys;
its docstring gives the lower-bound argument.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

import szegocap as sc
from szegocap.families import default_envelope, envelope_integral
from szegocap.harness import (fit_affine, run_convergence_sweep,
                              run_symbol_calculus_check, run_trace_norm_scaling)
from szegocap.operators import assemble, order_differences
from szegocap.spectral import eigh_matrix
from szegocap.waterfill import sup_abs_second_derivative

BAND_ALPHAS = (8, 16, 32, 64, 128)
SWEEP_ALPHAS = (8, 16, 32, 64)
S_BUDGET = 1.0
TRACE_S = 0.5

BAND = sc.make_symbol("band_constant", c=1.0, W=0.25)
COSINE = sc.make_symbol("cosine_gauss", w=1.0)
SQUARE = sc.make_symbol("square_smooth")
TWO_TONE = sc.make_symbol("two_tone")


def check(num, desc, ok):
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num}: {desc}"


@pytest.fixture(scope="session")
def band_bundle():
    """Spectral data of band_constant{c=1, W=0.25} per alpha (raw + hermitized)."""
    out = {}
    for alpha in BAND_ALPHAS:
        grid = sc.make_grid(alpha)
        op = sc.quantize(BAND, grid)
        w = grid.window
        rows = op.matrix[w]
        herm = sc.hermitize(op)
        lam_in, _ = eigh_matrix(assemble(herm.blocks, w, w), want_basis=False)
        lam_full, basis = eigh_matrix(herm.matrix, want_basis=True)
        wts = (np.abs(basis[w]) ** 2).sum(axis=0)
        out[alpha] = {
            "lam_in": lam_in,
            "lam_full": lam_full,
            "weights": wts,
            "hs_full_sq": float(np.sum(np.abs(rows) ** 2)),
            "hs_cross_sq": float(np.sum(np.abs(np.delete(rows, w, axis=1)) ** 2)),
        }
    return out


@pytest.fixture(scope="session")
def convergence_sweeps():
    return {
        "cosine_gauss": run_convergence_sweep(COSINE, S_BUDGET, SWEEP_ALPHAS),
        "square_smooth": run_convergence_sweep(SQUARE, S_BUDGET, SWEEP_ALPHAS),
    }


@pytest.fixture(scope="session")
def tracenorm_report():
    return run_trace_norm_scaling(COSINE, TRACE_S, SWEEP_ALPHAS)


def test_criterion_01_waterfill_oracles():
    a = sc.waterfill_discrete([1.0, 1.0], 2.0, 1.0)
    b = sc.waterfill_discrete([4.0, 1.0], 0.5, 1.0)
    ok_vals = (abs(a.B - 2.0) / 2.0 <= 1e-10
               and abs(a.capacity_rate - 2 * math.log(2)) / (2 * math.log(2)) <= 1e-10
               and abs(b.B - 0.75) / 0.75 <= 1e-10
               and abs(b.capacity_rate - math.log(3)) / math.log(3) <= 1e-10)
    for _ in range(20):        # warm-up
        sc.waterfill_discrete([4.0, 1.0], 0.5, 1.0)
    n_rep = 200
    t0 = time.perf_counter()
    for _ in range(n_rep):
        sc.waterfill_discrete([1.0, 1.0], 2.0, 1.0)
        sc.waterfill_discrete([4.0, 1.0], 0.5, 1.0)
    per_call = (time.perf_counter() - t0) / (2 * n_rep)
    ok_time = per_call < 1e-3
    print(f"  water-fill per call: {per_call * 1e6:.0f} us")
    check(1, "hand-solved water-filling cases to 1e-10, runtime < 1 ms",
          ok_vals and ok_time)


def test_criterion_02_shannon_limit_convergence(band_bundle):
    closed = 2 * 0.25 * math.log(1 + S_BUDGET * 1.0 / (2 * 0.25))
    errs = []
    for alpha in (8, 16, 32, 64):
        sol = sc.waterfill_discrete(band_bundle[alpha]["lam_in"], S_BUDGET, alpha)
        errs.append(abs(sol.capacity_rate - closed))
    rel64 = errs[-1] / closed
    nonincreasing = all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))
    print(f"  rel error at alpha=64: {rel64:.4f}; error chain {['%.4f' % e for e in errs]}")
    check(2, "discrete rate within 5% of the flat-band closed form at alpha=64, "
             "errors nonincreasing", rel64 <= 0.05 and nonincreasing)


def test_criterion_03_quadratic_trace_identity():
    ok = True
    for spec in (BAND, COSINE, SQUARE, TWO_TONE):
        grid = sc.make_grid(16)
        herm = sc.hermitize(sc.quantize(spec, grid))
        dense, w = herm.matrix, grid.window
        p = np.zeros_like(dense)
        p[w, w] = np.eye(w.stop - w.start)
        lam_in, _ = eigh_matrix(assemble(herm.blocks, w, w), want_basis=False)
        tr_a_l2 = np.trace(p @ dense @ dense).real
        lhs = float(np.sum(lam_in ** 2)) - tr_a_l2
        cross = np.linalg.norm(p @ dense @ (np.eye(grid.n_x) - p)) ** 2
        rel = abs(lhs + cross) / max(cross, 1e-300)
        print(f"  {spec.family_name}: tr((PLP)^2) - tr_a(L^2) = {lhs:.6e}, "
              f"-||PL(1-P)||^2 = {-cross:.6e}, rel gap {rel:.2e}")
        ok = ok and rel <= 1e-9
    check(3, "tr((PLP)^2) - tr_a(L^2) = -||PL(1-P)||_I2^2 to 1e-9 (all families)", ok)


def test_criterion_04_stability_ratio_bounded(band_bundle):
    # band_constant scaled to c=2 so the rate kink at 1 sits inside the spectrum
    eps = 0.1
    f = sc.build_f_eps(eps)
    ratios = []
    for alpha in BAND_ALPHAS:
        data = band_bundle[alpha]
        lam_in = 2.0 * data["lam_in"]
        lam_full = 2.0 * data["lam_full"]
        stab = abs(float(np.sum(f(lam_in)))
                   - float(np.sum(f(lam_full) * data["weights"]))) / alpha
        hi = max(1.0 + 2 * eps, float(lam_full[0]))
        f2 = sup_abs_second_derivative(f, min(0.0, float(lam_full[-1])), hi)
        ratios.append(stab / (f2 * math.log(alpha) / alpha))
    ratios = np.array(ratios)
    spread = ratios.max() / ratios.min()
    slope = stats.linregress(np.log(BAND_ALPHAS), np.log(ratios)).slope
    print(f"  ratios: {np.array2string(ratios, precision=5)}; "
          f"max/min={spread:.2f}; slope={slope:.3f}")
    check(4, "stability/bound ratio: max/min <= 20 and log-log slope <= 0.1",
          spread <= 20.0 and slope <= 0.1)


def test_criterion_05_hs_growth_law(band_bundle):
    psi = default_envelope(BAND, sc.make_grid(BAND_ALPHAS[0]).omega_max)
    psi_l1 = envelope_integral(psi)
    alphas = np.array(BAND_ALPHAS, dtype=float)
    cross = np.array([band_bundle[a]["hs_cross_sq"] for a in BAND_ALPHAS])
    full = np.array([band_bundle[a]["hs_full_sq"] for a in BAND_ALPHAS])
    bound_ok = bool(np.all(full <= alphas * psi_l1))

    def rms_resid(design):
        coef, *_ = np.linalg.lstsq(design, cross, rcond=None)
        return float(np.sqrt(np.mean((cross - design @ coef) ** 2)))

    ones = np.ones_like(alphas)
    rms_log = rms_resid(np.column_stack([ones, np.log(alphas)]))
    rms_lin = rms_resid(np.column_stack([ones, alphas]))
    ratio = rms_lin / rms_log
    print(f"  ||PL||^2/alpha max: {(full / alphas).max():.4f} vs ||psi||_1={psi_l1:.4f}; "
          f"residual ratio linear/log = {ratio:.2f}")
    check(5, "hs cross norm follows a + b log(alpha) (5x residual) and "
             "||PL||_I2^2 <= alpha ||psi||_1", ratio >= 5.0 and bound_ok)


@pytest.fixture(scope="session")
def q_report():
    return run_symbol_calculus_check(COSINE, [0.5], SWEEP_ALPHAS)


def test_criterion_06_symbol_calculus_driver(q_report):
    q_over_alpha = [rec.q_alpha[0.5] / rec.alpha for rec in q_report.records]
    monotone = all(b < a for a, b in zip(q_over_alpha, q_over_alpha[1:]))
    fit = q_report.fits["q_s0.5"]
    print(f"  Q/alpha: {['%.6f' % q for q in q_over_alpha]}; "
          f"slope={fit.slope:.4f} ci95_hi={fit.ci95_hi:.4f}")
    check(6, "Q_alpha(0.5)/alpha decreasing and log-log slope < 1 at 95% confidence",
          monotone and fit.ci95_hi < 1.0)


def test_symbol_calculus_deviation_is_affine_in_alpha(q_report):
    """Beside criterion 6: Q_alpha(0.5) is affine in alpha to rounding
    (about 0.6044 alpha + 0.0718), so criterion 6's log-log slope below 1
    comes from the positive offset, not from sub-linear growth."""
    alphas = [rec.alpha for rec in q_report.records]
    q = [rec.q_alpha[0.5] for rec in q_report.records]
    fit = fit_affine(alphas, q)
    print(f"  Q = {fit.slope:.13f} alpha + {fit.intercept:.7f}, rms resid {fit.rms_resid:.2e}")
    assert fit.rms_resid <= 1e-10 * max(q) and fit.slope >= 0.5


def test_criterion_07a_hs_norm_scaling(tracenorm_report):
    fit = tracenorm_report.fits["tp_i2"]
    print(f"  ||TP||_I2 slope: {fit.slope:.4f}")
    check("7a", "||TP||_I2 log-log slope within 0.5 +- 0.15",
          0.35 <= fit.slope <= 0.65)


def test_criterion_07b_trace_norm_scaling(tracenorm_report):
    """||TP||_I1 grows linearly in alpha, certified against ||TP||_I2.

    T = L*_{conj tau} - L_tau is a nonzero, bounded, 1-periodic operator, so
    ||TP||_I2^2 is proportional to alpha (7a) while ||TP||_op stays bounded.
    Since sum s_i >= sum s_i^2 / max s_i, ||TP||_I1 >= ||TP||_I2^2 / ||TP||_op,
    which is at least a constant times alpha: no sub-linear bound can hold.
    The window carries about 4 alpha near-equal singular values.  The test
    checks the slope against 1 +- 0.15, the certificate at every alpha, and
    that ||TP||_op, computed here from the Fourier blocks of T, stays flat.
    """
    op_norms = []
    for rec in tracenorm_report.records:
        grid = sc.make_grid(rec.alpha)
        t_blocks = order_differences(COSINE, TRACE_S, grid)[0]
        op_norms.append(float(np.linalg.norm(assemble(t_blocks, cols=grid.window), 2)))
    op_norms = np.array(op_norms)
    alphas = np.array([rec.alpha for rec in tracenorm_report.records])
    i1 = np.array([rec.tp_i1 for rec in tracenorm_report.records])
    i2 = np.array([rec.tp_i2 for rec in tracenorm_report.records])
    certified = bool(np.all(i1 >= i2 ** 2 / op_norms))
    op_spread = op_norms.max() / op_norms.min()
    fit = tracenorm_report.fits["tp_i1"]
    print(f"  ||TP||_I1 slope: {fit.slope:.4f}; ||TP||_I1/alpha: "
          f"{np.array2string(i1 / alphas, precision=4)}; "
          f"||TP||_op: {np.array2string(op_norms, precision=4)}")
    check("7b", "||TP||_I1 log-log slope within 1 +- 0.15, ||TP||_I1 >= "
                "||TP||_I2^2 / ||TP||_op at every alpha, ||TP||_op max/min <= 1.05",
          0.85 <= fit.slope <= 1.15 and certified and op_spread <= 1.05)


def test_criterion_07c_time_invariant_difference_vanishes():
    rep = run_trace_norm_scaling(BAND, 0.5, (8, 16))
    ok = all(rec.tp_i1 == 0.0 and rec.tp_i2 == 0.0 for rec in rep.records)
    check("7c", "T = 0 exactly for time-invariant symbols", ok)


def test_criterion_08_periodic_capacity_convergence(convergence_sweeps):
    ok = True
    for name, rep in convergence_sweeps.items():
        diffs = {rec.alpha: rec.extra["capacity_abs_diff"] for rec in rep.records}
        print(f"  {name}: |cap_disc - cap_symbol| at 16: {diffs[16]:.6f}, "
              f"at 64: {diffs[64]:.6f}")
        ok = ok and diffs[64] < diffs[16]
    check(8, "periodic families: capacity gap strictly smaller at alpha=64 "
             "than at alpha=16", ok)


def test_criterion_09_split_identity(convergence_sweeps):
    worst = 0.0
    for rep in convergence_sweeps.values():
        for rec in rep.records:
            gap = abs(rec.error_total - (rec.error_stability + rec.error_calculus))
            worst = max(worst, gap)
    print(f"  worst split gap: {worst:.2e}")
    check(9, "error_total = error_stability + error_calculus to 1e-9", worst <= 1e-9)


def test_criterion_10_determinism_and_serialization(tmp_path, capsys):
    from szegocap.cli import main
    cfg = {
        "command": "check-hs",
        "symbol": {"family": "band_constant", "params": {"c": 1.0, "W": 0.25}},
        "alphas": [8, 16],
        "output": {"path": "", "format": "csv"},
    }
    outs = []
    for name in ("r1.csv", "r2.csv"):
        cfg["output"]["path"] = str(tmp_path / name)
        cfg_path = tmp_path / (name + ".json")
        cfg_path.write_text(json.dumps(cfg))
        assert main(["-c", str(cfg_path)]) == 0
        outs.append((tmp_path / name).read_bytes())
    byte_identical = outs[0] == outs[1]

    cfg["output"] = {"path": str(tmp_path / "r.json"), "format": "json"}
    cfg_path = tmp_path / "rj.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["-c", str(cfg_path)]) == 0
    text = (tmp_path / "r.json").read_text()
    parsed = json.loads(text)
    roundtrip = json.dumps(parsed, indent=2, sort_keys=True) + "\n" == text

    hs_direct = [rec.hs_cross_norm for rec in
                 sc.run_hs_boundary_check(BAND, [8, 16]).records]
    hs_parsed = [r["hs_cross_norm"] for r in parsed["records"]]
    floats_exact = hs_parsed == hs_direct
    capsys.readouterr()
    print(f"  csv identical: {byte_identical}; json roundtrip exact: "
          f"{roundtrip and floats_exact}")
    check(10, "byte-identical CSV reports and lossless JSON floats",
          byte_identical and roundtrip and floats_exact)
