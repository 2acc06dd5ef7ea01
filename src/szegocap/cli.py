"""Command-line interface: config parsing, dispatch, report serialization.

Exit codes: 0 success, 2 config error, 3 config read error, 4 report write
error, 5 numerical failure during the run.

A run is configured by a JSON document, command-line flags, or both; flags
override document fields.  The resolved config is echoed into every report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

from .errors import ConfigurationError, SzegocapError
from .families import make_symbol
from .harness import (EpsSchedule, GridOptions, SweepReport,
                      run_convergence_sweep, run_hs_boundary_check,
                      run_stability_check, run_symbol_calculus_check,
                      run_trace_norm_scaling)
from .reports import write_report_files
from .waterfill import (QuadratureConfig, build_f_eps, waterfill_discrete,
                        waterfill_symbol)

COMMANDS = ("capacity", "waterfill", "sweep", "check-stability", "check-hs",
            "check-product", "check-tracenorm")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_READ = 3
EXIT_WRITE = 4
EXIT_NUMERICAL = 5


class ConfigFieldError(ConfigurationError):
    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path!r}: {message}")
        self.path = path


@dataclass
class RunConfig:
    command: str
    symbol: dict | None = None
    power_S: float = 1.0
    alphas: list[int] = field(default_factory=lambda: [8, 16, 32, 64])
    alpha: float = 1.0
    eigs: list[float] | None = None
    s: float = 0.5
    s_values: list[float] = field(default_factory=lambda: [0.25, 0.5, 1.0])
    grid: dict = field(default_factory=dict)
    eps_schedule: dict | None = None
    output: dict | None = None
    schema_version: int = 1
    dump_operator: str | None = None      # flag-only debugging aid

    def as_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "symbol": self.symbol,
            "power_S": self.power_S,
            "alphas": list(self.alphas),
            "alpha": self.alpha,
            "eigs": list(self.eigs) if self.eigs is not None else None,
            "s": self.s,
            "s_values": list(self.s_values),
            "grid": dict(self.grid),
            "eps_schedule": dict(self.eps_schedule) if self.eps_schedule else None,
            "output": dict(self.output) if self.output else None,
        }


_GRID_DEFAULTS = {"h_x": 1.0 / 16.0, "omega_max": 8.0, "padding_m": 8.0,
                  "quad_density": 256, "padding_tol": 1e-8}


def _is_number(v) -> bool:
    """A finite JSON number; JSON's NaN and Infinity (and flags' nan, inf) fail."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:           # an integer too large for a float
        return False


def _number(doc: dict, key: str, path: str, positive: bool = False) -> float:
    v = doc[key]
    if not _is_number(v):
        raise ConfigFieldError(f"{path}{key}", f"expected a finite number, got {v!r}")
    if positive and not v > 0:
        raise ConfigFieldError(f"{path}{key}", f"must be positive, got {v}")
    return float(v)


def _number_list(doc: dict, key: str, path: str, positive: bool = False) -> list[float]:
    v = doc[key]
    if not isinstance(v, list) or not v or not all(_is_number(u) for u in v):
        raise ConfigFieldError(f"{path}{key}",
                               f"expected a non-empty list of finite numbers, got {v!r}")
    if positive and any(u <= 0 for u in v):
        raise ConfigFieldError(f"{path}{key}", f"entries must be positive, got {v}")
    return [float(u) for u in v]


def _reject_unknown(doc: dict, allowed: set[str], path: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigFieldError(f"{path}{key}", "unknown field (strict schema)")


def validate_config(doc: dict) -> RunConfig:
    """Validate a merged config document into a RunConfig (strict schema)."""
    if not isinstance(doc, dict):
        raise ConfigFieldError("", f"config document must be an object, got {type(doc).__name__}")
    _reject_unknown(doc, {"schema_version", "command", "symbol", "power_S",
                          "alphas", "alpha", "eigs", "s", "s_values", "grid",
                          "eps_schedule", "output"}, "")

    if "schema_version" in doc and doc["schema_version"] != 1:
        raise ConfigFieldError("schema_version",
                               f"unsupported version {doc['schema_version']!r}; this build reads 1")
    if "command" not in doc or doc["command"] is None:
        raise ConfigFieldError("command", "missing required field")
    if doc["command"] not in COMMANDS:
        raise ConfigFieldError("command",
                               f"unknown command {doc['command']!r}; known: {list(COMMANDS)}")
    cfg = RunConfig(command=doc["command"])

    if doc.get("symbol") is not None:
        sym = doc["symbol"]
        if not isinstance(sym, dict):
            raise ConfigFieldError("symbol", "expected an object {family, params}")
        _reject_unknown(sym, {"family", "params"}, "symbol.")
        if "family" not in sym or not isinstance(sym["family"], str):
            raise ConfigFieldError("symbol.family", "missing or non-string family name")
        params = sym.get("params", {})
        if not isinstance(params, dict) or not all(_is_number(v) for v in params.values()):
            raise ConfigFieldError("symbol.params", "expected a map of name -> finite number")
        try:
            make_symbol(sym["family"], **params)
        except SzegocapError as exc:
            raise ConfigFieldError("symbol", str(exc)) from exc
        cfg.symbol = {"family": sym["family"], "params": {k: float(v) for k, v in params.items()}}

    if "power_S" in doc:
        v = _number(doc, "power_S", "")
        if v < 0:
            raise ConfigFieldError("power_S", f"must be nonnegative, got {v}")
        cfg.power_S = v
    if "alphas" in doc:
        vals = _number_list(doc, "alphas", "", positive=True)
        if any(int(v) != v for v in vals):
            raise ConfigFieldError("alphas", f"entries must be integers, got {vals}")
        cfg.alphas = [int(v) for v in vals]
    if "alpha" in doc:
        cfg.alpha = _number(doc, "alpha", "", positive=True)
    if doc.get("eigs") is not None:
        cfg.eigs = _number_list(doc, "eigs", "")
    if "s" in doc:
        cfg.s = _number(doc, "s", "")
    if "s_values" in doc:
        cfg.s_values = _number_list(doc, "s_values", "")

    grid = dict(_GRID_DEFAULTS)
    if doc.get("grid") is not None:
        gdoc = doc["grid"]
        if not isinstance(gdoc, dict):
            raise ConfigFieldError("grid", "expected an object")
        _reject_unknown(gdoc, set(_GRID_DEFAULTS), "grid.")
        for key in gdoc:
            grid[key] = _number(gdoc, key, "grid.", positive=(key != "padding_m"))
        if grid["padding_m"] < 0:
            raise ConfigFieldError("grid.padding_m", "must be nonnegative")
    if 2.0 * grid["h_x"] * grid["omega_max"] > 1.0 + 1e-12:
        raise ConfigFieldError("grid", "aliasing: 2 * h_x * omega_max must be <= 1")
    grid["quad_density"] = int(grid["quad_density"])
    cfg.grid = grid

    if doc.get("eps_schedule") is not None:
        es = doc["eps_schedule"]
        if not isinstance(es, dict):
            raise ConfigFieldError("eps_schedule", "expected an object")
        _reject_unknown(es, {"mode", "eps", "delta"}, "eps_schedule.")
        mode = es.get("mode")
        if mode not in ("fixed", "alpha_power"):
            raise ConfigFieldError("eps_schedule.mode",
                                   f"expected 'fixed' or 'alpha_power', got {mode!r}")
        sched = {"mode": mode}
        if mode == "fixed":
            if "eps" not in es:
                raise ConfigFieldError("eps_schedule.eps", "required for fixed mode")
            sched["eps"] = _number(es, "eps", "eps_schedule.", positive=True)
        else:
            sched["delta"] = _number(es, "delta", "eps_schedule.", positive=True) \
                if "delta" in es else 0.125
        cfg.eps_schedule = sched

    if doc.get("output") is not None:
        out = doc["output"]
        if not isinstance(out, dict):
            raise ConfigFieldError("output", "expected an object {path, format}")
        _reject_unknown(out, {"path", "format"}, "output.")
        if "path" not in out or not isinstance(out["path"], str):
            raise ConfigFieldError("output.path", "missing or non-string path")
        fmt = out.get("format", "json")
        if fmt not in ("csv", "json"):
            raise ConfigFieldError("output.format", f"expected 'csv' or 'json', got {fmt!r}")
        cfg.output = {"path": out["path"], "format": fmt}

    return cfg


def _parse_num_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigFieldError("flags", f"cannot parse number list {text!r}") from None


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="szegocap",
        description="Doubly-dispersive channel capacity: water-filling and "
                    "asymptotic trace diagnostics on quantized transfer functions.")
    p.add_argument("command", nargs="?", choices=COMMANDS,
                   help="subcommand (may also come from the config document)")
    p.add_argument("-c", "--config", help="JSON config document")
    p.add_argument("--family", help="symbol family name")
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE", help="symbol parameter (repeatable)")
    p.add_argument("--power-S", type=float, dest="power_S", help="power budget per unit time")
    p.add_argument("--alphas", help="comma-separated window lengths")
    p.add_argument("--alpha", type=float, help="normalization window for the waterfill command")
    p.add_argument("--eigs", help="comma-separated eigenvalues for the waterfill command")
    p.add_argument("--s", type=float, help="phase multiplier for check-tracenorm")
    p.add_argument("--s-values", dest="s_values", help="comma-separated s list for check-product")
    p.add_argument("--h-x", type=float, dest="h_x", help="time spacing")
    p.add_argument("--omega-max", type=float, dest="omega_max", help="frequency truncation")
    p.add_argument("--padding-m", type=float, dest="padding_m", help="domain padding")
    p.add_argument("--quad-density", type=float, dest="quad_density",
                   help="quadrature density for the symbol water-fill")
    p.add_argument("--padding-tol", type=float, dest="padding_tol",
                   help="envelope tail tolerance beyond the padding")
    p.add_argument("--eps", type=float, help="fixed smoothing width (eps schedule)")
    p.add_argument("--delta", type=float, help="alpha^(-delta) smoothing schedule")
    p.add_argument("--output", help="report path")
    p.add_argument("--format", choices=("csv", "json"), help="report format")
    p.add_argument("--dump-operator", dest="dump_operator", metavar="PATH",
                   help="debug: write the quantized operator at the first alpha "
                        "(.npy binary or .csv by extension)")
    return p


def merge_flags(doc: dict, args: argparse.Namespace) -> dict:
    """Overlay command-line flags onto the config document (flags win)."""
    doc = json.loads(json.dumps(doc))  # deep copy, JSON types only
    if args.command:
        doc["command"] = args.command
    if args.family or args.param:
        sym = doc.get("symbol") or {}
        params = dict(sym.get("params") or {})
        if args.family:
            sym["family"] = args.family
        for item in args.param:
            if "=" not in item:
                raise ConfigFieldError("symbol.params", f"expected NAME=VALUE, got {item!r}")
            name, _, val = item.partition("=")
            try:
                params[name] = float(val)
            except ValueError:
                raise ConfigFieldError("symbol.params",
                                       f"parameter {name!r} value {val!r} is not a number") from None
        sym["params"] = params
        doc["symbol"] = sym
    if args.power_S is not None:
        doc["power_S"] = args.power_S
    if args.alphas is not None:
        doc["alphas"] = _parse_num_list(args.alphas)
    if args.alpha is not None:
        doc["alpha"] = args.alpha
    if args.eigs is not None:
        doc["eigs"] = _parse_num_list(args.eigs)
    if args.s is not None:
        doc["s"] = args.s
    if args.s_values is not None:
        doc["s_values"] = _parse_num_list(args.s_values)
    grid_flags = {k: getattr(args, k) for k in
                  ("h_x", "omega_max", "padding_m", "quad_density", "padding_tol")
                  if getattr(args, k) is not None}
    if grid_flags:
        doc["grid"] = {**(doc.get("grid") or {}), **grid_flags}
    if args.eps is not None:
        doc["eps_schedule"] = {"mode": "fixed", "eps": args.eps}
    elif args.delta is not None:
        doc["eps_schedule"] = {"mode": "alpha_power", "delta": args.delta}
    if args.output is not None:
        out = dict(doc.get("output") or {})
        out["path"] = args.output
        doc["output"] = out
    if args.format is not None:
        out = dict(doc.get("output") or {})
        out["format"] = args.format
        doc["output"] = out
    return doc


def parse_config(argv: list[str]) -> RunConfig:
    """Parse flags (and an optional JSON document) into a validated RunConfig.

    OSError from an unreadable config file propagates to the caller.
    """
    args = build_arg_parser().parse_args(argv)
    doc: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigFieldError("", f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigFieldError("", "config document must be a JSON object")
    doc = merge_flags(doc, args)
    cfg = validate_config(doc)
    cfg.dump_operator = args.dump_operator
    return cfg


def _symbol_spec(cfg: RunConfig):
    if cfg.symbol is None:
        raise ConfigFieldError("symbol.family",
                               f"command {cfg.command!r} needs a symbol family")
    return make_symbol(cfg.symbol["family"], **cfg.symbol["params"])


def _grid_options(cfg: RunConfig) -> GridOptions:
    return GridOptions(h_x=cfg.grid["h_x"], omega_max=cfg.grid["omega_max"],
                       padding=cfg.grid["padding_m"])


def _quad(cfg: RunConfig) -> QuadratureConfig:
    return QuadratureConfig(density=int(cfg.grid["quad_density"]),
                            omega_max=cfg.grid["omega_max"])


def _eps_schedule(cfg: RunConfig) -> EpsSchedule | None:
    if cfg.eps_schedule is None:
        return None
    if cfg.eps_schedule["mode"] == "fixed":
        return EpsSchedule(mode="fixed", eps=cfg.eps_schedule["eps"], delta=None)
    return EpsSchedule(mode="alpha_power", eps=None, delta=cfg.eps_schedule["delta"])


def _dispatch(cfg: RunConfig) -> SweepReport:
    if cfg.command == "waterfill":
        if not cfg.eigs:
            raise ConfigFieldError("eigs", "waterfill needs an explicit eigenvalue list")
        sol = waterfill_discrete(sorted(cfg.eigs, reverse=True), cfg.power_S, cfg.alpha)
        print(f"B={sol.B:.12g} capacity_rate={sol.capacity_rate:.12g} "
              f"power_achieved={sol.power_achieved:.12g} active_count={sol.active_count}")
        report = SweepReport(command="waterfill", config={}, records=[])
        report.summary = {"B": sol.B, "capacity_rate": sol.capacity_rate,
                          "power_achieved": sol.power_achieved,
                          "active_count": sol.active_count}
        return report

    spec = _symbol_spec(cfg)
    if cfg.command == "capacity":
        sol = waterfill_symbol(spec, cfg.power_S, _quad(cfg))
        print(f"B={sol.B:.12g} capacity_rate={sol.capacity_rate:.12g} "
              f"power_achieved={sol.power_achieved:.12g}")
        report = SweepReport(command="capacity", config={}, records=[])
        report.summary = {"B": sol.B, "capacity_rate": sol.capacity_rate,
                          "power_achieved": sol.power_achieved,
                          "active_count": sol.active_count}
        return report

    opts = _grid_options(cfg)
    if cfg.command == "sweep":
        return run_convergence_sweep(spec, cfg.power_S, cfg.alphas,
                                     grid_opts=opts, quad=_quad(cfg),
                                     eps_schedule=_eps_schedule(cfg))
    if cfg.command == "check-stability":
        sched = _eps_schedule(cfg)
        if sched is not None and sched.mode != "fixed":
            raise ConfigFieldError(
                "eps_schedule.mode",
                "check-stability uses one fixed f_eps across the sweep; "
                "use {'mode': 'fixed', 'eps': ...}")
        eps = sched.eps if sched is not None else 0.1
        f = build_f_eps("log", eps)
        report = run_stability_check(spec, f, cfg.alphas, grid_opts=opts,
                                     padding_tol=cfg.grid["padding_tol"])
        for rec in report.records:
            rec.eps = eps
        return report
    if cfg.command == "check-hs":
        return run_hs_boundary_check(spec, cfg.alphas, grid_opts=opts)
    if cfg.command == "check-product":
        return run_symbol_calculus_check(spec, cfg.s_values, cfg.alphas, grid_opts=opts)
    if cfg.command == "check-tracenorm":
        return run_trace_norm_scaling(spec, cfg.s, cfg.alphas, grid_opts=opts)
    raise ConfigFieldError("command", f"unhandled command {cfg.command!r}")


def _dump_operator(cfg: RunConfig) -> str:
    """Debug export of the quantized operator at the first alpha."""
    from .operators import quantize
    from .reports import export_operator
    spec = _symbol_spec(cfg)
    grid = _grid_options(cfg).build(cfg.alphas[0])
    return export_operator(quantize(spec, grid), cfg.dump_operator)


def write_report(report: SweepReport, cfg: RunConfig) -> list[str]:
    """Attach the config echo and write the report per cfg.output."""
    report.config = cfg.as_dict()
    if cfg.output is None:
        return []
    return write_report_files(report, cfg.output["path"], cfg.output["format"])


def _print_summary(report: SweepReport) -> None:
    for rec in report.records:
        bits = [f"alpha={rec.alpha}"]
        for name in ("capacity_discrete", "capacity_symbol", "error_total",
                     "hs_cross_norm", "tp_i1", "tp_i2"):
            v = getattr(rec, name)
            if v is not None:
                bits.append(f"{name}={v:.6g}")
        for s, q in sorted(rec.q_alpha.items()):
            bits.append(f"q_s{s:g}={q:.6g}")
        if "ratio" in rec.extra:
            bits.append(f"ratio={rec.extra['ratio']:.6g}")
        if "error" in rec.extra:
            bits.append(f"error={rec.extra['error']}")
        print("  ".join(bits))
    for name, fit in report.fits.items():
        print(f"fit {name}: slope={fit.slope:.4f} "
              f"ci95=[{fit.ci95_lo:.4f},{fit.ci95_hi:.4f}] r2={fit.r2:.4f}")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_config(argv)
    except ConfigFieldError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except SzegocapError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_READ

    try:
        report = _dispatch(cfg)
    except ConfigFieldError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SzegocapError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    if report.records:
        _print_summary(report)
    try:
        written = write_report(report, cfg)
        if cfg.dump_operator:
            written.append(_dump_operator(cfg))
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return EXIT_WRITE
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
