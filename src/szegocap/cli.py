"""Command-line interface: config parsing, dispatch, report serialization.

Exit codes: 0 success, 2 config error, 3 config read error, 4 report write
error, 5 numerical failure during the run (out of memory included).

A run is configured by a JSON document, command-line flags, or both.  Each
flag sets one entry of the document (--eps and --delta the whole eps_schedule),
filling in an absent or null section; a section that the document gives as a
non-object stays an error.  The resolved config is echoed into every report.
"""

from __future__ import annotations

import argparse
import json
import sys
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError, SzegocapError
from .families import make_symbol
from .grid import (DEFAULT_H_X, DEFAULT_OMEGA_MAX, DEFAULT_PADDING, DEFAULT_QUAD_DENSITY,
                   make_grid)
from .harness import (SweepReport, run_convergence_sweep, run_hs_boundary_check,
                      run_stability_check, run_symbol_calculus_check,
                      run_trace_norm_scaling)
from .operators import DiscreteOperator, quantize
from .reports import write_report_files
from .waterfill import build_f_eps, waterfill_discrete, waterfill_symbol

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


class _Field(NamedTuple):
    """One numeric config field and its command-line flag."""
    path: str          # "power_S", or "grid.h_x" for a key of the grid object
    type: str          # float | int | floats | ints (non-empty lists)
    bound: str         # "", "positive" or "nonnegative"; of every entry for lists
    default: object    # None makes the field nullable
    flag: str
    help: str


_FIELDS = (
    _Field("power_S", "float", "nonnegative", 1.0, "--power-S", "power budget per unit time"),
    _Field("alphas", "ints", "positive", (8, 16, 32, 64), "--alphas",
           "comma-separated window lengths"),
    _Field("alpha", "float", "positive", 1.0, "--alpha",
           "normalization window for the waterfill command"),
    _Field("eigs", "floats", "", None, "--eigs",
           "comma-separated eigenvalues for the waterfill command"),
    _Field("s", "float", "", 0.5, "--s", "phase multiplier for check-tracenorm"),
    _Field("s_values", "floats", "", (0.25, 0.5, 1.0), "--s-values",
           "comma-separated s list for check-product"),
    _Field("grid.h_x", "float", "positive", DEFAULT_H_X, "--h-x", "time spacing"),
    _Field("grid.omega_max", "float", "positive", DEFAULT_OMEGA_MAX, "--omega-max",
           "frequency truncation"),
    _Field("grid.padding_m", "float", "nonnegative", DEFAULT_PADDING, "--padding-m",
           "domain padding"),
    _Field("grid.quad_density", "int", "positive", DEFAULT_QUAD_DENSITY, "--quad-density",
           "quadrature density for the symbol water-fill"),
    _Field("grid.padding_tol", "float", "positive", 1e-8, "--padding-tol",
           "envelope tail tolerance beyond the padding"),
)

_TOP_LEVEL = {"schema_version", "command", "symbol", "grid", "eps_schedule", "output"} \
    | {f.path for f in _FIELDS if "." not in f.path}
_GRID_KEYS = {f.path[len("grid."):] for f in _FIELDS if f.path.startswith("grid.")}


class RunConfig(SimpleNamespace):
    """A validated config: one attribute per top-level field (the grid fields in
    the `grid` dict), plus the flag-only debugging aid `dump_operator`."""

    def as_dict(self) -> dict:
        """The config echo written into every report."""
        return {k: v.copy() if isinstance(v, (list, dict)) else v
                for k, v in vars(self).items() if k != "dump_operator"}


def _numbers(path: str, kind: str, bound: str, v):
    """The config value v at `path`, validated and cast to `kind` (see _Field).
    A scalar is checked as the one-entry list [v]: each entry must be a finite
    number (no bool, NaN, inf or integer beyond the float range), then within
    `bound`, then for int kinds an integer, then distinct."""
    one = kind in ("float", "int")
    vals = [v] if one else v
    arr = None
    if isinstance(vals, list) and vals and all(   # once per distinct entry type
            issubclass(t, (int, float)) and not issubclass(t, bool) for t in set(map(type, vals))):
        try:
            arr = np.array(vals, dtype=float)
        except OverflowError:       # an integer too large for a float
            pass
    if arr is None or not np.isfinite(arr).all():
        raise ConfigFieldError(path, f"expected a finite number, got {v!r}" if one
                               else f"expected a non-empty list of finite numbers, got {v!r}")
    if bound and not (arr > 0 if bound == "positive" else arr >= 0).all():
        raise ConfigFieldError(path, f"{'' if one else 'entries '}must be {bound}, got {v}")
    vals = arr.tolist()
    if kind in ("int", "ints"):
        if any(int(u) != u for u in vals):
            raise ConfigFieldError(path, f"must be an integer, got {v}" if one
                                   else f"entries must be integers, got {vals}")
        if len(set(vals)) < len(vals):
            raise ConfigFieldError(path, f"entries must be distinct, got {vals}")
        vals = [int(u) for u in vals]
    return vals[0] if one else vals


def _reject_unknown(doc: dict, allowed: set[str], path: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigFieldError(f"{path}{key}", "unknown field (strict schema)")


def _section(doc: dict, key: str, allowed: set[str], shape: str = "") -> dict | None:
    """The object doc[key] with keys among `allowed`, or None when absent or null."""
    sec = doc.get(key)
    if sec is not None:
        if not isinstance(sec, dict):
            raise ConfigFieldError(key, f"expected an object{shape}")
        _reject_unknown(sec, allowed, key + ".")
    return sec


def validate_config(doc: dict) -> RunConfig:
    """Validate a merged config document into a RunConfig (strict schema)."""
    if not isinstance(doc, dict):
        raise ConfigFieldError("", f"config document must be an object, got {type(doc).__name__}")
    _reject_unknown(doc, _TOP_LEVEL, "")

    version = doc.get("schema_version", 1)
    if version != 1 or isinstance(version, bool):
        raise ConfigFieldError("schema_version",
                               f"unsupported version {version!r}; this build reads 1")
    if "command" not in doc or doc["command"] is None:
        raise ConfigFieldError("command", "missing required field")
    if doc["command"] not in COMMANDS:
        raise ConfigFieldError("command",
                               f"unknown command {doc['command']!r}; known: {list(COMMANDS)}")
    cfg = RunConfig(schema_version=1, command=doc["command"], symbol=None)

    sym = _section(doc, "symbol", {"family", "params"}, " {family, params}")
    if sym is not None:
        if "family" not in sym or not isinstance(sym["family"], str):
            raise ConfigFieldError("symbol.family", "missing or non-string family name")
        params = sym.get("params", {})
        if not isinstance(params, dict):
            raise ConfigFieldError("symbol.params", "expected a map of name -> finite number")
        try:
            make_symbol(sym["family"], **params)
        except DomainError as exc:      # a parameter, named in the message
            raise ConfigFieldError("symbol.params", str(exc)) from exc
        except SzegocapError as exc:
            raise ConfigFieldError("symbol", str(exc)) from exc
        cfg.symbol = {"family": sym["family"], "params": {k: float(v) for k, v in params.items()}}

    gdoc = _section(doc, "grid", _GRID_KEYS)
    for f in _FIELDS:
        section, _, key = f.path.rpartition(".")
        src = (gdoc or {}) if section else doc
        if key in src and (src[key] is not None or f.default is not None):
            value = _numbers(f.path, f.type, f.bound, src[key])
        else:
            value = list(f.default) if isinstance(f.default, tuple) else f.default
        if section:
            vars(cfg).setdefault(section, {})[key] = value
        else:
            setattr(cfg, key, value)
    if 2.0 * cfg.grid["h_x"] * cfg.grid["omega_max"] > 1.0 + 1e-12:
        raise ConfigFieldError("grid", "aliasing: 2 * h_x * omega_max must be <= 1")

    cfg.eps_schedule = None
    es = _section(doc, "eps_schedule", {"mode", "eps", "delta"})
    if es is not None:
        mode = es.get("mode")
        if mode not in ("fixed", "alpha_power"):
            raise ConfigFieldError("eps_schedule.mode",
                                   f"expected 'fixed' or 'alpha_power', got {mode!r}")
        key, unread = ("eps", "delta") if mode == "fixed" else ("delta", "eps")
        if unread in es:
            raise ConfigFieldError(f"eps_schedule.{unread}", f"{mode} mode reads no {unread}")
        if mode == "fixed" and "eps" not in es:
            raise ConfigFieldError("eps_schedule.eps", "required for fixed mode")
        cfg.eps_schedule = {"mode": mode, key: _numbers(f"eps_schedule.{key}", "float",
                                                        "positive", es.get(key, 0.125))}
        if mode == "fixed":
            try:
                build_f_eps(cfg.eps_schedule["eps"])
            except DomainError as exc:
                raise ConfigFieldError("eps_schedule.eps", str(exc)) from exc

    cfg.output = None
    out = _section(doc, "output", {"path", "format"}, " {path, format}")
    if out is not None:
        if "path" not in out or not isinstance(out["path"], str):
            raise ConfigFieldError("output.path", "missing or non-string path")
        fmt = out.get("format", "json")
        if fmt not in ("csv", "json"):
            raise ConfigFieldError("output.format", f"expected 'csv' or 'json', got {fmt!r}")
        cfg.output = {"path": out["path"], "format": fmt}

    cfg.dump_operator = None
    return cfg


def _parse_num_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigFieldError("flags", f"cannot parse number list {text!r}") from None


def _glue_negative_values(argv: list[str]) -> list[str]:
    """Join a numeric flag and a value such as "-1e-5,2" into "--flag=-1e-5,2":
    argparse reads a token that starts with "-" as an option unless it has the
    form -<digits> or -<digits>.<digits>."""
    numeric = {f.flag for f in _FIELDS} | {"--eps", "--delta"}
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in numeric and tok.startswith("-"):
            try:
                if _parse_num_list(tok):
                    out[-1] += "=" + tok
                    continue
            except ConfigFieldError:
                pass
        out.append(tok)
    return out


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
    for f in _FIELDS:
        p.add_argument(f.flag, dest=f.path.rpartition(".")[2], help=f.help,
                       type=float if f.type in ("float", "int") else None)
    eps = p.add_mutually_exclusive_group()
    eps.add_argument("--eps", type=float, help="fixed smoothing width (eps schedule)")
    eps.add_argument("--delta", type=float, help="alpha^(-delta) smoothing schedule")
    p.add_argument("--output", help="report path")
    p.add_argument("--format", choices=("csv", "json"), help="report format")
    p.add_argument("--dump-operator", dest="dump_operator", metavar="PATH",
                   help="debug: write the quantized operator at the first alpha "
                        "as its Fourier blocks and grid (.npz)")
    return p


def _put(doc: dict, keys: tuple[str, ...], value) -> None:
    """Set doc[k1]...[kn] = value for keys (k1, ..., kn), filling in each
    absent or null section on the way; a section that is no object is left
    for validate_config to reject."""
    *sections, key = keys
    for k in sections:
        if doc.get(k) is None:
            doc[k] = {}
        doc = doc[k]
        if not isinstance(doc, dict):
            return
    doc[key] = value


def merge_flags(doc: dict, args: argparse.Namespace) -> dict:
    """Overlay command-line flags onto a copy of the config document (flags
    win): each given flag is one edit (keys, value), applied by _put."""
    edits = [(("command",), args.command), (("symbol", "family"), args.family)]
    for item in args.param:
        name, eq, val = item.partition("=")
        if not eq:
            raise ConfigFieldError("symbol.params", f"expected NAME=VALUE, got {item!r}")
        try:
            edits.append((("symbol", "params", name), float(val)))
        except ValueError:
            raise ConfigFieldError("symbol.params",
                                   f"parameter {name!r} value {val!r} is not a number") from None
    for f in _FIELDS:
        value = getattr(args, f.path.rpartition(".")[2])
        if value is not None and f.type in ("floats", "ints"):
            value = _parse_num_list(value)
        edits.append((tuple(f.path.split(".")), value))
    if args.eps is not None:
        edits.append((("eps_schedule",), {"mode": "fixed", "eps": args.eps}))
    if args.delta is not None:
        edits.append((("eps_schedule",), {"mode": "alpha_power", "delta": args.delta}))
    edits += [(("output", "path"), args.output), (("output", "format"), args.format)]
    doc = json.loads(json.dumps(doc))  # deep copy, JSON types only
    for keys, value in edits:
        if value is not None:
            _put(doc, keys, value)
    return doc


def parse_config(argv: list[str]) -> RunConfig:
    """Parse flags (and an optional JSON document) into a validated RunConfig.

    OSError from an unreadable config file propagates to the caller.
    """
    args = build_arg_parser().parse_args(_glue_negative_values(argv))
    doc: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                doc = json.loads(fh.read())
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ConfigFieldError("", f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigFieldError("", "config document must be a JSON object")
    doc = merge_flags(doc, args)
    cfg = validate_config(doc)
    if args.dump_operator and cfg.command == "waterfill":
        raise ConfigFieldError("dump_operator", "waterfill quantizes no operator to dump")
    if args.dump_operator and not args.dump_operator.endswith(".npz"):
        raise ConfigFieldError("dump_operator",
                               f"expected a .npz path, got {args.dump_operator!r}")
    cfg.dump_operator = args.dump_operator
    return cfg


def _symbol_spec(cfg: RunConfig):
    if cfg.symbol is None:
        raise ConfigFieldError("symbol.family",
                               f"command {cfg.command!r} needs a symbol family")
    return make_symbol(cfg.symbol["family"], **cfg.symbol["params"])


def _grid_kw(cfg: RunConfig) -> dict:
    """make_grid keywords of the config's grid section."""
    g = cfg.grid
    return {"h_x": g["h_x"], "omega_max": g["omega_max"], "padding": g["padding_m"]}


def _solution_report(command: str, sol) -> SweepReport:
    """Print a water-fill solution and wrap it as a record-less report."""
    count = f" active_count={sol.active_count}" if command == "waterfill" else ""
    print(f"B={sol.B:.12g} capacity_rate={sol.capacity_rate:.12g} "
          f"power_achieved={sol.power_achieved:.12g}{count}")
    return SweepReport(command=command, config={}, records=[], summary={
        "B": sol.B, "capacity_rate": sol.capacity_rate,
        "power_achieved": sol.power_achieved, "active_count": sol.active_count})


def _run_waterfill(cfg: RunConfig) -> SweepReport:
    if not cfg.eigs:
        raise ConfigFieldError("eigs", "waterfill needs an explicit eigenvalue list")
    return _solution_report("waterfill", waterfill_discrete(cfg.eigs, cfg.power_S, cfg.alpha))


def _run_stability(cfg: RunConfig) -> SweepReport:
    spec = _symbol_spec(cfg)
    sched = cfg.eps_schedule or {"mode": "fixed", "eps": 0.1}
    if sched["mode"] != "fixed":
        raise ConfigFieldError(
            "eps_schedule.mode",
            "check-stability uses one fixed f_eps across the sweep; "
            "use {'mode': 'fixed', 'eps': ...}")
    report = run_stability_check(spec, build_f_eps(sched["eps"]), cfg.alphas,
                                 _grid_kw(cfg), padding_tol=cfg.grid["padding_tol"])
    for rec in report.records:
        rec.eps = sched["eps"]
    return report


def _eps_for(sched: dict | None):
    """eps as a function of alpha for the validated eps_schedule section, or None."""
    if sched is None:
        return None
    if sched["mode"] == "fixed":
        return lambda alpha: sched["eps"]
    return lambda alpha: float(alpha) ** -sched["delta"]


# command -> runner; lambdas look runners up per call, so a patched one runs
_RUNNERS = {
    "waterfill": _run_waterfill,
    "capacity": lambda cfg: _solution_report("capacity", waterfill_symbol(
        _symbol_spec(cfg), cfg.power_S, cfg.grid["quad_density"], cfg.grid["omega_max"])),
    "sweep": lambda cfg: run_convergence_sweep(
        _symbol_spec(cfg), cfg.power_S, cfg.alphas, _grid_kw(cfg),
        cfg.grid["quad_density"], _eps_for(cfg.eps_schedule)),
    "check-stability": _run_stability,
    "check-hs": lambda cfg: run_hs_boundary_check(
        _symbol_spec(cfg), cfg.alphas, _grid_kw(cfg)),
    "check-product": lambda cfg: run_symbol_calculus_check(
        _symbol_spec(cfg), cfg.s_values, cfg.alphas, _grid_kw(cfg)),
    "check-tracenorm": lambda cfg: run_trace_norm_scaling(
        _symbol_spec(cfg), cfg.s, cfg.alphas, _grid_kw(cfg)),
}


def _first_operator(cfg: RunConfig) -> DiscreteOperator:
    """The quantized operator at the first alpha, for --dump-operator."""
    return quantize(_symbol_spec(cfg), make_grid(cfg.alphas[0], **_grid_kw(cfg)))


def _dump_operator(op: DiscreteOperator, path: str) -> str:
    """Write the operator's Fourier blocks and the grid fields that rebuild it
    (make_grid(span + 2 x_min, h_x, omega_max, padding=-x_min)) as an .npz."""
    g = op.grid
    np.savez(path, blocks=op.blocks, h_x=g.h_x, x_min=g.x_min, span=g.span,
             omega_max=g.omega_max)
    return path


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
    except SzegocapError as exc:
        print(exc if isinstance(exc, ConfigFieldError) else f"config error: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_READ

    try:
        report = _RUNNERS[cfg.command](cfg)
        dump = _first_operator(cfg) if cfg.dump_operator else None
    except ConfigurationError as exc:
        print(exc if isinstance(exc, ConfigFieldError) else f"configuration error: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except SzegocapError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    if report.records:
        _print_summary(report)
    try:
        written = write_report(report, cfg)
        if dump is not None:
            written.append(_dump_operator(dump, cfg.dump_operator))
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
