import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szegocap import cli
from szegocap.cli import ConfigFieldError, main, validate_config
from szegocap.errors import ConfigurationError
from szegocap.families import _REGISTRY
from szegocap.grid import make_grid


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_waterfill_dispatch_prints_level(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "waterfill", "eigs": [4, 1], "power_S": 0.5})
    code, out, err = run_cli(["-c", cfg], capsys)
    assert code == 0
    assert "B=0.75" in out
    rate = float(out.split("capacity_rate=")[1].split()[0])
    assert rate == pytest.approx(math.log(3.0), rel=1e-10)


def test_missing_command_exits_2_naming_field(tmp_path, capsys):
    cfg = write_config(tmp_path, {"eigs": [1.0]})
    code, out, err = run_cli(["-c", cfg], capsys)
    assert code == 2
    assert "command" in err


def test_flag_overrides_document(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "waterfill", "eigs": [4, 1],
                                  "power_S": 2.0,
                                  "output": {"path": str(tmp_path / "r.json"),
                                             "format": "json"}})
    code, out, err = run_cli(["-c", cfg, "--power-S", "0.5"], capsys)
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["config"]["power_S"] == 0.5
    assert "B=0.75" in out


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "waterfill", "eigs": [1], "bogus": 3})
    code, out, err = run_cli(["-c", cfg], capsys)
    assert code == 2
    assert "bogus" in err


def test_unknown_nested_field_rejected():
    with pytest.raises(ConfigFieldError) as exc:
        validate_config({"command": "sweep", "grid": {"h_y": 1.0}})
    assert "grid.h_y" in str(exc.value)


def test_unreadable_config_exits_3(tmp_path, capsys):
    code, out, err = run_cli(["-c", str(tmp_path / "missing.json")], capsys)
    assert code == 3


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run_cli(["-c", str(path)], capsys)
    assert code == 2


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"command": "waterfill", "eigs": [1], "x": "\xff"}')
    code, out, err = run_cli(["-c", str(path)], capsys)
    assert code == 2
    assert "utf-8" in err


def test_repeated_alphas_exit_2(capsys):
    code, out, err = run_cli(["check-hs", "--family", "band_constant", "--alphas", "2,2,2"],
                             capsys)
    assert code == 2
    assert "'alphas'" in err and "distinct" in err


def test_waterfill_dump_operator_exits_2_before_writing(tmp_path, capsys):
    report, npz = tmp_path / "r.json", tmp_path / "op.npz"
    code, out, err = run_cli(["waterfill", "--eigs", "4,1", "--output", str(report),
                              "--dump-operator", str(npz)], capsys)
    assert code == 2
    assert "dump_operator" in err
    assert not report.exists() and not npz.exists()


def test_unwritable_output_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "command": "waterfill", "eigs": [4, 1], "power_S": 0.5,
        "output": {"path": str(tmp_path / "no_such_dir" / "out.csv"), "format": "csv"}})
    code, out, err = run_cli(["-c", cfg], capsys)
    assert code == 4


def test_schema_version_guard(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 2, "command": "waterfill", "eigs": [1]})
    code, out, err = run_cli(["-c", cfg], capsys)
    assert code == 2
    assert "schema_version" in err


def test_aliasing_grid_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "sweep",
                                  "symbol": {"family": "band_constant"},
                                  "grid": {"h_x": 0.25, "omega_max": 8.0}})
    code, out, err = run_cli(["-c", cfg], capsys)
    assert code == 2
    assert "aliasing" in err


def test_unknown_symbol_family_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "capacity",
                                  "symbol": {"family": "nope"}})
    code, out, err = run_cli(["-c", cfg], capsys)
    assert code == 2


def test_empty_sweep_writes_header_only_csv(tmp_path, capsys):
    out_path = tmp_path / "empty.csv"
    cfg = write_config(tmp_path, {
        "command": "waterfill", "eigs": [4, 1], "power_S": 0.5,
        "output": {"path": str(out_path), "format": "csv"}})
    code, out, err = run_cli(["-c", cfg], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("alpha,capacity_discrete,capacity_symbol,")


def test_capacity_command(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "command": "capacity",
        "symbol": {"family": "band_constant", "params": {"c": 1.0, "W": 0.5}},
        "power_S": 1.0})
    code, out, err = run_cli(["-c", cfg], capsys)
    assert code == 0
    b = float(out.split("B=")[1].split()[0])
    assert b == pytest.approx(2.0, rel=1e-2)


def test_positional_command_overrides_document(tmp_path, capsys):
    cfg = write_config(tmp_path, {"command": "capacity",
                                  "symbol": {"family": "band_constant"},
                                  "eigs": [4, 1], "power_S": 0.5})
    code, out, err = run_cli(["waterfill", "-c", cfg], capsys)
    assert code == 0
    assert "B=0.75" in out


def test_param_flags_build_symbol(capsys):
    code, out, err = run_cli(["capacity", "--family", "band_constant",
                              "--param", "c=1", "--param", "W=0.5",
                              "--power-S", "1.0"], capsys)
    assert code == 0
    assert "capacity_rate=" in out


def test_dump_operator_flag(tmp_path, capsys):
    import numpy as np
    import szegocap as sc
    from szegocap.operators import assemble
    for family, params in (("band_constant", {"W": 0.25}), ("cosine_gauss", {})):
        path = tmp_path / f"{family}.npz"
        code, out, err = run_cli(["capacity", "--family", family, "--alphas", "2",
                                  "--dump-operator", str(path)]
                                 + [f"--param={k}={v}" for k, v in params.items()], capsys)
        assert code == 0, err
        direct = sc.quantize(sc.make_symbol(family, **params), sc.make_grid(2))
        with np.load(path) as dumped:
            blocks = dumped["blocks"]
            x_min, span = float(dumped["x_min"]), float(dumped["span"])
            grid = sc.make_grid(span + 2.0 * x_min, h_x=float(dumped["h_x"]),
                                omega_max=float(dumped["omega_max"]), padding=-x_min)
        assert np.array_equal(blocks, direct.blocks)
        assert np.array_equal(assemble(blocks), direct.matrix)
        assert grid == direct.grid


@pytest.mark.parametrize("name", ["op.npy", "op.csv"])
def test_dump_operator_other_extension_exits_2_before_writing(tmp_path, capsys, name):
    report = tmp_path / "r.json"
    code, out, err = run_cli(["capacity", "--family", "cosine_gauss", "--alphas", "2",
                              "--output", str(report), "--dump-operator", str(tmp_path / name)],
                             capsys)
    assert code == 2
    assert "dump_operator" in err and ".npz" in err
    assert list(tmp_path.iterdir()) == []


def test_dump_operator_grid_error_exits_5(tmp_path, capsys):
    # the sweep records the grid's DomainError per alpha; the dump raises it
    path = tmp_path / "op.npz"
    code, out, err = run_cli(["sweep", "--family", "cosine_gauss", "--alphas", "2",
                              "--h-x", "0.35", "--omega-max", "1",
                              "--dump-operator", str(path)], capsys)
    assert code == 5
    assert err == "numerical failure: span 18.0 is not an integer multiple of h_x 0.35\n"
    assert not path.exists()


def test_dump_operator_out_of_memory_exits_5(tmp_path, capsys, monkeypatch):
    def no_memory(spec, grid):
        raise MemoryError("synthetic")

    monkeypatch.setattr(cli, "quantize", no_memory)
    path = tmp_path / "op.npz"
    code, out, err = run_cli(["capacity", "--family", "cosine_gauss", "--alphas", "2",
                              "--dump-operator", str(path)], capsys)
    assert code == 5
    assert err == "numerical failure: out of memory: synthetic\n"
    assert not path.exists()


def test_dump_operator_allocates_no_dense_matrix(tmp_path, capsys, dense_allocation_guard):
    path = tmp_path / "op.npz"

    def run(alphas, grid_kw):
        # a coarse symbol quadrature keeps the capacity itself under the limit
        return main(["capacity", "--family", "cosine_gauss", "--quad-density", "16",
                     "--alphas", ",".join(map(str, alphas)),
                     "--padding-m", str(grid_kw["padding"]), "--dump-operator", str(path)])

    assert dense_allocation_guard(run) == 0
    assert path.exists()


def test_check_product_on_rough_family_exits_5(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "command": "check-product",
        "symbol": {"family": "band_constant"},
        "alphas": [2]})
    code, out, err = run_cli(["-c", cfg], capsys)
    assert code == 5


def test_check_stability_via_cli(tmp_path, capsys):
    out_path = tmp_path / "stab.json"
    cfg = write_config(tmp_path, {
        "command": "check-stability",
        "symbol": {"family": "band_constant", "params": {"c": 2.0, "W": 0.25}},
        "alphas": [2, 4],
        "grid": {"padding_tol": 1.0},
        "eps_schedule": {"mode": "fixed", "eps": 0.1},
        "output": {"path": str(out_path), "format": "json"}})
    code, out, err = run_cli(["-c", cfg], capsys)
    assert code == 0, err
    report = json.loads(out_path.read_text())
    assert [r["alpha"] for r in report["records"]] == [2, 4]
    assert all(r["eps"] == 0.1 for r in report["records"])


@pytest.mark.parametrize("command", ["check-stability", "sweep"])
def test_eps_beyond_the_roll_off_exits_2(command, capsys):
    # f_eps must reach h(x) before its roll-off at 16, so eps >= 15 is a
    # config error, not a failure at every alpha
    code, out, err = run_cli([command, "--family", "cosine_gauss", "--eps", "20",
                              "--alphas", "2"], capsys)
    assert code == 2
    assert "eps_schedule.eps" in err and out == ""


@pytest.mark.parametrize("flags", [["check-tracenorm", "--s", "1e308"],
                                   ["check-product", "--s-values", "1e308"]])
def test_overflowing_phase_is_recorded_per_alpha(tmp_path, capsys, flags):
    # 2 pi s sigma overflows, so tau is NaN; the SVD raised LinAlgError
    out_path = tmp_path / "r.json"
    code, out, err = run_cli(flags + ["--family", "cosine_gauss", "--alphas", "2",
                                      "--output", str(out_path)], capsys)
    assert code == 0, err
    [rec] = json.loads(out_path.read_text())["records"]
    assert rec["extra"]["error"].startswith("DomainError: e^(i 2 pi s sigma) is not finite")


@pytest.mark.parametrize("command", ["check-hs", "check-stability"])
@pytest.mark.parametrize("family,param", [
    ("band_constant", "c=1e200"), ("band_constant", "W=1e300"),
    ("square_smooth", "c=1e200"), ("cosine_gauss", "w=1e200"), ("two_tone", "c=1e200")])
def test_overflowing_envelope_exits_2(capsys, command, family, param):
    # Python-float ** in the family's psi raised OverflowError; two_tone's
    # numpy psi overflows to inf, and numpy must not warn about it first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli([command, "--family", family, "--param", param,
                                  "--alphas", "2"], capsys)
    assert code == 2
    assert "kernel envelope" in err and "overflows" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [["capacity"], ["sweep", "--alphas", "2"]])
def test_one_node_trapezoid_exits_numerical(capsys, command):
    # omega_max * density = 0.2 rounds to a trapezoid of one node, which has
    # no step 2 omega_max / (n - 1)
    code, out, err = run_cli(command + ["--family", "cosine_gauss", "--omega-max", "0.1",
                                        "--quad-density", "2"], capsys)
    assert code == cli.EXIT_NUMERICAL
    assert "omega_max * density must exceed 0.5" in err and "Traceback" not in err


def test_check_hs_near_float_max_records_overflow_per_alpha(tmp_path, capsys):
    # |sigma|^2 = 1e306: alpha ||psi||_1 overflows at alpha = 64, and the fits
    # over the other alphas stay finite
    out_path = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["check-hs", "--family", "band_constant", "--param", "c=1e153",
                                  "--output", str(out_path)], capsys)
    assert code == 0, err
    report = json.loads(out_path.read_text())
    errors = [r["extra"].get("error") for r in report["records"]]
    assert errors == [None, None, None,
                      "DomainError: a Hilbert-Schmidt value overflows at alpha = 64"]
    fits = report["fits"]
    assert set(fits) == {"hs_cross_vs_log_alpha", "hs_cross_vs_alpha"}
    assert all(math.isfinite(v) for fit in fits.values() for v in fit.values())
    assert math.isfinite(report["summary"]["resid_ratio_linear_over_log"])


def test_check_hs_with_an_overflowing_psi_l1_records_it_per_alpha(tmp_path, capsys):
    # psi(0) = 1e308 is finite, so the envelope builds, but its trapezoid
    # overflows: ||psi||_1 is inf and no alpha can bound ||P L||_I2^2
    out_path = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["check-hs", "--family", "band_constant", "--param", "c=5e153",
                                  "--alphas", "2,4", "--output", str(out_path)], capsys)
    assert code == 0, err
    report = json.loads(out_path.read_text())
    assert [r["extra"]["error"] for r in report["records"]] == [
        f"DomainError: a Hilbert-Schmidt value overflows at alpha = {a}" for a in (2, 4)]
    assert report["summary"]["psi_l1"] == math.inf
    assert report["summary"]["hs_bound_ok_all"] is False


def test_check_hs_at_padding_0_fits_no_zero_cross_term(tmp_path, capsys):
    # the window is the whole circle, so every cross term is exactly 0; the
    # fits of that constant wrote r2 NaN and the residual ratio Infinity
    out_path = tmp_path / "r.json"
    code, out, err = run_cli(["check-hs", "--family", "cosine_gauss", "--alphas", "4,8,16",
                              "--padding-m", "0", "--output", str(out_path)], capsys)
    assert code == 0, err
    text = out_path.read_text()
    assert "NaN" not in text and "Infinity" not in text
    report = json.loads(text)
    assert [r["hs_cross_norm"] for r in report["records"]] == [0.0, 0.0, 0.0]
    assert not any(key.startswith("hs_cross_vs_") for key in report["fits"])
    assert "resid_ratio_linear_over_log" not in report["summary"]


def test_waterfill_alpha_with_overflowing_weight_exits_5(capsys):
    # 1/alpha is inf; the level solver divided by zero
    code, out, err = run_cli(["waterfill", "--eigs", "1,2", "--alpha", "1e-310"], capsys)
    assert code == 5
    assert "1/alpha overflows" in err and out == ""


def test_check_hs_envelope_follows_the_grids_band_edge(capsys):
    # the envelope's ringing floor comes from this grid's band edge, 4
    code, out, err = run_cli(["check-hs", "--family", "cosine_gauss", "--omega-max", "4",
                              "--alphas", "8,16,32"], capsys)
    assert code == 0, err


def test_check_hs_records_a_grid_error_at_any_alpha(tmp_path, capsys):
    # the span 19 of alpha 3 is no whole number of h_x = 0.3 cells; with alpha
    # 3 first, the envelope check's grid raised that and the command exited 5
    records = {}
    for alphas in ("3,2,5", "2,3,5", "3"):
        out_path = tmp_path / f"{alphas}.json"
        code, out, err = run_cli(["check-hs", "--family", "cosine_gauss", "--h-x", "0.3",
                                  "--omega-max", "1", "--alphas", alphas,
                                  "--output", str(out_path)], capsys)
        assert code == 0, err
        report = json.loads(out_path.read_text())
        records[alphas] = {r["alpha"]: r for r in report["records"]}
    assert records["3,2,5"] == records["2,3,5"]
    assert records["3"][3] == records["2,3,5"][3]
    assert records["3"][3]["extra"] == {
        "error": "DomainError: span 19.0 is not an integer multiple of h_x 0.3"}
    assert report["summary"]["hs_bound_ok_all"] is False


@pytest.mark.parametrize("command", ["check-hs", "check-product"])
def test_a_one_node_frequency_axis_is_recorded_per_alpha(tmp_path, capsys, command):
    # omega_max below one step h_omega passed the lattice test with no step,
    # and the commands fitted kernels from one frequency node
    out_path = tmp_path / "r.json"
    code, out, err = run_cli([command, "--family", "cosine_gauss", "--alphas", "2,4,8",
                              "--omega-max", "1e-300", "--output", str(out_path)], capsys)
    assert code == 0, err
    report = json.loads(out_path.read_text())
    assert [r["extra"]["error"].split(" must ")[0] for r in report["records"]] == \
        ["DomainError: omega_max 1e-300"] * 3
    assert report["fits"] == {}


def test_check_stability_tail_follows_the_grids_band_edge(capsys):
    # with the ringing of a band cut at omega_max = 4, two_tone's envelope
    # tail beyond the padding is 1.19e-6
    code, out, err = run_cli(["check-stability", "--family", "two_tone", "--omega-max", "4",
                              "--alphas", "8,16", "--padding-tol", "1e-6"], capsys)
    assert code == 2
    assert "1.189e-06" in err


COSINE = {"family": "cosine_gauss"}
COMMAND_DOCS = {
    "capacity": {"symbol": COSINE},
    "waterfill": {"eigs": [4, 1], "power_S": 0.5},
    "sweep": {"symbol": COSINE, "eps_schedule": {"mode": "alpha_power"}},
    "check-stability": {"symbol": COSINE},
    "check-hs": {"symbol": {"family": "band_constant", "params": {"c": 1.0, "W": 0.25}}},
    "check-product": {"symbol": COSINE},
    "check-tracenorm": {"symbol": COSINE},
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", COMMAND_DOCS)
def test_csv_determinism_byte_identical(tmp_path, capsys, command, fmt):
    out_path = tmp_path / f"report.{fmt}"
    cfg = write_config(tmp_path, {
        "command": command, "alphas": [2, 4], **COMMAND_DOCS[command],
        "output": {"path": str(out_path), "format": fmt}})
    reports = []
    for _ in range(2):
        code, out, err = run_cli(["-c", cfg], capsys)
        assert code == 0, err
        reports.append(out_path.read_bytes())
        out_path.unlink()
    assert reports[0] == reports[1]


def test_minimal_config_echo_is_pinned():
    echo = validate_config({"command": "sweep"}).as_dict()
    assert json.dumps(echo, sort_keys=True) == json.dumps({
        "schema_version": 1, "command": "sweep", "symbol": None, "power_S": 1.0,
        "alphas": [8, 16, 32, 64], "alpha": 1.0, "eigs": None, "s": 0.5,
        "s_values": [0.25, 0.5, 1.0],
        "grid": {"h_x": 0.0625, "omega_max": 8.0, "padding_m": 8.0,
                 "quad_density": 256, "padding_tol": 1e-08},
        "eps_schedule": None, "output": None}, sort_keys=True)


def test_full_config_echo_is_pinned():
    # a document that sets every field and every section
    echo = validate_config({
        "schema_version": 1, "command": "check-stability",
        "symbol": {"family": "two_tone", "params": {"c": 4}}, "power_S": 2,
        "alphas": [2, 4], "alpha": 3, "eigs": [2, 1.5], "s": 0.25, "s_values": [0.5, 1],
        "grid": {"h_x": 0.03125, "omega_max": 4, "padding_m": 6, "quad_density": 128,
                 "padding_tol": 1e-6},
        "eps_schedule": {"mode": "fixed", "eps": 0.2},
        "output": {"path": "r.csv", "format": "csv"}}).as_dict()
    assert json.dumps(echo, sort_keys=True) == json.dumps({
        "schema_version": 1, "command": "check-stability",
        "symbol": {"family": "two_tone", "params": {"c": 4.0}}, "power_S": 2.0,
        "alphas": [2, 4], "alpha": 3.0, "eigs": [2.0, 1.5], "s": 0.25, "s_values": [0.5, 1.0],
        "grid": {"h_x": 0.03125, "omega_max": 4.0, "padding_m": 6.0, "quad_density": 128,
                 "padding_tol": 1e-06},
        "eps_schedule": {"mode": "fixed", "eps": 0.2},
        "output": {"path": "r.csv", "format": "csv"}}, sort_keys=True)


# one value per schema field: the flag's text and the same value in a document
FLAG_VALUES = {
    "power_S": ("2.5", 2.5), "alphas": ("4,8", [4, 8]), "alpha": ("3", 3),
    "eigs": ("2, 1.5", [2, 1.5]), "s": ("0.25", 0.25), "s_values": ("0.5,1", [0.5, 1]),
    "grid.h_x": ("0.03125", 0.03125), "grid.omega_max": ("4", 4),
    "grid.padding_m": ("6", 6), "grid.quad_density": ("128", 128),
    "grid.padding_tol": ("1e-6", 1e-6),
}


# the flags outside _FIELDS: their arguments and the same setting in a document
OTHER_FLAGS = {
    "--family": (["--family", "two_tone"], {"symbol": {"family": "two_tone"}}),
    "--param": (["--family", "two_tone", "--param", "c=2"],
                {"symbol": {"family": "two_tone", "params": {"c": 2}}}),
    "--eps": (["--eps", "0.2"], {"eps_schedule": {"mode": "fixed", "eps": 0.2}}),
    "--delta": (["--delta", "0.3"], {"eps_schedule": {"mode": "alpha_power", "delta": 0.3}}),
    "--output": (["--output", "r.csv"], {"output": {"path": "r.csv"}}),
    "--format": (["--output", "r.csv", "--format", "csv"],
                 {"output": {"path": "r.csv", "format": "csv"}}),
}


def _flag_cases():
    for f in cli._FIELDS:
        text, value = FLAG_VALUES[f.path]
        section, _, key = f.path.rpartition(".")
        yield pytest.param([f.flag, text], {section: {key: value}} if section else {key: value},
                           id=f.flag)
    for flag, (argv, doc) in OTHER_FLAGS.items():
        yield pytest.param(argv, doc, id=flag)


@pytest.mark.parametrize("argv, doc", list(_flag_cases()))
def test_every_flag_matches_its_document_field(argv, doc):
    from_flag = cli.parse_config(["sweep", *argv]).as_dict()
    from_doc = validate_config({"command": "sweep", **doc}).as_dict()
    assert json.dumps(from_flag, sort_keys=True) == json.dumps(from_doc, sort_keys=True)
    assert from_doc != validate_config({"command": "sweep"}).as_dict()


def test_flag_table_covers_every_field():
    assert set(FLAG_VALUES) == {f.path for f in cli._FIELDS}
    # every option but the help, the document and the debugging aid is in a table
    options = {opt for action in cli.build_arg_parser()._actions
               for opt in action.option_strings if opt.startswith("--")}
    assert options - {"--help", "--config", "--dump-operator"} \
        == {f.flag for f in cli._FIELDS} | set(OTHER_FLAGS)


CAPACITY = {"command": "capacity", "symbol": {"family": "cosine_gauss"}}


@pytest.mark.parametrize("doc, flags, section", [
    ({**CAPACITY, "grid": []}, ["--h-x", "0.03125"], "grid"),
    ({"command": "capacity", "symbol": ""}, ["--family", "cosine_gauss"], "symbol"),
    ({**CAPACITY, "output": 0}, ["--output", "r.json"], "output"),
    ({**CAPACITY, "symbol": {"family": "cosine_gauss", "params": 0}}, ["--param", "w=3"],
     "symbol.params"),
    ({**CAPACITY, "symbol": {"family": "cosine_gauss", "params": [["w", 2]]}},
     ["--param", "w=3"], "symbol.params"),
    ({**CAPACITY, "symbol": {"family": "cosine_gauss", "params": [1, 2]}}, ["--param", "w=3"],
     "symbol.params"),
    ({**CAPACITY, "symbol": {"family": "cosine_gauss", "params": "ab"}}, ["--param", "w=3"],
     "symbol.params"),
], ids=["grid-list", "symbol-string", "output-zero", "params-zero", "params-pairs",
        "params-list", "params-string"])
def test_a_flag_leaves_a_non_object_section_an_error(tmp_path, monkeypatch, capsys,
                                                     doc, flags, section):
    # a flag sets one entry; it replaced a falsy section (exit 0) and crashed
    # on a truthy list or string of params (a TypeError or ValueError)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, doc)
    for argv in (["-c", cfg], ["-c", cfg, *flags]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"config error at {section!r}: "), err
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("argv, message", [
    (["--param", "w=nan"], "parameter 'w' must be finite, got nan"),
    (["--param", "w=-1"], "parameter 'w' must be positive, got -1.0"),
    (["--param", "family_name=1"], "family 'cosine_gauss' has no parameter 'family_name'"),
], ids=["nan", "negative", "make_symbol-argument"])
def test_a_bad_symbol_parameter_is_named(capsys, argv, message):
    code, out, err = run_cli(["capacity", "--family", "cosine_gauss", *argv], capsys)
    assert code == 2
    assert err.startswith(f"config error at 'symbol.params': {message}"), err


def test_eps_and_delta_flags_exclude_each_other(capsys):
    # --delta was dropped without a word
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--family", "cosine_gauss", "--eps", "0.1", "--delta", "0.3"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("doc, path", [
    ({"eps_schedule": {"mode": "alpha_power", "eps": 0.1}}, "eps_schedule.eps"),
    ({"eps_schedule": {"mode": "fixed", "eps": 0.1, "delta": 0.3}}, "eps_schedule.delta"),
    ({"schema_version": True}, "schema_version"),
], ids=["alpha_power-eps", "fixed-delta", "schema_version-true"])
def test_strict_schema_rejects_what_it_would_drop(doc, path):
    # alpha_power ran with the default delta, fixed ignored delta, and true read as 1
    with pytest.raises(ConfigFieldError) as exc:
        validate_config({"command": "sweep", **doc})
    assert exc.value.path == path


def test_json_roundtrip_is_lossless(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    cfg = write_config(tmp_path, {
        "command": "check-hs",
        "symbol": {"family": "band_constant", "params": {"c": 1.0, "W": 0.25}},
        "alphas": [2, 4],
        "output": {"path": str(out_path), "format": "json"}})
    code, out, err = run_cli(["-c", cfg], capsys)
    assert code == 0, err
    text = out_path.read_text()
    first = json.loads(text)
    # re-serializing the parsed document reproduces every float bit-exactly
    assert json.dumps(first, indent=2, sort_keys=True) == json.dumps(
        json.loads(json.dumps(first, indent=2, sort_keys=True)),
        indent=2, sort_keys=True)
    records = first["records"]
    assert all(isinstance(r["hs_cross_norm"], float) for r in records)


def test_csv_17_digit_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "r.csv"
    cfg = write_config(tmp_path, {
        "command": "check-hs",
        "symbol": {"family": "band_constant", "params": {"c": 1.0, "W": 0.25}},
        "alphas": [2, 4],
        "output": {"path": str(out_path), "format": "csv"}})
    code, out, err = run_cli(["-c", cfg], capsys)
    assert code == 0, err
    from szegocap.harness import run_hs_boundary_check
    import szegocap as sc
    rep = run_hs_boundary_check(sc.make_symbol("band_constant", c=1.0, W=0.25), [2, 4])
    lines = out_path.read_text().splitlines()
    header = lines[0].split(",")
    idx = header.index("hs_cross_norm")
    for line, rec in zip(lines[1:], rep.records):
        assert float(line.split(",")[idx]) == rec.hs_cross_norm


@pytest.mark.parametrize("doc,field", [
    ({"command": "capacity", "symbol": {"family": "band_constant"},
      "power_S": math.nan}, "power_S"),
    ({"command": "sweep", "symbol": {"family": "band_constant"},
      "grid": {"h_x": math.inf}}, "grid.h_x"),
    ({"command": "sweep", "symbol": {"family": "band_constant"},
      "alphas": [8, math.nan]}, "alphas"),
    ({"command": "capacity", "symbol": {"family": "cosine_gauss",
                                        "params": {"w": -math.inf}}}, "symbol.params"),
    ({"command": "waterfill", "eigs": [1.0], "alpha": 10 ** 400}, "alpha"),
])
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, doc, field):
    # json writes NaN and Infinity, and json.loads reads them back; an integer
    # literal too large for a float is no finite number either
    code, out, err = run_cli(["-c", write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert repr(field) in err


@pytest.mark.parametrize("flags,field", [
    (["capacity", "--family", "band_constant", "--power-S", "nan"], "power_S"),
    (["sweep", "--family", "band_constant", "--h-x", "inf"], "grid.h_x"),
    (["sweep", "--family", "band_constant", "--alphas", "8,-inf"], "alphas"),
    (["waterfill", "--eigs", "inf,1"], "eigs"),
    (["waterfill", "--eigs", "nan,1,0.5"], "eigs"),
])
def test_non_finite_flags_exit_2(capsys, flags, field):
    code, out, err = run_cli(flags, capsys)
    assert code == 2
    assert repr(field) in err


@pytest.mark.parametrize("command,value", [("capacity", "0.5"), ("sweep", "0.4"),
                                           ("capacity", "16.5")])
def test_non_integer_quad_density_exits_2(capsys, command, value):
    # truncated, 0.5 became 0 and the symbol water-fill divided by zero
    code, out, err = run_cli([command, "--family", "cosine_gauss", "--alphas", "2",
                              "--quad-density", value], capsys)
    assert code == 2
    assert repr("grid.quad_density") in err and "integer" in err and out == ""


def test_out_of_memory_exits_5(monkeypatch, capsys):
    # e.g. --quad-density 100000 asks numpy for 1.16 TiB; raise instead of allocating
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.16 TiB for an array")

    monkeypatch.setattr(cli, "waterfill_symbol", exhausted)
    code, out, err = run_cli(["capacity", "--family", "cosine_gauss",
                              "--quad-density", "100000"], capsys)
    assert code == 5
    assert err.strip() == "numerical failure: out of memory: Unable to allocate 1.16 TiB for an array"


def test_tracenorm_of_a_huge_symbol_is_finite(tmp_path, capsys):
    # ||T'||_I2 was np.linalg.norm of the columns, whose sum of squares
    # overflowed to inf beside a finite ||T'||_I1
    out_path = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["check-tracenorm", "--family", "two_tone", "--param", "c=1e160",
                                  "--alphas", "8,16", "--output", str(out_path)], capsys)
    assert code == 0, err
    for rec in json.loads(out_path.read_text())["records"]:
        i1, i2 = rec["extra"]["tp_prime_i1"], rec["extra"]["tp_prime_i2"]
        assert math.isfinite(i2) and 0.0 < i2 <= i1


def test_waterfill_tied_top_eigenvalues_with_tiny_budget(capsys):
    # the level solver dropped the three ties and then divided by zero
    code, out, err = run_cli([
        "waterfill", "--eigs", "7.145043730921083,7.145043730921083,7.145043730921083,"
        "4.846123922479543,2.641557650530245,4.117802297705274",
        "--power-S", "1.3849194867718743e-20", "--alpha", "1000"], capsys)
    assert code == 0, err
    assert out.startswith(f"B={1 / 7.145043730921083:.12g} ") and "active_count=0" in out


@pytest.mark.parametrize("argv,code", [
    (["capacity", "--family", "cosine_gauss", "--param", "w=1e200"], 5),
    (["capacity", "--family", "cosine_gauss", "--param", "w=1e-200"], 2),
    (["waterfill", "--eigs", "400,1.7976931348623157e308,5.960464477539063e-08",
      "--power-S", "1.7976931348623157e308", "--alpha", "6.540604722851699e16"], 5),
])
def test_extreme_inputs_end_in_typed_errors(capsys, argv, code):
    # an OverflowError traceback, a NaN symbol with an invalid-value warning,
    # and B = inf printed with exit 0
    assert run_cli(argv, capsys)[0] == code


def test_negative_exponent_values_read_as_values(tmp_path, capsys):
    # argparse took "-1e-5,2" for an option and exited 2 with "expected one argument"
    reports = []
    for form in (["--eigs", "-1e-5,2", "--alpha", "2"], ["--eigs=-1e-5,2", "--alpha=2"]):
        out_path = tmp_path / "r.json"
        code, out, err = run_cli(["waterfill", *form, "--output", str(out_path)], capsys)
        assert code == 0, err
        reports.append((out, out_path.read_text()))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("flags,message", [
    (["waterfill", "--eigs", "1", "--power-S", "-1e-3"],
     "config error at 'power_S': must be nonnegative, got -0.001"),
    (["sweep", "--family", "cosine_gauss", "--alphas", "-8e0"],
     "config error at 'alphas': entries must be positive, got [-8.0]"),
    (["check-stability", "--family", "cosine_gauss", "--eps", "-1E-2"],
     "config error at 'eps_schedule.eps': must be positive, got -0.01"),
])
def test_negative_exponent_values_reach_validation(capsys, flags, message):
    code, out, err = run_cli(flags, capsys)
    assert code == 2
    assert err.strip() == message and out == ""


def test_check_stability_with_a_vanishing_f_second_writes_finite_numbers(tmp_path, capsys):
    # f_eps vanishes on cosine_gauss's spectrum inside [0, 1]: the records read
    # ratio inf and the fits NaN
    out_path = tmp_path / "r.json"
    code, out, err = run_cli(["check-stability", "--family", "cosine_gauss",
                              "--alphas", "8,16,32", "--output", str(out_path)], capsys)
    assert code == 0, err
    text = out_path.read_text()
    assert "NaN" not in text and "Infinity" not in text
    report = json.loads(text)
    assert [r["extra"]["ratio"] for r in report["records"]] == [0.0, 0.0, 0.0]
    assert report["fits"] == {} and "alphas [8, 16, 32]" in report["summary"]["ratio_note"]


def _reject_constant(name):
    raise ValueError(f"report holds {name}")


@pytest.mark.parametrize("family", sorted(_REGISTRY))
@pytest.mark.parametrize("command", [["sweep"], ["check-stability", "--padding-tol", "1e-2"],
                                     ["check-hs"], ["check-product"], ["check-tracenorm"]],
                         ids=lambda command: command[0])
def test_every_report_is_strict_json(tmp_path, capsys, command, family):
    # alpha = 1 is the edge of every runner's domain: a record there holds
    # numbers or an error, never NaN or Infinity
    out_path = tmp_path / "r.json"
    code, out, err = run_cli([*command, "--family", family, "--alphas", "1,2",
                              "--output", str(out_path), "--format", "json"], capsys)
    assert code in (0, 2, 5), err
    if out_path.exists():
        json.loads(out_path.read_text(), parse_constant=_reject_constant)


def test_check_stability_refuses_alpha_1(tmp_path, capsys):
    # the reference bound ||f''|| log(alpha) / alpha is 0 at alpha = 1, where
    # the trace error is not
    out_path = tmp_path / "r.json"
    code, out, err = run_cli(["check-stability", "--family", "two_tone", "--param", "c=4",
                              "--padding-tol", "1e-6", "--alphas", "1,2,4",
                              "--output", str(out_path), "--format", "json"], capsys)
    assert code == 0, err
    first, *rest = json.loads(out_path.read_text())["records"]
    assert first["alpha"] == 1 and "needs alpha >= 2" in first["extra"]["error"]
    assert "bound" not in first["extra"]
    assert [r["alpha"] for r in rest] == [2, 4] and all(r["extra"]["bound"] > 0 for r in rest)


def test_check_stability_records_a_degenerate_interval(tmp_path, capsys):
    # the spectral interval [0, 6.6e-301] leaves a second-difference step whose
    # square is 0: each alpha records a DomainError naming the interval,
    # where f_second_sup and bound used to read NaN
    out_path = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["check-stability", "--family", "two_tone", "--param",
                                  "c=1e-300", "--alphas", "2,4,8",
                                  "--output", str(out_path), "--format", "json"], capsys)
    assert code == 0, err
    records = json.loads(out_path.read_text(), parse_constant=_reject_constant)["records"]
    assert [r["alpha"] for r in records] == [2, 4, 8]
    for r in records:
        assert r["extra"]["error"].startswith("DomainError: interval [0.0, 6.6")
        assert "f_second_sup" not in r["extra"] and "bound" not in r["extra"]


# Runs argv[1:] and prints its ru_maxrss from wait4.  A child's peak RSS
# counts its parent's peak at the fork, so the command is started from this
# small launcher rather than straight from the test process.
_PEAK_RSS_LAUNCHER = """\
import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def _child_peak_rss(args) -> int:
    """Peak RSS in bytes of one `python -m szegocap.cli args` process, with
    this checkout's szegocap first on the path."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_LAUNCHER,
                           sys.executable, "-m", "szegocap.cli", *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) * (1 if sys.platform == "darwin" else 1024)


def test_check_stability_process_peak(tmp_path):
    # tracemalloc does not see LAPACK's malloc'ed workspace, so the whole
    # process is measured: the dense oracle's growth from alpha 2 to 64 must
    # stay within 2.75 complex n_x x n_x arrays, the floor of numpy's eigh
    # (input, its copy, basis and the 2 n^2 workspace) with some slack
    n_x = make_grid(64).n_x
    rss = {}
    for alpha in (2, 64):
        rss[alpha] = _child_peak_rss(
            ["check-stability", "--family", "two_tone", "--param", "c=4",
             "--padding-tol", "1e-6", "--alphas", str(alpha),
             "--output", str(tmp_path / f"r{alpha}.json")])
    grown = (rss[64] - rss[2]) / (16 * n_x ** 2)
    assert rss[64] > rss[2]
    assert grown <= 2.75, f"peak RSS grew {grown:.2f} x 16 n_x^2 from alpha 2 to 64"


def _imported_modules(args):
    """Run `python -X importtime args` with this checkout's szegocap first on
    the path; returns the exit code and the names of every module imported."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    names = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc.returncode, names


def _scipy(names):
    return sorted(n for n in names if n == "scipy" or n.startswith("scipy."))


@pytest.mark.parametrize("args", [
    ["-c", "import szegocap.cli"],
    ["-m", "szegocap.cli", "capacity", "--family", "cosine_gauss"],
    ["-m", "szegocap.cli", "waterfill", "--eigs", "3,2,1", "--power-S", "2"],
    # the fitting commands, each on a config whose report holds a fit: the t
    # quantile of a fit over 3-32 points comes from harness.T975
    ["-m", "szegocap.cli", "sweep", "--family", "cosine_gauss", "--alphas", "2,3,4"],
    ["-m", "szegocap.cli", "check-stability", "--family", "two_tone", "--param", "c=4",
     "--padding-tol", "1e-6", "--alphas", "2,3,4"],
    ["-m", "szegocap.cli", "check-hs", "--family", "cosine_gauss", "--alphas", "2,3,4"],
    ["-m", "szegocap.cli", "check-product", "--family", "cosine_gauss", "--alphas", "2,3,4"],
    ["-m", "szegocap.cli", "check-tracenorm", "--family", "cosine_gauss", "--alphas", "2,3,4"]])
def test_cli_import_and_cheap_commands_load_no_scipy(args, tmp_path):
    out_path = tmp_path / "r.json"
    fitting = "--alphas" in args
    code, names = _imported_modules([*args, "--output", str(out_path)] if fitting else args)
    assert code == 0 and "szegocap.harness" in names
    assert _scipy(names) == []
    if fitting:
        assert json.loads(out_path.read_text())["fits"]


finite = st.floats(allow_nan=False, allow_infinity=False)


def _fuzz_cli(argv):
    """Run the CLI: it must exit 0, 2 or 5, and on 0 print finite numbers.  A
    RuntimeWarning is an error under the test configuration."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 5), argv
    if code == 0:
        values = [float(tok.partition("=")[2]) for tok in out.getvalue().split()]
        assert all(map(math.isfinite, values)), (argv, out.getvalue())


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(finite, min_size=1, max_size=6), finite, finite)
def test_fuzz_waterfill(eigs, S, alpha):
    _fuzz_cli(["waterfill", "--eigs", ",".join(map(repr, eigs)), "--power-S", repr(S),
               "--alpha", repr(alpha)])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data(), st.sampled_from(sorted(_REGISTRY)), finite)
def test_fuzz_capacity(data, family, S):
    params = data.draw(st.dictionaries(st.sampled_from(sorted(_REGISTRY[family].defaults)),
                                       finite))
    _fuzz_cli(["capacity", "--family", family, "--power-S", repr(S), "--quad-density", "16"]
              + [tok for k, v in params.items() for tok in ("--param", f"{k}={v!r}")])


_NAMES = sorted(cli._TOP_LEVEL | cli._GRID_KEYS | set(cli.COMMANDS) | set(_REGISTRY)
                | {"family", "params", "mode", "eps", "delta", "path", "format", "fixed",
                   "alpha_power", "json", "csv", "w", "c", "W", "gamma", "beta", "steep"})
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(_NAMES)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_NAMES) | st.text(max_size=4), inner, max_size=5),
    max_leaves=16)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.dictionaries(st.sampled_from(_NAMES), _json, max_size=8))
def test_fuzz_validate_config(doc):
    try:
        validate_config(doc)
    except ConfigurationError:
        pass


_entry = (st.integers() | st.floats() | st.booleans() | st.none() | st.text(max_size=2)
          | st.sampled_from([10 ** 400, -(10 ** 309), 2 ** 1023, np.float64(2.5),
                             np.float64("nan"), [1.0]]))


def _is_number(v) -> bool:
    """The reference rule for one entry: a finite number that is no bool."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:           # an integer too large for a float
        return False


def _checked(kind, v):
    try:
        return cli._numbers("field", kind, "", v)
    except ConfigFieldError:
        return None


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(_entry, max_size=6) | _entry)
def test_number_list_matches_is_number_per_entry(v):
    # the list check is done once per list, and a scalar is checked as the
    # list [v]; _is_number on each entry is the reference
    ok = isinstance(v, list) and bool(v) and all(map(_is_number, v))
    vals = _checked("floats", v)
    assert (vals is not None) == ok, v
    if ok:
        assert vals == list(map(float, v))
    scalar = _checked("float", v)
    assert (scalar is not None) == _is_number(v), v
    if scalar is not None:
        assert type(scalar) is float and scalar == float(v)


# the benchmark's seed-0 commands that run in seconds in process, checked as
# the benchmark checks them; the capacity commands have their own test in
# test_waterfill, and check-stability (dense, about 4 s at its alphas) has the
# test below at its first two alphas
@pytest.mark.parametrize("workload, prefix, count", [
    ("operator-sweep", "sweep-", 2),
    ("trace-diagnostics", "check-", 3),
    ("capacity-curve", "waterfill-", 128),
], ids=["operator-sweep", "trace-diagnostics", "waterfill"])
def test_seed0_commands_match_reference(workload, prefix, count, seed0_reference_errors):
    n, errs = seed0_reference_errors(workload, prefix)
    assert n == count
    assert not errs, "\n".join(errs[:10])


def test_seed0_check_stability_matches_reference_at_first_alphas(perfbench_workloads, tmp_path):
    # f_second_sup, bound, ratio and spectral_interval are finite differences
    # of f that move past the 1e-8 tolerance when lambda_max moves by one ulp,
    # so this pins the dense oracle's bits; alpha = 128 and the fits are left
    # to the benchmark
    wl, reference = perfbench_workloads
    [cmd] = [c for c in wl.build("operator-sweep", 0, str(tmp_path))
             if c.label.startswith("check-stability")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(cmd.argv + ["--alphas", "32,64"]) == cli.EXIT_OK
    with open(cmd.report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert [r["alpha"] for r in report["records"]] == [32, 64]
    first = ("records[0].", "records[1].")
    values = {k: v for k, v in wl.reference_values(report).items() if k.startswith(first)}
    ref = {k: v for k, v in reference["operator-sweep"][cmd.label].items()
           if k.startswith(first)}
    assert {k.split(".")[-1] for k in ref} >= {"f_second_sup", "bound", "ratio"}
    errs = wl.check_report(report, cmd.expect) + wl.compare_reference(values, ref)
    assert not errs, "\n".join(errs[:10])
