import json
import math

import pytest

from szegocap import cli
from szegocap.cli import ConfigFieldError, main, validate_config


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


def test_check_hs_envelope_follows_the_grids_band_edge(capsys):
    # the envelope's ringing floor comes from this grid's band edge, 4
    code, out, err = run_cli(["check-hs", "--family", "cosine_gauss", "--omega-max", "4",
                              "--alphas", "8,16,32"], capsys)
    assert code == 0, err


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


# one value per schema field: the flag's text and the same value in a document
FLAG_VALUES = {
    "power_S": ("2.5", 2.5), "alphas": ("4,8", [4, 8]), "alpha": ("3", 3),
    "eigs": ("2, 1.5", [2, 1.5]), "s": ("0.25", 0.25), "s_values": ("0.5,1", [0.5, 1]),
    "grid.h_x": ("0.03125", 0.03125), "grid.omega_max": ("4", 4),
    "grid.padding_m": ("6", 6), "grid.quad_density": ("128", 128),
    "grid.padding_tol": ("1e-6", 1e-6),
}


@pytest.mark.parametrize("field", cli._FIELDS, ids=lambda f: f.flag)
def test_every_flag_matches_its_document_field(field):
    text, value = FLAG_VALUES[field.path]
    section, _, key = field.path.rpartition(".")
    doc = {"command": "sweep", **({section: {key: value}} if section else {key: value})}
    from_flag = cli.parse_config(["sweep", field.flag, text]).as_dict()
    from_doc = validate_config(doc).as_dict()
    assert json.dumps(from_flag, sort_keys=True) == json.dumps(from_doc, sort_keys=True)
    assert from_doc != validate_config({"command": "sweep"}).as_dict()


def test_flag_table_covers_every_field():
    assert set(FLAG_VALUES) == {f.path for f in cli._FIELDS}


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


def test_out_of_memory_exits_5(monkeypatch, capsys):
    # e.g. --quad-density 100000 asks numpy for 1.16 TiB; raise instead of allocating
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.16 TiB for an array")

    monkeypatch.setattr(cli, "waterfill_symbol", exhausted)
    code, out, err = run_cli(["capacity", "--family", "cosine_gauss",
                              "--quad-density", "100000"], capsys)
    assert code == 5
    assert err.strip() == "numerical failure: out of memory: Unable to allocate 1.16 TiB for an array"
