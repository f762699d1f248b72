"""Config parsing/validation, command dispatch, serialization, exit codes."""

import ast
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torspec as ts
from torspec import jsonio
from torspec.cli import main, run_command
from torspec.config import KERNEL_FAMILIES, POTENTIAL_FAMILIES, SETTINGS, RunConfig
from conftest import FIXTURE_DIR, REPO_ROOT


def minimal_config(**overrides):
    raw = {
        "dimension": 1,
        "grid_n": 128,
        "kernel": {"family": "constant"},
        "potential": {"family": "step", "depth": 1.0},
    }
    raw.update(overrides)
    return raw


def test_minimal_config_defaults():
    config = ts.config_from_dict(minimal_config())
    assert config.grid_n == 128
    assert config.kernel["value"] == 1.0
    assert config.potential["width"] == 0.5
    assert config.analysis.power_tol == 1e-11
    assert config.analysis.seed == 0
    assert config.evolution["method"] == "rk4"
    assert config.output["directory"] == "."


def test_config_echo_round_trips():
    config = ts.config_from_dict(minimal_config())
    again = ts.config_from_dict(config.echo())
    assert again.echo() == config.echo()


def test_odd_grid_rejected():
    with pytest.raises(ts.ValidationError, match="even"):
        ts.config_from_dict(minimal_config(grid_n=63))


def test_validation_lists_every_violation():
    raw = minimal_config(grid_n=63)
    raw["analysis"] = {"power_tol": -1.0}
    with pytest.raises(ts.ValidationError) as err:
        ts.config_from_dict(raw)
    message = str(err.value)
    assert "grid_n" in message and "power_tol" in message


def test_unknown_key_named_in_error():
    raw = minimal_config()
    raw["grdi_n"] = 64
    with pytest.raises(ts.ParseError, match="grdi_n"):
        ts.config_from_dict(raw)


def test_unknown_nested_key_rejected():
    raw = minimal_config()
    raw["kernel"] = {"family": "constant", "sigma": 0.2}
    with pytest.raises(ts.ParseError, match="sigma"):
        ts.config_from_dict(raw)


def test_missing_required_sections():
    with pytest.raises(ts.ParseError, match="kernel"):
        ts.config_from_dict({"dimension": 1, "grid_n": 8, "potential": {"family": "zero"}})
    with pytest.raises(ts.ParseError, match="grid_n"):
        ts.config_from_dict({"dimension": 1, "kernel": {"family": "constant"},
                             "potential": {"family": "zero"}})


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dimension": 1,,}\n')
    with pytest.raises(ts.ParseError, match="broken.json:1"):
        ts.load_config(str(path))


def test_missing_config_file(tmp_path):
    with pytest.raises(ts.ValidationError):
        ts.load_config(str(tmp_path / "nope.json"))


def test_missing_csv_path_is_validation_error(tmp_path):
    raw = minimal_config()
    raw["kernel"] = {"family": "csv", "path": "missing.csv"}
    with pytest.raises(ts.ValidationError, match="missing.csv"):
        ts.config_from_dict(raw, base_dir=str(tmp_path))


def test_builtin_fixture_configs_load():
    for name in ("f1", "f2", "f3", "f4"):
        config = ts.load_config(str(FIXTURE_DIR / f"{name}.json"))
        grid = config.build_grid()
        kernel = config.build_kernel(grid)
        potential = config.build_potential(grid)
        assert kernel.rows().shape == (grid.size, grid.size)
        assert potential.samples.size == grid.size
        assert kernel.wound is not None  # all builtin fixtures are convolution form


WOUND_BY_KERNEL_FAMILY = {"constant": True, "tophat": True, "gaussian": True, "exponential": True,
                          "sine": True, "modulated": False, "csv": False}


def test_build_kernel_returns_one_kernel_that_keeps_its_wound(tmp_path):
    assert set(WOUND_BY_KERNEL_FAMILY) == set(KERNEL_FAMILIES)
    n = 8
    with open(tmp_path / "kernel.csv", "w") as handle:
        handle.write("x,y,value\n" + "".join(f"{i / n},{j / n},1.0\n" for i in range(n) for j in range(n)))
    for family, wound in WOUND_BY_KERNEL_FAMILY.items():
        spec = {"family": family, **{"csv": {"path": "kernel.csv"},
                                     "modulated": {"base": {"family": "gaussian"}}}.get(family, {})}
        config = ts.config_from_dict(minimal_config(grid_n=n, kernel=spec), base_dir=str(tmp_path))
        kernel = config.build_kernel(config.build_grid())
        assert isinstance(kernel, ts.GenericKernel)
        assert (kernel.wound is not None) is wound, family
        if wound:
            assert np.array_equal(kernel.rows(), ts.convolution_kernel(kernel.wound).rows())


def test_run_analyze_writes_report(tmp_path):
    config = ts.load_config(str(FIXTURE_DIR / "f1.json"))
    code = run_command("analyze", config, str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["lambda"] + 0.3) < 1e-8
    assert report["essential"]["values"] == [1.3]
    assert set(report["lambda_by_method"]) == {"direct_qr", "perron_shift", "q_bisection"}
    assert report["gap_bound"]["verdict"] == "pass"
    assert report["diagnostics"]["conforming"] is True


def test_reports_print_the_potentials_diagnostics_and_essential_values(tmp_path):
    """The ``potential`` section is ``potential.diagnostics``, keys in order, and the
    ``essential`` section is (values[-1], values[0], values) of ``essential_spectrum``."""
    f2, zero = FIXTURE_DIR / "f2.json", tmp_path / "zero.json"
    zero.write_text(json.dumps(minimal_config(grid_n=32, potential={"family": "zero"})))
    for command, path, code in (("analyze", f2, 0), ("check-kernel", f2, 0), ("check-kernel", zero, 2)):
        out = tmp_path / f"{command}-{path.stem}"
        assert main([command, "--config", str(path), "--out", str(out)]) == code
        config = ts.load_config(str(path))
        grid = config.build_grid()
        kernel, potential = config.build_kernel(grid), config.build_potential(grid)
        if command == "analyze":
            document = json.loads((out / "report.json").read_text())
            section = document["diagnostics"]["potential"]
            values = ts.essential_spectrum(kernel, potential)
            assert list(document["essential"].items()) == [
                ("alpha0", values[-1]), ("alpha1", values[0]), ("values", list(values))]
        else:
            section = json.loads((out / "kernel_check.json").read_text())["potential"]
        assert list(section) == ["max_sample", "fraction_negative", "norm_l1", "norm_l2", "eligible"]
        assert section == potential.diagnostics
        assert section["eligible"] is (path == f2)


def test_run_bound_two_level(tmp_path):
    config = ts.load_config(str(FIXTURE_DIR / "f2.json"))
    code = run_command("bound", config, str(tmp_path))
    assert code == 0
    document = json.loads((tmp_path / "gap_bound.json").read_text())
    section = document["gap_bound"]
    assert abs(section["kappa"] - 0.0246914) < 1e-6
    assert section["verdict"] == "pass"
    assert abs(section["margin"] - (-0.268)) < 1e-3


def test_bound_passes_on_edge_aligned_tophat(tmp_path):
    raw = minimal_config(grid_n=100, kernel={"family": "tophat", "width": 0.3})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["bound", "--config", str(path), "--out", str(tmp_path)]) == 0
    section = json.loads((tmp_path / "gap_bound.json").read_text())["gap_bound"]
    assert section["verdict"] == "pass"


def test_run_evolve_writes_trace(tmp_path):
    raw = minimal_config(grid_n=64)
    raw["potential"] = {"family": "constant", "depth": 0.3}
    raw["evolution"] = {"t_max": 5.0}
    config = ts.config_from_dict(raw)
    code = run_command("evolve", config, str(tmp_path))
    assert code == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,l2,sup,mass"
    assert len(lines) == 201
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and abs(float(first[1]) - 1.0) < 1e-15
    summary = json.loads((tmp_path / "evolution.json").read_text())
    assert abs(summary["decay_rate_fit"] + 0.3) < 1e-6
    assert summary["extinction"]["extinct"] is False  # t_max too short for 1e-3


def test_run_check_kernel(tmp_path):
    config = ts.load_config(str(FIXTURE_DIR / "f4.json"))
    code = run_command("check-kernel", config, str(tmp_path))
    assert code == 0
    document = json.loads((tmp_path / "kernel_check.json").read_text())
    assert abs(document["kernel_stats"]["row_integral_min"] - 1.0) < 1e-12
    assert document["potential"]["eligible"] is True
    assert abs(document["wound"]["quadrature_mass"] - 1.0) < 1e-12


def test_cli_zero_potential_exits_two_with_report(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(minimal_config(potential={"family": "zero"})))
    out = tmp_path / "out"
    code = main(["analyze", "--config", str(config_path), "--out", str(out)])
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["lambda"] == 0.0
    assert report["diagnostics"]["conforming"] is False


_ERROR_TYPES = [
    cls for cls in vars(ts.errors).values()
    if isinstance(cls, type) and issubclass(cls, Exception) and cls.__module__ == ts.errors.__name__
]


def test_hypothesis_violations_are_the_five_model_errors():
    family = {cls.__name__ for cls in _ERROR_TYPES if issubclass(cls, ts.HypothesisViolation)}
    assert family == {"HypothesisViolation", "DegenerateKernel", "NotPrimitive", "PositivePotential",
                      "IneligiblePotential", "DegenerateSymbol"}


@pytest.mark.parametrize("error", _ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_main_exits_with_the_code_of_the_error_type(error, monkeypatch, tmp_path, capsys):
    def fail(command, config, out_dir=None):
        raise error("raised in place of the run")

    monkeypatch.setattr(ts.cli, "run_command", fail)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(grid_n=16)))
    expected = 1 if issubclass(error, ts.ConfigError) else 2 if issubclass(error, ts.HypothesisViolation) else 3
    assert issubclass(error, (ts.ConfigError, ts.TorspecError))
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path)]) == expected
    diagnostic = _single_diagnostic(capsys.readouterr().err)
    assert diagnostic == {"error": error.__name__, "message": "raised in place of the run", "exit_code": expected}


@pytest.mark.parametrize("command, document", [
    ("analyze", "report.json"),
    ("bound", None),
    ("evolve", "evolution.json"),
    ("check-kernel", "kernel_check.json"),
])
def test_every_command_exits_two_on_a_vanishing_potential(command, document, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(grid_n=16, potential={"family": "zero"})))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    if document is None:
        assert _single_diagnostic(err)["error"] == "IneligiblePotential"
        assert stdout == "" and not (out / "gap_bound.json").exists()
    else:
        assert err == ""
        assert json.loads((out / document).read_text())["config_echo"]["potential"]["family"] == "zero"


def test_cli_config_error_exit_and_diagnostic(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(minimal_config(grid_n=63)))
    code = main(["analyze", "--config", str(path)])
    assert code == 1
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error"] == "ValidationError"
    assert diagnostic["exit_code"] == 1


def test_cli_numerical_failure_exit(tmp_path, capsys):
    raw = minimal_config(grid_n=16)
    raw["analysis"] = {"max_iter": 1}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    code = main(["analyze", "--config", str(path), "--out", str(tmp_path)])
    assert code == 3
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error"] == "NotConverged"


def test_cli_overrides_apply(tmp_path):
    out = tmp_path / "out"
    code = main([
        "analyze", "--config", str(FIXTURE_DIR / "f1.json"),
        "--out", str(out), "--seed", "7", "--grid-n", "64",
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config_echo"]["grid_n"] == 64
    assert report["config_echo"]["analysis"]["seed"] == 7


def test_reports_serialize_floats_to_17_digits(tmp_path):
    config = ts.load_config(str(FIXTURE_DIR / "f2.json"))
    run_command("analyze", config, str(tmp_path))
    text = (tmp_path / "report.json").read_text()
    line = next(l for l in text.splitlines() if '"lambda"' in l)
    token = line.split(":")[1].strip().rstrip(",")
    assert len(token.lstrip("-0.").replace(".", "")) >= 16  # 17 significant digits
    parsed = json.loads(text)
    assert float(token) == parsed["lambda"]
    assert abs(parsed["lambda"] - (-1 + 1 / math.sqrt(2))) < 1e-6


def test_run_analyze_gaussian_step_fixture(tmp_path):
    config = ts.load_config(str(FIXTURE_DIR / "f3.json"))
    code = run_command("analyze", config, str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert -1.0 < report["lambda"] < 0.0
    assert report["gap_bound"]["verdict"] == "pass"
    assert 0.0 < report["gap_bound"]["c2"] < 1.0  # spread kernel contracts less


def test_json_writer_is_deterministic_and_round_trip():
    payload = {"a": 0.3, "b": [1.0 / 3.0, 2, True, None], "c": {"d": "text"}}
    first = jsonio.dumps(payload)
    second = jsonio.dumps(payload)
    assert first == second
    parsed = json.loads(first)
    assert parsed["a"] == 0.3 and parsed["b"][0] == 1.0 / 3.0
    assert json.loads(jsonio.dumps({"nan": float("nan")}))["nan"] is None
    assert jsonio.dumps({}) == "{}\n" and jsonio.dumps({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}\n'
    with pytest.raises(TypeError, match="cannot serialize object"):
        jsonio.dumps({"a": object()})


def test_csv_kernel_config_end_to_end(tmp_path):
    n = 8
    grid = ts.TorusGrid(1, n)
    with open(tmp_path / "kernel.csv", "w") as handle:
        handle.write("x,y,value\n")
        for i in range(n):
            for j in range(n):
                handle.write(f"{i/n},{j/n},1.0\n")
    raw = {
        "dimension": 1,
        "grid_n": n,
        "kernel": {"family": "csv", "path": "kernel.csv"},
        "potential": {"family": "constant", "depth": 0.3},
    }
    config = ts.config_from_dict(raw, base_dir=str(tmp_path))
    kernel = config.build_kernel(grid)
    assert kernel.wound is None
    assert np.all(kernel.rows() == 1.0)
    code = run_command("analyze", config, str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["lambda"] + 0.3) < 1e-8
    assert report["gap_bound"] is None  # tabulated kernel has no convolution form


def test_modulated_kernel_config_analyzes():
    raw = {
        "dimension": 1,
        "grid_n": 64,
        "kernel": {"family": "modulated", "base": {"family": "constant"}, "epsilon": 0.3},
        "potential": {"family": "constant", "depth": 0.3},
    }
    config = ts.config_from_dict(raw)
    grid = config.build_grid()
    kernel = config.build_kernel(grid)
    assert kernel.wound is None
    assert np.allclose(kernel.rows(), kernel.rows().T)  # symmetric modulation of ones
    report = ts.analyze(kernel, config.build_potential(grid))
    assert -report.essential[0] < report.max_eigenvalue < 0


@pytest.mark.parametrize("explicit_analysis", [False, True])
def test_bound_on_zero_potential_gives_the_gap_bound_message(explicit_analysis, tmp_path, capsys):
    raw = minimal_config(grid_n=16, potential={"family": "zero"})
    if explicit_analysis:  # spelled-out analysis options leave the refusal as it is
        raw["analysis"] = {"seed": 0, "power_tol": 1e-11, "bisection_tol": 1e-12}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["bound", "--config", str(path), "--out", str(tmp_path)]) == 2
    error = _single_diagnostic(capsys.readouterr().err)
    assert error["error"] == "IneligiblePotential"
    assert error["message"] == "gap bound needs a potential negative on some node"


@pytest.mark.parametrize("value", [False, True])
def test_analysis_diagnostic_key_is_refused(value, tmp_path, capsys):
    raw = minimal_config(grid_n=16, potential={"family": "zero"}, analysis={"diagnostic": value})
    with pytest.raises(ts.ParseError, match="unknown key 'diagnostic' in analysis"):
        ts.config_from_dict(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path)]) == 1
    error = _single_diagnostic(capsys.readouterr().err)
    assert error["error"] == "ParseError"
    assert "'diagnostic'" in error["message"]
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("dimension", [1, 2])
def test_bound_at_two_nodes_takes_c2_over_the_whole_grid(dimension, tmp_path):
    # the constant kernel's circulant at n = 2 has eigenvalues 1 and 0, so c2 = 1 exactly
    raw = minimal_config(dimension=dimension, grid_n=2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["bound", "--config", str(path), "--out", str(tmp_path)]) == 0
    section = json.loads((tmp_path / "gap_bound.json").read_text())["gap_bound"]
    assert section["c2"] == 1.0
    assert section["kappa"] == min(section["gamma0"] ** 2, 0.5 * section["c1"])
    assert section["verdict"] == "pass"


@pytest.mark.parametrize("dimension, n", [(1, 64), (1, 512), (2, 48)])
def test_exponential_kernel_has_a_gap_bound_at_documented_sizes(dimension, n, tmp_path):
    # node sampling misses the Laplace cusp, so the wound mass is 1 + 5.1e-4 at 1-D n = 64
    raw = minimal_config(dimension=dimension, grid_n=n, kernel={"family": "exponential"})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["bound", "--config", str(path), "--out", str(tmp_path)]) == 0
    bound = json.loads((tmp_path / "gap_bound.json").read_text())["gap_bound"]
    assert bound["verdict"] == "pass"
    assert 0.0 < bound["kappa"] < -bound["lambda"]
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["diagnostics"]["conforming"] is True
    assert report["gap_bound"]["kappa"] == bound["kappa"]
    assert report["gap_bound"]["verdict"] == "pass"


def test_bound_refuses_degenerate_symbol_before_solving(monkeypatch, tmp_path, capsys):
    def solve(*args, **kwargs):
        raise AssertionError("full_spectrum called")

    monkeypatch.setattr(ts.spectral, "full_spectrum", solve)
    path = tmp_path / "config.json"
    # a tophat of width 1/32 at n = 16 holds one node: a point mass, whose every |a_k| is its mass
    kernel = {"family": "tophat", "width": 1.0 / 32.0}
    path.write_text(json.dumps(minimal_config(dimension=2, grid_n=16, kernel=kernel)))
    assert main(["bound", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert _single_diagnostic(capsys.readouterr().err)["error"] == "DegenerateSymbol"


@pytest.mark.parametrize("value, error", [(1e-300, "MuBelowEdge"), (1e300, "FloatingPointFailure")])
def test_bound_at_extreme_kernel_mass_fails_in_the_solve(value, error, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(dimension=2, grid_n=16, kernel={"family": "constant", "value": value})))
    assert main(["bound", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert _single_diagnostic(capsys.readouterr().err)["error"] == error
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert _single_diagnostic(capsys.readouterr().err)["error"] == error


def test_bound_refuses_non_convolution_kernel():
    raw = {
        "dimension": 1,
        "grid_n": 32,
        "kernel": {"family": "modulated", "base": {"family": "constant"}, "epsilon": 0.3},
        "potential": {"family": "constant", "depth": 0.3},
    }
    config = ts.config_from_dict(raw)
    with pytest.raises(ts.ValidationError, match="convolution"):
        run_command("bound", config, None)


# -- non-finite input, order cap, module entry point, cross-command agreement -


@pytest.mark.parametrize("command, kernel, potential, literal", [
    ("analyze", {"family": "gaussian", "sigma": "BAD"}, {"family": "step"}, "Infinity"),
    ("analyze", {"family": "constant"}, {"family": "step", "depth": "BAD"}, "NaN"),
    ("check-kernel", {"family": "constant"}, {"family": "step", "depth": "BAD"}, "NaN"),
    ("check-kernel", {"family": "constant"}, {"family": "constant", "depth": "BAD"}, "1e400"),
], ids=["sigma-infinity", "depth-nan-analyze", "depth-nan-check-kernel", "depth-overflow"])
def test_cli_rejects_non_finite_config_number(command, kernel, potential, literal, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(kernel=kernel, potential=potential)).replace('"BAD"', literal))
    code = main([command, "--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error"] == "ParseError"
    assert "must be finite" in diagnostic["message"]


@pytest.mark.parametrize("table, literal", [("kernel", "inf"), ("potential", "-inf")])
def test_cli_rejects_non_finite_csv_value(table, literal, tmp_path, capsys):
    n = 8
    header, rows = {
        "kernel": ("x,y,value", [f"{i / n},{j / n},1.0" for i in range(n) for j in range(n)]),
        "potential": ("x,value", [f"{i / n},-0.5" for i in range(n)]),
    }[table]
    rows[5] = rows[5].rsplit(",", 1)[0] + f",{literal}"  # line 7 of the file
    (tmp_path / f"{table}.csv").write_text("\n".join([header, *rows]) + "\n")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(grid_n=n, **{table: {"family": "csv", "path": f"{table}.csv"}})))
    code = main(["check-kernel", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error"] == "ValidationError"
    assert f"{table}.csv:7: non-finite" in diagnostic["message"]


# -- undecodable input and unwritable output ----------------------------------


def test_cli_rejects_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(minimal_config()).encode())
    with pytest.raises(ts.ParseError, match="config.json"):
        ts.load_config(str(path))
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path)]) == 1
    diagnostic = _single_diagnostic(capsys.readouterr().err)
    assert diagnostic["error"] == "ParseError"
    assert "config.json: 'utf-8' codec can't decode" in diagnostic["message"]


@pytest.mark.parametrize("table", ["kernel", "potential"])
@pytest.mark.parametrize("field, message", [
    (b"\xff", "not a number: '\\udcff'"),  # the undecodable byte, escaped
    (b"1" * 200_000, "field larger than field limit"),
], ids=["invalid-byte", "long-field"])
def test_cli_rejects_undecodable_csv_record(table, field, message, tmp_path, capsys):
    n = 8
    header, rows = {
        "kernel": (b"x,y,value", [b"%r,%r,1.0" % (i / n, j / n) for i in range(n) for j in range(n)]),
        "potential": (b"x,value", [b"%r,-0.5" % (i / n) for i in range(n)]),
    }[table]
    rows[5] = rows[5].rsplit(b",", 1)[0] + b"," + field  # line 7 of the file
    (tmp_path / f"{table}.csv").write_bytes(b"\n".join([header, *rows]) + b"\n")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(grid_n=n, **{table: {"family": "csv", "path": f"{table}.csv"}})))
    assert main(["check-kernel", "--config", str(path), "--out", str(tmp_path)]) == 1
    diagnostic = _single_diagnostic(capsys.readouterr().err)
    assert diagnostic["error"] == "ParseError"
    assert f"{table}.csv:7: {message}" in diagnostic["message"]


@pytest.mark.parametrize("command, blocked", [
    ("analyze", None),  # --out names an existing file
    ("analyze", "report.json"),
    ("evolve", "trace.csv"),
])
def test_cli_unwritable_output_is_validation_error(command, blocked, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(grid_n=16, potential={"family": "constant", "depth": 0.3})))
    out = tmp_path / "out"
    if blocked is None:
        out.write_text("")
        target = out
    else:
        target = out / blocked
        target.mkdir(parents=True)
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    diagnostic = _single_diagnostic(capsys.readouterr().err)
    assert diagnostic["error"] == "ValidationError"
    assert diagnostic["message"].startswith(f"{target}: ")


@pytest.mark.parametrize("command, blocked", [
    ("analyze", "report.json"),
    ("bound", "gap_bound.json"),
    ("evolve", "evolution.json"),
    ("evolve", "trace.csv"),
    ("check-kernel", "kernel_check.json"),
])
def test_output_path_that_is_a_directory_is_refused_before_the_run(command, blocked, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(grid_n=8)))
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = _single_diagnostic(captured.err)
    assert diagnostic["error"] == "ValidationError"
    assert diagnostic["message"] == f"{out / blocked}: Is a directory"
    assert [entry.name for entry in out.iterdir()] == [blocked]  # no trace.csv left behind


def test_analyze_is_not_run_when_its_report_cannot_be_written(monkeypatch, tmp_path, capsys):
    def solve(*args, **kwargs):
        raise AssertionError("analyze called")

    monkeypatch.setattr(ts.cli, "analyze", solve)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(grid_n=8)))
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert _single_diagnostic(capsys.readouterr().err)["error"] == "ValidationError"


def test_spectrum_order_cap_below_matrix_order_is_validation_error(tmp_path, capsys):
    raw = minimal_config(grid_n=64)
    raw["analysis"] = {"spectrum_order_cap": 10}
    with pytest.raises(ts.ValidationError, match="spectrum_order_cap"):
        ts.config_from_dict(raw)
    raw["grid_n"] = 8  # valid as written, too small a cap once --grid-n raises the order
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    code = main(["analyze", "--config", str(path), "--out", str(tmp_path), "--grid-n", "64"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"


@pytest.mark.parametrize("grid_n", [2**40, 2**62, 2**63, 10**20])
def test_grid_too_large_to_address_is_validation_error(grid_n, tmp_path, capsys):
    # refused from the config alone, before anything is allocated
    raw = minimal_config(grid_n=8, kernel={"family": "gaussian"}, analysis={"spectrum_order_cap": 2**130})
    with pytest.raises(ts.ValidationError, match="cannot be addressed"):
        ts.config_from_dict({**raw, "grid_n": grid_n})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path), "--grid-n", str(grid_n)]) == 1
    diagnostic = _single_diagnostic(capsys.readouterr().err)
    assert diagnostic["error"] == "ValidationError"
    assert f"{grid_n}^1 is too large" in diagnostic["message"]


@pytest.mark.parametrize("dimension, largest", [(1, 2**30 - 2), (2, 2**15 - 2), (3, 2**10 - 2)])
def test_largest_addressable_grid_is_accepted(dimension, largest):
    # the dense float64 matrix of order N = n^d takes 8 N^2 bytes
    assert 8 * largest ** (2 * dimension) <= sys.maxsize < 8 * (largest + 2) ** (2 * dimension)
    cap = {"spectrum_order_cap": 2**62}
    raw = minimal_config(dimension=dimension, grid_n=largest, analysis=cap)
    assert ts.config_from_dict(raw).grid_n == largest
    with pytest.raises(ts.ValidationError, match="cannot be addressed"):
        ts.config_from_dict({**raw, "grid_n": largest + 2})


@pytest.mark.parametrize("command", ["analyze", "bound", "evolve", "check-kernel"])
def test_model_too_large_to_allocate_is_validation_error(command, monkeypatch, tmp_path, capsys):
    def build_kernel(self, grid):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(RunConfig, "build_kernel", build_kernel)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(grid_n=16)))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
    diagnostic = _single_diagnostic(capsys.readouterr().err)
    assert diagnostic["error"] == "ValidationError"
    assert diagnostic["message"] == "n^d = 16^1 is too large to allocate"


def test_python_dash_m_torspec(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "torspec", "check-kernel",
         "--config", str(FIXTURE_DIR / "f1.json"), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.strip() == str(tmp_path / "kernel_check.json")


def test_readme_python_api_block_runs():
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme.split("## Python API", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    line = next(line for line in block.splitlines() if line.startswith("-report.essential"))
    stated = ast.literal_eval(line.split("#", 1)[1].strip())
    assert (-namespace["report"].essential).tolist() == stated


@pytest.mark.parametrize("potential", [{"family": "step"}, {"family": "cosine"}])
def test_every_command_runs_on_the_three_torus(potential, tmp_path):
    # a 3-D n = 8 Gaussian: 64 Bloch blocks of order 8 under the step, the reflection s = 0 under the cosine
    raw = minimal_config(dimension=3, grid_n=8, kernel={"family": "gaussian", "sigma": 0.2}, potential=potential)
    config = ts.config_from_dict(raw)
    for command in ("analyze", "bound", "evolve", "check-kernel"):
        assert run_command(command, config, str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["diagnostics"]["perron_order"] == (4 if potential["family"] == "step" else 8**3 // 2 + 4)
    assert json.loads((tmp_path / "gap_bound.json").read_text())["gap_bound"]["verdict"] == "pass"
    assert json.loads((tmp_path / "evolution.json").read_text())["extinction"]["extinct"] is True


def test_commands_agree_on_shared_sections(tmp_path):
    config = ts.load_config(str(FIXTURE_DIR / "f3.json"))
    for command in ("check-kernel", "analyze", "bound"):
        assert run_command(command, config, str(tmp_path)) == 0
    check = json.loads((tmp_path / "kernel_check.json").read_text())
    report = json.loads((tmp_path / "report.json").read_text())
    bound = json.loads((tmp_path / "gap_bound.json").read_text())
    assert check["potential"] == report["diagnostics"]["potential"]
    for key in ("kappa", "margin"):
        assert report["gap_bound"][key] == bound["gap_bound"][key]


KERNEL_STATS_KEYS = ["row_integral_min", "row_integral_max", "col_integral_max",
                     "primitive_power", "iterated_kernel_min"]
POTENTIAL_KEYS = ["max_sample", "fraction_negative", "norm_l1", "norm_l2", "eligible"]
GAP_BOUND_KEYS = ["c1", "norm_v2", "gamma0", "c2", "kappa", "verdict", "margin"]


@pytest.mark.parametrize("fixture", ["f1", "f2", "f3", "f4"])
def test_report_sections_keep_their_key_order(fixture, tmp_path):
    """The keys of each computed section, in the order the reports write them."""
    config = ts.load_config(str(FIXTURE_DIR / f"{fixture}.json"))
    for command in ("analyze", "bound", "evolve", "check-kernel"):
        assert run_command(command, config, str(tmp_path)) == 0
    report, bound, evolution, check = (
        json.loads((tmp_path / name).read_text())
        for name in ("report.json", "gap_bound.json", "evolution.json", "kernel_check.json")
    )
    for document in (report["diagnostics"], check):
        assert list(document["kernel_stats"]) == KERNEL_STATS_KEYS
        assert list(document["potential"]) == POTENTIAL_KEYS
    assert list(report["gap_bound"]) == GAP_BOUND_KEYS
    assert list(bound["gap_bound"]) == GAP_BOUND_KEYS + ["lambda", "slack"]
    assert list(evolution["extinction"]) == ["extinct", "ratio", "monotone_from", "threshold"]


# -- negative seed, oversized integer literal, root-find diagnostics ---------


def test_cli_rejects_negative_seed(tmp_path, capsys):
    raw = minimal_config(grid_n=16)
    raw["analysis"] = {"seed": -1}
    with pytest.raises(ts.ValidationError, match="analysis.seed"):
        ts.config_from_dict(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(grid_n=16)))
    code = main(["analyze", "--config", str(path), "--out", str(tmp_path), "--seed", "-1"])
    assert code == 1
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error"] == "ValidationError"
    assert "analysis.seed must be non-negative" in diagnostic["message"]


def test_cli_rejects_integer_literal_beyond_digit_limit(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(grid_n="BAD")).replace('"BAD"', "2" * 5000))
    with pytest.raises(ts.ParseError, match="config.json"):
        ts.load_config(str(path))
    code = main(["check-kernel", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error"] == "ParseError"


def test_analyze_reports_root_find_work(tmp_path):
    config = ts.load_config(str(FIXTURE_DIR / "f3.json"))
    assert run_command("analyze", config, str(tmp_path)) == 0
    diagnostics = json.loads((tmp_path / "report.json").read_text())["diagnostics"]
    assert 0 < diagnostics["bisection_iterations"] <= 20
    assert diagnostics["ratio_perron_iterations"] >= diagnostics["bisection_iterations"]
    lo, hi = diagnostics["bisection_bracket"]
    assert 0.0 < hi - lo <= config.analysis.bisection_tol


# -- degenerate widths, runaway RK4 runs, deep nesting, config fuzzing -------


@pytest.mark.parametrize("command", ["analyze", "bound", "evolve", "check-kernel"])
@pytest.mark.parametrize("kernel", [
    {"family": "gaussian", "sigma": 1e-300},
    {"family": "modulated", "base": {"family": "gaussian", "sigma": 1e-300}},
], ids=["gaussian", "modulated-base"])
def test_cli_kernel_too_narrow_is_hypothesis_error(command, kernel, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(grid_n=16, kernel=kernel)))
    code = main([command, "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "DegenerateKernel"
    assert diagnostic["exit_code"] == 2


@pytest.mark.parametrize("kernel, evolution", [
    ({"family": "constant"}, {"dt": 1e-300}),
    ({"family": "constant"}, {"t_max": 1e308}),
    ({"family": "exponential", "scale": 1e-300}, {}),
    ({"family": "tophat", "width": 1e-300}, {}),
], ids=["dt", "t_max", "exponential", "tophat"])
def test_cli_evolve_refuses_runaway_substep_count(kernel, evolution, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(grid_n=16, kernel=kernel, evolution=evolution)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "torspec", "evolve", "--config", str(path), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 3
    assert json.loads(proc.stderr.splitlines()[-1])["error"] == "NotConverged"


def test_deeply_nested_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ts.ParseError, match="deep.json"):
        ts.load_config(str(path))
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"
    spec = {"family": "constant"}
    for _ in range(5000):
        spec = {"family": "modulated", "base": spec}
    with pytest.raises(ts.ParseError, match="kernel or potential nests too deeply"):
        ts.config_from_dict(minimal_config(kernel=spec))


@pytest.mark.parametrize("overrides, error, message", [
    ({"dimension": 4}, ts.ValidationError, "dimension must be 1, 2 or 3"),
    ({"kernel": {"family": "modulated", "epsilon": 0.3}}, ts.ParseError,
     "kernel.base is required for the modulated family"),
    ({"kernel": {"family": "gaussian", "sigma": 10**400}}, ts.ParseError, "kernel.sigma must be finite"),
], ids=["dimension-4", "modulated-without-base", "integer-beyond-float-range"])
def test_config_names_the_key_it_refuses(overrides, error, message):
    with pytest.raises(error, match=message):
        ts.config_from_dict(minimal_config(**overrides))


def test_run_command_refuses_an_unknown_command(tmp_path):
    with pytest.raises(ts.ValidationError, match="unknown command 'nope'"):
        run_command("nope", ts.config_from_dict(minimal_config(grid_n=16)), str(tmp_path))


def test_minimal_config_yields_default_settings():
    config = ts.config_from_dict(minimal_config())
    assert config.analysis == ts.AnalysisOptions()
    assert config.evolution == {"t_max": None, "dt": None, "method": "rk4"}
    assert config.output == {"directory": "."}
    assert config.wind_tail_tol == 1e-12
    assert config.kernel == {"family": "constant", "value": 1.0}
    assert config.potential == {"family": "step", "depth": 1.0, "width": 0.5}


def test_errors_inside_a_modulated_base_name_its_path(tmp_path, capsys):
    def modulated(base):
        return minimal_config(kernel={"family": "modulated", "base": base})

    with pytest.raises(ts.ValidationError) as err:
        ts.config_from_dict(modulated({"family": "gaussian", "sigma": -1}))
    assert str(err.value) == "kernel.base.sigma must be positive"
    with pytest.raises(ts.ParseError) as err:
        ts.config_from_dict(modulated({"family": "gaussian", "zz": 1}))
    assert str(err.value) == "unknown key 'zz' in kernel.base (gaussian)"
    # a base that is not a convolution family is still refused, exit 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(modulated({"family": "modulated", "base": {"family": "constant"}})))
    assert main(["check-kernel", "--config", str(path), "--out", str(tmp_path)]) == 1
    diagnostic = json.loads(capsys.readouterr().err)
    assert diagnostic["error"] == "ValidationError"
    assert diagnostic["message"] == "kernel.base must be a convolution-form family"


def _fuzz_bases():
    """One config per kernel and per potential family, every key written out."""
    kernels = [
        {"family": "constant", "value": 1.0},
        {"family": "tophat", "width": 0.25},
        {"family": "gaussian", "sigma": 0.2},
        {"family": "exponential", "scale": 0.2},
        {"family": "sine", "amplitude": 0.5},
        {"family": "modulated", "base": {"family": "gaussian", "sigma": 0.2}, "epsilon": 0.2},
        {"family": "csv", "path": "table.csv"},
    ]
    potentials = [
        {"family": "constant", "depth": 1.0},
        {"family": "step", "depth": 1.0, "width": 0.5},
        {"family": "cosine", "depth": 1.0},
        {"family": "zero"},
        {"family": "csv", "path": "table.csv"},
    ]
    configs = [minimal_config(grid_n=8, kernel=k) for k in kernels]
    configs += [minimal_config(grid_n=8, potential=p) for p in potentials]
    for config in configs:
        config["analysis"] = {**asdict(ts.AnalysisOptions()), "wind_tail_tol": 1e-12}
        config["evolution"] = {"t_max": 1.0, "dt": 0.01, "method": "rk4"}
        config["output"] = {"directory": "."}
    return configs


def _key_paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _key_paths(child, prefix + (key,))


_FUZZ_CASES = [(config, path) for config in _fuzz_bases() for path in _key_paths(config)]
_FUZZ_KEYS = sorted({path[-1] for _, path in _FUZZ_CASES if path})
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=400)
@given(st.sampled_from(_FUZZ_CASES), _JSON_VALUES, st.sampled_from(_FUZZ_KEYS), st.booleans())
def test_config_fuzz_gives_run_config_or_config_error(case, value, extra_key, add_key):
    """Random JSON at any key, optionally also under a second, known key name."""
    config, path = case
    raw = json.loads(json.dumps(config))
    if not path:
        raw = value
    else:
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        if add_key and isinstance(parent, dict):
            parent.setdefault(extra_key, value)
    try:
        result = ts.config_from_dict(raw)
    except ts.ConfigError:
        return
    assert isinstance(result, ts.RunConfig)


# -- huge widths, floating-point traps, exit-3 failures ----------------------


def _single_diagnostic(err: str) -> dict:
    """The one JSON line a failed command leaves on stderr."""
    assert err.count("\n") == 1
    return json.loads(err)


@pytest.mark.parametrize("command", ["analyze", "bound", "evolve", "check-kernel"])
@pytest.mark.parametrize("kernel", [
    {"family": "gaussian", "sigma": 1e200},
    {"family": "modulated", "base": {"family": "gaussian", "sigma": 1e200}},
    {"family": "exponential", "scale": 1e308},
], ids=["gaussian", "modulated-base", "exponential"])
def test_cli_kernel_too_wide_is_tail_not_resolved(command, kernel, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(grid_n=16, kernel=kernel)))
    code = main([command, "--config", str(path), "--out", str(tmp_path)])
    assert code == 3
    diagnostic = _single_diagnostic(capsys.readouterr().err)
    assert diagnostic["error"] == "TailNotResolved"
    assert diagnostic["exit_code"] == 3


@pytest.mark.parametrize("command, error", [
    ("analyze", "FloatingPointFailure"),
    ("check-kernel", "FloatingPointFailure"),
    ("evolve", "NotConverged"),  # the RK4 substep cap, reached without an overflow
])
def test_cli_float_overflow_is_one_json_line(command, error, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(grid_n=16, kernel={"family": "exponential", "scale": 1e-300})))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "torspec", command, "--config", str(path), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3
    diagnostic = _single_diagnostic(proc.stderr)
    assert diagnostic["error"] == error
    assert diagnostic["exit_code"] == 3


@pytest.mark.parametrize("evolution, error", [
    ({"dt": 3.0, "t_max": 2000.0}, "Unstable"),  # RK4 beyond its stability interval overflows
    ({"dt": 10.0, "t_max": 2000.0}, "Unstable"),
    ({"dt": 5e-324}, "NotConverged"),  # the substep count itself leaves the float range
], ids=["unstable-square", "unstable-multiply", "count-overflow"])
def test_cli_evolve_overflow_keeps_its_typed_error(evolution, error, tmp_path, capsys):
    raw = minimal_config(grid_n=16, evolution=evolution)  # a constant potential would reduce to one mode
    diagnostic = _exit_three("evolve", raw, tmp_path, capsys)
    assert diagnostic["error"] == error


@pytest.mark.parametrize("depth", [1e-12, 1e-13])
def test_cli_evolve_default_horizon_reaches_extinction_on_a_shallow_step(depth, tmp_path, capsys):
    # the default t_max is 40/|lambda| for every eligible potential, however shallow
    raw = minimal_config(grid_n=64, potential={"family": "step", "depth": depth},
                         evolution={"method": "eigenexpansion"})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "evolution.json").read_text())
    assert summary["t_max"] == 40.0 / -summary["lambda_estimate"]
    assert summary["extinction"]["extinct"] is True
    raw["evolution"] = {"method": "rk4"}  # that horizon is beyond the RK4 substep cap
    assert "substeps" in _exit_three("evolve", raw, tmp_path, capsys)["message"]


@pytest.mark.parametrize("method", ["rk4", "eigenexpansion"])
@pytest.mark.parametrize("depth", [1e-300, 5e-324])
def test_cli_evolve_has_no_default_horizon_without_a_negative_estimate(depth, method, tmp_path, capsys):
    raw = minimal_config(grid_n=64, potential={"family": "step", "depth": depth},
                         evolution={"method": method})
    diagnostic = _exit_three("evolve", raw, tmp_path, capsys)
    assert diagnostic["error"] == "NotConverged"
    assert "no horizon" in diagnostic["message"]


def test_cli_evolve_on_a_vanishing_potential_keeps_the_horizon_forty(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(grid_n=16, potential={"family": "zero"})))
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path)]) == 2
    summary = json.loads((tmp_path / "evolution.json").read_text())
    assert summary["t_max"] == 40.0
    assert summary["extinction"]["extinct"] is False


def test_cli_evolve_on_a_zero_generator_is_degenerate_kernel(tmp_path, capsys):
    # all mass on the diagonal and no potential: M = 0 has no step to default to
    n = 4
    rows = [f"{i / n},{j / n},{1.0 if i == j else 0.0}" for i in range(n) for j in range(n)]
    (tmp_path / "kernel.csv").write_text("\n".join(["x,y,value", *rows]) + "\n")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(
        grid_n=n, kernel={"family": "csv", "path": "kernel.csv"}, potential={"family": "zero"},
    )))
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    diagnostic = _single_diagnostic(err)
    assert diagnostic["error"] == "DegenerateKernel"
    assert diagnostic["exit_code"] == 2
    assert out == "" and not (tmp_path / "trace.csv").exists()


def test_cli_check_kernel_takes_a_potential_deeper_than_the_square_root_of_the_float_range(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config(grid_n=16, potential={"family": "constant", "depth": 1e200})))
    assert main(["check-kernel", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "kernel_check.json").read_text())
    assert report["potential"]["norm_l2"] == 1e200


def test_cli_never_imports_numpy_random(tmp_path):
    script = (
        "import sys\n"
        "from torspec.cli import main\n"
        "for command in ('analyze', 'evolve'):\n"
        "    assert main([command, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(FIXTURE_DIR / "f3.json"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_commands_import_no_numpy_module_but_numpy_fft(tmp_path):
    # numpy.fft is the one subpackage a command may load lazily; numpy 2.4's
    # np.unique, for one, imports numpy.ma inside the call
    plane = tmp_path / "plane.json"  # the step varies along axis 0 only: the Bloch/rfftn path
    plane.write_text(json.dumps(minimal_config(dimension=2, grid_n=16, kernel={"family": "gaussian", "sigma": 0.2})))
    script = (
        "import sys\n"
        "from torspec.cli import main\n"
        "before = set(sys.modules)\n"
        "for config in sys.argv[2:]:\n"
        "    for command in ('analyze', 'bound', 'evolve', 'check-kernel'):\n"
        "        assert main([command, '--config', config, '--out', sys.argv[1]]) == 0, (command, config)\n"
        "new = sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'numpy')\n"
        "stray = [m for m in new if m != 'numpy.fft' and not m.startswith('numpy.fft.')]\n"
        "assert not stray, f'the commands imported {stray}'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), str(FIXTURE_DIR / "f3.json"), str(plane)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_run_command_maps_floating_point_traps(tmp_path):
    config = ts.config_from_dict(minimal_config(grid_n=16, kernel={"family": "exponential", "scale": 1e-300}))
    with pytest.raises(ts.FloatingPointFailure, match="overflow encountered in matmul"):
        run_command("check-kernel", config, str(tmp_path))


def _exit_three(command, raw, tmp_path, capsys) -> dict:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 3
    diagnostic = _single_diagnostic(capsys.readouterr().err)
    assert diagnostic["exit_code"] == 3
    return diagnostic


def test_cli_method_disagreement_exits_three(tmp_path, capsys):
    raw = json.loads((FIXTURE_DIR / "f3.json").read_text())
    raw["analysis"] = {"cross_tol": 1e-300}
    diagnostic = _exit_three("analyze", raw, tmp_path, capsys)
    assert diagnostic["error"] == "MethodDisagreement"
    assert "beyond 1e-300" in diagnostic["message"]


def test_cli_shallow_step_below_the_rounding_of_the_radius_exits_three(tmp_path, capsys):
    # the README's shallow limit: rho at zero shift rounds to 1 + 2^-52 at depth 1e-16 and below
    raw = minimal_config(grid_n=64, potential={"family": "step", "depth": 1e-17})
    diagnostic = _exit_three("analyze", raw, tmp_path, capsys)
    assert diagnostic["error"] == "BracketFailure"
    assert diagnostic["message"] == "radius at zero shift is 1.0000000000000002, expected below one"


@pytest.mark.parametrize("command", ["analyze", "bound"])
def test_cli_bracket_failure_exits_three(command, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(ts.spectral, "BRACKET_HALVINGS", -1)  # the edge scan tries no shift
    diagnostic = _exit_three(command, minimal_config(grid_n=16), tmp_path, capsys)
    assert diagnostic["error"] == "BracketFailure"


@pytest.mark.parametrize("command, solver, evolution", [
    ("analyze", "eigvals", {}),
    ("evolve", "eig", {"method": "eigenexpansion"}),
    ("analyze", "eigvalsh", {}),
    ("evolve", "eigh", {"method": "eigenexpansion"}),
])
def test_cli_dense_eigensolver_failure_exits_three(command, solver, evolution, monkeypatch, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, solver, fail)
    # the symmetric solvers see the constant kernel's exactly symmetric
    # generator, the general ones the sine kernel's nonsymmetric one
    kernel = {"family": "constant"} if solver.endswith("h") else {"family": "sine"}
    raw = minimal_config(grid_n=16, kernel=kernel, evolution=evolution)
    diagnostic = _exit_three(command, raw, tmp_path, capsys)
    assert diagnostic["error"] == "QRNotConverged"
    assert diagnostic["message"] == "Eigenvalues did not converge"


@pytest.mark.parametrize("section, families", [
    ("kernel", KERNEL_FAMILIES), ("potential", POTENTIAL_FAMILIES),
])
def test_family_tables_give_each_number_its_default_and_range(section, families):
    for family, (params, *_constructors) in families.items():
        for key, (_read, default, admissible, requirement) in params.items():
            if admissible is None or key == "base":  # a csv path or the modulated base
                continue
            assert admissible(default)
            spec = {"family": family, key: -5.0}  # outside every parameter's range
            if family == "modulated":
                spec["base"] = {"family": "constant"}
            assert ts.config_from_dict(minimal_config(**{section: {**spec, key: default}}))
            with pytest.raises(ts.ValidationError) as err:
                ts.config_from_dict(minimal_config(**{section: spec}))
            assert str(err.value) == f"{section}.{key} {requirement}"


def test_analysis_table_reads_every_option():
    # the table is not read off the dataclass, so a new option needs its entry
    fields_then_tail_tol = [f.name for f in fields(ts.AnalysisOptions)] + ["wind_tail_tol"]
    assert list(SETTINGS["analysis"]) == fields_then_tail_tol


def test_readme_lists_every_family_key_with_its_default():
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme.split("\n## Configuration\n")[1].split("\n## ")[0]
    for label, families in (("kernel", KERNEL_FAMILIES), ("potential", POTENTIAL_FAMILIES)):
        bullet = section.split(f"\n- `{label}.family`:")[1].split("\n- ")[0]
        for family, (params, *_constructors) in families.items():
            assert f"`{family}`" in bullet, family
            for key, (_read, default, _admissible, _requirement) in params.items():
                stated = re.findall(rf"`{key}`(?:: ([^;,)\s]+))?", bullet)
                assert stated, f"{label}.{key}"
                if default is not None:  # every number the bullet gives is the default
                    numbers = [float(text) for text in stated if text]
                    assert numbers and all(number == default for number in numbers), (family, key, numbers)
