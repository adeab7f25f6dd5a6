"""Config parsing and CLI surface.

The config layer turns raw INI sections into a validated ExperimentConfig
with every default applied; the CLI wires those configs into the library
and writes CSV/manifest outputs. Tests here exercise both through their
public entry points: make_config/parse_config on one side, main(argv) on
the other, with outputs captured in tmp directories via the output-root
environment variable.
"""

import configparser
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import hetflux.cli as cli
from hetflux.cli import ENV_OUTPUT_ROOT, main
from hetflux.config import make_config, parse_config
from hetflux.diagnostics import EntropyReport, consistency_rate
from hetflux.errors import ConfigError, NumericalError
from hetflux.flux_model import validate_assumptions
from hetflux.interface import InterfaceContext
from hetflux.riemann import sample, solve_interface
from hetflux.solver import Mesh, PiecewiseConstantDatum, Scheme, SmoothDatum

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _flux(**extra):
    raw = {"family": "quadratic"}
    raw.update({k: str(v) for k, v in extra.items()})
    return raw


# ---------------------------------------------------------------------------
# section schema and defaults


def test_minimal_config_applies_defaults():
    cfg = make_config({"flux": {"family": "quadratic"}})
    assert cfg.flux["family"] == "quadratic"
    assert cfg.flux["coefficient"] == 0.5
    assert cfg.mesh is None and cfg.initial is None and cfg.time is None
    assert cfg.output == {"directory": "out", "precision": 17}
    assert cfg.diagnostics == {
        "entropy": True,
        "k_levels": 33,
        "consistency": True,
        "time_variation": True,
    }


def test_golden_config_parses():
    cfg = parse_config(os.path.join(CONFIG_DIR, "golden_shock_interface.ini"))
    assert cfg.flux["family"] == "two_state"
    assert cfg.flux["left_coefficient"] == 0.5
    assert cfg.flux["right_coefficient"] == 1.0
    assert cfg.flux["radius"] == 0.5
    assert cfg.mesh["dx"] == 0.01
    assert cfg.initial["kind"] == "step"
    assert cfg.initial["left"] == -1.0 and cfg.initial["right"] == -1.0
    assert cfg.time["t_end"] == 0.5
    assert cfg.time["snapshots"] == (0.25,)
    assert cfg.build_model().name == "two_state"


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[solver\]"):
        make_config({"flux": _flux(), "solver": {"order": "2"}})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key flux.bogus"):
        make_config({"flux": _flux(bogus=1)})
    with pytest.raises(ConfigError, match="unknown key mesh.cells"):
        make_config({"flux": _flux(), "mesh": {"dx": "0.1", "cells": "10"}})


def test_missing_required_entries():
    with pytest.raises(ConfigError, match=r"missing \[flux\] section"):
        make_config({})
    with pytest.raises(ConfigError, match="flux.family is required"):
        make_config({"flux": {"coefficient": "1"}})
    with pytest.raises(ConfigError, match="mesh.dx is required"):
        make_config({"flux": _flux(), "mesh": {"x_min": "-1", "x_max": "1"}})


def test_unknown_family_and_kind():
    with pytest.raises(ConfigError, match="unknown family 'cubic'"):
        make_config({"flux": {"family": "cubic"}})
    with pytest.raises(ConfigError, match="unknown kind 'ramp'"):
        make_config({"flux": _flux(), "initial": {"kind": "ramp"}})


def test_family_parameter_validation_propagates():
    # model constructors run during validation, so bad physics fails parse
    with pytest.raises(ConfigError, match="radius > 0"):
        make_config({"flux": {"family": "two_state", "radius": "-1"}})


def test_range_errors():
    base = {"flux": _flux()}
    cases = [
        ({"mesh": {"dx": "0"}}, "mesh.dx must be positive"),
        ({"mesh": {"dx": "0.1", "x_min": "-1"}}, "given together"),
        ({"mesh": {"dx": "0.1", "x_min": "1", "x_max": "-1"}}, "below mesh.x_max"),
        ({"time": {"t_end": "-1"}}, "nonnegative"),
        ({"time": {"t_end": "1", "safety": "0"}}, r"\(0, 1\]"),
        ({"time": {"t_end": "0.5", "snapshots": "0.9"}}, "outside"),
        ({"time": {"t_end": "1", "max_dt": "0"}}, "max_dt must be positive"),
        ({"output": {"precision": "1"}}, r"\[2, 17\]"),
        ({"output": {"precision": "18"}}, r"\[2, 17\]"),
        ({"diagnostics": {"k_levels": "1"}}, "at least 2"),
    ]
    for extra, message in cases:
        with pytest.raises(ConfigError, match=message):
            make_config({**base, **extra})


def test_value_parse_errors():
    with pytest.raises(ConfigError, match="expected a boolean"):
        make_config({"flux": _flux(), "diagnostics": {"entropy": "maybe"}})
    with pytest.raises(ConfigError, match="expected an integer"):
        make_config({"flux": _flux(), "output": {"precision": "2.5"}})
    with pytest.raises(ConfigError, match="expected a number"):
        make_config({"flux": _flux(), "mesh": {"dx": "tiny"}})
    with pytest.raises(ConfigError, match="expected numbers"):
        make_config({"flux": _flux(), "time": {"t_end": "1", "snapshots": "a, b"}})


def test_snapshot_list_accepts_commas_and_spaces():
    cfg = make_config(
        {"flux": _flux(), "time": {"t_end": "1", "snapshots": "0.1, 0.2 0.3"}}
    )
    assert cfg.time["snapshots"] == (0.1, 0.2, 0.3)


def test_bool_spellings():
    for text, expected in (("yes", True), ("off", False), ("1", True), ("FALSE", False)):
        cfg = make_config({"flux": _flux(), "diagnostics": {"entropy": text}})
        assert cfg.diagnostics["entropy"] is expected


# ---------------------------------------------------------------------------
# echo round trip and file reading


def _full_raw():
    return {
        "flux": {"family": "two_state", "left_coefficient": "0.5",
                 "right_coefficient": "1.0", "radius": "0.5"},
        "mesh": {"dx": "0.05", "x_min": "-2.0", "x_max": "2.0"},
        "initial": {"kind": "step", "left": "-1.0", "right": "1.0"},
        "time": {"t_end": "0.25", "snapshots": "0.1, 0.2", "safety": "0.8"},
        "output": {"directory": "out", "precision": 12},
        "diagnostics": {"entropy": "yes", "k_levels": "9"},
    }


def test_echo_round_trip():
    cfg = make_config({s: {k: str(v) for k, v in d.items()}
                       for s, d in _full_raw().items()})
    echo = cfg.echo()
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(echo)
    raw = {s: dict(parser.items(s)) for s in parser.sections()}
    cfg2 = make_config(raw, source="<echo>")
    assert cfg2 == cfg  # source is excluded from equality
    assert cfg2.echo() == echo


def test_read_raw_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config(str(tmp_path / "absent.ini"))
    bad = tmp_path / "bad.ini"
    bad.write_text("dx = 0.1\n", encoding="utf-8")  # key before any section
    with pytest.raises(ConfigError, match="malformed config file"):
        parse_config(str(bad))


def test_inline_comments_are_stripped(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[flux]\nfamily = quadratic  # homogeneous control\n"
        "[mesh]\ndx = 0.1 ; ten cells per unit\n",
        encoding="utf-8",
    )
    cfg = parse_config(str(path))
    assert cfg.flux["family"] == "quadratic"
    assert cfg.mesh["dx"] == 0.1


# ---------------------------------------------------------------------------
# initial datum construction


def test_datum_constant_and_step():
    cfg = make_config({"flux": _flux(), "initial": {"kind": "constant", "value": "0.7"}})
    d = cfg.build_datum()
    assert isinstance(d, PiecewiseConstantDatum)
    assert d.values == (0.7, 0.7)
    assert d.support == 0.0

    cfg = make_config({"flux": _flux(), "initial":
                       {"kind": "step", "left": "1", "right": "-1", "location": "-0.5"}})
    d = cfg.build_datum()
    assert d.breakpoints == (-0.5,) and d.values == (1.0, -1.0)
    assert d.support == 0.5


def test_datum_bump():
    cfg = make_config({"flux": _flux(), "initial":
                       {"kind": "bump", "base": "0.2", "amplitude": "0.5",
                        "center": "1.0", "width": "0.5"}})
    d = cfg.build_datum()
    assert isinstance(d, SmoothDatum)
    assert float(d(1.0)) == pytest.approx(0.7)
    assert float(d(2.0)) == pytest.approx(0.2)
    assert d.support == 1.5


def test_datum_from_file(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("x,u\n-1.0,0.5\n0.0,1.5\n2.0,0.25\n", encoding="utf-8")
    cfg = make_config({"flux": _flux(), "initial": {"kind": "file", "path": str(path)}})
    d = cfg.build_datum()
    assert isinstance(d, SmoothDatum)
    for x, u in ((-1.0, 0.5), (0.0, 1.5), (2.0, 0.25)):
        assert float(d(x)) == pytest.approx(u)
    assert float(d(-0.5)) == pytest.approx(1.0)  # linear between samples
    assert float(d(5.0)) == pytest.approx(0.25)  # flat extrapolation
    assert d.support == 2.0


def test_datum_file_errors(tmp_path):
    missing = tmp_path / "absent.csv"
    cfg = make_config({"flux": _flux(), "initial": {"kind": "file", "path": str(missing)}})
    with pytest.raises(ConfigError, match="cannot read"):
        cfg.build_datum()
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("x\n1.0\n2.0\n", encoding="utf-8")
    cfg = make_config({"flux": _flux(), "initial": {"kind": "file", "path": str(narrow)}})
    with pytest.raises(ConfigError, match="two columns"):
        cfg.build_datum()


# ---------------------------------------------------------------------------
# CLI: argument handling and exit codes


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    assert "COMMAND" in capsys.readouterr().err


def test_cli_rejects_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--order=2"])
    assert exc.value.code == 1


def test_cli_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_cli_config_errors_exit_2(capsys):
    assert main(["run", "--flux-family=quadratic", "--mesh-dx=0"]) == 2
    assert "configuration error" in capsys.readouterr().err
    # run needs mesh/initial/time even when the flux parses
    assert main(["run", "--flux-family=quadratic"]) == 2
    assert "missing" in capsys.readouterr().err
    assert main(["steady", "--flux-family=quadratic", "--anchor=1.0"]) == 2


def test_cli_numerical_error_maps_to_3(monkeypatch, capsys):
    def boom(args, cfg):
        raise NumericalError("synthetic blow-up")

    monkeypatch.setitem(cli.HANDLERS, "run", boom)
    assert main(["run", "--flux-family=quadratic"]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command, target", [("run", "run"), ("diagnose", "run"),
                                             ("riemann", "sample")])
def test_cli_memory_error_is_one_line_and_exit_2(command, target, tmp_path, monkeypatch, capsys):
    # A backstop: every size the config sets is refused before allocating,
    # so a MemoryError is forced here by the callable that would allocate.
    argv = [command, "-c", os.path.join(CONFIG_DIR, "demo_heterogeneous_bump.ini"),
            "--output-directory=oom"]
    if command == "riemann":
        argv += ["--left=0.3", "--right=0.7"]
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    for exc, shown in ((MemoryError("Unable to allocate 7.45 GiB"), "Unable to allocate 7.45 GiB"),
                       (MemoryError(), "allocation failed")):
        def oom(*args, exc=exc, **kwargs):
            raise exc

        monkeypatch.setattr(cli, target, oom)
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"hetflux: out of memory: {shown};")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "oom").exists()


def test_cli_validate_exit_codes(capsys):
    assert main(["validate", "--flux-family=lwr"]) == 0
    assert "hold" in capsys.readouterr().out
    # the paired-flux family is discontinuous in x by construction
    assert main(["validate", "--flux-family=two_state"]) == 4
    assert "invariant breach" in capsys.readouterr().err


def test_cli_flag_overrides_config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[flux]\nfamily = two_state\n[mesh]\ndx = 0.01\n", encoding="utf-8"
    )
    args = cli.build_parser().parse_args(["run", "-c", str(path), "--mesh-dx=0.02"])
    cfg = cli._load_config(args)
    assert cfg.flux["family"] == "two_state"
    assert cfg.mesh["dx"] == 0.02


# ---------------------------------------------------------------------------
# CLI: run outputs and determinism


RUN_ARGS = [
    "run",
    "--flux-family=two_state",
    "--mesh-dx=0.05", "--mesh-x-min=-2", "--mesh-x-max=2",
    "--initial-kind=step", "--initial-left=-1", "--initial-right=-1",
    "--time-t-end=0.1", "--time-snapshots=0.05",
    "--output-directory=case_a",
]


def test_cli_runs_and_diagnoses_every_config_without_a_root_solve(
        tmp_path, monkeypatch, solve_calls):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    for name in sorted(os.listdir(CONFIG_DIR)):
        for command in ("run", "diagnose"):
            assert main([command, "-c", os.path.join(CONFIG_DIR, name)]) == 0, (command, name)
    assert solve_calls == []


def test_cli_run_writes_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    assert main(RUN_ARGS) == 0
    outdir = tmp_path / "case_a"
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert set(os.listdir(outdir)) == set(manifest["outputs"])
    assert manifest["command"] == "run"
    assert manifest["mesh"]["n_cells"] == 80
    assert manifest["run"]["snapshot_times"] == [0.0, 0.05, 0.1]
    assert manifest["run"]["relative_mass_drift"] <= 1e-10

    echo = (outdir / "config.resolved.ini").read_bytes()
    assert hashlib.sha256(echo).hexdigest() == manifest["config_sha256"]

    for i in range(3):
        lines = (outdir / f"snapshot_{i:03d}.csv").read_text().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == 81
    assert "plot" in (outdir / "plot.gp").read_text()


def test_cli_run_manifest_records_the_cfl_bound(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    assert main(RUN_ARGS) == 0
    outdir = tmp_path / "case_a"
    cfl = json.loads((outdir / "manifest.json").read_text())["cfl"]
    # u0 = -1 on u^2/2 | u^2: the levels are f_r(-1) = 1 below and the
    # minimum 0 above, so the bracket is [-sqrt 2, 0] and L = 2 sqrt 2.
    assert "bound" not in cfl
    assert cfl["bracket"] == pytest.approx([-math.sqrt(2.0), 0.0], abs=1e-12)
    assert cfl["lipschitz"] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    # Every snapshot shares the x column and prints both at 17 digits.
    columns = []
    for i in range(3):
        rows = (outdir / f"snapshot_{i:03d}.csv").read_text().splitlines()[1:]
        values = [tuple(float(v) for v in row.split(",")) for row in rows]
        assert rows == ["%.16e,%.16e" % xu for xu in values]
        columns.append([x for x, _ in values])
    assert columns[0] == columns[1] == columns[2]


def test_cli_run_exits_4_when_a_state_leaves_the_bracket(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    step = Scheme.step_arrays

    def leaky(self, u, dt):
        u_new, f_in, f_out = step(self, u, dt)
        u_new[3] += 2.0  # from -1 to 1, above the upper state 0
        return u_new, f_in, f_out

    monkeypatch.setattr(Scheme, "step_arrays", leaky)
    assert main(RUN_ARGS) == 4
    assert "leaves the bracket" in capsys.readouterr().err


def test_cli_run_exits_4_when_mass_is_not_conserved(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    step = Scheme.step_arrays

    def misreported(self, u, dt):
        u_new, f_in, f_out = step(self, u, dt)
        return u_new, f_in, f_out + 1e-6  # an outflow that never left

    monkeypatch.setattr(Scheme, "step_arrays", misreported)
    assert main(RUN_ARGS) == 4
    assert "relative mass drift" in capsys.readouterr().err


def test_cli_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_cli_run_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    assert main(RUN_ARGS) == 0
    outdir = tmp_path / "case_a"
    names = [f"snapshot_{i:03d}.csv" for i in range(3)] + ["config.resolved.ini", "plot.gp"]
    first = {n: (outdir / n).read_bytes() for n in names}
    manifest1 = json.loads((outdir / "manifest.json").read_text())
    assert main(RUN_ARGS) == 0
    for n in names:
        assert (outdir / n).read_bytes() == first[n]
    manifest2 = json.loads((outdir / "manifest.json").read_text())
    manifest1.pop("runtime_seconds")
    manifest2.pop("runtime_seconds")
    assert manifest1 == manifest2


def test_cli_run_auto_window_covers_influence_cone(tmp_path, monkeypatch, recwarn):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    args = [a for a in RUN_ARGS if not a.startswith("--mesh-x")]
    assert main(args) == 0
    manifest = json.loads((tmp_path / "case_a" / "manifest.json").read_text())
    mesh, cfl = manifest["mesh"], manifest["cfl"]
    radius = 0.5
    cone = radius + cfl["lipschitz"] * 0.1
    assert mesh["x_max"] >= cone + 2 * mesh["dx"] - 1e-12
    assert mesh["x_min"] == -mesh["x_max"]
    assert not [w for w in recwarn if "influence cone" in str(w.message)]


@pytest.mark.parametrize("name, mesh", [
    ("demo_heterogeneous_bump", Mesh(x_min=-7.48, x_max=7.48, dx=0.02, n_cells=748)),
    ("demo_lwr_slowdown", Mesh(x_min=-6.19, x_max=6.19, dx=0.01, n_cells=1238)),
])
def test_demo_configs_auto_windows_are_pinned(name, mesh):
    # Every byte of the demos' CSVs follows their automatic window.
    cfg = parse_config(os.path.join(CONFIG_DIR, f"{name}.ini"))
    model = cfg.build_model()
    datum = cfg.build_datum().map(model.to_internal)
    assert cli._build_mesh(cfg, model, datum, cfg.time["t_end"]) == mesh


def test_cli_output_root_ignored_for_absolute_paths(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path / "root"))
    absolute = tmp_path / "elsewhere"
    args = RUN_ARGS[:-1] + [f"--output-directory={absolute}"]
    assert main(args) == 0
    assert (absolute / "manifest.json").exists()
    assert not (tmp_path / "root").exists()


# ---------------------------------------------------------------------------
# CLI: riemann, steady, diagnose


def test_cli_riemann_matches_library(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    assert main([
        "riemann", "--flux-family=two_state",
        "--left=-1", "--right=1",
        "--xi-min=-2", "--xi-max=2", "--samples=81",
        "--output-directory=rie",
    ]) == 0
    table = np.genfromtxt(tmp_path / "rie" / "riemann.csv", delimiter=",", names=True)
    cfg = make_config({"flux": {"family": "two_state"}})
    model = cfg.build_model()
    ctx = InterfaceContext.from_model(model, -1.5, 1.5)
    sol = solve_interface(ctx, -1.0, 1.0)
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(table["u"], sample(sol, table["xi"]))
    manifest = json.loads((tmp_path / "rie" / "manifest.json").read_text())
    assert manifest["riemann"]["case"] == "II"
    assert manifest["riemann"]["trace_left"] == 0.0
    assert manifest["riemann"]["trace_right"] == 0.0


def test_cli_steady_anchor_constant(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    assert main([
        "steady", "--flux-family=quadratic",
        "--mesh-dx=0.1", "--mesh-x-min=-1", "--mesh-x-max=1",
        "--anchor=1.0", "--output-directory=stq",
    ]) == 0
    table = np.genfromtxt(tmp_path / "stq" / "steady.csv", delimiter=",", names=True)
    assert np.all(table["v"] == 1.0)  # homogeneous steady state is constant
    manifest = json.loads((tmp_path / "stq" / "manifest.json").read_text())
    assert manifest["steady"]["flux_level"] == pytest.approx(0.5, abs=1e-15)


def test_cli_steady_envelope_files(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    assert main([
        "steady", "--flux-family=two_state",
        "--mesh-dx=0.05", "--mesh-x-min=-1.5", "--mesh-x-max=1.5",
        "--initial-kind=step", "--initial-left=-1", "--initial-right=1",
        "--output-directory=ste",
    ]) == 0
    lower = np.genfromtxt(tmp_path / "ste" / "steady_lower.csv", delimiter=",", names=True)
    upper = np.genfromtxt(tmp_path / "ste" / "steady_upper.csv", delimiter=",", names=True)
    assert lower["v"].shape == upper["v"].shape == (60,)
    assert np.all(lower["v"] <= upper["v"])
    manifest = json.loads((tmp_path / "ste" / "manifest.json").read_text())
    assert manifest["envelope"]["upper"] == pytest.approx(1.625, abs=1e-12)
    assert manifest["envelope"]["lower"] == pytest.approx(-1.625, abs=1e-12)
    # states sandwich the data and stay inside the envelope bounds
    assert np.max(upper["v"]) == pytest.approx(1.5, abs=1e-12)
    assert np.min(upper["v"]) >= 1.0 - 1e-12
    assert np.max(lower["v"]) <= -1.0 + 1e-12
    assert np.min(lower["v"]) >= -1.625 - 1e-12


def test_cli_diagnose_passes_on_pair_flux(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    assert main([
        "diagnose", "--flux-family=two_state",
        "--mesh-dx=0.05", "--mesh-x-min=-2", "--mesh-x-max=2",
        "--initial-kind=step", "--initial-left=-1", "--initial-right=-1",
        "--time-t-end=0.1", "--diagnostics-k-levels=9",
        "--output-directory=diag",
    ]) == 0
    outdir = tmp_path / "diag"
    report = (outdir / "diagnostics.csv").read_text().splitlines()
    assert report[0] == "check,metric,value,threshold,status"
    assert len(report) >= 4  # entropy, conservation, time variation
    assert all(line.endswith(",pass") for line in report[1:])
    entropy = (outdir / "entropy_per_k.csv").read_text().splitlines()
    assert entropy[0] == "k,max_slack"
    assert len(entropy) >= 10
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["diagnostics"]["failures"] == 0


def test_cli_diagnose_reports_traffic_levels_as_densities(tmp_path, monkeypatch, capsys):
    # lwr is solved for u = -rho; its entropy levels must come out as densities.
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    assert main([
        "diagnose", "-c", os.path.join(CONFIG_DIR, "demo_lwr_slowdown.ini"),
        "--mesh-dx=0.05", "--diagnostics-consistency=false", "--output-directory=lwr",
    ]) == 0
    outdir = tmp_path / "lwr"
    manifest = json.loads((outdir / "manifest.json").read_text())
    lo, hi = manifest["envelope"]["lower"], manifest["envelope"]["upper"]
    rows = (outdir / "entropy_per_k.csv").read_text().splitlines()[1:]
    ks = [float(row.split(",")[0]) for row in rows]
    assert all(lo <= k <= hi for k in ks), (lo, hi, min(ks), max(ks))
    # the data's own densities 0.3 and 0.7 are levels, as in default_k_levels
    assert 0.3 in ks and 0.7 in ks
    worst_k = float(re.search(r"at k=(\S+),", capsys.readouterr().out).group(1))
    assert lo <= worst_k <= hi


@pytest.mark.parametrize("name", ["demo_heterogeneous_bump", "demo_lwr_slowdown"])
def test_cli_diagnose_levels_lie_inside_the_range_the_states_reach(name, tmp_path, monkeypatch):
    # The default levels span the bracket, not the envelope, so most of them
    # lie strictly inside the states' range, where the entropy inequality
    # tests more than conservation (Kruzhkov 1970).
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    assert main(["diagnose", "-c", os.path.join(CONFIG_DIR, f"{name}.ini"),
                 "--output-directory=d"]) == 0
    run = json.loads((tmp_path / "d" / "manifest.json").read_text())["run"]
    ks = np.loadtxt(tmp_path / "d" / "entropy_per_k.csv", delimiter=",", skiprows=1)[:, 0]
    assert np.count_nonzero((run["state_min"] < ks) & (ks < run["state_max"])) >= 20


def test_cli_traffic_outputs_are_in_physical_units(tmp_path, monkeypatch):
    # lwr is solved for u = -rho; states come out as densities, fluxes as
    # nonnegative traffic flows, and intervals lower end first.
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    base = ["--flux-family=lwr", "--mesh-dx=0.1"]
    assert main(["riemann", *base, "--left=0.3", "--right=0.7", "--output-directory=r"]) == 0
    rie = json.loads((tmp_path / "r" / "manifest.json").read_text())["riemann"]
    assert 0 <= rie["trace_left"] <= 1 and 0 <= rie["trace_right"] <= 1
    assert rie["interface_flux"] == pytest.approx(0.04375, abs=1e-12)
    assert all(0 <= w[side] <= 1 for w in rie["waves"]
               for side in ("left_state", "right_state"))
    assert main(["steady", *base, "--anchor=0.05", "--branch=lower",
                 "--output-directory=a"]) == 0
    assert json.loads((tmp_path / "a" / "manifest.json").read_text())[
        "steady"]["flux_level"] == pytest.approx(0.0475, abs=1e-12)
    v = np.genfromtxt(tmp_path / "a" / "steady.csv", delimiter=",", names=True)["v"]
    assert 0.05 - 1e-12 <= np.min(v) and np.max(v) <= 0.4
    assert main(["steady", *base, "--initial-kind=step", "--initial-left=0.3",
                 "--initial-right=0.7", "--output-directory=e"]) == 0
    lower, upper = (np.genfromtxt(tmp_path / "e" / f"steady_{side}.csv", delimiter=",",
                                  names=True)["v"] for side in ("lower", "upper"))
    assert np.all(lower <= upper)
    env = json.loads((tmp_path / "e" / "manifest.json").read_text())["envelope"]
    assert env["lower"] <= env["data_min"] == 0.3 < env["data_max"] == 0.7 <= env["upper"]
    assert main(["run", "-c", os.path.join(CONFIG_DIR, "demo_lwr_slowdown.ini"),
                 "--mesh-dx=0.05", "--output-directory=run"]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    run = manifest["run"]
    assert 0 < run["mass_initial"] and 0 < run["mass_final"]
    assert 0.3 == run["state_min"] < run["state_max"] <= 0.7 + 0.2
    lo, hi = manifest["cfl"]["bracket"]
    assert manifest["envelope"]["lower"] <= lo < hi <= manifest["envelope"]["upper"]


def test_cli_failed_steady_leaves_no_directory(tmp_path, monkeypatch, capsys):
    # The output directory is made on the first write: a command refused
    # before it writes anything leaves none behind.
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    assert main(["steady", "--flux-family=quadratic", "--mesh-dx=0.1", "--anchor=-5",
                 "--branch=upper", "--output-directory=s1"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "s1").exists()


@pytest.mark.parametrize("flags, message", [
    (["--samples=1"], "--samples must be at least 2"),
    (["--xi-min=1", "--xi-max=1"], "--xi-min must be below --xi-max"),
    (["--xi-min=2", "--xi-max=-2"], "--xi-min must be below --xi-max"),
    (["--xi-min=-inf"], "--xi-min and --xi-max must be finite"),
    (["--xi-max=inf"], "--xi-min and --xi-max must be finite"),
])
def test_cli_riemann_refuses_a_bad_sample_grid(tmp_path, monkeypatch, capsys, flags, message):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    assert main(["riemann", "--flux-family=two_state", "--left=-1", "--right=1",
                 "--output-directory=rie", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"hetflux: configuration error: {message}"]
    assert captured.out == ""
    assert not (tmp_path / "rie").exists()


def test_cli_diagnose_reports_a_failed_check_and_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    monkeypatch.setattr(EntropyReport, "ok", lambda self, tol=0.0: False)
    assert main([
        "diagnose", "--flux-family=two_state",
        "--mesh-dx=0.05", "--mesh-x-min=-2", "--mesh-x-max=2",
        "--initial-kind=step", "--initial-left=-1", "--initial-right=-1",
        "--time-t-end=0.1", "--diagnostics-k-levels=9",
        "--output-directory=diag",
    ]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "hetflux: invariant breach: diagnostics failed: entropy_inequality"]
    outdir = tmp_path / "diag"
    rows = (outdir / "diagnostics.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows].count("fail") == 1
    assert rows[0].startswith("entropy_inequality,") and rows[0].endswith(",fail")
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["diagnostics"]["failures"] == 1


@pytest.mark.parametrize("anchor, number", [("0.9", "0.9"), ("0.2", "0.16")])
def test_cli_steady_traffic_errors_are_in_densities(tmp_path, monkeypatch, capsys,
                                                    anchor, number):
    # The anchor, critical states and flux levels of a refused traffic anchor
    # are densities and flows, and the message names no internal branch.
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    assert main(["steady", "--flux-family=lwr", "--mesh-dx=0.1", f"--anchor={anchor}",
                 "--branch=lower"]) == 2
    err = capsys.readouterr().err
    assert f" {number}" in err and "upper-branch" not in err
    assert not re.search(r"-\d", err), err


def test_cli_precision_flag_controls_digits(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    assert main([
        "riemann", "--flux-family=quadratic",
        "--left=1", "--right=0", "--samples=11",
        "--output-precision=3", "--output-directory=coarse",
    ]) == 0
    lines = (tmp_path / "coarse" / "riemann.csv").read_text().splitlines()
    cell = re.compile(r"-?\d\.\d{2}e[+-]\d{2,3}$")
    for line in lines[1:]:
        for field in line.split(","):
            assert cell.match(field), field


def test_cli_overflow_prints_one_error_line_and_no_numpy_warning(tmp_path):
    # The flux overflows at u = 1e200 while the window is sized; the run is
    # refused with exit 2, and numpy's RuntimeWarning must not reach stderr.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src), ENV_OUTPUT_ROOT: str(tmp_path)}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "hetflux", "run", "--flux-family", "quadratic",
         "--mesh-dx", "0.1", "--initial-kind", "step", "--initial-left", "1e200",
         "--initial-right", "1", "--time-t-end", "0.05"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("hetflux: "), proc.stderr


@pytest.mark.parametrize("level", ["1e200", "1e160"])
def test_cli_overflowing_data_level_is_named(tmp_path, monkeypatch, capsys, level):
    # With an explicit window no auto window refuses the data: the bracket's
    # flux level overflows, and the error names the data level, not a root
    # search that never ran.
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    argv = ["run", "--flux-family", "quadratic", "--mesh-dx", "0.1", "--mesh-x-min=-2",
            "--mesh-x-max=2", "--initial-kind", "step", "--initial-left", level,
            "--initial-right", "1", "--time-t-end", "0.05"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == f"hetflux: numerical failure: steady bracket: the flux of the data level " \
                  f"{float(level):g} overflows\n"
    assert not os.listdir(tmp_path)


OVERFLOWS = [("demo_heterogeneous_bump", "--flux-theta-base=1e308"),
             ("demo_heterogeneous_bump", "--flux-theta-bump=1e308"),
             ("golden_shock_interface", "--flux-left-coefficient=1e308")]


# riemann freezes the flux only outside the bump, and validate's report of
# the bump comes first (exit 4), so they meet theta_bump's overflow nowhere.
@pytest.mark.parametrize("command, config, flag", [
    ("run", *OVERFLOWS[0]), ("run", *OVERFLOWS[1]), ("run", *OVERFLOWS[2]),
    ("steady", *OVERFLOWS[1]),
    *((command, *case) for command in ("riemann", "steady", "validate")
      for case in (OVERFLOWS[0], OVERFLOWS[2])),
])
def test_cli_overflowing_coefficient_exits_2(tmp_path, monkeypatch, capsys, command, config, flag):
    # The slope 2 a (u - b) of a built-in flux overflows: refused when frozen.
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    extra = ["--left=0.3", "--right=0.7"] if command == "riemann" else []
    with np.errstate(all="ignore"):
        rc = main([command, "-c", os.path.join(CONFIG_DIR, f"{config}.ini"), flag, *extra])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].endswith("(a coefficient overflows)"), lines
    assert not os.listdir(tmp_path)


def test_cli_run_past_the_step_budget_exits_2_before_its_first_step(tmp_path, monkeypatch, capsys):
    # An offset of 1e100 makes L = 2e50, so dt = 2.25e-53: about 2e52 steps.
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))

    def no_step(self, u, dt):
        raise AssertionError("no step may run")

    monkeypatch.setattr(Scheme, "step_arrays", no_step)
    rc = main(["run", "-c", os.path.join(CONFIG_DIR, "golden_shock_interface.ini"),
               "--flux-left-offset=1e100"])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "more than MAX_STEPS = 10000000 steps" in lines[0], lines
    assert not os.listdir(tmp_path)


def test_csv_template_is_the_rowwise_format(rng):
    # One % over the whole x column gives the bytes of formatting row by row.
    big = np.finfo(float).max
    xs = np.concatenate(([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, big, -big],
                         rng.normal(0.0, 1e3, 40), [1 / 3, 1e-300, 123456789.0]))
    for precision in (1, 2, 5, 12, 17, 20):
        field = f"%.{precision - 1}e"
        want = "x,u\n" + "".join(field % x + "," + field + "\n" for x in xs.tolist())
        assert cli._csv_template(("x", "u"), xs, precision) == want
        assert cli._csv_template(("x", "u"), xs[:0], precision) == "x,u\n"


def test_cli_run_reads_a_file_datum_once(tmp_path, monkeypatch):
    path = tmp_path / "profile.csv"
    path.write_text("x,u\n-1.0,0.5\n0.0,1.5\n2.0,0.25\n", encoding="utf-8")
    reads = []
    genfromtxt = np.genfromtxt

    def counting(*args, **kwargs):
        reads.append(args[0])
        return genfromtxt(*args, **kwargs)

    monkeypatch.setattr(np, "genfromtxt", counting)
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    assert main(["run", "--flux-family=quadratic", "--mesh-dx=0.1",
                 "--initial-kind=file", f"--initial-path={path}",
                 "--time-t-end=0.1"]) == 0
    assert reads == [str(path)]


def test_cli_run_manifest_envelope_holds_a_file_datum_spike(tmp_path, monkeypatch):
    # A peak on a Gauss node of the cell [0, 0.1], between the points that
    # sampling 16 per cell reads: the envelope is taken over the projected
    # cells, so it holds every state of the run.
    path = tmp_path / "spike.csv"
    path.write_text("x,u\n-1.0,0.0\n0.003,0.0\n0.004691007703066803,50.0\n0.006,0.0\n1.0,0.0\n",
                    encoding="utf-8")
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    assert main(["run", "--flux-family=quadratic", "--mesh-x-min=-1", "--mesh-x-max=1",
                 "--mesh-dx=0.1", "--initial-kind=file", f"--initial-path={path}",
                 "--time-t-end=0.01", "--output-directory=out"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    env, states = manifest["envelope"], manifest["run"]
    assert states["state_max"] > 5.9
    assert env["lower"] <= states["state_min"] <= states["state_max"] <= env["upper"]


@pytest.mark.parametrize("command", ["run", "steady"])
def test_cli_file_datum_with_a_non_numeric_cell_names_its_path(command, tmp_path, monkeypatch,
                                                               capsys):
    path = tmp_path / "profile.csv"
    path.write_text("x,u\n-1.0,0.5\n0.0,abc\n1.5,0.25\n", encoding="utf-8")
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path / "root"))
    assert main([command, "--flux-family=quadratic", "--mesh-dx=0.1", "--initial-kind=file",
                 f"--initial-path={path}", "--time-t-end=0.1"]) == 2
    assert capsys.readouterr().err == (
        f"hetflux: configuration error: initial.path: {str(path)!r}: "
        "file datum needs finite x and u samples\n")
    assert not (tmp_path / "root").exists()


def test_cli_steady_reads_the_datum_only_for_an_auto_window_or_the_envelope(tmp_path, monkeypatch,
                                                                            capsys):
    # An anchored steady state on an explicit window needs no datum, so an
    # unreadable [initial] file does not stop it; the other two modes read it,
    # and an auto window is not sized from a datum that cannot be built.
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    argv = ["steady", "--flux-family=quadratic", "--mesh-dx=0.1", "--initial-kind=file",
            f"--initial-path={tmp_path / 'absent.csv'}"]
    window = ["--mesh-x-min=-1", "--mesh-x-max=1"]
    assert main([*argv, *window, "--anchor=1", "--output-directory=a"]) == 0
    assert main([*argv, "--anchor=1", "--output-directory=b"]) == 2
    assert main([*argv, *window, "--output-directory=c"]) == 2
    assert capsys.readouterr().err.count("cannot read") == 2
    assert main([*argv[:3], "--initial-kind=bump", "--initial-base=0", "--initial-amplitude=1",
                 "--initial-width=0", "--anchor=1", "--output-directory=d"]) == 2
    assert "width > 0" in capsys.readouterr().err


@pytest.mark.parametrize("flux", [
    ["--flux-v-right=0.911", "--flux-rho-right=0.944"], ["--flux-radius=0.205"]])
def test_cli_validate_passes_consistency_on_valid_traffic_parameters(flux, capsys):
    # Valid lwr parameters whose consistency sweep over 1/50 .. 1/400 is still
    # pre-asymptotic at the crossing level; a least-squares slope over it
    # read 0.756 and 0.562 and failed the 0.9 threshold.
    assert main(["validate", "--flux-family=lwr", *flux]) == 0
    _assert_first_order(capsys.readouterr().out)


@pytest.mark.parametrize("family", ["heterogeneous_quadratic", "lwr"])
def test_cli_validate_sweeps_a_wide_heterogeneity_on_steps_scaled_by_its_radius(family, capsys):
    # The sweep's steps scale with max(X, 1), so it puts as many cells across
    # the heterogeneity whatever X; on unscaled steps X = 2e4 needs 2e6 cells.
    assert main(["validate", f"--flux-family={family}", "--flux-radius=2e4"]) == 0
    _assert_first_order(capsys.readouterr().out)


def _assert_first_order(out):
    """Three consistency lines, each exact or of slope >= 0.9."""
    rows = [line for line in out.splitlines() if line.startswith("flux consistency")]
    kinds = [re.search(r": (exact|slope \S+),", row).group(1) for row in rows]
    assert len(kinds) == 3, rows
    assert all(kind == "exact" or float(kind.split()[1]) >= 0.9 for kind in kinds), rows


def _count_sweeps(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return consistency_rate(*args, **kwargs)

    monkeypatch.setattr(cli, "consistency_rate", counted)
    return calls


def test_cli_diagnose_checks_the_run_and_leaves_the_sweep_to_validate(tmp_path, monkeypatch):
    # Flux consistency is a property of the model, so diagnose reports only
    # what the run's observers and its mass balance saw.
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    calls = _count_sweeps(monkeypatch)
    path = os.path.join(CONFIG_DIR, "demo_heterogeneous_bump.ini")
    assert main(["diagnose", "-c", path, "--output-directory=d"]) == 0
    assert calls == []
    report = (tmp_path / "d" / "diagnostics.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in report[1:]] == [
        "entropy_inequality", "conservation", "time_variation"]
    assert main(["validate", "-c", path]) == 0
    assert len(calls) == 3


def test_cli_diagnose_on_a_window_that_cuts_the_heterogeneity_steps_on_the_bracket(
        tmp_path, monkeypatch, capsys):
    # The window [-0.5, 0.5] ends inside (-1, 1): the ghosts copy their
    # boundary cells, so the bracket still certifies the run.
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    path = os.path.join(CONFIG_DIR, "demo_heterogeneous_bump.ini")
    with pytest.warns(UserWarning, match="influence cone"):
        code = main(["diagnose", "-c", path, "--mesh-x-min=-0.5", "--mesh-x-max=0.5",
                     "--output-directory=d"])
    assert code == 0
    assert "diagnose: 3/3 checks passed" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    lower, upper = manifest["cfl"]["bracket"]
    assert lower <= manifest["run"]["state_min"] <= manifest["run"]["state_max"] <= upper


def test_cli_validate_exits_4_naming_a_level_below_first_order(monkeypatch, capsys):
    model = make_config({"flux": {"family": "lwr"}}).build_model()
    curve = model.curve
    middle = curve.alpha_min + 0.9 * (curve.alpha_max - curve.alpha_min)

    def sweep(model, k, dx_values):
        rep = consistency_rate(model, k, dx_values=dx_values)
        return dataclasses.replace(rep, slope=0.5) if k == middle else rep

    monkeypatch.setattr(cli, "consistency_rate", sweep)
    assert main(["validate", "--flux-family=lwr"]) == 4
    out, err = capsys.readouterr()
    assert out.count("flux consistency at k=") == 3 and "slope 0.500" in out
    assert err == (f"hetflux: invariant breach: flux consistency below first order at "
                   f"k={middle:.6g} (slope 0.500)\n")


@pytest.mark.parametrize("argv", [
    ["-c", os.path.join(CONFIG_DIR, "golden_shock_interface.ini")],
    ["-c", os.path.join(CONFIG_DIR, "demo_heterogeneous_bump.ini"), "--diagnostics-consistency=no"],
])
def test_cli_validate_runs_no_sweep_after_a_failed_check_or_when_it_is_off(argv, monkeypatch,
                                                                          capsys):
    # A failing assumptions check keeps its message and exit code, and a
    # sweep switched off leaves the assumptions line alone.
    calls = _count_sweeps(monkeypatch)
    model = parse_config(argv[1]).build_model()
    report = validate_assumptions(model)
    assert main(["validate", *argv]) == (0 if report.ok else 4)
    assert calls == []
    out, err = capsys.readouterr()
    assert out == report.summary() + "\n"
    assert err == ("" if report.ok else "hetflux: invariant breach: flux model violates "
                   f"assumptions: {len(report.violations)} finding(s)\n")


def test_cli_auto_window_refuses_a_datum_of_unknown_support():
    cfg = make_config({"flux": _flux(), "mesh": {"dx": "0.1"}})
    for t_end in (0.0, 0.5):
        with pytest.raises(ConfigError, match="set mesh.x_min and mesh.x_max"):
            cli._build_mesh(cfg, cfg.build_model(), SmoothDatum(fn=np.cos), t_end)


def test_cli_window_refusal_names_the_mesh_keys():
    # The CLI's way out of an automatic window too large to allocate is an
    # explicit window, so its refusal names the two config keys.
    cfg = make_config({"flux": _flux(), "mesh": {"dx": "0.1"}})
    with pytest.raises(ConfigError) as err:
        cli._build_mesh(cfg, cfg.build_model(), SmoothDatum(fn=np.cos), 0.5)
    assert str(err.value) == (
        "the automatic window needs inf cells, more than 1000000; set mesh.x_min and mesh.x_max")


def test_cli_auto_window_holds_a_heterogeneity_wider_than_the_data():
    # X = 3 reaches past the floor of 1 (no datum): [-X, X] plus two cells.
    cfg = make_config({"flux": {"family": "two_state", "radius": "3"}, "mesh": {"dx": "0.1"}})
    assert cli._build_mesh(cfg, cfg.build_model()) == Mesh(x_min=-3.2, x_max=3.2, dx=0.1, n_cells=64)
