"""The configuration surface.

hetflux.config.SECTIONS states every section, key and default; parsing, the
echo and the command-line flags all read it. These tests pin that surface
(the flag list and the parsed type of every key), the rule that numbers
are finite, and the caps on what the config sizes: the window, automatic
or explicit, and the entropy check's (cells x levels) tables.
"""

import inspect
import itertools
import os
import re

import pytest

import hetflux.cli as cli
import hetflux.solver as solver
from hetflux.cli import ENV_OUTPUT_ROOT, main
from hetflux.config import DATUM_BUILDERS, FAMILY_BUILDERS, config_keys, make_config
from hetflux.errors import ConfigError
from hetflux.families import quadratic
from hetflux.solver import MAX_AUTO_CELLS, cone_mesh

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

FLAGS = [
    "--flux-family", "--flux-coefficient", "--flux-shift", "--flux-offset",
    "--flux-left-coefficient", "--flux-left-shift", "--flux-left-offset",
    "--flux-right-coefficient", "--flux-right-shift", "--flux-right-offset",
    "--flux-radius", "--flux-theta-base", "--flux-theta-bump", "--flux-ell-base",
    "--flux-ell-bump", "--flux-g-base", "--flux-g-bump", "--flux-v-left",
    "--flux-v-right", "--flux-rho-left", "--flux-rho-right",
    "--mesh-dx", "--mesh-x-min", "--mesh-x-max",
    "--initial-kind", "--initial-value", "--initial-left", "--initial-right",
    "--initial-location", "--initial-base", "--initial-amplitude", "--initial-center",
    "--initial-width", "--initial-path",
    "--time-t-end", "--time-snapshots", "--time-safety", "--time-max-dt",
    "--output-directory", "--output-precision",
    "--diagnostics-entropy", "--diagnostics-k-levels", "--diagnostics-consistency",
    "--diagnostics-time-variation",
]


def test_help_lists_a_flag_per_config_key_in_table_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    help_flags = re.findall(r"^\s+(--[a-z0-9-]+) VALUE", capsys.readouterr().out, re.M)
    assert help_flags == FLAGS
    assert [f"--{s}-{k}".replace("_", "-") for s, k in config_keys()] == FLAGS


def _pinned_type(section, key):
    if key in ("family", "kind", "path", "directory"):
        return str
    if section == "diagnostics" and key != "k_levels":
        return bool
    if key in ("precision", "k_levels"):
        return int
    if key == "snapshots":
        return tuple
    return float


# A valid value of each type; x_min and x_max need an order.
SAMPLE = {str: "text", bool: "yes", int: "5", tuple: "0.25, 0.5", float: "0.5"}
OVERRIDE = {"x_min": "-0.5"}


def _raw(section, keys):
    return {k: OVERRIDE.get(k, SAMPLE[_pinned_type(section, k)]) for k in keys}


def test_every_key_parses_as_its_pinned_type():
    # A builder default such as radius=1 would make its key an int: "0.5"
    # then fails to parse, and an int default elsewhere shows in the types.
    seen = set()
    for family, kind in itertools.product(FAMILY_BUILDERS, DATUM_BUILDERS):
        raw = {
            "flux": {"family": family,
                     **_raw("flux", inspect.signature(FAMILY_BUILDERS[family]).parameters)},
            "mesh": _raw("mesh", ("dx", "x_min", "x_max")),
            "initial": {"kind": kind,
                        **_raw("initial", inspect.signature(DATUM_BUILDERS[kind]).parameters)},
            "time": _raw("time", ("t_end", "snapshots", "safety", "max_dt")),
            "output": _raw("output", ("directory", "precision")),
            "diagnostics": _raw("diagnostics",
                                ("entropy", "k_levels", "consistency", "time_variation")),
        }
        cfg = make_config(raw)
        for section in raw:
            for key, value in getattr(cfg, section).items():
                assert type(value) is _pinned_type(section, key), (section, key, value)
                seen.add((section, key))
        assert cfg.time["snapshots"] == (0.25, 0.5)
    assert seen == set(config_keys())


@pytest.mark.parametrize("section, key, text", [
    ("time", "t_end", "nan"),
    ("time", "t_end", "inf"),
    ("flux", "offset", "-inf"),
    ("time", "snapshots", "0.1, nan"),
    ("time", "snapshots", "inf"),
])
def test_non_finite_numbers_are_rejected(section, key, text):
    raw = {"flux": {"family": "quadratic"}, "time": {"t_end": "1"}}
    raw[section][key] = text
    with pytest.raises(ConfigError, match=rf"^{section}\.{key}: expected a finite number"):
        make_config(raw)


STEP = ["--mesh-dx=0.1", "--initial-kind=step", "--initial-left=1", "--initial-right=0",
        "--output-directory=out"]


@pytest.mark.parametrize("flags, key, text", [
    (["--flux-family=quadratic", "--time-t-end=nan"], "time.t_end", "nan"),
    (["--flux-family=quadratic", "--flux-offset=inf", "--time-t-end=0.1"], "flux.offset", "inf"),
    (["--flux-family=two_state", "--flux-radius=nan", "--time-t-end=0.1"], "flux.radius", "nan"),
])
def test_cli_non_finite_flags_exit_2(flags, key, text, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    assert main(["run"] + STEP + flags) == 2
    assert capsys.readouterr().err == (
        f"hetflux: configuration error: {key}: expected a finite number, got {text!r}\n")
    assert not (tmp_path / "out").exists()


def test_oversized_automatic_window_is_refused(tmp_path, monkeypatch, capsys):
    # The envelope L grows like M^4 in the data bound M: data of 1000 would
    # ask for about 1.25e11 cells.
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    made = []
    make = cli.Mesh.make
    monkeypatch.setattr(cli.Mesh, "make", lambda *a: made.append(make(*a)) or made[-1])
    argv = ["run", "--flux-family=quadratic", "--mesh-dx=0.1", "--initial-kind=step",
            "--initial-left=1000", "--initial-right=1", "--time-t-end=0.05",
            "--output-directory=big"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "hetflux: configuration error: the automatic window needs 1.25e+11 cells, "
        "more than 1000000; set mesh.x_min and mesh.x_max\n")
    assert all(m.n_cells <= MAX_AUTO_CELLS for m in made)
    # An explicit window is the user's to choose.
    assert main(argv + ["--mesh-x-min=-1", "--mesh-x-max=1", "--time-t-end=1e-4"]) == 0


def test_auto_window_cap_is_inclusive():
    # X = 0, dx = 0.5 and two cells of padding on each side: [-h, h] takes
    # 4h + 4 cells, MAX_AUTO_CELLS at h = 249999.
    flat, h = quadratic(), 249999.0
    advice = "set mesh.x_min and mesh.x_max"
    assert cone_mesh(flat, -h, h, 0.0, 0.5, advice=advice).n_cells == MAX_AUTO_CELLS
    # half a cell over the cap, inf and nan; then an interval of fewer than
    # MAX_AUTO_CELLS cells whose snapped ends hold one more.
    for lo, hi, reach in ((-h, h, 0.25), (-h, h, float("inf")), (-h, h, float("nan")),
                          (-249999.1, 249998.85, 0.0)):
        with pytest.raises(ConfigError, match="set mesh.x_min and mesh.x_max"):
            cone_mesh(flat, lo, hi, reach, 0.5, advice=advice)


@pytest.mark.parametrize("argv, keys", [
    (["run", "--mesh-x-min=-1e9", "--mesh-x-max=1e9", "--mesh-dx=0.001"],
     ("mesh.dx", "mesh.x_min", "mesh.x_max")),
    (["diagnose", "--diagnostics-k-levels", "1000000000000"], ("diagnostics.k_levels", "mesh.dx")),
    (["riemann", "--left=0.3", "--right=0.7", "--samples", "1000000000000"], ("--samples",)),
], ids=["explicit window", "entropy table", "riemann samples"])
def test_config_sizes_past_the_budget_are_refused_before_allocation(argv, keys, tmp_path,
                                                                   monkeypatch, capsys):
    # numpy would ask for 14.6 TiB of cell centers, or 7.28 TiB of levels
    # or of samples.
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    path = os.path.join(CONFIG_DIR, "golden_homogeneous_shock.ini")
    assert main([argv[0], "-c", path, *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("hetflux: configuration error: ")
    assert all(key in err for key in keys), err
    assert list(tmp_path.iterdir()) == []


def test_an_oversized_entropy_table_is_refused_before_the_run_builds_anything(
        tmp_path, monkeypatch, capsys):
    # 10^6 cells, the explicit-window cap, and 36 + 2 levels: the refusal
    # comes right after the mesh, so run() builds no bracket.
    brackets = []
    monkeypatch.setattr(solver, "bracket", lambda *args: brackets.append(args))
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path))
    path = os.path.join(CONFIG_DIR, "golden_homogeneous_shock.ini")
    assert main(["diagnose", "-c", path, "--mesh-x-min=-250000", "--mesh-x-max=250000",
                 "--mesh-dx=0.5", "--diagnostics-k-levels", "36"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "hetflux: configuration error: the entropy check needs 38 levels on 1000000 cells, "
        "more than 3.5e+07 cell-levels; lower diagnostics.k_levels or use a coarser mesh.dx\n")
    assert brackets == []
    assert list(tmp_path.iterdir()) == []


def test_explicit_window_cap_is_inclusive():
    raw = {"flux": {"family": "quadratic"}, "mesh": {"dx": "0.5", "x_min": "-250000"}}
    cfg = make_config({**raw, "mesh": {**raw["mesh"], "x_max": "250000"}})
    assert cli._build_mesh(cfg, cfg.build_model()).n_cells == MAX_AUTO_CELLS
    cfg = make_config({**raw, "mesh": {**raw["mesh"], "x_max": "250000.5"}})
    with pytest.raises(ConfigError, match=r"needs 1e\+06 cells, more than 1000000"):
        cli._build_mesh(cfg, cfg.build_model())
