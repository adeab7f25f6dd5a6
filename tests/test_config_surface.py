"""The configuration surface.

hetflux.config.SECTIONS states every section, key and default; parsing, the
echo and the command-line flags all read it. These tests pin that surface
(the flag list and the parsed type of every key), the rule that numbers
are finite, and the cap on the window the CLI sizes by itself.
"""

import inspect
import itertools
import re

import pytest

import hetflux.cli as cli
from hetflux.cli import ENV_OUTPUT_ROOT, main
from hetflux.config import DATUM_BUILDERS, FAMILY_BUILDERS, config_keys, make_config
from hetflux.errors import ConfigError
from hetflux.families import quadratic
from hetflux.solver import MAX_AUTO_CELLS, cone_mesh

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
