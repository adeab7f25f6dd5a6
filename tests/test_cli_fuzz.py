"""Seeded CLI fuzz.

Flags drawn from config_keys() over every flux family, datum kind and
subcommand, mostly valid and bounded so that every run stays small, with
one fault in some cases: a key of another family or kind, a non-finite or
non-numeric value, a value out of range, or data whose automatic window is
far too large. Two fixed cases follow the drawn ones, each asking for a
size past its cap, which no draw reaches: an entropy table of more than
MAX_CELL_LEVELS cell-levels and more than MAX_AUTO_CELLS Riemann samples.
Four more follow them, each refused before its first step: two flux
coefficients of 1e308, whose slope overflows; an offset of 1e100, whose
run would take more than MAX_STEPS steps; and --xi-min=-inf.
Whatever the flags, the CLI must exit 0, 2, 3 or 4; a failure
prints exactly one "hetflux:" line to stderr and never raises; a run that
exits 2 or 3 writes nothing; every directory holding a manifest.json holds
exactly the files its outputs list; and a second run writes the same bytes,
apart from the manifest's runtime_seconds.
"""

import contextlib
import inspect
import io
import json
import os

import numpy as np

from hetflux.cli import ENV_OUTPUT_ROOT, main
from hetflux.config import DATUM_BUILDERS, FAMILY_BUILDERS, config_keys
from hetflux.diagnostics import MAX_CELL_LEVELS
from hetflux.solver import MAX_AUTO_CELLS

SEED = 15
N_CASES = 48
COMMANDS = ("run", "diagnose", "steady", "riemann", "validate")

# Bounded draws for the numeric keys, by key name.
RANGES = {
    "coefficient": (0.2, 2.0), "left_coefficient": (0.2, 2.0),
    "right_coefficient": (0.2, 2.0), "radius": (0.2, 1.5),
    "theta_base": (0.5, 2.0), "theta_bump": (-0.4, 0.8),
    "v_left": (0.3, 1.5), "v_right": (0.3, 1.5),
    "rho_left": (0.5, 1.5), "rho_right": (0.5, 1.5),
    "dx": (0.05, 0.25), "location": (-1.0, 1.0), "center": (-1.0, 1.0),
    "width": (0.1, 1.5), "t_end": (0.0, 0.3), "safety": (0.1, 1.0),
    "max_dt": (0.002, 0.1),
}
DEFAULT_RANGE = (-1.5, 1.5)  # shifts, offsets, bumps, data values
SECTION_KEYS = {
    "mesh": ("dx",), "time": ("t_end", "snapshots", "safety", "max_dt"),
    "output": ("precision",),
    "diagnostics": ("entropy", "k_levels", "consistency", "time_variation"),
}
FAULTS = ("foreign key", "non-finite", "not a number", "out of range", "huge window")
SIZE_CASES = [
    (["diagnose", "--flux-family=quadratic", "--mesh-dx=0.1", "--initial-kind=step",
      "--initial-left=0.2", "--initial-right=0.8", "--time-t-end=0.1",
      f"--diagnostics-k-levels={MAX_CELL_LEVELS + 1}", f"--output-directory=case{N_CASES:02d}"],
     "huge table"),
    (["riemann", "--flux-family=quadratic", "--left=0.3", "--right=0.7",
      f"--samples={MAX_AUTO_CELLS + 1}", f"--output-directory=case{N_CASES + 1:02d}"],
     "huge samples"),
]
# Four more fixed cases, each refused before its first step: a built-in
# coefficient whose slope overflows, an offset that asks for about 2e52
# steps, and an infinite end of the Riemann sample grid.
_STEP = ["--mesh-dx=0.1", "--mesh-x-min=-2.5", "--mesh-x-max=2.5", "--initial-kind=step",
         "--initial-left=-1", "--initial-right=-1", "--time-t-end=0.5"]
REFUSED_CASES = [
    (["run", "--flux-family=heterogeneous_quadratic", "--flux-theta-base=1e308", *_STEP,
      f"--output-directory=case{N_CASES + 2:02d}"], "overflowing coefficient"),
    (["run", "--flux-family=two_state", "--flux-left-coefficient=1e308", *_STEP,
      f"--output-directory=case{N_CASES + 3:02d}"], "overflowing coefficient"),
    (["run", "--flux-family=two_state", "--flux-left-offset=1e100", *_STEP,
      f"--output-directory=case{N_CASES + 4:02d}"], "huge offset"),
    (["riemann", "--flux-family=two_state", "--left=0.3", "--right=0.7", "--xi-min=-inf",
      f"--output-directory=case{N_CASES + 5:02d}"], "infinite xi"),
]
# The CSV files a case may name as initial.path; None is never written.
CSV_FILES = {"profile.csv": "x,u\n-1.0,0.5\n0.0,1.2\n1.5,0.25\n", "narrow.csv": "x\n1.0\n",
             "absent.csv": None}


def _params(builder):
    return list(inspect.signature(builder).parameters)


def _value(rng, section, key, flags, csv_paths):
    if key == "path":
        return str(rng.choice(csv_paths))
    if key in ("entropy", "consistency", "time_variation"):
        return str(rng.choice(["yes", "no", "1", "off"]))
    if key == "k_levels":
        return str(rng.integers(2, 12))
    if key == "precision":
        return str(rng.integers(2, 18))
    if key == "snapshots":
        t_end = float(flags.get(("time", "t_end"), "0"))
        return ", ".join(repr(float(t)) for t in np.sort(rng.uniform(0, t_end, 2)))
    lo, hi = RANGES.get(key, DEFAULT_RANGE)
    return repr(round(float(rng.uniform(lo, hi)), 3))


def _case(rng, i, csv_paths):
    """(argv, fault) of one case."""
    family = str(rng.choice(list(FAMILY_BUILDERS)))
    kind = str(rng.choice(list(DATUM_BUILDERS)))
    command = str(rng.choice(COMMANDS))
    own = {("flux", k) for k in _params(FAMILY_BUILDERS[family])}
    own |= {("initial", k) for k in _params(DATUM_BUILDERS[kind])}
    own |= {(s, k) for s, keys in SECTION_KEYS.items() for k in keys}
    required = {("mesh", "dx"), ("time", "t_end")}
    required |= {("initial", k) for k, p in inspect.signature(DATUM_BUILDERS[kind])
                 .parameters.items() if p.default is p.empty}
    flags = {("flux", "family"): family, ("initial", "kind"): kind,
             ("output", "directory"): f"case{i:02d}"}
    for section, key in config_keys():  # t_end comes before snapshots
        if (section, key) in own and (section, key) not in flags and (
                (section, key) in required or rng.random() < 0.4):
            flags[section, key] = _value(rng, section, key, flags, csv_paths)
    if rng.random() < 0.2:
        dx = float(flags["mesh", "dx"])
        half = int(rng.integers(8, 30)) * dx
        flags["mesh", "x_min"], flags["mesh", "x_max"] = repr(-half), repr(half)
    fault = str(rng.choice(FAULTS)) if rng.random() < 0.4 else None
    numeric = [sk for sk in flags if sk[1] in RANGES or sk[1] == "snapshots"]
    if fault == "foreign key":
        foreign = [sk for sk in config_keys() if sk not in own and sk not in flags]
        flags[foreign[rng.integers(len(foreign))]] = "1"
    elif fault == "non-finite":
        flags[numeric[rng.integers(len(numeric))]] = str(rng.choice(["nan", "inf", "-inf"]))
    elif fault == "not a number":
        flags[numeric[rng.integers(len(numeric))]] = "fast"
    elif fault == "out of range":
        flags[numeric[rng.integers(len(numeric))]] = "-1"
    elif fault == "huge window":
        for key in ("mesh", "x_min"), ("mesh", "x_max"), ("time", "snapshots"), *(
                ("initial", k) for k in ("value", "base", "amplitude", "center", "width", "path")):
            flags.pop(key, None)
        flags["initial", "kind"] = "step"
        flags["initial", "left"], flags["initial", "right"] = "1000", "1"
        flags["time", "t_end"], command = "0.05", "run"
    argv = [command] + [f"--{s}-{k}".replace("_", "-") + f"={v}" for (s, k), v in flags.items()]
    if command == "riemann":
        argv += [f"--left={rng.uniform(-1.5, 1.5):.3f}", f"--right={rng.uniform(-1.5, 1.5):.3f}",
                 "--samples=41"]
    elif command == "steady" and rng.random() < 0.5:
        argv += [f"--anchor={rng.uniform(-2.0, 2.0):.3f}",
                 f"--branch={rng.choice(['upper', 'lower'])}",
                 f"--direction={rng.choice(['from_left', 'from_right'])}"]
    return argv, fault


def cases(csv_dir: str) -> list:
    """(argv, fault) of every case, the drawn ones, SIZE_CASES, then
    REFUSED_CASES, naming its CSVs under csv_dir ("" names them relative to
    the working directory)."""
    rng = np.random.default_rng(SEED)
    csv_paths = [os.path.join(csv_dir, name) for name in CSV_FILES]
    return [_case(rng, i, csv_paths) for i in range(N_CASES)] + SIZE_CASES + REFUSED_CASES


def write_csvs(directory) -> None:
    for name, text in CSV_FILES.items():
        if text is not None:
            with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                fh.write(text)


def _call(argv, root):
    os.environ[ENV_OUTPUT_ROOT] = root
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "manifest.json":
                manifest = json.loads(data)
                manifest.pop("runtime_seconds")
                data = manifest
            files[os.path.relpath(path, root)] = data
    return rc, out.getvalue().replace(root, "<root>"), err.getvalue(), files


def test_seeded_cli_fuzz(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, "")
    write_csvs(tmp_path)
    codes = []
    for i, (argv, fault) in enumerate(cases(str(tmp_path))):
        root = tmp_path / f"first{i:02d}"
        first = _call(argv, str(root))
        rc, _, err, files = first
        assert rc in (0, 2, 3, 4), (argv, first[1:3])
        if rc in (2, 3):
            assert not root.exists(), (argv, err)
        for name, data in files.items():
            if os.path.basename(name) == "manifest.json":
                assert sorted(os.listdir(root / os.path.dirname(name))) == data["outputs"], argv
        lines = err.splitlines()
        if rc == 0:
            assert err == "", (argv, err)
        else:
            assert len(lines) == 1 and lines[0].startswith("hetflux: "), (argv, err)
        if fault in ("foreign key", "non-finite", "not a number"):  # caught while parsing
            assert rc == 2, (argv, first[1:3])
        if fault == "huge window":
            assert rc == 2 and "set mesh.x_min and mesh.x_max" in err, (argv, err)
        if fault == "huge table":
            assert rc == 2 and "lower diagnostics.k_levels" in err, (argv, err)
        if fault == "huge samples":
            assert rc == 2 and "--samples must be at most" in err, (argv, err)
        if fault == "overflowing coefficient":
            assert rc == 2 and "(a coefficient overflows)" in err, (argv, err)
        if fault == "huge offset":
            assert rc == 2 and "more than MAX_STEPS" in err, (argv, err)
        if fault == "infinite xi":
            assert rc == 2 and "--xi-min and --xi-max must be finite" in err, (argv, err)
        assert _call(argv, str(tmp_path / f"second{i:02d}")) == first, argv
        codes.append(rc)
    assert codes.count(0) >= N_CASES // 4, codes
