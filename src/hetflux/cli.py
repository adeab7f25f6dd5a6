"""Command-line front end.

Subcommands: run, riemann, steady, diagnose (checks of the run: entropy,
conservation, time variation), validate (checks of the model: assumptions,
then flux consistency). Every config key has a mirroring flag
(--section-key value) that overrides the file; a config file is optional
whenever the flags supply everything the command needs.

Exit codes: 0 success, 1 usage error, 2 configuration/validation error,
3 numerical failure, 4 invariant breach.

Outputs land in [output].directory, resolved against $HETFLUX_OUTPUT_ROOT
when that is set and the directory is relative. One recorder per command
(_Outputs) writes every file; it makes the directory on its first write, so
a command that fails before writing leaves none. Every output directory
gets the resolved config echo, a manifest.json (config hash, tool version,
timing, run constants, and exactly the files written), and a gnuplot script
consuming the CSVs. CSV values carry 17 significant digits by default so
they round-trip exactly.

For the concave (traffic) family all file and flag values are in physical
units. Inputs are flipped into the internal convex formulation here, the
datum by datum.map(model.to_internal), and every value written or printed
comes back through _physical. The CLI asks no datum of its kind: the auto
window (solver.cone_mesh) reads datum.support and the envelope
datum.bounds (see solver).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time as _time

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_keys, make_config, read_raw
from .diagnostics import EntropyCheck, TimeVariation, consistency_rate
from .errors import ConfigError, InvariantBreach, NumericalError
from .flux_model import FluxModel, validate_assumptions
from .interface import InterfaceContext
from .riemann import sample, solve_interface, wave_census
from .solver import MASS_DRIFT_TOL, Mesh, cone_mesh, run
from .steady import build_steady, envelope

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BREACH = 4

ENV_OUTPUT_ROOT = "HETFLUX_OUTPUT_ROOT"
# The way out of an automatic window too large to allocate.
_WINDOW_ADVICE = "set mesh.x_min and mesh.x_max"


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with the documented usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# (flag, section, key) for every config key, in the order of config_keys()
_SPECS = [(f"--{section}-{key}".replace("_", "-"), section, key)
          for section, key in config_keys()]


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process (parsing leaves it
    unchanged)."""
    parser = _Parser(
        prog="hetflux",
        description="Finite-volume solver for conservation laws with "
        "space-heterogeneous convex flux.",
    )
    parser.add_argument(
        "--version", action="version", version=f"hetflux {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", metavar="FILE", help="INI config file")
    for flag, section, key in _SPECS:
        common.add_argument(
            flag,
            dest=f"{section}__{key}",
            metavar="VALUE",
            help=f"override {section}.{key}",
        )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    sub.add_parser("run", parents=[common], help="march the scheme and dump snapshots")

    rp = sub.add_parser(
        "riemann", parents=[common], help="sample the exact Riemann solution"
    )
    rp.add_argument("--left", type=float, required=True, help="left datum state")
    rp.add_argument("--right", type=float, required=True, help="right datum state")
    rp.add_argument("--xi-min", type=float, default=-3.0, help="left end of the x/t grid")
    rp.add_argument("--xi-max", type=float, default=3.0, help="right end of the x/t grid")
    rp.add_argument("--samples", type=int, default=601, help="number of grid points")

    st = sub.add_parser(
        "steady", parents=[common], help="construct discrete steady states"
    )
    st.add_argument(
        "--anchor", type=float, default=None,
        help="left-end state pinning a single steady state (default: build the "
        "envelope pair for the initial datum bounds)",
    )
    st.add_argument(
        "--branch", choices=("upper", "lower"), default="upper",
        help="branch for --anchor mode",
    )
    st.add_argument(
        "--direction", choices=("from_left", "from_right"), default="from_left",
        help="which end the anchor pins",
    )

    sub.add_parser(
        "diagnose", parents=[common],
        help="run and check entropy, conservation, time variation",
    )
    sub.add_parser(
        "validate", parents=[common], help="check a model's assumptions and flux consistency"
    )
    return parser


# ---------------------------------------------------------------------------
# shared plumbing


def _load_config(args) -> ExperimentConfig:
    raw = read_raw(args.config) if args.config else {}
    for _, section, key in _SPECS:
        val = getattr(args, f"{section}__{key}", None)
        if val is not None:
            raw.setdefault(section, {})[key] = val
    return make_config(raw, source=args.config or "<flags>")


def _require(cfg: ExperimentConfig, *sections: str) -> None:
    for s in sections:
        if getattr(cfg, s) is None:
            raise ConfigError(f"missing [{s}] section (required by this command)")


def _fmt(value: float, precision: int) -> str:
    return f"{float(value):.{precision - 1}e}"


def _csv_template(header: tuple[str, str], first, precision: int) -> str:
    """A two-column CSV file as text: the header, the first column formatted
    as _fmt renders it, and the second column left as one %-field per row.
    `template % tuple(second)` completes it, so files that share a first
    column format it once."""
    xs = tuple(np.asarray(first, dtype=float).tolist())
    return ",".join(header) + "\n" + (f"%.{precision - 1}e,%%.{precision - 1}e\n" * len(xs)) % xs


class _Outputs:
    """The files of one command. The output directory, [output].directory
    resolved against $HETFLUX_OUTPUT_ROOT when that is set and the directory
    is relative, is made on the first write; the manifest lists exactly the
    files written."""

    def __init__(self, cfg: ExperimentConfig, command: str):
        self.cfg, self.command = cfg, command
        self.started = _time.time()
        self.precision = cfg.output["precision"]
        self.directory = cfg.output["directory"]
        root = os.environ.get(ENV_OUTPUT_ROOT, "")
        if root and not os.path.isabs(self.directory):
            self.directory = os.path.join(root, self.directory)
        self.written: list[str] = []

    def text(self, name: str, text: str) -> None:
        os.makedirs(self.directory, exist_ok=True)
        with open(os.path.join(self.directory, name), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(text)
        self.written.append(name)

    def csv(self, name: str, header: tuple[str, str], first, second) -> None:
        self.text(name, _csv_template(header, first, self.precision)
                  % tuple(np.asarray(second, dtype=float).tolist()))

    def plot(self, title: str, files_titles, style: str, png: str) -> None:
        """plot.gp, a gnuplot script drawing the CSVs files_titles names."""
        parts = [f"'{fname}' using 1:2 skip 1 with {style} title '{label}'"
                 for fname, label in files_titles]
        self.text("plot.gp", "\n".join([
            "# gnuplot script generated by hetflux; run: gnuplot plot.gp",
            "set datafile separator ','",
            f"set title '{title}'",
            "set xlabel 'x'",
            "set ylabel 'u'",
            "set key top right",
            "set term pngcairo size 960,640",
            f"set output '{png}'",
            "plot " + ", \\\n     ".join(parts),
        ]) + "\n")

    def manifest(self, extra: dict) -> None:
        """The config echo and manifest.json, the last two files."""
        echo = self.cfg.echo()
        self.text("config.resolved.ini", echo)
        manifest = {
            "tool": "hetflux",
            "version": __version__,
            "command": self.command,
            "config_source": self.cfg.source,
            "config_sha256": hashlib.sha256(echo.encode("utf-8")).hexdigest(),
            "outputs": sorted(self.written + ["manifest.json"]),
            "runtime_seconds": round(_time.time() - self.started, 6),
            **extra,
        }
        self.text("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _physical(model: FluxModel, *values):
    """Solver values (states, masses, flux levels) in physical units, as
    floats or float arrays. Two values are an interval (lo, hi) and come
    back lower end first."""
    out = [float(v) if np.ndim(v) == 0 else np.asarray(v, dtype=float)
           for v in map(model.to_physical, values)]
    if len(out) == 2 and np.any(out[1] < out[0]):
        out.reverse()
    return out[0] if len(out) == 1 else tuple(out)


def _build_mesh(cfg: ExperimentConfig, model: FluxModel, datum=None, t_end: float = 0.0) -> Mesh:
    """Mesh from config; the window is auto-sized when x_min/x_max are absent.

    Auto window: solver.cone_mesh of [-s, s], s = max(datum support, 1),
    with reach the envelope L * t_end, the envelope of the datum's bounds on
    the cone of reach 1. It refuses a datum of unknown (infinite) support.
    """
    mcfg = cfg.mesh
    dx = mcfg["dx"]
    if mcfg["x_min"] is not None:
        return Mesh.make(mcfg["x_min"], mcfg["x_max"], dx)
    s = max(0.0 if datum is None else datum.support, 1.0)
    margin = 0.0
    if t_end > 0 and datum is not None:
        b = datum.bounds(cone_mesh(model, -s, s, 1.0, dx, pad=0, advice=_WINDOW_ADVICE))
        margin = envelope(model, None, b[0], b[1]).lipschitz * t_end
    return cone_mesh(model, -s, s, margin, dx, advice=_WINDOW_ADVICE)


# ---------------------------------------------------------------------------
# subcommands


def _run_pipeline(cfg: ExperimentConfig, out: _Outputs, observers=()):
    """Shared run/diagnose pipeline: march, dump snapshots, return the result
    and the manifest's run sections."""
    _require(cfg, "mesh", "initial", "time")
    model = cfg.build_model()
    datum = cfg.build_datum().map(model.to_internal)
    t_end = cfg.time["t_end"]
    mesh = _build_mesh(cfg, model, datum, t_end)
    result = run(
        model,
        mesh,
        datum,
        t_end,
        snapshot_times=(0.0,) + tuple(cfg.time["snapshots"]),
        safety=cfg.time["safety"],
        max_dt=cfg.time["max_dt"],
        observers=observers,
    )
    # The envelope computes its bounds when read: before any write, so a failure writes nothing.
    lo, hi = _physical(model, result.envelope.lower_bound, result.envelope.upper_bound)
    # Every snapshot shares the x column: format it once.
    template = _csv_template(("x", "u"), mesh.centers(), out.precision)
    labels = []
    for i, snap in enumerate(result.snapshots):
        fname = f"snapshot_{i:03d}.csv"
        out.text(fname, template % tuple(_physical(model, snap.u).tolist()))
        labels.append((fname, f"t={snap.time:.6g}"))
    out.plot(f"{model.name}: solution snapshots", labels, "steps", "snapshots.png")
    state_min, state_max = _physical(model, result.running_min, result.running_max)
    extra = {
        "mesh": {
            "dx": mesh.dx, "x_min": mesh.x_min, "x_max": mesh.x_max,
            "n_cells": mesh.n_cells,
        },
        "cfl": {
            "dt_nominal": result.cfl.dt(mesh.dx),
            "lambda": result.cfl.dt(mesh.dx) / mesh.dx,
            "lipschitz": result.cfl.lipschitz,
            "safety": result.cfl.safety,
            "bound": result.cfl.bound,
            "bracket": None if result.bracket is None else list(_physical(
                model, result.bracket[0].bound, result.bracket[1].bound)),
        },
        "envelope": {"lower": lo, "upper": hi},
        "run": {
            "t_end": t_end,
            "n_steps": result.n_steps,
            "snapshot_times": [s.time for s in result.snapshots],
            "mass_initial": _physical(model, result.mass_initial),
            "mass_final": _physical(model, result.mass_final),
            "relative_mass_drift": result.mass_drift,
            "state_min": state_min,
            "state_max": state_max,
        },
    }
    print(
        f"run: {result.n_steps} steps to t={t_end:g} on {mesh.n_cells} cells; "
        f"envelope [{lo:.6g}, {hi:.6g}]; relative mass drift "
        f"{result.mass_drift:.3e}; outputs in {out.directory}"
    )
    return result, extra


def cmd_run(args, cfg: ExperimentConfig) -> int:
    out = _Outputs(cfg, "run")
    out.manifest(_run_pipeline(cfg, out)[1])
    return EXIT_OK


def cmd_riemann(args, cfg: ExperimentConfig) -> int:
    out = _Outputs(cfg, "riemann")
    if args.samples < 2:
        raise ConfigError("--samples must be at least 2")
    if not args.xi_min < args.xi_max:
        raise ConfigError("--xi-min must be below --xi-max")
    model = cfg.build_model()
    X = model.hetero_radius
    ctx = InterfaceContext.from_model(model, -(X + 1.0), X + 1.0)
    u_l = float(model.to_internal(args.left))
    u_r = float(model.to_internal(args.right))
    sol = solve_interface(ctx, u_l, u_r)
    xi = np.linspace(args.xi_min, args.xi_max, args.samples)
    out.csv("riemann.csv", ("xi", "u"), xi, _physical(model, sample(sol, xi)))
    out.plot(f"{model.name}: Riemann solution ({args.left:g} | {args.right:g})",
             [("riemann.csv", "u(x/t)")], "lines", "riemann.png")
    tl = _physical(model, sol.trace_left)
    tr = _physical(model, sol.trace_right)
    f_int = _physical(model, sol.interface_flux_value)
    census = wave_census(sol)
    out.manifest({
        "riemann": {
            "u_left": args.left,
            "u_right": args.right,
            "case": sol.case_tag,
            "trace_left": tl,
            "trace_right": tr,
            "interface_flux": f_int,
            "waves": [
                {
                    "kind": w.kind,
                    "side": w.side,
                    "speed_min": w.speed_min,
                    "speed_max": w.speed_max,
                    "left_state": _physical(model, w.left_state),
                    "right_state": _physical(model, w.right_state),
                }
                for w in sol.waves
            ],
        }
    })
    print(
        f"riemann: case {sol.case_tag}; traces ({tl:.12g}, {tr:.12g}); "
        f"interface flux {f_int:.12g}; waves "
        + ", ".join(f"{k}={v}" for k, v in sorted(census.items()))
        + f"; outputs in {out.directory}"
    )
    return EXIT_OK


def cmd_steady(args, cfg: ExperimentConfig) -> int:
    _require(cfg, "mesh")
    out = _Outputs(cfg, "steady")
    model = cfg.build_model()
    # [initial] is read only where it counts: for an auto window or envelope mode.
    datum = None
    if cfg.initial is not None and (cfg.mesh["x_min"] is None or args.anchor is None):
        datum = cfg.build_datum().map(model.to_internal)
    mesh = _build_mesh(cfg, model, datum)
    xs = mesh.centers()
    extra: dict = {"mesh": {"dx": mesh.dx, "x_min": mesh.x_min,
                            "x_max": mesh.x_max, "n_cells": mesh.n_cells}}
    if args.anchor is not None:
        branch = args.branch
        if model.orientation == "concave":
            branch = {"upper": "lower", "lower": "upper"}[branch]
        state = build_steady(model, mesh, float(model.to_internal(args.anchor)),
                             args.direction, branch)
        out.csv("steady.csv", ("x", "v"), xs, _physical(model, state.values))
        labels = [("steady.csv", f"{args.branch} branch")]
        level = _physical(model, state.flux_level)
        extra["steady"] = {"anchor": args.anchor, "branch": args.branch,
                           "direction": args.direction, "flux_level": level}
        print(
            f"steady: {args.branch} branch anchored at {args.anchor:g}, "
            f"flux level {level:.12g}; outputs in {out.directory}"
        )
    else:
        env = envelope(model, mesh, *(datum.bounds(mesh) if datum is not None else (0.0, 0.0)))
        lower, upper = _physical(model, env.lower_state.values, env.upper_state.values)
        out.csv("steady_lower.csv", ("x", "v"), xs, lower)
        out.csv("steady_upper.csv", ("x", "v"), xs, upper)
        labels = [("steady_lower.csv", "lower steady state"),
                  ("steady_upper.csv", "upper steady state")]
        lo, hi = _physical(model, env.lower_bound, env.upper_bound)
        data_min, data_max = _physical(model, env.m, env.M)
        extra["envelope"] = {"data_min": data_min, "data_max": data_max,
                             "lower": lo, "upper": hi}
        print(f"steady: envelope bounds ({lo:.12g}, {hi:.12g}); outputs in {out.directory}")
    out.plot(f"{model.name}: steady states", labels, "steps", "steady.png")
    out.manifest(extra)
    return EXIT_OK


def cmd_diagnose(args, cfg: ExperimentConfig) -> int:
    out = _Outputs(cfg, "diagnose")
    diag = cfg.diagnostics
    entropy = EntropyCheck(n_levels=diag["k_levels"]) if diag["entropy"] else None
    variation = TimeVariation() if diag["time_variation"] else None
    result, extra = _run_pipeline(
        cfg, out, [obs for obs in (entropy, variation) if obs is not None])
    model = result.model
    checks = []  # (name, metric, value, threshold, ok)

    if entropy is not None:
        # The levels are in solver coordinates; report them in physical ones.
        rep = entropy.report()
        rep = dataclasses.replace(rep, k_values=_physical(model, rep.k_values),
                                  worst_k=_physical(model, rep.worst_k))
        out.csv("entropy_per_k.csv", ("k", "max_slack"), rep.k_values, rep.max_slack_per_k)
        checks.append(("entropy_inequality", "max slack / (1+|k|)",
                       rep.worst_normalized, 1e-10, rep.ok(1e-10)))
        print(rep.summary())

    checks.append(("conservation", "relative mass drift",
                   result.mass_drift, MASS_DRIFT_TOL, result.mass_drift <= MASS_DRIFT_TOL))

    if variation is not None:
        tv = variation.value
        checks.append(("time_variation", "sum (du)^2 dx", tv, math.inf, True))
        print(f"time variation sum: {tv:.6e}")

    report_lines = ["check,metric,value,threshold,status"]
    for name, metric, value, threshold, ok in checks:
        report_lines.append(
            f"{name},{metric},{_fmt(value, out.precision)},"
            f"{'inf' if math.isinf(threshold) else _fmt(threshold, out.precision)},"
            f"{'pass' if ok else 'fail'}"
        )
    out.text("diagnostics.csv", "\n".join(report_lines) + "\n")

    failures = [c for c in checks if not c[4]]
    extra["diagnostics"] = {
        "checks": [
            {"name": n, "metric": m, "value": v,
             "threshold": None if math.isinf(th) else th,
             "status": "pass" if ok else "fail"}
            for n, m, v, th, ok in checks
        ],
        "failures": len(failures),
    }
    out.manifest(extra)
    print(
        f"diagnose: {len(checks) - len(failures)}/{len(checks)} checks passed; "
        f"report in {out.directory}/diagnostics.csv"
    )
    if failures:
        raise InvariantBreach("diagnostics failed: " + ", ".join(c[0] for c in failures))
    return EXIT_OK


# validate's consistency sweep, in units of max(X, 1): as many cells across
# the heterogeneity whatever its size, and X <= 1 keeps these steps.
_CONSISTENCY_DXS = (1.0 / 50, 1.0 / 100, 1.0 / 200, 1.0 / 400)


def cmd_validate(args, cfg: ExperimentConfig) -> int:
    """Assumptions, then (when they hold and diagnostics.consistency is on)
    first-order flux consistency at three levels: below the critical band,
    90% up it (a crossing at a band edge is degenerate), and above it, on
    the steps _CONSISTENCY_DXS scaled by max(X, 1)."""
    model = cfg.build_model()
    report = validate_assumptions(model)
    print(report.summary())
    if not report.ok:
        raise InvariantBreach(
            f"flux model violates assumptions: {len(report.violations)} finding(s)"
        )
    if cfg.diagnostics["consistency"]:
        curve, dxs = model.curve, [max(model.hetero_radius, 1.0) * dx for dx in _CONSISTENCY_DXS]
        low = []
        for k in (curve.alpha_min - 1.0,
                  curve.alpha_min + 0.9 * (curve.alpha_max - curve.alpha_min),
                  curve.alpha_max + 1.0):
            rep = consistency_rate(model, k, dx_values=dxs)
            print(rep.summary())
            if not (rep.exact or rep.slope >= 0.9):
                low.append(f"k={k:.6g} (slope {rep.slope:.3f})")
        if low:
            raise InvariantBreach("flux consistency below first order at " + ", ".join(low))
    return EXIT_OK


HANDLERS = {
    "run": cmd_run,
    "riemann": cmd_riemann,
    "steady": cmd_steady,
    "diagnose": cmd_diagnose,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Overflow and NaN surface as the errors below, each as one line;
        # numpy's floating-point warnings would only precede them on stderr.
        with np.errstate(all="ignore"):
            cfg = _load_config(args)
            return HANDLERS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"hetflux: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"hetflux: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InvariantBreach as exc:
        print(f"hetflux: invariant breach: {exc}", file=sys.stderr)
        return EXIT_BREACH


if __name__ == "__main__":
    sys.exit(main())
