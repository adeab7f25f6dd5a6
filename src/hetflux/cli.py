"""Command-line front end.

Subcommands: run, riemann, steady, diagnose, validate. Every config key has
a mirroring flag (--section-key value) that overrides the file; a config
file is optional whenever the flags supply everything the command needs.

Exit codes: 0 success, 1 usage error, 2 configuration/validation error,
3 numerical failure, 4 invariant breach.

Outputs land in [output].directory, resolved against $HETFLUX_OUTPUT_ROOT
when that is set and the directory is relative. Every output directory gets
the resolved config echo, a manifest.json (config hash, tool version,
timing, run constants), and a gnuplot script consuming the CSVs. CSV values
carry 17 significant digits by default so they round-trip exactly.

For the concave (traffic) family all file and flag values are in physical
units; the sign flip into the internal convex formulation happens here and
nowhere else.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time as _time

import numpy as np

from . import __version__
from .config import (
    FAMILY_BUILDERS,
    INITIAL_PARAMS,
    ExperimentConfig,
    _family_params,
    make_config,
    read_raw,
)
from .diagnostics import EntropyCheck, TimeVariation, consistency_rate
from .errors import ConfigError, InvariantBreach, NumericalError
from .flux_model import FluxModel, validate_assumptions
from .interface import InterfaceContext
from .riemann import sample, solve_interface, wave_census
from .solver import (
    Mesh,
    PiecewiseConstantDatum,
    SmoothDatum,
    lipschitz_bound,
    run,
)
from .steady import build_steady, envelope, envelope_constants

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BREACH = 4

ENV_OUTPUT_ROOT = "HETFLUX_OUTPUT_ROOT"


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with the documented usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _flag_specs() -> list[tuple[str, str, str]]:
    """(flag, section, key) for every config key, in stable order."""
    specs: list[tuple[str, str, str]] = []

    def add(section: str, key: str):
        flag = f"--{section}-{key}".replace("_", "-")
        specs.append((flag, section, key))

    add("flux", "family")
    seen = {"family"}
    for family in FAMILY_BUILDERS:
        for key in _family_params(family):
            if key not in seen:
                seen.add(key)
                add("flux", key)
    for key in ("dx", "x_min", "x_max"):
        add("mesh", key)
    add("initial", "kind")
    seen = {"kind"}
    for kind in INITIAL_PARAMS:
        for key in INITIAL_PARAMS[kind]:
            if key not in seen:
                seen.add(key)
                add("initial", key)
    for key in ("t_end", "snapshots", "safety", "max_dt"):
        add("time", key)
    for key in ("directory", "precision"):
        add("output", key)
    for key in ("entropy", "k_levels", "consistency", "time_variation"):
        add("diagnostics", key)
    return specs


_SPECS = _flag_specs()


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
        help="run and check entropy, conservation, consistency",
    )
    sub.add_parser(
        "validate", parents=[common], help="check flux assumptions for a model"
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


def _resolve_outdir(cfg: ExperimentConfig) -> str:
    directory = cfg.output["directory"]
    root = os.environ.get(ENV_OUTPUT_ROOT, "")
    if root and not os.path.isabs(directory):
        directory = os.path.join(root, directory)
    os.makedirs(directory, exist_ok=True)
    return directory


def _fmt(value: float, precision: int) -> str:
    return f"{float(value):.{precision - 1}e}"


def _csv_template(header: tuple[str, str], first, precision: int) -> str:
    """A two-column CSV file as text: the header, the first column formatted
    as _fmt renders it, and the second column left as one %-field per row.
    `template % tuple(second)` completes it, so files that share a first
    column format it once."""
    field = f"%.{precision - 1}e"
    rows = [field % x + "," + field + "\n" for x in np.asarray(first, dtype=float).tolist()]
    return ",".join(header) + "\n" + "".join(rows)


def _write_csv(path: str, header: tuple[str, str], columns, precision: int) -> None:
    first, second = columns
    _write_text(path, _csv_template(header, first, precision)
                % tuple(np.asarray(second, dtype=float).tolist()))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_manifest(
    outdir: str,
    cfg: ExperimentConfig,
    command: str,
    extra: dict,
    outputs: list[str],
    started: float,
) -> None:
    echo = cfg.echo()
    _write_text(os.path.join(outdir, "config.resolved.ini"), echo)
    manifest = {
        "tool": "hetflux",
        "version": __version__,
        "command": command,
        "config_source": cfg.source,
        "config_sha256": hashlib.sha256(echo.encode("utf-8")).hexdigest(),
        "outputs": sorted(outputs + ["config.resolved.ini"]),
        "runtime_seconds": round(_time.time() - started, 6),
    }
    manifest.update(extra)
    with open(
        os.path.join(outdir, "manifest.json"), "w", encoding="utf-8", newline="\n"
    ) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _plot_script(title: str, files_titles, style: str, png: str) -> str:
    lines = [
        "# gnuplot script generated by hetflux; run: gnuplot plot.gp",
        "set datafile separator ','",
        f"set title '{title}'",
        "set xlabel 'x'",
        "set ylabel 'u'",
        "set key top right",
        "set term pngcairo size 960,640",
        f"set output '{png}'",
    ]
    parts = [
        f"'{fname}' using 1:2 skip 1 with {style} title '{label}'"
        for fname, label in files_titles
    ]
    lines.append("plot " + ", \\\n     ".join(parts))
    return "\n".join(lines) + "\n"


def _to_internal_datum(model: FluxModel, datum):
    """Flip a physical-units datum into the internal convex orientation."""
    if model.orientation == "convex":
        return datum
    if isinstance(datum, PiecewiseConstantDatum):
        return PiecewiseConstantDatum(
            breakpoints=datum.breakpoints,
            values=tuple(-float(v) for v in datum.values),
        )
    return SmoothDatum(fn=lambda x: -datum(x))


def _physical_pair(model: FluxModel, lo: float, hi: float) -> tuple[float, float]:
    """Map an internal (lo, hi) interval to physical units, preserving order."""
    if model.orientation == "concave":
        return (-hi, -lo)
    return (lo, hi)


def _build_mesh(
    cfg: ExperimentConfig,
    model: FluxModel,
    datum=None,
    t_end: float = 0.0,
) -> Mesh:
    """Mesh from config; the window is auto-sized when x_min/x_max are absent.

    Auto window = heterogeneity radius + datum support + influence cone
    L * t_end, padded by two cells and snapped to a multiple of dx, so
    boundary replication cannot reach anything the run is asked to report.
    """
    mcfg = cfg.mesh
    dx = mcfg["dx"]
    if mcfg["x_min"] is not None:
        return Mesh.make(mcfg["x_min"], mcfg["x_max"], dx)
    support = cfg.datum_support_radius()
    half0 = max(model.hetero_radius, support, 1.0)
    margin = 0.0
    if t_end > 0 and datum is not None:
        probe_half = math.ceil((half0 + 1.0) / dx) * dx
        probe = Mesh.make(-probe_half, probe_half, dx)
        b = datum.bounds(probe)
        consts = envelope_constants(model, b[0], b[1])
        margin = lipschitz_bound(model, consts.lower_bound, consts.upper_bound) * t_end
    half = math.ceil((half0 + margin) / dx + 2.0) * dx
    return Mesh.make(-half, half, dx)


# ---------------------------------------------------------------------------
# subcommands


def _run_pipeline(cfg: ExperimentConfig, observers=()):
    """Shared run/diagnose pipeline: march, dump snapshots, return the pieces."""
    _require(cfg, "mesh", "initial", "time")
    started = _time.time()
    model = cfg.build_model()
    datum = _to_internal_datum(model, cfg.build_datum())
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
    outdir = _resolve_outdir(cfg)
    # Every snapshot shares the x column: format it once.
    template = _csv_template(("x", "u"), mesh.centers(), cfg.output["precision"])
    outputs = []
    labels = []
    for i, snap in enumerate(result.snapshots):
        fname = f"snapshot_{i:03d}.csv"
        u = np.asarray(model.to_physical(snap.u), dtype=float)
        _write_text(os.path.join(outdir, fname), template % tuple(u.tolist()))
        outputs.append(fname)
        labels.append((fname, f"t={snap.time:.6g}"))
    _write_text(
        os.path.join(outdir, "plot.gp"),
        _plot_script(f"{model.name}: solution snapshots", labels, "steps",
                     "snapshots.png"),
    )
    outputs.append("plot.gp")
    lo, hi = _physical_pair(model, result.envelope.lower_bound,
                            result.envelope.upper_bound)
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
            "bracket": None if result.bracket is None else list(_physical_pair(
                model, result.bracket[0].bound, result.bracket[1].bound)),
        },
        "envelope": {"lower": lo, "upper": hi},
        "run": {
            "t_end": t_end,
            "n_steps": result.n_steps,
            "snapshot_times": [s.time for s in result.snapshots],
            "mass_initial": result.mass_initial
            if model.orientation == "convex" else -result.mass_initial,
            "mass_final": result.mass_final
            if model.orientation == "convex" else -result.mass_final,
            "relative_mass_drift": result.mass_drift,
            "state_min": _physical_pair(model, result.running_min,
                                        result.running_max)[0],
            "state_max": _physical_pair(model, result.running_min,
                                        result.running_max)[1],
        },
    }
    print(
        f"run: {result.n_steps} steps to t={t_end:g} on {mesh.n_cells} cells; "
        f"envelope [{lo:.6g}, {hi:.6g}]; relative mass drift "
        f"{result.mass_drift:.3e}; outputs in {outdir}"
    )
    return result, outdir, outputs, extra, started


def cmd_run(args, cfg: ExperimentConfig) -> int:
    _, outdir, outputs, extra, started = _run_pipeline(cfg)
    _write_manifest(outdir, cfg, "run", extra, outputs + ["manifest.json"], started)
    return EXIT_OK


def cmd_riemann(args, cfg: ExperimentConfig) -> int:
    started = _time.time()
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
    u = model.to_physical(sample(sol, xi))
    outdir = _resolve_outdir(cfg)
    precision = cfg.output["precision"]
    _write_csv(os.path.join(outdir, "riemann.csv"), ("xi", "u"), (xi, u), precision)
    _write_text(
        os.path.join(outdir, "plot.gp"),
        _plot_script(
            f"{model.name}: Riemann solution ({args.left:g} | {args.right:g})",
            [("riemann.csv", "u(x/t)")], "lines", "riemann.png",
        ),
    )
    tl = float(model.to_physical(sol.trace_left))
    tr = float(model.to_physical(sol.trace_right))
    f_int = sol.interface_flux_value
    if model.orientation == "concave":
        f_int = -f_int
    census = wave_census(sol)
    extra = {
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
                    "left_state": float(model.to_physical(w.left_state)),
                    "right_state": float(model.to_physical(w.right_state)),
                }
                for w in sol.waves
            ],
        }
    }
    _write_manifest(
        outdir, cfg, "riemann",
        extra, ["riemann.csv", "plot.gp", "manifest.json"], started,
    )
    print(
        f"riemann: case {sol.case_tag}; traces ({tl:.12g}, {tr:.12g}); "
        f"interface flux {f_int:.12g}; waves "
        + ", ".join(f"{k}={v}" for k, v in sorted(census.items()))
        + f"; outputs in {outdir}"
    )
    return EXIT_OK


def cmd_steady(args, cfg: ExperimentConfig) -> int:
    _require(cfg, "mesh")
    started = _time.time()
    model = cfg.build_model()
    mesh = _build_mesh(cfg, model)
    outdir = _resolve_outdir(cfg)
    precision = cfg.output["precision"]
    xs = mesh.centers()
    outputs = []
    extra: dict = {"mesh": {"dx": mesh.dx, "x_min": mesh.x_min,
                            "x_max": mesh.x_max, "n_cells": mesh.n_cells}}
    if args.anchor is not None:
        branch = args.branch
        anchor = float(model.to_internal(args.anchor))
        if model.orientation == "concave":
            branch = {"upper": "lower", "lower": "upper"}[branch]
        state = build_steady(model, mesh, anchor, args.direction, branch)
        _write_csv(os.path.join(outdir, "steady.csv"), ("x", "v"),
                   (xs, model.to_physical(state.values)), precision)
        outputs.append("steady.csv")
        labels = [("steady.csv", f"{args.branch} branch")]
        extra["steady"] = {
            "anchor": args.anchor, "branch": args.branch,
            "direction": args.direction,
            "flux_level": state.flux_level
            if model.orientation == "convex" else -state.flux_level,
        }
        print(
            f"steady: {args.branch} branch anchored at {args.anchor:g}, "
            f"flux level {extra['steady']['flux_level']:.12g}; outputs in {outdir}"
        )
    else:
        if cfg.initial is not None:
            m, M = _to_internal_datum(model, cfg.build_datum()).bounds(mesh)
        else:
            m = M = 0.0
        env = envelope(model, mesh, m, M)
        lower_vals, upper_vals = env.lower_state.values, env.upper_state.values
        if model.orientation == "concave":
            lower_vals, upper_vals = -upper_vals, -lower_vals
        _write_csv(os.path.join(outdir, "steady_lower.csv"), ("x", "v"),
                   (xs, lower_vals), precision)
        _write_csv(os.path.join(outdir, "steady_upper.csv"), ("x", "v"),
                   (xs, upper_vals), precision)
        outputs += ["steady_lower.csv", "steady_upper.csv"]
        labels = [("steady_lower.csv", "lower steady state"),
                  ("steady_upper.csv", "upper steady state")]
        lo, hi = _physical_pair(model, env.lower_bound, env.upper_bound)
        extra["envelope"] = {
            "data_min": _physical_pair(model, env.m, env.M)[0],
            "data_max": _physical_pair(model, env.m, env.M)[1],
            "lower": lo,
            "upper": hi,
        }
        print(f"steady: envelope bounds ({lo:.12g}, {hi:.12g}); outputs in {outdir}")
    _write_text(os.path.join(outdir, "plot.gp"),
                _plot_script(f"{model.name}: steady states", labels, "steps",
                             "steady.png"))
    _write_manifest(outdir, cfg, "steady", extra,
                    outputs + ["plot.gp", "manifest.json"], started)
    return EXIT_OK


_SMOOTH_HETEROGENEOUS = ("heterogeneous_quadratic", "lwr")
_CONSISTENCY_DXS = (1.0 / 50, 1.0 / 100, 1.0 / 200, 1.0 / 400)


def cmd_diagnose(args, cfg: ExperimentConfig) -> int:
    diag = cfg.diagnostics
    entropy = EntropyCheck(n_levels=diag["k_levels"]) if diag["entropy"] else None
    variation = TimeVariation() if diag["time_variation"] else None
    result, outdir, outputs, extra, started = _run_pipeline(
        cfg, [obs for obs in (entropy, variation) if obs is not None])
    model = result.model
    precision = cfg.output["precision"]
    checks = []  # (name, metric, value, threshold, ok)

    if entropy is not None:
        rep = entropy.report()
        _write_csv(
            os.path.join(outdir, "entropy_per_k.csv"),
            ("k", "max_slack"),
            (rep.k_values, rep.max_slack_per_k),
            precision,
        )
        outputs.append("entropy_per_k.csv")
        checks.append((
            "entropy_inequality", "max slack / (1+|k|)",
            rep.worst_normalized, 1e-10, rep.ok(1e-10),
        ))
        print(rep.summary())

    checks.append((
        "conservation", "relative mass drift",
        result.mass_drift, 1e-10, result.mass_drift <= 1e-10,
    ))

    if cfg.diagnostics["consistency"] and cfg.flux["family"] in _SMOOTH_HETEROGENEOUS:
        # Crossing level at 90% of the critical band: the transition profiles
        # are flat at their ends, so a crossing too close to a band edge is
        # degenerate and reaches first order only on much finer meshes.
        curve = model.curve
        ks = (curve.alpha_min - 1.0,
              curve.alpha_min + 0.9 * (curve.alpha_max - curve.alpha_min),
              curve.alpha_max + 1.0)
        for k in ks:
            rep = consistency_rate(model, k, dx_values=_CONSISTENCY_DXS)
            ok = rep.exact or rep.slope >= 0.9
            checks.append((
                "flux_consistency", f"log-log slope at k={k:.6g}",
                rep.slope, 0.9, ok,
            ))
            print(rep.summary())

    if variation is not None:
        tv = variation.value
        checks.append(("time_variation", "sum (du)^2 dx", tv, math.inf, True))
        print(f"time variation sum: {tv:.6e}")

    report_lines = ["check,metric,value,threshold,status"]
    for name, metric, value, threshold, ok in checks:
        report_lines.append(
            f"{name},{metric},{_fmt(value, precision)},"
            f"{'inf' if math.isinf(threshold) else _fmt(threshold, precision)},"
            f"{'pass' if ok else 'fail'}"
        )
    _write_text(os.path.join(outdir, "diagnostics.csv"),
                "\n".join(report_lines) + "\n")
    outputs.append("diagnostics.csv")

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
    _write_manifest(outdir, cfg, "diagnose", extra,
                    outputs + ["manifest.json"], started)
    print(
        f"diagnose: {len(checks) - len(failures)}/{len(checks)} checks passed; "
        f"report in {outdir}/diagnostics.csv"
    )
    if failures:
        raise InvariantBreach(
            "diagnostics failed: " + ", ".join(c[0] for c in failures)
        )
    return EXIT_OK


def cmd_validate(args, cfg: ExperimentConfig) -> int:
    model = cfg.build_model()
    report = validate_assumptions(model)
    print(report.summary())
    if not report.ok:
        raise InvariantBreach(
            f"flux model violates assumptions: {len(report.violations)} finding(s)"
        )
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
