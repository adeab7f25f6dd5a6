"""Seeded inputs, timed passes and correctness gates of the three workloads.

Every workload exposes the same four steps:

* `__init__(root, seed, tiny)` draws the inputs from the seed;
* `setup(hooks)` runs the public call path of every input up to its first
  time step (the step kernel raises `FirstStep`), which is the set-up cost;
* `run_pass(hooks)` is one timed pass over the inputs and returns one
  `Outcome` per library operation;
* `check(outcomes, full)` applies the correctness gate and returns a list
  of failure messages for each outcome. `full` adds the expensive checks (exact
  L1 errors, steady residuals, exact-profile relations); they run on the
  first pass only, and later passes must reproduce its state digests.

Inputs are templates stratified by family (march) and germ case (exact);
the datum bounds handed to `run` are fixed per template, so the step count,
and with it the time of a pass, does not depend on the seed. The seed sets
the order of the inputs and jitters the data that have no exact solution
(the bump and traffic data of march) by a few percent. Riemann data stay
fixed: their L1 error against the exact profile moves by several percent
with the sub-cell position of each wave, which would drown the bound on
l1_error.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import hetflux
import hetflux.cli
import hetflux.config
import hetflux.riemann
import hetflux.solver

T_END = 0.5
JITTER = 0.05
# Slack on envelope containment, as in acceptance criterion 2.
ENVELOPE_SLACK = 1e-12
MASS_DRIFT_MAX = 1e-10
# Exact-profile relations hold to the root-solve residual (criteria 3 and 4).
PROFILE_TOL = 1e-12
# Slowest convergence order acceptance criterion 5 admits.
MIN_ORDER = 0.6


@dataclass
class Outcome:
    """One library operation of a pass: its result or the error it raised."""

    label: str
    kind: str
    value: object = None
    error: str | None = None
    digest: str | None = None
    seconds: float = 0.0
    extra: dict = field(default_factory=dict)


class NoTrace:
    """Hooks of an untraced pass: models pass through unchanged."""

    @staticmethod
    def model(model):
        return model

    @staticmethod
    def begin_input(name, group):
        pass


class Workload:
    """Inputs, passes and gate of one workload (see the module docstring)."""

    name = ""

    def output_bytes(self) -> int:
        """Bytes of files the last pass wrote."""
        return 0

    def discard_outputs(self) -> None:
        """Remove the files the last pass wrote."""


class FirstStep(Exception):
    """Raised by the step kernel while set-up is being timed."""


@contextlib.contextmanager
def stop_at_first_step():
    """Make `Scheme.step_arrays` raise FirstStep for the duration."""
    scheme = hetflux.solver.Scheme
    original = scheme.__dict__["step_arrays"]

    def stop(self, u, dt):
        raise FirstStep

    scheme.step_arrays = stop
    try:
        yield
    finally:
        scheme.step_arrays = original


def attempt(outcomes, label, kind, fn, *args, **kwargs):
    """Call fn; record its result or the error it raised, and its duration."""
    t0 = time.perf_counter()
    try:
        value = fn(*args, **kwargs)
    except Exception as exc:  # any raised error is a failed operation
        outcomes.append(Outcome(label, kind, error=f"{type(exc).__name__}: {exc}",
                                seconds=time.perf_counter() - t0))
        return None
    outcomes.append(Outcome(label, kind, value=value, seconds=time.perf_counter() - t0))
    return value


def setup_attempt(outcomes, label, fn, *args, **kwargs):
    """Call fn until its first time step; a return is fine, an error fails."""
    try:
        fn(*args, **kwargs)
    except FirstStep:
        pass
    except Exception as exc:  # any raised error is a failed operation
        outcomes.append(Outcome(label, "setup", error=f"{type(exc).__name__}: {exc}"))
        return
    outcomes.append(Outcome(label, "setup"))


def digest(u) -> str:
    return hashlib.sha256(np.ascontiguousarray(u, dtype=float).tobytes()).hexdigest()


def l1_tolerance(sol, window: tuple[float, float], dx: float) -> float:
    """TV |window| dx^0.6, TV the total variation of the exact solution.

    Error decay at the slowest order acceptance criterion 5 admits, with a
    unit constant per unit of variation and of window length.
    """
    tv = sum(abs(w.right_state - w.left_state) for w in sol.waves)
    return tv * (window[1] - window[0]) * dx**MIN_ORDER


def run_failures(res) -> list[str]:
    """Mass balance, finiteness and envelope containment of a RunResult.

    Mass is recomputed from the final state, not read from the result.
    """
    out = []
    u = np.asarray(res.final.u, dtype=float)
    dx = res.mesh.dx
    if not np.all(np.isfinite(u)):
        return ["final state is not finite"]
    mass = float(np.sum(u)) * dx
    expected = res.mass_initial - res.boundary_net_outflow
    scale = max(abs(res.mass_initial), abs(mass), float(np.sum(np.abs(u))) * dx, 1e-30)
    drift = abs(mass - expected) / scale
    if drift > MASS_DRIFT_MAX:
        out.append(f"relative mass drift {drift:.3e} > {MASS_DRIFT_MAX:g}")
    lo, hi = res.envelope.lower_bound, res.envelope.upper_bound
    lo_seen = min(res.running_min, float(np.min(u)))
    hi_seen = max(res.running_max, float(np.max(u)))
    if lo_seen < lo - ENVELOPE_SLACK or hi_seen > hi + ENVELOPE_SLACK:
        out.append(f"state range [{lo_seen:.6g}, {hi_seen:.6g}] leaves envelope "
                   f"[{lo:.6g}, {hi:.6g}]")
    return out


def steady_failures(res) -> list[str]:
    """Both envelope steady states must be fixed points to rounding level."""
    out = []
    for state in (res.envelope.lower_state, res.envelope.upper_state):
        r = hetflux.steady_residual(state, res.model, res.mesh)
        if r > PROFILE_TOL * (1.0 + abs(state.flux_level)):
            out.append(f"steady residual {r:.3e} at flux level {state.flux_level:.6g}")
    return out


def steady_residual_max(res) -> float:
    return max(hetflux.steady_residual(s, res.model, res.mesh)
               for s in (res.envelope.lower_state, res.envelope.upper_state))


def profile_mismatch(sol, xi: np.ndarray, u: np.ndarray) -> float:
    """Largest violation of the exact profile's defining relations on xi.

    Constant pieces must carry their state exactly; inside a fan the sampled
    state must invert the wave speed, f'(u) = xi.
    """
    rarefaction = hetflux.riemann.KIND_RAREFACTION
    worst = 0.0
    lo = -math.inf
    cur = sol.u_left
    for w in sol.waves:
        piece = (xi >= lo) & (xi < w.speed_min)
        if piece.any():
            worst = max(worst, float(np.max(np.abs(u[piece] - cur))))
        lo = w.speed_min
        if w.kind == rarefaction:
            flux = sol.ctx.right if w.side == hetflux.riemann.SIDE_RIGHT else sol.ctx.left
            fan = (xi >= w.speed_min) & (xi < w.speed_max)
            if fan.any():
                res = np.abs(np.asarray(flux.df(u[fan]), dtype=float) - xi[fan])
                worst = max(worst, float(np.max(res / (1.0 + np.abs(xi[fan])))))
            lo = w.speed_max
        cur = w.right_state
    piece = xi >= lo
    if piece.any():
        worst = max(worst, float(np.max(np.abs(u[piece] - cur))))
    return worst


def l1_check(u, mesh, sol, t_end, window) -> tuple[float, list[str]]:
    """L1 error of a state against an exact solution, and its gate."""
    err = float(hetflux.riemann_error(u, mesh, sol, t_end, window))
    return err, l1_failures(err, sol, window, mesh.dx)


def l1_failures(err, sol, window, dx) -> list[str]:
    tol = l1_tolerance(sol, window, dx)
    return [] if err <= tol else [f"L1 error {err:.4e} > {tol:.4e}"]


# ---------------------------------------------------------------------------
# march: the four built-in families on one fine mesh


@dataclass
class MarchInput:
    name: str
    model: object
    datum: object
    bounds: tuple[float, float]
    riemann: tuple[float, float] | None = None  # (u_l, u_r) of a step at 0


class March(Workload):
    """Library `run()` for each built-in family on a fine mesh of [-4, 4]."""

    name = "march"
    window = (-3.0, 3.0)

    def __init__(self, root: str, seed: int, tiny: bool = False):
        rng = np.random.default_rng([seed, 1])

        def j():
            return float(rng.uniform(-JITTER, JITTER))

        self.mesh = hetflux.Mesh.make(-4.0, 4.0, 0.05 if tiny else 0.002)
        self.t_end = 0.05 if tiny else T_END
        # Datum bounds are fixed per family (in solver coordinates, so the
        # traffic densities 0.3..0.7 appear negated); the jitter stays inside.
        inputs = [
            MarchInput("quadratic", hetflux.quadratic(), hetflux.datum_step(1.0, -0.5),
                       (-0.55, 1.05), riemann=(1.0, -0.5)),
            MarchInput("two_state", hetflux.two_state(), hetflux.datum_step(-1.0, 1.0),
                       (-1.05, 1.05), riemann=(-1.0, 1.0)),
            MarchInput("heterogeneous_quadratic", hetflux.heterogeneous_quadratic(),
                       hetflux.datum_bump(0.2 + j(), 1.0 + j(), center=j(), width=1.0 + j()),
                       (0.15, 1.3)),
            MarchInput("lwr", hetflux.lwr(), hetflux.PiecewiseConstantDatum(
                breakpoints=(-1.0 + j(), 0.5 + j()),
                values=(-0.3 + j(), -0.7 + j(), -0.5 + j())), (-0.75, -0.25)),
        ]
        self.inputs = [inputs[i] for i in rng.permutation(len(inputs))]

    def setup(self, hooks=NoTrace):
        outcomes = []
        for inp in self.inputs:
            hooks.begin_input(inp.name, "builtin")
            setup_attempt(outcomes, inp.name, hetflux.run, hooks.model(inp.model),
                          self.mesh, inp.datum, self.t_end, datum_bounds=inp.bounds)
        return outcomes

    def run_pass(self, hooks=NoTrace):
        outcomes = []
        for inp in self.inputs:
            hooks.begin_input(inp.name, "builtin")
            attempt(outcomes, inp.name, "run", hetflux.run, hooks.model(inp.model),
                    self.mesh, inp.datum, self.t_end, datum_bounds=inp.bounds)
        return outcomes

    def check(self, outcomes, full: bool):
        failures = []
        for inp, oc in zip(self.inputs, outcomes):
            failures.append([])
            if oc.error:
                continue
            res = oc.value
            oc.digest = digest(res.final.u)
            oc.extra["cell_updates"] = res.mesh.n_cells * res.n_steps
            fails = run_failures(res)
            if full:
                fails += steady_failures(res)
                if inp.riemann is not None:
                    sol = exact_for(inp.name, res.model, *inp.riemann)
                    err, f = l1_check(res.final.u, res.mesh, sol, self.t_end, self.window)
                    oc.extra["l1_error"] = err
                    fails += f
            failures[-1] = fails
        return failures


def exact_for(family: str, model, u_l: float, u_r: float):
    """Exact Riemann solution of a step at x = 0 (quadratic or two_state)."""
    if family == "quadratic":
        return hetflux.solve_classical(hetflux.FluxSide.from_model(model, 0.0), u_l, u_r)
    ctx = hetflux.InterfaceContext.from_model(model, -1.0, 1.0)
    return hetflux.solve_interface(ctx, u_l, u_r)


# ---------------------------------------------------------------------------
# exact: two-flux Riemann problems, stratified by germ case


def custom_pair() -> "hetflux.FluxModel":
    """Hint-free glued pair: u^2/2 + u^4/12 for x <= 0, cosh u - 1 for x > 0."""

    def h(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return np.where(x <= 0.0, 0.5 * u**2 + u**4 / 12.0, np.cosh(u) - 1.0)

    def du_h(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return np.where(x <= 0.0, u + u**3 / 3.0, np.sinh(u))

    def dx_h(x, u):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(u)).shape)

    return hetflux.FluxModel(h=h, du_h=du_h, dx_h=dx_h, hetero_radius=0.5,
                             name="custom_pair")


# Both models have their critical points at 0 on each side, so a case is the
# quadrant of (u_l, u_r): I both <= 0, II left <= 0 < right, III left > 0 >=
# right, IV both > 0. Two templates per case, with different wave patterns.
CASE_TEMPLATES = {
    "I": ((-1.0, -0.5), (-0.3, -0.8)),
    "II": ((-1.0, 1.0), (-0.5, 0.8)),
    "III": ((1.0, -1.0), (1.0, -0.5)),
    "IV": ((0.5, 1.0), (1.0, 0.4)),
}
EXACT_BOUNDS = (-1.0, 1.0)


@dataclass
class ExactInput:
    name: str
    group: str  # "builtin" or "custom"
    case: str
    u_l: float
    u_r: float


class Exact(Workload):
    """solve_interface, sample, run and riemann_error on seeded two-flux data."""

    name = "exact"
    window = (-2.5, 2.5)

    def __init__(self, root: str, seed: int, tiny: bool = False):
        self.models = {"builtin": hetflux.two_state(), "custom": custom_pair()}
        self.mesh = hetflux.Mesh.make(-3.0, 3.0, 0.05 if tiny else 0.01)
        self.t_end = 0.1 if tiny else T_END
        self.xi = np.linspace(-3.0, 3.0, 61 if tiny else 601)
        inputs = [ExactInput(f"{group}/{case}{k}", group, case, ul, ur)
                  for group in self.models
                  for case, templates in CASE_TEMPLATES.items()
                  for k, (ul, ur) in enumerate(templates)]
        order = np.random.default_rng([seed, 2]).permutation(len(inputs))
        self.inputs = [inputs[i] for i in order]

    def setup(self, hooks=NoTrace):
        outcomes = []
        for inp in self.inputs:
            hooks.begin_input(inp.name, inp.group)
            setup_attempt(outcomes, inp.name, hetflux.run,
                          hooks.model(self.models[inp.group]), self.mesh,
                          hetflux.datum_step(inp.u_l, inp.u_r), self.t_end,
                          datum_bounds=EXACT_BOUNDS)
        return outcomes

    def run_pass(self, hooks=NoTrace):
        outcomes = []
        models = {g: hooks.model(m) for g, m in self.models.items()}
        ctxs = {}
        for inp in self.inputs:
            hooks.begin_input(inp.name, inp.group)
            model = models[inp.group]
            if inp.group not in ctxs:
                ctxs[inp.group] = attempt(outcomes, f"{inp.group}/context", "context",
                                          hetflux.InterfaceContext.from_model,
                                          model, -1.0, 1.0)
            ctx = ctxs[inp.group]
            if inp.group == "custom":
                attempt(outcomes, inp.name, "validate", hetflux.validate_assumptions, model)
            sol = None
            if ctx is not None:
                sol = attempt(outcomes, inp.name, "solve", hetflux.solve_interface,
                              ctx, inp.u_l, inp.u_r)
            if sol is not None:
                attempt(outcomes, inp.name, "sample", hetflux.sample, sol, self.xi)
            res = attempt(outcomes, inp.name, "run", hetflux.run, model, self.mesh,
                          hetflux.datum_step(inp.u_l, inp.u_r), self.t_end,
                          datum_bounds=EXACT_BOUNDS)
            if sol is not None and res is not None:
                attempt(outcomes, inp.name, "riemann_error", hetflux.riemann_error,
                        res.final.u, self.mesh, sol, self.t_end, self.window)
            else:
                outcomes.append(Outcome(inp.name, "riemann_error",
                                        error="skipped: solve or run failed"))
        return outcomes

    def check(self, outcomes, full: bool):
        failures = []
        by_input = {inp.name: inp for inp in self.inputs}
        sols = {}
        for oc in outcomes:
            fails = []
            failures.append(fails)
            if oc.error:
                continue
            inp = by_input.get(oc.label)
            if oc.kind == "validate":
                # The glue point x = 0 is a jump in x, so the x-derivative
                # check must flag it, and nothing else may be flagged.
                fails += [f"{v.kind} at x={v.x:g}" for v in oc.value.violations
                          if v.kind != "derivative-mismatch-x" or v.x != 0.0]
            elif oc.kind == "solve":
                sol = oc.value
                sols[oc.label] = sol
                fails += solution_failures(sol, inp.case)
            elif oc.kind == "sample":
                oc.digest = digest(oc.value)
                if full:
                    bad = profile_mismatch(sols[oc.label], self.xi, np.asarray(oc.value))
                    if bad > PROFILE_TOL:
                        fails.append(f"exact profile off by {bad:.3e}")
            elif oc.kind == "run":
                res = oc.value
                oc.digest = digest(res.final.u)
                oc.extra["cell_updates"] = res.mesh.n_cells * res.n_steps
                fails += run_failures(res) + (steady_failures(res) if full else [])
            elif oc.kind == "riemann_error":
                oc.extra["l1_error"] = float(oc.value)
                oc.digest = repr(float(oc.value))
                fails += l1_failures(float(oc.value), sols[oc.label], self.window,
                                     self.mesh.dx)
        return failures


def solution_failures(sol, case: str) -> list[str]:
    """Germ case, trace admissibility and flux continuity of a solution."""
    out = []
    if sol.case_tag != case:
        out.append(f"case {sol.case_tag}, drawn as {case}")
    if not hetflux.classify_germ(sol.ctx, sol.trace_left, sol.trace_right).is_member:
        out.append("interface traces are not a germ pair")
    f = sol.interface_flux_value
    for side, trace in ((sol.ctx.left, sol.trace_left), (sol.ctx.right, sol.trace_right)):
        if abs(float(side.f(trace)) - f) > PROFILE_TOL * (1.0 + abs(f)):
            out.append(f"trace flux {float(side.f(trace)):.15g} != interface flux {f:.15g}")
    return out


# ---------------------------------------------------------------------------
# cli: `hetflux run` and `hetflux diagnose` on every shipped config


class Cli(Workload):
    """`hetflux run` then `hetflux diagnose` on every config, in process."""

    name = "cli"
    window = (-1.5, 1.5)
    TINY_FLAGS = ("--mesh-dx", "0.05", "--time-t-end", "0.1", "--time-snapshots", "0.05")

    def __init__(self, root: str, seed: int, tiny: bool = False):
        config_dir = os.path.join(root, "configs")
        names = sorted(f for f in os.listdir(config_dir) if f.endswith(".ini"))
        if not names:
            raise FileNotFoundError(f"no configs in {config_dir}")
        order = np.random.default_rng([seed, 3]).permutation(len(names))
        self.configs = [os.path.join(config_dir, names[i]) for i in order]
        self.flags = self.TINY_FLAGS if tiny else ()
        self.work = os.path.join(root, "perfbench", "out")
        self.last_root = None

    def _main(self, hooks, outcomes, path, command, out_root, record):
        hooks.begin_input(f"{os.path.basename(path)}:{command}", "builtin")
        os.environ["HETFLUX_OUTPUT_ROOT"] = os.path.join(out_root, command)
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            argv = [command, "-c", path, *self.flags]
            if not record:
                setup_attempt(outcomes, path, _checked_main, argv)
                return
            rc = attempt(outcomes, path, command, hetflux.cli.main, argv)
        if rc is not None:
            outcomes[-1].extra.update(rc=rc, text=text.getvalue(),
                                      root=os.environ["HETFLUX_OUTPUT_ROOT"])

    def _fresh_root(self) -> str:
        os.makedirs(self.work, exist_ok=True)
        return tempfile.mkdtemp(prefix="cli-", dir=self.work)

    def setup(self, hooks=NoTrace):
        outcomes = []
        root = self._fresh_root()
        try:
            for path in self.configs:
                self._main(hooks, outcomes, path, "run", root, record=False)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return outcomes

    def run_pass(self, hooks=NoTrace):
        outcomes = []
        self.last_root = root = self._fresh_root()
        for path in self.configs:
            for command in ("run", "diagnose"):
                self._main(hooks, outcomes, path, command, root, record=True)
        return outcomes

    def output_bytes(self) -> int:
        total = 0
        for dirpath, _, files in os.walk(self.last_root):
            total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
        return total

    def discard_outputs(self) -> None:
        if self.last_root:
            shutil.rmtree(self.last_root, ignore_errors=True)
            self.last_root = None

    def check(self, outcomes, full: bool):
        failures = []
        finals = {}
        for oc in outcomes:
            fails = []
            failures.append(fails)
            if oc.error:
                continue
            rc = oc.extra["rc"]
            if rc != 0:
                fails.append(f"exit code {rc}: {oc.extra['text'].strip()[-300:]}")
                continue
            cfg = hetflux.config.parse_config(oc.label)
            outdir = os.path.join(oc.extra["root"], cfg.output["directory"])
            with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
                manifest = json.load(fh)
            snaps = sorted(f for f in os.listdir(outdir) if f.startswith("snapshot_"))
            with open(os.path.join(outdir, snaps[-1]), "rb") as fh:
                final_bytes = fh.read()
            oc.digest = hashlib.sha256(final_bytes).hexdigest()
            finals.setdefault(oc.label, {})[oc.kind] = oc.digest
            fails += manifest_failures(manifest)
            mesh = manifest["mesh"]
            oc.extra["cell_updates"] = mesh["n_cells"] * manifest["run"]["n_steps"]
            if full and oc.kind == "run":
                exact = cli_exact(cfg)
                if exact is not None:
                    u = np.loadtxt(io.BytesIO(final_bytes), delimiter=",", skiprows=1)[:, 1]
                    m = hetflux.Mesh.make(mesh["x_min"], mesh["x_max"], mesh["dx"])
                    err, f = l1_check(u, m, exact, manifest["run"]["snapshot_times"][-1],
                                      self.window)
                    oc.extra["l1_error"] = err
                    fails += f
            if oc.kind == "diagnose" and finals[oc.label].get("run", oc.digest) != oc.digest:
                fails.append("run and diagnose end in different states")
        return failures


def _checked_main(argv):
    rc = hetflux.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"exit code {rc}")


def manifest_failures(manifest: dict) -> list[str]:
    out = []
    run = manifest["run"]
    if not run["relative_mass_drift"] <= MASS_DRIFT_MAX:
        out.append(f"relative mass drift {run['relative_mass_drift']:.3e}")
    env = manifest["envelope"]
    if (run["state_min"] < env["lower"] - ENVELOPE_SLACK
            or run["state_max"] > env["upper"] + ENVELOPE_SLACK):
        out.append(f"state range [{run['state_min']:.6g}, {run['state_max']:.6g}] "
                   f"leaves envelope [{env['lower']:.6g}, {env['upper']:.6g}]")
    diag = manifest.get("diagnostics")
    if diag is not None:
        out += [f"diagnostic {c['name']} failed" for c in diag["checks"]
                if c["status"] != "pass"]
    return out


def cli_exact(cfg):
    """Exact solution of a config whose datum is a Riemann step at x = 0."""
    family = cfg.flux["family"]
    init = cfg.initial
    if family not in ("quadratic", "two_state") or init["kind"] != "step" \
            or init["location"] != 0.0:
        return None
    return exact_for(family, cfg.build_model(), init["left"], init["right"])


WORKLOADS = {w.name: w for w in (March, Cli, Exact)}
