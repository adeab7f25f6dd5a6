"""Spans and counters around the calls into each hetflux layer.

The library itself carries no timers. A Tracer replaces public functions
with thin wrappers, in every hetflux module namespace that holds them (so
`from .x import f` call sites are covered too), and wraps the h/du_h/dx_h
callables of the flux models the benchmark hands to the library. Each
wrapped call records a span: name, start, end, parent span, the workload
input it belongs to, and a work size (cells, points, ...). Spans stay in
memory and are written out once, when the run ends.

A name missing from the library (renamed or removed by a later change) is
skipped: its metrics then read 0 instead of breaking the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import sys
import time

import numpy as np

PERF = time.perf_counter

# (span name, module, attribute path, work size of one call or None)
TARGETS = (
    ("solver.run", "solver", "run", None),
    ("solver.step", "solver", "Scheme.step_arrays", lambda a, k, out: np.size(a[1])),
    ("solver.cfl", "solver", "cfl_dt", None),
    ("solver.cfl", "solver", "lipschitz_bound", None),
    ("flux_model.critical_curve", "flux_model", "CriticalCurve.build", None),
    ("flux_model.legendre_sup", "flux_model", "legendre_sup", None),
    ("flux_model.validate", "flux_model", "validate_assumptions", None),
    ("steady.envelope", "steady", "envelope", None),
    ("steady.envelope", "steady", "envelope_constants", None),
    ("steady.build", "steady", "build_steady", None),
    ("interface.flux_profile", "interface", "interface_flux_profile",
     lambda a, k, out: np.size(out)),
    ("rootfind.solve", "rootfind", "solve_increasing", None),
    ("riemann.solve", "riemann", "solve_interface", None),
    ("riemann.solve", "riemann", "solve_classical", None),
    ("riemann.sample", "riemann", "sample", lambda a, k, out: np.size(out)),
    ("diagnostics.riemann_error", "diagnostics", "riemann_error", None),
    ("diagnostics.check_dei", "diagnostics", "check_dei",
     lambda a, k, out: out.k_values.size * a[0].mesh.n_cells * out.n_steps),
    ("diagnostics.consistency", "diagnostics", "consistency_rate", None),
    ("diagnostics.time_variation", "diagnostics", "time_variation_sum", None),
    ("config.parse", "config", "read_raw", None),
    ("config.parse", "config", "make_config", None),
    ("cli.main", "cli", "main", None),
)

MODEL_CALLABLES = ("h", "du_h", "dx_h")


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    input: int
    size: int = 0


class Tracer:
    """Collects spans and model-callable counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.inputs: list[tuple[str, str]] = []  # (input name, model group)
        self.h_calls: dict[int, list[int]] = {}  # input -> [calls, points]
        self.runs: list = []  # RunResults of the traced run() calls
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._input = -1
        self._on = False
        self._undo: list[tuple[object, str, object]] = []
        self._model_cache: dict[int, object] = {}

    # -- attribution -------------------------------------------------------

    def begin_input(self, name: str, group: str) -> None:
        """Attribute the spans that follow to one workload input."""
        self.inputs.append((name, group))
        self._input = len(self.inputs) - 1

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, size):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Recursive calls (sample() maps itself over arrays) and nested
            # calls of one span name stay inside the outer span.
            if tracer._active.get(name):
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = Span(name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                        tracer._input)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            tracer._active[name] = 1
            span.start = PERF()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = PERF()
                tracer._active[name] = 0
                tracer._stack.pop()
            if size is not None:
                try:
                    span.size = int(size(args, kwargs, out))
                except (AttributeError, IndexError, TypeError):
                    span.size = 0
            if name == "solver.run":
                tracer.runs.append(out)
            return out

        return wrapper

    def model(self, model):
        """Copy of a flux model whose callables count calls and points."""
        key = id(model)
        if key not in self._model_cache:
            tracer = self

            def counted(fn):
                def inner(x, u):
                    if tracer._on:
                        slot = tracer.h_calls.setdefault(tracer._input, [0, 0])
                        slot[0] += 1
                        slot[1] += np.broadcast(x, u).size
                    return fn(x, u)
                return inner

            self._model_cache[key] = (model, dataclasses.replace(
                model, **{c: counted(getattr(model, c)) for c in MODEL_CALLABLES}
            ))
        return self._model_cache[key][1]

    @contextlib.contextmanager
    def install(self):
        """Patch every target for the duration of the block."""
        self._patch_all()
        try:
            yield self
        finally:
            self._restore()

    def _patch_all(self) -> None:
        self._on = True
        modules = [m for n, m in sys.modules.items()
                   if (n == "hetflux" or n.startswith("hetflux.")) and m is not None]
        for name, modname, path, size in TARGETS:
            owner = sys.modules.get(f"hetflux.{modname}")
            if owner is None:
                continue
            *outer, attr = path.split(".")
            holder = owner
            for part in outer:
                holder = getattr(holder, part, None)
            if holder is None or attr not in vars(holder):
                continue
            raw = vars(holder)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, size))
                self._set(holder, attr, wrapped)
                continue
            wrapped = self._wrap(name, raw, size)
            if outer:
                self._set(holder, attr, wrapped)
                continue
            for mod in modules:
                if vars(mod).get(attr) is raw:
                    self._set(mod, attr, wrapped)
        builders = getattr(sys.modules.get("hetflux.config"), "FAMILY_BUILDERS", None)
        if isinstance(builders, dict):
            for fam, build in list(builders.items()):
                self._set_item(builders, fam, self._counted_builder(build))

    def _counted_builder(self, build):
        tracer = self

        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            return tracer.model(build(*args, **kwargs))
        return wrapper

    def _set(self, holder, attr, value) -> None:
        self._undo.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def _set_item(self, mapping, key, value) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def _restore(self) -> None:
        self._on = False
        while self._undo:
            holder, attr, old = self._undo.pop()
            if isinstance(holder, dict):
                holder[attr] = old
            else:
                setattr(holder, attr, old)
        self._model_cache.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: one input table, then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"inputs": self.inputs}) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "input": s.input, "size": s.size,
                }) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass


def _outermost(spans, first: int, names: set[str], keep: set[int]) -> list[int]:
    """Indices of kept spans named in `names` with no ancestor so named."""
    out = []
    for i in keep:
        if spans[i].name not in names:
            continue
        p = spans[i].parent
        while p >= first and spans[p].name not in names:
            p = spans[p].parent
        if p < first:
            out.append(i)
    return out


def layer_metrics(tracer: Tracer, first: int, first_input: int, pass_wall: float,
                  group: str | None = None) -> dict[str, float]:
    """Per-layer values of one pass: spans from index `first` on, inputs
    from index `first_input` on.

    With `group`, only the inputs of that model group count.
    """
    spans = tracer.spans
    inputs = {i for i in range(first_input, len(tracer.inputs))
              if group is None or tracer.inputs[i][1] == group}
    keep = [i for i in range(first, len(spans)) if spans[i].input in inputs]
    keep_set = set(keep)
    children_time = {}
    first_step = {}
    for i in keep:
        s = spans[i]
        if s.parent >= first:
            children_time[s.parent] = children_time.get(s.parent, 0.0) + (s.end - s.start)
        if s.name == "solver.step":
            p = s.parent
            while p >= first and spans[p].name != "solver.run":
                p = spans[p].parent
            if p >= first and p not in first_step:
                first_step[p] = s.start

    def total(*names):
        return sum(spans[i].end - spans[i].start
                   for i in _outermost(spans, first, set(names), keep_set))

    def sizes(*names):
        return sum(spans[i].size for i in _outermost(spans, first, set(names), keep_set))

    steps = [i for i in keep if spans[i].name == "solver.step"]
    step_time = sum(spans[i].end - spans[i].start for i in steps)
    cell_updates = sum(spans[i].size for i in steps)
    runs = [i for i in keep if spans[i].name == "solver.run"]
    setup = sum(first_step.get(i, spans[i].end) - spans[i].start for i in runs)
    march = sum(spans[i].end - first_step[i] for i in runs if i in first_step)
    sample_time, sample_points = total("riemann.sample"), sizes("riemann.sample")
    dei_time, dei_work = total("diagnostics.check_dei"), sizes("diagnostics.check_dei")
    self_all = sum(spans[i].end - spans[i].start - children_time.get(i, 0.0) for i in keep)
    cli_self = sum(spans[i].end - spans[i].start - children_time.get(i, 0.0)
                   for i in keep if spans[i].name == "cli.main")
    h_calls = h_points = 0
    for inp, (calls, points) in tracer.h_calls.items():
        if inp in inputs:
            h_calls += calls
            h_points += points
    profiles = [i for i in keep if spans[i].name == "interface.flux_profile"]

    return {
        "solver.step_ns_per_cell": 1e9 * step_time / cell_updates if cell_updates else 0.0,
        "solver.march_s": march,
        "solver.setup_s": setup,
        "solver.n_steps": len(steps),
        "solver.cell_updates": cell_updates,
        "solver.cfl_s": total("solver.cfl"),
        "families.h_calls": h_calls,
        "families.h_points_per_cell_update": h_points / cell_updates if cell_updates else 0.0,
        "interface.flux_profile_calls": len(profiles),
        "interface.flux_profile_points": sum(spans[i].size for i in profiles),
        "flux_model.critical_curve_s": total("flux_model.critical_curve"),
        "flux_model.legendre_sup_s": total("flux_model.legendre_sup"),
        "flux_model.validate_s": total("flux_model.validate"),
        "steady.envelope_s": total("steady.envelope", "steady.build"),
        "rootfind.solve_calls": sum(1 for i in keep if spans[i].name == "rootfind.solve"),
        "riemann.solve_s": total("riemann.solve"),
        "riemann.sample_ns_per_point": 1e9 * sample_time / sample_points if sample_points else 0.0,
        "diagnostics.riemann_error_s": total("diagnostics.riemann_error"),
        "diagnostics.check_dei_s": dei_time,
        "diagnostics.dei_ns_per_level_cell_step": 1e9 * dei_time / dei_work if dei_work else 0.0,
        "diagnostics.consistency_s": total("diagnostics.consistency"),
        "diagnostics.time_variation_s": total("diagnostics.time_variation"),
        "config.parse_s": total("config.parse"),
        "cli.self_s": cli_self,
        "trace.covered_frac": self_all / pass_wall if pass_wall > 0 else 0.0,
    }
