"""hetflux benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload march|cli|exact --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout: it imports `hetflux` from
`src/` next to this directory and reads `configs/`. It prints a readable
report, then, as the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

`--trace 0` times untraced passes and reports the end-to-end metrics:

  wall_s              median time of one pass over the workload's inputs,
                      scaled to the reference host speed (see below)
  setup_s             median time from the inputs to the first time step of
                      every input, set up anew before each pass, scaled
  cell_updates_per_s  sum of n_cells * n_steps of one pass / wall_s
  peak_rss_mb         peak resident memory of this process
  l1_error            sum of L1 errors against exact Riemann profiles
  ok_frac             1 - failed / attempted operations

`--trace 1` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see tracing.py), plus the tracing
overhead; the spans go to perfbench/out/trace-<workload>-seed<N>.jsonl.

Rounds of (calibration block, set-up, calibration block, pass, correctness
gate) repeat until the next one would end after `--seconds`, and at least
MIN_PASSES times. A calibration block is CALIB_CHUNKS runs of fixed numpy
and pure-Python work (`calibrate`) that calls nothing in hetflux;
`host.calib_s` is the median chunk. The speed of a shared host drifts by
tens of percent within a minute, and a set-up or pass slows with it, though
mostly by less than the chunk does. So each set-up and pass time
is scaled by CALIB_REF_S over the median chunk of the blocks run just
before, inside (at input boundaries) and just after it: wall_s and setup_s
read as they would on a host that runs a chunk in CALIB_REF_S, and
cell_updates_per_s follows wall_s. A change to the library moves them; a
change in the speed of the host mostly does not. The report also prints
every time as timed.

Every operation's output goes through the workload's correctness gate; a
raised error, a nonzero exit code or a failed check counts as a failed
operation and makes `correct` false.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import warnings

PERF = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_PASSES = 4
# Calibration chunks in one block, and the least time between the blocks
# run inside a set-up or a pass (at input boundaries).
CALIB_CHUNKS = 3
CALIB_EVERY_S = 0.5
# Reference time of one calibration chunk: timings are reported as they
# would read on a host that runs a chunk in this time (median on a 2-core
# Xeon host).
CALIB_REF_S = 0.012

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cell_updates_per_s": "1/s",
    "peak_rss_mb": "MB",
    "l1_error": "L1",
    "ok_frac": "ratio",
}

# Metrics split by the model an input uses: library families ("builtin")
# against the hint-free custom callable pair of the exact workload.
SPLIT_BY_MODEL = (
    "solver.step_ns_per_cell",
    "rootfind.solve_calls",
    "riemann.solve_s",
    "riemann.sample_ns_per_point",
    "diagnostics.riemann_error_s",
)
PER_LAYER = {
    "solver.step_ns_per_cell": "ns",
    "solver.march_s": "s",
    "solver.setup_s": "s",
    "solver.n_steps": "count",
    "solver.cell_updates": "count",
    "solver.cfl_s": "s",
    "solver.lipschitz": "x/t",
    "solver.recorded_state_bytes": "B",
    "families.h_calls": "count",
    "families.h_points_per_cell_update": "ratio",
    "interface.flux_profile_calls": "count",
    "interface.flux_profile_points": "count",
    "flux_model.critical_curve_s": "s",
    "flux_model.legendre_sup_s": "s",
    "flux_model.validate_s": "s",
    "steady.envelope_s": "s",
    "steady.residual_max": "flux",
    "rootfind.solve_calls": "count",
    "riemann.solve_s": "s",
    "riemann.sample_ns_per_point": "ns",
    "diagnostics.riemann_error_s": "s",
    "diagnostics.check_dei_s": "s",
    "diagnostics.dei_ns_per_level_cell_step": "ns",
    "diagnostics.consistency_s": "s",
    "diagnostics.time_variation_s": "s",
    "config.parse_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "host.calib_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.covered_frac": "ratio",
}
for _name in SPLIT_BY_MODEL:
    for _group in ("builtin", "custom"):
        PER_LAYER[f"{_name}.{_group}"] = PER_LAYER[_name]
# Counts that must repeat exactly from pass to pass and run to run.
EXACT_COUNTS = ("solver.n_steps", "families.h_calls", "rootfind.solve_calls",
                "interface.flux_profile_points")


def load_library():
    """Import hetflux from this checkout's src/; exit with an error when absent."""
    src = os.path.join(ROOT, "src")
    missing = [p for p in (os.path.join(src, "hetflux", "__init__.py"),
                           os.path.join(ROOT, "configs")) if not os.path.exists(p)]
    if missing:
        sys.exit(f"benchmark: not a hetflux checkout, missing {', '.join(missing)}")
    sys.path.insert(0, src)
    import hetflux

    if not os.path.abspath(hetflux.__file__).startswith(src + os.sep):
        sys.exit(f"benchmark: imported hetflux from {hetflux.__file__}, not {src}")


def calibrate() -> float:
    """One chunk of host calibration: fixed work shaped like the library's.

    An upwind-like step on 4000 cells, as in a run; the same step on 16 x
    2000 values, as in the diagnostics over (level, cell); and pure Python
    bisections, as in a scalar root solve. It calls nothing in hetflux, so
    no change to the library moves it.
    """
    import numpy as np

    t0 = PERF()
    for shape, steps in (((4000,), 100), ((16, 2000), 12)):
        u = np.broadcast_to(np.linspace(-1.0, 1.0, shape[-1]), shape)
        for _ in range(steps):
            ue = np.pad(u, [(0, 0)] * (len(shape) - 1) + [(1, 1)], mode="edge")
            f = np.maximum(0.5 * np.maximum(ue[..., :-1], 0.0) ** 2,
                           0.5 * np.minimum(0.0, ue[..., 1:]) ** 2)
            u = u - 0.1 * np.diff(f, axis=-1)
    for k in range(60):
        c, lo, hi = 0.02 * k, 0.0, 3.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if math.cosh(mid) - 1.0 > c:
                hi = mid
            else:
                lo = mid
    return PERF() - t0


class HostClock:
    """Hooks of an untraced set-up or pass that calibrate the host.

    A block of calibration chunks runs before each set-up and pass, and at
    input boundaries once CALIB_EVERY_S has passed since the last block.
    `scaled` takes a timed set-up or pass, drops the time of the blocks
    inside it and scales the rest by CALIB_REF_S over the median chunk of
    the blocks just before, inside and just after it.
    """

    def __init__(self):
        self.blocks: list[tuple[float, float, list[float]]] = []  # start, end, chunks

    def block(self) -> None:
        t0 = PERF()
        chunks = [calibrate() for _ in range(CALIB_CHUNKS)]
        self.blocks.append((t0, PERF(), chunks))

    @staticmethod
    def model(model):
        return model

    def begin_input(self, name, group) -> None:
        if PERF() - self.blocks[-1][1] >= CALIB_EVERY_S:
            self.block()

    def chunks(self) -> list[float]:
        return [c for _, _, chunks in self.blocks for c in chunks]

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """Time in [t0, t1] outside calibration blocks: as timed and scaled.

        Needs a block that ended by t0 and one that starts at t1 or later.
        """
        before = [b for b in self.blocks if b[1] <= t0][-1]
        inside = [b for b in self.blocks if t0 <= b[0] and b[1] <= t1]
        after = next(b for b in self.blocks if b[0] >= t1)
        timed = t1 - t0 - sum(end - start for start, end, _ in inside)
        chunks = [c for _, _, block in (before, *inside, after) for c in block]
        return timed, timed * CALIB_REF_S / statistics.median(chunks)


class Ledger:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, outcomes, failures) -> None:
        for oc, fails in zip(outcomes, failures):
            self.attempted += 1
            problems = ([oc.error] if oc.error else []) + list(fails)
            if problems:
                self.failed += 1
                if len(self.messages) < 20:
                    self.messages.append(f"{oc.label} {oc.kind}: {'; '.join(problems)}")


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n={n})"
    k = n - 10
    return f"p{100.0 * k / n:.1f} = {sorted(values)[k - 1]:.6f} (n={n})"


def pass_layers(tracer, workload, first_span: int, first_input: int, wall: float) -> dict:
    """Per-layer metrics of the traced pass that just ended."""
    from tracing import layer_metrics
    from workloads import steady_residual_max

    m = layer_metrics(tracer, first_span, first_input, wall)
    for group in ("builtin", "custom"):
        split = layer_metrics(tracer, first_span, first_input, wall, group=group)
        m.update({f"{k}.{group}": split[k] for k in SPLIT_BY_MODEL})
    runs = list(tracer.runs)
    tracer.runs.clear()
    m["solver.lipschitz"] = max((r.cfl.lipschitz for r in runs), default=0.0)
    # Trajectories kept by record_all: states x cells x 8 B, computed.
    m["solver.recorded_state_bytes"] = sum(
        len(getattr(r, "states", None) or ()) * r.mesh.n_cells * 8 for r in runs)
    m["steady.residual_max"] = max((steady_residual_max(r) for r in runs), default=0.0)
    m["cli.bytes_written"] = workload.output_bytes()
    return m


def measure(workload, seconds: float, trace: bool, tracer, out):
    from workloads import NoTrace, stop_at_first_step

    ledger = Ledger()
    deadline = PERF() + seconds
    walls = {False: [], True: []}
    setups, costs, layers, op_times = [], [], [], []
    clock = HostClock()
    untraced = []  # (start, end) of each untraced pass
    reference = None  # first pass: digests, cell updates, L1 errors
    while True:
        t_round = PERF()
        clock.block()
        traced = trace and len(walls[False]) > len(walls[True])
        if not trace:
            with stop_at_first_step():
                t0 = PERF()
                outcomes = workload.setup(clock)
                setups.append((t0, PERF()))
            ledger.add(outcomes, [[] for _ in outcomes])
            clock.block()
        first_span, first_input = len(tracer.spans), len(tracer.inputs)
        if traced:
            with tracer.install():
                t0 = PERF()
                outcomes = workload.run_pass(tracer)
                wall = PERF() - t0
        elif trace:
            t0 = PERF()
            outcomes = workload.run_pass(NoTrace)
            wall = PERF() - t0
        else:
            t0 = PERF()
            outcomes = workload.run_pass(clock)
            wall = PERF() - t0
            untraced.append((t0, t0 + wall))
        walls[traced].append(wall)
        if not traced:
            op_times.append([oc.seconds for oc in outcomes])

        try:
            failures = workload.check(outcomes, full=reference is None)
        except Exception as exc:  # malformed outputs fail every operation of the pass
            failures = [[f"check raised {type(exc).__name__}: {exc}"] for _ in outcomes]
        if reference is None:
            reference = [(oc.label, oc.kind, oc.digest) for oc in outcomes]
            cell_updates = sum(oc.extra.get("cell_updates", 0) for oc in outcomes)
            l1_error = sum(oc.extra.get("l1_error", 0.0) for oc in outcomes)
        elif len(reference) != len(outcomes):
            failures[0].append("pass has a different number of operations")
        else:
            for (label, kind, dig), oc, fails in zip(reference, outcomes, failures):
                if oc.digest != dig:
                    fails.append("output differs from the first pass")
        ledger.add(outcomes, failures)

        if traced:
            layers.append(pass_layers(tracer, workload, first_span, first_input, wall))
        workload.discard_outputs()

        # Free this pass's outputs before the next one, so the peak memory
        # of every pass starts from the same heap.
        outcomes = failures = None
        gc.collect()
        costs.append(PERF() - t_round)
        n_done = len(walls[False]) + len(walls[True])
        if n_done >= MIN_PASSES and PERF() + statistics.median(costs) > deadline:
            break
    clock.block()

    if trace:
        wall = statistics.median(walls[False])
        print(f"{workload.name}: {len(walls[False])} untraced passes, wall_s median "
              f"{wall:.6f} s as timed; tail {tail(walls[False])}", file=out)
    else:
        timed_walls, walls[False] = zip(*(clock.scaled(*p) for p in untraced))
        wall = statistics.median(walls[False])
        print(f"{workload.name}: {len(walls[False])} untraced passes, wall_s median "
              f"{wall:.6f} s scaled, {statistics.median(timed_walls):.6f} s as timed; "
              f"tail {tail(walls[False])}", file=out)
        print(f"  passes as timed: {' '.join(f'{w:.4f}' for w in timed_walls)}", file=out)
    print(f"  passes: {' '.join(f'{w:.4f}' for w in walls[False])}", file=out)
    print(f"  op_times: {json.dumps(op_times)}", file=out)
    print(f"  calibration chunk, median per block: "
          f"{' '.join(f'{statistics.median(b[2]):.5f}' for b in clock.blocks)}", file=out)
    for label, kind, dig in reference:
        if dig:
            print(f"  digest {label}:{kind} {dig}", file=out)
    for msg in ledger.messages:
        print(f"  FAILED {msg}", file=out)

    if trace:
        metrics = {}
        for name in PER_LAYER:
            values = [m[name] for m in layers if name in m]
            if values:
                metrics[name] = statistics.median(values)
            if name in EXACT_COUNTS and len(set(values)) > 1:
                print(f"  note: count {name} varies between passes: {values}", file=out)
        traced_wall = statistics.median(walls[True])
        metrics["host.calib_s"] = statistics.median(clock.chunks())
        metrics["trace.overhead_frac"] = (traced_wall - wall) / wall
        print(f"  traced passes: {' '.join(f'{w:.4f}' for w in walls[True])}", file=out)
        units = PER_LAYER
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        timed_setups, scaled_setups = zip(*(clock.scaled(*p) for p in setups))
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(scaled_setups),
            "cell_updates_per_s": cell_updates / wall,
            "peak_rss_mb": rss_kb / 1024.0,
            "l1_error": l1_error,
            "ok_frac": 1.0 - ledger.failed / ledger.attempted,
        }
        print(f"  setups as timed: {' '.join(f'{s:.4f}' for s in timed_setups)}", file=out)
        print(f"  setups: {' '.join(f'{s:.4f}' for s in scaled_setups)}", file=out)
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}", file=out)
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("march", "cli", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_library()
    from tracing import Tracer
    from workloads import WORKLOADS

    # run() warns when a window is narrower than the influence cone; the
    # march mesh is fixed on purpose and its gate checks mass and envelope.
    warnings.simplefilter("ignore")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    tracer = Tracer()
    print(f"hetflux benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    result = measure(workload, args.seconds, bool(args.trace), tracer, sys.stdout)
    if args.trace:
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(path)
        print(f"  spans written to {os.path.relpath(path, ROOT)}")
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
