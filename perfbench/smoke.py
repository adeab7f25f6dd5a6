"""Smoke check of the benchmark itself, at tiny sizes (under a minute).

    python3 perfbench/smoke.py

From the root of a source checkout, for every workload with tiny inputs:

1. an untraced and a traced run emit exactly the metrics BENCHMARK.json
   names, each with its unit, and pass the correctness gate;
2. two traced runs at one seed give identical exact counts, and on march
   the spans' self times add up to at least 90% of a traced pass;
3. the gate trips when an output state is perturbed before it is checked
   (the state is perturbed, never the program).

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import sys
import warnings

import run as bench

FAILED = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILED.append(what)


def metric_units(result) -> dict[str, str]:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def perturbed_run(res, delta: float):
    """Copy of a RunResult whose final state has delta added to one cell."""
    final = res.final
    u = final.u.copy()
    u[u.size // 2] += delta
    snaps = list(res.snapshots[:-1]) + [dataclasses.replace(final, u=u)]
    return dataclasses.replace(res, snapshots=snaps)


def gate_trips(workload) -> None:
    outcomes = workload.run_pass()
    clean = workload.check(outcomes, full=True)
    expect(not any(clean), f"{workload.name}: gate passes unperturbed outputs")

    if workload.name == "cli":
        # Rewrite one value of the final snapshot `hetflux run` wrote.
        import hetflux.config

        oc = next(o for o in outcomes if o.kind == "run")
        outdir = os.path.join(oc.extra["root"],
                              hetflux.config.parse_config(oc.label).output["directory"])
        snap = sorted(f for f in os.listdir(outdir) if f.startswith("snapshot_"))[-1]
        path = os.path.join(outdir, snap)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        x, u = lines[len(lines) // 2].split(",")
        lines[len(lines) // 2] = f"{x},{float(u) + 1e-3:.16e}"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        failures = workload.check(outcomes, full=True)
        expect(any(failures), "cli: gate trips on a perturbed snapshot file")
        workload.discard_outputs()
        return

    for kind in ("run", "sample"):
        idx = next((i for i, o in enumerate(outcomes) if o.kind == kind), None)
        if idx is None:
            continue
        oc = outcomes[idx]
        original = oc.value
        if kind == "run":
            oc.value = perturbed_run(original, 1e-6)
        else:
            oc.value = original.copy()
            oc.value[oc.value.size // 2] += 1e-9
        failures = workload.check(outcomes, full=True)
        expect(bool(failures[idx]), f"{workload.name}: gate trips on a perturbed {kind} output")
        oc.value = original


def main() -> int:
    bench.load_library()
    warnings.simplefilter("ignore")
    from tracing import Tracer
    from workloads import WORKLOADS

    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == bench.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    expect(layer == bench.PER_LAYER, "BENCHMARK.json per_layer matches run.py")
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")

    for name, cls in WORKLOADS.items():
        log = io.StringIO()
        res = bench.measure(cls(bench.ROOT, 7, tiny=True), 0, False, Tracer(), log)
        expect(metric_units(res) == e2e, f"{name}: untraced run emits every end_to_end metric")
        expect(res["correct"] and res["failed"] == 0, f"{name}: untraced run is correct")
        counts = []
        for _ in range(2):
            res = bench.measure(cls(bench.ROOT, 7, tiny=True), 0, True, Tracer(), log)
            expect(metric_units(res) == layer, f"{name}: traced run emits every per_layer metric")
            expect(res["correct"], f"{name}: traced run is correct")
            counts.append({k: res["metrics"][k]["value"] for k in bench.EXACT_COUNTS})
        if name == "march":
            covered = res["metrics"]["trace.covered_frac"]["value"]
            expect(covered >= 0.9, f"march: traced spans cover {covered:.3f} of a pass")
        expect(counts[0] == counts[1], f"{name}: exact counts repeat: {counts[0]}")
        if FAILED:
            print(log.getvalue())
        gate_trips(cls(bench.ROOT, 7, tiny=True))
    print(f"{len(FAILED)} failed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
