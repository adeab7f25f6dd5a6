"""The benchmark's call path, in process and at tiny sizes: each workload of
perfbench/workloads.py sets up to its first time step, runs one pass and
passes its full correctness gate. A library rename that would stop the
benchmark's runs (say, of Scheme.step_arrays, which stop_at_first_step
replaces) fails here first, and so does one that would unhook a tracer
target of perfbench/tracing.py, whose per-layer metric would read zero."""

import importlib
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# perfbench's scripts import workloads from their own directory, as here.
sys.path.append(os.path.join(ROOT, "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

# Tracer targets that name no hetflux function today; their layers read zero.
UNRESOLVED_TARGETS = {"solver.cfl_dt", "steady.envelope_constants",
                      "interface.interface_flux_profile", "diagnostics.check_dei",
                      "diagnostics.time_variation_sum"}


def test_every_tracer_target_but_the_known_ones_resolves():
    # The rule of Tracer.install: the dotted path from hetflux.<module>, its
    # last part found in the holder's own namespace.
    unresolved = set()
    for _, modname, path, _ in tracing.TARGETS:
        holder = importlib.import_module(f"hetflux.{modname}")
        *outer, attr = path.split(".")
        for part in outer:
            holder = getattr(holder, part, None)
        if holder is None or attr not in vars(holder):
            unresolved.add(f"{modname}.{path}")
    assert unresolved == UNRESOLVED_TARGETS


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_tiny_workload_sets_up_runs_and_passes_its_gate(name, tmp_path, monkeypatch):
    # The cli workload points HETFLUX_OUTPUT_ROOT into its work directory;
    # monkeypatch restores it.
    monkeypatch.setenv("HETFLUX_OUTPUT_ROOT", str(tmp_path))
    workload = workloads.WORKLOADS[name](ROOT, 1, tiny=True)
    if isinstance(workload, workloads.Cli):
        workload.work = str(tmp_path)
    with workloads.stop_at_first_step():
        setup = workload.setup()
    assert setup and [oc.error for oc in setup] == [None] * len(setup)
    outcomes = workload.run_pass()
    failures = workload.check(outcomes, full=True)
    assert outcomes and [oc.error for oc in outcomes] == [None] * len(outcomes)
    assert not any(failures), failures
    workload.discard_outputs()
