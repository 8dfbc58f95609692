"""The benchmark in `perfbench/` still runs against this tree.

World 0 of each perfbench workload at the benchmark's default seed
reproduces the digests recorded in `perfbench/workloads.py`, so a change
that moves one shows here, not only as failed benchmark runs. The
workload definitions are read from that file and nothing in it is
changed. A traced job and a micro job run through `perfbench/worker.py`,
so a rename of a function or handler the benchmark binds by name fails
here too."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from sermt import scenario

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_world_zero_reproduces_the_recorded_digests(name):
    workload = workloads.WORKLOADS[name]
    config = workloads.world_config(scenario, ROOT, workload, workloads.DEFAULT_SEED)
    if workload.sweep:
        _rows, results = scenario.sweep(config, "interval")
    else:
        results = [scenario.run_scenario(config)]
    assert [r.trace.digest() for r in results] == workloads.RECORDED_DIGESTS[name]


def run_worker(workload, mode):
    """One benchmark job in its own process, as `perfbench/run.py` starts
    it: the exit code and the JSON line it printed."""
    job = json.dumps({"workload": workload, "seed": workloads.DEFAULT_SEED, "mode": mode})
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"), job],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name, handlers", [
    ("sinkhole35", ("trust_round", "triggered_round", "gw_probe", "mu_data", "pmu_data",
                    "forge_anchor")),
    ("flood1", ("flood_burst",)),
])
def test_traced_job_finds_every_layer_it_wraps(name, handlers):
    """The benchmark wraps engine handlers and library functions by name; a
    rename here must fail the suite, not only a later benchmark run or a
    per-layer count that silently reads 0."""
    code, out = run_worker(name, "trace")
    assert code == 0, out
    assert out["problems"] == [[]] * out["runs"]
    for handler in handlers:
        assert out["layers"][f"handler.{handler}.count"] > 0, handler
    assert out["layers"]["routing.dijkstra.calls"] > 0


def test_micro_job_runs_clean():
    code, out = run_worker("clean", "micro")
    assert code == 0, out
    assert out["problems"] == [[]]
