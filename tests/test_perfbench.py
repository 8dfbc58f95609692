"""World 0 of each perfbench workload at the benchmark's default seed
reproduces the digests recorded in `perfbench/workloads.py`, so a change
that moves one shows here, not only as failed benchmark runs. The
workload definitions are read from that file and nothing in it is
changed."""

import importlib.util
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
