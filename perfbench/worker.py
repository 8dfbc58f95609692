"""Runs one job of the benchmark in a fresh process and prints one JSON line.

A fresh process per world makes `ru_maxrss` the peak of that world alone.
Usage (from the repository root; run.py does this):

    python3 perfbench/worker.py '{"workload": "clean", "seed": 7, "mode": "measure"}'

Modes: `measure` runs one world untraced; `repeat` runs the world's first
`run_scenario` call again to check its digest; `trace` runs one world
with every layer wrapped; `micro` times the primitives.
"""

from __future__ import annotations

import importlib
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def import_sermt():
    sys.path.insert(0, str(ROOT / "src"))
    sermt = importlib.import_module("sermt")
    for name in ("crypto", "wire", "routing", "simcore", "protocol", "adversary",
                 "metrics", "scenario"):
        importlib.import_module(f"sermt.{name}")
    if not Path(sermt.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"sermt imported from {sermt.__file__}, not from {ROOT / 'src'}")
    return sermt


def run_world(sermt, workload, mode: str, world_seed: int) -> dict:
    from layers import Instrumentation, Phases, peak_rss_mb
    from reference import sample
    from workloads import check_run, first_run_config, world_config

    scenario = sermt.scenario
    config = world_config(scenario, ROOT, workload, world_seed)
    reference_s = sample(4)
    phases = Phases(between_runs=lambda: reference_s.extend(sample(2)))
    phases.install(scenario, sermt.simcore)
    layers = None
    if mode == "trace":
        layers = Instrumentation()
        layers.install(sermt)

    start = perf_counter()
    if mode == "repeat":
        results = [scenario.run_scenario(first_run_config(scenario, config, workload))]
    elif workload.sweep:
        _rows, results = scenario.sweep(config, "interval")
    else:
        results = [scenario.run_scenario(config)]
    wall_s = perf_counter() - start - phases.between_s
    rss_mb = peak_rss_mb()
    reference_s += sample(4)

    out = {
        "runs": len(results),
        "wall_s": wall_s,
        "setup_s": sum(phases.setup_s),
        "peak_rss_mb": rss_mb,
        "reference_s": reference_s,
        "digests": [r.trace.digest() for r in results],
        "problems": [check_run(sermt.metrics, r) for r in results],
    }
    if layers is not None:
        out["layers"] = layers.report(results, phases, workload.sweep)
        out["top_self"] = layers.top_self()
    return out


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    from workloads import WORKLOADS
    workload = WORKLOADS[job["workload"]]
    try:
        sermt = import_sermt()
        if job["mode"] == "micro":
            import micro
            timings, problems = micro.run(sermt, ROOT, job["seed"])
            out = {"runs": 1, "micro": timings, "problems": [problems]}
        else:
            out = run_world(sermt, workload, job["mode"], job["seed"])
    except Exception:
        traceback.print_exc()
        runs = workload.runs if job["mode"] in ("measure", "trace") else 1
        print(json.dumps({"error": traceback.format_exc().strip().splitlines()[-1],
                          "runs": runs}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
