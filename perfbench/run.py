"""sermt benchmark: host time, set-up time and peak memory of the simulator.

Run from the repository root:

    python3 perfbench/run.py --workload clean --seed 7 --seconds 25 --trace 0

`--trace 0` measures a panel of worlds, each untraced in a fresh process,
and reports `wall_s`, `setup_s` and `peak_rss_mb`. `--trace 1` runs world 0
once with every layer wrapped, times it untraced for comparison, takes the
primitive micro-timings, and reports the per-layer metrics. Every run's
output is checked; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER
from reference import NOMINAL_S
from workloads import DEFAULT_SEED, RECORDED_DIGESTS, WORKLOADS, Workload, world_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB_TIMEOUT_S = 150
RUN_CAP_S = 150        # start no job after this, so a run ends well inside 180 s


class Tally:
    """Scenario runs attempted and failed. A run fails when it raises or
    fails any check; a sweep counts one run per point."""

    def __init__(self):
        self.attempted = 0
        self.failed_runs: set[tuple[str, int]] = set()
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failed_runs)

    def fail(self, label: str, run: int, problem: str) -> None:
        self.failed_runs.add((label, run))
        self.problems.append(f"{label} run {run}: {problem}")

    def take(self, label: str, out: dict) -> bool:
        """Counts a job's runs; False when the job itself failed."""
        self.attempted += out["runs"]
        if "error" in out:
            for run in range(out["runs"]):
                self.fail(label, run, out["error"])
            return False
        for run, problems in enumerate(out["problems"]):
            if problems:
                self.fail(label, run, "; ".join(problems))
        return True

    def same_digests(self, label: str, got: list[str], want: list[str], what: str) -> None:
        for run, (a, b) in enumerate(zip(got, want)):
            if a != b:
                self.fail(label, run, f"digest {a[:12]} differs from {what} {b[:12]}")
        if len(got) != len(want):
            self.fail(label, 0, f"{len(got)} digests, {what} has {len(want)}")


def run_job(workload: Workload, mode: str, world_seed: int) -> dict:
    job = json.dumps({"workload": workload.name, "mode": mode, "seed": world_seed})
    runs = workload.runs if mode in ("measure", "trace") else 1
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), job], cwd=ROOT,
                              capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} job timed out after {JOB_TIMEOUT_S} s", "runs": runs}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        error = json.loads(lines[-1])["error"] if lines else f"exit code {proc.returncode}"
        return {"error": error, "runs": runs}
    return json.loads(lines[-1])


def check_recorded(tally: Tally, workload: Workload, seed: int, label: str,
                   digests: list[str]) -> None:
    if seed == DEFAULT_SEED:
        tally.same_digests(label, digests, RECORDED_DIGESTS[workload.name], "recorded")


def measure(workload: Workload, seed: int, seconds: float, tally: Tally) -> dict:
    started = time.monotonic()
    worlds = []
    for index, world_seed in enumerate(world_seeds(seed, workload.panel_size(seconds))):
        if time.monotonic() - started > RUN_CAP_S:
            print(f"stopped after {index} worlds: past {RUN_CAP_S} s")
            break
        label = f"world {index} (seed {world_seed})"
        out = run_job(workload, "measure", world_seed)
        if not tally.take(label, out):
            continue
        worlds.append(out)
        if index == 0:
            check_recorded(tally, workload, seed, label, out["digests"])
            repeat = run_job(workload, "repeat", world_seed)
            if tally.take(f"{label} repeat", repeat):
                tally.same_digests(f"{label} repeat", repeat["digests"],
                                   out["digests"][:1], "first run")
    if not worlds:
        return {}
    walls = [w["wall_s"] for w in worlds]
    setups = [w["setup_s"] for w in worlds]
    rss = [w["peak_rss_mb"] for w in worlds]
    slowdown = statistics.fmean(t for w in worlds for t in w["reference_s"]) / NOMINAL_S
    print(f"workload {workload.name}: seed {seed}, {len(worlds)} worlds, "
          f"{workload.runs} run_scenario call(s) each, {workload.duration:g} s simulated, "
          f"host at {1 / slowdown:.3f} x reference speed")
    for name, values, unit in (("wall_s", walls, "s"), ("setup_s", setups, "s"),
                               ("peak_rss_mb", rss, "MB")):
        print(f"  raw {name:12s} mean {statistics.fmean(values):.4f} "
              f"median {statistics.median(values):.4f} min {min(values):.4f} "
              f"max {max(values):.4f} {unit} (n={len(values)})")
    return {
        "wall_s": {"value": statistics.fmean(walls) / slowdown, "unit": "s"},
        "setup_s": {"value": statistics.median(setups) / slowdown, "unit": "s"},
        "peak_rss_mb": {"value": statistics.fmean(rss), "unit": "MB"},
    }


def trace(workload: Workload, seed: int, seconds: float, tally: Tally) -> dict:
    label = f"world 0 (seed {seed})"
    traced = run_job(workload, "trace", seed)
    micro = run_job(workload, "micro", seed)
    tally.take(f"{label} micro", micro)
    untraced = []
    for _ in range(max(1, min(5, int(0.5 * seconds / workload.world_cost_s)))):
        out = run_job(workload, "measure", seed)
        if tally.take(f"{label} untraced", out):
            untraced.append(out)
    if not tally.take(f"{label} traced", traced) or not untraced or "error" in micro:
        return {}
    check_recorded(tally, workload, seed, f"{label} traced", traced["digests"])
    for out in untraced:
        tally.same_digests(f"{label} untraced", out["digests"], traced["digests"], "traced")

    values = dict(traced["layers"])
    untraced_wall = statistics.median(out["wall_s"] for out in untraced)
    values["trace_overhead_s"] = traced["wall_s"] - untraced_wall
    values.update({f"micro.{name}": v for name, v in micro["micro"].items()})
    print(f"workload {workload.name}: seed {seed}, traced wall {traced['wall_s']:.4f} s, "
          f"untraced median {untraced_wall:.4f} s (n={len(untraced)})")
    print("  largest self time: " + ", ".join(
        f"{name} {self_s:.3f} s ({self_s / untraced_wall:.1%})"
        for name, self_s in traced["top_self"]))
    for name in PER_LAYER:
        print(f"  {name:40s} {values[name]:.6g} {PER_LAYER[name]}")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "sermt" / "scenario.py").is_file():
        print(f"no sermt source under {ROOT / 'src'}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    tally = Tally()
    run = trace if args.trace else measure
    metrics = run(WORKLOADS[args.workload], args.seed, args.seconds, tally)
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    if not metrics:
        print("no run completed; no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
