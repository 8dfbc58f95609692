"""Compare two checkouts on benchmark workloads in alternating pairs.

    python3 tools/pairs.py PARENT CHANGE --workload clean [--workload W ...]
        [--seed 7] [--pairs 10] [--seconds 25] [--compile]

PARENT and CHANGE are two checkouts of the repository. Each pair runs
`python3 perfbench/run.py --workload W --seed S --seconds SEC --trace 0`
once in each, from its root; the side that goes first alternates from one
pair to the next, so a drift in host speed falls on both sides alike. Every
run's `correct`, `failed` and metrics are printed as it ends, then each
side's median and quartiles per metric, the pairs in which CHANGE is better
(by the metric's `better` in CHANGE's BENCHMARK.json; a tie counts for
neither side), the parent's quartile spread to hold the difference of
medians against, and two verdicts:

- `claim met` when CHANGE is better in at least nine tenths of the pairs
  and its median is better than the parent's by more than the parent's
  quartile spread, else `not met`;
- against the metric's `bound` (a fraction of the parent's median) in
  CHANGE's BENCHMARK.json: `OVER bound` when CHANGE's median is worse than
  the parent's by more than the bound; else `unresolved` when the parent's
  quartile spread is wider than the bound and not every CHANGE run is
  better than every parent run; else `within bound`.

`--workload` may be given more than once, and `--workload all` stands for
every workload in CHANGE's BENCHMARK.json. The workloads run one after
another, each with its own pairs and its own summary.

`--compile` first runs `python3 -m compileall -q src perfbench` in both
checkouts, so that no worker compiles the package from source. Without
it, every `__pycache__` under `src` and `perfbench` in both checkouts is
removed before the first pair and each run has `PYTHONDONTWRITEBYTECODE=1`,
so every worker compiles the package from source, whatever an earlier run
left behind. Source edits that allocate nothing can move `peak_rss_mb`
when the workers compile it; comparing runs with and without `--compile`
separates such a shift from a real allocation.

The exit code is 0 when every run of every workload is `correct` with
`failed: 0`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(root: Path, workload: str, args: argparse.Namespace) -> dict:
    """One perfbench run in `root`; its result line, or an error record."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    env = None if args.compile else {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "failed": None, "metrics": {},
                "error": f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def wins(paired: list[tuple[float, float]], sign: int) -> int:
    """The (parent, change) pairs in which CHANGE is better; `sign` is -1
    when higher is better, else 1. A tie counts for neither side."""
    return sum(sign * (c - p) < 0 for p, c in paired)


def claim_met(paired: list[tuple[float, float]], sign: int) -> bool:
    """A gain: CHANGE better in at least nine tenths of all pairs, and its
    median better than the parent's by more than the parent's quartile
    spread."""
    parent, change = ([v[i] for v in paired] for i in (0, 1))
    p1, p3 = quartiles(parent)
    return (10 * wins(paired, sign) >= 9 * len(paired)
            and sign * (statistics.median(parent) - statistics.median(change)) > p3 - p1)


def benchmark_spec(root: Path) -> dict:
    try:
        return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return {}


def metric_spec(root: Path, metric: str) -> dict:
    """The metric's end_to_end entry in root's BENCHMARK.json, or {}."""
    for spec in benchmark_spec(root).get("end_to_end", []):
        if spec.get("name") == metric:
            return spec
    return {}


def bound_verdict(spec: dict, worse_by: float, spread: float, every_run_better: bool) -> str:
    """The change's median against the metric's bound, given how much worse
    it is and the parent's quartile spread, both as fractions of the
    parent's median; empty when the metric has no bound."""
    if "bound" not in spec:
        return ""
    bound = f"bound {spec['bound']:.0%}"
    if worse_by > spec["bound"]:
        return f"  OVER {bound}"
    if spread > spec["bound"] and not every_run_better:
        return f"  unresolved: parent IQR wider than the {bound}"
    return f"  within {bound}"


def compare(sides: dict[str, Path], workload: str, args: argparse.Namespace) -> bool:
    """Run one workload's pairs and print its summary; True when every run
    is `correct` with `failed: 0`."""
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            out = run_bench(sides[side], workload, args)
            runs[side].append(out)
            values = " ".join(f"{name} {m['value']:.4f}" for name, m in out["metrics"].items())
            print(f"pair {pair} {side:6s} correct {out['correct']} failed {out['failed']} "
                  f"{values} {out.get('error', '')}".rstrip(), flush=True)

    print(f"{workload}, seed {args.seed}, {args.pairs} pairs, --seconds {args.seconds:g}"
          f"{', precompiled' if args.compile else ''}: median [quartiles]")
    for metric in runs["parent"][0]["metrics"]:
        paired = [(p["metrics"][metric]["value"], c["metrics"][metric]["value"])
                  for p, c in zip(runs["parent"], runs["change"])
                  if metric in p["metrics"] and metric in c["metrics"]]
        if not paired:
            continue
        parent, change = ([v[i] for v in paired] for i in (0, 1))
        spec = metric_spec(sides["change"], metric)
        sign = -1 if spec.get("better") == "higher" else 1   # lower is the default
        (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
        mp, mc = statistics.median(parent), statistics.median(change)
        every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
        print(f"  {metric:12s} parent {mp:.4f} [{p1:.4f}, {p3:.4f}]  "
              f"change {mc:.4f} [{c1:.4f}, {c3:.4f}]  {(mc - mp) / mp:+.1%}  "
              f"better in {wins(paired, sign)}/{len(paired)}  |median diff| {abs(mc - mp):.4f} "
              f"vs parent IQR {p3 - p1:.4f}  "
              f"{'claim met' if claim_met(paired, sign) else 'not met'}"
              f"{bound_verdict(spec, sign * (mc - mp) / mp, (p3 - p1) / mp, every_run_better)}")
    ok = all(out["correct"] and out["failed"] == 0 for side in runs.values() for out in side)
    print("every run correct, failed 0" if ok else "SOME RUN FAILED OR WAS NOT CORRECT")
    return ok


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload name, or all; may be given more than once")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--compile", action="store_true")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in sides.values():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{root} has no perfbench/run.py")
        if args.compile:
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                           cwd=root, check=True, stdout=subprocess.DEVNULL)
        else:
            for tree in ("src", "perfbench"):
                for cache in list((root / tree).rglob("__pycache__")):
                    shutil.rmtree(cache)
    every = [w["name"] for w in benchmark_spec(sides["change"]).get("workloads", [])]
    workloads = list(dict.fromkeys(workload for name in args.workload
                                   for workload in (every if name == "all" else [name])))
    if not workloads:
        parser.error("--workload all, but CHANGE's BENCHMARK.json lists no workloads")
    ok = [compare(sides, workload, args) for workload in workloads]
    if len(ok) > 1:
        print("every workload: every run correct, failed 0" if all(ok)
              else "SOME WORKLOAD HAD A RUN THAT FAILED OR WAS NOT CORRECT")
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
