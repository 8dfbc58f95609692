"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/pairs.py PARENT CHANGE --workload clean --seed 7 --pairs 10
        [--seconds 25] [--compile]

PARENT and CHANGE are two checkouts of the repository. Each pair runs
`python3 perfbench/run.py --workload W --seed S --seconds SEC --trace 0`
once in each, from its root; the side that goes first alternates from one
pair to the next, so a drift in host speed falls on both sides alike. Every
run's `correct`, `failed` and metrics are printed as it ends, then each
side's median and quartiles per metric, the pairs in which CHANGE is better
(by the metric's `better` in CHANGE's BENCHMARK.json) and the parent's
quartile spread to hold the difference of medians against.

`--compile` first runs `python3 -m compileall -q src perfbench` in both
checkouts, so that no worker compiles the package from source. Source
edits that allocate nothing can move `peak_rss_mb` when the workers
compile it (with `PYTHONDONTWRITEBYTECODE=1` set, say); comparing runs
with and without `--compile` separates such a shift from a real
allocation.

The exit code is 0 when every run is `correct` with `failed: 0`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(root: Path, args: argparse.Namespace) -> dict:
    """One perfbench run in `root`; its result line, or an error record."""
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
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


def better_sign(root: Path, metric: str) -> int:
    """+1 when lower is better (the default), -1 when higher is."""
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    except (OSError, KeyError, json.JSONDecodeError):
        better = {}
    return -1 if better.get(metric) == "higher" else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
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
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            out = run_bench(sides[side], args)
            runs[side].append(out)
            values = " ".join(f"{name} {m['value']:.4f}" for name, m in out["metrics"].items())
            print(f"pair {pair} {side:6s} correct {out['correct']} failed {out['failed']} "
                  f"{values} {out.get('error', '')}".rstrip(), flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, --seconds {args.seconds:g}"
          f"{', precompiled' if args.compile else ''}: median [quartiles]")
    for metric in runs["parent"][0]["metrics"]:
        paired = [(p["metrics"][metric]["value"], c["metrics"][metric]["value"])
                  for p, c in zip(runs["parent"], runs["change"])
                  if metric in p["metrics"] and metric in c["metrics"]]
        if not paired:
            continue
        parent, change = ([v[i] for v in paired] for i in (0, 1))
        sign = better_sign(sides["change"], metric)
        wins = sum(sign * (c - p) < 0 for p, c in paired)
        (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
        mp, mc = statistics.median(parent), statistics.median(change)
        print(f"  {metric:12s} parent {mp:.4f} [{p1:.4f}, {p3:.4f}]  "
              f"change {mc:.4f} [{c1:.4f}, {c3:.4f}]  {(mc - mp) / mp:+.1%}  "
              f"better in {wins}/{len(paired)}  |median diff| {abs(mc - mp):.4f} "
              f"vs parent IQR {p3 - p1:.4f}")
    ok = all(out["correct"] and out["failed"] == 0 for side in runs.values() for out in side)
    print("every run correct, failed 0" if ok else "SOME RUN FAILED OR WAS NOT CORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
