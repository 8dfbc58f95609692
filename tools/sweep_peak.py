"""Wall time, peak RSS and trace digest of each of the paper's two sweeps.

    python3 tools/sweep_peak.py [CONFIG]

For each axis, interval then malicious, runs one `scenario.sweep` of
CONFIG (the shipped `scaled_ieee14.conf` by default) in a fresh Python
process that imports `sermt` from this checkout's `src` and keeps every
result the sweep returns, as its callers do. Prints one line per axis:

    interval  wall_s=5.064  peak_rss_mb=121.5  sha1=c7b57b2b99ec...

`wall_s` is the `sweep` call alone. `peak_rss_mb` is the child's
`ru_maxrss` (KiB on Linux) over 1024, so it counts the interpreter and
its imports too; each axis has a process of its own, so neither sees the
other's peak. `sha1` is the SHA-1 of the points' trace digests joined in
sweep order, the figure the acceptance tests pin for the shipped config.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AXES = ("interval", "malicious")

CHILD = """\
import hashlib, resource, sys, time
from sermt.scenario import load_config, sweep
config = load_config(sys.argv[1])
start = time.perf_counter()
_rows, results = sweep(config, sys.argv[2])
wall_s = time.perf_counter() - start
joined = "".join(result.trace.digest() for result in results)
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"wall_s={wall_s:.3f}  peak_rss_mb={peak_mb:.1f}  "
      f"sha1={hashlib.sha1(joined.encode()).hexdigest()}")
"""


def measure(config: Path, axis: str) -> str:
    """One sweep of `config` over `axis` in a fresh process: its line."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", CHILD, str(config), axis], env=env,
                         capture_output=True, text=True, check=True).stdout
    return f"{axis}  {out.strip()}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("config", nargs="?", type=Path,
                        default=ROOT / "src" / "sermt" / "data" / "scaled_ieee14.conf")
    args = parser.parse_args()
    for axis in AXES:
        print(measure(args.config, axis), flush=True)


if __name__ == "__main__":
    main()
