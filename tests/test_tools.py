"""Smoke tests of the scripts in `tools/`."""

import hashlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

from sermt.protocol import ProtocolEngine
from sermt.scenario import DATA_DIR, load_config, sweep
from sermt.simcore import Channel

ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load_tool("pairs")

# statements the `drained` pin runs and the 60 s pins before it did not:
# (function as the listing names it, the function, a fragment of the statement)
DRAINED_RUNS = [
    ("ProtocolEngine._maybe_rotate_chain", ProtocolEngine._maybe_rotate_chain, "HashChain("),
    ("ProtocolEngine._maybe_rotate_chain", ProtocolEngine._maybe_rotate_chain,
     "MsgType.ANCHOR_BCAST"),
    ("ProtocolEngine._maybe_rotate_chain", ProtocolEngine._maybe_rotate_chain,
     "self.server_chains[server.id] = fresh"),
    ("Channel.debit", Channel.debit, '"battery_exhausted"'),
    ("Channel.transmit", Channel.transmit, '"dead_sender"'),
    ("Channel._receive_leg", Channel._receive_leg, '"dead_receiver"'),
    ("ProtocolEngine.run_trust_round", ProtocolEngine.run_trust_round,
     "table.stale_regions.add(adjacent)"),
    ("ProtocolEngine.run_trust_round", ProtocolEngine.run_trust_round, '"stale")'),
]


def test_pin_coverage_lists_what_one_pin_never_runs():
    """On the `drained` pin alone (both defenses), hash chains run low,
    batteries empty and regions go stale, so the chain rotation, the death
    line, the dead-sender and dead-receiver drops and the stale-region
    branch are not listed; no Sybil persona exists, so `_probe_phantom`
    is. Exit 0: both runs gave their pins."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pin_coverage.py"), "drained"],
        capture_output=True, text=True, check=True, timeout=300).stdout.splitlines()
    assert out[-1].endswith(" function-body statements in src/sermt never ran")
    listed = [line.split("  ", 2) for line in out[:-1]]
    assert all(len(fields) == 3 and fields[0].split(":")[1].isdigit() for fields in listed)
    assert "ProtocolEngine._probe_phantom" in {name for _, name, _ in listed}
    for name, function, fragment in DRAINED_RUNS:
        assert fragment in inspect.getsource(function), (name, fragment)
        assert not any(listed_name == name and fragment in text
                       for _, listed_name, text in listed), (name, fragment)


def test_code_lines_counts_code_lines_only(tmp_path):
    """Docstring, comment-only and blank lines do not count; each line of a
    statement over several lines does."""
    (tmp_path / "mod.py").write_text('''"""A module docstring."""

# a comment-only line
def join(x):
    """A function docstring."""
    return (x +
            "/")
''')
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["     3  mod.py", "     3  total"]


# -- tools/pairs.py verdicts, on fixed numbers --------------------------------------
# PARENT's quartiles are 1.0175 and 1.0725 (spread 0.055), its median 1.045.
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def test_pairs_quartiles():
    q1, q3 = pairs.quartiles(PARENT)
    assert round(q1, 10) == 1.0175 and round(q3, 10) == 1.0725
    assert pairs.quartiles([3.0]) == (3.0, 3.0)
    assert pairs.quartiles([1.0, 2.0]) == (0.75, 2.25)


def test_pairs_bound_verdict():
    bound = {"bound": 0.25}
    assert pairs.bound_verdict({}, 1.0, 0.0, False) == ""
    assert pairs.bound_verdict(bound, 0.26, 0.0, True) == "  OVER bound 25%"
    assert pairs.bound_verdict(bound, 0.25, 0.0, False) == "  within bound 25%"
    assert pairs.bound_verdict(bound, -0.5, 0.1, False) == "  within bound 25%"
    assert pairs.bound_verdict(bound, 0.1, 0.3, False) == (
        "  unresolved: parent IQR wider than the bound 25%")
    assert pairs.bound_verdict(bound, 0.1, 0.3, True) == "  within bound 25%"


def paired_with(change):
    return list(zip(PARENT, change))


def test_pairs_claim_needs_nine_pairs_in_ten_and_a_gap_past_the_spread():
    better = [p - 0.1 for p in PARENT]
    assert pairs.wins(paired_with(better), 1) == 10
    assert pairs.claim_met(paired_with(better), 1)
    # 10 of 10 pairs, but the medians differ by 0.05, inside the 0.055 spread
    assert not pairs.claim_met(paired_with([p - 0.05 for p in PARENT]), 1)
    # 9 of 10 pairs is enough; 8 is not
    one_worse = better[:9] + [PARENT[9] + 0.1]
    assert pairs.wins(paired_with(one_worse), 1) == 9
    assert pairs.claim_met(paired_with(one_worse), 1)
    two_worse = better[:8] + [p + 0.1 for p in PARENT[8:]]
    assert pairs.wins(paired_with(two_worse), 1) == 8
    assert not pairs.claim_met(paired_with(two_worse), 1)
    # a tie counts for neither side
    one_tie = better[:9] + PARENT[9:]
    two_ties = better[:8] + PARENT[8:]
    assert pairs.claim_met(paired_with(one_tie), 1)
    assert pairs.wins(paired_with(two_ties), 1) == 8
    assert not pairs.claim_met(paired_with(two_ties), 1)
    # higher is better: the same gain upward
    higher = [p + 0.1 for p in PARENT]
    assert pairs.claim_met(paired_with(higher), -1)
    assert not pairs.claim_met(paired_with(higher), 1)
    assert not pairs.claim_met(paired_with(better), -1)


def test_sweep_peak_prints_each_axis_sweep_of_a_fresh_process(tmp_path):
    """On the shipped config cut to 10 s: one line per axis, whose SHA-1 is
    that of the in-process `sweep`'s point digests joined in order."""
    text = (DATA_DIR / "scaled_ieee14.conf").read_text(encoding="utf-8")
    path = tmp_path / "scaled_10s.conf"
    path.write_text(text.replace("duration = 600", "duration = 10"), encoding="utf-8")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "sweep_peak.py"), str(path)],
                         capture_output=True, text=True, check=True, timeout=300).stdout
    lines = [line.split("  ") for line in out.splitlines()]
    assert [fields[0] for fields in lines] == ["interval", "malicious"]
    config = load_config(path)
    for axis, wall, peak, sha1 in lines:
        assert float(wall.removeprefix("wall_s=")) > 0
        assert float(peak.removeprefix("peak_rss_mb=")) > 0
        _rows, results = sweep(config, axis)
        joined = "".join(result.trace.digest() for result in results)
        assert sha1 == "sha1=" + hashlib.sha1(joined.encode()).hexdigest()
