"""Smoke tests of the scripts in `tools/`."""

import inspect
import subprocess
import sys
from pathlib import Path

from sermt.protocol import ProtocolEngine
from sermt.simcore import Channel

ROOT = Path(__file__).resolve().parent.parent

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
