"""Smoke tests of the scripts in `tools/`."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_pin_coverage_lists_what_one_pin_never_runs():
    """On the `false_data_leg` pin alone (both defenses), altered
    session-keyed frames reach their far end and are opened in full, so
    `_sealed_leg`'s open and tamper count are not listed; no Sybil persona
    exists, so `_probe_phantom` is. Exit 0: both runs gave their pins."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pin_coverage.py"), "false_data_leg"],
        capture_output=True, text=True, check=True, timeout=300).stdout.splitlines()
    assert out[-1].endswith(" function-body statements in src/sermt never ran")
    listed = [line.split("  ", 2) for line in out[:-1]]
    assert all(len(fields) == 3 and fields[0].split(":")[1].isdigit() for fields in listed)
    assert "ProtocolEngine._probe_phantom" in {name for _, name, _ in listed}
    sealed_leg = [text for _, name, text in listed if name == "ProtocolEngine._sealed_leg"]
    assert not any("rc5_decrypt" in text or "tamper_detected" in text for text in sealed_leg)
