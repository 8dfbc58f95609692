"""Pinned trace digests: the behaviour contract across commits.

The same (config, seed) must give a byte-identical trace, so these digests
only move when protocol behaviour does. A change that moves one updates the
pin here and says why in CHANGES.md. Each case shortens the shipped config
to 60 simulated seconds.
"""

from dataclasses import replace

import pytest

from sermt.adversary import AttackSpec
from sermt.scenario import DATA_DIR, _sweep_attacks, load_config, run_scenario

DURATION = 60.0

CASES = {
    "clean": ("scaled_ieee14.conf", (), 7,
              "45df58aabfb1e753c97e33f341771d4ca36f4ea1",
              "5cff18887b32241fc06be3c63f13f0aa9cfc9977"),
    "attacked": ("attacked_ieee14.conf", None, 7,
                 "75468a1cf84a15d8b2be7afe5578ead53a641d88",
                 "b759c9ba6ede4dc8adab8d944cdd4da58032c29d"),
    "false_data": ("scaled_ieee14.conf",
                   (AttackSpec(kind="FALSE_DATA", name="fd", count=8),), 11,
                   "0997d03df82a889944d8dd8a9f112efe3667feb9",
                   "73a5e75eb020d860b24e2aa7a55e8a4c08bebe23"),
    "malicious35": ("scaled_ieee14.conf", _sweep_attacks("malicious", 35), 7,
                    "fd90ea341c395f02e7174e72b0d0c9290fa1b675",
                    "47efd624f6b9b6fa3798c5a1f4df619a37e68b9f"),
}


@pytest.mark.parametrize("defense", [True, False], ids=["sermt", "baseline"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_digest_pinned(case, defense):
    conf, attacks, seed, on_digest, off_digest = CASES[case]
    config = load_config(DATA_DIR / conf)
    # None keeps the attacks the config file declares
    config = replace(config, duration=DURATION, seed=seed, defense=defense,
                     attacks=config.attacks if attacks is None else attacks)
    expected = on_digest if defense else off_digest
    assert run_scenario(config).trace.digest() == expected
