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
    # tunnelled broadcasts: 28 (on) / 22 (off) `wormhole` trace lines
    "wormhole": ("scaled_ieee14.conf",
                 (AttackSpec(kind="WORMHOLE", name="wh", count=2),), 7,
                 "b269ee76cca39f4e6f0149285e3fec65e53eed4e",
                 "0b32240f4c971d7f31bea4ffa8f6327b768dfa5c"),
    # compromised nodes overhearing in-range traffic
    "insider_spy": ("scaled_ieee14.conf",
                    (AttackSpec(kind="EAVESDROP", name="spy", count=3),), 7,
                    "f45de89641fd8f60f8ee22a271c521f2b0e1acc6",
                    "1be387b597226812c6581cc2bb02f7af44079040"),
    # seed 3 gets a persona selected as forwarder: 60 `dropped(phantom)` lines
    "sybil": ("scaled_ieee14.conf",
              (AttackSpec(kind="SYBIL", name="sy", count=4),), 3,
              "6b36f66e569dff40910b3df7ef1b9754735af430",
              "d3a64c3416791c3b374df81e505c1f13d793445a"),
    "flood1": ("scaled_ieee14.conf", _sweep_attacks("interval", 1.0), 7,
               "2949fead5698191416c5afad45b999f27b96a24a",
               "9a8851422e8314db0ea179f650025aaec611ea52"),
    # both region concentrators dropping: 2 `failover` lines with defense on
    "pdc_drop": ("scaled_ieee14.conf",
                 (AttackSpec(kind="DROP", name="pdc", target_ids=(91, 92)),), 7,
                 "98e8fd9da937563d38ec5d956a01aa24e98d7f2b",
                 "6c3851421fc0f93854bf56d1a260f7b4b3b72074"),
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
