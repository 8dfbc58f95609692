"""Pinned trace digests: the behaviour contract across commits.

The same (config, seed) must give a byte-identical trace, so these digests
only move when protocol behaviour does. A change that moves one updates the
pin here and says why in CHANGES.md. Each case shortens the shipped config
to 60 simulated seconds.
"""

import functools
from dataclasses import replace

import pytest

from sermt import crypto
from sermt.adversary import AttackSpec
from sermt.metrics import replay_trace
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
    # 60 `dropped(phantom)` lines with defense on, all TEST frames: the t = 31
    # triggered round probes six personas; no persona is selected as forwarder
    "sybil": ("scaled_ieee14.conf",
              (AttackSpec(kind="SYBIL", name="sy", count=4),), 3,
              "6b36f66e569dff40910b3df7ef1b9754735af430",
              "d3a64c3416791c3b374df81e505c1f13d793445a"),
    "flood1": ("scaled_ieee14.conf", _sweep_attacks("interval", 1.0), 7,
               "2949fead5698191416c5afad45b999f27b96a24a",
               "9a8851422e8314db0ea179f650025aaec611ea52"),
    # `flood1` on a lossy radio (see LOSS): one loss draw per reachable live
    # listener; 1,878 `dropped(loss)` lines with defense on, 1,599 off
    "flood1_lossy": ("scaled_ieee14.conf", _sweep_attacks("interval", 1.0), 7,
                     "a8a59ade69cc437bd9e0dd6f05e764d369eeefa9",
                     "2d4a95b5451185f892a2fcddfa8b52449f10eae6"),
    # a count draw listed after a WORMHOLE skips the tunnel ends 58 and 79:
    # the spies are 40 and 85 (40 and 83 when the pool still held the ends)
    "wormhole_spy": ("scaled_ieee14.conf",
                     (AttackSpec(kind="WORMHOLE", name="wh", count=2),
                      AttackSpec(kind="EAVESDROP", name="spy", count=2)), 5,
                     "2ec235028064a7d21bd66777699adefe5baa1b00",
                     "353ee4de578a555146942a5bf631af95aaacf958"),
    # a planted device heads a cluster in the baseline and, holding no server
    # keys, cannot seal to the servers: its cluster's readings stop with it
    "foreign_spy": ("scaled_ieee14.conf",
                    (AttackSpec(kind="EAVESDROP", name="spy", foreign=True,
                                position=(500.0, 300.0)),), 7,
                    "099cbad5750717fd407d8cfe233d5c1573b13456",
                    "3972861b4a13b81ae59b7f5ef6da8261259d9450"),
    # both region concentrators dropping: 2 `failover` lines with defense on
    "pdc_drop": ("scaled_ieee14.conf",
                 (AttackSpec(kind="DROP", name="pdc", target_ids=(91, 92)),), 7,
                 "98e8fd9da937563d38ec5d956a01aa24e98d7f2b",
                 "6c3851421fc0f93854bf56d1a260f7b4b3b72074"),
}

# radio.loss_probability of a case, where it is not the config file's
LOSS = {"flood1_lossy": 0.05}

# what the post-run audit reports: per attack log (frames_overheard,
# payloads_decrypted), then plaintext_exposures; (defense on, defense off)
AUDITS = {
    "attacked": ((((0, 0), (0, 0), (791, 0)), 0), (((0, 4), (0, 0), (111, 0)), 0)),
    "clean": (((), 0), ((), 0)),
    "false_data": ((((0, 4),), 0), (((0, 4),), 0)),
    "flood1": ((((0, 0),), 0), (((0, 0),), 0)),
    "flood1_lossy": ((((0, 2),), 0), (((0, 7),), 0)),
    "foreign_spy": ((((909, 0),), 0), (((130, 4),), 0)),
    "insider_spy": ((((4056, 4),), 0), (((386, 4),), 0)),
    "malicious35": ((((0, 0), (0, 16)), 0), (((0, 16), (0, 28)), 0)),
    "pdc_drop": ((((0, 0),), 0), (((0, 8),), 0)),
    "sybil": ((((0, 0),), 0), (((0, 0),), 0)),
    "wormhole": ((((0, 0),), 0), (((0, 0),), 0)),
    "wormhole_spy": ((((0, 0), (1174, 0)), 0), (((0, 0), (82, 0)), 0)),
}


def case_config(case, defense):
    """The config of one case, cut to DURATION."""
    conf, attacks, seed, _, _ = CASES[case]
    config = load_config(DATA_DIR / conf)
    # None keeps the attacks the config file declares
    return replace(config, duration=DURATION, seed=seed, defense=defense,
                   attacks=config.attacks if attacks is None else attacks,
                   radio=replace(config.radio, loss_probability=LOSS.get(
                       case, config.radio.loss_probability)))


def audit_of(result):
    """A run's row of AUDITS."""
    return (tuple((log.frames_overheard, log.payloads_decrypted)
                  for log in result.attack_logs), result.metrics.plaintext_exposures)


@functools.cache
def pinned_run(case, defense):
    """(digest, counted losses, `dropped(...)` trace outcomes, audit report,
    kept observations, `rx` trace lines of attack targets, replay check) of
    one case; only this summary is kept between the tests that read it.
    The replay check is ((sent, delivered) replayed, the same live, and
    (node, replayed, live) consumed charge per node)."""
    config = case_config(case, defense)
    result = run_scenario(config)
    fields = [line.split(" | ") for line in result.trace.lines]
    dropped = sum(f[3].startswith("dropped(") for f in fields)
    targets = {node_id for log in result.attack_logs for node_id in log.targets}
    target_rx = sum(f[1] == "rx" and int(f[2].split("<-")[0]) in targets for f in fields)
    live = result.metrics
    replayed = replay_trace(
        result.trace.lines,
        initial_battery=dict(result.channel.initial_battery),
        kinds={nid: node.kind for nid, node in result.network.nodes.items()},
        energy=config.energy,
        duration=config.duration)
    replay = ((replayed.packets_sent, replayed.packets_delivered),
              (live.packets_sent, live.packets_delivered),
              tuple((row.node_id, replayed.consumed_mah[row.node_id], row.consumed_mah)
                    for row in live.node_ledger))
    return (result.trace.digest(), sum(result.channel.drop_counts.values()), dropped,
            audit_of(result), len(result.channel.observations), target_rx, replay)


@pytest.mark.parametrize("defense", [True, False], ids=["sermt", "baseline"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_digest_pinned(case, defense):
    _, _, _, on_digest, off_digest = CASES[case]
    assert pinned_run(case, defense)[0] == (on_digest if defense else off_digest)


@pytest.mark.parametrize("defense", [True, False], ids=["sermt", "baseline"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_every_traced_loss_is_counted(case, defense):
    """Channel.drop_counts holds one count per `dropped(...)` outcome in the
    trace (a tunnelled leg that fails is counted and writes no line; none
    of these runs has one)."""
    _, counted, traced, _, _, _, _ = pinned_run(case, defense)
    assert counted == traced


@pytest.mark.parametrize("defense", [True, False], ids=["sermt", "baseline"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_audit_report_pinned(case, defense):
    on_audit, off_audit = AUDITS[case]
    assert pinned_run(case, defense)[3] == (on_audit if defense else off_audit)


@pytest.mark.parametrize("defense", [True, False], ids=["sermt", "baseline"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_observations_are_the_rx_lines_of_attack_targets(case, defense):
    """The channel keeps one observation per frame an attack target took in,
    and no other: targets are all installed before the first frame moves."""
    _, _, _, _, kept, target_rx, _ = pinned_run(case, defense)
    assert kept == target_rx


@pytest.mark.parametrize("defense", [True, False], ids=["sermt", "baseline"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_recomputes_delivery_and_charge(case, defense):
    """`replay_trace` over the trace text alone gives the live sent and
    delivered counts and every node's consumed charge, within the
    tolerance of the trace's %.12g joules (as in test_scenario's replay
    test). The `wormhole` and `wormhole_spy` traces hold `wormhole` lines,
    so the replay's charge for a tunnelled frame is checked too."""
    replayed_counts, live_counts, consumed = pinned_run(case, defense)[6]
    assert replayed_counts == live_counts
    for node_id, replayed, live in consumed:
        assert replayed == pytest.approx(live, rel=1e-9, abs=1e-12), node_id


def affine_mult(k, point, curve, fixed_base=False):
    """k * point by double-and-add over the affine point_add alone; no
    window table is read, whatever fixed_base says."""
    acc = None
    for bit in bin(k % curve.n)[2:]:
        acc = crypto.point_add(acc, acc, curve)
        if bit == "1":
            acc = crypto.point_add(acc, point, curve)
    return acc


@pytest.mark.parametrize(("case", "defense"), [
    ("attacked", True), ("false_data", True), ("malicious35", True),
    ("false_data", False),      # opens without the tag check
], ids=["attacked-sermt", "false_data-sermt", "malicious35-sermt", "false_data-baseline"])
def test_pins_hold_with_every_crypto_shortcut_off(case, defense, monkeypatch):
    """Every multiply is affine with no window table, the key memo and the
    RC5 schedule and chain-walk caches call through to their functions, and
    the seal memo holds nothing, so every open takes the full ECDH, RC5 and
    padding path: the trace and the audit must still be the pinned ones."""
    lrus = [crypto._long_lived_mult, crypto.rc5_key_schedule, crypto._chain_walk,
            crypto._base_table]
    before = [lru.cache_info() for lru in lrus]
    mults = []

    def counted_mult(*args):
        mults.append(args)
        return affine_mult(*args)

    monkeypatch.setattr(crypto, "scalar_mult", counted_mult)
    for lru in lrus[:3]:
        monkeypatch.setattr(crypto, lru.__name__, lru.__wrapped__)
    monkeypatch.setattr(crypto, "SEAL_MEMO_SIZE", 0)
    crypto._seals.clear()
    result = run_scenario(case_config(case, defense))
    _, _, _, on_digest, off_digest = CASES[case]
    assert result.trace.digest() == (on_digest if defense else off_digest)
    assert audit_of(result) == AUDITS[case][not defense]
    assert mults and crypto._seals == {}
    assert [lru.cache_info() for lru in lrus] == before


# The paper's scale: `scaled_ieee14.conf` moved onto the 118-bus grid with
# 240 N and 120 ES (631 entities), 30 simulated seconds; routing over pools
# this large is what the 14-bus pins cannot show. (defense on, defense off)
IEEE118_DIGESTS = ("844d41e11ce5a890ffc32f59b2a6bd18ce0aacb9",
                   "9d237eea33f32cd161abd6bdc8d51366b2687882")


@pytest.mark.parametrize("defense", [True, False], ids=["sermt", "baseline"])
def test_ieee118_trace_digest_pinned(defense):
    config = replace(load_config(DATA_DIR / "scaled_ieee14.conf"),
                     topology_path=DATA_DIR / "ieee118.grid", n_nodes=240, es_nodes=120,
                     duration=30.0, seed=7, defense=defense)
    assert run_scenario(config).trace.digest() == IEEE118_DIGESTS[not defense]
