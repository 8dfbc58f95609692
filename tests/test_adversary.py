"""Attack wiring: spec validation, per-attack effects, and the post-run
confidentiality audit."""

import random
from dataclasses import replace

import pytest

from sermt import rng as rngmod, scenario
from sermt.adversary import (
    AttackConfigError,
    AttackSpec,
    apply_attacks,
    confidentiality_scan,
    cyclic_pass_pattern,
    resolve_targets,
)
from sermt.grid import Branch, Deployment, EntitySeed, GridTopology, Region, Substation
from sermt.protocol import ProtocolEngine
from sermt.scenario import DATA_DIR, _sweep_attacks, build_world, load_config, run_scenario

from test_protocol import make_sim, mini_world, sim_config


def attacked_sim(world, specs, **config):
    """`make_sim` with `specs` installed: the started world and its attack logs."""
    w = build_world(sim_config(attacks=specs, **config), layout=world())
    return w.network, w.channel, w.channel.queue, w.trace, w.engine, w.attack_logs


def worm_world():
    """Two far-apart CC substations; a tunnel can make region-1's carrier
    audible in region 2 even though no radio crosses the gap."""
    pos = {1: (0, 0), 2: (20, 0), 3: (1000, 0), 4: (1020, 0)}
    branches = (Branch(1, 2, True), Branch(3, 4, True), Branch(2, 3, False))
    topo = GridTopology(pos, branches)
    subs = [Substation(1, frozenset({1, 2}), (10, 0), 1),
            Substation(2, frozenset({3, 4}), (1010, 0), 1)]
    regions = [Region(1, (1,), 1, (10, 0)), Region(2, (2,), 2, (1010, 0))]
    rows = [
        ("N", 1, (60, 0), 1),                        # region-1 carrier
        ("N", 2, (1060, 0), 2),                      # region-2 carrier
        ("N", 3, (1100, 40), 2),                     # the lured victim
        ("N", 4, (120, 0), 1), ("N", 6, (940, 0), 2),  # tunnel endpoints
        ("PDC", 11, (0, 10), 1), ("PDC", 12, (1010, 10), 2),
        ("MU", 13, (0, 0), 1, 1, 1), ("MU", 14, (20, 0), 1, 1, 2),
        ("MU", 15, (1000, 0), 2, 2, 3), ("MU", 16, (1020, 0), 2, 2, 4),
        ("GW", 7, (10, 0), 1, 1), ("GW", 8, (1010, 0), 2, 2),
        ("SERVER", 9, (10, 0), 1, 1), ("SERVER", 10, (1010, 0), 2, 2),
    ]
    dep = Deployment(tuple(EntitySeed(*r) for r in rows), main_cc=1, backup_cc=2)
    return topo, subs, regions, dep


# -- spec validation ----------------------------------------------------------------

def test_specs_rejected_outside_threat_model():
    net, chan, queue, trace, eng = make_sim(mini_world)
    with pytest.raises(AttackConfigError):
        AttackSpec(kind="JAM", target_ids=(7,))
    with pytest.raises(AttackConfigError):
        AttackSpec(kind="DROP", target_ids=(7,), attack_interval=0.0)
    with pytest.raises(AttackConfigError):
        AttackSpec(kind="WORMHOLE", target_ids=(7,))         # needs two ends
    with pytest.raises(AttackConfigError):
        AttackSpec(kind="EAVESDROP", foreign=True)           # needs a position
    with pytest.raises(AttackConfigError):
        AttackSpec(kind="DROP")                              # no targets at all
    # gateways, servers, and metering units are beyond the attacker's reach
    for protected in (23, 26, 16, 22):
        spec = AttackSpec(kind="DROP", target_ids=(protected,))
        with pytest.raises(AttackConfigError):
            apply_attacks([spec], eng, seed=1)
    with pytest.raises(AttackConfigError):
        apply_attacks([AttackSpec(kind="DROP", target_ids=(999,))], eng, seed=1)


def test_random_target_selection_is_seeded_and_bounded():
    net, chan, queue, trace, eng = make_sim(mini_world)
    spec = AttackSpec(kind="DROP", count=5)
    rng_a = rngmod.substream(3, "attack:x")
    rng_b = rngmod.substream(3, "attack:x")
    picked_a = resolve_targets(spec, net, rng_a)
    picked_b = resolve_targets(spec, net, rng_b)
    assert picked_a == picked_b and len(picked_a) == 5
    assert all(net.nodes[i].kind in ("N", "ES") for i in picked_a)
    with pytest.raises(AttackConfigError):
        resolve_targets(AttackSpec(kind="DROP", count=999), net, rng_a)

    # two specs cannot stack behaviors on one node
    net2, chan2, queue2, trace2, eng2 = make_sim(mini_world)
    with pytest.raises(AttackConfigError):
        apply_attacks([AttackSpec(kind="DROP", target_ids=(7,)),
                       AttackSpec(kind="SINKHOLE", target_ids=(7,))],
                      eng2, seed=1)


@pytest.mark.parametrize("specs", [
    (AttackSpec(kind="FLOOD", target_ids=(7,)), AttackSpec(kind="DROP", target_ids=(7,))),
    (AttackSpec(kind="WORMHOLE", target_ids=(7, 8)),
     AttackSpec(kind="SINKHOLE", target_ids=(7,))),
    (AttackSpec(kind="FLOOD", target_ids=(7,)), AttackSpec(kind="FLOOD", target_ids=(7,))),
    (AttackSpec(kind="WORMHOLE", target_ids=(7, 8)),
     AttackSpec(kind="WORMHOLE", target_ids=(8, 9))),
], ids=["flood-drop", "wormhole-sinkhole", "flood-flood", "wormhole-wormhole"])
def test_one_attack_per_node_whatever_its_kind(specs):
    net, chan, queue, trace, eng = make_sim(mini_world)
    with pytest.raises(AttackConfigError, match="already compromised"):
        apply_attacks(list(specs), eng, seed=1)


def test_count_draw_skips_nodes_of_earlier_attacks():
    """FLOOD sets no behaviour, so a DROP draw after it once could land on
    a flooder (8 of these 10 seeds did)."""
    base = load_config(DATA_DIR / "scaled_ieee14.conf")
    specs = (AttackSpec(kind="FLOOD", name="f", count=3),
             AttackSpec(kind="DROP", name="d", count=40))
    for seed in range(1, 11):
        result = run_scenario(replace(base, duration=1.0, seed=seed, attacks=specs))
        flooders, droppers = (set(log.targets) for log in result.attack_logs)
        assert len(flooders) == 3 and len(droppers) == 40
        assert not flooders & droppers, seed


def test_empty_spec_list_matches_clean_trace(monkeypatch):
    net, chan, queue, trace, eng, logs = attacked_sim(mini_world, [])
    queue.run_until(121.0)
    # the clean world never calls apply_attacks at all
    monkeypatch.setattr(scenario, "apply_attacks", lambda specs, engine, seed: [])
    clean_net, clean_chan, clean_queue, clean_trace, clean_eng = make_sim(mini_world)
    clean_queue.run_until(121.0)
    assert logs == []
    assert trace.digest() == clean_trace.digest()


# -- drop ---------------------------------------------------------------------------

def test_cyclic_pattern_is_exact_in_every_window():
    rng = random.Random(0xD20)
    for num in range(1, 11):
        pattern = cyclic_pass_pattern(num / 10)
        assert len(pattern) in (1, 2, 5, 10)
        drops = [not ok for ok in pattern]
        assert sum(drops) / len(drops) == num / 10
        # every window spanning whole periods drops exactly the fraction
        for _ in range(20):
            start = rng.randrange(0, 50)
            window = [drops[(start + k) % len(drops)] for k in range(len(drops) * 3)]
            assert sum(window) == 3 * sum(drops)


def test_drop_attack_scores_thirty_and_gets_blocked():
    spec = AttackSpec(kind="DROP", target_ids=(7,), drop_fraction=0.7)
    net, chan, queue, trace, eng, logs = attacked_sim(mini_world, [spec])
    queue.run_until(61.0)
    table = eng.tables[net.main_server]
    assert table.records[7] == 30.0
    assert table.threat_list == {7}
    assert eng.forwarder_of[25] == 8
    assert logs[0].frames_swallowed >= 7
    assert eng.delivery.sent == eng.delivery.delivered  # routed around it


# -- flood --------------------------------------------------------------------------

def test_flood_drains_victims_but_corrupts_nothing():
    spec = AttackSpec(kind="FLOOD", target_ids=(1,), attack_interval=1.0,
                      flood_rate=10)
    net, chan, queue, trace, eng, logs = attacked_sim(mini_world, [spec])
    queue.run_until(60.0)
    clean_net, clean_chan, clean_queue, clean_trace, clean_eng = make_sim(mini_world)
    clean_queue.run_until(60.0)

    assert logs[0].bogus_frames_sent == 61 * 10          # bursts at t = 0..60
    assert eng.delivery.auth_rejects > clean_eng.delivery.auth_rejects
    assert eng.delivery.forged_accepts == 0
    # trust state is untouched: flooding only costs energy
    assert eng.tables[net.main_server].serialize() == \
        clean_eng.tables[clean_net.main_server].serialize()
    assert eng.forwarder_of == clean_eng.forwarder_of
    assert eng.delivery.sent == eng.delivery.delivered

    # an in-range battery victim pays at least the receive energy per frame
    bogus_bits = (7 + 6 + 1 + 20) * 8
    floor_mah = 61 * 10 * chan.energy.to_mah(chan.energy.energy_rx(bogus_bits))
    for victim in (2, 3):                                # N nodes near the flooder
        extra = net.nodes[victim].debited_mah - clean_net.nodes[victim].debited_mah
        assert extra >= floor_mah * 0.999


# -- sybil --------------------------------------------------------------------------

def test_sybil_personas_enter_candidates_and_land_on_threat_list():
    spec = AttackSpec(kind="SYBIL", target_ids=(8,), personas=3)
    net, chan, queue, trace, eng, logs = attacked_sim(mini_world, [spec])
    queue.run_until(1.0)
    assert len(eng.known_personas) == 3
    assert all(host == 8 for host, _pos in eng.known_personas.values())
    assert logs[0].fake_locations_advertised >= 3

    queue.run_until(201.0)                 # next round probes the phantoms
    table = eng.tables[net.main_server]
    for persona_id in eng.known_personas:
        assert table.records[persona_id] == 0.0
        assert persona_id in table.threat_list


def test_selected_phantom_swallows_gateway_traffic():
    net, chan, queue, trace, eng = make_sim(mini_world)
    queue.run_until(1.0)
    persona_id = net.allocate_id()
    eng.known_personas[persona_id] = (8, (860.0, 40.0))
    eng.forwarder_of[25] = persona_id      # as if selection had been fooled
    sent_before = eng.delivery.sent
    debited_before = net.nodes[25].debited_mah
    queue.run_until(16.0)                  # one data tick
    assert eng.delivery.sent > sent_before
    assert eng.delivery.delivered < eng.delivery.sent
    assert any("dropped(phantom)" in line for line in trace.lines)
    assert net.nodes[25].debited_mah == debited_before  # gateways are mains-powered


# -- sinkhole -----------------------------------------------------------------------

def test_sinkhole_wins_selection_then_gets_exposed():
    spec = AttackSpec(kind="SINKHOLE", target_ids=(7,), attack_interval=30.0)
    net, chan, queue, trace, eng, logs = attacked_sim(mini_world, [spec])
    queue.run_until(1.0)
    # inflated battery/connectivity wins the selection argmax outright
    assert eng.forwarder_of[25] == 7
    sent_at_round_zero = eng.delivery.sent

    queue.run_until(199.0)
    assert logs[0].frames_swallowed > 0
    assert eng.delivery.delivered < eng.delivery.sent   # swallowed MU frames

    queue.run_until(201.0)                 # trust round exposes the sinkhole
    table = eng.tables[net.main_server]
    assert 7 in table.threat_list
    assert eng.forwarder_of[25] == 8

    delivered_before = eng.delivery.delivered
    sent_before = eng.delivery.sent
    queue.run_until(231.0)                 # traffic flows around it again
    assert eng.delivery.delivered - delivered_before == \
        eng.delivery.sent - sent_before

    # forged anchors were broadcast and every receiver rejected them
    assert logs[0].bogus_frames_sent >= 7
    assert eng.delivery.forged_accepts == 0


# -- wormhole -----------------------------------------------------------------------

def test_wormhole_lures_acks_out_of_radio_range():
    spec = AttackSpec(kind="WORMHOLE", target_ids=(4, 6))
    net, chan, queue, trace, eng, logs = attacked_sim(worm_world, [spec])
    queue.run_until(1.0)
    # the tunnel replays region-2's join solicitation into region 1; node 1
    # picks the lower-id (but unreachable) solicitor and its join is lost
    assert any("ACK | dropped(range)" in line for line in trace.lines)
    assert chan.drop_counts.get("range", 0) >= 1
    assert all(1 not in members for members in eng.clusters.values())

    clean_net, clean_chan, clean_queue, clean_trace, clean_eng = make_sim(worm_world)
    clean_queue.run_until(1.0)
    assert any(1 in members for members in clean_eng.clusters.values())
    assert clean_chan.drop_counts.get("range", 0) == 0


# -- eavesdropping / confidentiality ---------------------------------------------------

def test_foreign_eavesdropper_hears_everything_decrypts_nothing():
    spec = AttackSpec(kind="EAVESDROP", foreign=True, position=(810.0, 30.0))
    net, chan, queue, trace, eng, logs = attacked_sim(mini_world, [spec])
    queue.run_until(121.0)
    exposures = confidentiality_scan(eng, logs)
    assert logs[0].frames_overheard > 100
    assert logs[0].payloads_decrypted == 0
    assert exposures == 0
    spy = net.nodes[logs[0].targets[0]]
    assert not spy.has_gbk
    # the defense also flags the mute planted device at the next round
    queue.run_until(201.0)
    assert spy.id in eng.tables[net.main_server].threat_list


def test_foreign_cluster_head_cannot_seal_to_the_servers():
    """With the defense off, a planted device can head a cluster. It holds no
    server keys, so its cluster's records stop there: no AGG_DATA frame and
    no alarm, only the two MU readings of substation 3 lost per cadence."""
    spec = AttackSpec(kind="EAVESDROP", foreign=True, position=(810.0, 30.0))
    net, chan, queue, trace, eng, logs = attacked_sim(mini_world, [spec], defense=False)
    spy = logs[0].targets[0]
    queue.run_until(16.0)
    assert spy in eng.cluster_head.values()
    assert not any(f"| {spy}->" in ln and ":AGG_DATA |" in ln for ln in trace.lines)
    assert eng.delivery.sent - eng.delivery.delivered == 2
    assert eng.delivery.undeliverable_alarms == 0


def test_insider_eavesdropper_decrypts_only_its_own_sessions():
    spec = AttackSpec(kind="EAVESDROP", target_ids=(9,))    # the chosen ES
    net, chan, queue, trace, eng, logs = attacked_sim(mini_world, [spec])
    queue.run_until(121.0)
    exposures = confidentiality_scan(eng, logs)
    assert exposures == 0                  # everything on the air is encrypted
    assert logs[0].payloads_decrypted > 0  # but its own session traffic opens
    own_keys = {key for pair, key in eng.sessions.items() if 9 in pair}
    assert own_keys                        # sanity: it really holds keys
    # the scan counts every frame the spy received or overheard
    assert logs[0].frames_overheard == sum(obs.observer_id == 9
                                           for obs in chan.observations) > 0


AUDIT_MIXES = {
    "insider-foreign_flood-drop": (
        AttackSpec(kind="EAVESDROP", target_ids=(9,)),
        AttackSpec(kind="FLOOD", foreign=True, position=(400.0, 30.0), attack_interval=5.0),
        AttackSpec(kind="DROP", target_ids=(7,))),
    "spies-sybil-false_data": (
        AttackSpec(kind="EAVESDROP", count=2),
        AttackSpec(kind="SYBIL", target_ids=(8,)),
        AttackSpec(kind="FALSE_DATA", target_ids=(6,))),
    "spy-wormhole-drop": (
        AttackSpec(kind="EAVESDROP", target_ids=(5,)),
        AttackSpec(kind="WORMHOLE", target_ids=(3, 7)),
        AttackSpec(kind="DROP", target_ids=(9,))),
}


@pytest.mark.parametrize("defense", [True, False], ids=["sermt", "baseline"])
@pytest.mark.parametrize("mix", sorted(AUDIT_MIXES))
def test_audit_of_targets_only_matches_audit_of_every_node(mix, defense):
    """Keeping only the attack targets' observations changes nothing the
    audit reports: a second world that keeps every node's gives the same."""
    reports, kept = [], []
    for widen in (False, True):
        net, chan, queue, trace, eng, logs = attacked_sim(
            mini_world, list(AUDIT_MIXES[mix]), defense=defense)
        if widen:
            chan.audited.update(net.nodes)
        queue.run_until(241.0)             # past the second trust round
        exposures = confidentiality_scan(eng, logs)
        reports.append((trace.digest(), exposures,
                        [(log.frames_overheard, log.payloads_decrypted) for log in logs]))
        kept.append(len(chan.observations))
    assert reports[0] == reports[1]
    assert kept[0] < kept[1]
    assert any(overheard for overheard, _ in reports[0][2])


# -- false data --------------------------------------------------------------------

def test_false_data_detected_by_mac_at_decrypting_hop():
    spec = AttackSpec(kind="FALSE_DATA", target_ids=(6,), corrupt_fraction=1.0)
    net, chan, queue, trace, eng, logs = attacked_sim(mini_world, [spec])
    queue.run_until(121.0)
    assert logs[0].readings_corrupted > 0
    assert eng.delivery.tamper_detected > 0
    assert eng.delivery.delivered < eng.delivery.sent
    assert eng.delivery.forged_accepts == 0


# -- determinism ---------------------------------------------------------------------

def test_attacked_runs_reproduce_bit_for_bit():
    digests = set()
    for _ in range(2):
        specs = [AttackSpec(kind="DROP", count=3),
                 AttackSpec(kind="FLOOD", target_ids=(1,), attack_interval=5.0)]
        net, chan, queue, trace, eng, logs = attacked_sim(mini_world, specs, seed=31)
        queue.run_until(121.0)
        digests.add(trace.digest())
        assert chan.conservation_errors() == []
    assert len(digests) == 1


# -- the one-carrier rule ----------------------------------------------------------

# world -> (seed, attacks) on scaled_ieee14, or None for mini_world
CARRIER_WORLDS = {
    "mini_world": None,
    # seed 10 selects a persona as a forwarder at t = 0 (seed 3, the pinned
    # sybil case, never does): it forwards but is no node, so it has no cluster
    "sybil": (10, (AttackSpec(kind="SYBIL", name="sy", count=4),)),
    "drop_sinkhole": (3, _sweep_attacks("malicious", 35)),
    "flood": (3, _sweep_attacks("interval", 1.0)),
}


@pytest.mark.parametrize("defense", [True, False], ids=["sermt", "baseline"])
@pytest.mark.parametrize("world", sorted(CARRIER_WORLDS))
def test_only_the_solicitor_of_a_cluster_carries(world, defense, monkeypatch):
    """What `_flush_clusters` relies on: after each reselect the solicitors
    are exactly the real forwarders and no other cluster member forwards,
    and every node that carries data into a flush is a solicitor."""
    form, flush = ProtocolEngine._form_clusters, ProtocolEngine._flush_clusters
    seen = {"reselects": 0, "flushes_with_data": 0, "persona_forwarders": 0}

    def checked_form(eng):
        form(eng)
        nodes = eng.network.nodes
        forwarders = {f for f in eng.forwarder_of.values() if f in nodes}
        assert set(eng.cluster_head) == forwarders
        for solicitor_id, members in eng.clusters.items():
            assert forwarders & set(members) == {solicitor_id}
        seen["reselects"] += 1
        seen["persona_forwarders"] += sum(f is not None and f not in nodes
                                          for f in eng.forwarder_of.values())

    def checked_flush(eng, carry):
        assert set(carry) <= set(eng.cluster_head)
        seen["flushes_with_data"] += bool(carry)
        flush(eng, carry)

    monkeypatch.setattr(ProtocolEngine, "_form_clusters", checked_form)
    monkeypatch.setattr(ProtocolEngine, "_flush_clusters", checked_flush)
    if CARRIER_WORLDS[world] is None:
        net, chan, queue, trace, eng = make_sim(mini_world, defense=defense)
        queue.run_until(450.0)
    else:
        seed, attacks = CARRIER_WORLDS[world]
        config = load_config(DATA_DIR / "scaled_ieee14.conf")
        run_scenario(replace(config, duration=210.0, seed=seed, defense=defense,
                             attacks=attacks))
    assert seen["reselects"] >= 2 and seen["flushes_with_data"] > 0
    assert bool(seen["persona_forwarders"]) == (world == "sybil")
