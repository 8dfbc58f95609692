"""Protocol engine behavior: trust rounds, selection tie-breaks, sessions,
control-message authentication, failover, and clean-run delivery."""

import random
import struct
from dataclasses import replace
from pathlib import Path

import pytest

from sermt import protocol
from sermt.adversary import AttackOutcomeLog, AttackSpec, FalseDataBehavior
from sermt.entities import Behavior
from sermt.grid import Branch, Deployment, EntitySeed, GridTopology, Region, Substation
from sermt.protocol import (
    ClusterId,
    DeliveryLog,
    ProtocolConfig,
    TrustTable,
    UndefinedTrustError,
    compute_trust,
    is_trusted,
    pack_records,
    selection_score,
    unpack_records,
)
from sermt.scenario import ConfigError, ScenarioConfig, build_world, finish
from sermt.wire import Frame, FrameFormatError, MsgType, make_frame


# -- worlds --------------------------------------------------------------------
# Hand-placed layouts so geometry (who hears whom) is exact by construction.

def mini_world():
    """Three substations in a row; sub 2 is the main CC, sub 1 backup.
    Sub 3 hosts the only PMU, so its data crosses the full WSN path."""
    pos = {1: (0, 0), 2: (20, 0), 3: (400, 0), 4: (420, 0), 5: (800, 0), 6: (820, 0)}
    branches = (
        Branch(1, 2, True), Branch(3, 4, True), Branch(5, 6, True),
        Branch(2, 3, False), Branch(2, 3, False), Branch(2, 3, False),
        Branch(4, 5, False), Branch(4, 5, False),
        Branch(2, 5, False),
    )
    topo = GridTopology(pos, branches)
    subs = [
        Substation(1, frozenset({1, 2}), (10, 0), 4),
        Substation(2, frozenset({3, 4}), (410, 0), 5),
        Substation(3, frozenset({5, 6}), (810, 0), 3),
    ]
    regions = [
        Region(1, (1,), 1, (10, 0)),
        Region(2, (2,), 2, (410, 0)),
        Region(3, (3,), 3, (810, 0)),
    ]
    rows = [
        ("N", 1, (60, 0), 1), ("N", 2, (60, 40), 1), ("N", 3, (210, 0), 1),
        ("N", 4, (360, 0), 2), ("N", 5, (460, 0), 2), ("N", 6, (610, 0), 2),
        ("N", 7, (760, 0), 3), ("N", 8, (860, 0), 3),
        ("ES", 9, (810, 60), 3), ("ES", 10, (810, 120), 3),
        ("ES", 11, (410, 60), 2), ("ES", 12, (10, 60), 1),
        ("ES", 28, (610, 40), 2),    # mid-span hop for the acting-PDC fallback
        ("PDC", 13, (10, 10), 1), ("PDC", 14, (410, 10), 2), ("PDC", 15, (810, 10), 3),
        ("MU", 16, (0, 0), 1, 1, 1), ("MU", 17, (20, 0), 1, 1, 2),
        ("MU", 18, (400, 0), 2, 2, 3), ("MU", 19, (420, 0), 2, 2, 4),
        ("MU", 20, (800, 0), 3, 3, 5), ("MU", 21, (820, 0), 3, 3, 6),
        ("PMU", 22, (800, 0), 3, 3, 5),
        ("GW", 23, (10, 0), 1, 1), ("GW", 24, (410, 0), 2, 2), ("GW", 25, (810, 0), 3, 3),
        ("SERVER", 26, (410, 0), 2, 2), ("SERVER", 27, (10, 0), 1, 1),
    ]
    dep = Deployment(tuple(EntitySeed(*r) for r in rows), main_cc=2, backup_cc=1)
    return topo, subs, regions, dep


def relay_world():
    """mini_world with region 3's concentrator out of ES 9's reach: ES 9
    reaches PDC 15 only through ES 10."""
    topo, subs, regions, dep = mini_world()
    moved = {10: (810, 250), 15: (810, 500)}
    entities = tuple(replace(e, position=moved.get(e.id, e.position)) for e in dep.entities)
    return topo, subs, regions, replace(dep, entities=entities)


def twins_world():
    """Both substations are CCs (no WSN data) and gateway 17 hears two
    perfectly symmetric N nodes, exposing pure tie-break policy."""
    pos = {1: (0, 0), 2: (20, 0), 3: (390, 0), 4: (410, 0)}
    branches = (Branch(1, 2, True), Branch(3, 4, True),
                Branch(2, 3, False), Branch(2, 3, False))
    topo = GridTopology(pos, branches)
    subs = [Substation(1, frozenset({1, 2}), (10, 0), 2),
            Substation(2, frozenset({3, 4}), (400, 0), 2)]
    regions = [Region(1, (1,), 1, (10, 0)), Region(2, (2,), 2, (400, 0))]
    rows = [
        ("N", 4, (50, 0), 1),
        ("N", 5, (360, 0), 2), ("N", 6, (440, 0), 2),    # the twins
        ("N", 7, (420, 40), 2),                          # foreign hardware
        ("ES", 8, (400, 60), 2), ("ES", 9, (10, 60), 1),
        ("PDC", 10, (0, 10), 1), ("PDC", 11, (400, 10), 2),
        ("MU", 12, (0, 0), 1, 1, 1), ("MU", 13, (20, 0), 1, 1, 2),
        ("MU", 14, (390, 0), 2, 2, 3), ("MU", 15, (410, 0), 2, 2, 4),
        ("GW", 16, (10, 0), 1, 1), ("GW", 17, (400, 0), 2, 2),
        ("SERVER", 18, (400, 0), 2, 2), ("SERVER", 19, (10, 0), 1, 1),
    ]
    dep = Deployment(tuple(EntitySeed(*r) for r in rows), main_cc=2, backup_cc=1)
    return topo, subs, regions, dep


def gwtie_world():
    """A single N node exactly equidistant from two gateways."""
    pos = {1: (0, 0), 2: (20, 0), 3: (400, 0), 4: (420, 0)}
    branches = (Branch(1, 2, True), Branch(3, 4, True),
                Branch(2, 3, False), Branch(2, 3, False))
    topo = GridTopology(pos, branches)
    subs = [Substation(1, frozenset({1, 2}), (10, 0), 2),
            Substation(2, frozenset({3, 4}), (410, 0), 2)]
    regions = [Region(1, (1,), 1, (10, 0)), Region(2, (2,), 2, (410, 0))]
    rows = [
        ("N", 1, (210, 0), 1),
        ("GW", 2, (10, 0), 1, 1), ("GW", 3, (410, 0), 2, 2),
        ("PDC", 4, (10, 10), 1), ("PDC", 5, (410, 10), 2),
        ("MU", 6, (0, 0), 1, 1, 1), ("MU", 7, (20, 0), 1, 1, 2),
        ("MU", 8, (400, 0), 2, 2, 3), ("MU", 9, (420, 0), 2, 2, 4),
        ("SERVER", 10, (10, 0), 1, 1), ("SERVER", 11, (410, 0), 2, 2),
    ]
    dep = Deployment(tuple(EntitySeed(*r) for r in rows), main_cc=1, backup_cc=2)
    return topo, subs, regions, dep


def sim_config(*, defense=True, seed=11, attacks=(), **overrides):
    """The config of a hand-placed world. Its layout keys go unread, and
    each test runs the queue as far as it needs."""
    return ScenarioConfig(topology_path=Path("hand-placed"), radius_threshold=1.0,
                          n_nodes=0, es_nodes=0, duration=1e6, seed=seed, defense=defense,
                          protocol=ProtocolConfig(**overrides), attacks=tuple(attacks))


def make_sim(world, **config):
    """The started `world()` at t = 0, no event run yet."""
    w = build_world(sim_config(**config), layout=world())
    return w.network, w.channel, w.channel.queue, w.trace, w.engine


def test_region_without_a_pdc_is_refused_when_the_world_is_built():
    """A hand-placed layout must give every region a concentrator: the
    engine's reselect reads one for each region from t = 0."""
    topo, subs, regions, dep = mini_world()
    bare = replace(dep, entities=tuple(e for e in dep.entities if e.id != 13))
    with pytest.raises(ConfigError, match="no PDC in region 1"):
        build_world(sim_config(), layout=(topo, subs, regions, bare))


class DropSevenOfTen(Behavior):
    """Swallows 7 of every 10 probe messages, in a fixed cyclic pattern."""

    def __init__(self):
        self.count = 0

    def accept_frame(self, receiver, sender_id, frame):
        if frame.msg_type is MsgType.TEST:
            self.count += 1
            return self.count % 10 in (4, 7, 0)    # pass exactly 3 per block
        return True


class DropProbes(Behavior):
    """Swallows every probe, so each one scores 0."""

    def accept_frame(self, receiver, sender_id, frame):
        return frame.msg_type is not MsgType.TEST


# -- formulas ------------------------------------------------------------------

def test_trust_value_formula_and_threshold():
    assert compute_trust(3, 10) == 30.0
    assert compute_trust(10, 10) == 100.0
    assert compute_trust(0, 10) == 0.0
    # trusted means strictly above the threshold
    assert not is_trusted(40.0)
    assert is_trusted(40.0 + 1e-9)
    assert not is_trusted(39.999)
    with pytest.raises(UndefinedTrustError):
        compute_trust(0, 0)
    with pytest.raises(ValueError):
        compute_trust(11, 10)


def test_selection_scores_are_scale_invariant():
    rng = random.Random(0x5EED)
    for _ in range(300):
        rows = [(rng.uniform(1, 200), rng.uniform(1, 100), rng.randint(1, 30))
                for _ in range(6)]
        k = rng.uniform(0.01, 50)
        base = max(range(6), key=lambda i: (selection_score(*rows[i]), -i))
        scaled = max(range(6),
                     key=lambda i: (selection_score(rows[i][0] * k,
                                                    rows[i][1], rows[i][2]), -i))
        # scaling every battery equally never changes the argmax
        assert base == scaled
    with pytest.raises(ValueError):
        selection_score(-1.0, 50.0, 3)
    with pytest.raises(ValueError):
        selection_score(10.0, -0.1, 3)


# -- serialization ---------------------------------------------------------------

def test_trust_table_serialization_roundtrip():
    rng = random.Random(0x7AB)
    for _ in range(50):
        table = TrustTable(timestamp=rng.uniform(0, 1e6))
        for _ in range(rng.randint(0, 40)):
            table.records[rng.randint(1, 5000)] = rng.uniform(0, 100)
        table.stale_regions = {rng.randint(1, 20) for _ in range(rng.randint(0, 4))}
        blob = table.serialize()
        back = TrustTable.deserialize(blob)
        assert back.records == table.records
        assert back.stale_regions == table.stale_regions
        assert back.timestamp == table.timestamp
        assert back.serialize() == blob
    table = TrustTable(records={1: 40.0, 2: 40.0001, 3: 0.0})
    assert table.threat_list == {1, 3}


def test_cluster_id_and_record_packing_roundtrip():
    rng = random.Random(0xC1D)
    for _ in range(50):
        cid = ClusterId(rng.randint(0, 500), rng.uniform(0, 1e5),
                        tuple(sorted(rng.sample(range(1, 200), rng.randint(1, 8)))))
        assert ClusterId.decode(cid.encode()) == cid
        records = [(rng.randint(1, 9000), rng.randbytes(rng.randint(0, 80)))
                   for _ in range(rng.randint(0, 10))]
        assert unpack_records(pack_records(records)) == records
    with pytest.raises(ValueError):
        unpack_records(pack_records([(5, b"abcdef")])[:-2])    # truncated
    with pytest.raises(ValueError):
        unpack_records(pack_records([(5, b"abcdef")]) + b"\x00")  # trailing bytes


def test_config_rejects_values_past_their_16_bit_wire_fields():
    # a probe packs its message index, and a record its size, as 16 bits
    ProtocolConfig(test_messages=65536, mu_reading_bytes=65535, pmu_reading_bytes=65535)
    for field, value in (("test_messages", 65537), ("mu_reading_bytes", 65536),
                         ("pmu_reading_bytes", 65536)):
        with pytest.raises(ValueError, match=field):
            ProtocolConfig(**{field: value})


def test_delivery_counts_each_issued_marker_once():
    log = DeliveryLog()
    marker = b"\xa5\x3c\x96\x5a" + struct.pack(">I", 4) + b"nonce-04"
    log.emit(4, marker, 512)
    # a forged reading can reuse a live counter, but not its nonce
    assert not log.deliver(4, marker[:-1] + b"!")
    assert not log.deliver(5, marker)                  # never issued
    assert log.deliver(4, marker)
    assert not log.deliver(4, marker)                  # duplicates count once
    assert (log.sent, log.delivered, log.payload_bits_delivered) == (1, 1, 512)
    assert log.issued_markers() == {marker}


# -- control-message authentication ------------------------------------------------
# Control broadcasts are checked where they are received: `broadcast_claimed`
# checks the frame's HMAC once, then each listener's chain head.

GATEWAYS = [23, 24, 25]


def control_sim():
    """The mini world after its first trust round, and its main server."""
    net, chan, queue, trace, eng = make_sim(mini_world)
    queue.run_until(1.0)
    return net, eng, net.nodes[net.main_server]


def claim(eng, server, frame):
    """Broadcast `frame` to the gateways in `server`'s name; returns the IDs
    that accepted it and the auth rejects it added."""
    rejects = eng.delivery.auth_rejects
    accepted = eng.broadcast_claimed(server, server.id, frame, control=True, kinds=("GW",))
    return [node.id for node in accepted], eng.delivery.auth_rejects - rejects


def test_control_authentication_accept_replay_forge():
    net, eng, server = control_sim()
    rng = random.Random(0xA11)

    frame = make_frame(MsgType.BLOCKED_LIST, server.id, b"payload", gbk=eng.gbk,
                       chain_key=eng._next_chain_key(server.id))
    assert claim(eng, server, frame) == (GATEWAYS, 0)
    # replaying the same frame fails: every anchor has advanced past its key
    assert claim(eng, server, frame) == ([], 3)

    nxt = eng._next_chain_key(server.id)
    tampered = Frame(MsgType.BLOCKED_LIST, server.id, b"other", nxt, frame.mac)
    assert claim(eng, server, tampered) == ([], 3)
    bare = make_frame(MsgType.BLOCKED_LIST, server.id, b"payload", gbk=eng.gbk)
    assert claim(eng, server, bare) == ([], 3)                  # no chain key

    for _ in range(200):
        forged = make_frame(MsgType.BLOCKED_LIST, server.id, b"payload", gbk=eng.gbk,
                            chain_key=rng.randbytes(20))
        assert claim(eng, server, forged) == ([], 3)
    # none of the rejections consumed the genuine key
    genuine = make_frame(MsgType.BLOCKED_LIST, server.id, b"other", gbk=eng.gbk,
                         chain_key=nxt)
    assert claim(eng, server, genuine) == (GATEWAYS, 0)
    assert eng.delivery.forged_accepts == 0


def test_engine_rejects_forged_and_replayed_control():
    net, eng, server = control_sim()
    payload = TrustTable(timestamp=1.0).serialize()

    bogus = make_frame(MsgType.BLOCKED_LIST, server.id, payload, gbk=eng.gbk,
                       chain_key=bytes(20))
    assert claim(eng, server, bogus) == ([], 3)         # one reject per listener

    legit = make_frame(MsgType.BLOCKED_LIST, server.id, payload, gbk=eng.gbk,
                       chain_key=eng._next_chain_key(server.id))
    assert claim(eng, server, legit) == (GATEWAYS, 0)
    assert claim(eng, server, legit) == ([], 3)         # replay
    assert eng.delivery.forged_accepts == 0

    # a key stolen straight off the chain authenticates, but the ground-truth
    # ledger of released keys flags each acceptance
    stolen = make_frame(MsgType.BLOCKED_LIST, server.id, payload, gbk=eng.gbk,
                        chain_key=eng.server_chains[server.id].next_key())
    assert claim(eng, server, stolen) == (GATEWAYS, 0)
    assert eng.delivery.forged_accepts == 3


@pytest.mark.parametrize("control,kinds", [(True, ("GW",)), (True, None), (False, None),
                                           (False, ("N", "ES"))])
@pytest.mark.parametrize("forgery", ["keyless", "bad_mac"])
def test_unauthentic_frame_is_one_reject_per_receiver(control, kinds, forgery):
    """A frame with no chain key, or whose HMAC fails, is rejected by each of
    the k receivers that took it in: k auth rejects, no acceptance, and no
    listener's chain head moves."""
    net, eng, server = control_sim()
    if forgery == "keyless":
        frame = make_frame(MsgType.BLOCKED_LIST, server.id, b"payload", gbk=eng.gbk)
    else:
        signed = make_frame(MsgType.BLOCKED_LIST, server.id, b"payload", gbk=eng.gbk,
                            chain_key=eng._next_chain_key(server.id))
        frame = Frame(signed.msg_type, signed.sender_id, b"other", signed.chain_key,
                      signed.mac)
    heads = {(i, s): state.head for i, node in net.nodes.items()
             for s, state in node.chain_state.items()}
    trace, forged = eng.channel.trace, eng.delivery.forged_accepts
    before, rejects = len(trace.lines), eng.delivery.auth_rejects
    assert eng.broadcast_claimed(server, server.id, frame, control=control, kinds=kinds) == []
    fields = [line.split(" | ") for line in trace.lines[before:]]
    k = sum(f[1] == "rx" and f[2].endswith(f"<-{server.id}:BLOCKED_LIST")
            and f[3] == "received" for f in fields)     # every listener is honest
    assert k > 0
    assert eng.delivery.auth_rejects - rejects == k
    assert eng.delivery.forged_accepts == forged
    assert heads == {(i, s): state.head for i, node in net.nodes.items()
                     for s, state in node.chain_state.items()}


def test_one_mac_check_per_control_broadcast(monkeypatch):
    net, eng, server = control_sim()
    checked, verify = [], protocol.verify_frame

    def counted(frame, **keys):
        checked.append(frame)
        return verify(frame, **keys)
    monkeypatch.setattr(protocol, "verify_frame", counted)
    frame = make_frame(MsgType.BLOCKED_LIST, server.id, b"payload", gbk=eng.gbk,
                       chain_key=eng._next_chain_key(server.id))
    assert claim(eng, server, frame) == (GATEWAYS, 0)
    assert checked == [frame]


def test_control_acceptance_reads_each_listeners_own_head():
    net, eng, server = control_sim()
    key = eng._next_chain_key(server.id)
    # gateway 23 already took this key: its head has moved past it
    assert net.nodes[23].chain_state[server.id].accept(key)
    frame = make_frame(MsgType.BLOCKED_LIST, server.id, b"payload", gbk=eng.gbk,
                       chain_key=key)
    assert claim(eng, server, frame) == ([24, 25], 1)
    # a listener with no anchor for the server (a foreign plant) rejects too
    del net.nodes[25].chain_state[server.id]
    frame = make_frame(MsgType.BLOCKED_LIST, server.id, b"payload", gbk=eng.gbk,
                       chain_key=eng._next_chain_key(server.id))
    assert claim(eng, server, frame) == ([23, 24], 1)
    assert eng.delivery.forged_accepts == 0


# -- trust rounds ------------------------------------------------------------------

def test_clean_round_syncs_servers_and_selects():
    net, chan, queue, trace, eng = make_sim(mini_world)
    queue.run_until(1.0)

    main, backup = net.main_server, net.backup_server
    assert eng.tables[main].records
    assert eng.tables[main].serialize() == eng.tables[backup].serialize()
    assert eng.tables[main].threat_list == set()
    assert eng.tables[main].stale_regions == set()

    for gw_id in (23, 24, 25):
        assert eng.forwarder_of[gw_id] is not None
    assert eng.es_choice[25] == 9            # trust tie among ES -> lower id
    assert eng.delivery.isolation_alarms == 0
    assert eng.delivery.auth_rejects == 0
    assert eng.delivery.forged_accepts == 0
    # every gateway took in the pushed table, and its chain key checked out
    pushed = {f[2] for f in (ln.split(" | ") for ln in trace.lines)
              if f[1] == "rx" and f[3] == "received"}
    for gw_id in GATEWAYS:
        assert f"{gw_id}<-{main}:BLOCKED_LIST" in pushed


def test_round_alternates_initiator_and_stays_synced():
    net, chan, queue, trace, eng = make_sim(mini_world)
    queue.run_until(201.0)
    begins = [ln for ln in trace.lines if "| round |" in ln and "begin" in ln]
    assert f"server:{net.main_server}" in begins[0]
    assert f"server:{net.backup_server}" in begins[1]
    assert eng.round_index == 2
    assert eng.tables[net.main_server].serialize() == \
        eng.tables[net.backup_server].serialize()


def test_scripted_dropper_scores_exactly_thirty():
    net, chan, queue, trace, eng = make_sim(mini_world)
    net.nodes[7].behavior = DropSevenOfTen()
    queue.run_until(61.0)

    table = eng.tables[net.main_server]
    assert table.records[7] == 30.0
    assert table.threat_list == {7}
    assert table.stale_regions == set()      # sweep continued past the dropper
    assert set(table.records) >= {8, 9, 10, 15}

    # the untrusted node is never selected and never relays
    assert eng.forwarder_of[25] == 8
    assert all(7 not in path for path in eng.route_cache.values() if path)
    assert eng.delivery.sent == eng.delivery.delivered > 0


def test_unreachable_region_goes_stale_and_keeps_its_scores():
    net, chan, queue, trace, eng = make_sim(mini_world)
    queue.run_until(1.0)
    main = net.nodes[net.main_server]

    def round_with_silent(region_id):
        for node in net.region_trust_targets(region_id):
            node.behavior = DropProbes()
        mark = len(trace.lines)
        table = eng.run_trust_round(main)
        fields = [ln.split(" | ") for ln in trace.lines[mark:]]
        return table, {f[2] for f in fields if f[1] == "round" and f[3] == "stale"}

    # region 3 answers no probe: the relay's zeros reach the server, and
    # nobody is left to sweep the region
    region3 = [n.id for n in net.region_trust_targets(3)]
    table, stale_lines = round_with_silent(3)
    assert stale_lines == {"region:3"}
    assert table.stale_regions == {3}
    assert {i: table.records[i] for i in region3} == dict.fromkeys(region3, 0.0)

    # the home region falls silent too: no relay leaves it, so the other
    # regions go unprobed and keep the scores of the table before
    previous = table
    region1 = [n.id for n in net.region_trust_targets(1)]
    table, stale_lines = round_with_silent(2)
    assert stale_lines == {"region:1", "region:3"}
    assert table.stale_regions == {1, 3}
    for node_id in region1 + region3:
        assert table.records[node_id] == previous.records[node_id]
    assert {table.records[i] for i in region1} == {100.0}
    assert {table.records[i] for i in region3} == {0.0}


def test_forwarder_and_head_tiebreak_prefers_lower_id():
    # selection in isolation, before any probing spends battery asymmetrically
    net, chan, queue, trace, eng = make_sim(twins_world)
    net.nodes[7].has_gbk = False
    eng._select_forwarders()
    # twins 5 and 6 tie on battery, trust, and connectivity
    assert eng.forwarder_of[17] == 5
    assert eng.forwarder_of[16] == 4
    eng._form_clusters()
    assert eng.clusters[5] == [5, 6]
    assert eng.cluster_head[5] == 5


def test_equidistant_node_acks_lower_gateway():
    net, chan, queue, trace, eng = make_sim(gwtie_world)
    queue.run_until(1.0)
    assert eng.forwarder_of[2] == 1
    assert eng.forwarder_of[3] is None
    assert eng.delivery.isolation_alarms == 1


def test_foreign_node_cannot_join_cluster_under_defense():
    net, chan, queue, trace, eng = make_sim(twins_world)
    net.nodes[7].has_gbk = False
    queue.run_until(1.0)
    assert all(7 not in members for members in eng.clusters.values())

    # the baseline never verifies, so the same hardware walks right in
    net_b, chan_b, queue_b, trace_b, eng_b = make_sim(twins_world, defense=False)
    net_b.nodes[7].has_gbk = False
    queue_b.run_until(1.0)
    assert any(7 in members for members in eng_b.clusters.values())


def test_session_with_foreign_node_fails_at_pubkey_hop_under_defense():
    for defense in (True, False):
        net, chan, queue, trace, eng = make_sim(mini_world, defense=defense)
        gw, foreign = net.nodes[25], net.nodes[8]
        foreign.has_gbk = False
        key = eng._ensure_session((gw.id, foreign.id))
        if defense:
            # the foreign node's PUBKEY reply fails its MAC on the one hop
            assert key is None
            assert eng.delivery.auth_rejects == 1
            assert eng.sessions == {}
        else:
            assert key is not None and eng.sessions == {(8, 25): key}
            assert eng.delivery.auth_rejects == 0


def test_far_end_rejects_a_data_leg_corrupted_in_transit(monkeypatch):
    """ES 10 corrupts the ES 9 -> PDC 15 DATA leg it relays. Only the far
    end holds the session key, so the nested MAC is checked there: the
    defense rejects the leg, and the baseline opens it to garbage. Either
    way PDC 15 gets nothing to dispatch."""
    for defense in (True, False):
        net, chan, queue, trace, eng = make_sim(relay_world, defense=defense)
        queue.run_until(1.0)
        log = AttackOutcomeLog("liar", "FALSE_DATA")
        net.nodes[10].behavior = FalseDataBehavior(1.0, log)
        legs = []
        relay_chain = eng._relay_chain

        def spy(hops, msg_type, *args, **kwargs):
            legs.append((tuple(hops), msg_type))
            return relay_chain(hops, msg_type, *args, **kwargs)

        monkeypatch.setattr(eng, "_relay_chain", spy)
        rejects, tampered = eng.delivery.auth_rejects, eng.delivery.tamper_detected
        inbox = {}
        eng._es_to_pdc(net.nodes[9], [(22, bytes(128))], inbox)
        assert ((9, 10, 15), MsgType.DATA) in legs
        assert log.readings_corrupted == 1
        rejects = eng.delivery.auth_rejects - rejects
        tampered = eng.delivery.tamper_detected - tampered
        if defense:
            assert (rejects, tampered) == (1, 0)
            assert inbox == {}
        else:
            assert (rejects, tampered) == (0, 1)
            assert inbox == {}


def test_a_concentrator_with_no_route_counts_an_alarm_without_sealing(monkeypatch):
    """PDC 15 reaches the main center but has no route to the backup: its
    dispatch seals once, for the main center, and counts one alarm."""
    net, chan, queue, trace, eng = make_sim(relay_world)
    queue.run_until(14.0)
    pdc = net.nodes[15]
    assert eng._pdc_route(pdc, main=True) is not None
    assert eng._pdc_route(pdc, main=False) is None
    seals, ecc_encrypt = [], protocol.ecc_encrypt

    def spy(pubkey, *args):
        seals.append(pubkey)
        return ecc_encrypt(pubkey, *args)

    monkeypatch.setattr(protocol, "ecc_encrypt", spy)
    alarms = eng.delivery.undeliverable_alarms
    eng._pdc_dispatch(pdc, [(22, bytes(128))])
    assert seals == [pdc.server_pubkeys[net.main_server]]
    assert eng.delivery.undeliverable_alarms == alarms + 1


# -- cadence -----------------------------------------------------------------------

def select_es_times(eng):
    """Spies on `eng._select_es`: the list of the times it is called at."""
    calls, select_es = [], eng._select_es

    def spy():
        calls.append(eng.queue.now)
        return select_es()
    eng._select_es = spy
    return calls


def test_gateway_probes_defer_while_round_active():
    net, chan, queue, trace, eng = make_sim(mini_world, gw_probe_interval=68.0)
    calls = select_es_times(eng)
    queue.run_until(280.0)
    # the 204 s probe lands inside the 200-205 s round window and shifts to 205
    assert calls == [0.0, 68.0, 136.0, 205.0, 273.0]
    # each selection probes: gateway 25 (the PMU's) sends test messages then
    gw_tests = [line.split(" | ") for line in trace.lines if " | tx | 25->" in line]
    assert sorted({float(t) for t, _kind, ids, *_ in gw_tests
                   if ids.endswith(":TEST")}) == calls


def test_gateway_probe_deferred_past_a_long_round():
    # with a 100 s round window, the probe due at 60 waits for the round at 0
    # to end; the probe at 0, the round's own start, is not deferred
    net, chan, queue, trace, eng = make_sim(mini_world, round_active_window=100.0)
    calls = select_es_times(eng)
    queue.run_until(250.0)
    # 160 + 60 = 220 falls in the round begun at 200 and waits until 300
    assert calls == [0.0, 100.0, 160.0]


def test_baseline_never_runs_a_round_so_every_entity_reads_trusted():
    net, chan, queue, trace, eng = make_sim(mini_world, defense=False)
    queue.run_until(121.0)
    table = eng.current_table()
    assert table is eng.tables[net.main_server]
    assert table.records == {} and eng.round_index == 0
    assert all(table.trusted(node_id) for node_id in net.nodes)


def test_route_cache_cleared_by_round_overlay_included():
    net, chan, queue, trace, eng = make_sim(mini_world)
    queue.run_until(199.0)
    assert eng.route_cache[(15, net.cc_gateway(True).id)] == (15, 24)   # overlay
    queue.run_until(205.0)                   # round at 200, no data event yet
    assert eng.route_cache == {}             # one cache, overlay routes included
    queue.run_until(211.0)
    assert eng.route_cache


def test_no_cached_route_runs_through_a_relay_blocked_by_the_round():
    """ES 10 stops answering probes before the round at 200, which
    threat-lists it; no route asked after that round keeps it as a relay,
    though before it PDC 15 reached the main center through it."""
    net, chan, queue, trace, eng = make_sim(relay_world)
    queue.run_until(199.0)
    pdc = net.nodes[15]
    assert eng._pdc_route(pdc, main=True) == (15, 10, 28, 24)
    net.nodes[10].behavior = DropProbes()
    queue.run_until(226.0)                   # the round at 200, data at 210 and 225
    threats = eng.current_table().threat_list
    assert 10 in threats
    asked = [eng._pdc_route(pdc, main) for main in (True, False)]
    routes = [path for path in [*asked, *eng.route_cache.values()] if path]
    assert routes
    assert all(threats.isdisjoint(path[1:-1]) for path in routes)
    assert eng.route_cache[(9, 15)] is None  # ES 9 reached PDC 15 only through 10


def test_a_cached_route_builds_no_pool(monkeypatch):
    """Route pools scan the live entities only on a cache miss: a second
    ask within one selection is answered from `route_cache` alone."""
    net, chan, queue, trace, eng = make_sim(mini_world)
    queue.run_until(1.0)
    calls, relays = [], eng._relays

    def counted(*args):
        calls.append(args)
        return relays(*args)
    monkeypatch.setattr(eng, "_relays", counted)

    def asks():
        calls.clear()
        for main in (True, False):
            eng._route_to_cc(net.nodes[8], main=main)
            eng._pdc_route(net.nodes[15], main=main)
        return len(calls)

    asks()                                   # whatever this selection had not cached
    assert asks() == 0
    eng._reselect()
    assert asks() > 0                        # a new selection builds the pools again


def test_a_drained_relay_loses_its_route_to_the_battery_x_trust_weight(monkeypatch):
    """PDC 15 reaches the main center through ES 10 or ES 9. Once ES 10's
    battery is nearly empty, the next selection routes through ES 9; by
    plain distance ES 10 would still be the cheaper hop."""
    net, chan, queue, trace, eng = make_sim(relay_world)
    queue.run_until(16.0)
    pdc = net.nodes[15]
    assert eng._pdc_route(pdc, main=True) == (15, 10, 28, 24)
    net.nodes[10].battery_mah = 0.5
    eng._reselect()
    assert eng._pdc_route(pdc, main=True) == (15, 9, 28, 24)
    monkeypatch.setattr(eng, "_link_weight", lambda u, v, dist: dist)
    eng._reselect()
    assert eng._pdc_route(pdc, main=True) == (15, 10, 28, 24)


def test_a_dead_relay_leaves_the_route_pool():
    """With the defense off a link weighs its bare distance, so only the
    pool's liveness rule keeps a dead N off N 7's route to the main center."""
    net, chan, queue, trace, eng = make_sim(mini_world, defense=False)
    queue.run_until(1.0)
    assert eng._route_to_cc(net.nodes[7], main=True) == (7, 6, 5, 24)
    net.nodes[6].battery_mah = 0.0
    net.nodes[6].alive = False
    eng._reselect()
    assert eng._route_to_cc(net.nodes[7], main=True) == (7, 28, 24)


def test_a_phantom_probe_sends_the_rounds_test_messages():
    net, chan, queue, trace, eng = make_sim(mini_world)
    eng.round_index = 3
    persona_id = net.allocate_id()
    eng.known_personas[persona_id] = (8, (860.0, 40.0))
    sent = {"real": [], "phantom": []}
    transmit, transmit_phantom = chan.transmit, chan.transmit_phantom

    def spy(sender, receiver, frame, control=False):
        if frame.msg_type is MsgType.TEST:
            sent["real"].append(frame.payload)
        return transmit(sender, receiver, frame, control)

    def phantom_spy(sender, pid, position, frame, control=False):
        sent["phantom"].append(frame.payload)
        return transmit_phantom(sender, pid, position, frame, control)
    chan.transmit, chan.transmit_phantom = spy, phantom_spy
    prober = net.nodes[26]
    eng._probe(prober, net.nodes[7])
    assert eng._probe_phantom(prober, persona_id) == 0.0
    assert sent["phantom"] == sent["real"]
    assert sent["real"] == [struct.pack(">HH", 3, i) for i in range(10)]


def test_test_messages_are_made_once_per_prober_and_round():
    net, chan, queue, trace, eng = make_sim(mini_world)
    prober, other = net.nodes[26], net.nodes[8]
    tests = eng._tests(prober)
    assert eng._tests(prober) is tests
    assert eng._tests(other) is not tests
    assert [t.sender_id for t in eng._tests(other)] == [8] * len(tests)
    eng.run_trust_round(net.server(main=True))
    assert [t.payload for t in eng._tests(prober)] == \
        [struct.pack(">HH", 1, i) for i in range(len(tests))]


# -- key management -----------------------------------------------------------------

def test_server_keys_rotate_each_round_and_chains_replace():
    # a 7-link chain holds 6 usable keys beyond the anchor: round zero costs
    # the initiator 2 (table push + key broadcast) and its peer only 1
    net, chan, queue, trace, eng = make_sim(mini_world, chain_length=7)
    main, backup = net.main_server, net.backup_server
    first_main_chain = eng.server_chains[main]
    first_backup_chain = eng.server_chains[backup]
    queue.run_until(1.0)

    assert len(eng.server_key_history[main]) == 2
    # every node already trusts the regenerated public key
    fresh = net.nodes[main].keypair.public
    assert all(node.server_pubkeys[main] == fresh for node in net.nodes.values())

    # round zero drains the short main chain past low water; it gets replaced
    assert eng.server_chains[main] is not first_main_chain
    assert eng.server_chains[backup] is first_backup_chain
    anchor = eng.server_chains[main].anchor
    assert all(node.chain_state[main].head == anchor for node in net.nodes.values())
    assert eng.delivery.auth_rejects == 0
    assert eng.delivery.forged_accepts == 0


# -- PDC failover --------------------------------------------------------------------

def test_pdc_failover_promotes_es():
    net, chan, queue, trace, eng = make_sim(mini_world)
    queue.run_until(1.0)
    net.nodes[15].alive = False              # region 3 concentrator dies

    queue.run_until(205.0)                   # next round notices and fails over
    assert eng.acting_pdc == {3: 9}
    assert eng._region_pdc(3).id == 9
    assert 15 in eng.tables[net.main_server].threat_list

    delivered_before = eng.delivery.delivered
    queue.run_until(226.0)                   # two full data ticks at 210 and 225
    assert eng.delivery.delivered == delivered_before + 14


# -- end to end ----------------------------------------------------------------------

def test_clean_runs_deliver_everything_and_balance():
    for defense in (True, False):
        net, chan, queue, trace, eng = make_sim(mini_world, defense=defense)
        queue.run_until(121.0)
        assert eng.delivery.sent == 56       # 7 markers per 15 s tick
        assert eng.delivery.delivered == 56
        assert eng.delivery.forged_accepts == 0
        assert chan.conservation_errors() == []


def test_finish_closes_a_hand_placed_world_where_its_queue_stopped():
    """A hand-placed world's config carries a placeholder duration; `finish`
    settles the ledger and measures the run at the time the queue reached."""
    dropper = AttackSpec(kind="DROP", name="dropper", target_ids=(7,))
    world = build_world(sim_config(attacks=[dropper]), layout=mini_world())
    world.channel.queue.run_until(226.0)
    result = finish(world)
    assert result.metrics.duration == 226.0
    assert result.metrics.throughput_bps == \
        world.engine.delivery.payload_bits_delivered / 226.0
    assert result.trace_export().splitlines()[-1].startswith(
        "226.000000 | attack | dropper:DROP | targets:7 |")


def test_readings_too_large_for_one_frame_stop_the_run():
    """A 65,535-byte reading fits its record's 16-bit size, but sealed into
    an EMD payload it exceeds the frame's; the run stops at the first leg
    instead of counting frames the wire cannot carry as delivered."""
    net, chan, queue, trace, eng = make_sim(mini_world, mu_reading_bytes=65535,
                                            pmu_reading_bytes=65535)
    with pytest.raises(FrameFormatError, match="exceeds 65535"):
        queue.run_until(16.0)


def test_same_seed_reproduces_trace_digest():
    digests = set()
    for _ in range(3):
        net, chan, queue, trace, eng = make_sim(mini_world, seed=23)
        queue.run_until(121.0)
        digests.add(trace.digest())
    assert len(digests) == 1
    # the undefended baseline takes a visibly different path
    net, chan, queue, trace, eng = make_sim(mini_world, seed=23, defense=False)
    queue.run_until(121.0)
    assert trace.digest() not in digests
