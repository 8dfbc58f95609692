"""SERMT protocol engine.

Orchestrates the defended monitoring pipeline over byte-exact frames:
periodic trust rounds that score every sensor-tier entity and block the
untrustworthy, gateway forwarder selection by battery x trust x
connectivity, cluster formation and head election around data-carrying
nodes, trust/energy-weighted shortest-path routing to the control-center
gateways, and PDC stand-in election when a concentrator fails.

A `defense=False` engine runs the undefended baseline with the same
selection cadence and traffic pattern, so paired runs differ only in
protocol behavior. It never runs a trust round, so the main server's table
stays the empty one from `install_keys` and reads TV 100 (trusted) for
every entity. (Every broadcast in a server's name, the servers' own and
the attacks' forgeries, goes through `broadcast_claimed` in both modes: one
HMAC check per broadcast, then one chain-key check per receiver against its
own anchor; a forgery only moves counters.) Each remaining baseline
decision reads the switch in one place:

- cadence: `start` schedules trust rounds and gateway probes, or a plain
  reselect timer;
- PDC failover: `_reselect`;
- audit trigger: `_audit_tick`;
- MAC gate: `_authentic`, which `_relay_chain` applies at each hop to a
  group-keyed MAC and at the far end only to a MAC nested under a session
  key, since only the far end holds that key;
- ciphertext tag: `_server_ingest`;
- ES probing: `_select_es`;
- link weight: `_link_weight` (plain distance).
"""

from __future__ import annotations

import itertools
import math
import struct
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from . import rng as rngmod
from .crypto import (
    SIM_CURVE,
    AuthenticationError,
    ChainAnchorState,
    CipherFormatError,
    HashChain,
    InvalidKeyError,
    cipher_key,
    decode_point,
    derive_shared_secret,
    ecc_decrypt,
    ecc_encrypt,
    encode_point,
    generate_keypair,
    rc5_decrypt,
    rc5_encrypt,
)
from .entities import NodeState, distance
from .routing import build_adjacency, dijkstra, route_weight
from .simcore import Channel, DELIVERED
from .wire import DATA_TYPES, NESTED_MAC_TYPES, Frame, MsgType, make_frame, verify_frame

TRUST_THRESHOLD = 40.0          # trusted means strictly above
MARKER_MAGIC = b"\xa5\x3c\x96\x5a"
MARKER_LEN = 16                 # magic(4) + counter(4) + nonce(8)


class UndefinedTrustError(ValueError):
    """Trust is undefined before any test message has been sent."""


# -- scores ------------------------------------------------------------------

def compute_trust(delivered: int, sent: int) -> float:
    """Delivery ratio as a percentage."""
    if sent < 1:
        raise UndefinedTrustError("no test messages sent yet")
    if not 0 <= delivered <= sent:
        raise ValueError("delivered count out of range")
    return 100.0 * delivered / sent


def is_trusted(tv: float) -> bool:
    return tv > TRUST_THRESHOLD


def selection_score(bp: float, tv: float, c: int) -> float:
    """Battery x trust x connectivity: a gateway's forwarder preference (c:
    the N nodes it hears) and a cluster's head preference (c: the nodes of
    other regions it hears). Only comparisons matter."""
    if bp < 0 or tv < 0 or c < 0:
        raise ValueError("score inputs must be nonnegative")
    return bp * tv * c


# -- trust table ---------------------------------------------------------------

@dataclass
class TrustTable:
    """One server's view after a round; serialization is canonical so the
    two servers can be compared byte for byte."""

    timestamp: float = 0.0
    records: dict[int, float] = field(default_factory=dict)
    stale_regions: set[int] = field(default_factory=set)

    def tv(self, entity_id: int, default: float = 100.0) -> float:
        return self.records.get(entity_id, default)

    def trusted(self, entity_id: int) -> bool:
        return is_trusted(self.tv(entity_id))

    @property
    def threat_list(self) -> set[int]:
        return {i for i, tv in self.records.items() if tv <= TRUST_THRESHOLD}

    def serialize(self) -> bytes:
        body = [struct.pack(">dI", self.timestamp, len(self.records))]
        for entity_id in sorted(self.records):
            body.append(struct.pack(">Id", entity_id, self.records[entity_id]))
        body.append(struct.pack(">H", len(self.stale_regions)))
        for region_id in sorted(self.stale_regions):
            body.append(struct.pack(">H", region_id))
        return b"".join(body)

    @classmethod
    def deserialize(cls, blob: bytes) -> "TrustTable":
        timestamp, count = struct.unpack_from(">dI", blob, 0)
        offset = 12
        records = {}
        for _ in range(count):
            entity_id, tv = struct.unpack_from(">Id", blob, offset)
            records[entity_id] = tv
            offset += 12
        (stale_count,) = struct.unpack_from(">H", blob, offset)
        offset += 2
        stale = set()
        for _ in range(stale_count):
            (region_id,) = struct.unpack_from(">H", blob, offset)
            stale.add(region_id)
            offset += 2
        return cls(timestamp, records, stale)


@dataclass(frozen=True)
class ClusterId:
    """Region, trust-round timestamp, and the region's substations."""

    region_id: int
    trust_timestamp: float
    substation_ids: tuple[int, ...]

    def encode(self) -> bytes:
        head = struct.pack(">Hd H", self.region_id, self.trust_timestamp,
                           len(self.substation_ids))
        return head + b"".join(struct.pack(">H", s) for s in self.substation_ids)

    @classmethod
    def decode(cls, blob: bytes) -> "ClusterId":
        region_id, timestamp, count = struct.unpack_from(">HdH", blob, 0)
        subs = struct.unpack_from(f">{count}H", blob, 12)
        return cls(region_id, timestamp, tuple(subs))


# -- reading records -----------------------------------------------------------

def pack_records(records: list[tuple[int, bytes]]) -> bytes:
    out = [struct.pack(">H", len(records))]
    for source_id, reading in records:
        out.append(struct.pack(">IH", source_id, len(reading)))
        out.append(reading)
    return b"".join(out)


def unpack_records(blob: bytes) -> list[tuple[int, bytes]]:
    (count,) = struct.unpack_from(">H", blob, 0)
    offset = 2
    records = []
    for _ in range(count):
        source_id, size = struct.unpack_from(">IH", blob, offset)
        offset += 6
        reading = blob[offset:offset + size]
        if len(reading) != size:
            raise ValueError("truncated record")
        records.append((source_id, reading))
        offset += size
    if offset != len(blob):
        raise ValueError("trailing bytes after records")
    return records


# -- configuration / bookkeeping -------------------------------------------------

@dataclass(frozen=True)
class ProtocolConfig:
    trust_round_interval: float = 200.0
    test_messages: int = 10
    round_active_window: float = 5.0      # modeled round duration; probes defer
    round_trigger_holdoff: float = 30.0   # min gap before a shortfall re-round
    gw_probe_interval: float = 60.0
    mu_interval: float = 15.0
    pmu_interval: float = 15.0
    mu_reading_bytes: int = 64
    pmu_reading_bytes: int = 128
    chain_length: int = 1024
    chain_low_water: int = 4

    def __post_init__(self):
        for name in ("trust_round_interval", "gw_probe_interval", "mu_interval",
                     "pmu_interval"):
            if not getattr(self, name) > 0:         # NaN too: it would stall the queue
                raise ValueError(f"{name} must be positive")
        for name in ("round_active_window", "round_trigger_holdoff"):
            if not 0 <= getattr(self, name) < math.inf:     # NaN too
                raise ValueError(f"{name} must be finite and at least 0")
        if not 1 <= self.test_messages <= 0x10000:      # a probe's index is 16 bits
            raise ValueError("test_messages must be between 1 and 65536")
        # A round spends up to two keys of the initiator's chain before
        # _maybe_rotate_chain looks at it, and the anchor broadcast needs one
        # more: 3 keys must be left after each check, and a new chain of
        # length L holds L - 1 keys, or the run dies with the chain exhausted.
        if self.chain_low_water < 2 or self.chain_length < 4:
            raise ValueError("chain_low_water must be at least 2 and chain_length at least 4")
        for name in ("mu_reading_bytes", "pmu_reading_bytes"):
            if not MARKER_LEN <= getattr(self, name) <= 0xFFFF:   # a record's size is 16 bits
                raise ValueError(f"{name} must be between {MARKER_LEN} (the marker) and 65535")


@dataclass
class DeliveryLog:
    sent: int = 0
    delivered: int = 0
    payload_bits_delivered: int = 0
    isolation_alarms: int = 0        # gateway found nothing to forward through
    undeliverable_alarms: int = 0    # no route to a control center
    auth_rejects: int = 0            # failed MAC / chain-key checks
    tamper_detected: int = 0         # ciphertext rejected at decryption
    forged_accepts: int = 0          # accepted control key never issued (must stay 0)
    _issued: dict[int, tuple[bytes, int]] = field(default_factory=dict)
    _delivered_ids: set[int] = field(default_factory=set)

    def emit(self, counter: int, marker: bytes, bits: int) -> None:
        self.sent += 1
        self._issued[counter] = (marker, bits)

    def deliver(self, counter: int, marker: bytes) -> bool:
        """Count a reading once, and only if this exact marker was issued."""
        issued = self._issued.get(counter)
        if issued is None or issued[0] != marker or counter in self._delivered_ids:
            return False
        self._delivered_ids.add(counter)
        self.delivered += 1
        self.payload_bits_delivered += issued[1]
        return True

    def issued_markers(self) -> set[bytes]:
        return {marker for marker, _bits in self._issued.values()}


class ProtocolEngine:
    """Event-driven protocol state machine bound to one simulation world.

    The engine takes its world (network, event queue, trace) from the
    channel it is bound to; attacks and metrics in turn read it from the
    engine."""

    def __init__(self, channel: Channel, config: ProtocolConfig, seed: int, *,
                 defense: bool):
        self.channel = channel
        self.network = channel.network
        self.queue = channel.queue
        self.trace = channel.trace
        self.config = config
        self.defense = defense
        self.rng = rngmod.substream(seed, "protocol")
        self.delivery = DeliveryLog()

        self.gbk = self.rng.randbytes(16)
        self.sessions: dict[tuple[int, int], bytes] = {}
        self.tables: dict[int, TrustTable] = {}
        self.server_chains: dict[int, HashChain] = {}
        self.server_key_history: dict[int, list] = {}
        self.released_keys: set[bytes] = set()

        self.forwarder_of: dict[int, int | None] = {}   # gateway -> N (or persona)
        self.es_choice: dict[int, int | None] = {}      # gateway -> ES
        self.clusters: dict[int, list[int]] = {}        # solicitor -> member ids
        self.cluster_head: dict[int, int] = {}          # solicitor -> head id
        self.route_cache: dict[tuple[int, int], tuple[int, ...] | None] = {}
        self.acting_pdc: dict[int, int] = {}            # region -> stand-in node id
        self.known_personas: dict[int, tuple[int, tuple[float, float]]] = {}
        self.gw_queue: dict[int, list[tuple[int, bytes]]] = {}

        self.round_index = 0
        self._test_frames: dict[int, tuple[Frame, ...]] = {}   # prober -> this round's
        self.last_round_start = -math.inf
        self._trigger_pending = False
        self._trigger_backoff = config.round_trigger_holdoff
        self._marker_seq = itertools.count()

    # -- setup -------------------------------------------------------------

    def install_keys(self) -> None:
        """Pre-deployment provisioning: everyone gets a keypair and, unless
        foreign, the group key; servers get hash chains whose anchors and
        public keys are preloaded on every node."""
        for node in self.network.nodes.values():
            node.keypair = generate_keypair(SIM_CURVE, self.rng)
        for server_id in (self.network.main_server, self.network.backup_server):
            server = self.network.nodes[server_id]
            chain = HashChain(self.rng.randbytes(20), self.config.chain_length)
            self.server_chains[server_id] = chain
            self.server_key_history[server_id] = [server.keypair]
            self.tables[server_id] = TrustTable()
            public = server.keypair.public
            for node in self.network.nodes.values():
                node.server_pubkeys[server_id] = public
                node.chain_state[server_id] = ChainAnchorState(chain.anchor)

    def start(self) -> None:
        self.install_keys()
        if self.defense:
            self.queue.schedule(0.0, self._trust_round_event)
            self.queue.schedule(0.0, self._gw_probe_event)
        else:
            self.queue.schedule(0.0, self._reselect_event)
        self.queue.schedule(self.config.mu_interval, self._mu_data_event)
        self.queue.schedule(self.config.pmu_interval, self._pmu_data_event)

    # -- small helpers -----------------------------------------------------

    def group_key(self, node: NodeState) -> bytes:
        """The group key `node` MACs with: foreign hardware does not know it
        and signs with zeros, so its MACs cannot verify."""
        return self.gbk if node.has_gbk else bytes(16)

    def _gbk_frame(self, msg_type: MsgType, sender: NodeState, payload: bytes,
                   session_key: bytes | None = None) -> Frame:
        return make_frame(msg_type, sender.id, payload, gbk=self.group_key(sender),
                          session_key=session_key)

    def current_table(self) -> TrustTable:
        return self.tables[self.network.main_server]

    def _authentic(self, frame: Frame, session_key: bytes | None = None) -> bool:
        """The MAC gate: the baseline accepts every frame unchecked."""
        return not self.defense or verify_frame(frame, gbk=self.gbk,
                                                session_key=session_key)

    def _next_chain_key(self, server_id: int) -> bytes:
        key = self.server_chains[server_id].next_key()
        self.released_keys.add(key)
        return key

    # -- ask and answer ------------------------------------------------------

    def _solicit(self, solicitors: Iterable[NodeState], msg_type: MsgType, payload_of,
                 skip=()) -> list[tuple[NodeState, list[NodeState]]]:
        """Each solicitor, in turn, broadcasts `msg_type` to the N tier.
        Returns every hearer not in `skip`, in ID order, with the solicitors
        it heard, in the order they asked."""
        heard: dict[int, list[NodeState]] = {}
        for solicitor in solicitors:
            frame = self._gbk_frame(msg_type, solicitor, payload_of(solicitor))
            for node_id in self.channel.broadcast(solicitor, frame, kinds=("N",)):
                if node_id not in skip:
                    heard.setdefault(node_id, []).append(solicitor)
        return [(self.network.nodes[node_id], heard[node_id]) for node_id in sorted(heard)]

    def _answer(self, node: NodeState, asker: NodeState, payload: bytes,
                control: bool = False) -> bool:
        """`node` ACKs `asker`; True if the ACK arrived and passed the MAC gate."""
        ack = self._gbk_frame(MsgType.ACK, node, payload)
        return (self.channel.transmit(node, asker, ack, control=control) == DELIVERED
                and self._authentic(ack))

    # -- probing -----------------------------------------------------------

    def _tests(self, prober: NodeState) -> tuple[Frame, ...]:
        """The round's test messages from `prober`: (round, index) each.
        They are the same for every target, so each prober's are made once
        per round; frames are values, so sharing them changes no send."""
        tests = self._test_frames.get(prober.id)
        if tests is None:
            tests = self._test_frames[prober.id] = tuple(
                self._gbk_frame(MsgType.TEST, prober,
                                struct.pack(">HH", self.round_index & 0xFFFF, i))
                for i in range(self.config.test_messages))
        return tests

    def _probe(self, prober: NodeState, target: NodeState) -> float:
        """Send test messages and count authenticated echoes."""
        tests = self._tests(prober)
        got = sum(self.channel.transmit(prober, target, test, control=True) == DELIVERED
                  and self._answer(target, prober, test.payload, control=True)
                  for test in tests)
        return compute_trust(got, len(tests))

    def _probe_phantom(self, prober: NodeState, persona_id: int) -> float:
        """A fake identity never answers; the prober still pays to ask."""
        _host, fake_pos = self.known_personas[persona_id]
        for test in self._tests(prober):
            self.channel.transmit_phantom(prober, persona_id, fake_pos, test, control=True)
        return 0.0

    def _personas_in_region(self, region_id: int) -> list[int]:
        return [pid for pid, (host_id, _pos) in sorted(self.known_personas.items())
                if self.network.nodes[host_id].region_id == region_id]

    # -- trust rounds --------------------------------------------------------

    def _round_and_reselect(self) -> None:
        t = self.queue.now
        self.run_trust_round(self.network.server(main=self.round_index % 2 == 0))
        self.last_round_start = t
        self._reselect()

    def _trust_round_event(self) -> None:
        self._round_and_reselect()
        self.queue.schedule(self.queue.now + self.config.trust_round_interval,
                            self._trust_round_event)

    def _audit_tick(self, sent_before: int, delivered_before: int) -> None:
        """Servers expect every reading each cadence; a shortfall means some
        path swallowed data, so they bring the next evaluation forward."""
        if not self.defense or self._trigger_pending:
            return
        emitted = self.delivery.sent - sent_before
        landed = self.delivery.delivered - delivered_before
        if landed >= emitted:
            return
        self._trigger_pending = True
        self.queue.schedule(self.queue.now + 1.0, self._triggered_round_event)

    def _triggered_round_event(self) -> None:
        # out-of-cadence re-evaluation; the periodic chain is untouched, and
        # fruitless triggers back off so a starved network cannot thrash
        self._trigger_pending = False
        if self.queue.now - self.last_round_start < self._trigger_backoff:
            return
        threats_before = len(self.current_table().threat_list)
        self._round_and_reselect()
        if len(self.current_table().threat_list) > threats_before:
            self._trigger_backoff = self.config.round_trigger_holdoff
        else:
            self._trigger_backoff = min(self._trigger_backoff * 2,
                                        self.config.trust_round_interval)

    def run_trust_round(self, initiator: NodeState) -> TrustTable:
        t = self.queue.now
        net = self.network
        table = TrustTable(timestamp=t)
        previous = self.tables[initiator.id]
        home_region = initiator.region_id
        self.trace.log(t, "round", f"server:{initiator.id}", f"begin:{self.round_index}")

        # the initiating server sweeps its own region itself
        table.records.update(self._evaluate_region(initiator, home_region, set()))

        visited = {home_region}
        frontier = [home_region]
        while frontier:
            current = frontier.pop(0)
            relay = self._pick_relay(current, table)
            for adjacent in net.adjacent_regions[current]:
                if adjacent in visited:
                    continue
                visited.add(adjacent)
                evaluator, probed = (None, {}) if relay is None else \
                    self._handoff(relay, adjacent, table, initiator)
                if evaluator is not None:
                    sweep = self._evaluate_region(evaluator, adjacent,
                                                  set(probed) | {evaluator.id})
                    if self._report_blocked_list(evaluator, initiator, sweep):
                        table.records.update(sweep)
                        frontier.append(adjacent)
                        continue
                table.stale_regions.add(adjacent)
                self.trace.log(t, "round", f"region:{adjacent}", "stale")

        # stale regions keep their last-known scores
        for region_id in table.stale_regions:
            for node in net.region_trust_targets(region_id):
                if node.id not in table.records and node.id in previous.records:
                    table.records[node.id] = previous.records[node.id]

        self.tables[initiator.id] = table
        self._sync_peer_server(initiator, table)
        # gateways hear the new table; their decisions read current_table()
        self._control_broadcast(initiator, MsgType.BLOCKED_LIST, table.serialize(),
                                kinds=("GW",))
        self._regenerate_server_keys()
        self.round_index += 1
        self._test_frames.clear()
        self.trace.log(t, "round", f"server:{initiator.id}",
                       f"complete threats={len(table.threat_list)}")
        return table

    def _evaluate_region(self, prober: NodeState, region_id: int,
                         skip: set[int]) -> dict[int, float]:
        records: dict[int, float] = {}
        for target in self.network.region_trust_targets(region_id):
            if target.id in skip or target.id == prober.id:
                continue
            records[target.id] = self._probe(prober, target)
        for persona_id in self._personas_in_region(region_id):
            if persona_id not in skip:
                records[persona_id] = self._probe_phantom(prober, persona_id)
        return records

    def _pick_relay(self, region_id: int, table: TrustTable) -> NodeState | None:
        candidates = [
            n for n in self.network.region_trust_targets(region_id)
            if n.alive and n.id in table.records and is_trusted(table.records[n.id])
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda n: (table.records[n.id], -n.id))

    def _handoff(self, relay: NodeState, region_id: int, table: TrustTable,
                 initiator: NodeState) -> tuple[NodeState | None, dict[int, float]]:
        """Probe the region's nodes nearest the relay until one proves
        trustworthy, then delegate the region sweep to it."""
        candidates = sorted(
            self.network.region_trust_targets(region_id),
            key=lambda n: (distance(relay.position, n.position), n.id))
        probed: dict[int, float] = {}
        evaluator = None
        for candidate in candidates:
            tv = self._probe(relay, candidate)
            probed[candidate.id] = tv
            if not is_trusted(tv):
                continue
            rqm = self._gbk_frame(MsgType.RQM, relay, struct.pack(">H", region_id))
            if self.channel.transmit(relay, candidate, rqm, control=True) == DELIVERED:
                evaluator = candidate
                break
        if probed:
            if self._report_blocked_list(relay, initiator, probed):
                table.records.update(probed)
        return evaluator, probed

    def _report_blocked_list(self, reporter: NodeState, server: NodeState,
                             records: dict[int, float]) -> bool:
        slice_table = TrustTable(timestamp=self.queue.now, records=dict(records))
        frame = self._gbk_frame(MsgType.BLOCKED_LIST, reporter, slice_table.serialize())
        for _attempt in range(2):
            if self.channel.transmit(reporter, server, frame, control=True) == DELIVERED:
                return self._authentic(frame)
        return False

    def _sync_peer_server(self, initiator: NodeState, table: TrustTable) -> None:
        peer = self.network.server(main=initiator.id != self.network.main_server)
        frame = self._gbk_frame(MsgType.BLOCKED_LIST, initiator, table.serialize())
        if self.channel.transmit(initiator, peer, frame, control=True) == DELIVERED:
            self.tables[peer.id] = TrustTable.deserialize(frame.payload)
        else:
            self.trace.log(self.queue.now, "round", f"sync:{initiator.id}->{peer.id}",
                           "failed")

    def _control_broadcast(self, server: NodeState, msg_type: MsgType, payload: bytes,
                           kinds: tuple[str, ...] | None = None) -> list[NodeState]:
        """Broadcast a frame carrying the server's next chain key; returns the
        receivers that authenticated it. Callers update each receiver after all
        the checks, which is equivalent: an update touches only its receiver."""
        frame = make_frame(msg_type, server.id, payload, gbk=self.gbk,
                           chain_key=self._next_chain_key(server.id))
        return self.broadcast_claimed(server, server.id, frame, control=True, kinds=kinds)

    def broadcast_claimed(self, sender: NodeState, claimed_server: int, frame: Frame,
                          control: bool = False,
                          kinds: tuple[str, ...] | None = None) -> list[NodeState]:
        """Broadcast `frame` from `sender` in `claimed_server`'s name; returns
        the receivers that accepted it. A receiver accepts iff the frame
        carries a chain key, its HMAC verifies, and the key hashes onto the
        receiver's own anchor for that server; acceptance consumes the key.
        The HMAC depends on the frame and the group key alone, so it is
        checked once per broadcast, not once per receiver."""
        receivers = self.channel.broadcast(sender, frame, control=control, kinds=kinds)
        if not (frame.chain_key and verify_frame(frame, gbk=self.gbk)):
            self.delivery.auth_rejects += len(receivers)    # every receiver rejects it
            return []
        accepted = []
        for node_id in receivers:
            node = self.network.nodes[node_id]
            state = node.chain_state.get(claimed_server)
            if state is None or not state.accept(frame.chain_key):
                self.delivery.auth_rejects += 1
                continue
            if frame.chain_key not in self.released_keys:
                self.delivery.forged_accepts += 1    # ground-truth cross-check
            accepted.append(node)
        return accepted

    def _regenerate_server_keys(self) -> None:
        for server_id in (self.network.main_server, self.network.backup_server):
            server = self.network.nodes[server_id]
            server.keypair = generate_keypair(SIM_CURVE, self.rng)
            self.server_key_history[server_id].append(server.keypair)
            server.server_pubkeys[server_id] = server.keypair.public
            payload = encode_point(server.keypair.public, SIM_CURVE)
            public = decode_point(payload, SIM_CURVE)   # as every receiver reads it
            for node in self._control_broadcast(server, MsgType.PUBKEY, payload):
                node.server_pubkeys[server_id] = public
            self._maybe_rotate_chain(server)

    def _maybe_rotate_chain(self, server: NodeState) -> None:
        chain = self.server_chains[server.id]
        if chain.remaining > self.config.chain_low_water:
            return
        fresh = HashChain(self.rng.randbytes(20), self.config.chain_length)
        for node in self._control_broadcast(server, MsgType.ANCHOR_BCAST, fresh.anchor):
            node.chain_state[server.id] = ChainAnchorState(fresh.anchor)
        server.chain_state[server.id] = ChainAnchorState(fresh.anchor)
        self.server_chains[server.id] = fresh

    # -- selection / clustering ----------------------------------------------

    def _reselect_event(self) -> None:
        t = self.queue.now
        self._reselect()
        self._select_es()
        self.queue.schedule(t + self.config.trust_round_interval, self._reselect_event)

    def _reselect(self) -> None:
        self.route_cache.clear()
        self._select_forwarders()
        self._form_clusters()
        if self.defense:
            self._check_pdc_failover()

    def _select_forwarders(self) -> None:
        net = self.network
        gateways = net.gateways
        # (node_id, bp, c, position) per gateway, from ACKs it can verify
        acks: dict[int, list[tuple[int, float, int, tuple[float, float]]]] = {}
        for node, heard in self._solicit(gateways, MsgType.FORW_RQM, lambda gw: b""):
            closest = net.nearest(node.position, heard)
            bp, c = node.behavior.advertised(
                node, node.battery_mah, self.channel.connectivity_counts(node)[0])
            if not self._answer(node, closest, struct.pack(">dHdd", bp, c, *node.position)):
                continue
            acks.setdefault(closest.id, []).append((node.id, bp, c, node.position))
            self._advertise_personas(node, gateways, acks)

        table = self.current_table()
        for gw in gateways:
            candidates = [c for c in acks.get(gw.id, []) if table.trusted(c[0])]
            if not candidates:
                self.forwarder_of[gw.id] = None
                self.delivery.isolation_alarms += 1
                continue
            best = max(candidates,
                       key=lambda c: (selection_score(c[1], table.tv(c[0]), c[2]), -c[0]))
            self.forwarder_of[gw.id] = best[0]
            if best[0] in net.nodes:
                self._ensure_session((gw.id, best[0]))

    def _advertise_personas(self, host: NodeState, gateways: Iterable[NodeState],
                            acks: dict) -> None:
        for persona_id, fake_pos in host.behavior.advertised_personas():
            self.known_personas[persona_id] = (host.id, fake_pos)
            closest = self.network.nearest(fake_pos, gateways)
            payload = struct.pack(">dHdd", host.battery_mah, 8, *fake_pos)
            # the host's radio carries the lie; the MAC is valid (it has GBK)
            fake_ack = make_frame(MsgType.ACK, persona_id, payload, gbk=self.gbk)
            if self.channel.transmit(host, closest, fake_ack) != DELIVERED:
                continue
            if not self.current_table().trusted(persona_id):
                continue
            acks.setdefault(closest.id, []).append(
                (persona_id, host.battery_mah, 8, fake_pos))

    def _form_clusters(self) -> None:
        """Every real forwarder (a carrier) solicits a cluster of the N nodes
        it reaches that carry nothing, so a cluster holds exactly one
        carrier, its solicitor. Only the solicitor carries data, so it alone
        keys a session to the elected head."""
        net, channel = self.network, self.channel
        self.clusters, self.cluster_head = {}, {}
        forwarders = set(self.forwarder_of.values())
        carriers = [n for n in net.nodes.values() if n.id in forwarders]    # in ID order
        table = self.current_table()

        members: dict[int, list[int]] = {c.id: [c.id] for c in carriers}
        for node, heard in self._solicit(carriers, MsgType.JOIN_RQM,
                                         lambda c: struct.pack(">H", c.region_id),
                                         skip=members):
            solicitor = heard[0]        # the lowest ID: carriers ask in ID order
            # a node without the group key cannot join
            if (self._answer(node, solicitor, struct.pack(">I", solicitor.id))
                    and table.trusted(node.id)):
                members[solicitor.id].append(node.id)

        for solicitor in carriers:
            cluster = sorted(members[solicitor.id])
            region = net.regions[solicitor.region_id]
            cluster_id = ClusterId(region.id, table.timestamp,
                                   tuple(region.substation_ids))
            announce = self._gbk_frame(MsgType.CLUSTER_ID, solicitor,
                                       cluster_id.encode())
            channel.broadcast(solicitor, announce, kinds=("N",))
            head_id = max(
                cluster,
                key=lambda i: (selection_score(net.nodes[i].battery_mah, table.tv(i),
                                               channel.connectivity_counts(net.nodes[i])[1]),
                               -i))
            self.clusters[solicitor.id] = cluster
            self.cluster_head[solicitor.id] = head_id
            if head_id != solicitor.id:
                self._ensure_session((solicitor.id, head_id))

    # -- sessions ------------------------------------------------------------

    def _ensure_session(self, hops: tuple[int, ...]) -> bytes | None:
        """The session key of the two ends of `hops`; a new pair first
        swaps public keys along `hops`, each end's key relayed to the
        other. None if either key did not arrive."""
        a, b = self.network.nodes[hops[0]], self.network.nodes[hops[-1]]
        pair = (min(a.id, b.id), max(a.id, b.id))
        if pair in self.sessions:
            return self.sessions[pair]
        for leg, node in ((hops, a), (hops[::-1], b)):
            if self._relay_chain(leg, MsgType.PUBKEY,
                                 encode_point(node.keypair.public, SIM_CURVE)) is None:
                return None
        secret = derive_shared_secret(a.keypair.private, b.keypair.public, SIM_CURVE)
        self.sessions[pair] = cipher_key(secret)
        return self.sessions[pair]

    def _relay_chain(self, hops: tuple[int, ...], msg_type: MsgType, payload: bytes,
                     session_key: bytes | None = None) -> Frame | None:
        """Carry a frame from `hops[0]` hop by hop; a corrupting relay swaps
        the payload mid-path. Every hop checks a group-keyed MAC; a MAC
        nested under `session_key` is checked at the far end only, the one
        hop that holds the key. Returns the frame as it arrived, or None if
        a hop dropped it or a MAC check failed."""
        frame = self._gbk_frame(msg_type, self.network.nodes[hops[0]], payload,
                                session_key=session_key)
        for u_id, v_id in zip(hops, hops[1:]):
            u, v = self.network.nodes[u_id], self.network.nodes[v_id]
            if u_id != hops[0] and msg_type in DATA_TYPES:
                tampered = u.behavior.corrupt_payload(frame.payload)
                if tampered is not None:
                    if msg_type in NESTED_MAC_TYPES:
                        # cannot recompute the end-to-end MAC without x_k
                        frame = Frame(frame.msg_type, frame.sender_id, tampered,
                                      frame.chain_key, frame.mac)
                    else:
                        frame = make_frame(msg_type, frame.sender_id, tampered,
                                           gbk=self.gbk)
            if self.channel.transmit(u, v, frame) != DELIVERED:
                return None
            if ((msg_type not in NESTED_MAC_TYPES or v_id == hops[-1])
                    and not self._authentic(frame, session_key)):
                self.delivery.auth_rejects += 1
                return None
        return frame

    def _sealed_leg(self, hops: tuple[int, ...], msg_type: MsgType,
                    records: list[tuple[int, bytes]]) -> list[tuple[int, bytes]] | None:
        """Carry records RC5-sealed under the session key of the leg's two
        ends along `hops`, and open them at the far end. Returns None if no
        key was agreed, or the frame was lost, failed a MAC check or would
        not decrypt."""
        key = self._ensure_session(hops)
        if key is None:
            return None
        arrived = self._relay_chain(hops, msg_type, rc5_encrypt(key, pack_records(records)),
                                    session_key=key)
        if arrived is None:
            return None
        try:
            return unpack_records(rc5_decrypt(key, arrived.payload))
        except (CipherFormatError, ValueError, struct.error):
            self.delivery.tamper_detected += 1
            return None

    # -- gateway-local ES selection --------------------------------------------

    def _gw_probe_event(self) -> None:
        t = self.queue.now
        round_end = self.last_round_start + self.config.round_active_window
        if self.last_round_start < t < round_end:     # defer past a round under way
            self.queue.schedule(round_end, self._gw_probe_event)
            return
        self._select_es()
        self.queue.schedule(t + self.config.gw_probe_interval, self._gw_probe_event)

    def _select_es(self) -> None:
        net = self.network
        storage = net.members(kind="ES")
        for substation_id in net.pmu_substations:
            if substation_id in (net.main_cc, net.backup_cc):
                continue                      # monitored locally, no WSN leg
            gw = net.nodes[net.gateway_of_substation[substation_id]]
            heard = self.channel.hears(gw)
            candidates = [es for es in storage if es.id in heard]
            scored = []
            for es in candidates:
                tv = self._probe(gw, es) if self.defense else self.current_table().tv(es.id)
                if is_trusted(tv):
                    scored.append((tv, -es.id, es))
            if not scored:
                self.es_choice[gw.id] = None
                self.delivery.isolation_alarms += 1
                continue
            best = max(scored)[2]
            self.es_choice[gw.id] = best.id
            self._ensure_session((gw.id, best.id))

    # -- readings ---------------------------------------------------------------

    def _new_reading(self, size: int) -> bytes:
        counter = next(self._marker_seq)
        marker = MARKER_MAGIC + struct.pack(">I", counter) + self.rng.randbytes(8)
        reading = marker + self.rng.randbytes(size - MARKER_LEN)
        self.delivery.emit(counter, marker, len(reading) * 8)
        self.trace.log(self.queue.now, "emit", f"reading:{counter}",
                       f"bits:{len(reading) * 8}")
        return reading

    def _read_units(self, kind: str, substation_id: int,
                    size: int) -> list[tuple[int, bytes]]:
        """One reading from each `kind` unit of the substation, in ID order.
        At a control-center site the server takes them in directly;
        elsewhere they are returned as (unit, reading) for the WSN leg."""
        net = self.network
        at_cc = substation_id in (net.main_cc, net.backup_cc)
        readings = []
        for unit in net.units.get((kind, substation_id), ()):
            reading = self._new_reading(size)
            if at_cc:
                self.ingest_reading(reading)
            else:
                readings.append((unit.id, reading))
        return readings

    def ingest_reading(self, reading: bytes) -> None:
        if reading[:4] != MARKER_MAGIC or len(reading) < MARKER_LEN:
            return
        (counter,) = struct.unpack_from(">I", reading, 4)
        if self.delivery.deliver(counter, reading[:MARKER_LEN]):
            self.trace.log(self.queue.now, "deliver", f"reading:{counter}", "ok")

    def _server_ingest(self, server: NodeState, blob: bytes) -> None:
        plain = None
        for keypair in reversed(self.server_key_history[server.id]):
            try:
                plain = ecc_decrypt(keypair.private, blob, SIM_CURVE,
                                    verify_tag=self.defense)
                break
            except (AuthenticationError, CipherFormatError, InvalidKeyError,
                    ValueError):
                continue
        if plain is None:
            self.delivery.tamper_detected += 1
            return
        try:
            records = unpack_records(plain)
        except (ValueError, struct.error):
            self.delivery.tamper_detected += 1
            return
        for _source, reading in records:
            self.ingest_reading(reading)

    # -- MU data path -------------------------------------------------------------

    def _mu_data_event(self) -> None:
        t = self.queue.now
        net = self.network
        sent_before, delivered_before = self.delivery.sent, self.delivery.delivered
        carry: dict[int, list[tuple[int, bytes]]] = {}

        for gw in net.gateways:
            queue = self.gw_queue.setdefault(gw.id, [])
            queue.extend(self._read_units("MU", gw.substation_id,
                                          self.config.mu_reading_bytes))
            self._flush_gateway(gw, queue, carry)

        self._flush_clusters(carry)
        self._audit_tick(sent_before, delivered_before)
        self.queue.schedule(t + self.config.mu_interval, self._mu_data_event)

    def _flush_gateway(self, gw: NodeState, queue: list[tuple[int, bytes]],
                       carry: dict[int, list[tuple[int, bytes]]]) -> None:
        if not queue:
            return
        forwarder_id = self.forwarder_of.get(gw.id)
        if forwarder_id is None:
            self.delivery.isolation_alarms += 1
            return
        if forwarder_id not in self.network.nodes:
            # a phantom: frames vanish toward the advertised location
            _host, fake_pos = self.known_personas[forwarder_id]
            for source_id, reading in queue:
                husk = Frame(MsgType.EMD, gw.id,
                             rc5_encrypt(bytes(16), pack_records([(source_id, reading)])))
                self.channel.transmit_phantom(gw, forwarder_id, fake_pos, husk)
            queue.clear()
            return
        if self._ensure_session((gw.id, forwarder_id)) is None:
            self.delivery.isolation_alarms += 1
            return
        for record in queue:
            opened = self._sealed_leg((gw.id, forwarder_id), MsgType.EMD, [record])
            if opened:
                carry.setdefault(forwarder_id, []).extend(opened)
        queue.clear()

    def _flush_clusters(self, carry: dict[int, list[tuple[int, bytes]]]) -> None:
        """Each solicitor hands what it carries to its cluster's head, and
        each head sends one aggregate. Only real forwarders carry, and each
        one solicits a cluster (see `_form_clusters`), so every key of
        `carry` is a solicitor."""
        net = self.network
        routed_by_head: dict[int, list[tuple[int, bytes]]] = {}
        for solicitor_id, head_id in sorted(self.cluster_head.items()):
            records = carry.get(solicitor_id)
            if not records:
                continue
            if solicitor_id != head_id:
                records = self._sealed_leg((solicitor_id, head_id), MsgType.DATA, records)
                if records is None:
                    continue
            routed_by_head.setdefault(head_id, []).extend(records)
        for head_id in sorted(routed_by_head):
            self._send_aggregate(net.nodes[head_id], routed_by_head[head_id])

    def _send_aggregate(self, head: NodeState, records: list[tuple[int, bytes]]) -> None:
        # heads prefer the main control center; a severed relay graph falls
        # back to the backup center rather than stranding the whole cluster
        for main in (True, False):
            path = self._route_to_cc(head, main=main)
            if path is not None:
                self._seal_to_server(head, main, path, records)
                return
        self.delivery.undeliverable_alarms += 1

    def _seal_to_server(self, origin: NodeState, main: bool,
                        path: tuple[int, ...] | None,
                        records: list[tuple[int, bytes]]) -> None:
        """ECC-seal the records to the main or backup server's current key and
        relay them along `path` as AGG_DATA. A None path counts an
        undeliverable alarm before any seal: no ciphertext, no RNG draw.

        An origin with no key for the server cannot seal, and its records stop
        here: no frame, no RNG draw. Only a foreign plant lacks the keys, and
        it heads a cluster only in the baseline. No alarm is counted: an alarm
        is an honest node reporting that it found no route, and a plant
        reports nothing; its loss shows in `packet_drop_pct`, as a
        dropper's does."""
        server = self.network.server(main)
        pubkey = origin.server_pubkeys.get(server.id)
        if pubkey is None:
            return
        if path is None:
            self.delivery.undeliverable_alarms += 1
            return
        blob = ecc_encrypt(pubkey, pack_records(sorted(records)), SIM_CURVE, self.rng)
        arrived = self._relay_chain(path, MsgType.AGG_DATA, blob)
        if arrived is not None:
            self._server_ingest(server, arrived.payload)

    def _route_to_cc(self, source: NodeState, main: bool) -> tuple[int, ...] | None:
        cc_gw = self.network.cc_gateway(main)
        if (source.region_id == cc_gw.region_id
                and cc_gw.id in self.channel.hears(source)):
            return (source.id, cc_gw.id)
        # threat exclusions can sever the sensor tier; storage nodes
        # and concentrators then relay as a last resort
        return self._route(source.id, cc_gw.id, lambda: (
            self._relays(kinds, source.id) + [cc_gw] for kinds in (("N",), ("N", "ES", "PDC"))))

    def _relays(self, kinds: tuple[str, ...], src_id: int) -> list[NodeState]:
        """The relay rule of every route pool: the live entities of `kinds`
        that the current table trusts, plus the source itself."""
        table = self.current_table()
        return [n for n in self.network.members()
                if n.kind in kinds and (table.trusted(n.id) or n.id == src_id)]

    def _route(self, src_id: int, dst_id: int,
               pools: Callable[[], Iterable[list[NodeState]]]) -> tuple[int, ...] | None:
        """Cheapest path over the first pool that connects the two ends;
        `pools()` gives the pools in order.

        Each (source, target) pair is routed once per selection: the answer,
        None included, stays in `route_cache` until the next `_reselect`
        clears it. `pools` is called only on a cache miss, so a later ask
        builds no pool. The order of a pool's nodes cannot change an answer
        (adjacency rows are sorted and `dijkstra` breaks ties on the path),
        and a node listed twice only adds duplicate edges."""
        key = (src_id, dst_id)
        if key not in self.route_cache:
            self.route_cache[key] = None
            for pool in pools():
                adjacency = build_adjacency(pool, self.channel.hears, self._link_weight)
                found = dijkstra(adjacency, src_id, {dst_id})
                if found:
                    self.route_cache[key] = tuple(found[1])
                    break
        return self.route_cache[key]

    def _link_weight(self, u: NodeState, v: NodeState, dist: float) -> float:
        if not self.defense:
            return dist
        return route_weight(dist, v.battery_mah, self.current_table().tv(v.id))

    # -- PMU data path -------------------------------------------------------------

    def _pmu_data_event(self) -> None:
        t = self.queue.now
        net = self.network
        sent_before, delivered_before = self.delivery.sent, self.delivery.delivered
        pdc_inbox: dict[int, list[tuple[int, bytes]]] = {}

        for substation_id in net.pmu_substations:
            gw = net.nodes[net.gateway_of_substation[substation_id]]
            readings = self._read_units("PMU", substation_id,
                                        self.config.pmu_reading_bytes)
            if not readings:
                continue
            es_id = self.es_choice.get(gw.id)
            if es_id is None or not net.nodes[es_id].alive:
                self.delivery.isolation_alarms += 1
                continue
            if self._ensure_session((gw.id, es_id)) is None:
                self.delivery.isolation_alarms += 1
                continue
            opened = self._sealed_leg((gw.id, es_id), MsgType.EMD, readings)
            if opened:
                self._es_to_pdc(net.nodes[es_id], opened, pdc_inbox)

        for pdc_id in sorted(pdc_inbox):
            self._pdc_dispatch(net.nodes[pdc_id], pdc_inbox[pdc_id])
        self._audit_tick(sent_before, delivered_before)
        self.queue.schedule(t + self.config.pmu_interval, self._pmu_data_event)

    def _region_pdc(self, region_id: int) -> NodeState:
        """The region's acting concentrator, or else its deployed one."""
        net = self.network
        return net.nodes[self.acting_pdc.get(region_id, net.pdc_of_region[region_id])]

    def _es_to_pdc(self, es: NodeState, records: list[tuple[int, bytes]],
                   pdc_inbox: dict[int, list[tuple[int, bytes]]]) -> None:
        pdc = self._region_pdc(es.region_id)
        if pdc.id == es.id:
            pdc_inbox.setdefault(pdc.id, []).extend(records)
            return
        if pdc.id in self.channel.hears(es):
            path: tuple[int, ...] | None = (es.id, pdc.id)
        else:
            path = self._route(es.id, pdc.id, lambda: (self._relays(("ES",), es.id) + [pdc],))
        if path is None:
            self.delivery.undeliverable_alarms += 1
            return
        opened = self._sealed_leg(path, MsgType.DATA, records)
        if opened:
            # only records make a concentrator dispatch: one that got only
            # garbage seals nothing to the control centers
            pdc_inbox.setdefault(pdc.id, []).extend(opened)

    def _pdc_dispatch(self, pdc: NodeState, records: list[tuple[int, bytes]]) -> None:
        """Aggregate and deliver to both control centers over the static
        concentrator overlay."""
        for main in (True, False):
            self._seal_to_server(pdc, main, self._pdc_route(pdc, main), records)

    def _pdc_route(self, pdc: NodeState, main: bool) -> tuple[int, ...] | None:
        net = self.network
        cc_gw = net.cc_gateway(main)
        return self._route(pdc.id, cc_gw.id, lambda: (
            [node for node in map(self._region_pdc, sorted(net.regions)) if node.alive] + [cc_gw],
            # concentrators too sparse: fall back to the trusted relay tier
            [pdc] + self._relays(("ES",), pdc.id) + [cc_gw]))

    # -- PDC failover ---------------------------------------------------------------

    def _check_pdc_failover(self) -> None:
        table = self.current_table()
        for region_id in sorted(self.network.regions):
            current = self._region_pdc(region_id)
            failed = ((not current.alive) or current.battery_mah <= 0.0
                      or not table.trusted(current.id))
            if failed:
                self.pdc_failover(region_id)

    def pdc_failover(self, region_id: int) -> int | None:
        """Promote the most trusted ES of the region to acting concentrator."""
        table = self.current_table()
        old = self._region_pdc(region_id)
        candidates = [es for es in self.network.members(kind="ES", region=region_id)
                      if table.trusted(es.id) and es.id != old.id]
        if not candidates:
            self.acting_pdc.pop(region_id, None)
            self.delivery.undeliverable_alarms += 1
            return None
        chosen = max(candidates, key=lambda es: (table.tv(es.id), -es.id))
        self.acting_pdc[region_id] = chosen.id
        self.trace.log(self.queue.now, "failover", f"region:{region_id}",
                       f"acting_pdc:{chosen.id}")
        return chosen.id
