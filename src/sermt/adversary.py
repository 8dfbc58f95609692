"""Attack injection: compromised or foreign nodes running hostile behaviors.

Each attack is declared as an `AttackSpec`, validated against the threat
model (substation gateways, servers, and metering units are out of reach),
and wired into a running simulation by `apply_attacks`. A compromised
node's `NodeState.behavior` is a `Behavior` subclass that overrides the
hooks its attack subverts; the channel and the protocol engine call those
hooks on every node. An eavesdropper keeps the honest behaviour and is
listed in `Channel.eavesdroppers`; a wormhole is a pair in
`Channel.wormholes`. Scheduled attacks (flooding, forged broadcasts) are
plain events in the simulation queue that broadcast through
`ProtocolEngine.broadcast_claimed`. Each attack's behaviours and events
write its effects to its own `AttackOutcomeLog`, so runs can report
per-attack outcome counters.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, fields
from fractions import Fraction

from . import rng as rngmod
from .crypto import CipherFormatError, generate_keypair, rc5_decrypt
from .entities import Behavior, Network, NodeState
from .protocol import SIM_CURVE, ProtocolEngine, unpack_records
from .simcore import Channel
from .wire import DATA_TYPES, MsgType, make_frame

ATTACK_KINDS = ("DROP", "FLOOD", "SYBIL", "SINKHOLE", "WORMHOLE",
                "EAVESDROP", "FALSE_DATA")
COMPROMISABLE_KINDS = ("N", "ES", "PDC")

# frames an interceptor can profitably refuse to carry
INTERCEPTED_TYPES = DATA_TYPES | {MsgType.TEST}


class AttackConfigError(ValueError):
    """The spec steps outside the threat model or is internally invalid."""


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    name: str = ""                          # config section label
    target_ids: tuple[int, ...] = ()
    count: int = 0                          # random targets when ids not given
    start_time: float = 0.0
    attack_interval: float = 1.0
    flood_rate: int = 10                    # bogus frames per burst
    personas: int = 3                       # fake identities per Sybil node
    drop_fraction: float = 0.7
    corrupt_fraction: float = 1.0
    foreign: bool = False                   # outside hardware, no group key
    position: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise AttackConfigError(f"unknown attack kind {self.kind!r}")
        if not self.start_time >= 0:            # NaN too
            raise AttackConfigError("start_time must be >= 0")
        if not self.attack_interval > 0:        # NaN too: bursts would stop after one
            raise AttackConfigError("attack_interval must be positive")
        if not 0 < self.drop_fraction <= 1:
            raise AttackConfigError("drop_fraction must be in (0, 1]")
        if not 0 < self.corrupt_fraction <= 1:
            raise AttackConfigError("corrupt_fraction must be in (0, 1]")
        if self.flood_rate < 1 or self.personas < 0:
            raise AttackConfigError("flood_rate/personas out of range")
        if len(set(self.target_ids)) != len(self.target_ids):
            raise AttackConfigError("target ids must be distinct")
        # a foreign plant is one node; target_ids, when given, override count
        if self.kind == "WORMHOLE" and (self.foreign
                                        or (len(self.target_ids) or self.count) != 2):
            raise AttackConfigError("a wormhole has exactly two compromised ends: "
                                    "two target ids, or count = 2")
        if self.foreign and self.position is None:
            raise AttackConfigError("a foreign attacker needs a position")
        if self.position is not None and not all(map(math.isfinite, self.position)):
            raise AttackConfigError("position must be finite")
        if not self.foreign and not self.target_ids and self.count < 1:
            raise AttackConfigError("give target_ids or a positive count")


@dataclass
class AttackOutcomeLog:
    name: str
    kind: str
    targets: tuple[int, ...] = ()
    bogus_frames_sent: int = 0
    frames_swallowed: int = 0
    fake_locations_advertised: int = 0
    frames_overheard: int = 0
    payloads_decrypted: int = 0
    readings_corrupted: int = 0

    def counters(self) -> dict[str, int]:
        """Every counter field, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if isinstance(getattr(self, f.name), int)}


def cyclic_pass_pattern(fraction: float) -> tuple[bool, ...]:
    """Minimal-period pass/drop pattern whose every full window drops exactly
    fraction of the frames (drops spread evenly, Bresenham style)."""
    frac = Fraction(fraction).limit_denominator(1000)
    num, den = frac.numerator, frac.denominator
    return tuple((k + 1) * num // den == k * num // den for k in range(den))


# -- behaviors -------------------------------------------------------------------
# Each overrides only the `Behavior` hooks its attack subverts: the channel
# calls accept_frame, the protocol engine advertised, advertised_personas
# and corrupt_payload.

class _CyclicBehavior(Behavior):
    """Steps through `cyclic_pass_pattern(fraction)`, one slot per frame."""

    def __init__(self, fraction: float, log: AttackOutcomeLog):
        self.passes = itertools.cycle(cyclic_pass_pattern(fraction))
        self.log = log


class DropBehavior(_CyclicBehavior):
    """Swallows a deterministic cyclic fraction of probe and data frames."""

    def accept_frame(self, receiver, sender_id, frame) -> bool:
        if frame.msg_type not in INTERCEPTED_TYPES:
            return True
        ok = next(self.passes)
        if not ok:
            self.log.frames_swallowed += 1
        return ok


class SinkholeBehavior(Behavior):
    """Advertises an unbeatable forwarding score; behaves honestly until the
    lure lands (first data frame arrives), then swallows everything —
    including the next round's probes, which is how it gets caught."""

    def __init__(self, log: AttackOutcomeLog, inflated_bp: float,
                 inflated_connectivity: int = 64):
        self.log = log
        self.inflated_bp = inflated_bp
        self.inflated_connectivity = inflated_connectivity
        self.engaged = False

    def advertised(self, node: NodeState, bp: float, c: int) -> tuple[float, int]:
        return self.inflated_bp, self.inflated_connectivity

    def accept_frame(self, receiver, sender_id, frame) -> bool:
        kind = frame.msg_type
        if not self.engaged:
            if kind in DATA_TYPES:
                self.engaged = True
            else:
                return True
        if kind in INTERCEPTED_TYPES:
            self.log.frames_swallowed += 1
            return False
        return True


class SybilBehavior(Behavior):
    """Carries a set of fake identities advertised during selection."""

    def __init__(self, personas: tuple[tuple[int, tuple[float, float]], ...],
                 log: AttackOutcomeLog):
        self.personas = personas
        self.log = log

    def advertised_personas(self) -> tuple[tuple[int, tuple[float, float]], ...]:
        # the engine sends one fake ACK per persona each time it asks
        self.log.fake_locations_advertised += len(self.personas)
        return self.personas


class FalseDataBehavior(_CyclicBehavior):
    """Corrupts a cyclic fraction of the data payloads it relays."""

    def corrupt_payload(self, payload: bytes) -> bytes | None:
        # pattern says "pass" -> leave alone; "drop" slots corrupt instead
        if next(self.passes):
            return None
        self.log.readings_corrupted += 1
        return bytes([payload[0] ^ 0xFF]) + payload[1:] if payload else payload


# -- scheduled attacks --------------------------------------------------------------

class PeriodicAttack:
    """Bogus broadcasts from one attacker node every `attack_interval`
    from `start_time`, for as long as the node lives (sending drains it
    too). A subclass defines its event handler and names it `_fire`."""

    def __init__(self, node: NodeState, spec: AttackSpec, engine: ProtocolEngine,
                 log: AttackOutcomeLog, rng):
        self.node = node
        self.spec = spec
        self.engine = engine
        self.log = log
        self.rng = rng

    def start(self) -> None:
        self.engine.queue.schedule(self.spec.start_time, self._fire)

    def _send(self, claimed_server: int, frame) -> None:
        self.log.bogus_frames_sent += 1
        self.engine.broadcast_claimed(self.node, claimed_server, frame)

    def _reschedule(self) -> None:
        if self.node.alive:
            queue = self.engine.queue
            queue.schedule(queue.now + self.spec.attack_interval, self._fire)


class FloodAttack(PeriodicAttack):
    """Periodic bursts of bogus control frames claiming a CC-gateway identity.

    Receivers spend receive energy and reject each frame (no valid chain
    key), so the only lasting effect is battery drain."""

    _seq = 0

    def _burst(self) -> None:
        impersonated = self.engine.network.cc_gateway(main=True).id
        gbk = self.engine.group_key(self.node)
        for _ in range(self.spec.flood_rate):
            payload = struct.pack(">IH", self._seq, self.node.id & 0xFFFF)
            self._seq += 1
            self._send(impersonated, make_frame(MsgType.BLOCKED_LIST, impersonated,
                                                payload, gbk=gbk))
        self._reschedule()

    _fire = _burst      # perfbench names handler metrics by this qualname


class ForgedAnchorAttack(PeriodicAttack):
    """Sinkhole side-channel: periodic fake key-chain anchors in the main
    server's name. Receivers reject them (candidate key never hashes onto
    their anchor), which is exactly what the hash chain is for."""

    def _forge(self) -> None:
        server_id = self.engine.network.main_server
        self._send(server_id, make_frame(
            MsgType.ANCHOR_BCAST, server_id, self.rng.randbytes(20),
            gbk=self.engine.group_key(self.node), chain_key=self.rng.randbytes(20)))
        self._reschedule()

    _fire = _forge      # perfbench names handler metrics by this qualname


# -- wiring ---------------------------------------------------------------------

def _spawn_foreign(channel: Channel, position: tuple[float, float], rng) -> NodeState:
    """A planted device: real radio and its own keypair, but no group key,
    no pre-shared anchors, no server public keys. Joins the region of the
    nearest gateway so trust rounds will probe (and expose) it."""
    network = channel.network
    nearest_gw = network.nearest(position, network.members(kind="GW"))
    node = NodeState(id=network.allocate_id(), kind="N", position=position,
                     region_id=nearest_gw.region_id,
                     battery_mah=channel.energy.initial_battery, has_gbk=False)
    node.keypair = generate_keypair(SIM_CURVE, rng)
    channel.add_node(node)
    return node


def resolve_targets(spec: AttackSpec, network: Network, rng, taken=()) -> tuple[int, ...]:
    """A node belongs to one attack at most: `taken` holds earlier attacks' nodes."""
    if spec.target_ids:
        for node_id in spec.target_ids:
            node = network.nodes.get(node_id)
            if node is None:
                raise AttackConfigError(f"target {node_id} does not exist")
            if node.kind not in COMPROMISABLE_KINDS:
                raise AttackConfigError(
                    f"target {node_id} is a {node.kind}: substation gateways, "
                    "servers, and metering units cannot be compromised")
            if node_id in taken:
                raise AttackConfigError(f"node {node_id} already compromised")
        return tuple(spec.target_ids)
    pool = [n.id for n in network.members(kind=None)
            if n.kind in ("N", "ES") and n.id not in taken]
    if spec.count > len(pool):
        raise AttackConfigError(
            f"cannot compromise {spec.count} nodes: only {len(pool)} eligible")
    return tuple(sorted(rng.sample(pool, spec.count)))


def apply_attacks(specs: list[AttackSpec], engine: ProtocolEngine,
                  seed: int) -> list[AttackOutcomeLog]:
    """Install every attack in the engine's world; call after engine.start()
    so attack events at equal times queue behind the protocol's bootstrap
    events, and before the queue runs, since the channel records what a
    target sees only once it is listed in `Channel.audited`. Returns one
    outcome log per spec; raises AttackConfigError on any threat-model
    violation."""
    network, channel = engine.network, engine.channel
    logs: list[AttackOutcomeLog] = []
    taken: set[int] = set()
    max_initial_bp = max((n.battery_mah for n in network.nodes.values()), default=150.0)

    for index, spec in enumerate(specs):
        label = spec.name or f"{spec.kind.lower()}-{index}"
        rng = rngmod.substream(seed, f"attack:{label}")
        if spec.foreign:
            targets = (_spawn_foreign(channel, spec.position, rng).id,)
        else:
            targets = resolve_targets(spec, network, rng, taken)
        taken.update(targets)
        channel.audited.update(targets)
        log = AttackOutcomeLog(name=label, kind=spec.kind, targets=targets)
        logs.append(log)

        for node_id in targets:
            node = network.nodes[node_id]
            # assumption guard, re-checked at install time
            assert node.kind in COMPROMISABLE_KINDS, node.kind

            if spec.kind == "DROP":
                node.behavior = DropBehavior(spec.drop_fraction, log)
            elif spec.kind == "SINKHOLE":
                node.behavior = SinkholeBehavior(log, inflated_bp=10 * max_initial_bp)
                ForgedAnchorAttack(node, spec, engine, log, rng).start()
            elif spec.kind == "FLOOD":
                FloodAttack(node, spec, engine, log, rng).start()
            elif spec.kind == "SYBIL":
                personas = tuple(
                    (network.allocate_id(),
                     (node.position[0] + rng.uniform(-100, 100),
                      node.position[1] + rng.uniform(-100, 100)))
                    for _ in range(spec.personas))
                node.behavior = SybilBehavior(personas, log)
            elif spec.kind == "EAVESDROP":
                channel.eavesdroppers = sorted(set(channel.eavesdroppers) | {node_id})
            elif spec.kind == "FALSE_DATA":
                node.behavior = FalseDataBehavior(spec.corrupt_fraction, log)

        if spec.kind == "WORMHOLE":
            channel.wormholes.append((targets[0], targets[1]))

    return logs


def confidentiality_scan(engine: ProtocolEngine, logs: list[AttackOutcomeLog]) -> int:
    """Post-run audit over `Channel.observations`, which hold what attack
    targets (foreign plants included) saw, and nothing else; `apply_attacks`
    must have run before the first frame moved. Fills each EAVESDROP log's
    `frames_overheard` (one per frame its nodes received or overheard),
    counts, per attack, the observed data payloads the attacker could
    actually decrypt with keys it holds (never assumed zero), and returns
    the number of plaintext exposures: raw reading markers seen over the
    air by key-less observers."""
    attacker_of: dict[int, AttackOutcomeLog] = {}
    for log in logs:
        for node_id in log.targets:
            attacker_of[node_id] = log

    keyring: dict[int, list[bytes]] = {}
    for (a, b), key in engine.sessions.items():
        keyring.setdefault(a, []).append(key)
        keyring.setdefault(b, []).append(key)

    markers = engine.delivery.issued_markers()
    exposures = 0
    for obs in engine.channel.observations:
        log = attacker_of.get(obs.observer_id)
        if log is None:
            continue
        if log.kind == "EAVESDROP":
            log.frames_overheard += 1
        if obs.frame.msg_type not in DATA_TYPES:
            continue
        payload = obs.frame.payload
        if any(marker in payload for marker in markers):
            exposures += 1
        for key in keyring.get(obs.observer_id, ()):
            try:
                unpack_records(rc5_decrypt(key, payload))
            except (CipherFormatError, ValueError, struct.error):
                continue
            log.payloads_decrypted += 1
            break
    return exposures
