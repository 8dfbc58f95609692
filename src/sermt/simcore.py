"""Deterministic discrete-event engine: clock, radio, energy, trace.

The Channel is the only place energy moves and frames travel, and the one
place a lost frame is counted, by reason, in `drop_counts`.  A battery
moves in one step, `debit`: it first brings a harvester's charge up to
now, then spends, and adds each change to the node's balance in the
ledger: one folded balance per node, built from the same floats in the
same order as the battery, so the conservation check can demand
bit-exact equality in O(nodes) memory.  The end of a run settles every
harvester through `debit` too, with a zero spend.

The Channel also owns the radio geometry: `hears` is the one answer to
"who is in whose range".  Positions are fixed after deployment, so each
node's neighbourhood is computed once; an entity deployed later enters
through `add_node`, which is the only way in.  `network.nodes` is in ID
order, so every walk over it is too.

A frame's per-emission constants (what a listener pays, the fixed parts
of its `rx` line) are built once per emission, in an `Emission`, not once
per listener; each listener still pays through `debit`, once per listener.
The channel keeps those parts per clock reading and per frame size, so
the frames of one event reuse them.

`observations` is the attackers' view of the air, not a log of every
reception (the trace is that log): a frame is recorded only when its
listener is in `audited`, the attack targets that `apply_attacks` adds.
So attacks must be installed before the first frame moves.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from dataclasses import dataclass

from .entities import MAINS_POWERED, RECHARGEABLE, Network, NodeState, distance
from .wire import Frame


class SchedulingFault(RuntimeError):
    """An event was scheduled in the past — a logic error, not an outcome."""


@dataclass(frozen=True)
class RadioModel:
    range_n: float = 250.0
    range_es: float = 350.0
    range_pdc: float = 500.0      # PDCs are long-range hardware
    range_mu: float = 150.0
    range_gw: float = 300.0
    range_server: float = 300.0
    loss_probability: float = 0.0

    def __post_init__(self):
        for name in ("range_n", "range_es", "range_pdc", "range_mu", "range_gw",
                     "range_server"):
            if not getattr(self, name) > 0:         # NaN too: nobody would hear anyone
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.loss_probability <= 1:
            raise ValueError("loss_probability must be in [0, 1]")

    def range_of(self, kind: str) -> float:
        return {
            "N": self.range_n, "ES": self.range_es, "PDC": self.range_pdc,
            "MU": self.range_mu, "PMU": self.range_mu,
            "GW": self.range_gw, "SERVER": self.range_server,
        }[kind]


@dataclass(frozen=True)
class EnergyModel:
    e_amp: float = 100e-12        # J/bit/m^2, power-amplifier term
    e_baseband: float = 50e-9     # J/bit
    e_frontend: float = 50e-9     # J/bit
    e_lna: float = 50e-9          # J/bit
    volts: float = 3.0
    recharge_rate: float = 0.01   # mAh/s for harvesting kinds
    battery_capacity_es: float = 2000.0
    initial_battery: float = 150.0

    def __post_init__(self):
        for name in ("volts", "battery_capacity_es"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("e_amp", "e_baseband", "e_frontend", "e_lna", "recharge_rate",
                     "initial_battery"):
            if not getattr(self, name) >= 0:        # NaN too
                raise ValueError(f"{name} must not be negative")

    def energy_tx(self, bits: int, dist: float) -> float:
        return bits * (self.e_amp * dist * dist + self.e_baseband + self.e_frontend)

    def energy_rx(self, bits: int) -> float:
        return bits * (self.e_baseband + self.e_frontend + self.e_lna)

    def to_mah(self, joules: float) -> float:
        return joules / (self.volts * 3.6)


class EventQueue:
    def __init__(self):
        self._heap: list = []
        self._seq = itertools.count()
        self.now = 0.0

    def schedule(self, at_time: float, action, *args) -> None:
        if at_time < self.now:
            raise SchedulingFault(f"schedule at t={at_time} but clock is {self.now}")
        heapq.heappush(self._heap, (at_time, next(self._seq), action, args))

    def run_until(self, t_end: float) -> None:
        while self._heap and self._heap[0][0] <= t_end:
            at_time, _, action, args = heapq.heappop(self._heap)
            self.now = at_time
            action(*args)
        self.now = max(self.now, t_end)

    @property
    def pending(self) -> int:
        return len(self._heap)


class Trace:
    """Text event log; the run hash is the SHA-1 of its lines.  `log`
    formats every line but the `rx` lines, which `Channel._take_in` joins
    from an `Emission`'s parts in `log`'s exact format."""

    def __init__(self):
        self.lines: list[str] = []

    def log(self, t: float, kind: str, ids: str, outcome: str, joules: float = 0.0):
        self.lines.append(f"{t:.6f} | {kind} | {ids} | {outcome} | {joules:.12g}")

    def digest(self) -> str:
        h = hashlib.sha1()
        for line in self.lines:
            h.update(line.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


@dataclass
class Observation:
    """One attack target seeing one frame, as receiver, broadcast listener
    or eavesdropper; nodes outside `Channel.audited` are not recorded."""
    t: float
    observer_id: int
    sender_id: int
    frame: Frame


@dataclass(slots=True)
class Emission:
    """One emission of a frame as its listeners take it in: who sent it,
    when, what each listener pays to receive it, and the fixed parts of
    their `rx` trace lines.  Those parts split `Trace.log`'s format around
    the listener's ID and the outcome; `Channel._emission` builds them once
    per emission, however many listeners there are."""
    t: float
    sender_id: int
    frame: Frame
    rx_joules: float
    head: str       # f"{t:.6f} | rx | "
    mid: str        # f"<-{sender_id}:{type_name} | "
    tail: str       # f" | {rx_joules:.12g}"


DELIVERED = "delivered"


class Channel:
    """Unit-disk radio with Bernoulli loss and first-order energy accounting.

    `control=True` models the protocol's logical control plane (probe and
    report flows that in reality ride multi-hop forwarding): delivery is not
    range-limited, but the sender still pays full-range transmit energy and
    the receiver pays receive energy, and loss/behaviours apply as usual.
    """

    def __init__(self, network: Network, radio: RadioModel, energy: EnergyModel,
                 trace: Trace, queue: EventQueue, loss_rng):
        self.network = network
        self.radio = radio
        self.energy = energy
        self.trace = trace
        self.queue = queue
        self.loss_rng = loss_rng
        self.ledger: dict[int, float] = {}              # node_id -> folded balance, mAh
        self.initial_battery: dict[int, float] = {
            n.id: n.battery_mah for n in network.nodes.values()
        }
        self._last_recharge: dict[int, float] = {}
        self.observations: list[Observation] = []
        self.audited: set[int] = set()                  # observers kept in `observations`
        self.eavesdroppers: list[int] = []              # sorted on registration
        self.wormholes: list[tuple[int, int]] = []
        self.drop_counts: dict[str, int] = {}
        self._hears: dict[int, dict[int, float]] = {}
        self._stamp: tuple[float | None, str] = (None, "")     # (clock, `rx` line head)
        self._rx_parts: dict[int, tuple[float, str]] = {}      # wire bits -> (joules, tail)

    # -- radio geometry ---------------------------------------------------

    def add_node(self, node: NodeState) -> None:
        """Admit an entity deployed after the channel was built."""
        self.network.add(node)
        self.initial_battery[node.id] = node.battery_mah
        self._hears.clear()

    def hears(self, node: NodeState) -> dict[int, float]:
        """ID -> distance of every other entity inside `node`'s own radio
        range (a closed ball), dead ones included, in ID order.  The map is
        shared between callers: read it, never change it."""
        heard = self._hears.get(node.id)
        if heard is None:
            reach = self.radio.range_of(node.kind)
            dists = ((other_id, distance(node.position, other.position))
                     for other_id, other in self.network.nodes.items()
                     if other_id != node.id)
            heard = self._hears[node.id] = {i: d for i, d in dists if d <= reach}
        return heard

    def connectivity_counts(self, node: NodeState) -> tuple[int, int]:
        """(same-region count C, other-region count Cn) over alive neighbours."""
        alive = [self.network.nodes[i] for i in self.hears(node) if self.network.nodes[i].alive]
        same = sum(other.region_id == node.region_id for other in alive)
        return same, len(alive) - same

    # -- energy -----------------------------------------------------------

    def debit(self, node: NodeState, joules: float) -> None:
        """The one battery step: a harvester first takes in what it
        gathered since its last step, then `node` spends `joules`, floored
        at empty.  Mains-powered gear never moves; a zero spend moves
        nothing either, but still brings a harvester up to date."""
        kind = node.kind
        if kind in RECHARGEABLE:     # harvest, capped, up to the clock
            now = self.queue.now
            dt = now - self._last_recharge.get(node.id, 0.0)
            self._last_recharge[node.id] = now
            gain = self.energy.recharge_rate * dt if dt > 0 else 0.0
            if gain != 0.0:
                gain = min(gain, self.energy.battery_capacity_es - node.battery_mah)
                node.recharged_mah += gain
                node.battery_mah += gain
                self.ledger[node.id] = (self.ledger.get(node.id, self.initial_battery[node.id])
                                        + gain)
        elif kind in MAINS_POWERED:
            return
        spent = joules / (self.energy.volts * 3.6)   # to_mah, inlined: runs per listener
        if spent == 0.0:
            return
        spent = min(spent, node.battery_mah)
        node.debited_mah += spent
        node.battery_mah -= spent
        self.ledger[node.id] = self.ledger.get(node.id, self.initial_battery[node.id]) - spent
        if kind == "N" and node.battery_mah == 0.0 and node.alive:
            node.alive = False
            self.trace.log(self.queue.now, "death", str(node.id), "battery_exhausted")

    def finalize(self) -> None:
        """Bring all harvesting batteries up to the queue's clock at the end
        of a run, and drop the neighbourhood maps (finished results are kept
        around).  A zero spend through `debit` moves only a harvester."""
        for node in self.network.nodes.values():
            self.debit(node, 0.0)
        self._hears.clear()

    # -- frame movement ----------------------------------------------------
    # A frame's life has three steps, each written once: the sender pays
    # (`_pay_tx`), a listener takes it in (`_take_in`), or it is lost
    # (`_lose`, the one place a loss is counted).  `transmit`, `broadcast`,
    # the eavesdrop sweep and each wormhole's far end share one listener
    # step (`_receive_leg`, `_take_in`); it takes the frame's constants from
    # an `Emission` built once per emission, and pays through `debit`.

    def _pay_tx(self, sender: NodeState, frame: Frame, dist: float | None = None) -> float:
        """Debit one emission of `frame`: over `dist` to an in-range
        receiver, or else over the sender's full range."""
        reach = self.radio.range_of(sender.kind)
        tx_joules = self.energy.energy_tx(
            frame.wire_bits, dist if dist is not None and dist <= reach else reach)
        self.debit(sender, tx_joules)
        return tx_joules

    def _emission(self, sender_id: int, frame: Frame, type_name: str) -> Emission:
        """`frame` leaving `sender_id` now.  Events send many frames at one
        clock reading, and frames come in few sizes, so the head is kept
        for the clock object it was made from (by identity: -0.0 == 0.0,
        but they print differently) and the joules and tail per size."""
        now = self.queue.now
        if now is not self._stamp[0]:
            self._stamp = (now, f"{now:.6f} | rx | ")
        bits = frame.wire_bits
        rx = self._rx_parts.get(bits)
        if rx is None:
            joules = self.energy.energy_rx(bits)
            rx = self._rx_parts[bits] = (joules, f" | {joules:.12g}")
        return Emission(now, sender_id, frame, rx[0], self._stamp[1],
                        f"<-{sender_id}:{type_name} | ", rx[1])

    def _take_in(self, listener: NodeState, emission: Emission, how: str) -> None:
        """A listener receives or overhears an emission: it pays, it is
        traced, and an audited listener's view is recorded."""
        self.debit(listener, emission.rx_joules)
        self.trace.lines.append(emission.head + str(listener.id) + emission.mid + how
                                + emission.tail)
        if listener.id in self.audited:
            self.observations.append(Observation(emission.t, listener.id, emission.sender_id,
                                                 emission.frame))

    def _lose(self, reason: str) -> str:
        """Count one lost frame under `reason`; returns its trace outcome."""
        self.drop_counts[reason] = self.drop_counts.get(reason, 0) + 1
        return f"dropped({reason})"

    def _eavesdrop_sweep(self, sender: NodeState, receiver_id: int, emission: Emission,
                         screened: tuple[str, ...] | None = None) -> None:
        """`screened`: a broadcast's kind filter — spies matching it already
        hear the frame as ordinary receivers, not here."""
        heard = self.hears(sender)
        for node_id in self.eavesdroppers:
            if node_id in (sender.id, receiver_id) or node_id not in heard:
                continue
            spy = self.network.nodes[node_id]
            if not spy.alive or (screened is not None and spy.kind in screened):
                continue
            self._take_in(spy, emission, "overheard")

    def transmit(self, sender: NodeState, receiver: NodeState, frame: Frame,
                 control: bool = False) -> str:
        type_name = frame.msg_type.name
        ids = f"{sender.id}->{receiver.id}:{type_name}"
        if not sender.alive:
            outcome = self._lose("dead_sender")
            self.trace.log(self.queue.now, "drop", ids, outcome)
            return outcome
        dist = self.hears(sender).get(receiver.id)     # None: out of range
        tx_joules = self._pay_tx(sender, frame, None if control else dist)
        emission = self._emission(sender.id, frame, type_name)
        self._eavesdrop_sweep(sender, receiver.id, emission)
        if control or dist is not None:
            outcome = self._receive_leg(receiver, emission)
        else:
            outcome = self._lose("range")
        self.trace.log(self.queue.now, "tx", ids, outcome, tx_joules)
        return outcome

    def transmit_phantom(self, sender: NodeState, persona_id: int,
                         position: tuple[float, float], frame: Frame,
                         control: bool = False) -> None:
        """A send toward a fake identity advertised at `position`: no radio
        answers, but the sender still pays to transmit."""
        tx_joules = self._pay_tx(sender, frame,
                                 None if control else distance(sender.position, position))
        self.trace.log(self.queue.now, "tx",
                       f"{sender.id}->{persona_id}:{frame.msg_type.name}",
                       self._lose("phantom"), tx_joules)

    def _receive_leg(self, receiver: NodeState, emission: Emission) -> str:
        """Delivery to a receiver already known to be within reach."""
        if not receiver.alive:
            return self._lose("dead_receiver")
        if self.loss_rng.random() < self.radio.loss_probability:
            return self._lose("loss")
        self._take_in(receiver, emission, "received")
        if not receiver.behavior.accept_frame(receiver, emission.sender_id, emission.frame):
            return self._lose("adversarial")
        return DELIVERED

    def broadcast(self, sender: NodeState, frame: Frame, control: bool = False,
                  kinds: tuple[str, ...] | None = None) -> list[int]:
        """One transmit burst to every in-range listener; returns delivered IDs."""
        type_name = frame.msg_type.name
        sender_id = sender.id
        ids = f"{sender_id}->*:{type_name}"
        if not sender.alive:
            self.trace.log(self.queue.now, "drop", ids, self._lose("dead_sender"))
            return []
        tx_joules = self._pay_tx(sender, frame)
        now = self.queue.now
        emission = self._emission(sender_id, frame, type_name)
        self.trace.log(now, "tx", ids, "broadcast", tx_joules)
        if kinds is not None:
            self._eavesdrop_sweep(sender, -1, emission, screened=kinds)
        nodes = self.network.nodes
        receive = self._receive_leg
        delivered = []
        for node_id in nodes if control else self.hears(sender):
            if node_id == sender_id:
                continue
            receiver = nodes[node_id]
            if kinds is not None and receiver.kind not in kinds:
                continue
            outcome = receive(receiver, emission)
            if outcome == DELIVERED:
                delivered.append(node_id)
            else:
                self.trace.log(now, "drop", f"{sender_id}->{node_id}:{type_name}", outcome)
        delivered.extend(self._wormhole_relay(sender, frame, type_name, control, kinds,
                                              delivered))
        return delivered

    def _wormhole_relay(self, sender: NodeState, frame: Frame, type_name: str,
                        control: bool, kinds, already: list[int]) -> list[int]:
        """Re-emit an overheard broadcast at the far end of each wormhole.
        A tunnelled leg that fails is counted but writes no trace line."""
        extra: list[int] = []
        for end_a, end_b in self.wormholes:
            for near, far in ((end_a, end_b), (end_b, end_a)):
                near_node, far_node = self.network.nodes[near], self.network.nodes[far]
                if sender.id in (near, far) or not near_node.alive or not far_node.alive:
                    continue
                if not (control or near in self.hears(sender)):
                    continue
                far_tx = self._pay_tx(far_node, frame)
                self.trace.log(self.queue.now, "wormhole", f"{near}=>{far}:{type_name}",
                               "tunneled", far_tx)
                # the far end's emission: its listeners hear it from `far`
                emission = self._emission(far, frame, type_name)
                for node_id in self.hears(far_node):
                    receiver = self.network.nodes[node_id]
                    if receiver.id in (sender.id, near) or node_id in already:
                        continue
                    if kinds is not None and receiver.kind not in kinds:
                        continue
                    if self._receive_leg(receiver, emission) == DELIVERED:
                        extra.append(receiver.id)
        return extra

    # -- checks ------------------------------------------------------------

    def conservation_errors(self) -> list[int]:
        """Node IDs, in ID order, whose ledger balance is not their final battery."""
        bad = []
        for node_id, node in self.network.nodes.items():
            balance = self.ledger.get(node_id, self.initial_battery[node_id])
            if balance != node.battery_mah:
                bad.append(node_id)
        return bad
