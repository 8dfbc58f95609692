"""Deterministic discrete-event engine: clock, radio, energy, trace.

The Channel is the only place energy moves and frames travel.  Every
battery change goes through one accumulation point, which also adds it to
the node's balance in the ledger: one folded balance per node, built from
the same floats in the same order as the battery, so the conservation
check can demand bit-exact equality in O(nodes) memory.

The Channel also owns the radio geometry: `hears` is the one answer to
"who is in whose range".  Positions are fixed after deployment, so each
node's neighbourhood is computed once; an entity deployed later enters
through `add_node`, which is the only way in.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from dataclasses import dataclass

from .entities import Network, NodeState, distance
from .wire import Frame, MsgType


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
    """Text event log; the run hash is the SHA-1 of its lines."""

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
    """One entity seeing one frame (receiver, broadcast listener, eavesdropper)."""
    t: float
    observer_id: int
    sender_id: int
    frame: Frame


DELIVERED = "delivered"


def dropped(reason: str) -> str:
    return f"dropped({reason})"


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
        self.eavesdroppers: list[int] = []              # sorted on registration
        self.wormholes: list[tuple[int, int]] = []
        self.drop_counts: dict[str, int] = {}
        self._hears: dict[int, dict[int, float]] = {}

    # -- radio geometry ---------------------------------------------------

    def add_node(self, node: NodeState) -> None:
        """Admit an entity deployed after the channel was built."""
        self.network.nodes[node.id] = node
        self.initial_battery[node.id] = node.battery_mah
        self._hears.clear()

    def hears(self, node: NodeState) -> dict[int, float]:
        """ID -> distance of every other entity inside `node`'s own radio
        range (a closed ball), dead ones included, in ID order.  The map is
        shared between callers: read it, never change it."""
        heard = self._hears.get(node.id)
        if heard is None:
            reach, nodes = self.radio.range_of(node.kind), self.network.nodes
            dists = ((other_id, distance(node.position, nodes[other_id].position))
                     for other_id in sorted(nodes) if other_id != node.id)
            heard = self._hears[node.id] = {i: d for i, d in dists if d <= reach}
        return heard

    def connectivity_counts(self, node: NodeState) -> tuple[int, int]:
        """(same-region count C, other-region count Cn) over alive neighbours."""
        alive = [self.network.nodes[i] for i in self.hears(node) if self.network.nodes[i].alive]
        same = sum(other.region_id == node.region_id for other in alive)
        return same, len(alive) - same

    # -- energy -----------------------------------------------------------

    def apply_energy(self, node: NodeState, delta_mah: float) -> None:
        """The single battery accumulation point (the ledger relies on it)."""
        if node.mains_powered or delta_mah == 0.0:
            return
        if delta_mah < 0:
            effective = -min(-delta_mah, node.battery_mah)
            node.debited_mah += -effective
        else:
            cap = self.energy.battery_capacity_es if node.rechargeable else self.energy.initial_battery
            effective = min(delta_mah, cap - node.battery_mah)
            node.recharged_mah += effective
        node.battery_mah += effective
        self.ledger[node.id] = self.ledger.get(node.id, self.initial_battery[node.id]) + effective
        if node.kind == "N" and node.battery_mah == 0.0 and node.alive:
            node.alive = False
            self.trace.log(self.queue.now, "death", str(node.id), "battery_exhausted")

    def _recharge_to_now(self, node: NodeState) -> None:
        if not node.rechargeable:
            return
        last = self._last_recharge.get(node.id, 0.0)
        dt = self.queue.now - last
        self._last_recharge[node.id] = self.queue.now
        if dt > 0:
            self.apply_energy(node, self.energy.recharge_rate * dt)

    def debit(self, node: NodeState, joules: float) -> None:
        self._recharge_to_now(node)
        self.apply_energy(node, -self.energy.to_mah(joules))

    def finalize(self, t_end: float) -> None:
        """Bring all harvesting batteries up to date at the end of a run, and
        drop the neighbourhood maps (finished results are kept around)."""
        assert self.queue.now == t_end
        for node_id in sorted(self.network.nodes):
            self._recharge_to_now(self.network.nodes[node_id])
        self._hears.clear()

    # -- frame movement ----------------------------------------------------

    def _observe(self, observer: NodeState, sender_id: int, frame: Frame) -> None:
        self.observations.append(Observation(self.queue.now, observer.id, sender_id, frame))
        behavior = observer.behavior
        if behavior is not None and hasattr(behavior, "on_overhear"):
            behavior.on_overhear(observer, sender_id, frame)

    def _eavesdrop_sweep(self, sender: NodeState, receiver_id: int, frame: Frame,
                         type_name: str, screened: tuple[str, ...] | None = None) -> None:
        """`screened`: a broadcast's kind filter — spies matching it already
        hear the frame as ordinary receivers, not here."""
        for node_id in self.eavesdroppers:
            spy = self.network.nodes[node_id]
            if spy.id in (sender.id, receiver_id) or not spy.alive:
                continue
            if screened is not None and spy.kind in screened:
                continue
            if spy.id in self.hears(sender):
                rx_joules = self.energy.energy_rx(frame.wire_bits)
                self.debit(spy, rx_joules)
                self.trace.log(self.queue.now, "rx", f"{spy.id}<-{sender.id}:{type_name}",
                               "overheard", rx_joules)
                self._observe(spy, sender.id, frame)

    def _count_drop(self, reason: str) -> None:
        self.drop_counts[reason] = self.drop_counts.get(reason, 0) + 1

    def transmit(self, sender: NodeState, receiver: NodeState, frame: Frame,
                 control: bool = False) -> str:
        type_name = MsgType(frame.msg_type).name
        ids = f"{sender.id}->{receiver.id}:{type_name}"
        if not sender.alive:
            self.trace.log(self.queue.now, "drop", ids, dropped("dead_sender"))
            self._count_drop("dead_sender")
            return dropped("dead_sender")
        dist = self.hears(sender).get(receiver.id)     # None: out of range
        tx_joules = self.energy.energy_tx(
            frame.wire_bits,
            self.radio.range_of(sender.kind) if control or dist is None else dist)
        self.debit(sender, tx_joules)
        self._eavesdrop_sweep(sender, receiver.id, frame, type_name)
        if control or dist is not None:
            outcome = self._receive_leg(sender, receiver, frame, type_name)
        else:
            outcome = dropped("range")
        self.trace.log(self.queue.now, "tx", ids, outcome, tx_joules)
        if outcome != DELIVERED:
            self._count_drop(outcome[len("dropped("):-1])
        return outcome

    def transmit_phantom(self, sender: NodeState, persona_id: int,
                         position: tuple[float, float], frame: Frame,
                         control: bool = False) -> None:
        """A send toward a fake identity advertised at `position`: no radio
        answers, but the sender still pays to transmit."""
        reach = self.radio.range_of(sender.kind)
        tx_joules = self.energy.energy_tx(
            frame.wire_bits,
            reach if control else min(distance(sender.position, position), reach))
        self.debit(sender, tx_joules)
        self.trace.log(self.queue.now, "tx",
                       f"{sender.id}->{persona_id}:{MsgType(frame.msg_type).name}",
                       dropped("phantom"), tx_joules)

    def _receive_leg(self, sender: NodeState, receiver: NodeState, frame: Frame,
                     type_name: str) -> str:
        """Delivery to a receiver already known to be within reach."""
        if not receiver.alive:
            return dropped("dead_receiver")
        if self.loss_rng.random() < self.radio.loss_probability:
            return dropped("loss")
        rx_joules = self.energy.energy_rx(frame.wire_bits)
        self.debit(receiver, rx_joules)
        self.trace.log(self.queue.now, "rx", f"{receiver.id}<-{sender.id}:{type_name}",
                       "received", rx_joules)
        self._observe(receiver, sender.id, frame)
        behavior = receiver.behavior
        if behavior is not None and not behavior.accept_frame(receiver, sender.id, frame):
            return dropped("adversarial")
        return DELIVERED

    def broadcast(self, sender: NodeState, frame: Frame, control: bool = False,
                  kinds: tuple[str, ...] | None = None) -> list[int]:
        """One transmit burst to every in-range listener; returns delivered IDs."""
        type_name = MsgType(frame.msg_type).name
        ids = f"{sender.id}->*:{type_name}"
        if not sender.alive:
            self.trace.log(self.queue.now, "drop", ids, dropped("dead_sender"))
            self._count_drop("dead_sender")
            return []
        tx_joules = self.energy.energy_tx(frame.wire_bits, self.radio.range_of(sender.kind))
        self.debit(sender, tx_joules)
        self.trace.log(self.queue.now, "tx", ids, "broadcast", tx_joules)
        if kinds is not None:
            self._eavesdrop_sweep(sender, -1, frame, type_name, screened=kinds)
        delivered = []
        for node_id in sorted(self.network.nodes) if control else self.hears(sender):
            receiver = self.network.nodes[node_id]
            if receiver.id == sender.id:
                continue
            if kinds is not None and receiver.kind not in kinds:
                continue
            outcome = self._receive_leg(sender, receiver, frame, type_name)
            if outcome == DELIVERED:
                delivered.append(receiver.id)
            else:
                self._count_drop(outcome[len("dropped("):-1])
                self.trace.log(self.queue.now, "drop",
                               f"{sender.id}->{receiver.id}:{type_name}", outcome)
        delivered.extend(self._wormhole_relay(sender, frame, type_name, control,
                                              kinds, delivered))
        return delivered

    def _wormhole_relay(self, sender: NodeState, frame: Frame, type_name: str,
                        control: bool, kinds, already: list[int]) -> list[int]:
        """Re-emit an overheard broadcast at the far end of each wormhole."""
        extra: list[int] = []
        for end_a, end_b in self.wormholes:
            for near, far in ((end_a, end_b), (end_b, end_a)):
                near_node = self.network.nodes[near]
                far_node = self.network.nodes[far]
                if sender.id in (near, far) or not near_node.alive or not far_node.alive:
                    continue
                if not (control or near in self.hears(sender)):
                    continue
                far_tx = self.energy.energy_tx(frame.wire_bits,
                                               self.radio.range_of(far_node.kind))
                self.debit(far_node, far_tx)
                self.trace.log(self.queue.now, "wormhole", f"{near}=>{far}:{type_name}",
                               "tunneled", far_tx)
                for node_id in self.hears(far_node):
                    receiver = self.network.nodes[node_id]
                    if receiver.id in (sender.id, near) or node_id in already:
                        continue
                    if kinds is not None and receiver.kind not in kinds:
                        continue
                    outcome = self._receive_leg(far_node, receiver, frame, type_name)
                    # frames appear to come from the original sender
                    if outcome == DELIVERED:
                        extra.append(receiver.id)
        return extra

    # -- checks ------------------------------------------------------------

    def conservation_errors(self) -> list[int]:
        """Node IDs whose ledger balance is not their final battery."""
        bad = []
        for node_id, node in self.network.nodes.items():
            balance = self.ledger.get(node_id, self.initial_battery[node_id])
            if balance != node.battery_mah:
                bad.append(node_id)
        return sorted(bad)
