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
"who is in whose range".  Positions are fixed after deployment, so the
first question fills every node's neighbourhood in one pass over the
unordered pairs, each distance computed once; an entity deployed later
enters through `add_node`, which is the only way in, and the next question
fills them all again.  `network.nodes` is in ID order, so every walk over
it is too.

A frame's per-emission constants (what a listener pays, the fixed parts
of its `rx` line) are built once per emission, in an `Emission`, not once
per listener; each listener still pays through `debit`, once per listener.
The channel keeps those parts per clock reading and per frame size, so
the frames of one event reuse them.  An emission's own constants (what
the sender pays, its `tx` line's parts, and its screened listeners, each
with its ready `rx` line) are kept per `Link`, for a point-to-point send
and a broadcast alike, so the frames a probe sends back and forth and the
frames of a flood burst reuse them too.

The trace holds its text in chunks of joined lines, in about half the
memory of one `str` per line, with at most one small chunk still open as
a list of lines; `finalize` seals that one too, so a finished run holds
only joined text.  Its `lines` are rebuilt on each read, so a reader
takes them once.

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
from .wire import TYPE_NAME, Frame


# the RadioModel field that holds each kind's range
_RANGE_FIELD = {
    "N": "range_n", "ES": "range_es", "PDC": "range_pdc", "MU": "range_mu",
    "PMU": "range_mu", "GW": "range_gw", "SERVER": "range_server",
}


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
        return getattr(self, _RANGE_FIELD[kind])


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
        # a harvester above its capacity would book a negative recharge
        if self.initial_battery > self.battery_capacity_es:
            raise ValueError("initial_battery must not exceed battery_capacity_es")

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

    def clear(self) -> None:
        """Drop every pending event.  Their actions are bound methods of the
        protocol engine and the attacks, which hold this queue, so a
        finished world's pending events would hold it in a cycle."""
        self._heap.clear()


class Trace:
    """Text event log; the run hash is the SHA-1 of its lines, each ended
    by "\\n".  `log` formats a line and adds it through `write`.  Two
    kinds of line are joined from parts kept for many lines instead, each
    in `log`'s exact format: each `rx` line is joined from an `Emission`'s
    parts (a listener's once per `Link`, a spy's once per frame) and
    `Channel._take_in` adds it through `append`, and `Channel.transmit`
    and `Channel.broadcast` join their `tx` lines from a `Link`'s parts and
    add them through `write`.  No line may hold a "\\n".

    The lines are held in chunks, not one `str` each (a `str` object costs
    about as much again as a 60-byte line's text): the sealed chunks, each
    one `str` of the lines it held joined with a "\\n" after every line,
    and one open chunk, a plain list.  `append` is the open list's own
    bound `append`, so an `rx` line costs one list append; `write` seals
    the open chunk once it holds `CHUNK` lines or more, and rebinds
    `append` to the new one.

    Only `write` seals, so the open chunk can exceed `CHUNK` by the `rx`
    lines added between two `write` calls.  Every emission writes a line
    through `write`: `broadcast` and a wormhole's re-emit before any
    listener's `rx` line, `transmit` and `transmit_phantom` after their
    eavesdroppers' and `transmit`'s receiver's.  A broadcast's listeners
    around one origin (the sender or a far end) are its kind-screened spies
    and its listeners of the kinds: distinct nodes, none of them the
    origin.  So between two `write` calls come at most one origin's
    trailing listeners (fewer than N, the network's node count) and the
    next send's leading ones (at most E + 1, E the eavesdroppers), and the
    open chunk never holds more than CHUNK + N + E lines.

    At the end of a run `Channel.finalize` calls `seal`, which closes the
    open chunk whatever its size, so a finished run holds only sealed
    text: no line of it is a `str` of its own.

    `lines` rebuilds the whole list on every read: take it once per
    reader.  `digest` and `chunks` read the chunks as they are.

    Traces that repeat stretches of one another (the points of a sweep,
    which share a seed and a layout) repeat whole sealed chunks, because a
    chunk seals at the first `write` after CHUNK lines, so equal stretches
    of lines realign its boundaries.  `share` lets such traces hold one
    object per distinct chunk; their text reads the same."""

    CHUNK = 256

    def __init__(self):
        self._sealed: list[str] = []
        self._open: list[str] = []
        self.append = self._open.append

    def log(self, t: float, kind: str, ids: str, outcome: str, joules: float = 0.0):
        self.write(f"{t:.6f} | {kind} | {ids} | {outcome} | {joules:.12g}")

    def write(self, line: str) -> None:
        """Add one line in `log`'s format, and seal the open chunk once it
        holds `CHUNK` lines or more."""
        lines = self._open
        lines.append(line)
        if len(lines) >= self.CHUNK:
            self.seal()

    def seal(self) -> None:
        """Join the open chunk onto the sealed ones and open a new one,
        rebinding `append`; an empty open chunk adds nothing."""
        lines = self._open
        if lines:
            lines.append("")            # the last line's "\n"
            self._sealed.append("\n".join(lines))
            self._open = []
            self.append = self._open.append

    def share(self, pool: dict[str, str]) -> None:
        """Swap each sealed chunk for the equal chunk already in `pool`, or
        add it to `pool` if none is there.  The text is unchanged; the
        traces shared through one `pool` keep one copy of each chunk, and
        `pool` holds them only as long as its owner keeps it."""
        self._sealed = [pool.setdefault(chunk, chunk) for chunk in self._sealed]

    def chunks(self):
        """The trace text, in order, as `str` parts that each end with a
        "\\n": every sealed chunk, then the open one joined."""
        yield from self._sealed
        if self._open:
            yield "\n".join(self._open) + "\n"

    @property
    def lines(self) -> list[str]:
        """Every line so far, in order, as a new list."""
        lines: list[str] = []
        for chunk in self._sealed:
            lines += chunk.split("\n")
            lines.pop()                 # the empty tail after the last "\n"
        lines += self._open
        return lines

    def digest(self) -> str:
        h = hashlib.sha1()
        for chunk in self.chunks():
            h.update(chunk.encode("utf-8"))
        return h.hexdigest()


@dataclass(slots=True)
class Observation:
    """One attack target seeing one frame, as receiver, broadcast listener
    or eavesdropper; nodes outside `Channel.audited` are not recorded.  It
    holds what the post-run audit reads: who saw the frame, and the frame."""
    observer_id: int
    frame: Frame


@dataclass(slots=True)
class Emission:
    """One emission of a frame as its listeners take it in: who sent it,
    what each listener pays to receive it, and the fixed parts of their
    `rx` trace lines, the time stamp among them.  Those parts split
    `Trace.log`'s format around the listener's ID and the outcome;
    `Channel._emission` builds them once per emission, however many
    listeners there are."""
    sender_id: int
    frame: Frame
    rx_joules: float
    head: str       # f"{t:.6f} | rx | "
    mid: str        # f"<-{sender_id}:{type_name} | "
    tail: str       # f" | {rx_joules:.12g}"

    def line(self, listener_id: int, how: str) -> str:
        """The `rx` line of `listener_id` taking this emission in `how`."""
        return f"{self.head}{listener_id}{self.mid}{how}{self.tail}"


@dataclass(slots=True)
class Link:
    """What every emission of one kind from one sender shares while the
    clock holds one object, for frames of one type and size on one plane
    (radio or control): a `transmit` to one receiver, or a `broadcast` to
    the listeners of some kinds.  It holds the IDs no spy sweep around the
    sender takes in, what the sender pays, the parts of the `tx` line
    around the outcome, an `Emission`'s fields after the frame, and the
    screened listeners, each with its ready `rx` line: a send's receiver,
    or none when it is out of range; a broadcast's every listener not the
    sender and of its kinds, in ID order.  Screening reads no `alive`:
    each frame checks that per listener.  A probe's test frames and their
    ACKs each go over one link, and so does a flood burst.  `Channel._link`
    builds it with `_tx_joules`, `_emission_parts` and `_listeners`, which
    price, label and screen every other emission too."""
    clock: float                # the clock object it was built at
    skip: tuple[int, ...]       # (sender_id, receiver_id), or a broadcast's (sender_id,)
    tx_joules: float
    tx_head: str                # f"{t:.6f} | tx | {ids} | "
    tx_tail: str                # f" | {tx_joules:.12g}"
    parts: tuple[float, str, str, str]      # Emission's rx_joules, head, mid, tail
    listeners: tuple[tuple[NodeState, str], ...]    # (listener, its `rx` line)


DELIVERED = "delivered"


class Channel:
    """Unit-disk radio with Bernoulli loss and first-order energy accounting.

    `control=True` models the protocol's logical control plane (probe and
    report flows that in reality ride multi-hop forwarding): delivery is not
    range-limited, but the sender still pays full-range transmit energy and
    the receiver pays receive energy, and loss/behaviours apply as usual.

    The radio and energy models are fixed for the world's life, so the
    floats each frame step needs from them are formed once, here: joules
    per mAh (`volts * 3.6`, which `debit` divides by) and each kind's
    reach (`_tx_joules`'s full-range distance), the same floats the models
    give per call.
    """

    LINKS = 2

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
        self._links: dict[tuple, Link] = {}     # the last LINKS links built
        self._joules_per_mah = energy.volts * 3.6
        self._reach = {kind: radio.range_of(kind) for kind in _RANGE_FIELD}

    # -- radio geometry ---------------------------------------------------

    def add_node(self, node: NodeState) -> None:
        """Admit an entity deployed after the channel was built."""
        self.network.add(node)
        self.initial_battery[node.id] = node.battery_mah
        self._hears.clear()
        self._links.clear()             # a link's listeners are screened from the old set

    def hears(self, node: NodeState) -> dict[int, float]:
        """ID -> distance of every other entity inside `node`'s own radio
        range (a closed ball), dead ones included, in ID order; `node` is
        one of the network's.  The map is shared between callers: read it,
        never change it."""
        heard = self._hears.get(node.id)
        if heard is None:
            self._fill_hears()
            heard = self._hears[node.id]
        return heard

    def _fill_hears(self) -> None:
        """Every node's `hears` map in one pass over the unordered ID pairs.
        Each distance is computed once, and stored at each end whose own
        range covers it (`distance` is sign-symmetric, so either end would
        compute the same float).  Pairs are walked in ID order from both
        ends, so every map is in ID order."""
        nodes = list(self.network.nodes.values())
        reach = [self.radio.range_of(node.kind) for node in nodes]
        maps: list[dict[int, float]] = [{} for _ in nodes]
        for i, node in enumerate(nodes):
            node_id, position, own_reach, heard = node.id, node.position, reach[i], maps[i]
            for j in range(i + 1, len(nodes)):
                other = nodes[j]
                dist = distance(position, other.position)
                if dist <= own_reach:
                    heard[other.id] = dist
                if dist <= reach[j]:
                    maps[j][node_id] = dist
        self._hears = {node.id: heard for node, heard in zip(nodes, maps)}

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
        if kind in MAINS_POWERED:
            return
        battery = node.battery_mah
        if kind in RECHARGEABLE:     # harvest, capped, up to the clock
            now = self.queue.now
            dt = now - self._last_recharge.get(node.id, 0.0)
            self._last_recharge[node.id] = now
            gain = self.energy.recharge_rate * dt if dt > 0 else 0.0
            if gain != 0.0:
                room = self.energy.battery_capacity_es - battery
                if room < gain:      # min(gain, room), the same float
                    gain = room
                node.recharged_mah += gain
                node.battery_mah = battery = battery + gain
                self.ledger[node.id] = (self.ledger.get(node.id, self.initial_battery[node.id])
                                        + gain)
        spent = joules / self._joules_per_mah   # to_mah, inlined: runs per listener
        if spent == 0.0:
            return
        if battery < spent:          # min(spent, battery), the same float
            spent = battery
        node.debited_mah += spent
        node.battery_mah = battery = battery - spent
        self.ledger[node.id] = self.ledger.get(node.id, self.initial_battery[node.id]) - spent
        if kind == "N" and battery == 0.0 and node.alive:
            node.alive = False
            self.trace.log(self.queue.now, "death", str(node.id), "battery_exhausted")

    def finalize(self) -> None:
        """Bring all harvesting batteries up to the queue's clock at the end
        of a run, then drop the neighbourhood maps and the links and seal the
        trace's open chunk (finished results are kept around).  A zero spend
        through `debit` moves only a harvester."""
        for node in self.network.nodes.values():
            self.debit(node, 0.0)
        self._hears.clear()
        self._links.clear()
        self.trace.seal()

    # -- frame movement ----------------------------------------------------
    # A frame's life has three steps, each written once: the sender pays
    # what `_tx_joules` says (`_pay_tx`, or a `Link`'s price), a listener
    # takes it in (`_take_in`), or it is lost (`_lose`, the one place a loss
    # is counted).  `transmit`, `broadcast` and the eavesdrop sweep share one
    # listener step (`_receive_leg`, `_take_in`); it takes the frame's
    # constants from an `Emission` built once per emission, and a ready
    # `rx` line, and pays through `debit`.  A broadcast reaches its
    # listeners through one reception step, `_spread`, run once around the
    # sender and once around each wormhole far end, so a lost leg writes one
    # `drop` line wherever it was emitted.
    #
    # A probe sends its test frames and their ACKs back and forth between
    # one pair at one clock reading, and a flood burst sends its frames from
    # one sender at one, so `transmit` and `broadcast` take each emission's
    # constants from a `Link`, kept for the clock object, the sender, the
    # receiver (None for a broadcast), the frame's type and size, the plane
    # and a broadcast's kinds, and keep the last LINKS links: a probe
    # alternates two.  The clock goes by identity, as the `rx` head does.
    # A link screens its listeners (`_listeners`) and formats their `rx`
    # lines once; a far end's listeners hang on who was reached, so each
    # far end screens and formats its own.  Every emission still runs each
    # step: the `alive` checks, the sender's and each listener's `debit`,
    # the loss draw, the eavesdrop sweep, `accept_frame`, and its `tx` line
    # through `Trace.write`.

    def _tx_joules(self, sender: NodeState, bits: int, dist: float | None = None) -> float:
        """What one emission of `bits` costs `sender`: over `dist` to an
        in-range receiver, or else over the sender's full range."""
        reach = self._reach[sender.kind]
        return self.energy.energy_tx(bits, dist if dist is not None and dist <= reach else reach)

    def _pay_tx(self, sender: NodeState, bits: int, dist: float | None = None) -> float:
        """Debit `sender` what `_tx_joules` says one emission costs."""
        tx_joules = self._tx_joules(sender, bits, dist)
        self.debit(sender, tx_joules)
        return tx_joules

    def _emission_parts(self, sender_id: int, bits: int,
                        type_name: str) -> tuple[float, str, str, str]:
        """An `Emission`'s fields after the frame, for `bits` leaving
        `sender_id` now.  Events send many frames at one clock reading, and
        frames come in few sizes, so the head is kept for the clock object
        it was made from (by identity: -0.0 == 0.0, but they print
        differently) and the joules and tail per size."""
        now = self.queue.now
        if now is not self._stamp[0]:
            self._stamp = (now, f"{now:.6f} | rx | ")
        rx = self._rx_parts.get(bits)
        if rx is None:
            joules = self.energy.energy_rx(bits)
            rx = self._rx_parts[bits] = (joules, f" | {joules:.12g}")
        return rx[0], self._stamp[1], f"<-{sender_id}:{type_name} | ", rx[1]

    def _emission(self, sender_id: int, frame: Frame, type_name: str) -> Emission:
        """`frame` leaving `sender_id` now."""
        return Emission(sender_id, frame,
                        *self._emission_parts(sender_id, frame.wire_bits, type_name))

    def _listeners(self, emission: Emission, candidates, skip,
                   kinds: tuple[str, ...] | None) -> tuple[tuple[NodeState, str], ...]:
        """Each of `candidates` (IDs) not in `skip` and of `kinds`, in their
        order, with the `rx` line it writes on receiving `emission`."""
        nodes = self.network.nodes
        listeners = []
        for node_id in candidates:
            node = nodes[node_id]
            if node_id not in skip and (kinds is None or node.kind in kinds):
                listeners.append((node, emission.line(node_id, "received")))
        return tuple(listeners)

    def _take_in(self, listener: NodeState, emission: Emission, line: str) -> None:
        """A listener receives or overhears an emission: it pays, its `rx`
        line is traced, and an audited listener's view is recorded."""
        self.debit(listener, emission.rx_joules)
        self.trace.append(line)
        if listener.id in self.audited:
            self.observations.append(Observation(listener.id, emission.frame))

    def _lose(self, reason: str) -> str:
        """Count one lost frame under `reason`; returns its trace outcome."""
        self.drop_counts[reason] = self.drop_counts.get(reason, 0) + 1
        return f"dropped({reason})"

    def _eavesdrop_sweep(self, origin: NodeState, emission: Emission, skip,
                         screened: tuple[str, ...] | None = None) -> None:
        """Every live spy in `origin`'s range and not in `skip` (IDs)
        overhears `emission`.  `screened`: a broadcast's kind filter — spies
        matching it already hear the frame as ordinary receivers, not here.
        With no spy registered it returns before asking for a neighbourhood."""
        if not self.eavesdroppers:
            return
        heard = self.hears(origin)
        for node_id in self.eavesdroppers:
            if node_id in skip or node_id not in heard:
                continue
            spy = self.network.nodes[node_id]
            if not spy.alive or (screened is not None and spy.kind in screened):
                continue
            self._take_in(spy, emission, emission.line(node_id, "overheard"))

    def _link(self, sender: NodeState, receiver: NodeState | None, frame: Frame,
              control: bool, kinds: tuple[str, ...] | None, key: tuple) -> Link:
        """A new link for `frame` leaving `sender` now, to `receiver` or, if
        it is None, to every listener of `kinds`, kept under `key` in place
        of the oldest of the LINKS kept."""
        now = self.queue.now
        type_name = TYPE_NAME[frame.msg_type]
        heard = self.hears(sender)
        bits = frame.wire_bits
        parts = self._emission_parts(sender.id, bits, type_name)
        emission = Emission(sender.id, frame, *parts)
        if receiver is None:
            ids, skip, dist = f"{sender.id}->*:{type_name}", (sender.id,), None
            listeners = self._listeners(emission, self.network.nodes if control else heard,
                                        skip, kinds)
        else:
            ids, skip = f"{sender.id}->{receiver.id}:{type_name}", (sender.id, receiver.id)
            dist = heard.get(receiver.id)           # None: out of range
            listeners = (((receiver, emission.line(receiver.id, "received")),)
                         if control or dist is not None else ())
        tx_joules = self._tx_joules(sender, bits, None if control else dist)
        link = Link(now, skip, tx_joules, f"{now:.6f} | tx | {ids} | ", f" | {tx_joules:.12g}",
                    parts, listeners)
        links = self._links
        links.pop(key, None)
        if len(links) >= self.LINKS:
            del links[next(iter(links))]
        links[key] = link
        return link

    def transmit(self, sender: NodeState, receiver: NodeState, frame: Frame,
                 control: bool = False) -> str:
        if not sender.alive:
            outcome = self._lose("dead_sender")
            self.trace.log(self.queue.now, "drop",
                           f"{sender.id}->{receiver.id}:{TYPE_NAME[frame.msg_type]}", outcome)
            return outcome
        key = (sender.id, receiver.id, frame.msg_type, frame.wire_len, control)
        link = self._links.get(key)
        if link is None or link.clock is not self.queue.now:
            link = self._link(sender, receiver, frame, control, None, key)
        self.debit(sender, link.tx_joules)
        emission = Emission(sender.id, frame, *link.parts)
        self._eavesdrop_sweep(sender, emission, link.skip)
        if link.listeners:
            outcome = self._receive_leg(receiver, emission, link.listeners[0][1])
        else:
            outcome = self._lose("range")
        self.trace.write(link.tx_head + outcome + link.tx_tail)
        return outcome

    def transmit_phantom(self, sender: NodeState, persona_id: int,
                         position: tuple[float, float], frame: Frame,
                         control: bool = False) -> None:
        """A send toward a fake identity advertised at `position`: no radio
        answers, but the sender still pays to transmit, and spies in its
        range overhear the frame."""
        type_name = TYPE_NAME[frame.msg_type]
        tx_joules = self._pay_tx(sender, frame.wire_bits,
                                 None if control else distance(sender.position, position))
        self._eavesdrop_sweep(sender, self._emission(sender.id, frame, type_name), (sender.id,))
        self.trace.log(self.queue.now, "tx", f"{sender.id}->{persona_id}:{type_name}",
                       self._lose("phantom"), tx_joules)

    def _receive_leg(self, receiver: NodeState, emission: Emission, line: str) -> str:
        """Delivery to a receiver already known to be within reach; `line`
        is its `rx` line."""
        if not receiver.alive:
            return self._lose("dead_receiver")
        if self.loss_rng.random() < self.radio.loss_probability:
            return self._lose("loss")
        self._take_in(receiver, emission, line)
        if not receiver.behavior.accept_frame(receiver, emission.sender_id, emission.frame):
            return self._lose("adversarial")
        return DELIVERED

    def broadcast(self, sender: NodeState, frame: Frame, control: bool = False,
                  kinds: tuple[str, ...] | None = None) -> list[int]:
        """One transmit burst to every in-range listener; returns delivered IDs.
        Each live wormhole end that hears the burst tunnels it to its far
        end, which pays a transmit and spreads the sender's own emission:
        its listeners hear `sender`, as the returned list says they did.
        The far end skips the sender, both tunnel ends and every node the
        sender delivered to directly; a node that hears both ends of a
        tunnel takes in both copies."""
        type_name = TYPE_NAME[frame.msg_type]
        sender_id = sender.id
        if not sender.alive:
            self.trace.log(self.queue.now, "drop", f"{sender_id}->*:{type_name}",
                           self._lose("dead_sender"))
            return []
        key = (sender_id, None, frame.msg_type, frame.wire_len, control, kinds)
        link = self._links.get(key)
        if link is None or link.clock is not self.queue.now:
            link = self._link(sender, None, frame, control, kinds, key)
        self.debit(sender, link.tx_joules)
        emission = Emission(sender_id, frame, *link.parts)
        self.trace.write(link.tx_head + "broadcast" + link.tx_tail)
        nodes = self.network.nodes
        heard = self.hears(sender)
        delivered = self._spread(sender, emission, link.listeners, link.skip, kinds)
        reached = {sender_id, *delivered} if self.wormholes else None
        for end_a, end_b in self.wormholes:
            for near, far in ((end_a, end_b), (end_b, end_a)):
                far_node = nodes[far]
                if (sender_id in (near, far) or not nodes[near].alive or not far_node.alive
                        or not (control or near in heard)):
                    continue
                far_tx = self._pay_tx(far_node, frame.wire_bits)
                self.trace.log(self.queue.now, "wormhole", f"{near}=>{far}:{type_name}",
                               "tunneled", far_tx)
                skip = reached | {near, far}
                listeners = self._listeners(emission, self.hears(far_node), skip, kinds)
                delivered += self._spread(far_node, emission, listeners, skip, kinds)
        return delivered

    def _spread(self, origin: NodeState, emission: Emission, listeners, skip,
                kinds: tuple[str, ...] | None) -> list[int]:
        """`emission` reaching `listeners`, screened (listener, `rx` line)
        pairs, from `origin`'s radio: the sender's own or a wormhole's far
        end.  Spies around `origin` not in `skip` and outside `kinds`
        overhear it; each listener takes it in, and each lost leg writes one
        `drop` line.  Returns the IDs it was delivered to."""
        if kinds is not None:
            self._eavesdrop_sweep(origin, emission, skip, screened=kinds)
        receive = self._receive_leg
        delivered = []
        for listener, line in listeners:
            outcome = receive(listener, emission, line)
            if outcome == DELIVERED:
                delivered.append(listener.id)
            else:
                self.trace.log(self.queue.now, "drop", f"{emission.sender_id}->{listener.id}:"
                               f"{TYPE_NAME[emission.frame.msg_type]}", outcome)
        return delivered

    # -- checks ------------------------------------------------------------

    def conservation_errors(self) -> list[int]:
        """Node IDs, in ID order, whose ledger balance is not their final battery."""
        bad = []
        for node_id, node in self.network.nodes.items():
            balance = self.ledger.get(node_id, self.initial_battery[node_id])
            if balance != node.battery_mah:
                bad.append(node_id)
        return bad
