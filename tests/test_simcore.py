import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import TWO_SUB_DOC, brute_force_hears, make_world
from sermt import grid
from sermt.entities import Behavior, Network, NodeState
from sermt.grid import Deployment, EntitySeed
from sermt.protocol import compute_trust
from sermt.rng import substream
from sermt.scenario import DATA_DIR, build_world, load_config
from sermt.simcore import (
    Channel, EnergyModel, EventQueue, RadioModel, SchedulingFault, Trace,
)
from sermt.wire import MsgType, make_frame

GBK = b"test-gbk"


def frame_of(sender_id, payload=b"x" * 10):
    return make_frame(MsgType.TEST, sender_id, payload, gbk=GBK)


class Swallower(Behavior):
    def accept_frame(self, node, sender_id, frame):
        return False


def test_event_queue_orders_by_time_then_sequence():
    queue = EventQueue()
    fired = []
    queue.schedule(2.0, fired.append, "late")
    queue.schedule(1.0, fired.append, "a")
    queue.schedule(1.0, fired.append, "b")
    queue.run_until(5.0)
    assert fired == ["a", "b", "late"]
    assert queue.now == 5.0


def test_event_queue_boundary_and_past():
    queue = EventQueue()
    fired = []
    queue.schedule(1.0, fired.append, 1)
    queue.run_until(0.0)
    assert fired == []
    queue.run_until(1.0)   # events at exactly t_end fire
    assert fired == [1]
    queue.run_until(10.0)
    with pytest.raises(SchedulingFault):
        queue.schedule(9.0, fired.append, 2)


def test_events_can_schedule_more_events():
    queue = EventQueue()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            queue.schedule(queue.now + 1.0, chain, n + 1)

    queue.schedule(0.0, chain, 0)
    queue.run_until(10.0)
    assert fired == [0, 1, 2, 3]


def test_energy_formulas_hand_values():
    em = EnergyModel(e_amp=100e-12, e_baseband=50e-9, e_frontend=50e-9, e_lna=50e-9)
    assert em.energy_tx(800, 50.0) == pytest.approx(2.8e-4, rel=1e-12)
    assert em.energy_rx(800) == pytest.approx(1.2e-4, rel=1e-12)
    assert em.energy_tx(0, 123.0) == 0.0
    assert em.energy_rx(0) == 0.0
    # monotone in bits and distance
    assert em.energy_tx(1600, 50.0) > em.energy_tx(800, 50.0)
    assert em.energy_tx(800, 100.0) > em.energy_tx(800, 50.0)
    # quadratic amplifier term
    em2 = EnergyModel(e_amp=1e-9, e_baseband=0.0, e_frontend=0.0)
    assert em2.energy_tx(100, 20.0) == pytest.approx(4 * em2.energy_tx(100, 10.0))


def test_mah_conversion():
    em = EnergyModel(volts=3.0)
    assert em.to_mah(10.8) == pytest.approx(1.0)


def test_transmit_in_range_debits_both_sides():
    network, channel, queue, trace = make_world([("N", (0, 0), 1), ("N", (100, 0), 1)])
    a, b = network.nodes[5], network.nodes[6]
    fr = frame_of(5)
    outcome = channel.transmit(a, b, fr)
    assert outcome == "delivered"
    em = channel.energy
    assert a.debited_mah == pytest.approx(em.to_mah(em.energy_tx(fr.wire_bits, 100.0)))
    assert b.debited_mah == pytest.approx(em.to_mah(em.energy_rx(fr.wire_bits)))


def test_transmit_out_of_range_still_costs_sender():
    network, channel, _, _ = make_world([("N", (0, 0), 1), ("N", (1000, 0), 2)])
    a, b = network.nodes[5], network.nodes[6]
    fr = frame_of(5)
    assert channel.transmit(a, b, fr) == "dropped(range)"
    em = channel.energy
    # energy clamped at the sender's own range, not the real distance
    assert a.debited_mah == pytest.approx(em.to_mah(em.energy_tx(fr.wire_bits, channel.radio.range_n)))
    assert b.debited_mah == 0.0


def test_transmit_exact_boundary_is_in_range():
    network, channel, _, _ = make_world([("N", (0, 0), 1), ("N", (250, 0), 1)])
    assert channel.transmit(network.nodes[5], network.nodes[6], frame_of(5)) == "delivered"


def test_control_channel_ignores_range():
    network, channel, _, _ = make_world([("N", (0, 0), 1), ("N", (5000, 0), 2)])
    a, b = network.nodes[5], network.nodes[6]
    assert channel.transmit(a, b, frame_of(5), control=True) == "delivered"
    assert b.debited_mah > 0


def test_loss_probability_extremes():
    network, channel, _, _ = make_world(
        [("N", (0, 0), 1), ("N", (50, 0), 1)], radio=RadioModel(loss_probability=1.0))
    assert channel.transmit(network.nodes[5], network.nodes[6], frame_of(5)) == "dropped(loss)"
    network2, channel2, _, _ = make_world(
        [("N", (0, 0), 1), ("N", (50, 0), 1)], radio=RadioModel(loss_probability=0.0))
    for _ in range(20):
        assert channel2.transmit(network2.nodes[5], network2.nodes[6], frame_of(5)) == "delivered"


def test_dead_receiver_and_dead_sender():
    network, channel, _, _ = make_world([("N", (0, 0), 1), ("N", (50, 0), 1)])
    a, b = network.nodes[5], network.nodes[6]
    channel.debit(b, 1e6)   # over-debit clamps at zero
    assert not b.alive and b.battery_mah == 0.0
    assert channel.transmit(a, b, frame_of(5)) == "dropped(dead_receiver)"
    spent_a, spent_b = a.debited_mah, b.debited_mah
    assert channel.transmit(b, a, frame_of(6)) == "dropped(dead_sender)"
    # no energy moves for a dead sender's attempt
    assert (a.debited_mah, b.debited_mah) == (spent_a, spent_b)


def test_n_node_dies_exactly_at_zero_and_stays_dead():
    network, channel, _, _ = make_world([("N", (0, 0), 1)])
    node = network.nodes[5]
    em = channel.energy
    channel.debit(node, (node.battery_mah - 1e-9) * em.volts * 3.6)
    assert node.alive
    channel.debit(node, em.volts * 3.6)   # 1 mAh: over-debit clamps at zero
    assert node.battery_mah == 0.0 and not node.alive
    assert any("death" in line for line in channel.trace.lines)


def test_recharge_is_lazy_linear_and_capped():
    em = EnergyModel(recharge_rate=0.5, battery_capacity_es=151.0)
    network, channel, queue, _ = make_world([("ES", (0, 0), 1)], energy=em)
    node = network.nodes[5]
    queue.schedule(10.0, lambda: channel.debit(node, 10.8))   # 1 mAh at t=10
    queue.run_until(10.0)
    # 10 s * 0.5 mAh/s capped at capacity 151 first, then the debit
    assert node.battery_mah == pytest.approx(150.0)
    assert node.recharged_mah == pytest.approx(1.0)
    queue.run_until(500.0)
    channel.finalize()
    assert node.battery_mah == pytest.approx(151.0)


def test_n_nodes_do_not_recharge():
    network, channel, queue, _ = make_world([("N", (0, 0), 1)])
    node = network.nodes[5]
    queue.schedule(100.0, lambda: channel.debit(node, 10.8))
    queue.run_until(100.0)
    channel.finalize()
    assert node.recharged_mah == 0.0
    assert node.battery_mah == pytest.approx(149.0)


def test_mains_powered_nodes_never_drain():
    network, channel, _, _ = make_world([("N", (0, 0), 1)])
    gw = network.nodes[1]
    channel.debit(gw, 1e6)
    assert gw.battery_mah == 150.0 and gw.debited_mah == 0.0
    assert channel.ledger == {}


class ReferenceBattery:
    """The battery arithmetic of the three-call design (`debit` ->
    `_recharge_to_now` -> `apply_energy`), kept here as the reference the
    one-step `Channel.debit` must match bit for bit."""

    def __init__(self, network, energy, queue, trace):
        self.network, self.energy, self.queue, self.trace = network, energy, queue, trace
        self.ledger = {}
        self.initial_battery = {n.id: n.battery_mah for n in network.nodes.values()}
        self._last_recharge = {}

    def apply_energy(self, node, delta_mah):
        if node.kind in ("MU", "PMU", "GW", "SERVER") or delta_mah == 0.0:
            return
        if delta_mah < 0:
            effective = -min(-delta_mah, node.battery_mah)
            node.debited_mah += -effective
        else:
            cap = (self.energy.battery_capacity_es if node.kind in ("ES", "PDC")
                   else self.energy.initial_battery)
            effective = min(delta_mah, cap - node.battery_mah)
            node.recharged_mah += effective
        node.battery_mah += effective
        self.ledger[node.id] = self.ledger.get(node.id, self.initial_battery[node.id]) + effective
        if node.kind == "N" and node.battery_mah == 0.0 and node.alive:
            node.alive = False
            self.trace.log(self.queue.now, "death", str(node.id), "battery_exhausted")

    def _recharge_to_now(self, node):
        if node.kind not in ("ES", "PDC"):
            return
        last = self._last_recharge.get(node.id, 0.0)
        dt = self.queue.now - last
        self._last_recharge[node.id] = self.queue.now
        if dt > 0:
            self.apply_energy(node, self.energy.recharge_rate * dt)

    def debit(self, node, joules):
        self._recharge_to_now(node)
        self.apply_energy(node, -self.energy.to_mah(joules))

    def finalize(self):
        for node_id in sorted(self.network.nodes):
            self._recharge_to_now(self.network.nodes[node_id])


_spends = st.one_of(st.just(0.0), st.floats(0.0, 2000.0), st.just("drain"), st.just("over"))


@settings(max_examples=200, deadline=None)
@given(kinds=st.lists(st.sampled_from(["N", "ES", "PDC", "GW"]), min_size=1, max_size=5),
       recharge_rate=st.sampled_from([0.0, 0.01, 0.7]),
       capacity=st.sampled_from([150.5, 2000.0]),
       initial=st.sampled_from([150.0, 0.0]),
       data=st.data())
def test_debit_matches_the_three_call_battery_bit_for_bit(kinds, recharge_rate, capacity,
                                                          initial, data):
    energy = EnergyModel(recharge_rate=recharge_rate, battery_capacity_es=capacity)
    extra = [(kind, (10.0 * i, 0.0), 1) for i, kind in enumerate(kinds) if kind != "GW"]
    network, channel, queue, trace = make_world(extra, energy=energy, initial_battery=initial)
    ref_network, _, ref_queue, ref_trace = make_world(extra, energy=energy,
                                                      initial_battery=initial)
    reference = ReferenceBattery(ref_network, energy, ref_queue, ref_trace)
    ids = list(range(5, 5 + len(extra))) + ([1] if "GW" in kinds else [])   # 1: a gateway
    steps = st.tuples(st.sampled_from(ids),
                      st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.just(400.0)), _spends)
    t = 0.0
    for node_id, dt, spend in data.draw(st.lists(steps, max_size=25), label="steps"):
        t += dt
        queue.now = ref_queue.now = t
        node, ref_node = network.nodes[node_id], ref_network.nodes[node_id]
        if spend == "drain":            # exactly what is left
            spend = ref_node.battery_mah * (energy.volts * 3.6)
        elif spend == "over":
            spend = 1e9
        channel.debit(node, spend)
        reference.debit(ref_node, spend)
    t += 5.0
    queue.now = ref_queue.now = t
    channel.finalize()
    reference.finalize()

    for node_id, node in network.nodes.items():
        ref_node = ref_network.nodes[node_id]
        for name in ("battery_mah", "debited_mah", "recharged_mah"):
            assert getattr(node, name).hex() == getattr(ref_node, name).hex(), name
        assert node.alive == ref_node.alive
    assert len(channel.ledger) == len(reference.ledger)
    assert {k: v.hex() for k, v in channel.ledger.items()} == \
        {k: v.hex() for k, v in reference.ledger.items()}
    assert [line for line in trace.lines if " | death | " in line] == \
        [line for line in ref_trace.lines if " | death | " in line]
    assert channel.conservation_errors() == []


def test_energy_conservation_ledger():
    network, channel, queue, _ = make_world(
        [("N", (0, 0), 1), ("N", (50, 0), 1), ("ES", (100, 0), 1)])
    rng = random.Random(4)
    t = 0.0
    for _ in range(200):
        t += rng.random()
        src, dst = rng.sample([5, 6, 7], 2)
        queue.schedule(t, lambda s=src, d=dst: channel.transmit(
            network.nodes[s], network.nodes[d], frame_of(s)))
    queue.run_until(t)
    channel.finalize()
    assert len(channel.ledger) == 3       # one folded balance per charged node
    assert channel.conservation_errors() == []
    network.nodes[5].battery_mah += 1e-9   # corrupt: the check must notice
    assert channel.conservation_errors() == [5]


def test_broadcast_reaches_in_range_alive_nodes_once():
    network, channel, _, _ = make_world(
        [("N", (0, 0), 1), ("N", (100, 0), 1), ("N", (200, 0), 1), ("N", (900, 0), 2)])
    sender = network.nodes[5]
    network.nodes[7].alive = False
    got = channel.broadcast(sender, frame_of(5), kinds=("N",))
    assert got == [6]   # 7 dead, 8 out of range, gateways filtered by kind
    em = channel.energy
    fr = frame_of(5)
    assert sender.debited_mah == pytest.approx(
        em.to_mah(em.energy_tx(fr.wire_bits, channel.radio.range_n)))


def test_adversarial_swallow_costs_receiver_energy():
    network, channel, _, _ = make_world([("N", (0, 0), 1), ("N", (50, 0), 1)])
    a, b = network.nodes[5], network.nodes[6]
    b.behavior = Swallower()
    assert channel.transmit(a, b, frame_of(5)) == "dropped(adversarial)"
    assert b.debited_mah > 0
    assert channel.drop_counts.get("adversarial") == 1


def test_eavesdropper_observes_in_range_traffic():
    network, channel, _, _ = make_world(
        [("N", (0, 0), 1), ("N", (50, 0), 1), ("N", (100, 0), 1), ("N", (2000, 0), 2)])
    channel.eavesdroppers = [7, 8]
    channel.audited.update((6, 7, 8))
    channel.transmit(network.nodes[5], network.nodes[6], frame_of(5))
    observers = [o.observer_id for o in channel.observations]
    assert observers == [7, 6]   # spy 7 in range of sender; spy 8 too far
    assert network.nodes[7].debited_mah > 0
    assert network.nodes[8].debited_mah == 0.0


def test_spies_overhear_a_phantom_send():
    """A send to a Sybil persona leaves the sender's radio: a spy in range
    overhears it before the send's own line; a spy out of range does not."""
    network, channel, _, trace = make_world(
        [("N", (0, 0), 1), ("N", (50, 0), 1), ("N", (2000, 0), 2)])
    channel.eavesdroppers = [6, 7]
    channel.audited.update((6, 7))
    channel.transmit_phantom(network.nodes[5], 99, (100.0, 0.0), frame_of(5))
    assert [o.observer_id for o in channel.observations] == [6]
    assert [line.split(" | ")[1:4] for line in trace.lines] == [
        ["rx", "6<-5:TEST", "overheard"], ["tx", "5->99:TEST", "dropped(phantom)"]]
    assert network.nodes[6].debited_mah > 0
    assert network.nodes[7].debited_mah == 0.0


def test_unaudited_receiver_pays_and_is_traced_but_not_observed():
    network, channel, _, trace = make_world(
        [("N", (0, 0), 1), ("N", (50, 0), 1), ("N", (100, 0), 1), ("N", (2000, 0), 2)])
    channel.eavesdroppers = [7, 8]
    channel.audited.update((7, 8))
    frame = frame_of(5)
    channel.transmit(network.nodes[5], network.nodes[6], frame)
    assert [o.observer_id for o in channel.observations] == [7]
    em = channel.energy
    assert network.nodes[6].debited_mah == em.to_mah(em.energy_rx(frame.wire_bits))
    rx_6 = [line for line in trace.lines if line.split(" | ")[1:3] == ["rx", "6<-5:TEST"]]
    assert len(rx_6) == 1 and rx_6[0].split(" | ")[3] == "received"


def dropped_lines(trace):
    return sum(line.split(" | ")[3].startswith("dropped(") for line in trace.lines)


def tunnel_world(radio=None):
    """Sender 5 next to wormhole end 6; the far end 7 has one N neighbour, 8."""
    network, channel, _, trace = make_world(
        [("N", (2000, 0), 1), ("N", (2100, 0), 1), ("N", (5000, 0), 2),
         ("N", (5100, 0), 2)], radio=radio)
    channel.wormholes = [(6, 7)]
    return network, channel, trace


def test_each_failed_tunnelled_leg_writes_one_drop_line():
    network, channel, trace = tunnel_world()
    network.nodes[8].alive = False
    assert channel.broadcast(network.nodes[5], frame_of(5), kinds=("N",)) == [6]
    assert channel.drop_counts == {"dead_receiver": 1}
    assert [line.split(" | ")[1:4] for line in trace.lines if "->8" in line] == [
        ["drop", "5->8:TEST", "dropped(dead_receiver)"]]

    network, channel, trace = tunnel_world(RadioModel(loss_probability=1.0))
    assert channel.broadcast(network.nodes[5], frame_of(5), kinds=("N",)) == []
    # the ordinary leg to 6 and the tunnelled leg to 8 each log their drop
    assert channel.drop_counts == {"loss": 2}
    assert dropped_lines(trace) == 2


def test_spies_near_a_far_end_overhear_the_replay():
    """A broadcast limited to N nodes is overheard by a spy of another kind
    near the sender and by one near a wormhole's far end; both hear the
    sender, and neither is in the delivered list."""
    network, channel, _, trace = make_world(
        [("N", (2000, 0), 1), ("N", (2100, 0), 1), ("N", (5000, 0), 2),
         ("N", (5100, 0), 2), ("ES", (1950, 0), 1), ("ES", (5050, 0), 2)])
    channel.wormholes = [(6, 7)]
    channel.eavesdroppers = [9, 10]
    channel.audited.update((9, 10))
    assert channel.broadcast(network.nodes[5], frame_of(5), kinds=("N",)) == [6, 8]
    assert [o.observer_id for o in channel.observations] == [9, 10]
    assert [line.split(" | ")[2] for line in trace.lines
            if line.split(" | ")[3] == "overheard"] == ["9<-5:TEST", "10<-5:TEST"]


def test_dead_senders_broadcast_writes_one_drop_line_and_moves_nothing():
    """A dead sender's broadcast is one `dead_sender` drop: no battery
    moves, no listener or wormhole end takes it in, nobody is reached."""
    network, channel, trace = tunnel_world()
    sender = network.nodes[5]
    sender.alive = False
    channel.audited.update(network.nodes)
    batteries = {node_id: node.battery_mah for node_id, node in network.nodes.items()}
    assert channel.broadcast(sender, frame_of(5)) == []
    assert [line.split(" | ")[1:4] for line in trace.lines] == [
        ["drop", "5->*:TEST", "dropped(dead_sender)"]]
    assert channel.drop_counts == {"dead_sender": 1}
    assert {node_id: node.battery_mah for node_id, node in network.nodes.items()} == batteries
    assert channel.ledger == {} and channel.observations == []


# A clock reading, or None to emit again at the reading before.  -0.0 is no
# queue time, but equals 0.0 and prints differently.
_clock = st.one_of(st.none(), st.just(0.0), st.just(-0.0), st.floats(0.0, 1e6))
# receive cost per bit: with e_lna alone, a frame's rx joules run from 0.0
# through subnormals to near 1e300
_per_bit = st.one_of(st.just(0.0), st.just(5e-324), st.floats(0.0, 1e-310),
                     st.floats(0.0, 1e-6), st.floats(1e296, 1e297))
_emit = st.tuples(_clock, st.integers(0, 40), st.integers(0, 2**31), st.integers(0, 2**31),
                  st.sampled_from([m.name for m in MsgType]),
                  st.sampled_from(["received", "overheard"]))


@settings(deadline=None)
@given(e_lna=_per_bit, emits=st.lists(_emit, min_size=1, max_size=6))
def test_rx_lines_from_emission_parts_are_trace_logs_lines(e_lna, emits):
    """A listener's `rx` line is joined from the emission's parts, which the
    channel keeps per clock reading and per frame size, and the listener
    step adds it; byte for byte, each line is the one `Trace.log` would
    write, and each listener pays the model's receive joules for its frame,
    bit for bit."""
    energy = EnergyModel(e_baseband=0.0, e_frontend=0.0, e_lna=e_lna)
    network, channel, queue, trace = make_world(energy=energy)
    reference = Trace()
    for t, size, sender_id, listener_id, type_name, how in emits:
        if t is not None:
            queue.now = t
        frame = frame_of(5, b"p" * size)
        emission = channel._emission(sender_id, frame, type_name)
        assert emission.rx_joules.hex() == energy.energy_rx(frame.wire_bits).hex()
        listener = NodeState(id=listener_id, kind="GW", position=(0.0, 0.0), region_id=1)
        channel._take_in(listener, emission, emission.line(listener_id, how))  # pays nothing
        reference.log(queue.now, "rx", f"{listener_id}<-{sender_id}:{type_name}", how,
                      emission.rx_joules)
    assert trace.lines == reference.lines


@settings(max_examples=60, deadline=None)
@given(positions=st.lists(st.tuples(st.integers(0, 700), st.integers(0, 300)),
                          min_size=2, max_size=6),
       loss=st.sampled_from([0.0, 0.3, 1.0]),
       data=st.data())
def test_every_loss_is_counted_and_every_listener_pays_rx(positions, loss, data):
    """Each lost leg, a wormhole far end's included, writes one `dropped(...)`
    line, each `rx` line is one listener's receive debit, in order, and every
    other debit is the one a `tx` or `wormhole` line names, in order."""
    extra = [("ES" if i % 3 == 2 else "N", pos, 1 + (pos[0] > 300))
             for i, pos in enumerate(positions)]
    network, channel, _, trace = make_world(extra, radio=RadioModel(loss_probability=loss))
    ids = list(range(5, 5 + len(extra)))
    for node_id in data.draw(st.sets(st.sampled_from(ids)), label="dead"):
        network.nodes[node_id].alive = False
    channel.eavesdroppers = sorted(data.draw(st.sets(st.sampled_from(ids)), label="spies"))
    tunnel = data.draw(st.one_of(st.none(), st.lists(st.sampled_from(ids), min_size=2,
                                                     max_size=2, unique=True)), label="tunnel")
    channel.wormholes = [] if tunnel is None else [tuple(tunnel)]
    debits, tx_debits, taking = [], [], []

    def recording_debit(node, joules):
        (debits if taking else tx_debits).append((node.id, joules))
        Channel.debit(channel, node, joules)

    def recording_take_in(*args):
        taking.append(True)
        try:
            return Channel._take_in(channel, *args)
        finally:
            taking.pop()
    channel.debit, channel._take_in = recording_debit, recording_take_in

    em = channel.energy
    calls = st.tuples(st.sampled_from(["transmit", "broadcast", "phantom"]),
                      st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True),
                      st.booleans(), st.sampled_from([None, ("N",), ("ES", "GW")]),
                      st.integers(0, 40))
    for call, (src, dst), control, kinds, size in data.draw(st.lists(calls, max_size=12)):
        sender, frame = network.nodes[src], frame_of(src, b"p" * size)
        before, debits[:], tx_debits[:] = len(trace.lines), [], []
        if call == "transmit":
            channel.transmit(sender, network.nodes[dst], frame, control=control)
        elif call == "broadcast":
            channel.broadcast(sender, frame, control=control, kinds=kinds)
        else:
            channel.transmit_phantom(sender, 99, network.nodes[dst].position, frame,
                                     control=control)
        fields = [line.split(" | ") for line in trace.lines[before:]]
        rx_lines = [ids for _, kind, ids, _, _ in fields if kind == "rx"]
        assert [int(who.split("<-")[0]) for who in rx_lines] == [n for n, _ in debits]
        assert all(joules == em.energy_rx(frame.wire_bits) for _, joules in debits)
        payers = [(int(ids.split("->")[0] if kind == "tx" else ids.split("=>")[1].split(":")[0]),
                   joules) for _, kind, ids, _, joules in fields if kind in ("tx", "wormhole")]
        assert [(n, f"{joules:.12g}") for n, joules in tx_debits] == payers
    assert sum(channel.drop_counts.values()) == dropped_lines(trace)


# -- links: the constants of a run of sends ---------------------------------------


def cold_transmit(channel, *args, **kwargs):
    """`transmit` with no link kept from an earlier send."""
    channel._links.clear()
    return channel.transmit(*args, **kwargs)


def test_sends_over_one_link_write_what_cold_sends_write():
    """A probe's pattern, test and ACK twice at one clock reading and a
    test after the clock moves: the sends at one reading reuse two links,
    and every send writes the lines and pays the floats a cold `transmit`
    does, which are the model's floats in `Trace.log`'s format."""
    results = []
    for send in (Channel.transmit, cold_transmit):
        network, channel, queue, trace = make_world([("N", (0, 0), 1), ("N", (100, 0), 1)])
        a, b = network.nodes[5], network.nodes[6]
        test, ack = frame_of(5), make_frame(MsgType.ACK, 6, b"x" * 10, gbk=GBK)
        probe = [(a, b, test), (b, a, ack)]
        queue.now = 1.0
        outcomes = [send(channel, *hop, control=True) for hop in probe]
        built = list(channel._links.values())
        outcomes += [send(channel, *hop, control=True) for hop in probe]
        if send is Channel.transmit:        # the second pair reused the first pair's links
            kept = list(channel._links.values())
            assert len(kept) == 2 and all(x is y for x, y in zip(kept, built))
        queue.now = 2.5
        outcomes.append(send(channel, a, b, test, control=True))
        assert outcomes == ["delivered"] * 5
        results.append((trace.lines, a.battery_mah.hex(), b.battery_mah.hex(), channel.ledger))
    assert results[0] == results[1]
    em, bits = channel.energy, frame_of(5).wire_bits
    tx, rx = em.energy_tx(bits, channel.radio.range_n), em.energy_rx(bits)  # control: full range
    expected = []
    for t, (src, dst, kind) in zip((1.0, 1.0, 1.0, 1.0, 2.5),
                                   [(5, 6, "TEST"), (6, 5, "ACK")] * 2 + [(5, 6, "TEST")]):
        expected += [logged(t, "rx", f"{dst}<-{src}:{kind}", "received", rx),
                     logged(t, "tx", f"{src}->{dst}:{kind}", "delivered", tx)]
    assert results[0][0] == expected


def test_a_link_is_kept_for_the_clock_object_not_its_value():
    """-0.0 == 0.0, but they print differently: a send at -0.0 right after
    one at 0.0 builds its own link and prints its own time stamp."""
    network, channel, queue, trace = make_world([("N", (0, 0), 1), ("N", (100, 0), 1)])
    a, b = network.nodes[5], network.nodes[6]
    queue.now = 0.0
    channel.transmit(a, b, frame_of(5))
    queue.now = -0.0
    channel.transmit(a, b, frame_of(5))
    assert [line.split(" | ")[:2] for line in trace.lines] == [
        ["0.000000", "rx"], ["0.000000", "tx"], ["-0.000000", "rx"], ["-0.000000", "tx"]]


def test_a_sender_that_drains_between_two_sends_of_one_link_drops_the_second():
    network, channel, queue, trace = make_world([("N", (0, 0), 1), ("N", (100, 0), 1)])
    a, b = network.nodes[5], network.nodes[6]
    queue.now = 3.0
    assert channel.transmit(a, b, frame_of(5)) == "delivered"
    channel.debit(a, 1e6)                   # floors at empty: 5 dies
    spent = (a.debited_mah, b.debited_mah)
    assert channel.transmit(a, b, frame_of(5)) == "dropped(dead_sender)"
    assert (a.debited_mah, b.debited_mah) == spent
    assert channel.drop_counts == {"dead_sender": 1}
    assert trace.lines[-2:] == [logged(3.0, "death", "5", "battery_exhausted", 0.0),
                                logged(3.0, "drop", "5->6:TEST", "dropped(dead_sender)", 0.0)]


_link_step = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 5), st.integers(0, 5),
              st.sampled_from([MsgType.TEST, MsgType.ACK]), st.sampled_from([4, 4, 30]),
              st.booleans()),
    st.tuples(st.just("clock"), st.sampled_from([0.0, -0.0, 2.0, 7.5])),
    st.tuples(st.just("same reading, new object")),
    st.tuples(st.just("kill"), st.integers(0, 5)))


@settings(max_examples=80, deadline=None)
@given(positions=st.lists(st.tuples(st.integers(0, 700), st.integers(0, 300)),
                          min_size=2, max_size=6),
       loss=st.sampled_from([0.0, 0.3]), data=st.data())
def test_sends_over_kept_links_are_cold_sends(positions, loss, data):
    """Any run of sends, deaths and clock steps, 0.0 and -0.0 among them,
    with spies, a swallower and loss: through kept links and through cold
    sends it gives the same trace, drops, batteries, ledger and loss draws,
    bit for bit, and never more than LINKS links are kept."""
    extra = [("ES" if i % 3 == 2 else "N", pos, 1 + (pos[0] > 300))
             for i, pos in enumerate(positions)]
    ids = list(range(5, 5 + len(extra)))
    spies = sorted(data.draw(st.sets(st.sampled_from(ids)), label="spies"))
    swallower = data.draw(st.sampled_from(ids), label="swallower")
    steps = data.draw(st.lists(_link_step, max_size=24), label="steps")
    results = []
    for send in (Channel.transmit, cold_transmit):
        network, channel, queue, trace = make_world(extra, radio=RadioModel(loss_probability=loss))
        channel.eavesdroppers = spies
        channel.audited.update(ids)
        network.nodes[swallower].behavior = Swallower()
        outcomes = []
        for step in steps:
            if step[0] == "send":
                _, src, dst, msg_type, size, control = step
                sender = network.nodes[ids[src % len(ids)]]
                receiver = network.nodes[ids[dst % len(ids)]]
                frame = make_frame(msg_type, sender.id, b"p" * size, gbk=GBK)
                outcomes.append(send(channel, sender, receiver, frame, control=control))
            elif step[0] == "clock":
                queue.now = step[1]
            elif step[0] == "kill":
                network.nodes[ids[step[1] % len(ids)]].alive = False
            else:
                queue.now = queue.now * 1.0
            assert len(channel._links) <= Channel.LINKS
        results.append((outcomes, trace.lines, channel.drop_counts, channel.ledger,
                        [node.battery_mah.hex() for node in network.nodes.values()],
                        [(o.observer_id, o.frame) for o in channel.observations],
                        channel.loss_rng.getstate()))
    assert results[0] == results[1]


def cold_broadcast(channel, *args, **kwargs):
    """`broadcast` with no link kept from an earlier emission."""
    channel._links.clear()
    return channel.broadcast(*args, **kwargs)


_burst = st.tuples(st.just("burst"), st.integers(0, 2), st.integers(1, 4),
                   st.sampled_from([4, 4, 30]), st.booleans(),
                   st.sampled_from([None, ("N",), ("ES", "GW"), ("N", "ES")]))
_fan_step = st.one_of(_burst, st.one_of(        # half of the steps are bursts
    st.tuples(st.just("send"), st.integers(0, 7), st.integers(0, 7),
              st.sampled_from([MsgType.TEST, MsgType.ACK]), st.sampled_from([4, 30]),
              st.booleans()),
    st.tuples(st.just("clock"), st.sampled_from([0.0, -0.0, 2.0, 7.5])),
    st.tuples(st.just("same reading, new object")),
    st.tuples(st.just("kill"), st.integers(0, 7)),
    st.tuples(st.just("add"), st.integers(0, 700), st.integers(0, 300),
              st.sampled_from(["N", "ES"]))))
# one world that takes every path a kept broadcast link can go wrong on, at
# one clock object: listener 6 dies to its second receive debit mid-burst,
# the kinds change, the plane changes (8 and 9 are out of 5's range), a
# node joins in 5's range, a send cuts in, -0.0 then 0.0, and 5 dies; spy 7
# sits outside ("N",), and the tunnel 6 => 9 reaches gateway 2 and server 4
_FAN_WORLD = dict(
    positions=[(0, 0), (100, 0), (200, 0), (300, 0), (600, 100), (100, 100)], loss=0.0,
    chunk=1, spies=[2], tunnel=(1, 4), frail=(1, 5e-6),
    steps=[("clock", 2.0), ("burst", 0, 3, 4, False, None), ("burst", 0, 1, 4, False, ("N",)),
           ("burst", 0, 1, 4, True, ("N",)), ("add", 50, 0, "N"),
           ("burst", 0, 1, 4, True, ("N",)), ("send", 0, 3, MsgType.TEST, 4, False),
           ("burst", 0, 2, 4, True, ("N",)), ("clock", -0.0), ("burst", 2, 2, 4, False, None),
           ("clock", 0.0), ("burst", 2, 2, 4, False, None), ("kill", 0),
           ("burst", 0, 2, 4, False, None)])


@settings(max_examples=80, deadline=None)
@example(**_FAN_WORLD)
@given(positions=st.lists(st.tuples(st.integers(0, 700), st.integers(0, 300)),
                          min_size=2, max_size=6),
       loss=st.sampled_from([0.0, 0.3]), chunk=st.sampled_from([1, 3, Trace.CHUNK]),
       spies=st.lists(st.integers(0, 7), max_size=3),
       tunnel=st.one_of(st.none(), st.tuples(st.integers(0, 7), st.integers(0, 7))),
       frail=st.one_of(st.none(), st.tuples(st.integers(0, 7),
                                            st.sampled_from([5e-6, 1.2e-5, 3e-5]))),
       steps=st.lists(_fan_step, min_size=2, max_size=16))
def test_broadcasts_over_kept_links_are_cold_broadcasts(positions, loss, chunk, spies, tunnel,
                                                        frail, steps):
    """Any run of flood-like bursts (one sender, several frames of one size
    at one clock object) among sends, deaths, clock steps and late nodes,
    with kinds, both planes, spies, a wormhole, loss and a listener that
    dies to its own receive debit mid-burst: through kept links, on a trace
    that seals every few lines, and through cold emissions, on one that
    never seals, it gives the same delivered lists, trace, drops, batteries,
    ledger, observations and loss draws, bit for bit, and never more than
    LINKS links are kept."""
    extra = [("ES" if i % 3 == 2 else "N", pos, 1 + (pos[0] > 300))
             for i, pos in enumerate(positions)]
    first = list(range(5, 5 + len(extra)))
    results = []
    for send, fan in ((Channel.transmit, Channel.broadcast), (cold_transmit, cold_broadcast)):
        network, channel, queue, trace = make_world(extra, radio=RadioModel(loss_probability=loss))
        trace.CHUNK = chunk if send is Channel.transmit else 10**9
        ids = list(first)
        channel.eavesdroppers = sorted({ids[i % len(ids)] for i in spies})
        if tunnel is not None and tunnel[0] % len(ids) != tunnel[1] % len(ids):
            channel.wormholes = [(ids[tunnel[0] % len(ids)], ids[tunnel[1] % len(ids)])]
        if frail is not None:
            node_id = ids[frail[0] % len(ids)]
            network.nodes[node_id].battery_mah = channel.initial_battery[node_id] = frail[1]
        channel.audited.update(network.nodes)
        outcomes = []
        for step in steps:
            if step[0] == "burst":
                _, src, frames, size, control, kinds = step
                sender = network.nodes[ids[src % len(ids)]]
                for seq in range(frames):
                    frame = make_frame(MsgType.BLOCKED_LIST, sender.id, bytes([seq]) * size,
                                       gbk=GBK)
                    outcomes.append(fan(channel, sender, frame, control=control, kinds=kinds))
            elif step[0] == "send":
                _, src, dst, msg_type, size, control = step
                sender = network.nodes[ids[src % len(ids)]]
                frame = make_frame(msg_type, sender.id, b"p" * size, gbk=GBK)
                outcomes.append(send(channel, sender, network.nodes[ids[dst % len(ids)]],
                                     frame, control=control))
            elif step[0] == "clock":
                queue.now = step[1]
            elif step[0] == "kill":
                network.nodes[ids[step[1] % len(ids)]].alive = False
            elif step[0] == "add":
                ids.append(network.allocate_id())
                channel.add_node(NodeState(id=ids[-1], kind=step[3],
                                           position=(float(step[1]), float(step[2])),
                                           region_id=1))
                channel.audited.add(ids[-1])
            else:
                queue.now = queue.now * 1.0
            assert len(channel._links) <= Channel.LINKS
        results.append((outcomes, trace.lines, channel.drop_counts, channel.ledger,
                        [node.battery_mah.hex() for node in network.nodes.values()],
                        [(o.observer_id, o.frame) for o in channel.observations],
                        channel.loss_rng.getstate()))
    assert results[0] == results[1]


def test_a_probe_sends_each_frame_through_one_transmit(monkeypatch):
    """A probe's test frames and their ACKs each go through one `transmit`
    call, each writing its own `tx` line, and the calls alternate between
    the two links they keep."""
    world = build_world(load_config(DATA_DIR / "scaled_ieee14.conf"))
    prober = next(node for node in world.network.nodes.values() if node.kind == "GW")
    target = next(node for node in world.network.nodes.values() if node.kind == "N")
    sent, transmit = [], Channel.transmit

    def counted(channel, sender, receiver, frame, control=False):
        sent.append((sender.id, receiver.id, frame.msg_type))
        outcome = transmit(channel, sender, receiver, frame, control)
        assert len(channel._links) == min(len(sent), Channel.LINKS)
        return outcome

    monkeypatch.setattr(Channel, "transmit", counted)
    tests = len(world.engine._tests(prober))
    assert world.engine._probe(prober, target) == compute_trust(tests, tests)
    assert sent == [(prober.id, target.id, MsgType.TEST),
                    (target.id, prober.id, MsgType.ACK)] * tests
    assert sum(line.split(" | ")[1] == "tx" for line in world.trace.lines) == 2 * tests


# -- the chunked trace -----------------------------------------------------------


def per_line_digest(lines):
    """The run hash as a store of one `str` per line computes it."""
    h = hashlib.sha1()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def logged(t, kind, ids, outcome, joules):
    return f"{t:.6f} | {kind} | {ids} | {outcome} | {joules:.12g}"


def assert_same_trace(trace, reference):
    assert trace.lines == reference
    assert trace.digest() == per_line_digest(reference)
    assert "".join(trace.chunks()) == "".join(line + "\n" for line in reference)


_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
                max_size=8)
_trace_call = st.one_of(
    st.tuples(st.just("log"), st.floats(-1e6, 1e6), _text, _text, _text,
              st.floats(allow_nan=False)),
    st.tuples(st.just("append"), _text),
    st.tuples(st.just("write"), _text),
    st.tuples(st.just("seal")),
    st.tuples(st.just("share")))


@settings(max_examples=300, deadline=None)
@given(chunk=st.integers(1, 4), calls=st.lists(_trace_call, max_size=30))
def test_chunked_trace_is_a_plain_list_of_its_lines(chunk, calls):
    """Any run of `log`, `append`, `write`, `seal` and `share` calls, with
    the chunk shrunk so that chunks seal often: `lines`, `digest` and
    `chunks` read as a plain list of the same lines would, whether or not
    the open chunk just sealed, and a `seal` of an empty open chunk adds no
    chunk.  After a `share`, every sealed chunk is its pool's entry."""
    trace, reference, pool = Trace(), [], {}
    trace.CHUNK = chunk
    for call in calls:
        if call[0] == "log":
            trace.log(*call[1:])
            reference.append(logged(*call[1:]))
            assert len(trace._open) < chunk         # `log` sealed a full open chunk
        elif call[0] == "write":
            trace.write(call[1])
            reference.append(call[1])
            assert len(trace._open) < chunk
        elif call[0] == "append":
            trace.append(call[1])
            reference.append(call[1])
        elif call[0] == "share":
            trace.share(pool)
            assert all(pool[chunk] is chunk for chunk in trace._sealed)
        else:
            sealed = len(trace._sealed) + bool(trace._open)
            trace.seal()
            assert (trace._open, len(trace._sealed)) == ([], sealed)
    assert_same_trace(trace, reference)


def test_share_swaps_a_chunk_for_its_pool_entry_and_pools_a_new_one():
    """A sealed chunk equal to a pool entry becomes that entry; one the
    pool lacks joins it.  The open chunk is left as it is, and `digest`,
    `lines` and `chunks` read as before."""
    trace = Trace()
    trace.CHUNK = 2
    for line in ("a", "b", "c", "d", "e"):
        trace.write(line)
    entry = "".join(["a\n", "b\n"])           # equal to the first chunk, another object
    assert entry == trace._sealed[0] and entry is not trace._sealed[0]
    new = trace._sealed[1]
    before = (trace.digest(), trace.lines, list(trace.chunks()))
    pool = {entry: entry}
    trace.share(pool)
    assert trace._sealed[0] is entry and trace._sealed[1] is new
    assert pool == {entry: entry, new: new} and pool[new] is new
    assert trace._open == ["e"]
    assert (trace.digest(), trace.lines, list(trace.chunks())) == before


@pytest.mark.parametrize("count", [0, Trace.CHUNK - 1, Trace.CHUNK, Trace.CHUNK + 1,
                                   3 * Trace.CHUNK + 5, 8191, 8192, 8193, 24581])
def test_chunked_trace_around_the_real_chunk_size(count):
    """Every other line is an `rx`-style `append`, and the CHUNK-th line of
    each chunk is a `log` line, which seals it.  8192 is a multiple of
    CHUNK, so the fixed counts also end one line short of, on, one line
    past and five lines past a chunk boundary, many chunks in."""
    trace, reference = Trace(), []
    for i in range(count):
        if i % 2:
            trace.log(float(i), "tx", f"{i}->*", "broadcast", i / 3)
            reference.append(logged(float(i), "tx", f"{i}->*", "broadcast", i / 3))
        else:
            trace.append(f"{i} | rx")
            reference.append(f"{i} | rx")
    assert_same_trace(trace, reference)
    assert [chunk.count("\n") for chunk in trace._sealed] == [Trace.CHUNK] * (count // Trace.CHUNK)
    assert len(trace._open) == count % Trace.CHUNK


@settings(max_examples=60, deadline=None)
@given(positions=st.lists(st.tuples(st.integers(0, 700), st.integers(0, 300)),
                          min_size=2, max_size=7),
       chunk=st.integers(1, 5), data=st.data())
def test_chunks_seal_inside_emissions_and_the_open_chunk_stays_bounded(positions, chunk,
                                                                       data):
    """The same frames through a trace that seals every few lines and one
    that never seals give the same lines; the open chunk never holds more
    than CHUNK + N + E lines (N nodes, E eavesdroppers), as `Trace` says."""
    extra = [("ES" if i % 3 == 2 else "N", pos, 1 + (pos[0] > 300))
             for i, pos in enumerate(positions)]
    ids = list(range(5, 5 + len(extra)))
    dead = data.draw(st.sets(st.sampled_from(ids)), label="dead")
    spies = sorted(data.draw(st.sets(st.sampled_from(ids)), label="spies"))
    tunnel = data.draw(st.one_of(st.none(), st.lists(st.sampled_from(ids), min_size=2,
                                                     max_size=2, unique=True)), label="tunnel")
    loss = data.draw(st.sampled_from([0.0, 0.3]), label="loss")
    worlds = []
    for _ in range(2):
        network, channel, _, trace = make_world(extra, radio=RadioModel(loss_probability=loss))
        for node_id in dead:
            network.nodes[node_id].alive = False
        channel.eavesdroppers = spies
        channel.wormholes = [] if tunnel is None else [tuple(tunnel)]
        worlds.append((network, channel, trace))
    sealing, unsealed = worlds[0][2], worlds[1][2]
    sealing.CHUNK = chunk
    peak = 0
    write = sealing.write             # every sealing line, `log`'s among them

    def watched_write(line):
        nonlocal peak
        peak = max(peak, len(sealing._open) + 1)
        write(line)
    sealing.write = watched_write

    calls = st.tuples(st.sampled_from(["transmit", "broadcast"]),
                      st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True),
                      st.booleans(), st.sampled_from([None, ("N",), ("ES", "GW")]))
    for call, (src, dst), control, kinds in data.draw(st.lists(calls, max_size=12)):
        for network, channel, _ in worlds:
            if call == "transmit":
                channel.transmit(network.nodes[src], network.nodes[dst], frame_of(src),
                                 control=control)
            else:
                channel.broadcast(network.nodes[src], frame_of(src), control=control,
                                  kinds=kinds)
    assert unsealed._sealed == []
    assert_same_trace(sealing, unsealed.lines)
    assert peak <= chunk + len(worlds[0][0].nodes) + len(spies)


def test_hears_closed_ball_includes_dead():
    network, channel, _, _ = make_world(
        [("N", (0, 0), 1), ("N", (250, 0), 1), ("N", (251, 0), 1), ("N", (100, 0), 1)])
    network.nodes[8].alive = False
    me = network.nodes[5]
    # co-located GW 1 and SERVER 3 at 0 m; 250 m is on the ball, 251 m is not
    assert channel.hears(me) == {1: 0.0, 3: 0.0, 6: 250.0, 8: 100.0}
    # connectivity counts only the alive neighbours: 1, 3 and 6
    assert channel.connectivity_counts(me) == (3, 0)


def test_connectivity_counts_split_by_region():
    network, channel, _, _ = make_world(
        [("N", (0, 0), 1), ("N", (10, 0), 1), ("N", (20, 0), 2), ("N", (30, 0), 2)])
    same, adj = channel.connectivity_counts(network.nodes[5])
    # same region: GW 1, SERVER 3 (both at 0 m) and N 6; other region: 7, 8
    assert (same, adj) == (3, 2)


def test_hears_uses_each_nodes_own_range():
    network, channel, _, _ = make_world([("ES", (300, 300), 1), ("N", (300, 0), 1)])
    es, n = network.nodes[5], network.nodes[6]
    assert channel.hears(es)[6] == 300.0     # ES range 350 m
    assert 5 not in channel.hears(n)         # N range 250 m


def test_add_node_joins_built_neighbourhoods():
    network, channel, _, _ = make_world([("N", (1000, 0), 1)])
    me = network.nodes[5]
    assert channel.hears(me) == {}
    late = NodeState(id=9, kind="N", position=(1100.0, 0.0), region_id=1,
                     battery_mah=42.0)
    channel.add_node(late)
    assert channel.hears(me) == {9: 100.0}
    assert channel.hears(late) == {5: 100.0}
    assert network.nodes[9] is late and channel.initial_battery[9] == 42.0
    # a later entity comes in above every ID, so the walk stays in ID order
    early = NodeState(id=7, kind="N", position=(1050.0, 0.0), region_id=1)
    with pytest.raises(ValueError):
        channel.add_node(early)
    assert 7 not in network.nodes and 7 not in channel.initial_battery
    channel.add_node(NodeState(id=network.allocate_id(), kind="N",
                               position=(1050.0, 0.0), region_id=1))
    assert list(network.nodes) == [1, 2, 3, 4, 5, 9, 10]
    assert list(channel.hears(me)) == [9, 10]


_KINDS = ("N", "ES", "PDC", "MU", "PMU")
# on a 50 m lattice many pairs sit exactly on a range, or share a position
_spots = st.tuples(st.integers(-4, 16), st.integers(-4, 8)).map(
    lambda xy: (50.0 * xy[0], 50.0 * xy[1]))


@settings(max_examples=80, deadline=None)
@given(placed=st.lists(st.tuples(st.sampled_from(_KINDS), _spots, st.booleans()),
                       max_size=14),
       ranges=st.lists(st.sampled_from([50.0, 150.0, 250.0, 300.0, 350.0, 500.0]),
                       min_size=6, max_size=6),
       late=st.lists(st.tuples(st.sampled_from(_KINDS), _spots), max_size=3))
def test_filled_neighbourhoods_equal_each_nodes_own_scan(placed, ranges, late):
    """The one-pass fill gives every node, of every kind, the map a scan
    from that node alone gives, float for float and in ID order; so does
    the fill after each `add_node`."""
    radio = RadioModel(*ranges)
    network, channel, _, _ = make_world([(kind, spot, 1) for kind, spot, _ in placed],
                                        radio=radio)
    for (_, _, dead), node_id in zip(placed, range(5, 5 + len(placed))):
        network.nodes[node_id].alive = not dead
    for kind, spot in [(None, None), *late]:
        if kind is not None:
            channel.add_node(NodeState(id=network.allocate_id(), kind=kind,
                                       position=spot, region_id=1))
        want = brute_force_hears(network, radio)
        got = {node.id: channel.hears(node) for node in network.nodes.values()}
        assert got == want
        assert all(list(got[i]) == list(want[i]) for i in want)


def test_network_add_refuses_ids_not_above_the_maximum():
    network, _, _, _ = make_world([("N", (0, 0), 1)])
    for taken_or_below in (5, 3, -1):
        with pytest.raises(ValueError):
            network.add(NodeState(id=taken_or_below, kind="N", position=(0.0, 0.0),
                                  region_id=1))
    assert list(network.nodes) == [1, 2, 3, 4, 5]
    network.add(NodeState(id=20, kind="N", position=(0.0, 0.0), region_id=1))
    assert network.allocate_id() == 21      # allocation stays above what was added


def test_network_from_a_shuffled_deployment_walks_in_id_order():
    topo = grid.load_topology(TWO_SUB_DOC)
    subs = grid.partition_substations(topo)
    regions = grid.divide_regions(subs, 200.0)
    seeds = [EntitySeed("GW", 1, (0.0, 0.0), 1, 1), EntitySeed("GW", 2, (600.0, 0.0), 2, 2),
             EntitySeed("SERVER", 3, (0.0, 0.0), 1, 1),
             EntitySeed("SERVER", 4, (600.0, 0.0), 2, 2)]
    seeds += [EntitySeed("N", i, (40.0 * i, 0.0), 1 + (i > 12)) for i in range(5, 17)]
    random.Random(3).shuffle(seeds)
    assert [seed.id for seed in seeds] != sorted(seed.id for seed in seeds)
    network = Network(Deployment(tuple(seeds), main_cc=1, backup_cc=2), subs, regions, topo,
                      initial_battery=150.0)
    assert list(network.nodes) == list(range(1, 17))
    assert [n.id for n in network.members(kind="N")] == list(range(5, 17))
    assert [n.id for n in network.members(region=2)] == [2, 4, 13, 14, 15, 16]
    channel = Channel(network, RadioModel(), EnergyModel(), Trace(), EventQueue(),
                      substream(1, "loss"))
    heard = list(channel.hears(network.nodes[8]))
    assert heard == sorted(heard) and len(heard) > 5


def test_trace_digest_deterministic():
    def run():
        network, channel, queue, trace = make_world(
            [("N", (0, 0), 1), ("N", (60, 0), 1)],
            radio=RadioModel(loss_probability=0.3), seed=77)
        for i in range(50):
            queue.schedule(float(i), lambda: channel.transmit(
                network.nodes[5], network.nodes[6], frame_of(5)))
        queue.run_until(50.0)
        channel.finalize()
        return trace.digest()

    assert run() == run()
