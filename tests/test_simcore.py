import math
import random

import pytest

from conftest import make_world
from sermt.entities import NodeState
from sermt.simcore import (
    Channel, EnergyModel, EventQueue, RadioModel, SchedulingFault, Trace,
)
from sermt.wire import MsgType, make_frame

GBK = b"test-gbk"


def frame_of(sender_id, payload=b"x" * 10):
    return make_frame(MsgType.TEST, sender_id, payload, gbk=GBK)


class Swallower:
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
    a, b = network.node(5), network.node(6)
    fr = frame_of(5)
    outcome = channel.transmit(a, b, fr)
    assert outcome == "delivered"
    em = channel.energy
    assert a.debited_mah == pytest.approx(em.to_mah(em.energy_tx(fr.wire_bits, 100.0)))
    assert b.debited_mah == pytest.approx(em.to_mah(em.energy_rx(fr.wire_bits)))


def test_transmit_out_of_range_still_costs_sender():
    network, channel, _, _ = make_world([("N", (0, 0), 1), ("N", (1000, 0), 2)])
    a, b = network.node(5), network.node(6)
    fr = frame_of(5)
    assert channel.transmit(a, b, fr) == "dropped(range)"
    em = channel.energy
    # energy clamped at the sender's own range, not the real distance
    assert a.debited_mah == pytest.approx(em.to_mah(em.energy_tx(fr.wire_bits, channel.radio.range_n)))
    assert b.debited_mah == 0.0


def test_transmit_exact_boundary_is_in_range():
    network, channel, _, _ = make_world([("N", (0, 0), 1), ("N", (250, 0), 1)])
    assert channel.transmit(network.node(5), network.node(6), frame_of(5)) == "delivered"


def test_control_channel_ignores_range():
    network, channel, _, _ = make_world([("N", (0, 0), 1), ("N", (5000, 0), 2)])
    a, b = network.node(5), network.node(6)
    assert channel.transmit(a, b, frame_of(5), control=True) == "delivered"
    assert b.debited_mah > 0


def test_loss_probability_extremes():
    network, channel, _, _ = make_world(
        [("N", (0, 0), 1), ("N", (50, 0), 1)], radio=RadioModel(loss_probability=1.0))
    assert channel.transmit(network.node(5), network.node(6), frame_of(5)) == "dropped(loss)"
    network2, channel2, _, _ = make_world(
        [("N", (0, 0), 1), ("N", (50, 0), 1)], radio=RadioModel(loss_probability=0.0))
    for _ in range(20):
        assert channel2.transmit(network2.node(5), network2.node(6), frame_of(5)) == "delivered"


def test_dead_receiver_and_dead_sender():
    network, channel, _, _ = make_world([("N", (0, 0), 1), ("N", (50, 0), 1)])
    a, b = network.node(5), network.node(6)
    channel.apply_energy(b, -b.battery_mah)
    assert not b.alive and b.battery_mah == 0.0
    assert channel.transmit(a, b, frame_of(5)) == "dropped(dead_receiver)"
    spent_a, spent_b = a.debited_mah, b.debited_mah
    assert channel.transmit(b, a, frame_of(6)) == "dropped(dead_sender)"
    # no energy moves for a dead sender's attempt
    assert (a.debited_mah, b.debited_mah) == (spent_a, spent_b)


def test_n_node_dies_exactly_at_zero_and_stays_dead():
    network, channel, _, _ = make_world([("N", (0, 0), 1)])
    node = network.node(5)
    channel.apply_energy(node, -(node.battery_mah - 1e-9))
    assert node.alive
    channel.apply_energy(node, -1.0)   # over-debit clamps at zero
    assert node.battery_mah == 0.0 and not node.alive
    assert any("death" in line for line in channel.trace.lines)


def test_recharge_is_lazy_linear_and_capped():
    em = EnergyModel(recharge_rate=0.5, battery_capacity_es=151.0)
    network, channel, queue, _ = make_world([("ES", (0, 0), 1)], energy=em)
    node = network.node(5)
    queue.schedule(10.0, lambda: channel.debit(node, 10.8))   # 1 mAh at t=10
    queue.run_until(10.0)
    # 10 s * 0.5 mAh/s capped at capacity 151 first, then the debit
    assert node.battery_mah == pytest.approx(150.0)
    assert node.recharged_mah == pytest.approx(1.0)
    queue.run_until(500.0)
    channel.finalize(500.0)
    assert node.battery_mah == pytest.approx(151.0)


def test_n_nodes_do_not_recharge():
    network, channel, queue, _ = make_world([("N", (0, 0), 1)])
    node = network.node(5)
    queue.schedule(100.0, lambda: channel.debit(node, 10.8))
    queue.run_until(100.0)
    channel.finalize(100.0)
    assert node.recharged_mah == 0.0
    assert node.battery_mah == pytest.approx(149.0)


def test_mains_powered_nodes_never_drain():
    network, channel, _, _ = make_world([("N", (0, 0), 1)])
    gw = network.node(1)
    channel.debit(gw, 1e6)
    assert gw.battery_mah == 150.0 and gw.debited_mah == 0.0
    assert channel.ledger == {}


def test_energy_conservation_ledger():
    network, channel, queue, _ = make_world(
        [("N", (0, 0), 1), ("N", (50, 0), 1), ("ES", (100, 0), 1)])
    rng = random.Random(4)
    t = 0.0
    for _ in range(200):
        t += rng.random()
        src, dst = rng.sample([5, 6, 7], 2)
        queue.schedule(t, lambda s=src, d=dst: channel.transmit(
            network.node(s), network.node(d), frame_of(s)))
    queue.run_until(t)
    channel.finalize(t)
    assert len(channel.ledger) == 3       # one folded balance per charged node
    assert channel.conservation_errors() == []
    network.node(5).battery_mah += 1e-9   # corrupt: the check must notice
    assert channel.conservation_errors() == [5]


def test_broadcast_reaches_in_range_alive_nodes_once():
    network, channel, _, _ = make_world(
        [("N", (0, 0), 1), ("N", (100, 0), 1), ("N", (200, 0), 1), ("N", (900, 0), 2)])
    sender = network.node(5)
    network.node(7).alive = False
    got = channel.broadcast(sender, frame_of(5), kinds=("N",))
    assert got == [6]   # 7 dead, 8 out of range, gateways filtered by kind
    em = channel.energy
    fr = frame_of(5)
    assert sender.debited_mah == pytest.approx(
        em.to_mah(em.energy_tx(fr.wire_bits, channel.radio.range_n)))


def test_adversarial_swallow_costs_receiver_energy():
    network, channel, _, _ = make_world([("N", (0, 0), 1), ("N", (50, 0), 1)])
    a, b = network.node(5), network.node(6)
    b.behavior = Swallower()
    assert channel.transmit(a, b, frame_of(5)) == "dropped(adversarial)"
    assert b.debited_mah > 0
    assert channel.drop_counts.get("adversarial") == 1


def test_eavesdropper_observes_in_range_traffic():
    network, channel, _, _ = make_world(
        [("N", (0, 0), 1), ("N", (50, 0), 1), ("N", (100, 0), 1), ("N", (2000, 0), 2)])
    channel.eavesdroppers = [7, 8]
    channel.transmit(network.node(5), network.node(6), frame_of(5))
    observers = [o.observer_id for o in channel.observations]
    assert observers == [7, 6]   # spy 7 in range of sender; spy 8 too far
    assert network.node(7).debited_mah > 0
    assert network.node(8).debited_mah == 0.0


def test_hears_closed_ball_includes_dead():
    network, channel, _, _ = make_world(
        [("N", (0, 0), 1), ("N", (250, 0), 1), ("N", (251, 0), 1), ("N", (100, 0), 1)])
    network.node(8).alive = False
    me = network.node(5)
    # co-located GW 1 and SERVER 3 at 0 m; 250 m is on the ball, 251 m is not
    assert channel.hears(me) == {1: 0.0, 3: 0.0, 6: 250.0, 8: 100.0}
    # connectivity counts only the alive neighbours: 1, 3 and 6
    assert channel.connectivity_counts(me) == (3, 0)


def test_connectivity_counts_split_by_region():
    network, channel, _, _ = make_world(
        [("N", (0, 0), 1), ("N", (10, 0), 1), ("N", (20, 0), 2), ("N", (30, 0), 2)])
    same, adj = channel.connectivity_counts(network.node(5))
    # same region: GW 1, SERVER 3 (both at 0 m) and N 6; other region: 7, 8
    assert (same, adj) == (3, 2)


def test_hears_uses_each_nodes_own_range():
    network, channel, _, _ = make_world([("ES", (300, 300), 1), ("N", (300, 0), 1)])
    es, n = network.node(5), network.node(6)
    assert channel.hears(es)[6] == 300.0     # ES range 350 m
    assert 5 not in channel.hears(n)         # N range 250 m


def test_add_node_joins_built_neighbourhoods():
    network, channel, _, _ = make_world([("N", (1000, 0), 1)])
    me = network.node(5)
    assert channel.hears(me) == {}
    late = NodeState(id=9, kind="N", position=(1100.0, 0.0), region_id=1,
                     battery_mah=42.0)
    channel.add_node(late)
    assert channel.hears(me) == {9: 100.0}
    assert channel.hears(late) == {5: 100.0}
    assert network.node(9) is late and channel.initial_battery[9] == 42.0


def test_trace_digest_deterministic():
    def run():
        network, channel, queue, trace = make_world(
            [("N", (0, 0), 1), ("N", (60, 0), 1)],
            radio=RadioModel(loss_probability=0.3), seed=77)
        for i in range(50):
            queue.schedule(float(i), lambda: channel.transmit(
                network.node(5), network.node(6), frame_of(5)))
        queue.run_until(50.0)
        channel.finalize(50.0)
        return trace.digest()

    assert run() == run()
