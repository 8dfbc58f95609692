"""Shared helpers: a minimal two-substation world for engine-level tests."""

import pytest

from sermt import grid
from sermt.entities import Network
from sermt.grid import Deployment, EntitySeed
from sermt.rng import substream
from sermt.simcore import Channel, EnergyModel, EventQueue, RadioModel, Trace

TWO_SUB_DOC = "BUS 1 0 0\nBUS 2 600 0\nBRANCH 1 2 L"


def make_world(extra_nodes=(), radio=None, energy=None, seed=1, initial_battery=150.0):
    """Two substations 600 m apart (two regions), gateways and servers at the
    bus positions, plus caller-supplied (kind, position, region_id) nodes.
    It has a channel and no engine, so no protocol event is queued; worlds
    with an engine come from `scenario.build_world`."""
    topo = grid.load_topology(TWO_SUB_DOC)
    subs = grid.partition_substations(topo)
    regions = grid.divide_regions(subs, 200.0)
    seeds = [
        EntitySeed("GW", 1, (0.0, 0.0), 1, 1),
        EntitySeed("GW", 2, (600.0, 0.0), 2, 2),
        EntitySeed("SERVER", 3, (0.0, 0.0), 1, 1),
        EntitySeed("SERVER", 4, (600.0, 0.0), 2, 2),
    ]
    next_id = 5
    for kind, pos, region in extra_nodes:
        seeds.append(EntitySeed(kind, next_id, (float(pos[0]), float(pos[1])), region))
        next_id += 1
    deployment = Deployment(tuple(seeds), main_cc=1, backup_cc=2)
    network = Network(deployment, subs, regions, topo, initial_battery)
    radio = radio or RadioModel()
    energy = energy or EnergyModel()
    queue, trace = EventQueue(), Trace()
    channel = Channel(network, radio, energy, trace, queue, substream(seed, "loss"))
    return network, channel, queue, trace


@pytest.fixture
def two_sub_world():
    return make_world
