"""Shared helpers: a minimal two-substation world for engine-level tests,
the plain reference paths (affine point addition, the hash-chain walk
among them) that stand in for the engine's exactness shortcuts, in unit
tests and in whole runs with each shortcut off, and the walk that finds
the process-wide memos and runs them cold."""

import heapq
import importlib
import pkgutil
import sys

import pytest

import sermt
from sermt import crypto, grid
from sermt.entities import Network
from sermt.grid import Deployment, EntitySeed
from sermt.rng import substream
from sermt.routing import INFINITE
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


def process_memos():
    """Every process-wide memo, by the dotted name of each module global of
    a `sermt` module bound to it: an object with `cache_info` and
    `__wrapped__` (an `lru_cache` wrapper) whose function `sermt` defines.
    Every module of the package is imported first, so a memo is found
    whether or not anything has loaded its module yet."""
    for info in pkgutil.iter_modules(sermt.__path__, "sermt."):
        importlib.import_module(info.name)
    return {f"{module_name}.{name}": value
            for module_name, module in sorted(sys.modules.items())
            if module_name.startswith("sermt.")
            for name, value in sorted(vars(module).items())
            if hasattr(value, "cache_info") and hasattr(value, "__wrapped__")
            and getattr(value, "__module__", "").startswith("sermt.")}


def cold_memos(monkeypatch, prefix="sermt"):
    """Rebind every binding of each memo defined under `prefix` to the
    function it wraps, so every call computes. Returns a check: the names
    of the memos whose `cache_info()` has moved since, which only a call
    through a binding the walk cannot rebind (an alias taken at import)
    can do."""
    memos = {name: memo for name, memo in process_memos().items()
             if f"{memo.__module__}.".startswith(f"{prefix}.")}
    before = {name: memo.cache_info() for name, memo in memos.items()}
    for name, memo in memos.items():
        monkeypatch.setattr(name, memo.__wrapped__)
    return lambda: [name for name, memo in memos.items() if memo.cache_info() != before[name]]


def point_add(p1, p2, curve):
    """p1 + p2 on `curve` in affine coordinates, None the point at infinity:
    the chord-and-tangent rule with one inversion per add."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    p = curve.p
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        s = (3 * x1 * x1 + curve.a) * pow(2 * y1, -1, p) % p
    else:
        s = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (s * s - x1 - x2) % p
    y3 = (s * (x1 - x3) - y1) % p
    return (x3, y3)


def affine_oracle(k, point, curve, fixed_base=False):
    """k * point, for k >= 0, by double-and-add over the affine
    `point_add` alone. It takes `crypto.scalar_mult`'s arguments, so it can
    stand in for it, but it reads no window table, whatever `fixed_base`
    says, and it does not reduce k modulo the curve order."""
    acc = None
    for bit in bin(k)[2:]:
        acc = point_add(acc, acc, curve)
        if bit == "1":
            acc = point_add(acc, point, curve)
    return acc


def verify_chain_key(candidate, anchor, max_steps):
    """Accept iff repeated hashing of candidate reaches anchor within
    max_steps: the plain walk `crypto.ChainAnchorState` must agree with.
    Returns (accepted, steps_used); candidate == anchor accepts in 0 steps."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    current = candidate
    for steps in range(max_steps + 1):
        if current == anchor:
            return True, steps
        current = crypto.sha1_digest(current)
    return False, 0


def reference_dijkstra(adjacency, source, targets):
    """Dijkstra over (cost, path) heap entries that pushes one entry per
    relaxed edge, however far it is from the best one queued for its node;
    returns its answer and its push count."""
    if source in targets:
        return (0.0, [source]), 0
    heap, settled, pushes = [(0.0, (source,))], set(), 0
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node in targets:
            return (cost, list(path)), pushes
        for neighbor, weight in adjacency.get(node, ()):
            if neighbor not in settled and weight != INFINITE:
                heapq.heappush(heap, (cost + weight, path + (neighbor,)))
                pushes += 1
    return None, pushes


def eager_adjacency(nodes, hears, weight_of):
    """The reference graph, built eagerly: every row at once, each pool
    neighbour listed once per time `nodes` names it."""
    adjacency = {}
    for u in nodes:
        heard = hears(u)
        adjacency[u.id] = sorted((v.id, weight_of(u, v, heard[v.id]))
                                 for v in nodes if v.id in heard)
    return adjacency


def brute_force_hears(network, radio):
    """Each node's neighbourhood on its own: every other entity, dead ones
    included, inside a closed ball at the node's own range, in ID order."""
    return {node.id: {other.id: grid.distance(node.position, other.position)
                      for other in sorted(network.nodes.values(), key=lambda n: n.id)
                      if other.id != node.id
                      and grid.distance(node.position, other.position)
                      <= radio.range_of(node.kind)}
            for node in network.nodes.values()}


def copying_relay(relay_chain):
    """`ProtocolEngine._relay_chain` that hands back each arrived frame with
    its payload copied: the same bytes in another object, so the engine
    opens every frame it relayed by the full RC5 or ECC path."""
    def relay(engine, *args, **kwargs):
        frame = relay_chain(engine, *args, **kwargs)
        return frame and frame._replace(payload=bytes(bytearray(frame.payload)))
    return relay
