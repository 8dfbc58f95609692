import itertools
import math
import random

import pytest

from sermt import routing
from sermt.routing import INFINITE, dijkstra, route_weight


def test_route_weight_direct_values():
    assert route_weight(100.0, 150.0, 100.0) == pytest.approx(100.0 / 15000.0, rel=1e-12)
    assert route_weight(1.0, 0.0, 100.0) == INFINITE
    assert route_weight(1.0, 150.0, 0.0) == INFINITE
    # halving battery doubles the weight
    assert route_weight(50.0, 75.0, 80.0) == pytest.approx(2 * route_weight(50.0, 150.0, 80.0))
    # a co-located hop (a PDC on its gateway) costs nothing
    assert route_weight(0.0, 10.0, 10.0) == 0.0
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError):
            route_weight(bad, 10.0, 10.0)


def all_simple_paths_min(adjacency, source, targets):
    """Exhaustive minimum over simple paths, same (cost, path) tie policy."""
    weight = {}
    for u, links in adjacency.items():
        for v, w in links:
            weight[(u, v)] = min(w, weight.get((u, v), INFINITE))
    best = None

    def walk(path, cost):
        nonlocal best
        node = path[-1]
        if node in targets:
            key = (cost, tuple(path))
            if best is None or key < best:
                best = key
            return
        for v, w in adjacency.get(node, ()):
            if v not in path and w != INFINITE:
                walk(path + [v], cost + w)

    walk([source], 0.0)
    return None if best is None else (best[0], list(best[1]))


def random_graph(rng, max_nodes=10):
    n = rng.randrange(2, max_nodes + 1)
    nodes = list(range(1, n + 1))
    adjacency = {u: [] for u in nodes}
    for u, v in itertools.combinations(nodes, 2):
        if rng.random() < 0.45:
            bp = rng.choice([0.0, rng.uniform(1, 150)])
            tv = rng.choice([0.0, rng.uniform(1, 100)])
            w = route_weight(rng.uniform(1, 500), bp, tv)
            adjacency[u].append((v, w))
            adjacency[v].append((u, w))
    return adjacency, nodes


def test_dijkstra_matches_brute_force_on_random_graphs():
    rng = random.Random(0xD17)
    for _ in range(120):
        adjacency, nodes = random_graph(rng)
        source = rng.choice(nodes)
        target = rng.choice(nodes)
        got = dijkstra(adjacency, source, {target})
        want = all_simple_paths_min(adjacency, source, {target})
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] == pytest.approx(want[0], rel=1e-12)
            assert got[1] == want[1]


def test_dijkstra_diamond_prefers_cheaper_branch():
    # 1 -> {2 upper, 3 lower} -> 4; lower branch cheaper
    adjacency = {
        1: [(2, 5.0), (3, 2.0)],
        2: [(4, 1.0)],
        3: [(4, 2.0)],
        4: [],
    }
    assert dijkstra(adjacency, 1, {4}) == (4.0, [1, 3, 4])


def test_dijkstra_equal_cost_takes_smaller_id_sequence():
    adjacency = {
        1: [(2, 1.0), (3, 1.0)],
        2: [(4, 1.0)],
        3: [(4, 1.0)],
        4: [],
    }
    assert dijkstra(adjacency, 1, {4}) == (2.0, [1, 2, 4])


def test_dijkstra_source_is_target_and_unreachable():
    assert dijkstra({1: []}, 1, {1}) == (0.0, [1])
    assert dijkstra({1: [], 2: []}, 1, {2}) is None
    # infinite-weight edges are unusable
    assert dijkstra({1: [(2, INFINITE)], 2: []}, 1, {2}) is None


def test_dijkstra_multiple_targets_takes_nearest():
    adjacency = {1: [(2, 1.0), (3, 5.0)], 2: [], 3: []}
    assert dijkstra(adjacency, 1, {2, 3}) == (1.0, [1, 2])


def test_build_adjacency_uses_hears_and_weights():
    class Stub:
        def __init__(self, nid):
            self.id = nid

    nodes = [Stub(1), Stub(2), Stub(3)]
    # 4 is heard by 1 but is not in the pool, so it gets no edge
    heard = {1: {2: 100.0, 4: 50.0}, 2: {1: 100.0, 3: 200.0}, 3: {}}
    adjacency = routing.build_adjacency(
        nodes, lambda u: heard[u.id], weight_of=lambda u, v, d: 2 * d)
    assert adjacency[1] == [(2, 200.0)]
    # asymmetric reach: 2 hears 3 at 200 m but not vice versa
    assert adjacency[2] == [(1, 200.0), (3, 400.0)]
    assert adjacency[3] == []
