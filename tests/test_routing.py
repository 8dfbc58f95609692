import heapq
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import eager_adjacency, reference_dijkstra
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


@st.composite
def weighted_graphs(draw):
    """Directed graphs over IDs 1..n whose few weights make equal-cost paths
    common; 0.0 is a co-located hop, and an edge may be listed twice."""
    n = draw(st.integers(1, 9))
    ids = list(range(1, n + 1))
    weight = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, INFINITE])
    edge = st.tuples(st.sampled_from(ids), weight)
    return {u: draw(st.lists(edge, max_size=n + 1)) for u in ids}, ids


@settings(max_examples=300, deadline=None)
@given(graph=weighted_graphs(), data=st.data())
def test_dijkstra_matches_the_push_every_edge_reference(graph, data):
    """Skipping a push that is not below its node's best queued entry
    changes no answer, cost float and path tie-break included, and never
    pushes more."""
    adjacency, ids = graph
    source = data.draw(st.sampled_from(ids), label="source")
    targets = data.draw(st.sets(st.sampled_from(ids), min_size=1), label="targets")
    pushes = []

    class CountingHeapq:
        heappop = staticmethod(heapq.heappop)

        @staticmethod
        def heappush(heap, entry):
            pushes.append(entry)
            heapq.heappush(heap, entry)

    want, reference_pushes = reference_dijkstra(adjacency, source, targets)
    routing.heapq = CountingHeapq
    try:
        got = dijkstra(adjacency, source, targets)
    finally:
        routing.heapq = heapq
    assert got == want
    assert got is None or got[0].hex() == want[0].hex()
    assert len(pushes) <= reference_pushes


class Node:
    def __init__(self, nid):
        self.id = nid


def test_build_adjacency_uses_hears_and_weights():
    nodes = [Node(1), Node(2), Node(3)]
    # 4 is heard by 1 but is not in the pool, so it gets no edge
    heard = {1: {2: 100.0, 4: 50.0}, 2: {1: 100.0, 3: 200.0}, 3: {}}
    weighed = []

    def weight_of(u, v, d):
        weighed.append((u.id, v.id))
        return 2 * d
    adjacency = routing.build_adjacency(nodes, lambda u: heard[u.id], weight_of)
    assert weighed == []                     # no row is weighed before it is read
    # asymmetric reach: 2 hears 3 at 200 m but not vice versa
    assert adjacency[2] == [(1, 200.0), (3, 400.0)]
    assert weighed == [(2, 1), (2, 3)]       # only the row read
    assert adjacency[1] == [(2, 200.0)]
    assert adjacency[3] == []
    assert dict(adjacency) == {1: [(2, 200.0)], 2: [(1, 200.0), (3, 400.0)], 3: []}
    assert len(weighed) == 3                 # a row read again is not weighed again


@st.composite
def radio_graphs(draw):
    """(pool, hears map, weight per heard link) over IDs 1..n: the pool names
    one node twice, some heard nodes are outside it, and each node hears
    its own set, so reach is often one-way."""
    n = draw(st.integers(2, 9))
    ids = list(range(1, n + 1))
    pool_ids = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=n, unique=True))
    pool_ids.insert(draw(st.integers(0, len(pool_ids))), draw(st.sampled_from(pool_ids)))
    distances = st.sampled_from([0.0, 1.0, 2.0, 2.5, 7.0])
    heard = {u: {v: draw(distances) for v in ids if v != u and draw(st.booleans())}
             for u in ids}
    weights = {(u, v): draw(st.sampled_from([d, 2 * d, INFINITE]))
               for u, row in heard.items() for v, d in row.items()}
    nodes = {nid: Node(nid) for nid in ids}
    return [nodes[nid] for nid in pool_ids], heard, weights, ids


@settings(max_examples=300, deadline=None)
@given(graph=radio_graphs(), data=st.data())
def test_lazy_rows_equal_the_eager_graph_and_weigh_only_rows_read(graph, data):
    pool, heard, weights, ids = graph
    pool_ids = list(dict.fromkeys(u.id for u in pool))
    weighed = []

    def weight_of(u, v, d):
        assert d == heard[u.id][v.id]
        weighed.append(u.id)
        return weights[(u.id, v.id)]

    def hears(u):
        return heard[u.id]

    eager = eager_adjacency(pool, hears, lambda u, v, d: weights[(u.id, v.id)])
    lazy = routing.build_adjacency(pool, hears, weight_of)
    read = data.draw(st.lists(st.sampled_from(ids), max_size=2 * len(ids)), label="read")
    for nid in read:
        if nid in pool_ids:
            assert lazy[nid] == list(dict.fromkeys(eager[nid]))
            assert lazy.get(nid) is lazy[nid]
        else:
            assert nid not in lazy and lazy.get(nid) is None
            with pytest.raises(KeyError):
                lazy[nid]
    assert set(weighed) <= set(read)
    assert len(weighed) == sum(len(lazy[u]) for u in set(read) & set(pool_ids))
    assert list(lazy) == pool_ids == list(eager) and len(lazy) == len(eager)
    assert dict(lazy) == {u: list(dict.fromkeys(row)) for u, row in eager.items()}

    source, target = data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))
    fresh = routing.build_adjacency(pool, hears, lambda u, v, d: weights[(u.id, v.id)])
    assert dijkstra(fresh, source, {target}) == dijkstra(eager, source, {target})
