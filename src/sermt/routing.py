"""Trust- and energy-aware shortest-path routing.

Link weight is distance divided by the next hop's battery x trust product;
a hop with zero battery or zero trust is unusable (infinite weight), and a
usable co-located hop (0 m, a PDC on its gateway, say) costs nothing.
Equal-cost paths resolve to the lexicographically smaller node-ID
sequence so routes replay deterministically.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Mapping

INFINITE = math.inf

Adjacency = Mapping[int, list[tuple[int, float]]]   # node -> [(neighbor, weight)]


def route_weight(dist: float, bp: float, tv: float) -> float:
    if not dist >= 0:                   # NaN too
        raise ValueError("link distance must not be negative")
    denom = bp * tv
    if denom <= 0:
        return INFINITE
    return dist / denom


def dijkstra(adjacency: Adjacency, source: int, targets: set[int]) -> tuple[float, list[int]] | None:
    """Minimum-cost path from source to any target, or None if unreachable.

    Heap entries are (cost, path); comparing whole paths breaks cost ties
    toward the lexicographically smallest ID sequence. An entry is pushed
    only when it is below the least one queued for its node so far: a node
    settles at the least entry ever queued for it, and an entry not below
    that one would only be popped after it, stale.
    """
    if source in targets:
        return 0.0, [source]
    start = (0.0, (source,))
    heap: list[tuple[float, tuple[int, ...]]] = [start]
    queued = {source: start}          # node -> least entry queued for it
    settled: set[int] = set()
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node in targets:
            return cost, list(path)
        for neighbor, weight in adjacency.get(node, ()):
            if neighbor in settled or weight == INFINITE:
                continue
            entry = (cost + weight, path + (neighbor,))
            best = queued.get(neighbor)
            if best is None or entry < best:
                queued[neighbor] = entry
                heapq.heappush(heap, entry)
    return None


def build_adjacency(nodes, hears, weight_of) -> Adjacency:
    """Radio graph over `nodes`: an edge u->v exists when v is in hears(u),
    a map of heard ID -> distance; its weight comes from
    weight_of(u, v, distance).

    The graph is a read-only mapping over the pool's IDs whose rows are
    computed when first read, so `dijkstra` pays only for the nodes it
    settles; iterating it walks every row. A row is sorted, and lists each
    pool neighbour once, however often `nodes` names it."""
    return _LazyAdjacency(nodes, hears, weight_of)


class _LazyAdjacency(Mapping):
    """`build_adjacency`'s graph. Weights are read when a row is first
    read, so read every row you need before the weights can move."""

    def __init__(self, nodes, hears, weight_of):
        self._pool = {u.id: u for u in nodes}
        self._hears = hears
        self._weight_of = weight_of
        self._rows: dict[int, list[tuple[int, float]]] = {}

    def __getitem__(self, u_id: int) -> list[tuple[int, float]]:
        row = self._rows.get(u_id)
        return self._weigh(u_id) if row is None else row

    def get(self, u_id: int, default=None):
        # not Mapping's try/except: a KeyError raised by `hears` or
        # `weight_of` must not pass for a node outside the pool
        row = self._rows.get(u_id)
        if row is None:
            return self._weigh(u_id) if u_id in self._pool else default
        return row

    def _weigh(self, u_id: int) -> list[tuple[int, float]]:
        u, pool, weight_of = self._pool[u_id], self._pool, self._weight_of
        row = self._rows[u_id] = sorted(
            (v_id, weight_of(u, pool[v_id], dist))
            for v_id, dist in self._hears(u).items() if v_id in pool)
        return row

    def __contains__(self, u_id) -> bool:
        return u_id in self._pool

    def __iter__(self):
        return iter(self._pool)

    def __len__(self) -> int:
        return len(self._pool)
