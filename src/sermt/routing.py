"""Trust- and energy-aware shortest-path routing.

Link weight is distance divided by the next hop's battery x trust product;
a hop with zero battery or zero trust is unusable (infinite weight).
Equal-cost paths resolve to the lexicographically smaller node-ID
sequence so routes replay deterministically.
"""

from __future__ import annotations

import heapq
import math

INFINITE = math.inf

Adjacency = dict[int, list[tuple[int, float]]]   # node -> [(neighbor, weight)]


def route_weight(dist: float, bp: float, tv: float) -> float:
    if dist <= 0:
        raise ValueError("link distance must be positive")
    denom = bp * tv
    if denom <= 0:
        return INFINITE
    return dist / denom


def dijkstra(adjacency: Adjacency, source: int, targets: set[int]) -> tuple[float, list[int]] | None:
    """Minimum-cost path from source to any target, or None if unreachable.

    Heap entries are (cost, path); comparing whole paths breaks cost ties
    toward the lexicographically smallest ID sequence.
    """
    if source in targets:
        return 0.0, [source]
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (source,))]
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
            if neighbor not in settled and weight != INFINITE:
                heapq.heappush(heap, (cost + weight, path + (neighbor,)))
    return None


def build_adjacency(nodes, hears, weight_of) -> Adjacency:
    """Radio graph over `nodes`: an edge u->v exists when v is in hears(u),
    a map of heard ID -> distance; its weight comes from
    weight_of(u, v, distance)."""
    adjacency: Adjacency = {}
    for u in nodes:
        heard = hears(u)
        adjacency[u.id] = sorted((v.id, weight_of(u, v, heard[v.id]))
                                 for v in nodes if v.id in heard)
    return adjacency
