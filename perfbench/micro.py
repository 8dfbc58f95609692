"""Primitive micro-timings, in microseconds per call.

Each is the median of a few batches sized to about 40 ms, timed with no
wrappers installed. The routing and channel timings use state taken from
a short world: a `sinkhole35` adjacency for `dijkstra` and the `flood1`
network, with one of its flooders as sender, for `broadcast`.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import replace
from time import perf_counter

BATCH_S = 0.04
BATCHES = 5


def per_call_us(call) -> float:
    n = 1
    while True:
        start = perf_counter()
        for _ in range(n):
            call()
        if perf_counter() - start >= BATCH_S / 4:
            break
        n *= 2
    n *= 4
    samples = []
    for _ in range(BATCHES):
        start = perf_counter()
        for _ in range(n):
            call()
        samples.append((perf_counter() - start) / n * 1e6)
    return statistics.median(samples)


def largest_route_query(sermt, config):
    """(adjacency, source, targets, answer) of the `dijkstra` call with the
    most edges in one run of `config`."""
    protocol = sermt.protocol
    dijkstra = protocol.dijkstra
    best: list = [None, -1]

    def capture(adjacency, source, targets):
        answer = dijkstra(adjacency, source, targets)
        edges = sum(len(links) for links in adjacency.values())
        if edges > best[1]:
            best[:] = [(adjacency, source, set(targets), answer), edges]
        return answer

    protocol.dijkstra = capture
    try:
        sermt.scenario.run_scenario(config)
    finally:
        protocol.dijkstra = dijkstra
    return best[0]


def run(sermt, root, world_seed: int) -> tuple[dict[str, float], list[str]]:
    """Returns the timings and a list of problems (empty when all passed)."""
    from workloads import WORKLOADS, world_config

    crypto, wire, routing, scenario = sermt.crypto, sermt.wire, sermt.routing, sermt.scenario
    draw = random.Random(world_seed)
    problems: list[str] = []
    out: dict[str, float] = {}

    state = crypto.ChainAnchorState(crypto.HashChain(draw.randbytes(20), 1024).anchor)
    forged = draw.randbytes(20)
    if state.accept(forged):
        problems.append("micro: forged chain key accepted")
    out["chain_accept_reject_us"] = per_call_us(lambda: state.accept(forged))

    gbk = draw.randbytes(16)
    frame = wire.make_frame(wire.MsgType.ANCHOR_BCAST, 1, draw.randbytes(20), gbk=gbk,
                            chain_key=draw.randbytes(20))
    if not wire.verify_frame(frame, gbk=gbk):
        problems.append("micro: genuine frame failed verification")
    out["verify_frame_us"] = per_call_us(lambda: wire.verify_frame(frame, gbk=gbk))

    schedule = crypto.rc5_key_schedule(draw.randbytes(16))
    block = draw.randbytes(8)
    if crypto.rc5_decrypt_block(schedule, crypto.rc5_encrypt_block(schedule, block)) != block:
        problems.append("micro: rc5 block round trip failed")
    out["rc5_block_us"] = per_call_us(lambda: crypto.rc5_encrypt_block(schedule, block))

    curve = crypto.SIM_CURVE
    k = draw.randrange(1, curve.n)
    if not curve.contains(crypto.scalar_mult(k, curve.g, curve)):
        problems.append("micro: scalar_mult left the curve")
    out["scalar_mult_us"] = per_call_us(lambda: crypto.scalar_mult(k, curve.g, curve))

    sinkhole = world_config(scenario, root, WORKLOADS["sinkhole35"], world_seed)
    adjacency, source, targets, answer = largest_route_query(
        sermt, replace(sinkhole, duration=30.0))
    if routing.dijkstra(adjacency, source, targets) != answer:
        problems.append("micro: dijkstra answer changed on replay")
    out["dijkstra_us"] = per_call_us(lambda: routing.dijkstra(adjacency, source, targets))

    flood = scenario.run_scenario(replace(
        world_config(scenario, root, WORKLOADS["flood1"], world_seed), duration=2.0))
    flooder = flood.network.nodes[flood.attack_logs[0].targets[0]]
    bogus = wire.make_frame(wire.MsgType.BLOCKED_LIST, flood.network.cc_gateway(main=True).id,
                            b"\x00" * 6, gbk=flood.engine.gbk)
    out["broadcast_us"] = per_call_us(lambda: flood.channel.broadcast(flooder, bogus))
    if not flooder.alive:
        problems.append("micro: flooder died during the broadcast timing")
    return out, problems
