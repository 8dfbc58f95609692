"""Workload definitions, world seeds, recorded digests and output checks.

A workload is a panel of worlds. A world is one scenario seed applied to
`src/sermt/data/scaled_ieee14.conf`, varied with `dataclasses.replace`
(duration, attacks), and run through the public API: one `run_scenario`
call, or one `scenario.sweep` call for `sweep_interval`. World 0 of a panel
uses the benchmark seed itself; the others are drawn from it, so one
benchmark seed always gives the same panel. See NOTES.md for why each
workload exists and why a run measures a panel rather than one world.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

DEFAULT_SEED = 7
CONFIG = Path("src/sermt/data/scaled_ieee14.conf")


@dataclass(frozen=True)
class Workload:
    name: str
    duration: float                       # simulated seconds per run
    attack: tuple[str, float] | None      # (axis, value) for scenario._sweep_attacks
    sweep: bool = False                   # one scenario.sweep(config, "interval") per world
    runs: int = 1                         # run_scenario calls per world
    world_cost_s: float = 1.0             # nominal host seconds per world, checks included

    def panel_size(self, seconds: float) -> int:
        """Worlds per run: fixed by --seconds alone, so that two commits
        measure the same worlds however fast each one runs them."""
        return max(2, int(seconds / self.world_cost_s))


WORKLOADS = {w.name: w for w in (
    Workload("clean", duration=120.0, attack=None, world_cost_s=0.96),
    Workload("sinkhole35", duration=40.0, attack=("malicious", 35), world_cost_s=1.15),
    Workload("flood1", duration=100.0, attack=("interval", 1.0), world_cost_s=1.38),
    Workload("sweep_interval", duration=20.0, attack=None, sweep=True, runs=20,
             world_cost_s=6.25),
)}


def world_seeds(seed: int, count: int) -> list[int]:
    draw = random.Random(seed)
    return [seed] + [draw.randrange(1, 2 ** 31) for _ in range(count - 1)]


def world_config(scenario, root: Path, workload: Workload, world_seed: int):
    """The world's ScenarioConfig. For a sweep world this is the base the
    sweep varies; the sweep sets each point's attacks and defense itself."""
    base = scenario.load_config(root / CONFIG)
    attacks = () if workload.attack is None else scenario._sweep_attacks(*workload.attack)
    return replace(base, seed=world_seed, duration=workload.duration, attacks=attacks)


def first_run_config(scenario, config, workload: Workload):
    """The config of a world's first `run_scenario` call: the world itself,
    or the first sweep point (defense on, the 1 s flood interval)."""
    if not workload.sweep:
        return config
    return replace(config, defense=True,
                   attacks=scenario._sweep_attacks("interval", scenario.ATTACK_INTERVALS[0]))


def check_run(metrics_module, result) -> list[str]:
    """Problems with one run's output; an empty list means it passed.

    `replay_trace` recomputes delivery exactly and per-node charge within
    the tolerance the repository's own replay test uses (the trace prints
    joules with %.12g)."""
    problems = []
    live = result.metrics
    if live.forged_accepts != 0:
        problems.append(f"forged_accepts = {live.forged_accepts}")
    replayed = metrics_module.replay_trace(
        result.trace.lines,
        initial_battery=dict(result.channel.initial_battery),
        kinds={nid: node.kind for nid, node in result.network.nodes.items()},
        energy=result.config.energy,
        duration=result.config.duration)
    if replayed.packets_sent != live.packets_sent:
        problems.append(f"replay packets_sent {replayed.packets_sent} != {live.packets_sent}")
    if replayed.packets_delivered != live.packets_delivered:
        problems.append(f"replay packets_delivered {replayed.packets_delivered} "
                        f"!= {live.packets_delivered}")
    for row in live.node_ledger:
        if not math.isclose(replayed.consumed_mah[row.node_id], row.consumed_mah,
                            rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"replay consumed_mah of node {row.node_id} "
                            f"{replayed.consumed_mah[row.node_id]!r} != {row.consumed_mah!r}")
            break
    return problems


# Trace digests of world 0 at the default seed, one per run_scenario call,
# recorded at the commit that introduced the benchmark.
RECORDED_DIGESTS: dict[str, list[str]] = {
    "clean": ["99c9c035501ed1d7de377ba695289abb24045cb6"],
    "sinkhole35": ["2f409c3a4c22faa44b03346b6236f90caeac8baa"],
    "flood1": ["5bd684a6e11b2ea518e575e6e6db90ada6a1fcdf"],
    "sweep_interval": [
        "76a687d0c6139f5bcb7a64318b704283e980e3bf",
        "cbee053ea32ef4696e6232048cc312ab0109c70e",
        "804a4593a51f9677c7af727529f1b56f4c729cf2",
        "12d015ba9f2184be609ab165f6ea070ab8d7913b",
        "f7f8c0990ab862c55495b3fae9b31828bf90b2c6",
        "b2859f4d37e2f8b4dc501a88b7454ac07a81e1d9",
        "c6faedcf58852782da15f9714202e3c7a21c4472",
        "7496f069b8bff5f5efd9b3f9051a028d41c54c1b",
        "76f046b82560b8d8e4356914ed6911f70031f230",
        "024113490f498d3e467df0fde837e660b7b6cd37",
        "24ae8f63972261756015ccc26fd09f5951d80dd7",
        "5a2574ec0006f2bac2c5662da89ca5cfd8a57698",
        "ec2b516a2da4210e6d9cc24cfd085de6101a2491",
        "cd74ecf53ed07a757946c19e6843a7a750051c43",
        "928ff4da8f7b8e949b4b28a7a0277bb71f715270",
        "9bdfa5a0888a60d3ca832e53b7323254458a1155",
        "f395f207225ed4ee5720da7db6d7632c3065890f",
        "cc9bebeb0e697df8df0e33f7b34fd0fde62f5465",
        "9a9de5909b53487b599f8fa93ff633005f3108f1",
        "633e446608e18fb2874486c05edeb0f31be03700",
    ],
}
