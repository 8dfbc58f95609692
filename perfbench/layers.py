"""Per-layer accounting recorded from outside the simulator.

Nothing here edits sermt's source: `Phases` and `Instrumentation` replace
module globals and class attributes with timing wrappers in the worker
process that runs one measured or traced world. Each span wrapper pushes a
span onto a stack; a span's self time is its duration minus that of its
child spans.

`Phases` costs a few clock reads per `run_scenario` and per `run_until`, so
it is installed on untraced runs too. `Instrumentation` wraps the hot
layers and is installed on traced runs only.
"""

from __future__ import annotations

import resource
import statistics
from time import perf_counter

# Handler names by the `__qualname__` of the action handed to
# `EventQueue.schedule`.
HANDLERS = {
    "ProtocolEngine._trust_round_event": "trust_round",
    "ProtocolEngine._triggered_round_event": "triggered_round",
    "ProtocolEngine._gw_probe_event": "gw_probe",
    "ProtocolEngine._mu_data_event": "mu_data",
    "ProtocolEngine._pmu_data_event": "pmu_data",
    "ProtocolEngine._reselect_event": "reselect",
    "FloodAttack._burst": "flood_burst",
    "ForgedAnchorAttack._forge": "forge_anchor",
}

# Spans reported as `<span>.calls` and `<span>.self_s`.
CALL_SPANS = (
    "channel.broadcast", "channel.transmit",
    "crypto.chain_accept", "crypto.scalar_mult", "crypto.ecc_encrypt",
    "crypto.ecc_decrypt", "crypto.rc5",
    "wire.make_frame", "wire.verify_frame",
    "routing.dijkstra", "routing.build_adjacency", "protocol.run_trust_round",
)

# Set-up and post-run spans, reported as `<span>_s`: inclusive time, because
# their children (key generation under install_keys, say) are their cost.
PHASE_SPANS = ("grid.layout", "protocol.install_keys", "adversary.apply_attacks",
               "adversary.confidentiality_scan", "metrics.collect")

DROP_REASONS = ("range", "adversarial", "loss", "dead_sender", "dead_receiver")

MICRO = ("chain_accept_reject_us", "verify_frame_us", "rc5_block_us",
         "scalar_mult_us", "dijkstra_us", "broadcast_us")

# Every per-layer metric, in report order, with its unit.
PER_LAYER: dict[str, str] = {
    **{f"{span}_s": "s" for span in PHASE_SPANS},
    "scenario.post_s": "s",
    "simcore.events": "count",
    "simcore.queue_peak": "count",
    **{f"handler.{h}.{k}": u for h in HANDLERS.values()
       for k, u in (("count", "count"), ("self_s", "s"))},
    **{f"{span}.{k}": u for span in CALL_SPANS
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "crypto.chain_accept.accept_ratio": "ratio",
    **{f"channel.drops.{reason}": "count" for reason in DROP_REASONS},
    "channel.observations": "count",
    "channel.ledger_entries": "count",
    "trace.lines": "count",
    "trace.log.self_s": "s",
    "sweep.points": "count",
    "sweep.point_s.median": "s",
    "sweep.point_s.max": "s",
    "sweep.rss_growth_mb": "MB",
    "trace_overhead_s": "s",
    **{f"micro.{name}": "us" for name in MICRO},
}


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phases:
    """Per `run_scenario` call: set-up (entry to the first `run_until`),
    post-run (`run_until` return to `run_scenario` return), total time and
    the process's peak RSS when the call returns.

    `between_runs` is called after each `run_scenario` call; the time it
    takes is summed in `between_s` so that callers can take it out of a
    sweep's wall time."""

    def __init__(self, between_runs=None):
        self.between_runs = between_runs
        self.between_s = 0.0
        self.setup_s: list[float] = []
        self.post_s: list[float] = []
        self.point_s: list[float] = []
        self.point_rss_mb: list[float] = []

    def install(self, scenario, simcore) -> None:
        run_scenario = scenario.run_scenario
        run_until = simcore.EventQueue.run_until
        marks: dict[str, float] = {}

        def timed_run_until(queue, t_end):
            marks.setdefault("loop_start", perf_counter())
            run_until(queue, t_end)
            marks["loop_end"] = perf_counter()

        def timed_run_scenario(config):
            marks.clear()
            start = perf_counter()
            result = run_scenario(config)
            end = perf_counter()
            self.setup_s.append(marks["loop_start"] - start)
            self.post_s.append(end - marks["loop_end"])
            self.point_s.append(end - start)
            self.point_rss_mb.append(peak_rss_mb())
            if self.between_runs is not None:
                self.between_runs()
                self.between_s += perf_counter() - end
            return result

        simcore.EventQueue.run_until = timed_run_until
        scenario.run_scenario = timed_run_scenario


class Spans:
    """Call count, inclusive time and self time per span name."""

    def __init__(self):
        self._stack: list[list[float]] = []    # child time of each open span
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}

    def wrap(self, name: str, fn):
        stack, calls, total_s, self_s = self._stack, self.calls, self.total_s, self.self_s

        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                calls[name] = calls.get(name, 0) + 1
                total_s[name] = total_s.get(name, 0.0) + took
                self_s[name] = self_s.get(name, 0.0) + took - children[0]
        return span


class Instrumentation:
    """Wraps each layer's entry points where its callers look them up.

    `protocol` and `adversary` bind crypto, wire and routing functions with
    `from ... import`, so those names are wrapped in each caller's namespace;
    calls inside `crypto` itself go through the `crypto` module globals.
    `sha1_digest` is left alone: it runs millions of times per world.
    """

    def __init__(self):
        self.spans = Spans()
        self.accepted = 0
        self.queue_peak = 0

    def install(self, sermt) -> None:
        crypto, protocol, adversary = sermt.crypto, sermt.protocol, sermt.adversary
        scenario, simcore = sermt.scenario, sermt.simcore
        wrap = self.spans.wrap

        def replace(owner, attr: str, name: str) -> None:
            setattr(owner, attr, wrap(name, getattr(owner, attr)))

        for owner, attr, name in (
                (scenario, "load_grid_file", "grid.layout"),
                (scenario, "build_layout", "grid.layout"),
                (protocol.ProtocolEngine, "install_keys", "protocol.install_keys"),
                (scenario, "apply_attacks", "adversary.apply_attacks"),
                (scenario, "confidentiality_scan", "adversary.confidentiality_scan"),
                (scenario, "collect_metrics", "metrics.collect"),
                (simcore.Channel, "broadcast", "channel.broadcast"),
                (simcore.Channel, "transmit", "channel.transmit"),
                (simcore.Trace, "log", "trace.log"),
                (crypto, "scalar_mult", "crypto.scalar_mult"),
                (crypto, "rc5_encrypt", "crypto.rc5"),
                (crypto, "rc5_decrypt", "crypto.rc5"),
                (protocol, "rc5_encrypt", "crypto.rc5"),
                (protocol, "rc5_decrypt", "crypto.rc5"),
                (adversary, "rc5_decrypt", "crypto.rc5"),
                (protocol, "ecc_encrypt", "crypto.ecc_encrypt"),
                (protocol, "ecc_decrypt", "crypto.ecc_decrypt"),
                (protocol, "make_frame", "wire.make_frame"),
                (adversary, "make_frame", "wire.make_frame"),
                (protocol, "verify_frame", "wire.verify_frame"),
                (protocol, "dijkstra", "routing.dijkstra"),
                (protocol, "build_adjacency", "routing.build_adjacency"),
                (protocol.ProtocolEngine, "run_trust_round", "protocol.run_trust_round")):
            replace(owner, attr, name)

        accept = crypto.ChainAnchorState.accept

        def counted_accept(state, candidate):
            ok = accept(state, candidate)
            self.accepted += ok
            return ok
        crypto.ChainAnchorState.accept = wrap("crypto.chain_accept", counted_accept)

        # The heap orders on (time, seq), never on the action, so handing it
        # a wrapped action leaves the event order unchanged.
        schedule = simcore.EventQueue.schedule

        def traced_schedule(queue, at_time, action, *args):
            name = HANDLERS.get(action.__qualname__, action.__qualname__)
            schedule(queue, at_time, wrap("handler." + name, action), *args)
            self.queue_peak = max(self.queue_peak, queue.pending)
        simcore.EventQueue.schedule = traced_schedule

    def report(self, results, phases: Phases, sweep: bool) -> dict[str, float]:
        """Every per-layer metric except `trace_overhead_s` and `micro.*`,
        summed over the world's runs (one, or one per sweep point)."""
        spans = self.spans
        out: dict[str, float] = {}
        for span in PHASE_SPANS:
            out[f"{span}_s"] = spans.total_s.get(span, 0.0)
        out["scenario.post_s"] = sum(phases.post_s)
        out["simcore.events"] = sum(n for name, n in spans.calls.items()
                                    if name.startswith("handler."))
        out["simcore.queue_peak"] = self.queue_peak
        for handler in HANDLERS.values():
            out[f"handler.{handler}.count"] = spans.calls.get(f"handler.{handler}", 0)
            out[f"handler.{handler}.self_s"] = spans.self_s.get(f"handler.{handler}", 0.0)
        for span in CALL_SPANS:
            out[f"{span}.calls"] = spans.calls.get(span, 0)
            out[f"{span}.self_s"] = spans.self_s.get(span, 0.0)
        accepts = spans.calls.get("crypto.chain_accept", 0)
        out["crypto.chain_accept.accept_ratio"] = self.accepted / accepts if accepts else 0.0
        for reason in DROP_REASONS:
            out[f"channel.drops.{reason}"] = sum(r.channel.drop_counts.get(reason, 0)
                                                 for r in results)
        out["channel.observations"] = sum(len(r.channel.observations) for r in results)
        out["channel.ledger_entries"] = sum(len(r.channel.ledger) for r in results)
        out["trace.lines"] = sum(len(r.trace.lines) for r in results)
        out["trace.log.self_s"] = spans.self_s.get("trace.log", 0.0)
        out["sweep.points"] = len(phases.point_s) if sweep else 0
        out["sweep.point_s.median"] = statistics.median(phases.point_s) if sweep else 0.0
        out["sweep.point_s.max"] = max(phases.point_s) if sweep else 0.0
        out["sweep.rss_growth_mb"] = (phases.point_rss_mb[-1] - phases.point_rss_mb[0]
                                      if sweep else 0.0)
        return out

    def top_self(self, count: int = 6) -> list[tuple[str, float]]:
        """The spans with the most self time, largest first."""
        return sorted(self.spans.self_s.items(), key=lambda kv: -kv[1])[:count]
