"""Scenario configuration and batch execution.

A scenario is a line-oriented `key = value` file with `[section]` headers
(stdlib configparser syntax): `[scenario]` holds the topology, node counts,
duration, mandatory seed, and the defense toggle; optional `[radio]`,
`[energy]`, and `[protocol]` sections override model constants; each
`[attack:<name>]` section declares one attack. `build_world` wires and
starts one world, `finish` scores a world that has run, and `run_scenario`
runs one between the two, deterministically; `sweep` runs a malicious-count
or attack-interval series with the defense both on and off.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import math
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path

from . import rng as rngmod
from .adversary import (AttackOutcomeLog, AttackSpec, apply_attacks,
                        confidentiality_scan)
from .entities import Network
from .grid import DATA_DIR, build_layout, find_grid_file, load_grid_file  # DATA_DIR re-exported
from .metrics import Metrics, SweepRow, collect_metrics
from .protocol import ProtocolConfig, ProtocolEngine
from .simcore import Channel, EnergyModel, EventQueue, RadioModel, Trace

MALICIOUS_COUNTS = (5, 10, 15, 20, 25, 30, 35)
ATTACK_INTERVALS = tuple(float(v) for v in range(1, 11))


class ConfigError(ValueError):
    """The scenario file is missing, malformed, or inconsistent."""


class SimulationFault(RuntimeError):
    """A run violated an internal invariant (e.g. the energy ledger)."""


@dataclass(frozen=True)
class ScenarioConfig:
    topology_path: Path
    radius_threshold: float
    n_nodes: int
    es_nodes: int
    duration: float
    seed: int
    defense: bool = True
    radio: RadioModel = field(default_factory=RadioModel)
    energy: EnergyModel = field(default_factory=EnergyModel)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    attacks: tuple[AttackSpec, ...] = ()

    def __post_init__(self):
        if not 0 < self.duration < math.inf:    # NaN and inf too
            raise ConfigError("duration must be positive and finite")
        if self.n_nodes < 0 or self.es_nodes < 0:
            raise ConfigError("node counts must be non-negative")
        if not self.radius_threshold > 0:       # NaN too
            raise ConfigError("radius_threshold must be positive")
        for attack in self.attacks:
            if attack.start_time > self.duration:
                raise ConfigError(f"[attack:{attack.name}] start_time {attack.start_time:g} "
                                  f"is after the run ends (duration {self.duration:g})")


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_defense(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered not in ("sermt", "baseline"):
        raise ValueError("must be 'sermt' or 'baseline'")
    return lowered == "sermt"


def _number_list(raw: str) -> list[str]:
    return [part for part in raw.replace(",", " ").split() if part]


def _parse_position(raw: str) -> tuple[float, float]:
    coords = [float(x) for x in _number_list(raw)]
    if len(coords) != 2:
        raise ValueError("position needs exactly two coordinates")
    return coords[0], coords[1]


# One table per section kind: config key -> parser of its raw text.
_SCENARIO_PARSERS = {"topology": str, "radius_threshold": float, "n_nodes": int,
                     "es_nodes": int, "duration": float, "seed": int,
                     "defense": _parse_defense}
_SCENARIO_REQUIRED = ("topology", "radius_threshold", "n_nodes", "es_nodes", "duration")

_ATTACK_PARSERS = {"kind": lambda raw: raw.strip().upper(),
                   "targets": lambda raw: tuple(int(x) for x in _number_list(raw)),
                   "count": int, "start_time": float, "attack_interval": float,
                   "flood_rate": int, "personas": int, "drop_fraction": float,
                   "corrupt_fraction": float, "foreign": _parse_bool,
                   "position": _parse_position}

_MODELS = {"radio": RadioModel, "energy": EnergyModel, "protocol": ProtocolConfig}


def _model_parsers(cls) -> dict:
    """A model section's table: each field parses like its default's type."""
    return {f.name: _parse_bool if isinstance(f.default, bool) else type(f.default)
            for f in dataclass_fields(cls)}


def _read_section(section, label: str, parsers: dict, required=()) -> dict:
    """Check the required keys, reject unknown ones, and cast each value."""
    for key in required:
        if key not in section:
            raise ConfigError(f"[{label}] missing required key {key!r}")
    values = {}
    for key, raw in section.items():
        if key not in parsers:
            raise ConfigError(f"[{label}] unknown key {key!r}")
        try:
            values[key] = parsers[key](raw)
        except ValueError as exc:
            raise ConfigError(f"[{label}] bad value for {key}: {exc}") from exc
    return values


def _build(make, label: str, **values):
    """`make(**values)`, with its ValueError reported as a ConfigError in
    `[label]`: AttackConfigError and TopologyError included."""
    try:
        return make(**values)
    except ValueError as exc:
        raise ConfigError(f"[{label}] {exc}") from exc


def load_config(path: Path | str, *, seed_override: int | None = None) -> ScenarioConfig:
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    if "scenario" not in parser:
        raise ConfigError(f"{path}: missing [scenario] section")
    values = _read_section(parser["scenario"], "scenario", _SCENARIO_PARSERS,
                           _SCENARIO_REQUIRED)
    if seed_override is not None:
        values["seed"] = seed_override
    elif "seed" not in values:
        raise ConfigError("[scenario] seed is required (runs must be reproducible)")
    values["topology_path"] = _build(find_grid_file, "scenario",
                                     raw=values.pop("topology"), base_dir=path.parent)

    attacks = []
    for name in parser.sections():
        if name.startswith("attack:"):
            spec = _read_section(parser[name], name, _ATTACK_PARSERS, required=("kind",))
            if "targets" in spec:
                spec["target_ids"] = spec.pop("targets")
            attacks.append(_build(AttackSpec, name, name=name[len("attack:"):], **spec))
        elif name in _MODELS:
            cls = _MODELS[name]
            values[name] = _build(cls, name, **_read_section(parser[name], name,
                                                             _model_parsers(cls)))
        elif name != "scenario":
            raise ConfigError(f"unknown section [{name}]")
    return ScenarioConfig(**values, attacks=tuple(attacks))


# -- execution --------------------------------------------------------------------

@dataclass
class World:
    """One wired world: the network, the channel that carries its queue and
    trace, the protocol engine, and the installed attacks' logs."""
    config: ScenarioConfig
    network: Network
    channel: Channel
    engine: ProtocolEngine
    attack_logs: list[AttackOutcomeLog]

    @property
    def trace(self) -> Trace:
        return self.channel.trace


@dataclass
class ScenarioResult(World):
    metrics: Metrics

    def trace_export(self) -> str:
        """Full run record: the event trace plus one summary row per attack,
        each line ended by "\\n"."""
        return "".join(self.export_parts())

    def export_parts(self):
        """`trace_export`'s text in parts: the trace's chunks, then one row
        per attack, so a writer need not hold the record whole."""
        yield from self.trace.chunks()
        for log in self.attack_logs:
            counters = " ".join(f"{key}={value}"
                                for key, value in sorted(log.counters().items()))
            targets = ",".join(str(t) for t in log.targets)
            yield (f"{self.metrics.duration:.6f} | attack | "
                   f"{log.name}:{log.kind} | targets:{targets} | {counters}\n")


LAYOUT_CACHE_SIZE = 4


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _cached_layout(path: Path, content_sha1: bytes, radius_threshold: float,
                   n_nodes: int, es_nodes: int, seed: int) -> tuple:
    """The layout of the grid file at `path`, whose bytes hash to
    `content_sha1`, under the four config values `build_layout` reads.  A
    miss calls `load_grid_file` and `build_layout` through this module's
    globals, so a wrapper installed on either sees every real build."""
    topology = load_grid_file(path)
    return (topology, *build_layout(topology, radius_threshold,
                                    {"n_nodes": n_nodes, "es_nodes": es_nodes}, seed))


def _layout(config: ScenarioConfig) -> tuple:
    """`config`'s layout, from `_cached_layout`.  The key holds the grid
    file's content, not just its path, so a file rewritten in place is
    laid out anew, and a file that can no longer be read fails as
    `load_grid_file` reports it, whatever the memo holds."""
    path = config.topology_path
    try:
        content_sha1 = hashlib.sha1(Path(path).read_bytes()).digest()
    except OSError:
        load_grid_file(path)    # raises the TopologyError that names the file
        raise
    return _cached_layout(path, content_sha1, config.radius_threshold, config.n_nodes,
                          config.es_nodes, config.seed)


def build_world(config: ScenarioConfig, *, layout: tuple | None = None) -> World:
    """Wire and start the world of `config`: keys installed, the first
    events and the attacks scheduled, and no event run (t = 0).

    `layout` is a hand-placed `(topology, substations, regions, deployment)`;
    by default it is built from `config.topology_path` and `config.seed`.
    That default is memoised per process (the last LAYOUT_CACHE_SIZE
    layouts, keyed by the grid file's content and the four values
    `build_layout` reads), so the points of a sweep, which share one grid
    and seed, lay it out once.  A world only reads its layout, so worlds
    can share one.  Raises ConfigError if a region has no PDC."""
    if layout is None:
        layout = _layout(config)
    topology, substations, regions, deployment = layout
    network = Network(deployment, substations, regions, topology,
                      initial_battery=config.energy.initial_battery)
    bare = sorted(network.regions.keys() - network.pdc_of_region.keys())
    if bare:    # only a hand-placed layout can lack one
        raise ConfigError("no PDC in region " + ", ".join(map(str, bare)))
    channel = Channel(network, config.radio, config.energy, Trace(), EventQueue(),
                      rngmod.substream(config.seed, "loss"))
    engine = ProtocolEngine(channel, config.protocol, config.seed, defense=config.defense)
    engine.start()
    attack_logs = apply_attacks(list(config.attacks), engine, config.seed)
    return World(config, network, channel, engine, attack_logs)


def finish(world: World) -> ScenarioResult:
    """Close a world at the time its queue was run to: settle and check the
    energy ledger, audit confidentiality, and collect the metrics over that
    span. `run_scenario` runs it to `config.duration`; a hand-placed world
    may stop anywhere.  The world is over, so its pending events are
    dropped: a result holds no cycle through them, and a dropped result
    frees its world by reference count alone."""
    channel = world.channel
    now = channel.queue.now
    channel.queue.clear()
    channel.finalize()
    errors = channel.conservation_errors()
    if errors:
        raise SimulationFault("energy ledger check failed: "
                              + "; ".join(map(str, errors[:3])))
    exposures = confidentiality_scan(world.engine, world.attack_logs)
    metrics = collect_metrics(world.engine, world.attack_logs, now, exposures)
    return ScenarioResult(**vars(world), metrics=metrics)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    world = build_world(config)
    world.channel.queue.run_until(config.duration)
    return finish(world)


def _sweep_attacks(vary: str, value: float) -> tuple[AttackSpec, ...]:
    if vary == "malicious":
        count = int(value)
        sinkholes = count // 5          # mostly droppers, a sinkhole per five
        drops = count - sinkholes
        specs = []
        if drops:
            specs.append(AttackSpec(kind="DROP", name="sweep-drop", count=drops))
        if sinkholes:
            specs.append(AttackSpec(kind="SINKHOLE", name="sweep-sinkhole",
                                    count=sinkholes))
        return tuple(specs)
    return (AttackSpec(kind="FLOOD", name="sweep-flood", count=3,
                       attack_interval=float(value)),)


def sweep(config: ScenarioConfig, vary: str) -> tuple[list[SweepRow], list[ScenarioResult]]:
    """One run per sweep point per defense toggle, in sweep order.

    The points share one seed and one layout, so their traces repeat whole
    sealed chunks.  Each result's trace is shared into one pool made for
    this call (`Trace.share`), so the results keep one copy of each chunk
    they share; the pool is dropped when the call returns, and the text
    lives only as long as the results that hold it."""
    if vary == "malicious":
        values: tuple = MALICIOUS_COUNTS
    elif vary == "interval":
        values = ATTACK_INTERVALS
    else:
        raise ConfigError(f"unknown sweep axis {vary!r} "
                          "(expected 'malicious' or 'interval')")
    rows: list[SweepRow] = []
    results: list[ScenarioResult] = []
    pool: dict[str, str] = {}
    for value in values:
        for defense in (True, False):
            run_config = replace(config, defense=defense,
                                 attacks=_sweep_attacks(vary, value))
            result = run_scenario(run_config)
            result.trace.share(pool)
            rows.append(SweepRow.from_metrics(float(value), result.metrics))
            results.append(result)
    return rows, results
