"""Power-grid topology ingestion and network layout.

Reads a bus/branch document, groups transformer-connected buses into
substations, divides substations into monitoring regions, selects the
main and backup control centers by connectivity, places PMUs with a
greedy observability cover, and deploys the sensor population.

A grid file is found by one rule, `find_grid_file`, for a config's
`topology` key and for `sermt topo` alike: an absolute path as given, a
relative one under a base directory (the config's, or the working
directory), then under the shipped `DATA_DIR`. `load_grid_file` then
loads exactly the path it is given.

All tie-breaks resolve to the lower ID so layouts replay identically.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

from .rng import substream

DATA_DIR = Path(__file__).with_name("data")     # the shipped grid files and scenarios


class TopologyError(ValueError):
    """Malformed or inconsistent topology document."""


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    is_transformer: bool


@dataclass(frozen=True)
class GridTopology:
    positions: dict[int, tuple[float, float]]   # bus id -> coordinates (m)
    branches: tuple[Branch, ...]

    @property
    def bus_ids(self) -> list[int]:
        return sorted(self.positions)


@dataclass(frozen=True)
class Substation:
    id: int
    bus_ids: frozenset[int]
    position: tuple[float, float]
    connectivity: int   # inter-substation transmission lines incident on it


@dataclass(frozen=True)
class Region:
    id: int
    substation_ids: tuple[int, ...]
    seed_substation: int
    position: tuple[float, float]   # centroid of member substations


@dataclass(frozen=True)
class EntitySeed:
    kind: str   # N | ES | PDC | MU | PMU | GW | SERVER
    id: int
    position: tuple[float, float]
    region_id: int
    substation_id: int | None = None
    bus_id: int | None = None


@dataclass(frozen=True)
class Deployment:
    entities: tuple[EntitySeed, ...]
    main_cc: int
    backup_cc: int


# Bound on |x| and |y| of a bus: keeps every distance, box and area finite.
MAX_COORD_M = 1e9


def load_topology(text: str) -> GridTopology:
    """Parse a `BUS id x y` / `BRANCH from to T|L` document. Coordinates are
    in meters, finite, and at most MAX_COORD_M (1e9 m) in magnitude."""
    positions: dict[int, tuple[float, float]] = {}
    branches: list[Branch] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0].upper()
        if keyword == "BUS":
            if len(fields) != 4:
                raise TopologyError(f"line {lineno}: BUS needs <id> <x> <y>")
            try:
                bus_id, x, y = int(fields[1]), float(fields[2]), float(fields[3])
            except ValueError:
                raise TopologyError(f"line {lineno}: bad BUS fields {fields[1:]}") from None
            if not (abs(x) <= MAX_COORD_M and abs(y) <= MAX_COORD_M):   # NaN too
                raise TopologyError(f"line {lineno}: bus {bus_id} position is non-finite "
                                    f"or beyond {MAX_COORD_M:g} m")
            if bus_id in positions:
                raise TopologyError(f"line {lineno}: duplicate bus {bus_id}")
            positions[bus_id] = (x, y)
        elif keyword == "BRANCH":
            if len(fields) != 4 or fields[3].upper() not in ("T", "L"):
                raise TopologyError(f"line {lineno}: BRANCH needs <from> <to> <T|L>")
            try:
                a, b = int(fields[1]), int(fields[2])
            except ValueError:
                raise TopologyError(f"line {lineno}: bad BRANCH endpoints {fields[1:3]}") from None
            if a == b:
                raise TopologyError(f"line {lineno}: self-loop on bus {a}")
            branches.append(Branch(a, b, fields[3].upper() == "T"))
        else:
            raise TopologyError(f"line {lineno}: unknown keyword {fields[0]!r}")
    if not positions:
        raise TopologyError("document defines no buses")
    for branch in branches:
        for endpoint in (branch.from_bus, branch.to_bus):
            if endpoint not in positions:
                raise TopologyError(f"branch {branch.from_bus}-{branch.to_bus} references unknown bus {endpoint}")
    return GridTopology(positions, tuple(branches))


def find_grid_file(raw: str, base_dir: Path) -> Path:
    """The grid file `raw` names: an absolute path as given, a relative one
    under `base_dir` and then under `DATA_DIR`. A TopologyError names every
    place searched."""
    candidates = [Path(raw)] if Path(raw).is_absolute() else [base_dir / raw, DATA_DIR / raw]
    for candidate in candidates:
        if os.path.isfile(candidate):   # False, not OSError, for a name too long
            return candidate
    raise TopologyError(f"grid file {raw!r} not found "
                        f"(searched {', '.join(str(c) for c in candidates)})")


def load_grid_file(path: str | Path) -> GridTopology:
    """Load the topology file at `path`. Every failure, a file that is
    missing, cannot be read or is not UTF-8 included, is a TopologyError
    that names the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise TopologyError(f"no such grid file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise TopologyError(f"cannot read {path}: {exc}") from exc
    try:
        return load_topology(text)
    except TopologyError as exc:
        raise TopologyError(f"{path}: {exc}") from exc


def partition_substations(topology: GridTopology) -> list[Substation]:
    """Connected components of the transformer-only subgraph, IDs by min bus."""
    parent = {bus: bus for bus in topology.positions}

    def find(bus: int) -> int:
        while parent[bus] != bus:
            parent[bus] = parent[parent[bus]]
            bus = parent[bus]
        return bus

    for branch in topology.branches:
        if branch.is_transformer:
            ra, rb = find(branch.from_bus), find(branch.to_bus)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    groups: dict[int, set[int]] = {}
    for bus in topology.positions:
        groups.setdefault(find(bus), set()).add(bus)
    components = sorted(groups.values(), key=min)

    home = {bus: idx + 1 for idx, members in enumerate(components) for bus in members}
    connectivity = {idx + 1: 0 for idx in range(len(components))}
    for branch in topology.branches:
        if branch.is_transformer:
            continue
        sub_a, sub_b = home[branch.from_bus], home[branch.to_bus]
        if sub_a != sub_b:
            connectivity[sub_a] += 1
            connectivity[sub_b] += 1

    return [Substation(idx, frozenset(members),
                       centroid([topology.positions[bus] for bus in members]),
                       connectivity[idx])
            for idx, members in enumerate(components, start=1)]


def centroid(points: list[tuple[float, float]]) -> tuple[float, float]:
    """The mean point; each axis is summed in list order."""
    return (sum(p[0] for p in points) / len(points),
            sum(p[1] for p in points) / len(points))


def distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Euclidean distance.  `math.dist` takes the norm of the absolute
    coordinate differences, the same float as `math.hypot(a[0] - b[0],
    a[1] - b[1])`, so the argument order never changes it."""
    return math.dist(a, b)


def convex_hull_ids(items: list[tuple[int, tuple[float, float]]]) -> set[int]:
    """IDs of points on the convex hull (monotone chain, strict turns)."""
    if len(items) <= 2:
        return {item_id for item_id, _ in items}
    pts = sorted(((pos[0], pos[1], item_id) for item_id, pos in items))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(sequence):
        chain = []
        for pt in sequence:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], pt) <= 0:
                chain.pop()
            chain.append(pt)
        return chain

    hull = half(pts)[:-1] + half(reversed(pts))[:-1]
    if not hull:   # all points coincident or collinear: extremes only
        hull = [pts[0], pts[-1]]
    return {pt[2] for pt in hull}


def divide_regions(substations: list[Substation], radius_threshold: float) -> list[Region]:
    """Iterative seeding: first seed is the most-connected border substation,
    each seed absorbs unassigned substations within the radius, and the next
    seed is the unassigned substation closest to the previous one."""
    if radius_threshold <= 0:
        raise ValueError("radius_threshold must be positive")
    by_id = {sub.id: sub for sub in substations}
    unassigned = set(by_id)
    regions: list[Region] = []

    border = convex_hull_ids([(sub.id, sub.position) for sub in substations])
    seed_id = min(border, key=lambda sid: (-by_id[sid].connectivity, sid))

    while unassigned:
        seed = by_id[seed_id]
        members = sorted(
            sid for sid in unassigned
            if distance(by_id[sid].position, seed.position) <= radius_threshold
        )
        # the seed is always within radius 0 of itself
        unassigned.difference_update(members)
        regions.append(Region(
            id=len(regions) + 1,
            substation_ids=tuple(members),
            seed_substation=seed_id,
            position=centroid([by_id[sid].position for sid in members]),
        ))
        if unassigned:
            seed_id = min(
                unassigned,
                key=lambda sid: (distance(by_id[sid].position, seed.position), sid),
            )
    return regions


def select_control_centers(substations: list[Substation]) -> tuple[int, int]:
    """(main, backup) = the two highest-connectivity substations, lower ID first on ties."""
    if len(substations) < 2:
        raise TopologyError("control-center selection needs at least 2 substations")
    ranked = sorted(substations, key=lambda sub: (-sub.connectivity, sub.id))
    return ranked[0].id, ranked[1].id


def place_pmus(topology: GridTopology) -> set[int]:
    """Greedy dominating set: every bus hosts a PMU or neighbours one."""
    adjacency: dict[int, set[int]] = {bus: {bus} for bus in topology.positions}
    for branch in topology.branches:
        adjacency[branch.from_bus].add(branch.to_bus)
        adjacency[branch.to_bus].add(branch.from_bus)
    uncovered = set(topology.positions)
    chosen: set[int] = set()
    while uncovered:
        best = min(
            topology.positions,
            key=lambda bus: (-len(adjacency[bus] & uncovered), bus),
        )
        chosen.add(best)
        uncovered -= adjacency[best]
    return chosen


def _region_boxes(regions: list[Region], by_id: dict[int, Substation],
                  positions: dict[int, tuple[float, float]],
                  margin: float) -> dict[int, tuple[float, float, float, float]]:
    # span the member buses, not the substation centroids: a region whose
    # substations sit on one line would otherwise get a degenerate strip
    boxes = {}
    for region in regions:
        buses = [bus for sid in region.substation_ids for bus in by_id[sid].bus_ids]
        xs = [positions[bus][0] for bus in buses]
        ys = [positions[bus][1] for bus in buses]
        boxes[region.id] = (min(xs) - margin, min(ys) - margin, max(xs) + margin, max(ys) + margin)
    return boxes


def _split_proportionally(total: int, weights: list[float]) -> list[int]:
    # floor of the proportional share, remainders to the lowest indices
    scale = sum(weights)
    shares = [int(total * w / scale) for w in weights]
    for i in range(total - sum(shares)):
        shares[i % len(shares)] += 1
    return shares


def deploy_sensors(regions: list[Region], counts: dict[str, int], rng_seed: int, *,
                   substations: list[Substation], topology: GridTopology,
                   pmu_buses: set[int], main_cc: int, backup_cc: int) -> Deployment:
    """Scatter N/ES nodes region-wise and pin the fixed population.

    N and ES counts split across regions proportionally to region bounding
    box area; one PDC sits at each region centroid; every bus gets an MU,
    PMU buses get a PMU, every substation a gateway, and the two control
    centers a server each.  IDs are sequential in deployment order.
    """
    if counts.get("n_nodes", 0) < 0 or counts.get("es_nodes", 0) < 0:
        raise ValueError("node counts must be nonnegative")
    by_id = {sub.id: sub for sub in substations}
    sub_region = {sid: region.id for region in regions for sid in region.substation_ids}
    bus_sub = {bus: sub.id for sub in substations for bus in sub.bus_ids}

    all_x = [pos[0] for pos in topology.positions.values()]
    all_y = [pos[1] for pos in topology.positions.values()]
    margin = 0.10 * max(max(all_x) - min(all_x), max(all_y) - min(all_y), 1.0)
    boxes = _region_boxes(regions, by_id, topology.positions, margin)
    areas = [
        (boxes[r.id][2] - boxes[r.id][0]) * (boxes[r.id][3] - boxes[r.id][1])
        for r in regions
    ]

    entities: list[EntitySeed] = []
    next_id = 1

    def emit(kind: str, position, region_id, substation_id=None, bus_id=None):
        nonlocal next_id
        entities.append(EntitySeed(kind, next_id, position, region_id, substation_id, bus_id))
        next_id += 1

    for kind, count_key in (("N", "n_nodes"), ("ES", "es_nodes")):
        shares = _split_proportionally(counts.get(count_key, 0), areas)
        for region, share in zip(regions, shares):
            rng = substream(rng_seed, "deploy", kind, region.id)
            x0, y0, x1, y1 = boxes[region.id]
            for _ in range(share):
                emit(kind, (rng.uniform(x0, x1), rng.uniform(y0, y1)), region.id)

    for region in regions:
        emit("PDC", region.position, region.id)
    for bus in topology.bus_ids:
        sub = by_id[bus_sub[bus]]
        emit("MU", topology.positions[bus], sub_region[sub.id], sub.id, bus)
    for bus in sorted(pmu_buses):
        sub = by_id[bus_sub[bus]]
        emit("PMU", topology.positions[bus], sub_region[sub.id], sub.id, bus)
    for sub in substations:
        emit("GW", sub.position, sub_region[sub.id], sub.id)
    for cc in (main_cc, backup_cc):
        emit("SERVER", by_id[cc].position, sub_region[cc], cc)

    return Deployment(tuple(entities), main_cc, backup_cc)


def build_layout(topology: GridTopology, radius_threshold: float,
                 counts: dict[str, int], rng_seed: int):
    """One-call pipeline: substations, regions, CCs, PMUs, deployment."""
    substations = partition_substations(topology)
    regions = divide_regions(substations, radius_threshold)
    main_cc, backup_cc = select_control_centers(substations)
    pmu_buses = place_pmus(topology)
    deployment = deploy_sensors(
        regions, counts, rng_seed,
        substations=substations, topology=topology,
        pmu_buses=pmu_buses, main_cc=main_cc, backup_cc=backup_cc,
    )
    return substations, regions, deployment
