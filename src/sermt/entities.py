"""Network entity state and the entity registry.

A NodeState is one ICT entity: sensor node (N), energy-harvesting relay
(ES), phasor data concentrator (PDC), measuring units (MU/PMU), substation
gateway (GW) or control-center server (SERVER).  The Network holds all of
them plus the layout indices the protocol needs: regions and their
adjacency, each substation's gateway, each region's concentrator and the
substations with PMUs.  What the protocol decides about a node (trust,
cluster, acting concentrator, session keys) is kept by the protocol engine
alone.

What a node does with the frames it carries and the figures it advertises
is its `Behavior`: honest by default, subverted by an attack (see the
adversary module).  The channel and the engine call its hooks directly.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .crypto import ChainAnchorState, KeyPair
from .grid import Deployment, GridTopology, Region, Substation, distance  # re-exported
from .wire import Frame

MAINS_POWERED = frozenset({"MU", "PMU", "GW", "SERVER"})   # never battery-limited
RECHARGEABLE = frozenset({"ES", "PDC"})                     # harvest energy


class Behavior:
    """The honest answer to each hook; an attack overrides what it subverts."""

    def accept_frame(self, receiver: NodeState, sender_id: int, frame: Frame) -> bool:
        """Keep (and pass on) a frame the radio delivered, or swallow it."""
        return True

    def advertised(self, node: NodeState, bp: float, c: int) -> tuple[float, int]:
        """The (battery, connectivity) a forwarder-selection ACK claims."""
        return bp, c

    def advertised_personas(self) -> tuple[tuple[int, tuple[float, float]], ...]:
        """Fake (identity, position) pairs announced next to the node's own ACK."""
        return ()

    def corrupt_payload(self, payload: bytes) -> bytes | None:
        """A relayed data payload's replacement, or None to carry it as is."""
        return None


HONEST = Behavior()


@dataclass
class NodeState:
    id: int
    kind: str
    position: tuple[float, float]
    region_id: int
    substation_id: int | None = None
    bus_id: int | None = None
    battery_mah: float = 150.0
    alive: bool = True
    has_gbk: bool = True        # foreign attacker hardware lacks it
    keypair: KeyPair | None = None
    server_pubkeys: dict[int, tuple] = field(default_factory=dict)
    chain_state: dict[int, ChainAnchorState] = field(default_factory=dict)
    behavior: Behavior = HONEST
    debited_mah: float = 0.0
    recharged_mah: float = 0.0


class Network:
    """Registry of entities plus layout lookups.

    `nodes` is kept in ID order, so iterating it needs no sort: the seeds
    go in sorted, and `add` admits only an ID above every one present."""

    def __init__(self, deployment: Deployment, substations: list[Substation],
                 regions: list[Region], topology: GridTopology,
                 initial_battery: float):
        self.nodes: dict[int, NodeState] = {}
        for seed in sorted(deployment.entities, key=lambda e: e.id):
            self.nodes[seed.id] = NodeState(
                id=seed.id, kind=seed.kind, position=seed.position,
                region_id=seed.region_id, substation_id=seed.substation_id,
                bus_id=seed.bus_id, battery_mah=initial_battery,
            )
        self.regions = {r.id: r for r in regions}
        self.main_cc = deployment.main_cc
        self.backup_cc = deployment.backup_cc
        self.gateway_of_substation = {
            n.substation_id: n.id for n in self.nodes.values() if n.kind == "GW"
        }
        # the static layout facts the engine asks for: entities added later
        # are N nodes only, so no index ever changes
        # every gateway in ID order; gateways are mains-powered and never die
        self.gateways = tuple(self.nodes[i] for i in sorted(self.gateway_of_substation.values()))
        self.pdc_of_region: dict[int, int] = {}     # region -> its lowest-ID PDC
        # (kind, substation) -> its MU or PMU units in ID order; metering
        # units are mains-powered and never die
        self.units: dict[tuple[str, int], list[NodeState]] = {}
        for n in self.nodes.values():
            if n.kind == "PDC":
                self.pdc_of_region.setdefault(n.region_id, n.id)
            elif n.kind in ("MU", "PMU"):
                self.units.setdefault((n.kind, n.substation_id), []).append(n)
        self.pmu_substations = tuple(sorted(
            {n.substation_id for n in self.nodes.values() if n.kind == "PMU"}))
        servers = [n for n in self.nodes.values() if n.kind == "SERVER"]
        self.main_server = next(s.id for s in servers if s.substation_id == self.main_cc)
        self.backup_server = next(s.id for s in servers if s.substation_id == self.backup_cc)
        self.adjacent_regions = self._region_adjacency(topology, substations)
        self._next_synthetic_id = max(self.nodes) + 1

    def _region_adjacency(self, topology: GridTopology,
                          substations: list[Substation]) -> dict[int, tuple[int, ...]]:
        region_of_sub = {sid: r.id for r in self.regions.values() for sid in r.substation_ids}
        region_of_bus = {bus: region_of_sub[s.id] for s in substations for bus in s.bus_ids}
        adjacency: dict[int, set[int]] = {rid: set() for rid in self.regions}
        for branch in topology.branches:
            ra, rb = region_of_bus[branch.from_bus], region_of_bus[branch.to_bus]
            if ra != rb:
                adjacency[ra].add(rb)
                adjacency[rb].add(ra)
        return {rid: tuple(sorted(peers)) for rid, peers in adjacency.items()}

    def members(self, kind: str | None = None, region: int | None = None) -> list[NodeState]:
        """The live entities, of `kind` and in `region` where given."""
        out = []
        for node in self.nodes.values():
            if kind is not None and node.kind != kind:
                continue
            if region is not None and node.region_id != region:
                continue
            if not node.alive:
                continue
            out.append(node)
        return out

    def allocate_id(self) -> int:
        """IDs for synthetic entities (e.g. Sybil personas), each above
        every ID in use or handed out before."""
        nid = self._next_synthetic_id
        self._next_synthetic_id += 1
        return nid

    def add(self, node: NodeState) -> None:
        """Admit an entity after deployment, keeping `nodes` in ID order."""
        if node.id <= next(reversed(self.nodes)):
            raise ValueError(f"node id {node.id} is not above every id in the network")
        self.nodes[node.id] = node
        self._next_synthetic_id = max(self._next_synthetic_id, node.id + 1)

    def cc_gateway(self, main: bool = True) -> NodeState:
        sub = self.main_cc if main else self.backup_cc
        return self.nodes[self.gateway_of_substation[sub]]

    def server(self, main: bool = True) -> NodeState:
        return self.nodes[self.main_server if main else self.backup_server]

    @staticmethod
    def nearest(position: tuple[float, float], among: Iterable[NodeState]) -> NodeState:
        """The node of `among` closest to `position`, the lower ID on a tie."""
        return min(among, key=lambda n: (distance(position, n.position), n.id))

    def region_trust_targets(self, region_id: int) -> list[NodeState]:
        """Entities a trust round evaluates: N, ES, PDC (substation gear is
        trusted by assumption), plus any acting PDC already covered by kind."""
        return [n for n in self.nodes.values()
                if n.region_id == region_id and n.kind in ("N", "ES", "PDC")]
