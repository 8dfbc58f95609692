"""Network entity state and the entity registry.

A NodeState is one ICT entity: sensor node (N), energy-harvesting relay
(ES), phasor data concentrator (PDC), measuring units (MU/PMU), substation
gateway (GW) or control-center server (SERVER).  The Network holds all of
them plus the layout indices (regions, substations, adjacency) the
protocol needs.  What the protocol decides about a node (trust, cluster,
acting concentrator, session keys) is kept by the protocol engine alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crypto import ChainAnchorState, KeyPair
from .grid import Deployment, GridTopology, Region, Substation, distance  # re-exported

KINDS = ("N", "ES", "PDC", "MU", "PMU", "GW", "SERVER")
MAINS_POWERED = frozenset({"MU", "PMU", "GW", "SERVER"})   # never battery-limited
RECHARGEABLE = frozenset({"ES", "PDC"})                     # harvest energy


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
    behavior: object | None = None        # adversarial override, see adversary module
    debited_mah: float = 0.0
    recharged_mah: float = 0.0

    @property
    def mains_powered(self) -> bool:
        return self.kind in MAINS_POWERED

    @property
    def rechargeable(self) -> bool:
        return self.kind in RECHARGEABLE


class Network:
    """Registry of entities plus layout lookups, all iteration ID-ordered."""

    def __init__(self, deployment: Deployment, substations: list[Substation],
                 regions: list[Region], topology: GridTopology,
                 initial_battery: float = 150.0):
        self.nodes: dict[int, NodeState] = {}
        for seed in deployment.entities:
            self.nodes[seed.id] = NodeState(
                id=seed.id, kind=seed.kind, position=seed.position,
                region_id=seed.region_id, substation_id=seed.substation_id,
                bus_id=seed.bus_id, battery_mah=initial_battery,
            )
        self.substations = {s.id: s for s in substations}
        self.regions = {r.id: r for r in regions}
        self.main_cc = deployment.main_cc
        self.backup_cc = deployment.backup_cc
        self.region_of_substation = {
            sid: r.id for r in regions for sid in r.substation_ids
        }
        self.gateway_of_substation = {
            n.substation_id: n.id for n in self.nodes.values() if n.kind == "GW"
        }
        servers = [n for n in self.nodes.values() if n.kind == "SERVER"]
        self.main_server = next(s.id for s in servers if s.substation_id == self.main_cc)
        self.backup_server = next(s.id for s in servers if s.substation_id == self.backup_cc)
        self.adjacent_regions = self._region_adjacency(topology, substations)
        self._next_synthetic_id = max(self.nodes) + 1

    def _region_adjacency(self, topology: GridTopology,
                          substations: list[Substation]) -> dict[int, tuple[int, ...]]:
        sub_of_bus = {bus: s.id for s in substations for bus in s.bus_ids}
        adjacency: dict[int, set[int]] = {rid: set() for rid in self.regions}
        for branch in topology.branches:
            ra = self.region_of_substation[sub_of_bus[branch.from_bus]]
            rb = self.region_of_substation[sub_of_bus[branch.to_bus]]
            if ra != rb:
                adjacency[ra].add(rb)
                adjacency[rb].add(ra)
        return {rid: tuple(sorted(peers)) for rid, peers in adjacency.items()}

    def node(self, node_id: int) -> NodeState:
        return self.nodes[node_id]

    def members(self, kind: str | None = None, region: int | None = None,
                alive_only: bool = True) -> list[NodeState]:
        out = []
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if kind is not None and node.kind != kind:
                continue
            if region is not None and node.region_id != region:
                continue
            if alive_only and not node.alive:
                continue
            out.append(node)
        return out

    def allocate_id(self) -> int:
        """IDs for synthetic entities (e.g. Sybil personas)."""
        nid = self._next_synthetic_id
        self._next_synthetic_id += 1
        return nid

    def cc_gateway(self, main: bool = True) -> NodeState:
        sub = self.main_cc if main else self.backup_cc
        return self.nodes[self.gateway_of_substation[sub]]

    def region_trust_targets(self, region_id: int) -> list[NodeState]:
        """Entities a trust round evaluates: N, ES, PDC (substation gear is
        trusted by assumption), plus any acting PDC already covered by kind."""
        return [
            n for n in self.members(region=region_id, alive_only=False)
            if n.kind in ("N", "ES", "PDC")
        ]
