import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from sermt import grid
from sermt.grid import TopologyError

# Minimal 14-bus document: the 20 standard branches (17 lines, 3 transformer
# couplings), positions on a simple grid.  Multiplicity-free on purpose; the
# shipped data file adds parallel circuits.
FIXTURE_14 = "\n".join(
    [f"BUS {i} {100 * (i % 5)} {100 * (i // 5)}" for i in range(1, 15)]
    + [
        "BRANCH 4 7 T", "BRANCH 4 9 T", "BRANCH 5 6 T",
        "BRANCH 1 2 L", "BRANCH 1 5 L", "BRANCH 2 3 L", "BRANCH 2 4 L",
        "BRANCH 2 5 L", "BRANCH 3 4 L", "BRANCH 4 5 L", "BRANCH 6 11 L",
        "BRANCH 6 12 L", "BRANCH 6 13 L", "BRANCH 7 8 L", "BRANCH 7 9 L",
        "BRANCH 9 10 L", "BRANCH 9 14 L", "BRANCH 10 11 L", "BRANCH 12 13 L",
        "BRANCH 13 14 L",
    ]
)


def random_topology(rng, max_buses=12):
    n = rng.randrange(2, max_buses + 1)
    buses = list(range(1, n + 1))
    lines = [
        f"BUS {b} {rng.uniform(0, 1000):.1f} {rng.uniform(0, 1000):.1f}"
        for b in buses
    ]
    for _ in range(rng.randrange(1, 2 * n)):
        a, b = rng.sample(buses, 2)
        kind = "T" if rng.random() < 0.3 else "L"
        lines.append(f"BRANCH {a} {b} {kind}")
    return grid.load_topology("\n".join(lines))


def test_load_fixture():
    topo = grid.load_topology(FIXTURE_14)
    assert len(topo.positions) == 14
    assert len(topo.branches) == 20
    assert sum(br.is_transformer for br in topo.branches) == 3


def test_load_accepts_comments_and_blanks():
    topo = grid.load_topology("# header\n\nBUS 1 0 0  # inline\nBUS 2 5 5\nBRANCH 1 2 L\n")
    assert topo.bus_ids == [1, 2]


@pytest.mark.parametrize("doc,fragment", [
    ("BUS 1 0", "line 1"),
    ("BUS 1 0 0\nBUS 1 3 3", "duplicate bus 1"),
    ("BUS 1 0 0\nBRANCH 1 99 L", "bus 99"),
    ("BUS 1 0 0\nBRANCH 1 1 L", "self-loop"),
    ("BUS 1 0 0\nBRANCH 1 2 X", "BRANCH"),
    ("WIRE 1 2", "unknown keyword"),
    ("", "no buses"),
    ("BUS 1 nan 0", "non-finite"),
    # finite, but distances and box areas past it overflow the layout
    ("BUS 1 0 0\nBUS 2 1e308 -1e308", "beyond"),
    ("BUS 1 -1.0000001e9 0", "beyond"),
])
def test_load_rejects_malformed(doc, fragment):
    with pytest.raises(TopologyError, match=fragment.replace("(", "").replace(")", "")):
        grid.load_topology(doc)


_coords = (st.sampled_from(["0", "-0", "1e9", "-1e9", "1.0000001e9", "1e308", "-1e308",
                            "1e-320", "5e-324", "nan", "-inf", "0x1p3", "1_0", "x"])
           | st.floats().map(repr) | st.integers(-10**12, 10**12).map(str))
_bus_maps = st.dictionaries(st.integers(1, 12), st.tuples(_coords, _coords),
                            min_size=1, max_size=8)
_branches = st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13),
                               st.sampled_from("TLtlX")), max_size=12)


@settings(max_examples=200, deadline=None)
@given(_bus_maps, _branches, st.lists(st.text(max_size=10), max_size=2),
       st.floats(1.0, 1e7), st.integers(0, 20))
def test_random_documents_raise_only_topology_error(buses, branches, junk, radius, nodes):
    doc = "\n".join([f"BUS {bus} {x} {y}" for bus, (x, y) in buses.items()]
                    + [f"BRANCH {a} {b} {kind}" for a, b, kind in branches] + junk)
    try:
        topology = grid.load_topology(doc)
        grid.build_layout(topology, radius, {"n_nodes": nodes, "es_nodes": nodes // 2}, 1)
    except TopologyError:
        pass


def test_grid_file_errors_name_the_file(tmp_path):
    latin1 = tmp_path / "latin1.grid"
    latin1.write_bytes(b"BUS 1 0 0\nBUS 2 5 5  # caf\xe9\n")
    bad = tmp_path / "bad.grid"
    bad.write_text("BUS 1 0 0\nBUS 1 1 1\n", encoding="utf-8")
    for path, fragment in ((latin1, "cannot read"), (tmp_path, "cannot read"),
                           (tmp_path / ("x" * 5000), "cannot read"),   # name too long
                           (bad, "duplicate bus 1")):
        with pytest.raises(TopologyError, match=fragment) as info:
            grid.load_grid_file(path)
        assert str(path) in str(info.value)


def test_partition_fixture_gives_11_substations():
    subs = grid.partition_substations(grid.load_topology(FIXTURE_14))
    assert len(subs) == 11
    members = {frozenset(s.bus_ids) for s in subs}
    assert frozenset({4, 7, 9}) in members
    assert frozenset({5, 6}) in members
    # IDs ascend with the minimum member bus
    assert [s.id for s in subs] == list(range(1, 12))
    mins = [min(s.bus_ids) for s in subs]
    assert mins == sorted(mins)


def test_partition_without_transformers_is_identity():
    topo = grid.load_topology("BUS 1 0 0\nBUS 2 1 1\nBUS 3 2 2\nBRANCH 1 2 L\nBRANCH 2 3 L")
    subs = grid.partition_substations(topo)
    assert [set(s.bus_ids) for s in subs] == [{1}, {2}, {3}]


def test_partition_merges_transformer_chains():
    topo = grid.load_topology("BUS 1 0 0\nBUS 2 1 0\nBUS 3 2 0\nBRANCH 1 2 T\nBRANCH 2 3 T")
    subs = grid.partition_substations(topo)
    assert len(subs) == 1 and set(subs[0].bus_ids) == {1, 2, 3}


def test_connectivity_counts_multiplicity_not_internal_lines():
    topo = grid.load_topology(
        "BUS 1 0 0\nBUS 2 10 0\nBUS 3 20 0\n"
        "BRANCH 1 2 T\nBRANCH 1 2 L\nBRANCH 1 3 L\nBRANCH 1 3 L\nBRANCH 2 3 L"
    )
    subs = {frozenset(s.bus_ids): s for s in grid.partition_substations(topo)}
    # {1,2}: the 1-2 line is internal; two 1-3 circuits plus 2-3 count
    assert subs[frozenset({1, 2})].connectivity == 3
    assert subs[frozenset({3})].connectivity == 3


def test_merge_count_identity_random():
    rng = random.Random(1701)
    for _ in range(100):
        topo = random_topology(rng)
        subs = grid.partition_substations(topo)
        merged = sum(len(s.bus_ids) - 1 for s in subs)
        assert len(topo.positions) - len(subs) == merged
        seen = sorted(b for s in subs for b in s.bus_ids)
        assert seen == topo.bus_ids  # exact partition


def test_select_control_centers_ranking_and_ties():
    topo = grid.load_topology(FIXTURE_14)
    subs = grid.partition_substations(topo)
    main, backup = grid.select_control_centers(subs)
    ranked = sorted(subs, key=lambda s: (-s.connectivity, s.id))
    assert (main, backup) == (ranked[0].id, ranked[1].id)
    with pytest.raises(TopologyError):
        grid.select_control_centers(subs[:1])


_M = grid.MAX_COORD_M
_coords = st.floats(-_M, _M)        # no NaN or inf; both zeros
_points = st.tuples(_coords, _coords)


def _ulps_from(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@settings(max_examples=500, deadline=None)
@given(_points, _points, st.integers(-3, 3), st.integers(-3, 3))
@example((0.0, -0.0), (-0.0, 0.0), 0, 0)
@example((-0.0, -0.0), (0.0, 0.0), 1, -1)
@example((_M, -_M), (-_M, _M), 0, 0)
@example((_M, _M), (_M, _M), -1, -1)
@example((5e-324, 0.0), (0.0, -5e-324), 2, 0)
@example((1.0, 368.71), (1.0, 368.71), 1, 1)
def test_distance_is_the_hypot_of_the_differences(a, b, dx, dy):
    """`distance` gives the float `math.hypot(a[0] - b[0], a[1] - b[1])`
    gives, bit for bit, in either argument order: for any two points in
    the coordinate bound, and for a point and one a few ulps from it."""
    near = (_ulps_from(a[0], dx), _ulps_from(a[1], dy))
    for p, q in ((a, b), (a, near)):
        want = math.hypot(p[0] - q[0], p[1] - q[1]).hex()
        assert grid.distance(p, q).hex() == want
        assert grid.distance(q, p).hex() == want


def test_convex_hull_square_with_center():
    pts = [(1, (0.0, 0.0)), (2, (10.0, 0.0)), (3, (10.0, 10.0)),
           (4, (0.0, 10.0)), (5, (5.0, 5.0)), (6, (5.0, 0.0))]
    # 6 is on an edge (collinear): only strict vertices count as border
    assert grid.convex_hull_ids(pts) == {1, 2, 3, 4}


def test_convex_hull_degenerate():
    assert grid.convex_hull_ids([(7, (1.0, 1.0))]) == {7}
    assert grid.convex_hull_ids([(1, (0, 0)), (2, (5, 5)), (3, (10, 10))]) == {1, 3}


def test_divide_regions_extreme_thresholds():
    subs = grid.partition_substations(grid.load_topology(FIXTURE_14))
    whole = grid.divide_regions(subs, 1e9)
    assert len(whole) == 1 and len(whole[0].substation_ids) == len(subs)
    singletons = grid.divide_regions(subs, 1e-6)
    assert len(singletons) == len(subs)
    for region in singletons:
        assert len(region.substation_ids) == 1


def test_divide_regions_seeding_rules():
    # Three hubs on a line, 200 apart; connectivity makes B the best border.
    doc = "\n".join([
        "BUS 1 0 0", "BUS 2 200 0", "BUS 3 400 0",
        "BRANCH 1 2 L", "BRANCH 2 3 L", "BRANCH 2 3 L",
    ])
    subs = grid.partition_substations(grid.load_topology(doc))
    regions = grid.divide_regions(subs, 250.0)
    # hull = {1, 3}; sub 3 (connectivity 2) beats sub 1 (connectivity 1)
    assert regions[0].seed_substation == 3
    assert regions[0].substation_ids == (2, 3)
    # next seed: unassigned closest to previous seed
    assert regions[1].substation_ids == (1,)
    assert all(r.id == i + 1 for i, r in enumerate(regions))


def test_regions_partition_substations_randomized():
    rng = random.Random(55)
    for _ in range(50):
        topo = random_topology(rng)
        subs = grid.partition_substations(topo)
        regions = grid.divide_regions(subs, rng.uniform(50, 2000))
        seen = sorted(sid for r in regions for sid in r.substation_ids)
        assert seen == sorted(s.id for s in subs)


def brute_force_min_dominating_set(adjacency):
    buses = sorted(adjacency)
    for size in range(1, len(buses) + 1):
        for combo in itertools.combinations(buses, size):
            covered = set()
            for bus in combo:
                covered |= adjacency[bus]
            if covered == set(buses):
                return size
    return len(buses)


def test_place_pmus_observes_everything():
    topo = grid.load_topology(FIXTURE_14)
    chosen = grid.place_pmus(topo)
    adjacency = {b: {b} for b in topo.positions}
    for br in topo.branches:
        adjacency[br.from_bus].add(br.to_bus)
        adjacency[br.to_bus].add(br.from_bus)
    covered = set()
    for bus in chosen:
        covered |= adjacency[bus]
    assert covered == set(topo.positions)
    assert len(chosen) <= 1.5 * brute_force_min_dominating_set(adjacency)


def test_place_pmus_star_and_isolated():
    star = grid.load_topology(
        "BUS 1 0 0\n" + "\n".join(f"BUS {i} {i} 0" for i in range(2, 7))
        + "\n" + "\n".join(f"BRANCH 1 {i} L" for i in range(2, 7))
    )
    assert grid.place_pmus(star) == {1}
    lone = grid.load_topology("BUS 9 0 0")
    assert grid.place_pmus(lone) == {9}


def layout_fixture(n_count=20, es_count=10, seed=7):
    topo = grid.load_topology(FIXTURE_14)
    return topo, grid.build_layout(topo, 250.0, {"n_nodes": n_count, "es_nodes": es_count}, seed)


def test_deploy_counts_and_kinds():
    topo, (subs, regions, deployment) = layout_fixture()
    kinds = Counter(e.kind for e in deployment.entities)
    assert kinds == {"N": 20, "ES": 10, "PDC": len(regions), "MU": 14, "GW": len(subs),
                     "SERVER": 2, "PMU": len(grid.place_pmus(topo))}
    ids = [e.id for e in deployment.entities]
    assert ids == list(range(1, len(ids) + 1))


def test_deploy_zero_counts():
    _, (_, regions, deployment) = layout_fixture(0, 0)
    kinds = Counter(e.kind for e in deployment.entities)
    assert kinds["N"] == kinds["ES"] == 0
    assert kinds["PDC"] == len(regions)


def test_deploy_deterministic_per_seed():
    _, (_, _, d1) = layout_fixture(seed=99)
    _, (_, _, d2) = layout_fixture(seed=99)
    _, (_, _, d3) = layout_fixture(seed=100)
    assert d1 == d2
    assert d1 != d3


def test_deploy_pdc_at_region_centroid():
    _, (subs, regions, deployment) = layout_fixture()
    by_id = {s.id: s for s in subs}
    pdcs = [e for e in deployment.entities if e.kind == "PDC"]
    for region, pdc in zip(regions, pdcs):
        assert pdc.region_id == region.id
        assert pdc.position == region.position
        xs = [by_id[sid].position[0] for sid in region.substation_ids]
        assert min(xs) <= pdc.position[0] <= max(xs)


def test_shipped_grid_files_reproduce_documented_structure():
    topo14 = grid.load_grid_file(grid.DATA_DIR / "ieee14.grid")
    subs14 = grid.partition_substations(topo14)
    assert len(subs14) == 11
    assert grid.select_control_centers(subs14) == (1, 2)
    regions14 = grid.divide_regions(subs14, 400.0)
    assert len(regions14) == 4
    assert regions14[0].seed_substation == 4

    topo118 = grid.load_grid_file(grid.DATA_DIR / "ieee118.grid")
    subs118 = grid.partition_substations(topo118)
    assert len(subs118) == 107
    by_id = {s.id: s for s in subs118}
    main, backup = grid.select_control_centers(subs118)
    assert by_id[main].bus_ids == frozenset({68, 69, 116})
    assert by_id[backup].bus_ids == frozenset({17, 30})
    assert len(grid.divide_regions(subs118, 400.0)) == 8


def test_missing_grid_file(tmp_path):
    with pytest.raises(TopologyError):
        grid.load_grid_file("no-such-topology.grid")
    # the path given is the path loaded: no shipped file stands in for it
    missing = tmp_path / "ieee14.grid"
    with pytest.raises(TopologyError, match=str(missing)):
        grid.load_grid_file(missing)


def test_find_grid_file_searches_base_dir_then_shipped_data(tmp_path):
    shipped = grid.DATA_DIR / "ieee14.grid"
    assert grid.find_grid_file("ieee14.grid", tmp_path) == shipped
    assert grid.find_grid_file(str(shipped), tmp_path) == shipped
    local = tmp_path / "ieee14.grid"
    local.write_text(shipped.read_text(encoding="utf-8"), encoding="utf-8")
    assert grid.find_grid_file("ieee14.grid", tmp_path) == local
    # an absolute path is looked for as given, and nowhere else
    missing = tmp_path / "sub" / "ieee14.grid"
    with pytest.raises(TopologyError, match=f"searched {missing}\\)"):
        grid.find_grid_file(str(missing), tmp_path)
    with pytest.raises(TopologyError, match="no.grid"):
        grid.find_grid_file("no.grid", tmp_path)
