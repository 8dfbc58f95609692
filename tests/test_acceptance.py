"""End-to-end acceptance gate: nine headline checks covering topology
reproduction, formula and crypto conformance, the routing oracle, defense
efficacy and energy trends on the scaled scenario, determinism, and the
security invariants. Each test prints one `criterion N ... PASS/FAIL` line."""

import math
import random
import time
from dataclasses import replace
from itertools import product

import pytest

from sermt import cli, crypto
from sermt.crypto import (
    ChainAnchorState,
    HashChain,
    ecc_decrypt,
    ecc_encrypt,
    generate_keypair,
    rc5_decrypt,
    rc5_encrypt,
    verify_chain_key,
    SIM_CURVE,
)
from sermt.grid import load_grid_file, partition_substations, select_control_centers
from sermt.protocol import (
    candidate_score,
    compute_forwarding_score,
    compute_trust,
    is_trusted,
)
from sermt.routing import dijkstra, route_weight
from sermt.scenario import DATA_DIR, MALICIOUS_COUNTS, load_config, run_scenario, sweep

from test_crypto import RC5_VECTORS, TOY
from test_routing import all_simple_paths_min, random_graph


def verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{label}] failed: {detail}"


def rel_err(got: float, want: float) -> float:
    return abs(got - want) if want == 0 else abs(got - want) / abs(want)


def test_criterion_1_ieee14_structure(capsys):
    start = time.perf_counter()
    code = cli.main(["topo", str(DATA_DIR / "ieee14.grid"), "--report"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    checks = {
        "exit": code == 0,
        "substations": "substations = 11" in out,
        "main_cc": "main_cc = S1 (" in out,
        "backup_cc": "backup_cc = S2 (" in out,
        "regions": "regions = 4 " in out,
        "seed": "region 1: seed S4 " in out,
        "runtime": elapsed < 1.0,
    }
    with capsys.disabled():
        verdict(1, "ieee14 structure", all(checks.values()),
                f"failed={[k for k, v in checks.items() if not v]} "
                f"elapsed={elapsed:.3f}s")


def test_criterion_2_ieee118_structure(capsys):
    start = time.perf_counter()
    topology = load_grid_file(DATA_DIR / "ieee118.grid")
    substations = partition_substations(topology)
    main_cc, backup_cc = select_control_centers(substations)
    elapsed = time.perf_counter() - start
    by_id = {s.id: s for s in substations}
    merge_identity = (len(topology.positions) - len(substations)
                      == sum(len(s.bus_ids) - 1 for s in substations))
    checks = {
        "count": len(substations) == 107,
        "main": by_id[main_cc].bus_ids == frozenset({68, 69, 116}),
        "backup": by_id[backup_cc].bus_ids == frozenset({17, 30}),
        "merge_identity": merge_identity,
        "runtime": elapsed < 2.0,
    }
    with capsys.disabled():
        verdict(2, "ieee118 structure", all(checks.values()),
                f"substations={len(substations)} "
                f"failed={[k for k, v in checks.items() if not v]} "
                f"elapsed={elapsed:.3f}s")


def test_criterion_3_formula_conformance(capsys):
    rng = random.Random(0xACC3)
    worst = 0.0
    for _ in range(1000):
        sent = rng.randrange(1, 10_000)
        delivered = rng.randrange(0, sent + 1)
        worst = max(worst, rel_err(compute_trust(delivered, sent),
                                   100.0 * delivered / sent))
        bp = rng.uniform(0.0, 150.0)
        tv = rng.uniform(0.0, 100.0)
        c = rng.randrange(0, 64)
        worst = max(worst, rel_err(compute_forwarding_score(bp, tv, c),
                                   bp * tv * c))
        worst = max(worst, rel_err(candidate_score(bp, tv, c), bp * tv * c))
        dist = rng.uniform(0.1, 1000.0)
        bp2, tv2 = rng.uniform(1.0, 150.0), rng.uniform(1.0, 100.0)
        worst = max(worst, rel_err(route_weight(dist, bp2, tv2),
                                   dist / (bp2 * tv2)))
    strict = (not is_trusted(40.0)
              and is_trusted(math.nextafter(40.0, 41.0))
              and not is_trusted(math.nextafter(40.0, 0.0)))
    ok = worst <= 1e-12 and strict
    with capsys.disabled():
        verdict(3, "formula conformance", ok,
                f"worst_rel_err={worst:.3g} strict_gt_40={strict}")


def test_criterion_4_crypto_suite(capsys):
    rng = random.Random(0xACC4)

    ecdh_pairs = ecdh_ok = 0
    pubs = {k: crypto.scalar_mult(k, TOY.g, TOY) for k in range(1, TOY.n)}
    for a, b in product(range(1, TOY.n), repeat=2):
        ecdh_pairs += 1
        if (crypto.derive_shared_secret(a, pubs[b], TOY)
                == crypto.derive_shared_secret(b, pubs[a], TOY)):
            ecdh_ok += 1

    vectors_ok = True
    for key_hex, pt_hex, ct_hex in RC5_VECTORS:
        schedule = crypto.rc5_key_schedule(bytes.fromhex(key_hex))
        ct = crypto.rc5_encrypt_block(schedule, bytes.fromhex(pt_hex))
        vectors_ok &= ct == bytes.fromhex(ct_hex)
        vectors_ok &= crypto.rc5_decrypt_block(schedule, ct) == bytes.fromhex(pt_hex)

    roundtrips = 0
    keypair = generate_keypair(SIM_CURVE, rng)
    for _ in range(500):
        payload = rng.randbytes(rng.randrange(0, 200))
        key = rng.randbytes(16)
        if rc5_decrypt(key, rc5_encrypt(key, payload)) == payload:
            roundtrips += 1
        blob = ecc_encrypt(keypair.public, payload, SIM_CURVE, rng)
        if ecc_decrypt(keypair.private, blob, SIM_CURVE) == payload:
            roundtrips += 1

    # every key strictly before the anchor verifies; the suffix is exact
    chains_ok = True
    for length in range(1, 65):
        chain = HashChain(rng.randbytes(20), length)
        state = ChainAnchorState(chain.anchor, max_steps=64)
        released = [chain.next_key() for _ in range(length - 1)]
        for step, key in enumerate(released, start=1):
            accepted, steps = verify_chain_key(key, chain.anchor, 64)
            chains_ok &= accepted and steps == step
            chains_ok &= state.accept(key)
        if released:
            chains_ok &= not state.accept(released[0])   # replay must fail

    anchor_state = ChainAnchorState(HashChain(b"acceptance", 64).anchor, 64)
    forged_accepts = sum(anchor_state.accept(rng.randbytes(20))
                         for _ in range(10_000))

    ok = (ecdh_ok == ecdh_pairs and vectors_ok and roundtrips == 1000
          and chains_ok and forged_accepts == 0)
    with capsys.disabled():
        verdict(4, "crypto suite", ok,
                f"ecdh={ecdh_ok}/{ecdh_pairs} vectors={vectors_ok} "
                f"roundtrips={roundtrips}/1000 chains={chains_ok} "
                f"forged_accepts={forged_accepts}")


def test_criterion_5_routing_oracle(capsys):
    rng = random.Random(0xACC5)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(500):
        adjacency, nodes = random_graph(rng)
        source, target = rng.choice(nodes), rng.choice(nodes)
        got = dijkstra(adjacency, source, {target})
        want = all_simple_paths_min(adjacency, source, {target})
        if want is None:
            mismatches += got is not None
        elif (got is None or rel_err(got[0], want[0]) > 1e-12
              or got[1] != want[1]):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    with capsys.disabled():
        verdict(5, "routing oracle", ok,
                f"mismatches={mismatches}/500 elapsed={elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_6_defense_efficacy(capsys):
    config = load_config(DATA_DIR / "scaled_ieee14.conf")
    assert (config.n_nodes, config.es_nodes, config.duration) == (60, 30, 600.0)
    start = time.perf_counter()
    rows, results = sweep(config, "malicious")
    elapsed = time.perf_counter() - start
    assert len(results[0].network.members(kind="PDC")) == 4
    drop = {(row.sweep_value, row.defense): row.drop_pct for row in rows}
    ordered = all(drop[(v, True)] <= drop[(v, False)] for v in MALICIOUS_COUNTS)
    strict_at_35 = drop[(35, True)] < drop[(35, False)]
    ok = ordered and strict_at_35 and elapsed < 120.0
    with capsys.disabled():
        verdict(6, "defense efficacy", ok,
                "drop% sermt<=baseline at " +
                ",".join(f"{v}:{drop[(v, True)]:.1f}/{drop[(v, False)]:.1f}"
                         for v in MALICIOUS_COUNTS) +
                f" elapsed={elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_7_energy_trend(capsys):
    config = load_config(DATA_DIR / "scaled_ieee14.conf")
    rows, _results = sweep(config, "interval")
    bp = {(row.sweep_value, row.defense): row.avg_bp for row in rows}
    intervals = sorted({row.sweep_value for row in rows})
    above = all(bp[(v, True)] >= bp[(v, False)] for v in intervals)
    sermt_curve = [bp[(v, True)] for v in intervals]
    non_increasing = all(a >= b for a, b in zip(sermt_curve, sermt_curve[1:]))
    ok = above and non_increasing
    with capsys.disabled():
        verdict(7, "energy trend", ok,
                f"sermt>=baseline={above} non_increasing={non_increasing} "
                f"curve={[round(v, 3) for v in sermt_curve]}")


def test_criterion_8_conservation_and_determinism(capsys, tmp_path):
    base = load_config(DATA_DIR / "scaled_ieee14.conf")
    small = replace(base, n_nodes=20, es_nodes=10, duration=60.0)
    start = time.perf_counter()
    mismatches = ledger_faults = 0
    for seed in range(1, 11):
        pair = []
        for _ in range(2):
            result = run_scenario(replace(small, seed=seed))
            ledger_faults += bool(result.channel.conservation_errors())
            pair.append(result.trace.digest())
        mismatches += pair[0] != pair[1]
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and ledger_faults == 0 and elapsed < 60.0
    with capsys.disabled():
        verdict(8, "conservation and determinism", ok,
                f"20 runs, digest_mismatches={mismatches} "
                f"ledger_faults={ledger_faults} elapsed={elapsed:.1f}s")


def test_criterion_9_security_invariants(capsys):
    config = load_config(DATA_DIR / "attacked_ieee14.conf")
    result = run_scenario(config)
    metrics = result.metrics
    kinds = {nid: node.kind for nid, node in result.network.nodes.items()}
    installed_on = {kinds[target] for log in result.attack_logs
                    for target in log.targets}
    protected_hit = installed_on & {"GW", "SERVER"}
    ok = (metrics.plaintext_exposures == 0
          and metrics.forged_accepts == 0
          and not protected_hit
          and len(result.attack_logs) == 3)
    with capsys.disabled():
        verdict(9, "security invariants", ok,
                f"exposures={metrics.plaintext_exposures} "
                f"forged_accepts={metrics.forged_accepts} "
                f"installed_on={sorted(installed_on)}")
