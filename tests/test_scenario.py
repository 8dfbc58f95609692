"""Scenario config parsing, deterministic runs, trace replay, sweep
artifacts, and the command-line front end."""

import copy
import gc
import hashlib
import os
import random
import subprocess
import sys
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import copying_relay
from sermt import cli, crypto, grid, protocol, scenario
from sermt.adversary import AttackSpec
from sermt.metrics import SweepRow, emit_csv, render_line_chart, replay_trace
from sermt.protocol import ProtocolEngine
from sermt.scenario import (
    ConfigError,
    SimulationFault,
    _sweep_attacks,
    build_world,
    finish,
    load_config,
    run_scenario,
    sweep,
)
from sermt.simcore import Channel, Trace

BASE = """\
[scenario]
topology = ieee14.grid
radius_threshold = 400
n_nodes = 12
es_nodes = 6
duration = 60
seed = 3
defense = sermt
"""


def write_config(tmp_path, text=BASE, name="scen.conf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# -- config parsing ---------------------------------------------------------------


def test_full_config_parses(tmp_path):
    text = BASE + """
[radio]
range_n = 260

[energy]
initial_battery = 120

[protocol]
trust_round_interval = 150

[attack:droppers]
kind = DROP
count = 2
drop_fraction = 0.5

[attack:spy]
kind = EAVESDROP
foreign = yes
position = 100, 200
"""
    config = load_config(write_config(tmp_path, text))
    assert config.topology_path.name == "ieee14.grid"
    assert config.topology_path.is_file()
    assert config.radius_threshold == 400.0
    assert (config.n_nodes, config.es_nodes) == (12, 6)
    assert config.seed == 3 and config.defense is True
    assert config.radio.range_n == 260.0
    assert config.energy.initial_battery == 120.0
    assert config.protocol.trust_round_interval == 150.0
    kinds = {a.name: a.kind for a in config.attacks}
    assert kinds == {"droppers": "DROP", "spy": "EAVESDROP"}
    spy = next(a for a in config.attacks if a.name == "spy")
    assert spy.foreign and spy.position == (100.0, 200.0)


def test_seed_is_mandatory(tmp_path):
    text = BASE.replace("seed = 3\n", "")
    with pytest.raises(ConfigError, match="seed"):
        load_config(write_config(tmp_path, text))


def test_seed_override_wins(tmp_path):
    config = load_config(write_config(tmp_path), seed_override=99)
    assert config.seed == 99


def test_missing_required_keys_rejected(tmp_path):
    for key in ("topology", "radius_threshold", "n_nodes", "es_nodes", "duration"):
        text = "\n".join(line for line in BASE.splitlines()
                         if not line.startswith(key))
        with pytest.raises(ConfigError, match=key):
            load_config(write_config(tmp_path, text))


def test_malformed_configs_rejected(tmp_path):
    bad = [
        BASE.replace("defense = sermt", "defense = maybe"),
        BASE.replace("seed = 3", "seed = xyz"),
        BASE.replace("duration = 60", "duration = -5"),
        BASE + "mystery_key = 1\n",
        BASE + "[mystery]\nx = 1\n",
        BASE + "[protocol]\ndefense = true\n",
        BASE + "[radio]\nwarp_drive = 9\n",
        BASE + "[attack:x]\ncount = 1\n",                    # no kind
        BASE + "[attack:x]\nkind = DROP\nvolume = 11\n",     # unknown key
        BASE + "[attack:x]\nkind = EAVESDROP\nposition = 1\n",
        BASE.replace("topology = ieee14.grid", "topology = nope.grid"),
        BASE.replace("topology = ieee14.grid", "topology = " + "x" * 5000),  # too long
        BASE.replace("radius_threshold = 400", "radius_threshold = -5"),
        BASE.replace("radius_threshold = 400", "radius_threshold = 0"),
        BASE + "[attack:x]\nkind = BOGUS\ncount = 1\n",
        BASE + "[attack:x]\nkind = DROP\n",                # no count or targets
        BASE + "[energy]\nvolts = 0\n",
        # non-finite values: NaN gets past a plain `<= 0` test
        BASE.replace("duration = 60", "duration = nan"),
        BASE.replace("duration = 60", "duration = inf"),
        BASE.replace("radius_threshold = 400", "radius_threshold = nan"),
        BASE + "[attack:x]\nkind = FLOOD\ncount = 1\nattack_interval = nan\n",
        BASE + "[attack:x]\nkind = FLOOD\ncount = 1\nstart_time = nan\n",
        BASE + "[attack:x]\nkind = EAVESDROP\nforeign = true\nposition = nan 0\n",
        BASE + "[attack:x]\nkind = EAVESDROP\nforeign = true\nposition = 0 inf\n",
        # an attack that would start after the run ends never runs
        BASE + "[attack:x]\nkind = FLOOD\ncount = 1\nstart_time = 1e9\n",
        BASE + "[attack:x]\nkind = FLOOD\ncount = 1\nstart_time = 60.5\n",
        # a wormhole has exactly two ends: one would crash the install, a
        # third would be compromised and logged but never tunnel
        BASE + "[attack:w]\nkind = WORMHOLE\ncount = 1\n",
        BASE + "[attack:w]\nkind = WORMHOLE\ncount = 3\n",
        BASE + "[attack:w]\nkind = WORMHOLE\ntargets = 4 6 8\n",
        BASE + "[attack:w]\nkind = WORMHOLE\ntargets = 4 4\n",
        BASE + "[attack:f]\nkind = FLOOD\ntargets = 4 4\n",    # one node, two floods
        BASE + "[attack:w]\nkind = WORMHOLE\ncount = 2\nforeign = yes\nposition = 0 0\n",
        # a chain this short, or rotated this late, can run dry mid-run
        BASE + "[protocol]\nchain_low_water = 0\nchain_length = 8\n",
        BASE + "[protocol]\nchain_low_water = 1\n",
    ]
    # out-of-range model values; loading never starts a run, so none can hang
    for key, value in (("range_n", -5), ("range_es", 0), ("range_server", "nan"),
                       ("loss_probability", 2), ("loss_probability", -0.1),
                       ("loss_probability", "nan")):
        bad.append(BASE + f"[radio]\n{key} = {value}\n")
    for key, value in (("e_amp", -1e-12), ("e_lna", "nan"), ("recharge_rate", -1),
                       ("battery_capacity_es", 0), ("initial_battery", -1),
                       ("initial_battery", 2001)):     # above battery_capacity_es
        bad.append(BASE + f"[energy]\n{key} = {value}\n")
    for key, value in (("test_messages", 0), ("chain_length", 0),
                       ("mu_reading_bytes", 8), ("pmu_reading_bytes", 15),
                       ("mu_interval", 0), ("pmu_interval", 0),
                       ("gw_probe_interval", 0), ("trust_round_interval", -5),
                       ("mu_interval", "nan"), ("chain_length", 1), ("chain_length", 3),
                       ("round_active_window", "inf"), ("round_active_window", "nan"),
                       ("round_active_window", -1), ("round_trigger_holdoff", "nan"),
                       ("round_trigger_holdoff", "inf"),
                       # past the 16-bit probe index and record size fields
                       ("test_messages", 65537), ("mu_reading_bytes", 65536),
                       ("pmu_reading_bytes", 65536)):
        bad.append(BASE + f"[protocol]\n{key} = {value}\n")
    for text in bad:
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, text))
    # the check lives on ScenarioConfig, so a replaced config is checked too
    config = load_config(write_config(tmp_path, BASE + "[attack:x]\nkind = FLOOD\n"
                                                     "count = 1\nstart_time = 60\n"))
    with pytest.raises(ConfigError, match="start_time"):
        replace(config, duration=59.0)


_VALUE_TEXTS = ("0", "1", "2", "4", "-1", "3.5", "1e308", "-1e308", "1e-320", "nan",
                "inf", "-inf", "1" * 5000, "ieee14.grid", "no.grid", "yes", "off",
                "sermt", "baseline", "drop", "WORMHOLE", "EAVESDROP", "4 6", "1, 2, 3", "")
_line_text = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\r\n\x0b\x0c\x1c\x1d\x1e"
                                                        "\x85\u2028\u2029"),
                     max_size=12)


def _mostly(choices, rare):
    """Draw from `choices` nine times in ten, else from the strategy `rare`."""
    return st.integers(0, 9).flatmap(lambda i: rare if i == 0 else st.sampled_from(choices))


_SECTION_KEYS = {
    "scenario": ("topology", "radius_threshold", "n_nodes", "es_nodes", "duration",
                 "seed", "defense"),
    "attack": ("kind", "targets", "count", "start_time", "attack_interval", "flood_rate",
               "personas", "drop_fraction", "corrupt_fraction", "foreign", "position"),
    "radio": ("range_n", "range_es", "range_pdc", "range_mu", "range_gw", "range_server",
              "loss_probability"),
    "energy": ("e_amp", "e_baseband", "e_frontend", "e_lna", "volts", "recharge_rate",
               "battery_capacity_es", "initial_battery"),
    "protocol": ("trust_round_interval", "test_messages", "round_active_window",
                 "round_trigger_holdoff", "gw_probe_interval", "mu_interval",
                 "pmu_interval", "mu_reading_bytes", "pmu_reading_bytes", "chain_length",
                 "chain_low_water"),
}


def _section_keys(name):
    return _SECTION_KEYS.get(name.split(":")[0], _SECTION_KEYS["scenario"])


_values = _mostly(_VALUE_TEXTS, _line_text)
_sections = st.dictionaries(
    _mostly(("radio", "energy", "protocol", "attack:a", "attack:b", "DEFAULT"), _line_text),
    st.just(None), max_size=3).flatmap(lambda names: st.tuples(*(
        st.tuples(st.just(name), st.dictionaries(_mostly(_section_keys(name), _line_text),
                                                 _values, max_size=4))
        for name in names)))


@pytest.fixture(scope="module")
def random_conf(tmp_path_factory):
    return tmp_path_factory.mktemp("random") / "random.conf"


@settings(max_examples=200, deadline=None)
@given(changes=st.dictionaries(st.sampled_from(_SECTION_KEYS["scenario"]),
                               st.none() | _values, max_size=2),
       extra=_sections)
def test_load_config_returns_or_raises_config_error(random_conf, changes, extra):
    # the valid BASE with a key or two changed (None: taken out), then random sections
    scenario_items = dict(line.split(" = ") for line in BASE.splitlines()[1:])
    scenario_items.update(changes)
    lines = ["[scenario]"] + [f"{key} = {value}" for key, value in scenario_items.items()
                              if value is not None]
    for name, items in extra:
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in items.items())
    random_conf.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        load_config(random_conf)
    except ConfigError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300))
def test_load_config_on_random_bytes_raises_only_config_error(random_conf, data):
    random_conf.write_bytes(BASE.encode() + data)
    try:
        load_config(random_conf)
    except ConfigError:
        pass


def test_attack_starting_as_the_run_ends_still_runs(tmp_path):
    # the queue runs events at t == duration, so start_time = duration is a burst
    text = BASE.replace("duration = 60", "duration = 20") + \
        "[attack:x]\nkind = FLOOD\ncount = 1\nstart_time = 20\n"
    (log,) = run_scenario(load_config(write_config(tmp_path, text))).attack_logs
    assert log.bogus_frames_sent > 0


def test_config_dir_topology_wins_over_packaged(tmp_path):
    # a grid file sitting next to the config shadows the packaged one
    local = tmp_path / "ieee14.grid"
    local.write_text((scenario.DATA_DIR / "ieee14.grid").read_text(encoding="utf-8"),
                     encoding="utf-8")
    config = load_config(write_config(tmp_path))
    assert config.topology_path == local


def test_packaged_configs_load():
    for name in ("scaled_ieee14.conf", "attacked_ieee14.conf"):
        config = load_config(scenario.DATA_DIR / name)
        assert config.seed == 7 and config.topology_path.is_file()


# -- runs and replay ---------------------------------------------------------------


def small_config(tmp_path, extra="", **overrides):
    text = BASE + extra
    for key, value in overrides.items():
        text = text.replace(f"{key} = {dict(seed=3, duration=60)[key]}",
                            f"{key} = {value}")
    return load_config(write_config(tmp_path, text))


def test_identical_runs_identical_traces(tmp_path):
    config = small_config(tmp_path, extra="[attack:d]\nkind = DROP\ncount = 2\n")
    first, second = run_scenario(config), run_scenario(config)
    assert first.trace.digest() == second.trace.digest()
    assert first.metrics == second.metrics


def test_second_world_of_a_config_multiplies_no_key(tmp_path, monkeypatch):
    """`install_keys` multiplies only the public keys it reads: the two
    servers', once each.  The points of a sweep share seed and layout, so
    the second world's `install_keys` reads both from the key memo."""
    config = small_config(tmp_path)
    crypto._long_lived_mult.cache_clear()
    mults, per_install = [], []
    scalar_mult, install_keys = crypto.scalar_mult, ProtocolEngine.install_keys

    def counted_mult(*args):
        mults.append(args)
        return scalar_mult(*args)

    def counted_install(engine):
        mults.clear()
        install_keys(engine)
        per_install.append(len(mults))

    monkeypatch.setattr(crypto, "scalar_mult", counted_mult)
    monkeypatch.setattr(ProtocolEngine, "install_keys", counted_install)
    build_world(config)
    build_world(config)
    assert per_install == [2, 0]


def test_key_memo_holds_only_long_lived_keys(tmp_path, monkeypatch):
    """After a clean run the key memo holds at most one entry per key pair
    issued and per session, and every multiply is accounted for: one per
    key memo entry, two per ECC seal and one per ECC open. Each frame
    arrives as a copy of its bytes, so the server opens every aggregate."""
    crypto._long_lived_mult.cache_clear()
    crypto._seal_keys.cache_clear()
    mults = []                  # the phase of each real multiply
    phase = ["key"]
    made = {"seal": [], "open": []}     # multiplies per call
    scalar_mult = crypto.scalar_mult

    def counted_mult(*args):
        mults.append(phase[0])
        return scalar_mult(*args)

    def counted(name, call):
        def wrapper(*args, **kwargs):
            phase[0], before = name, len(mults)
            try:
                return call(*args, **kwargs)
            finally:
                phase[0] = "key"
                made[name].append(len(mults) - before)
        return wrapper

    monkeypatch.setattr(crypto, "scalar_mult", counted_mult)
    monkeypatch.setattr(protocol, "ecc_encrypt", counted("seal", protocol.ecc_encrypt))
    monkeypatch.setattr(protocol, "ecc_decrypt", counted("open", protocol.ecc_decrypt))
    monkeypatch.setattr(ProtocolEngine, "_relay_chain",
                        copying_relay(ProtocolEngine._relay_chain))
    result = run_scenario(small_config(tmp_path))
    engine = result.engine
    key_pairs = len(result.network.nodes) + sum(
        len(history) - 1 for history in engine.server_key_history.values())
    held = crypto._long_lived_mult.cache_info().currsize
    assert held <= key_pairs + len(engine.sessions)
    assert mults.count("key") == held          # each entry multiplied once
    assert made["seal"] and made["seal"] == [2] * len(made["seal"])
    assert made["open"] and made["open"] == [1] * len(made["open"])


def local_grid(tmp_path, name="local.grid", scale_x=1.0):
    """The shipped 14-bus grid written to `tmp_path`, each bus's x scaled."""
    lines = []
    for line in (scenario.DATA_DIR / "ieee14.grid").read_text(encoding="utf-8").splitlines():
        if line.startswith("BUS "):
            _, bus, x, y = line.split()
            line = f"BUS {bus} {float(x) * scale_x:.2f} {y}"
        lines.append(line)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_a_grid_file_rewritten_in_place_is_laid_out_anew(tmp_path):
    """The layout memo is keyed by the grid file's content: the same path
    with new bytes runs the new layout, as a fresh run of the new file
    does, and the same bytes again are a memo hit."""
    grid_path = local_grid(tmp_path)
    config = replace(small_config(tmp_path), topology_path=grid_path, duration=20.0)
    first = run_scenario(config)
    local_grid(tmp_path, scale_x=1.1)
    misses = scenario._cached_layout.cache_info().misses
    second = run_scenario(config)
    assert scenario._cached_layout.cache_info().misses == misses + 1
    fresh = run_scenario(replace(config, topology_path=local_grid(tmp_path, "fresh.grid",
                                                                  scale_x=1.1)))
    assert second.trace.digest() == fresh.trace.digest() != first.trace.digest()
    assert second.metrics == fresh.metrics
    hits = scenario._cached_layout.cache_info().hits
    assert run_scenario(config).trace.digest() == second.trace.digest()
    assert scenario._cached_layout.cache_info().hits == hits + 1


def test_an_unreadable_grid_file_fails_after_a_memo_hit(tmp_path, capsys):
    """A grid file that is no longer UTF-8, or is gone, fails the run as a
    config error (exit 2) although the memo holds its old layout; put
    back, it is served from the memo again."""
    grid_path = local_grid(tmp_path)
    shipped = grid_path.read_bytes()
    conf = write_config(tmp_path, BASE.replace("ieee14.grid", "local.grid")
                        .replace("duration = 60", "duration = 10"))
    config = load_config(conf)
    run_scenario(config)
    assert cli.main(["run", str(conf)]) == cli.EXIT_OK         # a memo hit
    for spoil, fragment in ((lambda: grid_path.write_bytes(shipped + b"# caf\xe9\n"),
                             "cannot read"),
                            (grid_path.unlink, "no such grid file")):
        spoil()
        with pytest.raises(grid.TopologyError, match=fragment):
            run_scenario(config)
        capsys.readouterr()
        assert cli.main(["run", str(conf)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
    grid_path.write_bytes(shipped)
    hits = scenario._cached_layout.cache_info().hits
    run_scenario(config)
    assert scenario._cached_layout.cache_info().hits == hits + 1


def test_a_run_leaves_its_memoised_layout_as_built():
    """Worlds share the memoised layout, so none may change it: after an
    attacked run (Sybil personas and a foreign spy added to the network)
    the memo's layout equals a copy taken before the run and a cold
    `build_layout`, and every entity seed's position is its node's."""
    base = load_config(scenario.DATA_DIR / "attacked_ieee14.conf")
    config = replace(base, duration=30.0,
                     attacks=base.attacks + (AttackSpec(kind="SYBIL", name="sy", count=2),))
    scenario._cached_layout.cache_clear()
    layout = scenario._layout(config)
    snapshot = copy.deepcopy(layout)
    result = run_scenario(config)
    assert scenario._layout(config) is layout
    assert layout == snapshot
    topology = grid.load_grid_file(config.topology_path)
    assert layout == (topology, *grid.build_layout(
        topology, config.radius_threshold,
        {"n_nodes": config.n_nodes, "es_nodes": config.es_nodes}, config.seed))
    seeds = layout[3].entities
    assert len(result.network.nodes) > len(seeds)
    for seed in seeds:
        assert result.network.nodes[seed.id].position == seed.position


def test_sweep_lays_out_and_hashes_its_chains_once(tmp_path, monkeypatch):
    """The points of a sweep share grid, seed and server chain seeds: the
    first point builds the layout (through the module global a wrapper
    would replace) and both servers' chains, and the rest build neither."""
    monkeypatch.setattr(scenario, "ATTACK_INTERVALS", (1.0, 2.0, 3.0))
    builds = []
    build_layout = scenario.build_layout

    def counted_build(*args):
        builds.append(args)
        return build_layout(*args)

    monkeypatch.setattr(scenario, "build_layout", counted_build)
    scenario._cached_layout.cache_clear()
    crypto._chain_keys.cache_clear()
    _rows, results = sweep(replace(small_config(tmp_path), duration=10.0), "interval")
    assert len(results) == 6 and len(builds) == 1
    assert crypto._chain_keys.cache_info().misses == 2


def test_sweep_multiplies_for_its_seals_in_its_first_point_only(tmp_path, monkeypatch):
    """The runs of a sweep draw the same ephemeral scalars from the shared
    seed and seal to the same server keys, so after the first point's two
    runs (defense on and off, two multiplies per seal) every seal is read
    from the seal memo and multiplies nothing."""
    monkeypatch.setattr(scenario, "ATTACK_INTERVALS", (1.0, 2.0, 3.0))
    sealing, counts, per_run = [False], {"seals": 0, "mults": 0}, []
    scalar_mult, ecc_encrypt, run = crypto.scalar_mult, protocol.ecc_encrypt, scenario.run_scenario

    def counted_mult(*args):
        counts["mults"] += sealing[0]
        return scalar_mult(*args)

    def counted_seal(*args):
        sealing[0] = True
        counts["seals"] += 1
        try:
            return ecc_encrypt(*args)
        finally:
            sealing[0] = False

    def counted_run(config):
        counts.update(seals=0, mults=0)
        result = run(config)
        per_run.append((counts["seals"], counts["mults"]))
        return result

    monkeypatch.setattr(crypto, "scalar_mult", counted_mult)
    monkeypatch.setattr(protocol, "ecc_encrypt", counted_seal)
    monkeypatch.setattr(scenario, "run_scenario", counted_run)
    crypto._seal_keys.cache_clear()
    sweep(replace(small_config(tmp_path), duration=20.0), "interval")
    seals = [s for s, _ in per_run]
    assert len(per_run) == 6 and min(seals) > 0
    assert [m for _, m in per_run] == [2 * seals[0], 2 * seals[1], 0, 0, 0, 0]


def test_sweep_enciphers_its_rc5_bodies_in_its_first_point_only(tmp_path, monkeypatch):
    """The runs of a sweep seal the same readings under the same session
    and seal keys, so after the first point's two runs every RC5 body is
    read from the body memo and runs no word loop."""
    monkeypatch.setattr(scenario, "ATTACK_INTERVALS", (1.0, 2.0, 3.0))
    per_run, words, run = [], crypto._rc5_encrypt_words, scenario.run_scenario

    def counted_words(*args):
        per_run[-1] += 1
        return words(*args)

    def counted_run(config):
        per_run.append(0)
        return run(config)

    monkeypatch.setattr(crypto, "_rc5_encrypt_words", counted_words)
    monkeypatch.setattr(scenario, "run_scenario", counted_run)
    crypto.rc5_encrypt.cache_clear()
    sweep(replace(small_config(tmp_path), duration=20.0), "interval")
    assert len(per_run) == 6 and min(per_run[:2]) > 0
    assert per_run[2:] == [0, 0, 0, 0]
    assert crypto.rc5_encrypt.cache_info().misses == sum(per_run)


@pytest.fixture(scope="module")
def attacked_60s(tmp_path_factory):
    """The shipped attacked scenario cut to 60 s: its file and its run."""
    text = (scenario.DATA_DIR / "attacked_ieee14.conf").read_text(encoding="utf-8")
    path = tmp_path_factory.mktemp("attacked") / "attacked_60s.conf"
    path.write_text(text.replace("duration = 600", "duration = 60"), encoding="utf-8")
    return path, run_scenario(load_config(path))


def test_build_world_then_run_until_then_finish_is_run_scenario(attacked_60s):
    """`build_world` on the layout `run_scenario` computes returns at t = 0
    with no event run; running and finishing it gives `run_scenario`'s run."""
    path, result = attacked_60s
    config = load_config(path)
    topology = grid.load_grid_file(config.topology_path)
    world = build_world(config, layout=(topology, *grid.build_layout(
        topology, config.radius_threshold,
        {"n_nodes": config.n_nodes, "es_nodes": config.es_nodes}, config.seed)))
    queue = world.channel.queue
    assert (queue.now, world.trace.lines) == (0.0, []) and queue.pending > 0
    queue.run_until(config.duration)
    finished = finish(world)
    assert finished.trace.digest() == result.trace.digest()
    assert finished.metrics == result.metrics
    assert ([log.counters() for log in finished.attack_logs]
            == [log.counters() for log in result.attack_logs])


def test_digest_does_not_depend_on_the_hash_seed(attacked_60s):
    """`sermt run` in two processes with different string-hash seeds prints
    the digest of the run in this process."""
    path, result = attacked_60s
    src = str(scenario.DATA_DIR.parents[1])      # the tree this process imports
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-m", "sermt.cli", "run", str(path)],
                             env=env, capture_output=True, text=True, check=True).stdout
        assert f"trace_digest = {result.trace.digest()}\n" in out


def test_replay_recomputes_headline_metrics(tmp_path):
    config = small_config(
        tmp_path,
        extra="[attack:d]\nkind = DROP\ncount = 2\n"
              "[attack:s]\nkind = EAVESDROP\nforeign = yes\nposition = 500,400\n")
    result = run_scenario(config)
    live = result.metrics
    replayed = replay_trace(
        result.trace.lines,
        initial_battery=dict(result.channel.initial_battery),
        kinds={nid: node.kind for nid, node in result.network.nodes.items()},
        energy=config.energy,
        duration=config.duration)
    assert replayed.packets_sent == live.packets_sent
    assert replayed.packets_delivered == live.packets_delivered
    assert replayed.packet_drop_pct == pytest.approx(live.packet_drop_pct)
    assert replayed.throughput_bps == pytest.approx(live.throughput_bps)
    # trace prints joules with %.12g, so recomputed charge drifts at ~1e-12 rel
    assert replayed.avg_bp_consumed_per_hour == pytest.approx(
        live.avg_bp_consumed_per_hour, rel=1e-9)
    for row in live.node_ledger:
        assert replayed.consumed_mah[row.node_id] == pytest.approx(
            row.consumed_mah, rel=1e-9, abs=1e-12)
        assert replayed.final_mah[row.node_id] == pytest.approx(
            row.final_mah, rel=1e-9, abs=1e-9)


def test_trace_export_appends_attack_rows(tmp_path):
    config = small_config(tmp_path, extra="[attack:d]\nkind = DROP\ncount = 2\n")
    result = run_scenario(config)
    lines = result.trace_export().splitlines()
    attack_rows = [line for line in lines if " | attack | " in line]
    assert len(attack_rows) == 1
    assert "d:DROP" in attack_rows[0] and "frames_swallowed=" in attack_rows[0]
    assert attack_rows[0].startswith(f"{config.duration:.6f} | ")


# -- sweeps ------------------------------------------------------------------------


def test_sweep_attack_composition():
    rng = random.Random(5)
    for _ in range(50):
        count = rng.choice(scenario.MALICIOUS_COUNTS)
        specs = _sweep_attacks("malicious", count)
        total = sum(s.count for s in specs)
        assert total == count
        by_kind = {s.kind: s.count for s in specs}
        assert by_kind.get("SINKHOLE", 0) == count // 5
    (flood,) = _sweep_attacks("interval", 4.0)
    assert flood.kind == "FLOOD"
    assert flood.count == 3 and flood.attack_interval == 4.0


def test_sweep_rows_follow_sweep_order(tmp_path, monkeypatch):
    monkeypatch.setattr(scenario, "MALICIOUS_COUNTS", (2,))
    config = small_config(tmp_path, duration=40)
    rows, results = sweep(config, "malicious")
    assert [(r.sweep_value, r.defense) for r in rows] == [(2.0, True), (2.0, False)]
    assert len(results) == 2
    assert results[0].config.defense and not results[1].config.defense


def test_finished_runs_hold_only_sealed_trace_text(tmp_path, monkeypatch):
    """`finish` seals the trace's open chunk: a `run_scenario` result and
    every result of a sweep hold no line as a `str` of its own."""
    monkeypatch.setattr(scenario, "ATTACK_INTERVALS", (2.0,))
    config = small_config(tmp_path, duration=30)
    _rows, results = sweep(config, "interval")
    for result in [run_scenario(config), *results]:
        assert result.trace._open == [] and result.trace._sealed


def test_a_finished_flood_run_keeps_no_channel_link(tmp_path, monkeypatch):
    """A flood burst's broadcast link holds its listeners and their ready
    `rx` lines; `finish` drops every link, as it drops the neighbourhood
    maps, so a finished result keeps none though the run ends with some."""
    kept, finalize = [], Channel.finalize

    def watched_finalize(channel):
        kept.append(list(channel._links))
        finalize(channel)
    monkeypatch.setattr(Channel, "finalize", watched_finalize)
    config = replace(small_config(tmp_path, duration=30),
                     attacks=_sweep_attacks("interval", 2.0))
    result = run_scenario(config)
    assert len(kept) == 1 and any(key[1] is None for key in kept[0])     # a broadcast's
    assert result.channel._links == {} and result.channel._hears == {}


def test_a_sweep_keeps_one_copy_of_each_chunk_its_results_share(tmp_path, monkeypatch):
    """Equal sealed chunks across a sweep's results are one object, each
    point's trace reads as a lone run of that point, and two sweeps share
    no chunk: the pool lives only for its call."""
    monkeypatch.setattr(scenario, "ATTACK_INTERVALS", (2.0, 5.0))
    config = small_config(tmp_path, duration=30)
    _rows, results = sweep(config, "interval")
    chunks = [chunk for result in results for chunk in result.trace._sealed]
    assert len({id(chunk) for chunk in chunks}) == len(set(chunks)) < len(chunks)
    for result in results:
        assert result.trace.digest() == run_scenario(result.config).trace.digest()
    _rows, again = sweep(config, "interval")
    assert not ({id(chunk) for chunk in chunks}
                & {id(chunk) for result in again for chunk in result.trace._sealed})


ATTACKED_EVERY_WAY = """\
[attack:sybil]
kind = SYBIL
targets = 1
[attack:flood]
kind = FLOOD
count = 1
attack_interval = 2
[attack:sinkhole]
kind = SINKHOLE
count = 1
[attack:tunnel]
kind = WORMHOLE
count = 2
[attack:spy]
kind = EAVESDROP
count = 1
[attack:plant]
kind = EAVESDROP
foreign = yes
position = 300, 300
"""


@pytest.mark.parametrize("defense", [True, False])
def test_a_dropped_result_frees_its_world_by_reference_count(tmp_path, defense):
    """`finish` drops the pending events, whose actions point back at the
    engine and the attacks; with the cycle collector off, a dropped result
    of a world attacked every way frees its engine, channel and network."""
    config = replace(small_config(tmp_path, extra=ATTACKED_EVERY_WAY, duration=30),
                     defense=defense)
    result = run_scenario(config)
    sybil, flood, _sinkhole, _tunnel, *spies = result.attack_logs
    assert sybil.fake_locations_advertised and flood.bogus_frames_sent
    assert all(spy.frames_overheard for spy in spies)
    assert " | wormhole | " in "".join(result.trace.chunks())
    refs = [weakref.ref(part) for part in (result.engine, result.channel, result.network)]
    gc.disable()
    try:
        del result
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_sweep_rejects_unknown_axis(tmp_path):
    with pytest.raises(ConfigError, match="axis"):
        sweep(small_config(tmp_path), "voltage")


def test_csv_is_bit_stable():
    rows = [SweepRow(5.0, True, 1.23456789, 810.5, 0.123456789123),
            SweepRow(5.0, False, 50.0, 400.0, 0.2)]
    text = emit_csv(rows)
    assert text == emit_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "sweep_value,defense,drop_pct,throughput,avg_bp"
    assert lines[1] == "5,sermt,1.234568,810.500000,0.123456789"
    assert lines[2] == "5,baseline,50.000000,400.000000,0.200000000"


def test_chart_markers_and_polylines():
    one = render_line_chart({"sermt": [(1.0, 2.0)]},
                            title="t", x_label="x", y_label="y")
    assert one.count("<circle") == 1 and "<polyline" not in one
    two = render_line_chart({"sermt": [(1.0, 2.0), (2.0, 1.0)],
                             "baseline": [(1.0, 3.0)]},
                            title="t", x_label="x", y_label="y")
    assert two.count("<polyline") == 1 and two.count("<circle") == 3
    assert two == render_line_chart({"baseline": [(1.0, 3.0)],
                                     "sermt": [(1.0, 2.0), (2.0, 1.0)]},
                                    title="t", x_label="x", y_label="y")


# -- command line ------------------------------------------------------------------


def test_cli_run_prints_metrics_and_trace(tmp_path, capsys):
    config_path = write_config(tmp_path)
    trace_path = tmp_path / "out" / "run.trace"
    code = cli.main(["run", str(config_path), "--trace-out", str(trace_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "seed = 3" in out and "defense = sermt" in out
    assert "packet_drop_pct = " in out and "trace_digest = " in out
    assert trace_path.is_file()
    assert trace_path.read_text(encoding="utf-8").count(" | ") >= 4
    # at radius 50 every region is one substation, so each PDC sits on its
    # gateway and a defended route crosses a 0 m link
    co_located = write_config(tmp_path, BASE.replace("radius_threshold = 400",
                                                     "radius_threshold = 50"),
                              name="co_located.conf")
    assert cli.main(["run", str(co_located)]) == 0
    assert "trace_digest = " in capsys.readouterr().out


def test_cli_run_with_a_foreign_cluster_head(tmp_path, capsys):
    """The baseline lets a planted device head a cluster; it cannot seal to
    the servers, and the run still ends normally."""
    text = (scenario.DATA_DIR / "scaled_ieee14.conf").read_text(encoding="utf-8")
    text = text.replace("duration = 600", "duration = 60").replace("defense = sermt",
                                                                   "defense = baseline")
    text += "\n[attack:spy]\nkind = EAVESDROP\nforeign = yes\nposition = 500, 300\n"
    assert cli.main(["run", str(write_config(tmp_path, text))]) == 0
    assert "trace_digest = " in capsys.readouterr().out


ATTACKED_60S_STDOUT = [
    'seed = 7',
    'defense = sermt',
    'duration_s = 60',
    'packets_sent = 76',
    'packets_delivered = 76',
    'packet_drop_pct = 0.000000',
    'throughput_bps = 819.200000',
    'avg_bp_consumed_per_hour_mah = 0.452805214',
    'auth_rejects = 16742',
    'forged_accepts = 0',
    'tamper_detected = 0',
    'undeliverable_alarms = 0',
    'isolation_alarms = 0',
    'plaintext_exposures = 0',
    'trace_digest = 75468a1cf84a15d8b2be7afe5578ead53a641d88',
    ('attack droppers: bogus_frames_sent=0 fake_locations_advertised=0 frames_overheard=0 '
     'frames_swallowed=84 payloads_decrypted=0 readings_corrupted=0'),
    ('attack flooder: bogus_frames_sent=310 fake_locations_advertised=0 frames_overheard=0 '
     'frames_swallowed=0 payloads_decrypted=0 readings_corrupted=0'),
    ('attack spy: bogus_frames_sent=0 fake_locations_advertised=0 frames_overheard=791 '
     'frames_swallowed=0 payloads_decrypted=0 readings_corrupted=0'),
]


def test_cli_run_stdout_pinned(attacked_60s, capsys):
    """Every line `sermt run` prints for 60 s of the shipped attacked
    scenario: the metrics, the trace digest and each attack's counters."""
    assert cli.main(["run", str(attacked_60s[0])]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines() == ATTACKED_60S_STDOUT


# SHA-1 of the `--trace-out` file of 60 s of the shipped attacked scenario:
# 24,660 trace lines (several sealed chunks, the last sealed at the run's
# end), 3 attack rows
ATTACKED_60S_TRACE_OUT_SHA1 = "2758aeeee920c9626ba80141e666000337c1d06c"


def test_cli_trace_out_is_the_per_line_join(attacked_60s, tmp_path, capsys):
    """The `--trace-out` file is, byte for byte, the trace's lines and then
    one row per attack, joined line by line with a "\\n" after each, and
    `trace_export` is the same text."""
    path, result = attacked_60s
    out = tmp_path / "attacked.trace"
    assert cli.main(["run", str(path), "--trace-out", str(out)]) == cli.EXIT_OK
    rows = [f"{result.metrics.duration:.6f} | attack | {log.name}:{log.kind} | "
            f"targets:{','.join(str(t) for t in log.targets)} | "
            + " ".join(f"{key}={value}" for key, value in sorted(log.counters().items()))
            for log in result.attack_logs]
    joined = ("\n".join(result.trace.lines + rows) + "\n").encode("utf-8")
    assert len(rows) == 3
    assert len(result.trace._sealed) >= 2 and result.trace._open == []
    assert out.read_bytes() == joined
    assert result.trace_export().encode("utf-8") == joined
    assert hashlib.sha1(joined).hexdigest() == ATTACKED_60S_TRACE_OUT_SHA1


def test_a_flood_run_keeps_the_open_trace_chunk_bounded(monkeypatch):
    """60 s of the interval sweep's 1 s flood point, which has no
    eavesdroppers: the trace seals several chunks, and its open chunk never
    holds more than Trace.CHUNK + N lines, N the network's node count."""
    peak = 0
    write = Trace.write

    def watched_write(trace, line):
        nonlocal peak
        peak = max(peak, len(trace._open) + 1)      # the most it holds, just before a seal
        write(trace, line)
    monkeypatch.setattr(Trace, "write", watched_write)
    config = replace(load_config(scenario.DATA_DIR / "scaled_ieee14.conf"), duration=60.0,
                     attacks=_sweep_attacks("interval", 1.0))
    result = run_scenario(config)
    assert result.channel.eavesdroppers == [] and len(result.trace._sealed) >= 3
    assert Trace.CHUNK <= peak <= Trace.CHUNK + len(result.network.nodes)


def test_cli_run_with_frames_too_large_for_the_wire_exits_3(tmp_path, capsys):
    text = BASE + "[protocol]\nmu_reading_bytes = 65535\npmu_reading_bytes = 65535\n"
    assert cli.main(["run", str(write_config(tmp_path, text))]) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("runtime fault: payload of ") and "bytes exceeds 65535" in err


def test_cli_seed_env_override(tmp_path, capsys, monkeypatch):
    config_path = write_config(tmp_path)
    monkeypatch.setenv("SERMT_SEED", "123")
    assert cli.main(["run", str(config_path)]) == 0
    assert "seed = 123" in capsys.readouterr().out
    monkeypatch.setenv("SERMT_SEED", "twelve")
    assert cli.main(["run", str(config_path)]) == cli.EXIT_CONFIG


def test_cli_config_errors_exit_2(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "missing.conf")]) == cli.EXIT_CONFIG
    bad = write_config(tmp_path, BASE.replace("seed = 3\n", ""), name="bad.conf")
    assert cli.main(["run", str(bad)]) == cli.EXIT_CONFIG
    assert cli.main(["topo", str(tmp_path / "missing.grid")]) == cli.EXIT_CONFIG
    (tmp_path / "broken.grid").write_text("BUS x 1 1\n", encoding="utf-8")
    broken = write_config(tmp_path, BASE.replace("topology = ieee14.grid",
                                                 "topology = broken.grid"),
                          name="broken.conf")
    assert cli.main(["run", str(broken)]) == cli.EXIT_CONFIG
    negative = write_config(tmp_path, BASE.replace("radius_threshold = 400",
                                                   "radius_threshold = -5"),
                            name="negative.conf")
    assert cli.main(["run", str(negative)]) == cli.EXIT_CONFIG
    for section, key, value in (("protocol", "trust_round_interval", -5),
                                ("protocol", "test_messages", 0),
                                # each ran until a 16-bit field overflowed
                                ("protocol", "test_messages", 70000),
                                ("protocol", "mu_reading_bytes", 70000),
                                ("protocol", "pmu_reading_bytes", 70000),
                                ("radio", "loss_probability", 2), ("radio", "range_n", -5),
                                ("energy", "initial_battery", -1),
                                # every harvester booked a negative recharge
                                ("energy", "initial_battery", 2500),
                                ("energy", "recharge_rate", -1)):
        out_of_range = write_config(tmp_path, BASE + f"[{section}]\n{key} = {value}\n",
                                    name=f"{key}.conf")
        assert cli.main(["run", str(out_of_range)]) == cli.EXIT_CONFIG
    # an infinite duration is left to test_malformed_configs_rejected: at a
    # commit that accepts it, the run would never end
    for name, text in (
            ("duration_nan", BASE.replace("duration = 60", "duration = nan")),
            ("radius_nan", BASE.replace("radius_threshold = 400", "radius_threshold = nan")),
            ("interval_nan", BASE + "[attack:x]\nkind = FLOOD\ncount = 1\n"
                                    "attack_interval = nan\n"),
            ("start_nan", BASE + "[attack:x]\nkind = FLOOD\ncount = 1\nstart_time = nan\n"),
            ("start_late", BASE + "[attack:x]\nkind = FLOOD\ncount = 1\nstart_time = 1e9\n"),
            ("position_nan", BASE + "[attack:x]\nkind = EAVESDROP\nforeign = true\n"
                                    "position = nan nan\n"),
            # one attack per node, whatever its kind
            ("overlap", BASE + "[attack:f]\nkind = FLOOD\ntargets = 7\n"
                               "[attack:d]\nkind = DROP\ntargets = 7\n")):
        assert cli.main(["run", str(write_config(tmp_path, text, name=f"{name}.conf"))]) \
            == cli.EXIT_CONFIG, name
    # unreadable bytes in either file, a grid whose layout would overflow,
    # and a one-ended wormhole: each is a config error, never a traceback
    grid_text = (scenario.DATA_DIR / "ieee14.grid").read_bytes()
    (tmp_path / "latin1.grid").write_bytes(grid_text + b"# caf\xe9\n")
    (tmp_path / "huge.grid").write_bytes(grid_text + b"BUS 99 1e308 -1e308\n")
    for name, body in (
            ("latin1_config", BASE.encode() + b"# caf\xe9\n"),
            ("latin1_grid", BASE.replace("ieee14.grid", "latin1.grid").encode()),
            ("huge_grid", BASE.replace("ieee14.grid", "huge.grid").encode()),
            ("wormhole_one_end", (BASE + "[attack:w]\nkind = WORMHOLE\ncount = 1\n").encode())):
        (tmp_path / f"{name}.conf").write_bytes(body)
        capsys.readouterr()
        assert cli.main(["run", str(tmp_path / f"{name}.conf")]) == cli.EXIT_CONFIG, name
        assert capsys.readouterr().err.startswith("config error: "), name
    for name in ("latin1.grid", "huge.grid"):
        assert cli.main(["topo", str(tmp_path / name)]) == cli.EXIT_CONFIG, name
    grid_path = str(scenario.DATA_DIR / "ieee14.grid")
    assert cli.main(["topo", grid_path, "--radius", "-5"]) == cli.EXIT_CONFIG
    assert cli.main(["topo", grid_path, "--radius", "nan"]) == cli.EXIT_CONFIG
    capsys.readouterr()


def test_ledger_fault_is_a_simulation_fault(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(scenario.Channel, "conservation_errors", lambda self: [5, 9])
    config_path = write_config(tmp_path, BASE.replace("duration = 60", "duration = 20"))
    with pytest.raises(SimulationFault, match="5; 9"):
        run_scenario(load_config(config_path))
    assert cli.main(["run", str(config_path)]) == cli.EXIT_RUNTIME
    capsys.readouterr()


# SHA-1 of each file `sermt sweep --vary malicious` writes for the config
# below (BASE at 40 s, one malicious count of 2)
SWEEP_ARTIFACT_SHA1 = {
    "sweep_malicious.csv": "e7ca8b9fa315abe255a039221f0e3c7e824e2485",
    "drop_pct_malicious.svg": "ae2969d823b77a71824adf648922cf3b6fe0c3c7",
    "avg_bp_malicious.svg": "42efbb9b0adf36751fe6243a8b96dff82739a9a3",
}


def test_cli_sweep_writes_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scenario, "MALICIOUS_COUNTS", (2,))
    config_path = write_config(tmp_path, BASE.replace("duration = 60",
                                                      "duration = 40"))
    out_dir = tmp_path / "artifacts"
    code = cli.main(["sweep", str(config_path), "--vary", "malicious",
                     "--out", str(out_dir)])
    assert code == 0
    csv_text = (out_dir / "sweep_malicious.csv").read_text(encoding="utf-8")
    assert len(csv_text.splitlines()) == 3    # header + sermt + baseline
    for name in ("drop_pct_malicious.svg", "avg_bp_malicious.svg"):
        body = (out_dir / name).read_text(encoding="utf-8")
        assert body.startswith("<svg") and "</svg>" in body
    # bit-for-bit stable on a second invocation, and pinned
    cli.main(["sweep", str(config_path), "--vary", "malicious",
              "--out", str(out_dir)])
    assert (out_dir / "sweep_malicious.csv").read_text(encoding="utf-8") == csv_text
    assert {path.name: hashlib.sha1(path.read_bytes()).hexdigest()
            for path in out_dir.iterdir()} == SWEEP_ARTIFACT_SHA1
    capsys.readouterr()


def test_cli_sweep_out_collision_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scenario, "MALICIOUS_COUNTS", (2,))
    config_path = write_config(tmp_path)
    blocker = tmp_path / "occupied"
    blocker.write_text("", encoding="utf-8")
    code = cli.main(["sweep", str(config_path), "--vary", "malicious",
                     "--out", str(blocker)])
    assert code == cli.EXIT_RUNTIME
    capsys.readouterr()


def test_cli_topo_finds_grid_files_as_a_config_does(tmp_path, monkeypatch, capsys):
    # a missing path is an error, even if a shipped file has its basename
    missing = "/nonexistent/dir/ieee14.grid"
    assert cli.main(["topo", missing]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and missing in err
    # a bare name not in the working directory is the shipped file
    monkeypatch.chdir(tmp_path)
    assert cli.main(["topo", "ieee14.grid"]) == 0
    assert "substations = 11" in capsys.readouterr().out


def test_cli_topo_reports_structure(capsys):
    grid_path = scenario.DATA_DIR / "ieee14.grid"
    assert cli.main(["topo", str(grid_path), "--report"]) == 0
    out = capsys.readouterr().out
    assert "substations = 11" in out
    assert "main_cc = S1" in out and "backup_cc = S2" in out
    assert "regions = 4" in out
    assert out.count("  S") == 11 and out.count("  region ") == 4
