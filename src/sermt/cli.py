"""Command line: `sermt run <config>`, `sermt sweep <config> --vary ... --out ...`,
`sermt topo <grid-file> --report`.

Exit codes: 0 success, 2 configuration error, 3 runtime fault (a frame
too large for the wire included). The environment variable SERMT_SEED,
when set, overrides the config seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .adversary import AttackConfigError
from .grid import TopologyError, divide_regions, find_grid_file, load_grid_file, \
    partition_substations, select_control_centers
from .metrics import defense_label, emit_csv, render_line_chart
from .scenario import ConfigError, SimulationFault, load_config, run_scenario, sweep
from .wire import FrameFormatError

EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME = 0, 2, 3

DEFAULT_REGION_RADIUS = 400.0   # matches the shipped grid files' calibration


def _seed_override() -> int | None:
    raw = os.environ.get("SERMT_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"SERMT_SEED must be an integer, got {raw!r}") from exc


def _cmd_run(args) -> int:
    config = load_config(args.config, seed_override=_seed_override())
    result = run_scenario(config)
    m = result.metrics
    print(f"seed = {config.seed}")
    print(f"defense = {defense_label(m.defense)}")
    print(f"duration_s = {m.duration:g}")
    print(f"packets_sent = {m.packets_sent}")
    print(f"packets_delivered = {m.packets_delivered}")
    print(f"packet_drop_pct = {m.packet_drop_pct:.6f}")
    print(f"throughput_bps = {m.throughput_bps:.6f}")
    print(f"avg_bp_consumed_per_hour_mah = {m.avg_bp_consumed_per_hour:.9f}")
    print(f"auth_rejects = {m.auth_rejects}")
    print(f"forged_accepts = {m.forged_accepts}")
    print(f"tamper_detected = {m.tamper_detected}")
    print(f"undeliverable_alarms = {m.undeliverable_alarms}")
    print(f"isolation_alarms = {m.isolation_alarms}")
    print(f"plaintext_exposures = {m.plaintext_exposures}")
    print(f"trace_digest = {result.trace.digest()}")
    for name in sorted(m.attack_counters):
        counters = " ".join(f"{key}={value}" for key, value
                            in sorted(m.attack_counters[name].items()))
        print(f"attack {name}: {counters}")
    if args.trace_out is not None:
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        args.trace_out.write_text(result.trace_export(), encoding="utf-8")
        print(f"trace written to {args.trace_out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = load_config(args.config, seed_override=_seed_override())
    rows, _results = sweep(config, args.vary)
    out_dir: Path = args.out
    out_dir.mkdir(parents=True, exist_ok=True)

    x_label = ("number of malicious nodes" if args.vary == "malicious"
               else "attack interval (s)")
    artifacts = {f"sweep_{args.vary}.csv": emit_csv(rows)}
    # one chart per plotted `SweepRow` field, named after it
    for column, title, y_label in (("drop_pct", "Packet drop percentage", "drop %"),
                                   ("avg_bp", "Average battery consumed per hour", "mAh/h")):
        series: dict[str, list[tuple[float, float]]] = {
            defense_label(defense): [] for defense in (True, False)}
        for row in rows:
            series[defense_label(row.defense)].append((row.sweep_value, getattr(row, column)))
        artifacts[f"{column}_{args.vary}.svg"] = render_line_chart(
            series, title=title, x_label=x_label, y_label=y_label)
    for name, text in artifacts.items():
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_topo(args) -> int:
    if not args.radius > 0:                     # NaN too
        raise ConfigError(f"--radius must be positive, got {args.radius:g}")
    topology = load_grid_file(find_grid_file(args.grid_file, Path.cwd()))
    substations = partition_substations(topology)
    main_cc, backup_cc = select_control_centers(substations)
    regions = divide_regions(substations, args.radius)
    print(f"grid: {args.grid_file}")
    print(f"buses = {len(topology.positions)}")
    print(f"branches = {len(topology.branches)}")
    print(f"substations = {len(substations)}")
    by_id = {s.id: s for s in substations}
    for label, sub_id in (("main_cc", main_cc), ("backup_cc", backup_cc)):
        buses = ",".join(str(b) for b in sorted(by_id[sub_id].bus_ids))
        print(f"{label} = S{sub_id} (buses {buses})")
    print(f"regions = {len(regions)} (radius {args.radius:g})")
    if args.report:
        for sub in substations:
            buses = ",".join(str(b) for b in sorted(sub.bus_ids))
            print(f"  S{sub.id}: buses [{buses}] connectivity {sub.connectivity}")
        for region in regions:
            members = ",".join(f"S{s}" for s in region.substation_ids)
            print(f"  region {region.id}: seed S{region.seed_substation} "
                  f"members [{members}]")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sermt",
        description="Secure remote-monitoring network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and print its metrics")
    run_p.add_argument("config", type=Path, help="scenario config file")
    run_p.add_argument("--trace-out", type=Path, default=None,
                       help="also write the full event trace to this file")
    run_p.set_defaults(handler=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a sweep and write CSV/SVG artifacts")
    sweep_p.add_argument("config", type=Path, help="base scenario config file")
    sweep_p.add_argument("--vary", choices=("malicious", "interval"), required=True)
    sweep_p.add_argument("--out", type=Path, required=True, help="output directory")
    sweep_p.set_defaults(handler=_cmd_sweep)

    topo_p = sub.add_parser("topo", help="summarize a grid topology file")
    topo_p.add_argument("grid_file", help="a path, or a name in the shipped data directory")
    topo_p.add_argument("--report", action="store_true",
                        help="list every substation and region")
    topo_p.add_argument("--radius", type=float, default=DEFAULT_REGION_RADIUS,
                        help="region radius threshold in meters")
    topo_p.set_defaults(handler=_cmd_topo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, AttackConfigError, TopologyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationFault, FrameFormatError, OSError, RuntimeError) as exc:
        print(f"runtime fault: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
