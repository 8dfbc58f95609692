"""Run metrics: delivery counts, throughput, and battery consumption.

Metrics are collected live from the engine's world, but every headline
number can also be recomputed by replaying the text trace against the static
scenario facts (node kinds, initial batteries, energy constants) — see
`replay_trace`. `emit_csv`/`render_line_chart` produce the sweep artifacts.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .entities import MAINS_POWERED, RECHARGEABLE
from .simcore import EnergyModel
from .protocol import ProtocolEngine

SENSOR_KINDS = ("N", "ES")   # the averaging population for battery figures


def drop_percentage(sent: int, delivered: int) -> float:
    return 0.0 if sent == 0 else 100.0 * (sent - delivered) / sent


@dataclass(frozen=True)
class NodeEnergyRow:
    node_id: int
    kind: str
    consumed_mah: float
    recharged_mah: float
    final_mah: float
    alive: bool


@dataclass
class Metrics:
    duration: float
    defense: bool
    packets_sent: int
    packets_delivered: int
    packet_drop_pct: float
    throughput_bps: float                  # delivered payload bits per second
    avg_bp_consumed_per_hour: float        # mAh/h over all N + ES, dead included
    auth_rejects: int
    forged_accepts: int
    tamper_detected: int
    undeliverable_alarms: int
    isolation_alarms: int
    plaintext_exposures: int
    attack_counters: dict[str, dict[str, int]] = field(default_factory=dict)
    node_ledger: tuple[NodeEnergyRow, ...] = ()


def _avg_bp_per_hour(consumed: dict[int, float], kinds: dict[int, str],
                     duration: float) -> float:
    sensors = [nid for nid, kind in kinds.items() if kind in SENSOR_KINDS]
    if not sensors or duration <= 0:
        return 0.0
    hours = duration / 3600.0
    return sum(consumed.get(nid, 0.0) for nid in sensors) / len(sensors) / hours


def collect_metrics(engine: ProtocolEngine, attack_logs, duration: float,
                    exposures: int) -> Metrics:
    network, delivery = engine.network, engine.delivery
    ledger = tuple(
        NodeEnergyRow(node.id, node.kind, node.debited_mah, node.recharged_mah,
                      node.battery_mah, node.alive)
        for node in network.nodes.values())
    consumed = {row.node_id: row.consumed_mah for row in ledger}
    kinds = {row.node_id: row.kind for row in ledger}
    return Metrics(
        duration=duration,
        defense=engine.defense,
        packets_sent=delivery.sent,
        packets_delivered=delivery.delivered,
        packet_drop_pct=drop_percentage(delivery.sent, delivery.delivered),
        throughput_bps=(delivery.payload_bits_delivered / duration
                        if duration > 0 else 0.0),
        avg_bp_consumed_per_hour=_avg_bp_per_hour(consumed, kinds, duration),
        auth_rejects=delivery.auth_rejects,
        forged_accepts=delivery.forged_accepts,
        tamper_detected=delivery.tamper_detected,
        undeliverable_alarms=delivery.undeliverable_alarms,
        isolation_alarms=delivery.isolation_alarms,
        plaintext_exposures=exposures,
        attack_counters={log.name: log.counters() for log in attack_logs},
        node_ledger=ledger,
    )


# -- trace replay -------------------------------------------------------------------

@dataclass
class ReplayResult:
    packets_sent: int
    packets_delivered: int
    packet_drop_pct: float
    throughput_bps: float
    avg_bp_consumed_per_hour: float
    consumed_mah: dict[int, float]
    recharged_mah: dict[int, float]
    final_mah: dict[int, float]


def replay_trace(lines: list[str], *, initial_battery: dict[int, float],
                 kinds: dict[int, str], energy: EnergyModel,
                 duration: float) -> ReplayResult:
    """Recompute delivery and per-node energy from the trace text alone,
    mirroring the channel's battery arithmetic (lazy recharge, floor at
    empty, cap at capacity)."""
    battery = dict(initial_battery)
    consumed = {nid: 0.0 for nid in initial_battery}
    recharged = {nid: 0.0 for nid in initial_battery}
    last_recharge = {nid: 0.0 for nid in initial_battery}

    def recharge_to(nid: int, t: float) -> None:
        if kinds[nid] not in RECHARGEABLE:
            return
        dt = t - last_recharge[nid]
        last_recharge[nid] = t
        if dt > 0:
            gain = min(energy.recharge_rate * dt,
                       energy.battery_capacity_es - battery[nid])
            recharged[nid] += gain
            battery[nid] += gain

    def debit(nid: int, t: float, joules: float) -> None:
        if kinds[nid] in MAINS_POWERED or joules == 0.0:
            return
        recharge_to(nid, t)
        spend = min(energy.to_mah(joules), battery[nid])
        consumed[nid] += spend
        battery[nid] -= spend

    sent = delivered = bits_delivered = 0
    emitted_bits: dict[int, int] = {}
    for line in lines:
        t_text, kind, ids, outcome, joules_text = line.split(" | ")
        t = float(t_text)
        if kind == "tx":
            debit(int(ids.split("->")[0]), t, float(joules_text))
        elif kind == "rx":
            debit(int(ids.split("<-")[0]), t, float(joules_text))
        elif kind == "wormhole":
            debit(int(ids.split("=>")[1].split(":")[0]), t, float(joules_text))
        elif kind == "emit":
            sent += 1
            emitted_bits[int(ids.split(":")[1])] = int(outcome.split(":")[1])
        elif kind == "deliver":
            delivered += 1
            bits_delivered += emitted_bits[int(ids.split(":")[1])]
    for nid in sorted(initial_battery):
        recharge_to(nid, duration)

    return ReplayResult(
        packets_sent=sent,
        packets_delivered=delivered,
        packet_drop_pct=drop_percentage(sent, delivered),
        throughput_bps=bits_delivered / duration if duration > 0 else 0.0,
        avg_bp_consumed_per_hour=_avg_bp_per_hour(consumed, kinds, duration),
        consumed_mah=consumed,
        recharged_mah=recharged,
        final_mah=battery,
    )


# -- sweep table & artifacts ------------------------------------------------------

SWEEP_COLUMNS = ("sweep_value", "defense", "drop_pct", "throughput", "avg_bp")


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    defense: bool
    drop_pct: float
    throughput: float
    avg_bp: float

    @classmethod
    def from_metrics(cls, sweep_value: float, metrics: Metrics) -> "SweepRow":
        return cls(sweep_value, metrics.defense, metrics.packet_drop_pct,
                   metrics.throughput_bps, metrics.avg_bp_consumed_per_hour)


def defense_label(defense: bool) -> str:
    """How a run's defense setting is named in reports and sweep artifacts."""
    return "sermt" if defense else "baseline"


def emit_csv(rows: list[SweepRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([f"{row.sweep_value:g}",
                         defense_label(row.defense),
                         f"{row.drop_pct:.6f}",
                         f"{row.throughput:.6f}",
                         f"{row.avg_bp:.9f}"])
    return out.getvalue()


_SERIES_COLORS = ("#1f6feb", "#d1242f", "#2da44e", "#bf8700")
_CHART_WIDTH, _CHART_HEIGHT = 640, 420


def render_line_chart(series: dict[str, list[tuple[float, float]]], *,
                      title: str, x_label: str, y_label: str) -> str:
    """Minimal deterministic SVG line chart: one polyline + circle markers
    per series; a single point renders as a lone marker."""
    width, height = _CHART_WIDTH, _CHART_HEIGHT
    left, right, top, bottom = 64, 24, 40, 56
    plot_w, plot_h = width - left - right, height - top - bottom
    points = [p for pts in series.values() for p in pts]
    xs = [p[0] for p in points] or [0.0]
    ys = [p[1] for p in points] or [0.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">{y_label}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x_val, y_val = x_lo + frac * (x_hi - x_lo), y_lo + frac * (y_hi - y_lo)
        parts.append(f'<text x="{sx(x_val):.1f}" y="{top + plot_h + 16}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{x_val:.4g}</text>')
        parts.append(f'<text x="{left - 6}" y="{sy(y_val) + 3:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="10">{y_val:.4g}</text>')

    for index, (name, pts) in enumerate(sorted(series.items())):
        color = _SERIES_COLORS[index % len(_SERIES_COLORS)]
        if len(pts) > 1:
            path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            parts.append(f'<polyline points="{path}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3.5" '
                         f'fill="{color}"/>')
        parts.append(f'<text x="{left + plot_w - 4}" y="{top + 14 + 16 * index}" '
                     f'text-anchor="end" font-family="sans-serif" font-size="11" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
