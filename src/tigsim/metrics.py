"""Per-master latency/bandwidth aggregation and CSV reports.

Latency of a transaction is complete_cycle - request_cycle.  Percentiles
use the nearest-rank method (value at 1-based index ceil(q/100 * n) of
the sorted samples), which keeps results integral and reproducible.
Bandwidth divides a master's transferred bytes by its own active
interval, last completion minus first request, so masters that start at
different cycles remain comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .interconnect import BUS_WIDTH_BYTES, Transaction

CSV_HEADER = ("scenario,master,role,txn_count,bytes,avg_latency,"
              "p50,p95,max_latency,bandwidth,completion_cycle,slowdown")


def _nearest_rank(counts: dict[int, int], n: int, q) -> int | None:
    """Nearest-rank percentile of n samples held as value -> count; None if n is 0."""
    rank = max(math.ceil(q / 100 * n), 1)
    for value in sorted(counts):
        rank -= counts[value]
        if rank <= 0:
            return value


@dataclass
class MasterMetrics:
    """Aggregated timing for one master in one run."""

    role: str
    txn_count: int = 0
    total_bytes: int = 0
    latencies: dict[int, int] = field(default_factory=dict)   # latency -> transactions
    first_request: int | None = None
    completion_cycle: int | None = None
    slowdown: float | None = None

    def record(self, txn: Transaction):
        if txn.complete_cycle is None:
            raise ValueError(f"transaction {txn.txn_id} has not completed")
        self.txn_count += 1
        self.total_bytes += txn.beats * BUS_WIDTH_BYTES
        latency = txn.complete_cycle - txn.request_cycle
        self.latencies[latency] = self.latencies.get(latency, 0) + 1
        if self.first_request is None or txn.request_cycle < self.first_request:
            self.first_request = txn.request_cycle
        if self.completion_cycle is None or txn.complete_cycle > self.completion_cycle:
            self.completion_cycle = txn.complete_cycle

    @property
    def avg_latency(self) -> float | None:
        if not self.txn_count:
            return None
        return sum(lat * n for lat, n in self.latencies.items()) / self.txn_count

    @property
    def p50(self) -> int | None:
        return _nearest_rank(self.latencies, self.txn_count, 50)

    @property
    def p95(self) -> int | None:
        return _nearest_rank(self.latencies, self.txn_count, 95)

    @property
    def max_latency(self) -> int | None:
        return max(self.latencies, default=None)

    @property
    def bandwidth(self) -> float | None:
        """Bytes per cycle over this master's own active interval, which
        is at least one cycle: every latency is."""
        if not self.txn_count:
            return None
        return self.total_bytes / (self.completion_cycle - self.first_request)


@dataclass
class MetricsRecord:
    """All per-master metrics for one run plus run metadata."""

    scenario: str
    masters: dict[str, MasterMetrics]
    cycles: int = 0
    partial: bool = False

    @property
    def label(self) -> str:
        # Partial (cycle-limited) runs are flagged in the scenario column.
        return f"{self.scenario}:partial" if self.partial else self.scenario


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def emit_csv(records) -> str:
    """Exact-column CSV, rows sorted by (scenario, master)."""
    rows = []
    for rec in records:
        for name, m in rec.masters.items():
            rows.append((rec.label, name, m))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = [CSV_HEADER]
    for scenario, name, m in rows:
        lines.append(",".join([
            scenario,
            name,
            m.role,
            str(m.txn_count),
            str(m.total_bytes),
            _fmt(m.avg_latency),
            _fmt(m.p50),
            _fmt(m.p95),
            _fmt(m.max_latency),
            _fmt(m.bandwidth),
            _fmt(m.completion_cycle),
            _fmt(m.slowdown),
        ]))
    return "\n".join(lines) + "\n"

