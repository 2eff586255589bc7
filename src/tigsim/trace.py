"""Event trace channel shared by the interconnects and the injectors.

Two record streams are collected:

    bus rows       (cycle, bus, event, master_id, txn_id)
                   event in {REQ, GRANT, BEAT, COMPLETE}
    injector rows  (cycle, injector, stage, event)

Rows may be recorded out of cycle order (beat cycles are known at
acceptance time); CSV output is sorted into a canonical order so that two
identical runs produce byte-identical files.
"""

from __future__ import annotations

_BUS_EVENT_ORDER = {"REQ": 0, "GRANT": 1, "BEAT": 2, "COMPLETE": 3}

BUS_TRACE_HEADER = "cycle,bus,event,master_id,txn_id"
INJECTOR_TRACE_HEADER = "cycle,injector,stage,event"


class TraceRecorder:
    """Collects trace rows.  A run that is not traced has no recorder."""

    def __init__(self):
        self.bus_rows: list[tuple[int, str, str, int, int]] = []
        self.injector_rows: list[tuple[int, str, str, str]] = []

    def bus(self, cycle: int, bus: str, event: str, master_id: int, txn_id: int):
        self.bus_rows.append((cycle, bus, event, master_id, txn_id))

    def injector(self, cycle: int, injector: str, stage: str, event: str):
        self.injector_rows.append((cycle, injector, stage, event))

    def bus_csv(self) -> str:
        rows = sorted(
            self.bus_rows,
            key=lambda r: (r[0], r[1], _BUS_EVENT_ORDER[r[2]], r[4], r[3]),
        )
        lines = [BUS_TRACE_HEADER]
        lines.extend(f"{c},{b},{e},{m},{t}" for c, b, e, m, t in rows)
        return "\n".join(lines) + "\n"

    def injector_csv(self) -> str:
        lines = [INJECTOR_TRACE_HEADER]
        lines.extend(f"{c},{i},{s},{e}" for c, i, s, e in sorted(self.injector_rows))
        return "\n".join(lines) + "\n"
