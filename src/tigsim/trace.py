"""Event trace channel shared by the interconnects and the injectors.

Two streams are collected:

    bus log        each transaction a bus accepted, reported once at submit
    injector rows  (cycle, injector, stage, event)

The bus trace is a view of that log, rendered when it is emitted: one
transaction gives the rows (cycle, bus, event, master_id, txn_id)

    REQ       at request_cycle
    GRANT     at grant_cycle, once granted
    BEAT      at complete_cycle - beats + 1 .. complete_cycle (AXI only)
    COMPLETE  at complete_cycle, once retired

A traced run never fast-forwards, so a logged transaction holds exactly
the cycles it was given.  Both CSVs are sorted into a canonical order so
that two identical runs produce byte-identical files.
"""

from __future__ import annotations

_BUS_EVENTS = ("REQ", "GRANT", "BEAT", "COMPLETE")   # index = sort order in a cycle

BUS_TRACE_HEADER = "cycle,bus,event,master_id,txn_id"
INJECTOR_TRACE_HEADER = "cycle,injector,stage,event"


class TraceRecorder:
    """Collects the bus log and the injector rows.  A run that is not
    traced has no recorder."""

    def __init__(self):
        self.bus_log: list = []   # (bus, Transaction) in submit order
        self.injector_rows: list[tuple[int, str, str, str]] = []

    def bus(self, bus, txn):
        self.bus_log.append((bus, txn))

    def injector(self, cycle: int, injector: str, stage: str, event: str):
        self.injector_rows.append((cycle, injector, stage, event))

    def bus_csv(self) -> str:
        rows = []
        add = rows.append
        for bus, t in self.bus_log:
            name, tid, m = bus.name, t.txn_id, t.master_id
            add((t.request_cycle, name, 0, tid, m))
            if t.grant_cycle is None:
                continue
            add((t.grant_cycle, name, 1, tid, m))
            end = t.complete_cycle
            if bus.kind == "axi":
                for c in range(end - t.beats + 1, end + 1):
                    add((c, name, 2, tid, m))
            if t.done:
                add((end, name, 3, tid, m))
        rows.sort()
        lines = [BUS_TRACE_HEADER]
        lines.extend([f"{c},{b},{_BUS_EVENTS[e]},{m},{t}" for c, b, e, t, m in rows])
        return "\n".join(lines) + "\n"

    def injector_csv(self) -> str:
        lines = [INJECTOR_TRACE_HEADER]
        lines.extend(f"{c},{i},{s},{e}" for c, i, s, e in sorted(self.injector_rows))
        return "\n".join(lines) + "\n"
