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
that two identical runs produce byte-identical files: bus rows by (cycle,
bus, event, txn_id), injector rows by their tuple.  A bus row sorts as one
int, ``cycle << shift | (4 * bus rank + event) * span + txn_id``, with the
events numbered in the order above and ``span`` the largest txn_id + 1;
``(bus, txn_id)`` is unique, so the low bits also index the row's text
after the cycle, built once per transaction and event.  Both CSVs stream
as a header chunk, then chunks of ``CHUNK_ROWS`` rows, so that a writer
never holds the whole text.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice

BUS_TRACE_HEADER = "cycle,bus,event,master_id,txn_id"
INJECTOR_TRACE_HEADER = "cycle,injector,stage,event"
CHUNK_ROWS = 4096


def _chunks(header: str, lines: Iterator[str]) -> Iterator[str]:
    """The header line, then the lines joined CHUNK_ROWS at a time."""
    yield header + "\n"
    while chunk := "".join(islice(lines, CHUNK_ROWS)):
        yield chunk


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

    def bus_chunks(self) -> Iterator[str]:
        """The bus trace CSV as text chunks, in canonical order."""
        log = self.bus_log
        rank = {name: i for i, name in enumerate(sorted({bus.name for bus, _ in log}))}
        span = max((t.txn_id for _, t in log), default=-1) + 1
        shift = (4 * len(rank) * span).bit_length()
        text: list[str | None] = [None] * (4 * len(rank) * span)
        keys: list[int] = []
        add = keys.append
        for bus, t in log:
            name, tid, m = bus.name, t.txn_id, t.master_id
            base = 4 * rank[name] * span + tid
            text[base] = f",{name},REQ,{m},{tid}\n"
            add(t.request_cycle << shift | base)
            if t.grant_cycle is None:
                continue
            text[base + span] = f",{name},GRANT,{m},{tid}\n"
            add(t.grant_cycle << shift | base + span)
            end = t.complete_cycle
            if bus.kind == "axi":
                low = base + 2 * span
                text[low] = f",{name},BEAT,{m},{tid}\n"
                keys.extend(range((end - t.beats + 1) << shift | low,
                                  (end + 1) << shift, 1 << shift))
            if t.done:
                text[base + 3 * span] = f",{name},COMPLETE,{m},{tid}\n"
                add(end << shift | base + 3 * span)
        keys.sort()
        mask = (1 << shift) - 1
        return _chunks(BUS_TRACE_HEADER, (f"{k >> shift}{text[k & mask]}" for k in keys))

    def injector_chunks(self) -> Iterator[str]:
        """The injector trace CSV as text chunks, in canonical order."""
        return _chunks(INJECTOR_TRACE_HEADER,
                       (f"{c},{i},{s},{e}\n" for c, i, s, e in sorted(self.injector_rows)))

    def bus_csv(self) -> str:
        return "".join(self.bus_chunks())

    def injector_csv(self) -> str:
        return "".join(self.injector_chunks())
