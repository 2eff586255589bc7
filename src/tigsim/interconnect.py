"""A cycle-level ``Bus`` of two kinds: a serializing AHB-like bus and a
split-channel AXI-like bus with outstanding transactions.

A bus is stepped in two phases per simulated cycle:

    begin_cycle(now)   retire transactions whose completion falls due
    arbitrate(now)     grant / accept pending requests for this cycle

Masters submit requests between the two phases, so a request issued at
cycle ``now`` is eligible for a grant at ``now``, and a master that
observes a completion at ``now`` may issue its next request the same
cycle with no idle gap.

Both kinds are built from one channel: per-master request queues, at
most one grant per cycle, and one data beat per cycle in grant order.
A transaction granted at cycle g nominally delivers beats at
g+L .. g+L+beats-1; later grants stall behind earlier beats.  The kinds
differ only in timing:

AHB: one channel for reads and writes that grants only while empty, so
one transaction holds the whole bus until its completion timestamp
g + L + beats, the cycle after its last beat.

AXI: one channel each for reads and writes that grant while earlier
transactions are in flight, up to O outstanding per master per channel.
The completion timestamp is the last beat cycle.

Arbitration ties break by ascending master id; round robin rotates a
pointer one past the granted master.  All behavior is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque

from .trace import TraceRecorder

BUS_WIDTH_BYTES = 4

FIXED_PRIORITY = "fixed_priority"
ROUND_ROBIN = "round_robin"
POLICIES = (FIXED_PRIORITY, ROUND_ROBIN)
KINDS = ("ahb", "axi")


class UnknownMaster(ValueError):
    """submit() was called with an unregistered master id."""


def beats_for(size_bytes: int) -> int:
    """Beats needed to move size_bytes (>= 1) over a 4-byte wide bus."""
    return -(-size_bytes // BUS_WIDTH_BYTES)


@dataclass(slots=True)
class Transaction:
    """One bus access from request to completion."""

    txn_id: int
    master_id: int
    kind: str  # 'read' | 'write'
    address: int
    beats: int
    request_cycle: int
    grant_cycle: int | None = None
    complete_cycle: int | None = None
    done: bool = False


@dataclass(frozen=True)
class TargetModel:
    """Parametric target: L cycles to the first beat, then 1 beat/cycle.
    Only ``Bus`` builds one; the benchmark reads ``bus.target.first_latency``."""

    first_latency: int = 1


class _Channel:
    """Per-master queues and in-flight counts, the count of queued requests,
    and the granted transactions in grant order (also completion order)."""

    __slots__ = ("queues", "in_flight", "waiting", "granted", "next_beat_free",
                 "rr_next")

    def __init__(self):
        self.queues: list[deque[Transaction]] = []
        self.waiting = 0
        self.in_flight: list[int] = []
        self.granted: deque[Transaction] = deque()
        self.next_beat_free = 0
        self.rr_next = 0


class Bus:
    """A bus of either kind: ``ahb`` is serial, one channel for reads and
    writes with AHB timing; ``axi`` has a read and a write channel.  A traced
    bus logs each transaction once, at submit; the trace renders its rows
    from that log.  Its arguments are a checked ``BusSpec``'s fields: it does
    not check them again."""

    def __init__(self, name: str, kind: str, latency: int,
                 policy: str = FIXED_PRIORITY, outstanding: int = 1,
                 trace: TraceRecorder | None = None):
        self.target = TargetModel(latency)
        self.name = name
        self.kind = kind
        self._serial = kind == "ahb"
        self.policy = policy
        self.outstanding = outstanding
        self.trace = trace
        self.masters: list[str] = []
        self.completed: list[Transaction] = []
        self.next_id = 0
        self._ids_twice: list[int] = []   # 0..n-1 twice: any rotation is a slice
        read = _Channel()
        self._channels = [read] if self._serial else [read, _Channel()]
        self._channel_of = {"read": read, "write": self._channels[-1]}

    def add_master(self, label: str) -> int:
        """Register a master; ids are assigned in registration order."""
        self.masters.append(label)
        for ch in self._channels:
            ch.queues.append(deque())
            ch.in_flight.append(0)
        n = len(self.masters)
        self._ids_twice = [*range(n)] * 2
        return n - 1

    def submit(self, master_id: int, kind: str, address: int,
               size_bytes: int, now: int) -> Transaction:
        if not 0 <= master_id < len(self.masters):
            raise UnknownMaster(f"master id {master_id} not registered on {self.name}")
        ch = self._channel_of[kind]
        txn = Transaction(self.next_id, master_id, kind, address & 0xFFFFFFFF,
                          beats_for(size_bytes), now)
        self.next_id += 1
        ch.queues[master_id].append(txn)
        ch.waiting += 1
        if self.trace:
            self.trace.bus(self, txn)
        return txn

    def begin_cycle(self, now: int):
        """Retire every granted transaction that completes by ``now``."""
        for ch in self._channels:
            granted = ch.granted
            while granted and granted[0].complete_cycle <= now:
                txn = granted.popleft()
                txn.done = True
                ch.in_flight[txn.master_id] -= 1
                self.completed.append(txn)

    def _pick(self, ch: _Channel) -> int | None:
        """The first master with a request and room under the cap, scanning
        from master 0 (fixed priority) or the round-robin pointer."""
        if not ch.waiting:
            return None
        queues, in_flight, cap = ch.queues, ch.in_flight, self.outstanding
        start = ch.rr_next if self.policy == ROUND_ROBIN else 0
        for m in self._ids_twice[start:start + len(queues)]:
            if queues[m] and in_flight[m] < cap:
                return m
        return None

    def arbitrate(self, now: int):
        """Grant at most one waiting request per channel."""
        for ch in self._channels:
            if self._serial and ch.granted:
                continue
            m = self._pick(ch)
            if m is None:
                continue
            txn = ch.queues[m].popleft()
            ch.waiting -= 1
            txn.grant_cycle = now
            first_beat = max(now + self.target.first_latency, ch.next_beat_free)
            last_beat = first_beat + txn.beats - 1
            ch.next_beat_free = last_beat + 1
            txn.complete_cycle = last_beat + 1 if self._serial else last_beat
            ch.in_flight[m] += 1
            ch.granted.append(txn)
            ch.rr_next = (m + 1) % len(self.masters)

    def next_event(self, now: int) -> int | None:
        """The earliest retirement, or ``now + 1`` while a channel that may
        grant has a waiting request under the cap; None when nothing is
        pending.  A request waiting at its cap waits for a retirement."""
        nxt = None
        for ch in self._channels:
            if ch.granted:
                head = ch.granted[0].complete_cycle
                if nxt is None or head < nxt:
                    nxt = head
                if self._serial:
                    continue
            if (nxt is None or now + 1 < nxt) and self._pick(ch) is not None:
                nxt = now + 1
        return nxt

    def busy_cycles_between(self, lo: int, hi: int) -> int:
        """AHB bus-occupied cycles in [lo, hi), from granted transactions."""
        return sum(max(0, min(t.complete_cycle, hi) - max(t.grant_cycle, lo))
                   for t in (*self.completed, *self._channels[0].granted))

    def state(self, now: int) -> tuple:
        """What decides this bus's future (ids relative to ``next_id``, cycles to
        ``now``, a next free beat no earlier than a later grant can use), and
        its progress: ``(next_id, len(completed))``."""
        def rel(c):
            return None if c is None else c - now
        return tuple((*[(t.txn_id - self.next_id, t.master_id, t.kind, t.address, t.beats,
                         rel(t.request_cycle), rel(t.grant_cycle), rel(t.complete_cycle))
                        for t in (*ch.granted, *[t for q in ch.queues for t in q])],
                      ch.rr_next, max(ch.next_beat_free - now, self.target.first_latency))
                     for ch in self._channels), (self.next_id, len(self.completed))

    def shift(self, k: int, progress: tuple, cycles: int):
        """Repeat k times the ``cycles``-cycle period ending now, which began
        when ``state`` gave ``progress``; move all on."""
        since, first = progress
        ids, period = self.next_id - since, self.completed[first:]
        for j in range(1, k + 1):
            dt = j * cycles
            for t in period:
                request = t.request_cycle + dt    # one int object for a same-cycle grant
                grant = request if t.grant_cycle == t.request_cycle else t.grant_cycle + dt
                self.completed.append(Transaction(
                    t.txn_id + j * ids, t.master_id, t.kind, t.address, t.beats,
                    request, grant, t.complete_cycle + dt, True))
        self.next_id += k * ids
        for ch in self._channels:
            ch.next_beat_free += k * cycles
            for t in (*ch.granted, *[t for q in ch.queues for t in q]):
                t.txn_id += k * ids
                t.request_cycle += k * cycles
                if t.grant_cycle is not None:
                    t.grant_cycle += k * cycles
                    t.complete_cycle += k * cycles
