"""Cycle-level interconnect models: a serializing AHB-like bus and a
split-channel AXI-like bus with outstanding transactions.

Both models are stepped in two phases per simulated cycle:

    begin_cycle(now)   retire transactions whose completion falls due
    arbitrate(now)     grant / accept pending requests for this cycle

Masters submit requests between the two phases, so a request issued at
cycle ``now`` is eligible for a grant at ``now``, and a master that
observes a completion at ``now`` may issue its next request the same
cycle with no idle gap.

AHB timing: one transaction occupies the whole bus; a grant at cycle g
holds the bus for exactly L + beats cycles and the completion timestamp
is g + L + beats (the first cycle the bus is free again).

AXI timing: each channel (read, write) accepts at most one address per
cycle and delivers at most one data beat per cycle, in acceptance order.
A transaction accepted at cycle a nominally delivers beats at
a+L .. a+L+beats-1; later transactions stall behind earlier beats.  The
completion timestamp is the last beat cycle.  A per-master cap of O
outstanding transactions per channel is enforced at acceptance.

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


class UnknownMaster(ValueError):
    """submit() was called with an unregistered master id."""


def beats_for(size_bytes: int) -> int:
    """Beats needed to move size_bytes over a 4-byte wide bus."""
    if size_bytes < 1:
        raise ValueError(f"size_bytes must be positive, got {size_bytes}")
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
    """Parametric target: L cycles to the first beat, then 1 beat/cycle."""

    first_latency: int = 1

    def __post_init__(self):
        if self.first_latency < 1:
            raise ValueError("first_latency must be >= 1")


class MasterPort:
    """A master's handle onto one bus."""

    __slots__ = ("bus", "master_id")

    def __init__(self, bus, master_id: int):
        self.bus = bus
        self.master_id = master_id

    def submit(self, kind: str, address: int, size_bytes: int, now: int) -> Transaction:
        return self.bus.submit(self.master_id, kind, address, size_bytes, now)


def _pick(eligible: list[int], policy: str, rr_next: int, n_masters: int) -> int:
    """Choose one master id; eligible is non-empty and sorted ascending."""
    if policy == FIXED_PRIORITY:
        return eligible[0]
    for step in range(n_masters):
        m = (rr_next + step) % n_masters
        if m in eligible:
            return m
    raise AssertionError("eligible masters but none selectable")


class _BusBase:
    def __init__(self, name: str, policy: str, trace: TraceRecorder | None):
        if policy not in POLICIES:
            raise ValueError(f"unknown arbitration policy: {policy!r}")
        self.name = name
        self.policy = policy
        self.trace = trace
        self.masters: list[str] = []
        self.completed: list[Transaction] = []
        self._next_id = 0

    def add_master(self, label: str) -> int:
        """Register a master; ids are assigned in registration order."""
        self.masters.append(label)
        self._added_master()
        return len(self.masters) - 1

    def port(self, master_id: int) -> MasterPort:
        return MasterPort(self, master_id)

    def _added_master(self):
        pass

    def _new_txn(self, master_id: int, kind: str, address: int,
                 size_bytes: int, now: int) -> Transaction:
        if not 0 <= master_id < len(self.masters):
            raise UnknownMaster(f"master id {master_id} not registered on {self.name}")
        if kind not in ("read", "write"):
            raise ValueError(f"transaction kind must be 'read' or 'write', got {kind!r}")
        txn = Transaction(self._next_id, master_id, kind, address & 0xFFFFFFFF,
                          beats_for(size_bytes), now)
        self._next_id += 1
        if self.trace:
            self.trace.bus(now, self.name, "REQ", master_id, txn.txn_id)
        return txn


# ---------------------------------------------------------------------------
# AHB-like occupancy bus
# ---------------------------------------------------------------------------

class AhbBus(_BusBase):
    """Single-occupancy bus: transactions serialize, one at a time."""

    kind = "ahb"

    def __init__(self, name: str, target: TargetModel | int = 1,
                 policy: str = FIXED_PRIORITY, trace: TraceRecorder | None = None):
        super().__init__(name, policy, trace)
        if isinstance(target, int):
            target = TargetModel(target)
        self.target = target
        self._queues: list[deque[Transaction]] = []
        self._active: Transaction | None = None
        self._rr_next = 0

    def _added_master(self):
        self._queues.append(deque())

    def submit(self, master_id: int, kind: str, address: int,
               size_bytes: int, now: int) -> Transaction:
        txn = self._new_txn(master_id, kind, address, size_bytes, now)
        self._queues[master_id].append(txn)
        return txn

    def begin_cycle(self, now: int):
        txn = self._active
        if txn is not None and txn.complete_cycle <= now:
            txn.done = True
            self._active = None
            self.completed.append(txn)
            if self.trace:
                self.trace.bus(txn.complete_cycle, self.name, "COMPLETE",
                               txn.master_id, txn.txn_id)

    def arbitrate(self, now: int):
        if self._active is not None:
            return
        eligible = [m for m, q in enumerate(self._queues) if q]
        if not eligible:
            return
        m = _pick(eligible, self.policy, self._rr_next, len(self.masters))
        txn = self._queues[m].popleft()
        txn.grant_cycle = now
        txn.complete_cycle = now + self.target.first_latency + txn.beats
        self._active = txn
        self._rr_next = (m + 1) % len(self.masters)
        if self.trace:
            self.trace.bus(now, self.name, "GRANT", m, txn.txn_id)

    def next_event(self, now: int) -> int | None:
        if self._active is not None:
            return self._active.complete_cycle
        if any(self._queues):
            return now + 1
        return None

    def idle(self) -> bool:
        return self._active is None and not any(self._queues)

    def busy_cycles_between(self, lo: int, hi: int) -> int:
        """Bus-occupied cycles in [lo, hi), from granted transactions."""
        total = 0
        txns = list(self.completed)
        if self._active is not None:
            txns.append(self._active)
        for t in txns:
            if t.grant_cycle is None:
                continue
            total += max(0, min(t.complete_cycle, hi) - max(t.grant_cycle, lo))
        return total


# ---------------------------------------------------------------------------
# AXI-like split read/write bus
# ---------------------------------------------------------------------------

class _AxiChannel:
    __slots__ = ("queues", "in_flight", "active", "next_beat_free", "rr_next")

    def __init__(self):
        self.queues: list[deque[Transaction]] = []
        self.in_flight: list[int] = []
        # Acceptance order, which is also completion order: each accept
        # moves next_beat_free past the previous completion.
        self.active: deque[Transaction] = deque()
        self.next_beat_free = 0
        self.rr_next = 0


class AxiBus(_BusBase):
    """Split-channel bus: reads and writes proceed independently and
    overlap up to the per-master outstanding cap."""

    kind = "axi"

    def __init__(self, name: str, target: TargetModel | int = 1,
                 policy: str = FIXED_PRIORITY, outstanding: int = 1,
                 trace: TraceRecorder | None = None):
        super().__init__(name, policy, trace)
        if isinstance(target, int):
            target = TargetModel(target)
        if outstanding < 1:
            raise ValueError("outstanding cap must be >= 1")
        self.target = target
        self.outstanding = outstanding
        self._channels = {"read": _AxiChannel(), "write": _AxiChannel()}

    def _added_master(self):
        for ch in self._channels.values():
            ch.queues.append(deque())
            ch.in_flight.append(0)

    def submit(self, master_id: int, kind: str, address: int,
               size_bytes: int, now: int) -> Transaction:
        txn = self._new_txn(master_id, kind, address, size_bytes, now)
        self._channels[kind].queues[master_id].append(txn)
        return txn

    def begin_cycle(self, now: int):
        for ch in self._channels.values():
            active = ch.active
            while active and active[0].complete_cycle <= now:
                txn = active.popleft()
                txn.done = True
                ch.in_flight[txn.master_id] -= 1
                self.completed.append(txn)
                if self.trace:
                    self.trace.bus(txn.complete_cycle, self.name, "COMPLETE",
                                   txn.master_id, txn.txn_id)

    def arbitrate(self, now: int):
        for kind in ("read", "write"):
            ch = self._channels[kind]
            eligible = [m for m, q in enumerate(ch.queues)
                        if q and ch.in_flight[m] < self.outstanding]
            if not eligible:
                continue
            m = _pick(eligible, self.policy, ch.rr_next, len(self.masters))
            txn = ch.queues[m].popleft()
            txn.grant_cycle = now
            first_beat = max(now + self.target.first_latency, ch.next_beat_free)
            txn.complete_cycle = first_beat + txn.beats - 1
            ch.next_beat_free = txn.complete_cycle + 1
            ch.in_flight[m] += 1
            ch.active.append(txn)
            ch.rr_next = (m + 1) % len(self.masters)
            if self.trace:
                self.trace.bus(now, self.name, "GRANT", m, txn.txn_id)
                for b in range(txn.beats):
                    self.trace.bus(first_beat + b, self.name, "BEAT", m, txn.txn_id)

    def next_event(self, now: int) -> int | None:
        nxt = None
        for ch in self._channels.values():
            if ch.active and (nxt is None or ch.active[0].complete_cycle < nxt):
                nxt = ch.active[0].complete_cycle
            if any(ch.queues):
                cand = now + 1
                if nxt is None or cand < nxt:
                    nxt = cand
        return nxt

    def idle(self) -> bool:
        return all(not ch.active and not any(ch.queues)
                   for ch in self._channels.values())
