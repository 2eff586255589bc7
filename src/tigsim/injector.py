"""Cycle-level model of the programmable traffic injector.

The injector owns a 256-word descriptor buffer and a control/status
register file, both reachable only through a dedicated configuration
port (``apb_read`` / ``apb_write``).  Configuration accesses are free:
they consume no data-bus cycles and touch no data-bus state.

Register map (configuration-port byte offsets; see register-map.md):

    CTRL    0x000  bit0 EN, bit1 RST (write-1, self-clearing), bit2 LOOP,
                   bit3 IRQ_EN, bit4 PIPE_EN (reset value: PIPE_EN set)
    STATUS  0x004  read-only: bit0 DONE, bit1 ERR, bit2 BUSY, bit3 IRQ,
                   bits7:4 engine state code, bits31:16 completed count
                   (saturating at 0xFFFF)
    ERRINFO 0x008  read-only: buffer word index of the faulting descriptor
    CAP     0x00C  read-only: buffer capacity in words (256)
    BUFFER  0x400..0x7FC  the descriptor window, plain word storage

Reads of undefined offsets return 0; writes to read-only or undefined
offsets are ignored; offsets at or beyond 0x800 raise OffsetOutOfRange.

Execution engine.  Descriptors pass through fetch (1 cycle), decode (1
cycle), and execute.  Execute presents one data-bus request per
repetition, back to back, or counts down delay cycles for DELAY.  One
record carries a descriptor through the stages: a fetch makes it from
the buffer words, decode adds the descriptor one cycle later, and
execute takes the same record one cycle after that and counts
repetitions on it.  At most one fetched record waits beside the
executing one.  In pipelined mode (PIPE_EN=1) the fetch of descriptor
i+1 happens when i starts executing, so consecutive descriptors issue
with no idle gap whenever execution lasts at least two cycles.  In
legacy mode the fetch of i+1 happens when i retires, which costs a
two-cycle bubble between descriptors.  Any retirement with nothing
prefetched fetches, so PIPE_EN and LOOP may change mid-run.  Invalid
descriptors set ERR and halt injection.  With LOOP set the program wraps
from the last descriptor back to index 0 and DONE is never raised.

Timing reference (pipelined, one single-beat descriptor, bus occupancy
2 cycles, enabled before cycle 0): fetch at cycle 0, decode at 1, bus
request at 2, bus busy 2..3, DONE observable at cycle 4.
"""

from __future__ import annotations

from . import descriptors as dm
from .trace import TraceRecorder

# ---------------------------------------------------------------------------
# Register map
# ---------------------------------------------------------------------------

CTRL_OFFSET = 0x000
STATUS_OFFSET = 0x004
ERRINFO_OFFSET = 0x008
CAP_OFFSET = 0x00C
BUFFER_BASE = 0x400
BUFFER_WORDS = 256
APB_SPAN = 0x800

CTRL_EN = 1 << 0
CTRL_RST = 1 << 1
CTRL_LOOP = 1 << 2
CTRL_IRQ_EN = 1 << 3
CTRL_PIPE_EN = 1 << 4
CTRL_WRITABLE = CTRL_EN | CTRL_LOOP | CTRL_IRQ_EN | CTRL_PIPE_EN
CTRL_RESET_VALUE = CTRL_PIPE_EN

STATUS_DONE = 1 << 0
STATUS_ERR = 1 << 1
STATUS_BUSY = 1 << 2
STATUS_IRQ = 1 << 3

FSM_IDLE = 0
FSM_FETCH = 1
FSM_DECODE = 2
FSM_EXEC = 3
FSM_DONE = 4
FSM_ERROR = 5

COMPLETED_MAX = 0xFFFF


class OffsetOutOfRange(ValueError):
    """Configuration-port access outside the 0x000..0x7FC window."""


class CapacityExceeded(ValueError):
    """A descriptor program does not fit the 256-word buffer."""


class _Stage:
    """One descriptor in the engine.  A fetch makes it with its buffer words
    (None past the buffer end) and the cycle after the fetch, from which
    decode may take it; decode sets the descriptor and its first address;
    execute takes the record as it is and counts repetitions, the pending
    bus transaction and the end of a delay on it.  A step runs execute
    before decode, so a decoded record starts at the next step."""

    __slots__ = ("index", "words", "ready_at", "desc", "addr", "rep", "txn", "delay_end")

    def __init__(self, index, words, ready_at):
        self.index = index
        self.words = words
        self.ready_at = ready_at
        self.desc = None
        self.rep = 0
        self.delay_end = None


class Injector:
    """One traffic injector instance bound to at most one data bus."""

    def __init__(self, name: str = "inj", bus=None, master_id: int = 0,
                 trace: TraceRecorder | None = None):
        """Requests go to ``bus.submit`` as master ``master_id``; with no
        bus, only the configuration port works."""
        self.name = name
        self.bus = bus
        self.master_id = master_id
        self.trace = trace
        self.buffer = [0] * BUFFER_WORDS
        self._ctrl = CTRL_RESET_VALUE
        self._decoded = {None: "off buffer end"}    # words: descriptor, or why none
        self._clear_run_state()

    # -- configuration port -------------------------------------------------

    def apb_write(self, offset: int, value: int):
        """Register/buffer write; takes effect before the next cycle."""
        self._check_offset(offset)
        value &= 0xFFFFFFFF
        if offset == CTRL_OFFSET:
            self._write_ctrl(value)
        elif BUFFER_BASE <= offset < BUFFER_BASE + 4 * BUFFER_WORDS and offset % 4 == 0:
            self.buffer[(offset - BUFFER_BASE) // 4] = value
        # STATUS/ERRINFO/CAP and undefined offsets: ignored

    def apb_read(self, offset: int) -> int:
        self._check_offset(offset)
        if offset == CTRL_OFFSET:
            return self._ctrl
        if offset == STATUS_OFFSET:
            return self._status_value()
        if offset == ERRINFO_OFFSET:
            return self._errinfo
        if offset == CAP_OFFSET:
            return BUFFER_WORDS
        if BUFFER_BASE <= offset < BUFFER_BASE + 4 * BUFFER_WORDS and offset % 4 == 0:
            return self.buffer[(offset - BUFFER_BASE) // 4]
        return 0

    @staticmethod
    def _check_offset(offset: int):
        if not 0 <= offset < APB_SPAN:
            raise OffsetOutOfRange(f"offset {offset:#x} outside 0x000..0x7fc")

    def _write_ctrl(self, value: int):
        if value & CTRL_RST:
            # Reset wins over any other bit in the same write; the buffer
            # contents survive, everything else returns to power-on state.
            self._ctrl = CTRL_RESET_VALUE
            self._clear_run_state()
            return
        old = self._ctrl
        self._ctrl = value & CTRL_WRITABLE
        if value & CTRL_EN and not old & CTRL_EN:
            self._clear_run_state()
            self._armed = True
        elif not value & CTRL_EN and old & CTRL_EN:
            # Disable freezes the engine; status flags are preserved.
            self._next = None
            self._exec = None
            self._armed = False

    def _clear_run_state(self):
        self._next: _Stage | None = None     # fetched, perhaps decoded
        self._exec: _Stage | None = None     # executing
        self._armed = False
        self._done = False
        self._err = False
        self._irq = False
        self._errinfo = 0
        self._completed = 0

    # -- status -------------------------------------------------------------
    # Software, the harness's injector host included, sees the engine only
    # through CTRL, STATUS and ERRINFO.

    def _fsm_code(self) -> int:
        if self._err:
            return FSM_ERROR
        if self._done:
            return FSM_DONE
        if self._exec is not None:
            return FSM_EXEC
        if self._next is not None:
            return FSM_FETCH if self._next.desc is None else FSM_DECODE
        return FSM_FETCH if self._armed else FSM_IDLE

    def _status_value(self) -> int:
        busy = (self._ctrl & CTRL_EN and not self._done and not self._err
                and (self._armed or self._next is not None or self._exec is not None))
        return (
            (STATUS_DONE if self._done else 0)
            | (STATUS_ERR if self._err else 0)
            | (STATUS_BUSY if busy else 0)
            | (STATUS_IRQ if self._irq else 0)
            | (self._fsm_code() << 4)
            | (self._completed << 16)
        )

    def state(self, now: int) -> tuple:
        """What decides the engine's future, buffer aside, relative to ``now``."""
        nxt, st = self._next, self._exec
        return (self._ctrl, self._armed, self._done, self._err, self._irq, self._errinfo,
                nxt and (nxt.index, nxt.words, nxt.desc is None, nxt.ready_at - now),
                st and (st.index, st.rep, st.addr, st.delay_end and st.delay_end - now))

    def shift(self, completed: int, cycles: int):
        """Move the engine ``cycles`` on, ``completed`` more descriptors retired."""
        self._completed = min(self._completed + completed, COMPLETED_MAX)
        if self._next is not None:
            self._next.ready_at += cycles
        if self._exec is not None and self._exec.delay_end is not None:
            self._exec.delay_end += cycles

    # -- engine -------------------------------------------------------------

    def step(self, now: int):
        """Advance the engine at cycle ``now`` (call once per cycle)."""
        if self._armed:
            self._armed = False
            if self.trace:
                self.trace.injector(now, self.name, "CTRL", "start")
            self._fetch_desc(0, now)
        if not self._ctrl & CTRL_EN or self._err or self._done:
            return
        self._run_exec(now)
        nxt = self._next
        if nxt is not None and nxt.desc is None and nxt.ready_at <= now:
            self._decode(nxt, now)

    def next_event(self, now: int) -> int | None:
        """Earliest future cycle at which step() would make progress.

        Waits on in-flight bus transactions are excluded: the bus reports
        those completion cycles itself.
        """
        if not self._ctrl & CTRL_EN or self._err or self._done:
            return None
        if self._armed:
            return now + 1
        due = None
        nxt, st = self._next, self._exec
        if nxt is not None and (nxt.desc is None or st is None):
            due = nxt.ready_at
        end = st.delay_end if st is not None else None
        if end is not None and (due is None or end < due):
            due = end
        return None if due is None else max(now + 1, due)

    def _run_exec(self, now: int):
        st = self._exec
        if st is not None:
            desc = st.desc
            if st.delay_end is None:
                if not st.txn.done:
                    return
                st.rep += 1
                if st.rep < desc.reps:
                    if not desc.kind.is_fixed:
                        st.addr = (st.addr + desc.size_bytes) & 0xFFFFFFFF
                    self._issue(st, now)
                    return
            elif now < st.delay_end:
                return
            # Retire the descriptor.
            self._exec = None
            self._completed = min(self._completed + 1, COMPLETED_MAX)
            if desc.irq_on_done and self._ctrl & CTRL_IRQ_EN:
                self._irq = True
            if self.trace:
                self.trace.injector(now, self.name, "EXEC", f"desc_done idx={st.index}")
            if desc.last and not self._ctrl & CTRL_LOOP:
                self._done = True
                if self.trace:
                    self.trace.injector(now, self.name, "CTRL", "done")
                return
            if self._next is None:
                # Legacy mode, or PIPE_EN/LOOP set since this descriptor
                # started.  The fresh record is not decoded: nothing starts below.
                self._fetch_desc(self._next_index(desc, st.index), now)
        # Start the prefetched descriptor once it is decoded (at an earlier step).
        nxt = self._next
        if nxt is None or nxt.desc is None:
            return
        self._next = None
        self._exec = nxt
        if self._ctrl & CTRL_PIPE_EN:
            self._fetch_desc(self._next_index(nxt.desc, nxt.index), now)
        self._issue(nxt, now)

    def _issue(self, st: _Stage, now: int):
        desc = st.desc
        if desc.kind is dm.Kind.DELAY:
            st.delay_end = now + desc.delay_cycles * desc.reps
            if self.trace:
                self.trace.injector(now, self.name, "EXEC",
                                    f"delay idx={st.index} until={st.delay_end}")
            return
        if self.bus is None:
            raise RuntimeError(f"injector {self.name} has no data bus")
        st.txn = self.bus.submit(self.master_id, desc.kind.bus_kind, st.addr,
                                 desc.size_bytes, now)
        if self.trace:
            self.trace.injector(now, self.name, "EXEC",
                                f"issue idx={st.index} rep={st.rep} addr={st.addr:#010x}")

    def _next_index(self, desc: dm.Descriptor, index: int) -> int | None:
        if desc.last:
            return 0 if self._ctrl & CTRL_LOOP else None
        return index + 1

    def _fetch_desc(self, index: int | None, now: int):
        if index is None:
            return
        # Past the buffer end there are no words, and decode faults.
        words = tuple(self.buffer[2 * index:2 * index + 2]) or None
        self._next = _Stage(index, words, now + 1)
        if self.trace:
            self.trace.injector(now, self.name, "FETCH", f"idx={index}")

    def _decode(self, st: _Stage, now: int):
        desc = self._decoded.get(st.words)
        if desc is None:
            try:
                desc = dm.decode(st.words)
            except dm.DescriptorError as exc:
                desc = str(exc)
            self._decoded[st.words] = desc
        if isinstance(desc, str):
            self._fail(st.index, now, desc)
            return
        st.desc = desc
        st.addr = desc.address
        if self.trace:
            self.trace.injector(now, self.name, "DECODE", f"idx={st.index}")

    def _fail(self, index: int, now: int, reason: str):
        self._err = True
        self._errinfo = min(2 * index, 0xFFFFFFFF)
        if self.trace:
            self.trace.injector(now, self.name, "CTRL", f"err idx={index} {reason}")
