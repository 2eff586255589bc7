"""Injector register file and fetch/decode/execute engine timing."""

import random

import pytest

from tigsim import descriptors as dm
from tigsim import pattern as pat
from tigsim.injector import (
    BUFFER_BASE,
    BUFFER_WORDS,
    CAP_OFFSET,
    CTRL_EN,
    CTRL_IRQ_EN,
    CTRL_LOOP,
    CTRL_OFFSET,
    CTRL_PIPE_EN,
    CTRL_RST,
    ERRINFO_OFFSET,
    STATUS_BUSY,
    STATUS_DONE,
    STATUS_ERR,
    STATUS_OFFSET,
    Injector,
    OffsetOutOfRange,
)
from tigsim.interconnect import Bus
from tigsim.trace import TraceRecorder


def make_rig(descriptors, flags=("pipe",), latency=1, policy="fixed_priority", trace=None):
    bus = Bus("ahb", "ahb", latency, policy=policy)
    master_id = bus.add_master("inj")
    inj = Injector("inj", bus=bus, master_id=master_id, trace=trace)
    for off, val in pat.emit_apb_sequence(descriptors, flags):
        inj.apb_write(off, val)
    return inj, bus


def run_cycles(inj, bus, cycles, stop_when_done=True):
    for now in range(cycles):
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
        if stop_when_done and inj.apb_read(STATUS_OFFSET) & (STATUS_DONE | STATUS_ERR):
            return now
    return None


def done(inj):
    return bool(inj.apb_read(STATUS_OFFSET) & STATUS_DONE)


def completed(inj):
    """STATUS bits 31:16: descriptors retired, saturating at 0xFFFF."""
    return inj.apb_read(STATUS_OFFSET) >> 16


def writes(n, size=4, reps=1):
    return [dm.Descriptor(dm.Kind.WRITE, address=0x40000000 + 0x100 * i,
                          size_bytes=size, reps=reps, last=(i == n - 1))
            for i in range(n)]


# ---------------------------------------------------------------------------
# register file
# ---------------------------------------------------------------------------

def test_reset_clears_status_and_fsm():
    inj = Injector()
    inj.apb_write(CTRL_OFFSET, CTRL_RST)
    assert inj.apb_read(STATUS_OFFSET) == 0
    assert inj.apb_read(CTRL_OFFSET) == CTRL_PIPE_EN  # power-on value


def test_buffer_write_read_back():
    inj = Injector()
    inj.apb_write(0x400, 0xDEADBEEF)
    assert inj.apb_read(0x400) == 0xDEADBEEF
    inj.apb_write(0x7FC, 123)
    assert inj.apb_read(0x7FC) == 123
    inj.apb_write(0x400, 2**32 + 5)     # the port keeps the low 32 bits
    assert inj.apb_read(0x400) == 5


def test_cap_reads_capacity():
    assert Injector().apb_read(CAP_OFFSET) == BUFFER_WORDS == 256


def test_undefined_offset_reads_zero():
    inj = Injector()
    assert inj.apb_read(0x010) == 0
    assert inj.apb_read(0x200) == 0


def test_read_only_writes_ignored():
    inj = Injector()
    inj.apb_write(STATUS_OFFSET, 0xFFFFFFFF)
    inj.apb_write(CAP_OFFSET, 0)
    assert inj.apb_read(STATUS_OFFSET) == 0
    assert inj.apb_read(CAP_OFFSET) == 256


@pytest.mark.parametrize("offset", [0x800, 0x1000, -4])
def test_offset_out_of_range(offset):
    inj = Injector()
    with pytest.raises(OffsetOutOfRange):
        inj.apb_read(offset)
    with pytest.raises(OffsetOutOfRange):
        inj.apb_write(offset, 0)


def test_enable_with_empty_program_sets_err():
    inj = Injector()
    inj.apb_write(CTRL_OFFSET, CTRL_EN)
    inj.step(0)
    inj.step(1)
    status = inj.apb_read(STATUS_OFFSET)
    assert status & STATUS_ERR
    assert not status & STATUS_BUSY
    assert inj.apb_read(ERRINFO_OFFSET) == 0


def test_reset_idempotent_and_clears_err():
    inj = Injector()
    inj.apb_write(0x400, 0xABCD)
    inj.apb_write(CTRL_OFFSET, CTRL_EN)
    inj.step(0)
    inj.step(1)
    assert inj.apb_read(STATUS_OFFSET) & STATUS_ERR
    inj.apb_write(CTRL_OFFSET, CTRL_RST)
    assert inj.apb_read(STATUS_OFFSET) == 0
    assert inj.apb_read(0x400) == 0xABCD  # buffer preserved
    snapshot = inj.apb_read(CTRL_OFFSET)
    inj.apb_write(CTRL_OFFSET, CTRL_RST)
    assert inj.apb_read(CTRL_OFFSET) == snapshot


def test_rst_bit_wins_over_other_bits():
    inj = Injector()
    inj.apb_write(CTRL_OFFSET, CTRL_LOOP | CTRL_IRQ_EN)
    inj.apb_write(CTRL_OFFSET, CTRL_RST | CTRL_EN | CTRL_LOOP)
    assert inj.apb_read(CTRL_OFFSET) == CTRL_PIPE_EN == 0x10
    assert not inj.apb_read(CTRL_OFFSET) & CTRL_EN


def test_an_enabled_injector_is_due_next_cycle():
    """EN arms the engine, which starts at the next step."""
    inj = Injector()
    for off, val in pat.emit_apb_sequence(writes(1)):
        inj.apb_write(off, val)
    assert inj.next_event(7) == 8


def test_an_injector_without_a_bus_cannot_issue():
    inj = Injector("lone")
    for off, val in pat.emit_apb_sequence([dm.Descriptor(dm.Kind.READ, last=True)]):
        inj.apb_write(off, val)
    inj.step(0)
    inj.step(1)
    with pytest.raises(RuntimeError, match="injector lone has no data bus"):
        inj.step(2)


# ---------------------------------------------------------------------------
# engine timing
# ---------------------------------------------------------------------------

def test_single_write_timeline():
    """Occupancy 2 (L=1, 1 beat): fetch c0, decode c1, request c2,
    busy c2..c3, DONE at c4, each logged in the injector trace."""
    trace = TraceRecorder()
    inj, bus = make_rig(writes(1), trace=trace)
    done_at = run_cycles(inj, bus, 20)
    assert trace.injector_csv().splitlines()[1:] == [
        "0,inj,CTRL,start", "0,inj,FETCH,idx=0", "1,inj,DECODE,idx=0",
        "2,inj,EXEC,issue idx=0 rep=0 addr=0x40000000",
        "4,inj,CTRL,done", "4,inj,EXEC,desc_done idx=0"]
    txn = bus.completed[0]
    assert txn.request_cycle == 2
    assert txn.grant_cycle == 2
    assert txn.complete_cycle == 4
    assert done_at == 4
    status = inj.apb_read(STATUS_OFFSET)
    assert status & STATUS_DONE
    assert status >> 16 == 1  # completed-descriptor count


def test_pipelined_back_to_back_requests():
    inj, bus = make_rig(writes(6), flags=("pipe",))
    run_cycles(inj, bus, 50)
    grants = [t.grant_cycle for t in bus.completed]
    assert grants == [2, 4, 6, 8, 10, 12]
    # zero idle cycles between consecutive descriptors
    for prev, cur in zip(bus.completed, bus.completed[1:]):
        assert cur.grant_cycle - prev.complete_cycle == 0


def test_legacy_two_cycle_bubble():
    inj, bus = make_rig(writes(6), flags=())
    run_cycles(inj, bus, 50)
    grants = [t.grant_cycle for t in bus.completed]
    assert grants == [2, 6, 10, 14, 18, 22]
    for prev, cur in zip(bus.completed, bus.completed[1:]):
        assert cur.grant_cycle - prev.complete_cycle == 2


def test_hundred_writes_pipelined_and_legacy_makespans():
    inj, bus = make_rig(writes(100), flags=("pipe",))
    assert run_cycles(inj, bus, 500) == 202
    inj, bus = make_rig(writes(100), flags=())
    assert run_cycles(inj, bus, 500) == 400


def test_repetitions_back_to_back_in_both_modes():
    desc = [dm.Descriptor(dm.Kind.WRITE, address=0x1000, size_bytes=4,
                          reps=4, last=True)]
    for flags in (("pipe",), ()):
        inj, bus = make_rig(desc, flags=flags)
        run_cycles(inj, bus, 50)
        grants = [t.grant_cycle for t in bus.completed]
        assert grants == [2, 4, 6, 8], flags


def test_nonfix_advances_address_fix_does_not():
    stream = [dm.Descriptor(dm.Kind.WRITE, address=0x1000, size_bytes=8,
                            reps=3, last=True)]
    inj, bus = make_rig(stream)
    run_cycles(inj, bus, 60)
    assert [t.address for t in bus.completed] == [0x1000, 0x1008, 0x1010]

    fixed = [dm.Descriptor(dm.Kind.WRITE_FIX, address=0x1000, size_bytes=8,
                           reps=3, last=True)]
    inj, bus = make_rig(fixed)
    run_cycles(inj, bus, 60)
    assert [t.address for t in bus.completed] == [0x1000, 0x1000, 0x1000]


def test_delay_defers_next_request_exactly():
    descs = [dm.Descriptor.delay(100),
             dm.Descriptor(dm.Kind.READ, address=0x2000, last=True)]
    inj, bus = make_rig(descs)
    run_cycles(inj, bus, 200)
    # DELAY enters execute at c2; the read issues exactly 100 cycles later
    assert bus.completed[0].request_cycle == 102


def test_delay_repetitions_multiply():
    descs = [dm.Descriptor.delay(10, reps=3),
             dm.Descriptor(dm.Kind.READ, address=0x2000, last=True)]
    inj, bus = make_rig(descs)
    run_cycles(inj, bus, 100)
    assert bus.completed[0].request_cycle == 2 + 30


def test_loop_wraps_without_done():
    inj, bus = make_rig(writes(2), flags=("pipe", "loop"))
    for now in range(40):
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
    assert not done(inj)
    grants = [t.grant_cycle for t in bus.completed]
    assert grants == list(range(2, grants[-1] + 1, 2))  # still back to back
    assert completed(inj) == len(bus.completed)


def test_loop_legacy_keeps_inter_descriptor_bubble():
    inj, bus = make_rig(writes(1), flags=("loop",))
    for now in range(30):
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
    assert [t.grant_cycle for t in bus.completed] == [2, 6, 10, 14, 18, 22, 26]


def test_completed_count_saturates():
    inj, bus = make_rig(writes(1), flags=("pipe", "loop"))
    # one descriptor completes every 2 cycles; overshoot the 16-bit cap
    last = 0
    for now in range(2 * 0xFFFF + 400):
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
        assert completed(inj) >= last  # monotone up to saturation
        last = completed(inj)
    assert completed(inj) == 0xFFFF


def test_irq_flag_set_on_flagged_descriptor():
    descs = [dm.Descriptor(dm.Kind.WRITE, address=0x10, last=True,
                           irq_on_done=True)]
    inj, bus = make_rig(descs, flags=("pipe", "irq"))
    run_cycles(inj, bus, 20)
    assert inj.apb_read(STATUS_OFFSET) & (1 << 3)


def test_irq_flag_gated_by_irq_en():
    descs = [dm.Descriptor(dm.Kind.WRITE, address=0x10, last=True,
                           irq_on_done=True)]
    inj, bus = make_rig(descs, flags=("pipe",))
    run_cycles(inj, bus, 20)
    assert not inj.apb_read(STATUS_OFFSET) & (1 << 3)


def test_decode_error_mid_program_reports_word_index():
    """Descriptor 2 faults at its decode while 1 executes: STATUS shows
    ERR and state ERROR (5), not BUSY."""
    descs = writes(3)
    inj, bus = make_rig(descs)
    inj.apb_write(BUFFER_BASE + 8 * 2, 0)  # clobber descriptor 2's word0
    run_cycles(inj, bus, 60)
    status = inj.apb_read(STATUS_OFFSET)
    assert status & (STATUS_ERR | STATUS_BUSY | STATUS_DONE) == STATUS_ERR
    assert (status >> 4) & 0xF == 5
    assert inj.apb_read(ERRINFO_OFFSET) == 4  # buffer word index 2*2


def test_determinism_identical_runs():
    a = [t.grant_cycle for t in make_and_run()]
    b = [t.grant_cycle for t in make_and_run()]
    assert a == b


def make_and_run():
    inj, bus = make_rig(writes(10), flags=("pipe",))
    run_cycles(inj, bus, 100)
    return bus.completed


def test_disable_freezes_reenable_restarts():
    inj, bus = make_rig(writes(4), flags=("pipe",))
    for now in range(6):
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
    issued_before = len(bus.completed) + 1  # one still in flight
    inj.apb_write(CTRL_OFFSET, CTRL_PIPE_EN)  # EN=0
    for now in range(6, 30):
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
    assert len(bus.completed) == issued_before  # in-flight one drained, no more
    inj.apb_write(CTRL_OFFSET, CTRL_EN | CTRL_PIPE_EN)  # restart from index 0
    for now in range(30, 80):
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
        if done(inj):
            break
    assert done(inj)
    assert completed(inj) == 4  # cleared on the rising edge, full rerun
    restart = bus.completed[issued_before]
    assert restart.request_cycle == 32  # fetch 30, decode 31, request 32


def test_reset_mid_run_halts_issuing():
    inj, bus = make_rig(writes(10), flags=("pipe",))
    for now in range(5):
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
    inj.apb_write(CTRL_OFFSET, CTRL_RST)
    count_at_reset = len(bus.completed) + 1  # the granted one still drains
    for now in range(5, 40):
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
    assert len(bus.completed) == count_at_reset
    assert inj.apb_read(STATUS_OFFSET) == 0


@pytest.mark.parametrize("value", [CTRL_PIPE_EN, CTRL_RST], ids=["clear_en", "rst"])
@pytest.mark.parametrize("at", [0, 1, 3])
def test_a_write_that_stops_the_engine_drops_its_pending_work(at, value):
    """The write lands before the step at ``at``: 0 is before the first
    step, 1 between the fetch of descriptor 0 and its decode, 3 between
    the fetch of descriptor 1 and its decode while 0 executes.  No stage
    runs after it, STATUS reads state IDLE, and no request follows."""
    trace = TraceRecorder()
    inj, bus = make_rig(writes(2), trace=trace)
    for now in range(20):
        if now == at:
            inj.apb_write(CTRL_OFFSET, value)
            requests = bus.next_id
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
    rows = [row.split(",") for row in trace.injector_csv().splitlines()[1:]]
    assert [r for r in rows if int(r[0]) >= at and r[2] in ("FETCH", "DECODE")] == []
    assert (inj.apb_read(STATUS_OFFSET) >> 4) & 0xF == 0
    assert bus.next_id == requests


def test_loop_refetches_buffer_each_wrap():
    """The buffer is plain storage: a LOOP wrap re-reads it, so rewriting
    a descriptor mid-run redirects later iterations."""
    descs = [dm.Descriptor(dm.Kind.WRITE_FIX, address=0x1000, size_bytes=4,
                           last=True)]
    inj, bus = make_rig(descs, flags=("pipe", "loop"))
    for now in range(8):
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
    w = dm.encode(dm.Descriptor(dm.Kind.WRITE_FIX, address=0x2000,
                                size_bytes=4, last=True))
    inj.apb_write(BUFFER_BASE, w.word0)
    inj.apb_write(BUFFER_BASE + 4, w.word1)
    for now in range(8, 30):
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
    addresses = [t.address for t in bus.completed]
    assert 0x1000 in addresses and 0x2000 in addresses
    switch = addresses.index(0x2000)
    assert all(a == 0x2000 for a in addresses[switch:])


def count_decodes(monkeypatch) -> list:
    calls = []
    decode = dm.decode
    monkeypatch.setattr(dm, "decode", lambda w: (calls.append(w), decode(w))[1])
    return calls


def test_looping_program_decodes_each_word_pair_once(monkeypatch):
    """Decode is a function of the two buffer words, so a looping program
    decodes each distinct pair once however many passes it makes."""
    calls = count_decodes(monkeypatch)
    same = dm.Descriptor(dm.Kind.WRITE_FIX, address=0x1000, size_bytes=4)
    descs = [same, same, dm.Descriptor.delay(3),
             dm.Descriptor(dm.Kind.READ, address=0x2000, size_bytes=8, last=True)]
    inj, bus = make_rig(descs, flags=("pipe", "loop"))
    run_cycles(inj, bus, 400)
    assert len(bus.completed) > 40 and not inj.apb_read(STATUS_OFFSET) & STATUS_ERR
    assert len(calls) == 3


def test_rewritten_buffer_word_is_decoded_fresh(monkeypatch):
    """A buffer write mid-run takes effect at the next fetch of that
    descriptor, also when the new pair is malformed."""
    calls = count_decodes(monkeypatch)
    descs = [dm.Descriptor(dm.Kind.WRITE_FIX, address=0x1000, size_bytes=4),
             dm.Descriptor(dm.Kind.WRITE_FIX, address=0x3000, size_bytes=4, last=True)]
    inj, bus = make_rig(descs, flags=("pipe", "loop"))
    inj.trace = TraceRecorder()
    run_cycles(inj, bus, 20)
    inj.apb_write(BUFFER_BASE + 4, 0x2000)      # descriptor 0's address word
    for now in range(20, 40):
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
    addresses = [t.address for t in bus.completed]
    switch = addresses.index(0x2000)
    assert 0x1000 in addresses[:switch] and 0x1000 not in addresses[switch:]
    assert len(calls) == 3
    inj.apb_write(BUFFER_BASE + 8, 0xFFFF_FFFF)  # descriptor 1: reserved bits set
    for now in range(40, 60):
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
    assert inj.apb_read(STATUS_OFFSET) & STATUS_ERR and inj.apb_read(ERRINFO_OFFSET) == 2
    errors = [row for row in inj.trace.injector_rows if row[3].startswith("err")]
    assert [row[3] for row in errors] == [
        "err idx=1 reserved bits set in word0: 0xffffffff"]


@pytest.mark.parametrize("words, reason", [
    ((0x0, 0), "kind code 0"),
    ((0xE, 5), "kind code 7"),
    ((0x2, 0), "delay out of range: 0"),        # a DELAY of zero cycles
], ids=["kind-0", "kind-7", "delay-0"])
def test_decode_stage_err_rows(words, reason):
    """A word pair that decodes to no valid descriptor stops the engine at
    the decode stage, with one ERR row naming the fault and no DECODE row."""
    trace = TraceRecorder()
    inj = Injector(trace=trace)
    inj.apb_write(BUFFER_BASE, words[0])
    inj.apb_write(BUFFER_BASE + 4, words[1])
    inj.apb_write(CTRL_OFFSET, CTRL_EN | CTRL_PIPE_EN)
    for now in range(4):
        inj.step(now)
    assert inj.apb_read(STATUS_OFFSET) & STATUS_ERR
    assert inj.apb_read(ERRINFO_OFFSET) == 0
    assert trace.injector_rows == [
        (0, "inj", "CTRL", "start"), (0, "inj", "FETCH", "idx=0"),
        (1, "inj", "CTRL", f"err idx=0 {reason}")]


def run_on_axi(descs, flags, latency=1):
    bus = Bus("axi", "axi", latency, outstanding=2)
    mid = bus.add_master("inj")
    inj = Injector("inj", bus=bus, master_id=mid)
    for off, val in pat.emit_apb_sequence(descs, flags):
        inj.apb_write(off, val)
    for now in range(400):
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
        if done(inj):
            break
    return bus.completed


def test_axi_repetitions_reach_one_request_per_cycle():
    """Repetitions need no fetch/decode, so a single-beat descriptor with
    reps saturates the channel's one-acceptance-per-cycle limit."""
    descs = [dm.Descriptor(dm.Kind.WRITE_FIX, address=0x10, size_bytes=4,
                           reps=12, last=True)]
    grants = [t.grant_cycle for t in run_on_axi(descs, ("pipe",))]
    assert grants == list(range(2, 14))


def test_axi_pipelined_chains_descriptors_without_bubble():
    """Two-beat descriptors execute for 2 cycles, long enough to hide the
    next fetch/decode entirely; the beat pipe stays full."""
    descs = [dm.Descriptor(dm.Kind.WRITE, address=0x1000 * i, size_bytes=8,
                           last=(i == 9)) for i in range(10)]
    txns = run_on_axi(descs, ("pipe",))
    grants = [t.grant_cycle for t in txns]
    assert grants == list(range(2, 22, 2))
    # continuous beat delivery: each completion lands 2 cycles after the last
    completes = [t.complete_cycle for t in txns]
    assert [b - a for a, b in zip(completes, completes[1:])] == [2] * 9


def test_axi_legacy_bubble_between_descriptors():
    descs = [dm.Descriptor(dm.Kind.WRITE, address=0x1000 * i, size_bytes=8,
                           last=(i == 9)) for i in range(10)]
    grants = [t.grant_cycle for t in run_on_axi(descs, ())]
    # completion at grant+2, then fetch/decode: 4-cycle descriptor period
    assert [b - a for a, b in zip(grants, grants[1:])] == [4] * 9


# ---------------------------------------------------------------------------
# STATUS per cycle, the buffer end, and event skipping
# ---------------------------------------------------------------------------

FETCH, DECODE, EXEC, DONE = 1, 2, 3, 4


def status_per_cycle(flags, cycles):
    """(BUSY, state code) read after each cycle of a 2-descriptor program."""
    inj, bus = make_rig(writes(2), flags=flags)
    seen = []
    for now in range(cycles):
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
        status = inj.apb_read(STATUS_OFFSET)
        seen.append((bool(status & STATUS_BUSY), (status >> 4) & 0xF))
    return seen


def test_status_per_cycle_pipelined():
    """Occupancy 2: descriptor 1 is fetched when 0 starts (c2), decoded
    at c3, and starts as 0 retires (c4); state reports the most advanced
    occupied stage."""
    assert status_per_cycle(("pipe",), 9) == [
        (True, FETCH), (True, DECODE), (True, EXEC), (True, EXEC),
        (True, EXEC), (True, EXEC), (False, DONE), (False, DONE), (False, DONE)]


def test_status_per_cycle_legacy():
    """Descriptor 1 is fetched only when 0 retires (c4)."""
    assert status_per_cycle((), 10) == [
        (True, FETCH), (True, DECODE), (True, EXEC), (True, EXEC),
        (True, FETCH), (True, DECODE), (True, EXEC), (True, EXEC),
        (False, DONE), (False, DONE)]


def test_running_off_the_buffer_end_errs_and_drains_the_bus():
    trace = TraceRecorder()
    bus = Bus("axi", "axi", 6, outstanding=2)
    inj = Injector("inj", bus=bus, master_id=bus.add_master("inj"), trace=trace)
    for i in range(BUFFER_WORDS // 2):   # 128 descriptors, none marked last
        w = dm.encode(dm.Descriptor(dm.Kind.WRITE, address=0x100 * i))
        inj.apb_write(BUFFER_BASE + 8 * i, w.word0)
        inj.apb_write(BUFFER_BASE + 8 * i + 4, w.word1)
    inj.apb_write(CTRL_OFFSET, CTRL_EN | CTRL_PIPE_EN)
    err_at = None
    for now in range(2000):
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
        if err_at is None and inj.apb_read(STATUS_OFFSET) & STATUS_ERR:
            err_at, in_flight = now, 128 - len(bus.completed)
        if err_at is not None and bus.next_event(now) is None:
            break
    status = inj.apb_read(STATUS_OFFSET)
    assert status & STATUS_ERR and not status & STATUS_BUSY
    assert inj.apb_read(ERRINFO_OFFSET) == 256
    rows = trace.injector_csv().splitlines()
    assert f"{err_at},inj,CTRL,err idx=128 off buffer end" in rows
    assert in_flight >= 1
    assert len(bus.completed) == 128       # the issued request still completed
    assert bus.completed[-1].address == 0x100 * 127
    assert bus.completed[-1].complete_cycle > err_at


def run_with_ctrl_write(descs, flags, at, value, cycles=80):
    """Occupancy 4 (L=3): descriptor 0 executes from c2 to c6, and in
    pipelined mode descriptor 1 is decoded at c3, before the write at c4."""
    inj, bus = make_rig(descs, latency=3, flags=flags)
    for now in range(cycles):
        if now == at:
            inj.apb_write(CTRL_OFFSET, value)
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
    txns = bus.completed
    return inj, txns, [b.grant_cycle - a.complete_cycle for a, b in zip(txns, txns[1:])]


def test_pipe_en_cleared_mid_descriptor_runs_each_descriptor_once():
    """The prefetched descriptor starts without a bubble; later ones pay
    the legacy bubble."""
    inj, txns, gaps = run_with_ctrl_write(writes(4), ("pipe",), 4, CTRL_EN)
    assert done(inj)
    assert [t.address for t in txns] == [0x40000000 + 0x100 * i for i in range(4)]
    assert gaps == [0, 2, 2]


def test_pipe_en_set_mid_descriptor_fetches_at_retirement():
    """Nothing was prefetched, so retirement fetches; later descriptors
    are prefetched and chain without a bubble."""
    inj, txns, gaps = run_with_ctrl_write(writes(4), (), 4, CTRL_EN | CTRL_PIPE_EN)
    assert done(inj) and len(txns) == 4
    assert gaps == [2, 0, 0]


def test_loop_set_on_the_last_descriptor_wraps():
    inj, txns, gaps = run_with_ctrl_write(
        writes(1), ("pipe",), 4, CTRL_EN | CTRL_PIPE_EN | CTRL_LOOP)
    assert inj.apb_read(STATUS_OFFSET) & (STATUS_DONE | STATUS_BUSY) == STATUS_BUSY
    assert len(txns) > 10
    assert gaps[:3] == [2, 0, 0]


def test_loop_cleared_on_the_last_descriptor_ends_the_run():
    """Under LOOP, descriptor 0 is prefetched again as it starts; with
    LOOP cleared before it retires, the engine is DONE and the prefetched
    copy never starts."""
    inj, txns, _ = run_with_ctrl_write(writes(1), ("pipe", "loop"), 4, CTRL_EN | CTRL_PIPE_EN)
    assert inj.apb_read(STATUS_OFFSET) & (STATUS_DONE | STATUS_BUSY) == STATUS_DONE
    assert completed(inj) == 1 and len(txns) == 1


def _raw_rig(seed, trace_recorder):
    """An injector with random raw buffer words on a random bus, and the
    cycles at which CTRL is written."""
    rng = random.Random(seed)
    kind = "ahb" if rng.random() < 0.5 else "axi"
    bus = Bus("b", kind, rng.randint(1, 4), policy="round_robin")
    inj = Injector("inj", bus=bus, master_id=bus.add_master("inj"),
                   trace=trace_recorder)
    n = rng.choice([2, 6, 128])
    ends = rng.random() < 0.4           # else no descriptor is marked last
    garbage = rng.randrange(n) if rng.random() < 0.3 else None
    short = n == 128                    # so that a run can reach the buffer end
    for i in range(n):
        if i == garbage:
            words = (rng.getrandbits(32), rng.getrandbits(32))
        else:
            kind = rng.choice(list(dm.Kind))
            last = ends and i == n - 1
            reps = 1 if short else rng.randint(1, 3)
            if kind is dm.Kind.DELAY:
                desc = dm.Descriptor.delay(rng.randint(1, 2 if short else 9), reps, last)
            else:
                size = 4 if short else rng.choice([4, 16, 64])
                desc = dm.Descriptor(kind, 0x100 * i, size, reps, last, rng.random() < 0.3)
            w = dm.encode(desc)
            words = (w.word0, w.word1)
        inj.apb_write(BUFFER_BASE + 8 * i, words[0])
        inj.apb_write(BUFFER_BASE + 8 * i + 4, words[1])
    flags = rng.choice([0, CTRL_PIPE_EN]) | rng.choice([0, CTRL_LOOP])
    writes_at = {0: CTRL_EN | flags}
    for _ in range(rng.randint(0, 3)):
        writes_at[rng.randrange(1, 300)] = rng.choice(
            [CTRL_RST, flags, CTRL_EN | flags, CTRL_EN | CTRL_IRQ_EN | flags,
             CTRL_EN | (flags ^ CTRL_PIPE_EN), CTRL_EN | (flags ^ CTRL_LOOP)])
    return inj, bus, writes_at


def _run_raw(seed, skip, horizon=1200):
    trace = TraceRecorder()
    inj, bus, writes_at = _raw_rig(seed, trace)
    now = 0
    while now < horizon:
        if now in writes_at:
            inj.apb_write(CTRL_OFFSET, writes_at[now])
        bus.begin_cycle(now)
        inj.step(now)
        bus.arbitrate(now)
        if not skip:
            now += 1
            continue
        due = [c for c in (inj.next_event(now), bus.next_event(now),
                           min((c for c in writes_at if c > now), default=None))
               if c is not None]
        assert all(c > now for c in due)
        now = min(due, default=horizon)
    txns = [(t.txn_id, t.kind, t.address, t.beats, t.request_cycle,
             t.grant_cycle, t.complete_cycle) for t in bus.completed]
    return (trace.injector_csv(), txns,
            inj.apb_read(STATUS_OFFSET), inj.apb_read(ERRINFO_OFFSET))


@pytest.mark.parametrize("seed", range(60))
def test_event_skipping_equals_per_cycle_on_raw_programs(seed):
    """Decode errors, runs off the buffer end and CTRL writes mid-run
    (restarts, resets, PIPE_EN and LOOP changes): stepping only at
    next_event gives the same bytes as every cycle."""
    assert _run_raw(seed, skip=True) == _run_raw(seed, skip=False)
