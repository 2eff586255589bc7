"""Descriptor construction checks and encode/decode behavior."""

import itertools

import pytest
from hypothesis import example, given, strategies as st

from tigsim import descriptors as dm


def test_encode_read_example():
    d = dm.Descriptor(dm.Kind.READ, address=0x8000_0000, size_bytes=4,
                      reps=1, last=True)
    w = dm.encode(d)
    assert (w.word0, w.word1) == (0x0000_6005, 0x8000_0000)


def test_encode_delay_example():
    w = dm.encode(dm.Descriptor.delay(100, reps=1, last=True))
    assert (w.word0, w.word1) == (0x0000_0003, 0x0000_0064)


def test_encode_write_example():
    d = dm.Descriptor(dm.Kind.WRITE, address=0x4000_0000, size_bytes=64,
                      reps=4, last=True)
    w = dm.encode(d)
    assert (w.word0, w.word1) == (0x0007_E187, 0x4000_0000)


def test_decode_read_example():
    d = dm.decode(dm.DescriptorWords(0x0000_6005, 0x8000_0000))
    assert d == dm.Descriptor(dm.Kind.READ, address=0x8000_0000, size_bytes=4,
                              reps=1, last=True)


def test_a_delay_has_no_bus_kind():
    assert (dm.Kind.READ_FIX.bus_kind, dm.Kind.WRITE.bus_kind) == ("read", "write")
    with pytest.raises(ValueError, match="DELAY descriptors do not touch the bus"):
        dm.Kind.DELAY.bus_kind


def test_decode_kind_zero_rejected():
    with pytest.raises(dm.InvalidKindCode):
        dm.decode(dm.DescriptorWords(0x0000_0000, 0))


@pytest.mark.parametrize("code", [0, 6, 7, 31])
def test_decode_bad_kind_codes(code):
    with pytest.raises(dm.InvalidKindCode):
        dm.decode(dm.DescriptorWords(code << 1, 0))


def test_decode_reserved_bits_rejected():
    with pytest.raises(dm.ReservedBitsSet):
        dm.decode(dm.DescriptorWords(1 << 26 | dm.Kind.READ.value << 1, 0))


def test_reserved_checked_before_kind():
    with pytest.raises(dm.ReservedBitsSet):
        dm.decode(dm.DescriptorWords(1 << 31, 0))


def _grid():
    flags = list(itertools.product((False, True), repeat=2))
    for kind in dm.Kind:
        for size, reps, (last, irq) in itertools.product(
                (1, 2, 4, 8192), (1, 2, 64), flags):
            if kind is dm.Kind.DELAY:
                yield dm.Descriptor.delay(size * 31 + reps, reps=reps,
                                          last=last, irq_on_done=irq)
            else:
                yield dm.Descriptor(kind, address=0x8000_0000 + 64 * reps,
                                    size_bytes=size, reps=reps, last=last,
                                    irq_on_done=irq)


def test_round_trip_exhaustive_grid():
    seen = set()
    for d in _grid():
        w = dm.encode(d)
        assert dm.decode(w) == d
        seen.add((w.word0, w.word1))
    # encode is injective over the grid's distinct descriptors
    assert len(seen) == len(set(_grid()))


def test_validate_boundaries():
    """A Descriptor checks its ranges when built: the bounds build, one
    past them raises."""
    assert dm.Descriptor(dm.Kind.READ, address=0, size_bytes=8192).size_bytes == 8192
    with pytest.raises(dm.InvalidDescriptor, match="size out of range"):
        dm.Descriptor(dm.Kind.READ, address=0, size_bytes=8193)
    with pytest.raises(dm.InvalidDescriptor, match="reps out of range"):
        dm.Descriptor(dm.Kind.READ, address=0, reps=0)


def test_validate_delay_requires_cycles():
    with pytest.raises(dm.InvalidDescriptor, match="expected int, got None"):
        dm.Descriptor(dm.Kind.DELAY)


@pytest.mark.parametrize("make,field,message", [
    (lambda: dm.Descriptor("read"), "kind", "unknown kind: 'read'"),
    (lambda: dm.Descriptor(2, address=4), "kind", "unknown kind: 2"),
    (lambda: dm.Descriptor(dm.Kind.READ, address="4"), "address", "expected int, got '4'"),
    (lambda: dm.Descriptor(dm.Kind.READ, address=True), "address", "expected int, got True"),
    (lambda: dm.Descriptor(dm.Kind.READ, size_bytes=4.0), "size_bytes",
     "expected int, got 4.0"),
    (lambda: dm.Descriptor(dm.Kind.WRITE, reps=None), "reps", "expected int, got None"),
    (lambda: dm.Descriptor.delay(False), "delay_cycles", "expected int, got False"),
    (lambda: dm.Descriptor.delay(5, last=1), "last", "expected bool, got 1"),
    (lambda: dm.Descriptor(dm.Kind.READ, irq_on_done="yes"), "irq_on_done",
     "expected bool, got 'yes'"),
    (lambda: dm.Descriptor(dm.Kind.READ, size_bytes=0), "size_bytes", "size out of range: 0"),
    (lambda: dm.Descriptor(dm.Kind.READ_FIX, size_bytes=8193), "size_bytes",
     "size out of range: 8193"),
    (lambda: dm.Descriptor(dm.Kind.WRITE, reps=0), "reps", "reps out of range: 0"),
    (lambda: dm.Descriptor.delay(5, reps=65), "reps", "reps out of range: 65"),
    (lambda: dm.Descriptor(dm.Kind.READ, address=-1), "address", "address out of range: -0x1"),
    (lambda: dm.Descriptor(dm.Kind.WRITE_FIX, address=2**32), "address",
     "address out of range: 0x100000000"),
    (lambda: dm.Descriptor.delay(0), "delay_cycles", "delay out of range: 0"),
    (lambda: dm.Descriptor.delay(2**32), "delay_cycles", "delay out of range: 4294967296"),
    (lambda: dm.Descriptor(dm.Kind.READ, reps=0, address=2**32), "reps",
     "reps out of range: 0"),
])
def test_a_bad_descriptor_cannot_be_built(make, field, message):
    """Every type and range fault raises at construction, naming the field;
    with several, the first in the order types, kind, size_bytes, reps,
    address, delay_cycles."""
    with pytest.raises(dm.InvalidDescriptor) as excinfo:
        make()
    assert (excinfo.value.field, str(excinfo.value)) == (field, message)


def test_encode_rejects_invalid():
    with pytest.raises(dm.InvalidDescriptor):
        dm.encode(dm.Descriptor(dm.Kind.WRITE, address=0, size_bytes=0))


def test_delay_fields_canonical():
    d = dm.Descriptor(dm.Kind.DELAY, address=0x1234, size_bytes=64,
                      delay_cycles=5)
    assert d.address == 0 and d.size_bytes == 1
    r = dm.Descriptor(dm.Kind.READ, address=4, delay_cycles=9)
    assert r.delay_cycles is None


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
@example(0x0000_0003, 0)    # DELAY, last, zero cycles
def test_decode_total_modulo_three_errors(word0, word1):
    """Any word pair decodes or raises exactly one of three errors."""
    try:
        d = dm.decode(dm.DescriptorWords(word0, word1))
    except dm.ReservedBitsSet:
        assert word0 >> 26 != 0
        return
    except dm.InvalidKindCode:
        code = (word0 >> 1) & 0x1F
        assert code == 0 or code > 5
        return
    except dm.InvalidDescriptor as exc:
        # field widths match the legal ranges exactly, so everything decodes
        # cleanly except a DELAY whose cycle count word is zero
        assert (word0 >> 1) & 0x1F == dm.Kind.DELAY and word1 == 0
        assert (exc.field, str(exc)) == ("delay_cycles", "delay out of range: 0")
        return
    assert d.kind is not dm.Kind.DELAY or word1 != 0


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_decode_encode_idempotent(word0, word1):
    try:
        d = dm.decode(dm.DescriptorWords(word0, word1))
    except dm.DescriptorError:
        return
    assert dm.decode(dm.encode(d)) == d
