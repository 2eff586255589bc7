"""Descriptor encode/decode/validate behavior."""

import itertools

import pytest
from hypothesis import given, strategies as st

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
    ok = dm.Descriptor(dm.Kind.READ, address=0, size_bytes=8192)
    assert dm.validate(ok) is None
    bad_size = dm.Descriptor(dm.Kind.READ, address=0, size_bytes=8193)
    with pytest.raises(dm.InvalidDescriptor, match="size out of range"):
        dm.validate(bad_size)
    bad_reps = dm.Descriptor(dm.Kind.READ, address=0, reps=0)
    with pytest.raises(dm.InvalidDescriptor, match="reps out of range"):
        dm.validate(bad_reps)


def test_validate_delay_requires_cycles():
    d = dm.Descriptor(dm.Kind.DELAY)
    with pytest.raises(dm.InvalidDescriptor, match="delay out of range"):
        dm.validate(d)


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
def test_decode_total_modulo_two_errors(word0, word1):
    """Any word pair decodes or raises exactly one of the two errors."""
    try:
        d = dm.decode(dm.DescriptorWords(word0, word1))
    except dm.ReservedBitsSet:
        assert word0 >> 26 != 0
        return
    except dm.InvalidKindCode:
        code = (word0 >> 1) & 0x1F
        assert code == 0 or code > 5
        return
    # field widths match the legal ranges exactly, so everything decodes
    # cleanly except a DELAY whose cycle count word is zero
    if d.kind is dm.Kind.DELAY and word1 == 0:
        with pytest.raises(dm.InvalidDescriptor, match="delay out of range: 0"):
            dm.validate(d)
    else:
        dm.validate(d)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_decode_encode_idempotent(word0, word1):
    try:
        d = dm.decode(dm.DescriptorWords(word0, word1))
        dm.validate(d)
    except dm.DescriptorError:
        return
    assert dm.decode(dm.encode(d)) == d
