"""Traffic descriptor type and its bit-exact two-word binary encoding.

One descriptor packs a single traffic action into two 32-bit words:

    word0   bit 0        last        final descriptor of the program
            bits 5:1     kind code   1=DELAY 2=READ 3=WRITE 4=READ_FIX 5=WRITE_FIX
            bit 6        irq         raise the IRQ status flag on completion
            bits 12:7    reps - 1    repetitions, 1..64
            bits 25:13   size - 1    bytes per execution, 1..8192
            bits 31:26   reserved    must be zero
    word1   target address, or the delay cycle count for DELAY

READ/WRITE advance the target address by ``size_bytes`` after every
repetition (streaming); READ_FIX/WRITE_FIX re-access a fixed address
(hammering).  DELAY pauses injection for ``delay_cycles`` per repetition;
its address and size are meaningless and are stored canonically (0 and 1)
so that encode/decode round-trips exactly.

A Descriptor checks its types and ranges when built (by the pattern DSL,
an inline topology, code or decode) and raises InvalidDescriptor at the
first fault: one that exists is valid, and encode checks nothing again.

Binary descriptor images are little-endian ``(word0, word1)`` pairs
concatenated in program order; see descriptor-format.md.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

WORD_MASK = 0xFFFFFFFF
SIZE_MIN, SIZE_MAX = 1, 8192
REPS_MIN, REPS_MAX = 1, 64
DELAY_MIN, DELAY_MAX = 1, 2**32 - 1

_KIND_SHIFT = 1
_KIND_MASK = 0x1F
_IRQ_BIT = 1 << 6
_REPS_SHIFT = 7
_REPS_MASK = 0x3F
_SIZE_SHIFT = 13
_SIZE_MASK = 0x1FFF
_RESERVED_SHIFT = 26


class Kind(IntEnum):
    """Descriptor action; the enum value is the wire code in word0."""

    DELAY = 1
    READ = 2
    WRITE = 3
    READ_FIX = 4
    WRITE_FIX = 5

    @property
    def is_fixed(self) -> bool:
        return self in (Kind.READ_FIX, Kind.WRITE_FIX)

    @property
    def bus_kind(self) -> str:
        """'read' or 'write' as seen by the interconnect."""
        if self in (Kind.READ, Kind.READ_FIX):
            return "read"
        if self in (Kind.WRITE, Kind.WRITE_FIX):
            return "write"
        raise ValueError("DELAY descriptors do not touch the bus")


class DescriptorError(ValueError):
    """Base class for descriptor encode/decode failures."""


class InvalidDescriptor(DescriptorError):
    """A descriptor field is unknown, missing, mistyped or out of range;
    ``field`` names the (first) field at fault."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class InvalidKindCode(DescriptorError):
    """word0 carries kind code 0 or a code above 5."""


class ReservedBitsSet(DescriptorError):
    """word0 has non-zero reserved bits (31:26)."""


# Descriptor field types, in the order __post_init__ checks them.
_FIELD_TYPES = (("address", int), ("size_bytes", int), ("reps", int),
                ("delay_cycles", int), ("last", bool), ("irq_on_done", bool))


@dataclass(frozen=True)
class Descriptor:
    """One decoded traffic action."""

    kind: Kind
    address: int = 0
    size_bytes: int = 4
    reps: int = 1
    last: bool = False
    irq_on_done: bool = False
    delay_cycles: int | None = None

    def __post_init__(self):
        """Raise InvalidDescriptor at the first fault: a field's type, then
        the ranges of kind, size_bytes, reps, address and delay_cycles."""
        # Canonical storage keeps encode a bijection on valid descriptors:
        # DELAY carries no address/size, the other kinds carry no delay.
        if self.kind is Kind.DELAY:
            object.__setattr__(self, "address", 0)
            object.__setattr__(self, "size_bytes", 1)
        else:
            object.__setattr__(self, "delay_cycles", None)
        for name, want in _FIELD_TYPES:
            value = getattr(self, name)
            if type(value) is not want and (name != "delay_cycles" or self.kind is Kind.DELAY):
                raise InvalidDescriptor(name, f"expected {want.__name__}, got {value!r}")
        if not isinstance(self.kind, Kind):
            raise InvalidDescriptor("kind", f"unknown kind: {self.kind!r}")
        if not SIZE_MIN <= self.size_bytes <= SIZE_MAX:
            raise InvalidDescriptor("size_bytes", f"size out of range: {self.size_bytes}")
        if not REPS_MIN <= self.reps <= REPS_MAX:
            raise InvalidDescriptor("reps", f"reps out of range: {self.reps}")
        if not 0 <= self.address <= WORD_MASK:
            raise InvalidDescriptor("address", f"address out of range: {self.address:#x}")
        if self.kind is Kind.DELAY and not DELAY_MIN <= self.delay_cycles <= DELAY_MAX:
            raise InvalidDescriptor("delay_cycles", f"delay out of range: {self.delay_cycles}")

    @classmethod
    def delay(cls, cycles: int, reps: int = 1, last: bool = False,
              irq_on_done: bool = False) -> "Descriptor":
        return cls(Kind.DELAY, reps=reps, last=last, irq_on_done=irq_on_done,
                   delay_cycles=cycles)


class DescriptorWords(NamedTuple):
    """The packed two-word form of a descriptor.  Any ``(word0, word1)``
    pair of ints stands for one, as in the injector's buffer."""

    word0: int
    word1: int


def encode(d: Descriptor) -> DescriptorWords:
    """Pack a descriptor into its two words."""
    word0 = (
        int(d.last)
        | (d.kind.value << _KIND_SHIFT)
        | (_IRQ_BIT if d.irq_on_done else 0)
        | ((d.reps - 1) << _REPS_SHIFT)
        | ((d.size_bytes - 1) << _SIZE_SHIFT)
    )
    word1 = d.delay_cycles if d.kind is Kind.DELAY else d.address
    return DescriptorWords(word0, word1)


def decode(words: tuple[int, int]) -> Descriptor:
    """Unpack a ``(word0, word1)`` pair; the inverse of encode() on its image.

    Reserved bits are checked before the kind code, so a malformed pair
    raises exactly one of ReservedBitsSet / InvalidKindCode.  The other
    fields' widths match their ranges, so every other pair decodes, bar a
    DELAY of zero cycles: its Descriptor raises InvalidDescriptor.
    """
    word0, word1 = words[0] & WORD_MASK, words[1] & WORD_MASK
    if word0 >> _RESERVED_SHIFT:
        raise ReservedBitsSet(f"reserved bits set in word0: {word0:#010x}")
    code = (word0 >> _KIND_SHIFT) & _KIND_MASK
    if not Kind.DELAY.value <= code <= Kind.WRITE_FIX.value:
        raise InvalidKindCode(f"kind code {code}")
    kind = Kind(code)
    reps = ((word0 >> _REPS_SHIFT) & _REPS_MASK) + 1
    size = ((word0 >> _SIZE_SHIFT) & _SIZE_MASK) + 1
    last = bool(word0 & 1)
    irq = bool(word0 & _IRQ_BIT)
    if kind is Kind.DELAY:
        return Descriptor(kind, reps=reps, last=last, irq_on_done=irq,
                          delay_cycles=word1)
    return Descriptor(kind, address=word1, size_bytes=size, reps=reps,
                      last=last, irq_on_done=irq)


def encode_image(descriptors: list[Descriptor]) -> bytes:
    """Little-endian (word0, word1) pairs in program order."""
    words = [word for d in descriptors for word in encode(d)]
    return struct.pack("<%dI" % len(words), *words)

