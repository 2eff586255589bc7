"""Traffic pattern DSL: parse, lower to descriptors, emit programming data.

Grammar (line oriented, ``#`` starts a comment, blank lines ignored):

    program := (stmt NEWLINE)*
    stmt    := access | delay
    access  := ("read"|"write"|"read_fix"|"write_fix") ADDR ["size=" INT] ["reps=" INT]
    delay   := "delay" INT

ADDR is 0x-prefixed hex or decimal.  ``size`` defaults to 4 bytes and
``reps`` to 1.  There are no loops or macros; repetition comes from the
``reps`` field and the injector LOOP control flag.

Output artifacts: a raw little-endian descriptor image, a hex listing
(one 8-digit lowercase word per line), and the configuration-port write
sequence that loads the program and enables the injector.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

from . import descriptors as dm
from .injector import (
    BUFFER_BASE,
    BUFFER_WORDS,
    CTRL_EN,
    CTRL_IRQ_EN,
    CTRL_LOOP,
    CTRL_OFFSET,
    CTRL_PIPE_EN,
    CapacityExceeded,
)


class PatternError(Exception):
    """Base class: every rejection carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class PatternSyntaxError(PatternError):
    pass


class PatternRangeError(PatternError):
    def __init__(self, line: int, field: str, message: str):
        super().__init__(line, message)
        self.field = field


# Statement and inline descriptor kind names: "read", "write_fix", "delay", ...
KINDS = {kind.name.lower(): kind for kind in dm.Kind}

# Descriptor fields a statement of each kind may set; the first one is
# required.  ``last`` is not among them: lower() sets it.
_ACCESS_FIELDS = ("address", "size_bytes", "reps", "irq_on_done")
_DELAY_FIELDS = ("delay_cycles", "reps", "irq_on_done")

# DSL spelling of the Descriptor fields whose name it shortens.
_DSL_FIELDS = {"size_bytes": "size", "delay_cycles": "delay"}

CTRL_FLAG_BITS = {"loop": CTRL_LOOP, "irq": CTRL_IRQ_EN, "pipe": CTRL_PIPE_EN}


def statement(kind: dm.Kind, values: dict) -> dm.Descriptor:
    """Build one descriptor, not marked last, from its field values.

    Both front ends, the DSL parser and inline topology descriptor lists,
    come through here, so they accept the same fields.  Raises
    descriptors.InvalidDescriptor on the first field that is unknown for
    the kind, or on the required one if it is missing, and otherwise passes
    on the Descriptor's own error for the first field of the wrong type or
    out of range.
    """
    allowed = _DELAY_FIELDS if kind is dm.Kind.DELAY else _ACCESS_FIELDS
    for field in values:
        if field not in allowed:
            raise dm.InvalidDescriptor(field, f"not a field of {kind.name.lower()} "
                                              f"descriptors; expected one of {allowed}")
    if allowed[0] not in values:
        raise dm.InvalidDescriptor(allowed[0], "missing required integer")
    return dm.Descriptor(kind, **values)


def _parse_int(token: str, line: int, what: str) -> int:
    try:
        if token.lower().startswith("0x"):
            return int(token, 16)
        if token.isdigit():
            return int(token, 10)
    except ValueError:
        pass
    raise PatternSyntaxError(line, f"expected {what}, got {token!r}")


def _parse_access(args: list[str], line: int) -> dict:
    if not args:
        raise PatternSyntaxError(line, "missing address")
    values = {"address": _parse_int(args[0], line, "an address")}
    rest = args[1:]
    for key, field, what in (("size=", "size_bytes", "a size"),
                             ("reps=", "reps", "a repetition count")):
        if rest and rest[0].startswith(key):
            values[field] = _parse_int(rest[0][len(key):], line, what)
            rest = rest[1:]
    if rest:
        raise PatternSyntaxError(line, f"unexpected token {rest[0]!r}")
    return values


def _parse_delay(args: list[str], line: int) -> dict:
    if not args:
        raise PatternSyntaxError(line, "missing cycle count")
    if len(args) > 1:
        raise PatternSyntaxError(line, f"unexpected token {args[1]!r}")
    return {"delay_cycles": _parse_int(args[0], line, "a cycle count")}


def parse(text: str) -> list[dm.Descriptor]:
    """Parse DSL source into descriptors in source order, none marked last."""
    statements: list[dm.Descriptor] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head, args = tokens[0], tokens[1:]
        kind = KINDS.get(head)
        if kind is None:
            raise PatternSyntaxError(lineno, f"unknown statement {head!r}")
        parse_args = _parse_delay if kind is dm.Kind.DELAY else _parse_access
        try:
            statements.append(statement(kind, parse_args(args, lineno)))
        except dm.InvalidDescriptor as exc:
            raise PatternRangeError(lineno, _DSL_FIELDS.get(exc.field, exc.field),
                                    str(exc)) from None
    if not statements:
        raise PatternSyntaxError(1, "empty pattern: no statements")
    return statements


def lower(statements: list[dm.Descriptor]) -> list[dm.Descriptor]:
    """The statements as a program: the final one is marked last."""
    if not statements:
        return []
    return [*statements[:-1], replace(statements[-1], last=True)]


def compile_file(path) -> list[dm.Descriptor]:
    """Parse and lower a UTF-8 pattern file; OSError if it cannot be read."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PatternSyntaxError(data.count(b"\n", 0, exc.start) + 1,
                                 f"not valid UTF-8: {exc.reason}") from None
    return lower(parse(text))


# ---------------------------------------------------------------------------
# Programming sequence and output renderers
# ---------------------------------------------------------------------------

class ApbWrite(NamedTuple):
    offset: int
    value: int


def ctrl_value(flags=()) -> int:
    """CTRL word for the given flag names; EN is always set."""
    value = CTRL_EN
    for flag in flags:
        try:
            value |= CTRL_FLAG_BITS[flag]
        except KeyError:
            raise ValueError(f"unknown control flag {flag!r}; "
                             f"expected one of {sorted(CTRL_FLAG_BITS)}") from None
    return value


def check_fits(descriptors: list[dm.Descriptor]):
    """Raise CapacityExceeded when the program does not fit the buffer."""
    if 2 * len(descriptors) > BUFFER_WORDS:
        raise CapacityExceeded(
            f"{len(descriptors)} descriptors need {2 * len(descriptors)} words; "
            f"buffer holds {BUFFER_WORDS}")


def emit_apb_sequence(descriptors: list[dm.Descriptor], flags=()) -> list[ApbWrite]:
    """Buffer writes in program order, then the single CTRL enable write."""
    check_fits(descriptors)
    seq = [ApbWrite(BUFFER_BASE + 8 * i + 4 * j, word)
           for i, d in enumerate(descriptors) for j, word in enumerate(dm.encode(d))]
    seq.append(ApbWrite(CTRL_OFFSET, ctrl_value(flags)))
    return seq


def render_hex(descriptors: list[dm.Descriptor]) -> str:
    lines = [f"{word:08x}" for d in descriptors for word in dm.encode(d)]
    return "\n".join(lines) + "\n"


def render_apb_csv(sequence: list[ApbWrite]) -> str:
    lines = ["offset,value"]
    lines.extend(f"{w.offset:#x},{w.value:#010x}" for w in sequence)
    return "\n".join(lines) + "\n"

