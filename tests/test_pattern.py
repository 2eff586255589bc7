"""Pattern DSL parsing, lowering, and programming-sequence emission."""

import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from tigsim import descriptors as dm
from tigsim import pattern as pat
from tigsim.harness import ConfigError, load_topology
from tigsim.injector import BUFFER_BASE, CTRL_OFFSET, Injector

SAMPLES = Path(__file__).parent.parent / "samples"

# basic.tig encoded by hand from the word layout:
#   read 0x80000000 size=4          -> 00006004 80000000
#   write 0x40000000 size=64 reps=4 -> 0007e186 40000000
#   delay 100 (last)                -> 00000003 00000064
BASIC_TIG_IMAGE = bytes.fromhex(
    "04600000" "00000080"
    "86e10700" "00000040"
    "03000000" "64000000"
)


def test_parse_single_read_defaults():
    assert pat.parse("read 0x80000000 size=4") == [
        dm.Descriptor(dm.Kind.READ, 0x80000000, 4, 1)]


def test_parse_two_statements_in_order():
    assert pat.parse("write 0x40000000 size=64 reps=4\ndelay 100") == [
        dm.Descriptor(dm.Kind.WRITE, 0x40000000, 64, 4),
        dm.Descriptor.delay(100),
    ]


def test_parse_missing_address():
    with pytest.raises(pat.PatternSyntaxError) as excinfo:
        pat.parse("read size=4")
    assert excinfo.value.line == 1


def test_parse_bad_address_is_named():
    with pytest.raises(pat.PatternSyntaxError) as excinfo:
        pat.parse("read 0xZZ size=4")
    assert str(excinfo.value) == "line 1: expected an address, got '0xZZ'"


def test_parse_comments_and_blanks_ignored():
    assert len(pat.parse("# header\n\nread 0x10  # trailing\n\n")) == 1


def test_parse_line_numbers_reported():
    with pytest.raises(pat.PatternSyntaxError) as excinfo:
        pat.parse("read 0x10\n\nbogus 1\n")
    assert excinfo.value.line == 3


@pytest.mark.parametrize("src,field", [
    ("read 0x100000000", "address"),
    ("read 0x10 size=8193", "size"),
    ("read 0x10 size=0", "size"),
    ("read 0x10 reps=65", "reps"),
    ("delay 0", "delay"),
])
def test_parse_range_errors(src, field):
    with pytest.raises(pat.PatternRangeError) as excinfo:
        pat.parse(src)
    assert excinfo.value.field == field
    assert excinfo.value.line == 1


@pytest.mark.parametrize("src,field,dsl_field,message", [
    ("read 0x100000000 size=0 reps=0", "size_bytes", "size", "size out of range: 0"),
    ("write 0x100000000 size=8193", "size_bytes", "size", "size out of range: 8193"),
    ("read_fix 0x100000000 reps=65", "reps", "reps", "reps out of range: 65"),
])
def test_several_faults_name_the_first_in_validate_order(src, field, dsl_field, message):
    """A Descriptor checks kind, size_bytes, reps, address, delay_cycles in
    that order; code, the DSL and an inline topology all name its first
    fault."""
    head, address, *params = src.split()
    values = {"address": int(address, 16)}
    for param in params:
        key, value = param.split("=")
        values[{"size": "size_bytes"}.get(key, key)] = int(value)
    with pytest.raises(dm.InvalidDescriptor) as excinfo:
        dm.encode(dm.Descriptor(pat.KINDS[head], **values))
    assert (excinfo.value.field, str(excinfo.value)) == (field, message)
    with pytest.raises(pat.PatternRangeError) as excinfo:
        pat.parse(src)
    assert (excinfo.value.field, excinfo.value.message) == (dsl_field, message)
    topology = {
        "buses": [{"name": "a", "kind": "ahb", "L": 1}],
        "masters": [{"name": "inj", "bus": "a", "role": "injector",
                     "injector": {"descriptors": [{"kind": head, **values}]}}]}
    with pytest.raises(ConfigError) as excinfo:
        load_topology(topology)
    assert excinfo.value.path == f"masters[0].injector.descriptors[0].{field}"
    assert str(excinfo.value).endswith(f": {message}")


@pytest.mark.parametrize("src,message", [
    ("read 0x10\ndelay", "missing cycle count"),
    ("read 0x10\ndelay 5 6", "unexpected token '6'"),
])
def test_parse_delay_syntax_errors(src, message):
    with pytest.raises(pat.PatternSyntaxError) as excinfo:
        pat.parse(src)
    assert (excinfo.value.line, excinfo.value.message) == (2, message)


def test_parse_rejects_reordered_params():
    with pytest.raises(pat.PatternSyntaxError):
        pat.parse("read 0x10 reps=2 size=8")


def test_parse_rejects_empty_program():
    with pytest.raises(pat.PatternSyntaxError):
        pat.parse("# nothing here\n")


@given(st.text(alphabet=st.characters(codec="utf-8", max_codepoint=0x2FF),
               max_size=120))
def test_parse_total_every_rejection_carries_a_line(text):
    try:
        statements = pat.parse(text)
    except pat.PatternError as exc:
        assert exc.line >= 1
        assert str(exc).startswith("line ")
    else:
        assert statements


def test_lower_single_statement_last():
    descs = pat.lower(pat.parse("read 0x10"))
    assert len(descs) == 1 and descs[0].last


def test_lower_empty_program_is_empty():
    assert pat.lower([]) == []


def test_lower_last_on_final_only():
    descs = pat.lower(pat.parse("read 0x10\nwrite 0x20"))
    assert [d.last for d in descs] == [False, True]


def test_lower_preserves_count_order_and_single_last():
    rng = random.Random(11)
    kinds = ["read", "write", "read_fix", "write_fix"]
    for _ in range(20):
        n = rng.randint(1, 30)
        lines, expected = [], []
        for _ in range(n):
            if rng.random() < 0.3:
                cycles = rng.randint(1, 10**6)
                lines.append(f"delay {cycles}")
                expected.append(dm.Descriptor.delay(cycles))
            else:
                kind, addr = rng.choice(kinds), rng.randint(0, 2**32 - 1)
                size, reps = rng.randint(1, 8192), rng.randint(1, 64)
                lines.append(f"{kind} {addr} size={size} reps={reps}")
                expected.append(dm.Descriptor(pat.KINDS[kind], addr, size, reps))
        statements = pat.parse("\n".join(lines))
        assert statements == expected
        descs = pat.lower(statements)
        assert len(descs) == n
        assert sum(d.last for d in descs) == 1 and descs[-1].last
        assert [dataclasses.replace(d, last=False) for d in descs] == expected


def test_lower_basic_tig_matches_golden_image():
    descs = pat.compile_file(SAMPLES / "basic.tig")
    assert dm.encode_image(descs) == BASIC_TIG_IMAGE


def test_apb_sequence_single_descriptor():
    descs = pat.lower(pat.parse("read 0x80000000 size=4"))
    seq = pat.emit_apb_sequence(descs)
    assert seq == [
        pat.ApbWrite(0x400, 0x0000_6005),
        pat.ApbWrite(0x404, 0x8000_0000),
        pat.ApbWrite(0x000, 0x0000_0001),
    ]


def test_apb_sequence_capacity():
    descs = [dm.Descriptor(dm.Kind.READ, address=0, last=(i == 128))
             for i in range(129)]
    with pytest.raises(pat.CapacityExceeded):
        pat.emit_apb_sequence(descs)
    assert len(pat.emit_apb_sequence(descs[:128])) == 2 * 128 + 1


def test_apb_sequence_loop_flag():
    descs = pat.lower(pat.parse("read 0x10"))
    seq = pat.emit_apb_sequence(descs, ["loop"])
    assert seq[-1] == pat.ApbWrite(CTRL_OFFSET, 0x0000_0005)


def test_ctrl_value_unknown_flag():
    with pytest.raises(ValueError):
        pat.ctrl_value(["bogus"])


def test_render_hex():
    text = pat.render_hex(pat.lower(pat.parse("read 0x80000000 size=4")))
    assert text == "00006005\n80000000\n"


def test_apb_replay_equals_direct_load():
    """Replaying the emitted sequence through the configuration port
    leaves the same buffer contents as writing the words directly."""
    descs = pat.compile_file(SAMPLES / "basic.tig")
    via_seq = Injector("a")
    for off, val in pat.emit_apb_sequence(descs, ["pipe"]):
        via_seq.apb_write(off, val)
    direct = Injector("b")
    for i, d in enumerate(descs):
        w = dm.encode(d)
        direct.apb_write(BUFFER_BASE + 8 * i, w.word0)
        direct.apb_write(BUFFER_BASE + 8 * i + 4, w.word1)
    direct.apb_write(CTRL_OFFSET, pat.ctrl_value(["pipe"]))
    assert via_seq.buffer == direct.buffer
    assert via_seq.apb_read(CTRL_OFFSET) == direct.apb_read(CTRL_OFFSET)


def test_compile_file_rejects_non_utf8_with_line(tmp_path):
    bad = tmp_path / "bad.tig"
    bad.write_bytes(b"read 0x10\n\ndelay \xff\n")
    with pytest.raises(pat.PatternSyntaxError) as excinfo:
        pat.compile_file(bad)
    assert excinfo.value.line == 3
