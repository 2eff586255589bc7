"""Trace rendering: both CSVs, streamed in chunks, byte for byte against the
tuple-sort renderers they replaced, and the memory the bus trace takes."""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from test_harness import long_victims_topology
from tigsim.harness import CycleLimitExceeded, build, load_topology
from tigsim.interconnect import Bus
from tigsim.trace import BUS_TRACE_HEADER, CHUNK_ROWS, INJECTOR_TRACE_HEADER, TraceRecorder

SAMPLES = Path(__file__).parent.parent / "samples"


def reference_bus_csv(trace: TraceRecorder) -> str:
    """Every row as a (cycle, bus, event, txn_id, master_id) tuple, sorted."""
    rows = []
    for bus, t in trace.bus_log:
        name, tid, m = bus.name, t.txn_id, t.master_id
        rows.append((t.request_cycle, name, 0, tid, m))
        if t.grant_cycle is None:
            continue
        rows.append((t.grant_cycle, name, 1, tid, m))
        end = t.complete_cycle
        if bus.kind == "axi":
            rows.extend((c, name, 2, tid, m) for c in range(end - t.beats + 1, end + 1))
        if t.done:
            rows.append((end, name, 3, tid, m))
    events = ("REQ", "GRANT", "BEAT", "COMPLETE")
    lines = [BUS_TRACE_HEADER] + [f"{c},{b},{events[e]},{m},{t}" for c, b, e, t, m in sorted(rows)]
    return "\n".join(lines) + "\n"


def reference_injector_csv(trace: TraceRecorder) -> str:
    lines = [INJECTOR_TRACE_HEADER] + [f"{c},{i},{s},{e}" for c, i, s, e in sorted(trace.injector_rows)]
    return "\n".join(lines) + "\n"


def assert_renders_as_reference(trace: TraceRecorder):
    for chunks, csv, reference in (
            (trace.bus_chunks, trace.bus_csv, reference_bus_csv),
            (trace.injector_chunks, trace.injector_csv, reference_injector_csv)):
        header, *body = chunks()
        assert header.count("\n") == 1
        assert all(chunk.endswith("\n") and chunk.count("\n") <= CHUNK_ROWS for chunk in body)
        assert "".join([header, *body]) == csv() == reference(trace)


def traced_run(topology):
    sim = build(topology, trace_enabled=True)
    try:
        sim.run()
    except CycleLimitExceeded:
        pass
    return sim


def victim(bus: str, name: str, count: int, size: int = 16) -> dict:
    return {"name": name, "bus": bus, "role": "victim",
            "victim": {"period": 3, "count": count, "kind": "read",
                       "address": 0x1000, "size_bytes": size}}


def injector(bus: str, name: str) -> dict:
    return {"name": name, "bus": bus, "role": "injector",
            "injector": {"descriptors": [{"kind": "write_fix", "address": 0x2000,
                                          "size_bytes": 8}],
                         "ctrl": ["loop", "pipe"]}}


def cycles_with(rows: list[list[str]], column: int, values: set) -> bool:
    """Whether some cycle holds a row with each of values in column."""
    seen: dict[str, set] = {}
    for row in rows:
        seen.setdefault(row[0], set()).add(row[column])
    return any(values <= names for names in seen.values())


def test_an_empty_recorder_renders_the_headers():
    trace = TraceRecorder()
    assert list(trace.bus_chunks()) == [BUS_TRACE_HEADER + "\n"]
    assert list(trace.injector_chunks()) == [INJECTOR_TRACE_HEADER + "\n"]
    assert_renders_as_reference(trace)


@pytest.mark.parametrize("first,second", [("b", "a"), ("axi0", "axi")])
def test_buses_sort_by_name_not_by_declaration(first, second):
    """Same-cycle rows of two buses, declared against name order, and one
    bus with many more transactions than the other."""
    sim = traced_run(load_topology({
        "buses": [{"name": first, "kind": "axi", "L": 1, "O": 2},
                  {"name": second, "kind": "axi", "L": 2, "O": 1}],
        "masters": [victim(first, "v0", 40), injector(first, "i0"),
                    victim(second, "v1", 5, size=4)],
        "max_cycles": 400}))
    rows = [line.split(",") for line in sim.trace.bus_csv().splitlines()[1:]]
    assert cycles_with(rows, 1, {first, second})
    assert_renders_as_reference(sim.trace)


def test_a_run_cut_at_its_cycle_cap():
    sim = traced_run(replace(load_topology(SAMPLES / "dual_bus.yaml"), max_cycles=137))
    log = [t for _, t in sim.trace.bus_log]
    assert any(t.grant_cycle is None for t in log)
    assert any(t.grant_cycle is not None and not t.done for t in log)
    assert_renders_as_reference(sim.trace)


def test_same_cycle_injector_rows_sort_by_injector_name():
    """z_inj registers first, so it has the lower master id."""
    sim = traced_run(load_topology({
        "buses": [{"name": "ahb0", "kind": "ahb", "L": 1}],
        "masters": [victim("ahb0", "core0", 10), injector("ahb0", "z_inj"),
                    injector("ahb0", "a_inj")],
        "max_cycles": 300}))
    rows = [line.split(",") for line in sim.trace.injector_csv().splitlines()[1:]]
    assert cycles_with(rows, 1, {"a_inj", "z_inj"})
    assert_renders_as_reference(sim.trace)


@pytest.mark.parametrize("rows", [CHUNK_ROWS, CHUNK_ROWS + 1])
def test_chunk_boundaries(rows):
    trace = TraceRecorder()
    bus = Bus("ahb0", "ahb", 1, trace=trace)
    bus.add_master("m0")
    for cycle in range(rows):
        bus.submit(0, "read", 0, 4, cycle)   # never granted: one REQ row each
        trace.injector(cycle, "inj", "FETCH", f"idx={cycle % 128}")
    for chunks in (trace.bus_chunks(), trace.injector_chunks()):
        assert [chunk.count("\n") for chunk in chunks] == [1, CHUNK_ROWS] + [1] * (rows - CHUNK_ROWS)
    assert_renders_as_reference(trace)


@pytest.mark.parametrize("seed", range(40))
def test_random_topologies_render_as_reference(seed, tmp_path):
    assert_renders_as_reference(traced_run(long_victims_topology(seed, tmp_path)).trace)


@pytest.mark.parametrize("render", ["bus_csv", "injector_csv"])
def test_rendering_peak_memory_is_a_few_times_the_text(render):
    """The rendering alone, under tracemalloc: sort keys, row texts, chunks
    and the joined text at once stay within five times the text."""
    sim = traced_run(replace(load_topology(SAMPLES / "dual_bus.yaml"), max_cycles=60_000))
    tracemalloc.start()
    try:
        text = getattr(sim.trace, render)()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 100_000
    assert peak <= 5 * len(text)
