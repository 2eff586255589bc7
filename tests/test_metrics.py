"""Metrics aggregation, percentiles, and CSV emission."""

import math

import pytest
from hypothesis import given, strategies as st

from tigsim.interconnect import Transaction
from tigsim.metrics import (
    CSV_HEADER,
    MasterMetrics,
    MetricsRecord,
    emit_csv,
)


def txn(txn_id, request, complete, beats=1, master=0, kind="read"):
    return Transaction(txn_id, master, kind, 0x1000, beats, request,
                       grant_cycle=request, complete_cycle=complete, done=True)


def with_latencies(latencies) -> MasterMetrics:
    m = MasterMetrics("victim")
    for i, latency in enumerate(latencies):
        m.record(txn(i, 1000 + i, 1000 + i + latency))
    return m


def test_percentile_nearest_rank_examples():
    m = with_latencies([3, 6])
    assert (m.p50, m.p95) == (3, 6)
    m = with_latencies([5])
    assert (m.p50, m.p95) == (5, 5)


def test_percentile_constant_series():
    m = with_latencies([7, 7, 7, 7])
    assert (m.p50, m.p95) == (7, 7)


@given(st.lists(st.integers(0, 300), min_size=1, max_size=200))
def test_histogram_stats_equal_the_sample_stats(samples):
    """The latency histogram gives what the sorted samples give: p50 and p95
    are the elements at nearest rank ceil(q/100 * n) of the sorted list."""
    m = with_latencies(samples)
    ranked = sorted(samples)
    for q, value in ((50, m.p50), (95, m.p95)):
        assert value == ranked[max(math.ceil(q / 100 * len(samples)), 1) - 1]
    assert m.max_latency == max(samples)
    assert m.avg_latency == sum(samples) / len(samples)


def test_record_latency_from_interconnect_example():
    m = MasterMetrics("victim")
    m.record(txn(0, 0, 3))  # L=2 single read
    assert m.latencies == {3: 1}


def test_record_aggregates():
    m = MasterMetrics("victim")
    m.record(txn(0, 0, 3))
    m.record(txn(1, 4, 10, beats=2))
    assert m.txn_count == 2
    assert m.total_bytes == 12
    assert m.avg_latency == pytest.approx(4.5)
    assert m.max_latency == 6
    assert m.completion_cycle == 10
    assert m.bandwidth == pytest.approx(12 / 10)


def test_zero_transaction_master_reports_absent():
    m = MasterMetrics("injector")
    assert m.txn_count == 0
    assert m.avg_latency is None and m.p50 is None and m.bandwidth is None
    rec = MetricsRecord("run", {"quiet": m})
    line = emit_csv([rec]).splitlines()[1]
    assert line == "run,quiet,injector,0,0,,,,,,,"


def test_csv_header_exact():
    assert emit_csv([]).splitlines()[0] == CSV_HEADER
    assert CSV_HEADER == ("scenario,master,role,txn_count,bytes,avg_latency,"
                          "p50,p95,max_latency,bandwidth,completion_cycle,slowdown")


def test_csv_slowdown_formatting_and_empty_for_non_victims():
    v = MasterMetrics("victim", slowdown=1.0)
    v.record(txn(0, 0, 3))
    i = MasterMetrics("injector")
    i.record(txn(1, 2, 4))
    out = emit_csv([MetricsRecord("contended", {"core": v, "inj": i})])
    core_row = [l for l in out.splitlines() if l.startswith("contended,core")][0]
    inj_row = [l for l in out.splitlines() if l.startswith("contended,inj")][0]
    assert core_row.endswith(",1.000000")
    assert inj_row.endswith(",")


def test_csv_rows_sorted_by_scenario_then_master():
    a = MetricsRecord("beta", {"z": MasterMetrics("victim"),
                               "a": MasterMetrics("victim")})
    b = MetricsRecord("alpha", {"m": MasterMetrics("victim")})
    rows = emit_csv([a, b]).splitlines()[1:]
    keys = [tuple(r.split(",")[:2]) for r in rows]
    assert keys == sorted(keys)


def test_csv_byte_stable():
    m = MasterMetrics("victim")
    m.record(txn(0, 0, 3))
    rec = MetricsRecord("run", {"m0": m})
    assert emit_csv([rec]) == emit_csv([rec])


def test_partial_flag_in_scenario_column():
    rec = MetricsRecord("run", {"m0": MasterMetrics("victim")},
                        partial=True)
    assert emit_csv([rec]).splitlines()[1].startswith("run:partial,m0,")

