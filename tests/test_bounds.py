"""Analytic interference bounds: a check that does not compare the model
with itself.

Round-robin AHB.  Take master i's completed transactions on one
round-robin AHB bus in id order.  A transaction requested at r reaches the
head of i's queue with none of i's own work on the bus at

    h = max(r, completion of i's previous transaction).

An AHB bus grants only while it is empty, and a grant at g of b beats
holds it until g + L + b, the cycle at which the next grant can be made.
From h until i is granted, i has a request waiting, so the bus is never
left empty: every cycle it is free it grants someone.  After a grant to
master j the pointer stands at j + 1, and the next grant goes to the first
waiting master from there on, which is at or before i in the rotation.
So the grants before i's run once round from the master holding the bus
at h (if any) towards i, and each other master j holds the bus at most
once, for at most L + B_j cycles, where B_j is j's largest burst in beats
on that bus.  Hence

    grant <= h + sum over j != i of (L + B_j),

the round-robin upper-bound delay of M. Paolieri et al., "Hardware
support for WCET analysis of hard real-time multicore systems", ISCA 2009.
A grant meets the bound exactly when every other master holds the bus
once before it, each with its largest burst.
"""

import random
from pathlib import Path

import pytest

from test_harness import random_topology, run_record
from tigsim.harness import build, load_topology

SAMPLES = Path(__file__).parent.parent / "samples"


def round_robin_ahb_grants(sim):
    """(checked, tight, violations) over every completed transaction on the
    round-robin AHB buses of a run: how many were checked, how many waited
    for another master and were granted exactly at the bound, and (bus,
    master, txn id, grant, bound) for each granted after it."""
    checked, tight, violations = 0, 0, []
    for spec in sim.topology.buses:
        if spec.kind != "ahb" or spec.policy != "round_robin":
            continue
        bus = sim.buses[spec.name]
        by_master = {}
        for t in bus.completed:
            by_master.setdefault(t.master_id, []).append(t)
        burst = {m: max(t.beats for t in txns) for m, txns in by_master.items()}
        for m, txns in by_master.items():
            others = sum(spec.latency + b for j, b in burst.items() if j != m)
            done = None
            for t in sorted(txns, key=lambda t: t.txn_id):
                head = t.request_cycle if done is None else max(t.request_cycle, done)
                bound = head + others
                checked += 1
                tight += others > 0 and t.grant_cycle == bound
                if t.grant_cycle > bound:
                    violations.append((spec.name, bus.masters[m], t.txn_id,
                                       t.grant_cycle, bound))
                done = t.complete_cycle
    return checked, tight, violations


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
def test_round_robin_ahb_grants_within_the_bound_on_random_topologies(traced, tmp_path):
    """300 random topologies; an untraced run may skip repeating periods."""
    checked = tight = 0
    violations = []
    for seed in range(300):
        topo = load_topology(random_topology(random.Random(seed), tmp_path))
        sim = build(topo, trace_enabled=traced)
        run_record(sim)
        n, at_bound, found = round_robin_ahb_grants(sim)
        checked, tight = checked + n, tight + at_bound
        violations += [(seed, *v) for v in found]
    assert violations == []
    assert checked > 1000 and tight > 0    # the bound is checked, and met


def test_round_robin_ahb_grants_within_the_bound_on_dual_bus():
    """core0 against a looping injector of 128-beat bursts, untraced: its
    longest wait, 129 cycles, is the bound 1 x (L + 128) with L = 1."""
    sim = build(load_topology(SAMPLES / "dual_bus.yaml"))
    sim.run()
    checked, tight, violations = round_robin_ahb_grants(sim)
    assert violations == []
    assert checked > 10_000 and tight > 0
