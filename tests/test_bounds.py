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

Fixed-priority AHB, master 0.  Define h as above.  At h master 0's
request waits at the head of its queue and none of its own work holds the
bus.  A fixed-priority scan starts at master 0, so master 0 wins every
cycle at which the bus is free and it waits.  If no other master holds the
bus at h (no grant g < h with completion > h), the bus is free at h and
the grant comes at h.  Otherwise the holder j was granted at some g <= h - 1
and frees the bus at g + L + b <= h - 1 + L + B_j, and master 0 is granted
then.  Hence

    grant <= h + max over j != 0 of (L + B_j) - 1,

met exactly when the holder was granted at h - 1 with the largest burst on
the bus.

Round-robin AXI address acceptance, per channel.  Take master i's
completed transactions on one channel (reads or writes) in id order.  Its
queue is FIFO and a channel grants at most once per cycle, so a request at
r reaches the head of the queue at s = max(r, i's previous grant on the
channel + 1).  From s on none of i's own transactions is granted before
this one, so its in-flight count only falls; let c be the first cycle >= s
at which it is under the cap O, that is, at which at most O - 1 of its
earlier transactions on the channel have not completed.  From c on, i
waits under the cap every cycle, so the channel grants someone every cycle.
The grant goes to the first eligible master from the round-robin pointer,
which lies at or before i in the rotation, and the pointer moves one past
it: each grant to another master brings the pointer strictly closer to i,
so each other master is granted at most once before i.  Beats go in grant
order, so each master granted before i on the channel completes before i;
let M_c count the masters with a completed transaction on the channel.
Hence

    grant <= c + (M_c - 1),

met exactly when every other master is granted once, on consecutive
cycles, before i.

AXI beat stall.  A transaction granted at g nominally delivers its first
beat at g + L; it stalls to the cycle after the last beat of the channel's
previous grant when that is later.  Beats go one per cycle in grant order,
so each cycle of [g + L, first beat) carries a beat of an earlier-granted
transaction on the same channel, and only transactions whose last beat
falls at or after g + L can carry one.  Hence

    first beat - (g + L) <= sum of the beats of the earlier-granted
                            transactions on the channel whose last beat
                            is at or after g + L,

met exactly when every such beat falls in [g + L, first beat).
"""

import random
from pathlib import Path

import pytest

from test_harness import random_topology, run_record
from tigsim.harness import build, load_topology

SAMPLES = Path(__file__).parent.parent / "samples"


def _buses(sim, kind, policy=None):
    """(spec, bus) for each bus of the run of this kind and policy."""
    for spec in sim.topology.buses:
        if spec.kind == kind and policy in (None, spec.policy):
            yield spec, sim.buses[spec.name]


def _channels(bus):
    """The completed transactions of each channel of an AXI bus."""
    return [[t for t in bus.completed if t.kind == kind] for kind in ("read", "write")]


def _in_id_order_by_master(txns):
    """Master id -> that master's transactions among txns, in id order."""
    by_master = {}
    for t in sorted(txns, key=lambda t: t.txn_id):
        by_master.setdefault(t.master_id, []).append(t)
    return by_master


def round_robin_ahb_grants(sim):
    """(checked, tight, violations) over every completed transaction on the
    round-robin AHB buses of a run: how many were checked, how many waited
    for another master and were granted exactly at the bound, and (bus,
    master, txn id, grant, bound) for each granted after it."""
    checked, tight, violations = 0, 0, []
    for spec, bus in _buses(sim, "ahb", "round_robin"):
        by_master = _in_id_order_by_master(bus.completed)
        burst = {m: max(t.beats for t in txns) for m, txns in by_master.items()}
        for m, txns in by_master.items():
            others = sum(spec.latency + b for j, b in burst.items() if j != m)
            done = None
            for t in txns:
                head = t.request_cycle if done is None else max(t.request_cycle, done)
                bound = head + others
                checked += 1
                tight += others > 0 and t.grant_cycle == bound
                if t.grant_cycle > bound:
                    violations.append((spec.name, bus.masters[m], t.txn_id,
                                       t.grant_cycle, bound))
                done = t.complete_cycle
    return checked, tight, violations


def fixed_priority_ahb_grants(sim):
    """(checked, tight, violations) for master 0 on the fixed-priority AHB
    buses of a run; tight counts grants at the bound behind a holder."""
    checked, tight, violations = 0, 0, []
    for spec, bus in _buses(sim, "ahb", "fixed_priority"):
        by_master = _in_id_order_by_master(bus.completed)
        if 0 not in by_master:
            continue
        others = [t for m, txns in by_master.items() if m != 0 for t in txns]
        longest = max((spec.latency + t.beats for t in others), default=0)
        done = None
        for t in by_master[0]:
            head = t.request_cycle if done is None else max(t.request_cycle, done)
            held = any(o.grant_cycle < head < o.complete_cycle for o in others)
            bound = head + longest - 1 if held else head
            checked += 1
            tight += held and t.grant_cycle == bound
            if t.grant_cycle > bound:
                violations.append((spec.name, bus.masters[0], t.txn_id,
                                   t.grant_cycle, bound))
            done = t.complete_cycle
    return checked, tight, violations


def round_robin_axi_grants(sim):
    """(checked, tight, violations) over every completed transaction on the
    channels of the round-robin AXI buses of a run; tight counts grants at
    the bound with another master on the channel."""
    checked, tight, violations = 0, 0, []
    for spec, bus in _buses(sim, "axi", "round_robin"):
        for channel in _channels(bus):
            by_master = _in_id_order_by_master(channel)
            others = len(by_master) - 1
            for txns in by_master.values():
                for k, t in enumerate(txns):
                    head = t.request_cycle if k == 0 else max(
                        t.request_cycle, txns[k - 1].grant_cycle + 1)
                    # Completions on a channel come in grant order, so the
                    # O-th latest earlier transaction is the one to wait for.
                    under_cap = (head if k < spec.outstanding else
                                 max(head, txns[k - spec.outstanding].complete_cycle))
                    bound = under_cap + others
                    checked += 1
                    tight += others > 0 and t.grant_cycle == bound
                    if t.grant_cycle > bound:
                        violations.append((spec.name, bus.masters[t.master_id],
                                           t.txn_id, t.grant_cycle, bound))
    return checked, tight, violations


def axi_beat_stalls(sim):
    """(checked, tight, violations) over every completed transaction on the
    AXI buses of a run; tight counts stalls that meet a non-zero bound."""
    checked, tight, violations = 0, 0, []
    for spec, bus in _buses(sim, "axi"):
        for channel in _channels(bus):
            granted = sorted(channel, key=lambda t: t.grant_cycle)
            for k, t in enumerate(granted):
                nominal = t.grant_cycle + spec.latency
                stall = t.complete_cycle - t.beats + 1 - nominal
                bound = sum(e.beats for e in granted[:k] if e.complete_cycle >= nominal)
                checked += 1
                tight += bound > 0 and stall == bound
                if stall > bound:
                    violations.append((spec.name, bus.masters[t.master_id],
                                       t.txn_id, stall, bound))
    return checked, tight, violations


def on_random_topologies(check, traced, pattern_dir):
    """Sum check's (checked, tight, violations) over 300 random topologies;
    each violation is prefixed with its seed."""
    checked = tight = 0
    violations = []
    for seed in range(300):
        topo = load_topology(random_topology(random.Random(seed), pattern_dir))
        sim = build(topo, trace_enabled=traced)
        run_record(sim)
        n, at_bound, found = check(sim)
        checked, tight = checked + n, tight + at_bound
        violations += [(seed, *v) for v in found]
    return checked, tight, violations


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
def test_round_robin_ahb_grants_within_the_bound_on_random_topologies(traced, tmp_path):
    """300 random topologies; an untraced run may skip repeating periods."""
    checked, tight, violations = on_random_topologies(round_robin_ahb_grants, traced,
                                                      tmp_path)
    assert violations == []
    assert checked > 1000 and tight > 0    # the bound is checked, and met


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("check, least", [
    (fixed_priority_ahb_grants, 500),
    (round_robin_axi_grants, 1000),
    (axi_beat_stalls, 3000),
], ids=["fixed-priority-ahb", "round-robin-axi", "axi-stall"])
def test_bound_holds_on_random_topologies(check, least, traced, tmp_path):
    """The same 300 random topologies, for the bounds derived above."""
    checked, tight, violations = on_random_topologies(check, traced, tmp_path)
    assert violations == []
    assert checked > least and tight > 0    # the bound is checked, and met


def test_round_robin_ahb_grants_within_the_bound_on_dual_bus():
    """core0 against a looping injector of 128-beat bursts, untraced: its
    longest wait, 129 cycles, is the bound 1 x (L + 128) with L = 1."""
    sim = build(load_topology(SAMPLES / "dual_bus.yaml"))
    sim.run()
    checked, tight, violations = round_robin_ahb_grants(sim)
    assert violations == []
    assert checked > 10_000 and tight > 0


def test_axi_beat_stalls_within_the_bound_on_dual_bus():
    """core1's reads stall behind the looping injector's 128-beat bursts on
    the fixed-priority AXI bus, untraced."""
    sim = build(load_topology(SAMPLES / "dual_bus.yaml"))
    sim.run()
    checked, _, violations = axi_beat_stalls(sim)
    assert violations == []
    assert checked > 7000
