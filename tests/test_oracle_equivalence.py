"""Cycle-exact equivalence of both bus models against the naive
brute-force reference simulators."""

import pytest

import reference_sim
import scenario_tools

# 12 masters check round-robin wrap-around and fixed priority with many
# masters pending at once.
MASTER_BOUNDS = [3, 12]


@pytest.mark.parametrize("max_masters", MASTER_BOUNDS)
def test_ahb_matches_reference_on_randomized_scenarios(max_masters):
    scenarios = scenario_tools.random_scenarios(seed=0xA4B, count=50,
                                                max_masters=max_masters)
    for i, sc in enumerate(scenarios):
        ref = reference_sim.simulate_ahb(sc.script, sc.n_masters, sc.latency,
                                         sc.policy)
        _, txns = scenario_tools.drive_ahb(sc)
        got = [(t.master_id, t.request_cycle, t.grant_cycle, t.complete_cycle)
               for t in txns]
        assert got == ref.grants, f"scenario {i} diverged"


def test_ahb_busy_cycles_match_reference():
    scenarios = scenario_tools.random_scenarios(seed=0xA4B, count=50)
    for i, sc in enumerate(scenarios):
        ref = reference_sim.simulate_ahb(sc.script, sc.n_masters, sc.latency,
                                         sc.policy)
        bus, txns = scenario_tools.drive_ahb(sc)
        model_busy = bus.busy_cycles_between(0, max(ref.busy_cycles) + 2)
        assert model_busy == len(ref.busy_cycles), f"scenario {i}"
        assert model_busy == sum(sc.latency + t.beats for t in txns)


@pytest.mark.parametrize("max_masters", MASTER_BOUNDS)
def test_axi_matches_reference_on_randomized_scenarios(max_masters):
    scenarios = scenario_tools.random_scenarios(seed=0xE51, count=50,
                                                max_masters=max_masters)
    for i, sc in enumerate(scenarios):
        ref = reference_sim.simulate_axi(sc.script, sc.n_masters, sc.latency,
                                         sc.policy, sc.outstanding)
        _, txns = scenario_tools.drive_axi(sc)
        got = [(t.master_id, t.request_cycle, t.grant_cycle, t.complete_cycle)
               for t in txns]
        assert got == ref.grants, f"scenario {i} diverged"


def test_reference_reproduces_hand_traces():
    """The oracle itself agrees with the worked examples."""
    # two masters at c0, fixed priority, L=2, 1 beat each
    ref = reference_sim.simulate_ahb(
        [(0, 0, "read", 4), (1, 0, "read", 4)], 2, 2, "fixed_priority")
    assert ref.grants == [(0, 0, 0, 3), (1, 0, 3, 6)]
    # AXI: two 1-beat reads, different masters, L=2
    ref = reference_sim.simulate_axi(
        [(0, 0, "read", 4), (1, 0, "read", 4)], 2, 2, "fixed_priority", 2)
    assert ref.grants == [(0, 0, 0, 2), (1, 0, 1, 3)]
    # AXI: one master, O=1, two reads at c0
    ref = reference_sim.simulate_axi(
        [(0, 0, "read", 4), (0, 0, "read", 4)], 1, 2, "fixed_priority", 1)
    assert ref.grants == [(0, 0, 0, 2), (0, 0, 2, 4)]
