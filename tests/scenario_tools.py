"""Randomized open-loop bus scenarios and drivers for the real models.

A scenario is a script of (master_id, request_cycle, kind, size_bytes)
tuples plus the bus parameters.  The same script is fed to the package
interconnects here and to the naive simulators in reference_sim; tests
compare the resulting grant/completion cycles exactly.
"""

import random
from dataclasses import dataclass

from tigsim.interconnect import Bus


@dataclass
class Scenario:
    n_masters: int
    latency: int
    policy: str
    outstanding: int
    script: list  # (master_id, request_cycle, kind, size_bytes)


def bus_trace_rows(trace):
    """The rows of ``trace.bus_csv()`` as (cycle, bus, event, master_id, txn_id)."""
    rows = [line.split(",") for line in trace.bus_csv().splitlines()[1:]]
    return [(int(c), b, e, int(m), int(t)) for c, b, e, m, t in rows]


def random_scenarios(seed: int, count: int, max_masters: int = 3):
    """Small scenarios: <= max_masters masters, <= 30 transactions, L <= 3."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n_masters = rng.randint(1, max_masters)
        n_txns = rng.randint(1, 30)
        script = [
            (rng.randrange(n_masters),
             rng.randint(0, 40),
             rng.choice(("read", "write")),
             rng.choice((1, 4, 5, 8, 12, 16)))
            for _ in range(n_txns)
        ]
        script.sort(key=lambda s: s[1])
        out.append(Scenario(
            n_masters=n_masters,
            latency=rng.randint(1, 3),
            policy=rng.choice(("fixed_priority", "round_robin")),
            outstanding=rng.choice((1, 2, 4)),
            script=script,
        ))
    return out


def drive_ahb(scenario: Scenario, horizon: int = 2000):
    """Run the package AHB model over a script; returns the bus."""
    bus = Bus("ahb", "ahb", scenario.latency, policy=scenario.policy)
    for m in range(scenario.n_masters):
        bus.add_master(f"m{m}")
    todo = sorted(range(len(scenario.script)),
                  key=lambda i: (scenario.script[i][1], i))
    txns = [None] * len(scenario.script)
    nxt = 0
    for now in range(horizon):
        bus.begin_cycle(now)
        while nxt < len(todo) and scenario.script[todo[nxt]][1] == now:
            idx = todo[nxt]
            m, cyc, kind, size = scenario.script[idx]
            txns[idx] = bus.submit(m, kind, 0x1000 * idx, size, now)
            nxt += 1
        bus.arbitrate(now)
        if nxt == len(todo) and bus.next_event(now) is None:
            break
    assert all(t is not None and t.done for t in txns), "scenario did not drain"
    return bus, txns


def drive_axi(scenario: Scenario, horizon: int = 2000):
    bus = Bus("axi", "axi", scenario.latency, policy=scenario.policy,
              outstanding=scenario.outstanding)
    for m in range(scenario.n_masters):
        bus.add_master(f"m{m}")
    todo = sorted(range(len(scenario.script)),
                  key=lambda i: (scenario.script[i][1], i))
    txns = [None] * len(scenario.script)
    nxt = 0
    for now in range(horizon):
        bus.begin_cycle(now)
        while nxt < len(todo) and scenario.script[todo[nxt]][1] == now:
            idx = todo[nxt]
            m, cyc, kind, size = scenario.script[idx]
            txns[idx] = bus.submit(m, kind, 0x1000 * idx, size, now)
            nxt += 1
        bus.arbitrate(now)
        if nxt == len(todo) and bus.next_event(now) is None:
            break
    assert all(t is not None and t.done for t in txns), "scenario did not drain"
    return bus, txns
