"""Topology building, victim behavior, runs, and baseline/contended pairs."""

import random
from pathlib import Path

import pytest

from tigsim import descriptors as dm
from tigsim.harness import (
    BusSpec,
    ConfigError,
    CycleLimitExceeded,
    InjectorSpec,
    MasterSpec,
    Topology,
    VictimSpec,
    build,
    load_topology,
    run,
    run_pair,
)
from tigsim.metrics import emit_csv

SAMPLES = Path(__file__).parent.parent / "samples"


def victim_spec(period=4, count=10, size=4, kind="read"):
    return VictimSpec(period=period, count=count, kind=kind,
                      address=0x8000_0000, size_bytes=size)


def loop_injector(size=4, ctrl=("loop", "pipe"), via="apb", enabled=True):
    return InjectorSpec(
        descriptors=(dm.Descriptor(dm.Kind.WRITE_FIX, address=0x4000_0000,
                                   size_bytes=size, last=True),),
        ctrl=ctrl, program_via=via, enabled=enabled)


def shared_bus_topology(policy="round_robin", injector=None, max_cycles=100000):
    masters = [MasterSpec("core0", "ahb0", "victim", victim=victim_spec())]
    if injector is not None:
        masters.append(MasterSpec("inj0", "ahb0", "injector", injector=injector))
    return Topology(
        buses=(BusSpec("ahb0", "ahb", 2, policy),),
        masters=tuple(masters),
        max_cycles=max_cycles,
    )


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_dual_bus_sample_builds():
    topo = load_topology(SAMPLES / "dual_bus.yaml")
    assert len(topo.buses) == 2
    roles = [m.role for m in topo.masters]
    assert roles.count("victim") == 2 and roles.count("injector") == 2
    build(topo)  # must not raise


@pytest.mark.parametrize("sample,digest", [
    ("dual_bus.yaml", "83b4e36acb60514b"),
    ("two_masters_ahb.yaml", "7bba4f65e4392d67"),
])
def test_sample_digests_are_pinned(sample, digest):
    assert load_topology(SAMPLES / sample).digest() == digest


def test_config_schema_example_loads():
    """The normative example in config-schema.md is accepted as written."""
    doc = (SAMPLES.parent / "config-schema.md").read_text(encoding="utf-8")
    example = doc.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert load_topology(example, base_dir=SAMPLES).digest() == "cf67475d1483aa7c"


def test_unknown_bus_reference_reports_path():
    cfg = {
        "buses": [{"name": "a", "kind": "ahb", "L": 1}],
        "masters": [
            {"name": "v", "bus": "a", "role": "victim",
             "victim": {"period": 1, "count": 1, "kind": "read", "address": 0}},
            {"name": "x", "bus": "nope", "role": "victim",
             "victim": {"period": 1, "count": 1, "kind": "read", "address": 0}},
        ],
    }
    with pytest.raises(ConfigError) as excinfo:
        load_topology(cfg)
    assert excinfo.value.path == "masters[1].bus"


def test_oversized_inline_program_reports_master():
    descs = [{"kind": "read", "address": 0}] * 129
    cfg = {
        "buses": [{"name": "a", "kind": "ahb", "L": 1}],
        "masters": [{"name": "big", "bus": "a", "role": "injector",
                     "injector": {"descriptors": descs}}],
    }
    with pytest.raises(ConfigError) as excinfo:
        load_topology(cfg)
    assert "big" in str(excinfo.value)


def test_empty_topology_rejected():
    with pytest.raises(ConfigError):
        load_topology({"buses": [], "masters": []})
    with pytest.raises(ConfigError):
        load_topology({"buses": [{"name": "a", "kind": "ahb", "L": 1}],
                       "masters": []})


def test_names_are_csv_safe():
    cfg = {
        "name": "has,comma",
        "buses": [{"name": "a", "kind": "ahb", "L": 1}],
        "masters": [{"name": "v", "bus": "a", "role": "victim",
                     "victim": {"period": 1, "count": 1, "kind": "read",
                                "address": 0}}],
    }
    with pytest.raises(ConfigError):
        load_topology(cfg)
    cfg["name"] = "fine"
    cfg["masters"][0]["name"] = "v,1"
    with pytest.raises(ConfigError):
        load_topology(cfg)


def test_two_injectors_one_bus_round_robin():
    """Several injectors interleave fairly and the victim still finishes."""
    topo = Topology(
        buses=(BusSpec("ahb0", "ahb", 2, "round_robin"),),
        masters=(
            MasterSpec("core0", "ahb0", "victim", victim=victim_spec()),
            MasterSpec("inj0", "ahb0", "injector", injector=loop_injector()),
            MasterSpec("inj1", "ahb0", "injector",
                       injector=loop_injector(size=8)),
        ),
    )
    one = run(shared_bus_topology(injector=loop_injector()))
    two = run(topo)
    assert two.masters["core0"].completion_cycle >= \
        one.masters["core0"].completion_cycle
    assert two.masters["inj0"].txn_count > 0
    assert two.masters["inj1"].txn_count > 0


def test_duplicate_master_names_rejected():
    cfg = {
        "buses": [{"name": "a", "kind": "ahb", "L": 1}],
        "masters": [
            {"name": "v", "bus": "a", "role": "victim",
             "victim": {"period": 1, "count": 1, "kind": "read", "address": 0}},
            {"name": "v", "bus": "a", "role": "victim",
             "victim": {"period": 1, "count": 1, "kind": "read", "address": 0}},
        ],
    }
    with pytest.raises(ConfigError):
        load_topology(cfg)


def test_topology_digest_tracks_seed():
    t1 = shared_bus_topology()
    import dataclasses
    t2 = dataclasses.replace(t1, seed=99)
    assert t1.digest() != t2.digest()


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_victim_alone_completion():
    """p=4, n=10, 1-beat reads, L=2: last access issues at 36, completes 39."""
    rec = run(shared_bus_topology())
    m = rec.masters["core0"]
    assert m.txn_count == 10
    assert m.completion_cycle == 39
    assert m.max_latency == 3  # never contended


def test_saturating_injector_delays_victim():
    rec = run(shared_bus_topology(injector=loop_injector()))
    assert rec.masters["core0"].completion_cycle > 39


def test_cycle_limit_exceeded_with_partial_metrics():
    topo = shared_bus_topology(injector=loop_injector())
    import dataclasses
    topo = dataclasses.replace(
        topo,
        masters=(dataclasses.replace(topo.masters[0],
                                     victim=victim_spec(count=1000)),
                 topo.masters[1]))
    with pytest.raises(CycleLimitExceeded) as excinfo:
        run(topo, max_cycles=10)
    (record,) = excinfo.value.records
    assert record.partial
    assert record.cycles == 10


def test_run_pair_disabled_injector_slowdown_exactly_one():
    pair = run_pair(shared_bus_topology(injector=loop_injector(enabled=False)))
    assert pair.slowdown["core0"] == 1.0
    assert pair.contended.masters["inj0"].txn_count == 0


def test_run_pair_saturating_injector_slowdown_above_one():
    pair = run_pair(shared_bus_topology(injector=loop_injector()))
    assert pair.slowdown["core0"] > 1.0
    assert pair.contended.masters["core0"].slowdown == pair.slowdown["core0"]
    assert pair.baseline.masters["core0"].slowdown is None


def test_run_pair_other_bus_slowdown_exactly_one():
    topo = Topology(
        buses=(BusSpec("ahb0", "ahb", 2, "round_robin"),
               BusSpec("ahb1", "ahb", 2, "round_robin")),
        masters=(
            MasterSpec("core0", "ahb0", "victim", victim=victim_spec()),
            MasterSpec("inj0", "ahb1", "injector", injector=loop_injector()),
        ),
    )
    pair = run_pair(topo)
    assert pair.slowdown["core0"] == 1.0


def test_run_pair_requires_victim_and_injector():
    with pytest.raises(ConfigError):
        run_pair(shared_bus_topology())  # no injector
    topo = Topology(
        buses=(BusSpec("a", "ahb", 1, "fixed_priority"),),
        masters=(MasterSpec("i", "a", "injector", injector=loop_injector()),),
    )
    with pytest.raises(ConfigError):
        run_pair(topo)


def test_baseline_identical_to_injector_removed():
    topo = shared_bus_topology(injector=loop_injector())
    baseline_sim = build(topo, trace_enabled=True, disable_injectors=True)
    baseline_sim.run()
    removed = shared_bus_topology()
    removed_sim = build(removed, trace_enabled=True)
    removed_sim.run()
    assert baseline_sim.trace.bus_csv() == removed_sim.trace.bus_csv()


def test_monotonicity_adding_injector_never_helps():
    baseline = run(shared_bus_topology()).masters["core0"].completion_cycle
    for size in (4, 8, 64):
        rec = run(shared_bus_topology(injector=loop_injector(size=size)))
        assert rec.masters["core0"].completion_cycle >= baseline


def test_txn_counts_sum_to_bus_completions():
    sim = build(shared_bus_topology(injector=loop_injector()))
    rec = sim.run()
    total = sum(len(b.completed) for b in sim.buses.values())
    assert sum(m.txn_count for m in rec.masters.values()) == total


def test_transaction_dump_from_run():
    from tigsim.metrics import emit_transactions_csv
    sim = build(shared_bus_topology(injector=loop_injector()))
    rec = sim.run()
    csv = emit_transactions_csv(
        (rec.scenario, master, txn) for master, txn in sim.transactions())
    lines = csv.splitlines()
    assert len(lines) - 1 == sum(m.txn_count for m in rec.masters.values())
    assert lines[0].startswith("scenario,master,txn_id")
    assert any(",core0," in l and ",read," in l for l in lines[1:])


def test_run_determinism():
    topo = shared_bus_topology(injector=loop_injector())
    from tigsim.metrics import emit_csv
    assert emit_csv([run(topo)]) == emit_csv([run(topo)])


def test_manual_stepping_equals_run_trace():
    topo = shared_bus_topology(injector=loop_injector(size=8))
    run_sim = build(topo, trace_enabled=True)
    run_sim.run()
    step_sim = build(topo, trace_enabled=True)
    for _ in range(run_sim.now):
        step_sim.step_cycle()
    assert step_sim.trace.bus_csv() == run_sim.trace.bus_csv()


def random_program(rng: random.Random, dsl: bool) -> list[dict]:
    """1-4 random inline descriptor entries.  A DSL program leaves out
    what the DSL cannot spell: irq flags and delay repetitions."""
    program = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("read", "write", "read_fix", "write_fix", "delay"))
        if kind == "delay":
            entry = {"kind": kind, "delay_cycles": rng.randint(1, 20)}
        else:
            entry = {"kind": kind, "address": rng.randrange(0, 1 << 20, 4),
                     "size_bytes": rng.choice((1, 4, 12, 32, 64)),
                     "reps": rng.randint(1, 3)}
        if not dsl:
            entry.update(reps=rng.randint(1, 3), irq_on_done=rng.random() < 0.5)
        program.append(entry)
    return program


def tig_source(program: list[dict]) -> str:
    return "".join(
        f"delay {e['delay_cycles']}\n" if e["kind"] == "delay" else
        f"{e['kind']} {e['address']:#x} size={e['size_bytes']} reps={e['reps']}\n"
        for e in program)


def random_topology(rng: random.Random, pattern_dir: Path) -> dict:
    """A topology mapping: 1-3 mixed AHB/AXI buses, victims, and injectors
    with random programs (inline, or .tig files written to pattern_dir),
    modes and programming paths.  About a quarter of the seeds crowd up
    to 12 masters onto one bus.  Victims come first, so fixed priority
    cannot starve them."""
    crowded = rng.random() < 0.25
    buses = []
    for b in range(1 if crowded else rng.randint(1, 3)):
        bus = {"name": f"bus{b}", "kind": rng.choice(("ahb", "axi")),
               "L": rng.randint(1, 4),
               "policy": rng.choice(("fixed_priority", "round_robin"))}
        if bus["kind"] == "axi":
            bus["O"] = rng.randint(1, 3)
        buses.append(bus)
    per_role = 6 if crowded else 3
    victims = [{"name": f"v{i}", "bus": rng.choice(buses)["name"], "role": "victim",
                "victim": {"period": rng.randint(1, 30), "count": rng.randint(1, 8),
                           "kind": rng.choice(("read", "write")),
                           "address": rng.randrange(0, 1 << 32, 4),
                           "size_bytes": rng.choice((1, 4, 8, 16, 64))}}
               for i in range(rng.randint(1, per_role))]
    injectors = []
    for i in range(rng.randint(0, per_role)):
        dsl = rng.random() < 0.4
        program = random_program(rng, dsl)
        injector = {"ctrl": [flag for flag in ("loop", "pipe") if rng.random() < 0.5],
                    "program_at": rng.randint(0, 40),
                    "program_via": rng.choice(("apb", "data_bus"))}
        if dsl:
            (pattern_dir / f"inj{i}.tig").write_text(tig_source(program), encoding="utf-8")
            injector["pattern"] = f"inj{i}.tig"
        else:
            injector["descriptors"] = program
        injectors.append({"name": f"inj{i}", "bus": rng.choice(buses)["name"],
                          "role": "injector", "injector": injector})
    return {"buses": buses, "masters": victims + injectors, "max_cycles": 3000}


def run_record(sim):
    """The record of sim.run(), partial when it hit the cycle limit."""
    try:
        return sim.run()
    except CycleLimitExceeded as exc:
        return exc.records[0]


@pytest.mark.parametrize("seed", range(60))
def test_run_equals_step_cycle_on_random_topology(seed, tmp_path):
    topo = load_topology(random_topology(random.Random(seed), tmp_path),
                         base_dir=tmp_path)
    run_sim = build(topo, trace_enabled=True)
    record = run_record(run_sim)
    step_sim = build(topo, trace_enabled=True)
    for _ in range(run_sim.now):
        step_sim.step_cycle()
    assert step_sim.trace.bus_csv() == run_sim.trace.bus_csv()
    assert step_sim.trace.injector_csv() == run_sim.trace.injector_csv()
    stepped = step_sim._collect(cycles=step_sim.now, partial=record.partial)
    assert emit_csv([stepped]) == emit_csv([record])


@pytest.mark.parametrize("seed", range(60))
def test_conservation_on_random_topology(seed, tmp_path):
    """Nothing a master submits is lost, duplicated or mis-sized."""
    topo = load_topology(random_topology(random.Random(seed), tmp_path),
                         base_dir=tmp_path)
    sim = build(topo)
    submitted = {bus.name: [] for bus in sim.buses.values()}
    for bus in sim.buses.values():
        def submit(master_id, kind, address, size_bytes, now,
                   _submit=bus.submit, _log=submitted[bus.name]):
            txn = _submit(master_id, kind, address, size_bytes, now)
            _log.append((txn, size_bytes))
            return txn
        bus.submit = submit
    record = run_record(sim)

    beats = dict.fromkeys(record.masters, 0)
    for name, txn in sim.transactions():
        beats[name] += txn.beats
    for name, mm in record.masters.items():
        assert mm.total_bytes == 4 * beats[name], name

    for bus in sim.buses.values():
        log = submitted[bus.name]
        assert all(txn.beats == -(-size // 4) for txn, size in log)
        for master_id, name in enumerate(bus.masters):
            waiting = sum(len(ch.queues[master_id]) for ch in bus._channels)
            granted = sum(t.master_id == master_id
                          for ch in bus._channels for t in ch.granted)
            submits = sum(txn.master_id == master_id for txn, _ in log)
            assert submits == record.masters[name].txn_count + waiting + granted, name
        if bus.kind == "ahb":
            # An AHB grant waits for the previous completion, so the bus
            # is busy exactly L + beats cycles per transaction up to the
            # last completion, and a transaction still in flight adds none.
            end = max((t.complete_cycle for t in bus.completed), default=0)
            assert bus.busy_cycles_between(0, end) == sum(
                bus.target.first_latency + t.beats for t in bus.completed)


def test_run_steps_a_waiting_victim_only_when_due():
    """The scheduler wakes a master at its own events, not at every event
    of a saturating neighbour: a victim steps once at the start, then at
    each issue cycle and each completion."""
    count = 5
    topo = Topology(
        buses=(BusSpec("ahb0", "ahb", 2, "fixed_priority"),),
        masters=(MasterSpec("core0", "ahb0", "victim",
                            victim=victim_spec(period=1000, count=count)),
                 MasterSpec("inj0", "ahb0", "injector", injector=loop_injector())),
    )
    sim = build(topo)
    victim = sim.victims[0]
    steps = []
    step = victim.step
    victim.step = lambda now: (steps.append(now), step(now))[1]
    record = sim.run()
    assert record.masters["core0"].txn_count == count
    assert record.masters["inj0"].txn_count > 1000
    assert len(steps) <= 2 * count + 1


def test_injector_finishes_nonloop_program():
    topo = Topology(
        buses=(BusSpec("a", "ahb", 1, "fixed_priority"),),
        masters=(MasterSpec("i", "a", "injector",
                            injector=InjectorSpec(
                                descriptors=(dm.Descriptor(
                                    dm.Kind.WRITE, address=0, size_bytes=4,
                                    reps=3, last=True),),
                                ctrl=("pipe",))),),
    )
    sim = build(topo)
    rec = sim.run()
    assert sim.injector("i").done
    assert rec.masters["i"].txn_count == 3


def test_program_at_delays_injection():
    topo = Topology(
        buses=(BusSpec("a", "ahb", 1, "fixed_priority"),),
        masters=(MasterSpec("i", "a", "injector",
                            injector=InjectorSpec(
                                descriptors=(dm.Descriptor(
                                    dm.Kind.WRITE, address=0, size_bytes=4,
                                    last=True),),
                                ctrl=("pipe",), program_at=50)),),
    )
    sim = build(topo)
    rec = sim.run()
    # fetch at 50, decode 51, request 52
    assert rec.masters["i"].first_request == 52


def delay_only_injector(n_descriptors=64, via="apb"):
    """Injection itself never touches the bus; only the programming path
    can interfere, which isolates the configuration-port benefit."""
    descs = tuple(dm.Descriptor.delay(10, last=(i == n_descriptors - 1))
                  for i in range(n_descriptors))
    return InjectorSpec(descriptors=descs, ctrl=("pipe",), program_via=via)


def test_data_bus_programming_interferes_apb_does_not():
    apb = run(shared_bus_topology(injector=delay_only_injector(via="apb")))
    data = run(shared_bus_topology(injector=delay_only_injector(via="data_bus")))
    assert apb.masters["core0"].completion_cycle == 39  # undisturbed baseline
    assert data.masters["core0"].completion_cycle > 39
    # the buffer and control writes appear as ordinary bus transactions
    assert apb.masters["inj0"].txn_count == 0
    assert data.masters["inj0"].txn_count == 2 * 64 + 1


def test_untraced_build_has_no_recorder():
    assert build(shared_bus_topology(injector=loop_injector())).trace is None
    assert build(shared_bus_topology(), trace_enabled=True).trace is not None


def test_inline_descriptors_match_the_dsl():
    """Both front ends build the same program from the same statements."""
    inline = [{"kind": "read", "address": 0x8000_0000},
              {"kind": "write", "address": 0x4000_0000, "size_bytes": 64, "reps": 4},
              {"kind": "delay", "delay_cycles": 100}]
    cfg = {
        "buses": [{"name": "a", "kind": "ahb", "L": 1}],
        "masters": [{"name": "i", "bus": "a", "role": "injector",
                     "injector": {"descriptors": inline}}],
    }
    from tigsim import pattern as pat
    dsl = pat.compile_file(SAMPLES / "basic.tig")
    assert list(load_topology(cfg).masters[0].injector.descriptors) == dsl


def test_run_pair_contended_limit_keeps_both_records():
    topo = Topology(
        buses=(BusSpec("ahb0", "ahb", 2, "fixed_priority"),),
        masters=(MasterSpec("inj0", "ahb0", "injector", injector=loop_injector()),
                 MasterSpec("core0", "ahb0", "victim", victim=victim_spec())),
        max_cycles=1000,
    )
    with pytest.raises(CycleLimitExceeded) as excinfo:
        run_pair(topo)
    records = excinfo.value.records
    assert [(r.scenario, r.partial) for r in records] == [
        ("baseline", False), ("contended", True)]
