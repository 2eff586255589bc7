"""Topology building, victim behavior, runs, and baseline/contended pairs."""

import hashlib
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from scenario_tools import bus_trace_rows
from tigsim import descriptors as dm
from tigsim import harness
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
from tigsim.injector import ERRINFO_OFFSET, STATUS_DONE, STATUS_OFFSET, Injector, _Stage
from tigsim.interconnect import Bus, _Channel
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


@pytest.mark.parametrize("max_cycles,bus_digest,injector_digest", [
    (None, "d8eb7bd4f8f72e76ab0a3be5f402daae0b7df2a221a5f8788f3d75562811a758",
     "52de40d1428735b00d946142bad54f8fb01ea66f8352df155db586c4318b219d"),
    (5000, "b67a2903be7d4ceec88d9dc13873206a99466beece8ea2d9613d823feae22d04",
     "65a6a2e660c8c66a944a48879c4892305dc5cc9384f21ef55bd22a9eb247e906"),
    (137, "7fc9172c2c83bb82c0bdb1e28db715d99cece62fa839172801bfb75bf224e7c3",
     "0471d3bddda50ea54f65089c1668e7a65fae11078ad729cdd0b5b24e49b340a8"),
])
def test_sample_trace_digests_are_pinned(max_cycles, bus_digest, injector_digest):
    """The bytes of both traces of a traced dual_bus.yaml run, to the end
    and cut at a cycle limit."""
    topo = load_topology(SAMPLES / "dual_bus.yaml")
    if max_cycles is not None:
        topo = replace(topo, max_cycles=max_cycles)
    sim = build(topo, trace_enabled=True)
    try:
        sim.run()
    except CycleLimitExceeded:
        assert max_cycles is not None
    assert hashlib.sha256(sim.trace.bus_csv().encode()).hexdigest() == bus_digest
    assert hashlib.sha256(sim.trace.injector_csv().encode()).hexdigest() == injector_digest


def test_config_schema_example_loads(monkeypatch):
    """The normative example in config-schema.md is accepted as written;
    its pattern path is relative, so a mapping resolves it from samples/."""
    doc = (SAMPLES.parent / "config-schema.md").read_text(encoding="utf-8")
    example = doc.split("```yaml\n", 1)[1].split("```", 1)[0]
    raw = yaml.safe_load(example)
    monkeypatch.chdir(SAMPLES)
    assert load_topology(raw).digest() == "cf67475d1483aa7c"


def test_load_topology_reads_a_path_or_a_mapping(tmp_path):
    """A one-line flow-style file loads like any other.  YAML text is not
    a source, with or without a newline: it is an unreadable path."""
    text = ("{buses: [{name: a, kind: ahb, L: 1}], masters: [{name: v, bus: a, "
            "role: victim, victim: {period: 1, count: 1, kind: read, address: 0}}]}")
    cfg = tmp_path / "flow.yaml"
    cfg.write_text(text, encoding="utf-8")
    digest = load_topology(yaml.safe_load(text)).digest()
    assert load_topology(cfg).digest() == load_topology(str(cfg)).digest() == digest
    for source in (text, text + "\n"):
        with pytest.raises(ConfigError, match="cannot read"):
            load_topology(source)


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
    topo = shared_bus_topology(injector=loop_injector(), max_cycles=10)
    topo = replace(topo, masters=(replace(topo.masters[0], victim=victim_spec(count=1000)),
                                  topo.masters[1]))
    with pytest.raises(CycleLimitExceeded) as excinfo:
        run(topo)
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


def test_baseline_identical_to_injector_removed(monkeypatch):
    """run_pair's own baseline (the topology it derives, with every
    injector disabled) traces exactly as the topology without them."""
    sims = []
    monkeypatch.setattr(harness, "build", lambda topology: sims.append(
        build(topology, trace_enabled=True)) or sims[-1])
    run_pair(shared_bus_topology(injector=loop_injector()))
    baseline_sim = sims[0]
    assert baseline_sim.topology.name == "baseline"
    removed_sim = build(shared_bus_topology(), trace_enabled=True)
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
    with random programs (inline, or .tig files written to pattern_dir and
    named by absolute path), modes and programming paths.  About a quarter
    of the seeds crowd up to 12 masters onto one bus.  Victims come first,
    so fixed priority cannot starve them."""
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
            injector["pattern"] = str(pattern_dir / f"inj{i}.tig")
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


def run_equals_step_cycle(topo):
    """Run topo, then step a second build every cycle up to where the run
    ended; both traces and the metrics CSV must match.  Returns the run's
    simulation and record."""
    run_sim = build(topo, trace_enabled=True)
    record = run_record(run_sim)
    step_sim = build(topo, trace_enabled=True)
    for _ in range(run_sim.now):
        step_sim.step_cycle()
    assert step_sim.trace.bus_csv() == run_sim.trace.bus_csv()
    assert step_sim.trace.injector_csv() == run_sim.trace.injector_csv()
    stepped = step_sim._collect(cycles=step_sim.now, partial=record.partial)
    assert emit_csv([stepped]) == emit_csv([record])
    return run_sim, record


@pytest.mark.parametrize("seed", range(60))
def test_run_equals_step_cycle_on_random_topology(seed, tmp_path):
    topo = load_topology(random_topology(random.Random(seed), tmp_path))
    run_equals_step_cycle(topo)


@pytest.mark.parametrize("seed", range(60))
def test_conservation_on_random_topology(seed, tmp_path):
    """Nothing a master submits is lost, duplicated or mis-sized, in a
    traced run and in an untraced one, which may skip repeating periods."""
    topo = load_topology(random_topology(random.Random(seed), tmp_path))
    for traced in (True, False):
        sim = build(topo, trace_enabled=traced)
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
            assert all(ch.waiting == sum(map(len, ch.queues)) for ch in bus._channels)
            log = submitted[bus.name]
            assert all(txn.beats == -(-size // 4) for txn, size in log)
            live = [t for ch in bus._channels
                    for t in (*ch.granted, *[t for q in ch.queues for t in q])]
            ids = sorted(t.txn_id for t in (*bus.completed, *live))
            assert ids == list(range(bus.next_id))
            if traced:
                # Every submit is simulated (none skipped), so the log holds each.
                for master_id, name in enumerate(bus.masters):
                    live_here = sum(t.master_id == master_id for t in live)
                    submits = sum(txn.master_id == master_id for txn, _ in log)
                    assert submits == record.masters[name].txn_count + live_here, name
            if bus.kind == "ahb":
                # An AHB grant waits for the previous completion, so the bus
                # is busy exactly L + beats cycles per transaction up to the
                # last completion, and a transaction still in flight adds none.
                end = max((t.complete_cycle for t in bus.completed), default=0)
                assert bus.busy_cycles_between(0, end) == sum(
                    bus.target.first_latency + t.beats for t in bus.completed)


def test_methods_wrapped_on_instances_after_build_see_every_call():
    """A profiler may shadow these methods on the built instances; the run
    must look each one up at call time, and every submit must pass through
    its bus's wrapper."""
    topo = replace(load_topology(SAMPLES / "dual_bus.yaml"), max_cycles=5000)
    sim = build(topo, trace_enabled=True)
    hooks = [(sim, "_next_event")]
    hooks += [(bus, attr) for bus in sim.buses.values()
              for attr in ("begin_cycle", "arbitrate")]
    hooks += [(master, "step") for master in (*sim.victims, *sim.hosts)]
    hooks += [(host.injector, "step") for host in sim.hosts]
    calls = [0] * len(hooks)
    for n, (obj, attr) in enumerate(hooks):
        def counted(*args, _original=getattr(obj, attr), _n=n):
            calls[_n] += 1
            return _original(*args)
        setattr(obj, attr, counted)
    submits = Counter()
    for bus in sim.buses.values():
        def submit(master_id, *args, _submit=bus.submit, _labels=bus.masters):
            submits[_labels[master_id]] += 1
            return _submit(master_id, *args)
        bus.submit = submit

    record = run_record(sim)
    assert record.partial
    assert all(calls), [f"{type(obj).__name__}.{attr}"
                        for (obj, attr), n in zip(hooks, calls) if not n]
    for bus in sim.buses.values():
        live = Counter(bus.masters[t.master_id] for ch in bus._channels
                       for t in (*ch.granted, *[t for q in ch.queues for t in q]))
        for name in bus.masters:
            assert submits[name] == record.masters[name].txn_count + live[name], name


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


def two_bus_topology(b_first: bool, victim=None, max_cycles=100000):
    """Bus a carries a victim; bus b (AXI) only an injector looping one
    request per cycle.  b_first registers bus b and its master first."""
    busy = InjectorSpec(descriptors=(dm.Descriptor(
        dm.Kind.WRITE_FIX, address=0x4000_0000, size_bytes=4, reps=4, last=True),),
        ctrl=("loop", "pipe"))
    buses = [BusSpec("a", "ahb", 2, "fixed_priority"),
             BusSpec("b", "axi", 1, "round_robin", outstanding=2)]
    a = [MasterSpec("core0", "a", "victim",
                    victim=victim or victim_spec(period=7, count=9))]
    b = [MasterSpec("inj0", "b", "injector", injector=busy)]
    if b_first:
        buses.reverse()
        a, b = b, a
    return Topology(buses=tuple(buses), masters=tuple(a + b), max_cycles=max_cycles)


@pytest.mark.parametrize("b_first", [False, True])
def test_partition_with_only_a_looping_injector_ends_with_the_run(b_first):
    """A bus whose masters never block termination still runs up to the
    cycle E at which another bus's last victim finishes, and no further."""
    sim, record = run_equals_step_cycle(two_bus_topology(b_first))
    end = record.cycles - 1
    assert not record.partial
    assert record.masters["core0"].completion_cycle == end
    b_rows = [r[0] for r in bus_trace_rows(sim.trace) if r[1] == "b" and r[2] != "BEAT"]
    assert max(b_rows) == end
    assert max(r[0] for r in sim.trace.injector_rows) == end


def test_cycle_limit_with_the_live_partition_registered_last():
    """Bus b has nothing live from cycle 0 on, and bus a's victim outlasts
    the cycle limit: both buses run through their events below it."""
    slow = victim_spec(period=50, count=100)
    sim, record = run_equals_step_cycle(
        two_bus_topology(True, victim=slow, max_cycles=300))
    assert record.partial and record.cycles == 300
    assert record.masters["core0"].txn_count == 6
    b_rows = [r[0] for r in bus_trace_rows(sim.trace) if r[1] == "b" and r[2] != "BEAT"]
    assert max(b_rows) == 299
    assert max(r[0] for r in sim.trace.injector_rows) == 299


def test_a_bus_without_traffic_is_not_stepped_at_other_buses_events():
    topo = Topology(
        buses=(BusSpec("quiet", "axi", 1), BusSpec("empty", "ahb", 1),
               BusSpec("ahb0", "ahb", 2, "round_robin")),
        masters=(MasterSpec("off", "quiet", "injector",
                            injector=loop_injector(enabled=False)),
                 MasterSpec("core0", "ahb0", "victim", victim=victim_spec()),
                 MasterSpec("inj0", "ahb0", "injector", injector=loop_injector())),
    )
    sim = build(topo, trace_enabled=True)   # an untraced run may skip ahb0's visits
    visits = dict.fromkeys(sim.buses, 0)
    for name, bus in sim.buses.items():
        def begin_cycle(now, _begin=bus.begin_cycle, _name=name):
            visits[_name] += 1
            _begin(now)
        bus.begin_cycle = begin_cycle
    record = sim.run()
    assert record.masters["inj0"].txn_count > 5
    assert visits == {"quiet": 1, "empty": 1, "ahb0": visits["ahb0"]}
    assert visits["ahb0"] > 20


def test_a_disabled_injector_is_not_built_but_keeps_its_master_id():
    topo = Topology(
        buses=(BusSpec("ahb0", "ahb", 2),),
        masters=(MasterSpec("off", "ahb0", "injector", injector=loop_injector(enabled=False)),
                 MasterSpec("core0", "ahb0", "victim", victim=victim_spec())),
    )
    sim = build(topo, trace_enabled=True)
    record = sim.run()
    assert sim.hosts == [] and sim.buses["ahb0"].masters == ["off", "core0"]
    assert record.masters["off"].txn_count == 0
    assert record.masters["core0"].txn_count == 10
    assert {row.split(",")[3] for row in sim.trace.bus_csv().splitlines()[1:]} == {"1"}


def test_axi_bus_is_not_visited_while_every_waiting_master_is_capped():
    """Every cycle the scheduler visits on a saturated O=1 AXI bus retires,
    grants or steps a master."""
    def saturating(address):
        return InjectorSpec(descriptors=(dm.Descriptor(
            dm.Kind.WRITE_FIX, address=address, size_bytes=16, reps=4, last=True),),
            ctrl=("loop", "pipe"))
    topo = Topology(
        buses=(BusSpec("x", "axi", 3, "round_robin", outstanding=1),),
        masters=(MasterSpec("core0", "x", "victim", victim=victim_spec(period=5, count=40)),
                 MasterSpec("inj0", "x", "injector", injector=saturating(0x1000)),
                 MasterSpec("inj1", "x", "injector", injector=saturating(0x2000))),
    )
    run_equals_step_cycle(topo)
    sim = build(topo, trace_enabled=True)
    bus = sim.buses["x"]
    visits, steps = [], set()
    begin_cycle = bus.begin_cycle
    bus.begin_cycle = lambda now: (visits.append(now), begin_cycle(now))[1]
    for master in (*sim.victims, *sim.hosts):
        def step(now, _step=master.step):
            steps.add(now)
            _step(now)
        master.step = step
    record = sim.run()
    assert min(record.masters[name].txn_count for name in ("inj0", "inj1")) > 10
    active = steps | {r[0] for r in bus_trace_rows(sim.trace)
                      if r[2] in ("GRANT", "COMPLETE")}
    assert set(visits) <= active


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
    assert sim.injector("i").apb_read(STATUS_OFFSET) & STATUS_DONE
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


def test_an_injector_is_looked_up_by_name():
    sim = build(shared_bus_topology(injector=loop_injector()))
    assert sim.injector("inj0") is sim.hosts[0].injector
    with pytest.raises(KeyError, match="no injector named 'nope'"):
        sim.injector("nope")


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


# ---------------------------------------------------------------------------
# fast-forward: untraced runs skip repeating periods, traced runs do not
# ---------------------------------------------------------------------------

def outcome(sim, record):
    """Everything a run shows: the metrics CSV, every completed transaction,
    where it stopped, each injector's STATUS and ERRINFO, and the
    transactions still queued or granted."""
    return (emit_csv([record]),
            sorted((name, t.txn_id, t.kind, t.address, t.beats,
                    t.request_cycle, t.grant_cycle, t.complete_cycle)
                   for name, t in sim.transactions()),
            sim.now, record.partial,
            [(h.injector.apb_read(STATUS_OFFSET), h.injector.apb_read(ERRINFO_OFFSET))
             for h in sim.hosts],
            [[*ch.granted, *[t for q in ch.queues for t in q]]
             for bus in sim.buses.values() for ch in bus._channels])


def run_outcome(topo, traced):
    sim = build(topo, trace_enabled=traced)
    return outcome(sim, run_record(sim))


def long_victims_topology(seed: int, pattern_dir: Path) -> Topology:
    """random_topology's draw for seed, with 20-400 accesses per victim and a
    cap of 5,000 or 40,000 cycles."""
    rng = random.Random(seed)
    raw = random_topology(rng, pattern_dir)
    for master in raw["masters"]:
        if master["role"] == "victim":
            master["victim"]["count"] = rng.randint(20, 400)
    raw["max_cycles"] = rng.choice((5000, 40000))
    return load_topology(raw)


@pytest.mark.parametrize("seed", range(200))
def test_untraced_run_equals_traced_run_on_random_topology(seed, tmp_path):
    """Long victims against looping injectors repeat their state, so the
    untraced run skips periods that the traced run simulates."""
    topo = long_victims_topology(seed, tmp_path)
    assert run_outcome(topo, traced=False) == run_outcome(topo, traced=True)


@pytest.mark.parametrize("seed", range(60))
def test_untraced_run_equals_traced_run_with_disabled_injectors(seed, tmp_path):
    """About 40% of the injectors are disabled: they are not built, so a
    partition's master ids have gaps, and they report no transactions."""
    rng = random.Random(seed)
    raw = random_topology(rng, tmp_path)
    for master in raw["masters"]:
        if master["role"] == "victim":
            master["victim"]["count"] = rng.randint(20, 400)
        elif rng.random() < 0.4:
            master["injector"]["enabled"] = False
    raw["max_cycles"] = rng.choice((5000, 40000))
    topo = load_topology(raw)
    off = {m.name for m in topo.masters if m.injector and not m.injector.enabled}
    sim = build(topo)
    record = run_record(sim)
    assert off.isdisjoint(host.name for host in sim.hosts)
    assert all(record.masters[name].txn_count == 0 for name in off)
    assert outcome(sim, record) == run_outcome(topo, traced=True)


@pytest.mark.parametrize("seed", range(60))
def test_untraced_run_equals_traced_run_with_long_programs(seed, tmp_path):
    """The first injector (one is added if the topology has none) loops a
    40-100 entry inline program, programmed over either path: its periods
    can run to hundreds of submits.  The draws follow random_topology's, so the
    other tests' topologies do not change."""
    rng = random.Random(seed)
    raw = random_topology(rng, tmp_path)
    for master in raw["masters"]:
        if master["role"] == "victim":
            master["victim"]["count"] = rng.randint(20, 400)
    raw["max_cycles"] = rng.choice((5000, 40000))
    size = rng.randint(40, 100)
    program = []
    while len(program) < size:
        program += random_program(rng, dsl=False)
    injector = {"descriptors": program[:size],
                "ctrl": ["loop", "pipe"] if rng.random() < 0.5 else ["loop"],
                "program_via": rng.choice(("apb", "data_bus"))}
    first = next((m for m in raw["masters"] if m["role"] == "injector"), None)
    if first is None:
        raw["masters"].append({"name": "inj_long", "bus": rng.choice(raw["buses"])["name"],
                               "role": "injector", "injector": injector})
    else:
        first["injector"] = injector
    topo = load_topology(raw)
    assert run_outcome(topo, traced=False) == run_outcome(topo, traced=True)


@pytest.mark.parametrize("max_cycles", [137, 5000, 500_000, 1_021_000])
def test_untraced_dual_bus_run_equals_traced_run(max_cycles):
    """The larger limits land inside periods that an unlimited run skips."""
    topo = replace(load_topology(SAMPLES / "dual_bus.yaml"), max_cycles=max_cycles)
    assert run_outcome(topo, False) == run_outcome(topo, True)


def test_untraced_run_pair_equals_traced_run_pair(monkeypatch):
    topo = load_topology(SAMPLES / "dual_bus.yaml")
    outcomes = []
    for traced in (False, True):
        sims = []
        monkeypatch.setattr(harness, "build", lambda topology: sims.append(
            build(topology, trace_enabled=traced)) or sims[-1])
        pair = run_pair(topo)
        outcomes.append((pair.slowdown, outcome(sims[0], pair.baseline),
                         outcome(sims[1], pair.contended)))
    assert outcomes[0] == outcomes[1]


def count_skipping(monkeypatch) -> list[int]:
    """[bus visits, skips, skipped cycles], counted as runs go."""
    counts = [0, 0, 0]
    begin_cycle, shift = Bus.begin_cycle, Bus.shift

    def visit(bus, now):
        counts[0] += 1
        return begin_cycle(bus, now)

    def skip(bus, k, progress, cycles):
        counts[1] += 1
        counts[2] += k * cycles
        return shift(bus, k, progress, cycles)

    monkeypatch.setattr(Bus, "begin_cycle", visit)
    monkeypatch.setattr(Bus, "shift", skip)
    return counts


def test_run_pair_on_dual_bus_visits_a_bus_rarely(monkeypatch):
    """Each bus's state repeats within a few hundred cycles, so the pair
    visits a bus at 142 of its 1.3 million cycles, fewer than the 200 the
    README gives, and skips the rest in 5 jumps."""
    counts = count_skipping(monkeypatch)
    pair = run_pair(load_topology(SAMPLES / "dual_bus.yaml"))
    assert pair.contended.masters["core0"].txn_count == 7000
    assert counts == [142, 5, 2_370_574]


def test_run_pair_with_nudged_periods_looks_again_after_a_skip(monkeypatch):
    """The benchmark's dual_bus input for seed 6: victim periods 42 and 51
    (counts 6950 and 998) and an AXI injector delay of 30.  A skip renews
    a partition's budget of ANCHORS looks; without that renewal this pair
    visits its buses 24,547 times."""
    topo = load_topology(SAMPLES / "dual_bus.yaml")
    nudged = {"core0": dict(period=42, count=6950), "core1": dict(period=51, count=998)}
    masters = []
    for m in topo.masters:
        if m.name in nudged:
            m = replace(m, victim=replace(m.victim, **nudged[m.name]))
        elif m.name == "inj_axi":
            read, delay = m.injector.descriptors
            m = replace(m, injector=replace(
                m.injector, descriptors=(read, replace(delay, delay_cycles=30))))
        masters.append(m)
    counts = count_skipping(monkeypatch)
    pair = run_pair(replace(topo, masters=tuple(masters)))
    assert pair.contended.masters["core0"].txn_count == 6950
    assert counts == [315, 5, 2_365_254]


def test_random_topologies_skip_as_pinned(monkeypatch, tmp_path):
    """The 200 topologies of test_untraced_run_equals_traced_run_on_random_topology,
    run untraced: their bus visits, skips and skipped cycles in all, and how
    many seeds skip.  A change to the key or to the anchor rule can move these
    counts without moving any output."""
    counts = count_skipping(monkeypatch)
    skipping = 0
    for seed in range(200):
        skips = counts[1]
        run_record(build(long_victims_topology(seed, tmp_path)))
        skipping += counts[1] > skips
    assert counts == [173_808, 220, 601_671]
    assert skipping == 120


def test_a_skip_that_lands_inside_a_delay_moves_its_end(monkeypatch):
    """The injector's period holds a 22-cycle DELAY that is still counting
    down at the anchor a skip starts from, so the skip must move its end."""
    read = dm.Descriptor(dm.Kind.READ_FIX, address=0x100, size_bytes=16)
    program = (read, dm.Descriptor(dm.Kind.DELAY, delay_cycles=22),
               replace(read, size_bytes=4), replace(read, last=True))
    topo = Topology(
        buses=(BusSpec("ahb0", "ahb", 2),),
        masters=(MasterSpec("core0", "ahb0", "victim", victim=VictimSpec(
                     period=9, count=188, kind="read", address=0)),
                 MasterSpec("inj0", "ahb0", "injector", injector=InjectorSpec(
                     program, ctrl=("loop", "pipe")))))
    counts = count_skipping(monkeypatch)
    untraced = run_outcome(topo, traced=False)
    assert counts[1] >= 1
    assert untraced == run_outcome(topo, traced=True)


def test_an_aperiodic_partition_stops_looking_for_repeats(tmp_path):
    """fanout_64's shape: per bus, 16 victims of random periods against 16
    looping injectors.  Their joint state does not repeat, so each bus
    computes its state at no more than 64 anchors."""
    rng = random.Random(5)
    raw = {"buses": [{"name": "ahb0", "kind": "ahb", "L": 1, "policy": "round_robin"},
                     {"name": "axi0", "kind": "axi", "L": 2, "policy": "round_robin",
                      "O": 2}],
           "masters": []}
    for bus in ("ahb0", "axi0"):
        for i in range(16):
            period = rng.randint(300, 600)
            raw["masters"].append(
                {"name": f"{bus}_v{i}", "bus": bus, "role": "victim",
                 "victim": {"period": period, "count": 6000 // period, "kind": "read",
                            "address": 0x8000_0000, "size_bytes": rng.choice((4, 16, 64))}})
        for i in range(16):
            raw["masters"].append(
                {"name": f"{bus}_i{i}", "bus": bus, "role": "injector",
                 "injector": {"descriptors": random_program(rng, dsl=False),
                              "ctrl": ["loop", "pipe"] if i % 2 else ["loop"]}})
    sim = build(load_topology(raw))
    keys = dict.fromkeys(sim.buses, 0)
    for name, bus in sim.buses.items():
        def state(now, _state=bus.state, _name=name):
            keys[_name] += 1
            return _state(now)
        bus.state = state
    sim.run()
    assert all(0 < n <= 64 for n in keys.values()), keys


def test_a_program_is_encoded_once_at_build_not_at_load(monkeypatch):
    """The loader checks that each program fits the buffer without
    encoding it; each built injector host encodes its program once."""
    calls = []
    encode = dm.encode
    monkeypatch.setattr(dm, "encode", lambda d: (calls.append(d), encode(d))[1])
    topo = load_topology(SAMPLES / "dual_bus.yaml")
    assert len(calls) == 0
    build(topo)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# fast-forward state key
# ---------------------------------------------------------------------------

IN_KEY, FIXED, PROGRESS = "in the key", "fixed at build", "progress or log"

# Every attribute of each object whose state() feeds _fast_forward's key.
# Any other value is the reason another key field stands for it.
STATE_ATTRIBUTES = {
    Bus: {
        "_channels": IN_KEY,
        "name": FIXED, "kind": FIXED, "_serial": FIXED, "policy": FIXED,
        "outstanding": FIXED, "target": FIXED, "trace": FIXED, "masters": FIXED,
        "_ids_twice": FIXED, "_channel_of": FIXED,
        "completed": PROGRESS, "next_id": PROGRESS,
    },
    _Channel: {
        "queues": IN_KEY, "granted": IN_KEY, "next_beat_free": IN_KEY, "rr_next": IN_KEY,
        "in_flight": "counted from the granted transactions",
        "waiting": "counted from the queues",
    },
    harness.Victim: {
        "pending": IN_KEY,
        "name": FIXED, "spec": FIXED, "bus": FIXED, "master_id": FIXED,
        "issued": PROGRESS,
        "paced_at": "read only by room, which vets a repeat",
    },
    harness.InjectorHost: {
        "programmed": IN_KEY, "_prog_index": IN_KEY, "injector": IN_KEY,
        "name": FIXED, "spec": FIXED, "sequence": FIXED,
        "_prog_txn": "the write it waits on is in the bus state; a finished one is none",
    },
    Injector: {
        "_ctrl": IN_KEY, "_armed": IN_KEY, "_done": IN_KEY, "_err": IN_KEY,
        "_irq": IN_KEY, "_errinfo": IN_KEY, "_next": IN_KEY, "_exec": IN_KEY,
        "name": FIXED, "bus": FIXED, "master_id": FIXED, "trace": FIXED,
        "_completed": PROGRESS,
        "buffer": "buffer aside: written only while programming, whose progress is in the key",
        "_decoded": "a cache of decode by word pair, which changes no result",
    },
    _Stage: {
        "index": IN_KEY,
        "words": "in the key while fetched; then the words at index, in a buffer "
                 "fixed once programmed",
        "ready_at": "in the key while fetched; read by no stage after decode",
        "desc": "decoded from the words; the key holds whether it is",
        "addr": "in the key while executing; before, the address of desc",
        "rep": "in the key while executing; 0 before",
        "delay_end": "in the key while executing; None before",
        "txn": "in the bus state until it retires, and the engine steps then",
    },
}


def test_every_state_attribute_is_placed():
    """An attribute added to any of these objects fails here until it is
    placed in STATE_ATTRIBUTES: in the key, fixed at build, progress, or
    stood for by another key field."""
    sim = build(replace(load_topology(SAMPLES / "dual_bus.yaml"), max_cycles=137))
    with pytest.raises(CycleLimitExceeded):
        sim.run()
    instances = {Bus: sim.buses.values(), harness.Victim: sim.victims,
                 harness.InjectorHost: sim.hosts,
                 Injector: [host.injector for host in sim.hosts]}
    for cls, placed in STATE_ATTRIBUTES.items():
        if cls in instances:
            for obj in instances[cls]:
                assert set(vars(obj)) == set(placed), cls.__name__
        else:
            assert set(cls.__slots__) == set(placed), cls.__name__


def test_state_changes_with_an_in_key_field():
    """One in-key field each of the bus, its channel and the injector
    engine's stages and host moves the state they report."""
    bus = Bus("b", "ahb", 2, policy="round_robin")
    bus.add_master("m0")
    bus.add_master("m1")
    bus.submit(0, "read", 0, 4, 0)
    queued = bus.submit(1, "read", 0, 4, 0)
    bus.arbitrate(0)
    for perturb in (lambda: setattr(queued, "beats", 2),
                    lambda: setattr(bus._channels[0], "rr_next", 0)):
        before = bus.state(0)
        perturb()
        assert bus.state(0) != before

    sim = build(shared_bus_topology(injector=loop_injector(size=16), max_cycles=20))
    with pytest.raises(CycleLimitExceeded):
        sim.run()
    host = sim.hosts[0]
    engine = host.injector
    assert engine._next is not None and engine._exec is not None
    for obj, attr in ((engine._next, "ready_at"), (engine._exec, "rep"),
                      (host, "_prog_index")):
        before = host.state(sim.now)
        setattr(obj, attr, getattr(obj, attr) + 1)
        assert host.state(sim.now) != before, attr
