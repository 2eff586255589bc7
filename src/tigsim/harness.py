"""Builds and runs simulations from a declarative topology.

A topology names the buses (kind, target latency L, arbitration policy,
outstanding cap O for AXI) and the masters attached to them.  Victims
are closed-loop synthetic cores: access k issues at cycle k*period or at
the completion of access k-1, whichever is later, for count accesses.
Injectors are full injector-core instances programmed from a pattern
file or inline descriptor list.

Injector programming normally happens through the modeled configuration
port (free of data-bus cycles).  The ``program_via: data_bus`` option
reproduces the older architecture in which every buffer and control
write travels over the shared data bus as an ordinary write transaction
before injection starts.

``step_cycle`` advances every bus one cycle in three phases (bus
retire, master step, bus arbitrate), stepping each of its masters.  ``run``
treats each bus and its masters as a partition sharing no state with
the others and visits only that partition's events: cycles at which one
of its masters is due (its ``next_event``, or its bus transaction
retires) or its bus may grant.  Each partition runs until its
non-looping masters finish; the run ends at the latest of those cycles,
E, and every partition is advanced through its events up to E (up to
the cycle limit if one never finishes).  Traced, it visits every event
and gives the traces of ``step_cycle``; untraced, it also skips whole
periods once a partition's state, relative to a visit at which its bus
took a request, repeats.  All paths give identical metrics: identical
topology in, identical metrics and trace bytes out.

A ``Topology`` is the whole configuration of a run, its name (the
scenario label of the record), seed and cycle cap included; ``build``
takes nothing else but whether to trace.  ``run_pair`` derives its two
runs from one topology: the baseline with every injector disabled and
the contended run as given.  Topology files are YAML; the schema is
documented in config-schema.md.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import re
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import yaml

from . import descriptors as dm
from . import pattern as pat
from .injector import CapacityExceeded, Injector
from .interconnect import POLICIES, AhbBus, AxiBus
from .metrics import MasterMetrics, MetricsRecord
from .trace import TraceRecorder

DEFAULT_MAX_CYCLES = 1_000_000
ANCHORS = 64    # untraced runs stop looking for a repeat after this many without one

# Data-bus address at which an injector's configuration window appears
# when it is programmed over the data bus instead of the dedicated port.
DATA_BUS_MMIO_BASE = 0xFE000000


class ConfigError(ValueError):
    """Topology validation failure; ``path`` points at the bad field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class CycleLimitExceeded(RuntimeError):
    """The run hit max_cycles; partial metrics are attached."""

    def __init__(self, records):
        super().__init__("cycle limit exceeded")
        self.records = list(records)


# ---------------------------------------------------------------------------
# Topology schema
#
# The loader takes each level's YAML keys and defaults from these fields.
# A field's YAML key is its name unless its metadata spells it otherwise.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BusSpec:
    name: str
    kind: str                 # 'ahb' | 'axi'
    latency: int = field(metadata={"key": "L"})    # target first-access latency
    policy: str = "fixed_priority"
    outstanding: int = field(default=1, metadata={"key": "O"})  # AXI cap per channel


@dataclass(frozen=True)
class VictimSpec:
    period: int
    count: int
    kind: str                 # 'read' | 'write'
    address: int
    size_bytes: int = 4


@dataclass(frozen=True)
class InjectorSpec:
    descriptors: tuple[dm.Descriptor, ...]
    ctrl: tuple[str, ...] = ("pipe",)
    program_at: int = 0
    program_via: str = "apb"  # 'apb' | 'data_bus'
    enabled: bool = True


@dataclass(frozen=True)
class MasterSpec:
    name: str
    bus: str
    role: str                 # 'victim' | 'injector'
    victim: VictimSpec | None = None
    injector: InjectorSpec | None = None


@dataclass(frozen=True)
class Topology:
    buses: tuple[BusSpec, ...]
    masters: tuple[MasterSpec, ...]
    name: str = "run"
    seed: int = 0
    max_cycles: int = DEFAULT_MAX_CYCLES

    def canonical(self) -> dict:
        return asdict(self, dict_factory=_kinds_by_name)

    def digest(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _kinds_by_name(items) -> dict:
    return {k: v.name if isinstance(v, dm.Kind) else v for k, v in items}


# ---------------------------------------------------------------------------
# Topology loading / validation
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def _at(path, key) -> str:
    return f"{path}.{key}" if path else key


def _mapping(raw, path, spec, extra=()) -> dict:
    """raw read as one level of spec: a mapping whose keys are spec's
    fields (or extra), with spec's defaults filled in for absent keys."""
    if not isinstance(raw, dict):
        raise ConfigError(path or "<config>", "expected a mapping")
    keys = {f.metadata.get("key", f.name): f for f in fields(spec)}
    for key in raw:
        if key not in keys and key not in extra:
            raise ConfigError(_at(path, key), "unknown key")
    defaults = {key: f.default for key, f in keys.items() if f.default is not MISSING}
    return {**defaults, **raw}


def _require(mapping, key, path, types, what):
    if key not in mapping:
        raise ConfigError(_at(path, key), f"missing required {what}")
    value = mapping[key]
    if not isinstance(value, types):
        raise ConfigError(_at(path, key), f"expected {what}")
    return value


def _name_field(mapping, key, path, what):
    value = _require(mapping, key, path, str, what)
    if not _NAME_RE.match(value):
        raise ConfigError(_at(path, key),
                          f"names are limited to [A-Za-z0-9_.-], got {value!r}")
    return value


def _int_field(mapping, key, path, minimum, maximum=None):
    where = _at(path, key)
    if key not in mapping:
        raise ConfigError(where, "missing required integer")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(where, f"expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(where, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(where, f"must be <= {maximum}, got {value}")
    return value


def _choice(mapping, key, path, choices: tuple):
    value = _require(mapping, key, path, object, "value")
    if value not in choices:
        raise ConfigError(_at(path, key), f"expected one of {choices}, got {value!r}")
    return value


def _load_victim(raw, path) -> VictimSpec:
    values = _mapping(raw, path, VictimSpec)
    return VictimSpec(
        period=_int_field(values, "period", path, 1),
        count=_int_field(values, "count", path, 1),
        kind=_choice(values, "kind", path, ("read", "write")),
        address=_int_field(values, "address", path, 0, maximum=dm.WORD_MASK),
        size_bytes=_int_field(values, "size_bytes", path, 1, maximum=dm.SIZE_MAX),
    )


def _load_inline_descriptors(raw, path) -> list[dm.Descriptor]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(path, "expected a non-empty list of descriptors")
    statements = []
    for i, entry in enumerate(raw):
        epath = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(epath, "expected a mapping")
        kind_name = _choice(entry, "kind", epath, tuple(pat.KINDS))
        values = {k: v for k, v in entry.items() if k != "kind"}
        try:
            statements.append(pat.statement(pat.KINDS[kind_name], values))
        except dm.InvalidDescriptor as exc:
            raise ConfigError(f"{epath}.{exc.field}", str(exc)) from None
    return pat.lower(statements)


def _load_injector(raw, path, base_dir: Path) -> InjectorSpec:
    values = _mapping(raw, path, InjectorSpec, extra=("pattern",))
    if ("pattern" in raw) == ("descriptors" in raw):
        raise ConfigError(path, "exactly one of 'pattern' or 'descriptors' required")
    if "pattern" in raw:
        pattern_path = Path(_require(values, "pattern", path, str, "pattern file path"))
        if not pattern_path.is_absolute():
            pattern_path = base_dir / pattern_path
        try:
            descs = pat.compile_file(pattern_path)
        except OSError as exc:
            raise ConfigError(f"{path}.pattern", f"cannot read: {exc}") from exc
        except pat.PatternError as exc:
            raise ConfigError(f"{path}.pattern", str(exc)) from exc
    else:
        descs = _load_inline_descriptors(values["descriptors"], f"{path}.descriptors")

    ctrl = values["ctrl"]
    if not isinstance(ctrl, (list, tuple)):
        raise ConfigError(f"{path}.ctrl", "expected a list of flag names")
    for flag in ctrl:
        if not isinstance(flag, str) or flag not in pat.CTRL_FLAG_BITS:
            raise ConfigError(f"{path}.ctrl", f"unknown flag {flag!r}")
    enabled = values["enabled"]
    if not isinstance(enabled, bool):
        raise ConfigError(f"{path}.enabled", f"expected a boolean, got {enabled!r}")
    # Raises CapacityExceeded when the program does not fit the buffer.
    pat.emit_apb_sequence(descs, ctrl)
    return InjectorSpec(
        descriptors=tuple(descs),
        ctrl=tuple(ctrl),
        program_at=_int_field(values, "program_at", path, 0),
        program_via=_choice(values, "program_via", path, ("apb", "data_bus")),
        enabled=enabled,
    )


def _load_bus(raw, path) -> BusSpec:
    values = _mapping(raw, path, BusSpec)
    kind = _choice(values, "kind", path, ("ahb", "axi"))
    if kind == "ahb" and "O" in raw:
        raise ConfigError(f"{path}.O", "only meaningful for axi buses")
    return BusSpec(
        name=_name_field(values, "name", path, "bus name"),
        kind=kind,
        latency=_int_field(values, "L", path, 1),
        policy=_choice(values, "policy", path, POLICIES),
        outstanding=_int_field(values, "O", path, 1),
    )


def _load_master(raw, path, bus_names: tuple, base_dir: Path) -> MasterSpec:
    values = _mapping(raw, path, MasterSpec)
    name = _name_field(values, "name", path, "master name")
    bus = _choice(values, "bus", path, bus_names)
    role = _choice(values, "role", path, ("victim", "injector"))
    other = "injector" if role == "victim" else "victim"
    if other in raw:
        raise ConfigError(f"{path}.{other}", f"not allowed when role is {role!r}")
    if role == "victim":
        return MasterSpec(name, bus, role,
                          victim=_load_victim(values["victim"], f"{path}.victim"))
    try:
        injector = _load_injector(values["injector"], f"{path}.injector", base_dir)
    except CapacityExceeded as exc:
        raise ConfigError(f"{path}.injector", f"{name}: {exc}") from exc
    return MasterSpec(name, bus, role, injector=injector)


def load_topology(source, base_dir: Path | None = None) -> Topology:
    """Load a topology from a YAML file path, or from the mapping such a
    file parses to.  Pattern paths resolve against base_dir, by default
    the file's directory (the working directory for a mapping)."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            text = path.read_text(encoding="utf-8")
            # libyaml's parser when this PyYAML has it; both build the same values.
            raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(str(source), f"cannot read: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(str(source), f"invalid YAML: {exc}") from exc
        base = base_dir or path.parent
    else:
        raw, base = source, base_dir or Path.cwd()

    values = _mapping(raw, "", Topology)
    buses_raw = values.get("buses")
    if not isinstance(buses_raw, list) or not buses_raw:
        raise ConfigError("buses", "at least one bus required")
    buses = tuple(_load_bus(b, f"buses[{i}]") for i, b in enumerate(buses_raw))
    bus_names = tuple(b.name for b in buses)
    if len(set(bus_names)) != len(bus_names):
        raise ConfigError("buses", "bus names must be unique")

    masters_raw = values.get("masters")
    if not isinstance(masters_raw, list) or not masters_raw:
        raise ConfigError("masters", "at least one master required")
    masters = tuple(_load_master(m, f"masters[{i}]", bus_names, base)
                    for i, m in enumerate(masters_raw))
    names = [m.name for m in masters]
    if len(set(names)) != len(names):
        raise ConfigError("masters", "master names must be unique")

    return Topology(
        buses=buses,
        masters=masters,
        name=_name_field(values, "name", "", "scenario name"),
        seed=_int_field(values, "seed", "", 0),
        max_cycles=_int_field(values, "max_cycles", "", 1),
    )


# ---------------------------------------------------------------------------
# Masters
# ---------------------------------------------------------------------------

class Victim:
    """Closed-loop synthetic core issuing a fixed access pattern."""

    def __init__(self, name: str, spec: VictimSpec, bus, master_id: int):
        self.name = name
        self.spec = spec
        self.bus = bus
        self.master_id = master_id
        self.issued = 0
        self.pending = None
        self.ready_cycle = 0
        self.paced_at = -1    # last issue that waited for its k*period slot

    @property
    def terminal(self) -> bool:
        """True once every access has completed."""
        return self.issued >= self.spec.count and self.pending is None

    def step(self, now: int):
        if self.pending is not None:
            if not self.pending.done:
                return
            self.ready_cycle = self.pending.complete_cycle
            self.pending = None
        if self.issued < self.spec.count:
            slot = self.issued * self.spec.period
            if now >= max(slot, self.ready_cycle):
                if slot > self.ready_cycle:
                    self.paced_at = now
                self.pending = self.bus.submit(self.master_id, self.spec.kind,
                                               self.spec.address, self.spec.size_bytes,
                                               now)
                self.issued += 1

    def next_event(self, now: int) -> int | None:
        if self.pending is not None or self.terminal:
            return None
        return max(now + 1, self.issued * self.spec.period, self.ready_cycle)

    def state(self, now: int) -> tuple:
        """Relative state (bar a pending access's slot: see room), and issues so far."""
        idle = self.pending is None and not self.terminal
        slot = idle and self.issued * self.spec.period - now
        return (self.pending is None, self.terminal, slot), self.issued

    def room(self, issued: int, start: int, cycles: int) -> int:
        """How many more times the ``cycles``-cycle period since ``start`` may
        repeat, one left before count.  A period longer than its issues' slots
        drifts them earlier, which is exact only if no issue waited for its slot."""
        n = self.issued - issued
        drift = cycles - n * self.spec.period
        if drift < 0 or drift and self.paced_at > start:
            return 0
        return (self.spec.count - self.issued) // n - 1

    def shift(self, k: int, issued: int, cycles: int):
        if self.issued > issued:    # a finished victim stays as it is
            self.ready_cycle += k * cycles
            self.issued += k * (self.issued - issued)


class InjectorHost:
    """Ties one injector core to its bus and carries out programming."""

    def __init__(self, name: str, spec: InjectorSpec, bus, master_id: int,
                 trace: TraceRecorder | None):
        self.name = name
        self.spec = spec
        self.injector = Injector(name, bus=bus, master_id=master_id, trace=trace)
        self.sequence = pat.emit_apb_sequence(list(spec.descriptors), spec.ctrl)
        self.programmed = False
        self._prog_index = 0
        self._prog_txn = None

    @property
    def terminal(self) -> bool:
        """True when this host can never block run() termination."""
        return "loop" in self.spec.ctrl or self.injector.done

    def step(self, now: int):
        if not self.programmed and not self._advance_programming(now):
            return
        self.injector.step(now)

    def _advance_programming(self, now: int) -> bool:
        if now < self.spec.program_at:
            return False
        if self.spec.program_via == "data_bus":
            # Each configuration write is first an ordinary write
            # transaction on the shared bus, issued back to back.
            if self._prog_txn is not None:
                if not self._prog_txn.done:
                    return False
                self._prog_txn = None
            if self._prog_index < len(self.sequence):
                offset, _ = self.sequence[self._prog_index]
                self._prog_index += 1
                inj = self.injector
                self._prog_txn = inj.bus.submit(
                    inj.master_id, "write", DATA_BUS_MMIO_BASE + offset, 4, now)
                return False
        for offset, value in self.sequence:
            self.injector.apb_write(offset, value)
        self.programmed = True
        return True

    def next_event(self, now: int) -> int | None:
        if not self.programmed:
            if now < self.spec.program_at:
                return self.spec.program_at
            return None  # waiting on a programming write; the bus reports it
        return self.injector.next_event(now)

    def state(self, now: int) -> tuple:
        """Relative state, programming progress included, and descriptors done."""
        return ((self.programmed, self._prog_index, self.injector.state(now)),
                self.injector.completed_count)

    def shift(self, k: int, completed: int, cycles: int):
        self.injector.shift(k * (self.injector.completed_count - completed), k * cycles)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

class _Partition:
    """One bus and its built masters (keyed by master id), with the heap of
    (cycle, master id) wakeups, the masters that may still block
    termination, the next and the last cycle visited, the anchors seen, how
    many more to look at and the bus's next id at the last look.  It
    shares no state."""

    __slots__ = ("bus", "masters", "wakeups", "live", "now", "last",
                 "seen", "looks", "ids")

    def __init__(self, bus):
        self.bus = bus
        self.masters = {}


class Simulation:
    """One built topology, ready to run exactly once.  The topology is its
    whole configuration, the cycle cap and the record's scenario label
    included; only whether the run is traced is chosen apart from it."""

    def __init__(self, topology: Topology, trace_enabled: bool = False):
        self.topology = topology
        self.trace = TraceRecorder() if trace_enabled else None
        self.buses: dict[str, AhbBus | AxiBus] = {}
        self.now = 0
        for spec in topology.buses:
            if spec.kind == "ahb":
                bus = AhbBus(spec.name, spec.latency, policy=spec.policy, trace=self.trace)
            else:
                bus = AxiBus(spec.name, spec.latency,
                             policy=spec.policy, outstanding=spec.outstanding,
                             trace=self.trace)
            self.buses[spec.name] = bus
        self._parts = {name: _Partition(bus) for name, bus in self.buses.items()}
        # Masters are registered on their bus in file order, so a disabled
        # injector keeps its master id; it is not built.  Injectors program
        # at their configured cycle once the run starts.
        self.victims: list[Victim] = []
        self.hosts: list[InjectorHost] = []
        for spec in topology.masters:
            bus = self.buses[spec.bus]
            master_id = bus.add_master(spec.name)
            if spec.role == "victim":
                master = Victim(spec.name, spec.victim, bus, master_id)
                self.victims.append(master)
            elif spec.injector.enabled:
                master = InjectorHost(spec.name, spec.injector, bus, master_id, self.trace)
                self.hosts.append(master)
            else:
                continue
            self._parts[spec.bus].masters[master_id] = master

    def injector(self, name: str) -> Injector:
        for host in self.hosts:
            if host.name == name:
                return host.injector
        raise KeyError(f"no injector named {name!r}")

    # -- stepping -----------------------------------------------------------

    def step_cycle(self):
        """Advance exactly one cycle, stepping every master (run's reference)."""
        for part in self._parts.values():
            part.bus.begin_cycle(self.now)
            for master in part.masters.values():
                master.step(self.now)
            part.bus.arbitrate(self.now)
        self.now += 1

    def _next_event(self, part: _Partition, now: int) -> int | None:
        """A partition's earliest master wakeup on its heap or bus event."""
        nxt = part.wakeups[0][0] if part.wakeups else None
        c = part.bus.next_event(now)
        if c is not None and (nxt is None or c < nxt):
            nxt = c
        return nxt

    def run(self) -> MetricsRecord:
        """Run to completion or the topology's cycle cap; returns per-master
        metrics.

        Each partition runs until its live set empties, at cycle e_p; then
        every partition runs through its events up to E = max e_p (below
        the cap if some partition never finished)."""
        limit = self.topology.max_cycles
        parts = list(self._parts.values())
        for part in parts:
            part.live = set(part.masters)
            part.wakeups = [(self.now, i) for i in part.masters]
            part.now, part.last = self.now, self.now - 1
            part.seen, part.looks, part.ids = {}, ANCHORS if self.trace is None else 0, 0
        ends = [self._advance(part, limit, settle=True) for part in parts]
        finished = None not in ends
        stop = max(ends) + 1 if finished else limit
        for part in parts:
            self._advance(part, stop)
        last = max(part.last for part in parts)
        self.now = last + 1
        record = self._collect(cycles=last + 1, partial=not finished)
        if not finished:
            raise CycleLimitExceeded([record])
        return record

    def _advance(self, part: _Partition, stop: int, settle: bool = False) -> int | None:
        """Visit part's events below stop.  With settle, return as soon as
        its live set is empty, with the cycle it emptied at; else None."""
        bus, masters, live = part.bus, part.masters, part.live
        wakeups, completed = part.wakeups, bus.completed
        begin_cycle, arbitrate = bus.begin_cycle, bus.arbitrate
        now = part.now
        while now is not None and now < stop:
            due = set()
            while wakeups and wakeups[0][0] == now:
                due.add(heapq.heappop(wakeups)[1])
            retired = len(completed)
            begin_cycle(now)
            while retired < len(completed):     # wake the retirements' owners
                due.add(completed[retired].master_id)
                retired += 1
            for i in sorted(due):
                masters[i].step(now)
            arbitrate(now)
            part.last = now
            for i in due:
                if i in live and masters[i].terminal:
                    live.discard(i)
                wake = masters[i].next_event(now)
                if wake is not None:
                    heapq.heappush(wakeups, (wake, i))
            nxt = self._next_event(part, now)
            if nxt is not None and nxt <= now:
                raise AssertionError(f"event scheduler stuck at cycle {now}")
            part.now = now = nxt
            if settle and not live:
                return part.last
            if part.looks and bus.next_id != part.ids:    # a submit since the last look
                self._fast_forward(part, stop)
                now, part.ids = part.now, bus.next_id
        return None

    def _fast_forward(self, part: _Partition, stop: int):
        """At an anchor t (a visit with a submit) whose relative state was seen
        at anchor t0, skip as many periods t - t0 as victims and stop allow.
        No key repeats while a host programs: each write it submits raises its
        write index, and the write it waits on (in the bus state) and its
        program_at wakeup are held relative to t."""
        bus, masters, t = part.bus, part.masters.values(), part.last
        states = [m.state(t) for m in masters]      # (relative state, progress) each
        key = (bus.state(t), tuple(sorted(part.live)), tuple(s for s, _ in states),
               tuple(sorted({(c - t, i) for c, i in part.wakeups})))
        seen = part.seen.get(key)
        part.seen[key] = (t, bus.next_id, len(bus.completed), [p for _, p in states])
        if seen is None:
            part.looks -= 1
            return
        part.looks = ANCHORS
        t0, submitted, retired, progress = seen
        cycles = t - t0
        k = min([(stop - 1 - t) // cycles - 1, *(
            m.room(p, t0, cycles) for m, p in zip(masters, progress)
            if isinstance(m, Victim) and m.issued > p)])
        if k > 0:
            bus.shift(k, cycles, submitted, retired)
            for m, p in zip(masters, progress):
                m.shift(k, p, cycles)
            dt = k * cycles
            part.wakeups[:] = [(c + dt, i) for c, i in part.wakeups]
            part.now, part.last = part.now + dt, part.last + dt
            part.seen.clear()

    # -- metrics ------------------------------------------------------------

    def _collect(self, cycles: int, partial: bool) -> MetricsRecord:
        per_master = {m.name: MasterMetrics(master=m.name, role=m.role)
                      for m in self.topology.masters}
        for name, txn in self.transactions():
            per_master[name].record(txn)
        return MetricsRecord(
            scenario=self.topology.name,
            masters=per_master,
            cycles=cycles,
            partial=partial,
        )

    def transactions(self):
        """(master_name, Transaction) for every completed transaction."""
        return [(bus.masters[txn.master_id], txn)
                for bus in self.buses.values() for txn in bus.completed]


def build(topology: Topology, trace_enabled: bool = False) -> Simulation:
    return Simulation(topology, trace_enabled=trace_enabled)


def run(topology: Topology) -> MetricsRecord:
    return build(topology).run()


@dataclass
class PairResult:
    baseline: MetricsRecord
    contended: MetricsRecord
    slowdown: dict[str, float]


def run_pair(topology: Topology, trace_enabled: bool = False) -> PairResult:
    """Baseline then contended run of one topology: the baseline is the
    topology named "baseline" with every injector disabled, the contended
    run the topology as it is, named "contended".

    Victim slowdown is contended completion over baseline completion and
    is attached to the contended record's victim rows.
    """
    victims = [m.name for m in topology.masters if m.role == "victim"]
    injectors = [m.name for m in topology.masters if m.role == "injector"]
    if not victims:
        raise ConfigError("masters", "a paired run needs at least one victim")
    if not injectors:
        raise ConfigError("masters", "a paired run needs at least one injector")

    quiet = tuple(replace(m, injector=replace(m.injector, enabled=False))
                  if m.injector else m for m in topology.masters)
    baseline = build(replace(topology, name="baseline", masters=quiet),
                     trace_enabled=trace_enabled).run()
    try:
        contended = build(replace(topology, name="contended"),
                          trace_enabled=trace_enabled).run()
    except CycleLimitExceeded as exc:
        exc.records.insert(0, baseline)
        raise

    slowdown = {}
    for name in victims:
        base_done = baseline.masters[name].completion_cycle
        cont_done = contended.masters[name].completion_cycle
        if base_done and cont_done:
            slowdown[name] = cont_done / base_done
            contended.masters[name].slowdown = slowdown[name]
    return PairResult(baseline, contended, slowdown)
