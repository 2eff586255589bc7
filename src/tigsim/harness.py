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
periods once a partition's key repeats: its bus's and masters' states,
each relative to a visit at which its bus took a request, and nothing
else.  All paths give identical metrics and trace bytes.

A ``Topology`` is the whole configuration of a run, its name (the
scenario label of the record), seed and cycle cap included; ``build``
takes nothing else but whether to trace.  ``run_pair`` derives its two
untraced runs from one topology: the baseline with every injector
disabled and the contended run as given.  Topology files are YAML; the
schema is documented in config-schema.md.  The spec types hold its
rules: a spec checks itself when built, from YAML or in code, so a
``Topology`` that exists is valid and a bad one raises ``ConfigError``.
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
from .injector import STATUS_DONE, STATUS_OFFSET, Injector
from .interconnect import FIXED_PRIORITY, KINDS, POLICIES, Bus
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
# A spec checks itself when built, from YAML or in code, and raises
# ConfigError at the bad field's YAML key: its name unless its metadata
# spells it otherwise.  The metadata holds the field's rule: min (and max),
# choices, what (a CSV-safe name, described as what) or boolean.  Rules
# across fields or specs follow.  The loader takes each level's keys and
# defaults from these fields and puts the YAML path before an error's key.
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _check(rule, value, path):
    """Raise ConfigError at path unless value keeps rule (an empty one keeps any)."""
    if "min" in rule:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(path, f"expected an integer, got {value!r}")
        if value < rule["min"]:
            raise ConfigError(path, f"must be >= {rule['min']}, got {value}")
        if "max" in rule and value > rule["max"]:
            raise ConfigError(path, f"must be <= {rule['max']}, got {value}")
    elif "choices" in rule:
        if value not in rule["choices"]:
            raise ConfigError(path, f"expected one of {rule['choices']}, got {value!r}")
    elif "what" in rule:
        if not isinstance(value, str):
            raise ConfigError(path, f"expected {rule['what']}")
        if not _NAME_RE.fullmatch(value):
            raise ConfigError(path, f"names are limited to [A-Za-z0-9_.-], got {value!r}")
    elif "boolean" in rule and not isinstance(value, bool):
        raise ConfigError(path, f"expected a boolean, got {value!r}")


class _Checked:
    """Checks every field's rule once the dataclass is built."""

    def __post_init__(self):
        for f in fields(self):
            _check(f.metadata, getattr(self, f.name), f.metadata.get("key", f.name))


@dataclass(frozen=True)
class BusSpec(_Checked):
    name: str = field(metadata={"what": "bus name"})
    kind: str = field(metadata={"choices": KINDS})
    latency: int = field(metadata={"key": "L", "min": 1})   # target first-access latency
    policy: str = field(default=FIXED_PRIORITY, metadata={"choices": POLICIES})
    outstanding: int = field(default=1, metadata={"key": "O", "min": 1})  # AXI cap per channel

    def __post_init__(self):
        super().__post_init__()
        if self.kind == "ahb":
            # A serial channel grants only while empty, so any cap acts as 1.
            object.__setattr__(self, "outstanding", 1)


@dataclass(frozen=True)
class VictimSpec(_Checked):
    period: int = field(metadata={"min": 1})
    count: int = field(metadata={"min": 1})
    kind: str = field(metadata={"choices": ("read", "write")})
    address: int = field(metadata={"min": 0, "max": dm.WORD_MASK})
    size_bytes: int = field(default=4, metadata={"min": 1, "max": dm.SIZE_MAX})


@dataclass(frozen=True)
class InjectorSpec(_Checked):
    descriptors: tuple[dm.Descriptor, ...] = ()     # at least one
    ctrl: tuple[str, ...] = ("pipe",)
    program_at: int = field(default=0, metadata={"min": 0})
    program_via: str = field(default="apb", metadata={"choices": ("apb", "data_bus")})
    enabled: bool = field(default=True, metadata={"boolean": True})

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.ctrl, (list, tuple)):
            raise ConfigError("ctrl", "expected a list of flag names")
        for flag in self.ctrl:
            if not isinstance(flag, str) or flag not in pat.CTRL_FLAG_BITS:
                raise ConfigError("ctrl", f"unknown flag {flag!r}")
        descs = self.descriptors
        if not isinstance(descs, (list, tuple)) or not descs or not all(
                isinstance(d, dm.Descriptor) for d in descs):
            raise ConfigError("descriptors", "expected a non-empty list of descriptors")
        if not descs[-1].last:
            raise ConfigError("descriptors", "the final descriptor must be marked last")
        object.__setattr__(self, "ctrl", tuple(self.ctrl))
        object.__setattr__(self, "descriptors", tuple(descs))


@dataclass(frozen=True)
class MasterSpec(_Checked):
    name: str = field(metadata={"what": "master name"})
    bus: str                  # one of the topology's bus names
    role: str = field(metadata={"choices": ("victim", "injector")})
    victim: VictimSpec | None = None
    injector: InjectorSpec | None = None

    def __post_init__(self):
        super().__post_init__()
        for role, spec in (("victim", VictimSpec), ("injector", InjectorSpec)):
            value = getattr(self, role)
            if role == self.role and not isinstance(value, spec):
                raise ConfigError(role, f"expected a {spec.__name__} when role is {role!r}")
            if role != self.role and value is not None:
                raise ConfigError(role, f"not allowed when role is {self.role!r}")
        if self.injector is not None:
            try:
                pat.check_fits(self.injector.descriptors)
            except pat.CapacityExceeded as exc:
                raise ConfigError("injector", f"{self.name}: {exc}") from None


@dataclass(frozen=True)
class Topology(_Checked):
    buses: tuple[BusSpec, ...] = ()      # at least one of each
    masters: tuple[MasterSpec, ...] = ()
    name: str = field(default="run", metadata={"what": "scenario name"})
    seed: int = field(default=0, metadata={"min": 0})
    max_cycles: int = field(default=DEFAULT_MAX_CYCLES, metadata={"min": 1})

    def __post_init__(self):
        super().__post_init__()
        for key, spec, what in (("buses", BusSpec, "bus"), ("masters", MasterSpec, "master")):
            specs = getattr(self, key)
            if not isinstance(specs, (list, tuple)) or not specs:
                raise ConfigError(key, f"at least one {what} required")
            for i, s in enumerate(specs):
                if not isinstance(s, spec):
                    raise ConfigError(f"{key}[{i}]", f"expected a {spec.__name__}")
            if len({s.name for s in specs}) != len(specs):
                raise ConfigError(key, f"{what} names must be unique")
            object.__setattr__(self, key, tuple(specs))
        bus_names = tuple(b.name for b in self.buses)
        for i, m in enumerate(self.masters):
            if m.bus not in bus_names:
                raise ConfigError(f"masters[{i}].bus",
                                  f"expected one of {bus_names}, got {m.bus!r}")

    def digest(self) -> str:
        blob = json.dumps(asdict(self, dict_factory=_kinds_by_name), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _kinds_by_name(items) -> dict:
    return {k: v.name if isinstance(v, dm.Kind) else v for k, v in items}


# ---------------------------------------------------------------------------
# Topology loading
# ---------------------------------------------------------------------------

def _at(path, key) -> str:
    return f"{path}.{key}" if path else key


def _values(raw, path, spec, extra=()) -> dict:
    """raw read as one level of spec, as spec's field values: a mapping
    whose keys are spec's fields' keys (or extra), required ones present."""
    if not isinstance(raw, dict):
        raise ConfigError(path or "<config>", "expected a mapping")
    keys = {f.metadata.get("key", f.name): f for f in fields(spec)}
    for key in raw:
        if key not in keys and key not in extra:
            raise ConfigError(_at(path, key), "unknown key")
    values = {}
    for key, f in keys.items():
        if key in raw:
            values[f.name] = raw[key]
        elif f.default is MISSING:
            what = "integer" if "min" in f.metadata else f.metadata.get("what", "value")
            raise ConfigError(_at(path, key), f"missing required {what}")
    return values


def _build(spec, values, path):
    """spec built from values, its errors placed under path."""
    try:
        return spec(**values)
    except ConfigError as exc:
        raise ConfigError(_at(path, exc.path), exc.message) from None


def _load_inline_descriptors(raw, path) -> list[dm.Descriptor]:
    if not isinstance(raw, list):
        raise ConfigError(path, "expected a non-empty list of descriptors")
    statements = []
    for i, entry in enumerate(raw):
        epath = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(epath, "expected a mapping")
        if "kind" not in entry:
            raise ConfigError(f"{epath}.kind", "missing required value")
        _check({"choices": tuple(pat.KINDS)}, entry["kind"], f"{epath}.kind")
        values = {k: v for k, v in entry.items() if k != "kind"}
        try:
            statements.append(pat.statement(pat.KINDS[entry["kind"]], values))
        except dm.InvalidDescriptor as exc:
            raise ConfigError(f"{epath}.{exc.field}", str(exc)) from None
    return pat.lower(statements)


def _load_injector(raw, path, base_dir: Path) -> InjectorSpec:
    values = _values(raw, path, InjectorSpec, extra=("pattern",))
    if ("pattern" in raw) == ("descriptors" in raw):
        raise ConfigError(path, "exactly one of 'pattern' or 'descriptors' required")
    if "pattern" in raw:
        if not isinstance(raw["pattern"], str):
            raise ConfigError(f"{path}.pattern", "expected pattern file path")
        pattern_path = Path(raw["pattern"])
        if not pattern_path.is_absolute():
            pattern_path = base_dir / pattern_path
        try:
            descs = pat.compile_file(pattern_path)
        except OSError as exc:
            raise ConfigError(f"{path}.pattern", f"cannot read: {exc}") from exc
        except pat.PatternError as exc:
            raise ConfigError(f"{path}.pattern", str(exc)) from exc
    else:
        descs = _load_inline_descriptors(raw["descriptors"], f"{path}.descriptors")
    return _build(InjectorSpec, {**values, "descriptors": descs}, path)


def _load_bus(raw, path) -> BusSpec:
    values = _values(raw, path, BusSpec)
    if values["kind"] == "ahb" and "O" in raw:
        raise ConfigError(f"{path}.O", "only meaningful for axi buses")
    return _build(BusSpec, values, path)


def _load_master(raw, path, base_dir: Path) -> MasterSpec:
    """The role's spec is read first, so that MasterSpec is built once."""
    values = _values(raw, path, MasterSpec)
    role = values["role"]
    if role in ("victim", "injector"):
        other = "injector" if role == "victim" else "victim"
        if other in raw:
            raise ConfigError(f"{path}.{other}", f"not allowed when role is {role!r}")
        at = f"{path}.{role}"
        values[role] = (_load_injector(raw.get(role), at, base_dir) if role == "injector"
                        else _build(VictimSpec, _values(raw.get(role), at, VictimSpec), at))
    return _build(MasterSpec, values, path)


def load_topology(source) -> Topology:
    """Load a topology from a YAML file path, or from the mapping such a
    file parses to.  Relative pattern paths resolve against the file's
    directory, or the working directory for a mapping."""
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
        base = path.parent
    else:
        raw, base = source, Path.cwd()

    values = _values(raw, "", Topology)
    if isinstance(values.get("buses"), list):
        values["buses"] = [_load_bus(b, f"buses[{i}]") for i, b in enumerate(values["buses"])]
    if isinstance(values.get("masters"), list):
        values["masters"] = [_load_master(m, f"masters[{i}]", base)
                             for i, m in enumerate(values["masters"])]
    return _build(Topology, values, "")


# ---------------------------------------------------------------------------
# Masters
# ---------------------------------------------------------------------------

class Victim:
    """Closed-loop synthetic core: access k issues at the first step at or
    after its slot k*period that finds access k-1 complete."""

    def __init__(self, name: str, spec: VictimSpec, bus, master_id: int):
        self.name = name
        self.spec = spec
        self.bus = bus
        self.master_id = master_id
        self.issued = 0
        self.pending = None
        self.paced_at = -1    # last issue that waited for its k*period slot

    @property
    def terminal(self) -> bool:
        """True once every access has completed."""
        return self.issued >= self.spec.count and self.pending is None

    def step(self, now: int):
        idle = self.pending is None     # so an issue now waited for its slot
        if not idle:
            if not self.pending.done:
                return
            self.pending = None
        if self.issued < self.spec.count and now >= self.issued * self.spec.period:
            if idle:
                self.paced_at = now
            self.pending = self.bus.submit(self.master_id, self.spec.kind,
                                           self.spec.address, self.spec.size_bytes, now)
            self.issued += 1

    def next_event(self, now: int) -> int | None:
        """The next slot: later than now, as a step at now issues once it is due."""
        if self.pending is not None or self.terminal:
            return None
        return self.issued * self.spec.period

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
        return "loop" in self.spec.ctrl or bool(self._status() & STATUS_DONE)

    def _status(self) -> int:
        return self.injector.apb_read(STATUS_OFFSET)

    def step(self, now: int):
        """Program when due; the engine idles until the program's CTRL write sets EN."""
        if not self.programmed and now >= self.spec.program_at:
            self._program(now)
        self.injector.step(now)

    def _program(self, now: int):
        if self.spec.program_via == "data_bus":
            # Each configuration write is first an ordinary write
            # transaction on the shared bus, issued back to back.
            if self._prog_txn is not None and not self._prog_txn.done:
                return
            if self._prog_index < len(self.sequence):
                offset, _ = self.sequence[self._prog_index]
                self._prog_index += 1
                inj = self.injector
                self._prog_txn = inj.bus.submit(
                    inj.master_id, "write", DATA_BUS_MMIO_BASE + offset, 4, now)
                return
        for offset, value in self.sequence:
            self.injector.apb_write(offset, value)
        self.programmed = True

    def next_event(self, now: int) -> int | None:
        if not self.programmed and now < self.spec.program_at:
            return self.spec.program_at
        return self.injector.next_event(now)    # None until EN; writes retire on the bus

    def state(self, now: int) -> tuple:
        """Relative state (cycles to program_at while unprogrammed, write index,
        engine), and descriptors done, from STATUS bits 31:16 (saturating)."""
        wait = None if self.programmed else self.spec.program_at - now
        return (wait, self._prog_index, self.injector.state(now)), self._status() >> 16

    def shift(self, k: int, completed: int, cycles: int):
        self.injector.shift(k * ((self._status() >> 16) - completed), k * cycles)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

class _Partition:
    """One bus and its built masters (keyed by master id), sharing no state, with the
    heap of (cycle, master id) wakeups, the masters that may still block termination,
    the next and the last cycle visited, the anchors seen and how many more to see."""

    __slots__ = ("bus", "masters", "wakeups", "live", "now", "last", "seen", "looks")

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
        self.now = 0
        self.buses = {spec.name: Bus(spec.name, spec.kind, spec.latency, spec.policy,
                                     spec.outstanding, self.trace)
                      for spec in topology.buses}
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
            part.now = self.now
            part.seen, part.looks = {}, ANCHORS if self.trace is None else 0
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
            ids, due = bus.next_id, set()
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
            if part.looks and bus.next_id != ids:     # this visit's steps submitted
                self._fast_forward(part, stop)
                now = part.now
        return None

    def _fast_forward(self, part: _Partition, stop: int):
        """At an anchor t (a visit with a submit) whose key was seen at anchor t0,
        skip as many periods t - t0 as victims and stop allow.  The key is the bus's
        and the masters' relative states; a skip shifts each by the progress it gave.
        A live wakeup lies after t and is its master's next_event, which its state
        fixes (a victim's slot, an engine's ready_at, delay_end or armed flag, a
        host's program_at); any other is stale, its master woken early by a
        retirement, and a step at an extra cycle changes nothing."""
        members, t = [part.bus, *part.masters.values()], part.last
        states = [m.state(t) for m in members]      # (relative state, progress) each
        key = tuple(s for s, _ in states)
        seen = part.seen.get(key)
        part.seen[key] = (t, [p for _, p in states])
        if seen is None:
            part.looks -= 1
            return
        part.looks = ANCHORS
        t0, progress = seen
        cycles = t - t0
        k = min([(stop - 1 - t) // cycles - 1, *(
            m.room(p, t0, cycles) for m, p in zip(members, progress)
            if isinstance(m, Victim) and m.issued > p)])
        if k > 0:
            for m, p in zip(members, progress):
                m.shift(k, p, cycles)
            dt = k * cycles
            part.wakeups[:] = [(c + dt, i) for c, i in part.wakeups]
            part.now, part.last = part.now + dt, part.last + dt
            part.seen.clear()

    # -- metrics ------------------------------------------------------------

    def _collect(self, cycles: int, partial: bool) -> MetricsRecord:
        per_master = {m.name: MasterMetrics(role=m.role)
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


def run_pair(topology: Topology) -> PairResult:
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
    baseline = build(replace(topology, name="baseline", masters=quiet)).run()
    try:
        contended = build(replace(topology, name="contended")).run()
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
