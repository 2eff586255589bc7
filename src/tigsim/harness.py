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

The simulation advances one cycle at a time in three phases (bus retire,
master step, bus arbitrate) and may jump over provably idle stretches;
both paths produce identical traces.  Everything is deterministic:
identical topology in, identical metrics and trace bytes out.

Topology files are YAML; the schema is documented in config-schema.md.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import descriptors as dm
from . import pattern as pat
from .injector import CapacityExceeded, Injector
from .interconnect import POLICIES, AhbBus, AxiBus, MasterPort, TargetModel
from .metrics import MasterMetrics, MetricsRecord
from .trace import TraceRecorder

DEFAULT_MAX_CYCLES = 1_000_000

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
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BusSpec:
    name: str
    kind: str                 # 'ahb' | 'axi'
    latency: int              # target first-access latency L
    policy: str
    outstanding: int = 1      # AXI per-master, per-channel cap O


@dataclass(frozen=True)
class VictimSpec:
    period: int
    count: int
    kind: str                 # 'read' | 'write'
    address: int
    size_bytes: int


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
        return {
            "name": self.name,
            "seed": self.seed,
            "max_cycles": self.max_cycles,
            "buses": [vars(b) for b in self.buses],
            "masters": [
                {
                    "name": m.name,
                    "bus": m.bus,
                    "role": m.role,
                    "victim": None if m.victim is None else vars(m.victim),
                    "injector": None if m.injector is None else {
                        "descriptors": [{**vars(d), "kind": d.kind.name}
                                        for d in m.injector.descriptors],
                        "ctrl": list(m.injector.ctrl),
                        "program_at": m.injector.program_at,
                        "program_via": m.injector.program_via,
                        "enabled": m.injector.enabled,
                    },
                }
                for m in self.masters
            ],
        }

    def digest(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Topology loading / validation
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def _require(mapping, key, path, types, what):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}", f"missing required {what}")
    value = mapping[key]
    if not isinstance(value, types):
        raise ConfigError(f"{path}.{key}", f"expected {what}")
    return value


def _name_field(mapping, key, path, what):
    value = _require(mapping, key, path, str, what)
    if not _NAME_RE.match(value):
        raise ConfigError(f"{path}.{key}",
                          f"names are limited to [A-Za-z0-9_.-], got {value!r}")
    return value


def _int_field(mapping, key, path, minimum, default=None):
    if key not in mapping:
        if default is None:
            raise ConfigError(f"{path}.{key}", "missing required integer")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}.{key}", f"must be >= {minimum}, got {value}")
    return value


def _load_victim(raw, path) -> VictimSpec:
    if not isinstance(raw, dict):
        raise ConfigError(path, "expected a mapping")
    kind = _require(raw, "kind", path, str, "access kind")
    if kind not in ("read", "write"):
        raise ConfigError(f"{path}.kind", f"expected 'read' or 'write', got {kind!r}")
    spec = VictimSpec(
        period=_int_field(raw, "period", path, 1),
        count=_int_field(raw, "count", path, 1),
        kind=kind,
        address=_int_field(raw, "address", path, 0),
        size_bytes=_int_field(raw, "size_bytes", path, 1, default=4),
    )
    if spec.size_bytes > dm.SIZE_MAX:
        raise ConfigError(f"{path}.size_bytes", f"must be <= {dm.SIZE_MAX}")
    if spec.address > dm.WORD_MASK:
        raise ConfigError(f"{path}.address", "must fit in 32 bits")
    known = {"period", "count", "kind", "address", "size_bytes"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{path}.{key}", "unknown key")
    return spec


def _load_inline_descriptors(raw, path) -> list[dm.Descriptor]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(path, "expected a non-empty list of descriptors")
    statements = []
    for i, entry in enumerate(raw):
        epath = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(epath, "expected a mapping")
        kind_name = _require(entry, "kind", epath, str, "descriptor kind")
        if kind_name not in pat.KINDS:
            raise ConfigError(f"{epath}.kind", f"unknown kind {kind_name!r}")
        values = {k: v for k, v in entry.items() if k != "kind"}
        try:
            statements.append(pat.statement(pat.KINDS[kind_name], values))
        except dm.InvalidDescriptor as exc:
            raise ConfigError(f"{epath}.{exc.field}", str(exc)) from None
    return pat.lower(pat.PatternProgram(tuple(statements)))


def _load_injector(raw, path, base_dir: Path) -> InjectorSpec:
    if not isinstance(raw, dict):
        raise ConfigError(path, "expected a mapping")
    has_pattern = "pattern" in raw
    has_inline = "descriptors" in raw
    if has_pattern == has_inline:
        raise ConfigError(path, "exactly one of 'pattern' or 'descriptors' required")
    if has_pattern:
        pattern_path = Path(_require(raw, "pattern", path, str, "pattern file path"))
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

    ctrl = raw.get("ctrl", ["pipe"])
    if not isinstance(ctrl, list):
        raise ConfigError(f"{path}.ctrl", "expected a list of flag names")
    for flag in ctrl:
        if not isinstance(flag, str) or flag not in pat.CTRL_FLAG_BITS:
            raise ConfigError(f"{path}.ctrl", f"unknown flag {flag!r}")
    via = raw.get("program_via", "apb")
    if via not in ("apb", "data_bus"):
        raise ConfigError(f"{path}.program_via", f"expected 'apb' or 'data_bus', got {via!r}")
    enabled = raw.get("enabled", True)
    if not isinstance(enabled, bool):
        raise ConfigError(f"{path}.enabled", f"expected a boolean, got {enabled!r}")
    known = {"pattern", "descriptors", "ctrl", "program_at", "program_via", "enabled"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{path}.{key}", "unknown key")
    # Raises CapacityExceeded when the program does not fit the buffer.
    pat.emit_apb_sequence(descs, ctrl)
    return InjectorSpec(
        descriptors=tuple(descs),
        ctrl=tuple(ctrl),
        program_at=_int_field(raw, "program_at", path, 0, default=0),
        program_via=via,
        enabled=enabled,
    )


def _load_bus(raw, path) -> BusSpec:
    if not isinstance(raw, dict):
        raise ConfigError(path, "expected a mapping")
    name = _name_field(raw, "name", path, "bus name")
    kind = _require(raw, "kind", path, str, "bus kind")
    if kind not in ("ahb", "axi"):
        raise ConfigError(f"{path}.kind", f"expected 'ahb' or 'axi', got {kind!r}")
    policy = raw.get("policy", "fixed_priority")
    if policy not in POLICIES:
        raise ConfigError(f"{path}.policy", f"expected one of {POLICIES}, got {policy!r}")
    outstanding = _int_field(raw, "O", path, 1, default=1)
    if kind == "ahb" and "O" in raw:
        raise ConfigError(f"{path}.O", "only meaningful for axi buses")
    known = {"name", "kind", "L", "policy", "O"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{path}.{key}", "unknown key")
    return BusSpec(name=name, kind=kind, latency=_int_field(raw, "L", path, 1),
                   policy=policy, outstanding=outstanding)


def load_topology(source, base_dir: Path | None = None) -> Topology:
    """Load a topology from a YAML file path, YAML text, or a dict."""
    if isinstance(source, dict):
        raw = source
        base = base_dir or Path.cwd()
    elif isinstance(source, (str, Path)) and "\n" not in str(source):
        path = Path(source)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(str(source), f"cannot read: {exc}") from exc
        raw = _parse_yaml(text, str(source))
        base = base_dir or path.parent
    else:
        raw = _parse_yaml(str(source), "<config>")
        base = base_dir or Path.cwd()

    if not isinstance(raw, dict):
        raise ConfigError("<config>", "expected a mapping at top level")

    buses_raw = raw.get("buses")
    if not isinstance(buses_raw, list) or not buses_raw:
        raise ConfigError("buses", "at least one bus required")
    buses = tuple(_load_bus(b, f"buses[{i}]") for i, b in enumerate(buses_raw))
    bus_names = [b.name for b in buses]
    if len(set(bus_names)) != len(bus_names):
        raise ConfigError("buses", "bus names must be unique")

    masters_raw = raw.get("masters")
    if not isinstance(masters_raw, list) or not masters_raw:
        raise ConfigError("masters", "at least one master required")
    masters = []
    for i, m in enumerate(masters_raw):
        path = f"masters[{i}]"
        if not isinstance(m, dict):
            raise ConfigError(path, "expected a mapping")
        name = _name_field(m, "name", path, "master name")
        bus = _require(m, "bus", path, str, "bus reference")
        if bus not in bus_names:
            raise ConfigError(f"{path}.bus", f"unknown bus {bus!r}")
        role = _require(m, "role", path, str, "master role")
        if role == "victim":
            spec = MasterSpec(name, bus, role,
                              victim=_load_victim(m.get("victim"), f"{path}.victim"))
        elif role == "injector":
            try:
                inj = _load_injector(m.get("injector"), f"{path}.injector", base)
            except CapacityExceeded as exc:
                raise ConfigError(f"{path}.injector", f"{name}: {exc}") from exc
            spec = MasterSpec(name, bus, role, injector=inj)
        else:
            raise ConfigError(f"{path}.role",
                              f"expected 'victim' or 'injector', got {role!r}")
        masters.append(spec)
    names = [m.name for m in masters]
    if len(set(names)) != len(names):
        raise ConfigError("masters", "master names must be unique")

    scenario = raw.get("name", "run")
    if not isinstance(scenario, str) or not _NAME_RE.match(scenario):
        raise ConfigError("name", f"names are limited to [A-Za-z0-9_.-], "
                                  f"got {scenario!r}")
    return Topology(
        buses=buses,
        masters=tuple(masters),
        name=scenario,
        seed=_int_field(raw, "seed", "<config>", 0, default=0),
        max_cycles=_int_field(raw, "max_cycles", "<config>", 1,
                              default=DEFAULT_MAX_CYCLES),
    )


def _parse_yaml(text: str, where: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(where, f"invalid YAML: {exc}") from exc


# ---------------------------------------------------------------------------
# Masters
# ---------------------------------------------------------------------------

class Victim:
    """Closed-loop synthetic core issuing a fixed access pattern."""

    def __init__(self, name: str, spec: VictimSpec, port: MasterPort):
        self.name = name
        self.spec = spec
        self.port = port
        self.issued = 0
        self.pending = None
        self.ready_cycle = 0
        self.completion_cycle: int | None = None

    @property
    def finished(self) -> bool:
        return self.issued >= self.spec.count and self.pending is None

    def step(self, now: int):
        if self.pending is not None:
            if not self.pending.done:
                return
            self.completion_cycle = self.pending.complete_cycle
            self.ready_cycle = self.pending.complete_cycle
            self.pending = None
        if self.issued < self.spec.count:
            due = max(self.issued * self.spec.period, self.ready_cycle)
            if now >= due:
                self.pending = self.port.submit(self.spec.kind, self.spec.address,
                                                self.spec.size_bytes, now)
                self.issued += 1

    def next_event(self, now: int) -> int | None:
        if self.pending is not None or self.finished:
            return None
        return max(now + 1, self.issued * self.spec.period, self.ready_cycle)


class InjectorHost:
    """Ties one injector core to its bus and carries out programming."""

    def __init__(self, name: str, spec: InjectorSpec, port: MasterPort,
                 trace: TraceRecorder | None, enabled: bool):
        self.name = name
        self.spec = spec
        self.port = port
        self.enabled = enabled and spec.enabled
        self.injector = Injector(name, port=port, trace=trace)
        self.sequence = pat.emit_apb_sequence(list(spec.descriptors), spec.ctrl)
        self.programmed = False
        self._prog_index = 0
        self._prog_txn = None

    @property
    def loops(self) -> bool:
        return "loop" in self.spec.ctrl

    @property
    def terminal(self) -> bool:
        """True when this host can never block run() termination."""
        if not self.enabled or self.loops:
            return True
        return self.injector.done

    def step(self, now: int):
        if not self.enabled:
            return
        if not self.programmed and not self._advance_programming(now):
            return
        self.injector.step(now)

    def _advance_programming(self, now: int) -> bool:
        if now < self.spec.program_at:
            return False
        if self.spec.program_via == "apb":
            for offset, value in self.sequence:
                self.injector.apb_write(offset, value)
            self.programmed = True
            return True
        # data_bus: each configuration write is an ordinary write
        # transaction on the shared bus, issued back to back.
        if self._prog_txn is not None:
            if not self._prog_txn.done:
                return False
            self._prog_txn = None
        if self._prog_index < len(self.sequence):
            offset, _ = self.sequence[self._prog_index]
            self._prog_index += 1
            self._prog_txn = self.port.submit(
                "write", DATA_BUS_MMIO_BASE + offset, 4, now)
            return False
        for offset, value in self.sequence:
            self.injector.apb_write(offset, value)
        self.programmed = True
        return True

    def next_event(self, now: int) -> int | None:
        if not self.enabled:
            return None
        if not self.programmed:
            if now < self.spec.program_at:
                return self.spec.program_at
            return None  # waiting on a programming write; the bus reports it
        return self.injector.next_event(now)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

class Simulation:
    """One built topology, ready to run exactly once."""

    def __init__(self, topology: Topology, trace_enabled: bool = False):
        self.topology = topology
        self.scenario = topology.name    # the scenario label of its record
        self.trace = TraceRecorder() if trace_enabled else None
        self.buses: dict[str, AhbBus | AxiBus] = {}
        self.now = 0
        self.finished = False
        for spec in topology.buses:
            if spec.kind == "ahb":
                bus = AhbBus(spec.name, TargetModel(spec.latency),
                             policy=spec.policy, trace=self.trace)
            else:
                bus = AxiBus(spec.name, TargetModel(spec.latency),
                             policy=spec.policy, outstanding=spec.outstanding,
                             trace=self.trace)
            self.buses[spec.name] = bus
        self._bus_list = list(self.buses.values())
        self.victims: list[Victim] = []
        self.hosts: list[InjectorHost] = []
        self._masters = []
        self._placement: list[tuple[str, str, int]] = []  # name, bus, master_id

    def injector(self, name: str) -> Injector:
        for host in self.hosts:
            if host.name == name:
                return host.injector
        raise KeyError(f"no injector named {name!r}")

    # -- stepping -----------------------------------------------------------

    def _process(self, now: int):
        for bus in self._bus_list:
            bus.begin_cycle(now)
        for master in self._masters:
            master.step(now)
        for bus in self._bus_list:
            bus.arbitrate(now)

    def step_cycle(self):
        """Advance exactly one cycle (manual stepping for experiments)."""
        self._process(self.now)
        self.now += 1

    def _terminated(self) -> bool:
        return (all(v.finished for v in self.victims)
                and all(h.terminal for h in self.hosts))

    def _next_event(self, now: int) -> int | None:
        nxt = None
        for bus in self._bus_list:
            c = bus.next_event(now)
            if c is not None and (nxt is None or c < nxt):
                nxt = c
        for master in self._masters:
            c = master.next_event(now)
            if c is not None and (nxt is None or c < nxt):
                nxt = c
        return nxt

    def run(self, max_cycles: int | None = None) -> MetricsRecord:
        """Run to completion or the cycle cap; returns per-master metrics."""
        limit = max_cycles if max_cycles is not None else self.topology.max_cycles
        now = self.now
        last = now - 1
        while now < limit:
            self._process(now)
            last = now
            if self._terminated():
                self.finished = True
                break
            nxt = self._next_event(now)
            if nxt is not None and nxt <= now:
                raise AssertionError(f"event scheduler stuck at cycle {now}")
            now = limit if nxt is None else nxt
        self.now = last + 1
        record = self._collect(cycles=last + 1, partial=not self.finished)
        if not self.finished:
            raise CycleLimitExceeded([record])
        return record

    # -- metrics ------------------------------------------------------------

    def _collect(self, cycles: int, partial: bool) -> MetricsRecord:
        per_master: dict[str, MasterMetrics] = {}
        for name, bus_name, master_id in self._placement:
            role = next(m.role for m in self.topology.masters if m.name == name)
            mm = MasterMetrics(master=name, role=role)
            for txn in self.buses[bus_name].completed:
                if txn.master_id == master_id:
                    mm.record(txn)
            per_master[name] = mm
        return MetricsRecord(
            scenario=self.scenario,
            masters=per_master,
            topology_hash=self.topology.digest(),
            seed=self.topology.seed,
            cycles=cycles,
            partial=partial,
        )

    def transactions(self):
        """(master_name, Transaction) for every completed transaction."""
        out = []
        for name, bus_name, master_id in self._placement:
            for txn in self.buses[bus_name].completed:
                if txn.master_id == master_id:
                    out.append((name, txn))
        return out


def build(topology: Topology, trace_enabled: bool = False,
          disable_injectors: bool = False) -> Simulation:
    """Instantiate buses and masters; injectors program at their
    configured cycle once the simulation starts."""
    sim = Simulation(topology, trace_enabled=trace_enabled)
    for spec in topology.masters:
        bus = sim.buses[spec.bus]
        master_id = bus.add_master(spec.name)
        port = bus.port(master_id)
        if spec.role == "victim":
            master = Victim(spec.name, spec.victim, port)
            sim.victims.append(master)
        else:
            master = InjectorHost(spec.name, spec.injector, port, sim.trace,
                                  enabled=not disable_injectors)
            sim.hosts.append(master)
        sim._masters.append(master)
        sim._placement.append((spec.name, spec.bus, master_id))
    return sim


def run(topology: Topology, max_cycles: int | None = None,
        trace_enabled: bool = False) -> MetricsRecord:
    return build(topology, trace_enabled=trace_enabled).run(max_cycles)


@dataclass
class PairResult:
    baseline: MetricsRecord
    contended: MetricsRecord
    slowdown: dict[str, float]


def run_pair(topology: Topology, max_cycles: int | None = None,
             trace_enabled: bool = False) -> PairResult:
    """Baseline (injectors disabled) then contended run of one topology.

    Victim slowdown is contended completion over baseline completion and
    is attached to the contended record's victim rows.
    """
    victims = [m.name for m in topology.masters if m.role == "victim"]
    injectors = [m.name for m in topology.masters if m.role == "injector"]
    if not victims:
        raise ConfigError("masters", "a paired run needs at least one victim")
    if not injectors:
        raise ConfigError("masters", "a paired run needs at least one injector")

    base_sim = build(topology, trace_enabled=trace_enabled, disable_injectors=True)
    base_sim.scenario = "baseline"
    baseline = base_sim.run(max_cycles)

    cont_sim = build(topology, trace_enabled=trace_enabled)
    cont_sim.scenario = "contended"
    try:
        contended = cont_sim.run(max_cycles)
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
