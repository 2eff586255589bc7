"""Per-layer tracing for the benchmark's traced run.

Nothing here touches the package source.  The traced run wraps calls on
the objects ``harness.build`` returns (bus, master, injector and
scheduler methods) and a few module functions (``descriptors.decode``,
``pattern.compile_file``), then derives the per-layer metrics from what
the wrappers saw.

Hot call sites run millions of times per run, so each keeps only a call
count, total time and self time (total minus the time of wrapped calls
made inside it).  Spans with cause IDs are kept only for the phases:
load, build, run, collect and emit.  Everything stays in memory until
the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from tigsim import descriptors, harness, pattern


class Site:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Call-site counters plus phase spans for one traced repetition."""

    def __init__(self):
        self.sites: dict[str, Site] = {}
        self.spans: list[dict] = []
        self.txns: dict[str, list] = {"ahb": [], "axi": []}
        self.missing: set[str] = set()
        self._child = [0.0]     # time of wrapped callees, one slot per open call
        self._cause = [None]    # open phase span ids

    def site(self, name: str) -> Site:
        return self.sites.setdefault(name, Site())

    def timed(self, name: str, fn):
        site, child, clock = self.site(name), self._child, time.perf_counter

        def call(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                site.calls += 1
                site.total += elapsed
                site.self_time += elapsed - child.pop()
                child[-1] += elapsed
        return call

    def counted(self, name: str, fn):
        site = self.site(name)

        def call(*args, **kwargs):
            site.calls += 1
            return fn(*args, **kwargs)
        return call

    def phase(self, name: str, fn):
        """timed() that also records a span caused by the open phase."""
        timed, spans, cause = self.timed(name, fn), self.spans, self._cause

        def call(*args, **kwargs):
            span = {"id": len(spans), "name": name, "cause": cause[-1],
                    "start": time.perf_counter(), "end": None}
            spans.append(span)
            cause.append(span["id"])
            try:
                return timed(*args, **kwargs)
            finally:
                cause.pop()
                span["end"] = time.perf_counter()
        return call

    def total(self, name: str) -> float:
        site = self.sites.get(name)
        return site.total if site else 0.0

    def calls(self, name: str) -> int:
        site = self.sites.get(name)
        return site.calls if site else 0

    def self_time(self, name: str) -> float:
        site = self.sites.get(name)
        return site.self_time if site else 0.0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, obj, attr: str, wrapper):
        """Shadow obj.attr with wrapper(original); note hooks that vanished."""
        original = getattr(obj, attr, None)
        if original is None:
            self.missing.add(f"{type(obj).__name__}.{attr}")
            return
        setattr(obj, attr, wrapper(original))

    @contextmanager
    def module_hooks(self):
        """Wrap module-level functions the package calls through its
        module namespace, restoring them afterwards."""
        saved = (descriptors.decode, pattern.compile_file)
        descriptors.decode = self.timed("descriptors.decode", saved[0])
        pattern.compile_file = self.timed("pattern.compile", saved[1])
        try:
            yield
        finally:
            descriptors.decode, pattern.compile_file = saved

    def instrument(self, sim: harness.Simulation):
        """Wrap the per-layer calls of one built simulation."""
        roles = {m.name: m.role for m in sim.topology.masters}
        self._wrap(sim, "run", lambda f: self.phase("run", f))
        self._wrap(sim, "_collect", lambda f: self.phase("collect", f))
        self._wrap(sim, "_next_event", lambda f: self.timed("harness.next_event", f))
        for index, bus in enumerate(sim.buses.values()):
            kind = bus.kind
            self._wrap(bus, "begin_cycle", lambda f: self.timed(f"{kind}.begin_cycle", f))
            if index == 0:
                # One begin_cycle call on the first bus per _process step.
                self._wrap(bus, "begin_cycle", lambda f: self.counted("harness.events", f))
            self._wrap(bus, "arbitrate", lambda f: self.timed(f"{kind}.arbitrate", f))
            injector_ids = {i for i, label in enumerate(bus.masters)
                            if roles.get(label) == "injector"}
            self._wrap(bus, "submit",
                       lambda f: self._submit_hook(f, injector_ids, self.txns[kind]))
        for victim in sim.victims:
            self._wrap(victim, "step", lambda f: self.timed("harness.victim_step", f))
        for host in sim.hosts:
            self._wrap(host, "step", lambda f: self.timed("injector.host_step", f))
            self._wrap(host.injector, "step", lambda f: self.timed("injector.step", f))
        if sim.trace is not None:
            self._wrap(sim.trace, "bus", lambda f: self.counted("trace.bus", f))

    def _submit_hook(self, submit, injector_ids, txns):
        every, from_injectors = self.site("bus.submit"), self.site("injector.submit")

        def call(master_id, *args):
            every.calls += 1
            if master_id in injector_ids:
                from_injectors.calls += 1
            txn = submit(master_id, *args)
            txns.append(txn)
            return txn
        return call

    def report(self) -> dict:
        """Spans and raw call-site counters, for writing out after the run."""
        return {
            "spans": self.spans,
            "sites": {name: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
                      for name, s in sorted(self.sites.items())},
            "missing_hooks": sorted(self.missing),
        }


def _ratio(num: float, den: float, empty: float = 0.0) -> float:
    return num / den if den else empty


def per_layer(tr: Tracer, sims, trace_rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (see bench/README.md)."""
    events = tr.calls("harness.events")
    master_steps = tr.calls("harness.victim_step") + tr.calls("injector.host_step")
    granted = {kind: [t for t in txns if t.grant_cycle is not None]
               for kind, txns in tr.txns.items()}
    ahb_busy = 0
    axi_beats = 0
    for sim in sims:
        for bus in sim.buses.values():
            if bus.kind == "ahb":
                ahb_busy += ahb_busy_cycles(bus)
            else:
                axi_beats += sum(t.beats for t in bus.completed)
    trace_calls = tr.calls("trace.bus")
    return {
        "harness.load_s": tr.total("load"),
        "harness.build_s": tr.total("build"),
        "pattern.compile_calls": tr.calls("pattern.compile"),
        "pattern.compile_s": tr.total("pattern.compile"),
        "harness.events": events,
        "harness.master_steps_per_event": _ratio(master_steps, events),
        "harness.next_event_s": tr.total("harness.next_event"),
        "harness.victim_step_s": tr.total("harness.victim_step"),
        "harness.self_s": tr.self_time("run"),
        "injector.step_calls": tr.calls("injector.step"),
        "injector.step_s": tr.total("injector.step"),
        "injector.host_step_s": tr.total("injector.host_step"),
        "injector.steps_per_submit": _ratio(tr.calls("injector.step"),
                                            tr.calls("injector.submit")),
        "descriptors.decode_calls": tr.calls("descriptors.decode"),
        "descriptors.decode_s": tr.total("descriptors.decode"),
        "ahb.begin_cycle_s": tr.total("ahb.begin_cycle"),
        "ahb.arbitrate_s": tr.total("ahb.arbitrate"),
        "axi.begin_cycle_s": tr.total("axi.begin_cycle"),
        "axi.arbitrate_s": tr.total("axi.arbitrate"),
        "axi.grant_ratio": _ratio(len(granted["axi"]), tr.calls("axi.arbitrate")),
        "bus.submit_calls": tr.calls("bus.submit"),
        "ahb.busy_cycles": ahb_busy,
        "axi.beats": axi_beats,
        "ahb.wait_cycles": sum(t.grant_cycle - t.request_cycle for t in granted["ahb"]),
        "axi.wait_cycles": sum(t.grant_cycle - t.request_cycle for t in granted["axi"]),
        "metrics.collect_s": tr.total("collect"),
        "metrics.emit_csv_s": tr.total("metrics.emit_csv"),
        "trace.bus_calls": trace_calls,
        "trace.bus_rows": trace_rows,
        # A recorder that is never called wastes nothing.
        "trace.kept_ratio": _ratio(trace_rows, trace_calls, empty=1.0),
        "trace.bus_csv_s": tr.total("trace.bus_csv"),
        "trace.injector_csv_s": tr.total("trace.injector_csv"),
    }


def ahb_busy_cycles(bus) -> int:
    """Cycles covered by the union of the completed transactions'
    [grant, complete) intervals on one AHB bus.  It equals Σ(L + beats)
    only when no two transactions held the bus in the same cycle."""
    busy = 0
    covered_to = 0
    for t in sorted(bus.completed, key=lambda t: t.grant_cycle):
        start = max(t.grant_cycle, covered_to)
        if t.complete_cycle > start:
            busy += t.complete_cycle - start
            covered_to = t.complete_cycle
    return busy
