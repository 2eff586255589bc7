#!/usr/bin/env python3
"""tigsim benchmark: host time of whole campaigns, and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from
``src/`` next to this directory, so nothing needs installing beyond
PyYAML.  Each run generates its inputs from ``--seed``, runs one untimed
repetition (in a forked child that reports peak memory, with
``--trace 0``), then repeats the workload through the public API for
``--seconds`` seconds (at least MIN_REPS times) and reports medians.
Every repetition's outputs are checked; see README.md for the checks,
the workloads and what each metric means.

With ``--trace 0`` the last stdout line is the JSON result holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a separate instrumented run.  Everything before it is a readable report.
Exit status is 0 when a result was printed and non-zero otherwise, for
instance on bad arguments or when the package sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SAMPLES = ROOT / "samples"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"

MIN_REPS = 3
PHASE_MIN_S = 0.05
PHASE_MAX_CALLS = 20

# The package under test is the one in this checkout, never an installed copy.
if not (SRC / "tigsim" / "__init__.py").is_file() or not SAMPLES.is_dir():
    raise SystemExit(f"bench: tigsim sources not found under {ROOT}")
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import workloads  # noqa: E402
from tigsim import harness, metrics  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int, Path], Path]   # (seed, work dir) -> topology file
    pair: bool          # harness.run_pair instead of Simulation.run
    sim_trace: bool     # simulator event tracing on, both trace CSVs emitted

    def inputs(self, seed: int) -> Path:
        return self.generate(seed, WORK / f"{self.name}-s{seed}")


# One untraced and one traced workload: each layer, trace recording and
# trace CSV rendering included, runs in at least one of them.
WORKLOADS = {w.name: w for w in (
    Workload("dual_bus_pair", partial(workloads.dual_bus, SAMPLES), pair=True, sim_trace=False),
    Workload("fanout_64", workloads.fanout_64, pair=False, sim_trace=True),
)}

END_TO_END = {"setup_s": "s", "sim_s": "s", "emit_s": "s", "wall_s": "s",
              "txn_per_s": "1/s", "peak_rss_mb": "MB"}


@dataclass
class Rep:
    """One repetition: host times, what ran, and what it produced."""

    setup_s: float
    sim_s: float
    emit_s: float
    topology: harness.Topology
    records: list
    sims: list          # the simulations that ran, in record order
    outputs: dict       # output name -> CSV text

    @property
    def transactions(self) -> int:
        return sum(m.txn_count for r in self.records for m in r.masters.values())


def _as_is(_name, fn):
    return fn


def _median_call(fn, once: bool):
    """Call fn until PHASE_MIN_S has passed (at most PHASE_MAX_CALLS times,
    once when tracing); returns the median call time and the last result.
    Short phases are timed over several calls to steady their median."""
    times = []
    while True:
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
        if once or sum(times) >= PHASE_MIN_S or len(times) >= PHASE_MAX_CALLS:
            return statistics.median(times), result


def run_once(wl: Workload, path: Path, tracer=None) -> Rep:
    """Load, build, simulate and emit once; phases are timed from here."""
    phase = tracer.phase if tracer else _as_is
    timed = tracer.timed if tracer else _as_is
    once = tracer is not None
    built = []
    original_build = harness.build

    def recording(build_phase):
        def build(*args, **kwargs):
            sim = build_phase(*args, **kwargs)
            built.append(sim)
            if tracer:
                tracer.instrument(sim)
            return sim
        return build

    setup_build = recording(phase("build", original_build))

    def setup():
        topology = phase("load", harness.load_topology)(path)
        return topology, setup_build(topology, trace_enabled=wl.sim_trace)

    # run_pair looks build up in the harness namespace, so this also sees
    # the two simulations a paired run builds for itself.  Those builds
    # are part of sim_s, so they are traced apart from the set-up build.
    harness.build = recording(phase("run.build", original_build))
    try:
        setup_s, (topology, sim) = _median_call(setup, once)
        start = time.perf_counter()
        if wl.pair:
            result = phase("run", harness.run_pair)(topology)
            records, sims = [result.baseline, result.contended], built[-2:]
        else:
            records, sims = [sim.run()], [sim]
        sim_s = time.perf_counter() - start

        def emit():
            out = {"metrics.csv": timed("metrics.emit_csv", metrics.emit_csv)(records)}
            if wl.sim_trace:
                out["bus.csv"] = timed("trace.bus_csv", sim.trace.bus_csv)()
                out["injector.csv"] = timed("trace.injector_csv", sim.trace.injector_csv)()
            return out

        emit_s, outputs = _median_call(phase("emit", emit), once)
    finally:
        harness.build = original_build
    return Rep(setup_s, sim_s, emit_s, topology, records, sims, outputs)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def digests(rep: Rep) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode()).hexdigest()[:16]
            for name, text in rep.outputs.items()}


def check(rep: Rep, expected: dict[str, str]) -> list[str]:
    """Every reason this repetition's outputs are wrong (empty when right)."""
    problems = [f"{name} digest {got} != recorded {expected[name]}"
                for name, got in digests(rep).items()
                if name in expected and got != expected[name]]
    victims = {m.name: m.victim.count for m in rep.topology.masters if m.role == "victim"}
    for record, sim in zip(rep.records, rep.sims):
        if record.partial:
            problems.append(f"{record.label}: run is partial")
        for name, count in victims.items():
            done = record.masters[name].txn_count
            if done != count:
                problems.append(f"{record.label}/{name}: {done} of {count} accesses")
        beats = dict.fromkeys(record.masters, 0)
        for name, txn in sim.transactions():
            beats[name] += txn.beats
        for name, mm in record.masters.items():
            if mm.total_bytes != beats[name] * 4:
                problems.append(f"{record.label}/{name}: {mm.total_bytes} bytes "
                                f"but {beats[name]} beats")
        for bus in sim.buses.values():
            if bus.kind != "ahb":
                continue
            occupancy = sum(bus.target.first_latency + t.beats for t in bus.completed)
            busy = layers.ahb_busy_cycles(bus)
            if busy != occupancy:
                problems.append(f"{record.label}/{bus.name}: busy {busy} != "
                                f"sum(L + beats) {occupancy} (overlapping grants?)")
    return problems


def counts(rep: Rep) -> dict[str, int]:
    """Simulated counts that a pure speed change must leave unchanged."""
    out = {"cycles": sum(r.cycles for r in rep.records),
           "transactions": rep.transactions}
    if "bus.csv" in rep.outputs:
        out["bus_trace_rows"] = rep.outputs["bus.csv"].count("\n") - 1
        out["injector_trace_rows"] = rep.outputs["injector.csv"].count("\n") - 1
    return out


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Session:
    """Repeats one workload and checks every repetition's outputs."""

    def __init__(self, wl: Workload, seed: int, path: Path):
        self.wl = wl
        self.path = path
        recorded = load_digests().get(wl.name, {}).get(str(seed))
        self.expected = recorded or {}
        self.recorded = recorded is not None
        self.attempted = 0
        self.failed = 0
        self.counts = None

    def repeat(self, tracer=None) -> Rep | None:
        """One checked repetition; None when it raised."""
        self.attempted += 1
        gc.collect()
        try:
            rep = run_once(self.wl, self.path, tracer)
        except Exception:  # a failed repetition is counted, not fatal
            self.failed += 1
            traceback.print_exc()
            return None
        problems = check(rep, self.expected)
        if not self.expected:
            # No recording for this seed: every repetition must repeat the first.
            self.expected = digests(rep)
        got = counts(rep)
        if self.counts is None:
            self.counts = got
        elif got != self.counts:
            problems.append(f"counts {got} != first {self.counts}")
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
        return rep

    def repeat_in_child(self) -> float:
        """One checked repetition in a forked child; its peak RSS in MB.

        A process started by exec inherits its parent's RSS high-water
        mark, so this process's own ru_maxrss may report its caller's
        memory.  A forked child's starts from this process's current size.
        """
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                self.repeat()
                status = self.failed
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                os.write(write_fd, str(peak_kib).encode())
            finally:
                os._exit(status)
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            reply = pipe.read()
        _, status = os.waitpid(pid, 0)
        self.attempted += 1
        if os.waitstatus_to_exitcode(status) != 0 or not reply:
            self.failed += 1
            return 0.0
        return int(reply) / 1024


def load_digests() -> dict:
    try:
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def _reps(seconds: float, step):
    """Call step() for `seconds`, and at least MIN_REPS times."""
    start = time.perf_counter()
    done = 0
    while done < MIN_REPS or time.perf_counter() - start < seconds:
        step()
        done += 1


def end_to_end(session: Session, seconds: float) -> dict[str, float]:
    samples = {name: [] for name in ("setup_s", "sim_s", "emit_s", "wall_s", "txn_per_s")}

    def step():
        rep = session.repeat()
        if rep is None:
            return
        samples["setup_s"].append(rep.setup_s)
        samples["sim_s"].append(rep.sim_s)
        samples["emit_s"].append(rep.emit_s)
        samples["wall_s"].append(rep.setup_s + rep.sim_s + rep.emit_s)
        samples["txn_per_s"].append(rep.transactions / rep.sim_s)

    # The forked repetition is also the untimed warm-up.
    peak_rss_mb = session.repeat_in_child()
    _reps(seconds, step)
    if not samples["sim_s"]:
        return {}
    out = {name: statistics.median(values) for name, values in samples.items()}
    out["peak_rss_mb"] = peak_rss_mb
    print(f"repetitions timed: {len(samples['sim_s'])}")
    return out


def traced(session: Session, seconds: float, seed: int) -> dict[str, float]:
    """Alternate untraced and instrumented repetitions; per-layer medians."""
    plain, instrumented, reports = [], [], []

    def step():
        rep = session.repeat()
        if rep is not None:
            plain.append(rep.sim_s)
        tracer = layers.Tracer()
        with tracer.module_hooks():
            rep = session.repeat(tracer)
        if rep is None:
            return
        rows = counts(rep).get("bus_trace_rows", 0)
        values = layers.per_layer(tracer, rep.sims, rows)
        values["bench.traced_sim_s"] = rep.sim_s
        instrumented.append(values)
        reports.append(tracer.report())

    session.repeat()  # untimed warm-up
    _reps(seconds, step)
    if not plain or not instrumented:
        return {}
    # median_low keeps counts whole: it always returns one of the samples.
    out = {name: statistics.median_low(v[name] for v in instrumented)
           for name in instrumented[0]}
    out["bench.trace_overhead_ratio"] = out.pop("bench.traced_sim_s") / statistics.median(plain)
    WORK.mkdir(parents=True, exist_ok=True)
    spans_file = WORK / f"trace-{session.wl.name}-s{seed}.json"
    spans_file.write_text(json.dumps(reports), encoding="utf-8")
    print(f"repetitions: {len(plain)} untraced, {len(instrumented)} instrumented; "
          f"spans and call sites in {spans_file.relative_to(ROOT)}")
    missing = {m for r in reports for m in r["missing_hooks"]}
    if missing:
        print(f"warning: hooks not found: {', '.join(sorted(missing))}")
    return out


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_event", "_per_submit")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workloads' DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be >= 0")

    wl = WORKLOADS[args.workload]
    path = wl.inputs(seed)
    session = Session(wl, seed, path)
    print(f"workload {wl.name}  seed {seed}  input {path.relative_to(ROOT)}")
    print(f"digests {'checked against the recording' if session.recorded else 'not recorded for this seed; checked for repeatability'}")
    if args.trace:
        values = traced(session, args.seconds, seed)
    else:
        values = end_to_end(session, args.seconds)
    if not values:
        print("bench: no repetition completed", file=sys.stderr)
        return 1
    for name, value in session.counts.items():
        print(f"  {name:34s} {value}")
    for name, value in values.items():
        print(f"  {name:34s} {value if isinstance(value, int) else f'{value:.6g}'} {unit(name)}")
    print(f"  {'fail_rate':34s} {session.failed / session.attempted:.6g} "
          f"({session.failed} of {session.attempted} repetitions)")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
