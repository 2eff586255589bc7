#!/usr/bin/env python3
"""Measure every workload twice over ten seeds and write bench/baseline.json.

    python3 bench/baseline.py

Runs bench/run.py once per workload and seed (1-10), each in a fresh
process as a comparison between two commits would, for BENCHMARK.json's
run_seconds.  It does this as two sets, one after the other, and prints
every end-to-end metric's median, quartiles and spread (interquartile
range over median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles) for each set, and how far the second set's median is worse
than the first's, as a share of the first, against the metric's bound.
It then takes one traced repetition per workload on the default seed for
the deterministic counts: cycles, events, transactions, trace rows and
the simulated per-layer counts.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys

import run  # first: it puts the checkout's src/ on sys.path

import layers  # noqa: E402
import workloads  # noqa: E402

SEEDS = list(range(1, 11))
EXACT = ("harness.events", "injector.step_calls", "descriptors.decode_calls",
         "bus.submit_calls", "ahb.busy_cycles", "axi.beats", "ahb.wait_cycles",
         "axi.wait_cycles", "trace.bus_calls")


def measure(name: str, seeds, seconds: float) -> dict:
    values: dict[str, list[float]] = {}
    runs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=run.ROOT, timeout=600, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
        print(f"{name} seed {seed}: " + ", ".join(
            f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    summary = {}
    for key, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        summary[key] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                        "spread": (q3 - q1) / statistics.median(vals)}
        print(f"  {key:12s} median {summary[key]['median']:.5g}  "
              f"q1 {q1:.5g}  q3 {q3:.5g}  spread {summary[key]['spread']:.4f}")
    return {"runs": runs, "summary": summary}


def deterministic_counts(name: str) -> dict:
    wl = run.WORKLOADS[name]
    tracer = layers.Tracer()
    with tracer.module_hooks():
        rep = run.run_once(wl, wl.inputs(workloads.DEFAULT_SEED), tracer)
    problems = run.check(rep, run.load_digests().get(name, {}).get(
        str(workloads.DEFAULT_SEED), {}))
    if problems:
        raise SystemExit(f"{name}: {'; '.join(problems)}")
    out = run.counts(rep)
    per_layer = layers.per_layer(tracer, rep.sims, out.get("bus_trace_rows", 0))
    out.update({key: per_layer[key] for key in EXACT})
    out["digests"] = run.digests(rep)
    return out


def worse_by(first: float, second: float, better: str) -> float:
    """How far `second` is worse than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    definition = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = definition["run_seconds"]
    metrics = {m["name"]: m for m in definition["end_to_end"]}
    report = {"python": platform.python_version(), "machine": platform.machine(),
              "seeds": SEEDS, "seconds": seconds, "workloads": {}}
    for name in run.WORKLOADS:
        sets = [measure(name, SEEDS, seconds) for _ in range(2)]
        first, second = (s["summary"] for s in sets)
        shift = {}
        for key, m in metrics.items():
            shift[key] = {"worse_by": worse_by(first[key]["median"], second[key]["median"],
                                               m["better"]),
                          "bound": m["bound"]}
            print(f"  {key:12s} second median worse by {shift[key]['worse_by']:+.4f} "
                  f"(bound {m['bound']})")
        report["workloads"][name] = {"sets": sets, "second_set_worse_by": shift,
                                     "counts_default_seed": deterministic_counts(name)}
    with open(run.BENCH / "baseline.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
