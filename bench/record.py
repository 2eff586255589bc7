#!/usr/bin/env python3
"""Record the output digests that bench/run.py checks every repetition against.

    python3 bench/record.py [--seeds FIRST-LAST] [--workload NAME ...]

Runs each workload once per seed, untimed, through the same code path as
run.py, checks the invariants, and writes the SHA-256 of every output
CSV to bench/digests.json.  Seeds missing from the file are still checked
for repeatability within a run.  Re-record only with a change that means
to alter simulated output, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-99", help="inclusive range FIRST-LAST")
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    table = run.load_digests()
    for name in args.workload or sorted(run.WORKLOADS):
        wl = run.WORKLOADS[name]
        entries = table.setdefault(name, {})
        for seed in seeds:
            rep = run.run_once(wl, wl.inputs(seed))
            problems = run.check(rep, {})
            if problems:
                print(f"{name} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            entries[str(seed)] = run.digests(rep)
            print(f"{name} seed {seed}: {run.counts(rep)}", flush=True)
        table[name] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
    run.DIGESTS.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n",
                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
