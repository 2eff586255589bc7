"""Seeded input generators for the benchmark workloads.

Each generator takes the seed and a work directory and returns the path
of a topology YAML file.  The simulator only ever sees that file (and
the ``.tig`` patterns it names), loaded through ``harness.load_topology``
exactly as the CLI loads it.  The same seed always writes the same bytes.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

import yaml

DEFAULT_SEED = 0

# fanout_64 shape: one AHB and one AXI bus, each with this many victims
# followed by the same number of looping injectors.
FANOUT_PER_ROLE = 16
# Victim count is derived from its period so that every victim's nominal
# issue window ends near this cycle; the run length, and with it the
# host time, then varies little from seed to seed.
FANOUT_NOMINAL_CYCLES = 45_000
FANOUT_SIZES = (4, 8, 16, 32, 64)
FANOUT_ACCESS_KINDS = ("read", "write", "read_fix", "write_fix")
FANOUT_DELAYS = 48


def dual_bus(samples: Path, seed: int, work: Path) -> Path:
    """``samples/dual_bus.yaml``; seeds other than 0 nudge the victim
    periods and counts and the AXI injector's delay by a few percent."""
    source = samples / "dual_bus.yaml"
    if seed == DEFAULT_SEED:
        return source
    rng = random.Random(seed)
    raw = yaml.safe_load(source.read_text(encoding="utf-8"))
    masters = {m["name"]: m for m in raw["masters"]}
    for name in ("core0", "core1"):
        victim = masters[name]["victim"]
        victim["period"] += rng.randint(-2, 2)
        victim["count"] += rng.randint(-victim["count"] // 100, victim["count"] // 100)
    delay = next(d for d in masters["inj_axi"]["injector"]["descriptors"]
                 if d["kind"] == "delay")
    delay["delay_cycles"] += rng.randint(-2, 2)
    work.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(samples / "stress.tig", work / "stress.tig")
    return _write(work, raw)


def fanout_64(seed: int, work: Path) -> Path:
    """64 masters on two buses: random victims and looping injectors.

    Injectors mix pipelined and legacy mode, pattern files and inline
    descriptor lists, and programming over the configuration port or the
    data bus, so the scheduler, fetch/decode, arbitration and metrics
    collection all see many masters at once.
    """
    rng = random.Random(seed)
    work.mkdir(parents=True, exist_ok=True)
    buses = [
        # Round robin keeps the always-pending injectors from starving
        # the victims, and spreads bandwidth over every injector program.
        {"name": "ahb0", "kind": "ahb", "L": 1, "policy": "round_robin"},
        {"name": "axi0", "kind": "axi", "L": 2, "policy": "round_robin", "O": 2},
    ]
    masters = []
    for b, bus in enumerate(buses):
        for v in range(FANOUT_PER_ROLE):
            period = rng.randint(300, 600)
            masters.append({
                "name": f"{bus['name']}_v{v}",
                "bus": bus["name"],
                "role": "victim",
                "victim": {
                    "period": period,
                    "count": FANOUT_NOMINAL_CYCLES // period,
                    "kind": rng.choice(("read", "write")),
                    "address": 0x8000_0000 + (b * FANOUT_PER_ROLE + v) * 0x10_0000,
                    "size_bytes": rng.choice(FANOUT_SIZES),
                },
            })
        # Exact halves (and two data-bus injectors per bus), shuffled, so
        # the seed moves which injector gets which mode, not the totals.
        half = FANOUT_PER_ROLE // 2
        pipe = rng.sample([True] * half + [False] * half, FANOUT_PER_ROLE)
        as_file = rng.sample([True] * half + [False] * half, FANOUT_PER_ROLE)
        via_bus = set(rng.sample(range(FANOUT_PER_ROLE), 2))
        programs = _split(rng, _descriptor_pool(rng, base=0x4000_0000 + b * 0x100_0000))
        for i, program in enumerate(programs):
            name = f"{bus['name']}_i{i}"
            injector = {
                "ctrl": ["loop", "pipe"] if pipe[i] else ["loop"],
                "program_via": "data_bus" if i in via_bus else "apb",
            }
            if as_file[i]:
                (work / f"{name}.tig").write_text(_tig(program), encoding="utf-8")
                injector["pattern"] = f"{name}.tig"
            else:
                injector["descriptors"] = program
            masters.append({"name": name, "bus": bus["name"], "role": "injector",
                            "injector": injector})
    return _write(work, {"name": "fanout-64", "seed": seed, "max_cycles": 2_000_000,
                         "buses": buses, "masters": masters})


def _descriptor_pool(rng: random.Random, base: int) -> list[dict]:
    """One bus's descriptors: every (kind, size, reps) combination twice
    plus a fixed number of delays, in seeded order with seeded addresses
    and delay lengths.  The traffic mix, and so the work per simulated
    cycle, is the same for every seed."""
    pool = [{"kind": kind, "address": base + 64 * rng.randrange(0x4000),
             "size_bytes": size, "reps": reps}
            for kind in FANOUT_ACCESS_KINDS for size in FANOUT_SIZES
            for reps in range(1, 5) for _ in range(2)]
    pool += [{"kind": "delay", "delay_cycles": rng.randint(1, 16)}
             for _ in range(FANOUT_DELAYS)]
    rng.shuffle(pool)
    return pool


def _split(rng: random.Random, pool: list[dict]) -> list[list[dict]]:
    """Deal the pool out as FANOUT_PER_ROLE programs of 4..24 descriptors."""
    counts = [len(pool) // FANOUT_PER_ROLE] * FANOUT_PER_ROLE
    for k in range(len(pool) % FANOUT_PER_ROLE):
        counts[k] += 1
    for _ in range(4 * len(pool)):
        i, j = rng.sample(range(FANOUT_PER_ROLE), 2)
        if counts[i] > 4 and counts[j] < 24:
            counts[i] -= 1
            counts[j] += 1
    programs, start = [], 0
    for n in counts:
        programs.append(pool[start:start + n])
        start += n
    return programs


def _tig(program: list[dict]) -> str:
    lines = []
    for d in program:
        if d["kind"] == "delay":
            lines.append(f"delay {d['delay_cycles']}")
        else:
            lines.append(f"{d['kind']} {d['address']:#x} size={d['size_bytes']} reps={d['reps']}")
    return "\n".join(lines) + "\n"


def _write(work: Path, raw: dict) -> Path:
    path = work / "topology.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    return path
