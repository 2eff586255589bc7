"""Command-line front end: compile patterns, run campaigns, dump traces.

Exit codes: 0 success, 1 usage error, 2 input/parse/config error,
3 cycle-limit exceeded (the metrics CSV, scenario column flagged
``:partial``, and any requested trace are still written).  Diagnostics
go to stderr; data artifacts go to the requested file or stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import harness, metrics, pattern
from .descriptors import encode_image

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_at_least(minimum: int):
    """argparse type for an override the loader bounds the same way."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse words a ValueError as "invalid int value"
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="tigsim",
                     description="Bus traffic injector simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a .tig pattern file")
    p_compile.add_argument("pattern", help="pattern source file")
    p_compile.add_argument("--format", choices=("bin", "hex", "apb"),
                           default="hex", help="output artifact (default: hex)")
    p_compile.add_argument("--out", "-o", help="output path (default: stdout)")

    for name, brief in (("run", "run a topology and report metrics"),
                        ("trace", "run a topology and dump the bus event trace")):
        p = sub.add_parser(name, help=brief)
        p.add_argument("config", help="topology YAML file")
        p.add_argument("--out", "-o", help="metrics CSV path (default: stdout)")
        p.add_argument("--max-cycles", type=_int_at_least(1), help="override the cycle cap")
        p.add_argument("--pair", action="store_true",
                       help="run baseline (injectors disabled) and contended")
        p.add_argument("--seed", type=_int_at_least(0), help="override the config seed")
        p.add_argument("--trace", required=name == "trace",
                       help="bus event trace CSV path")
        p.add_argument("--trace-injector", metavar="PATH",
                       help="injector event trace CSV path")
    return parser


def _write_text(path: str | None, text: str):
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_bytes(path: str | None, blob: bytes):
    if path:
        Path(path).write_bytes(blob)
    else:
        sys.stdout.buffer.write(blob)


def cmd_compile(args) -> int:
    try:
        descriptors = pattern.compile_file(args.pattern)
        # Every format must fit the buffer; the APB sequence states the rule.
        sequence = pattern.emit_apb_sequence(descriptors)
    except OSError as exc:
        print(f"tigsim: cannot read {args.pattern}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (pattern.PatternError, pattern.CapacityExceeded) as exc:
        print(f"tigsim: {args.pattern}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.format == "bin":
        _write_bytes(args.out, encode_image(descriptors))
    elif args.format == "hex":
        _write_text(args.out, pattern.render_hex(descriptors))
    else:
        _write_text(args.out, pattern.render_apb_csv(sequence))
    print(f"tigsim: compiled {len(descriptors)} descriptors", file=sys.stderr)
    return EXIT_OK


def cmd_run(args) -> int:
    traces = {"--trace": args.trace, "--trace-injector": args.trace_injector}
    for flag, path in traces.items():
        if args.pair and path is not None:
            print(f"tigsim: {flag} cannot be combined with --pair "
                  "(two runs, two traces)", file=sys.stderr)
            return EXIT_USAGE
    code = EXIT_OK
    try:
        topology = harness.load_topology(args.config)
        if args.seed is not None:
            topology = dataclasses.replace(topology, seed=args.seed)
        if args.pair:
            result = harness.run_pair(topology, max_cycles=args.max_cycles)
            records = [result.baseline, result.contended]
        else:
            trace_enabled = any(path is not None for path in traces.values())
            sim = harness.build(topology, trace_enabled=trace_enabled)
            trace = sim.trace
            records = [sim.run(args.max_cycles)]
    except harness.ConfigError as exc:
        # An unreadable or unparsable file is already named by its path.
        where = "" if exc.path == args.config else f"{args.config}: "
        print(f"tigsim: {where}{exc}", file=sys.stderr)
        return EXIT_INPUT
    except harness.CycleLimitExceeded as exc:
        # The recorder holds every event up to the limit: write it all.
        records, code = exc.records, EXIT_LIMIT
        print("tigsim: cycle limit exceeded; partial output written", file=sys.stderr)

    _write_text(args.out, metrics.emit_csv(records))
    if args.trace is not None:
        Path(args.trace).write_text(trace.bus_csv(), encoding="utf-8")
    if args.trace_injector is not None:
        Path(args.trace_injector).write_text(trace.injector_csv(), encoding="utf-8")
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "compile":
        return cmd_compile(args)
    return cmd_run(args)


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
