"""Command-line front end: ``compile`` a pattern into a buffer image, or
``run`` a topology (alone, with traces on request, or as a ``--pair``).

Exit codes: 0 success, 1 usage error, 2 input/parse/config error or an
output path that cannot be written, 3 cycle-limit exceeded (the metrics
CSV, scenario column flagged ``:partial``, and any requested trace are
still written).  Diagnostics go to stderr; data artifacts go to the
requested file or stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections.abc import Iterable

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


def _max_cycles(text: str) -> int:
    """argparse type for --max-cycles, bounded as the loader bounds max_cycles."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


_max_cycles.__name__ = "int"  # argparse words a ValueError as "invalid int value"


def _build_parser() -> _Parser:
    parser = _Parser(prog="tigsim",
                     description="Bus traffic injector simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a .tig pattern file")
    p_compile.add_argument("pattern", help="pattern source file")
    p_compile.add_argument("--format", choices=("bin", "hex", "apb"),
                           default="hex", help="output artifact (default: hex)")
    p_compile.add_argument("--out", "-o", help="output path (default: stdout)")

    p_run = sub.add_parser("run", help="run a topology and report metrics")
    p_run.add_argument("config", help="topology YAML file")
    p_run.add_argument("--out", "-o", help="metrics CSV path (default: stdout)")
    p_run.add_argument("--max-cycles", type=_max_cycles,
                       help="replace the config's max_cycles")
    p_run.add_argument("--pair", action="store_true",
                       help="run baseline (injectors disabled) and contended")
    p_run.add_argument("--trace", help="bus event trace CSV path")
    p_run.add_argument("--trace-injector", metavar="PATH",
                       help="injector event trace CSV path")
    return parser


class _CannotWrite(Exception):
    pass


def _write(path: str | None, data: str | bytes | Iterable[str]):
    """Write data to path, or to stdout without one: bytes as they are, text
    (one str, or str chunks in order) as UTF-8."""
    chunks = [data] if isinstance(data, (str, bytes)) else data
    if not path:
        for chunk in chunks:
            (sys.stdout if isinstance(chunk, str) else sys.stdout.buffer).write(chunk)
        return
    try:
        with open(path, "wb") as out:
            for chunk in chunks:
                out.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
    except OSError as exc:
        raise _CannotWrite(f"cannot write {path}: {exc.strerror or exc}") from exc


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
        _write(args.out, encode_image(descriptors))
    elif args.format == "hex":
        _write(args.out, pattern.render_hex(descriptors))
    else:
        _write(args.out, pattern.render_apb_csv(sequence))
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
        if args.max_cycles is not None:
            topology = dataclasses.replace(topology, max_cycles=args.max_cycles)
        if args.pair:
            result = harness.run_pair(topology)
            records = [result.baseline, result.contended]
        else:
            trace_enabled = any(path is not None for path in traces.values())
            sim = harness.build(topology, trace_enabled=trace_enabled)
            records = [sim.run()]
    except harness.ConfigError as exc:
        # An unreadable or unparsable file is already named by its path.
        where = "" if exc.path == args.config else f"{args.config}: "
        print(f"tigsim: {where}{exc}", file=sys.stderr)
        return EXIT_INPUT
    except harness.CycleLimitExceeded as exc:
        # The recorder holds every event up to the limit: write it all.
        records, code = exc.records, EXIT_LIMIT
        print("tigsim: cycle limit exceeded; partial output written", file=sys.stderr)

    _write(args.out, metrics.emit_csv(records))
    if args.trace is not None:
        _write(args.trace, sim.trace.bus_chunks())
    if args.trace_injector is not None:
        _write(args.trace_injector, sim.trace.injector_chunks())
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return cmd_compile(args) if args.command == "compile" else cmd_run(args)
    except _CannotWrite as exc:
        print(f"tigsim: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
