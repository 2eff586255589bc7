"""Run the tier-1 tests under a line tracer and fail when a line of
src/tigsim that no test runs is not on the reviewed list below.

    PYTHONPATH=src python tests/line_coverage.py [pytest arguments]

The tracer is plain ``sys.settrace``, so it needs nothing installed and
runs on every Python the package supports; it makes tier-1 about six times
slower, which is why it is its own CI step.  A line counts when the
compiler gives it a line-table entry; a ``def`` line is run by its
enclosing scope.  Only the main thread is traced (no test starts another),
and code run in a subprocess is not.

Hypothesis runs derandomized and without deadlines here, so that the same
tree always runs the same lines and tracing cannot time a test out.

Exit status: pytest's own when the tests fail; else 1 when a line is unrun
and unlisted, or a listed line no longer exists or is run; else 0.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import settings

SRC = Path(__file__).resolve().parent.parent / "src" / "tigsim"

# Lines no tier-1 test runs: (file, the line's text stripped, why).
UNRUN = (
    ("cli.py", "raise SystemExit(main())",
     "the console-script entry point; CI's module step runs it in a subprocess"),
    ("cli.py", "entry()",
     "the `python -m tigsim.cli` entry point, run in a subprocess likewise"),
    ("harness.py", 'raise AssertionError(f"event scheduler stuck at cycle {now}")',
     "an assert: every master's and bus's next event lies after the cycle visited"),
)


def _code_lines(code) -> set[int]:
    """The lines of code and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _executable() -> dict[Path, set[int]]:
    return {path: _code_lines(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
            for path in sorted(SRC.glob("*.py"))}


def _trace(argv) -> tuple[int, dict[Path, set[int]]]:
    """Run pytest with argv under the tracer: its exit code and the lines run."""
    hits: dict[str, set[int] | None] = {}   # by code filename; None outside SRC

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in hits:
            hits[name] = set() if Path(name).resolve().parent == SRC else None
        return local if hits[name] is not None else None

    settings.register_profile("line-coverage", deadline=None, derandomize=True)
    settings.load_profile("line-coverage")
    sys.settrace(call)
    try:
        # Hypothesis is imported above, too early for pytest to rewrite it.
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "-W", "ignore::pytest.PytestAssertRewriteWarning", *argv])
    finally:
        sys.settrace(None)
    run: dict[Path, set[int]] = {}
    for name, lines in hits.items():
        if lines is not None:
            run.setdefault(Path(name).resolve(), set()).update(lines)
    return int(code), run


def main(argv) -> int:
    code, run = _trace(argv or [str(SRC.parent.parent / "tests")])
    if code:
        return code
    listed = {(file, text): reason for file, text, reason in UNRUN}
    unlisted, used = [], set()
    for path, lines in _executable().items():
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(lines - run.get(path, set())):
            entry = (path.name, source[line - 1].strip())
            if entry in listed:
                used.add(entry)
            else:
                unlisted.append(f"{path.name}:{line}: {entry[1]}")
    stale = [f"{file}: {text}" for file, text in listed if (file, text) not in used]
    for line in unlisted:
        print(f"unrun and not listed: {line}")
    for line in stale:
        print(f"listed but run or gone: {line}")
    print(f"line coverage: {len(unlisted)} unlisted unrun lines, {len(used)} listed, "
          f"{len(stale)} stale entries")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
