"""List the statements of `src/loglambert` that the tier-1 tests never execute.

    python tests/_reach.py [PYTEST_ARGS ...]

Runs pytest in this process, on the repository with tier-1's options
unless PYTEST_ARGS are given, with the repository's `src` first on sys.path (and
on PYTHONPATH, for the tests' subprocesses) and a `sys.settrace` tracer that records the lines executed in each module of the
package, from its import on.  Then prints, per module, the statements whose
first line never ran:

    loglambert/core.py: 1 of 489 statements never executed
      1028: raise _range_error(p, "the large-x approximation")

A statement counts when its first line carries bytecode: a docstring, a
`pass` or a `global` has none.  The tracer sees this process only.  Code
that runs in a subprocess, as the CLI tests run `python -m loglambert`, is
not traced, so its statements are listed though a test runs them.  pytest's
own output goes to stderr.  The tests run a few times slower under the
tracer, so a timing gate may fail there; the list is printed whatever the
outcome, and the exit code is pytest's.

It needs only the standard library and pytest.  coverage.py would do the
same, but it is not among the test dependencies.  This file is a tool, not
a test module: pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "loglambert"
TIER1_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT)]


def _statements(path: Path) -> dict[int, str]:
    # First line -> source line of every statement whose first line carries bytecode.
    source = path.read_text()
    with_code, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    lines = source.splitlines()
    return {node.lineno: lines[node.lineno - 1].strip() for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt) and node.lineno in with_code}


def main(argv: list[str]) -> int:
    if "loglambert" in sys.modules:
        raise SystemExit("loglambert was imported before the tracer started")
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                             os.environ.get("PYTHONPATH")]))
    executed = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}

    def on_line(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):  # trace the package's frames only
        return on_line if frame.f_code.co_filename in executed else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(argv or TIER1_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for name, lines in executed.items():
        statements = _statements(Path(name))
        missed = sorted(set(statements) - lines)
        print(f"{Path(name).relative_to(PACKAGE.parent)}: {len(missed)} of {len(statements)} "
              f"statements never executed")
        for line in missed:
            print(f"  {line}: {statements[line]}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
