"""List the ``src/`` statements that no tier-1 test reaches.

    PYTHONPATH=src python tests/unreached_lines.py [pytest arguments]

Runs pytest in this process under a ``sys.settrace`` line tracer that
records the lines run in ``src/fuzzybig``, then prints each line that holds
a statement but never ran, as ``path:line: source``, and their count.  A
line holds a statement if some compiled code object maps bytecode to it,
so a statement spread over several lines may be listed under a line of it
that the tracer reports under another: the list is an upper bound.  Tests
run in a subprocess are not traced.  The exit status is always 0, because
the list is for reading; pytest's own status is printed first.  pytest
does not collect this file: its name does not start with ``test_``.
"""

import os
import sys
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "fuzzybig")


def statement_lines(path: str) -> set:
    """The lines of ``path`` that some code object compiled from it maps
    bytecode to."""
    with open(path, encoding="utf-8") as handle:
        stack = [compile(handle.read(), path, "exec")]
    lines: set = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts at 0
        stack += (const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def line_tracer(lines: set):
    """A local trace function that adds each line run to ``lines``."""

    def trace(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace

    return trace


def main(argv: list) -> int:
    paths = sorted(os.path.join(SRC, name) for name in os.listdir(SRC) if name.endswith(".py"))
    ran: dict = {path: set() for path in paths}
    tracers = {path: line_tracer(lines) for path, lines in ran.items()}

    def call_tracer(frame, event, arg):
        # Only frames of src/ files get a line tracer, so the rest of the
        # run is traced at the cost of one lookup per call.
        tracer = tracers.get(frame.f_code.co_filename)
        if tracer is not None:
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return tracer

    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"pytest exit status: {int(status)}")
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            source = handle.read().splitlines()
        for line in sorted(statement_lines(path) - ran[path]):
            print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
            total += 1
    print(f"{total} src/ statement lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
