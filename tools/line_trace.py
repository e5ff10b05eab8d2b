"""Pytest plugin that prints each statement of ``src/billiards`` that a run
never executes, so a change can show that the code it deletes was unreached
and that a new test reaches the lines it was written for.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q -p tools.line_trace [TESTS]

Lines are traced with ``sys.settrace`` and ``threading.settrace`` from before
pytest loads its first conftest, so imports are seen too. Only frames
of files under ``src/billiards`` get a line tracer; every other call returns
at once. A statement is a line that holds bytecode of the module, as
``co_lines`` of the compiled file and of every code object nested in it
report. The summary prints one ``path:line  text`` entry per statement that
never ran, then the count. Code that a test runs in a child process (``python
-m billiards.cli``, or an import under another ``BILLIARDS_EPS``) is not seen.

Tracing slows the traced code several times over, so a test with a time
budget may miss it under this plugin; the line record is complete all the
same.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "billiards"

_seen: dict[Path, set[int]] = {}  # module file -> the lines that ran
_tracers: dict[str, object] = {}  # file name -> its line tracer, None outside


def _line_tracer(lines: set[int]):
    add = lines.add

    def trace_lines(frame, event, arg):
        add(frame.f_lineno)
        return trace_lines

    return trace_lines


def _trace_calls(frame, event, arg):
    filename = frame.f_code.co_filename
    try:
        tracer = _tracers[filename]
    except KeyError:
        path = Path(filename).resolve()
        inside = path.is_relative_to(PACKAGE)
        tracer = _line_tracer(_seen.setdefault(path, set())) if inside else None
        _tracers[filename] = tracer
    if tracer is not None:
        # the call event stands for the first line, which has no line event
        tracer(frame, event, arg)
    return tracer


def _statement_lines(path: Path) -> set[int]:
    code = compile(path.read_text(), str(path), "exec", dont_inherit=True)
    lines: set[int] = set()
    stack = [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    sys.settrace(None)
    threading.settrace(None)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        statements = _statement_lines(path)
        total += len(statements)
        never = sorted(statements - _seen.get(path, set()))
        missed += len(never)
        name = path.relative_to(PACKAGE.parent)
        for line in never:
            terminalreporter.write_line(f"{name}:{line}  {text[line - 1].strip()}")
    terminalreporter.write_line(
        f"line trace: {missed} of {total} statements in src/billiards never ran"
    )
