"""Pytest plugin that records every ``billiards.cli.main`` call and prints one
sha256 over them, so two trees can be shown to give the same CLI bytes.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q -p tools.cli_digest tests/test_io_cli.py

Each record holds the call's argv, its exit code, its stdout and stderr, and
the bytes of every ``--out``/``--csv``/``--svg`` file it wrote. pytest's
temporary directories are replaced by ``<tmp>`` first, so the digest does not
depend on where a run put them. With ``-v`` the plugin also prints one short
digest per call, to find the call where two trees part.

Only in-process calls are recorded: a test that starts ``python -m
billiards.cli`` in a subprocess is not seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import sys
from pathlib import Path

_TMP = re.compile(r"\S*?pytest-of-[^/\s]+/pytest-\d+")
_FILE_FLAGS = ("--out", "--csv", "--svg")

_records: list[str] = []


def _normalize(text: str) -> str:
    return _TMP.sub("<tmp>", text)


def _written_files(argv: list[str]) -> list[tuple[str, str]]:
    files = []
    for flag, value in zip(argv, argv[1:]):
        if flag in _FILE_FLAGS:
            path = Path(value)
            body = path.read_text() if path.exists() else "<absent>"
            files.append((flag, _normalize(body)))
    return files


def _recording(main):
    def recorded_main(argv=None):
        argv = list(sys.argv[1:] if argv is None else argv)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        # hand the text on, so capsys in the test still sees it
        sys.stdout.write(out.getvalue())
        sys.stderr.write(err.getvalue())
        _records.append(repr((
            [_normalize(a) for a in argv],
            code,
            _normalize(out.getvalue()),
            _normalize(err.getvalue()),
            _written_files(argv),
        )))
        return code

    return recorded_main


def pytest_configure(config):
    # patched before collection, so ``from billiards.cli import main`` in a
    # test module binds the recording wrapper
    import billiards.cli

    billiards.cli.main = _recording(billiards.cli.main)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    total = hashlib.sha256()
    for k, record in enumerate(_records):
        total.update(record.encode())
        total.update(b"\0")
        if config.option.verbose > 0:
            short = hashlib.sha256(record.encode()).hexdigest()[:12]
            terminalreporter.write_line(f"cli call {k:3d} {short} {record[:100]}")
    terminalreporter.write_line(
        f"cli digest: {len(_records)} calls, sha256 {total.hexdigest()}"
    )
