"""Print the size of the library, so a change can state what it adds or
removes.

Run from the repository root::

    python tools/size_report.py

It prints the line count of each module of ``src/billiards`` and their
total; the number of parameters with a default (``len(args.defaults)`` plus
the non-``None`` ``kw_defaults`` of every function and lambda in those
modules); the number of fields of ``billiards.config.Tolerances``; and
``len(billiards.__all__)``.
"""

from __future__ import annotations

import ast
import dataclasses
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def count_defaults(tree: ast.AST) -> int:
    total = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            total += len(node.args.defaults)
            total += sum(d is not None for d in node.args.kw_defaults)
    return total


def main() -> None:
    sys.path.insert(0, str(SRC))
    import billiards
    from billiards.config import Tolerances

    lines = 0
    defaults = 0
    for path in sorted((SRC / "billiards").glob("*.py")):
        text = path.read_text()
        count = len(text.splitlines())
        print(f"{count:6d}  {path.relative_to(SRC)}")
        lines += count
        defaults += count_defaults(ast.parse(text))
    print(f"{lines:6d}  total lines")
    print(f"{defaults:6d}  parameters with a default")
    print(f"{len(dataclasses.fields(Tolerances)):6d}  Tolerances fields")
    print(f"{len(billiards.__all__):6d}  names in billiards.__all__")


if __name__ == "__main__":
    main()
