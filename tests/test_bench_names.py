"""The library names that the benchmark wraps and calls still resolve.

``perfbench/tracer.py`` wraps each ``(module, attribute)`` of its
``TARGETS`` in a traced run, and ``perfbench/workloads.py`` calls
``bl.<name>`` and ``billiards.<module>.<name>``. A deleted or renamed name
fails there only when the benchmark runs, with an ``AttributeError``. These
tests read both files without running them: the tracer module is loaded but
installs nothing, and the workloads are parsed, not imported.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path
from types import ModuleType

import billiards

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_targets() -> list[tuple]:
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracer", PERFBENCH / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def _target_resolves(module_name: str, attr: str) -> bool:
    """Whether ``Tracer.install`` finds ``attr``: a module attribute, or a
    ``Class.method`` in the class ``__dict__``."""
    module = importlib.import_module(module_name)
    if "." not in attr:
        return callable(getattr(module, attr, None))
    cls_name, method = attr.split(".")
    cls = getattr(module, cls_name, None)
    return isinstance(cls, type) and callable(vars(cls).get(method))


def test_every_traced_target_resolves():
    targets = _tracer_targets()
    assert len(targets) > 20
    missing = [
        f"{module}:{attr}"
        for _, module, attr, _ in targets
        if not _target_resolves(module, attr)
    ]
    assert missing == []


def _library_chains(path: Path) -> set[tuple[str, ...]]:
    """Every dotted name in ``path`` that starts at a name bound to the
    ``billiards`` package, as ``("billiards", name, ...)``."""
    tree = ast.parse(path.read_text())
    roots = {
        alias.asname or "billiards"
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] == "billiards"
    }
    chains = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id in roots:
            chains.add(("billiards", *reversed(names)))
    return chains


def _chain_resolves(chain: tuple[str, ...]) -> bool:
    obj = billiards
    for name in chain[1:]:
        if isinstance(obj, ModuleType) and not hasattr(obj, name):
            try:
                importlib.import_module(f"{obj.__name__}.{name}")
            except ImportError:
                return False
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_every_library_name_the_workloads_read_resolves():
    chains = _library_chains(PERFBENCH / "workloads.py")
    assert ("billiards", "simulate") in chains
    assert ("billiards", "tables", "build") in chains
    assert [".".join(c) for c in sorted(chains) if not _chain_resolves(c)] == []
