"""The names that the benchmark in ``perfbench/`` reaches in tomolab exist.

``perfbench/tracer.py`` wraps the functions listed in its ``TARGETS`` and
``perfbench/child.py`` imports names from ``tomolab``.  A deletion that
breaks either would otherwise first show when the traced benchmark runs.
Both files are only read here: the tracer's source is executed into a
fresh module, so no bytecode is written next to it, and the child is
parsed with ``ast``.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    path = PERFBENCH / "tracer.py"
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader("tracer", None))
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _lookup(module: str, path: str):
    owner = importlib.import_module(module)
    for part in path.split("."):
        if inspect.ismodule(owner) and not hasattr(owner, part):
            # a submodule that the package does not import itself
            owner = importlib.import_module(f"{owner.__name__}.{part}")
        else:
            owner = getattr(owner, part)
    return owner


def test_traced_targets_resolve():
    targets = _load_tracer().TARGETS
    assert targets
    for module, path, _, steps_arg in targets:
        fn = _lookup(f"tomolab.{module}", path)
        assert callable(fn), f"tomolab.{module}.{path}"
        if steps_arg:
            assert steps_arg in inspect.signature(fn).parameters, f"tomolab.{module}.{path}"


def test_child_imports_exist():
    tree = ast.parse((PERFBENCH / "child.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tomolab"
        for alias in node.names
    }
    assert "CRule" in imported
    # the attributes read off an imported name, such as CRule.loglog, too
    used = [
        f"{imported[node.value.id]}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in imported
    ]
    assert "tomolab.CRule.loglog" in used
    for name in [*imported.values(), *used]:
        module, _, path = name.partition(".")
        _lookup(module, path)
