"""The benchmark in ``perfbench/`` still fits tomolab.

``perfbench/tracer.py`` wraps the functions listed in its ``TARGETS`` and
``perfbench/child.py`` imports names from ``tomolab``.  A deletion that
breaks either would otherwise first show when the traced benchmark runs.
The traced run also fails when a span group that a workload declares in
``perfbench/run.py`` as firing stays silent, or a silent one fires; each
workload runs here once, shrunk, under the tracer, to catch that early.
The files under ``perfbench/`` are only read: the tracer's source is
executed into a fresh module, the child is parsed with ``ast``, and the
shrunk workloads run in interpreters that write no bytecode.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


# Runs one workload of perfbench/run.py, shrunk, through run.py's own traced
# driver run (a perfbench/child.py process under perfbench/tracer.py's
# Tracer), then applies run.py's span checks to it.
_SPAN_SCRIPT = """
import dataclasses, json, sys
from pathlib import Path
perfbench, name, work = sys.argv[1:]
sys.path.insert(0, perfbench)
import run

wl = run.WORKLOADS[name]
wl = dataclasses.replace(wl, n=min(wl.n, 300), trials=1, calls=1)
cfg = wl.config(0)
for section in ("correlations", "sim"):
    if "n_max" in cfg.get(section, {}):
        cfg[section].update(n_max=500, burn_in=50)
(Path(work) / "config.json").write_text(json.dumps(cfg))
traced = run.driver_run(wl, Path(work), 0, traced=True)
assert not traced.problems, traced.problems
run.trace_checks(wl, [traced])
"""


@pytest.mark.parametrize(
    "workload",
    [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]],
)
def test_traced_workload_keeps_its_span_contract(workload, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "TOMOLAB_THREADS"}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SPAN_SCRIPT, str(PERFBENCH), workload, str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
