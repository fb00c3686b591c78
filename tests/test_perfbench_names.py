"""Every pdm_polar name the benchmark in ``perfbench/`` reaches still resolves.

The tracer wraps its tables of functions with a bare ``getattr``, and the
workloads call module attributes directly, so a deleted or renamed name
would fail every traced benchmark run.  These tests read the benchmark's
files without changing them: the tracer's tables from the module loaded
under a private name, the workloads' calls from their syntax trees.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_aliases(tree) -> dict:
    """Local names bound to a pdm_polar module: imports, and assignments of
    those names to other names or to attributes (``self.md = md``)."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname and name.name.split(".")[0] == "pdm_polar":
                    aliases[name.asname] = name.name
                elif name.name.split(".")[0] == "pdm_polar":
                    aliases["pdm_polar"] = "pdm_polar"
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            pairs = [(node.targets[0], node.value)]
            if isinstance(node.value, ast.Tuple) and isinstance(node.targets[0], ast.Tuple):
                pairs = list(zip(node.targets[0].elts, node.value.elts))
            for target, value in pairs:
                if isinstance(value, ast.Name) and value.id in aliases:
                    key = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                    if key is not None:
                        aliases[key] = aliases[value.id]
    return aliases


def _module_of(node, aliases):
    """The pdm_polar module an expression names, or None: ``md``,
    ``self.md`` or a dotted ``pdm_polar.cli``."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return aliases.get(node.attr)
        parent = _module_of(node.value, aliases)
        if (parent is not None and hasattr(importlib.import_module(parent), "__path__")
                and importlib.util.find_spec(f"{parent}.{node.attr}") is not None):
            return f"{parent}.{node.attr}"
    return None


def _reached_names():
    """(file, module, attribute) of every pdm_polar attribute that a
    perfbench file imports by name or reads off a module."""
    reached = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = _package_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pdm_polar":
                reached.update((path.name, node.module, name.name) for name in node.names)
            elif isinstance(node, ast.Attribute) and _module_of(node, aliases) is None:
                module = _module_of(node.value, aliases)
                if module is not None:
                    reached.add((path.name, module, node.attr))
    return sorted(reached)


def test_tracer_tables_resolve():
    tracer = _tracer()
    for module_name, attr, _ in tracer.SPANNED:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
    for module_name, attr in tracer.COUNTED:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
    for module_name, cls_name, attr in tracer.COUNTED_METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert attr in cls.__dict__, (module_name, cls_name, attr)


def test_workload_calls_resolve():
    reached = _reached_names()
    # the scan covers the calls the workloads and the accuracy table make
    assert {("workloads.py", "pdm_polar.models", "verify_coulomb"),
            ("workloads.py", "pdm_polar.models", "heun_regime_scan"),
            ("workloads.py", "pdm_polar.separation", "load_model"),
            ("workloads.py", "pdm_polar", "bessel_j"),
            ("layers.py", "pdm_polar.eigensolve", "refine"),
            ("cli_shim.py", "pdm_polar.cli", "main")} <= set(reached)
    missing = [(f, m, a) for f, m, a in reached if not hasattr(importlib.import_module(m), a)]
    assert not missing

