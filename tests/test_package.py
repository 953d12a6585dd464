import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import matgauss

MODULES = sorted(m.name for m in pkgutil.iter_modules(matgauss.__path__, "matgauss."))

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def _resolves(module: str, name: str | None) -> bool:
    """Whether ``import module`` (name None) or ``from module import name`` works."""
    try:
        mod = importlib.import_module(module)
        return name is None or hasattr(mod, name) or bool(importlib.import_module(f"{module}.{name}"))
    except ImportError:
        return False


def _module_bindings(tree) -> dict:
    """Names the script binds to a matgauss module, mapped to that module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "matgauss":
                    bound[alias.asname or "matgauss"] = alias.name if alias.asname else "matgauss"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "matgauss":
            for alias in node.names:
                sub = f"{node.module}.{alias.name}"
                if _resolves(sub, None):
                    bound[alias.asname or alias.name] = sub
    return bound


@pytest.mark.parametrize("script", ["workloads.py", "worker.py"])
def test_benchmark_imports_from_matgauss_resolve(script):
    # the benchmark imports these at run time, so a name deleted from the
    # package fails its runs while every other test here still passes;
    # ``matgauss.make_field`` after ``import matgauss`` counts as an import
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    bound = _module_bindings(tree)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "matgauss"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "matgauss":
            names += [(node.module, alias.name) for alias in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in bound):
            names.append((bound[node.value.id], node.attr))
    assert names
    assert [(module, name) for module, name in names if not _resolves(module, name)] == []


def test_benchmark_attribute_reads_are_checked():
    # worker.py's set-up reads these off ``import matgauss``, not by ``from``
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    bound = _module_bindings(tree)
    reads = {(bound[n.value.id], n.attr) for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in bound}
    assert {("matgauss", "make_field"), ("matgauss", "build_mult_table"),
            ("matgauss", "value_ring"), ("matgauss.cli", "main")} <= reads
