import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matgauss


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def _bound_callables(tree) -> dict:
    """Names the script binds to a matgauss function or class, mapped to it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "matgauss":
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name, None)
                if callable(obj):
                    bound[alias.asname or alias.name] = obj
    return bound


@pytest.mark.parametrize("script", ["workloads.py", "worker.py"])
def test_benchmark_calls_bind_to_current_signatures(script):
    # a parameter the benchmark passes and the package has dropped fails every
    # benchmark run while every other test here still passes; so each call to
    # a matgauss name must bind to its callee's signature as it is now
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    modules = _module_bindings(tree)
    names = _bound_callables(tree)
    checked, unbound = 0, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            fn = names.get(func.id)
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in modules):
            fn = getattr(importlib.import_module(modules[func.value.id]), func.attr, None)
        else:
            continue
        if (fn is None or any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            continue
        try:
            inspect.signature(fn).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as err:
            unbound.append(f"line {node.lineno}: {ast.unparse(func)}: {err}")
        checked += 1
    assert checked
    assert unbound == []


def test_benchmark_rounds_evaluate_and_pass_their_checks(monkeypatch):
    # the signature checks above cannot see a set-up value the package now
    # rejects (say, a mult table ``MultiplicativeCharacter`` refuses), which
    # fails every benchmark run; so one smoke round of each workload runs here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    mix = importlib.import_module("mix")
    worker = importlib.import_module("worker")
    workloads = importlib.import_module("workloads")
    for name in mix.WORKLOADS:
        fields, tables, _rings, _empty, _timing = worker.setup(mix.fields(name, smoke=True))
        reqs = workloads.Workload(name, 1, fields, tables, smoke=True).next_round()
        checker = workloads.Checker()
        assert reqs
        assert [checker(req, workloads.evaluate(req)) for req in reqs] == [None] * len(reqs), name
        workloads.reset_caches(fields.values())


def _unused_imports(tree) -> list[str]:
    """Names a module imports and never reads.  An annotation is a read, a
    string one too, and so is a name the module lists in ``__all__``."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for part in (n for a in annotations if a is not None for n in ast.walk(a)):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                read.update(n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [name for name in imported if name not in read]


def test_unused_import_guard_sees_its_cases():
    tree = ast.parse("import os, os.path as osp\nfrom json import dumps, loads\n"
                     "from x import Y\n__all__ = ['loads']\ndef f(a: 'Y') -> None: pass\n")
    assert _unused_imports(tree) == ["os", "osp", "dumps"]


@pytest.mark.parametrize("path", sorted(p.name for p in Path(matgauss.__file__).parent.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    source = (Path(matgauss.__file__).parent / path).read_text(encoding="utf-8")
    assert _unused_imports(ast.parse(source)) == []


# modules that cost most of a cold import when any of them is loaded
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def test_cli_import_loads_no_heavy_module():
    # a fresh interpreter, since this one holds them all; compared with what
    # it holds at start-up, as ``site`` may load some of them (a .pth file)
    probe = ("import sys\nbase = set(sys.modules)\nimport matgauss.cli\n"
             f"print(sorted(set({HEAVY_MODULES!r}) & set(sys.modules) - base))")
    src = str(Path(matgauss.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
