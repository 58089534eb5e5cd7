"""Source hygiene: every module-level import in slq and its tests is used,
every name slq defines and every tableau attribute has a reader outside the
tests, every quasi-function class computes its own tau, slq has one ODE
integrator, and importing the CLI loads no scipy."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "slq"
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"


def unused_imports(source):
    """Names bound by a module-level import that the module never
    references and does not list in __all__."""
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names
                         if a.name != "*"]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported
            if name not in used and name not in exported]


def test_scan_flags_unused_and_keeps_used_or_exported():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from .a import b, c as d, e\n"
              "__all__ = ['e']\n"
              "x = np.pi + os.path.sep.count('/')\n")
    assert unused_imports(source) == ["math", "b", "d"]


@pytest.mark.parametrize("path",
                         sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]),
                         ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def definitions(source):
    """(name, qualified name) of every module-level function, class and
    assignment target, and every non-dunder method, in `source`.  A
    function under a decorator call (a registry such as
    `@_register(name)`) is read by its registry and is left out."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            if not any(isinstance(d, ast.Call) for d in node.decorator_list):
                yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.name
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__")
                        and item.name.endswith("__")):
                    yield item.name, f"{node.name}.{item.name}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, n.id


def loaded_names(source):
    """Every name `source` reads: Name loads and Attribute loads."""
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr


def readers():
    """Names read outside the tests: loads in src/slq and perfbench/*.py,
    the strings perfbench/tracing.py rebinds by name, and the identifiers
    inside README.md's backticks."""
    names = set()
    for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]:
        names.update(loaded_names(path.read_text()))
    tracing = ast.parse((PERFBENCH / "tracing.py").read_text())
    names.update(n.value for n in ast.walk(tracing)
                 if isinstance(n, ast.Constant) and isinstance(n.value, str))
    for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()):
        names.update(re.findall(r"[A-Za-z_]\w*", span))
    return names


def test_scan_finds_definitions_and_their_readers():
    source = ("X, _y = 1, 2\n"
              "z: int = 3\n"
              "@_register('k')\ndef built(): pass\n"
              "@functools.cache\ndef cached(): pass\n"
              "class C:\n    def __init__(self): pass\n"
              "    def m(self): return self.n\n")
    assert list(definitions(source)) == [
        ("X", "X"), ("_y", "_y"), ("z", "z"), ("cached", "cached"),
        ("C", "C"), ("m", "C.m")]
    assert set(loaded_names(source)) == {"_register", "functools", "cache",
                                         "int", "self", "n"}


def test_every_definition_has_a_reader():
    read = readers()
    unread = [f"{path.name}:{qualified}"
              for path in sorted(SRC.glob("*.py"))
              for name, qualified in definitions(path.read_text())
              if name not in read]
    assert unread == []


def test_every_tableau_attribute_has_a_reader():
    # A tableau array that no solve reads is dead data, as a module-level
    # name without a reader is: each class attribute of the two tableaux
    # is loaded somewhere in slq outside tableaux.py.
    from slq import tableaux
    read = {name for path in SRC.glob("*.py") if path.name != "tableaux.py"
            for name in loaded_names(path.read_text())}
    attrs = [f"{cls.__name__}.{name}"
             for cls in (tableaux.RK45, tableaux.DOP853)
             for name in vars(cls) if not name.startswith("__")]
    assert {"RK45.P", "DOP853.E5"} <= set(attrs)
    assert [a for a in attrs if a.split(".")[1] not in read] == []


def test_every_quasi_function_class_computes_its_own_tau():
    # tau is part of the QuasiFn protocol, with no fallback: every concrete
    # function class in slq (one with no subclass of its own) resolves tau
    # to a method below QuasiFn's, which only raises.
    from slq.functions import QuasiFn
    for path in SRC.glob("*.py"):
        importlib.import_module(f"slq.{path.stem}")
    classes, todo = [], [QuasiFn]
    while todo:
        subs = [c for c in todo.pop().__subclasses__()
                if c.__module__.startswith("slq.")]
        classes += subs
        todo += subs
    leaves = [c for c in classes if not c.__subclasses__()]
    assert {f"{c.__module__}.{c.__qualname__}" for c in leaves} == {
        "slq.bvalues.BlendedFn", "slq.functions.BumpFn",
        "slq.functions.ExprFunction", "slq.functions.LinearCombination",
        "slq.odecore.ScaledSolution", "slq.solutions.ReductionSolution",
        "slq.solutions.ScalarMultiple"}
    assert [c.__qualname__ for c in leaves if c.tau is QuasiFn.tau] == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_ode_integrator(path):
    # odecore.rk_solve integrates every system; scipy's solve_ivp is not
    # a second path.
    assert "solve_ivp" not in path.read_text()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_scipy_import(path):
    # slq's own QUADPACK, Brent and tableaux stand in for scipy's; scipy is
    # a test dependency only.
    modules = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.append(node.module)
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_cli_import_loads_no_scipy():
    # A fresh interpreter: this test session has imported scipy itself.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, slq.cli; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
