"""Source hygiene: every module-level import in slq is used, and slq has
one ODE integrator."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "slq"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_ode_integrator(path):
    # odecore.rk_solve integrates every system; scipy's solve_ivp is not
    # a second path.
    assert "solve_ivp" not in path.read_text()
