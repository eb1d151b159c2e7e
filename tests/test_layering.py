"""The package's import graph: every import at module level, no import of another module's
private name, and no module that fails when it is the first one loaded; every exported
name exists; and every module-level import has a use."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orthograd"
ROOT = PACKAGE.parent.parent

# each named module loaded first under a bare package object, so the package's own imports
# in __init__ cannot load its dependencies before it; "orthograd" itself loads as usual
FIRST_IMPORT = """
import importlib, sys, types
for name in sys.argv[2:]:
    for loaded in [m for m in sys.modules if m.partition(".")[0] == "orthograd"]:
        del sys.modules[loaded]
    if name != "orthograd":
        sys.modules["orthograd"] = types.ModuleType("orthograd")
        sys.modules["orthograd"].__path__ = [sys.argv[1]]
    importlib.import_module(name)
"""


def test_imports_are_module_level_public_and_free_of_cycles():
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if node not in tree.body:
                sites.append(f"{path.name}:{node.lineno}: import below module level")
            if isinstance(node, ast.ImportFrom) and node.level and any(
                    alias.name.startswith("_") for alias in node.names):
                sites.append(f"{path.name}:{node.lineno}: import of a private name")
    assert sites == []

    names = sorted("orthograd" if p.stem == "__init__" else f"orthograd.{p.stem}"
                   for p in PACKAGE.glob("*.py"))
    pythonpath = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", FIRST_IMPORT, str(PACKAGE), *names],
                          env=dict(os.environ, PYTHONPATH=pythonpath), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    # a stale ``__all__`` entry breaks ``from <module> import *``
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "orthograd" if path.stem == "__init__" else f"orthograd.{path.stem}")
        missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
        assert missing == [], f"{path.name}: __all__ names {missing}"


def test_every_module_level_import_is_used():
    # a name is used when the module reads it, or exports it through ``__all__``
    unused = []
    for path in sorted([*PACKAGE.glob("*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
                used |= {elt.value for elt in node.value.elts}
        for node in tree.body:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                names = [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
                unused += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                           for name in names if name != "*" and name not in used]
    assert unused == []
