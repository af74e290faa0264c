"""Checks on the package, test and benchmark sources themselves."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py")])
PACKAGE_AND_TESTS = sorted([*ROOT.glob("src/forestseg/*.py"), *ROOT.glob("tests/*.py")])


def hidden_definitions(source: str) -> list[str]:
    """Each function or class that a module or class body of ``source`` defines again, hiding the first."""
    found = []
    bodies = [ast.parse(source)]
    while bodies:
        first_line: dict[str, int] = {}
        for node in bodies.pop().body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(node, ast.ClassDef):
                bodies.append(node)
            if node.name in first_line:
                found.append(f"{node.name} at lines {first_line[node.name]} and {node.lineno}")
            first_line.setdefault(node.name, node.lineno)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[str(path.relative_to(ROOT)) for path in SOURCES])
def test_no_definition_hides_another(path):
    # pytest collects only the last of two test classes or functions of one name, so the first never runs.
    assert hidden_definitions(path.read_text()) == []


def test_hidden_definitions_are_found():
    source = "class A:\n    def f(self): ...\n    def f(self): ...\nclass A: ...\ndef g(): ...\n"
    assert sorted(hidden_definitions(source)) == ["A at lines 1 and 4", "f at lines 2 and 3"]


def unused_imports(source: str) -> list[str]:
    """Each name that ``source`` imports and never names again, except on a line marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]  # ``import a.b`` binds ``a``
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    found.append(f"{name} at line {alias.lineno}")
    return found


@pytest.mark.parametrize("path", PACKAGE_AND_TESTS, ids=[str(path.relative_to(ROOT)) for path in PACKAGE_AND_TESTS])
def test_no_unused_import(path):
    # An import left behind when its last use moves hides where a name is really used.
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "import numpy.typing\n"
              "from math import (\n    inf,\n    pi,  # noqa: F401\n    tau as full_turn,\n)\n"
              "def f(x: numpy.typing.ArrayLike):\n    return osp.join(x, str(inf))\n")
    assert unused_imports(source) == ["os at line 2", "full_turn at line 7"]
