"""Checks on the test and benchmark sources themselves."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py")])


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
