"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

import pytest

import octpcc

MODULES = sorted(p for p in Path(octpcc.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _annotations(tree):
    for n in ast.walk(tree):
        if isinstance(n, ast.arg):
            yield n.annotation
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield n.returns
        elif isinstance(n, ast.AnnAssign):
            yield n.annotation


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for n in ast.walk(annotation):  # a string annotation: "KVCache"
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used.update(m.id for m in ast.walk(ast.parse(n.value, mode="eval"))
                            if isinstance(m, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_an_unused_import():
    source = ("import os\nfrom x import a, b as c, d\n"
              "def f(v: 'd') -> None:\n    print(a)\n")
    assert unused_imports(source) == ["c (line 2)", "os (line 1)"]
