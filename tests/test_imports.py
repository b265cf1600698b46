"""Every module-level import and private name in the package is used by
its module, every public name is read outside the tests, and the codec runs
without importing scipy."""

import ast
import json
from collections import Counter
from pathlib import Path

import pytest

import octpcc
from conftest import run_python
from octpcc import ContextModel, ModelConfig, synth, write_ply

MODULES = sorted(p for p in Path(octpcc.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
REPO = Path(__file__).resolve().parents[1]


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


def unused_private_names(source: str) -> list:
    """Module-level `_name` functions, classes and constants that the module
    itself never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    loaded = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__")
                  and name not in loaded)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []


def test_guard_sees_an_unused_private_name():
    source = ("_A = 1\n_B: int = 2\n__all__ = []\nC = _A\n"
              "def _f():\n    return _g\n"
              "def _g():\n    pass\nclass _K:\n    pass\n")
    assert unused_private_names(source) == ["_B (line 2)", "_K (line 9)",
                                            "_f (line 5)"]


def public_definitions(tree):
    """(name, node) of each public module-level function, class and
    constant, and of each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names = [node.name]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield from ((m.name, m) for m in node.body
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not m.name.startswith("_"))
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def read_names(tree) -> Counter:
    """Reads of each name in a tree: loaded names, attributes and import
    aliases."""
    reads = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            reads[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            reads[n.attr] += 1
        elif isinstance(n, ast.alias):
            reads[n.name.split(".")[-1]] += 1
    return reads


def unread_public_names(modules: dict, readers: list) -> list:
    """Public definitions of `modules` (name -> source) that no source of
    `readers` reads outside the definition itself."""
    reads = sum((read_names(ast.parse(source)) for source in readers), Counter())
    return sorted(f"{module}.{name} (line {node.lineno})"
                  for module, source in modules.items()
                  for name, node in public_definitions(ast.parse(source))
                  if reads[name] <= read_names(node)[name])


def test_every_public_name_is_read_outside_the_tests():
    """A public name that only tests reach is a production path that exists
    for a test."""
    readers = (MODULES + sorted(REPO.glob("perfbench/*.py"))
               + sorted(REPO.glob("demos/*.py")))
    assert unread_public_names({p.stem: p.read_text() for p in MODULES},
                               [p.read_text() for p in readers]) == []


def test_guard_sees_an_unread_public_name():
    module = ("A = 1\nB: int = A\n_C = 3\ndef f():\n    return f()\n"
              "class K:\n    N = 2\n    def run(self):\n        pass\n"
              "    def _p(self):\n        pass\n    def used(self):\n"
              "        pass\n")
    reader = "from m import B as b\nK().used()\n"
    assert unread_public_names({"m": module}, [module, reader]) == [
        "m.f (line 4)", "m.run (line 8)"]


SCIPY_PROBE = """
import json, sys
def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import octpcc
after_import = scipy_loaded()
from octpcc.cli import main
codes = [main(["encode", "--input", "cloud.ply", "--checkpoint", "m.ckpt",
               "--depth", "4", "--out", "cloud.bin"]),
         main(["decode", "--bitstream", "cloud.bin", "--checkpoint", "m.ckpt",
               "--out", "back.ply"])]
print(json.dumps([after_import, codes, scipy_loaded()]))
"""


def test_codec_leaves_scipy_unloaded(tmp_path):
    """Only the distortion metrics need scipy; importing octpcc, encoding
    and decoding never load it."""
    write_ply(tmp_path / "cloud.ply", synth("plane", 300, seed=1))
    ContextModel.create(ModelConfig.tiny(seed=1)).save(tmp_path / "m.ckpt")
    proc = run_python(["-c", SCIPY_PROBE], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    after_import, codes, after_codec = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert after_import == after_codec == []
