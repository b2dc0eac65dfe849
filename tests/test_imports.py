"""No module of the package imports a name it never uses, and none
defines a function, class or constant that nothing names. The toolchain
has no linter, so these tests stand in for those two checks."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lgplucker"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names a module binds by import and never reads, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_guard_finds_an_unused_name():
    source = "from functools import lru_cache\nfrom typing import List, NamedTuple\nx: List[int] = []\n"
    assert unused_imports(source) == ["lru_cache", "NamedTuple"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


# Every module-level function, class and constant of the package must be
# named somewhere outside its own definition, in the package, the tests,
# the benchmark or the README, so that a helper left without a caller
# cannot stay.
ROOT = PACKAGE.parents[1]
CORPUS = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "tests").rglob("*.py")),
    *sorted((ROOT / "perfbench").rglob("*.py")),
    ROOT / "README.md",
]
WORD = re.compile(r"\w+")


def definitions(source):
    """The functions, classes and constants a module binds at its top
    level, dunder names aside, each with the text of its definition
    (decorators included), in source order."""
    lines = source.splitlines()
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first, names = min([node.lineno] + [d.lineno for d in node.decorator_list]), [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            first, names = node.lineno, [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]
        else:
            continue
        span = "\n".join(lines[first - 1 : node.end_lineno])
        out += [(name, span) for name in names]
    return out


def unnamed_definitions(source, words):
    """The names source defines that occur nowhere but in their own
    definitions; words counts the words of every text searched, source
    included."""
    return [name for name, span in definitions(source) if words[name] == WORD.findall(span).count(name)]


def test_guard_finds_an_orphaned_helper():
    source = "import os\n\n@staticmethod\ndef used():\n    pass\n\n\ndef orphan():\n    return orphan()\n\n\nX: int = used()\n__all__ = []\n"
    assert unnamed_definitions(source, Counter(WORD.findall(source))) == ["orphan", "X"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_definition_is_named_elsewhere(module):
    words = Counter(WORD.findall("\n".join(p.read_text(encoding="utf-8") for p in CORPUS)))
    assert unnamed_definitions((PACKAGE / module).read_text(encoding="utf-8"), words) == []


def test_all_lists_exactly_the_imported_names():
    # a name dropped from a module must leave __all__ too, and a name
    # imported into the package must be listed there
    import lgplucker

    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}
    assert sorted(lgplucker.__all__) == sorted(imported)
    assert len(lgplucker.__all__) == len(set(lgplucker.__all__))
