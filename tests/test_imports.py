"""No module of the package imports a name it never uses, none defines
a function, class or constant that nothing names, and no class has a
public method that nothing reads. The toolchain has no linter, so these
tests stand in for those checks."""

import ast
import importlib
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


# Every public method and property of a class of the package must be
# read as an attribute (".name") somewhere in the package, the tests or
# the benchmark outside its own definition, unless it overrides a method
# of a base class, which its callers reach through the base.
SOURCES = [p for p in CORPUS if p.suffix == ".py"]
ATTRIBUTE = re.compile(r"\.(\w+)")


def methods(source):
    """The public methods and properties of the classes a module defines
    at its top level, each as (class, name, text of its definition with
    decorators), in source order."""
    lines = source.splitlines()
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    out.append((node.name, item.name, "\n".join(lines[first - 1 : item.end_lineno])))
    return out


def orphaned_methods(source, attributes, overrides):
    """The methods of source, as "class.name", read as an attribute
    nowhere but in their own definitions and overriding nothing;
    attributes counts the attribute names read in every text searched,
    source included, and overrides(class, name) says whether the method
    overrides one of a base class."""
    return [
        f"{cls}.{name}"
        for cls, name, span in methods(source)
        if attributes[name] == ATTRIBUTE.findall(span).count(name) and not overrides(cls, name)
    ]


def test_guard_finds_an_orphaned_method():
    source = (
        "class A(Base):\n"
        "    @property\n"
        "    def read(self):\n"
        "        return 1\n\n"
        "    def orphan(self):\n"
        "        return self.orphan()\n\n"
        "    def inherited(self):\n"
        "        pass\n\n"
        "    def _private(self):\n"
        "        pass\n\n\n"
        "x = A().read\n"
    )
    attributes = Counter(ATTRIBUTE.findall(source))
    assert orphaned_methods(source, attributes, lambda cls, name: name == "inherited") == ["A.orphan"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_method_is_read_elsewhere(module):
    mod = importlib.import_module("lgplucker" if module == "__init__.py" else f"lgplucker.{module[:-3]}")

    def overrides(cls, name):
        return any(hasattr(base, name) for base in getattr(mod, cls).__mro__[1:])

    attributes = Counter(ATTRIBUTE.findall("\n".join(p.read_text(encoding="utf-8") for p in SOURCES)))
    assert orphaned_methods((PACKAGE / module).read_text(encoding="utf-8"), attributes, overrides) == []


def test_all_lists_exactly_the_imported_names():
    # a name dropped from a module must leave __all__ too, and a name
    # imported into the package must be listed there
    import lgplucker

    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}
    assert sorted(lgplucker.__all__) == sorted(imported)
    assert len(lgplucker.__all__) == len(set(lgplucker.__all__))
