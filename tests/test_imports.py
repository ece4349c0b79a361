"""Every name a library or test module imports is used in that module, every
top-level function or class of the library is named somewhere else, and
every method or property of a library class is named as an attribute
somewhere else: in the library, the benchmark, the tests or the README.
The unchecked Laurent constructor `_of` is named nowhere but in the kernel."""

import ast
import pathlib
import re

import pytest

import qchar

MODULES = sorted(pathlib.Path(qchar.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
TESTS = sorted((ROOT / "tests").glob("*.py"))
READERS = [*sorted((ROOT / "perfbench").glob("*.py")), *TESTS, ROOT / "README.md"]


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that nothing else in it
    reads; a string listed in `__all__` counts as a use."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _outside(lines: list[str], node: ast.AST) -> str:
    """The module text without the definition of `node`, decorators, body
    and docstring included."""
    start = min([node.lineno, *(d.lineno for d in node.decorator_list)])
    return "\n".join(lines[: start - 1] + lines[node.end_lineno :])


def unnamed_definitions(source: str, others: list[str]) -> list[str]:
    """The top-level functions and classes of the module that no text names:
    neither the module outside the definition itself nor any of `others`."""
    lines = source.splitlines()
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        word = re.compile(rf"\b{re.escape(node.name)}\b")
        if not any(word.search(text) for text in [_outside(lines, node), *others]):
            out.append(f"{node.name} (line {node.lineno})")
    return out


def unnamed_members(source: str, others: list[str]) -> list[str]:
    """The methods and properties of the module's classes that no text names
    as an attribute `.name`: neither the module outside the member's own
    definition nor any of `others`.  Dunder methods, which Python calls by
    protocol, are exempt."""
    lines = source.splitlines()
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                continue
            attr = re.compile(rf"\.{re.escape(node.name)}\b")
            if not any(attr.search(text) for text in [_outside(lines, node), *others]):
                out.append(f"{cls.name}.{node.name} (line {node.lineno})")
    return out


@pytest.mark.parametrize("path", [*MODULES, *TESTS], ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_an_unused_import():
    source = "from functools import lru_cache, partial\nimport os.path\n__all__ = ['partial']\n"
    assert unused_imports(source) == ["lru_cache (line 1)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_named_elsewhere(path):
    others = [p.read_text() for p in [*MODULES, *READERS] if p != path]
    assert unnamed_definitions(path.read_text(), others) == []


def test_the_guard_sees_an_unnamed_definition():
    source = (
        "def used():\n    return 1\n\n\n"
        "@staticmethod\ndef lonely():\n    \"\"\"lonely\"\"\"\n    return used()\n\n\n"
        "class Named:\n    pass\n"
    )
    assert unnamed_definitions(source, ["x = Named()"]) == ["lonely (line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_member_is_named_elsewhere(path):
    others = [p.read_text() for p in [*MODULES, *READERS] if p != path]
    assert unnamed_members(path.read_text(), others) == []


def test_the_guard_sees_an_unnamed_member():
    source = (
        "class Box:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    @property\n    def size(self):\n        return self.used()\n\n"
        "    def used(self):\n        return 1\n\n"
        "    def lonely(self):\n        return self.lonely()\n"
    )
    assert unnamed_members(source, ["Box().size"]) == ["Box.lonely (line 12)"]


# `LaurentPoly._of` trusts its caller to hand it a zero-free term dict; only
# the kernel, which builds those dicts, may call it.
UNCHECKED = re.compile(r"\b_of\b")
KERNEL = pathlib.Path(qchar.__file__).parent / "laurent.py"


def lines_naming_the_unchecked_constructor(source: str) -> list[int]:
    return [n for n, line in enumerate(source.splitlines(), 1) if UNCHECKED.search(line)]


def test_only_the_kernel_names_its_unchecked_constructor():
    this = pathlib.Path(__file__).resolve()
    offenders = [
        f"{path.name}:{n}"
        for path in [*MODULES, *READERS]
        if path not in (KERNEL, this)
        for n in lines_naming_the_unchecked_constructor(path.read_text())
    ]
    assert offenders == []


def test_the_guard_sees_the_unchecked_constructor():
    source = "x = LaurentPoly._of({0: 0})\nsize_of = 1  # one of two\ny = (_of)\n"
    assert lines_naming_the_unchecked_constructor(source) == [1, 3]
