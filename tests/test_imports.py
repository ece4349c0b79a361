"""Every name a library or test module imports is used in that module, every
top-level function or class of the library is named somewhere else, and
every method or property of a library class is named as an attribute
somewhere else: in the library, the benchmark, the tests or the README.
The unchecked constructors `_of` are named nowhere but in the kernel and, for
`Element._of`, at three sanctioned library call sites; a tableau label is
built in one place only, from its row reading; and only the kernel names the
packed solve's digit format.  No library module but the package's
`__init__.py` names another module's private (`_`-prefixed) attribute."""

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
# the kernel, which builds those dicts, may call it.  `Element._of` trusts its
# caller to hand it zero-free coefficients over keys valid by construction;
# outside the kernel only these (module, function, class) sites may call it.
UNCHECKED = re.compile(r"\b_of\b")
KERNEL = pathlib.Path(qchar.__file__).parent / "laurent.py"
ELEMENT_SITES = {
    ("bases.py", "straighten", "SElement"),
    ("bases.py", "to_tensor", "TensorElement"),
    ("tensor_space.py", "bar_involution", "TensorElement"),
}


def lines_naming_the_unchecked_constructor(source: str) -> list[int]:
    return [n for n, line in enumerate(source.splitlines(), 1) if UNCHECKED.search(line)]


def call_sites(source: str, callee) -> dict[int, tuple[str, str]]:
    """Line -> (enclosing function, `callee(func)`) of every call for which
    `callee` returns a name."""
    found = {}

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and (name := callee(child.func)):
                found[child.lineno] = (function, name)
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def _unchecked_class(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute) and func.attr == "_of" and isinstance(func.value, ast.Name):
        return func.value.id
    return None


def element_sites(source: str) -> dict[int, tuple[str, str]]:
    """Line -> (enclosing function, class) of every `<Class>._of` call."""
    return call_sites(source, _unchecked_class)


def unsanctioned_lines(name: str, source: str) -> list[int]:
    """The lines naming `_of` other than the sanctioned `Element._of` sites."""
    sites = element_sites(source) if name.endswith(".py") else {}
    return [
        n
        for n in lines_naming_the_unchecked_constructor(source)
        if (name, *sites.get(n, (None, None))) not in ELEMENT_SITES
    ]


def test_only_the_kernel_names_its_unchecked_constructor():
    this = pathlib.Path(__file__).resolve()
    paths = [path for path in [*MODULES, *READERS] if path not in (KERNEL, this)]
    offenders = [
        f"{path.name}:{n}" for path in paths for n in unsanctioned_lines(path.name, path.read_text())
    ]
    assert offenders == []
    used = {
        (path.name, *site)
        for path in MODULES
        if path != KERNEL
        for site in element_sites(path.read_text()).values()
    }
    assert used == ELEMENT_SITES


def test_the_guard_sees_the_unchecked_constructor():
    source = "x = LaurentPoly._of({0: 0})\nsize_of = 1  # one of two\ny = (_of)\n"
    assert lines_naming_the_unchecked_constructor(source) == [1, 3]
    source = (
        "def straighten(x):\n    return SElement._of(x)\n\n\n"
        "def other(x):\n    return SElement._of(x)\n\n\n"
        "def to_tensor(x):\n    return SElement._of(x)  # wrong class\n"
    )
    assert unsanctioned_lines("bases.py", source) == [6, 10]
    assert unsanctioned_lines("cli.py", source) == [2, 6, 10]


# A label is built from its row reading in one place: `Tableau(...)` only in
# `tableau_from_row_reading` and `MultiTableau(...)` only in `_label`, the
# interned `multi_tableau_from_row_reading`.  Enumeration and column
# stabilizers hand around readings, not tableaux.
LABEL_SITES = {
    ("combinatorics.py", "tableau_from_row_reading", "Tableau"),
    ("combinatorics.py", "_label", "MultiTableau"),
}


def _label_class(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name) and func.id in ("Tableau", "MultiTableau"):
        return func.id
    return None


def label_sites(source: str) -> dict[int, tuple[str, str]]:
    """Line -> (enclosing function, class) of every `Tableau(...)` or
    `MultiTableau(...)` call."""
    return call_sites(source, _label_class)


def test_labels_are_built_only_from_readings():
    found = {
        (path.name, *site) for path in MODULES for site in label_sites(path.read_text()).values()
    }
    assert found == LABEL_SITES


def test_the_guard_sees_a_label_built_elsewhere():
    source = (
        "def _label(x):\n    return MultiTableau(x)\n\n\n"
        "def other(x):\n    y = MultiTableau.row_reading\n    return Tableau(*x), y\n"
    )
    assert label_sites(source) == {2: ("_label", "MultiTableau"), 7: ("other", "Tableau")}


# The digit format, the packed solve and the lattice side of the dual
# canonical basis are the kernel's: no other library module names `pack`,
# `unpack`, `antisym_solve` or `_PACK_BITS`, and the lattice is written out
# where it is used, not read from a sign constant.
PACKED_SOLVE = {"pack", "unpack", "antisym_solve", "_PACK_BITS"}
SIGN_CONSTANT = re.compile(r"\bLATTICE_SIGN\b")


def names_of_the_packed_solve(source: str) -> list[str]:
    """The kernel-only names that the module reads, binds or imports, as
    code: a word in a comment or a docstring does not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found |= {node.name, node.asname}
    return sorted(found & PACKED_SOLVE)


def test_only_the_kernel_names_the_packed_solve():
    offenders = {
        path.name: names
        for path in MODULES
        if path != KERNEL and (names := names_of_the_packed_solve(path.read_text()))
    }
    assert offenders == {}
    texts = [*(ROOT / "src").rglob("*.py"), ROOT / "README.md"]
    assert [path.name for path in texts if SIGN_CONSTANT.search(path.read_text())] == []


def test_the_guard_sees_the_packed_solve():
    source = (
        "from .laurent import antisym_solve, pack as p\n"
        "_PACK_BITS = 16\n"
        "# rows pack into one int\n"
        "x = laurent.unpack(p(1))\n"
    )
    assert names_of_the_packed_solve(source) == ["_PACK_BITS", "antisym_solve", "pack", "unpack"]
    assert names_of_the_packed_solve('"""rows pack into one int"""\npacked = 1\n') == []


# A library module reads another module through its public names only; the
# package's `__init__.py`, which lists every module's memo, is the exception.
INIT = pathlib.Path(qchar.__file__)


def foreign_private_names(source: str) -> list[str]:
    """The `_`-prefixed, non-dunder names that the module imports from
    another package module or reads as an attribute of a package module it
    imports (`from . import bases` ... `bases._name`)."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.endswith("__")
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_no_module_names_another_modules_private_attribute():
    offenders = {
        path.name: names
        for path in MODULES
        if path != INIT and (names := foreign_private_names(path.read_text()))
    }
    assert offenders == {}


def test_the_guard_sees_a_foreign_private_name():
    source = (
        "from . import bases\n"
        "from .laurent import _PACK_BITS, bar\n"
        "x = bases._blocks(bases.dcb_P, bases.__name__)\n"
        "y = self._own\n"
    )
    assert foreign_private_names(source) == ["laurent._PACK_BITS (line 2)", "bases._blocks (line 3)"]
