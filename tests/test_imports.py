"""Every name imported into a qotlab module, a test module, a benchmark
module or a tool script is read there; every qotlab definition, method
and `qotlab.qsim` re-export is used outside the tests; every parameter a
qotlab function gives a default is passed outside the tests; and no qotlab
module builds an object around its constructor. The benchmark files are
only read, never changed."""

import ast
from pathlib import Path
from typing import Optional

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qotlab"
MODULES = (
    sorted(SRC.rglob("*.py"))
    + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "bench").rglob("*.py"))
    + sorted((ROOT / "tools").glob("*.py"))
)

# the future import, and the per-state samplers, the plain run and the
# mixed-state fidelity that bench/tracing.py wraps under these module names
# although the modules themselves never call them
ALLOWED = {"annotations"}
ALLOWED_IN = {
    "rot.py": {"measure_projective", "measure_povm"},
    "bitcommit.py": {"measure_projective", "run_rot"},
    "attacks.py": {"fidelity"},
}


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and neither read nor listed in __all__; a
    name that is only bound again, such as a class field, is not read."""
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported.append(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from .rot import HONEST, USD\nimport numpy as np\nprint(USD)\n")
    assert unused_imports(tree) == ["HONEST", "np"]


def test_a_class_field_of_the_same_name_is_not_a_use():
    tree = ast.parse(
        "from .qsim import fidelity\nclass Report:\n    fidelity: float\n    rate = 0.5\n"
    )
    assert unused_imports(tree) == ["fidelity"]


def _traced() -> set[tuple[str, str]]:
    """The (module, attribute) pairs that SPANS in bench/tracing.py wraps,
    read from its source."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    spans = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets)
    )
    return {(module, attr) for module, attr, _ in ast.literal_eval(spans)}


def test_every_allowed_import_is_one_the_tracer_wraps():
    """An allowlisted name stays only while bench/tracing.py looks it up in
    that module; once its span goes, so does the exception."""
    traced = _traced()
    for path, names in ALLOWED_IN.items():
        module = "qotlab." + path.removesuffix(".py").replace("/", ".")
        for name in names:
            assert (module, name) in traced, f"{path} allows {name}, which no span wraps there"


def _name(path: Path) -> str:
    """A module's path below src/qotlab, or below the root for a test,
    benchmark or tool module."""
    return str(path.relative_to(SRC if path.is_relative_to(SRC) else ROOT))


@pytest.mark.parametrize("path", MODULES, ids=_name)
def test_no_unused_import(path):
    allowed = ALLOWED | ALLOWED_IN.get(_name(path), set())
    unused = [n for n in unused_imports(ast.parse(path.read_text())) if n not in allowed]
    assert unused == [], f"{_name(path)} imports {unused} and never uses them"


def top_level_definitions(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level by def, class or
    assignment, but not `__all__`, which the import system reads."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names - {"__all__"}


def reads(tree: ast.Module) -> set[str]:
    """The names a module reads: loaded names, attribute names and whole
    string constants, such as the tracer's SPANS, but not the strings of an
    `__all__`, which lists a name without reading it."""
    listed = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
        for node in ast.walk(stmt.value)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in listed:
                found.add(node.value)
    return found


def test_the_check_sees_an_unread_definition():
    tree = ast.parse(
        "__all__ = ['dead', 'used']\n"
        "LIMIT = 3\n"
        "def used():\n    return LIMIT\n"
        "def dead():\n    'calls used'\n"
        "def spanned():\n    pass\n"
        "class Kept:\n    pass\n"
        "SPANS = (('mod', 'spanned'),)\n"
        "print(used(), mod.Kept)\n"
    )
    assert top_level_definitions(tree) == {"LIMIT", "used", "dead", "spanned", "Kept", "SPANS"}
    assert top_level_definitions(tree) - reads(tree) == {"dead", "SPANS"}


# the one qotlab definition that nothing under src/, bench/ or tools/ reads:
# the package version
UNREAD_ALLOWED = {("__init__.py", "__version__")}

NON_TEST_MODULES = [path for path in MODULES if not path.is_relative_to(ROOT / "tests")]


def _read_outside_the_tests() -> set[str]:
    read = set()
    for path in NON_TEST_MODULES:
        read |= reads(ast.parse(path.read_text()))
    return read


def test_every_definition_is_read_outside_the_tests():
    """A top-level qotlab name that no file under src/, bench/ or tools/
    reads is dead or test-only. `UNREAD_ALLOWED` pins the ones that stay, so
    a new one fails here, and so does a pinned one that is read again."""
    read = _read_outside_the_tests()
    unread = {
        (_name(path), name)
        for path in sorted(SRC.rglob("*.py"))
        for name in top_level_definitions(ast.parse(path.read_text()))
        if name not in read
    }
    assert unread == UNREAD_ALLOWED


def methods(tree: ast.Module) -> set[tuple[str, str]]:
    """The (class, function) pairs of every function a class in the module
    defines, properties and classmethods included, but not the dunders,
    which Python calls by itself."""
    return {
        (node.name, item.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
    }


def test_the_check_sees_an_unread_method():
    tree = ast.parse(
        "class Record:\n"
        "    def __post_init__(self):\n        pass\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    @classmethod\n    def dead(cls):\n        return cls()\n"
        "    def spanned(self):\n        pass\n"
        "SPANS = (('Record', 'spanned'),)\n"
        "print(Record().size)\n"
    )
    assert methods(tree) == {("Record", "size"), ("Record", "dead"), ("Record", "spanned")}
    assert {m for m in methods(tree) if m[1] not in reads(tree)} == {("Record", "dead")}


def test_every_method_is_read_outside_the_tests():
    """A qotlab method, property or classmethod whose name no file under
    src/, bench/ or tools/ reads is dead or test-only."""
    read = _read_outside_the_tests()
    unread = {
        (_name(path), f"{cls}.{name}")
        for path in sorted(SRC.rglob("*.py"))
        for cls, name in methods(ast.parse(path.read_text()))
        if name not in read
    }
    assert unread == set()


def package_imports(tree: ast.Module) -> set[str]:
    """The names a module takes from the qotlab.qsim package itself rather
    than from one of its submodules: `from .qsim import x`, `from
    qotlab.qsim import x` and `qsim.x`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.module == "qotlab.qsim" or (node.level == 1 and node.module == "qsim")
        ):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and ast.unparse(node.value) in ("qsim", "qotlab.qsim"):
            found.add(node.attr)
    return found


def test_the_check_sees_an_unimported_reexport():
    tree = ast.parse(
        "from .qsim import RngStream\n"
        "from qotlab.qsim import fidelity\n"
        "from qotlab.qsim.states import StateVector\n"
        "from .rot import HONEST\n"
        "import qotlab.qsim\n"
        "from qotlab import qsim\n"
        "print(qsim.perp, qotlab.qsim.bell_state, rot.born_table)\n"
    )
    assert package_imports(tree) == {"RngStream", "fidelity", "perp", "bell_state"}


def test_every_reexport_is_imported_through_the_package():
    """Each name qotlab.qsim re-exports is imported through the package by
    some file under src/, bench/ or tools/; a name only the tests use is
    imported from its submodule instead."""
    init = SRC / "qsim" / "__init__.py"
    exported = next(
        ast.literal_eval(node.value)
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )
    imported = set()
    for path in NON_TEST_MODULES:
        imported |= package_imports(ast.parse(path.read_text()))
    assert set(exported) - imported == set()


# the one object built around its constructor: a substream binds its parent's
# checked seed and path through _bind instead of checking them again
BYPASS_ALLOWED = {("qsim/rng.py", "RngStream.substream")}


def constructor_bypasses(tree: ast.Module) -> list[str]:
    """The qualified name of the function around each `object.__new__` call
    and each `<x>.__dict__.update` call ("<module>" at module level)."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call):
                called = ast.unparse(child.func)
                if called == "object.__new__" or called.endswith(".__dict__.update"):
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, ())
    return found


@pytest.mark.parametrize(
    "source, want",
    [
        (
            "def _unchecked(cls, **fields):\n"
            "    record = object.__new__(cls)\n"
            "    record.__dict__.update(fields)\n"
            "    return record\n",
            ["_unchecked", "_unchecked"],
        ),
        (
            "class Record:\n"
            "    def copy(self):\n"
            "        return [object.__new__(Record) for _ in range(2)]\n",
            ["Record.copy"],
        ),
        (
            "def outer():\n"
            "    def inner(record, fields):\n"
            "        record.__dict__.update(fields)\n"
            "    return inner\n",
            ["outer.inner"],
        ),
        ("object.__new__(Record).__dict__.update({})\n", ["<module>", "<module>"]),
        # a frozen dataclass setting its own field inside its constructor
        (
            "class Record:\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'bits', ())\n",
            [],
        ),
        # a plain dict merged, and a record built by its constructor
        ("def build(fields, extra):\n    fields.update(extra)\n    return Record(**fields)\n", []),
        # a class's own __new__ runs as part of its constructor
        ("class Record:\n    def __new__(cls):\n        return super().__new__(cls)\n", []),
    ],
    ids=[
        "function", "method", "nested-function", "module-level",
        "frozen-setattr", "dict-update", "own-new",
    ],
)
def test_the_check_sees_a_constructor_bypass(source, want):
    assert constructor_bypasses(ast.parse(source)) == want


def test_records_are_built_by_their_constructors():
    """Every qotlab object is built through its class's own __init__, so
    its checks, if any, run; `BYPASS_ALLOWED` lists the one exception, and
    fails loudly once that exception is gone."""
    found = {
        (_name(path), scope)
        for path in sorted(SRC.rglob("*.py"))
        for scope in constructor_bypasses(ast.parse(path.read_text()))
    }
    assert found == BYPASS_ALLOWED


def defaulted_parameters(tree: ast.Module) -> set[tuple[str, str, str, Optional[int]]]:
    """(function, parameter, called name, position) for each parameter a
    function or method gives a default. A call names the function, or the
    class for an `__init__`; the position counts the arguments a call
    passes before the parameter, the bound self or cls not among them, and
    is None for a keyword-only parameter."""
    found = set()

    def visit(node: ast.AST, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            args = child.args
            positional = [*args.posonlyargs, *args.args]
            static = any(ast.unparse(d) == "staticmethod" for d in child.decorator_list)
            bound = int(cls is not None and not static)
            name = f"{cls}.{child.name}" if cls else child.name
            called = cls if child.name == "__init__" else child.name
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], start=first):
                found.add((name, arg.arg, called, index - bound))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.add((name, arg.arg, called, None))
            visit(child, None)

    visit(tree, None)
    return found


def passes(tree: ast.Module) -> set[tuple[str, object]]:
    """(called name, keyword or position) for every argument some call in
    the module passes; a `*args` passes every position ("*"), a `**kwargs`
    every keyword ("**")."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        for index, arg in enumerate(node.args):
            found.add((called, "*" if isinstance(arg, ast.Starred) else index))
        found.update((called, kw.arg or "**") for kw in node.keywords)
    return found


def unpassed(defaults, passed) -> set[tuple[str, str]]:
    """The (function, parameter) pairs no call passes, by keyword or position."""
    return {
        (name, param)
        for name, param, called, index in defaults
        if not {(called, param), (called, "**")} & passed
        and (index is None or not {(called, index), (called, "*")} & passed)
    }


def test_the_check_sees_a_parameter_no_call_passes():
    tree = ast.parse(
        "class Stream:\n"
        "    def __init__(self, seed, index=0):\n        pass\n"
        "    def draw(self, n=1, *, fast=False):\n        pass\n"
        "    @staticmethod\n    def make(size=2):\n        pass\n"
        "def run(n, theta=0.5, alpha=0.1, qubits=None):\n    pass\n"
        "def spread(values, scale=1.0):\n    pass\n"
        "run(3, 0.7)\n"
        "run(3, alpha=0.2)\n"
        "Stream(1, 2).draw(fast=True)\n"
        "Stream.make(4)\n"
        "spread(*pair)\n"
    )
    assert unpassed(defaulted_parameters(tree), passes(tree)) == {
        ("run", "qubits"),
        ("Stream.draw", "n"),
    }


# the modules whose calls count: the package, the benchmark and the tools
CALLERS = [
    path for path in NON_TEST_MODULES if not path.is_relative_to(ROOT / "bench" / "tests")
]


def test_every_default_is_overridden_outside_the_tests():
    """A parameter with a default that no call under src/, bench/ (not
    bench/tests) or tools/ passes is a knob only the tests turn: the default
    is the one value the program uses, so it belongs in the body."""
    defaults = set()
    for path in sorted(SRC.rglob("*.py")):
        defaults |= defaulted_parameters(ast.parse(path.read_text()))
    passed = set()
    for path in CALLERS:
        passed |= passes(ast.parse(path.read_text()))
    assert unpassed(defaults, passed) == set()
