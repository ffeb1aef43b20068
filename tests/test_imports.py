"""Every name imported into a qotlab module, a test module, a benchmark
module or a tool script is read there, and no qotlab module builds an
object around its constructor. The benchmark files are only read, never
changed."""

import ast
from pathlib import Path

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
