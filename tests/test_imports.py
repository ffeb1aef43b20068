"""Every name imported into a qotlab module, a test module or a benchmark
module is used there. The benchmark files are only read, never changed."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qotlab"
MODULES = (
    sorted(SRC.rglob("*.py"))
    + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "bench").rglob("*.py"))
)

# the future import, and the per-state samplers and the plain run that
# bench/tracing.py wraps under these module names although the modules
# themselves never call them
ALLOWED = {"annotations"}
ALLOWED_IN = {
    "rot.py": {"measure_projective", "measure_povm"},
    "bitcommit.py": {"measure_projective", "run_rot"},
}


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and neither read nor listed in __all__."""
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported.append(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from .rot import HONEST, USD\nimport numpy as np\nprint(USD)\n")
    assert unused_imports(tree) == ["HONEST", "np"]


def _name(path: Path) -> str:
    """A module's path below src/qotlab, or below the root for a test or
    benchmark module."""
    return str(path.relative_to(SRC if path.is_relative_to(SRC) else ROOT))


@pytest.mark.parametrize("path", MODULES, ids=_name)
def test_no_unused_import(path):
    allowed = ALLOWED | ALLOWED_IN.get(_name(path), set())
    unused = [n for n in unused_imports(ast.parse(path.read_text())) if n not in allowed]
    assert unused == [], f"{_name(path)} imports {unused} and never uses them"
