"""Source hygiene: no module of the package or of the tests imports a
name it never uses, and no package module imports SciPy when it is
itself imported."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "cineseg"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom math import pi, tau\nprint(system, pi)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: tau"]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def module_level_imports(source: str) -> list[str]:
    """Modules imported while the module itself is imported: every import
    outside a function body, class bodies and if/try blocks included."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append(child.module)
            visit(child)

    visit(ast.parse(source))
    return found


def test_checker_finds_module_level_imports():
    source = (
        "import numpy as np\n"
        "try:\n    from scipy.special import erf\nexcept ImportError:\n    pass\n"
        "class A:\n    import scipy.linalg\n"
        "def f():\n    from scipy.special import erf\n    return erf\n"
        "from . import numcore\n"
    )
    assert module_level_imports(source) == ["numpy", "scipy.special", "scipy.linalg"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    # SciPy's import costs more than a synth run; gelu imports it on first use
    scipy = [m for m in module_level_imports(path.read_text()) if m.split(".")[0] == "scipy"]
    assert scipy == []
