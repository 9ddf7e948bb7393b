"""Package-wide rules that no single module test covers."""

import ast
import sys
from pathlib import Path

import qcorr

SRC = Path(qcorr.__file__).resolve().parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qcorr"}


def imported_roots(tree: ast.AST):
    """(line, top-level module) for every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_are_numpy_and_stdlib_only():
    # NumPy is the one runtime dependency (pyproject.toml); SciPy may check
    # a result outside the package but must never be imported by it
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    bad = [
        f"{path.relative_to(SRC)}:{line}: {root}"
        for path in modules
        for line, root in imported_roots(ast.parse(path.read_text(), filename=str(path)))
        if root not in ALLOWED
    ]
    assert bad == []


def test_guard_sees_function_level_imports():
    tree = ast.parse("def f():\n    import scipy.linalg\n    from numpy import linalg\n")
    assert [root for _, root in imported_roots(tree)] == ["scipy", "numpy"]
