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


# NumPy 2 added these; pyproject.toml promises numpy>=1.26, where none exists
NUMPY2_ONLY = {
    "numpy.vecdot",
    "numpy.matvec",
    "numpy.vecmat",
    "numpy.linalg.vecdot",
    "numpy.linalg.matrix_transpose",
    "numpy.unstack",
    "numpy.permute_dims",
    "numpy.concat",
    "numpy.pow",
    "numpy.astype",
    "numpy.cumulative_sum",
}


def numpy_names(tree: ast.AST):
    """(line, dotted name) for every NumPy attribute or imported name in a module.

    Names bound by `import numpy as np` or `from numpy import linalg` are
    followed, so `np.linalg.vecdot` reads as numpy.linalg.vecdot; attributes
    of arrays (x.astype) are not NumPy module names and are not listed.
    """
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "numpy":
                    alias[a.asname or "numpy"] = a.name if a.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] != "numpy":
                continue
            for a in node.names:
                name = f"{node.module}.{a.name}"
                alias[a.asname or a.name] = name
                yield node.lineno, name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts, base = [node.attr], node.value
            while isinstance(base, ast.Attribute):
                parts.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in alias:
                yield node.lineno, ".".join([alias[base.id], *reversed(parts)])


def test_no_numpy2_only_functions():
    bad = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in numpy_names(ast.parse(path.read_text(), filename=str(path)))
        if name in NUMPY2_ONLY
    ]
    assert bad == []


def test_numpy2_guard_sees_aliases_and_imports():
    tree = ast.parse(
        "import numpy as np\n"
        "import numpy\n"
        "from numpy import concat\n"
        "from numpy import linalg as la\n"
        "def f(x):\n"
        "    return (np.vecdot(x, x), numpy.linalg.matrix_transpose(x), la.vecdot(x, x),\n"
        "            x.astype(float), np.linalg.norm(x))\n"
    )
    found = {name for _, name in numpy_names(tree)} & NUMPY2_ONLY
    assert found == {
        "numpy.vecdot", "numpy.linalg.matrix_transpose", "numpy.linalg.vecdot", "numpy.concat"
    }
