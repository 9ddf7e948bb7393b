"""Package-wide rules that no single module test covers."""

import ast
import re
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


# Every tolerance is a module-level constant listed in the README's table;
# a small float literal anywhere else is a tolerance nobody listed.
README = SRC.parents[1] / "README.md"
TOLERANCE_NAME = re.compile(r"_(R?TOL|ATOL|CLAMP|SLACK|ROUNDING)$")
SMALL = 1e-6
# (module, function) pairs whose small literals are not tolerances of a check
SMALL_LITERALS_ALLOWED = {
    ("classify.py", "_bfgs_update"),  # the 1e-12 curvature guard of the pair ascent
    ("optimize.py", "nelder_mead"),  # stopping defaults of the simplex kept for perfbench
}


def tolerance_names(tree: ast.Module):
    """(line, name) for every module-level name with a TOLERANCE_NAME suffix."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if TOLERANCE_NAME.search(name.id):
                    yield node.lineno, name.id


def small_literals(tree: ast.Module):
    """(line, enclosing function, value) for float literals below SMALL.

    Module-level assignments are where tolerances live, so they are not
    searched; a negative literal is a minus applied to a positive one.
    """

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < node.value < SMALL:
            yield node.lineno, func, node.value
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)

    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            yield from visit(node, None)


def readme_table() -> str:
    return "\n".join(line for line in README.read_text().splitlines() if line.startswith("|"))


def test_every_tolerance_is_in_the_readme_table():
    table = readme_table()
    missing = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in tolerance_names(ast.parse(path.read_text(), filename=str(path)))
        if f"`{name}`" not in table
    ]
    assert missing == []


def test_no_small_float_literal_outside_a_constant():
    found = {
        (path.name, func, line, value)
        for path in sorted(SRC.rglob("*.py"))
        for line, func, value in small_literals(ast.parse(path.read_text(), filename=str(path)))
    }
    assert {f[:3] for f in found if f[:2] not in SMALL_LITERALS_ALLOWED} == set()
    # the allow-list names only exceptions that still exist
    assert {f[:2] for f in found} == SMALL_LITERALS_ALLOWED


def test_tolerance_guards_see_defaults_nesting_and_signs():
    tree = ast.parse(
        "import math\n"
        "A_TOL = 1e-9\n"
        "B_ATOL: float = A_TOL / 3\n"
        "LIMIT_CLAMP, OTHER = 1e-10, 2\n"
        "STOP_RTOL = 1e-6\n"
        "BOUND_SLACK = 1e-6\n"
        "SUM_ROUNDING = 16 * 2.2e-16\n"
        "NOT_A_TOLERANCE = 1e-12\n"
        "SLACKNESS = 1e-9\n"
        "ROUNDING_MODE = 'even'\n"
        "XRTOLS = 1e-9\n"
        "def f(x, tol=1e-12):\n"
        "    y = 1e-3\n"
        "    def g():\n"
        "        return -2e-8\n"
        "    return x > 1e-7\n"
        "class K:\n"
        "    SLACK_TOL = 5e-7\n"
    )
    assert {name for _, name in tolerance_names(tree)} == {
        "A_TOL", "B_ATOL", "LIMIT_CLAMP", "STOP_RTOL", "BOUND_SLACK", "SUM_ROUNDING"
    }
    assert {(func, value) for _, func, value in small_literals(tree)} == {
        ("f", 1e-12), ("g", 2e-8), ("f", 1e-7), (None, 5e-7)
    }
    assert "`TP_ATOL`" in readme_table()
