"""Structure lints over the package source: each metric is factored, inverted
and eigensolved in one named place.

curvature._cholesky is the one Cholesky factorisation of g (in Python
floats): it decides whether g is a metric and gives det g, the factor that
_frame_eigh uses and the one inverse of g, which _require_metric keeps on
the metric object, so no other determinant, inverse or solve of g exists.  verify.py keeps numpy's
routines as its independent references.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "xcflow"
SOURCES = sorted(PACKAGE.rglob("*.py"))


def _scoped_nodes(path: Path):
    """(enclosing function name or '<module>', node) for every AST node of
    `path` that is not itself a function definition."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
            else:
                yield scope, child
                yield from visit(child, scope)
    yield from visit(ast.parse(path.read_text()), "<module>")


def test_the_package_source_is_found():
    assert {"curvature.py", "symbol.py", "flow.py", "verify.py"} <= {p.name for p in SOURCES}


def test_no_numpy_inverse_determinant_or_solve_outside_verify():
    pattern = re.compile(r"np\.linalg\.(inv|det|solve)\(|np\.linalg\.cholesky")
    found = [f"{path.name}:{n}: {line.strip()}"
             for path in SOURCES if path.name != "verify.py"
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if pattern.search(line)]
    assert found == []


def test_each_metric_object_is_factored_in_one_place():
    # _require_metric factors a metric object once and keeps the factor on
    # it; is_positive_definite asks the same question without keeping it.
    # No other code may call _cholesky, or a metric could be factored twice
    callers = sorted(f"{path.name}:{scope}" for path in SOURCES
                     for scope, node in _scoped_nodes(path)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id == "_cholesky")
    assert callers == ["curvature.py:_require_metric", "curvature.py:is_positive_definite"]


def test_one_eigensolver_per_purpose():
    # _frame_eigh is the one eigensolve of the library, that of P (certified
    # by its residuals); every quotient block is checked entrywise against
    # its closed form, and spectrum() reads the eigenvalues off that form
    uses = [f"{path.name}:{scope}" for path in SOURCES
            for scope, node in _scoped_nodes(path)
            if isinstance(node, ast.Attribute) and node.attr.startswith("eig")
            and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"]
    assert [use for use in uses if not use.startswith("verify.py:")] == [
        "curvature.py:_frame_eigh"]
