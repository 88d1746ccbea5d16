"""Structure lints over the package source: each metric is factored, inverted
and eigensolved in one named place.

curvature._cholesky is the one Cholesky factorisation of g (in Python
floats): it decides whether g is a metric and gives det g, the factor that
_frame_eigh uses and the one inverse of g, which _require_metric keeps on
the metric object, so no other determinant, inverse or solve of g exists.  verify.py keeps numpy's
routines as its independent references, imported in the checks that use
them, and curvature._jacobi is the one eigensolver.  curvature._real_array
is the one reader of the arrays a caller hands the library.  The library
builds the reports; cli.py parses and formats them, without numpy or a
private name of the library.
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
    # _frame_eigh is the one eigensolve of the library, that of P, by
    # curvature._jacobi in Python floats (certified by its residuals); every
    # quotient block is checked entrywise against its closed form, and
    # spectrum() reads the eigenvalues off that form.  numpy's eigensolvers
    # are verify's references only
    uses = [f"{path.name}:{scope}" for path in SOURCES
            for scope, node in _scoped_nodes(path)
            if isinstance(node, ast.Attribute) and node.attr.startswith("eig")
            and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"]
    assert [use for use in uses if not use.startswith("verify.py:")] == []
    callers = sorted(f"{path.name}:{scope}" for path in SOURCES
                     for scope, node in _scoped_nodes(path)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id == "_jacobi")
    assert callers == ["curvature.py:_frame_eigh"]


def _reads_by_hand(path: Path) -> list[str]:
    """Functions of `path` that read an array with np.asarray(..., dtype=float)
    and then test its shape or finiteness themselves."""
    found = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {id(node) for node in ast.walk(func)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.asarray"
                and any(k.arg == "dtype" and ast.unparse(k.value) == "float"
                        for k in node.keywords)}
        names = {target.id for node in ast.walk(func) if isinstance(node, ast.Assign)
                 and id(node.value) in read for target in node.targets
                 if isinstance(target, ast.Name)}

        def is_read(node):
            return id(node) in read or isinstance(node, ast.Name) and node.id in names

        tested = any(
            isinstance(node, ast.Attribute) and node.attr in ("shape", "ndim", "size")
            and is_read(node.value)
            or isinstance(node, ast.Call) and ast.unparse(node.func).endswith("isfinite")
            and any(is_read(sub) for arg in node.args for sub in ast.walk(arg))
            for node in ast.walk(func))
        if tested:
            found.append(f"{path.name}:{func.name}")
    return found


def test_every_caller_array_is_read_by_the_one_reader():
    # curvature._real_array reads every array a caller hands the library, in
    # Python floats through _entries, and names the argument in its
    # DomainError; _stencil_sample reads what a metric callback returns, with
    # numpy, and names the stencil sample instead
    found = sorted(site for path in SOURCES if path.name in ("curvature.py", "symbol.py", "flow.py")
                   for site in _reads_by_hand(path))
    assert found == ["curvature.py:_stencil_sample"]
    callers = sorted({f"{path.name}:{scope}" for path in SOURCES
                      for scope, node in _scoped_nodes(path)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "_entries"})
    assert callers == ["curvature.py:_entries", "curvature.py:_real_array"]


def test_the_cli_reads_no_numpy_and_no_private_library_name():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = [alias.name for node in imports if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in imports if isinstance(node, ast.ImportFrom) and node.module]
    assert [name for name in modules if name.split(".")[0] == "numpy"] == []
    # names bound by `from . import ...` and `from .module import ...`
    library = {alias.asname or alias.name: alias.name for node in imports
               if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    private = [name for name in library.values() if name.startswith("_") and not name.endswith("__")]
    private += [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id in library
                and node.attr.startswith("_")]
    assert private == []


def test_verify_imports_no_numpy_and_no_symbol_module_when_it_loads():
    # the flow and cli suites run on the standard library alone, so verify.py
    # imports numpy and the symbol module in the helpers and checks that use
    # them; an import under `if TYPE_CHECKING:` is read by type checkers only
    def loaded(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                    isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING"):
                continue
            if isinstance(child, ast.Import):
                yield from (alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                prefix = "." * child.level
                yield from ([prefix + child.module] if child.module
                            else (prefix + alias.name for alias in child.names))
            else:
                yield from loaded(child)

    modules = list(loaded(ast.parse((PACKAGE / "verify.py").read_text())))
    assert {"math", ".curvature", ".flow", ".errors"} <= set(modules)
    assert [name for name in modules
            if name.split(".")[0] == "numpy" or name.split(".")[-1] == "symbol"] == []
