"""The package's layering, read from its source with ast: no import inside a
function, an acyclic import graph, and leaf modules that import nothing from
the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "newton_condg"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}
LEAVES = ("linsolve", "feasible_set")
STATUSES = ("converged", "max_iterations", "no_progress", "linear_solve_failure")


def _imported(node):
    """The package modules an import statement names; __init__ for the package."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif node.level == 0:
        names = [node.module]
    elif node.module:  # from .core import x
        names = ["newton_condg." + node.module]
    else:  # from . import core
        names = ["newton_condg." + alias.name for alias in node.names]
    return {
        (name.split(".") + ["__init__"])[1]
        for name in names
        if name.split(".")[0] == "newton_condg"
    }


def _graph():
    return {
        name: sorted({
            dep
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for dep in _imported(node)
        })
        for name, tree in MODULES.items()
    }


def test_no_function_imports():
    found = []
    for name, tree in MODULES.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{name}.{func.name} (line {node.lineno})"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert not found, "imports inside functions: " + ", ".join(found)


def test_import_graph_is_acyclic():
    graph = _graph()
    done, path = set(), []

    def visit(name):
        if name in path:
            cycle = path[path.index(name):] + [name]
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        path.append(name)
        for dep in graph.get(name, ()):
            visit(dep)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


@pytest.mark.parametrize("leaf", LEAVES)
def test_leaf_module_imports_nothing_from_the_package(leaf):
    assert _graph()[leaf] == []


def test_condg_imports_only_feasible_set():
    # the count rule of its cap lives in feasible_set, its one dependency
    assert _graph()["condg"] == ["feasible_set"]


def _linear_algebra_imports(tree):
    """The scipy.linalg and scipy.sparse.linalg modules, or their submodules,
    that a module's import statements name."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    return sorted({
        name for name in names
        for prefix in ("scipy.linalg", "scipy.sparse.linalg")
        if name == prefix or name.startswith(prefix + ".")
    })


def test_only_linsolve_imports_scipy_linear_algebra():
    # one factorization path: an LU or a preconditioner anywhere else would
    # be a second one
    found = {
        name: imported
        for name, tree in MODULES.items()
        if name != "linsolve" and (imported := _linear_algebra_imports(tree))
    }
    assert found == {}
    assert _linear_algebra_imports(MODULES["linsolve"])  # the check sees linsolve's


def _scipy_linalg_wrappers(tree):
    """What a module reaches in scipy.linalg other than its lapack routines:
    the scipy.linalg names its imports bind outside scipy.linalg.lapack, and
    its calls of linalg.<name> or scipy.linalg.<name>."""
    found = [
        name for name in _linear_algebra_imports(tree)
        if name.startswith("scipy.linalg") and not name.startswith("scipy.linalg.lapack")
    ]
    found += [
        f"linalg.{node.func.attr}() (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and ast.unparse(node.func.value) in ("linalg", "scipy.linalg")
    ]
    return sorted(found)


def test_linsolve_calls_lapack_only_through_its_routines():
    # one way to call LAPACK: every dense kernel is a scipy.linalg.lapack
    # routine, whose info the kernel reads, never a wrapper that warns on it
    assert _scipy_linalg_wrappers(MODULES["linsolve"]) == []
    lapack = {
        alias.name
        for node in ast.walk(MODULES["linsolve"])
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.linalg.lapack"
        for alias in node.names
    }
    assert {"dgetrf", "dgetrs", "sgetrf", "sgetrs"} <= lapack


def test_lapack_check_sees_a_wrapper():
    source = (
        "from scipy import linalg, sparse\n"
        "import scipy.linalg, scipy.linalg.lapack\n"
        "from scipy.linalg import lu_solve\n"
        "from scipy.linalg.lapack import dgetrf\n"
        "lu = linalg.lu_factor(M)\n"
        "x = scipy.linalg.solve(M, b) + scipy.linalg.lapack.dgetrs(lu, piv, b)[0]\n"
        "y = np.linalg.norm(x) + sparse.linalg.norm(M)\n"
    )
    assert _scipy_linalg_wrappers(ast.parse(source)) == [
        "linalg.lu_factor() (line 5)", "linalg.solve() (line 6)",
        "scipy.linalg", "scipy.linalg.lu_solve",
    ]


def test_solver_imports_only_linsolve_entry_points():
    # the outer loop solves and catches failures; kernel constants and
    # classes stay in linsolve, which alone decides how a step is factorized
    imported = set()
    for node in ast.walk(MODULES["solver"]):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "linsolve" in _imported(node):
            assert isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linsolve")
            imported |= {alias.name for alias in node.names}
    assert imported == {"LinearSolveFailure", "solve_direct", "solve_inexact"}


def _unused_imports(tree):
    """The names a module's import statements bind that no expression reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # import a.b binds a; an import with "as" binds its alias
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"__init__"}))
def test_module_uses_every_name_it_imports(name):
    # __init__ imports to re-export; any other module imports to use
    assert _unused_imports(MODULES[name]) == []


def test_unused_import_check_sees_an_unused_name():
    source = "import math, numpy as np\nfrom scipy.linalg.lapack import dgbtrf\nnp.ones(math.pi)"
    assert _unused_imports(ast.parse(source)) == ["dgbtrf (line 2)"]


MODEL_BUILDERS = ("_Pattern", "CSRModel")


def _model_matrix_builds(tree):
    """Where a module builds a model matrix or its pattern by hand: a call of
    _Pattern or CSRModel, by name or as an attribute, or a store to an
    attribute named _pattern."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in MODEL_BUILDERS:
                found.append(f"{name}() (line {node.lineno})")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "_pattern"
            and isinstance(node.ctx, ast.Store)
        ):
            found.append(f"._pattern = (line {node.lineno})")
    return sorted(found)


def test_only_linsolve_builds_model_matrices():
    # one way to build a model matrix: everywhere else a sparse model comes
    # from as_model or from its pattern's model(), which carry the pattern
    found = {
        name: builds
        for name, tree in MODULES.items()
        if name != "linsolve" and (builds := _model_matrix_builds(tree))
    }
    assert found == {}
    assert _model_matrix_builds(MODULES["linsolve"])  # the check sees linsolve's


def test_model_build_check_sees_a_pattern_built_by_hand():
    source = (
        "from .linsolve import CSRModel, _Pattern\n"
        "import newton_condg.linsolve as ls\n"
        "A = CSRModel(J)\n"
        "A._pattern = _Pattern(A != 0)\n"
        "B, B._pattern = J, ls._Pattern(J != 0)\n"
    )
    assert _model_matrix_builds(ast.parse(source)) == [
        "._pattern = (line 4)", "._pattern = (line 5)",
        "CSRModel() (line 3)", "_Pattern() (line 4)", "_Pattern() (line 5)",
    ]


def _with_data_references(tree):
    """Where a module references linsolve.with_data: an import of it, or a
    name or an attribute so called."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(a.name == "with_data" for a in node.names):
            found.append(f"import with_data (line {node.lineno})")
        elif (
            isinstance(node, ast.Name) and node.id == "with_data"
            or isinstance(node, ast.Attribute) and node.attr == "with_data"
        ):
            found.append(f"with_data (line {node.lineno})")
    return sorted(found)


def test_only_linsolve_references_with_data():
    # one template per structure: a sparse model is a copy of its pattern's
    # template, which linsolve alone copies; any other module that wants a
    # model of a pattern asks canonical_pattern(pattern).model(data)
    found = {
        name: refs
        for name, tree in MODULES.items()
        if name != "linsolve" and (refs := _with_data_references(tree))
    }
    assert found == {}
    assert _with_data_references(MODULES["linsolve"])  # the check sees linsolve's


def test_with_data_check_sees_a_planted_use():
    source = (
        "from .linsolve import as_model, canonical_pattern, with_data\n"
        "import newton_condg.linsolve as ls\n"
        "T = canonical_pattern(A).template\n"
        "J = with_data(T, data)\n"
        "K = ls.with_data(T, data)\n"
        "copy = with_data\n"
    )
    assert _with_data_references(ast.parse(source)) == [
        "import with_data (line 1)",
        "with_data (line 4)", "with_data (line 5)", "with_data (line 6)",
    ]


def _integral_imports(tree):
    """Where a module imports numbers.Integral: from numbers import Integral,
    or import numbers."""
    return sorted(
        f"numbers (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "numbers"
        and any(a.name == "Integral" for a in node.names)
    )


def test_one_module_imports_integral():
    # one count rule: feasible_set._is_count, which every count check calls
    found = {name: refs for name, tree in MODULES.items() if (refs := _integral_imports(tree))}
    assert list(found) == ["feasible_set"]


def test_integral_check_sees_an_import():
    source = (
        "from numbers import Integral, Real\n"
        "import numbers\n"
        "from numbers import Real\n"
        "isinstance(n, Integral) or isinstance(n, numbers.Integral)\n"
    )
    assert _integral_imports(ast.parse(source)) == ["numbers (line 1)", "numbers (line 2)"]


def _status_literals(tree, constants=False):
    """The string constants of a module that spell a solver status; with
    constants=True the module-level assignments NAME = "status" (core's
    definitions) are left out."""
    defined = set()
    if constants:
        defined = {
            id(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        }
    return sorted(
        f"{node.value!r} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in STATUSES and id(node) not in defined
    )


def test_statuses_are_spelled_only_by_core_constants():
    # every other module compares with core.CONVERGED and its siblings
    found = {
        name: literals
        for name, tree in MODULES.items()
        if (literals := _status_literals(tree, constants=name == "core"))
    }
    assert found == {}
    assert len(_status_literals(MODULES["core"])) == len(STATUSES)  # the check sees core's


def test_status_check_sees_a_literal():
    source = (
        'CONVERGED = "converged"\n'
        'def f(report):\n'
        '    """Check a converged run."""\n'
        '    return report.status != "converged" or report.status in ("no_progress",)\n'
    )
    assert _status_literals(ast.parse(source), constants=True) == [
        "'converged' (line 4)", "'no_progress' (line 4)",
    ]


def test_code_line_count_leaves_out_blanks_comments_and_docstrings():
    from conftest import code_lines

    source = (
        '"""Module docstring,\n'
        'on two lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "def f(a,\n"
        "      b):\n"
        '    """Docstring."""\n'
        '    return """a string\n'
        'that is not a docstring"""\n'
    )
    # X = 1, the two lines of def and the two of the returned string
    assert code_lines(source) == 5
