"""Every name a package module imports is used in that module, and only the
modules the benchmark tracer hooks name ``OperatorMatrix``.

No linter is part of the test dependencies, so this parses each module of
``src/gaugeqed`` except ``__init__.py`` (whose imports are its exports) with
the standard library's ``ast`` and lists the imported names that no
expression, annotation or decorator of the module reads.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gaugeqed"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")

# (module, name) pairs imported on purpose without a use: the benchmark's
# tests rebind and restore rabi.hermitian_eig, and ShiftAboveSpectrumError,
# raised by linalg's shift-invert solver, stays importable from particle1d
KEPT = {("rabi.py", "hermitian_eig"), ("particle1d.py", "ShiftAboveSpectrumError")}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds the name a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom typing import List, Tuple\n" \
             "def f(x: List) -> None:\n    return np.zeros(x)\n"
    assert unused_imports(source) == [(1, "os"), (3, "Tuple")]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    unused = [(line, name) for line, name in unused_imports((SRC / module).read_text())
              if (module, name) not in KEPT]
    assert unused == [], f"{module}: imported but never used: {unused}"


def names_operator_matrix(source: str) -> bool:
    """True when ``source`` defines, imports or reads the name OperatorMatrix."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "OperatorMatrix" \
                or isinstance(node, (ast.alias, ast.ClassDef)) and node.name == "OperatorMatrix":
            return True
    return False


def test_operator_matrix_is_named_only_where_the_tracer_hooks_it():
    """No program path builds or takes an OperatorMatrix: of the package's
    modules only linalg (the class, matrix_function, kron) and qops
    (fock_ops, spin_ops) name it, for the benchmark tracer's hooks."""
    assert names_operator_matrix("from .linalg import OperatorMatrix\n")
    assert not names_operator_matrix('"""OperatorMatrix in a docstring"""\n')
    naming = sorted(p.name for p in SRC.glob("*.py") if names_operator_matrix(p.read_text()))
    assert naming == ["linalg.py", "qops.py"]
