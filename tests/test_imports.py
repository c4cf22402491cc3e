"""Every name a package module imports is used in that module, only the
modules the benchmark tracer hooks name ``OperatorMatrix``, and each of the
eigensolvers and the Fock ladder has one owner.

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
# tests rebind and restore rabi.hermitian_eig
KEPT = {("rabi.py", "hermitian_eig")}


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


def names(source: str) -> set:
    """Every identifier ``source`` reads, imports, defines or takes as an
    attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add((node.asname or node.name).split(".")[-1])
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


@pytest.mark.parametrize("owned, owner", [
    ({"eig_banded", "eigsh", "dsyevr", "eigh", "eigvalsh", "dsbevx", "zhbevx", "dpbtrf",
      "dpbtrs", "zpbtrf", "zpbtrs", "dlamch", "dsytrd", "dsytrd_lwork", "dstebz", "_LAPACK",
      "shift_invert_eigsh"}, "linalg.py"),
    ({"_real_ladder"}, "qops.py"),
])
def test_one_owner_names_each_solver_and_the_ladder(owned, owner):
    """Only linalg calls the eigensolvers and the LAPACK routines its loader
    hands out, and only qops builds the Fock ladder, so a second band solver
    or Fock factor cache cannot come back unseen; a docstring that mentions
    them does not count."""
    assert names("import scipy.linalg as sla\nsla.eig_banded(b)\n") >= {"sla", "eig_banded"}
    assert "eigh" not in names('"""numpy.linalg.eigh"""\n')
    naming = sorted(p.name for p in SRC.glob("*.py") if names(p.read_text()) & owned)
    assert naming == [owner]


def test_one_owner_slices_the_quadrature_frame():
    """Only qops reads X's eigendecomposition (``FockFactors.eig``,
    ``quadrature_eig``) and so only qops slices its eigenvectors by Fock
    parity into the quadrature frame; every other module takes the frame,
    its number blocks and the parity parts of node values from
    ``FockFactors``.  ``__init__`` only re-exports ``quadrature_eig``."""
    assert "eig" in names("spec = fock_factors(4).eig\n")
    owned = {"eig", "quadrature_eig"}
    naming = sorted(m for m in MODULES if names((SRC / m).read_text()) & owned)
    assert naming == ["qops.py"]
    readers = sorted(m for m in MODULES
                     if names((SRC / m).read_text()) & {"n_frame", "parity_parts"})
    assert readers == ["qops.py", "rabi.py"]
