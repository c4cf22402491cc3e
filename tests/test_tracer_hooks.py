"""Every function the benchmark tracer hooks exists in the package.

``bench/tracer.py`` wraps the functions its ``PACKAGE_TARGETS`` table names,
and a name that is gone fails the traced benchmark run.  This reads the table
with the standard library's ``ast``, without importing the tracer, and
resolves each (module, attribute) pair in ``gaugeqed``.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def package_targets(source: str) -> tuple:
    """The literal value assigned to PACKAGE_TARGETS in ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "PACKAGE_TARGETS" for t in targets):
                return ast.literal_eval(node.value)
    raise LookupError("no PACKAGE_TARGETS assignment")


def test_package_targets_are_read():
    targets = package_targets("from typing import Tuple\n"
                              "PACKAGE_TARGETS: Tuple = (('rabi', 'gaugeqed.rabi', 'f'),)\n")
    assert targets == (("rabi", "gaugeqed.rabi", "f"),)
    with pytest.raises(LookupError):
        package_targets("OTHER = ()\n")


TARGETS = [(module, attr) for _, module, attr in package_targets(TRACER.read_text())]


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_tracer_target_resolves(module, attr):
    assert module.startswith("gaugeqed."), module
    fn = getattr(importlib.import_module(module), attr, None)
    assert callable(fn), f"the tracer hooks {module}.{attr}, which the package lacks"
