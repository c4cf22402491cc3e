"""Every worked example in demos/ runs to completion as a plain script."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 8


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_imports_gaugeqed_first(demo):
    # importing gaugeqed sets the BLAS thread count, which numpy reads once
    # when it loads; a demo that loaded numpy first would run unpinned
    first = next(node for node in ast.parse(demo.read_text()).body
                 if isinstance(node, (ast.Import, ast.ImportFrom)))
    names = [first.module] if isinstance(first, ast.ImportFrom) \
        else [alias.name for alias in first.names]
    assert names[0].split(".")[0] == "gaugeqed", names
