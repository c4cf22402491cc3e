"""The README's Python examples run as written.

Each ```python block of README.md runs in a fresh interpreter that imports
the package from ``src``, from an empty working directory, and must exit
0: a quick tour that names a deleted function or keyword fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                    re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(tmp_path, code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          timeout=300, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
