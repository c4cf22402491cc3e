"""Default runs of the subcommands that no benchmark reference covers,
compared with the tables stored under ``tests/golden/``.

Each table was written by the subcommand at its defaults.  A rerun must
repeat every text cell exactly and every number to 1e-9 relative or 1e-13
absolute: the gauge-theorem deviations and the alpha spread are
roundoff-sized, so only an absolute floor can hold them.
"""

import re
from pathlib import Path

import pytest

from gaugeqed.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def split_numbers(line):
    """The text between the numbers of ``line``, and the numbers."""
    return NUMBER.split(line), [float(m) for m in NUMBER.findall(line)]


@pytest.mark.parametrize("command, table", [
    ("alpha-check", "alpha_check.csv"),
    ("gauge-theorem", "gauge_theorem.csv"),
    ("fluxonium", "fluxonium.csv"),
    ("particle-demo", "particle_demo.csv"),
])
def test_default_run_matches_golden(tmp_path, capsys, command, table):
    assert main([command, "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    got = (tmp_path / table).read_text().splitlines()
    want = (GOLDEN / table).read_text().splitlines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        (g_text, g_nums), (w_text, w_nums) = split_numbers(g), split_numbers(w)
        assert g_text == w_text, (g, w)
        for a, b in zip(g_nums, w_nums):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-13), (g, w)
