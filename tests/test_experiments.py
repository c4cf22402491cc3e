"""Sweep driver: convergence policy, determinism, studies, table emission."""

import math
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeqed import RabiParams, bands_H_D, build_H_C_correct, build_H_D
from gaugeqed import cli
from gaugeqed import dicke as dicke_mod
from gaugeqed import experiments as experiments_mod
from gaugeqed import linalg as linalg_mod
from gaugeqed import particle1d as particle1d_mod
from gaugeqed import rabi as rabi_mod
from gaugeqed.experiments import (
    ConvergencePolicy,
    CutoffCeilingError,
    SweepSpec,
    alpha_csv_lines,
    alpha_invariance_study,
    check_converged,
    converged_transitions,
    default_eta_grid,
    lowest_transitions,
    run_sweep,
    sweep_csv_lines,
    taylor_csv_lines,
    taylor_study,
)

SMALL_GRID = (0.0, 0.2, 0.4)
# the registry entries that return ParityBands rather than a matrix
BANDED_RABI_MODELS = ("D", "Cstd")


def small_sweep(models=("D", "Ccorr"), threads=1, **kw):
    spec = SweepSpec(models=models, eta_grid=SMALL_GRID, **kw)
    return run_sweep(spec, threads=threads)


def transitions_of(result, model):
    """One row of transitions per eta point of ``model``."""
    return np.array([p.transitions for p in result.points if p.model == model])


# ---------------------------------------------------------------------------
# convergence machinery
# ---------------------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        ConvergencePolicy(cutoff0=0)
    with pytest.raises(ValueError):
        ConvergencePolicy(growth=1)
    with pytest.raises(ValueError):
        ConvergencePolicy(tol=0.0)
    with pytest.raises(ValueError):
        ConvergencePolicy(cutoff0=100, cutoff_cap=50)


def test_converged_transitions_trail():
    build = lambda c: build_H_D(RabiParams(eta=0.6, cutoff=c))
    t, cutoff, ok, trail = converged_transitions(build, 4)
    assert ok
    assert trail[-1][0] == cutoff
    assert trail[-1][1] < 1e-8
    # each doubling moves the transitions less than the one before
    deltas = [d for _, d in trail]
    assert all(b <= a for a, b in zip(deltas, deltas[1:]))


def test_cutoff_ceiling_flagged():
    policy = ConvergencePolicy(cutoff0=4, cutoff_cap=8, tol=1e-12)
    build = lambda c: build_H_D(RabiParams(eta=1.0, cutoff=c))
    t, cutoff, ok, trail = converged_transitions(build, 3, policy)
    assert not ok
    assert cutoff == 8
    assert t.size == 3  # best available answer still reported


def test_check_converged_raises():
    policy = ConvergencePolicy(cutoff0=4, cutoff_cap=8, tol=1e-12)
    spec = SweepSpec(models=("D",), eta_grid=(0.9, 1.0), policy=policy)
    result = run_sweep(spec)
    assert len(result.unconverged()) == 2
    with pytest.raises(CutoffCeilingError):
        check_converged(result)


def test_lowest_transitions_needs_levels():
    for build in (build_H_D, bands_H_D):
        H = build(RabiParams(eta=0.1, cutoff=2))
        assert lowest_transitions(H, 5).shape == (5,)
        with pytest.raises(ValueError):
            lowest_transitions(H, 6)


@pytest.mark.parametrize("family,models,n_dipoles", [
    ("rabi", ("D", "Cstd", "Ccorr"), 1),
    ("dicke", ("std", "corr", "dipole"), 2),
])
def test_sweep_solves_real_half_blocks(monkeypatch, family, models, n_dipoles):
    """Every dense sweep solve is real and at most half the product
    dimension, rounded up; the two blocks of one build add up to its
    dimension.  The banded Rabi models make no dense solve."""
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        solves.append((a.shape, a.dtype))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    policy = ConvergencePolicy(cutoff0=5, tol=1e-6)
    spec = SweepSpec(models=models, eta_grid=SMALL_GRID, family=family,
                     n_dipoles=n_dipoles, levels_reported=3, policy=policy)
    result = run_sweep(spec)
    # threads=1 solves point by point along each point's cutoff chain
    dims = [(n_dipoles + 1) * (policy.cutoff0 * policy.growth ** k + 1)
            for p in result.points if p.model not in BANDED_RABI_MODELS
            for k in range(len(p.trail) + 1)]
    assert len(solves) == 2 * len(dims)
    for (even, odd), dim in zip(zip(solves[::2], solves[1::2]), dims):
        for shape, dtype in (even, odd):
            assert dtype == np.float64
            assert shape[0] == shape[1] <= math.ceil(dim / 2)
        assert even[0][0] + odd[0][0] == dim
    if family == "dicke":
        assert any(dim % 2 for dim in dims)  # odd dimensions round up


def test_rabi_sweep_solves_d_and_cstd_as_bands(monkeypatch):
    """A Rabi sweep never assembles or densely solves D or Cstd: each build
    is two chains handed to eig_banded, tridiagonal for D and pentadiagonal
    for Cstd, each solved for the lowest levels + 1 eigenvalues."""
    def dense(*args, **kwargs):
        raise AssertionError("dense path taken")

    for name in ("build_H_D", "build_H_C_standard"):
        monkeypatch.setattr(rabi_mod, name, dense)
    monkeypatch.setattr(np.linalg, "eigvalsh", dense)
    solves = []
    eig_banded = scipy.linalg.eig_banded

    def recording(a_band, *args, **kwargs):
        solves.append((a_band.shape, kwargs["select"], kwargs["select_range"]))
        return eig_banded(a_band, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig_banded", recording)
    policy = ConvergencePolicy(cutoff0=5, tol=1e-6)
    result = run_sweep(SweepSpec(models=("D", "Cstd"), eta_grid=SMALL_GRID,
                                 levels_reported=3, policy=policy))
    assert all(p.converged for p in result.points)
    want = [((2 if p.model == "D" else 3, policy.cutoff0 * policy.growth ** k + 1),
             "i", (0, 3))
            for p in result.points for k in range(len(p.trail) + 1) for _ in (0, 1)]
    assert solves == want


def test_block_models_never_assemble_the_matrix(monkeypatch, tmp_path, harmonic):
    """Ccorr, the Dicke models, the Taylor study, the alpha study and the
    full models of a mirror-symmetric well solve the real blocks the block
    writer makes of their terms: no dense builder, no dense writer, no
    Kronecker product and no complex solve is reached."""
    def dense(*args, **kwargs):
        raise AssertionError("dense path taken")

    for name in ("build_H_C_correct", "build_H_C_taylor", "build_H_alpha", "kron_sum"):
        monkeypatch.setattr(rabi_mod, name, dense)
    for name in ("build_dicke_standard", "build_dicke_correct", "build_dicke_dipole",
                 "kron_sum"):
        monkeypatch.setattr(dicke_mod, name, dense)
    for name in ("build_full_H_D", "build_full_H_C", "kron_sum"):
        monkeypatch.setattr(particle1d_mod, name, dense)
    monkeypatch.setattr(linalg_mod, "kron_sum", dense)
    monkeypatch.setattr(experiments_mod, "hermitian_eig", dense)
    monkeypatch.setattr(np, "kron", dense)
    policy = ConvergencePolicy(cutoff0=5, tol=1e-6)
    result = run_sweep(SweepSpec(models=("Ccorr",), eta_grid=SMALL_GRID,
                                 levels_reported=3, policy=policy))
    assert all(p.converged for p in result.points)
    result = run_sweep(SweepSpec(models=("std", "corr", "dipole"), eta_grid=SMALL_GRID,
                                 family="dicke", n_dipoles=2, levels_reported=3,
                                 policy=policy))
    assert all(p.converged for p in result.points)
    study = taylor_study((2, 10), eta_grid=(0.1, 0.2), cutoff=20, levels=3)
    assert not np.isnan(study.errors[1]).any()
    assert alpha_invariance_study((0.0, 0.5, 1.0), (0.4,), levels=3, policy=policy).passed
    model, basis = harmonic
    monkeypatch.setattr(cli, "_named_model", lambda p: model)
    monkeypatch.setattr(particle1d_mod, "solve_particle", lambda m: basis)
    argv = ["full-model", "--m-levels", "2,4", "--cutoff", "8", "--outdir", str(tmp_path)]
    assert cli.main(argv) == 0


@given(eta=st.floats(0.1, 1.2), detuning=st.sampled_from([0.0, 0.5]))
@settings(max_examples=8)
def test_trail_deltas_shrink(eta, detuning):
    build = lambda c: build_H_C_correct(RabiParams(eta=eta, cutoff=c, detuning=detuning))
    _, _, ok, trail = converged_transitions(build, 4)
    assert ok
    deltas = [d for _, d in trail]
    tol = ConvergencePolicy().tol
    assert all(b <= a or b < tol for a, b in zip(deltas, deltas[1:]))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(models=("X",), eta_grid=(0.1,))
    with pytest.raises(ValueError):
        SweepSpec(models=(), eta_grid=(0.1,))
    with pytest.raises(ValueError):
        SweepSpec(models=("D",), eta_grid=())
    with pytest.raises(ValueError):
        SweepSpec(models=("D",), eta_grid=(0.2, 0.1))
    with pytest.raises(ValueError):
        SweepSpec(models=("D",), eta_grid=(-0.1, 0.2))
    with pytest.raises(ValueError):
        SweepSpec(models=("D",), eta_grid=(0.1,), levels_reported=1)
    with pytest.raises(ValueError):
        SweepSpec(models=("D",), eta_grid=(0.1,), family="bose")
    with pytest.raises(ValueError):
        SweepSpec(models=("std",), eta_grid=(0.1,))  # dicke name, rabi family
    SweepSpec(models=("std", "corr"), eta_grid=(0.1,), family="dicke", n_dipoles=2)


def test_spec_rejects_repeated_models():
    # a repeated model would be solved, and written, once per repetition
    with pytest.raises(ValueError, match="repeated model in D,D"):
        SweepSpec(models=("D", "D"), eta_grid=(0.1,))
    with pytest.raises(ValueError, match="repeated model"):
        SweepSpec(models=("std", "corr", "std"), eta_grid=(0.1,), family="dicke")


def test_sweep_points_in_grid_order():
    result = small_sweep()
    assert [p.model for p in result.points[:3]] == ["D", "D", "D"]
    assert [p.eta for p in result.points[:3]] == list(SMALL_GRID)
    assert all(p.converged for p in result.points)


def test_eta_zero_row_is_ladder():
    result = small_sweep(models=("D", "Cstd", "Ccorr"))
    expected = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    for p in result.points:
        if p.eta == 0.0:
            assert np.abs(np.array(p.transitions) - expected).max() <= 1e-10


def test_dipole_and_corrected_agree_along_grid():
    result = small_sweep()
    t_d = transitions_of(result, "D")
    t_c = transitions_of(result, "Ccorr")
    assert np.abs(t_d - t_c).max() <= 1e-6


def test_standard_already_off_at_eta_tenth():
    spec = SweepSpec(models=("D", "Cstd"), eta_grid=(0.1,))
    result = run_sweep(spec)
    t_d = transitions_of(result, "D")[0]
    t_c = transitions_of(result, "Cstd")[0]
    rel = np.abs(t_c - t_d) / t_d
    assert rel.max() > 0.008  # visible at the percent level


def test_dicke_family_sweep():
    spec = SweepSpec(models=("std", "corr"), eta_grid=(0.0, 0.3),
                     family="dicke", n_dipoles=2, levels_reported=3)
    result = run_sweep(spec)
    assert len(result.points) == 4
    assert all(p.converged for p in result.points)


def test_threads_do_not_change_results():
    r1 = small_sweep(threads=1)
    r3 = small_sweep(threads=3)
    assert r1 == r3
    assert sweep_csv_lines(r1) == sweep_csv_lines(r3)


def test_rerun_is_identical():
    assert sweep_csv_lines(small_sweep()) == sweep_csv_lines(small_sweep())


# ---------------------------------------------------------------------------
# eta grid
# ---------------------------------------------------------------------------

def test_default_eta_grid():
    grid = default_eta_grid()
    assert len(grid) == 61
    assert grid[0] == 0.0
    assert grid[-1] == 1.5
    steps = np.diff(grid)
    assert np.abs(steps - 0.025).max() <= 1e-12
    no_zero = default_eta_grid(include_zero=False)
    assert len(no_zero) == 60 and no_zero[0] == 0.025
    assert default_eta_grid(1.6, include_zero=False)[-1] == 1.6


# ---------------------------------------------------------------------------
# taylor and alpha studies
# ---------------------------------------------------------------------------

def test_taylor_study_scan():
    grid = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    study = taylor_study((2, 3), eta_grid=grid, cutoff=60, levels=4)
    assert study.orders == (2, 3)
    for i, n in enumerate(study.orders):
        errs = np.array(study.errors[i])
        star, first = study.eta_star[i], study.first_bad[i]
        if first is not None:
            j = grid.index(first)
            assert errs[j] > study.tol
            assert np.isnan(errs[j + 1:]).all()
            assert star == (grid[j - 1] if j > 0 else 0.0)
        finite = errs[~np.isnan(errs)]
        assert (finite[:-1] <= study.tol).all()
    # a higher order survives at least as far
    assert study.eta_star[1] >= study.eta_star[0]


def test_taylor_study_threads_and_lazy_exact(monkeypatch):
    calls = []
    build = rabi_mod.blocks_H_C_correct

    def counting(p, *args, **kwargs):
        calls.append(p.eta)
        return build(p, *args, **kwargs)

    monkeypatch.setattr(rabi_mod, "blocks_H_C_correct", counting)
    grid = tuple(0.1 * k for k in range(1, 16))
    orders = (2, 3, 4, 5, 6, 10)
    kw = dict(eta_grid=grid, cutoff=30, levels=3)
    study = taylor_study(orders, threads=1, **kw)
    reached = max(int(np.count_nonzero(~np.isnan(row))) for row in study.errors)
    assert reached < len(grid)  # the longest scan stops inside the grid
    assert sorted(calls) == sorted(grid[:reached])  # one exact solve per eta reached
    # more scans than cores, switching threads often: each exact spectrum is
    # still solved once, and the table does not depend on the thread count
    calls.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = taylor_study(orders, threads=4, **kw)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == sorted(grid[:reached])
    assert taylor_csv_lines(threaded) == taylor_csv_lines(study)


def test_taylor_study_validation():
    with pytest.raises(ValueError):
        taylor_study((0,), eta_grid=(0.1,))
    # a repeated order would be scanned twice and written twice
    with pytest.raises(ValueError, match="repeated order in 2,3,2"):
        taylor_study((2, 3, 2), eta_grid=(0.1,), cutoff=10)


def test_alpha_invariance():
    study = alpha_invariance_study((0.0, 0.5, 1.0), (0.4, 0.8), levels=4)
    assert study.passed
    assert study.max_spread <= 1e-6
    assert len(study.spreads) == 2


def test_alpha_negative_control_breaks():
    study = alpha_invariance_study((0.0, 1.0), (0.8,), levels=4,
                                   negative_control=True)
    assert not study.passed
    assert study.max_spread > 0.1
    assert study.negative_control


def test_alpha_study_validation():
    with pytest.raises(ValueError):
        alpha_invariance_study((), (0.5,))
    # the negative control swaps the alpha=1 member; without one it has
    # nothing to swap, and must not be reported as a failed control
    with pytest.raises(ValueError, match="alphas must include 1"):
        alpha_invariance_study((0.0, 0.5), (0.8,), negative_control=True)
    with pytest.raises(ValueError, match="repeated alpha in 0,0.5,0"):
        alpha_invariance_study((0.0, 0.5, 0.0), (0.8,))
    with pytest.raises(ValueError, match="repeated eta in 0.8,0.8"):
        alpha_invariance_study((0.0, 1.0), (0.8, 0.8))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_sweep_csv_shape():
    result = small_sweep(models=("D",), levels_reported=3)
    lines = sweep_csv_lines(result)
    assert lines[0].startswith("# energies in units of omega_c")
    assert lines[3] == "model,eta,cutoff,converged,t1,t2,t3"
    # the eta = 0 point is exact: diagonal matrix, ladder transitions
    assert lines[4] == ("D,0,80,1,1.000000000000e+00,"
                        "1.000000000000e+00,2.000000000000e+00")
    assert len(lines) == 4 + len(SMALL_GRID)


def test_taylor_csv_shape():
    study = taylor_study((2,), eta_grid=(0.05, 0.1), cutoff=40, levels=3)
    lines = taylor_csv_lines(study)
    assert "order,eta,max_rel_err" in lines
    data = [l for l in lines if not l.startswith("#") and l[0].isdigit()]
    assert all(l.startswith("2,") for l in data)


def test_alpha_csv_shape():
    study = alpha_invariance_study((0.0, 1.0), (0.3,), levels=3)
    lines = alpha_csv_lines(study)
    assert lines[-1].startswith("0.3,")
    assert any("PASS" in l for l in lines)


def test_gnuplot_script(tmp_path):
    from gaugeqed.experiments import write_gnuplot_script
    gp = tmp_path / "plot.gp"
    write_gnuplot_script("data.csv", gp, "sweep", 2, ("D",))
    text = gp.read_text()
    assert "strcol(1) eq 'D'" in text
    assert "$5" in text and "$6" in text


def test_write_lines_replaces_atomically(tmp_path, monkeypatch):
    path = tmp_path / "table.csv"
    experiments_mod._write_lines(path, ["old", "rows"])
    experiments_mod._write_lines(path, ["new"])
    assert path.read_bytes() == b"new\n"
    assert [f.name for f in tmp_path.iterdir()] == ["table.csv"]

    class HalfWrite:
        """A file that takes half of what it is given, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError("disk full")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()
            return False

    builtin_open = open
    monkeypatch.setattr(experiments_mod, "open",
                        lambda *a, **kw: HalfWrite(builtin_open(*a, **kw)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        experiments_mod._write_lines(path, ["a longer table", "that never lands"])
    assert path.read_bytes() == b"new\n"
    assert [f.name for f in tmp_path.iterdir()] == ["table.csv"]
