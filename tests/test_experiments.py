"""Sweep driver: convergence policy, determinism, studies, table emission."""

import math
import multiprocessing
import os
import threading

import numpy as np
import pytest
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
    GROWTH,
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
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError):
            ConvergencePolicy(tol=tol)
    with pytest.raises(ValueError):
        ConvergencePolicy(cutoff0=100, cutoff_cap=50)
    # a cap that allows no doubling leaves every point unconverged
    for cap in (40, GROWTH * 40 - 1):
        with pytest.raises(ValueError, match=f"cutoff_cap {cap} allows no doubling"):
            ConvergencePolicy(cutoff0=40, cutoff_cap=cap)
    assert ConvergencePolicy(cutoff0=40, cutoff_cap=GROWTH * 40).cutoff_cap == 80


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
    assert [p.converged for p in result.points] == [False, False]
    with pytest.raises(CutoffCeilingError, match="2 sweep point.* cap 8 .*D@eta=0.9, D@eta=1$"):
        check_converged(result.points, policy.cutoff_cap)
    check_converged(small_sweep().points, ConvergencePolicy().cutoff_cap)


def test_alpha_study_points_are_sweep_points():
    # the gauge family's members are converged by the sweep's point loop,
    # and the study keeps them for the same verdict
    policy = ConvergencePolicy(cutoff0=4, cutoff_cap=8, tol=1e-12)
    study = alpha_invariance_study((0.0, 1.0), (0.5, 0.9), levels=3, policy=policy,
                                   negative_control=True)
    assert [(p.model, p.eta, p.cutoff, p.converged) for p in study.points] == [
        ("alpha=0", 0.5, 8, False), ("Cstd", 0.5, 8, False),
        ("alpha=0", 0.9, 8, False), ("Cstd", 0.9, 8, False)]
    for i in range(2):
        t = np.array([p.transitions for p in study.points[2 * i:2 * i + 2]])
        assert study.spreads[i] == float((t.max(axis=0) - t.min(axis=0)).max())
    with pytest.raises(CutoffCeilingError, match="4 sweep point.*alpha=0@eta=0.5, Cstd@eta=0.5"):
        check_converged(study.points, policy.cutoff_cap)
    study = alpha_invariance_study((0.0, 1.0), (0.5,), levels=3)
    assert all(p.converged and p.trail for p in study.points)
    check_converged(study.points, ConvergencePolicy().cutoff_cap)


def test_lowest_transitions_needs_levels():
    for build in (build_H_D, bands_H_D):
        H = build(RabiParams(eta=0.1, cutoff=2))
        assert lowest_transitions(H, 5).shape == (5,)
        with pytest.raises(ValueError):
            lowest_transitions(H, 6)


def record_parity_solves(monkeypatch):
    """Log each parity solve of the experiments as a dict: its "count", the
    (shape, dtype) of each block that dsytrd "reduced", and its "asks", one
    (routine, sector, band shape, il, iu) per dstebz or ?sbevx call: the
    sector numbered in the order first asked, the band a chain's (the
    tridiagonal (2, rows) for dstebz) and il..iu the index range asked,
    counted from 1."""
    solves = []
    lapack = linalg_mod._LAPACK
    solve, dsytrd, dstebz, dsbevx = (experiments_mod.parity_eigvalsh, lapack.dsytrd,
                                     lapack.dstebz, lapack.dsbevx)

    def parity_eigvalsh(H, count):
        solves.append({"count": count, "reduced": [], "asks": [], "sectors": []})
        return solve(H, count)

    def ask(routine, sector, shape, il, iu):
        # a sector hands LAPACK the same array at each of its calls
        known = solves[-1]["sectors"]
        if not any(seen is sector for seen in known):
            known.append(sector)
        k = [seen is sector for seen in known].index(True)
        solves[-1]["asks"].append((routine, k, shape, il, iu))

    def reduce(a, **kwargs):
        solves[-1]["reduced"].append((a.shape, a.dtype))
        return dsytrd(a, **kwargs)

    def bisect(d, e, select, vl, vu, il, iu, *args):
        ask("dstebz", d, (2, d.size), il, iu)
        return dstebz(d, e, select, vl, vu, il, iu, *args)

    def banded(ab, vl, vu, il, iu, *args, **kwargs):
        ask("dsbevx", ab, ab.shape, il, iu)
        return dsbevx(ab, vl, vu, il, iu, *args, **kwargs)

    monkeypatch.setattr(experiments_mod, "parity_eigvalsh", parity_eigvalsh)
    for name, fn in (("dsytrd", reduce), ("dstebz", bisect), ("dsbevx", banded)):
        monkeypatch.setattr(lapack, name, fn)
    return solves


def sector_ranges(solve):
    """The index ranges each sector of a recorded parity solve was asked
    for, in the order asked."""
    ranges = {}
    for _, k, _, il, iu in solve["asks"]:
        ranges.setdefault(k, []).append((il, iu))
    return [ranges[k] for k in sorted(ranges)]


def assert_levels_asked_once(solve):
    """Each sector of a two-sector parity solve was first asked for its
    lowest ceil(count / 2) levels, then only for levels not yet asked, and
    for none past the count-th."""
    first = -(-solve["count"] // 2)
    for ranges in sector_ranges(solve):
        assert ranges[0] == (1, first)
        assert all(il == iu + 1 for (_, iu), (il, _) in zip(ranges, ranges[1:]))
        assert ranges[-1][1] <= solve["count"]


@pytest.mark.parametrize("family,models,n_dipoles", [
    ("rabi", ("D", "Cstd", "Ccorr"), 1),
    ("dicke", ("std", "corr", "dipole"), 2),
])
def test_sweep_solves_real_half_blocks(monkeypatch, family, models, n_dipoles):
    """Every dense sweep solve is real and at most half the product
    dimension, rounded up: each of its two blocks is reduced to tridiagonal
    form once, and the two add up to the build's dimension.  Each block is
    bisected only for levels among the lowest levels + 1, none twice.  The
    banded Rabi models make no dense solve."""
    def dense(*args, **kwargs):
        raise AssertionError("full-spectrum eigvalsh called")

    solves = record_parity_solves(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigvalsh", dense)
    policy = ConvergencePolicy(cutoff0=5, tol=1e-6)
    spec = SweepSpec(models=models, eta_grid=SMALL_GRID, family=family,
                     n_dipoles=n_dipoles, levels_reported=3, policy=policy)
    result = run_sweep(spec)
    # threads=1 solves point by point along each point's cutoff chain
    dims = [(n_dipoles + 1) * (policy.cutoff0 * GROWTH ** k + 1)
            for p in result.points if p.model not in BANDED_RABI_MODELS
            for k in range(len(p.trail) + 1)]
    dense_solves = [solve for solve in solves if solve["reduced"]]
    assert len(dense_solves) == len(dims)
    for solve, dim in zip(dense_solves, dims):
        even, odd = solve["reduced"]
        for shape, dtype in (even, odd):
            assert dtype == np.float64
            assert shape[0] == shape[1] <= math.ceil(dim / 2)
        assert even[0][0] + odd[0][0] == dim
        assert solve["count"] == 4 and len(sector_ranges(solve)) == 2
        assert {routine for routine, *_ in solve["asks"]} == {"dstebz"}
        assert_levels_asked_once(solve)
    if family == "dicke":
        assert any(dim % 2 for dim in dims)  # odd dimensions round up


def test_rabi_sweep_solves_d_and_cstd_as_bands(monkeypatch):
    """A Rabi sweep never assembles or densely solves D or Cstd: each build
    is two chains, the tridiagonal D chains bisected by dstebz itself and
    the pentadiagonal Cstd chains handed to ?sbevx, selected by index.  Of
    the lowest levels + 1 = 4 eigenvalues, a D chain is first asked for
    ceil(4 / 2) = 2 and for more only where the union lacks them; a Cstd
    chain, which ?sbevx would solve again from its lowest level, is asked
    once for 4 // 2 + 1 = 3, two band solves a build."""
    def dense(*args, **kwargs):
        raise AssertionError("dense path taken")

    for name in ("build_H_D", "build_H_C_standard"):
        monkeypatch.setattr(rabi_mod, name, dense)
    monkeypatch.setattr(np.linalg, "eigvalsh", dense)
    solves = record_parity_solves(monkeypatch)
    policy = ConvergencePolicy(cutoff0=5, tol=1e-6)
    result = run_sweep(SweepSpec(models=("D", "Cstd"), eta_grid=SMALL_GRID,
                                 levels_reported=3, policy=policy))
    assert all(p.converged for p in result.points)
    want = [[("dstebz", 0, (2, rows), 1, 2), ("dstebz", 1, (2, rows), 1, 2)]
            if p.model == "D" else
            [("dsbevx", 0, (3, rows), 1, 3), ("dsbevx", 1, (3, rows), 1, 3)]
            for p in result.points for k in range(len(p.trail) + 1)
            for rows in [policy.cutoff0 * GROWTH ** k + 1]]
    assert [solve["asks"][:2] for solve in solves] == want
    for solve in solves:
        assert solve["reduced"] == [] and solve["count"] == 4
        routine = solve["asks"][0][0]
        assert {name for name, *_ in solve["asks"]} == {routine}
        if routine == "dsbevx":
            assert len(solve["asks"]) == 2
        for ranges in sector_ranges(solve):
            assert ranges[0] == (1, 2 if routine == "dstebz" else 3) and ranges[-1][1] <= 4
            assert all(iu > iu0 and il == iu0 + 1
                       for (_, iu0), (il, iu) in zip(ranges, ranges[1:]))


def test_deep_rabi_sweep_asks_each_level_once(monkeypatch, tmp_path):
    """On the deep Rabi sweep (eta to 3.0 in steps of 0.05, the benchmark's
    rabi-deep) no parity solve asks a sector for an index twice, and each
    asks for fewer than 2 count levels in all, where solving each sector for
    the lowest count would ask for 2 count."""
    solves = record_parity_solves(monkeypatch)
    argv = ["rabi-sweep", "--eta-max", "3.0", "--eta-step", "0.05", "--outdir", str(tmp_path)]
    assert cli.main(argv) == 0
    # D's chains bisected, Cstd's handed to ?sbevx, Ccorr's blocks reduced
    assert {(routine, shape[0]) for solve in solves for routine, _, shape, *_ in solve["asks"]} \
        == {("dstebz", 2), ("dsbevx", 3)}
    assert any(solve["reduced"] for solve in solves)
    for solve in solves:
        asked = [(k, i) for k, ranges in enumerate(sector_ranges(solve))
                 for il, iu in ranges for i in range(il, iu + 1)]
        assert len(asked) == len(set(asked)) < 2 * solve["count"]


def test_block_models_never_assemble_the_matrix(monkeypatch, tmp_path, harmonic):
    """Ccorr, the Dicke models, the Taylor study, the alpha study and the
    full models of a mirror-symmetric well solve the real blocks the block
    writer makes of their terms: no dense builder, no dense writer, no
    Kronecker product and no complex solve is reached."""
    def dense(*args, **kwargs):
        raise AssertionError("dense path taken")

    for name in ("build_H_C_correct", "build_H_C_taylor", "kron_sum"):
        monkeypatch.setattr(rabi_mod, name, dense)
    for name in ("build_dicke_standard", "build_dicke_correct", "kron_sum"):
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
# worker pool
# ---------------------------------------------------------------------------

two_workers = pytest.mark.skipif(experiments_mod.worker_count(2, 2) < 2,
                                 reason="needs two usable CPUs")


def test_worker_count_caps_at_tasks_and_cpus():
    # a pure count: no process is started, however many are asked for
    worker_count = experiments_mod.worker_count
    assert worker_count(4096, 3, cpus=64) == 3
    assert worker_count(4096, 100, cpus=2) == 2
    assert worker_count(1, 100, cpus=64) == 1
    assert worker_count(4, 0, cpus=4) == 1
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count())
    assert worker_count(4096, 3) == min(3, usable)


@two_workers
def test_pool_forks_before_its_threads_and_leaves_no_process(monkeypatch):
    # a fork while other threads run may deadlock the child (Python 3.12
    # warns of it): every worker forks before the pool starts its threads
    fork, threads_at_fork = os.fork, []

    def recording():
        threads_at_fork.append(threading.active_count())
        return fork()

    monkeypatch.setattr(os, "fork", recording)
    before = threading.active_count()
    small_sweep(threads=2)
    assert threads_at_fork == [before, before]
    assert multiprocessing.active_children() == []
    assert threading.active_count() == before


@two_workers
@pytest.mark.parametrize("error", [linalg_mod.ParityError,
                                   linalg_mod.ConvergenceFailureError])
def test_worker_error_reaches_the_caller(monkeypatch, tmp_path, capsys, error):
    """An error raised in a worker process reaches the caller with its type,
    the pool's processes are gone, and the CLI exits 2 on it as it does on
    the serial path."""
    def failing(H, levels):
        raise error(f"raised in process {os.getpid()}")

    monkeypatch.setattr(experiments_mod, "lowest_transitions", failing)
    with pytest.raises(error, match="raised in process") as info:
        small_sweep(threads=2)
    assert str(info.value) != f"raised in process {os.getpid()}"
    assert multiprocessing.active_children() == []
    argv = ["rabi-sweep", "--eta-max", "0.1", "--eta-step", "0.05", "--levels", "3",
            "--outdir", str(tmp_path)]
    for threads in ("1", "2"):
        assert cli.main(argv + ["--threads", threads]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {error.__name__}: raised in process ")
        assert multiprocessing.active_children() == []
    assert list(tmp_path.iterdir()) == []


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


def test_default_eta_grid_stops_at_eta_max():
    # 0.04 / 0.025 = 1.6 rounds up to 2 points past zero; the grid must stop
    # at 0.025, not scan on to 0.05.  A quotient that rounding leaves just
    # under an integer (0.6 / 0.025 = 23.999999999999996) keeps its top point
    assert default_eta_grid(0.04, 0.025) == (0.0, 0.025)
    assert default_eta_grid(0.02, 0.025) == (0.0,)
    assert default_eta_grid(0.6, 0.025)[-1] == 0.6
    assert default_eta_grid(0.3, 0.1) == (0.0, 0.1, 0.2, 0.3)
    with pytest.raises(ValueError, match="holds no eta > 0"):
        default_eta_grid(0.02, 0.025, include_zero=False)


def test_default_eta_grid_refuses_a_grid_past_its_cap():
    # 0..1 in steps of 1e-6 is one point more than ETA_GRID_MAX_POINTS; an
    # infinite quotient is refused the same way, before int() sees it
    assert experiments_mod.ETA_GRID_MAX_POINTS == 10 ** 6
    for eta_max, step in ((1.0, 1e-6), (1.0, 1e-300), (1e300, 1e-300)):
        with pytest.raises(ValueError, match="has over 1000000 points"):
            default_eta_grid(eta_max, step)


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


# at cutoff 30 the order-60 scan takes etas 0.1 .. 0.6 as the full model
# (|2 eta x| < 12 there), then solves 0.7 .. 1.3 and stops at 1.3, whose
# error exceeds tol
TAYLOR_GRID = tuple(0.1 * k for k in range(1, 16))


def counting(monkeypatch, module, name, log, key):
    """Replace ``module.name`` by a wrapper that appends key(args) to log."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        log.append(key(*args))
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def logging_calls(monkeypatch, module, name, log, key):
    """Replace ``module.name`` by a wrapper that appends repr(key(args)) as
    one line to the file ``log``: a worker process appends there too, where
    a list would grow only in the worker's copy."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{key(*args)!r}\n")
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def logged(log):
    """The values ``logging_calls`` wrote to ``log``, sorted, and the log
    emptied."""
    values = sorted(float(v) for v in log.read_text().split()) if log.exists() else []
    log.unlink(missing_ok=True)
    return values


def test_taylor_study_threads_and_lazy_exact(monkeypatch, tmp_path):
    calls, maclaurin = tmp_path / "exact.log", []
    logging_calls(monkeypatch, rabi_mod, "terms_H_C_correct", calls, lambda p: p.eta)
    counting(monkeypatch, rabi_mod, "maclaurin_cos_sin", maclaurin, lambda v, n: n)
    grid = TAYLOR_GRID
    orders = (2, 3, 4, 5, 6, 10, 60)
    kw = dict(eta_grid=grid, cutoff=30, levels=3)
    study = taylor_study(orders, threads=1, **kw)
    assert study.exact_points == (0, 0, 0, 0, 0, 0, 6)
    # the etas some scan solved: past its exact run, up to where it stopped
    needed = sorted({grid[j] for i in range(len(orders))
                     for j in range(study.exact_points[i], study.scanned(i))})
    assert study.scanned(orders.index(60)) < len(grid)  # the longest scan stops inside
    assert grid[4] not in needed and grid[5] not in needed  # no scan solves 0.5, 0.6
    assert logged(calls) == needed  # one exact solve per eta some scan needs
    assert sorted(maclaurin) == sorted(orders)  # and one Maclaurin table per order
    # more scans than worker processes: each exact spectrum is still solved
    # once, the tables stay in this process, and the table does not depend
    # on the worker count
    threaded = taylor_study(orders, threads=4, **kw)
    assert logged(calls) == needed
    assert sorted(maclaurin) == sorted(orders + orders)
    assert threaded.exact_points == study.exact_points
    assert taylor_csv_lines(threaded) == taylor_csv_lines(study)


def test_taylor_study_skips_bit_identical_points(monkeypatch):
    taylor, correct, maclaurin = [], [], []
    counting(monkeypatch, rabi_mod, "terms_H_C_rotated", taylor, lambda p, f: p.eta)
    counting(monkeypatch, rabi_mod, "terms_H_C_correct", correct, lambda p: p.eta)
    counting(monkeypatch, rabi_mod, "maclaurin_cos_sin", maclaurin, lambda v, n: (n, v.shape))
    study = taylor_study((60,), eta_grid=TAYLOR_GRID, cutoff=30, levels=3)
    assert study.exact_points == (6,) and study.scanned(0) == 13
    assert study.errors[0][:6] == (0.0,) * 6
    # a skipped point builds neither model; the rest build each once
    solved = TAYLOR_GRID[6:13]
    assert taylor == list(solved)
    assert sorted(correct) == sorted(solved)
    # one Maclaurin evaluation for the order: its table over the whole grid
    # of etas by the 31 eigenvalues of X, which both the exact run and the
    # Taylor builds read
    assert maclaurin == [(60, (len(TAYLOR_GRID), 31))]


def test_taylor_study_table_matches_per_point_evaluation():
    """The per-order table gives what one evaluation per point gives: the
    leading run of ``taylor_is_exact`` points, and past it the error of a
    ``terms_H_C_taylor`` solve at each scanned point, bit for bit."""
    orders = (3, 10, 60)
    study = taylor_study(orders, eta_grid=TAYLOR_GRID, cutoff=30, levels=3)
    assert study.exact_points[2] == 6 and study.scanned(2) == 13  # the run ends mid-grid
    for i, n in enumerate(orders):
        params = [RabiParams(eta=eta, cutoff=30) for eta in TAYLOR_GRID]
        run = next((k for k, p in enumerate(params) if not rabi_mod.taylor_is_exact(p, n)),
                   len(params))
        assert study.exact_points[i] == run
        for k in range(run, study.scanned(i)):
            t = lowest_transitions(
                linalg_mod.parity_block_sum(rabi_mod.terms_H_C_taylor(params[k], n)), 3)
            ref = lowest_transitions(
                linalg_mod.parity_block_sum(rabi_mod.terms_H_C_correct(params[k])), 3)
            assert study.errors[i][k] == float(np.max(np.abs(t - ref) / np.maximum(ref, 1.0)))


def test_taylor_study_solves_the_lowest_levels_only(monkeypatch):
    """Every solve of the study reduces its two 31-row blocks once each and
    asks dstebz only for levels among the lowest levels + 1, none twice;
    none is a full eigvalsh."""
    eigvalsh = []
    counting(monkeypatch, np.linalg, "eigvalsh", eigvalsh, lambda a: a.shape)
    solves = record_parity_solves(monkeypatch)
    study = taylor_study((2, 60), eta_grid=TAYLOR_GRID[:8], cutoff=30, levels=3)
    assert study.scanned(0) > 0 and study.exact_points == (0, 6)
    assert eigvalsh == []
    assert solves
    for solve in solves:
        assert solve["count"] == 4
        assert solve["reduced"] == [((31, 31), np.float64)] * 2
        assert {(routine, shape) for routine, _, shape, *_ in solve["asks"]} == \
            {("dstebz", (2, 31))}
        assert_levels_asked_once(solve)


@pytest.mark.parametrize("eta", TAYLOR_GRID[:6:2])
def test_skipped_taylor_points_solve_to_zero_error(eta):
    # solving a point the order-60 scan skipped gives what it reports
    p = RabiParams(eta=eta, cutoff=30)
    assert rabi_mod.taylor_is_exact(p, 60)
    t = lowest_transitions(linalg_mod.parity_block_sum(rabi_mod.terms_H_C_taylor(p, 60)), 3)
    ref = lowest_transitions(linalg_mod.parity_block_sum(rabi_mod.terms_H_C_correct(p)), 3)
    assert float(np.max(np.abs(t - ref) / np.maximum(ref, 1.0))) == 0.0


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
    assert not study.passed and study.verdict == "FAIL"
    assert study.max_spread > 0.1
    assert study.negative_control


def test_alpha_verdict_unconverged_is_not_pass():
    # the spread is within tol, but no member converged: a spread of
    # truncated transitions is no PASS
    policy = ConvergencePolicy(cutoff0=20, cutoff_cap=40, tol=1e-15)
    study = alpha_invariance_study((0.0, 1.0), (0.8,), levels=3, policy=policy)
    assert study.max_spread <= study.tol
    assert not any(p.converged for p in study.points)
    assert not study.passed and study.verdict == "UNCONVERGED"
    assert alpha_csv_lines(study)[2].endswith(": UNCONVERGED")


def test_alpha_study_validation():
    with pytest.raises(ValueError):
        alpha_invariance_study((), (0.5,))
    # one member has no spread to judge: refused rather than a PASS
    with pytest.raises(ValueError, match="at least two gauges to compare, got 1$"):
        alpha_invariance_study((0.5,), (0.8,))
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


def test_write_table_replaces_atomically(tmp_path, monkeypatch):
    path = tmp_path / "table.csv"
    experiments_mod.write_table(path, ["old", "rows"])
    experiments_mod.write_table(path, ["new"])
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
        experiments_mod.write_table(path, ["a longer table", "that never lands"])
    assert path.read_bytes() == b"new\n"
    assert [f.name for f in tmp_path.iterdir()] == ["table.csv"]
