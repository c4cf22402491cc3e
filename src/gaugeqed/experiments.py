"""Convergence-controlled parameter sweeps and comparison studies.

Every study reports transition energies E_n - E_0 (the printed Hamiltonians
drop gauge-dependent constants, so raw eigenvalues are not comparable across
gauges).  Relative errors use max(reference, omega_c) as the denominator so
near-zero transitions at level crossings do not blow up the measure; levels
are tracked by sorted index, so crossings appear as kinks.

The sweeps and studies solve each model from its one term list
(``rabi.terms_*``, ``dicke.terms_dicke_dipole``) written as real parity
blocks by ``linalg.parity_block_sum``, except the Rabi dipole and naive
Coulomb models, whose banded chains ``rabi.bands_H_D`` and
``rabi.bands_H_C_standard`` write; ``lowest_transitions`` solves blocks and
chains alike with the one parity solver, ``linalg.parity_eigvalsh``.  An eta grid is k * step up to the last
point at or below eta_max.  The Taylor study evaluates each order's
Maclaurin cos/sin once, as a table over the grid, and takes a point whose
row matches cos/sin to the last bit as the full model itself: its error
is exactly 0.0, and neither model is built or solved there.

A sweep point is one model at one eta, its Fock cutoff grown by
``converged_transitions`` until the transitions settle.  The sweeps and the
gauge-family study build their points by one loop, and ``check_converged``
is their one verdict, which the command line calls after writing each
table: a point that reached the cutoff cap unconverged fails the run.  A cap below one doubling of
the initial cutoff is refused, since no point could converge under it.

Sweep points are independent work items.  With ``threads`` above one they
run on a pool of forked worker processes (``concurrent.futures``), capped
at the usable CPUs and at one worker per MIN_TASKS_PER_WORKER tasks, and
the results come back in task order, so the emitted tables are
byte-identical for any worker count; at one worker they run serially in
the calling process.  Processes, not threads: scipy's LAPACK wrappers hold
the GIL, so a thread pool solves no two points at once.  A worker killed
mid-task, as the OOM killer kills, breaks the pool, and the run fails with
:class:`WorkerLostError` (exit 2) instead of waiting for the lost task.
The pool is the package's only parallelism: importing ``gaugeqed`` pins
OpenBLAS to one thread unless the environment sets its thread count.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from . import dicke as dicke_mod
from . import rabi as rabi_mod
from .linalg import (LinalgError, ParityBands, ParityBlocks, check_dim, hermitian_eig,
                     parity_block_sum, parity_eigvalsh)
from .qops import quadrature_values

OMEGA_C = 1.0  # all energies in units of the cavity frequency
# factor by which the Fock cutoff grows between convergence checks
GROWTH = 2
# most points an eta grid may have; every preset grid has at most 64
ETA_GRID_MAX_POINTS = 10 ** 6


class CutoffCeilingError(Exception):
    """Convergence not reached below the cutoff cap."""


@dataclass(frozen=True)
class ConvergencePolicy:
    cutoff0: int = 40
    tol: float = 1e-8
    cutoff_cap: int = 2000

    def __post_init__(self):
        if self.cutoff0 < 1 or not self.tol > 0:
            raise ValueError("invalid convergence policy")
        # below one doubling no point can converge
        if self.cutoff_cap < GROWTH * self.cutoff0:
            raise ValueError(f"cutoff_cap {self.cutoff_cap} allows no doubling of "
                             f"cutoff0 {self.cutoff0}; it must be >= {GROWTH * self.cutoff0}")


def lowest_transitions(H: Union[np.ndarray, ParityBlocks, ParityBands],
                       levels: int) -> np.ndarray:
    """E_n - E_0 for n = 1..levels.

    ``ParityBlocks`` (the real parity blocks that ``linalg.parity_block_sum``
    writes for the corrected Coulomb, Taylor-order, alpha-family, Dicke and
    fluxonium models) and ``ParityBands`` (the banded chains of the Rabi D
    and naive Coulomb models, and those that ``linalg.parity_band_sum``
    writes for the mirror-parity full models) are solved by the one parity
    solver, :func:`~gaugeqed.linalg.parity_eigvalsh`, for their lowest
    levels + 1 eigenvalues only, each parity sector asked only for the
    levels among them that it can still hold.  A matrix is solved by one
    dense complex solve, :func:`~gaugeqed.linalg.hermitian_eig`.  Raises
    ValueError when levels < 1 or when fewer than levels + 1 eigenvalues
    exist.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if isinstance(H, (ParityBlocks, ParityBands)):
        w = parity_eigvalsh(H, levels + 1)
    else:
        w = hermitian_eig(H, vectors=False).eigenvalues
    if w.size < levels + 1:
        raise ValueError(f"need at least {levels + 1} eigenvalues, got {w.size}")
    return w[1:levels + 1] - w[0]


def converged_transitions(build: Callable[[int], Union[np.ndarray, ParityBlocks,
                                                       ParityBands]],
                          levels: int, policy: ConvergencePolicy = ConvergencePolicy()):
    """Grow the Fock cutoff by GROWTH until the reported transitions
    move by less than tol; returns (transitions, cutoff, converged flag,
    trail).

    ``build(cutoff)`` returns the model at that Fock cutoff in any form
    :func:`lowest_transitions` solves: the real parity blocks that
    ``linalg.parity_block_sum`` makes of a model's terms
    (``rabi.terms_H_C_correct`` and the others), the banded chains of
    ``rabi.bands_H_D`` or ``rabi.bands_H_C_standard`` or of
    ``linalg.parity_band_sum``, or the dense matrix that ``linalg.kron_sum``
    writes, which is solved by one complex solve.

    The trail logs (cutoff reached, max transition shift) for every growth
    step, so monotone convergence is checkable after the fact.  The
    transitions at the last (largest) cutoff are returned even when the cap
    is hit, flagged unconverged rather than dropped; every sweep point of
    :func:`run_sweep` and :func:`alpha_invariance_study` comes from here,
    and :func:`check_converged` turns the flags into the verdict.
    """
    cutoff = policy.cutoff0
    prev = lowest_transitions(build(cutoff), levels)
    trail = []
    while cutoff * GROWTH <= policy.cutoff_cap:
        cutoff *= GROWTH
        cur = lowest_transitions(build(cutoff), levels)
        delta = float(np.abs(cur - prev).max())
        trail.append((cutoff, delta))
        if delta < policy.tol * OMEGA_C:
            return cur, cutoff, True, tuple(trail)
        prev = cur
    return prev, cutoff, False, tuple(trail)


# builder registries; each entry maps (eta, detuning, cutoff, n_dipoles) to
# the model's real parity blocks, or to its banded chains where it is banded
def _rabi_params(eta, detuning, cutoff):
    return rabi_mod.RabiParams(eta=eta, cutoff=cutoff, detuning=detuning)


def _dicke_params(eta, detuning, cutoff, n_dipoles):
    return dicke_mod.DickeParams(eta=eta, cutoff=cutoff, detuning=detuning,
                                 n_dipoles=n_dipoles)


RABI_MODELS: Dict[str, Callable] = {
    "D": lambda e, d, c, n: rabi_mod.bands_H_D(_rabi_params(e, d, c)),
    "Cstd": lambda e, d, c, n: rabi_mod.bands_H_C_standard(_rabi_params(e, d, c)),
    "Ccorr": lambda e, d, c, n: parity_block_sum(
        rabi_mod.terms_H_C_correct(_rabi_params(e, d, c))),
}

DICKE_MODELS: Dict[str, Callable] = {
    "std": lambda e, d, c, n: parity_block_sum(
        rabi_mod.terms_H_C_standard(_dicke_params(e, d, c, n))),
    "corr": lambda e, d, c, n: parity_block_sum(
        rabi_mod.terms_H_C_correct(_dicke_params(e, d, c, n))),
    "dipole": lambda e, d, c, n: parity_block_sum(
        dicke_mod.terms_dicke_dipole(_dicke_params(e, d, c, n))),
}

FAMILIES = {"rabi": RABI_MODELS, "dicke": DICKE_MODELS}


def _check_tol(tol: float) -> None:
    """Raise ValueError unless tol > 0: against tol <= 0 no error or spread
    passes, and the verdict would be known before anything is solved."""
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol:g}")


def _reject_repeats(what: str, values: Sequence) -> None:
    """Raise ValueError when ``values`` holds one entry twice: a repeated
    model, order or alpha would be solved twice and reported twice."""
    if len(set(values)) != len(values):
        shown = ",".join(v if isinstance(v, str) else f"{v:g}" for v in values)
        raise ValueError(f"repeated {what} in {shown}")


@dataclass(frozen=True)
class SweepSpec:
    models: Tuple[str, ...]
    eta_grid: Tuple[float, ...]
    detuning: float = 0.0
    levels_reported: int = 6
    policy: ConvergencePolicy = field(default_factory=ConvergencePolicy)
    family: str = "rabi"
    n_dipoles: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}")
        known = FAMILIES[self.family]
        for m in self.models:
            if m not in known:
                raise ValueError(f"unknown model {m!r}; choose from {sorted(known)}")
        if not self.models:
            raise ValueError("empty model set")
        _reject_repeats("model", self.models)
        grid = tuple(float(e) for e in self.eta_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("eta_grid must be nonempty and strictly ascending")
        if any(e < 0 for e in grid):
            raise ValueError("eta values must be >= 0")
        object.__setattr__(self, "eta_grid", grid)
        object.__setattr__(self, "models", tuple(self.models))
        if self.levels_reported < 2:
            raise ValueError("levels_reported must be >= 2")
        if self.n_dipoles < 1:
            raise ValueError("n_dipoles must be >= 1")


@dataclass(frozen=True)
class SweepPoint:
    # the model's name; a gauge-family member reads "alpha=<alpha>"
    model: str
    eta: float
    cutoff: int
    converged: bool
    transitions: Tuple[float, ...]
    # (cutoff, max transition shift) per doubling; shifts shrink to below
    # the policy tolerance when the point converges
    trail: Tuple[Tuple[int, float], ...] = ()


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    points: Tuple[SweepPoint, ...]


class WorkerLostError(LinalgError):
    """A worker process died mid-task, killed by a signal such as the OOM
    killer's SIGKILL: its points have no result."""


# tasks a worker process must have for a pool to open: opening and
# shutting a pool of two forked workers takes about 17 ms.  In-process, two
# cores, one worker against two: alpha-check's 5 points 26 against 38 ms,
# a 6-point dicke-sweep (N = 4) 70 against 60 ms, dicke-threads' 50 points
# 0.53 against 0.32 s
MIN_TASKS_PER_WORKER = 3


def worker_count(threads: int, tasks: int, cpus: Optional[int] = None) -> int:
    """Worker processes for ``tasks`` independent tasks at ``threads``
    requested: no more than either, nor than ``cpus``, by default the CPUs
    this process may run on; at least one."""
    if cpus is None:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity mask on this platform
            cpus = os.cpu_count() or 1
    return max(1, min(threads, tasks, cpus))


# the task function of a worker process, set by the pool when it forks it
_worker_fn = None


def _set_worker_fn(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_worker_fn(item):
    return _worker_fn(item)


@contextmanager
def _ordered_map(fn, threads: int, tasks: int, batch: Optional[int] = None):
    """Yield ``run``: ``run(items)`` is ``[fn(item) for item in items]``, in
    item order, for up to ``tasks`` items in all, in batches of at most
    ``batch`` (by default ``tasks``) items.

    The pool has :func:`worker_count` workers for a batch, and no more than
    leaves MIN_TASKS_PER_WORKER of the tasks to each.  At one worker ``run``
    calls ``fn`` serially in this process.  Otherwise the items go to a pool
    of forked worker processes, which inherit ``fn`` at the fork, so that
    only the items and the results are pickled.  Every worker forks before
    any of the pool's threads start, and the pool is shut down and its
    processes joined on leaving, also when a task raises; the task's
    exception reaches the caller with its type.  A worker that dies
    mid-task breaks the pool, and ``run`` raises WorkerLostError.
    """
    workers = min(worker_count(threads, batch or tasks), tasks // MIN_TASKS_PER_WORKER)
    if workers <= 1:
        yield lambda items: [fn(it) for it in items]
        return
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_set_worker_fn, initargs=(fn,))
    if sys.version_info < (3, 11):
        # 3.10 forks a worker per submit, while the pool's threads run; 3.11
        # forks them all before its first thread when the context is fork
        for _ in range(workers):
            pool._adjust_process_count()

    def run(items):
        try:
            return list(pool.map(_call_worker_fn, items))
        except BrokenProcessPool as exc:
            raise WorkerLostError(f"a worker process died mid-task: {exc}") from exc

    try:
        yield run
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _converged_points(tasks, levels: int, policy: ConvergencePolicy,
                      threads: int) -> Tuple[SweepPoint, ...]:
    """The point of each (label, eta, build) task at auto-converged cutoff
    (:func:`converged_transitions` of ``build``), in task order, solved on
    up to ``threads`` worker processes; a task travels as its index."""
    def point(i):
        label, eta, build = tasks[i]
        t, cutoff, ok, trail = converged_transitions(build, levels, policy)
        return SweepPoint(model=label, eta=eta, cutoff=cutoff, converged=ok,
                          transitions=tuple(float(v) for v in t), trail=trail)

    with _ordered_map(point, threads, len(tasks)) as run:
        return tuple(run(range(len(tasks))))


def run_sweep(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Transitions of every (model, eta) point at auto-converged cutoff."""
    def task(model, eta):
        build = FAMILIES[spec.family][model]
        return model, eta, lambda c: build(eta, spec.detuning, c, spec.n_dipoles)

    tasks = [task(m, e) for m in spec.models for e in spec.eta_grid]
    return SweepResult(spec=spec, points=_converged_points(
        tasks, spec.levels_reported, spec.policy, threads))


def check_converged(points: Sequence[SweepPoint], cutoff_cap: int) -> None:
    """Raise CutoffCeilingError if any point hit the cutoff cap unconverged,
    naming the first eight; ``cutoff_cap`` is the policy's, for the message."""
    bad = [p for p in points if not p.converged]
    if bad:
        what = ", ".join(f"{p.model}@eta={p.eta:g}" for p in bad[:8])
        raise CutoffCeilingError(
            f"{len(bad)} sweep point(s) hit the cutoff cap "
            f"{cutoff_cap} without converging: {what}")


def default_eta_grid(eta_max: float = 1.5, step: float = 0.025,
                     include_zero: bool = True) -> Tuple[float, ...]:
    """The points k * step up to the last at or below eta_max, k from 0,
    or from 1 without ``include_zero``.  Raises ValueError unless step > 0
    and eta_max >= 0, and for a grid of more than ETA_GRID_MAX_POINTS
    points, before it is made."""
    if step <= 0 or eta_max < 0:
        raise ValueError("need step > 0 and eta_max >= 0")
    # the last point k * step stays at or below eta_max; the 1e-9 slack
    # keeps a quotient that rounding leaves just under an integer
    # (0.3 / 0.1 = 2.9999999999999996) from losing its top point
    last = np.floor(eta_max / step + 1e-9)
    if last >= ETA_GRID_MAX_POINTS:
        raise ValueError(f"the eta grid up to eta_max {eta_max:g} in steps of {step:g} "
                         f"has over {ETA_GRID_MAX_POINTS} points")
    n = int(last)
    grid = [round(k * step, 12) for k in range(0, n + 1)]
    if not include_zero:
        grid = [g for g in grid if g > 0]
        if not grid:
            raise ValueError(f"the eta grid up to eta_max {eta_max:g} in steps of "
                             f"{step:g} holds no eta > 0")
    return tuple(grid)


# ---------------------------------------------------------------------------
# Taylor-order study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorStudy:
    orders: Tuple[int, ...]
    eta_grid: Tuple[float, ...]
    cutoff: int
    levels: int
    tol: float
    # errors[i_order][i_eta]: max relative transition error; NaN past the
    # first exceedance of tol (points after the scan stopped)
    errors: Tuple[Tuple[float, ...], ...]
    eta_star: Tuple[float, ...]
    first_bad: Tuple[Optional[float], ...]
    # exact_points[i_order]: the leading grid points whose order-n Maclaurin
    # cos/sin equal cos/sin bit for bit; their error is 0.0 and neither
    # model was built or solved there
    exact_points: Tuple[int, ...]

    def scanned(self, i_order: int) -> int:
        """Grid points the scan of the i-th order reached."""
        return int(np.count_nonzero(~np.isnan(self.errors[i_order])))


def taylor_study(orders: Sequence[int], eta_grid: Sequence[float] = None,
                 detuning: float = 0.0, cutoff: int = 200, levels: int = 5,
                 tol: float = 0.01, threads: int = 1) -> TaylorStudy:
    """Maximum relative transition error of the order-n trigonometric
    truncation against the full model, scanned in eta per order.

    Both spectra are taken at the same fixed cutoff: the low-order models are
    unbounded below as operators on the untruncated space, so their spectra
    only make sense at a stated truncation.  The per-order scan stops at the
    first eta whose error exceeds tol; eta_star is the last grid value before
    that, first_bad the value that crossed (None when the grid never crossed).
    Each order evaluates its Maclaurin cos/sin once, as one table over the
    grid: a row of 2 eta x per eta, x the spectrum of X
    (``qops.quadrature_values``), formed as ``rabi.taylor_is_exact`` forms
    it.  Each row is the one-row evaluation bit for bit
    (``rabi.maclaurin_cos_sin``).  Where a row equals cos/sin bit for bit,
    the two term lists are equal array for array, so the point's error is
    0.0 and neither model is built or solved; the leading run of such rows
    is taken this way, and ``exact_points`` counts it.  Past it, each
    Taylor model takes its row as node values
    (``rabi.terms_H_C_rotated``, which is ``rabi.terms_H_C_taylor`` on
    them).  The scans walk the grid together, one batch of solves per eta
    on up to ``threads`` worker processes: the full model, solved once at
    each eta some scan still needs, and each order still scanning there.
    The tables stay in this process.  Both models are
    solved from the real parity blocks ``linalg.parity_block_sum`` writes
    of their terms.  Raises ValueError for an order below 1, a repeated
    order or tol <= 0, and DimensionOverflowError, before X is solved, when
    the qubit-cavity dimension 2 (cutoff + 1) exceeds the cap.
    """
    if eta_grid is None:
        eta_grid = default_eta_grid(1.6, include_zero=False)
    eta_grid = tuple(float(e) for e in eta_grid)
    orders = tuple(int(n) for n in orders)
    if any(n < 1 for n in orders):
        raise ValueError("orders must be >= 1")
    _reject_repeats("order", orders)
    _check_tol(tol)
    check_dim(2 * (cutoff + 1))

    # one row per eta: the spectrum of 2 eta X, formed as
    # rabi.taylor_is_exact and the term lists form it
    x = (2.0 * np.array(eta_grid))[:, None] * quadrature_values(cutoff)
    cos_x, sin_x = np.cos(x), np.sin(x)
    tables = [rabi_mod.maclaurin_cos_sin(x, n) for n in orders]
    # per order, the leading run of points where the order-n model is the
    # full model bit for bit; either solve could only give err = 0.0
    exact_points = []
    for cos, sin in tables:
        exact_row = np.all(cos == cos_x, axis=1) & np.all(sin == sin_x, axis=1)
        exact_points.append(int(np.argmin(exact_row)) if not exact_row.all()
                            else len(eta_grid))

    def terms(i, k):
        # order k's model at eta i, or the full model for k = None
        p = _rabi_params(eta_grid[i], detuning, cutoff)
        if k is None:
            return rabi_mod.terms_H_C_correct(p)
        cos, sin = tables[k]
        return rabi_mod.terms_H_C_rotated(p, lambda _: (cos[i], sin[i]))

    def solve(task):
        # the terms are freed before the eigensolve, whose scratch then
        # reuses their memory; held through it, the heap grows and is
        # trimmed back on every solve (at the defaults, about 19,000 more
        # page faults and a fifth more time)
        return lowest_transitions(parity_block_sum(terms(*task)), levels)

    # the grid is walked in waves, one batch per eta: the full model, once,
    # and each order whose scan is still running past its exact run
    rows = [[] for _ in orders]
    star, first = [0.0] * len(orders), [None] * len(orders)
    with _ordered_map(solve, threads, len(eta_grid) * (len(orders) + 1), len(orders) + 1) as run:
        for i, eta in enumerate(eta_grid):
            scanning = [k for k in range(len(orders)) if first[k] is None]
            solving = [k for k in scanning if i >= exact_points[k]]
            errs = dict.fromkeys(scanning, 0.0)
            if solving:
                ref, *spectra = run([(i, None)] + [(i, k) for k in solving])
                for k, t in zip(solving, spectra):
                    errs[k] = float(np.max(np.abs(t - ref) / np.maximum(ref, OMEGA_C)))
            for k in scanning:
                rows[k].append(errs[k])
                if errs[k] > tol:
                    first[k] = eta
                else:
                    star[k] = eta
    errors = tuple(tuple(row + [float("nan")] * (len(eta_grid) - len(row)))
                   for row in rows)
    return TaylorStudy(orders=orders, eta_grid=eta_grid, cutoff=cutoff,
                       levels=levels, tol=tol, errors=errors, eta_star=tuple(star),
                       first_bad=tuple(first), exact_points=tuple(exact_points))


# ---------------------------------------------------------------------------
# alpha-family invariance study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaStudy:
    alphas: Tuple[float, ...]
    eta_grid: Tuple[float, ...]
    detuning: float
    levels: int
    # spread[i_eta]: max over levels of (max over alpha - min over alpha)
    spreads: Tuple[float, ...]
    max_spread: float
    tol: float
    # every member converged and max_spread <= tol
    passed: bool
    negative_control: bool
    # one point per (eta, alpha), alphas fastest, as the study solved them
    points: Tuple[SweepPoint, ...]

    @property
    def verdict(self) -> str:
        """PASS, FAIL on the spread, or UNCONVERGED when a member reached the
        cutoff cap unconverged: a spread of truncated transitions judges the
        truncation, not the gauge."""
        if self.passed:
            return "PASS"
        return "FAIL" if all(p.converged for p in self.points) else "UNCONVERGED"


def alpha_invariance_study(alphas: Sequence[float], eta_grid: Sequence[float],
                           detuning: float = 0.0, levels: int = 6,
                           policy: ConvergencePolicy = ConvergencePolicy(),
                           tol: float = 1e-6, negative_control: bool = False,
                           threads: int = 1) -> AlphaStudy:
    """Spread of transition energies across the gauge family.

    With negative_control=True the alpha=1 member is replaced by the naive
    Coulomb-gauge model, which must break the invariance at strong coupling;
    that member is solved from its banded parity chains, the family members
    from the real parity blocks ``linalg.parity_block_sum`` writes of
    ``rabi.terms_H_alpha``.  Each member is converged in the cutoff as a
    sweep point is, and the study keeps the points, so that
    :func:`check_converged` judges them as it judges a sweep's; the spread
    is taken over the transitions at the cutoff each point reached.
    Raises ValueError when fewer than two alphas are given, since a family
    of one member tests no invariance, when negative_control is set
    and 1 is not among the alphas, since nothing would be replaced, when an
    alpha or an eta repeats, and when tol <= 0.
    """
    alphas = tuple(float(a) for a in alphas)
    eta_grid = tuple(float(e) for e in eta_grid)
    if len(alphas) < 2:
        raise ValueError(f"alphas must hold at least two gauges to compare, got {len(alphas)}")
    if not eta_grid:
        raise ValueError("eta_grid must be nonempty")
    _reject_repeats("alpha", alphas)
    _reject_repeats("eta", eta_grid)
    _check_tol(tol)
    if negative_control and 1.0 not in alphas:
        raise ValueError("the negative control replaces the alpha=1 member; "
                         "alphas must include 1")

    def task(eta, alpha):
        if negative_control and alpha == 1.0:
            return "Cstd", eta, lambda c: rabi_mod.bands_H_C_standard(
                _rabi_params(eta, detuning, c))
        return f"alpha={alpha:g}", eta, lambda c: parity_block_sum(
            rabi_mod.terms_H_alpha(_rabi_params(eta, detuning, c), alpha))

    points = _converged_points([task(e, a) for e in eta_grid for a in alphas],
                               levels, policy, threads)
    k = len(alphas)
    spreads = []
    for i in range(len(eta_grid)):
        block = np.array([p.transitions for p in points[i * k:(i + 1) * k]])
        spreads.append(float((block.max(axis=0) - block.min(axis=0)).max()))
    max_spread = max(spreads)
    converged = all(p.converged for p in points)
    return AlphaStudy(alphas=alphas, eta_grid=eta_grid, detuning=detuning,
                      levels=levels, spreads=tuple(spreads), max_spread=max_spread,
                      tol=tol * OMEGA_C, passed=converged and max_spread <= tol * OMEGA_C,
                      negative_control=negative_control, points=points)


# ---------------------------------------------------------------------------
# tabular emission (CSV and gnuplot); %.12e everywhere for byte-stable reruns.
# Every table, the command line's own included, reaches disk by write_table
# ---------------------------------------------------------------------------

_UNITS_NOTE = "# energies in units of omega_c (hbar = 1); transitions are E_n - E_0"


def _fmt(v: float) -> str:
    return f"{v:.12e}"


def sweep_csv_lines(result: SweepResult) -> list:
    spec = result.spec
    k = spec.levels_reported
    lines = [_UNITS_NOTE,
             f"# family={spec.family} detuning={spec.detuning:g} "
             f"levels={k} n_dipoles={spec.n_dipoles}",
             f"# convergence: cutoff0={spec.policy.cutoff0} growth={GROWTH} "
             f"tol={spec.policy.tol:g} cap={spec.policy.cutoff_cap}",
             "model,eta,cutoff,converged," + ",".join(f"t{i}" for i in range(1, k + 1))]
    for p in result.points:
        lines.append(",".join([p.model, f"{p.eta:.6g}", str(p.cutoff),
                               str(int(p.converged))]
                              + [_fmt(t) for t in p.transitions]))
    return lines


def taylor_csv_lines(study: TaylorStudy) -> list:
    lines = [_UNITS_NOTE,
             f"# taylor study at fixed cutoff={study.cutoff}, levels={study.levels}, "
             f"tol={study.tol:g}; error = max_n |t_n - t_n_exact| / max(t_n_exact, omega_c)",
             "# eta_star per order: "
             + " ".join(f"n={n}:{s:g}" for n, s in zip(study.orders, study.eta_star)),
             "order,eta,max_rel_err"]
    for i, n in enumerate(study.orders):
        for eta, err in zip(study.eta_grid, study.errors[i]):
            if np.isnan(err):
                continue
            lines.append(f"{n},{eta:.6g},{_fmt(err)}")
    return lines


def alpha_csv_lines(study: AlphaStudy) -> list:
    lines = [_UNITS_NOTE,
             f"# alpha invariance: alphas={','.join(f'{a:g}' for a in study.alphas)} "
             f"detuning={study.detuning:g} levels={study.levels} "
             f"negative_control={int(study.negative_control)}",
             f"# max spread {_fmt(study.max_spread)} vs tol {study.tol:g}: "
             + study.verdict,
             "eta,spread"]
    for eta, s in zip(study.eta_grid, study.spreads):
        lines.append(f"{eta:.6g},{_fmt(s)}")
    return lines


def write_gnuplot_script(csv_path, gp_path, title: str, levels: int,
                         models: Sequence[str]) -> None:
    lines = ["set datafile separator ','",
             f"set title '{title}'",
             "set xlabel 'eta = g_D / omega_c'",
             "set ylabel '(E_n - E_0) / omega_c'",
             "set key outside"]
    plots = []
    for m in models:
        for lev in range(1, levels + 1):
            col = 4 + lev
            plots.append(f"'{csv_path}' using 2:(strcol(1) eq '{m}' ? ${col} : NaN) "
                         f"with lines title '{m} t{lev}'")
    lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    lines.append("pause -1 'press enter'")
    write_table(gp_path, lines)


def write_table(path, lines) -> None:
    """Write ``lines`` to ``path`` atomically: into a temporary file in the
    same directory, then renamed over ``path``, so a failed write leaves any
    earlier file intact and no half-written table behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
