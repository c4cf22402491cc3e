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
``rabi.bands_H_C_standard`` write.  An eta grid is k * step up to the last
point at or below eta_max.  The Taylor study takes a point whose Maclaurin
cos/sin match cos/sin to the last bit as the full model itself: its error
is exactly 0.0, and neither model is built or solved there.

Sweep points are independent work items; an optional thread pool fans them
out and the results are reassembled in grid order, so the emitted tables are
byte-identical for any thread count.  The pool is the package's only
parallelism: importing ``gaugeqed`` pins OpenBLAS to one thread unless the
environment sets its thread count.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from . import dicke as dicke_mod
from . import rabi as rabi_mod
from .linalg import (ParityBands, ParityBlocks, banded_parity_eigvalsh, block_parity_eigvalsh,
                     hermitian_eig, parity_block_sum)

OMEGA_C = 1.0  # all energies in units of the cavity frequency
# factor by which the Fock cutoff grows between convergence checks
GROWTH = 2


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
        if self.cutoff_cap < self.cutoff0:
            raise ValueError("cutoff_cap below initial cutoff")


def lowest_transitions(H: Union[np.ndarray, ParityBlocks, ParityBands],
                       levels: int) -> np.ndarray:
    """E_n - E_0 for n = 1..levels, by the solver the holder's type selects.

    ``ParityBlocks`` (the real parity blocks that ``linalg.parity_block_sum``
    writes for the corrected Coulomb, Taylor-order, alpha-family, Dicke and
    fluxonium models) are solved by
    :func:`~gaugeqed.linalg.block_parity_eigvalsh` and ``ParityBands`` (the
    banded chains of the Rabi D and naive Coulomb models, and those that
    ``linalg.parity_band_sum`` writes for the mirror-parity full models) by
    :func:`~gaugeqed.linalg.banded_parity_eigvalsh`, each for its lowest
    levels + 1 eigenvalues only.  A matrix is solved by one dense complex
    solve, :func:`~gaugeqed.linalg.hermitian_eig`.  Raises ValueError when
    levels < 1 or when fewer than levels + 1 eigenvalues exist.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if isinstance(H, ParityBlocks):
        w = block_parity_eigvalsh(H, levels + 1)
    elif isinstance(H, ParityBands):
        w = banded_parity_eigvalsh(H, levels + 1)
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
    is hit, flagged unconverged rather than dropped.
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

    def unconverged(self) -> Tuple[SweepPoint, ...]:
        return tuple(p for p in self.points if not p.converged)


def _map_ordered(fn, items, threads: int):
    if threads <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def run_sweep(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Transitions of every (model, eta) point at auto-converged cutoff."""
    builders = FAMILIES[spec.family]

    def work(task):
        model, eta = task
        build = lambda c: builders[model](eta, spec.detuning, c, spec.n_dipoles)
        t, cutoff, ok, trail = converged_transitions(build, spec.levels_reported,
                                                     spec.policy)
        return SweepPoint(model=model, eta=eta, cutoff=cutoff, converged=ok,
                          transitions=tuple(float(v) for v in t), trail=trail)

    tasks = [(m, e) for m in spec.models for e in spec.eta_grid]
    return SweepResult(spec=spec, points=tuple(_map_ordered(work, tasks, threads)))


def check_converged(result: SweepResult) -> None:
    """Raise CutoffCeilingError if any point hit the cutoff cap unconverged."""
    bad = result.unconverged()
    if bad:
        what = ", ".join(f"{p.model}@eta={p.eta:g}" for p in bad[:8])
        raise CutoffCeilingError(
            f"{len(bad)} sweep point(s) hit the cutoff cap "
            f"{result.spec.policy.cutoff_cap} without converging: {what}")


def default_eta_grid(eta_max: float = 1.5, step: float = 0.025,
                     include_zero: bool = True) -> Tuple[float, ...]:
    if step <= 0 or eta_max < 0:
        raise ValueError("need step > 0 and eta_max >= 0")
    # the last point k * step stays at or below eta_max; the 1e-9 slack
    # keeps a quotient that rounding leaves just under an integer
    # (0.3 / 0.1 = 2.9999999999999996) from losing its top point
    n = int(np.floor(eta_max / step + 1e-9))
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
    Where the order-n Maclaurin cos/sin equal cos/sin bit for bit on the
    spectrum of 2 eta X (``rabi.taylor_is_exact``), the two term lists are
    equal array for array, so the point's error is 0.0 and neither model is
    built or solved.  A scan checks this only while every earlier point of
    its order was exact, so an order pays one Maclaurin evaluation past its
    exact run; ``exact_points`` counts the points taken this way.  The
    orders are scanned on ``threads`` workers; the full model is solved
    only at the etas some scan still needs.  Both models are solved from the
    real parity blocks ``linalg.parity_block_sum`` writes of their terms
    (``rabi.terms_H_C_taylor``, ``rabi.terms_H_C_correct``).  Raises
    ValueError for an order below 1, a repeated order or tol <= 0.
    """
    if eta_grid is None:
        eta_grid = default_eta_grid(1.6, include_zero=False)
    eta_grid = tuple(float(e) for e in eta_grid)
    orders = tuple(int(n) for n in orders)
    if any(n < 1 for n in orders):
        raise ValueError("orders must be >= 1")
    _reject_repeats("order", orders)
    _check_tol(tol)

    # exact spectra are solved the first time any order's scan reaches that
    # eta and shared across orders; the per-index lock makes concurrent
    # scans wait for one solve instead of repeating it
    exact = [None] * len(eta_grid)
    locks = [threading.Lock() for _ in eta_grid]

    def exact_at(i):
        with locks[i]:
            if exact[i] is None:
                p = _rabi_params(eta_grid[i], detuning, cutoff)
                exact[i] = lowest_transitions(
                    parity_block_sum(rabi_mod.terms_H_C_correct(p)), levels)
            return exact[i]

    def scan(n):
        row, star, first, exact_points = [], 0.0, None, 0
        for i, eta in enumerate(eta_grid):
            p = _rabi_params(eta, detuning, cutoff)
            # the leading run of points where the order-n model is the full
            # model bit for bit; either solve could only give err = 0.0
            if exact_points == i and rabi_mod.taylor_is_exact(p, n):
                exact_points += 1
                err = 0.0
            else:
                t = lowest_transitions(
                    parity_block_sum(rabi_mod.terms_H_C_taylor(p, n)), levels)
                ref = exact_at(i)
                err = float(np.max(np.abs(t - ref) / np.maximum(ref, OMEGA_C)))
            row.append(err)
            if err > tol:
                first = eta
                break
            star = eta
        row += [float("nan")] * (len(eta_grid) - len(row))
        return tuple(row), star, first, exact_points

    scans = _map_ordered(scan, orders, threads)
    return TaylorStudy(orders=orders, eta_grid=eta_grid, cutoff=cutoff,
                       levels=levels, tol=tol, errors=tuple(s[0] for s in scans),
                       eta_star=tuple(s[1] for s in scans),
                       first_bad=tuple(s[2] for s in scans),
                       exact_points=tuple(s[3] for s in scans))


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
    passed: bool
    negative_control: bool


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
    ``rabi.terms_H_alpha``.  Raises ValueError when negative_control is set
    and 1 is not among the alphas, since nothing would be replaced, when an
    alpha or an eta repeats, and when tol <= 0.
    """
    alphas = tuple(float(a) for a in alphas)
    eta_grid = tuple(float(e) for e in eta_grid)
    if not alphas or not eta_grid:
        raise ValueError("alphas and eta_grid must be nonempty")
    _reject_repeats("alpha", alphas)
    _reject_repeats("eta", eta_grid)
    _check_tol(tol)
    if negative_control and 1.0 not in alphas:
        raise ValueError("the negative control replaces the alpha=1 member; "
                         "alphas must include 1")

    def work(task):
        eta, alpha = task
        if negative_control and alpha == 1.0:
            build = lambda c: rabi_mod.bands_H_C_standard(_rabi_params(eta, detuning, c))
        else:
            build = lambda c: parity_block_sum(
                rabi_mod.terms_H_alpha(_rabi_params(eta, detuning, c), alpha))
        t, _, ok, _ = converged_transitions(build, levels, policy)
        return t, ok

    tasks = [(e, a) for e in eta_grid for a in alphas]
    results = _map_ordered(work, tasks, threads)
    spreads = []
    for i, eta in enumerate(eta_grid):
        block = np.array([results[i * len(alphas) + j][0] for j in range(len(alphas))])
        spreads.append(float((block.max(axis=0) - block.min(axis=0)).max()))
    max_spread = max(spreads)
    return AlphaStudy(alphas=alphas, eta_grid=eta_grid, detuning=detuning,
                      levels=levels, spreads=tuple(spreads), max_spread=max_spread,
                      tol=tol * OMEGA_C, passed=max_spread <= tol * OMEGA_C,
                      negative_control=negative_control)


# ---------------------------------------------------------------------------
# tabular emission (CSV and gnuplot); %.12e everywhere for byte-stable reruns
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


def write_sweep_csv(result: SweepResult, path) -> None:
    _write_lines(path, sweep_csv_lines(result))


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


def write_taylor_csv(study: TaylorStudy, path) -> None:
    _write_lines(path, taylor_csv_lines(study))


def alpha_csv_lines(study: AlphaStudy) -> list:
    lines = [_UNITS_NOTE,
             f"# alpha invariance: alphas={','.join(f'{a:g}' for a in study.alphas)} "
             f"detuning={study.detuning:g} levels={study.levels} "
             f"negative_control={int(study.negative_control)}",
             f"# max spread {_fmt(study.max_spread)} vs tol {study.tol:g}: "
             + ("PASS" if study.passed else "FAIL"),
             "eta,spread"]
    for eta, s in zip(study.eta_grid, study.spreads):
        lines.append(f"{eta:.6g},{_fmt(s)}")
    return lines


def write_alpha_csv(study: AlphaStudy, path) -> None:
    _write_lines(path, alpha_csv_lines(study))


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
    _write_lines(gp_path, lines)


def _write_lines(path, lines) -> None:
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
