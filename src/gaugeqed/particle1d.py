"""1D effective-particle solver on a uniform grid.

Provides the matter side of the full (many-level) light-matter models:

* ``solve_particle``                  lowest-M eigenpairs of p^2/2m + W(x) by
                                      4th-order finite differences, with a
                                      grid-refinement check; both grids are
                                      solved by the package's one band
                                      solver (``linalg.band_eigh``), each
                                      parity on x >= 0 for a
                                      mirror-symmetric potential
* ``nonlocal_kernel``                 the projected potential kernel V(x, x')
                                      showing how truncation delocalizes a
                                      local potential
* ``check_minimal_coupling_identity`` phase-conjugation route vs direct
                                      p -> p - qA0 substitution on the grid
                                      (both from the one band writer,
                                      ``_grid_bands``), and the spectra of
                                      both by the same band solver
* ``terms_full_H_D`` / ``terms_full_H_C``   untruncated-matter gauge partners
                                      in the M_used-level eigenbasis, each a
                                      list of (matter, field) terms
* ``trk_sum``                         oscillator-strength sum over retained
                                      levels

Units: hbar = 1 throughout; energies in units of omega_c = 1 when the field
is attached.  Grid eigenfunctions are normalized so that
sum(psi_i psi_j) dx = delta_ij; with the required boundary decay this equals
the trapezoid rule to roundoff.

For a mirror-symmetric potential on a grid centred on x = 0 the operator is
folded onto x >= 0, the even and the odd states are solved there with about
half the points and half the levels each, and mirroring rebuilds
eigenfunctions of exact parity (-1)^i; the basis is marked
``mirror_parity``.  The full models then commute with the parity
(-1)^i (-1)^{a^dag a}, and ``linalg.parity_band_sum`` writes their two
real parity chains from the same terms that ``linalg.kron_sum`` writes as
a dense matrix (``build_full_H_D`` and ``build_full_H_C``) and
``linalg.parity_block_sum`` as two parity blocks.  Ordered by Fock index
the chains are banded, about m_used wide, because every field operator of
the terms (n, the identity, a^dag - a, X and X^2) couples Fock levels at
most two apart.  Both parity writers raise ParityError for a basis whose
levels break the mirror parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import band_eigh, check_dim, kron_sum
from .qops import fock_factors

BOUNDARY_AMPLITUDE_MAX = 1e-8
GRID_SHIFT_MAX = 1e-6
# mirror symmetry of the sampled potential, relative to max(max|V|, 1)
MIRROR_POTENTIAL_RTOL = 1e-12
# projected-kernel samples per axis (the grid is stride-decimated to fit)
KERNEL_EVAL_POINTS = 801
# minimal-coupling check: largest entry residual, relative to the bare
# operator, in units of (q A0 dx)^2, the order of the stencils' error in
# the phase factor (the presets sit at 0.40 of it, a flipped cross-term sign
# at 266 and above); and the number of lowest levels whose spectra are
# compared
MINIMAL_COUPLING_RTOL = 1.0
MINIMAL_COUPLING_LEVELS = 8

# 4th-order central stencils
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0


class ParticleError(Exception):
    pass


class GridTooCoarseError(ParticleError):
    pass


class BoundaryLeakError(ParticleError):
    pass


class ParityOrderError(ParticleError):
    """The even and odd levels of a mirror-symmetric model do not interleave."""


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.n_points < 201:
            raise ValueError(f"n_points must be >= 201, got {self.n_points}")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def refined(self) -> "Grid1D":
        return Grid1D(self.x_min, self.x_max, 2 * self.n_points - 1)


@dataclass(frozen=True, eq=False)
class ParticleModel:
    """Grid, potential samples, mass, charge, and the retained level count."""

    grid: Grid1D
    potential: np.ndarray
    mass: float
    charge: float
    eigen_count: int
    potential_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        pot = np.array(self.potential, dtype=float, copy=True)
        if pot.shape != (self.grid.n_points,):
            raise ValueError("potential samples must match the grid")
        if not np.isfinite(pot).all():
            raise ValueError("potential samples must be finite")
        pot.flags.writeable = False
        object.__setattr__(self, "potential", pot)
        if self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not 1 <= self.eigen_count <= self.grid.n_points - 2:
            raise ValueError(f"eigen_count out of range: {self.eigen_count}")

    def refined(self) -> "ParticleModel":
        grid = self.grid.refined()
        if self.potential_fn is not None:
            pot = self.potential_fn(grid.points)
        else:
            from scipy.interpolate import CubicSpline
            pot = CubicSpline(self.grid.points, self.potential)(grid.points)
        return ParticleModel(grid, pot, self.mass, self.charge,
                             self.eigen_count, self.potential_fn)


def harmonic_model(omega0: float = 1.0, mass: float = 1.0, charge: float = 1.0,
                   x_half: float = 12.0, n_points: int = 6001,
                   eigen_count: int = 32) -> ParticleModel:
    def V(x):
        return 0.5 * mass * omega0 ** 2 * x ** 2
    grid = Grid1D(-x_half, x_half, n_points)
    return ParticleModel(grid, V(grid.points), mass, charge, eigen_count, V)


def double_well_model(mu: float = 1.2, lam: float = 0.25, mass: float = 1.0,
                      charge: float = 1.0, x_half: float = 8.0,
                      n_points: int = 12001, eigen_count: int = 50) -> ParticleModel:
    """Symmetric double well -mu x^2 + lam x^4; the shipped preset (mu=1.2,
    lam=0.25, m=1) has omega_21/omega_10 = 5.7, a strongly anharmonic
    flux-qubit-like spectrum."""
    if lam <= 0:
        raise ValueError("lam must be positive")

    def V(x):
        return -mu * x ** 2 + lam * x ** 4
    grid = Grid1D(-x_half, x_half, n_points)
    return ParticleModel(grid, V(grid.points), mass, charge, eigen_count, V)


def model_from_table(path, mass: float = 1.0, charge: float = 1.0,
                     eigen_count: int = 10) -> ParticleModel:
    """Tabulated potential: two-column text (x, V) on a uniform grid."""
    data = np.loadtxt(path)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("expected two columns (x, V)")
    x, v = data[:, 0], data[:, 1]
    # a NaN fails no comparison below, so it is refused here
    if not np.isfinite(x).all():
        raise ValueError("x column must be finite")
    dx = np.diff(x)
    if dx.size == 0 or np.any(dx <= 0):
        raise ValueError("x column must be strictly increasing")
    if np.max(np.abs(dx - dx[0])) > 1e-9 * abs(dx[0]):
        raise ValueError("x column must be uniformly spaced")
    grid = Grid1D(float(x[0]), float(x[-1]), x.size)
    return ParticleModel(grid, v, mass, charge, eigen_count)


@dataclass(frozen=True, eq=False)
class MatterBasis:
    """Lowest-M eigenpairs and matrix elements of x, p, x^2.

    ``x_elems`` is real symmetric, ``p_elems`` purely imaginary antisymmetric
    (real eigenfunctions); ``psi`` holds the normalized eigenfunctions as
    columns on the model grid.  ``refinement_shift`` is the largest
    eigenvalue move on halving the grid spacing.  ``mirror_parity`` marks a
    basis whose level i has exact parity (-1)^i, so x and p couple only
    levels of opposite parity and x^2 only levels of equal parity; the
    forbidden elements are exactly zero.
    """

    energies: np.ndarray
    x_elems: np.ndarray
    p_elems: np.ndarray
    x2_elems: np.ndarray
    psi: np.ndarray
    grid: Grid1D
    refinement_shift: float
    mirror_parity: bool = False

    def __post_init__(self):
        for name in ("energies", "x_elems", "p_elems", "x2_elems", "psi"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def m_levels(self) -> int:
        return self.energies.size

    def omega(self, i: int, j: int) -> float:
        return float(self.energies[i] - self.energies[j])

    def describe_solve(self) -> str:
        """One line naming the grid solve taken and the refinement shift
        against GRID_SHIFT_MAX."""
        n, m = self.grid.n_points, self.m_levels
        if self.mirror_parity:
            even, odd = (n - _half_start(n, p) for p in (1, -1))
            solve = f"mirror halves {even}+{odd} pts, {(m + 1) // 2}+{m // 2} levels"
        else:
            solve = f"full grid {n} pts, {m} levels"
        return (f"grid: {solve}; refinement shift {self.refinement_shift:.1e} "
                f"of {GRID_SHIFT_MAX:.0e}")


def _grid_bands(model: ParticleModel, q_a0: float = 0.0) -> np.ndarray:
    """(p - q A0)^2/2m + W on the grid by the 4th-order stencils, in lower
    band storage (row r holds the entries (j + r, j), padded at its end
    with the same stencil value): real at q_a0 = 0, complex Hermitian
    otherwise."""
    g = model.grid
    kin = 1.0 / (2.0 * model.mass * g.dx ** 2)
    bands = np.zeros((3, g.n_points), dtype=complex if q_a0 else float)
    bands[0] = -_D2[2] * kin + (model.potential + q_a0 ** 2 / (2.0 * model.mass))
    for r in (1, 2):
        bands[r] = -_D2[2 - r] * kin
        if q_a0:
            # cross term -(q A0/m) p with p = -i d/dx
            bands[r] += (1j * q_a0 / model.mass) * _D1[2 - r] / g.dx
    return bands


def _shift(model: ParticleModel) -> float:
    # below the potential minimum, and so below the spectrum: the 4th-order
    # kinetic stencil is positive semidefinite.  The wanted levels are then
    # the largest of the inverted operator, and the shifted operator is
    # positive definite, as the Cholesky factor of shift-invert needs
    return float(model.potential.min()) - 1.0


def _solve_grid(model: ParticleModel, vectors: bool, start: Optional[np.ndarray] = None):
    """The lowest eigen_count levels on the whole grid, the solve of a model
    without mirror symmetry: ascending energies and, with ``vectors`` (else
    None), eigenfunctions normalized to sum(psi^2) dx = 1 and signed so that
    the largest-magnitude sample is positive.  ``start``, samples on the
    grid, is the Lanczos start vector (``linalg.band_eigh``)."""
    w, v = band_eigh(_grid_bands(model), model.eigen_count, vectors, _shift(model), start)
    return w, None if v is None else v / np.sqrt(model.grid.dx)


def _prolonged(v: np.ndarray) -> np.ndarray:
    """Samples ``v`` carried to the grid of half the spacing: ``v`` itself
    at the even points and the 4-point stencil (-1, 9, 9, -1)/16 at the
    midpoints, with ``v`` zero past the edges."""
    padded = np.concatenate([[0.0], v, [0.0]])
    fine = np.empty(2 * v.size - 1)
    fine[0::2] = v
    fine[1::2] = (9.0 * (v[:-1] + v[1:]) - padded[:-3] - padded[3:]) / 16.0
    return fine


def _first_derivative(v: np.ndarray, dx: float) -> np.ndarray:
    """Columnwise 4th-order first derivative with zero padding outside."""
    out = np.zeros_like(v)
    for k, c in zip((-2, -1, 1, 2), (_D1[0], _D1[1], _D1[3], _D1[4])):
        if k > 0:
            out[:-k] += c * v[k:]
        else:
            out[-k:] += c * v[:k]
    return out / dx


def _mirror_symmetric(model: ParticleModel) -> bool:
    """A grid centred on x = 0 with max|V - V[::-1]| <=
    MIRROR_POTENTIAL_RTOL * max(max|V|, 1)."""
    g, pot = model.grid, model.potential
    if g.x_min != -g.x_max:
        return False
    return np.abs(pot - pot[::-1]).max() <= MIRROR_POTENTIAL_RTOL * max(np.abs(pot).max(), 1.0)


def _half_start(n_points: int, parity: int) -> int:
    """Full-grid index of the first point the parity-``parity`` half keeps:
    x = 0 when it is a grid point (odd n_points) and the state is even, else
    the first point with x > 0."""
    return n_points // 2 + (n_points % 2 == 1 and parity < 0)


def _fold(model: ParticleModel, parity: int) -> np.ndarray:
    """The grid operator of a mirror-symmetric model folded onto x >= 0 for
    the states of mirror parity ``parity`` (+1 even, -1 odd), in lower band
    storage over the points from ``_half_start`` on.

    A stencil entry that reaches a ghost point x < 0 lands on its mirror
    image, times ``parity``.  With x = 0 on the grid (odd n_points), an odd
    state vanishes there and the point is dropped; for an even state the
    row of x = 0 takes each neighbour twice, and scaling that row and its
    column by sqrt(2) keeps the operator symmetric (the sample at x = 0 is
    then sqrt(2) times the vector entry).  With the points at +-dx/2 (even
    n_points) the fold is symmetric as it stands.
    """
    full = _grid_bands(model)
    n = model.grid.n_points
    b1, b2 = full[1, 0], full[2, 0]
    bands = full[:, _half_start(n, parity):].copy()
    if n % 2 == 0:
        bands[0, 0] += parity * b1
        bands[1, 0] += parity * b2
    elif parity < 0:
        bands[0, 0] -= b2
    else:
        bands[0, 1] += b2
        bands[1:, 0] *= np.sqrt(2.0)
    return bands


def _half_solve(model: ParticleModel, parity: int, k: int, vectors: bool,
                start: Optional[np.ndarray] = None):
    """Lowest k levels of mirror parity ``parity`` from the folded operator:
    ascending energies and, with ``vectors`` (else None), their
    eigenfunctions rebuilt on the whole grid by mirroring, normalized to
    sum(psi^2) dx = 1 and signed as ``linalg.band_eigh`` signs the folded
    vectors.  ``start``, samples on the whole grid, is folded as the
    operator is and is the Lanczos start vector."""
    n = model.grid.n_points
    first_point = _half_start(n, parity)
    if start is not None:
        start = start[first_point:].copy()
        if n % 2 == 1 and parity > 0:
            start[0] /= np.sqrt(2.0)
    w, u = band_eigh(_fold(model, parity), k, vectors, _shift(model), start)
    if not vectors:
        return w, None
    if n % 2 == 1 and parity > 0:
        u[0] *= np.sqrt(2.0)
    psi = np.zeros((n, k))
    psi[first_point:] = u
    psi[: n - first_point] = parity * u[::-1]
    # each half carries half the weight
    return w, psi / np.sqrt(2.0 * model.grid.dx)


def _mirror_solve(model: ParticleModel, vectors: bool, starts=(None, None)):
    """Both parities of a mirror-symmetric model on the half grid, merged by
    index: level i is the parity (-1)^i state, as the bound states of a 1D
    well alternate in parity (``_check_interleaved`` verifies it).  Returns
    the energies and, with ``vectors`` (else None), the eigenfunctions.
    ``starts`` holds the even and the odd solve's Lanczos start, samples on
    the whole grid that ``_half_solve`` folds; ``solve_particle`` passes the
    coarse levels of each parity prolonged to the refined grid."""
    n, m = model.grid.n_points, model.eigen_count
    w = np.empty(m)
    psi = np.empty((n, m)) if vectors else None
    for (first, parity), start in zip(((0, 1), (1, -1)), starts):
        k = len(range(first, m, 2))
        if k == 0:
            continue
        w[first::2], cols = _half_solve(model, parity, k, vectors, start)
        if vectors:
            psi[:, first::2] = cols
    return w, psi


def _check_interleaved(w: np.ndarray, grid: Grid1D) -> None:
    bad = np.flatnonzero(np.diff(w) <= 0)
    if bad.size:
        i = int(bad[0])
        raise ParityOrderError(
            f"mirror-parity levels {i} and {i + 1} do not interleave on the "
            f"{grid.n_points}-point grid ({w[i]:.12e} >= {w[i + 1]:.12e})")


def solve_particle(model: ParticleModel) -> MatterBasis:
    """Lowest eigen_count eigenpairs with boundary and discretization checks.

    Raises BoundaryLeakError when any retained eigenfunction fails to decay
    below 1e-8 at the grid edge, and GridTooCoarseError when halving the grid
    spacing moves any retained eigenvalue by more than 1e-6.  Both grids are
    solved by ``linalg.band_eigh`` about the shift below the potential
    minimum: the eigenvectors, and the eigenvalues of the presets' grids, by
    banded Cholesky shift-invert Lanczos, whose ?pbtrf factor certifies that
    the shift lies below the spectrum (ShiftAboveSpectrumError otherwise);
    the eigenvalues alone of a band too small for it, and a band too crowded
    for Lanczos, by LAPACK ?sbevx.  The refined grid's Lanczos starts from
    the coarse eigenfunctions it has to reproduce (nested iteration): once
    they pass the boundary check, the sum of each parity's (of all, on the
    whole grid) is prolonged to the refined grid (``_prolonged``) and folded
    as the operator is, and the solve stops after about 36 steps a parity
    where the constant start takes 56.  This cannot turn a failing check
    into a pass: Lanczos levels never lie below the operator's, and a level
    that the start misses is replaced by the next one up, which raises the
    shift.

    A mirror-symmetric model (see ``_mirror_symmetric``) is solved on
    x >= 0, one half-grid solve per parity (``_fold``), and its levels are
    merged by index; ParityOrderError when the two parities do not
    interleave.  Its eigenfunctions are exactly parity-definite, the
    matrix elements that parity forbids are set to exactly zero, and
    ``mirror_parity`` is set on the result.  Any other model is solved on
    the whole grid.
    """
    g = model.grid
    mirror = _mirror_symmetric(model)
    w, psi = (_mirror_solve if mirror else _solve_grid)(model, True)
    edge = max(float(np.abs(psi[0]).max()), float(np.abs(psi[-1]).max()))
    if edge > BOUNDARY_AMPLITUDE_MAX:
        raise BoundaryLeakError(
            f"eigenfunction amplitude {edge:.2e} at the grid edge exceeds "
            f"{BOUNDARY_AMPLITUDE_MAX:.1e}; widen the grid")
    fine = model.refined()
    if mirror:
        _check_interleaved(w, g)
        starts = [_prolonged(psi[:, first::2].sum(axis=1)) for first in (0, 1)]
        w_fine, _ = _mirror_solve(fine, False, starts)
        _check_interleaved(w_fine, fine.grid)
    else:
        w_fine, _ = _solve_grid(fine, False, _prolonged(psi.sum(axis=1)))
    shift = float(np.abs(w - w_fine).max())
    if shift > GRID_SHIFT_MAX:
        raise GridTooCoarseError(
            f"eigenvalue shift {shift:.2e} on grid refinement exceeds "
            f"{GRID_SHIFT_MAX:.1e}; increase n_points")
    x = g.points
    dx = g.dx
    xpsi = psi * x[:, None]
    x_el = psi.T @ xpsi * dx
    x_el = (x_el + x_el.T) / 2.0
    x2_el = psi.T @ (xpsi * x[:, None]) * dx
    x2_el = (x2_el + x2_el.T) / 2.0
    praw = psi.T @ _first_derivative(psi, dx) * dx
    p_el = -1j * (praw - praw.T) / 2.0
    if mirror:
        i = np.arange(w.size)
        same = (i[:, None] + i[None, :]) % 2 == 0
        x_el[same] = 0.0
        p_el[same] = 0.0
        x2_el[~same] = 0.0
    return MatterBasis(energies=w, x_elems=x_el, p_elems=p_el, x2_elems=x2_el,
                       psi=psi, grid=g, refinement_shift=shift,
                       mirror_parity=mirror)


@dataclass(frozen=True, eq=False)
class NonlocalKernel:
    """Projected potential kernel samples and the off-diagonality measure."""

    x: np.ndarray
    kernel: np.ndarray
    k_levels: int
    band_width: float
    off_diagonality: float

    def __post_init__(self):
        self.x.flags.writeable = False
        self.kernel.flags.writeable = False


def nonlocal_kernel(basis: MatterBasis, model: ParticleModel, k: int) -> NonlocalKernel:
    """k-level projected potential kernel V_k(x, x') = sum_ij psi_i(x) W_ij psi_j(x').

    This projects the whole potential operator (P W P); its k -> M limit
    rebuilds W(x) delta(x - x'), so the off-diagonality measure r (the
    |V|^2 fraction with |x - x'| > band_width) shrinks as k grows.
    The band width is the oscillator length 1/sqrt(m omega_10) of the
    model's first transition.

    The kernel is evaluated on a stride-decimated subgrid (at most
    KERNEL_EVAL_POINTS per axis); the measure integrals use the same subgrid.
    """
    if not 2 <= k <= basis.m_levels:
        raise ValueError(f"k must be in [2, {basis.m_levels}], got {k}")
    dx = model.grid.dx
    psi_k = basis.psi[:, :k]
    W = psi_k.T @ (psi_k * model.potential[:, None]) * dx
    W = (W + W.T) / 2.0
    w10 = basis.omega(1, 0)
    if w10 <= 0:
        raise ValueError("degenerate lowest levels: the band width is undefined")
    band_width = 1.0 / np.sqrt(model.mass * w10)
    stride = max(1, -((model.grid.n_points - 1) // -(KERNEL_EVAL_POINTS - 1)))
    idx = np.arange(0, model.grid.n_points, stride)
    xs = model.grid.points[idx]
    K = psi_k[idx] @ W @ psi_k[idx].T
    dxe = dx * stride
    weight = K ** 2 * dxe ** 2
    sep = np.abs(xs[:, None] - xs[None, :])
    total = float(weight.sum())
    off = float(weight[sep > band_width].sum())
    r = off / total if total > 0 else 0.0
    return NonlocalKernel(x=xs, kernel=K, k_levels=k, band_width=float(band_width),
                          off_diagonality=r)


@dataclass(frozen=True)
class MinimalCouplingReport:
    """Residual between the phase-conjugation and direct-substitution routes."""

    q_a0: float
    residual_rel: float
    # the residual's pass bound, MINIMAL_COUPLING_RTOL * (q A0 dx)^2
    bound: float
    spectrum_dev: float
    n_points: int
    passed: bool


def check_minimal_coupling_identity(model: ParticleModel, A0: float) -> MinimalCouplingReport:
    """Verify that conjugating p^2/2m + W by the diagonal phase exp(i q A0 x)
    reproduces the minimal-coupling substitution (p - q A0)^2/2m + W.

    Both routes are exact in the continuum; on the grid they differ by the
    finite-difference representation error, which scales as (q A0 dx)^2.  The
    residual is the largest mismatch over the lower band (the upper is its
    mirror image) relative to the largest entry of the bare operator; the
    check passes when it is within MINIMAL_COUPLING_RTOL * (q A0 dx)^2, so
    that it judges the identity and not the grid spacing.  The phase
    conjugation leaves the spectrum exactly invariant, so the lowest
    MINIMAL_COUPLING_LEVELS eigenvalues of the conjugated operator are also
    compared against the bare ones; both
    pentadiagonal bands, the real one and the complex Hermitian one, are
    solved by ``linalg.band_eigh`` about the grid solve's shift,
    ShiftAboveSpectrumError when ?pbtrf refuses it.
    """
    n, dx = model.grid.n_points, model.grid.dx
    q_a0 = model.charge * A0
    bare = _grid_bands(model)
    # conjugation multiplies band row r, the entries (j + r, j), by
    # exp(i q A0 r dx); the upper band is its mirror image
    conj = bare * np.exp(1j * q_a0 * np.arange(3) * dx)[:, None]
    residual_rel = float(np.abs(conj - _grid_bands(model, q_a0)).max()) \
        / float(np.abs(bare).max())
    # the conjugation keeps the spectrum, so one shift serves both bands
    sigma = _shift(model)
    w_bare, _ = band_eigh(bare, MINIMAL_COUPLING_LEVELS, sigma=sigma)
    w_conj, _ = band_eigh(conj, MINIMAL_COUPLING_LEVELS, sigma=sigma)
    spectrum_dev = float(np.abs(w_bare - w_conj).max())
    bound = MINIMAL_COUPLING_RTOL * (q_a0 * dx) ** 2
    return MinimalCouplingReport(q_a0=q_a0, residual_rel=residual_rel, bound=bound,
                                 spectrum_dev=spectrum_dev, n_points=n,
                                 passed=residual_rel <= bound)


def _check_m_used(basis: MatterBasis, m_used: int) -> None:
    if not 2 <= m_used <= basis.m_levels:
        raise ValueError(f"m_used must be in [2, {basis.m_levels}], got {m_used}")


def terms_full_H_D(model: ParticleModel, basis: MatterBasis, cutoff: int, A0: float,
                   m_used: int) -> list:
    """Dipole-gauge light-matter model with m_used matter levels and Fock
    levels 0..cutoff retained:
    a^dag a + H_0 + q^2 A0^2 x^2 + i q A0 x (a^dag - a), as the
    (matter, real field) terms 1 (x) n, H_0 (x) 1, q^2 A0^2 x^2 (x) 1 and
    q A0 i x (x) (a^dag - a), after the dimension cap.

    The x^2 term keeps the full matrix elements of x^2 rather than the square
    of the truncated x, so the m_used -> M limit is the untruncated model.
    """
    _check_m_used(basis, m_used)
    check_dim(m_used * (cutoff + 1))
    f = fock_factors(cutoff)
    q = model.charge
    return [(np.eye(m_used), f.n),
            (np.diag(basis.energies[:m_used]), f.eye),
            (q ** 2 * A0 ** 2 * basis.x2_elems[:m_used, :m_used], f.eye),
            (q * A0 * 1j * basis.x_elems[:m_used, :m_used], f.P)]


def terms_full_H_C(model: ParticleModel, basis: MatterBasis, cutoff: int, A0: float,
                   m_used: int) -> list:
    """Coulomb-gauge partner: a^dag a + H_0 - (q/m) A0 p (a + a^dag)
    + (q^2 A0^2 / 2m)(a + a^dag)^2, with p in the m_used-level eigenbasis, as
    the (matter, real field) terms 1 (x) n, H_0 (x) 1, -(q/m) A0 p (x) X and
    (q^2 A0^2 / 2m) 1 (x) X^2, X = a + a^dag, after the dimension cap."""
    _check_m_used(basis, m_used)
    check_dim(m_used * (cutoff + 1))
    f = fock_factors(cutoff)
    q = model.charge
    return [(np.eye(m_used), f.n),
            (np.diag(basis.energies[:m_used]), f.eye),
            (-((q / model.mass) * A0) * basis.p_elems[:m_used, :m_used], f.X),
            (q ** 2 * A0 ** 2 / (2.0 * model.mass) * np.eye(m_used), f.X2)]


def build_full_H_D(model: ParticleModel, basis: MatterBasis, cutoff: int,
                   A0: float, m_used: int) -> np.ndarray:
    """The dense matrix of ``terms_full_H_D``."""
    return kron_sum(terms_full_H_D(model, basis, cutoff, A0, m_used))


def build_full_H_C(model: ParticleModel, basis: MatterBasis, cutoff: int,
                   A0: float, m_used: int) -> np.ndarray:
    """The dense matrix of ``terms_full_H_C``."""
    return kron_sum(terms_full_H_C(model, basis, cutoff, A0, m_used))


def trk_sum(basis: MatterBasis, model: ParticleModel,
            m_used: Optional[int] = None) -> float:
    """Oscillator-strength sum S = sum_n 2 m omega_n0 |x_n0|^2 over retained
    levels; equals 1 exactly for the untruncated sum."""
    m = basis.m_levels if m_used is None else m_used
    if not 2 <= m <= basis.m_levels:
        raise ValueError(f"m_used must be in [2, {basis.m_levels}], got {m}")
    w = basis.energies[1:m] - basis.energies[0]
    x0 = np.abs(basis.x_elems[0, 1:m]) ** 2
    return float(np.sum(2.0 * model.mass * w * x0))
