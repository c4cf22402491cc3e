"""Grid solver, projected kernels, minimal-coupling check, full-model scan.

The two shipped presets (harmonic, double well) are solved once per session
via fixtures in conftest.py.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import oracles
from conftest import FULL_MODEL_M_LEVELS
from gaugeqed import (
    BoundaryLeakError,
    ConvergenceFailureError,
    DimensionOverflowError,
    Grid1D,
    GridTooCoarseError,
    ParityBands,
    ParityError,
    ParticleModel,
    ShiftAboveSpectrumError,
    build_full_H_C,
    build_full_H_D,
    check_minimal_coupling_identity,
    double_well_model,
    harmonic_model,
    hermitian_eig,
    kron_sum,
    lowest_transitions,
    model_from_table,
    nonlocal_kernel,
    parity_band_sum,
    parity_block_sum,
    parity_eigvalsh,
    particle1d,
    solve_particle,
    terms_full_H_C,
    terms_full_H_D,
    trk_sum,
)
from gaugeqed import linalg
from gaugeqed.linalg import SHIFT_INVERT_MIN_WORK, band_eigh

# double-well preset (mu=1.2, lam=0.25, m=1): frozen from the HO-basis oracle
GOLD_DW_OMEGA10 = 2.165310375385e-01
GOLD_DW_D10 = 1.240285677493e+00
GOLD_DW_RATIO = 5.7056

# off-diagonality of the k-level projected kernel on the harmonic preset,
# 751-point evaluation grid (regression values; the invariant is the decay)
GOLD_HARMONIC_R = {
    2: 3.877667437814e-01,
    4: 2.694113481429e-01,
    8: 1.744358168847e-01,
    16: 1.197581386057e-01,
    32: 8.268306037805e-02,
}


# ---------------------------------------------------------------------------
# models and grids
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(-1.0, -2.0, 1001)
    with pytest.raises(ValueError):
        Grid1D(-1.0, 1.0, 101)
    g = Grid1D(-1.0, 1.0, 201)
    assert g.dx == pytest.approx(0.01)
    assert g.refined().n_points == 401


def test_model_validation():
    g = Grid1D(-5.0, 5.0, 501)
    v = np.zeros(501)
    with pytest.raises(ValueError):
        ParticleModel(g, v[:-1], 1.0, 1.0, 4)
    with pytest.raises(ValueError):
        ParticleModel(g, v, -1.0, 1.0, 4)
    with pytest.raises(ValueError):
        ParticleModel(g, v, 1.0, 1.0, 0)
    with pytest.raises(ValueError):
        ParticleModel(g, v, 1.0, 1.0, 500)
    # a non-finite sample is bad input, not a numerical failure of the solve
    for bad in (np.nan, np.inf, -np.inf):
        broken = v.copy()
        broken[250] = bad
        with pytest.raises(ValueError, match="potential samples must be finite"):
            ParticleModel(g, broken, 1.0, 1.0, 4)


def test_model_copies_potential():
    g = Grid1D(-5.0, 5.0, 501)
    v = np.zeros(501)
    m = ParticleModel(g, v, 1.0, 1.0, 4)
    v[:] = 99.0
    assert m.potential.max() == 0.0
    with pytest.raises(ValueError):
        m.potential[0] = 1.0


def test_model_from_table(tmp_path):
    x = np.linspace(-10.0, 10.0, 2001)
    path = tmp_path / "harmonic.dat"
    np.savetxt(path, np.column_stack([x, 0.5 * x ** 2]))
    model = model_from_table(path, eigen_count=6)
    basis = solve_particle(model)
    assert np.abs(basis.energies - (np.arange(6) + 0.5)).max() <= 1e-5


def test_model_from_table_validation(tmp_path):
    bad = tmp_path / "bad.dat"
    np.savetxt(bad, np.column_stack([[0.0, 1.0, 1.5], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        model_from_table(bad)  # non-uniform x
    bad3 = tmp_path / "bad3.dat"
    np.savetxt(bad3, np.zeros((5, 3)))
    with pytest.raises(ValueError):
        model_from_table(bad3)
    # a NaN grid point fails no comparison, so no spacing check sees it
    x = np.linspace(-8.0, 8.0, 2001)
    x[700] = np.nan
    nan_x = tmp_path / "nan_x.dat"
    np.savetxt(nan_x, np.column_stack([x, np.zeros_like(x)]))
    with pytest.raises(ValueError, match="x column must be finite"):
        model_from_table(nan_x)


# ---------------------------------------------------------------------------
# solver on the presets
# ---------------------------------------------------------------------------

def test_harmonic_energies(harmonic):
    _, basis = harmonic
    expected = np.arange(32) + 0.5
    assert np.abs(basis.energies - expected).max() <= 1e-6


def test_harmonic_dipole_element(harmonic):
    _, basis = harmonic
    assert abs(abs(basis.x_elems[0, 1]) - 1.0 / np.sqrt(2.0)) <= 1e-9
    # selection rule: <0|x|2> vanishes
    assert abs(basis.x_elems[0, 2]) <= 1e-9


def test_velocity_form_identity(harmonic):
    # p_mn = i m omega_mn x_mn on eigenstates; phase-convention safe since
    # both sides share the same eigenvectors
    model, basis = harmonic
    lhs = basis.p_elems[0, 1]
    rhs = 1j * model.mass * basis.omega(0, 1) * basis.x_elems[0, 1]
    assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


def test_trk_sum_harmonic(harmonic):
    model, basis = harmonic
    # a single transition saturates the sum rule for the harmonic well
    assert abs(trk_sum(basis, model, m_used=2) - 1.0) <= 1e-6
    assert abs(trk_sum(basis, model) - 1.0) <= 1e-6


def test_trk_sum_validation(harmonic):
    model, basis = harmonic
    with pytest.raises(ValueError):
        trk_sum(basis, model, m_used=1)
    with pytest.raises(ValueError):
        trk_sum(basis, model, m_used=33)


def test_double_well_goldens(double_well):
    model, basis = double_well
    w10 = basis.omega(1, 0)
    assert w10 == pytest.approx(GOLD_DW_OMEGA10, rel=1e-8)
    assert basis.omega(2, 1) / w10 == pytest.approx(GOLD_DW_RATIO, rel=1e-3)
    assert abs(basis.x_elems[0, 1]) == pytest.approx(GOLD_DW_D10, rel=1e-8)
    s = trk_sum(basis, model)
    assert s >= 0.999 and abs(s - 1.0) <= 1e-3


def test_boundary_leak_detected():
    # eigen_count 32 puts turning points far outside a +-5 box
    with pytest.raises(BoundaryLeakError):
        solve_particle(harmonic_model(x_half=5.0))


def test_coarse_grid_detected():
    with pytest.raises(GridTooCoarseError):
        solve_particle(double_well_model(n_points=4001))


def test_grid_eigvals_match_banded_driver():
    # the refinement check runs shift-invert Lanczos; the banded LAPACK
    # driver on the same pentadiagonal operator is the reference
    model = double_well_model(n_points=2001, eigen_count=10)
    ref = scipy.linalg.eig_banded(particle1d._grid_bands(model), lower=True,
                                  select="i", select_range=(0, 9),
                                  eigvals_only=True)
    w, _ = particle1d._solve_grid(model, False)
    assert np.abs(w - ref).max() <= 1e-8


@pytest.mark.parametrize("n_points,levels", [(2001, 10), (2000, 10), (2001, 1)])
def test_half_grid_eigvals_match_banded_driver(n_points, levels):
    # odd n_points fold through the point x = 0, even ones through +-dx/2;
    # the interleaved even and odd levels are the full operator's spectrum
    # (one level leaves the odd half unsolved)
    model = double_well_model(n_points=n_points, eigen_count=levels)
    ref = scipy.linalg.eig_banded(particle1d._grid_bands(model), lower=True,
                                  select="i", select_range=(0, levels - 1),
                                  eigvals_only=True)
    w, _ = particle1d._mirror_solve(model, False)
    assert np.abs(w - ref).max() <= 1e-8


def dense_band(bands):
    """The symmetric matrix whose lower band storage is ``bands``."""
    n = bands.shape[1]
    a = np.diag(bands[0])
    for d in range(1, bands.shape[0]):
        a += np.diag(bands[d][: n - d], -d) + np.diag(bands[d][: n - d], d)
    return a


@pytest.mark.parametrize("parity", [1, -1])
def test_band_solve_matches_dense_half_grid(parity, monkeypatch):
    # eigenvectors take shift-invert at any size (?sbevx back-transforms
    # them through a dense matrix); eigenvalues alone take ?sbevx at 401
    # points, which fold onto 201 (even) and 200 (odd) rows, and
    # shift-invert at 2001, which fold onto 1001 and 1000, above the threshold
    banded = []
    dsbevx = linalg._LAPACK.dsbevx
    monkeypatch.setattr(linalg._LAPACK, "dsbevx",
                        lambda *a, **kw: banded.append(a) or dsbevx(*a, **kw))
    for n_points in (401, 2001):
        model = harmonic_model(n_points=n_points, eigen_count=12)
        bands = particle1d._fold(model, parity)
        rows = bands.shape[1]
        assert rows in (n_points // 2, n_points // 2 + 1)
        a = dense_band(bands)
        ref = np.linalg.eigvalsh(a)[:6]
        w, u = band_eigh(bands, 6, True, particle1d._shift(model))
        assert banded == [], n_points
        assert np.all(np.abs(w - ref) <= 1e-10 * np.maximum(np.abs(ref), 1.0)), n_points
        assert np.abs(a @ u - u * w).max() <= 1e-9, n_points
        assert np.abs(u.T @ u - np.eye(6)).max() <= 1e-12, n_points
        assert np.all(u[np.abs(u).argmax(axis=0), np.arange(6)] > 0), n_points
        values, _ = band_eigh(bands, 6, False, particle1d._shift(model))
        assert len(banded) == (rows * rows * 2 <= SHIFT_INVERT_MIN_WORK) == (n_points == 401)
        assert np.all(np.abs(values - ref) <= 1e-10 * np.maximum(np.abs(ref), 1.0)), n_points
        banded.clear()


def test_shift_above_spectrum_raises():
    # the shifted operator then has a negative eigenvalue and no Cholesky
    # factor; 2001 points fold onto 1001 rows, 2.0e6 > SHIFT_INVERT_MIN_WORK,
    # so the shift is taken (a band below the threshold takes none)
    model = harmonic_model(n_points=2001, eigen_count=12)
    bands = particle1d._fold(model, 1)
    assert bands.shape[1] ** 2 * 2 > SHIFT_INVERT_MIN_WORK
    low = np.linalg.eigvalsh(dense_band(bands))[:2]
    with pytest.raises(ShiftAboveSpectrumError, match="not below the spectrum"):
        band_eigh(bands, 6, sigma=float(low.mean()))


def test_crowded_half_grid_lapack_failure_is_typed(monkeypatch):
    # a half grid wanting all but one of its points goes to ?sbevx; a
    # LAPACK failure there is a numerical failure (exit 2), not the
    # ValueError subclass np.linalg.LinAlgError (exit 1)
    dsbevx = linalg._LAPACK.dsbevx

    def failing(*args, **kwargs):
        w, z, m, ifail, _ = dsbevx(*args, **kwargs)
        return w, z, m, ifail, 1

    monkeypatch.setattr(linalg._LAPACK, "dsbevx", failing)
    with pytest.raises(ConvergenceFailureError, match="did not converge"):
        solve_particle(harmonic_model(n_points=201, eigen_count=199))


def test_fewer_levels_keep_the_shared_energies(double_well):
    # full-model solves only the levels its models read
    model, basis = double_well
    fewer = solve_particle(replace(model, eigen_count=32))
    assert fewer.m_levels == 32
    assert np.abs(fewer.energies - basis.energies[:32]).max() <= 1e-11


def test_even_point_table_keeps_mirror_parity(tmp_path):
    # 2000 points sit at +-dx/2 around x = 0; the refined grid (3999 points)
    # has x = 0 itself, so both fold shapes are solved
    x = np.linspace(-10.0, 10.0, 2000)
    path = tmp_path / "harmonic.dat"
    np.savetxt(path, np.column_stack([x, 0.5 * x ** 2]))
    basis = solve_particle(model_from_table(path, eigen_count=6))
    assert basis.mirror_parity
    assert np.abs(basis.energies[:3] - [0.5, 1.5, 2.5]).max() <= 1e-5


def test_mirror_model_solves_half_grids(monkeypatch):
    # one shift-invert solve per parity and grid, each on at most half the
    # points with at most half the levels; only the refined grid's two
    # solves start from the coarse levels, and each takes fewer Lanczos
    # steps (?pbtrs applications of the inverse) than the coarse solve of
    # its parity from the constant vector
    calls, factored, steps = [], [], []
    solve = linalg.shift_invert_eigsh
    dpbtrf, dpbtrs = linalg._LAPACK.dpbtrf, linalg._LAPACK.dpbtrs

    def record(bands, k, sigma, vectors, start=None):
        steps.append(0)
        calls.append((bands.shape[1], k, start is not None))
        return solve(bands, k, sigma, vectors, start)

    def step(*args, **kw):
        steps[-1] += 1
        return dpbtrs(*args, **kw)

    # the shifted operator's inverse comes from its banded Cholesky factor,
    # one per solve
    monkeypatch.setattr(linalg, "shift_invert_eigsh", record)
    monkeypatch.setattr(linalg._LAPACK, "dpbtrf",
                        lambda ab, **kw: factored.append(ab.shape[1]) or dpbtrf(ab, **kw))
    monkeypatch.setattr(linalg._LAPACK, "dpbtrs", step)
    model = double_well_model()
    basis = solve_particle(model)
    assert basis.mirror_parity
    n, m = model.grid.n_points, model.eigen_count
    assert len(calls) == 4
    assert factored == [rows for rows, *_ in calls]
    for (rows, k, _), grid_points in zip(calls, (n, n, 2 * n - 1, 2 * n - 1)):
        assert rows <= (grid_points + 1) // 2
        assert k <= -(-m // 2)
    assert [started for *_, started in calls] == [False, False, True, True]
    assert steps[2] < steps[0] and steps[3] < steps[1]


@pytest.mark.parametrize("eigen_count", [199, 198])
def test_crowded_half_grid_keeps_boundary_verdict(eigen_count):
    # a half solve wanting all but one of its points takes the banded driver,
    # not a Lanczos basis that spans the whole half grid; the edge check then
    # fails first
    with pytest.raises(BoundaryLeakError):
        solve_particle(harmonic_model(n_points=201, eigen_count=eigen_count))


@pytest.mark.parametrize("preset", ["harmonic", "double_well"])
def test_mirror_parity_selection_rules(preset, request):
    _, basis = request.getfixturevalue(preset)
    assert basis.mirror_parity
    i = np.arange(basis.m_levels)
    assert np.array_equal(basis.psi[::-1], basis.psi * (-1.0) ** i)
    same = (i[:, None] + i[None, :]) % 2 == 0
    for elems, forbidden in ((basis.x_elems, same), (basis.p_elems, same),
                             (basis.x2_elems, ~same)):
        assert np.all(elems[forbidden] == 0)


def tilted_table(tmp_path):
    """The 2001-point harmonic well tilted by 0.05 x over [-10, 10], from a
    two-column table: a grid without mirror symmetry."""
    x = np.linspace(-10.0, 10.0, 2001)
    path = tmp_path / "tilted.dat"
    np.savetxt(path, np.column_stack([x, 0.5 * x ** 2 + 0.05 * x]))
    return model_from_table(path, eigen_count=6)


@pytest.mark.parametrize("case", ["harmonic", "double_well", "tilted"])
def test_warm_started_refinement_matches_cold_start(monkeypatch, tmp_path, case):
    """The refined grid's solves, started from the prolonged coarse levels
    (each preset's two mirror halves, the tilted table's whole grid), give
    the levels of the same solve from the constant vector to
    1e-12 max(|lambda|, 1)."""
    warm = []
    solve = linalg.shift_invert_eigsh

    def both(bands, k, sigma, vectors, start=None):
        w, v = solve(bands, k, sigma, vectors, start)
        if start is not None:
            warm.append((w, solve(bands, k, sigma, vectors)[0]))
        return w, v

    monkeypatch.setattr(linalg, "shift_invert_eigsh", both)
    model = {"harmonic": harmonic_model, "double_well": double_well_model,
             "tilted": lambda: tilted_table(tmp_path)}[case]()
    solve_particle(model)
    assert len(warm) == (1 if case == "tilted" else 2)
    for w, cold in warm:
        assert np.all(np.abs(w - cold) <= 1e-12 * np.maximum(np.abs(cold), 1.0))


def test_tilted_table_has_no_mirror_parity(tmp_path):
    model = tilted_table(tmp_path)
    basis = solve_particle(model)
    assert not basis.mirror_parity
    # <0|x|0> is finite, so x (x) i(a^dag - a) mixes the parity classes
    with pytest.raises(ParityError):
        parity_block_sum(terms_full_H_D(model, basis, 8, 0.3, 6))


# ---------------------------------------------------------------------------
# projected potential kernel
# ---------------------------------------------------------------------------

def test_kernel_localizes_with_k(harmonic):
    model, basis = harmonic
    rs = []
    for k in (2, 4, 8, 16, 32):
        kern = nonlocal_kernel(basis, model, k)
        assert kern.x.size <= 801
        assert np.abs(kern.kernel - kern.kernel.T).max() <= 1e-12
        assert kern.off_diagonality == pytest.approx(GOLD_HARMONIC_R[k], rel=1e-6)
        rs.append(kern.off_diagonality)
    assert all(b < a for a, b in zip(rs, rs[1:]))


def k2_projection(model, basis, kern):
    """W_ij = <i|V|j> for i, j < 2, and psi_0, psi_1 on the subgrid of the
    k=2 kernel ``kern``."""
    dx = model.grid.dx
    W = [[float(np.sum(basis.psi[:, i] * model.potential * basis.psi[:, j]) * dx)
          for j in (0, 1)] for i in (0, 1)]
    stride = (model.grid.n_points - 1) // (kern.x.size - 1)
    idx = np.arange(0, model.grid.n_points, stride)
    return W, basis.psi[idx, 0], basis.psi[idx, 1]


def test_kernel_cross_parity_suppressed(harmonic):
    # both presets are even wells, so <0|V|1> vanishes by parity, and the
    # k=2 kernel is its two diagonal outer products W_ii psi_i(x) psi_i(x')
    model, basis = harmonic
    kern = nonlocal_kernel(basis, model, 2)
    W, p0, p1 = k2_projection(model, basis, kern)
    assert abs(W[0][1]) <= 1e-10 * max(abs(W[0][0]), abs(W[1][1]))
    diagonal = W[0][0] * np.outer(p0, p0) + W[1][1] * np.outer(p1, p1)
    assert np.abs(kern.kernel - diagonal).max() <= 1e-10 * np.abs(kern.kernel).max()


def test_kernel_cross_rank_two_form():
    # a tilted well keeps <0|V|1> finite; the k=2 kernel is then exactly
    # rank 2, and its cross term is the outer-product form
    # W_10 [psi_0(x') psi_1(x) + psi_1(x') psi_0(x)]
    def V(x):
        return 0.5 * x ** 2 + 0.2 * x ** 3 + 0.1 * x ** 4

    grid = Grid1D(-8.0, 8.0, 2001)
    model = ParticleModel(grid, V(grid.points), 1.0, 1.0, 6, V)
    basis = solve_particle(model)
    kern = nonlocal_kernel(basis, model, 2)
    sv = np.linalg.svd(kern.kernel, compute_uv=False)
    assert sv[2] <= 1e-10 * sv[0]
    W, p0, p1 = k2_projection(model, basis, kern)
    assert abs(W[0][1]) > 1e-3
    cross = kern.kernel - W[0][0] * np.outer(p0, p0) - W[1][1] * np.outer(p1, p1)
    expected = W[0][1] * (np.outer(p0, p1) + np.outer(p1, p0))
    assert np.abs(cross - expected).max() <= 1e-12 * np.abs(expected).max()


def test_kernel_validation(harmonic):
    model, basis = harmonic
    with pytest.raises(ValueError):
        nonlocal_kernel(basis, model, 1)
    with pytest.raises(ValueError):
        nonlocal_kernel(basis, model, 33)


# ---------------------------------------------------------------------------
# minimal coupling identity
# ---------------------------------------------------------------------------

def test_minimal_coupling_identity(harmonic):
    model, _ = harmonic
    rep = check_minimal_coupling_identity(model, 0.3)
    assert rep.passed
    assert rep.residual_rel <= 1e-6
    assert rep.spectrum_dev <= 1e-8


def test_minimal_coupling_residual_is_discretization(harmonic):
    # the residual comes from the (q A0 dx) discretization of the phase
    # factor, so doubling A0 roughly quadruples it
    model, _ = harmonic
    r1 = check_minimal_coupling_identity(model, 0.3).residual_rel
    r2 = check_minimal_coupling_identity(model, 0.6).residual_rel
    assert 2.0 < r2 / r1 < 8.0


@pytest.mark.parametrize("q_a0", [0.3, 1.0, 3.0])
def test_minimal_coupling_bound_is_the_grid_order(harmonic, double_well, q_a0):
    # the bound is (q A0 dx)^2, the order of the grid's error in the phase
    # factor, so a correct substitution passes on either preset at any
    # amplitude; the presets sit near 0.4 of it
    for model, _ in (harmonic, double_well):
        rep = check_minimal_coupling_identity(model, q_a0)
        assert rep.bound == (q_a0 * model.grid.dx) ** 2
        assert rep.passed and 0.3 < rep.residual_rel / rep.bound < 0.5
        assert rep.spectrum_dev <= 1e-9


@pytest.mark.parametrize("q_a0", [0.3, 1.0])
def test_minimal_coupling_flipped_cross_term_fails(harmonic, double_well, monkeypatch,
                                                   q_a0):
    # a wrong substitution, (p + q A0)^2/2m for (p - q A0)^2/2m, flips the
    # cross term's sign: the bound normalises the grid error away, not this
    grid_bands = particle1d._grid_bands
    monkeypatch.setattr(particle1d, "_grid_bands",
                        lambda model, q=0.0: grid_bands(model, -q))
    for model, _ in (harmonic, double_well):
        rep = check_minimal_coupling_identity(model, q_a0)
        assert not rep.passed
        assert rep.residual_rel > 100 * rep.bound


# ---------------------------------------------------------------------------
# full light-matter model without two-level truncation
# ---------------------------------------------------------------------------

GOLD_DW_GAPS = {2: 1.497142e-01, 4: 1.644399e-02, 8: 1.839615e-05}


def test_full_model_gauge_gap_closes(double_well_gaps):
    gaps = double_well_gaps
    for m, g in GOLD_DW_GAPS.items():
        assert gaps[m] == pytest.approx(g, rel=1e-4)
    # the residue at large m is eigensolver / matrix-element noise
    assert gaps[16] <= 1e-10
    assert gaps[32] <= 1e-10
    assert gaps[2] / gaps[32] >= 100.0


def test_full_model_harmonic_floor(harmonic_gaps):
    # gaps fall strictly until they hit the matrix-element accuracy floor,
    # then merely stay below it
    gaps = [harmonic_gaps[m] for m in FULL_MODEL_M_LEVELS]
    floor = 1e-9
    for prev, cur in zip(gaps, gaps[1:]):
        if prev > floor:
            assert cur < prev
        else:
            assert cur < floor
    assert gaps[-1] < floor


def test_full_model_band_solve_matches_dense(double_well):
    """The banded parity solve behind the gap tables against one dense
    complex solve of each full model, at m = 16, where the gap first falls
    to its roundoff floor: the transitions agree to 1e-12 of the matrix
    scale (measured 7.5e-14 for D and 1.3e-13 for C, against bounds of
    7.5e-11 and 7.8e-11)."""
    model, basis = double_well
    args = (model, basis, 48, 0.3, 16)
    for build, terms in ((build_full_H_D, terms_full_H_D), (build_full_H_C, terms_full_H_C)):
        H = build(*args)
        want = hermitian_eig(H, vectors=False).transitions(4)
        got = lowest_transitions(parity_band_sum(terms(*args)), 4)
        dev = float(np.abs(got - want).max())
        assert dev <= 1e-12 * np.abs(H).max(), (build.__name__, dev)


@pytest.mark.parametrize("preset", ["double_well", "harmonic"])
def test_wide_chains_shift_invert_matches_banded_driver(preset, request):
    """Every chain of the full models at m = 16 and 32 is wide enough for
    shift-invert Lanczos; over full-model's a0 seed range its lowest
    levels + 1 eigenvalues, and so its transitions, agree with
    ``eig_banded`` on the same chain to 1e-12 of the chain scale."""
    model, basis = request.getfixturevalue(preset)
    for m_used, a0, terms in itertools.product((16, 32), (0.27, 0.3, 0.33),
                                              (terms_full_H_D, terms_full_H_C)):
        for chain in parity_band_sum(terms(model, basis, 48, a0, m_used)).chains:
            rows, width = chain.shape[1], chain.shape[0] - 1
            assert rows * rows * width > SHIFT_INVERT_MIN_WORK
            got = parity_eigvalsh(ParityBands((chain,)), 5)
            want = scipy.linalg.eig_banded(chain, lower=True, eigvals_only=True,
                                           select="i", select_range=(0, 4))
            bound = 1e-12 * max(float(np.abs(chain).max()), 1.0)
            assert np.abs(got - want).max() <= bound
            assert np.abs((got[1:] - got[0]) - (want[1:] - want[0])).max() <= bound


def test_full_builders_match_oracles():
    # charge and mass away from 1 exercise every scalar factor but omega_c,
    # which is 1 in the builders
    model = harmonic_model(omega0=0.8, mass=1.7, charge=-0.6, n_points=2001,
                           eigen_count=8)
    basis = solve_particle(model)
    for m_used, a0, cutoff in ((2, 0.3, 12), (7, 1.1, 5)):
        hd = build_full_H_D(model, basis, cutoff, a0, m_used)
        ref_d = oracles.full_model_dipole(basis.energies, basis.x_elems,
                                          basis.x2_elems, a0, model.charge,
                                          1.0, cutoff, m_used)
        hc = build_full_H_C(model, basis, cutoff, a0, m_used)
        ref_c = oracles.full_model_coulomb(basis.energies, basis.p_elems,
                                           model.mass, a0, model.charge, 1.0,
                                           cutoff, m_used)
        for got, ref in ((hd, ref_d), (hc, ref_c)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_full_model_m_used_validation(double_well):
    model, basis = double_well
    for terms in (terms_full_H_D, terms_full_H_C):
        for write in (kron_sum, parity_block_sum, parity_band_sum):
            with pytest.raises(ValueError):
                write(terms(model, basis, 10, 0.3, 1))
            with pytest.raises(ValueError):
                write(terms(model, basis, 10, 0.3, basis.m_levels + 1))


def test_full_model_dimension_cap(harmonic):
    # 32 matter levels x 201 Fock levels = 6432 exceeds DIM_CAP_DEFAULT = 4096
    model, basis = harmonic
    for terms in (terms_full_H_D, terms_full_H_C):
        for write in (kron_sum, parity_block_sum, parity_band_sum):
            with pytest.raises(DimensionOverflowError):
                write(terms(model, basis, 200, 0.3, 32))
