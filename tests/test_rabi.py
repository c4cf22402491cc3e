"""Single-dipole models: gauge equivalences, truncation failure, Taylor family.

Frozen reference numbers come from tests/oracles.py (regenerate with
``python3 tests/oracles.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import SIGMA_Y, SIGMA_Z, conjugated, phased_blocks
from gaugeqed import (
    DickeParams,
    DimensionOverflowError,
    FluxoniumParams,
    ParityError,
    RabiParams,
    bands_H_C_standard,
    bands_H_D,
    blocks_flux_charge_correct,
    blocks_H_C_correct,
    build_H_C_correct,
    build_H_C_standard,
    build_H_C_taylor,
    build_H_D,
    check_gauge_theorem,
    hermitian_eig,
    kron_sum,
    maclaurin_cos_sin,
    parity_block_sum,
    parity_eigvalsh,
    solve_fluxonium,
    terms_flux_charge_correct,
    terms_H_alpha,
    terms_H_C_correct,
    terms_H_C_standard,
    terms_H_C_taylor,
    terms_H_D,
)
from gaugeqed import qops, rabi
from gaugeqed.experiments import (ConvergencePolicy, converged_transitions, default_eta_grid,
                                  lowest_transitions)
from gaugeqed.qops import FockFactors, fock_factors, quadrature_values
from gaugeqed.rabi import taylor_is_exact

# eta = 1, resonant, cutoff 150; j-th entry is E_j - E_0
GOLD_D_ETA1 = np.array([
    1.377674281369e-01, 9.162232290891e-01, 1.281381183574e+00,
    2.074989595235e+00, 2.252755192943e+00, 2.990726715040e+00,
])
GOLD_CSTD_ETA1 = np.array([
    8.137809762906e-01, 2.416516977422e+00, 2.907200912254e+00,
    4.783229703855e+00, 5.030941629855e+00, 7.118774169735e+00,
])
GOLD_CSTD_T1_REL_DEV = 4.906918545955838


def transitions(H, k):
    return hermitian_eig(H, vectors=False).transitions(k)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_params_detuning_omega10():
    p = RabiParams(eta=0.1, detuning=0.5)
    assert p.omega_10 == 1.5
    p = RabiParams(eta=0.1, detuning=-0.2)
    assert p.omega_10 == 0.8
    p = RabiParams(eta=0.1)
    assert p.omega_10 == 1.0 and p.detuning == 0.0


def test_params_couplings():
    p = RabiParams(eta=0.3, detuning=0.5)
    assert p.g_d == pytest.approx(0.3)
    assert p.g_c == pytest.approx(0.3 * 1.5)


def test_params_validation():
    for detuning in (-1.0, -2.0, float("nan")):
        with pytest.raises(ValueError, match="omega_10"):
            RabiParams(eta=0.1, detuning=detuning)
    for eta in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="eta must be"):
            RabiParams(eta=eta)
    with pytest.raises(ValueError):
        RabiParams(eta=0.1, cutoff=0)
    for alpha in (1.2, -0.1):
        with pytest.raises(ValueError, match="alpha must be in"):
            terms_H_alpha(RabiParams(eta=0.1, cutoff=2), alpha)


# ---------------------------------------------------------------------------
# weak-coupling anchors
# ---------------------------------------------------------------------------

def test_eta_zero_is_uncoupled_ladder():
    p = RabiParams(eta=0.0, cutoff=40)
    expected = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
    for build in (build_H_D, build_H_C_standard, build_H_C_correct):
        t = transitions(build(p), 5)
        assert np.abs(t - expected).max() <= 1e-10


def test_jc_doublet_splitting():
    # eta = 0.01, resonant: the first excited doublet splits by 2 g_D
    p = RabiParams(eta=0.01, cutoff=60)
    t = transitions(build_H_D(p), 2)
    split = t[1] - t[0]
    assert abs(split - 2.0 * p.g_d) <= 0.01 * 2.0 * p.g_d


def test_standard_coulomb_agrees_when_weak():
    p = RabiParams(eta=0.05, cutoff=80)
    t_d = transitions(build_H_D(p), 4)
    t_c = transitions(build_H_C_standard(p), 4)
    assert np.max(np.abs(t_c - t_d) / t_d) <= 0.01


# ---------------------------------------------------------------------------
# ultrastrong coupling: naive truncation fails, corrected form does not
# ---------------------------------------------------------------------------

def test_dipole_golden_eta1():
    p = RabiParams(eta=1.0, cutoff=150)
    t = transitions(build_H_D(p), 6)
    assert np.max(np.abs(t - GOLD_D_ETA1) / GOLD_D_ETA1) <= 1e-10


def test_standard_coulomb_golden_eta1():
    p = RabiParams(eta=1.0, cutoff=150)
    t = transitions(build_H_C_standard(p), 6)
    assert np.max(np.abs(t - GOLD_CSTD_ETA1) / GOLD_CSTD_ETA1) <= 1e-10
    rel = abs(t[0] - GOLD_D_ETA1[0]) / GOLD_D_ETA1[0]
    assert rel > 0.10
    assert rel == pytest.approx(GOLD_CSTD_T1_REL_DEV, rel=1e-9)


def test_corrected_coulomb_matches_dipole_eta1():
    p = RabiParams(eta=1.0, cutoff=150)
    t_d = transitions(build_H_D(p), 6)
    t_c = transitions(build_H_C_correct(p), 6)
    assert np.abs(t_c - t_d).max() <= 1e-10


def test_spectral_equality_converged_strong():
    # worst corner of the claimed regime: eta = 1.5, detuned
    policy = ConvergencePolicy()
    t_d, _, ok_d, _ = converged_transitions(
        lambda c: build_H_D(RabiParams(eta=1.5, cutoff=c, detuning=0.5)), 10, policy)
    t_c, _, ok_c, _ = converged_transitions(
        lambda c: build_H_C_correct(RabiParams(eta=1.5, cutoff=c, detuning=0.5)), 10, policy)
    assert ok_d and ok_c
    assert np.abs(t_d - t_c).max() <= 1e-6


def test_conjugation_matches_closed_form():
    # the rotation identity is exact on the truncated space, so the two
    # construction routes agree entrywise, not just spectrally
    p = RabiParams(eta=0.8, cutoff=70, detuning=0.3)
    h1 = conjugated(p)
    h2 = build_H_C_correct(p)
    scale = np.abs(h2).max()
    assert np.abs(h1 - h2).max() <= 1e-9 * scale


def test_matches_raw_oracle_matrices():
    t_d = transitions(build_H_D(RabiParams(eta=0.6, cutoff=90, detuning=0.2)), 5)
    w = np.linalg.eigvalsh(oracles.rabi_dipole(0.6, 0.2, 90))
    assert np.abs(t_d - (w[1:6] - w[0])).max() <= 1e-11
    t_c = transitions(build_H_C_correct(RabiParams(eta=0.6, cutoff=90, detuning=0.2)), 5)
    w = np.linalg.eigvalsh(oracles.rabi_coulomb_correct(0.6, 0.2, 90))
    assert np.abs(t_c - (w[1:6] - w[0])).max() <= 1e-11


# ---------------------------------------------------------------------------
# Taylor family
# ---------------------------------------------------------------------------

def test_taylor_order2_structure():
    # order 2 is the sum-rule-corrected quadratic model with a negative
    # sigma_z X^2 term (the printed quadratic form; the sign is fixed by
    # cos(v) = 1 - v^2/2)
    p = RabiParams(eta=0.2, cutoff=30, detuning=0.4)
    f = FockFactors(p.cutoff)
    nph, X, X2 = f.n, f.X, f.X2
    nf = p.cutoff + 1
    manual = (np.kron(np.eye(2), nph)
              + 0.5 * p.omega_10 * np.kron(SIGMA_Z, np.eye(nf))
              + p.g_c * np.kron(SIGMA_Y, X)
              - (p.g_c ** 2 / p.omega_10) * np.kron(SIGMA_Z, X2))
    h2 = build_H_C_taylor(p, 2)
    scale = np.abs(manual).max()
    assert np.abs(h2 - manual).max() <= 1e-12 * scale


def test_taylor_high_order_converges_to_correct():
    # cutoff 80 keeps every argument |2 eta x| below 18; cutoff 100 takes
    # some above it, where the alternating sums' peak term exceeds 1e7
    for cutoff, tol in ((80, 1e-8), (100, 1e-8)):
        p = RabiParams(eta=0.5, cutoff=cutoff)
        t400 = transitions(build_H_C_taylor(p, 400), 6)
        t_ref = transitions(build_H_C_correct(p), 6)
        assert np.abs(t400 - t_ref).max() <= tol


def test_taylor_against_oracle():
    w = np.linalg.eigvalsh(oracles.rabi_coulomb_taylor(0.4, 0.0, 60, 8))
    t = transitions(build_H_C_taylor(RabiParams(eta=0.4, cutoff=60), 8), 5)
    assert np.abs(t - (w[1:6] - w[0])).max() <= 1e-10


def test_maclaurin_small_args_match_numpy():
    v = np.linspace(-17.0, 17.0, 101)
    c, s = maclaurin_cos_sin(v, 200)
    # every |v| < 200, so the result is np.cos (np.sin) minus the omitted
    # tail, below 17^201 / 201! ~ 1e-130, which rounds away: the values are
    # numpy's bit for bit, as the Taylor study's shortcut relies on
    assert np.array_equal(c, np.cos(v))
    assert np.array_equal(s, np.sin(v))


def test_taylor_is_exact_at_order_200():
    # at cutoff 200, |2 eta x| <= 28 for eta = 0.5; the order-200 model is
    # the corrected model array for array, and the order-10 model is not
    p = RabiParams(eta=0.5, cutoff=200)
    assert taylor_is_exact(p, 200)
    taylor = parity_block_sum(terms_H_C_taylor(p, 200)).blocks
    correct = parity_block_sum(terms_H_C_correct(p)).blocks
    assert len(taylor) == len(correct) == 2
    assert all(np.array_equal(a, b) for a, b in zip(taylor, correct))
    assert not taylor_is_exact(p, 10)


def test_maclaurin_tail_branch_matches_numpy():
    v = np.linspace(-24.0, 24.0, 41)
    c, s = maclaurin_cos_sin(v, 240)
    assert np.abs(c - np.cos(v)).max() <= 1e-12
    assert np.abs(s - np.sin(v)).max() <= 1e-12


@pytest.mark.parametrize("order", [2, 3, 10, 200])
def test_maclaurin_table_rows_are_one_row_calls(order):
    # the Taylor study's table at its defaults: one row of 2 eta x per eta
    # of the grid, x the 201 eigenvalues of a + a^dag at cutoff 200
    etas = np.array(default_eta_grid(1.6, include_zero=False))
    x = (2.0 * etas)[:, None] * quadrature_values(200)
    cos, sin = maclaurin_cos_sin(x, order)
    for row, c, s in zip(x, cos, sin):
        c1, s1 = maclaurin_cos_sin(row, order)
        assert np.array_equal(c, c1) and np.array_equal(s, s1)


def test_maclaurin_branches_consistent():
    # a neighbour's slower tail keeps the row summing, and the value's extra
    # tail terms, each below 2^-60 of its sum, move its cos by an ulp; a
    # table row is still the one-row call on it, bit for bit
    for order, value, neighbour in ((160, -51.83648153732604, 158.4),
                                    (200, -70.69528433823834, 198.0)):
        alone = maclaurin_cos_sin(np.array([value]), order)
        shared = maclaurin_cos_sin(np.array([value, neighbour]), order)
        assert shared[0][0] == np.nextafter(alone[0][0], shared[0][0]) != alone[0][0]
        rows = np.array([[value, neighbour], [value, 0.0], [neighbour, value]])
        table = maclaurin_cos_sin(rows, order)
        for k in (0, 1):
            for row, got in zip(rows, table[k]):
                assert np.array_equal(got, maclaurin_cos_sin(row, order)[k])
            assert table[k][1][0] == alone[k][0]


@pytest.mark.parametrize("order", list(range(41)) + [99, 100, 101, 200, 400])
def test_maclaurin_matches_exact_polynomial(order):
    # x = +-order is where the head sum hands over to cos/sin minus the tail
    switch = [order, -order, np.nextafter(order, 0), -np.nextafter(order, 0)]
    v = np.concatenate([np.linspace(-100.0, 100.0, 101), switch])
    c, s = maclaurin_cos_sin(v, order)
    c_ref, s_ref = oracles.maclaurin_cos_sin_exact(v, order)
    assert np.all(np.abs(c - c_ref) <= 1e-14 * np.maximum(np.abs(c_ref), 1.0))
    assert np.all(np.abs(s - s_ref) <= 1e-14 * np.maximum(np.abs(s_ref), 1.0))
    c0, s0 = maclaurin_cos_sin(np.array([]), order)
    assert c0.shape == s0.shape == (0,)


def test_maclaurin_overflow_returns():
    # the peak term x^m/m! overflows past |x| ~ 700; the sum must still end
    with np.errstate(over="ignore", invalid="ignore"):
        c, s = maclaurin_cos_sin(np.array([800.0, 1.0]), 1000)
    assert not np.isfinite(c[0]) and not np.isfinite(s[0])
    assert abs(c[1] - np.cos(1.0)) <= 1e-15 and abs(s[1] - np.sin(1.0)) <= 1e-15


def test_maclaurin_low_orders():
    v = np.array([0.0, 0.3, -0.7])
    c0, s0 = maclaurin_cos_sin(v, 0)
    assert np.array_equal(c0, np.ones(3)) and np.array_equal(s0, np.zeros(3))
    c1, s1 = maclaurin_cos_sin(v, 1)
    assert np.array_equal(c1, np.ones(3)) and np.array_equal(s1, v)
    with pytest.raises(ValueError):
        maclaurin_cos_sin(v, -1)


# ---------------------------------------------------------------------------
# alpha family
# ---------------------------------------------------------------------------

def test_alpha_endpoints():
    p = RabiParams(eta=0.7, cutoff=60, detuning=0.2)
    h0 = kron_sum(terms_H_alpha(p, 0.0))
    hd = build_H_D(p)
    scale = np.abs(hd).max()
    assert np.abs(h0 - hd).max() <= 1e-13 * scale
    h1 = kron_sum(terms_H_alpha(p, 1.0))
    hc = build_H_C_correct(p)
    assert np.abs(h1 - hc).max() <= 1e-13 * scale


def test_alpha_midpoint_spectrum():
    p = RabiParams(eta=1.0, cutoff=150)
    t_mid = transitions(kron_sum(terms_H_alpha(p, 0.5)), 6)
    t_d = transitions(build_H_D(p), 6)
    assert np.abs(t_mid - t_d).max() <= 1e-6
    w = np.linalg.eigvalsh(oracles.rabi_alpha(0.5, 1.0, 0.0, 150))
    assert np.abs(t_mid - (w[1:7] - w[0])).max() <= 1e-10


# ---------------------------------------------------------------------------
# matrix identity behind the spectral agreement
# ---------------------------------------------------------------------------

def test_gauge_theorem_eta_zero():
    # U is the identity up to eigensolver roundoff; the matrix scale is the
    # cutoff itself (number operator), hence the scale-aware bound
    rep = check_gauge_theorem(RabiParams(eta=0.0, cutoff=60))
    assert rep.max_dev_full <= 1e-13 * 60
    assert rep.passed


def test_gauge_theorem_interior_converges():
    reports = [check_gauge_theorem(RabiParams(eta=0.5, cutoff=c))
               for c in (60, 80, 100, 140)]
    interior = [r.max_dev_interior for r in reports]
    full_rel = [r.max_dev_full_rel for r in reports]
    assert interior[2] <= 1e-8  # cutoff 100
    assert all(b < a for a, b in zip(interior, interior[1:]))
    assert all(b < a for a, b in zip(full_rel, full_rel[1:]))
    # the raw boundary deviation grows with the matrix scale
    full = [r.max_dev_full for r in reports]
    assert all(b > a for a, b in zip(full, full[1:]))
    assert reports[2].passed


def test_gauge_theorem_validation():
    with pytest.raises(ValueError):
        check_gauge_theorem(RabiParams(eta=0.5), interior_fraction=0.0)


def test_gauge_theorem_fraction_keeping_no_level_fails_before_the_builds(monkeypatch):
    # floor(0.001 * 61) = 0 Fock levels: no interior to measure, refused
    # before either dense matrix is built
    def build(*args):
        raise AssertionError("built before the fraction was checked")

    monkeypatch.setattr(rabi, "build_H_D", build)
    monkeypatch.setattr(rabi, "build_H_C_correct", build)
    with pytest.raises(ValueError, match=r"interior_fraction 0\.001 keeps no Fock level "
                                         r"at cutoff 60"):
        check_gauge_theorem(RabiParams(eta=0.5, cutoff=60), interior_fraction=0.001)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

@given(eta=st.floats(0.0, 1.2), detuning=st.sampled_from([0.0, 0.5, -0.3]),
       cutoff=st.integers(20, 60))
@settings(max_examples=10)
def test_builders_hermitian(eta, detuning, cutoff):
    p = RabiParams(eta=eta, cutoff=cutoff, detuning=detuning)
    for H in (build_H_D(p), build_H_C_standard(p), build_H_C_correct(p),
              build_H_C_taylor(p, 3), kron_sum(terms_H_alpha(p, 0.5))):
        assert H.dtype == np.complex128 and not H.flags.writeable
        dev = np.abs(H - H.conj().T).max()
        assert dev <= 1e-12 * max(np.abs(H).max(), 1.0)


@given(eta=st.floats(0.0, 1.2), cutoff=st.integers(20, 50))
@settings(max_examples=10)
def test_conjugation_closed_form_any_cutoff(eta, cutoff):
    # exactness of the rotation identity does not depend on convergence
    p = RabiParams(eta=eta, cutoff=cutoff)
    h1 = conjugated(p)
    h2 = build_H_C_correct(p)
    assert np.abs(h1 - h2).max() <= 1e-11 * max(np.abs(h2).max(), 1.0)


def test_builders_enforce_dimension_cap():
    # 2 * (2047 + 1) = 4096 is the cap itself; one Fock level more exceeds it
    p = RabiParams(eta=0.3, cutoff=2048)
    for build in (build_H_D, build_H_C_standard, build_H_C_correct,
                  lambda q: build_H_C_taylor(q, 3), lambda q: kron_sum(terms_H_alpha(q, 0.5)),
                  bands_H_D, bands_H_C_standard, blocks_H_C_correct):
        with pytest.raises(DimensionOverflowError):
            build(p)


# ---------------------------------------------------------------------------
# the coupling-independent Fock factors, shared per cutoff
# ---------------------------------------------------------------------------

DENSE_FACTORS = {"n", "X", "P", "eye", "X2"}
# the quadrature frame: X's eigenvectors split by Fock parity, and n in it
FRAME = {"U", "W", "n_frame"}


def test_shared_factors_are_read_only_and_built_once(monkeypatch):
    fock_factors.cache_clear()
    qops._spin_arrays.cache_clear()
    p = RabiParams(eta=0.3, cutoff=20)
    terms_H_C_standard(p)
    terms_H_alpha(p, 0.5)
    f = fock_factors(20)
    built = dict(vars(f))
    assert DENSE_FACTORS | {"U", "W"} <= set(built)
    arrays = [a for a in built.values() if isinstance(a, np.ndarray)]
    assert len(arrays) == 7 and not any(a.flags.writeable for a in arrays)
    assert not any(a.flags.writeable for a in (f.eig.eigenvalues, f.eig.eigenvectors))
    with pytest.raises(ValueError, match="read-only"):
        f.X[0, 1] = 0.0
    # the spin arrays are shared read-only too; the spin identity is made
    # per build
    spin = qops._spin_arrays(1)
    s = rabi._real_parts(1, 20)
    assert all(a is b for a, b in zip((s.jx, s.jy, s.jz), spin))
    assert not any(j.flags.writeable for j in spin)
    with pytest.raises(ValueError, match="read-only"):
        s.jx[0, 1] = 0.0
    # a second build at the same cutoff and spin makes none of them again
    made = []
    for name in ("_real_ladder", "hermitian_eig"):
        fn = getattr(qops, name)
        monkeypatch.setattr(qops, name, lambda *a, fn=fn: made.append(a) or fn(*a))
    misses = fock_factors.cache_info().misses
    spin_misses = qops._spin_arrays.cache_info().misses
    again = terms_H_C_standard(p) + terms_H_alpha(p, 0.5)
    assert made == [] and fock_factors.cache_info().misses == misses
    assert qops._spin_arrays.cache_info().misses == spin_misses
    assert fock_factors(20) is f and all(a is b for a, b in zip(qops._spin_arrays(1), spin))
    assert all(vars(f)[k] is v for k, v in built.items()) and vars(f).keys() == built.keys()
    # every field factor of the second build is the cached array itself,
    # but cos/sin(2 alpha eta X), which depend on the coupling
    field = [F for _, F in again]
    assert all(F is a for F, a in zip(field, (f.n, f.eye, f.X, f.X2, f.n))) and field[7] is f.P
    # another cutoff is another entry; another spin shares the cutoff's
    assert fock_factors(21) is not f and rabi._real_parts(2, 20).f is f


@pytest.mark.parametrize("model, reads", [
    (terms_H_D, {"n", "eye", "P"}),
    (terms_H_C_standard, {"n", "eye", "X", "X2"}),
    (terms_H_C_correct, {"n", "X", "_eig", "U", "W"}),
    (lambda p: terms_H_C_taylor(p, 4), {"n", "X", "_eig", "U", "W"}),
    (lambda p: terms_H_alpha(p, 0.5), {"n", "P", "X", "_eig", "U", "W"}),
    (blocks_H_C_correct, {"X", "_eig", "U", "W", "n_frame"}),
])
def test_models_build_only_the_factors_they_read(model, reads):
    fock_factors.cache_clear()
    model(RabiParams(eta=0.3, cutoff=12))
    built = {k for k, v in vars(fock_factors(12)).items() if v is not None}
    assert built & (DENSE_FACTORS | FRAME | {"_eig"}) == reads


def test_factor_cache_evicts_past_its_bound():
    # the Fock factors per cutoff and the spin arrays per spin
    for cached in (fock_factors, qops._spin_arrays):
        cached.cache_clear()
        oldest = cached(3)
        for key in range(4, 4 + qops.FOCK_CACHE_SIZE):
            cached(key)
        assert cached.cache_info().currsize == qops.FOCK_CACHE_SIZE == 8
        assert cached(3) is not oldest  # evicted, so built anew
        assert cached.cache_info().currsize == qops.FOCK_CACHE_SIZE


# ---------------------------------------------------------------------------
# banded parity chains
# ---------------------------------------------------------------------------

def phased_chains(H, cutoff):
    """The phased parity blocks of a dense Rabi matrix reordered by Fock
    index n (matter index m = (n + c) mod 2); returns (real blocks, max|Im|)."""
    blocks, imag = phased_blocks(H, 2, cutoff + 1)
    chains = []
    for c, block in enumerate(blocks):
        # the block rows hold n = c, c + 2, ... at m = 0, then n = 1 - c, ... at m = 1
        order = np.argsort(np.concatenate([np.arange(c, cutoff + 1, 2),
                                           np.arange(1 - c, cutoff + 1, 2)]))
        chains.append(block[np.ix_(order, order)])
    return chains, imag


@pytest.mark.parametrize("cutoff", [1, 2, 15, 16, 320])
@pytest.mark.parametrize("eta", [0.0, 0.5, 1.5, 3.0])
def test_bands_match_dense_builders(eta, cutoff):
    """Band entries equal the phased parity blocks of the dense builders and
    nothing lies outside the band; the lowest eigenvalues equal the dense
    solve's.  Detuned (omega_10 = 1.3); for eta > 0 Cstd's diamagnetic
    term fills its diagonal and second subdiagonal."""
    p = RabiParams(eta=eta, cutoff=cutoff, detuning=0.3)
    models = {
        "D": (build_H_D(p), bands_H_D(p), 1),
        "Cstd": (build_H_C_standard(p), bands_H_C_standard(p), 2),
    }
    for name, (H, bands, width) in models.items():
        bound = 1e-12 * max(np.abs(H).max(), 1.0)
        blocks, imag = phased_chains(H, cutoff)
        assert imag <= bound, name
        assert len(bands.chains) == 2
        for block, chain in zip(blocks, bands.chains):
            assert chain.shape == (width + 1, cutoff + 1), name
            assert not chain.flags.writeable
            assert not np.tril(block, -width - 1).any(), name
            for r in range(width + 1):
                d = np.diagonal(block, -r)
                dev = np.abs(chain[r, :d.size] - d).max(initial=0.0)
                assert dev <= bound, (name, r, dev)
                assert not chain[r, d.size:].any(), name
        w = hermitian_eig(H, vectors=False).eigenvalues
        for count in (1, 7, w.size + 3):
            wb = parity_eigvalsh(bands, count)
            k = min(count, w.size)
            assert wb.shape == (k,) and not wb.flags.writeable
            dev = np.abs(wb - w[:k]).max()
            assert dev <= bound, (name, count, dev)


# ---------------------------------------------------------------------------
# the quadrature-frame writer of the rotated models
# ---------------------------------------------------------------------------

def assert_same_levels(frame, written, context, scaled=False):
    """Each frame block is exactly symmetric, has the shape of the block
    that parity_block_sum writes and its eigenvalues to
    1e-12 max(|lambda|, 1), or with ``scaled`` to 1e-12 max(|lambda|, max|B|)."""
    assert len(frame.blocks) == len(written.blocks) == 2
    for c, (got, want) in enumerate(zip(frame.blocks, written.blocks)):
        assert got.shape == want.shape and not got.flags.writeable, (context, c)
        assert np.array_equal(got, got.T), (context, c)
        w = np.linalg.eigvalsh(want)
        floor = max(np.abs(want).max(), 1.0) if scaled else 1.0
        dev = np.abs(np.linalg.eigvalsh(got) - w) / np.maximum(np.abs(w), floor)
        assert dev.max() <= 1e-12, (context, c, dev.max())


@pytest.mark.parametrize("cutoff", [1, 2, 40, 41, 200])
@pytest.mark.parametrize("two_j", [1, 2, 4])
def test_frame_writer_matches_block_writer(two_j, cutoff):
    """The corrected model written in the quadrature frame has the levels
    of parity_block_sum's blocks of its terms, at both dimension parities
    (with and without the zero mode), for one and for several dipoles;
    detuned, so the splitting and the cavity differ."""
    for eta in (0.0, 0.5, 3.0):
        p = DickeParams(eta=eta, cutoff=cutoff, detuning=0.2, n_dipoles=two_j)
        assert_same_levels(blocks_H_C_correct(p), parity_block_sum(terms_H_C_correct(p)),
                           (two_j, cutoff, eta))


@pytest.mark.parametrize("cutoff", [1, 2, 40, 41, 200])
def test_frame_writer_matches_block_writer_on_rotated_values(cutoff):
    """Node values that are no cos/sin: the order-3 Maclaurin rows, the
    Taylor study's writer against terms_H_C_rotated's blocks.  Their cubic
    grows to about 8e5 at eta 3 and cutoff 200, so either writer's roundoff
    is about eps max|B| on every level, the small ones too."""
    for eta in (0.5, 3.0):
        p = RabiParams(eta=eta, cutoff=cutoff)
        f = lambda x: maclaurin_cos_sin(2.0 * eta * x, 3)
        assert_same_levels(rabi.blocks_H_C_rotated(p, f),
                           parity_block_sum(rabi.terms_H_C_rotated(p, f)), (cutoff, eta),
                           scaled=True)


@pytest.fixture(scope="module")
def flux_basis():
    return solve_fluxonium(FluxoniumParams(e_c=1.0, e_l=0.9, e_j=3.0))


@pytest.mark.parametrize("cutoff", [1, 2, 40, 41, 200])
def test_fluxonium_frame_writer_matches_block_writer(cutoff, flux_basis):
    """Fluxonium's corrected model: its own omega_c and the sign of -sin."""
    for eta in (0.0, 0.5, 3.0):
        p = FluxoniumParams(e_c=1.0, e_l=0.9, e_j=3.0, chi0=eta / flux_basis.phi_10,
                            omega_c=1.3, cutoff=cutoff)
        assert_same_levels(blocks_flux_charge_correct(p, flux_basis),
                           parity_block_sum(terms_flux_charge_correct(p, flux_basis)),
                           (cutoff, eta))


@pytest.mark.parametrize("cutoff", [40, 41])
def test_frame_writer_refuses_a_part_of_the_wrong_parity(cutoff):
    """A cos row with an odd part, or a sin row with an even part, leaves the
    parity blocks: ParityError past HERMITICITY_RTOL of the scale, the
    part dropped below it."""
    x = qops.quadrature_values(cutoff)
    cos, sin = np.cos(x), np.sin(x)
    write = lambda c, s: rabi.rotated_parity_blocks(2, cutoff, 1.0, 1.3, lambda _: (c, s))
    for bad, term in (((cos + 1e-6 * x, sin), 1), ((cos, sin + 1e-6), 2)):
        with pytest.raises(ParityError, match=f"term {term} leaves the parity blocks"):
            write(*bad)
    # a part far below the rule is dropped: the blocks are the clean ones
    clean = write(cos, sin)
    for c, s in ((cos + 1e-17 * x, sin), (cos, sin + 1e-17)):
        assert all(np.array_equal(a, b) for a, b in zip(write(c, s).blocks, clean.blocks))
    with pytest.raises(ValueError, match=f"need {cutoff + 1} values"):
        write(cos[1:], sin[1:])


def test_frame_writer_checks_the_dimension_first(monkeypatch):
    """The dimension cap fails before the frame, the spectrum of X or the
    node values are reached."""
    def unreachable(*args):
        raise AssertionError("reached past the dimension cap")

    monkeypatch.setattr(rabi, "fock_factors", unreachable)
    monkeypatch.setattr(rabi, "quadrature_values", unreachable)
    # 5 (818 + 1) = 4095 fits the cap of 4096; one Fock level more does not
    with pytest.raises(DimensionOverflowError, match="4100 exceeds"):
        rabi.rotated_parity_blocks(4, 819, 1.0, 1.0, unreachable)
    with pytest.raises(DimensionOverflowError):
        blocks_H_C_correct(RabiParams(eta=0.3, cutoff=2048))


def test_frame_is_built_once_per_cutoff(monkeypatch):
    """Every build at a cutoff, of either writer, reads the one frame of its
    Fock factors: X is solved once and U, W and the number blocks are made
    once, read-only; another cutoff has its own."""
    fock_factors.cache_clear()
    solves = []
    eig = qops.hermitian_eig
    monkeypatch.setattr(qops, "hermitian_eig", lambda *a: solves.append(a) or eig(*a))
    blocks_H_C_correct(RabiParams(eta=0.3, cutoff=20))
    f = fock_factors(20)
    frame = {k: vars(f)[k] for k in FRAME}
    for eta in (0.0, 0.7, 2.0):
        blocks_H_C_correct(DickeParams(eta=eta, cutoff=20, n_dipoles=3))
        terms_H_C_correct(RabiParams(eta=eta, cutoff=20))
        rabi.blocks_H_C_rotated(RabiParams(eta=eta, cutoff=20),
                                lambda x: maclaurin_cos_sin(2.0 * eta * x, 5))
    assert len(solves) == 1
    assert fock_factors(20) is f and all(vars(f)[k] is v for k, v in frame.items())
    U, W = frame["U"], frame["W"]
    assert U.shape == (11, 11) and W.shape == (10, 10)
    for V in (U, W):
        assert np.abs(V.T @ V - np.eye(V.shape[0])).max() <= 1e-13
    for a in (U, W, *frame["n_frame"]):
        assert not a.flags.writeable
    assert all(np.array_equal(b, b.T) for b in frame["n_frame"])
    blocks_H_C_correct(RabiParams(eta=0.3, cutoff=21))
    assert len(solves) == 2 and vars(fock_factors(21))["U"] is not U


# ---------------------------------------------------------------------------
# the truncation-free oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eta", [0.25, 1.5, 3.0, 10.0])
def test_braak_oracle_matches_dipole_chains(eta):
    """Braak's G-function zeros are the dipole model's levels, here solved
    at the largest cutoff the dimension cap allows.  The lowest seven agree
    to within 1e-12 max(|E|, 1).  Measured, they agree to 1.3 eps max|E|
    everywhere but at eta = 1.5 on resonance, where a zero 2.8e-5 from the
    pole x = 1 is off by 8.0e-14; and they still agree to 1.3 eps max|E| at
    eta = 18, which takes 4 s and is left out here."""
    for detuning in (0.0, 0.2):
        exact = oracles.braak_rabi_levels(eta, (1.0 + detuning) / 2.0, 7)
        w = parity_eigvalsh(bands_H_D(RabiParams(eta=eta, cutoff=2047,
                                                        detuning=detuning)), 7)
        dev = float(np.abs(exact - w).max())
        assert dev <= 1e-12 * max(float(np.abs(w).max()), 1.0), (eta, detuning, dev)


def test_braak_oracle_range():
    # the sum of |K_n g^n| grows like exp(1.7 g^2): 2e271 at g = 18; from
    # g = 19 a term overflows, and the oracle says so instead of returning NaN
    with pytest.raises(OverflowError, match="leave the double range"):
        oracles.braak_rabi_levels(19.0, 0.5, 7)
