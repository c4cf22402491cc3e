"""Flux qubit in an LC mode, charge gauge: solver, builders, and the mapping
onto the two-level models in the quadratic limit.

The phase-grid oracle uses a second-order finite-difference Laplacian while
the package solver is spectral in the oscillator basis, so cross-method
comparisons get a 1e-6 relative budget; like-for-like comparisons (same
inputs, independent matrix code) get 1e-10.
"""

import numpy as np
import pytest

import oracles
from conftest import conjugated
from gaugeqed import (
    BasisTooSmallError,
    FluxoniumParams,
    RabiParams,
    coupling_g_c,
    hermitian_eig,
    kron_sum,
    lowest_transitions,
    parity_block_sum,
    rabi,
    solve_fluxonium,
    terms_flux_charge_correct,
    terms_flux_charge_standard,
    terms_H_C_correct,
    terms_H_C_standard,
)

PARAMS = FluxoniumParams(e_c=1.0, e_l=0.9, e_j=3.0, chi0=0.2, cutoff=120)

GOLD_W10 = 4.721517902028e+00
GOLD_PHI10 = 9.173554855543e-01
GOLD_GC = 8.662620695136e-01
GOLD_STD = np.array([1.024833579528e+00, 2.087512720512e+00, 3.171131545832e+00])
GOLD_CORR = np.array([9.850894869065e-01, 1.970327512454e+00, 2.955708783889e+00])


@pytest.fixture(scope="module")
def basis():
    return solve_fluxonium(PARAMS)


def transitions(H, k):
    return hermitian_eig(H, vectors=False).transitions(k)


# ---------------------------------------------------------------------------
# parameters and solver
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        FluxoniumParams(e_c=0.0, e_l=1.0, e_j=1.0)
    with pytest.raises(ValueError):
        FluxoniumParams(e_c=1.0, e_l=1.0, e_j=-1.0)
    with pytest.raises(ValueError):
        FluxoniumParams(e_c=1.0, e_l=1.0, e_j=1.0, basis_size=30)
    with pytest.raises(ValueError):
        FluxoniumParams(e_c=1.0, e_l=1.0, e_j=1.0, n_keep=1)
    with pytest.raises(ValueError):
        FluxoniumParams(e_c=1.0, e_l=1.0, e_j=1.0, basis_size=40, n_keep=21)


def test_quadratic_limit_is_exact():
    # E_J = 0 is the oscillator itself: ladder spacing omega_quad and
    # phi_10 = phi_zp with no basis error at all
    p = FluxoniumParams(e_c=1.0, e_l=0.9, e_j=0.0, n_keep=5)
    b = solve_fluxonium(p)
    gaps = np.diff(b.energies)
    assert np.abs(gaps - p.omega_quad).max() <= 1e-12
    assert abs(abs(b.phi_10) - p.phi_zp) <= 1e-12
    assert abs(b.omega_10 - p.omega_quad) <= 1e-12


def test_solver_golden(basis):
    assert basis.omega_10 == pytest.approx(GOLD_W10, rel=1e-10)
    assert abs(basis.phi_10) == pytest.approx(GOLD_PHI10, rel=1e-10)
    assert coupling_g_c(PARAMS, basis) == pytest.approx(GOLD_GC, rel=1e-10)


def test_solver_against_phase_grid_oracle(basis):
    w, phi_el = oracles.fluxonium_phase_grid(PARAMS.e_c, PARAMS.e_l, PARAMS.e_j)
    assert w[1] - w[0] == pytest.approx(basis.omega_10, rel=1e-6)
    assert abs(phi_el[0, 1]) == pytest.approx(abs(basis.phi_10), rel=1e-6)


def test_basis_too_small_raised():
    p = FluxoniumParams(e_c=1.0, e_l=0.9, e_j=40.0, basis_size=40)
    with pytest.raises(BasisTooSmallError):
        solve_fluxonium(p)


def test_basis_arrays_frozen(basis):
    with pytest.raises(ValueError):
        basis.energies[0] = 0.0


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_standard_golden(basis):
    t = transitions(kron_sum(terms_flux_charge_standard(PARAMS, basis)), 3)
    assert np.max(np.abs(t - GOLD_STD) / GOLD_STD) <= 1e-10


def test_correct_golden(basis):
    t = transitions(kron_sum(terms_flux_charge_correct(PARAMS, basis)), 3)
    assert np.max(np.abs(t - GOLD_CORR) / GOLD_CORR) <= 1e-10


def test_blocks_golden(basis):
    # the real parity blocks the CLI solves hold the same goldens
    for terms, gold in ((terms_flux_charge_standard, GOLD_STD),
                        (terms_flux_charge_correct, GOLD_CORR)):
        t = lowest_transitions(parity_block_sum(terms(PARAMS, basis)), 3)
        assert np.max(np.abs(t - gold) / gold) <= 1e-10


def test_qubit_solve_is_real(basis):
    # the qubit is solved in real arithmetic; the sign rule (each
    # eigenvector's largest component positive) keeps phi_10 positive here
    for name in ("energies", "phi_elems"):
        assert getattr(basis, name).dtype == np.float64
    assert basis.phi_10 > 0


def test_builders_against_oracle_matrices(basis):
    w10, phi10 = basis.omega_10, abs(basis.phi_10)
    t = transitions(kron_sum(terms_flux_charge_standard(PARAMS, basis)), 3)
    w = np.linalg.eigvalsh(oracles.flux_charge_standard(
        w10, phi10, PARAMS.chi0, PARAMS.e_c, PARAMS.cutoff))
    assert np.abs(t - (w[1:4] - w[0])).max() <= 1e-10
    t = transitions(kron_sum(terms_flux_charge_correct(PARAMS, basis)), 3)
    w = np.linalg.eigvalsh(oracles.flux_charge_correct(
        w10, phi10, PARAMS.chi0, PARAMS.cutoff))
    assert np.abs(t - (w[1:4] - w[0])).max() <= 1e-10


def test_conjugation_matches_closed_form(basis):
    h1 = conjugated(PARAMS, basis)
    h2 = kron_sum(terms_flux_charge_correct(PARAMS, basis))
    scale = np.abs(h2).max()
    assert np.abs(h1 - h2).max() <= 1e-9 * scale


def test_charge_term_nonnegative(basis):
    # -(a - a^dag)^2 is positive semidefinite, so the chi0^2 term only
    # shifts energies up; the builders write it as W (.) W^dag = X^2
    X = rabi._real_parts(1, 40).f.X
    w = np.linalg.eigvalsh(X @ X)
    assert w.min() >= -1e-12


def test_builders_hermitian(basis):
    for terms in (terms_flux_charge_standard, terms_flux_charge_correct):
        H = kron_sum(terms(PARAMS, basis))
        assert H.dtype == np.complex128 and not H.flags.writeable
        assert np.abs(H - H.conj().T).max() <= 1e-12 * np.abs(H).max()


# ---------------------------------------------------------------------------
# physics
# ---------------------------------------------------------------------------

def test_gauge_gap_at_moderate_coupling(basis):
    # chi0 = 0.2 on this qubit already separates naive from corrected at
    # the few-percent level
    t_std = transitions(kron_sum(terms_flux_charge_standard(PARAMS, basis)), 3)
    t_cor = transitions(kron_sum(terms_flux_charge_correct(PARAMS, basis)), 3)
    rel = np.abs(t_std - t_cor) / t_cor
    assert rel.max() > 0.03
    assert rel.max() < 0.15


def test_unit_coupling_breakdown():
    # push 2 theta = 2 phi_10 chi0 to 2: the naive first transition lands
    # several times above the corrected one
    p = FluxoniumParams(e_c=1.0, e_l=0.9, e_j=3.0, chi0=1.0, cutoff=160)
    b = solve_fluxonium(p)
    p_unit = FluxoniumParams(e_c=1.0, e_l=0.9, e_j=3.0,
                             chi0=1.0 / abs(b.phi_10), cutoff=160)
    t_std = transitions(kron_sum(terms_flux_charge_standard(p_unit, b)), 1)
    t_cor = transitions(kron_sum(terms_flux_charge_correct(p_unit, b)), 1)
    assert t_std[0] / t_cor[0] > 4.0


def test_quadratic_limit_maps_to_two_level_models():
    # with E_J = 0 the qubit is harmonic and the charge-gauge models are
    # unitarily a quadrature rotation away from the two-level forms: same
    # spectra with omega_10 = omega_quad, eta = phi_10 chi0, including the
    # matching charging term (omega_quad phi_zp^2 = 4 e_c identically)
    p = FluxoniumParams(e_c=1.0, e_l=0.9, e_j=0.0, chi0=0.25, cutoff=80)
    b = solve_fluxonium(p)
    eta = abs(b.phi_10) * p.chi0
    pr = RabiParams(eta=eta, cutoff=80, detuning=b.omega_10 - 1.0)
    assert p.omega_quad * p.phi_zp ** 2 == pytest.approx(4.0 * p.e_c, rel=1e-12)
    for flux_terms, rabi_terms in ((terms_flux_charge_standard, terms_H_C_standard),
                                   (terms_flux_charge_correct, terms_H_C_correct)):
        w_f = hermitian_eig(kron_sum(flux_terms(p, b)), vectors=False).eigenvalues
        w_r = hermitian_eig(kron_sum(rabi_terms(pr)), vectors=False).eigenvalues
        assert np.abs(w_f - w_r).max() <= 1e-9
