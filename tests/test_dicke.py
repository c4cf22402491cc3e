"""Collective models: reduction to the single-dipole case, the rotation
identity, and the corrected form's dipole-gauge partner."""

import numpy as np
import pytest

import oracles
from conftest import conjugated
from gaugeqed import (
    DickeParams,
    DimensionOverflowError,
    ParityBands,
    RabiParams,
    build_dicke_correct,
    build_dicke_standard,
    build_H_C_correct,
    build_H_C_standard,
    build_H_D,
    conjugate,
    hermitian_eig,
    terms_dicke_dipole,
    unitary_exp,
)
from gaugeqed import kron_sum, rabi
from gaugeqed.qops import _spin_arrays

# n_dipoles = 4, eta = 0.3, resonant, cutoff 80
GOLD_N4_CORR = np.array([
    5.375076460234e-01, 1.104581807938e+00,
    1.695803151405e+00, 1.724800561024e+00,
])


def transitions(H, k):
    return hermitian_eig(H, vectors=False).transitions(k)


def dicke_dipole(p):
    return kron_sum(terms_dicke_dipole(p))


def closed_form_at(p, factor):
    """The corrected Dicke model's terms with cos/sin of factor * eta X in
    place of 2 eta X, written by the dense writer: factor 4 is the printed
    variant that the rotation identity rules out."""
    s = rabi._real_parts(p.n_dipoles, p.cutoff)
    cos, sin = rabi._real_cos_sin(p.cutoff, factor * p.eta)
    return kron_sum(rabi._rotated_terms(s, 1.0, p.omega_10, cos, sin))


def test_params():
    p = DickeParams(eta=0.2, n_dipoles=4)
    assert p.j == 2.0
    assert p.two_j == 4 and RabiParams(eta=0.2).two_j == 1
    assert p.dim == 5 * (p.cutoff + 1)
    with pytest.raises(ValueError):
        DickeParams(eta=0.2, n_dipoles=0)


# the Rabi-only builders, each as a function of the parameters alone
ONE_DIPOLE_BUILDERS = {
    "terms_H_D": rabi.terms_H_D,
    "terms_H_C_taylor": lambda p: rabi.terms_H_C_taylor(p, 6),
    "terms_H_alpha": lambda p: rabi.terms_H_alpha(p, 0.5),
    "bands_H_D": rabi.bands_H_D,
    "bands_H_C_standard": rabi.bands_H_C_standard,
}


def built_arrays(built):
    """The arrays a builder returned: a term list's spin and field parts in
    order, or a ParityBands' chains."""
    if isinstance(built, ParityBands):
        return list(built.chains)
    return [np.asarray(a) for term in built for a in term]


@pytest.mark.parametrize("name", sorted(ONE_DIPOLE_BUILDERS))
def test_one_dipole_builders_reject_several_dipoles(name):
    build = ONE_DIPOLE_BUILDERS[name]
    with pytest.raises(ValueError, match="two_j = 4"):
        build(DickeParams(eta=0.3, cutoff=4, n_dipoles=4))
    # one dipole, as RabiParams or as a one-dipole DickeParams, builds the
    # same Rabi model bit for bit
    rabi_arrays = built_arrays(build(RabiParams(eta=0.3, cutoff=4)))
    dicke_arrays = built_arrays(build(DickeParams(eta=0.3, cutoff=4, n_dipoles=1)))
    assert len(rabi_arrays) == len(dicke_arrays)
    for a, b in zip(rabi_arrays, dicke_arrays):
        assert a.tobytes() == b.tobytes()
    if name.startswith("terms_"):
        assert {a.shape for a in rabi_arrays[::2]} == {(2, 2)}
    else:
        assert [c.shape[1] for c in rabi_arrays] == [5, 5]


# ---------------------------------------------------------------------------
# N = 1 reduction
# ---------------------------------------------------------------------------

def test_single_dipole_reduces_to_rabi():
    pd = DickeParams(eta=0.4, cutoff=50, detuning=0.2, n_dipoles=1)
    pr = RabiParams(eta=0.4, cutoff=50, detuning=0.2)
    for dicke_build, rabi_build in (
            (build_dicke_standard, build_H_C_standard),
            (conjugated, build_H_C_correct)):
        hd = dicke_build(pd)
        hr = rabi_build(pr)
        scale = np.abs(hr).max()
        assert np.abs(hd - hr).max() <= 1e-10 * scale
        wd = hermitian_eig(hd, vectors=False).eigenvalues
        wr = hermitian_eig(hr, vectors=False).eigenvalues
        assert np.abs(wd - wr).max() <= 1e-10


def test_single_dipole_dipole_gauge_offset():
    # at N = 1 the collective J_x^2 term is the scalar eta^2, which
    # the two-level dipole builder drops; the partner keeps it
    p = DickeParams(eta=0.4, cutoff=50, n_dipoles=1)
    hd = dicke_dipole(p)
    hr = build_H_D(RabiParams(eta=0.4, cutoff=50))
    shift = p.eta ** 2
    dev = np.abs(hd - hr - shift * np.eye(p.dim)).max()
    assert dev <= 1e-12 * np.abs(hr).max()


# ---------------------------------------------------------------------------
# construction routes
# ---------------------------------------------------------------------------

def test_conjugation_matches_closed_form_factor2():
    p = DickeParams(eta=0.3, cutoff=60, n_dipoles=3)
    h_conj = conjugated(p)
    h_closed = build_dicke_correct(p)
    scale = np.abs(h_conj).max()
    assert np.abs(h_conj - h_closed).max() <= 1e-9 * scale


def test_closed_form_factor4_disagrees():
    # the rotation identity fixes the argument at 2 eta (a + a^dag); doubling
    # it again produces a materially different operator, which is the point
    # of keeping the conjugation route authoritative
    p = DickeParams(eta=0.3, cutoff=60, n_dipoles=3)
    h_conj = conjugated(p)
    h4 = closed_form_at(p, 4)
    scale = np.abs(h_conj).max()
    assert np.abs(h_conj - h4).max() > 1e-3 * scale
    t_conj = transitions(h_conj, 4)
    t4 = transitions(h4, 4)
    assert np.abs(t_conj - t4).max() > 1e-3


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_n4_golden():
    p = DickeParams(eta=0.3, cutoff=80, n_dipoles=4)
    t = transitions(build_dicke_correct(p), 4)
    assert np.max(np.abs(t - GOLD_N4_CORR) / GOLD_N4_CORR) <= 1e-10


def test_matches_raw_oracle():
    w = np.linalg.eigvalsh(oracles.dicke_standard(3, 0.25, 0.1, 70))
    p = DickeParams(eta=0.25, cutoff=70, detuning=0.1, n_dipoles=3)
    t = transitions(build_dicke_standard(p), 5)
    assert np.abs(t - (w[1:6] - w[0])).max() <= 1e-11
    w = np.linalg.eigvalsh(oracles.dicke_correct(3, 0.25, 0.1, 70))
    t = transitions(build_dicke_correct(p), 5)
    assert np.abs(t - (w[1:6] - w[0])).max() <= 1e-11


def test_eta_zero_ladder():
    # uncoupled: E = omega_10 (m + j) + omega_c n above the ground state
    p = DickeParams(eta=0.0, cutoff=30, detuning=0.5, n_dipoles=3)
    expected = sorted(p.omega_10 * k + n
                      for k in range(4) for n in range(8))[1:9]
    for build in (build_dicke_standard, build_dicke_correct, dicke_dipole):
        t = transitions(build(p), 8)
        assert np.abs(t - np.array(expected)).max() <= 1e-10


def test_dipole_partner_spectrum():
    p = DickeParams(eta=0.3, cutoff=120, n_dipoles=4)
    t_corr = transitions(build_dicke_correct(p), 4)
    t_dip = transitions(dicke_dipole(p), 4)
    assert np.abs(t_corr - t_dip).max() <= 1e-10


def test_standard_fails_at_strong_coupling():
    p = DickeParams(eta=0.8, cutoff=120, n_dipoles=4)
    t_std = transitions(build_dicke_standard(p), 4)
    t_corr = transitions(build_dicke_correct(p), 4)
    assert np.max(np.abs(t_std - t_corr) / t_corr) > 0.10


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

def test_collective_spin_conserved():
    p = DickeParams(eta=0.35, cutoff=40, detuning=0.2, n_dipoles=4)
    jx, jy, jz = _spin_arrays(p.n_dipoles)
    j2 = jx @ jx + jy @ jy + jz @ jz
    j2_emb = np.kron(j2, np.eye(p.cutoff + 1))
    for build in (build_dicke_standard, build_dicke_correct, dicke_dipole):
        H = build(p)
        dev = np.abs(H @ j2_emb - j2_emb @ H).max()
        assert dev <= 1e-12 * np.abs(H).max() * np.abs(j2).max()


def test_spectrum_invariant_under_further_rotation():
    # conjugating by another exp[i beta J_x (a + a^dag)] must not move the
    # spectrum (it is unitary on the truncated space)
    p = DickeParams(eta=0.3, cutoff=60, n_dipoles=3)
    H = build_dicke_correct(p)
    s = rabi._real_parts(p.n_dipoles, p.cutoff)
    U = unitary_exp(np.kron(s.jx, s.f.X), 0.37)
    w0 = hermitian_eig(H, vectors=False).eigenvalues
    w1 = hermitian_eig(conjugate(U, H), vectors=False).eigenvalues
    assert np.abs(w0 - w1).max() <= 1e-9 * max(np.abs(w0).max(), 1.0)


def test_builders_hermitian():
    p = DickeParams(eta=0.5, cutoff=30, detuning=0.3, n_dipoles=2)
    for build in (build_dicke_standard, build_dicke_correct, dicke_dipole):
        H = build(p)
        assert H.dtype == np.complex128 and not H.flags.writeable
        assert np.abs(H - H.conj().T).max() <= 1e-12 * np.abs(H).max()


def test_builders_enforce_dimension_cap():
    # (4 + 1) * (1000 + 1) = 5005 exceeds DIM_CAP_DEFAULT = 4096
    p = DickeParams(eta=0.3, cutoff=1000, n_dipoles=4)
    for build in (build_dicke_standard, dicke_dipole,
                  build_dicke_correct):
        with pytest.raises(DimensionOverflowError):
            build(p)
