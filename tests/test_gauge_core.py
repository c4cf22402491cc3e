"""Every model's term list, written dense, entry by entry against the
independent constructions of tests/oracles.py, and written as real parity
blocks against the phased parity blocks of its dense matrix.

The Rabi, Dicke and fluxonium charge-gauge models share one spin-j core
(``gaugeqed.rabi``); the frozen spectra in the other modules pin them only
through eigenvalues, so this module pins the matrices themselves.  The
fluxonium lists are those of W H W^dag with W = 1 (x) diag(i^n), so
W^dag H W is pinned to the oracles' charge-quadrature forms.
"""

import itertools

import numpy as np
import pytest

import oracles
from conftest import conjugated, phased_blocks
from gaugeqed import (
    DickeParams,
    DimensionOverflowError,
    FluxoniumParams,
    ParityError,
    RabiParams,
    build_dicke_correct,
    build_dicke_standard,
    build_H_C_correct,
    build_H_C_standard,
    build_H_C_taylor,
    build_H_D,
    hermitian_eig,
    kron_sum,
    parity_block_sum,
    parity_eigvalsh,
    rabi,
    solve_fluxonium,
    terms_dicke_dipole,
    terms_flux_charge_correct,
    terms_flux_charge_standard,
    terms_full_H_C,
    terms_full_H_D,
    terms_H_alpha,
    terms_H_C_correct,
    terms_H_C_standard,
    terms_H_C_taylor,
)

# (eta, cutoff, detuning)
GRID = tuple(itertools.product((0.0, 0.4, 1.5), (1, 7, 40), (0.0, 0.2)))
ENTRY_RTOL = 1e-12


def assert_entrywise(H, ref, case):
    assert H.shape == ref.shape, case
    dev = float(np.abs(H - ref).max())
    limit = ENTRY_RTOL * max(float(np.abs(H).max()), 1.0)
    assert dev <= limit, f"{case}: max|H - oracle| = {dev:.3e} exceeds {limit:.3e}"


RABI = {
    "D": (build_H_D, oracles.rabi_dipole),
    "Cstd": (build_H_C_standard, oracles.rabi_coulomb_standard),
    "Ccorr closed_form": (build_H_C_correct, oracles.rabi_coulomb_correct),
    "Ccorr conjugation": (conjugated, oracles.rabi_coulomb_correct),
    "Taylor 2": (lambda p: build_H_C_taylor(p, 2),
                 lambda e, d, c: oracles.rabi_coulomb_taylor(e, d, c, 2)),
    "Taylor 10": (lambda p: build_H_C_taylor(p, 10),
                  lambda e, d, c: oracles.rabi_coulomb_taylor(e, d, c, 10)),
    "alpha 0": (lambda p: kron_sum(terms_H_alpha(p, 0.0)),
                lambda e, d, c: oracles.rabi_alpha(0.0, e, d, c)),
    "alpha 0.5": (lambda p: kron_sum(terms_H_alpha(p, 0.5)),
                  lambda e, d, c: oracles.rabi_alpha(0.5, e, d, c)),
    "alpha 1": (lambda p: kron_sum(terms_H_alpha(p, 1.0)),
                lambda e, d, c: oracles.rabi_alpha(1.0, e, d, c)),
}

DICKE = {
    "std": (build_dicke_standard, oracles.dicke_standard),
    "corr conjugation": (conjugated, oracles.dicke_correct),
    "corr closed_form": (build_dicke_correct, oracles.dicke_correct),
    "dipole": (lambda p: kron_sum(terms_dicke_dipole(p)), oracles.dicke_dipole),
}


@pytest.mark.parametrize("model", sorted(RABI))
def test_rabi_builders_match_oracles(model):
    build, oracle = RABI[model]
    for eta, cutoff, detuning in GRID:
        p = RabiParams(eta=eta, cutoff=cutoff, detuning=detuning)
        assert_entrywise(build(p), oracle(eta, detuning, cutoff),
                         (model, eta, cutoff, detuning))


@pytest.mark.parametrize("model", sorted(DICKE))
@pytest.mark.parametrize("n_dipoles", [1, 2, 4])
def test_dicke_builders_match_oracles(model, n_dipoles):
    build, oracle = DICKE[model]
    for eta, cutoff, detuning in GRID:
        p = DickeParams(eta=eta, cutoff=cutoff, detuning=detuning, n_dipoles=n_dipoles)
        assert_entrywise(build(p), oracle(n_dipoles, eta, detuning, cutoff),
                         (model, n_dipoles, eta, cutoff, detuning))


@pytest.fixture(scope="module")
def fluxonium_basis():
    return solve_fluxonium(FluxoniumParams(e_c=1.0, e_l=0.9, e_j=3.0))


FLUXONIUM = {
    "std": lambda p, b: kron_sum(terms_flux_charge_standard(p, b)),
    "corr closed_form": lambda p, b: kron_sum(terms_flux_charge_correct(p, b)),
    "corr conjugation": conjugated,
}


@pytest.mark.parametrize("model", sorted(FLUXONIUM))
def test_fluxonium_builders_match_oracles(model, fluxonium_basis):
    # eta is the charge-gauge coupling g_C / omega_10 = phi_10 chi0, and the
    # detuning moves the LC frequency omega_c = 1 + detuning.  W^dag X W is
    # i(a - a^dag), so W^dag H W is the oracle's charge-quadrature form
    b = fluxonium_basis
    for eta, cutoff, detuning in GRID:
        W = np.kron(np.eye(2), np.diag(1j ** (np.arange(cutoff + 1) % 4)))
        p = FluxoniumParams(e_c=1.0, e_l=0.9, e_j=3.0, chi0=eta / b.phi_10,
                            omega_c=1.0 + detuning, cutoff=cutoff)
        if model == "std":
            ref = oracles.flux_charge_standard(b.omega_10, b.phi_10, p.chi0, p.e_c,
                                               cutoff, p.omega_c)
        else:
            ref = oracles.flux_charge_correct(b.omega_10, b.phi_10, p.chi0, cutoff,
                                              p.omega_c)
        H = FLUXONIUM[model](p, b)
        assert_entrywise(W.conj().T @ H @ W, ref, (model, eta, cutoff, detuning))


# ---------------------------------------------------------------------------
# real parity blocks written by the core
# ---------------------------------------------------------------------------

def block_cases(eta, cutoff, detuning, particle, flux_basis):
    """(name, term list, matter dimension) of every model that is solved as
    blocks, at the orders, alphas and dipole numbers the sweeps and studies
    use, for the fluxonium models on ``flux_basis`` at coupling eta, and for
    the full models of a mirror-parity ``particle`` (model, basis) at two
    matter truncations."""
    p = RabiParams(eta=eta, cutoff=cutoff, detuning=detuning)
    yield "Ccorr", terms_H_C_correct(p), 2
    for order in (2, 10, 200):
        yield f"Taylor {order}", terms_H_C_taylor(p, order), 2
    for alpha in (0.0, 0.5, 1.0):
        yield f"alpha {alpha:g}", terms_H_alpha(p, alpha), 2
    for n in (1, 2, 4):
        q = DickeParams(eta=eta, cutoff=cutoff, detuning=detuning, n_dipoles=n)
        yield f"dicke {n} std", terms_H_C_standard(q), n + 1
        yield f"dicke {n} corr", terms_H_C_correct(q), n + 1
        yield f"dicke {n} dipole", terms_dicke_dipole(q), n + 1
    f = FluxoniumParams(e_c=1.0, e_l=0.9, e_j=3.0, chi0=eta / flux_basis.phi_10,
                        omega_c=1.0 + detuning, cutoff=cutoff)
    yield "flux std", terms_flux_charge_standard(f, flux_basis), 2
    yield "flux corr", terms_flux_charge_correct(f, flux_basis), 2
    model, basis = particle
    for m in (2, 7):
        args = (model, basis, cutoff, 0.5 * eta, m)
        yield f"full D {m}", terms_full_H_D(*args), m
        yield f"full C {m}", terms_full_H_C(*args), m


@pytest.mark.parametrize("cutoff", [1, 2, 15, 16, 41])
@pytest.mark.parametrize("eta", [0.0, 0.4, 1.5, 3.0])
def test_blocks_match_dense_builders(eta, cutoff, double_well, fluxonium_basis):
    """The block writer writes the phased parity blocks of the dense
    writer's matrix of each term list, entry by entry, and their eigenvalues
    are the dense matrix's.  Detuned, so that the J_z and J_y terms differ
    in scale."""
    for name, terms, matter in block_cases(eta, cutoff, 0.2, double_well, fluxonium_basis):
        case = (name, eta, cutoff)
        H, blocks = kron_sum(terms), parity_block_sum(terms)
        bound = ENTRY_RTOL * max(float(np.abs(H).max()), 1.0)
        ref, imag = phased_blocks(H, matter, cutoff + 1)
        assert imag <= bound, case
        assert len(blocks.blocks) == 2, case
        for want, got in zip(ref, blocks.blocks):
            assert got.shape == want.shape and got.dtype == np.float64, case
            assert not got.flags.writeable, case
            dev = float(np.abs(got - want).max())
            assert dev <= bound, f"{case}: max|B - phased H| = {dev:.3e} exceeds {bound:.3e}"
        dev = float(np.abs(parity_eigvalsh(blocks, H.shape[0])
                           - hermitian_eig(H, vectors=False).eigenvalues).max())
        assert dev <= bound, (case, dev)


def test_block_builders_enforce_dimension_cap(fluxonium_basis, double_well):
    # checked before any work: the cap is hit before cos/sin at cutoff 2048,
    # and before the Fock arrays of a full model at 32 matter levels
    p = RabiParams(eta=0.3, cutoff=2048)
    q = DickeParams(eta=0.3, cutoff=1000, n_dipoles=4)
    f = FluxoniumParams(e_c=1.0, e_l=0.9, e_j=3.0, chi0=0.2, cutoff=2048)
    model, basis = double_well
    full = (model, basis, 1000, 0.3, 32)
    for terms in (lambda: terms_H_C_correct(p), lambda: terms_H_C_taylor(p, 3),
                  lambda: terms_H_alpha(p, 0.5), lambda: terms_H_C_standard(q),
                  lambda: terms_H_C_correct(q), lambda: terms_dicke_dipole(q),
                  lambda: terms_flux_charge_standard(f, fluxonium_basis),
                  lambda: terms_flux_charge_correct(f, fluxonium_basis),
                  lambda: terms_full_H_D(*full), lambda: terms_full_H_C(*full)):
        for write in (parity_block_sum, kron_sum):
            with pytest.raises(DimensionOverflowError):
                write(terms())


def test_block_writer_rejects_a_complex_phased_spin_term():
    # J_x (x) (a + a^dag) keeps the parity, but 1j**(m2 - m) J_x is
    # imaginary, so no real block holds it
    s = rabi._real_parts(1, 4)
    with pytest.raises(ParityError, match="not real after the 1j\\*\\*m phase"):
        parity_block_sum([(s.jx, s.f.X)])
