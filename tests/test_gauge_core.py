"""Every dense gauge builder, entry by entry, against the independent
constructions of tests/oracles.py, and every real-block builder against the
phased parity blocks of its dense builder.

The Rabi, Dicke and fluxonium charge-gauge builders share one spin-j core
(``gaugeqed.rabi``); the frozen spectra in the other modules pin them only
through eigenvalues, so this module pins the matrices themselves.
"""

import itertools

import numpy as np
import pytest

import oracles
from gaugeqed import (
    DickeParams,
    DimensionOverflowError,
    FluxoniumParams,
    ParityError,
    RabiParams,
    blocks_dicke_correct,
    blocks_dicke_dipole,
    blocks_dicke_standard,
    blocks_H_alpha,
    blocks_H_C_correct,
    blocks_H_C_taylor,
    build_dicke_correct,
    build_dicke_dipole,
    build_dicke_standard,
    build_flux_charge_correct,
    build_flux_charge_standard,
    build_H_alpha,
    build_H_C_correct,
    build_H_C_standard,
    build_H_C_taylor,
    build_H_D,
    block_parity_eigvalsh,
    parity_eigvalsh,
    solve_fluxonium,
)
from gaugeqed import rabi

# (eta, cutoff, detuning)
GRID = tuple(itertools.product((0.0, 0.4, 1.5), (1, 7, 40), (0.0, 0.2)))
ENTRY_RTOL = 1e-12


def assert_entrywise(H, ref, case):
    H = H.arr
    assert H.shape == ref.shape, case
    dev = float(np.abs(H - ref).max())
    limit = ENTRY_RTOL * max(float(np.abs(H).max()), 1.0)
    assert dev <= limit, f"{case}: max|H - oracle| = {dev:.3e} exceeds {limit:.3e}"


RABI = {
    "D": (build_H_D, oracles.rabi_dipole),
    "Cstd": (build_H_C_standard, oracles.rabi_coulomb_standard),
    "Ccorr closed_form": (lambda p: build_H_C_correct(p, method="closed_form"),
                          oracles.rabi_coulomb_correct),
    "Ccorr conjugation": (lambda p: build_H_C_correct(p, method="conjugation"),
                          oracles.rabi_coulomb_correct),
    "Taylor 2": (lambda p: build_H_C_taylor(p, 2),
                 lambda e, d, c: oracles.rabi_coulomb_taylor(e, d, c, 2)),
    "Taylor 10": (lambda p: build_H_C_taylor(p, 10),
                  lambda e, d, c: oracles.rabi_coulomb_taylor(e, d, c, 10)),
    "alpha 0": (lambda p: build_H_alpha(p, 0.0),
                lambda e, d, c: oracles.rabi_alpha(0.0, e, d, c)),
    "alpha 0.5": (lambda p: build_H_alpha(p, 0.5),
                  lambda e, d, c: oracles.rabi_alpha(0.5, e, d, c)),
    "alpha 1": (lambda p: build_H_alpha(p, 1.0),
                lambda e, d, c: oracles.rabi_alpha(1.0, e, d, c)),
}

DICKE = {
    "std": (build_dicke_standard, oracles.dicke_standard),
    "corr conjugation": (lambda p: build_dicke_correct(p, method="conjugation"),
                         oracles.dicke_correct),
    "corr closed_form": (lambda p: build_dicke_correct(p, method="closed_form"),
                         oracles.dicke_correct),
    "dipole": (build_dicke_dipole, oracles.dicke_dipole),
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
    "std": build_flux_charge_standard,
    "corr closed_form": lambda p, b: build_flux_charge_correct(p, b, method="closed_form"),
    "corr conjugation": lambda p, b: build_flux_charge_correct(p, b, method="conjugation"),
}


@pytest.mark.parametrize("model", sorted(FLUXONIUM))
def test_fluxonium_builders_match_oracles(model, fluxonium_basis):
    # eta is the charge-gauge coupling g_C / omega_10 = phi_10 chi0, and the
    # detuning moves the LC frequency omega_c = 1 + detuning
    b = fluxonium_basis
    for eta, cutoff, detuning in GRID:
        p = FluxoniumParams(e_c=1.0, e_l=0.9, e_j=3.0, chi0=eta / b.phi_10,
                            omega_c=1.0 + detuning, cutoff=cutoff)
        if model == "std":
            ref = oracles.flux_charge_standard(b.omega_10, b.phi_10, p.chi0, p.e_c,
                                               cutoff, p.omega_c)
        else:
            ref = oracles.flux_charge_correct(b.omega_10, b.phi_10, p.chi0, cutoff,
                                              p.omega_c)
        assert_entrywise(FLUXONIUM[model](p, b), ref, (model, eta, cutoff, detuning))


# ---------------------------------------------------------------------------
# real parity blocks written by the core
# ---------------------------------------------------------------------------

def phased_blocks(H, matter, field_dim):
    """The parity blocks of a dense matter (x) Fock matrix as parity_eigvalsh
    gathers them: entries 1j**(m2 - m) H_kl, matter index m slowest, Fock
    levels n = (m + c) mod 2, +2, ... next to it; returns (real blocks,
    max|Im|)."""
    h4 = H.arr.reshape(matter, field_dim, matter, field_dim)
    blocks, imag = [], 0.0
    for c in (0, 1):
        block = np.block([[h4[m, (m + c) % 2::2, m2, (m2 + c) % 2::2] * 1j ** ((m2 - m) % 4)
                           for m2 in range(matter)] for m in range(matter)])
        blocks.append(block.real)
        imag = max(imag, float(np.abs(block.imag).max()))
    return blocks, imag


def block_cases(eta, cutoff, detuning):
    """(name, dense matrix, its real blocks, matter dimension) of every block
    builder, at the orders, alphas and dipole numbers the sweeps and studies
    use."""
    p = RabiParams(eta=eta, cutoff=cutoff, detuning=detuning)
    yield "Ccorr", build_H_C_correct(p), blocks_H_C_correct(p), 2
    for order in (2, 10, 200):
        yield f"Taylor {order}", build_H_C_taylor(p, order), blocks_H_C_taylor(p, order), 2
    for alpha in (0.0, 0.5, 1.0):
        yield f"alpha {alpha:g}", build_H_alpha(p, alpha), blocks_H_alpha(p, alpha), 2
    for n in (1, 2, 4):
        q = DickeParams(eta=eta, cutoff=cutoff, detuning=detuning, n_dipoles=n)
        yield f"dicke {n} std", build_dicke_standard(q), blocks_dicke_standard(q), n + 1
        yield (f"dicke {n} corr", build_dicke_correct(q, method="closed_form"),
               blocks_dicke_correct(q), n + 1)
        yield f"dicke {n} dipole", build_dicke_dipole(q), blocks_dicke_dipole(q), n + 1


@pytest.mark.parametrize("cutoff", [1, 2, 15, 16, 41])
@pytest.mark.parametrize("eta", [0.0, 0.4, 1.5, 3.0])
def test_blocks_match_dense_builders(eta, cutoff):
    """Each block builder writes the phased parity blocks of its dense
    builder, entry by entry, and their eigenvalues are the dense parity
    solve's.  Detuned, so that the J_z and J_y terms differ in scale."""
    for name, H, blocks, matter in block_cases(eta, cutoff, 0.2):
        case = (name, eta, cutoff)
        bound = ENTRY_RTOL * max(float(np.abs(H.arr).max()), 1.0)
        ref, imag = phased_blocks(H, matter, cutoff + 1)
        assert imag <= bound, case
        assert len(blocks.blocks) == 2, case
        for want, got in zip(ref, blocks.blocks):
            assert got.shape == want.shape and got.dtype == np.float64, case
            assert not got.flags.writeable, case
            dev = float(np.abs(got - want).max())
            assert dev <= bound, f"{case}: max|B - phased H| = {dev:.3e} exceeds {bound:.3e}"
        dev = float(np.abs(block_parity_eigvalsh(blocks)
                           - parity_eigvalsh(H, cutoff + 1)).max())
        assert dev <= bound, (case, dev)


def test_block_builders_enforce_dimension_cap():
    # checked before any work: the cap is hit before cos/sin at cutoff 2048
    p = RabiParams(eta=0.3, cutoff=2048)
    q = DickeParams(eta=0.3, cutoff=1000, n_dipoles=4)
    for build, params in ((blocks_H_C_correct, p), (lambda r: blocks_H_C_taylor(r, 3), p),
                          (lambda r: blocks_H_alpha(r, 0.5), p), (blocks_dicke_standard, q),
                          (blocks_dicke_correct, q), (blocks_dicke_dipole, q)):
        with pytest.raises(DimensionOverflowError):
            build(params)


def test_block_writer_rejects_a_complex_phased_spin_term():
    # J_x (x) (a + a^dag) keeps the parity, but 1j**(m2 - m) J_x is
    # imaginary, so no real block holds it
    s = rabi._real_parts(1, 4)
    with pytest.raises(ParityError, match="not real after the 1j\\*\\*m phase"):
        rabi._blocks(1, 4, [(s.jx, s.X)])
