"""Every dense gauge builder, entry by entry, against the independent
constructions of tests/oracles.py.

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
    FluxoniumParams,
    RabiParams,
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
    solve_fluxonium,
)

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
