"""Shared fixtures; the expensive 1d solves are session-scoped."""

# gaugeqed before numpy: its import sets the BLAS thread count numpy loads with
from gaugeqed import (FluxoniumParams, OperatorMatrix, double_well_model, fluxonium,
                      harmonic_model, lowest_transitions, parity_band_sum, rabi,
                      solve_particle, terms_full_H_C, terms_full_H_D)
from gaugeqed.linalg import hermitian_operator

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=25,
                          derandomize=True)
settings.load_profile("suite")


def rng(seed):
    return np.random.default_rng(seed)


# Pauli matrices in the package's (ground, excited) qubit ordering, where
# sigma_z = diag(-1, +1) and sigma_k = 2 J_k at j = 1/2
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, 1j], [-1j, 0]])
SIGMA_Z = np.diag([-1.0, 1.0]).astype(complex)


def pauli():
    """sigma_x, sigma_y, sigma_z as Hermitian-tagged operators."""
    return tuple(OperatorMatrix(s, hermitian_hint=True) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))


def phased_blocks(H, matter, field_dim):
    """The two parity blocks of a dense matter (x) Fock matrix, gathered the
    slow way: entries 1j**(m2 - m) H_kl of parity class (m + n) mod 2 = c,
    matter index m slowest and Fock levels n = (m + c) mod 2, +2, ... next
    to it, as ``linalg.parity_block_sum`` writes them; returns (real blocks,
    max|Im| of the phased blocks)."""
    h4 = H.arr.reshape(matter, field_dim, matter, field_dim)
    blocks, imag = [], 0.0
    for c in (0, 1):
        block = np.block([[h4[m, (m + c) % 2::2, m2, (m2 + c) % 2::2] * 1j ** ((m2 - m) % 4)
                           for m2 in range(matter)] for m in range(matter)])
        blocks.append(block.real)
        imag = max(imag, float(np.abs(block.imag).max()))
    return blocks, imag


def conjugated(p, basis=None):
    """The corrected Coulomb model of ``p`` built by the reference
    conjugation ``rabi._conjugated`` instead of the builders' closed form:
    U (omega_10 J_z (x) 1) U^dag + omega_c 1 (x) n with U = exp(i phi J_x (x) X).

    For RabiParams and DickeParams that is spin j = two_j / 2,
    omega_c = 1 and phi = 2 eta; for FluxoniumParams, with its solved
    ``basis``, it is W H W^dag of the charge-gauge model: j = 1/2, the
    params' omega_c, the basis' omega_10 and phi = -2 g_C / omega_10.
    """
    if isinstance(p, FluxoniumParams):
        s = rabi._real_parts(1, p.cutoff)
        arr = rabi._conjugated(s, p.omega_c, basis.omega_10, -fluxonium._two_theta(p, basis))
    else:
        arr = rabi._conjugated(rabi._real_parts(p.two_j, p.cutoff), 1.0, p.omega_10,
                               2.0 * p.eta)
    return hermitian_operator(arr)


def random_hermitian(dim, seed, scale=1.0):
    g = rng(seed)
    m = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    return scale * (m + m.conj().T) / 2.0


@pytest.fixture(scope="session")
def harmonic():
    model = harmonic_model()
    return model, solve_particle(model)


@pytest.fixture(scope="session")
def double_well():
    model = double_well_model()
    return model, solve_particle(model)


# matter levels of the full-model gap tables
FULL_MODEL_M_LEVELS = (2, 4, 8, 16, 32)


def gauge_gap(model, basis, m_used, a0=0.3, cutoff=48, levels=4):
    """max |t_D - t_C| over the lowest ``levels`` transitions of the two full
    models, each solved as ``cli full-model`` solves it: its banded parity
    chains, for the lowest levels + 1 eigenvalues."""
    args = (model, basis, cutoff, a0, m_used)
    td = lowest_transitions(parity_band_sum(terms_full_H_D(*args)), levels)
    tc = lowest_transitions(parity_band_sum(terms_full_H_C(*args)), levels)
    return float(np.abs(td - tc).max())


@pytest.fixture(scope="session")
def double_well_gaps(double_well):
    """gauge_gap of the double well at each of FULL_MODEL_M_LEVELS."""
    return {m: gauge_gap(*double_well, m) for m in FULL_MODEL_M_LEVELS}


@pytest.fixture(scope="session")
def harmonic_gaps(harmonic):
    """gauge_gap of the harmonic well at each of FULL_MODEL_M_LEVELS."""
    return {m: gauge_gap(*harmonic, m) for m in FULL_MODEL_M_LEVELS}
