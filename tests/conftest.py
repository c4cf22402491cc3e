"""Shared fixtures; the expensive 1d solves are session-scoped."""

import numpy as np
import pytest
from hypothesis import settings

from gaugeqed import OperatorMatrix, double_well_model, harmonic_model, solve_particle

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
