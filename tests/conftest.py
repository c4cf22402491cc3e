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
