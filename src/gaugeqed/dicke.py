"""N-dipole (Dicke) Hamiltonians in the collective spin-j representation.

Everything lives in the symmetric sector j = N/2 (dimension N+1); the full
2^N product space adds nothing to the spectrum there.  The builders are the
spin-j gauge core of ``gaugeqed.rabi`` at two_j = N with Q = a + a^dag, so
at N=1 they reduce to the Rabi matrices (2 J_k = sigma_k at j=1/2).

The truncation-consistent construction conjugates the bare splitting
omega_10 J_z by U_N = exp[i 2 eta (a + a^dag) J_x]; the equivalent closed
form carries cos/sin of 2 eta (a + a^dag) (the spin rotation identity).

Each model is the core's term list at two_j = N: ``build_dicke_*`` writes
it as a dense matrix and ``blocks_dicke_*`` as the two real parity blocks
the sweeps solve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import OperatorMatrix, ParityBlocks, hermitian_operator, kron_sum, parity_block_sum
from .rabi import (RabiParams, _conjugated, _correct_terms, _dipole_terms, _real_parts,
                   _standard_terms)


@dataclass(frozen=True)
class DickeParams(RabiParams):
    """Rabi parameters plus the number of dipoles; j = n_dipoles / 2."""

    n_dipoles: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.n_dipoles < 1:
            raise ValueError(f"n_dipoles must be >= 1, got {self.n_dipoles}")

    @property
    def j(self) -> float:
        return self.n_dipoles / 2.0

    @property
    def dim(self) -> int:
        return (self.n_dipoles + 1) * (self.cutoff + 1)


def build_dicke_standard(p: DickeParams) -> OperatorMatrix:
    """Naive two-level-per-dipole Coulomb-gauge Dicke model.

    The diamagnetic coefficient is N g_C^2 / omega_10, the per-dipole
    sum-rule-saturated value (N times the Rabi one).
    """
    return kron_sum(_standard_terms(_real_parts(p.n_dipoles, p.cutoff), p))


def blocks_dicke_standard(p: DickeParams) -> ParityBlocks:
    """The real parity blocks of ``build_dicke_standard``."""
    return parity_block_sum(_standard_terms(_real_parts(p.n_dipoles, p.cutoff), p))


def build_dicke_correct(p: DickeParams, method: str = "conjugation") -> OperatorMatrix:
    """Truncation-consistent Coulomb-gauge Dicke model.

    ``method="conjugation"`` (the defining construction, hence the default):
    U_N (omega_10 J_z) U_N^dag + omega_c a^dag a.  ``method="closed_form"``
    evaluates J_z cos[2 eta (a+a^dag)] + J_y sin[...] from the cached
    eigendecomposition of a + a^dag; the rotation identity fixes the
    argument at 2 eta.
    """
    s = _real_parts(p.n_dipoles, p.cutoff)
    if method == "conjugation":
        return hermitian_operator(_conjugated(s, p.omega_c, p.omega_10, s.X, 2.0 * p.eta))
    if method == "closed_form":
        return kron_sum(_correct_terms(s, p))
    raise ValueError(f"unknown method {method!r}")


def blocks_dicke_correct(p: DickeParams) -> ParityBlocks:
    """The real parity blocks of ``build_dicke_correct`` by the closed form."""
    return parity_block_sum(_correct_terms(_real_parts(p.n_dipoles, p.cutoff), p))


def _dicke_dipole_terms(p: DickeParams) -> list:
    s = _real_parts(p.n_dipoles, p.cutoff)
    return _dipole_terms(s, p) + [
        (4.0 * p.eta ** 2 * p.omega_c * (s.jx @ s.jx), s.eye_field)]


def build_dicke_dipole(p: DickeParams) -> OperatorMatrix:
    """Dipole-gauge partner of the corrected Dicke model.

    Obtained by the inverse transformation U_N^dag H_C U_N, which evaluates to
    omega_c a^dag a + omega_10 J_z + 2 i g_D (a^dag - a) J_x
    + 4 eta^2 omega_c J_x^2.  The J_x^2 term is the collective analogue of the
    scalar the Rabi builder drops (at N=1 it is eta^2 omega_c times identity);
    here it is operator-valued and must be kept for spectral equivalence.
    """
    return kron_sum(_dicke_dipole_terms(p))


def blocks_dicke_dipole(p: DickeParams) -> ParityBlocks:
    """The real parity blocks of ``build_dicke_dipole``."""
    return parity_block_sum(_dicke_dipole_terms(p))
