"""N-dipole (Dicke) Hamiltonians in the collective spin-j representation.

Everything lives in the symmetric sector j = N/2 (dimension N+1); the full
2^N product space adds nothing to the spectrum there.  ``DickeParams`` has
two_j = N, so the spin-j gauge core of ``gaugeqed.rabi`` gives the naive
and the corrected Coulomb-gauge models from the Rabi term lists
themselves, ``rabi.terms_H_C_standard(p)`` and ``rabi.terms_H_C_correct(p)``;
at N=1 they are the Rabi lists (2 J_k = sigma_k at j=1/2).

The truncation-consistent model is the bare splitting omega_10 J_z
conjugated by U_N = exp[i 2 eta (a + a^dag) J_x]; the core writes its
closed form, which carries cos/sin of 2 eta (a + a^dag) (the spin rotation
identity), and the tests hold it to the conjugation ``rabi._conjugated``.
Energies are in units of omega_c = 1.

The dipole-gauge partner, ``terms_dicke_dipole``, is the one list of its
own: its 4 eta^2 J_x^2 term is the operator that the Rabi dipole model
drops as a scalar.  ``build_dicke_standard`` and ``build_dicke_correct``
write the two Coulomb lists as dense matrices; the sweeps hand every list
to the block writer ``linalg.parity_block_sum``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import OperatorMatrix, kron_sum
from .rabi import RabiParams, _dipole_terms, _real_parts, terms_H_C_correct, terms_H_C_standard


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
    def two_j(self) -> int:
        return self.n_dipoles


def build_dicke_standard(p: DickeParams) -> OperatorMatrix:
    """The dense matrix of ``rabi.terms_H_C_standard`` at N dipoles."""
    return kron_sum(terms_H_C_standard(p))


def build_dicke_correct(p: DickeParams) -> OperatorMatrix:
    """The dense matrix of ``rabi.terms_H_C_correct`` at N dipoles."""
    return kron_sum(terms_H_C_correct(p))


def terms_dicke_dipole(p: DickeParams) -> list:
    """Dipole-gauge partner of the corrected Dicke model.

    Obtained by the inverse transformation U_N^dag H_C U_N, which evaluates to
    a^dag a + omega_10 J_z + 2 i g_D (a^dag - a) J_x + 4 eta^2 J_x^2.  The
    J_x^2 term is the collective analogue of the scalar the Rabi dipole model
    drops (at N=1 it is eta^2 times identity); here it is operator-valued
    and must be kept for spectral equivalence.
    """
    s = _real_parts(p.two_j, p.cutoff)
    return _dipole_terms(s, p) + [
        (4.0 * p.eta ** 2 * (s.jx @ s.jx), s.eye_field)]
