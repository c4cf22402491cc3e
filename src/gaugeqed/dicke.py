"""N-dipole (Dicke) Hamiltonians in the collective spin-j representation.

Everything lives in the symmetric sector j = N/2 (dimension N+1); the full
2^N product space adds nothing to the spectrum there.  The builders are the
spin-j gauge core of ``gaugeqed.rabi`` at two_j = N with Q = a + a^dag, so
at N=1 they reduce to the Rabi matrices (2 J_k = sigma_k at j=1/2).

The truncation-consistent construction conjugates the bare splitting
omega_10 J_z by U_N = exp[i 2 eta (a + a^dag) J_x]; the equivalent closed
form carries cos/sin of factor * eta * (a + a^dag) with factor 2 (the spin
rotation identity; a printed variant with factor 4 is accepted for
comparison and does not match the conjugation).

``blocks_dicke_standard``, ``blocks_dicke_correct`` (the closed form at
factor 2) and ``blocks_dicke_dipole`` write the real parity blocks of the
same models through the core's block writer, for the sweeps; the dense
builders stay the reference they are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import OperatorMatrix, ParityBlocks, hermitian_operator
from .qops import quadrature_cos_sin
from .rabi import (RabiParams, _bare, _bare_terms, _blocks, _conjugated, _parts, _real_cos_sin,
                   _real_parts, _rotated, _rotated_terms)


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

    The diamagnetic coefficient is j * 2 g_C^2 / omega_10, the per-dipole
    sum-rule-saturated value (N times the Rabi one).
    """
    s = _parts(p.n_dipoles, p.cutoff)
    X = s.a + s.adag
    return hermitian_operator(_bare(s, p.omega_c, p.omega_10)
                              + 2.0 * p.g_c * np.kron(s.jy, X)
                              + _diamagnetic(p) * np.kron(s.eye_spin, X @ X))


def _diamagnetic(p: DickeParams) -> float:
    return p.j * 2.0 * p.g_c ** 2 / p.omega_10


def blocks_dicke_standard(p: DickeParams) -> ParityBlocks:
    """The real parity blocks of ``build_dicke_standard``."""
    s = _real_parts(p.n_dipoles, p.cutoff)
    return _blocks(p.n_dipoles, p.cutoff, _bare_terms(s, p.omega_c, p.omega_10)
                   + [(2.0 * p.g_c * s.jy, s.X), (_diamagnetic(p) * s.eye_spin, s.X @ s.X)])


def build_dicke_correct(p: DickeParams, method: str = "conjugation",
                        factor: int = 2) -> OperatorMatrix:
    """Truncation-consistent Coulomb-gauge Dicke model.

    ``method="conjugation"`` (the defining construction, hence the default):
    U_N (omega_10 J_z) U_N^dag + omega_c a^dag a.  ``method="closed_form"``
    evaluates J_z cos[factor * eta * (a+a^dag)] + J_y sin[...] from the
    cached eigendecomposition of a + a^dag; the rotation identity fixes
    factor=2, and factor=4 is accepted only so tests can document that it
    disagrees with the conjugation route.
    """
    s = _parts(p.n_dipoles, p.cutoff)
    if method == "conjugation":
        return hermitian_operator(_conjugated(s, p.omega_c, p.omega_10, s.a + s.adag,
                                              2.0 * p.eta))
    if method == "closed_form":
        if factor not in (2, 4):
            raise ValueError(f"factor must be 2 or 4, got {factor}")
        cosX, sinX = quadrature_cos_sin(p.cutoff, float(factor) * p.eta)
        return hermitian_operator(_rotated(s, p.omega_c, p.omega_10, cosX, sinX))
    raise ValueError(f"unknown method {method!r}")


def blocks_dicke_correct(p: DickeParams) -> ParityBlocks:
    """The real parity blocks of ``build_dicke_correct`` by the closed form
    at factor 2, written by the core from real cos/sin of 2 eta (a + a^dag)."""
    s = _real_parts(p.n_dipoles, p.cutoff)
    cos, sin = _real_cos_sin(p.cutoff, 2.0 * p.eta)
    return _blocks(p.n_dipoles, p.cutoff, _rotated_terms(s, p.omega_c, p.omega_10, cos, sin))


def build_dicke_dipole(p: DickeParams) -> OperatorMatrix:
    """Dipole-gauge partner of the corrected Dicke model.

    Obtained by the inverse transformation U_N^dag H_C U_N, which evaluates to
    omega_c a^dag a + omega_10 J_z + 2 i g_D (a^dag - a) J_x
    + 4 eta^2 omega_c J_x^2.  The J_x^2 term is the collective analogue of the
    scalar the Rabi builder drops (at N=1 it is eta^2 omega_c times identity);
    here it is operator-valued and must be kept for spectral equivalence.
    """
    s = _parts(p.n_dipoles, p.cutoff)
    return hermitian_operator(_bare(s, p.omega_c, p.omega_10)
                              + 2.0 * p.g_d * np.kron(s.jx, 1j * (s.adag - s.a))
                              + 4.0 * p.eta ** 2 * p.omega_c
                              * np.kron(s.jx @ s.jx, s.eye_field))


def blocks_dicke_dipole(p: DickeParams) -> ParityBlocks:
    """The real parity blocks of ``build_dicke_dipole``; the coupling enters
    as i J_x (x) (a^dag - a), whose phased spin part is real."""
    s = _real_parts(p.n_dipoles, p.cutoff)
    return _blocks(p.n_dipoles, p.cutoff, _bare_terms(s, p.omega_c, p.omega_10)
                   + [(2.0 * p.g_d * 1j * s.jx, s.P),
                      (4.0 * p.eta ** 2 * p.omega_c * (s.jx @ s.jx), s.eye_field)])
