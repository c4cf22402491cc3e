"""Fluxonium qubit capacitively coupled to an LC oscillator (charge gauge).

The qubit Hamiltonian is 4 E_C N^2 + (E_L/2) phi^2 - E_J cos(phi) with
conjugate pair [phi, N] = i, solved in real arithmetic in the
harmonic-oscillator basis of its quadratic part, where phi = phi_zp X and
N = i n_zp (b^dag - b); cos(phi) comes from the real eigenvectors of X.  The
retained two-level data (omega_10, phi_10) feed the charge-gauge analogues
of the Rabi models, each one list of (spin, field) terms:

* ``terms_flux_charge_standard``  naive two-level projection with the
                                  -4 E_C chi0^2 (a - a^dag)^2 charge term
* ``terms_flux_charge_correct``   truncation-consistent model, the closed
                                  form of the conjugation by
                                  R = exp[(g_C/omega_10) sigma_x (a - a^dag)]
                                  (the tests hold it to ``rabi._conjugated``)

with g_C = omega_10 phi_10 chi0 and chi0 the reduced-charge zero-point
amplitude of the oscillator.  The coupling enters through the charge
quadrature B = i(a - a^dag) (capacitive coupling).  The photon-number phase
W = 1 (x) diag(i^n) turns it onto X = a + a^dag, W^dag X W = B, so the
lists are those of W H W^dag: the spin-j gauge core of ``gaugeqed.rabi`` at
two_j = 1, with the naive coupling 2 g_C J_y (x) X and charge term
4 E_C chi0^2 X^2, and the corrected splitting rotated by cos(2 theta X) and
-sin(2 theta X), theta = g_C/omega_10.  W is unitary, so the spectra are
those of the B forms, and W^dag H W is each B form entry by entry (the
tests check both against independent B-form matrices).  Like every core
model, each list is written dense by ``linalg.kron_sum`` or as two real
parity blocks by ``linalg.parity_block_sum``; ``cli fluxonium`` solves the
naive model so and the corrected one as ``blocks_flux_charge_correct``
writes it, in the quadrature frame (``rabi.rotated_parity_blocks``).  The
E_J = 0 limit is the Rabi family itself.

Energies stay on the scale of the inputs, the LC frequency omega_c among
them (hbar = 1); unlike the Rabi and Dicke models, omega_c here need not be
1.  The sign of phi_10 is a basis convention (spectra are invariant under
phi_10 -> -phi_10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ParityBlocks, check_dim, hermitian_eig
from .qops import fock_factors, real_quadrature_functions
from .rabi import _bare_terms, _real_cos_sin, _real_parts, _rotated_terms, rotated_parity_blocks


class BasisTooSmallError(Exception):
    pass


@dataclass(frozen=True)
class FluxoniumParams:
    """Qubit energies (units of the LC frequency), oscillator coupling, sizes."""

    e_c: float
    e_l: float
    e_j: float
    chi0: float = 0.0
    omega_c: float = 1.0
    basis_size: int = 120
    cutoff: int = 60
    n_keep: int = 6

    def __post_init__(self):
        if self.e_c <= 0 or self.e_l <= 0:
            raise ValueError("e_c and e_l must be positive")
        if self.e_j < 0:
            raise ValueError(f"e_j must be >= 0, got {self.e_j}")
        if self.basis_size < 40:
            raise ValueError(f"basis_size must be >= 40, got {self.basis_size}")
        if self.omega_c <= 0:
            raise ValueError(f"omega_c must be positive, got {self.omega_c}")
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        if not 2 <= self.n_keep <= self.basis_size // 2:
            raise ValueError(f"n_keep out of range: {self.n_keep}")

    @property
    def omega_quad(self) -> float:
        """Frequency of the quadratic (E_J = 0) part, sqrt(8 e_c e_l)."""
        return float(np.sqrt(8.0 * self.e_c * self.e_l))

    @property
    def phi_zp(self) -> float:
        return float((2.0 * self.e_c / self.e_l) ** 0.25)


@dataclass(frozen=True, eq=False)
class FluxoniumBasis:
    """Lowest qubit levels with phase and reduced-charge matrix elements."""

    energies: np.ndarray
    phi_elems: np.ndarray
    n_elems: np.ndarray

    def __post_init__(self):
        for name in ("energies", "phi_elems", "n_elems"):
            getattr(self, name).flags.writeable = False

    @property
    def omega_10(self) -> float:
        return float(self.energies[1] - self.energies[0])

    @property
    def phi_10(self) -> float:
        return float(self.phi_elems[0, 1])


def _flux_hamiltonian(p: FluxoniumParams, basis_size: int):
    """The qubit Hamiltonian on oscillator levels 0..basis_size - 1, real,
    with phi and b^dag - b."""
    f = fock_factors(basis_size - 1)
    phi, bd_minus_b = p.phi_zp * f.X, f.P
    # N = i n_zp (b^dag - b); N^2 = -n_zp^2 (b^dag - b)^2
    n_zp = 1.0 / (2.0 * p.phi_zp)
    n2 = (-n_zp ** 2) * (bd_minus_b @ bd_minus_b)
    h = 4.0 * p.e_c * n2 + 0.5 * p.e_l * (phi @ phi)
    if p.e_j != 0.0:
        cos_phi, = real_quadrature_functions(basis_size - 1,
                                             lambda x: (np.cos(p.phi_zp * x),))
        h = h - p.e_j * cos_phi
    return h, phi, n_zp, bd_minus_b


def solve_fluxonium(p: FluxoniumParams) -> FluxoniumBasis:
    """Lowest n_keep fluxonium levels in the HO basis of the quadratic part.

    Raises BasisTooSmallError when doubling basis_size moves any retained
    level by 1e-8 or more, and DimensionOverflowError, before any array is
    made, when the doubled basis exceeds the dimension cap.
    """
    check_dim(2 * p.basis_size)
    h, phi, n_zp, bd_minus_b = _flux_hamiltonian(p, p.basis_size)
    spec = hermitian_eig(h)
    h2, *_ = _flux_hamiltonian(p, 2 * p.basis_size)
    w2 = hermitian_eig(h2, vectors=False).eigenvalues
    shift = float(np.abs(spec.eigenvalues[:p.n_keep] - w2[:p.n_keep]).max())
    if shift >= 1e-8:
        raise BasisTooSmallError(
            f"levels move by {shift:.2e} when basis_size doubles; "
            f"increase basis_size from {p.basis_size}")
    vk = spec.eigenvectors[:, :p.n_keep]
    return FluxoniumBasis(energies=spec.eigenvalues[:p.n_keep].copy(),
                          phi_elems=vk.T @ phi @ vk,
                          n_elems=1j * n_zp * (vk.T @ bd_minus_b @ vk))


def coupling_g_c(p: FluxoniumParams, basis: FluxoniumBasis) -> float:
    return basis.omega_10 * basis.phi_10 * p.chi0


def terms_flux_charge_standard(p: FluxoniumParams, basis: FluxoniumBasis) -> list:
    """Naive two-level charge-gauge model:
    (omega_10/2) sigma_z + omega_c a^dag a + i g_C sigma_y (a - a^dag)
    - 4 e_c chi0^2 (a - a^dag)^2, as the terms of W H W^dag (module header):
    the bare terms, 2 g_C J_y (x) X and 4 e_c chi0^2 1 (x) X^2.

    Since (a - a^dag)^2 is negative semidefinite, the last term is a
    nonnegative charging-energy shift (asserted in tests).
    """
    s = _real_parts(1, p.cutoff)
    return _bare_terms(s, p.omega_c, basis.omega_10) + [
        (2.0 * coupling_g_c(p, basis) * s.jy, s.f.X),
        (4.0 * p.e_c * p.chi0 ** 2 * s.eye_spin, s.f.X2)]


def _two_theta(p: FluxoniumParams, basis: FluxoniumBasis) -> float:
    return 2.0 * coupling_g_c(p, basis) / basis.omega_10


def terms_flux_charge_correct(p: FluxoniumParams, basis: FluxoniumBasis) -> list:
    """Truncation-consistent charge-gauge model, as the terms of W H W^dag
    (module header): (omega_10/2) {sigma_z cos[2 theta X] - sigma_y sin[2 theta X]}
    + omega_c a^dag a, theta = g_C/omega_10, the image of
    sigma_z cosh[2 theta (a - a^dag)] - i sigma_y sinh[2 theta (a - a^dag)].
    It is the closed form of omega_c a^dag a + R (omega_10 sigma_z / 2) R^dag
    with R = exp[theta sigma_x (a - a^dag)], which W turns into
    exp[-i 2 theta J_x (x) X]; the generator is anti-Hermitian so R is
    exactly unitary.
    """
    s = _real_parts(1, p.cutoff)
    cos, sin = _real_cos_sin(p.cutoff, _two_theta(p, basis))
    return _rotated_terms(s, p.omega_c, basis.omega_10, cos, -sin)


def blocks_flux_charge_correct(p: FluxoniumParams, basis: FluxoniumBasis) -> ParityBlocks:
    """The parity blocks of ``terms_flux_charge_correct``, written in the
    quadrature frame by ``rabi.rotated_parity_blocks``: omega_c,
    cos(2 theta x) and -sin(2 theta x)."""
    k = _two_theta(p, basis)
    return rotated_parity_blocks(1, p.cutoff, p.omega_c, basis.omega_10,
                                 lambda x: (np.cos(k * x), -np.sin(k * x)))
