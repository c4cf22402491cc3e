"""Fluxonium qubit capacitively coupled to an LC oscillator (charge gauge).

The qubit Hamiltonian is 4 E_C N^2 + (E_L/2) phi^2 - E_J cos(phi) with
conjugate pair [phi, N] = i, solved in the harmonic-oscillator basis of its
quadratic part.  The retained two-level data (omega_10, phi_10) feed the
charge-gauge analogues of the Rabi builders:

* ``build_flux_charge_standard``  naive two-level projection with the
                                  -4 E_C chi0^2 (a - a^dag)^2 charge term
* ``build_flux_charge_correct``   truncation-consistent model via
                                  R = exp[(g_C/omega_10) sigma_x (a - a^dag)]

with g_C = omega_10 phi_10 chi0 and chi0 the reduced-charge zero-point
amplitude of the oscillator.  The coupling enters through the a - a^dag
quadrature here (capacitive coupling).  Both builders are the spin-j gauge
core of ``gaugeqed.rabi`` at two_j = 1 under a -> ia: the quadrature is
B = i(a - a^dag) and the rotation angle phi = -2 g_C/omega_10.  A
photon-number phase rotation maps these models onto the a + a^dag Rabi
family, which is how the E_J = 0 limit is cross-checked in the tests.

All energies in units of the LC frequency omega_c (hbar = 1).  The sign of
phi_10 is a basis convention (spectra are invariant under phi_10 -> -phi_10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (OperatorMatrix, hermitian_eig, hermitian_operator, matrix_function,
                     spectral_matrix)
from .qops import _fock_arrays
from .rabi import _bare, _conjugated, _parts, _rotated


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
        return float(self.phi_elems[0, 1].real)


def _flux_hamiltonian(p: FluxoniumParams, basis_size: int):
    b, bdag, nb = _fock_arrays(basis_size - 1)
    phi = p.phi_zp * (b + bdag)
    # N = i n_zp (b^dag - b); N^2 = -n_zp^2 (b^dag - b)^2
    n_zp = 1.0 / (2.0 * p.phi_zp)
    bd_minus_b = bdag - b
    n2 = (-n_zp ** 2) * (bd_minus_b @ bd_minus_b)
    h = 4.0 * p.e_c * n2 + 0.5 * p.e_l * (phi @ phi)
    if p.e_j != 0.0:
        h = h - p.e_j * matrix_function(OperatorMatrix(phi), np.cos).arr
    return hermitian_operator(h), phi, n_zp, bd_minus_b


def solve_fluxonium(p: FluxoniumParams) -> FluxoniumBasis:
    """Lowest n_keep fluxonium levels in the HO basis of the quadratic part.

    Raises BasisTooSmallError when doubling basis_size moves any retained
    level by 1e-8 or more.
    """
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
    phi_el = vk.conj().T @ phi @ vk
    n_op = 1j * n_zp * bd_minus_b
    n_el = vk.conj().T @ n_op @ vk
    return FluxoniumBasis(energies=spec.eigenvalues[:p.n_keep].copy(),
                          phi_elems=phi_el, n_elems=n_el)


def coupling_g_c(p: FluxoniumParams, basis: FluxoniumBasis) -> float:
    return basis.omega_10 * basis.phi_10 * p.chi0


def build_flux_charge_standard(p: FluxoniumParams,
                               basis: FluxoniumBasis) -> OperatorMatrix:
    """Naive two-level charge-gauge model:
    (omega_10/2) sigma_z + omega_c a^dag a + i g_C sigma_y (a - a^dag)
    - 4 e_c chi0^2 (a - a^dag)^2.

    Since (a - a^dag)^2 is negative semidefinite, the last term is a
    nonnegative charging-energy shift (asserted in tests).
    """
    s = _parts(1, p.cutoff)
    B = 1j * (s.a - s.adag)  # Hermitian; the charge coupling runs along it
    g_c = coupling_g_c(p, basis)
    return hermitian_operator(_bare(s, p.omega_c, basis.omega_10)
                              + 2.0 * g_c * np.kron(s.jy, B)
                              + 4.0 * p.e_c * p.chi0 ** 2 * np.kron(s.eye_spin, B @ B))


def build_flux_charge_correct(p: FluxoniumParams, basis: FluxoniumBasis,
                              method: str = "closed_form") -> OperatorMatrix:
    """Truncation-consistent charge-gauge model.

    ``method="conjugation"``: omega_c a^dag a + R (omega_10 sigma_z / 2) R^dag
    with R = exp[theta sigma_x (a - a^dag)], theta = g_C/omega_10; the
    generator is anti-Hermitian so R is exactly unitary.
    ``method="closed_form"``: the equivalent
    (omega_10/2) {sigma_z cos[2 theta B] - sigma_y sin[2 theta B]} with the
    Hermitian quadrature B = i(a - a^dag); equals the hyperbolic form
    sigma_z cosh[2 theta (a - a^dag)] - i sigma_y sinh[2 theta (a - a^dag)].
    """
    s = _parts(1, p.cutoff)
    B = 1j * (s.a - s.adag)
    two_t = 2.0 * coupling_g_c(p, basis) / basis.omega_10
    if method == "conjugation":
        # sigma_x (a - a^dag) = -i sigma_x B = -2i J_x B, so R = exp[-i 2 theta J_x B]
        return hermitian_operator(_conjugated(s, p.omega_c, basis.omega_10, B, -two_t))
    if method == "closed_form":
        # at phi = -2 theta: cos(phi B) = cos(2 theta B), sin(phi B) = -sin(2 theta B)
        spec = hermitian_eig(OperatorMatrix(B))
        cosB = spectral_matrix(spec, np.cos(two_t * spec.eigenvalues))
        sinB = spectral_matrix(spec, np.sin(two_t * spec.eigenvalues))
        return hermitian_operator(_rotated(s, p.omega_c, basis.omega_10, cosB, -sinB))
    raise ValueError(f"unknown method {method!r}")
