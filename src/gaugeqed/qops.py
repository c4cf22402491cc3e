"""Bosonic and collective-spin operators on truncated spaces.

The builders take the real Fock arrays of ``_real_fock_arrays`` (n,
a + a^dag and a^dag - a) and the complex spin arrays of ``_spin_arrays`` as
the factors of their (matter, field) terms; :func:`fock_ops` and
:func:`spin_ops` return the complex ``_fock_arrays`` and the spin arrays
wrapped as ``OperatorMatrix``.  A cutoff is a plain ``int`` everywhere.

Basis conventions (used everywhere in the package):

* Fock space keeps levels 0..cutoff, dimension cutoff + 1.
* Spin-j space is ordered by ascending m, so at j = 1/2 the qubit basis is
  (ground, excited) and 2*J_k reproduces the Pauli matrices with
  sigma_z = diag(-1, +1).
* Composite spaces are matter (x) field: the matter index varies slowest.

Truncation artefact worth remembering: on the truncated space
[a, a^dag] = 1 everywhere except the top Fock entry, where it is -cutoff.

The eigendecomposition of the field quadrature X = a + a^dag does not depend
on the coupling, so :func:`quadrature_eig` keeps it per cutoff; its
eigenvalues are sqrt(2) times the Gauss-Hermite nodes of order cutoff + 1
(Golub & Welsch, Math. Comp. 23, 221, 1969).  X is real symmetric and its
phase-fixed eigenvectors are real, so :func:`real_quadrature_functions`
forms cos/sin(k X), or any other function of X, as real arrays from them;
the dense builders and the parity-block builders both read them.
"""

from __future__ import annotations

import functools
import threading
from typing import NamedTuple, Tuple

import numpy as np

from .linalg import HERMITICITY_RTOL, OperatorMatrix, ParityError, Spectrum, hermitian_eig

# cutoffs whose X eigendecomposition is kept; the default convergence
# policy visits six (40, 80, ..., 1280), so one whole doubling chain fits
QUADRATURE_CACHE_SIZE = 8


class FockOps(NamedTuple):
    a: OperatorMatrix
    adag: OperatorMatrix
    n: OperatorMatrix


class SpinOps(NamedTuple):
    jx: OperatorMatrix
    jy: OperatorMatrix
    jz: OperatorMatrix


def _fock_arrays(cutoff: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a, a^dag and n on dimension cutoff + 1 as plain complex arrays."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    n = np.arange(cutoff + 1)
    a = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    a[np.arange(cutoff), np.arange(1, cutoff + 1)] = np.sqrt(n[1:])
    return a, a.conj().T.copy(), np.diag(n.astype(complex))


def _real_fock_arrays(cutoff: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n, X = a + a^dag and P = a^dag - a on dimension cutoff + 1 as real
    arrays; P is antisymmetric, and i P is the Hermitian quadrature."""
    a, _, n = _fock_arrays(cutoff)
    a = a.real
    return n.real, a + a.T, a.T - a


def fock_ops(cutoff: int) -> FockOps:
    """Annihilation, creation and number operators on dimension cutoff + 1."""
    a, adag, n = _fock_arrays(cutoff)
    return FockOps(a=OperatorMatrix(a), adag=OperatorMatrix(adag),
                   n=OperatorMatrix(n, hermitian_hint=True))


@functools.lru_cache(maxsize=QUADRATURE_CACHE_SIZE)
def _quadrature_eig_cached(cutoff: int) -> Spectrum:
    a, adag, _ = _fock_arrays(cutoff)
    return hermitian_eig(OperatorMatrix(a + adag))


# lru_cache holds no lock while a missing entry is computed, so two threads
# missing on one cutoff would both solve it; this lock makes it one solve
_QUADRATURE_LOCK = threading.Lock()


def quadrature_eig(cutoff: int) -> Spectrum:
    """Phase-fixed ``hermitian_eig(a + a^dag)`` on Fock levels 0..cutoff.

    Cached per cutoff.  Lookups are serialised by a lock, so concurrent
    callers compute each cutoff once; ``cache_info`` and ``cache_clear`` are
    those of the underlying ``lru_cache``.  The eigenvalue and eigenvector
    arrays are read-only, so callers share them safely.
    """
    with _QUADRATURE_LOCK:
        return _quadrature_eig_cached(cutoff)


quadrature_eig.cache_info = _quadrature_eig_cached.cache_info
quadrature_eig.cache_clear = _quadrature_eig_cached.cache_clear


def real_quadrature_functions(cutoff: int, f) -> Tuple[np.ndarray, ...]:
    """g(X) for X = a + a^dag and each value array g(x) that ``f`` returns
    on the eigenvalues x of X, as real symmetric float64 arrays built from
    the cached :func:`quadrature_eig`.

    X is real symmetric, so its phase-fixed eigenvectors are real; their
    imaginary part is checked to be within HERMITICITY_RTOL of zero (a unit
    vector's scale) before the real part is used, and ParityError is raised
    otherwise.
    """
    spec = quadrature_eig(cutoff)
    imag = float(np.abs(spec.eigenvectors.imag).max())
    if imag > HERMITICITY_RTOL:
        raise ParityError(f"eigenvectors of a + a^dag are not real: max|Im| = {imag:.3e}")
    v = np.ascontiguousarray(spec.eigenvectors.real)
    out = []
    for fw in f(spec.eigenvalues):
        g = (v * fw) @ v.T
        out.append((g + g.T) / 2.0)
    return tuple(out)


def _spin_arrays(two_j: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J_x, J_y, J_z (ascending-m basis) as plain complex arrays."""
    if two_j < 1:
        raise ValueError(f"two_j must be >= 1, got {two_j}")
    j = two_j / 2.0
    m = -j + np.arange(two_j + 1)
    jp = np.zeros((two_j + 1, two_j + 1), dtype=complex)
    jp[np.arange(1, two_j + 1), np.arange(two_j)] = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jm = jp.conj().T
    return (jp + jm) / 2.0, (jp - jm) / 2.0j, np.diag(m.astype(complex))


def spin_ops(two_j: int) -> SpinOps:
    """Collective spin operators J_x, J_y, J_z, ascending-m basis."""
    return SpinOps(*(OperatorMatrix(op, hermitian_hint=True) for op in _spin_arrays(two_j)))
