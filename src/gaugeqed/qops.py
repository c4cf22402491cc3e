"""Bosonic and collective-spin operators on truncated spaces.

The builders take the real Fock arrays of ``_real_fock_arrays`` (n,
a + a^dag and a^dag - a) and the complex spin arrays of ``_spin_arrays`` as
the factors of their (matter, field) terms.  :func:`fock_ops` and
:func:`spin_ops` (types ``FockOps``, ``SpinOps``) wrap the complex arrays as
``OperatorMatrix`` only for the benchmark tracer, which hooks them by name.
A cutoff is a plain ``int`` everywhere.

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
(Golub & Welsch, Math. Comp. 23, 221, 1969).  X is real symmetric, so it is
solved in real arithmetic and its sign-fixed eigenvectors are real;
:func:`real_quadrature_functions` forms cos/sin(k X), or any other function
of X, as real arrays from them.  The Rabi, Dicke and fluxonium builders, dense
and parity-block alike, read them, and so does the fluxonium qubit's
cos(phi), phi being a multiple of its oscillator's X.

X maps even Fock levels to odd ones, so its eigenpairs come in pairs
(+sigma, (e, o)) and (-sigma, (e, -o)), e on the even levels and o on the
odd ones, plus one zero mode on the even levels at odd dimension.  A function
g(X) is therefore three half-size products: its even-even and odd-odd parts
carry the even part of g on the spectrum, its even-odd part the odd part.
cos(k X) has no even-odd part and sin(k X) only that one, so cos and sin
together cost about a fifth of two full spectral products, and the entries
that couple levels of the wrong parity are exactly zero.
"""

from __future__ import annotations

import functools
import threading
from typing import NamedTuple, Tuple

import numpy as np

from .linalg import OperatorMatrix, Spectrum, hermitian_eig

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


def _real_ladder(cutoff: int) -> np.ndarray:
    """a on dimension cutoff + 1 as a real array."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)


def _fock_arrays(cutoff: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a, a^dag and n on dimension cutoff + 1 as plain complex arrays."""
    a = _real_ladder(cutoff).astype(complex)
    return a, a.conj().T.copy(), np.diag(np.arange(cutoff + 1.0).astype(complex))


def _real_fock_arrays(cutoff: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n, X = a + a^dag and P = a^dag - a on dimension cutoff + 1 as real
    arrays; P is antisymmetric, and i P is the Hermitian quadrature.  They
    are built without a complex intermediate: the sweeps build them once per
    model and cutoff."""
    a = _real_ladder(cutoff)
    return np.diag(np.arange(cutoff + 1.0)), a + a.T, a.T - a


def fock_ops(cutoff: int) -> FockOps:
    """a, a^dag and n on dimension cutoff + 1; the tracer hooks it."""
    a, adag, n = _fock_arrays(cutoff)
    return FockOps(a=OperatorMatrix(a), adag=OperatorMatrix(adag),
                   n=OperatorMatrix(n, hermitian_hint=True))


@functools.lru_cache(maxsize=QUADRATURE_CACHE_SIZE)
def _quadrature_eig_cached(cutoff: int) -> Spectrum:
    return hermitian_eig(_real_fock_arrays(cutoff)[1])


# lru_cache holds no lock while a missing entry is computed, so two threads
# missing on one cutoff would both solve it; this lock makes it one solve
_QUADRATURE_LOCK = threading.Lock()


def quadrature_eig(cutoff: int) -> Spectrum:
    """Sign-fixed real ``hermitian_eig(a + a^dag)`` on Fock levels 0..cutoff.

    Cached per cutoff.  Lookups are serialised by a lock, so concurrent
    callers compute each cutoff once; ``cache_info`` and ``cache_clear`` are
    those of the underlying ``lru_cache``.  The eigenvalue and eigenvector
    arrays are read-only, so callers share them safely.
    """
    with _QUADRATURE_LOCK:
        return _quadrature_eig_cached(cutoff)


quadrature_eig.cache_info = _quadrature_eig_cached.cache_info
quadrature_eig.cache_clear = _quadrature_eig_cached.cache_clear


def quadrature_values(cutoff: int) -> np.ndarray:
    """The spectrum of X = a + a^dag on Fock levels 0..cutoff as exact pairs
    -sigma, +sigma, read-only and ascending.

    sigma are the positive eigenvalues of :func:`quadrature_eig`; the
    negative half is their exact negation and the zero mode of an odd
    dimension is exactly 0.0 (the solver returns both halves, and zero, only
    to roundoff).  :func:`real_quadrature_functions` evaluates its ``f`` on
    this array, so a function that is even or odd in x gives an even or odd
    value array bit for bit.
    """
    x = quadrature_eig(cutoff).eigenvalues
    sigma = x[x.size - x.size // 2:]
    values = np.concatenate([-sigma[::-1], np.zeros(x.size % 2), sigma])
    values.flags.writeable = False
    return values


def real_quadrature_functions(cutoff: int, f) -> Tuple[np.ndarray, ...]:
    """g(X) for X = a + a^dag and each value array g(x) that ``f`` returns
    on :func:`quadrature_values`, as real symmetric float64 arrays.

    Each g(X) is formed from the positive-sigma eigenvectors of
    :func:`quadrature_eig` by Fock parity, as three half-size products:
    g_ee = U g+ U^T, g_oo = W g+ W^T and g_eo = U g- W^T, U and W being the
    eigenvectors' even- and odd-level parts scaled to orthonormal columns
    (U also holds the zero mode at odd dimension), g+ and g- the even and
    odd parts of g on sigma.  A part that is zero on every sigma (g- of
    cos, g+ of sin) is not multiplied, so its entries are exactly 0.0.
    """
    dim = cutoff + 1
    pairs, zero = dim // 2, dim % 2
    v = quadrature_eig(cutoff).eigenvectors
    # columns pairs.. of v: the zero mode (at odd dimension), then +sigma
    U = v[0::2, pairs:] * np.sqrt(2.0)
    U[:, :zero] = v[0::2, pairs:pairs + zero]
    W = v[1::2, pairs + zero:] * np.sqrt(2.0)
    out = []
    for g in f(quadrature_values(cutoff)):
        g = np.asarray(g, dtype=float)
        mirror = g[::-1][pairs:]
        even = (g[pairs:] + mirror) / 2.0
        odd = (g[pairs + zero:] - mirror[zero:]) / 2.0
        full = np.zeros((dim, dim))
        if even.any():
            ee = (U * even) @ U.T
            oo = (W * even[zero:]) @ W.T
            full[0::2, 0::2] = (ee + ee.T) / 2.0
            full[1::2, 1::2] = (oo + oo.T) / 2.0
        if odd.any():
            eo = (U[:, zero:] * odd) @ W.T
            full[0::2, 1::2] = eo
            full[1::2, 0::2] = eo.T
        out.append(full)
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
    """J_x, J_y, J_z, ascending-m basis; the tracer hooks it."""
    return SpinOps(*(OperatorMatrix(op, hermitian_hint=True) for op in _spin_arrays(two_j)))
