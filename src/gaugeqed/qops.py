"""Bosonic and collective-spin operators on truncated spaces.

The builders take the real Fock arrays of :func:`fock_factors` and the
complex spin arrays of ``_spin_arrays`` as the factors of their (matter,
field) terms.  :func:`fock_ops` and :func:`spin_ops` (types ``FockOps``,
``SpinOps``) wrap the complex arrays as ``OperatorMatrix`` only for the
benchmark tracer, which hooks them by name.  A cutoff is a plain ``int``
everywhere.

Basis conventions (used everywhere in the package):

* Fock space keeps levels 0..cutoff, dimension cutoff + 1.
* Spin-j space is ordered by ascending m, so at j = 1/2 the qubit basis is
  (ground, excited) and 2*J_k reproduces the Pauli matrices with
  sigma_z = diag(-1, +1).
* Composite spaces are matter (x) field: the matter index varies slowest.

Truncation artefact worth remembering: on the truncated space
[a, a^dag] = 1 everywhere except the top Fock entry, where it is -cutoff.

No Fock factor depends on the coupling, so :func:`fock_factors` keeps one
``FockFactors`` holder per cutoff, the one owner of n, X = a + a^dag,
P = a^dag - a, the identity, X @ X and X's eigendecomposition, each built
on its first read and shared read-only by every model at that cutoff: the
Rabi, Dicke and fluxonium builders, the fluxonium qubit and the full
models of ``gaugeqed.particle1d``.  The eigenvalues of X are sqrt(2) times
the Gauss-Hermite nodes of order cutoff + 1 (Golub & Welsch, Math. Comp.
23, 221, 1969).  X is real symmetric, so it is solved in real arithmetic
and its sign-fixed eigenvectors are real (:func:`quadrature_eig`);
:func:`real_quadrature_functions` forms cos/sin(k X), or any other function
of X, as real arrays from them, the fluxonium qubit's cos(phi) among them,
phi being a multiple of its oscillator's X.

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

# cutoffs whose Fock factors are kept, and spins whose spin arrays are; the
# default convergence policy visits six cutoffs (40, 80, ..., 1280), so one
# whole doubling chain fits
FOCK_CACHE_SIZE = 8


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


def fock_ops(cutoff: int) -> FockOps:
    """a, a^dag and n on dimension cutoff + 1; the tracer hooks it."""
    a, adag, n = _fock_arrays(cutoff)
    return FockOps(a=OperatorMatrix(a), adag=OperatorMatrix(adag),
                   n=OperatorMatrix(n, hermitian_hint=True))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class FockFactors:
    """The real Fock arrays at one cutoff, each built on its first read and
    read-only: n = a^dag a, X = a + a^dag, P = a^dag - a (antisymmetric;
    i P is the Hermitian quadrature), the identity ``eye``, ``X2`` = X @ X,
    and ``eig``, the sign-fixed real ``hermitian_eig(X)``.

    The dense arrays are built without a complex intermediate.  Two threads
    that first read one of them together may both build it; the arrays are
    equal and one is kept.  ``eig`` is solved under the cache's one lock,
    so once per holder however many threads read it first; while it is
    solved, every other ``fock_factors`` lookup and ``eig`` read waits, at
    any cutoff (the dense X solve takes about 0.5 s at cutoff 1280 on two
    cores).
    """

    def __init__(self, cutoff: int):
        self.cutoff = cutoff
        self._eig = None

    @functools.cached_property
    def n(self) -> np.ndarray:
        return _frozen(np.diag(np.arange(self.cutoff + 1.0)))

    @functools.cached_property
    def X(self) -> np.ndarray:
        a = _real_ladder(self.cutoff)
        return _frozen(a + a.T)

    @functools.cached_property
    def P(self) -> np.ndarray:
        a = _real_ladder(self.cutoff)
        return _frozen(a.T - a)

    @functools.cached_property
    def eye(self) -> np.ndarray:
        return _frozen(np.eye(self.cutoff + 1))

    @functools.cached_property
    def X2(self) -> np.ndarray:
        """X @ X, the naive models' diamagnetic field factor."""
        return _frozen(self.X @ self.X)

    @property
    def eig(self) -> Spectrum:
        with _FOCK_LOCK:
            if self._eig is None:
                self._eig = hermitian_eig(self.X)
            return self._eig


@functools.lru_cache(maxsize=FOCK_CACHE_SIZE)
def _fock_factors_cached(cutoff: int) -> FockFactors:
    return FockFactors(cutoff)


# lru_cache holds no lock while a missing entry is made, so two threads
# missing on one cutoff would make two holders; this lock makes it one
_FOCK_LOCK = threading.Lock()


def fock_factors(cutoff: int) -> FockFactors:
    """The shared Fock factors on levels 0..cutoff; ValueError when
    cutoff < 1.

    Cached per cutoff, least recently used first out past FOCK_CACHE_SIZE
    entries; ``cache_info`` and ``cache_clear`` are the ``lru_cache``'s.
    An entry holds at most its five dense arrays and the eigenvectors of X,
    48 (cutoff + 1)^2 bytes: 1.9 MB at cutoff 200 and 79 MB at 1280; the
    six cutoffs 40 ... 1280 of the default doubling chain take 105 MB.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    with _FOCK_LOCK:
        return _fock_factors_cached(cutoff)


fock_factors.cache_info = _fock_factors_cached.cache_info
fock_factors.cache_clear = _fock_factors_cached.cache_clear


def quadrature_eig(cutoff: int) -> Spectrum:
    """Sign-fixed real ``hermitian_eig(a + a^dag)`` on Fock levels 0..cutoff,
    the ``eig`` of :func:`fock_factors`: solved once per cached cutoff, its
    eigenvalue and eigenvector arrays read-only, so callers share them."""
    return fock_factors(cutoff).eig


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


# each entry at most (two_j + 1)^2 per array; two threads that miss on one
# spin together build equal arrays, so no lock
@functools.lru_cache(maxsize=FOCK_CACHE_SIZE)
def _spin_arrays(two_j: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J_x, J_y, J_z (ascending-m basis) as plain complex arrays, read-only
    and shared by every build at this spin."""
    if two_j < 1:
        raise ValueError(f"two_j must be >= 1, got {two_j}")
    j = two_j / 2.0
    m = -j + np.arange(two_j + 1)
    jp = np.zeros((two_j + 1, two_j + 1), dtype=complex)
    jp[np.arange(1, two_j + 1), np.arange(two_j)] = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jm = jp.conj().T
    return tuple(_frozen(a) for a in ((jp + jm) / 2.0, (jp - jm) / 2.0j,
                                      np.diag(m.astype(complex))))


def spin_ops(two_j: int) -> SpinOps:
    """J_x, J_y, J_z, ascending-m basis; the tracer hooks it."""
    return SpinOps(*(OperatorMatrix(op, hermitian_hint=True) for op in _spin_arrays(two_j)))
