"""Dense and banded Hermitian linear algebra with explicit invariants.

Dense operators in the package are plain square arrays: complex128, or
float64 where they are real.  Eigenproblems go through LAPACK
(``numpy.linalg.eigh``) behind :func:`hermitian_eig`, which checks
Hermiticity and adds a deterministic eigenvector phase convention; a real
symmetric array (the field quadrature a + a^dag, the fluxonium qubit) is
solved in real arithmetic.  :func:`unitary_exp` builds a unitary from the
spectral decomposition, and :func:`conjugate` conjugates by it.

Every Hamiltonian of the package is written once, as a list of
(matter operator, field operator) terms for sum_t S_t (x) F_t, the matter
index slowest.  Three writers take such a list.  :func:`kron_sum` writes the
dense complex matrix one matter row block at a time, checks its
Hermiticity once and returns it read-only.
:func:`parity_block_sum` writes the two real parity blocks instead, for
models that commute with the parity sigma_z (-1)^{a^dag a} (Braak, PRL 107,
100401, 2011), or with (-1)^i (-1)^{a^dag a} for the mirror-parity levels i
of a 1D particle: a fixed diagonal phase 1j**m makes both blocks real
symmetric, so the spectrum comes from two real half-size solves, about a
quarter of the n^3 of one complex solve.  The writer checks both claims for
each term and raises :class:`ParityError` when one fails.  The blocks come
as :class:`ParityBlocks`.  The program calls it for the alpha family, the
Dicke naive and dipole models and the fluxonium naive model; the rotated
(corrected and Taylor) models have a writer of their own,
``rabi.rotated_parity_blocks``, which writes the same blocks turned into
the quadrature frame of ``qops.fock_factors`` and checks each term's
parity and phase by the same rules (:func:`phased_entries`).

Ordered by Fock index, the same blocks are banded when every field
operator is: n, X, P and X @ X couple Fock levels at most two apart, so the
bandwidth is about the number of matter levels (1 and 2 for the dipole and
naive Coulomb Rabi chains |0,g>, |1,e>, |2,g>, ...; 31 and 32 for the
32-level full models).  :func:`parity_band_sum`, the third writer, writes
them so from the nonzero entries of the terms, with the same per-term
checks, as :class:`ParityBands`.  The Rabi builders ``bands_H_D`` and
``bands_H_C_standard`` write the same chains from closed forms.  A band
stores one triangle, so the writer checks symmetry against the mirror
image of each entry, and the solver checks only finiteness.  Blocks and
bands have no off-parity half, so parity holds by construction there.

:func:`parity_eigvalsh` is the one solver for either holder, since a
caller reads only the lowest count = levels + 1 eigenvalues: it asks each
block or chain only for the levels the union can still use, first the
lowest ceil(count / 2) of each (count // 2 + 1 of a chain wider than
tridiagonal, which is solved afresh at each ask), then more from a sector
whose last level found lies below the union's count-th, and keeps the
lowest of the union.
A block is checked once for finiteness and for symmetry by the package's
one Hermiticity rule (``_check_hermitian``), reduced once to tridiagonal
form by LAPACK dsytrd and bisected on demand by dstebz (Sturm counts;
Barth, Martin and Wilkinson, *Numer. Math.* 9, 1967), the two calls of
?syevr; a tridiagonal chain goes to dstebz itself, and a wider chain to
:func:`band_eigh`.

:func:`band_eigh` is the package's one band solver: every banded chain
and the 1D particle's grid operators, real and complex, go through it.
Two engines solve a band; its shape and whether eigenvectors are wanted
pick one.  LAPACK ?sbevx (?hbevx when complex) first reduces the whole
band to tridiagonal form, about rows^2 * width flops, which is nothing on
the narrow Rabi chains, and back-transforms eigenvectors through a dense
rows x rows matrix.  :func:`shift_invert_eigsh` factors the shifted band
once by banded Cholesky (?pbtrf, rows * width^2) and runs the package's
own shift-invert Lanczos on that factor.  An eigenvector solve, and a
band with rows^2 * width above SHIFT_INVERT_MIN_WORK (the 16- and
32-level full models, the particle's grids at the presets' sizes), goes
to the second, shifted just below its Gershgorin lower bound unless the
caller passes its own shift, and every other band to the first.

LAPACK comes from one handle, ``_LAPACK``: scipy's f2py extension
``scipy.linalg._flapack``, loaded by file location (``_load_lapack``), so
that importing the package loads numpy and that extension and nothing
else of scipy; ``scipy.linalg``'s Python layer would add about 0.2 s to
every run.  The package calls nine of its routines: dsytrd, dstebz,
dsbevx, zhbevx, dpbtrf, dpbtrs, zpbtrf, zpbtrs and dlamch.  When the
extension does not load so, the handle is ``scipy.linalg.lapack``, which
exports the same wrappers.

Everything is plain double precision, checked against tolerances that the
tests enforce rather than assume.  :class:`OperatorMatrix`,
:func:`matrix_function` and :func:`kron`, at the end, are on no program
path; they stay because the benchmark tracer hooks them by name.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

HERMITICITY_RTOL = 1e-12
UNITARITY_ATOL = 1e-8
DIM_CAP_DEFAULT = 4096


class LinalgError(Exception):
    """Base class for invariant violations in this module."""


class NonHermitianError(LinalgError):
    pass


class NotUnitaryError(LinalgError):
    pass


class ConvergenceFailureError(LinalgError):
    pass


class DimensionMismatchError(LinalgError):
    pass


class DimensionOverflowError(LinalgError):
    pass


class ParityError(LinalgError):
    """An operator that does not split into real parity blocks."""


class ShiftAboveSpectrumError(LinalgError):
    """The shift-invert shift is not below the banded operator's spectrum."""


_FLAPACK = "scipy.linalg._flapack"


def _flapack_by_location():
    """scipy's LAPACK extension, loaded from its file in scipy's ``linalg``
    directory without running any package ``__init__``, and registered in
    sys.modules under its own name, so that a later ``import scipy.linalg``
    reuses it; the registered module when it is already loaded.  Raises
    ImportError when the file is not found or does not load."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("scipy is not installed")
    spec = importlib.machinery.PathFinder.find_spec(
        _FLAPACK, [os.path.join(d, "linalg") for d in scipy_spec.submodule_search_locations])
    if spec is None:
        raise ImportError(f"no {_FLAPACK} extension under scipy")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


def _load_lapack():
    """The module whose LAPACK wrappers the package calls:
    ``scipy.linalg._flapack`` by :func:`_flapack_by_location`, or
    ``scipy.linalg.lapack`` (the same wrappers behind scipy.linalg's Python
    layer, about 0.2 s more import) when that load fails."""
    try:
        return _flapack_by_location()
    except (ImportError, OSError):
        from scipy.linalg import lapack
        return lapack


# the package's one handle on LAPACK: dsytrd, dstebz, dsbevx, zhbevx,
# dpbtrf, dpbtrs, zpbtrf, zpbtrs and dlamch are read from it at each call
_LAPACK = _load_lapack()


# entries of M - M^dag formed at a time by the Hermiticity check: one block
# up to dimension 724, and a scratch of 8 MB however large the matrix is
_CHECK_BLOCK_ENTRIES = 1 << 19


def _max_abs(arr: np.ndarray) -> float:
    """max|arr|; for a real array from its extremes, so without a temporary
    the size of the array."""
    if np.iscomplexobj(arr):
        return float(np.abs(arr).max())
    return float(max(arr.max(), -arr.min()))


def _check_hermitian(arr: np.ndarray, context: str) -> None:
    """Raise NonHermitianError unless max|M - M^dag| is within HERMITICITY_RTOL
    of max(max|M|, 1); the difference is formed a block of rows at a time.

    A real block's check makes one temporary, the difference: two more the
    size of a parity block at cutoff 200 left the heap above glibc's trim
    threshold after each solve, and each next build faulted its pages in
    again (about 280 minor faults a build)."""
    scale = max(_max_abs(arr), 1.0)
    rows = max(1, _CHECK_BLOCK_ENTRIES // arr.shape[0])
    dev = 0.0
    for i in range(0, arr.shape[0], rows):
        # the ufunc allocates; the method would hand a real array back itself.
        # Gathered in row order, the subtraction runs on contiguous rows: about
        # 0.6 of the time of subtracting into the transposed copy
        diff = np.conjugate(arr[:, i:i + rows].T, order="C")
        np.subtract(arr[i:i + rows], diff, out=diff)
        dev = max(dev, _max_abs(diff))
    if dev > HERMITICITY_RTOL * scale:
        raise NonHermitianError(
            f"{context} max|M - M^dag| = {dev:.3e} (scale {scale:.3e})")


def check_dim(dim: int) -> None:
    """Raise DimensionOverflowError when a product-space dimension exceeds
    DIM_CAP_DEFAULT."""
    if dim > DIM_CAP_DEFAULT:
        raise DimensionOverflowError(f"product dimension {dim} exceeds cap {DIM_CAP_DEFAULT}")


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues and optional phase-fixed eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]

    def transitions(self, k: Optional[int] = None) -> np.ndarray:
        """E_n - E_0 for n = 1..k (all levels when k is None)."""
        w = self.eigenvalues
        stop = None if k is None else k + 1
        return w[1:stop] - w[0]


def _phase_fixed(v: np.ndarray) -> np.ndarray:
    """The columns of ``v``, each times the phase that makes its
    largest-magnitude entry (the lowest index on ties) real and positive;
    for a real column, its sign."""
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return v * (lead / np.abs(lead)).conj()[np.newaxis, :]


def hermitian_eig(arr: np.ndarray, vectors: bool = True) -> Spectrum:
    """Full eigendecomposition of a Hermitian complex128 array, or of a real
    symmetric float64 array, which is solved in real arithmetic.

    Eigenvalues ascend.  Each eigenvector is phase-fixed so its
    largest-magnitude component is real and positive (ties resolved by the
    lowest index), which makes repeated runs byte-reproducible; the phase of
    a real eigenvector is its sign, so it stays real.

    Raises DimensionMismatchError for an array that is not a square float64
    or complex128 matrix of dimension >= 1, NonHermitianError if it fails
    the Hermiticity check, and ConvergenceFailureError if LAPACK does not
    converge.
    """
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1 \
            or arr.dtype not in (np.float64, np.complex128):
        raise DimensionMismatchError(f"an array must be a square float64 or complex128 "
                                     f"matrix, got shape {arr.shape} {arr.dtype}")
    _check_hermitian(arr, "matrix is not Hermitian:")
    try:
        if vectors:
            w, v = np.linalg.eigh(arr)
        else:
            w = np.linalg.eigvalsh(arr)
            v = None
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"eigensolver did not converge: {exc}") from exc
    if v is not None:
        v = np.ascontiguousarray(_phase_fixed(v))
        v.flags.writeable = False
    w = np.ascontiguousarray(w)
    w.flags.writeable = False
    return Spectrum(eigenvalues=w, eigenvectors=v)


@dataclass(frozen=True)
class ParityBands:
    """The real parity blocks of a matter (x) Fock operator as banded chains,
    as :func:`parity_band_sum` writes them: chain c holds the states of
    parity class c with the Fock index slowest.

    Each chain is one block in LAPACK lower band storage: ``chain[r, j]`` is
    the block entry (j + r, j), so row 0 is the diagonal and row r the r-th
    subdiagonal, padded with zeros at its end.  The chains may differ in
    bandwidth.  The arrays are frozen in place, so a builder hands over
    fresh ones.
    """

    chains: Tuple[np.ndarray, ...]

    @property
    def width(self) -> int:
        """The largest bandwidth of the chains: subdiagonals stored."""
        return max(chain.shape[0] for chain in self.chains) - 1

    def __post_init__(self):
        for chain in self.chains:
            if chain.ndim != 2 or chain.dtype != np.float64:
                raise DimensionMismatchError(
                    f"a chain must be a 2D float64 band, got {chain.ndim}D {chain.dtype}")
            chain.flags.writeable = False


@dataclass(frozen=True)
class ParityBlocks:
    """The real parity blocks of a matter (x) Fock operator, as
    :func:`parity_block_sum` writes them: block c holds the phased entries
    1j**(m2 - m) H_kl of parity class c, the matter index m slowest and the
    Fock levels n = (m + c) mod 2, +2, ... next to it.  The arrays are
    frozen in place, so a builder hands over fresh ones.
    """

    blocks: Tuple[np.ndarray, ...]

    def __post_init__(self):
        for block in self.blocks:
            if block.ndim != 2 or block.shape[0] != block.shape[1] \
                    or block.dtype != np.float64:
                raise DimensionMismatchError(
                    f"a block must be a square float64 matrix, got shape "
                    f"{block.shape} {block.dtype}")
            block.flags.writeable = False


def _term_dims(terms) -> Tuple[int, int]:
    """The matter and field dimensions that every (S, F) term shares."""
    matter, field = terms[0][0].shape[0], terms[0][1].shape[0]
    for S, F in terms:
        if S.shape != (matter, matter) or F.shape != (field, field):
            raise DimensionMismatchError(
                f"term shapes {S.shape} (x) {F.shape} do not match "
                f"({matter}, {matter}) (x) ({field}, {field})")
    return matter, field


def kron_sum(terms) -> np.ndarray:
    """The Hermitian matrix sum_t S_t (x) F_t of the (S, F) terms, complex
    and read-only, the first factor on the slow axis, summed in the order of
    the terms.

    The matrix is formed one matter row block at a time, so beyond the
    result only a 1/matter-size scratch block is live, and every entry is
    the one np.kron(S1, F1) + np.kron(S2, F2) + ... gives.  Raises
    DimensionMismatchError when the terms disagree in shape and
    NonHermitianError when the sum is not Hermitian.
    """
    matter, field = _term_dims(terms)
    H = np.empty((matter * field, matter * field), dtype=complex)
    for i, row in enumerate(H.reshape(matter, field, matter, field)):
        for t, (S, F) in enumerate(terms):
            # rows i*field .. (i+1)*field - 1 of kron(S, F), as [k, j, l]
            K = S[i][None, :, None] * F[:, None, :]
            if t == 0:
                row[...] = K
            else:
                row += K
    _check_hermitian(H, "the term sum is not Hermitian:")
    H.flags.writeable = False
    return H


def _parity_maxima(op: np.ndarray) -> Tuple[float, float]:
    """max|op| over the entries whose two indices differ by an even number,
    and over those that differ by an odd number."""
    a = np.abs(op)
    even = max(a[0::2, 0::2].max(initial=0.0), a[1::2, 1::2].max(initial=0.0))
    odd = max(a[0::2, 1::2].max(initial=0.0), a[1::2, 0::2].max(initial=0.0))
    return float(even), float(odd)


# 1j**m for m = 0..3, exact; 1j**m itself is not for large m (1j**101 has
# a real part of 4.4e-15), so the matter index is reduced mod 4 into this table
_I_POWERS = np.array([1, 1j, -1, -1j])


def phased_entries(S: np.ndarray, t: int):
    """The nonzero entries (m, m2) of the matter operator S of term t,
    phased by 1j**(m2 - m), as index arrays m, m2 and their real values.
    ParityError unless the phased entries are real to
    HERMITICITY_RTOL * max(max|S|, 1)."""
    m, m2 = np.nonzero(S)
    s = S[m, m2] * _I_POWERS[(m2 - m) % 4]
    limit = HERMITICITY_RTOL * max(float(np.abs(S).max(initial=0.0)), 1.0)
    imag = float(np.abs(s.imag).max(initial=0.0))
    if imag > limit:
        raise ParityError(f"term {t}: the matter operator is not real after the 1j**m "
                          f"phase: max|Im| = {imag:.3e} exceeds {limit:.3e}")
    return m, m2, s.real


def _phased_terms(terms):
    """The matter and field dimensions of the (S, F) terms, and per term the
    nonzero entries (m, m2) of S, phased by 1j**(m2 - m) and checked real,
    with F: the input of both parity writers.

    Each term must keep the parity: the entries a parity class has no room
    for, those with m + n + m2 + n2 odd, are dropped, and ParityError is
    raised when max|S_mm2| max|F_nn2| over them exceeds
    HERMITICITY_RTOL * max(max|S| max|F|, 1).  Its phased matter entries
    must be real to HERMITICITY_RTOL * max(max|S|, 1), or ParityError is
    raised too.  DimensionMismatchError is raised when the terms disagree in
    shape.
    """
    matter, field = _term_dims(terms)
    phased = []
    for t, (S, F) in enumerate(terms):
        s_even, s_odd = _parity_maxima(S)
        f_even, f_odd = _parity_maxima(F)
        s_max = max(s_even, s_odd)
        leak = max(s_even * f_odd, s_odd * f_even)
        limit = HERMITICITY_RTOL * max(s_max * max(f_even, f_odd), 1.0)
        if leak > limit:
            raise ParityError(f"term {t} leaves the parity blocks: max|S| max|F| = "
                              f"{leak:.3e} over the dropped entries exceeds {limit:.3e}")
        phased.append((*phased_entries(S, t), F))
    return matter, field, phased


def parity_block_sum(terms) -> ParityBlocks:
    """The real parity blocks of sum_t S_t (x) F_t, for matter operators S_t
    and real field operators F_t on Fock levels 0, 1, ...

    Block c holds the basis states of parity (m + n) mod 2 = c: the matter
    index m is slowest, and the Fock levels n = (m + c) mod 2, +2, ... sit
    next to m.  Each S_t enters phased by the 1j**m rule,
    1j**(m2 - m) S_t[m, m2], and only its nonzero entries are visited: J_z
    is one diagonal, J_x and J_y are two and J_x^2 is three.  Each term is
    checked before it is written (``_phased_terms``: ParityError when it
    breaks the parity or its phased matter entries are not real,
    DimensionMismatchError when the terms disagree in shape).
    """
    matter, field, phased = _phased_terms(terms)
    blocks = []
    for c in (0, 1):
        edges = np.cumsum([0] + [len(range((m + c) % 2, field, 2)) for m in range(matter)])
        block = np.zeros((edges[-1], edges[-1]))
        for m, m2, s, F in phased:
            for i, i2, v in zip(m, m2, s):
                block[edges[i]:edges[i + 1], edges[i2]:edges[i2 + 1]] += \
                    v * F[(i + c) % 2::2, (i2 + c) % 2::2]
        blocks.append(block)
    return ParityBlocks(tuple(blocks))


def parity_band_sum(terms) -> ParityBands:
    """The real parity blocks of sum_t S_t (x) F_t, as :func:`parity_block_sum`
    defines them, reordered with the Fock index slowest and written as
    banded chains in LAPACK lower band storage.

    Chain c holds the basis states of parity (m + n) mod 2 = c: Fock level n
    is slowest, and the matter levels m = (n + c) mod 2, +2, ... sit next to
    it.  Each entry is the phased 1j**(m2 - m) S_t[m, m2] F_t[n, n2] summed
    in the order of the terms, as the block writer sums it, and only the
    nonzero entries of S_t and F_t are visited, so no block is formed.  The
    bandwidth of a chain is the largest row distance of an entry: a
    tridiagonal field operator and M matter levels give about M, a dense
    field operator the whole chain.

    The terms are checked as :func:`parity_block_sum` checks them.  A band
    keeps one triangle, so the writer also writes each entry's mirror image
    into a second band and raises NonHermitianError when the two differ by
    more than HERMITICITY_RTOL * max(max|B|, 1), the rule
    :func:`parity_eigvalsh` holds a block B to.
    """
    matter, field, phased = _phased_terms(terms)
    chains = []
    for c in (0, 1):
        # position of (n, m) in the chain: its Fock level's offset, then m // 2
        offset = np.cumsum([0] + [len(range((n + c) % 2, matter, 2)) for n in range(field)])
        entries = []
        for m, m2, s, F in phased:
            n, n2 = np.nonzero(F)
            # (matter entry i, field entry k) pairs whose row and column are in class c
            i, k = np.nonzero(((m[:, None] + n) % 2 == c) & ((m2[:, None] + n2) % 2 == c))
            entries.append((offset[n[k]] + m[i] // 2, offset[n2[k]] + m2[i] // 2,
                            s[i] * F[n[k], n2[k]]))
        width = max((int(np.abs(row - col).max(initial=0)) for row, col, _ in entries),
                    default=0)
        band = np.zeros((width + 1, offset[-1]))
        mirror = np.zeros_like(band)
        for row, col, v in entries:
            low, up = row >= col, row <= col
            band[row[low] - col[low], col[low]] += v[low]
            mirror[col[up] - row[up], row[up]] += v[up]
        scale = max(float(np.abs(band).max(initial=0.0)),
                    float(np.abs(mirror).max(initial=0.0)), 1.0)
        dev = float(np.abs(band - mirror).max(initial=0.0))
        if dev > HERMITICITY_RTOL * scale:
            raise NonHermitianError(
                f"parity chain {c} is not symmetric: max|B - B^T| = {dev:.3e} "
                f"(scale {scale:.3e})")
        chains.append(band)
    return ParityBands(tuple(chains))


# a wanted Ritz pair (theta, y) of the inverse has converged when
# ||OP y - theta y|| = |beta_m s_mi| <= LANCZOS_RTOL * theta: ARPACK's test
# at its default tolerance, machine epsilon.  From the constant start the
# residuals are first read at 2k + LANCZOS_EXTRA steps, from a caller's
# start at k + 2 LANCZOS_STRIDE, then every LANCZOS_STRIDE steps.  Steps to
# convergence, by the residuals read at every step: 52-60 for the grids'
# 16 levels a parity, 71-72 for 25, 34-50 for 8 and 35-36 for the full
# models' 5; from the prolonged coarse levels, the refined grids' 16 levels
# a parity take 36 (the double well) and 40 (the harmonic well).  A stride
# of 4 against 8 took the whole 6001- and 12001-row grids at 8 levels from
# 24 and 35 ms to 17 and 28 ms (one thread), where a read costs an eigh of
# the small projection; either way the basis is capped at
# 4 (2k + LANCZOS_EXTRA) vectors
LANCZOS_RTOL = float(np.finfo(float).eps)
LANCZOS_EXTRA = 24
LANCZOS_STRIDE = 4


def shift_invert_eigsh(bands: np.ndarray, k: int, sigma: float, vectors: bool,
                       start: Optional[np.ndarray] = None):
    """The lowest k eigenvalues, ascending, and with ``vectors`` (else None)
    their eigenvectors, of the Hermitian operator in LAPACK lower band
    storage ``bands`` (real symmetric or complex Hermitian), by shift-invert
    Lanczos about ``sigma`` on a banded Cholesky factor (Ericsson and Ruhe,
    *Math. Comp.* 35, 1980).

    The shifted operator is factored once by LAPACK ?pbtrf, and each
    Lanczos step applies its inverse OP by ?pbtrs, O(n width^2) for the
    factor and O(n width) a step.  The factor exists only for a positive
    definite operator, so ?pbtrf certifies that ``sigma`` lies below the
    spectrum; ShiftAboveSpectrumError when it does not.  The wanted levels
    are then the k largest eigenvalues theta of OP, lambda = sigma + 1/theta.

    The basis starts from the constant vector, which keeps repeated runs
    bit-identical, or from ``start`` (a nonzero vector of n entries, which
    the solve normalises) when a caller has one close to the span of the
    wanted eigenvectors: the grid refinement check passes the coarse
    levels prolonged to the refined grid.  Each new vector is
    orthogonalised against the whole basis twice (classical Gram-Schmidt,
    repeated).  The Ritz pairs come from the tridiagonal projection
    T_m = tridiag(beta, alpha, beta), and the solve stops once every wanted
    pair's residual |beta_m s_mi| is at most LANCZOS_RTOL * theta_i, or once
    the basis spans the whole space.  The residuals are first read at
    2k + LANCZOS_EXTRA steps from the constant start and at
    k + 2 LANCZOS_STRIDE from a given one, then every LANCZOS_STRIDE steps;
    the test and the cap are the same for both.  A start with no weight on
    a wanted level can converge on the next level up in its place, so the
    levels it returns can only lie higher: a start moves where the solve
    stops, never below the spectrum.  Where the basis spans an invariant
    subspace (beta_m below roundoff), it goes on from a fixed pseudo-random
    vector, as ARPACK restarts.  Raises ConvergenceFailureError when the
    basis reaches its cap unconverged.
    """
    n = bands.shape[1]
    if np.iscomplexobj(bands):
        pbtrf, pbtrs = _LAPACK.zpbtrf, _LAPACK.zpbtrs
    else:
        pbtrf, pbtrs = _LAPACK.dpbtrf, _LAPACK.dpbtrs
    shifted = bands.copy()
    shifted[0] -= sigma
    factor, info = pbtrf(shifted, lower=1)
    if info != 0:
        raise ShiftAboveSpectrumError(
            f"shift {sigma:.6e} is not below the spectrum of the {n}-row band "
            f"operator (?pbtrf info {info})")

    cold = 2 * k + LANCZOS_EXTRA
    cap = min(n, 4 * cold)
    # rows are the basis vectors; pages past the steps taken stay untouched
    basis = np.empty((cap, n), dtype=bands.dtype)
    if start is None:
        check = min(n, cold)
        basis[0] = 1.0 / np.sqrt(n)
    else:
        check = min(n, k + 2 * LANCZOS_STRIDE)
        basis[0] = start / np.linalg.norm(start)
    alpha, beta = np.zeros(cap), np.zeros(cap)

    def orthogonalise(w, m):
        # w minus its projection on the first m basis vectors, twice; the
        # sum of the coefficients on the last one
        last = 0.0
        for _ in range(2):
            h = (basis[:m] @ w.conj()).conj()
            w -= h @ basis[:m]
            last += h[m - 1].real
        return last

    for m in range(1, cap + 1):
        w, _ = pbtrs(factor, basis[m - 1], lower=1)
        applied = float(np.linalg.norm(w))
        alpha[m - 1] = orthogonalise(w, m)
        beta[m - 1] = np.linalg.norm(w)
        if m == check or m == cap:
            T = np.diag(alpha[:m]) + np.diag(beta[:m - 1], 1) + np.diag(beta[:m - 1], -1)
            theta, s = np.linalg.eigh(T)
            theta, s = theta[:-k - 1:-1], s[:, :-k - 1:-1]
            if m == n or np.all(np.abs(beta[m - 1] * s[-1]) <= LANCZOS_RTOL * theta):
                return sigma + 1.0 / theta, (s.T @ basis[:m]).T if vectors else None
            check += LANCZOS_STRIDE
        if m == cap:
            break
        if beta[m - 1] <= LANCZOS_RTOL * applied:
            w = np.random.default_rng(m).standard_normal(n).astype(bands.dtype)
            orthogonalise(w, m)
            beta[m - 1] = 0.0
            w /= np.linalg.norm(w)
        else:
            w /= beta[m - 1]
        basis[m] = w
    raise ConvergenceFailureError(
        f"shift-invert Lanczos failed: the lowest {k} levels of the {n}-row band "
        f"operator did not converge in {cap} steps")


# chains with rows^2 * width above this go to shift-invert Lanczos: ?sbevx
# first reduces the whole band to tridiagonal form (?sbtrd, about
# rows^2 * width flops), which a ?pbtrf factor (rows * width^2) avoids.
# Lowest 6-7 eigenvalues, one BLAS thread, ?sbevx against shift-invert
# (measured with ARPACK's Lanczos; the package's own took 1.3-2.1 ms
# against its 1.9-2.5 ms on the 392 x 16 full-model chains):
# 784 x 32 (2.0e7) 33-36 ms against 4.1-5.0 ms; 392 x 16 (2.5e6) 4.9-6.5
# against 2.2-2.4 ms; 196 x 8 (3.1e5) 1.4 ms against 1.5 ms; the Rabi chains,
# up to 321 x 2 (2.1e5), 0.22-1.47 ms against 1.1-1.9 ms.  Eigenvectors go to
# shift-invert at any size: ?sbevx back-transforms them through a dense
# rows x rows matrix, lowest 10 of a pentadiagonal grid band 4.2, 13.9 and
# 58 ms against 3.0, 3.4 and 3.9 ms at 301, 501 and 707 rows
SHIFT_INVERT_MIN_WORK = 10 ** 6


def _below_gershgorin(chain: np.ndarray) -> float:
    """A shift just below the Gershgorin lower bound min_i (B_ii - sum_j!=i
    |B_ij|) of the symmetric band ``chain``, and so below its spectrum."""
    n = chain.shape[1]
    radius = np.zeros(n)
    for r in range(1, chain.shape[0]):
        off = np.abs(chain[r, :n - r])
        radius[:n - r] += off
        radius[r:] += off
    low = float((chain[0] - radius).min())
    # strictly below, so that the shifted chain is positive definite even
    # where the bound is attained (a diagonal chain)
    return low - 1e-6 * max(abs(low), 1.0)


def band_eigh(band: np.ndarray, k: int, vectors: bool = False,
              sigma: Optional[float] = None, start: Optional[np.ndarray] = None):
    """The lowest k eigenvalues, ascending, and with ``vectors`` (else None)
    their eigenvectors, phase-fixed as :func:`hermitian_eig` fixes them, of
    the Hermitian operator in LAPACK lower band storage ``band`` (real
    symmetric or complex Hermitian).

    The band's shape and ``vectors`` pick the engine.  With k < rows - 1
    and either ``vectors`` or rows^2 * width above SHIFT_INVERT_MIN_WORK it
    is :func:`shift_invert_eigsh` about ``sigma``, by default just below
    the band's Gershgorin lower bound (``_below_gershgorin``), which ?pbtrf
    certifies again, with the Lanczos ``start`` vector when one is given;
    otherwise LAPACK ?sbevx or ?hbevx (reduction to tridiagonal form, then
    bisection for the selected indices), called as ``scipy.linalg.eig_banded``
    calls it, which takes neither a shift nor a start.

    Raises LinalgError on a non-finite entry, ShiftAboveSpectrumError when
    ?pbtrf refuses the shift, and ConvergenceFailureError if LAPACK or the
    Lanczos does not converge.
    """
    if not np.isfinite(band).all():
        raise LinalgError("the band has a non-finite entry")
    rows, width = band.shape[1], band.shape[0] - 1
    if (vectors or rows * rows * width > SHIFT_INVERT_MIN_WORK) and k < rows - 1:
        w, v = shift_invert_eigsh(band, k, _below_gershgorin(band) if sigma is None else sigma,
                                  vectors, start)
    else:
        # the arguments scipy.linalg.eig_banded passes in its select="i"
        # path, whose outputs these are bit for bit: range 2 (by index),
        # abstol = 2 dlamch('s'), and the wrapper's default mmax, k with
        # eigenvectors and 1 without.  ?sbevx overwrites its band, so the
        # wrapper copies the frozen one
        bevx = _LAPACK.zhbevx if np.iscomplexobj(band) else _LAPACK.dsbevx
        w, v, found, _, info = bevx(band, 0.0, 1.0, 1, k, compute_v=int(vectors), range=2,
                                    lower=1, abstol=2 * _LAPACK.dlamch("s"), overwrite_ab=0)
        if info != 0:
            raise ConvergenceFailureError(f"eigensolver did not converge: ?sbevx/?hbevx "
                                          f"info {info}")
        w, v = w[:found], v[:, :found] if vectors else None
    return w, None if v is None else _phase_fixed(v)


def _tridiagonal_levels(d: np.ndarray, e: np.ndarray, il: int, iu: int,
                        abstol: float) -> np.ndarray:
    """Eigenvalues il..iu (counted from 1), ascending, of the symmetric
    tridiagonal matrix with diagonal ``d`` and subdiagonal ``e``, by LAPACK
    dstebz: bisection on Sturm counts, range 'I', order 'E' (the whole
    matrix ascending).  Raises ConvergenceFailureError when dstebz reports
    info != 0 or returns fewer levels than it was asked for."""
    # range 2 selects by index (the wrapper numbers 'A', 'V', 'I' from 0);
    # it refuses an empty e, which a 1-row matrix does not read
    found, w, _, _, info = _LAPACK.dstebz(d, e if e.size else np.zeros(1), 2, 0.0, 1.0,
                                          il, iu, abstol, "E")
    if info != 0 or found != iu - il + 1:
        raise ConvergenceFailureError(
            f"eigensolver did not converge: dstebz info {info}, {found} of levels "
            f"{il}..{iu} found")
    return w[:found]


def _sector_levels(sector: np.ndarray, banded: bool, c: int):
    """Check parity block or chain ``c`` of a parity solve and return its
    solver: levels(il, iu), its eigenvalues il..iu (counted from 1).

    A block is checked for finiteness and by the package's one symmetry rule
    (``_check_hermitian``), then reduced once to tridiagonal form by LAPACK
    dsytrd, and each request is bisected by dstebz at abstol 0: the calls
    dsyevr makes, with the workspace it hands dsytrd (21 rows out of the
    wrapper's default 26), so that the levels are dsyevr's bit for bit.  A
    chain of width 1 is checked for finiteness and is its own tridiagonal
    form, bisected at abstol 2 dlamch('s') as ?sbevx bisects it, bit for
    bit.  Any other chain is solved from its lowest level by
    :func:`band_eigh` for each request; ``parity_eigvalsh`` asks it for one
    level more at first, so that an even count seldom asks it twice.
    """
    if not np.isfinite(sector).all():
        raise LinalgError(f"parity {'chain' if banded else 'block'} {c} has a "
                          f"non-finite entry")
    if not banded:
        _check_hermitian(sector, f"parity block {c} is not symmetric:")
        # LAPACK reads one triangle; the check bounds its mirror's difference
        _, d, e, _, info = _LAPACK.dsytrd(sector, lower=1, lwork=21 * sector.shape[0])
        if info != 0:
            raise ConvergenceFailureError(f"tridiagonal reduction failed: dsytrd info {info}")
        abstol = 0.0
    elif sector.shape[0] == 2:
        d, e = sector[0], sector[1, :-1]
        abstol = 2 * _LAPACK.dlamch("s")
    else:
        return lambda il, iu: band_eigh(sector, iu)[0][il - 1:]
    return lambda il, iu: _tridiagonal_levels(d, e, il, iu, abstol)


def parity_eigvalsh(H: Union[ParityBlocks, ParityBands], count: int) -> np.ndarray:
    """The lowest ``count`` eigenvalues of the operator whose real parity
    blocks ``H`` holds, as :class:`ParityBlocks` or as the banded chains of
    :class:`ParityBands`, ascending and read-only (fewer when the blocks
    hold fewer).

    Each block or chain (a sector) is solved only for the levels the union
    can still use (``_sector_levels`` says how).  Each sector is first
    asked for its lowest ceil(count / sectors) levels, a chain of width 2
    or more, which :func:`band_eigh` solves afresh at each ask, for
    count // sectors + 1 (the same at an odd count, one more at an even
    one), or all its rows if it has fewer.  Then, while the union of the
    levels found has a count-th smallest value ``top`` (infinity while it
    holds fewer than ``count``), a sector with levels left whose last level
    found lies below ``top`` is asked for the next ones that could still be
    among the lowest ``count``: as many as ``count`` less the union's levels
    at or below its last.  A sector whose last level reaches ``top`` holds no
    level below it, so the lowest ``count`` of the union are then the
    operator's.

    Raises ValueError when count < 1, LinalgError on a non-finite entry,
    NonHermitianError when a block's max|B - B^T| exceeds
    HERMITICITY_RTOL * max(max|B|, 1), ConvergenceFailureError when a
    LAPACK call reports info != 0 or dstebz finds fewer levels than asked,
    and otherwise what :func:`band_eigh` raises.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    banded = isinstance(H, ParityBands)
    sectors = H.chains if banded else H.blocks
    rows = [sector.shape[1] for sector in sectors]
    solvers = [_sector_levels(sector, banded, c) for c, sector in enumerate(sectors)]
    # a chain that band_eigh solves is solved again from its lowest level
    # when asked twice, so it is first asked for count // sectors + 1, which
    # is ceil(count / sectors) at an odd count
    first = [count // len(sectors) + 1 if banded and sector.shape[0] > 2
             else -(-count // len(sectors)) for sector in sectors]
    found = [solve(1, min(f, n)) for solve, f, n in zip(solvers, first, rows)]
    while True:
        union = np.sort(np.concatenate(found))
        # per sector, the levels left that could still be among the lowest count
        more = [min(count - int(np.searchsorted(union, w[-1], side="right")), n - w.size)
                for w, n in zip(found, rows)]
        if max(more) <= 0:
            break
        found = [np.concatenate([w, solve(w.size + 1, w.size + m)]) if m > 0 else w
                 for w, m, solve in zip(found, more, solvers)]
    w = union[:count]
    w.flags.writeable = False
    return w


def unitary_exp(A: np.ndarray, theta: float) -> np.ndarray:
    """exp(i * theta * A) for Hermitian A; exactly unitary up to roundoff."""
    spec = hermitian_eig(A)
    v = spec.eigenvectors
    phases = np.exp(1j * theta * spec.eigenvalues)
    return (v * phases) @ v.conj().T


def conjugate(U: np.ndarray, H: np.ndarray) -> np.ndarray:
    """U H U^dag, symmetrised, after checking that U and H are square of one
    shape (DimensionMismatchError), U unitary to UNITARITY_ATOL
    (NotUnitaryError) and H Hermitian (NonHermitianError)."""
    if U.ndim != 2 or U.shape[0] != U.shape[1] or U.shape != H.shape:
        raise DimensionMismatchError(f"dimension mismatch: U {U.shape}, H {H.shape}")
    gram = U.conj().T @ U
    dev = float(np.abs(gram - np.eye(U.shape[0])).max())
    if dev > UNITARITY_ATOL:
        raise NotUnitaryError(f"max|U^dag U - 1| = {dev:.3e} exceeds {UNITARITY_ATOL:.1e}")
    _check_hermitian(H, "matrix is not Hermitian:")
    out = U @ H @ U.conj().T
    return (out + out.conj().T) / 2.0


@dataclass(frozen=True)
class OperatorMatrix:
    """Square complex matrix, frozen, with a Hermiticity tag that
    ``__post_init__`` (which the tracer hooks) re-checks."""

    arr: np.ndarray
    hermitian_hint: bool = False

    def __post_init__(self):
        arr = np.asarray(self.arr, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatchError(f"operator must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise DimensionMismatchError("operator dimension must be >= 1")
        if self.hermitian_hint:
            _check_hermitian(arr, "hermitian_hint set but")
        arr = arr.copy() if arr.flags.writeable else arr
        arr.flags.writeable = False
        object.__setattr__(self, "arr", arr)

    @property
    def dim(self) -> int:
        return self.arr.shape[0]


def matrix_function(M: OperatorMatrix, f: Callable[[np.ndarray], np.ndarray]) -> OperatorMatrix:
    """f(M) for Hermitian M via the spectral decomposition; the tracer hooks it.

    ``f`` must accept a float array of eigenvalues.  When f is real-valued on
    the spectrum the result is re-symmetrised and tagged Hermitian.
    """
    spec = hermitian_eig(M.arr)
    fw = np.asarray(f(spec.eigenvalues))
    v = spec.eigenvectors
    out = (v * fw) @ v.conj().T
    if np.isrealobj(fw) or np.abs(fw.imag).max() == 0.0:
        return OperatorMatrix((out + out.conj().T) / 2.0, hermitian_hint=True)
    return OperatorMatrix(out)


def kron(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    """Kronecker product A (x) B, after ``check_dim``; the first factor
    indexes the slow axis.  Hooked by the tracer."""
    check_dim(A.dim * B.dim)
    return OperatorMatrix(np.kron(A.arr, B.arr),
                          hermitian_hint=A.hermitian_hint and B.hermitian_hint)
