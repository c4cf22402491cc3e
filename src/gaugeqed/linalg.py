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
as :class:`ParityBlocks`, which :func:`block_parity_eigvalsh` checks once
each for finiteness and symmetry and solves for its lowest few eigenvalues
with LAPACK ?syevr (``scipy.linalg.lapack.dsyevr``), since a caller reads
only the lowest levels + 1 of them.

Ordered by Fock index, the same blocks are banded when every field
operator is: n, X, P and X @ X couple Fock levels at most two apart, so the
bandwidth is about the number of matter levels (1 and 2 for the dipole and
naive Coulomb Rabi chains |0,g>, |1,e>, |2,g>, ...; 31 and 32 for the
32-level full models).  :func:`parity_band_sum`, the third writer, writes
them so from the nonzero entries of the terms, with the same per-term
checks, as :class:`ParityBands`; :func:`banded_parity_eigvalsh` solves
those for the lowest few eigenvalues.  The Rabi builders ``bands_H_D`` and
``bands_H_C_standard`` write the same chains from closed forms.  A band
stores one triangle, so the writer checks symmetry against the mirror
image of each entry, and the solver checks only finiteness.  Blocks and
bands have no off-parity half, so parity holds by construction there.

:func:`band_eigh` is the package's one band solver: every banded chain
and the 1D particle's grid operators, real and complex, go through it.
Two engines solve a band; its shape and whether eigenvectors are wanted
pick one.  ``scipy.linalg.eig_banded`` (LAPACK ?sbevx) first reduces the
whole band to tridiagonal form, about rows^2 * width flops, which is
nothing on the narrow Rabi chains, and back-transforms eigenvectors
through a dense rows x rows matrix.  :func:`shift_invert_eigsh` factors
the shifted band once by banded Cholesky (?pbtrf, rows * width^2) and
runs ARPACK's shift-invert Lanczos on that factor.  An eigenvector solve,
and a band with rows^2 * width above SHIFT_INVERT_MIN_WORK (the 16- and
32-level full models, the particle's grids at the presets' sizes), goes
to the second, shifted just below its Gershgorin lower bound unless the
caller passes its own shift, and every other band to the first.

Everything is plain double precision, checked against tolerances that the
tests enforce rather than assume.  :class:`OperatorMatrix`,
:func:`matrix_function` and :func:`kron`, at the end, are on no program
path; they stay because the benchmark tracer hooks them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

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


# entries of M - M^dag formed at a time by the Hermiticity check: one block
# up to dimension 724, and a scratch of 8 MB however large the matrix is
_CHECK_BLOCK_ENTRIES = 1 << 19


def _check_hermitian(arr: np.ndarray, context: str) -> None:
    """Raise NonHermitianError unless max|M - M^dag| is within HERMITICITY_RTOL
    of max(max|M|, 1); the difference is formed a block of rows at a time."""
    scale = max(float(np.abs(arr).max()), 1.0)
    rows = max(1, _CHECK_BLOCK_ENTRIES // arr.shape[0])
    dev = 0.0
    for i in range(0, arr.shape[0], rows):
        # the ufunc allocates; the method would hand a real array back itself
        diff = np.conjugate(arr[:, i:i + rows]).T
        np.subtract(arr[i:i + rows], diff, out=diff)
        dev = max(dev, float(np.abs(diff).max()))
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
        m, m2 = np.nonzero(S)
        s = S[m, m2] * _I_POWERS[(m2 - m) % 4]
        limit = HERMITICITY_RTOL * max(s_max, 1.0)
        imag = float(np.abs(s.imag).max(initial=0.0))
        if imag > limit:
            raise ParityError(f"term {t}: the matter operator is not real after the 1j**m "
                              f"phase: max|Im| = {imag:.3e} exceeds {limit:.3e}")
        phased.append((m, m2, s.real, F))
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
    more than HERMITICITY_RTOL * max(max|B|, 1), as
    :func:`block_parity_eigvalsh` does for a block B.
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


def block_parity_eigvalsh(blocks: ParityBlocks, count: int) -> np.ndarray:
    """The lowest ``count`` eigenvalues of the operator whose real parity
    blocks ``blocks`` holds, ascending and read-only (fewer when the blocks
    hold fewer).

    Each block is solved for its own lowest min(count, rows) eigenvalues by
    LAPACK ?syevr in range 'I' (``scipy.linalg.lapack.dsyevr``: reduction to
    tridiagonal form, then bisection for the selected indices, or all of
    them by the root-free QR when every index is selected); the lowest
    ``count`` of the union are the operator's.

    Each block is checked once before its solve.  Raises ValueError when
    count < 1, LinalgError on a non-finite entry, NonHermitianError when
    max|B - B^T| exceeds HERMITICITY_RTOL * max(max|B|, 1), and
    ConvergenceFailureError if LAPACK does not converge.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    ws = []
    for c, block in enumerate(blocks.blocks):
        if not np.isfinite(block).all():
            raise LinalgError(f"parity block {c} has a non-finite entry")
        scale = max(float(np.abs(block).max(initial=0.0)), 1.0)
        dev = float(np.abs(block - block.T).max(initial=0.0))
        if dev > HERMITICITY_RTOL * scale:
            raise NonHermitianError(
                f"parity block {c} is not symmetric: max|B - B^T| = {dev:.3e} "
                f"(scale {scale:.3e})")
        # LAPACK reads one triangle; the check above bounds its mirror's difference
        w, _, found, _, info = scipy.linalg.lapack.dsyevr(
            block, compute_v=0, range="I", lower=1, il=1, iu=min(count, block.shape[0]))
        if info != 0:
            raise ConvergenceFailureError(f"eigensolver did not converge: ?syevr info {info}")
        ws.append(w[:found])
    w = np.sort(np.concatenate(ws))[:count]
    w.flags.writeable = False
    return w


def shift_invert_eigsh(bands: np.ndarray, k: int, sigma: float, vectors: bool):
    """The lowest k eigenvalues, ascending, and with ``vectors`` (else None)
    their eigenvectors, of the Hermitian operator in LAPACK lower band
    storage ``bands`` (real symmetric or complex Hermitian), by banded
    Cholesky shift-invert Lanczos about ``sigma`` (ARPACK mode 3,
    Lehoucq, Sorensen and Yang, *ARPACK Users' Guide*, SIAM 1998).

    The shifted operator is factored once by LAPACK ?pbtrf, and each
    Lanczos step applies its inverse by ?pbtrs, O(n width^2) for the
    factor and O(n width) a step.  The factor exists only for a positive
    definite operator, so ?pbtrf certifies that ``sigma`` lies below the
    spectrum; ShiftAboveSpectrumError when it does not.  Mode 3 never
    multiplies by the operator itself (eigsh reads only the shape and dtype
    of its first argument), so the inverse stands in for it.  A fixed start
    vector keeps repeated runs bit-identical.  ARPACK needs k < n - 1.
    Raises ConvergenceFailureError when ARPACK fails.
    """
    n = bands.shape[1]
    pbtrf, pbtrs = scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs"), (bands,))
    shifted = bands.copy()
    shifted[0] -= sigma
    factor, info = pbtrf(shifted, lower=1)
    if info != 0:
        raise ShiftAboveSpectrumError(
            f"shift {sigma:.6e} is not below the spectrum of the {n}-row band "
            f"operator (?pbtrf info {info})")

    def solve(b):
        x, _ = pbtrs(factor, b, lower=1)
        return x

    op_inv = scipy.sparse.linalg.LinearOperator((n, n), matvec=solve, dtype=bands.dtype)
    v0 = np.full(n, 1.0 / np.sqrt(n), dtype=bands.dtype)
    try:
        res = scipy.sparse.linalg.eigsh(op_inv, k=k, sigma=sigma, which="LM", v0=v0,
                                        OPinv=op_inv, return_eigenvectors=vectors)
    except scipy.sparse.linalg.ArpackError as exc:
        raise ConvergenceFailureError(f"shift-invert Lanczos failed: {exc}") from exc
    if not vectors:
        return np.sort(res), None
    w, u = res
    order = np.argsort(w)
    return w[order], u[:, order]


# chains with rows^2 * width above this go to shift-invert Lanczos: ?sbevx
# first reduces the whole band to tridiagonal form (?sbtrd, about
# rows^2 * width flops), which a ?pbtrf factor (rows * width^2) avoids.
# Lowest 6-7 eigenvalues, one BLAS thread, eig_banded against shift-invert:
# 784 x 32 (2.0e7) 33-36 ms against 4.1-5.0 ms; 392 x 16 (2.5e6) 4.9-6.5
# against 2.2-2.4 ms; 196 x 8 (3.1e5) 1.4 ms against 1.5 ms; the Rabi chains,
# up to 321 x 2 (2.1e5), 0.22-1.47 ms against 1.1-1.9 ms.  Eigenvectors go to
# shift-invert at any size: eig_banded back-transforms them through a dense
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
              sigma: Optional[float] = None):
    """The lowest k eigenvalues, ascending, and with ``vectors`` (else None)
    their eigenvectors, phase-fixed as :func:`hermitian_eig` fixes them, of
    the Hermitian operator in LAPACK lower band storage ``band`` (real
    symmetric or complex Hermitian).

    The band's shape and ``vectors`` pick the engine.  With k < rows - 1
    and either ``vectors`` or rows^2 * width above SHIFT_INVERT_MIN_WORK it
    is :func:`shift_invert_eigsh` about ``sigma``, by default just below
    the band's Gershgorin lower bound (``_below_gershgorin``), which ?pbtrf
    certifies again; otherwise ``scipy.linalg.eig_banded`` (LAPACK ?sbevx
    or ?hbevx: reduction to tridiagonal form, then bisection for the
    selected indices), which takes no shift.

    Raises LinalgError on a non-finite entry, ShiftAboveSpectrumError when
    ?pbtrf refuses the shift, and ConvergenceFailureError if LAPACK or
    ARPACK does not converge.
    """
    if not np.isfinite(band).all():
        raise LinalgError("the band has a non-finite entry")
    rows, width = band.shape[1], band.shape[0] - 1
    if (vectors or rows * rows * width > SHIFT_INVERT_MIN_WORK) and k < rows - 1:
        w, v = shift_invert_eigsh(band, k, _below_gershgorin(band) if sigma is None else sigma,
                                  vectors)
    else:
        try:
            res = scipy.linalg.eig_banded(band, lower=True, eigvals_only=not vectors,
                                          select="i", select_range=(0, k - 1),
                                          check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailureError(f"eigensolver did not converge: {exc}") from exc
        w, v = res if vectors else (res, None)
    return w, None if v is None else _phase_fixed(v)


def banded_parity_eigvalsh(bands: ParityBands, count: int) -> np.ndarray:
    """The lowest ``count`` eigenvalues of the operator whose parity chains
    ``bands`` holds, ascending and read-only (fewer when the chains hold
    fewer).

    Each chain is solved by :func:`band_eigh` for its own lowest
    min(count, rows) eigenvalues, and the lowest ``count`` of the union are
    the operator's.  Raises ValueError when count < 1, and otherwise what
    :func:`band_eigh` raises.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    ws = [band_eigh(chain, min(count, chain.shape[1]))[0] for chain in bands.chains]
    w = np.sort(np.concatenate(ws))[:count]
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
