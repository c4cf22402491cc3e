"""Dense and banded Hermitian linear algebra with explicit invariants.

Full operators in the package are finite complex matrices wrapped in
:class:`OperatorMatrix`, a frozen holder with no arithmetic of its own.
Eigenproblems go through LAPACK (``numpy.linalg.eigh``) behind
:func:`hermitian_eig`, which adds a deterministic eigenvector phase
convention; matrix functions and unitaries are built from the spectral
decomposition.

Every Hamiltonian of the package is written once, as a list of
(matter operator, field operator) terms for sum_t S_t (x) F_t, the matter
index slowest.  Two writers take such a list.  :func:`kron_sum` writes the
dense complex matrix one matter row block at a time and wraps it once with
:func:`hermitian_operator`, which is where its Hermiticity is checked.
:func:`parity_block_sum` writes the two real parity blocks instead, for
models that commute with the parity sigma_z (-1)^{a^dag a} (Braak, PRL 107,
100401, 2011), or with (-1)^i (-1)^{a^dag a} for the mirror-parity levels i
of a 1D particle: a fixed diagonal phase 1j**m makes both blocks real
symmetric, so the spectrum comes from two real half-size solves, about a
quarter of the n^3 of one complex solve.  The writer checks both claims for
each term and raises :class:`ParityError` when one fails.  The blocks come
as :class:`ParityBlocks`, which :func:`block_parity_eigvalsh` checks once
each for finiteness and symmetry and solves with ``numpy.linalg.eigvalsh``.

Where the blocks are banded, ordered by Fock index (the dipole and naive
Coulomb Rabi models are tri- and pentadiagonal chains |0,g>, |1,e>, |2,g>,
...), the builder writes the two chains as :class:`ParityBands`, which
:func:`banded_parity_eigvalsh` solves for the lowest few eigenvalues with
banded LAPACK (``scipy.linalg.eig_banded``).  A band stores one triangle, so
its symmetry holds by construction and only finiteness is checked.  Blocks
and bands have no off-parity half, so parity holds by construction too.

Everything is plain double precision, checked against tolerances that the
tests enforce rather than assume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.linalg

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


@dataclass(frozen=True)
class OperatorMatrix:
    """Square complex matrix with an optional, verified Hermiticity tag.

    ``hermitian_hint`` is set only by constructors that guarantee it; the
    constructor re-checks the claim (max entry of M - M^dag within
    ``HERMITICITY_RTOL`` of the largest entry) so a wrong tag fails fast.
    The wrapped array is frozen to keep instances safe to share.
    """

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
        diff = arr[:, i:i + rows].conj().T
        np.subtract(arr[i:i + rows], diff, out=diff)
        dev = max(dev, float(np.abs(diff).max()))
    if dev > HERMITICITY_RTOL * scale:
        raise NonHermitianError(
            f"{context} max|M - M^dag| = {dev:.3e} (scale {scale:.3e})")


def hermitian_operator(arr: np.ndarray) -> OperatorMatrix:
    """Wrap a freshly assembled complex matrix as a Hermitian operator.

    The constructor runs the Hermiticity check.  ``arr`` is frozen in place
    rather than copied, so the caller must not hold on to it for writing.
    """
    arr.flags.writeable = False
    return OperatorMatrix(arr, hermitian_hint=True)


def check_dim(dim: int, dim_cap: int = DIM_CAP_DEFAULT) -> None:
    """Raise DimensionOverflowError when a product-space dimension exceeds the cap."""
    if dim > dim_cap:
        raise DimensionOverflowError(f"product dimension {dim} exceeds cap {dim_cap}")


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


def hermitian_eig(M: OperatorMatrix, vectors: bool = True) -> Spectrum:
    """Full eigendecomposition of a Hermitian operator.

    Eigenvalues ascend.  Each eigenvector is phase-fixed so its
    largest-magnitude component is real and positive (ties resolved by the
    lowest index), which makes repeated runs byte-reproducible.

    Raises NonHermitianError if the matrix fails the Hermiticity check and
    ConvergenceFailureError if LAPACK does not converge.
    """
    if not M.hermitian_hint:
        _check_hermitian(M.arr, "matrix is not Hermitian:")
    try:
        if vectors:
            w, v = np.linalg.eigh(M.arr)
        else:
            w = np.linalg.eigvalsh(M.arr)
            v = None
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"eigensolver did not converge: {exc}") from exc
    if v is not None:
        idx = np.argmax(np.abs(v), axis=0)
        lead = v[idx, np.arange(v.shape[1])]
        phase = lead / np.abs(lead)
        v = v * phase.conj()[np.newaxis, :]
        v = np.ascontiguousarray(v)
        v.flags.writeable = False
    w = np.ascontiguousarray(w)
    w.flags.writeable = False
    return Spectrum(eigenvalues=w, eigenvectors=v)


@dataclass(frozen=True)
class ParityBands:
    """The real parity blocks of a matter (x) Fock operator as banded chains.

    Each chain is one block in LAPACK lower band storage: ``chain[r, j]`` is
    the block entry (j + r, j), so row 0 is the diagonal and row r the r-th
    subdiagonal, padded with zeros at its end.  The arrays are frozen in
    place, so a builder hands over fresh ones.
    """

    chains: Tuple[np.ndarray, ...]

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


def kron_sum(terms) -> OperatorMatrix:
    """The Hermitian operator sum_t S_t (x) F_t of the (S, F) terms, the
    first factor on the slow axis, summed in the order of the terms.

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
    return hermitian_operator(H)


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


def parity_block_sum(terms) -> ParityBlocks:
    """The real parity blocks of sum_t S_t (x) F_t, for matter operators S_t
    and real field operators F_t on Fock levels 0, 1, ...

    Block c holds the basis states of parity (m + n) mod 2 = c: the matter
    index m is slowest, and the Fock levels n = (m + c) mod 2, +2, ... sit
    next to m.  Each S_t enters phased by the 1j**m rule,
    1j**(m2 - m) S_t[m, m2], and only its nonzero entries are visited: J_z
    is one diagonal, J_x and J_y are two and J_x^2 is three.

    Each term is checked before it is written.  It must keep the parity: the
    entries a block has no room for, those with m + n + m2 + n2 odd, are
    dropped, and ParityError is raised when max|S_mm2| max|F_nn2| over them
    exceeds HERMITICITY_RTOL * max(max|S| max|F|, 1).  Its phased matter
    entries must be real to HERMITICITY_RTOL * max(max|S|, 1), or
    ParityError is raised too.  DimensionMismatchError is raised when the
    terms disagree in shape.
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


def block_parity_eigvalsh(blocks: ParityBlocks) -> np.ndarray:
    """Ascending, read-only eigenvalues of the operator whose real parity
    blocks ``blocks`` holds: ``numpy.linalg.eigvalsh`` on each block.

    Each block is checked once before its solve.  Raises LinalgError on a
    non-finite entry, NonHermitianError when max|B - B^T| exceeds
    HERMITICITY_RTOL * max(max|B|, 1), and ConvergenceFailureError if LAPACK
    does not converge.
    """
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
        try:
            ws.append(np.linalg.eigvalsh(block))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailureError(f"eigensolver did not converge: {exc}") from exc
    w = np.sort(np.concatenate(ws))
    w.flags.writeable = False
    return w


def banded_parity_eigvalsh(bands: ParityBands, count: int) -> np.ndarray:
    """The lowest ``count`` eigenvalues of the operator whose parity chains
    ``bands`` holds, ascending and read-only (fewer when the chains hold
    fewer).

    Each chain is solved for its own lowest min(count, length) eigenvalues
    by ``scipy.linalg.eig_banded`` (LAPACK ?sbevx: reduction to tridiagonal
    form, then bisection for the selected indices; one driver for any
    bandwidth); the lowest ``count`` of the union are the operator's.

    Raises LinalgError on a non-finite band entry and
    ConvergenceFailureError if LAPACK does not converge.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    ws = []
    for c, chain in enumerate(bands.chains):
        if not np.isfinite(chain).all():
            raise LinalgError(f"parity chain {c} has a non-finite entry")
        top = min(count, chain.shape[1]) - 1
        try:
            ws.append(scipy.linalg.eig_banded(chain, lower=True, eigvals_only=True,
                                              select="i", select_range=(0, top),
                                              check_finite=False))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailureError(f"eigensolver did not converge: {exc}") from exc
    w = np.sort(np.concatenate(ws))[:count]
    w.flags.writeable = False
    return w


def spectral_matrix(spec: Spectrum, fw: np.ndarray) -> np.ndarray:
    """V diag(fw) V^dag for values fw that are real on the spectrum, re-symmetrised."""
    v = spec.eigenvectors
    out = (v * fw) @ v.conj().T
    return (out + out.conj().T) / 2.0


def matrix_function(M: OperatorMatrix, f: Callable[[np.ndarray], np.ndarray]) -> OperatorMatrix:
    """f(M) for Hermitian M via the spectral decomposition.

    ``f`` must accept a float array of eigenvalues.  When f is real-valued on
    the spectrum the result is re-symmetrised and tagged Hermitian.
    """
    spec = hermitian_eig(M)
    fw = np.asarray(f(spec.eigenvalues))
    if np.isrealobj(fw) or np.abs(fw.imag).max() == 0.0:
        return hermitian_operator(spectral_matrix(spec, fw))
    v = spec.eigenvectors
    return OperatorMatrix((v * fw) @ v.conj().T, hermitian_hint=False)


def unitary_exp(A: OperatorMatrix, theta: float) -> OperatorMatrix:
    """exp(i * theta * A) for Hermitian A; exactly unitary up to roundoff."""
    spec = hermitian_eig(A)
    v = spec.eigenvectors
    phases = np.exp(1j * theta * spec.eigenvalues)
    return OperatorMatrix((v * phases) @ v.conj().T, hermitian_hint=False)


def conjugate(U: OperatorMatrix, H: OperatorMatrix) -> OperatorMatrix:
    """U H U^dag after verifying that U is unitary to UNITARITY_ATOL."""
    if U.dim != H.dim:
        raise DimensionMismatchError(f"dimension mismatch: {U.dim} vs {H.dim}")
    gram = U.arr.conj().T @ U.arr
    dev = float(np.abs(gram - np.eye(U.dim)).max())
    if dev > UNITARITY_ATOL:
        raise NotUnitaryError(f"max|U^dag U - 1| = {dev:.3e} exceeds {UNITARITY_ATOL:.1e}")
    out = U.arr @ H.arr @ U.arr.conj().T
    if H.hermitian_hint:
        return hermitian_operator((out + out.conj().T) / 2.0)
    return OperatorMatrix(out, hermitian_hint=False)


def kron(A: OperatorMatrix, B: OperatorMatrix, dim_cap: int = DIM_CAP_DEFAULT) -> OperatorMatrix:
    """Kronecker product A (x) B; the first factor indexes the slow axis."""
    check_dim(A.dim * B.dim, dim_cap)
    return OperatorMatrix(np.kron(A.arr, B.arr),
                          hermitian_hint=A.hermitian_hint and B.hermitian_hint)
