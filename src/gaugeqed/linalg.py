"""Dense and banded Hermitian linear algebra with explicit invariants.

Full operators in the package are finite complex matrices wrapped in
:class:`OperatorMatrix`, a frozen holder with no arithmetic of its own.
Hamiltonian builders assemble plain complex arrays (``.arr`` is the array)
and wrap the finished matrix once with :func:`hermitian_operator`, which is
where its Hermiticity is checked.  Eigenproblems go through LAPACK
(``numpy.linalg.eigh``) behind :func:`hermitian_eig`, which adds a
deterministic eigenvector phase convention; matrix functions and unitaries
are built from the spectral decomposition.

Matter (x) Fock operators that commute with the parity
sigma_z (-1)^{a^dag a} (Braak, PRL 107, 100401, 2011), or with
(-1)^i (-1)^{a^dag a} for the mirror-parity levels i of a 1D particle,
have a second route,
:func:`parity_eigvalsh`: a fixed diagonal phase makes both parity blocks
real symmetric, so the spectrum comes from two real half-size solves, about
a quarter of the n^3 of one complex solve.  Both claims are checked on every
call and a failure raises :class:`ParityError`.

A builder that knows its model's parity can skip the complex matrix
altogether and write the real blocks itself.  Dense blocks (the corrected
Coulomb, Taylor-order, alpha-family and Dicke models) come as
:class:`ParityBlocks`, which :func:`block_parity_eigvalsh` checks once each
for finiteness and symmetry and solves with ``numpy.linalg.eigvalsh``.
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


# 1j**m for m = 0..3, exact; 1j**m itself is not for large m (1j**101 has
# a real part of 4.4e-15), so the matter index is reduced mod 4 into this table
_I_POWERS = np.array([1, 1j, -1, -1j])


def parity_eigvalsh(H: OperatorMatrix, field_dim: int) -> np.ndarray:
    """Ascending eigenvalues of a matter (x) Fock operator, solved as two
    real symmetric parity blocks.

    Basis index k = m * field_dim + n, with m the matter index (ascending
    spin projection, or the level of a mirror-parity 1D basis) and n the
    Fock index; the parity sorts k into the class (m + n) mod 2.
    Conjugating by the diagonal phase phi_k = 1j**m turns the sigma_y and
    i (a^dag - a) couplings of every Rabi and Dicke builder, and the
    x i(a^dag - a) and p (a + a^dag) couplings of the full 1D models, into
    real entries, so each block is solved in
    real arithmetic (``numpy.linalg.eigvalsh`` on the real part of the
    phased block).  The result is read-only.

    Raises ParityError when the off-parity block or the imaginary part of a
    phased block exceeds HERMITICITY_RTOL * max(max|H|, 1), NonHermitianError
    for an untagged non-Hermitian matrix, and ConvergenceFailureError if
    LAPACK does not converge.
    """
    arr = H.arr
    if not H.hermitian_hint:
        _check_hermitian(arr, "matrix is not Hermitian:")
    if field_dim < 1 or arr.shape[0] % field_dim:
        raise DimensionMismatchError(
            f"dimension {arr.shape[0]} is not a multiple of field_dim {field_dim}")
    matter = arr.shape[0] // field_dim
    # H[m, n, m2, n2]; next to matter index m, parity class c holds the Fock
    # levels n = (m + c) % 2, +2, ..., so every (m, m2) piece of a block is a
    # strided view and no fancy-index gather is needed
    h4 = arr.reshape(matter, field_dim, matter, field_dim)

    def fock(m, c):
        return slice((m + c) % 2, None, 2)

    pairs = [(m, m2) for m in range(matter) for m2 in range(matter)]
    limit = HERMITICITY_RTOL * max(float(np.abs(arr).max()), 1.0)
    leak = max(float(np.abs(h4[m, fock(m, 0), m2, fock(m2, 1)]).max(initial=0.0))
               for m, m2 in pairs)
    if leak > limit:
        raise ParityError(f"off-parity block: max|H| = {leak:.3e} exceeds {limit:.3e}")
    ws = []
    for c in (0, 1):
        edges = np.cumsum([0] + [len(range((m + c) % 2, field_dim, 2))
                                 for m in range(matter)])
        block = np.empty((edges[-1], edges[-1]))
        imag = 0.0
        for m, m2 in pairs:
            # the phased entry conj(phi_k) H_kl phi_l = 1j**(m2 - m) H_kl
            piece = h4[m, fock(m, c), m2, fock(m2, c)] * _I_POWERS[(m2 - m) % 4]
            block[edges[m]:edges[m + 1], edges[m2]:edges[m2 + 1]] = piece.real
            imag = max(imag, float(np.abs(piece.imag).max(initial=0.0)))
        if imag > limit:
            raise ParityError(
                f"phased parity block: max|Im| = {imag:.3e} exceeds {limit:.3e}")
        try:
            ws.append(np.linalg.eigvalsh(block))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailureError(f"eigensolver did not converge: {exc}") from exc
    w = np.sort(np.concatenate(ws))
    w.flags.writeable = False
    return w


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
    """The real parity blocks of a matter (x) Fock operator, written
    directly: block c holds the phased entries 1j**(m2 - m) H_kl of parity
    class c, ordered as :func:`parity_eigvalsh` gathers them (matter index m
    slowest, the Fock levels n = (m + c) mod 2, +2, ... next to it).  The
    arrays are frozen in place, so a builder hands over fresh ones.
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
