"""Single-dipole (quantum Rabi) Hamiltonians across gauges, and the spin-j
gauge core that every gauge matrix and real parity block of the package is
built from.

Builders return the matter (x) field matrix of each model, energies in units
of omega_c with hbar = 1:

* ``build_H_D``           dipole gauge, linear coupling i g_D (a^dag - a) sigma_x
* ``build_H_C_standard``  Coulomb gauge with naive two-level truncation
                          (g_C sigma_y (a + a^dag) plus a scalar diamagnetic term)
* ``build_H_C_correct``   Coulomb gauge with the truncation done on the
                          gauge-transformed projector: the qubit splitting is
                          dressed by cos/sin of 2 eta (a + a^dag)
* ``build_H_C_taylor``    the corrected model with cos/sin replaced by their
                          order-n Maclaurin polynomials
* ``build_H_alpha``       one-parameter gauge family interpolating D (alpha=0)
                          and corrected C (alpha=1)

The core works on matter (x) field with a collective spin j = two_j / 2 and
a Hermitian field quadrature Q.  Each model is written once, as a list of
(spin operator, field operator) terms: the bare terms
omega_c 1 (x) n + omega_10 J_z (x) 1, the rotated splitting
omega_10 (J_z (x) cos phi Q + J_y (x) sin phi Q), the dipole coupling and
the naive Coulomb coupling.  Each ``build_*`` hands its list to the dense writer
``linalg.kron_sum``, and each ``blocks_*`` hands the same list to the block
writer ``linalg.parity_block_sum``, which writes the two real parity blocks
(``linalg.ParityBlocks``) the sweeps and studies solve.  The field
operators are real (n, a + a^dag, a^dag - a, and cos/sin of 2 eta (a + a^dag)
from the real eigenvectors of a + a^dag), and a dipole coupling
i J_x (x) (a^dag - a) carries its i on the spin side, where the 1j**m phase
makes it real.  The one reference conjugation U = exp(i phi J_x (x) Q)
serves every ``method="conjugation"`` and ``check_gauge_theorem``.  The
Rabi model is two_j = 1 (the j = 1/2 case: sigma_k = 2 J_k, so
0.5 omega_10 sigma_z = omega_10 J_z and g sigma_k = 2 g J_k bit for bit),
``gaugeqed.dicke`` is two_j = N, and ``gaugeqed.fluxonium``'s charge gauge
is the a -> ia case, Q = i(a - a^dag).

``bands_H_D`` and ``bands_H_C_standard`` write the D and naive Coulomb
models as their two real parity chains in band storage (tri- and
pentadiagonal), straight from closed forms, for the sweeps' banded solve.

Derived couplings: g_D = eta * omega_c and g_C = g_D * omega_10 / omega_c.
Every builder drops state-independent constants, so physical statements are
about transition energies E_n - E_0; raw eigenvalues of different gauges
differ by exactly those dropped scalars (for example spec(H_C) = spec(H_D)
+ eta^2 omega_c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

# hermitian_eig is not called here; it stays importable as rabi.hermitian_eig,
# which the benchmark tracer's tests rebind and restore
from .linalg import (OperatorMatrix, ParityBands, ParityBlocks, check_dim, conjugate,
                     hermitian_eig, hermitian_operator, kron_sum, parity_block_sum, unitary_exp)
from .qops import _real_fock_arrays, _spin_arrays, real_quadrature_functions

# the omitted Maclaurin tail is summed until a term falls below this
# fraction of max(|tail|, 1), far under double precision's 2^-53
TAIL_REL_TOL = 2.0 ** -60


@dataclass(frozen=True)
class RabiParams:
    """Model parameters; omega_10 = omega_c + detuning unless given explicitly."""

    eta: float
    cutoff: int = 60
    omega_c: float = 1.0
    detuning: Optional[float] = None
    omega_10: Optional[float] = None

    def __post_init__(self):
        if self.omega_c <= 0:
            raise ValueError(f"omega_c must be positive, got {self.omega_c}")
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        det, w10 = self.detuning, self.omega_10
        if det is None and w10 is None:
            det, w10 = 0.0, self.omega_c
        elif det is None:
            det = w10 - self.omega_c
        elif w10 is None:
            w10 = self.omega_c + det
        elif abs((self.omega_c + det) - w10) > 1e-12 * self.omega_c:
            raise ValueError("detuning and omega_10 are inconsistent")
        if w10 <= 0:
            raise ValueError(f"omega_10 must be positive, got {w10}")
        object.__setattr__(self, "detuning", float(det))
        object.__setattr__(self, "omega_10", float(w10))

    @property
    def g_d(self) -> float:
        return self.eta * self.omega_c

    @property
    def g_c(self) -> float:
        return self.g_d * self.omega_10 / self.omega_c

    @property
    def dim(self) -> int:
        return 2 * (self.cutoff + 1)


# ---------------------------------------------------------------------------
# the spin-j gauge core: each model as one list of (spin, field) terms
# ---------------------------------------------------------------------------

class _RealParts(NamedTuple):
    n: np.ndarray          # a^dag a
    X: np.ndarray          # a + a^dag
    P: np.ndarray          # a^dag - a, real antisymmetric
    eye_field: np.ndarray
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    eye_spin: np.ndarray


def _real_parts(two_j: int, cutoff: int) -> _RealParts:
    """Real Fock arrays and the complex spin-(two_j / 2) arrays, after the
    dimension cap on (two_j + 1) (cutoff + 1)."""
    check_dim((two_j + 1) * (cutoff + 1))
    n, X, P = _real_fock_arrays(cutoff)
    return _RealParts(n, X, P, np.eye(cutoff + 1), *_spin_arrays(two_j),
                      np.eye(two_j + 1, dtype=complex))


def _rotation(s: _RealParts, Q: np.ndarray, phi: float) -> OperatorMatrix:
    """The reference conjugation U = exp(i phi J_x (x) Q)."""
    return unitary_exp(OperatorMatrix(np.kron(s.jx, Q)), phi)


def _conjugated(s: _RealParts, omega_c: float, omega_10: float, Q: np.ndarray,
                phi: float) -> np.ndarray:
    """U (omega_10 J_z (x) 1) U^dag + omega_c 1 (x) n, with U = exp(i phi J_x (x) Q);
    equal to the rotated splitting at cos(phi Q), sin(phi Q) up to roundoff."""
    H0 = hermitian_operator(omega_10 * np.kron(s.jz, s.eye_field))
    return conjugate(_rotation(s, Q, phi), H0).arr + omega_c * np.kron(s.eye_spin, s.n)


def _bare_terms(s: _RealParts, omega_c: float, omega_10: float) -> list:
    """omega_c 1 (x) n + omega_10 J_z (x) 1."""
    return [(s.eye_spin, omega_c * s.n), (omega_10 * s.jz, s.eye_field)]


def _rotated_terms(s: _RealParts, omega_c: float, omega_10: float, cos: np.ndarray,
                   sin: np.ndarray) -> list:
    """omega_c 1 (x) n + omega_10 (J_z (x) cos + J_y (x) sin): the bare
    splitting turned about J_x, given cos(phi Q) and sin(phi Q) (or their
    Maclaurin polynomials)."""
    return [(s.eye_spin, omega_c * s.n), (omega_10 * s.jz, cos), (omega_10 * s.jy, sin)]


def _dipole_terms(s: _RealParts, p: RabiParams) -> list:
    """The bare terms plus the dipole coupling 2 g_D J_x (x) i(a^dag - a),
    entered as i J_x (x) (a^dag - a), whose phased spin part is real."""
    return _bare_terms(s, p.omega_c, p.omega_10) + [(2.0 * p.g_d * 1j * s.jx, s.P)]


def _diamagnetic(p: RabiParams, two_j: int) -> float:
    """two_j g_C^2 / omega_10: for each of the two_j dipoles, the coefficient
    that saturates the oscillator-strength sum rule with the single retained
    transition."""
    return two_j * p.g_c ** 2 / p.omega_10


def _standard_terms(s: _RealParts, p: RabiParams) -> list:
    """The naive Coulomb model: the bare terms, 2 g_C J_y (x) X and the
    scalar diamagnetic term on X^2, for the spin of ``s``."""
    two_j = s.jz.shape[0] - 1
    return _bare_terms(s, p.omega_c, p.omega_10) + [
        (2.0 * p.g_c * s.jy, s.X), (_diamagnetic(p, two_j) * s.eye_spin, s.X @ s.X)]


def _correct_terms(s: _RealParts, p: RabiParams) -> list:
    """The corrected Coulomb model: the splitting rotated by real cos/sin of
    2 eta X, taken after the dimension cap that ``s`` has passed."""
    return _rotated_terms(s, p.omega_c, p.omega_10, *_real_cos_sin(p.cutoff, 2.0 * p.eta))


def _real_cos_sin(cutoff: int, k: float):
    """cos(k X) and sin(k X), real, for X = a + a^dag."""
    return real_quadrature_functions(cutoff, lambda x: (np.cos(k * x), np.sin(k * x)))


# ---------------------------------------------------------------------------
# Rabi builders: the core at two_j = 1 with Q = a + a^dag; each build_* is
# the dense writer on the model's terms, each blocks_* the block writer
# ---------------------------------------------------------------------------

def build_H_D(p: RabiParams) -> OperatorMatrix:
    """Dipole-gauge Rabi Hamiltonian (two-level truncation is exact here)."""
    return kron_sum(_dipole_terms(_real_parts(1, p.cutoff), p))


def build_H_C_standard(p: RabiParams) -> OperatorMatrix:
    """Coulomb-gauge Rabi model from the naive two-level projection.

    The scalar (a + a^dag)^2 term has the coefficient g_C^2 / omega_10, which
    saturates the oscillator-strength sum rule with the single retained
    transition.
    """
    return kron_sum(_standard_terms(_real_parts(1, p.cutoff), p))


def _parity_chains(p: RabiParams, bandwidth: int):
    """Per parity class c = 0, 1: the Fock index n along the chain, the
    matter index m = (n + c) mod 2 next to it, and a lower band of the given
    bandwidth holding the uncoupled diagonal omega_c n + (omega_10/2) sigma_z.

    The chain |0, m(0)>, |1, m(1)>, ... is the parity block that
    ``linalg.parity_block_sum`` writes, reordered by n; its entries are the
    phased ones, 1j**(m2 - m) H_kl.
    """
    check_dim(p.dim)
    n = np.arange(p.cutoff + 1, dtype=float)
    for c in (0, 1):
        m = (n + c) % 2
        band = np.zeros((bandwidth + 1, n.size))
        band[0] = p.omega_c * n + 0.5 * p.omega_10 * (2 * m - 1)
        yield n, m, band


def bands_H_D(p: RabiParams) -> ParityBands:
    """The parity chains of ``build_H_D``: tridiagonal, with subdiagonal
    (-1)^m g_D sqrt(n + 1) between levels n and n + 1 (m that of level n)."""
    chains = []
    for n, m, band in _parity_chains(p, 1):
        band[1, :-1] = (1 - 2 * m[:-1]) * (p.g_d * np.sqrt(n[1:]))
        chains.append(band)
    return ParityBands(tuple(chains))


def bands_H_C_standard(p: RabiParams) -> ParityBands:
    """The parity chains of ``build_H_C_standard`` at its sum-rule
    diamagnetic coefficient D = g_C^2 / omega_10: pentadiagonal, with
    diagonal omega_c n + (omega_10/2) sigma_z + D (X^2)_nn, subdiagonal
    -g_C sqrt(n + 1) and second subdiagonal D sqrt((n + 1)(n + 2)),
    X = a + a^dag.  (X^2)_nn = 2n + 1 except at the top level, where the
    truncated X @ X has n = cutoff.
    """
    diamagnetic = _diamagnetic(p, 1)
    chains = []
    for n, m, band in _parity_chains(p, 2):
        x2 = 2.0 * n + 1.0
        x2[-1] = p.cutoff
        band[0] += diamagnetic * x2
        band[1, :-1] = -p.g_c * np.sqrt(n[1:])
        band[2, :-2] = diamagnetic * np.sqrt(n[1:-1] * n[2:])
        chains.append(band)
    return ParityBands(tuple(chains))


def build_H_C_correct(p: RabiParams, method: str = "closed_form") -> OperatorMatrix:
    """Coulomb-gauge Rabi model with the truncation-consistent light-matter block.

    ``method="conjugation"`` builds U = exp[i eta sigma_x (a + a^dag)] and
    conjugates the bare qubit splitting; ``method="closed_form"`` evaluates
    the equivalent sigma_z cos[2 eta (a+a^dag)] + sigma_y sin[...] form from
    the cached eigendecomposition of a + a^dag.  Both produce the same matrix
    to eigensolver roundoff on the truncated space (the rotation identity is
    exact there).
    """
    if method == "conjugation":
        s = _real_parts(1, p.cutoff)
        return hermitian_operator(_conjugated(s, p.omega_c, p.omega_10, s.X, 2.0 * p.eta))
    if method == "closed_form":
        return kron_sum(_correct_terms(_real_parts(1, p.cutoff), p))
    raise ValueError(f"unknown method {method!r}")


def blocks_H_C_correct(p: RabiParams) -> ParityBlocks:
    """The real parity blocks of ``build_H_C_correct`` (closed form)."""
    return parity_block_sum(_correct_terms(_real_parts(1, p.cutoff), p))


def maclaurin_cos_sin(values: np.ndarray, order: int):
    """Order-n Maclaurin polynomials of cos and sin evaluated on real values.

    Plain double precision, vectorised over ``values``; each value's result
    depends on that value alone.  The terms x^m/m! are built as a running
    product of x/m.  Where |x| >= order every kept term grows, so the kept
    terms are summed directly and the alternating sum keeps about half its
    last term.  Where |x| < order the result is cos x (sin x) minus the
    omitted tail, whose terms fall monotonically from the first omitted one.
    Neither way cancels catastrophically: against the exact polynomial, on
    [-100, 100] at orders up to 400, the error is at most 1e-14 max(|v|, 1)
    (measured 4.8e-15).  Orders 0 and 1 are exact.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    values = np.asarray(values, dtype=float)
    if order == 0:
        return np.ones_like(values), np.zeros_like(values)
    if order == 1:
        return np.ones_like(values), values.copy()
    # head[m % 2] collects the signed terms (-1)^(m//2) x^m/m!: cos, then sin
    head = [np.ones_like(values), np.zeros_like(values)]
    term = np.ones_like(values)
    for m in range(1, order + 1):
        term = term * (values / m)
        head[m % 2] += term if m % 4 < 2 else -term
    tail = np.abs(values) < order
    x, t = values[tail], term[tail]
    rest = [np.zeros_like(x), np.zeros_like(x)]
    m, settled = order, 0
    # one term of each parity below its bound ends the sum: later terms are
    # smaller still, and an alternating tail is bounded by its first term.
    # A term that overflowed (|x| beyond ~700) can never get there.
    while settled < 2:
        m += 1
        t = t * (x / m)
        acc = rest[m % 2]
        acc += t if m % 4 < 2 else -t
        small = np.abs(t) < TAIL_REL_TOL * np.maximum(np.abs(acc), 1.0)
        settled = settled + 1 if np.all(small | ~np.isfinite(t)) else 0
    head[0][tail] = np.cos(x) - rest[0]
    head[1][tail] = np.sin(x) - rest[1]
    return head[0], head[1]


def _taylor_terms(p: RabiParams, order: int) -> list:
    s = _real_parts(1, p.cutoff)
    cos, sin = real_quadrature_functions(
        p.cutoff, lambda x: maclaurin_cos_sin(2.0 * p.eta * x, order))
    return _rotated_terms(s, p.omega_c, p.omega_10, cos, sin)


def build_H_C_taylor(p: RabiParams, order: int) -> OperatorMatrix:
    """Corrected Coulomb-gauge model with order-n Maclaurin cos/sin.

    At order 2 this reduces to the qubit splitting plus
    g_C sigma_y (a+a^dag) - (g_C^2/omega_10) sigma_z (a+a^dag)^2, i.e. the
    sum-rule-corrected quadratic model; as order grows the spectrum converges
    to ``build_H_C_correct`` at the same cutoff.
    """
    return kron_sum(_taylor_terms(p, order))


def blocks_H_C_taylor(p: RabiParams, order: int) -> ParityBlocks:
    """The real parity blocks of ``build_H_C_taylor``."""
    return parity_block_sum(_taylor_terms(p, order))


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return alpha


def _alpha_terms(p: RabiParams, alpha: float) -> list:
    alpha = _check_alpha(alpha)
    s = _real_parts(1, p.cutoff)
    cos, sin = _real_cos_sin(p.cutoff, 2.0 * alpha * p.eta)
    return _rotated_terms(s, p.omega_c, p.omega_10, cos, sin) \
        + [((1.0 - alpha) * 2.0 * p.g_d * 1j * s.jx, s.P)]


def build_H_alpha(p: RabiParams, alpha: float) -> OperatorMatrix:
    """Gauge family interpolating the dipole (alpha=0) and corrected Coulomb
    (alpha=1) forms; transition energies are alpha-independent.

    Raises ValueError unless 0 <= alpha <= 1.
    """
    return kron_sum(_alpha_terms(p, alpha))


def blocks_H_alpha(p: RabiParams, alpha: float) -> ParityBlocks:
    """The real parity blocks of ``build_H_alpha``."""
    return parity_block_sum(_alpha_terms(p, alpha))


@dataclass(frozen=True)
class GaugeTheoremReport:
    """Deviation of U H_D U^dag from H_C on the truncated space.

    The comparison restores the scalar eta^2 omega_c that the dipole-gauge
    builder drops (the two-level projection of the quadratic field-coupling
    term), since without it the identity only holds up to that constant.
    ``max_dev_interior`` looks at rows and columns whose Fock index lies in
    the lowest ``interior_fraction`` of the cutoff; the remainder is boundary
    territory where truncation breaks the displacement algebra, reported in
    ``max_dev_full``.
    """

    eta: float
    cutoff: int
    interior_fraction: float
    max_dev_interior: float
    max_dev_full: float
    max_dev_full_rel: float
    tol: float
    passed: bool


def check_gauge_theorem(p: RabiParams, interior_fraction: float = 0.8,
                        tol: float = 1e-8) -> GaugeTheoremReport:
    """Verify U H_D U^dag = H_C as a matrix identity away from the boundary.

    The raw boundary deviation grows like sqrt(cutoff) (the displaced ladder
    operators lose their algebra at the top Fock level, and the matrix scale
    grows with the cutoff), so ``max_dev_full_rel`` normalizes the full-matrix
    deviation by the largest entry of H_C; that relative measure and the
    interior measure both decrease as the cutoff grows.
    """
    if not 0.0 < interior_fraction <= 1.0:
        raise ValueError(f"interior_fraction must be in (0, 1], got {interior_fraction}")
    s = _real_parts(1, p.cutoff)
    U = _rotation(s, s.X, 2.0 * p.eta)
    hd = hermitian_operator(build_H_D(p).arr
                            + (p.eta ** 2 * p.omega_c) * np.eye(p.dim, dtype=complex))
    hc = build_H_C_correct(p, method="closed_form")
    dev = conjugate(U, hd).arr - hc.arr
    nf = p.cutoff + 1
    keep = int(np.floor(interior_fraction * nf))
    mask = np.zeros(2 * nf, dtype=bool)
    mask[:keep] = True
    mask[nf:nf + keep] = True
    max_interior = float(np.abs(dev[np.ix_(mask, mask)]).max())
    max_full = float(np.abs(dev).max())
    scale = float(np.abs(hc.arr).max())
    return GaugeTheoremReport(eta=p.eta, cutoff=p.cutoff,
                              interior_fraction=interior_fraction,
                              max_dev_interior=max_interior, max_dev_full=max_full,
                              max_dev_full_rel=max_full / max(scale, 1e-300),
                              tol=tol * p.omega_c,
                              passed=max_interior <= tol * p.omega_c)
