"""Single-dipole (quantum Rabi) Hamiltonians across gauges, and the spin-j
gauge core that every gauge matrix and real parity block of the package is
built from.

Each model is one public list of (spin operator, field operator) terms,
energies in units of omega_c with hbar = 1:

* ``terms_H_D``           dipole gauge, linear coupling i g_D (a^dag - a) sigma_x
* ``terms_H_C_standard``  Coulomb gauge with naive two-level truncation
                          (g_C sigma_y (a + a^dag) plus a scalar diamagnetic term)
* ``terms_H_C_correct``   Coulomb gauge with the truncation done on the
                          gauge-transformed projector: the qubit splitting is
                          dressed by cos/sin of 2 eta (a + a^dag)
* ``terms_H_C_taylor``    the corrected model with cos/sin replaced by their
                          order-n Maclaurin polynomials
* ``terms_H_C_rotated``   the corrected model with cos/sin given by their
                          values on the spectrum of a + a^dag (the Taylor
                          model takes the Maclaurin values)
* ``terms_H_alpha``       one-parameter gauge family interpolating D (alpha=0)
                          and corrected C (alpha=1)

``taylor_is_exact`` tells when an order's Maclaurin cos/sin equal cos/sin
to the last bit, so that the Taylor model is the corrected model array for
array.  ``maclaurin_cos_sin`` evaluates a table of such value rows at
once, each row bit for bit as if alone; the Taylor study reads its exact
runs and its Taylor models' node values from one table per order.

A caller picks the writer where it picks the solve:
``linalg.kron_sum(terms)`` writes the dense matter (x) field matrix, and
``linalg.parity_block_sum(terms)`` the two real parity blocks
(``linalg.ParityBlocks``) the sweeps and studies solve.  ``build_H_D``,
``build_H_C_standard``, ``build_H_C_correct`` and ``build_H_C_taylor`` are
that dense writer on the first four lists (read-only complex arrays);
``check_gauge_theorem`` calls two, and the benchmark tracer hooks all four.

The core works on matter (x) field with a collective spin j = two_j / 2 and
the field quadrature X = a + a^dag.  Its dense field factors (n, X,
a^dag - a, the field identity, X @ X and the eigendecomposition of X) are
those of ``qops.fock_factors``, built once per cutoff, each on its first
read, and shared read-only by every model at that cutoff; the small spin
arrays are kept per spin (``qops._spin_arrays``), and ``_real_parts``
hands a build both.  Its pieces are the bare terms
omega_c 1 (x) n + omega_10 J_z (x) 1, the rotated splitting
omega_10 (J_z (x) cos phi X + J_y (x) sin phi X), the dipole coupling and
the naive Coulomb coupling.  The field operators are
real (n, X, a^dag - a, and cos/sin of phi X from the real eigenvectors of
X), and a dipole coupling i J_x (x) (a^dag - a) carries its i on the spin
side, where the 1j**m phase makes it real.  The one reference
conjugation U = exp(i phi J_x (x) X) serves ``check_gauge_theorem`` and,
as ``_conjugated``, the tests' check of every corrected model's closed
form.  The Rabi and Dicke models are written at omega_c = 1; only
fluxonium passes its own LC frequency to the bare and rotated terms.  The
Rabi model is two_j = 1 (the j = 1/2 case: sigma_k = 2 J_k, so
0.5 omega_10 sigma_z = omega_10 J_z and g sigma_k = 2 g J_k bit for bit).
``terms_H_C_standard`` and ``terms_H_C_correct`` take the spin from
``p.two_j``, so a ``gaugeqed.dicke.DickeParams`` (two_j = N) gets the Dicke
models from them.  ``terms_H_D``, ``terms_H_C_taylor``, ``terms_H_alpha``
and the two ``bands_*`` writers are one-dipole models and raise ValueError
when two_j != 1.  ``gaugeqed.fluxonium``'s charge gauge is two_j = 1 again,
its i(a - a^dag) coupling turned onto X by the photon-number phase
diag(i^n).

``bands_H_D`` and ``bands_H_C_standard`` write the D and naive Coulomb
models as their two real parity chains in band storage (tri- and
pentadiagonal), straight from closed forms, for the sweeps' banded solve.

Derived parameters: omega_10 = 1 + detuning, g_D = eta and
g_C = eta omega_10.  Every model drops state-independent constants, so
physical statements are about transition energies E_n - E_0; raw
eigenvalues of different gauges differ by exactly those dropped scalars
(for example spec(H_C) = spec(H_D) + eta^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# hermitian_eig is not called here; it stays importable as rabi.hermitian_eig,
# which the benchmark tracer's tests rebind and restore
from .linalg import ParityBands, check_dim, conjugate, hermitian_eig, kron_sum, unitary_exp
from .qops import (FockFactors, _spin_arrays, fock_factors, quadrature_values,
                   real_quadrature_functions)

# the omitted Maclaurin tail is summed until a term falls below this
# fraction of max(|tail|, 1), far under double precision's 2^-53
TAIL_REL_TOL = 2.0 ** -60


@dataclass(frozen=True)
class RabiParams:
    """Model parameters in units of omega_c; omega_10 = 1 + detuning."""

    eta: float
    cutoff: int = 60
    detuning: float = 0.0

    def __post_init__(self):
        if not self.eta >= 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        if not self.omega_10 > 0:
            raise ValueError(f"omega_10 = 1 + detuning must be positive, got {self.omega_10}")

    @property
    def omega_10(self) -> float:
        return 1.0 + self.detuning

    @property
    def g_d(self) -> float:
        return self.eta

    @property
    def g_c(self) -> float:
        return self.eta * self.omega_10

    @property
    def two_j(self) -> int:
        """Twice the collective spin: one dipole, j = 1/2."""
        return 1

    @property
    def dim(self) -> int:
        return (self.two_j + 1) * (self.cutoff + 1)


# ---------------------------------------------------------------------------
# the spin-j gauge core: each model as one list of (spin, field) terms
# ---------------------------------------------------------------------------

class _RealParts(NamedTuple):
    """The factors of one build at spin two_j / 2 and Fock cutoff: the
    complex spin arrays J_x, J_y, J_z (``qops._spin_arrays``) and their
    identity, each at most (two_j + 1)^2 entries, and ``f``, the real Fock
    arrays at the cutoff (``qops.fock_factors``), all read-only but the
    identity, which is made per build."""

    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    eye_spin: np.ndarray
    f: FockFactors


def _real_parts(two_j: int, cutoff: int) -> _RealParts:
    """The factors at spin two_j / 2 and Fock cutoff, after the dimension
    cap on (two_j + 1) (cutoff + 1)."""
    check_dim((two_j + 1) * (cutoff + 1))
    return _RealParts(*_spin_arrays(two_j), np.eye(two_j + 1, dtype=complex),
                      fock_factors(cutoff))


def _rotation(s: _RealParts, phi: float) -> np.ndarray:
    """The reference conjugation U = exp(i phi J_x (x) X), X = a + a^dag."""
    return unitary_exp(np.kron(s.jx, s.f.X), phi)


def _conjugated(s: _RealParts, omega_c: float, omega_10: float, phi: float) -> np.ndarray:
    """U (omega_10 J_z (x) 1) U^dag + omega_c 1 (x) n, with U = exp(i phi J_x (x) X);
    equal to the rotated splitting at cos(phi X), sin(phi X) up to roundoff."""
    H0 = omega_10 * np.kron(s.jz, s.f.eye)
    return conjugate(_rotation(s, phi), H0) + omega_c * np.kron(s.eye_spin, s.f.n)


def _bare_terms(s: _RealParts, omega_c: float, omega_10: float) -> list:
    """omega_c 1 (x) n + omega_10 J_z (x) 1; the couplings sit on the spin
    side, so the field factors are the shared arrays themselves."""
    return [(omega_c * s.eye_spin, s.f.n), (omega_10 * s.jz, s.f.eye)]


def _rotated_terms(s: _RealParts, omega_c: float, omega_10: float, cos: np.ndarray,
                   sin: np.ndarray) -> list:
    """omega_c 1 (x) n + omega_10 (J_z (x) cos + J_y (x) sin): the bare
    splitting turned about J_x, given cos(phi X) and sin(phi X) (or their
    Maclaurin polynomials)."""
    return [(omega_c * s.eye_spin, s.f.n), (omega_10 * s.jz, cos), (omega_10 * s.jy, sin)]


def _dipole_terms(s: _RealParts, p: RabiParams) -> list:
    """The bare terms plus the dipole coupling 2 g_D J_x (x) i(a^dag - a),
    entered as i J_x (x) (a^dag - a), whose phased spin part is real."""
    return _bare_terms(s, 1.0, p.omega_10) + [(2.0 * p.g_d * 1j * s.jx, s.f.P)]


def _diamagnetic(p: RabiParams, two_j: int) -> float:
    """two_j g_C^2 / omega_10: for each of the two_j dipoles, the coefficient
    that saturates the oscillator-strength sum rule with the single retained
    transition."""
    return two_j * p.g_c ** 2 / p.omega_10


def _check_one_dipole(p: RabiParams) -> None:
    """Raise ValueError unless ``p`` describes one dipole (two_j = 1): the
    Rabi-only models below have no spin-j form, so a ``DickeParams`` with
    more than one dipole is refused rather than built as one."""
    if p.two_j != 1:
        raise ValueError(f"this model is written for one dipole (two_j = 1), got two_j = {p.two_j}")


def _real_cos_sin(cutoff: int, k: float):
    """cos(k X) and sin(k X), real, for X = a + a^dag."""
    return real_quadrature_functions(cutoff, lambda x: (np.cos(k * x), np.sin(k * x)))


# ---------------------------------------------------------------------------
# the models: one term list each; a build_* is the dense writer on its list
# ---------------------------------------------------------------------------

def terms_H_D(p: RabiParams) -> list:
    """Dipole-gauge Rabi Hamiltonian (two-level truncation is exact here):
    the bare terms plus the dipole coupling 2 g_D J_x (x) i(a^dag - a)."""
    _check_one_dipole(p)
    return _dipole_terms(_real_parts(1, p.cutoff), p)


def terms_H_C_standard(p: RabiParams) -> list:
    """Coulomb-gauge model from the naive two-level projection, at spin
    ``p.two_j / 2``: the bare terms, 2 g_C J_y (x) X and the scalar
    diamagnetic term on X^2.

    The X^2 coefficient two_j g_C^2 / omega_10 saturates the
    oscillator-strength sum rule with the single retained transition of
    each dipole (N times the Rabi one for N dipoles).
    """
    s = _real_parts(p.two_j, p.cutoff)
    return _bare_terms(s, 1.0, p.omega_10) + [
        (2.0 * p.g_c * s.jy, s.f.X), (_diamagnetic(p, p.two_j) * s.eye_spin, s.f.X2)]


def terms_H_C_correct(p: RabiParams) -> list:
    """Coulomb-gauge model with the truncation-consistent light-matter
    block, at spin ``p.two_j / 2``: the splitting dressed as
    omega_10 {J_z cos[2 eta (a+a^dag)] + J_y sin[...]}, from the cached
    eigendecomposition of a + a^dag.  It equals the conjugation
    U (omega_10 J_z) U^dag + a^dag a, U = exp[i 2 eta J_x (a + a^dag)]
    (``_conjugated``, the tests' reference) to eigensolver roundoff on the
    truncated space: the rotation identity is exact there and fixes the
    argument at 2 eta for any number of dipoles.
    """
    s = _real_parts(p.two_j, p.cutoff)
    return _rotated_terms(s, 1.0, p.omega_10, *_real_cos_sin(p.cutoff, 2.0 * p.eta))


def build_H_D(p: RabiParams) -> np.ndarray:
    """The dense matrix of ``terms_H_D``."""
    return kron_sum(terms_H_D(p))


def build_H_C_standard(p: RabiParams) -> np.ndarray:
    """The dense matrix of ``terms_H_C_standard``."""
    return kron_sum(terms_H_C_standard(p))


def build_H_C_correct(p: RabiParams) -> np.ndarray:
    """The dense matrix of ``terms_H_C_correct``."""
    return kron_sum(terms_H_C_correct(p))


def _parity_chains(p: RabiParams, bandwidth: int):
    """Per parity class c = 0, 1: the Fock index n along the chain, the
    matter index m = (n + c) mod 2 next to it, and a lower band of the given
    bandwidth holding the uncoupled diagonal n + (omega_10/2) sigma_z.

    The chain |0, m(0)>, |1, m(1)>, ... is the parity block that
    ``linalg.parity_block_sum`` writes, reordered by n; its entries are the
    phased ones, 1j**(m2 - m) H_kl.
    """
    _check_one_dipole(p)
    check_dim(p.dim)
    n = np.arange(p.cutoff + 1, dtype=float)
    for c in (0, 1):
        m = (n + c) % 2
        band = np.zeros((bandwidth + 1, n.size))
        band[0] = n + 0.5 * p.omega_10 * (2 * m - 1)
        yield n, m, band


def bands_H_D(p: RabiParams) -> ParityBands:
    """The parity chains of ``terms_H_D``: tridiagonal, with subdiagonal
    (-1)^m g_D sqrt(n + 1) between levels n and n + 1 (m that of level n)."""
    chains = []
    for n, m, band in _parity_chains(p, 1):
        band[1, :-1] = (1 - 2 * m[:-1]) * (p.g_d * np.sqrt(n[1:]))
        chains.append(band)
    return ParityBands(tuple(chains))


def bands_H_C_standard(p: RabiParams) -> ParityBands:
    """The parity chains of ``terms_H_C_standard`` at one dipole, with the
    sum-rule diamagnetic coefficient D = g_C^2 / omega_10: pentadiagonal,
    with diagonal n + (omega_10/2) sigma_z + D (X^2)_nn, subdiagonal
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


def maclaurin_cos_sin(values: np.ndarray, order: int):
    """Order-n Maclaurin polynomials of cos and sin evaluated on real values.

    Plain double precision, vectorised over ``values``: one row of values,
    or a table whose rows run along its last axis.  The terms x^m/m! are
    built as a running product of x/m.  Where |x| >= order every kept term
    grows, so the kept terms are summed directly and the alternating sum
    keeps about half its last term.  Where |x| < order the result is cos x
    (sin x) minus the omitted tail, whose terms fall monotonically from the
    first omitted one.  Neither way cancels catastrophically: against the
    exact polynomial, on [-100, 100] at orders up to 400, the error is at
    most 1e-14 max(|v|, 1) (measured 4.8e-15).  Orders 0 and 1 are exact.

    A row's tail sums stop together, once every tail term of the row is
    negligible, so a value can take a few more tail terms, each below
    2^-60 of its sum, than it would alone and move by an ulp (at order 200,
    -70.69528433823834 with 198.0 in its row).  Each row of a table is
    therefore the one-row call on it, bit for bit, and the rows of one call
    do not depend on each other.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    values = np.asarray(values, dtype=float)
    if order == 0:
        return np.ones_like(values), np.zeros_like(values)
    if order == 1:
        return np.ones_like(values), values.copy()
    out = [np.empty(values.shape), np.empty(values.shape)]
    flat = [o.reshape(-1) for o in out]
    x_all = values.reshape(-1)
    tail = np.abs(x_all) < order
    # the head sums, only where a value takes them: head[m % 2] collects
    # the signed terms (-1)^(m//2) x^m/m!, cos then sin
    at = np.flatnonzero(~tail)
    if at.size:
        x = x_all[at]
        head = [np.ones_like(x), np.zeros_like(x)]
        term = np.ones_like(x)
        for m in range(1, order + 1):
            term = term * (x / m)
            head[m % 2] += term if m % 4 < 2 else -term
        flat[0][at], flat[1][at] = head
    at = np.flatnonzero(tail)
    x = x_all[at]
    t = np.ones_like(x)
    for m in range(1, order + 1):
        t = t * (x / m)
    row = at // (values.shape[-1] if values.ndim else 1)
    rest = [np.zeros_like(x), np.zeros_like(x)]
    settled = np.zeros(row[-1] + 1 if row.size else 0, dtype=int)
    m = order
    # one term of each parity below its bound ends a row's sums: later
    # terms are smaller still, and an alternating tail is bounded by its
    # first term.  A term that overflowed (|x| beyond ~700) can never get
    # there.  A row that has ended keeps its sums as they are.
    while at.size:
        m += 1
        t = t * (x / m)
        acc = rest[m % 2]
        acc += t if m % 4 < 2 else -t
        small = np.abs(t) < TAIL_REL_TOL * np.maximum(np.abs(acc), 1.0)
        pending = np.bincount(row[~(small | ~np.isfinite(t))], minlength=settled.size)
        settled = np.where(pending == 0, settled + 1, 0)
        done = settled[row] == 2
        if done.any():
            flat[0][at[done]] = np.cos(x[done]) - rest[0][done]
            flat[1][at[done]] = np.sin(x[done]) - rest[1][done]
            keep = ~done
            at, row, x, t = at[keep], row[keep], x[keep], t[keep]
            rest = [r[keep] for r in rest]
    return out[0], out[1]


def terms_H_C_rotated(p: RabiParams, f) -> list:
    """The one-dipole corrected model with cos/sin[2 eta (a+a^dag)]
    replaced by the functions of X = a + a^dag whose values on its
    spectrum are the (cos, sin) pair that ``f`` returns on
    ``qops.quadrature_values(p.cutoff)``, as
    ``qops.real_quadrature_functions`` takes it.

    ``terms_H_C_taylor`` is this at the Maclaurin values; the Taylor study
    passes the rows of its per-order table.
    """
    _check_one_dipole(p)
    s = _real_parts(1, p.cutoff)
    return _rotated_terms(s, 1.0, p.omega_10, *real_quadrature_functions(p.cutoff, f))


def terms_H_C_taylor(p: RabiParams, order: int) -> list:
    """Corrected Coulomb-gauge model with order-n Maclaurin cos/sin.

    At order 2 this reduces to the qubit splitting plus
    g_C sigma_y (a+a^dag) - (g_C^2/omega_10) sigma_z (a+a^dag)^2, i.e. the
    sum-rule-corrected quadratic model; as order grows the spectrum converges
    to ``terms_H_C_correct`` at the same cutoff.
    """
    return terms_H_C_rotated(p, lambda x: maclaurin_cos_sin(2.0 * p.eta * x, order))


def taylor_is_exact(p: RabiParams, order: int) -> bool:
    """True when the order-n Maclaurin cos/sin equal ``np.cos``/``np.sin``
    bit for bit on the spectrum of 2 eta X, X = a + a^dag.

    The spectrum is ``qops.quadrature_values``, the array that
    ``real_quadrature_functions`` evaluates both models' cos/sin on, and the
    product 2.0 * eta * x is formed as ``terms_H_C_taylor`` and
    ``_real_cos_sin`` form it, so when this holds the term lists of
    ``terms_H_C_taylor(p, order)`` and ``terms_H_C_correct(p)`` are equal
    array for array and so are their spectra.
    """
    x = 2.0 * p.eta * quadrature_values(p.cutoff)
    cos, sin = maclaurin_cos_sin(x, order)
    return np.array_equal(cos, np.cos(x)) and np.array_equal(sin, np.sin(x))


def build_H_C_taylor(p: RabiParams, order: int) -> np.ndarray:
    """The dense matrix of ``terms_H_C_taylor``."""
    return kron_sum(terms_H_C_taylor(p, order))


def terms_H_alpha(p: RabiParams, alpha: float) -> list:
    """Gauge family interpolating the dipole (alpha=0) and corrected Coulomb
    (alpha=1) forms; transition energies are alpha-independent.

    Raises ValueError unless 0 <= alpha <= 1.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    _check_one_dipole(p)
    s = _real_parts(1, p.cutoff)
    cos, sin = _real_cos_sin(p.cutoff, 2.0 * alpha * p.eta)
    return _rotated_terms(s, 1.0, p.omega_10, cos, sin) \
        + [((1.0 - alpha) * 2.0 * p.g_d * 1j * s.jx, s.f.P)]


@dataclass(frozen=True)
class GaugeTheoremReport:
    """Deviation of U H_D U^dag from H_C on the truncated space.

    The comparison restores the scalar eta^2 that the dipole-gauge
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

    Raises ValueError unless 0 < interior_fraction <= 1 and tol > 0.
    """
    if not 0.0 < interior_fraction <= 1.0:
        raise ValueError(f"interior_fraction must be in (0, 1], got {interior_fraction}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol:g}")
    s = _real_parts(1, p.cutoff)
    U = _rotation(s, 2.0 * p.eta)
    hd = build_H_D(p) + p.eta ** 2 * np.eye(p.dim, dtype=complex)
    hc = build_H_C_correct(p)
    dev = conjugate(U, hd) - hc
    nf = p.cutoff + 1
    keep = int(np.floor(interior_fraction * nf))
    mask = np.zeros(2 * nf, dtype=bool)
    mask[:keep] = True
    mask[nf:nf + keep] = True
    max_interior = float(np.abs(dev[np.ix_(mask, mask)]).max())
    max_full = float(np.abs(dev).max())
    scale = float(np.abs(hc).max())
    return GaugeTheoremReport(eta=p.eta, cutoff=p.cutoff,
                              interior_fraction=interior_fraction,
                              max_dev_interior=max_interior, max_dev_full=max_full,
                              max_dev_full_rel=max_full / max(scale, 1e-300),
                              tol=tol, passed=max_interior <= tol)
