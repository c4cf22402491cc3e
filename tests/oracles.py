"""Independent reference implementations used to derive frozen expected values.

Everything in this module is written directly against the model definitions
with raw numpy/scipy/mpmath and deliberately does not import the package under
test.  The derived numbers are frozen as literals in the test modules; running
``python tests/oracles.py`` regenerates them.

Conventions match the package: hbar = 1, energies in units of omega_c,
qubit basis ordered (ground, excited) with sigma_z = diag(-1, +1), spin-j
basis ordered by ascending m, composite spaces ordered matter (x) field.
"""

import numpy as np
import scipy.linalg as sla

SZ = np.diag([-1.0, 1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)


# ---------------------------------------------------------------------------
# generic linear-algebra oracles
# ---------------------------------------------------------------------------

def jacobi_eigvals(H, tol=1e-13, max_sweeps=100):
    """Eigenvalues of a Hermitian matrix by cyclic complex Jacobi rotations.

    Slow but self-contained; used to cross-check the LAPACK-backed solver.
    """
    A = np.array(H, dtype=complex)
    n = A.shape[0]
    scale = max(1.0, np.abs(A).max())
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.abs(A) ** 2) - np.sum(np.abs(np.diag(A)) ** 2))
        if off <= tol * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                r = abs(apq)
                if r <= 1e-300:
                    continue
                phi = np.angle(apq)
                tau = (A[p, p].real - A[q, q].real) / (2.0 * r)
                if tau >= 0:
                    t = 1.0 / (tau + np.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                e = np.exp(1j * phi)
                # columns, then rows (A <- J^dag A J)
                colp = A[:, p].copy()
                colq = A[:, q].copy()
                A[:, p] = c * colp + s * np.conj(e) * colq
                A[:, q] = -s * e * colp + c * colq
                rowp = A[p, :].copy()
                rowq = A[q, :].copy()
                A[p, :] = c * rowp + s * e * rowq
                A[q, :] = -s * np.conj(e) * rowp + c * rowq
    return np.sort(np.diag(A).real)


def expm_taylor_scaled(M, order=20):
    """Matrix exponential by scaling-and-squaring with an order-20 Taylor core."""
    M = np.asarray(M, dtype=complex)
    norm = np.abs(M).sum(axis=1).max()
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30)))) + 2)
    S = M / (2.0 ** squarings)
    E = np.eye(M.shape[0], dtype=complex)
    term = np.eye(M.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ S / k
        E = E + term
    for _ in range(squarings):
        E = E @ E
    return E


# ---------------------------------------------------------------------------
# model constructions (raw matrices)
# ---------------------------------------------------------------------------

def fock(cutoff):
    n = np.arange(cutoff + 1)
    a = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    a[np.arange(cutoff), np.arange(1, cutoff + 1)] = np.sqrt(n[1:])
    return a, a.conj().T, np.diag(n.astype(complex))


def spin(two_j):
    j = two_j / 2.0
    m = -j + np.arange(two_j + 1)
    jp = np.zeros((two_j + 1, two_j + 1), dtype=complex)
    jp[np.arange(1, two_j + 1), np.arange(two_j)] = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jm = jp.conj().T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    jz = np.diag(m.astype(complex))
    return jx, jy, jz


def rabi_dipole(eta, detuning, cutoff, omega_c=1.0):
    a, ad, nph = fock(cutoff)
    w10 = omega_c + detuning
    g_d = eta * omega_c
    I2 = np.eye(2)
    If = np.eye(cutoff + 1)
    return (omega_c * np.kron(I2, nph)
            + 0.5 * w10 * np.kron(SZ, If)
            + 1j * g_d * np.kron(SX, ad - a))


def rabi_coulomb_standard(eta, detuning, cutoff, omega_c=1.0, dia=None):
    a, ad, nph = fock(cutoff)
    w10 = omega_c + detuning
    g_c = eta * w10
    if dia is None:
        dia = g_c ** 2 / w10
    X = a + ad
    I2 = np.eye(2)
    If = np.eye(cutoff + 1)
    return (omega_c * np.kron(I2, nph)
            + 0.5 * w10 * np.kron(SZ, If)
            + g_c * np.kron(SY, X)
            + dia * np.kron(I2, X @ X))


def rabi_coulomb_correct(eta, detuning, cutoff, omega_c=1.0):
    """Corrected Coulomb-gauge Rabi model via Pade-expm conjugation."""
    a, ad, nph = fock(cutoff)
    w10 = omega_c + detuning
    X = a + ad
    U = sla.expm(1j * eta * np.kron(SX, X))
    H0 = 0.5 * w10 * np.kron(SZ, np.eye(cutoff + 1))
    return U @ H0 @ U.conj().T + omega_c * np.kron(np.eye(2), nph)


def rabi_alpha(alpha, eta, detuning, cutoff, omega_c=1.0):
    """alpha-interpolated gauge family, trig parts via expm (cos = (e^iM+e^-iM)/2)."""
    a, ad, nph = fock(cutoff)
    w10 = omega_c + detuning
    g_d = eta * omega_c
    X = a + ad
    M = 2.0 * alpha * eta * X
    Ep = sla.expm(1j * M)
    Em = sla.expm(-1j * M)
    cosM = (Ep + Em) / 2.0
    sinM = (Ep - Em) / 2.0j
    I2 = np.eye(2)
    return (omega_c * np.kron(I2, nph)
            + 1j * (1.0 - alpha) * g_d * np.kron(SX, ad - a)
            + 0.5 * w10 * (np.kron(SZ, cosM) + np.kron(SY, sinM)))


def dicke_standard(n_dipoles, eta, detuning, cutoff, omega_c=1.0, dia=None):
    a, ad, nph = fock(cutoff)
    jx, jy, jz = spin(n_dipoles)
    w10 = omega_c + detuning
    g_c = eta * w10
    j = n_dipoles / 2.0
    if dia is None:
        dia = j * 2.0 * g_c ** 2 / w10
    X = a + ad
    Im = np.eye(n_dipoles + 1)
    If = np.eye(cutoff + 1)
    return (omega_c * np.kron(Im, nph)
            + w10 * np.kron(jz, If)
            + 2.0 * g_c * np.kron(jy, X)
            + dia * np.kron(Im, X @ X))


def dicke_correct(n_dipoles, eta, detuning, cutoff, omega_c=1.0):
    a, ad, nph = fock(cutoff)
    jx, jy, jz = spin(n_dipoles)
    w10 = omega_c + detuning
    X = a + ad
    U = sla.expm(2j * eta * np.kron(jx, X))
    H0 = w10 * np.kron(jz, np.eye(cutoff + 1))
    return U @ H0 @ U.conj().T + omega_c * np.kron(np.eye(n_dipoles + 1), nph)


def dicke_dipole(n_dipoles, eta, detuning, cutoff, omega_c=1.0):
    """omega_c a^dag a + omega_10 J_z + 2 i g_D (a^dag - a) J_x + 4 eta^2 omega_c J_x^2."""
    a, ad, nph = fock(cutoff)
    jx, jy, jz = spin(n_dipoles)
    w10 = omega_c + detuning
    g_d = eta * omega_c
    Im = np.eye(n_dipoles + 1)
    If = np.eye(cutoff + 1)
    return (omega_c * np.kron(Im, nph)
            + w10 * np.kron(jz, If)
            + 2j * g_d * np.kron(jx, ad - a)
            + 4.0 * eta ** 2 * omega_c * np.kron(jx @ jx, If))


def lowest_transitions(H, k):
    w = np.linalg.eigvalsh(H)
    return w[1:k + 1] - w[0]


def converged_transitions(build, k, cutoff0=40, tol=1e-9, cap=2000):
    """Grow the Fock cutoff until the lowest k transitions stop moving."""
    cutoff = cutoff0
    prev = lowest_transitions(build(cutoff), k)
    while cutoff * 2 <= cap:
        cutoff *= 2
        cur = lowest_transitions(build(cutoff), k)
        if np.max(np.abs(cur - prev)) < tol:
            return cur, cutoff
        prev = cur
    raise RuntimeError("no convergence below cutoff cap")


# ---------------------------------------------------------------------------
# the exact Rabi spectrum, free of any Fock truncation (Braak's G-function)
# ---------------------------------------------------------------------------

def braak_G(x, g, delta, sign):
    """Braak's G_sign(x) = sum_n K_n(x) [1 - sign delta / (x - n)] g^n for
    H = a^dag a + g sigma_x (a + a^dag) + delta sigma_z (PRL 107, 100401,
    2011), vectorised over x away from the poles x = 0, 1, 2, ...

    K_0 = 1, K_1 = f_0 and n K_n = f_{n-1} K_{n-1} - K_{n-2}, with
    f_n = 2g + (n - x + delta^2 / (x - n)) / (2g).  The recurrence runs on
    c_n = K_n g^n, so g^n never overflows on its own; the series is summed
    until a term falls below double precision's eps times the sum of |terms|
    (past n = 2 g^2, where the terms peak).  Raises OverflowError when a
    term leaves the double range, which happens from about g = 19 (the sum
    of |terms| is 2e271 at g = 18).
    """
    x = np.asarray(x, dtype=float)
    eps = np.finfo(float).eps
    c_prev, c = np.zeros_like(x), np.ones_like(x)
    total = 1.0 - sign * delta / x
    size = np.abs(total)
    n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            n += 1
            f = 2.0 * g + (n - 1 - x + delta ** 2 / (x - n + 1)) / (2.0 * g)
            c_prev, c = c, (g * f * c - g * g * c_prev) / n
            term = c * (1.0 - sign * delta / (x - n))
            total = total + term
            size = size + np.abs(term)
            if not np.isfinite(size).all():
                raise OverflowError(f"G-function terms leave the double range at g = {g}")
            if n > 2 * g * g and (np.abs(term) <= eps * size).all():
                return total


# points per unit interval between two poles of G: uniform inside, and
# geometric towards both poles, where a zero can sit within 1e-3 of one
_BRAAK_T = np.concatenate([np.geomspace(1e-13, 1e-3, 40), np.linspace(1e-3, 1 - 1e-3, 2001)[1:-1],
                           1.0 - np.geomspace(1e-13, 1e-3, 40)[::-1]])


def braak_rabi_levels(g, delta, count):
    """The lowest ``count`` eigenvalues E = x - g^2 of the quantum Rabi
    model a^dag a + g sigma_x (a + a^dag) + delta sigma_z, from the zeros x
    of G_+ and G_- (one per parity).  Each interval (n, n + 1) between poles,
    from x = -delta - 1 up, is scanned for sign changes on ``_BRAAK_T`` and
    each change is refined by ``brentq``; the regular spectrum only (a
    Juddian level, a zero that sits exactly on a pole, would be missed).
    """
    from scipy.optimize import brentq

    xs = []
    for sign in (1.0, -1.0):
        lo = -delta - 1.0
        n = int(np.floor(lo))
        found = []
        while len(found) < count:
            grid = n + _BRAAK_T
            grid = grid[grid > lo]
            vals = braak_G(grid, g, delta, sign)
            for x1, x2, v1, v2 in zip(grid, grid[1:], vals, vals[1:]):
                if np.sign(v1) != np.sign(v2):
                    found.append(brentq(lambda x: float(braak_G(x, g, delta, sign)), x1, x2,
                                        xtol=1e-15, rtol=1e-15))
            n += 1
        xs += found
    return np.sort(xs)[:count] - g * g


# ---------------------------------------------------------------------------
# Maclaurin-truncated trig (exact scalar evaluation, for the Taylor study)
# ---------------------------------------------------------------------------

def maclaurin_cos_sin_exact(values, order):
    """Order-n Maclaurin polynomials of cos and sin on a vector of reals.

    Uses mpmath when the peak Maclaurin term would overwhelm double precision.
    """
    import mpmath as mp
    values = np.asarray(values, dtype=float)
    vmax = float(np.max(np.abs(values))) if values.size else 0.0
    kc = order // 2              # highest k with 2k <= order
    ks = (order - 1) // 2        # highest k with 2k+1 <= order
    if vmax <= 18.0:
        # coefficients built incrementally; underflow to 0.0 past k ~ 85 is harmless
        ccoef = [1.0]
        for k in range(1, kc + 1):
            ccoef.append(-ccoef[-1] / ((2 * k - 1) * (2 * k)))
        scoef = [1.0]
        for k in range(1, ks + 1):
            scoef.append(-scoef[-1] / ((2 * k) * (2 * k + 1)))
        y = values ** 2
        c = np.zeros_like(values)
        for k in range(kc, -1, -1):
            c = c * y + ccoef[k]
        s = np.zeros_like(values)
        for k in range(ks, -1, -1):
            s = s * y + scoef[k]
        s = s * values if order >= 1 else np.zeros_like(values)
        return c, s
    dps = int(0.4343 * vmax) + 25
    with mp.workdps(dps):
        one = mp.mpf(1)
        ccoef = [one]
        for k in range(1, kc + 1):
            ccoef.append(-ccoef[-1] / ((2 * k - 1) * (2 * k)))
        scoef = [one]
        for k in range(1, ks + 1):
            scoef.append(-scoef[-1] / ((2 * k) * (2 * k + 1)))
        cvals = np.empty_like(values)
        svals = np.empty_like(values)
        for i, v in enumerate(values):
            x = mp.mpf(v)
            y = x * x
            c = mp.mpf(0)
            for k in range(kc, -1, -1):
                c = c * y + ccoef[k]
            s = mp.mpf(0)
            for k in range(ks, -1, -1):
                s = s * y + scoef[k]
            s = s * x if order >= 1 else mp.mpf(0)
            cvals[i] = float(c)
            svals[i] = float(s)
    return cvals, svals


def rabi_coulomb_taylor(eta, detuning, cutoff, order, omega_c=1.0):
    a, ad, nph = fock(cutoff)
    w10 = omega_c + detuning
    X = (a + ad).real
    w, V = np.linalg.eigh(X)
    cvals, svals = maclaurin_cos_sin_exact(2.0 * eta * w, order)
    cosM = (V * cvals) @ V.T
    sinM = (V * svals) @ V.T
    I2 = np.eye(2)
    return (omega_c * np.kron(I2, nph)
            + 0.5 * w10 * (np.kron(SZ, cosM) + np.kron(SY, sinM)))


def taylor_eta_star(order, cutoff=200, detuning=0.0, eta_grid=None, levels=5, tol=0.01):
    """Largest eta before the Taylor model's transition error first exceeds tol."""
    if eta_grid is None:
        eta_grid = np.round(np.arange(0.025, 1.6 + 1e-9, 0.025), 6)
    last_good = 0.0
    for eta in eta_grid:
        texact = lowest_transitions(rabi_coulomb_correct(eta, detuning, cutoff), levels)
        ttay = lowest_transitions(rabi_coulomb_taylor(eta, detuning, cutoff, order), levels)
        err = np.max(np.abs(ttay - texact) / np.maximum(texact, 1.0))
        if err > tol:
            return last_good, eta
        last_good = eta
    return last_good, None


# ---------------------------------------------------------------------------
# 1d matter oracles
# ---------------------------------------------------------------------------

def ho_basis_solver(potential, mass, nbasis, omega_basis, n_keep):
    """Spectral solver in a harmonic-oscillator basis; independent of any grid.

    Returns (energies, x_elems, p_elems, x2_elems) in the eigenbasis, with the
    sign convention that the largest-|component| entry of each basis vector is
    positive.
    """
    x0 = 1.0 / np.sqrt(2.0 * mass * omega_basis)
    n = np.arange(nbasis)
    b = np.zeros((nbasis, nbasis))
    b[np.arange(nbasis - 1), np.arange(1, nbasis)] = np.sqrt(n[1:])
    bd = b.T
    X = x0 * (b + bd)
    P = 1j * mass * omega_basis * x0 * (bd - b)
    T = (P @ P).real / (2.0 * mass)
    H = T + potential(X)
    w, V = np.linalg.eigh(H)
    for i in range(n_keep):
        jmax = np.argmax(np.abs(V[:, i]))
        if V[jmax, i] < 0:
            V[:, i] = -V[:, i]
    Vk = V[:, :n_keep]
    x_el = Vk.T @ X @ Vk
    p_el = Vk.T @ P @ Vk
    x2_el = Vk.T @ (X @ X) @ Vk
    return w[:n_keep], x_el, p_el, x2_el


def double_well_potential(mu, lam):
    def V(x):
        if isinstance(x, np.ndarray) and x.ndim == 2:
            x2 = x @ x
            return -mu * x2 + lam * (x2 @ x2)
        return -mu * x ** 2 + lam * x ** 4
    return V


def full_model_dipole(energies, x_el, x2_el, a0, q, omega_c, cutoff, m_used):
    a, ad, nph = fock(cutoff)
    E = np.diag(energies[:m_used].astype(complex))
    X = x_el[:m_used, :m_used].astype(complex)
    X2 = x2_el[:m_used, :m_used].astype(complex)
    Im = np.eye(m_used)
    If = np.eye(cutoff + 1)
    return (omega_c * np.kron(Im, nph) + np.kron(E, If)
            + q ** 2 * a0 ** 2 * omega_c * np.kron(X2, If)
            + 1j * q * omega_c * a0 * np.kron(X, ad - a))


def full_model_coulomb(energies, p_el, mass, a0, q, omega_c, cutoff, m_used):
    a, ad, nph = fock(cutoff)
    E = np.diag(energies[:m_used].astype(complex))
    P = p_el[:m_used, :m_used].astype(complex)
    Im = np.eye(m_used)
    If = np.eye(cutoff + 1)
    Xf = a + ad
    return (omega_c * np.kron(Im, nph) + np.kron(E, If)
            - (q / mass) * a0 * np.kron(P, Xf)
            + (q ** 2 * a0 ** 2 / (2.0 * mass)) * np.kron(Im, Xf @ Xf))


# ---------------------------------------------------------------------------
# fluxonium phase-grid oracle (2nd-order FD, independent discretisation)
# ---------------------------------------------------------------------------

def fluxonium_phase_grid(e_c, e_l, e_j, half_width=None, n=12001, n_keep=6):
    from scipy.linalg import eigh_tridiagonal
    if half_width is None:
        zpf = (2.0 * e_c / e_l) ** 0.25
        half_width = max(10.0 * zpf, 8.0)
    phi = np.linspace(-half_width, half_width, n)
    d = phi[1] - phi[0]
    V = 0.5 * e_l * phi ** 2 - e_j * np.cos(phi)
    diag = 8.0 * e_c / d ** 2 + V
    off = np.full(n - 1, -4.0 * e_c / d ** 2)
    w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_keep - 1))
    v = v / np.sqrt(d)
    for i in range(n_keep):
        jmax = np.argmax(np.abs(v[:, i]))
        if v[jmax, i] < 0:
            v[:, i] = -v[:, i]
    phi_el = (v.T * phi) @ v * d
    return w, phi_el


def flux_charge_standard(w10, phi10, chi0, e_c, cutoff, omega_c=1.0):
    a, ad, nph = fock(cutoff)
    g_c = w10 * phi10 * chi0
    A = a - ad
    I2 = np.eye(2)
    If = np.eye(cutoff + 1)
    return (0.5 * w10 * np.kron(SZ, If) + omega_c * np.kron(I2, nph)
            + 1j * g_c * np.kron(SY, A)
            - 4.0 * e_c * chi0 ** 2 * np.kron(I2, A @ A))


def flux_charge_correct(w10, phi10, chi0, cutoff, omega_c=1.0):
    a, ad, nph = fock(cutoff)
    g_c = w10 * phi10 * chi0
    R = sla.expm((g_c / w10) * np.kron(SX, a - ad))
    H0 = 0.5 * w10 * np.kron(SZ, np.eye(cutoff + 1))
    return omega_c * np.kron(np.eye(2), nph) + R @ H0 @ R.conj().T


# ---------------------------------------------------------------------------
# golden-value generation
# ---------------------------------------------------------------------------

def _fmt(arr):
    return "[" + ", ".join(f"{v:.12e}" for v in np.atleast_1d(arr)) + "]"


def main():
    print("# frozen golden values (regenerate with: python tests/oracles.py)")

    t_d, c_d = converged_transitions(lambda c: rabi_dipole(1.0, 0.0, c), 6, cutoff0=75)
    print(f"rabi D eta=1.0 delta=0 transitions (cutoff {c_d}): {_fmt(t_d)}")

    t_s, c_s = converged_transitions(lambda c: rabi_coulomb_standard(1.0, 0.0, c), 6, cutoff0=75)
    print(f"rabi C_standard eta=1.0 delta=0 transitions (cutoff {c_s}): {_fmt(t_s)}")
    dev = abs(t_s[0] - t_d[0]) / t_d[0]
    print(f"first-transition relative deviation standard vs dipole: {dev:.6f}")

    t_c, c_c = converged_transitions(lambda c: rabi_coulomb_correct(1.0, 0.0, c), 6, cutoff0=75)
    print(f"rabi C_correct eta=1.0 delta=0 transitions (cutoff {c_c}): {_fmt(t_c)}")
    print(f"max |C_correct - D| transitions: {np.max(np.abs(t_c - t_d)):.3e}")

    t_dk, c_dk = converged_transitions(lambda c: dicke_correct(4, 0.3, 0.0, c), 4, cutoff0=40)
    print(f"dicke N=4 eta=0.3 delta=0 correct transitions (cutoff {c_dk}): {_fmt(t_dk)}")

    for order in (2, 3, 10, 200):
        star, first_bad = taylor_eta_star(order)
        print(f"taylor eta_star(order={order}, cutoff=200): {star}  first_bad={first_bad}")

    # double-well preset: mass 1, V = -mu x^2 + lam x^4
    mu, lam = 1.2, 0.25
    w, x_el, p_el, x2_el = ho_basis_solver(double_well_potential(mu, lam), 1.0, 260, 2.0, 50)
    w2, *_ = ho_basis_solver(double_well_potential(mu, lam), 1.0, 340, 2.0, 50)
    print(f"double-well mu={mu} lam={lam}: basis-convergence max shift "
          f"{np.max(np.abs(w[:10] - w2[:10])):.2e}")
    w10 = w[1] - w[0]
    w21 = w[2] - w[1]
    print(f"double-well omega_10={w10:.12e} omega_21={w21:.12e} ratio={w21 / w10:.3f} "
          f"d_10={abs(x_el[0, 1]):.12e}")
    trk = np.sum(2.0 * 1.0 * (w[1:] - w[0]) * np.abs(x_el[0, 1:]) ** 2)
    print(f"double-well TRK sum (M=50): {trk:.10f}")

    # full-model gauge gap, double-well, moderate a0
    a0 = 0.3
    for m_used in (2, 4, 8, 16, 32):
        hd = full_model_dipole(w, x_el, x2_el, a0, 1.0, 1.0, 48, m_used)
        hc = full_model_coulomb(w, p_el, 1.0, a0, 1.0, 1.0, 48, m_used)
        gap = np.max(np.abs(lowest_transitions(hd, 4) - lowest_transitions(hc, 4)))
        print(f"full-model gap (a0={a0}, cutoff=48, M_used={m_used}): {gap:.6e}")

    # fluxonium anharmonic tuple
    e_c, e_l, e_j, chi0 = 1.0, 0.9, 3.0, 0.2
    wf, phi_el = fluxonium_phase_grid(e_c, e_l, e_j)
    print(f"fluxonium (EC={e_c}, EL={e_l}, EJ={e_j}): omega_10={wf[1] - wf[0]:.12e} "
          f"phi_10={phi_el[0, 1]:.12e}")
    w10f, phi10f = wf[1] - wf[0], phi_el[0, 1]
    ts = lowest_transitions(flux_charge_standard(w10f, phi10f, chi0, e_c, 120), 3)
    tc = lowest_transitions(flux_charge_correct(w10f, phi10f, chi0, 120), 3)
    print(f"fluxonium chi0={chi0}: standard t={_fmt(ts)} correct t={_fmt(tc)}")
    chi_big = 1.0 / phi10f  # eta_flux = g_C/omega_10 = phi10*chi0 = 1
    ts1 = lowest_transitions(flux_charge_standard(w10f, phi10f, chi_big, e_c, 160), 3)
    tc1 = lowest_transitions(flux_charge_correct(w10f, phi10f, chi_big, 160), 3)
    print(f"fluxonium eta_flux=1: standard t1={ts1[0]:.8e} correct t1={tc1[0]:.8e} "
          f"rel dev={abs(ts1[0] - tc1[0]) / tc1[0]:.4f}")

    # gauge-theorem deviation structure (interior vs boundary)
    for cutoff in (60, 80, 100, 140):
        eta = 0.5
        a, ad, nph = fock(cutoff)
        X = a + ad
        U = sla.expm(1j * eta * np.kron(SX, X))
        hd = rabi_dipole(eta, 0.0, cutoff) + eta ** 2 * np.eye(2 * (cutoff + 1))
        hc = rabi_coulomb_correct(eta, 0.0, cutoff)
        dev = U @ hd @ U.conj().T - hc
        nf = cutoff + 1
        keep = int(np.floor(0.8 * nf))
        mask = np.zeros(2 * nf, dtype=bool)
        mask[:keep] = True
        mask[nf:nf + keep] = True
        print(f"gauge-theorem eta=0.5 cutoff={cutoff}: interior(0.8) "
              f"{np.abs(dev[np.ix_(mask, mask)]).max():.3e} full {np.abs(dev).max():.3e}")


if __name__ == "__main__":
    main()
