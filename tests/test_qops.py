"""Ladder and spin operator algebra, including the truncation artifact."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pauli, random_hermitian
from gaugeqed import hermitian_eig, kron_sum, qops, quadrature_eig
from gaugeqed.qops import (FockFactors, _real_ladder, _spin_arrays, fock_factors, fock_ops,
                           spin_ops)


def comm(A, B):
    return A @ B - B @ A


def ladders(cutoff):
    """a and a^dag, real."""
    a = _real_ladder(cutoff)
    return a, a.T


# ---------------------------------------------------------------------------
# Fock arrays
# ---------------------------------------------------------------------------

def test_fock_entries():
    a = _real_ladder(4)
    f = FockFactors(4)
    n, X, P = f.n, f.X, f.P
    for k in range(1, 5):
        assert a[k - 1, k] == np.sqrt(k)
    assert np.count_nonzero(a) == 4
    assert np.array_equal(X, a + a.T) and np.array_equal(P, a.T - a)
    assert np.array_equal(n, np.diag(np.arange(5.0)))


def test_fock_smallest():
    assert np.array_equal(_real_ladder(1), [[0.0, 1.0], [0.0, 0.0]])


def test_quadrature_tridiagonal():
    X = FockFactors(3).X
    off = np.diag(X, 1)
    assert np.allclose(off, [1.0, np.sqrt(2.0), np.sqrt(3.0)], atol=0)
    assert np.abs(np.diag(X)).max() == 0.0
    assert np.array_equal(X, X.T.conj())


def test_number_operator_spectrum():
    n = FockFactors(7).n
    w = hermitian_eig(n, vectors=False).eigenvalues
    assert np.array_equal(w, np.arange(8.0))


@given(cutoff=st.integers(1, 60))
@settings(max_examples=20)
def test_ladder_commutator_artifact(cutoff):
    # [a, a^dag] = 1 everywhere except the top corner, which carries the
    # whole truncation error: -cutoff instead of +1.  The entries are
    # sqrt(n)*sqrt(n) products, so "exact" means to within one rounding
    # of each square; off the diagonal the cancellation is bitwise.
    c = comm(*ladders(cutoff))
    assert abs(c[cutoff, cutoff] + cutoff) <= 4 * np.spacing(float(cutoff))
    mask = ~np.eye(cutoff + 1, dtype=bool)
    assert np.abs(c[mask]).max() == 0.0
    d = np.diag(c)[:cutoff]
    assert np.abs(d - 1.0).max() <= 4 * np.spacing(float(cutoff))


def test_ladder_commutator_top_entry():
    # cutoff 1: sqrt(1) is exact, so the artifact is bitwise here
    assert np.array_equal(comm(*ladders(1)), np.diag([1.0, -1.0]))


def real_X(cutoff):
    """X = a + a^dag from a fresh holder, outside the cache."""
    return FockFactors(cutoff).X


def test_quadrature_eig_matches_uncached_bitwise():
    for cutoff in (5, 40, 97):
        fresh = hermitian_eig(real_X(cutoff))
        cached = quadrature_eig(cutoff)
        assert quadrature_eig(cutoff) is cached and fock_factors(cutoff).eig is cached
        assert cached.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
        assert cached.eigenvectors.tobytes() == fresh.eigenvectors.tobytes()


def test_quadrature_eig_arrays_read_only():
    spec = quadrature_eig(12)
    with pytest.raises(ValueError):
        spec.eigenvalues[0] = 0.0
    with pytest.raises(ValueError):
        spec.eigenvectors[0, 0] = 0.0
    assert fock_factors.cache_info().maxsize == 8


def test_quadrature_eig_shared_across_threads():
    # more threads than cores hammer a cutoff set larger than the cache, so
    # entries are computed, evicted and recomputed concurrently
    cutoffs = list(range(3, 3 + 2 * fock_factors.cache_info().maxsize))
    fresh = {c: hermitian_eig(real_X(c)) for c in cutoffs}
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(quadrature_eig, cutoffs * 8, timeout=60))
    finally:
        sys.setswitchinterval(old_interval)
    for c, spec in zip(cutoffs * 8, got):
        assert spec.eigenvectors.tobytes() == fresh[c].eigenvectors.tobytes()
    assert fock_factors.cache_info().currsize <= fock_factors.cache_info().maxsize


def test_quadrature_eig_computes_a_cutoff_once(monkeypatch):
    # eight threads miss on one cutoff at once; the slow solve keeps the
    # window open, and only one of them may run it
    calls = []
    solve = qops.hermitian_eig

    def counting(M, *args, **kwargs):
        calls.append(M.shape[0])
        time.sleep(0.05)
        return solve(M, *args, **kwargs)

    monkeypatch.setattr(qops, "hermitian_eig", counting)
    fock_factors.cache_clear()
    start = threading.Barrier(8)

    def request(_):
        start.wait(timeout=60)
        return quadrature_eig(57)

    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(request, range(8), timeout=60))
    assert calls == [58]
    assert all(spec is got[0] for spec in got) and fock_factors(57).eig is got[0]


@pytest.mark.parametrize("cutoff", [1, 8, 41])
def test_quadrature_eig_is_real_and_sign_fixed(cutoff):
    # the real solve has the complex solve's spectrum, and each real
    # eigenvector is the complex one's after the phase rule
    spec = quadrature_eig(cutoff)
    ref = hermitian_eig(real_X(cutoff).astype(complex))
    v = spec.eigenvectors
    assert spec.eigenvalues.dtype == np.float64 and v.dtype == np.float64
    assert np.all(v[np.abs(v).argmax(axis=0), np.arange(cutoff + 1)] > 0)
    assert np.abs(spec.eigenvalues - ref.eigenvalues).max() <= 1e-13 * max(cutoff, 1)
    assert np.abs(v - ref.eigenvectors).max() <= 1e-12


@pytest.mark.parametrize("cutoff", [1, 8, 41])
def test_real_quadrature_functions_match_complex(cutoff):
    # cos/sin of k X from the real eigenvectors equal the matrix functions
    # of the complex solve, and X itself comes back exactly tridiagonal up
    # to roundoff
    k = 1.3
    cos, sin, X = qops.real_quadrature_functions(
        cutoff, lambda x: (np.cos(k * x), np.sin(k * x), x))
    ref = hermitian_eig(real_X(cutoff).astype(complex))
    v = ref.eigenvectors
    ref_cos, ref_sin = ((v * f(k * ref.eigenvalues)) @ v.conj().T for f in (np.cos, np.sin))
    for got, want in ((cos, ref_cos), (sin, ref_sin), (X, real_X(cutoff))):
        assert got.dtype == np.float64
        assert np.array_equal(got, got.T)
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


@pytest.mark.parametrize("cutoff", [1, 2, 39, 40, 200])
def test_quadrature_values_are_exact_pairs(cutoff):
    # the cached spectrum is symmetric only to roundoff; the value array
    # takes its positive half and negates it exactly, with an exact zero
    # mode at odd dimension
    x = quadrature_eig(cutoff).eigenvalues
    values = qops.quadrature_values(cutoff)
    assert not values.flags.writeable and values.shape == x.shape
    assert np.array_equal(values, -values[::-1])
    half = (cutoff + 1) // 2
    assert np.array_equal(values[cutoff + 1 - half:], x[cutoff + 1 - half:])
    assert np.abs(values - x).max() <= 1e-13 * max(cutoff, 1)
    if cutoff % 2 == 0:
        assert values[half] == 0.0


@pytest.mark.parametrize("cutoff", [1, 2, 39, 40, 200])
def test_real_quadrature_functions_split_by_fock_parity(cutoff):
    # the three half-size products equal the full spectral product V g V^T
    # for even, odd and parity-less functions at both dimension parities;
    # cos couples only Fock levels of equal parity and sin only levels of
    # opposite parity, exactly
    k = 1.3
    spec = quadrature_eig(cutoff)
    v = spec.eigenvectors
    fs = lambda x: (np.cos(k * x), np.sin(k * x), x, np.exp(0.3 * x))
    got = qops.real_quadrature_functions(cutoff, fs)
    n = np.arange(cutoff + 1)
    odd = (n[:, None] + n[None, :]) % 2 == 1
    for name, g, fw in zip(("cos", "sin", "x", "exp"), got, fs(spec.eigenvalues)):
        want = (v * fw) @ v.T
        assert g.dtype == np.float64 and g.shape == want.shape, name
        assert np.array_equal(g, g.T), name
        dev = float(np.abs(g - want).max())
        assert dev <= 1e-13 * max(np.abs(want).max(), 1.0), (name, dev)
    cos, sin, X, _ = got
    assert np.all(cos[odd] == 0.0) and np.all(sin[~odd] == 0.0)
    assert np.all(X[~odd] == 0.0)
    assert np.abs(X - real_X(cutoff)).max() <= 1e-13 * max(np.abs(real_X(cutoff)).max(), 1.0)


def test_fock_validation():
    for build in (_real_ladder, fock_factors):
        with pytest.raises(ValueError, match="cutoff must be >= 1, got 0"):
            build(0)


# ---------------------------------------------------------------------------
# spin arrays
# ---------------------------------------------------------------------------

@given(two_j=st.integers(1, 20))
@settings(max_examples=20)
def test_spin_commutators(two_j):
    jx, jy, jz = _spin_arrays(two_j)
    j = two_j / 2.0
    scale = max(j * j, 1.0)
    assert np.abs(comm(jx, jy) - 1j * jz).max() <= 1e-13 * scale
    assert np.abs(comm(jy, jz) - 1j * jx).max() <= 1e-13 * scale
    assert np.abs(comm(jz, jx) - 1j * jy).max() <= 1e-13 * scale


@given(two_j=st.integers(1, 20))
@settings(max_examples=20)
def test_spin_casimir(two_j):
    jx, jy, jz = _spin_arrays(two_j)
    j = two_j / 2.0
    j2 = jx @ jx + jy @ jy + jz @ jz
    assert np.abs(j2 - j * (j + 1) * np.eye(two_j + 1)).max() <= 1e-13 * max(j * j, 1.0)


def test_spin_ascending_m():
    _, _, jz = _spin_arrays(2)
    assert np.array_equal(np.diag(jz).real, [-1.0, 0.0, 1.0])
    _, _, jz = _spin_arrays(3)
    assert np.array_equal(np.diag(jz).real, [-1.5, -0.5, 0.5, 1.5])


def test_spin_half_matches_pauli():
    jx, jy, jz = _spin_arrays(1)
    sx, sy, sz = pauli()
    assert np.array_equal(2.0 * jx, sx)
    assert np.array_equal(2.0 * jy, sy)
    assert np.array_equal(2.0 * jz, sz)


def test_spin_validation():
    with pytest.raises(ValueError):
        _spin_arrays(0)


def test_tracer_wrappers_hold_the_arrays():
    # fock_ops and spin_ops stay only for the benchmark tracer's hooks
    for op, arr in zip(fock_ops(3), qops._fock_arrays(3)):
        assert np.array_equal(op.arr, arr)
    assert fock_ops(3).n.hermitian_hint
    for op, arr in zip(spin_ops(2), _spin_arrays(2)):
        assert np.array_equal(op.arr, arr) and op.hermitian_hint


# ---------------------------------------------------------------------------
# matter (x) field slots
# ---------------------------------------------------------------------------

def _slots(A, B):
    """A on the matter slot and B on the field slot of matter (x) field, as
    the dense writer places them."""
    return (kron_sum([(A, np.eye(B.shape[0]))]),
            kron_sum([(np.eye(A.shape[0]), B)]))


def test_embedded_slots_commute():
    A = random_hermitian(3, seed=21)
    B = random_hermitian(4, seed=22)
    Am, Bf = _slots(A, B)
    assert np.abs(comm(Am, Bf)).max() <= 1e-14


@given(seed=st.integers(0, 2 ** 31), md=st.integers(2, 6), fd=st.integers(2, 6))
@settings(max_examples=15)
def test_embedded_slots_commute_random(seed, md, fd):
    A = random_hermitian(md, seed)
    B = random_hermitian(fd, seed + 1)
    dev = np.abs(comm(*_slots(A, B))).max()
    scale = np.abs(A).max() * np.abs(B).max()
    assert dev <= 1e-14 * max(scale, 1.0)
