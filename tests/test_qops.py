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
from gaugeqed import (
    OperatorMatrix,
    fock_ops,
    hermitian_eig,
    kron,
    matrix_function,
    qops,
    quadrature_eig,
    spin_ops,
)


def comm(A, B):
    return A.arr @ B.arr - B.arr @ A.arr


# ---------------------------------------------------------------------------
# fock_ops
# ---------------------------------------------------------------------------

def test_fock_entries():
    a, adag, n = fock_ops(4)
    for k in range(1, 5):
        assert a.arr[k - 1, k] == np.sqrt(k)
    assert np.count_nonzero(a.arr) == 4
    assert np.array_equal(adag.arr, a.arr.conj().T)
    assert np.array_equal(np.diag(n.arr).real, np.arange(5))


def test_fock_smallest():
    a, _, _ = fock_ops(1)
    assert np.array_equal(a.arr, [[0.0, 1.0], [0.0, 0.0]])


def test_quadrature_tridiagonal():
    a, adag, _ = fock_ops(3)
    X = a.arr + adag.arr
    off = np.diag(X, 1)
    assert np.allclose(off, [1.0, np.sqrt(2.0), np.sqrt(3.0)], atol=0)
    assert np.abs(np.diag(X)).max() == 0.0
    assert np.array_equal(X, X.T.conj())


def test_number_operator_spectrum():
    _, _, n = fock_ops(7)
    w = hermitian_eig(n, vectors=False).eigenvalues
    assert np.array_equal(w, np.arange(8.0))


@given(cutoff=st.integers(1, 60))
@settings(max_examples=20)
def test_ladder_commutator_artifact(cutoff):
    # [a, a^dag] = 1 everywhere except the top corner, which carries the
    # whole truncation error: -cutoff instead of +1.  The entries are
    # sqrt(n)*sqrt(n) products, so "exact" means to within one rounding
    # of each square; off the diagonal the cancellation is bitwise.
    a, adag, _ = fock_ops(cutoff)
    c = comm(a, adag)
    assert abs(c[cutoff, cutoff] + cutoff) <= 4 * np.spacing(float(cutoff))
    mask = ~np.eye(cutoff + 1, dtype=bool)
    assert np.abs(c[mask]).max() == 0.0
    d = np.diag(c)[:cutoff]
    assert np.abs(d - 1.0).max() <= 4 * np.spacing(float(cutoff))


def test_ladder_commutator_top_entry():
    # cutoff 1: sqrt(1) is exact, so the artifact is bitwise here
    a, adag, _ = fock_ops(1)
    assert np.array_equal(comm(a, adag), np.diag([1.0, -1.0]))


def real_X(cutoff):
    a, adag, _ = fock_ops(cutoff)
    return (a.arr + adag.arr).real


def test_quadrature_eig_matches_uncached_bitwise():
    for cutoff in (5, 40, 97):
        fresh = hermitian_eig(real_X(cutoff))
        cached = quadrature_eig(cutoff)
        assert quadrature_eig(cutoff) is cached
        assert cached.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
        assert cached.eigenvectors.tobytes() == fresh.eigenvectors.tobytes()


def test_quadrature_eig_arrays_read_only():
    spec = quadrature_eig(12)
    with pytest.raises(ValueError):
        spec.eigenvalues[0] = 0.0
    with pytest.raises(ValueError):
        spec.eigenvectors[0, 0] = 0.0
    assert quadrature_eig.cache_info().maxsize == 8


def test_quadrature_eig_shared_across_threads():
    # more threads than cores hammer a cutoff set larger than the cache, so
    # entries are computed, evicted and recomputed concurrently
    cutoffs = list(range(3, 3 + 2 * quadrature_eig.cache_info().maxsize))
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
    assert quadrature_eig.cache_info().currsize <= quadrature_eig.cache_info().maxsize


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
    quadrature_eig.cache_clear()
    start = threading.Barrier(8)

    def request(_):
        start.wait(timeout=60)
        return quadrature_eig(57)

    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(request, range(8), timeout=60))
    assert calls == [58]
    assert all(spec is got[0] for spec in got)


@pytest.mark.parametrize("cutoff", [1, 8, 41])
def test_quadrature_eig_is_real_and_sign_fixed(cutoff):
    # the real solve has the complex solve's spectrum, and each real
    # eigenvector is the complex one's after the phase rule
    spec = quadrature_eig(cutoff)
    ref = hermitian_eig(OperatorMatrix(real_X(cutoff)))
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
    Xc = OperatorMatrix(real_X(cutoff))
    ref_cos, ref_sin = (matrix_function(Xc, lambda w: f(k * w)).arr for f in (np.cos, np.sin))
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
    with pytest.raises(ValueError):
        fock_ops(0)


# ---------------------------------------------------------------------------
# spin_ops
# ---------------------------------------------------------------------------

@given(two_j=st.integers(1, 20))
@settings(max_examples=20)
def test_spin_commutators(two_j):
    jx, jy, jz = spin_ops(two_j)
    j = two_j / 2.0
    scale = max(j * j, 1.0)
    assert np.abs(comm(jx, jy) - 1j * jz.arr).max() <= 1e-13 * scale
    assert np.abs(comm(jy, jz) - 1j * jx.arr).max() <= 1e-13 * scale
    assert np.abs(comm(jz, jx) - 1j * jy.arr).max() <= 1e-13 * scale


@given(two_j=st.integers(1, 20))
@settings(max_examples=20)
def test_spin_casimir(two_j):
    jx, jy, jz = spin_ops(two_j)
    j = two_j / 2.0
    j2 = jx.arr @ jx.arr + jy.arr @ jy.arr + jz.arr @ jz.arr
    assert np.abs(j2 - j * (j + 1) * np.eye(two_j + 1)).max() <= 1e-13 * max(j * j, 1.0)


def test_spin_ascending_m():
    _, _, jz = spin_ops(2)
    assert np.array_equal(np.diag(jz.arr).real, [-1.0, 0.0, 1.0])
    _, _, jz = spin_ops(3)
    assert np.array_equal(np.diag(jz.arr).real, [-1.5, -0.5, 0.5, 1.5])


def test_spin_half_matches_pauli():
    jx, jy, jz = spin_ops(1)
    sx, sy, sz = pauli()
    assert np.array_equal(2.0 * jx.arr, sx.arr)
    assert np.array_equal(2.0 * jy.arr, sy.arr)
    assert np.array_equal(2.0 * jz.arr, sz.arr)


def test_spin_validation():
    with pytest.raises(ValueError):
        spin_ops(0)


# ---------------------------------------------------------------------------
# matter (x) field slots
# ---------------------------------------------------------------------------

def _slots(A, B):
    """A on the matter slot and B on the field slot of matter (x) field."""
    return (kron(A, OperatorMatrix(np.eye(B.dim))),
            kron(OperatorMatrix(np.eye(A.dim)), B))


def test_embedded_slots_commute():
    A = OperatorMatrix(random_hermitian(3, seed=21), hermitian_hint=True)
    B = OperatorMatrix(random_hermitian(4, seed=22), hermitian_hint=True)
    Am, Bf = _slots(A, B)
    assert np.abs(comm(Am, Bf)).max() <= 1e-14


@given(seed=st.integers(0, 2 ** 31), md=st.integers(2, 6), fd=st.integers(2, 6))
@settings(max_examples=15)
def test_embedded_slots_commute_random(seed, md, fd):
    A = OperatorMatrix(random_hermitian(md, seed), hermitian_hint=True)
    B = OperatorMatrix(random_hermitian(fd, seed + 1), hermitian_hint=True)
    dev = np.abs(comm(*_slots(A, B))).max()
    scale = np.abs(A.arr).max() * np.abs(B.arr).max()
    assert dev <= 1e-14 * max(scale, 1.0)
