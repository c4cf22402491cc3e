"""Eigensolver, unitaries, conjugation and the dense writer on plain arrays,
and the tracer-only OperatorMatrix layer: invariants and oracles."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import pauli, random_hermitian
from gaugeqed import (
    DickeParams,
    DimensionMismatchError,
    DimensionOverflowError,
    ConvergenceFailureError,
    LinalgError,
    NonHermitianError,
    NotUnitaryError,
    ParityBands,
    ParityBlocks,
    ParityError,
    RabiParams,
    bands_H_C_standard,
    bands_H_D,
    banded_parity_eigvalsh,
    block_parity_eigvalsh,
    conjugate,
    hermitian_eig,
    kron_sum,
    model_from_table,
    parity_band_sum,
    parity_block_sum,
    rabi,
    solve_particle,
    terms_dicke_dipole,
    terms_full_H_C,
    terms_full_H_D,
    terms_H_alpha,
    terms_H_C_correct,
    terms_H_C_standard,
    terms_H_C_taylor,
    terms_H_D,
    unitary_exp,
)
from gaugeqed.linalg import OperatorMatrix, kron, matrix_function
from gaugeqed.qops import FockFactors, _real_ladder


def X_arr(cutoff):
    """The field quadrature a + a^dag, real."""
    return FockFactors(cutoff).X


# ---------------------------------------------------------------------------
# hermitian_eig
# ---------------------------------------------------------------------------

def test_eig_identity():
    w = hermitian_eig(np.eye(3), vectors=False).eigenvalues
    assert np.allclose(w, [1.0, 1.0, 1.0], atol=1e-15)


def test_eig_pauli_z():
    _, _, sz = pauli()
    w = hermitian_eig(sz, vectors=False).eigenvalues
    assert np.allclose(w, [-1.0, 1.0], atol=1e-15)


def test_eig_against_jacobi_oracle():
    H = random_hermitian(50, seed=7)
    w = hermitian_eig(H, vectors=False).eigenvalues
    w_ref = oracles.jacobi_eigvals(H)
    assert np.abs(w - w_ref).max() <= 1e-9


def _check_spectrum(H):
    spec = hermitian_eig(H)
    w, v = spec.eigenvalues, spec.eigenvectors
    dim = H.shape[0]
    fro = np.linalg.norm(H)
    residual = np.abs(H @ v - v * w).max()
    assert residual <= 1e-10 * max(fro, 1.0)
    gram = v.conj().T @ v
    assert np.abs(gram - np.eye(dim)).max() <= 1e-10
    assert np.all(np.diff(w) >= 0.0)
    # phase convention: the dominant component of each column is real positive
    idx = np.argmax(np.abs(v), axis=0)
    lead = v[idx, np.arange(dim)]
    assert np.abs(lead.imag).max() <= 1e-13 * max(np.abs(lead).min(), 1e-300)
    assert np.all(lead.real > 0)


def test_spectrum_invariants_dim_600():
    _check_spectrum(random_hermitian(600, seed=11))


@given(dim=st.integers(2, 120), seed=st.integers(0, 2 ** 31))
def test_spectrum_invariants_random(dim, seed):
    _check_spectrum(random_hermitian(dim, seed))


def test_eig_deterministic_vectors():
    H = random_hermitian(40, seed=3)
    v1 = hermitian_eig(H).eigenvectors
    v2 = hermitian_eig(H).eigenvectors
    assert np.array_equal(v1, v2)


def test_eig_of_a_real_array_stays_real():
    # a real symmetric array is solved in real arithmetic: the complex
    # solve's spectrum, and the phase rule leaves each eigenvector real with
    # its largest component positive
    A = random_hermitian(30, seed=9).real
    spec = hermitian_eig(A)
    # the symmetry check leaves its input alone
    assert np.array_equal(A, random_hermitian(30, seed=9).real)
    ref = hermitian_eig(A.astype(complex))
    v = spec.eigenvectors
    assert v.dtype == np.float64 and not v.flags.writeable
    assert np.all(v[np.abs(v).argmax(axis=0), np.arange(30)] > 0)
    assert np.abs(spec.eigenvalues - ref.eigenvalues).max() <= 1e-12
    assert np.abs(v - ref.eigenvectors).max() <= 1e-10
    assert np.array_equal(hermitian_eig(A, vectors=False).eigenvalues,
                          np.linalg.eigvalsh(A))


def test_eig_takes_square_float64_or_complex128_arrays():
    """The one input contract: a square float64 or complex128 array of
    dimension >= 1, always checked for Hermiticity."""
    H = random_hermitian(12, seed=4)
    for arr in (H, H.real):
        assert hermitian_eig(arr).eigenvectors.dtype == arr.dtype
        assert np.array_equal(hermitian_eig(arr, vectors=False).eigenvalues,
                              np.linalg.eigvalsh(arr))
    for bad in (H.real.astype(np.float32), H.astype(np.complex64), H[:, :11],
                H[0], np.zeros((0, 0))):
        with pytest.raises(DimensionMismatchError):
            hermitian_eig(bad)
    for skew in (H.copy(), H.real.copy()):
        skew[3, 1] += 1e-6
        with pytest.raises(NonHermitianError, match="matrix is not Hermitian"):
            hermitian_eig(skew)


def test_transitions():
    n = FockFactors(5).n
    spec = hermitian_eig(2.0 * n, vectors=False)
    assert np.allclose(spec.transitions(3), [2.0, 4.0, 6.0], atol=1e-14)
    assert spec.transitions().size == 5


def test_nonhermitian_rejected():
    a = _real_ladder(4)
    for arr in (a, a.astype(complex)):
        with pytest.raises(NonHermitianError):
            hermitian_eig(arr)
    with pytest.raises(NonHermitianError):
        OperatorMatrix(a, hermitian_hint=True)


def test_hermiticity_checked_in_every_row_block():
    # dimension 1500 is checked in five row blocks; a defect in the last one
    # and one straddling two blocks must both be found
    H = random_hermitian(1500, 7)
    one = np.ones((1, 1))
    assert np.array_equal(kron_sum([(one, H)]), H)
    for i, j in ((1499, 1450), (348, 350)):
        bad = H.copy()
        bad[i, j] += 1e-6
        with pytest.raises(NonHermitianError):
            kron_sum([(one, bad)])


def test_nonsquare_rejected():
    with pytest.raises(DimensionMismatchError):
        hermitian_eig(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError):
        OperatorMatrix(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# unitary_exp / conjugate
# ---------------------------------------------------------------------------

def test_unitary_exp_theta_zero():
    X = X_arr(10)
    U = unitary_exp(X, 0.0)
    assert np.abs(U - np.eye(11)).max() <= 1e-13


def test_unitary_exp_pauli_x():
    sx, _, _ = pauli()
    U = unitary_exp(sx, np.pi / 2)
    # exp(i pi sigma_x / 2) = i sigma_x
    assert np.abs(U - 1j * sx).max() <= 1e-14


def test_unitary_exp_is_unitary():
    U = unitary_exp(X_arr(40), 0.7)
    gram = U.conj().T @ U
    assert np.abs(gram - np.eye(41)).max() <= 1e-12


def test_unitary_exp_against_taylor_oracle():
    X = X_arr(40)
    U = unitary_exp(X, 0.3)
    U_ref = oracles.expm_taylor_scaled(1j * 0.3 * X)
    assert np.abs(U - U_ref).max() <= 1e-9


def test_conjugate_by_identity():
    H = random_hermitian(12, seed=2)
    out = conjugate(np.eye(12), H)
    assert np.abs(out - H).max() <= 1e-14
    # the result is symmetrised: Hermitian bit for bit
    assert np.array_equal(out, out.conj().T)


def test_conjugate_spin_flip():
    sx, _, sz = pauli()
    U = unitary_exp(sx, np.pi / 2)
    out = conjugate(U, sz)
    assert np.abs(out + sz).max() <= 1e-14


def test_conjugate_preserves_spectrum():
    H = random_hermitian(30, seed=9)
    U = unitary_exp(random_hermitian(30, seed=10), 0.8)
    w0 = hermitian_eig(H, vectors=False).eigenvalues
    w1 = hermitian_eig(conjugate(U, H), vectors=False).eigenvalues
    assert np.abs(w0 - w1).max() <= 1e-9


def test_conjugate_rejects_nonunitary():
    H = random_hermitian(6, seed=1)
    with pytest.raises(NotUnitaryError):
        conjugate(2.0 * np.eye(6), H)


def test_conjugate_rejects_nonhermitian():
    U = unitary_exp(random_hermitian(6, seed=2), 0.4)
    for H in (_real_ladder(5), _real_ladder(5).astype(complex)):
        with pytest.raises(NonHermitianError, match="matrix is not Hermitian"):
            conjugate(U, H)


@given(dim=st.integers(2, 50), seed=st.integers(0, 2 ** 31),
       theta=st.floats(-2.0, 2.0))
@settings(max_examples=15)
def test_conjugate_preserves_spectrum_random(dim, seed, theta):
    H = random_hermitian(dim, seed)
    U = unitary_exp(random_hermitian(dim, seed + 1), theta)
    w0 = hermitian_eig(H, vectors=False).eigenvalues
    w1 = hermitian_eig(conjugate(U, H), vectors=False).eigenvalues
    assert np.abs(w0 - w1).max() <= 1e-9 * max(np.abs(w0).max(), 1.0)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError, match=r"dimension mismatch: U \(2, 2\), H \(3, 3\)"):
        conjugate(pauli()[0], np.eye(3))
    with pytest.raises(DimensionMismatchError):
        conjugate(np.ones((2, 3)), np.ones((2, 3)))


# ---------------------------------------------------------------------------
# the tracer-only layer: OperatorMatrix, matrix_function and kron
# ---------------------------------------------------------------------------

def op(arr, hermitian=True):
    return OperatorMatrix(arr, hermitian_hint=hermitian)


def test_matrix_function_identity_map():
    H = op(random_hermitian(30, seed=5))
    out = matrix_function(H, lambda w: w)
    assert np.abs(out.arr - H.arr).max() <= 1e-12 * np.abs(H.arr).max()
    assert out.hermitian_hint


def test_matrix_function_cos_of_zero():
    out = matrix_function(op(np.zeros((4, 4))), np.cos)
    assert np.abs(out.arr - np.eye(4)).max() <= 1e-14


def test_matrix_function_sin_diagonal():
    out = matrix_function(op(np.diag([np.pi / 2, -np.pi / 2])), np.sin)
    assert np.abs(out.arr - np.diag([1.0, -1.0])).max() <= 1e-14


def test_cos_sin_pythagorean():
    X = op(X_arr(60), hermitian=False)
    c = matrix_function(X, np.cos)
    s = matrix_function(X, np.sin)
    total = c.arr @ c.arr + s.arr @ s.arr
    assert np.abs(total - np.eye(X.dim)).max() <= 1e-10


@given(dim=st.integers(2, 60), seed=st.integers(0, 2 ** 31))
@settings(max_examples=15)
def test_matrix_function_identity_map_random(dim, seed):
    H = op(random_hermitian(dim, seed))
    out = matrix_function(H, lambda w: w)
    assert np.abs(out.arr - H.arr).max() <= 1e-12 * max(np.abs(H.arr).max(), 1.0)


def test_kron_identities():
    assert np.array_equal(kron(op(np.eye(2)), op(np.eye(3))).arr, np.eye(6))
    g = np.random.default_rng(4)
    A, B = g.standard_normal((3, 3)), g.standard_normal((4, 4))
    C, D = g.standard_normal((3, 3)), g.standard_normal((4, 4))
    wrap = lambda m: OperatorMatrix(m.astype(complex))
    lhs = kron(wrap(A), wrap(B)).arr @ kron(wrap(C), wrap(D)).arr
    rhs = kron(wrap(A @ C), wrap(B @ D)).arr
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1.0)
    tr = np.trace(kron(wrap(A), wrap(B)).arr)
    assert abs(tr - np.trace(A) * np.trace(B)) <= 1e-12 * max(abs(tr), 1.0)


def test_kron_dimension_cap():
    with pytest.raises(DimensionOverflowError):
        kron(op(np.eye(70)), op(np.eye(70)))
    # the cap itself is admitted
    assert kron(op(np.eye(64)), op(np.eye(64))).dim == 4096


def test_operator_algebra_hints():
    sx, sy, _ = pauli()
    assert op(sx @ sx).hermitian_hint
    with pytest.raises(NonHermitianError):
        op(sx @ sy)


def test_operator_array_frozen():
    sx = op(pauli()[0])
    with pytest.raises(ValueError):
        sx.arr[0, 0] = 5.0


# ---------------------------------------------------------------------------
# kron_sum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eta", [0.0, 0.7])
def test_kron_sum_is_the_sum_of_krons(eta):
    """kron_sum returns a read-only complex array equal, entry for entry, to
    np.kron summed in the order of the terms."""
    cases = [terms_H_D(RabiParams(eta=eta, cutoff=7, detuning=0.3)),
             terms_H_C_correct(DickeParams(eta=eta, cutoff=5, n_dipoles=3))]
    for terms in cases:
        H = kron_sum(terms)
        ref = np.kron(*terms[0]).astype(complex)
        for S, F in terms[1:]:
            ref = ref + np.kron(S, F)
        assert H.dtype == np.complex128 and not H.flags.writeable
        assert np.array_equal(H, ref)
    s = rabi._real_parts(1, 4)
    with pytest.raises(NonHermitianError, match="the term sum is not Hermitian"):
        kron_sum([(s.jz, s.f.n), (s.jx, np.triu(s.f.X))])


# ---------------------------------------------------------------------------
# the two writers of a term list: kron_sum and parity_block_sum
# ---------------------------------------------------------------------------

def parity_models(eta, cutoff):
    """The term list of every Rabi and Dicke model, by name."""
    p = RabiParams(eta=eta, cutoff=cutoff, detuning=0.3)
    models = {
        "D": terms_H_D(p),
        "Cstd": terms_H_C_standard(p),
        "Ccorr": terms_H_C_correct(p),
    }
    for order in (2, 3, 200):
        models[f"taylor{order}"] = terms_H_C_taylor(p, order)
    for alpha in (0.0, 0.5, 1.0):
        models[f"alpha{alpha:g}"] = terms_H_alpha(p, alpha)
    for n in (1, 2, 3, 4):
        q = DickeParams(eta=eta, cutoff=cutoff, detuning=0.3, n_dipoles=n)
        models[f"dicke{n}/std"] = terms_H_C_standard(q)
        models[f"dicke{n}/corr"] = terms_H_C_correct(q)
        models[f"dicke{n}/dipole"] = terms_dicke_dipole(q)
    return models


@pytest.mark.parametrize("cutoff", [15, 16])
@pytest.mark.parametrize("eta", [0.0, 0.5, 1.5, 3.0])
def test_parity_eigvalsh_matches_dense(eta, cutoff):
    """Every model's parity solve, the block writer's two real blocks solved
    by block_parity_eigvalsh, is the dense writer's matrix solved whole."""
    for name, terms in parity_models(eta, cutoff).items():
        H = kron_sum(terms)
        w = block_parity_eigvalsh(parity_block_sum(terms), H.shape[0])
        w_ref = hermitian_eig(H, vectors=False).eigenvalues
        assert w.shape == w_ref.shape, name
        assert not w.flags.writeable
        dev = np.abs(w - w_ref).max()
        assert dev <= 1e-12 * max(np.abs(H).max(), 1.0), (name, dev)


def test_parity_error_on_broken_parity():
    # sigma_x (x) 1 flips the qubit and leaves the photon number alone
    p = RabiParams(eta=0.5, cutoff=6)
    s = rabi._real_parts(1, p.cutoff)
    for write in (parity_block_sum, parity_band_sum):
        with pytest.raises(ParityError, match="term 3 leaves the parity blocks"):
            write(terms_H_D(p) + [(2.0 * s.jx, s.f.eye)])
    assert issubclass(ParityError, LinalgError)


def test_parity_error_on_complex_phased_block():
    # sigma_y (x) i(a^dag - a) keeps parity, but no diagonal phase of the
    # matter index makes it real next to the model's sigma_y (x) (a + a^dag)
    p = RabiParams(eta=0.5, cutoff=6)
    s = rabi._real_parts(1, p.cutoff)
    for write in (parity_block_sum, parity_band_sum):
        with pytest.raises(ParityError, match="term 4: .* not real after the 1j\\*\\*m phase"):
            write(terms_H_C_standard(p) + [(2j * s.jy, s.f.P)])


def test_parity_eigvalsh_checks_its_input():
    """The writers reject terms whose shapes disagree; a non-Hermitian sum
    fails the dense writer's check, the band writer's and, as blocks, the
    solver's symmetry check."""
    p = RabiParams(eta=0.5, cutoff=6)
    s = rabi._real_parts(1, p.cutoff)
    terms = terms_H_D(p)
    for bad in (terms + [(s.jx, np.eye(5))], terms + [(np.eye(3), s.f.X)]):
        for write in (kron_sum, parity_block_sum, parity_band_sum):
            with pytest.raises(DimensionMismatchError):
                write(bad)
    skew = terms + [(s.eye_spin, np.triu(s.f.X2))]
    for write in (kron_sum, parity_band_sum):
        with pytest.raises(NonHermitianError):
            write(skew)
    with pytest.raises(NonHermitianError):
        block_parity_eigvalsh(parity_block_sum(skew), 3)


@pytest.mark.parametrize("kind", ["off-parity block", "phased parity block"])
def test_parity_limit_is_matrix_scale(kind):
    """Each check's limit is HERMITICITY_RTOL times its term's scale: a term
    whose legal part has scale 200 may put 1e-10 (not 1e-12) outside the
    blocks, or into the imaginary part of its phased matter entries."""
    s = rabi._real_parts(1, 6)
    limit = 1e-12 * 200.0
    for factor, fails in ((0.5, False), (2.0, True)):
        d = factor * limit
        if kind == "off-parity block":
            # max|S| max|F| = 0.5 * 400 legal, 0.5 * 2d dropped
            term = (s.jz, 400.0 * s.f.eye + 2.0 * d * s.f.X / np.abs(s.f.X).max())
            match = f"term 2 leaves the parity blocks: .* exceeds {limit:.3e}$"
        else:
            term = (400.0 * s.jz + 1j * d * s.eye_spin, s.f.eye)
            match = f"term 2: .* phase: max\\|Im\\| = .* exceeds {limit:.3e}$"
        terms = rabi._bare_terms(s, 1.0, 1.0) + [term]
        if fails:
            with pytest.raises(ParityError, match=match):
                parity_block_sum(terms)
        else:
            parity_block_sum(terms)


def test_banded_parity_eigvalsh_errors(monkeypatch):
    even, odd = (chain.copy() for chain in bands_H_D(RabiParams(eta=0.5, cutoff=6)).chains)
    with pytest.raises(ValueError):
        banded_parity_eigvalsh(ParityBands((even, odd)), 0)
    with pytest.raises(DimensionMismatchError):
        ParityBands((even[0].copy(), odd))
    for bad in (np.nan, np.inf):
        broken = odd.copy()
        broken[1, 2] = bad
        with pytest.raises(LinalgError, match="non-finite"):
            banded_parity_eigvalsh(ParityBands((even, broken)), 3)

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(scipy.linalg, "eig_banded", failing)
    with pytest.raises(ConvergenceFailureError):
        banded_parity_eigvalsh(ParityBands((even, odd)), 3)


def test_block_parity_eigvalsh_checks_each_block(monkeypatch):
    blocks = parity_block_sum(terms_H_C_correct(RabiParams(eta=0.5, cutoff=6))).blocks
    even, odd = (b.copy() for b in blocks)
    w = block_parity_eigvalsh(ParityBlocks((even.copy(), odd.copy())), 14)
    assert not w.flags.writeable and np.all(np.diff(w) >= 0) and w.size == 14
    with pytest.raises(ValueError, match="count must be >= 1, got 0"):
        block_parity_eigvalsh(ParityBlocks((even.copy(), odd.copy())), 0)
    with pytest.raises(DimensionMismatchError):
        ParityBlocks((even[:, :-1].copy(), odd))
    with pytest.raises(DimensionMismatchError):
        ParityBlocks((even.astype(complex), odd))
    for bad in (np.nan, np.inf):
        broken = odd.copy()
        broken[2, 1] = bad
        for count in (1, 14):
            with pytest.raises(LinalgError, match="parity block 1 has a non-finite entry"):
                block_parity_eigvalsh(ParityBlocks((even.copy(), broken)), count)
    # the symmetry limit is HERMITICITY_RTOL times max(max|B|, 1)
    scale = max(float(np.abs(odd).max()), 1.0)
    for shift, fails in ((0.5e-12 * scale, False), (2e-12 * scale, True)):
        skew = odd.copy()
        skew[2, 1] += shift
        blocks = ParityBlocks((even.copy(), skew))
        for count in (1, 14):
            if fails:
                with pytest.raises(NonHermitianError, match="parity block 1 is not symmetric"):
                    block_parity_eigvalsh(blocks, count)
            else:
                block_parity_eigvalsh(blocks, count)

    dsyevr = scipy.linalg.lapack.dsyevr

    def failing(*args, **kwargs):
        w, z, m, isuppz, _ = dsyevr(*args, **kwargs)
        return w, z, m, isuppz, 1

    monkeypatch.setattr(scipy.linalg.lapack, "dsyevr", failing)
    with pytest.raises(ConvergenceFailureError, match="info 1"):
        block_parity_eigvalsh(ParityBlocks((even.copy(), odd.copy())), 3)


def lowest_block_cases():
    """The Ccorr model at eta 3, cutoff 160, whose t1 is a 1e-8 splitting of
    two levels in different blocks, and the Dicke models at N = 4."""
    yield "Ccorr", parity_block_sum(terms_H_C_correct(RabiParams(eta=3.0, cutoff=160)))
    q = DickeParams(eta=0.6, cutoff=80, detuning=0.3, n_dipoles=4)
    yield "dicke4/std", parity_block_sum(terms_H_C_standard(q))
    yield "dicke4/corr", parity_block_sum(terms_H_C_correct(q))
    yield "dicke4/dipole", parity_block_sum(terms_dicke_dipole(q))


@pytest.mark.parametrize("count", [1, 2, 6, 40])
def test_block_parity_eigvalsh_lowest_count(count):
    """The lowest ``count`` eigenvalues are those of the full solve of every
    block, sorted together, to 1e-12 of the block scale."""
    for name, blocks in lowest_block_cases():
        full = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks.blocks]))
        scale = max(float(np.abs(b).max()) for b in blocks.blocks)
        w = block_parity_eigvalsh(blocks, count)
        assert w.shape == (count,) and not w.flags.writeable, name
        dev = float(np.abs(w - full[:count]).max())
        assert dev <= 1e-12 * max(scale, 1.0), (name, count, dev)


def test_block_parity_eigvalsh_count_past_the_rows_returns_all():
    blocks = parity_block_sum(terms_H_C_correct(RabiParams(eta=1.5, cutoff=9)))
    full = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks.blocks]))
    for count in (10, 11, 20, 21, 1000):
        w = block_parity_eigvalsh(blocks, count)
        assert w.size == min(count, 20)
        assert np.abs(w - full[:count]).max() <= 1e-12 * max(np.abs(full).max(), 1.0)


# ---------------------------------------------------------------------------
# the band writer: parity_band_sum
# ---------------------------------------------------------------------------

def fock_major(block, matter, field, c):
    """Parity block c of parity_block_sum reordered with the Fock index n
    slowest: the block lists (m, n) with m slowest."""
    pairs = [(n, m) for m in range(matter) for n in range((m + c) % 2, field, 2)]
    order = sorted(range(len(pairs)), key=pairs.__getitem__)
    return block[np.ix_(order, order)]


def band_deviation(chain, block):
    """max|chain - band of block| over the chain's stored diagonals, after
    checking that nothing of block lies outside them."""
    width = chain.shape[0] - 1
    assert chain.shape[1] == block.shape[0]
    assert not np.tril(block, -width - 1).any()
    dev = 0.0
    for r in range(width + 1):
        d = np.diagonal(block, -r)
        assert not chain[r, d.size:].any()
        dev = max(dev, float(np.abs(chain[r, :d.size] - d).max(initial=0.0)))
    return dev


@pytest.mark.parametrize("m_used", [2, 7, 32])
def test_band_sum_is_the_fock_major_blocks(double_well, m_used):
    """Band entries are the block writer's, bit for bit, reordered by Fock
    index; at m_used = 32 the widths are 31 (D) and 32 (C)."""
    model, basis = double_well
    for terms, width in ((terms_full_H_D, m_used - 1), (terms_full_H_C, m_used)):
        written = terms(model, basis, 48, 0.3, m_used)
        bands = parity_band_sum(written)
        assert bands.width == width
        for c, (chain, block) in enumerate(zip(bands.chains,
                                                parity_block_sum(written).blocks)):
            assert not chain.flags.writeable
            assert band_deviation(chain, fock_major(block, m_used, 49, c)) == 0.0


@pytest.mark.parametrize("cutoff", [1, 2, 15, 16, 320])
@pytest.mark.parametrize("eta", [0.0, 0.5, 1.5, 3.0])
def test_band_sum_matches_rabi_closed_forms(eta, cutoff):
    """The writer on the Rabi term lists gives the closed-form chains: D bit
    for bit, Cstd to roundoff (the truncated X @ X against 2n + 1).  At
    eta = 0 the coupling terms are zero and the written band is narrower;
    the closed form is zero past it."""
    p = RabiParams(eta=eta, cutoff=cutoff, detuning=0.3)
    for terms, closed in ((terms_H_D, bands_H_D), (terms_H_C_standard, bands_H_C_standard)):
        bands, ref = parity_band_sum(terms(p)), closed(p)
        # a chain of cutoff + 1 levels has at most cutoff subdiagonals
        assert bands.width == (min(ref.width, cutoff) if eta else 0)
        for chain, ref_chain in zip(bands.chains, ref.chains):
            assert not chain.flags.writeable
            assert not ref_chain[chain.shape[0]:].any()
            ref_chain = ref_chain[:chain.shape[0]]
            if closed is bands_H_D:
                assert np.array_equal(chain, ref_chain)
            else:
                bound = 1e-12 * max(np.abs(chain).max(), 1.0)
                assert np.abs(chain - ref_chain).max() <= bound


def test_band_sum_rejects_a_tilted_well(tmp_path):
    # a basis without mirror parity has x^2 elements between levels of
    # opposite parity, which no parity chain has room for
    x = np.linspace(-10.0, 10.0, 2001)
    table = tmp_path / "tilted.dat"
    np.savetxt(table, np.column_stack([x, 0.5 * x ** 2 + 0.05 * x]))
    model = model_from_table(table, eigen_count=6)
    basis = solve_particle(model)
    with pytest.raises(ParityError, match="term 2 leaves the parity blocks"):
        parity_band_sum(terms_full_H_D(model, basis, 8, 0.3, 6))


def test_band_sum_symmetry_limit_is_band_scale():
    """A band keeps one triangle, so the writer compares each entry with its
    mirror image."""
    p = RabiParams(eta=0.5, cutoff=6)
    s = rabi._real_parts(1, p.cutoff)
    terms = terms_H_D(p)
    # the symmetry limit is HERMITICITY_RTOL times max(max|B|, 1); the skew
    # entry couples Fock levels 0 and 2 in both chains
    scale = max(float(np.abs(chain).max()) for chain in parity_band_sum(terms).chains)
    upper = np.zeros_like(s.f.X)
    upper[0, 2] = 1.0
    for shift, fails in ((0.5e-12 * scale, False), (2e-12 * scale, True)):
        skew = terms + [(s.eye_spin, shift * upper)]
        if fails:
            with pytest.raises(NonHermitianError, match="parity chain . is not symmetric"):
                parity_band_sum(skew)
        else:
            parity_band_sum(skew)
