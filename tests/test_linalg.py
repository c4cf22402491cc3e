"""Eigensolver, matrix functions, unitaries, kron: invariants and oracles."""

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
    OperatorMatrix,
    ParityBands,
    ParityBlocks,
    ParityError,
    RabiParams,
    bands_H_D,
    banded_parity_eigvalsh,
    block_parity_eigvalsh,
    blocks_H_C_correct,
    conjugate,
    fock_ops,
    hermitian_eig,
    kron,
    matrix_function,
    unitary_exp,
)
from gaugeqed import dicke, rabi
from gaugeqed.linalg import kron_sum, parity_block_sum


def X_op(cutoff):
    a, adag, _ = fock_ops(cutoff)
    return OperatorMatrix(a.arr + adag.arr)


def eye(dim, scale=1.0):
    return OperatorMatrix(scale * np.eye(dim), hermitian_hint=True)


# ---------------------------------------------------------------------------
# hermitian_eig
# ---------------------------------------------------------------------------

def test_eig_identity():
    w = hermitian_eig(eye(3), vectors=False).eigenvalues
    assert np.allclose(w, [1.0, 1.0, 1.0], atol=1e-15)


def test_eig_pauli_z():
    _, _, sz = pauli()
    w = hermitian_eig(sz, vectors=False).eigenvalues
    assert np.allclose(w, [-1.0, 1.0], atol=1e-15)


def test_eig_against_jacobi_oracle():
    H = random_hermitian(50, seed=7)
    w = hermitian_eig(OperatorMatrix(H, hermitian_hint=True), vectors=False).eigenvalues
    w_ref = oracles.jacobi_eigvals(H)
    assert np.abs(w - w_ref).max() <= 1e-9


def _check_spectrum(H):
    spec = hermitian_eig(H)
    w, v = spec.eigenvalues, spec.eigenvectors
    fro = np.linalg.norm(H.arr)
    residual = np.abs(H.arr @ v - v * w).max()
    assert residual <= 1e-10 * max(fro, 1.0)
    gram = v.conj().T @ v
    assert np.abs(gram - np.eye(H.dim)).max() <= 1e-10
    assert np.all(np.diff(w) >= 0.0)
    # phase convention: the dominant component of each column is real positive
    idx = np.argmax(np.abs(v), axis=0)
    lead = v[idx, np.arange(H.dim)]
    assert np.abs(lead.imag).max() <= 1e-13 * max(np.abs(lead).min(), 1e-300)
    assert np.all(lead.real > 0)


def test_spectrum_invariants_dim_600():
    _check_spectrum(OperatorMatrix(random_hermitian(600, seed=11), hermitian_hint=True))


@given(dim=st.integers(2, 120), seed=st.integers(0, 2 ** 31))
def test_spectrum_invariants_random(dim, seed):
    _check_spectrum(OperatorMatrix(random_hermitian(dim, seed), hermitian_hint=True))


def test_eig_deterministic_vectors():
    H = OperatorMatrix(random_hermitian(40, seed=3), hermitian_hint=True)
    v1 = hermitian_eig(H).eigenvectors
    v2 = hermitian_eig(H).eigenvectors
    assert np.array_equal(v1, v2)


def test_transitions():
    _, _, n = fock_ops(5)
    spec = hermitian_eig(OperatorMatrix(2.0 * n.arr, hermitian_hint=True), vectors=False)
    assert np.allclose(spec.transitions(3), [2.0, 4.0, 6.0], atol=1e-14)
    assert spec.transitions().size == 5


def test_nonhermitian_rejected():
    a, _, _ = fock_ops(4)
    with pytest.raises(NonHermitianError):
        hermitian_eig(a)
    with pytest.raises(NonHermitianError):
        OperatorMatrix(a.arr, hermitian_hint=True)


def test_hermiticity_checked_in_every_row_block():
    # dimension 1500 is checked in five row blocks; a defect in the last one
    # and one straddling two blocks must both be found
    H = random_hermitian(1500, 7)
    assert OperatorMatrix(H, hermitian_hint=True).dim == 1500
    for i, j in ((1499, 1450), (348, 350)):
        bad = H.copy()
        bad[i, j] += 1e-6
        with pytest.raises(NonHermitianError):
            OperatorMatrix(bad, hermitian_hint=True)


def test_nonsquare_rejected():
    with pytest.raises(DimensionMismatchError):
        OperatorMatrix(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# matrix_function
# ---------------------------------------------------------------------------

def test_matrix_function_identity_map():
    H = OperatorMatrix(random_hermitian(30, seed=5), hermitian_hint=True)
    out = matrix_function(H, lambda w: w)
    assert np.abs(out.arr - H.arr).max() <= 1e-12 * np.abs(H.arr).max()
    assert out.hermitian_hint


def test_matrix_function_cos_of_zero():
    Z = OperatorMatrix(np.zeros((4, 4)), hermitian_hint=True)
    out = matrix_function(Z, np.cos)
    assert np.abs(out.arr - np.eye(4)).max() <= 1e-14


def test_matrix_function_sin_diagonal():
    H = OperatorMatrix(np.diag([np.pi / 2, -np.pi / 2]), hermitian_hint=True)
    out = matrix_function(H, np.sin)
    assert np.abs(out.arr - np.diag([1.0, -1.0])).max() <= 1e-14


def test_cos_sin_pythagorean():
    X = X_op(60)
    c = matrix_function(X, np.cos)
    s = matrix_function(X, np.sin)
    total = c.arr @ c.arr + s.arr @ s.arr
    assert np.abs(total - np.eye(X.dim)).max() <= 1e-10


@given(dim=st.integers(2, 60), seed=st.integers(0, 2 ** 31))
@settings(max_examples=15)
def test_matrix_function_identity_map_random(dim, seed):
    H = OperatorMatrix(random_hermitian(dim, seed), hermitian_hint=True)
    out = matrix_function(H, lambda w: w)
    assert np.abs(out.arr - H.arr).max() <= 1e-12 * max(np.abs(H.arr).max(), 1.0)


# ---------------------------------------------------------------------------
# unitary_exp / conjugate
# ---------------------------------------------------------------------------

def test_unitary_exp_theta_zero():
    X = X_op(10)
    U = unitary_exp(X, 0.0)
    assert np.abs(U.arr - np.eye(X.dim)).max() <= 1e-13


def test_unitary_exp_pauli_x():
    sx, _, _ = pauli()
    U = unitary_exp(sx, np.pi / 2)
    # exp(i pi sigma_x / 2) = i sigma_x
    assert np.abs(U.arr - 1j * sx.arr).max() <= 1e-14


def test_unitary_exp_is_unitary():
    X = X_op(40)
    U = unitary_exp(X, 0.7)
    gram = U.arr.conj().T @ U.arr
    assert np.abs(gram - np.eye(X.dim)).max() <= 1e-12


def test_unitary_exp_against_taylor_oracle():
    X = X_op(40)
    U = unitary_exp(X, 0.3)
    U_ref = oracles.expm_taylor_scaled(1j * 0.3 * X.arr)
    assert np.abs(U.arr - U_ref).max() <= 1e-9


def test_conjugate_by_identity():
    H = OperatorMatrix(random_hermitian(12, seed=2), hermitian_hint=True)
    out = conjugate(eye(12), H)
    assert np.abs(out.arr - H.arr).max() <= 1e-14
    assert out.hermitian_hint


def test_conjugate_spin_flip():
    sx, _, sz = pauli()
    U = unitary_exp(sx, np.pi / 2)
    out = conjugate(U, sz)
    assert np.abs(out.arr + sz.arr).max() <= 1e-14


def test_conjugate_preserves_spectrum():
    H = OperatorMatrix(random_hermitian(30, seed=9), hermitian_hint=True)
    U = unitary_exp(OperatorMatrix(random_hermitian(30, seed=10), hermitian_hint=True), 0.8)
    w0 = hermitian_eig(H, vectors=False).eigenvalues
    w1 = hermitian_eig(conjugate(U, H), vectors=False).eigenvalues
    assert np.abs(w0 - w1).max() <= 1e-9


def test_conjugate_rejects_nonunitary():
    H = OperatorMatrix(random_hermitian(6, seed=1), hermitian_hint=True)
    with pytest.raises(NotUnitaryError):
        conjugate(eye(6, 2.0), H)


@given(dim=st.integers(2, 50), seed=st.integers(0, 2 ** 31),
       theta=st.floats(-2.0, 2.0))
@settings(max_examples=15)
def test_conjugate_preserves_spectrum_random(dim, seed, theta):
    H = OperatorMatrix(random_hermitian(dim, seed), hermitian_hint=True)
    A = OperatorMatrix(random_hermitian(dim, seed + 1), hermitian_hint=True)
    U = unitary_exp(A, theta)
    w0 = hermitian_eig(H, vectors=False).eigenvalues
    w1 = hermitian_eig(conjugate(U, H), vectors=False).eigenvalues
    assert np.abs(w0 - w1).max() <= 1e-9 * max(np.abs(w0).max(), 1.0)


# ---------------------------------------------------------------------------
# kron and OperatorMatrix construction
# ---------------------------------------------------------------------------

def test_kron_identities():
    assert np.array_equal(kron(eye(2), eye(3)).arr, np.eye(6))
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
        kron(eye(70), eye(70))
    # a raised cap admits the same product
    assert kron(eye(70), eye(70), dim_cap=4900).dim == 4900


def test_operator_algebra_hints():
    sx, sy, _ = pauli()
    assert OperatorMatrix(sx.arr @ sx.arr, hermitian_hint=True).hermitian_hint
    with pytest.raises(NonHermitianError):
        OperatorMatrix(sx.arr @ sy.arr, hermitian_hint=True)


def test_operator_array_frozen():
    sx, _, _ = pauli()
    with pytest.raises(ValueError):
        sx.arr[0, 0] = 5.0


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError, match="dimension mismatch: 2 vs 3"):
        conjugate(pauli()[0], eye(3))


# ---------------------------------------------------------------------------
# the two writers of a term list: kron_sum and parity_block_sum
# ---------------------------------------------------------------------------

def parity_models(eta, cutoff):
    """The term list of every Rabi and Dicke model, by name."""
    p = RabiParams(eta=eta, cutoff=cutoff, detuning=0.3)
    s = rabi._real_parts(1, cutoff)
    models = {
        "D": rabi._dipole_terms(s, p),
        "Cstd": rabi._standard_terms(s, p),
        "Ccorr": rabi._correct_terms(s, p),
    }
    for order in (2, 3, 200):
        models[f"taylor{order}"] = rabi._taylor_terms(p, order)
    for alpha in (0.0, 0.5, 1.0):
        models[f"alpha{alpha:g}"] = rabi._alpha_terms(p, alpha)
    for n in (1, 2, 3, 4):
        q = DickeParams(eta=eta, cutoff=cutoff, detuning=0.3, n_dipoles=n)
        sn = rabi._real_parts(n, cutoff)
        models[f"dicke{n}/std"] = rabi._standard_terms(sn, q)
        models[f"dicke{n}/corr"] = rabi._correct_terms(sn, q)
        models[f"dicke{n}/dipole"] = dicke._dicke_dipole_terms(q)
    return models


@pytest.mark.parametrize("cutoff", [15, 16])
@pytest.mark.parametrize("eta", [0.0, 0.5, 1.5, 3.0])
def test_parity_eigvalsh_matches_dense(eta, cutoff):
    """Every model's parity solve, the block writer's two real blocks solved
    by block_parity_eigvalsh, is the dense writer's matrix solved whole."""
    for name, terms in parity_models(eta, cutoff).items():
        H = kron_sum(terms)
        w = block_parity_eigvalsh(parity_block_sum(terms))
        w_ref = hermitian_eig(H, vectors=False).eigenvalues
        assert w.shape == w_ref.shape, name
        assert not w.flags.writeable
        dev = np.abs(w - w_ref).max()
        assert dev <= 1e-12 * max(np.abs(H.arr).max(), 1.0), (name, dev)


def test_parity_error_on_broken_parity():
    # sigma_x (x) 1 flips the qubit and leaves the photon number alone
    p = RabiParams(eta=0.5, cutoff=6)
    s = rabi._real_parts(1, p.cutoff)
    with pytest.raises(ParityError, match="term 3 leaves the parity blocks"):
        parity_block_sum(rabi._dipole_terms(s, p) + [(2.0 * s.jx, s.eye_field)])
    assert issubclass(ParityError, LinalgError)


def test_parity_error_on_complex_phased_block():
    # sigma_y (x) i(a^dag - a) keeps parity, but no diagonal phase of the
    # matter index makes it real next to the model's sigma_y (x) (a + a^dag)
    p = RabiParams(eta=0.5, cutoff=6)
    s = rabi._real_parts(1, p.cutoff)
    with pytest.raises(ParityError, match="term 4: .* not real after the 1j\\*\\*m phase"):
        parity_block_sum(rabi._standard_terms(s, p) + [(2j * s.jy, s.P)])


def test_parity_eigvalsh_checks_its_input():
    """Both writers reject terms whose shapes disagree; a non-Hermitian sum
    fails the dense writer's check and, as blocks, the solver's symmetry
    check."""
    p = RabiParams(eta=0.5, cutoff=6)
    s = rabi._real_parts(1, p.cutoff)
    terms = rabi._dipole_terms(s, p)
    for bad in (terms + [(s.jx, np.eye(5))], terms + [(np.eye(3), s.X)]):
        for write in (kron_sum, parity_block_sum):
            with pytest.raises(DimensionMismatchError):
                write(bad)
    skew = terms + [(s.eye_spin, np.triu(s.X @ s.X))]
    with pytest.raises(NonHermitianError):
        kron_sum(skew)
    with pytest.raises(NonHermitianError):
        block_parity_eigvalsh(parity_block_sum(skew))


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
            term = (s.jz, 400.0 * s.eye_field + 2.0 * d * s.X / np.abs(s.X).max())
            match = f"term 2 leaves the parity blocks: .* exceeds {limit:.3e}$"
        else:
            term = (400.0 * s.jz + 1j * d * s.eye_spin, s.eye_field)
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
    even, odd = (b.copy() for b in blocks_H_C_correct(RabiParams(eta=0.5, cutoff=6)).blocks)
    w = block_parity_eigvalsh(ParityBlocks((even.copy(), odd.copy())))
    assert not w.flags.writeable and np.all(np.diff(w) >= 0) and w.size == 14
    with pytest.raises(DimensionMismatchError):
        ParityBlocks((even[:, :-1].copy(), odd))
    with pytest.raises(DimensionMismatchError):
        ParityBlocks((even.astype(complex), odd))
    for bad in (np.nan, np.inf):
        broken = odd.copy()
        broken[2, 1] = bad
        with pytest.raises(LinalgError, match="parity block 1 has a non-finite entry"):
            block_parity_eigvalsh(ParityBlocks((even.copy(), broken)))
    # the symmetry limit is HERMITICITY_RTOL times max(max|B|, 1)
    scale = max(float(np.abs(odd).max()), 1.0)
    for shift, fails in ((0.5e-12 * scale, False), (2e-12 * scale, True)):
        skew = odd.copy()
        skew[2, 1] += shift
        blocks = ParityBlocks((even.copy(), skew))
        if fails:
            with pytest.raises(NonHermitianError, match="parity block 1 is not symmetric"):
                block_parity_eigvalsh(blocks)
        else:
            block_parity_eigvalsh(blocks)

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(ConvergenceFailureError):
        block_parity_eigvalsh(ParityBlocks((even.copy(), odd.copy())))
