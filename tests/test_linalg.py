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
    conjugate,
    hermitian_eig,
    kron_sum,
    model_from_table,
    parity_band_sum,
    parity_block_sum,
    parity_eigvalsh,
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
from gaugeqed import linalg, particle1d
from gaugeqed.linalg import OperatorMatrix, band_eigh, kron, matrix_function
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
    by parity_eigvalsh, is the dense writer's matrix solved whole."""
    for name, terms in parity_models(eta, cutoff).items():
        H = kron_sum(terms)
        w = parity_eigvalsh(parity_block_sum(terms), H.shape[0])
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
        parity_eigvalsh(parity_block_sum(skew), 3)


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
        parity_eigvalsh(ParityBands((even, odd)), 0)
    with pytest.raises(DimensionMismatchError):
        ParityBands((even[0].copy(), odd))
    for bad in (np.nan, np.inf):
        broken = odd.copy()
        broken[1, 2] = bad
        with pytest.raises(LinalgError, match="parity chain 1 has a non-finite entry"):
            parity_eigvalsh(ParityBands((even, broken)), 3)

    # the tridiagonal D chains go to dstebz, which must report info 0 and
    # every level it was asked for; the pentadiagonal Cstd chains to ?sbevx
    wide = ParityBands(tuple(chain.copy() for chain in
                             bands_H_C_standard(RabiParams(eta=0.5, cutoff=6)).chains))
    dstebz, dsbevx = linalg._LAPACK.dstebz, linalg._LAPACK.dsbevx

    def failing(*args):
        m, w, iblock, isplit, _ = dstebz(*args)
        return m, w, iblock, isplit, 1

    def short(*args):
        m, w, iblock, isplit, info = dstebz(*args)
        return m - 1, w, iblock, isplit, info

    for broken_solver, match in ((failing, "dstebz info 1"), (short, "dstebz info 0, 1 of")):
        monkeypatch.setattr(linalg._LAPACK, "dstebz", broken_solver)
        with pytest.raises(ConvergenceFailureError, match=match):
            parity_eigvalsh(ParityBands((even, odd)), 3)
        parity_eigvalsh(wide, 3)
    monkeypatch.setattr(linalg._LAPACK, "dstebz", dstebz)

    def failing_band(*args, **kwargs):
        w, z, m, ifail, _ = dsbevx(*args, **kwargs)
        return w, z, m, ifail, 1

    monkeypatch.setattr(linalg._LAPACK, "dsbevx", failing_band)
    with pytest.raises(ConvergenceFailureError, match="info 1"):
        parity_eigvalsh(wide, 3)
    parity_eigvalsh(ParityBands((even, odd)), 3)


def test_block_parity_eigvalsh_checks_each_block(monkeypatch):
    blocks = parity_block_sum(terms_H_C_correct(RabiParams(eta=0.5, cutoff=6))).blocks
    even, odd = (b.copy() for b in blocks)
    w = parity_eigvalsh(ParityBlocks((even.copy(), odd.copy())), 14)
    assert not w.flags.writeable and np.all(np.diff(w) >= 0) and w.size == 14
    with pytest.raises(ValueError, match="count must be >= 1, got 0"):
        parity_eigvalsh(ParityBlocks((even.copy(), odd.copy())), 0)
    with pytest.raises(DimensionMismatchError):
        ParityBlocks((even[:, :-1].copy(), odd))
    with pytest.raises(DimensionMismatchError):
        ParityBlocks((even.astype(complex), odd))
    for bad in (np.nan, np.inf):
        broken = odd.copy()
        broken[2, 1] = bad
        for count in (1, 14):
            with pytest.raises(LinalgError, match="parity block 1 has a non-finite entry"):
                parity_eigvalsh(ParityBlocks((even.copy(), broken)), count)
    # the symmetry limit is HERMITICITY_RTOL times max(max|B|, 1), the
    # package's one Hermiticity rule
    scale = max(float(np.abs(odd).max()), 1.0)
    for shift, fails in ((0.5e-12 * scale, False), (2e-12 * scale, True)):
        skew = odd.copy()
        skew[2, 1] += shift
        blocks = ParityBlocks((even.copy(), skew))
        for count in (1, 14):
            if fails:
                with pytest.raises(NonHermitianError, match=r"^parity block 1 is not symmetric: "
                                   r"max\|M - M\^dag\| = \d\.\d{3}e-\d+ \(scale "):
                    parity_eigvalsh(blocks, count)
            else:
                parity_eigvalsh(blocks, count)

    # a block is reduced by dsytrd and bisected by dstebz; either failing,
    # or dstebz finding fewer levels than asked, is a typed error
    dsytrd, dstebz = linalg._LAPACK.dsytrd, linalg._LAPACK.dstebz

    def failing_reduction(*args, **kwargs):
        *out, _ = dsytrd(*args, **kwargs)
        return (*out, 1)

    def failing_bisection(*args):
        *out, _ = dstebz(*args)
        return (*out, 2)

    def short_bisection(*args):
        m, *out = dstebz(*args)
        return (m - 1, *out)

    for name, broken_solver, match in (
            ("dsytrd", failing_reduction, "^tridiagonal reduction failed: dsytrd info 1$"),
            ("dstebz", failing_bisection, "dstebz info 2, 2 of levels 1..2 found$"),
            ("dstebz", short_bisection, "dstebz info 0, 1 of levels 1..2 found$")):
        monkeypatch.setattr(linalg._LAPACK, name, broken_solver)
        with pytest.raises(ConvergenceFailureError, match=match):
            parity_eigvalsh(ParityBlocks((even.copy(), odd.copy())), 3)
        monkeypatch.undo()


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
        w = parity_eigvalsh(blocks, count)
        assert w.shape == (count,) and not w.flags.writeable, name
        dev = float(np.abs(w - full[:count]).max())
        assert dev <= 1e-12 * max(scale, 1.0), (name, count, dev)


def test_block_parity_eigvalsh_count_past_the_rows_returns_all():
    blocks = parity_block_sum(terms_H_C_correct(RabiParams(eta=1.5, cutoff=9)))
    full = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks.blocks]))
    for count in (10, 11, 20, 21, 1000):
        w = parity_eigvalsh(blocks, count)
        assert w.size == min(count, 20)
        assert np.abs(w - full[:count]).max() <= 1e-12 * max(np.abs(full).max(), 1.0)


def random_block(rows, offset, seed):
    """A symmetric block with eigenvalues offset + 0, 1, ..., rows - 1 in a
    random orthogonal basis."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((rows, rows)))
    block = (q * (offset + np.arange(rows))) @ q.T
    return (block + block.T) / 2


def random_chain(rows, width, offset, seed):
    """A symmetric band in LAPACK lower storage: standard normal entries,
    the diagonal raised by offset, zeros past the end of each subdiagonal."""
    chain = np.random.default_rng(seed).standard_normal((width + 1, rows))
    chain[0] += offset
    for r in range(1, width + 1):
        chain[r, rows - r:] = 0.0
    return chain


def dense_band(chain):
    """The symmetric matrix whose lower band ``chain`` holds."""
    rows = chain.shape[1]
    dense = np.diag(chain[0])
    for r in range(1, min(chain.shape[0], rows)):
        dense += np.diag(chain[r, :rows - r], -r) + np.diag(chain[r, :rows - r], r)
    return dense


def demand_cases():
    """(name, holder, its assembled operator, counts) for the demand rule:
    sectors whose lowest levels all lie in one of them, either one; exact
    ties across sectors; a sector with fewer rows than the count; 1-row
    sectors; and width-1 (dstebz), width-2 (?sbevx) and shift-invert
    chains."""
    low, high = random_block(20, 0.0, 1), random_block(20, 100.0, 2)
    few = random_block(3, -1.0, 3)
    for name, blocks in (("lowest in block 0", (low, high)), ("lowest in block 1", (high, low)),
                         ("tied blocks", (low, low.copy())), ("3-row block", (few, high)),
                         ("1-row blocks", (np.array([[2.0]]), np.array([[-1.0]]))),
                         ("1-row and 20-row block", (np.array([[5.5]]), low))):
        yield (name, ParityBlocks(tuple(b.copy() for b in blocks)),
               scipy.linalg.block_diag(*blocks), (1, 2, 3, 5, 6, 7, 21, 40, 41, 100))
    for width, rows, counts in ((1, 40, (1, 2, 5, 6, 7, 41, 80, 81)),
                                (2, 40, (1, 2, 5, 6, 7, 41, 80, 81)),
                                (3, 600, (1, 2, 5, 6, 7, 13))):
        lo, hi = random_chain(rows, width, 0.0, 4), random_chain(rows, width, 100.0, 5)
        for name, chains in (("lowest in chain 0", (lo, hi)), ("lowest in chain 1", (hi, lo)),
                             ("tied chains", (lo, lo.copy()))):
            yield (f"width {width} {name}", ParityBands(tuple(c.copy() for c in chains)),
                   scipy.linalg.block_diag(*map(dense_band, chains)), counts)
    for width in (1, 2):
        chains = (random_chain(1, width, 3.0, 6), random_chain(1, width, -2.0, 7))
        yield (f"width {width} 1-row chains", ParityBands(chains),
               scipy.linalg.block_diag(*map(dense_band, chains)), (1, 2, 3))


def test_parity_eigvalsh_demand_rule_matches_the_assembled_operator():
    """Asking each sector only for the levels the union can still use gives
    the lowest ``count`` eigenvalues of the assembled operator, to 1e-12 of
    its scale, for every case of ``demand_cases`` and count, past one
    sector's rows and past all of them (then every level, ascending)."""
    for name, H, dense, counts in demand_cases():
        full = np.linalg.eigvalsh(dense)
        scale = max(float(np.abs(dense).max()), 1.0)
        for count in counts:
            w = parity_eigvalsh(H, count)
            assert w.shape == (min(count, full.size),), (name, count)
            assert not w.flags.writeable and np.all(np.diff(w) >= 0), (name, count)
            dev = float(np.abs(w - full[:count]).max())
            assert dev <= 1e-12 * scale, (name, count, dev)


def test_shift_invert_chain_goes_to_lanczos(monkeypatch):
    """The 600-row width-3 chains of ``demand_cases`` are solved by
    shift-invert Lanczos, so the demand rule's second pass reaches it: at
    the even count 6, each chain is first asked for 6 // 2 + 1 = 4."""
    calls = []
    solve = linalg.shift_invert_eigsh
    monkeypatch.setattr(linalg, "shift_invert_eigsh",
                        lambda band, k, *args: calls.append(k) or solve(band, k, *args))
    lo, hi = random_chain(600, 3, 0.0, 4), random_chain(600, 3, 100.0, 5)
    parity_eigvalsh(ParityBands((lo, hi)), 6)
    # 4 levels from each, then chain 0 solved again for 6
    assert calls == [4, 4, 6]


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


# ---------------------------------------------------------------------------
# shift-invert Lanczos and the LAPACK loader
# ---------------------------------------------------------------------------

def eig_banded_lowest(band, k):
    return scipy.linalg.eig_banded(band, lower=True, eigvals_only=True,
                                   select="i", select_range=(0, k - 1))


def preset_bands(harmonic, double_well):
    """(name, band, levels, shift, reference) for every band shape a preset
    hands the band solver, shifted as band_eigh's callers shift it, with the
    band whose eigenvalues are the reference: the Rabi D and Cstd chains and
    the 16- and 32-level full-model chains below their Gershgorin bound; the
    mirror halves of both grids, at full-model's 16 levels a parity and at
    the double well's 25, and particle-demo's whole grid, real and
    conjugated by the phase exp(i q A0 x) (the real grid is its
    reference), at the minimal-coupling check's 8 levels, below the
    potential."""
    for eta, cutoff in ((0.5, 80), (3.0, 320)):
        p = RabiParams(eta=eta, cutoff=cutoff)
        for bands in (bands_H_D, bands_H_C_standard):
            for c, chain in enumerate(bands(p).chains):
                yield (f"{bands.__name__} eta {eta} chain {c}", chain, (7,),
                       linalg._below_gershgorin(chain), chain)
    for preset, (model, basis) in (("harmonic", harmonic), ("double well", double_well)):
        for m_used in (16, 32):
            for terms in (terms_full_H_D, terms_full_H_C):
                for c, chain in enumerate(parity_band_sum(
                        terms(model, basis, 48, 0.3, m_used)).chains):
                    yield (f"{preset} {terms.__name__} m {m_used} chain {c}", chain, (5,),
                           linalg._below_gershgorin(chain), chain)
        for parity in (1, -1):
            half = particle1d._fold(model, parity)
            yield (f"{preset} half grid {parity}", half,
                   tuple(sorted({16, model.eigen_count // 2})), particle1d._shift(model), half)
    model, _ = harmonic
    bare = particle1d._grid_bands(model)
    conj = bare * np.exp(1j * 0.3 * np.arange(3) * model.grid.dx)[:, None]
    for name, band in (("real", bare), ("complex", conj)):
        yield f"harmonic {name} grid", band, (8,), particle1d._shift(model), bare


def test_lanczos_matches_eig_banded_on_every_preset_band(harmonic, double_well):
    """Shift-invert Lanczos gives the lowest eigenvalues of ?sbevx on every
    preset band to 1e-12 of the band scale, eigenvectors with residual and
    orthogonality at that scale, and the same eigenvalues from its
    eigenvalue-only solve."""
    for name, band, levels, sigma, reference in preset_bands(harmonic, double_well):
        all_want = eig_banded_lowest(reference, max(levels))
        scale = max(float(np.abs(band).max()), 1.0)
        for k in levels:
            want = all_want[:k]
            w, v = linalg.shift_invert_eigsh(band, k, sigma, True)
            assert np.abs(w - want).max() <= 1e-12 * scale, (name, k)
            values, _ = linalg.shift_invert_eigsh(band, k, sigma, False)
            assert np.array_equal(values, w), (name, k)
            assert np.abs(v.conj().T @ v - np.eye(k)).max() <= 1e-12, (name, k)
            # A v - v w, applied from the band: row 0 is the diagonal
            av = band[0][:, None] * v
            for r in range(1, band.shape[0]):
                av[r:] += band[r, :-r, None] * v[:-r]
                av[:-r] += band[r, :-r, None].conj() * v[r:]
            assert np.abs(av - v * w).max() <= 1e-12 * scale, (name, k)


@pytest.mark.parametrize("q_a0", [0.3, 1.0, 3.0])
def test_band_eigh_real_and_phase_conjugated_grid_agree(harmonic, q_a0):
    """The harmonic whole-grid band and that band times the row phase
    exp(i q A0 r dx), which is the band conjugated by exp(i q A0 x) and so
    unitarily equivalent to it, give the same lowest 8 levels to 1e-9:
    the complex shift-invert solve (zpbtrf) against the real one
    (dpbtrf)."""
    model, _ = harmonic
    bare = particle1d._grid_bands(model)
    conj = bare * np.exp(1j * q_a0 * np.arange(3) * model.grid.dx)[:, None]
    sigma = particle1d._shift(model)
    w_bare, _ = band_eigh(bare, 8, sigma=sigma)
    w_conj, _ = band_eigh(conj, 8, sigma=sigma)
    assert np.abs(w_bare - w_conj).max() <= 1e-9


def test_lanczos_resolves_a_pair_split_by_1e_8():
    """Two copies of a harmonic grid chain, one raised by 1e-8 and coupled
    to the other by 1e-9 at their junction: each level is a pair split by
    about 1e-8, and shift-invert Lanczos resolves both members, as
    ?sbevx does."""
    n = 400
    x = np.linspace(-8.0, 8.0, n)
    dx = x[1] - x[0]
    chain = np.zeros((2, 2 * n))
    chain[0] = np.concatenate([1.0 / dx ** 2 + 0.5 * x ** 2] * 2)
    chain[0, n:] += 1e-8
    chain[1, :-1] = -0.5 / dx ** 2
    chain[1, n - 1] = 1e-9
    k = 6
    want = eig_banded_lowest(chain, k)
    splits = want[1::2] - want[::2]
    assert np.all((splits > 0.9e-8) & (splits < 1.1e-8))
    w, v = band_eigh(chain, k, vectors=True)
    scale = float(np.abs(chain).max())
    assert np.abs(w - want).max() <= 1e-12 * scale
    assert np.abs((w[1::2] - w[::2]) - splits).max() <= 1e-12 * scale
    assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-10


def test_lanczos_goes_on_past_an_invariant_subspace():
    """A diagonal chain of 60 rows with four distinct levels, the lowest
    three each three-fold: from the constant start vector the basis spans
    an invariant subspace after four steps, and the solve goes on from
    fresh vectors until it holds every copy of the lowest two levels."""
    chain = np.zeros((2, 60))
    chain[0] = np.concatenate([np.repeat([1.0, 2.0, 3.0], 3), np.full(51, 8.0)])
    want = eig_banded_lowest(chain, 6)
    assert np.array_equal(want, [1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    w, v = band_eigh(chain, 6, vectors=True, sigma=0.0)
    assert np.abs(w - want).max() <= 1e-12
    assert np.abs(v.T @ v - np.eye(6)).max() <= 1e-12
    assert np.abs(chain[0][:, None] * v - v * w).max() <= 1e-12


def exact_eigenvector_starts():
    """(name, band, start) with ``start`` an exact eigenvector of ``band``,
    so that the basis spans an invariant subspace after one step: a unit
    vector of a diagonal chain with shuffled distinct levels, at its lowest
    level and at one above the six wanted (the solve goes on from a fresh
    vector), and the constant vector of a Neumann second-difference chain
    plus 3, whose rows sum to 3 exactly (it goes on from the roundoff of
    the factor's solve)."""
    diagonal = np.zeros((2, 80))
    diagonal[0] = np.random.default_rng(7).permutation(np.arange(1.0, 81.0))
    for level in (1.0, 9.0):
        yield f"diagonal at {level}", diagonal, (diagonal[0] == level).astype(float)
    neumann = np.zeros((2, 500))
    neumann[0] = 5.0
    neumann[0, [0, -1]] = 4.0
    neumann[1, :-1] = -1.0
    yield "neumann", neumann, np.ones(500)


@pytest.mark.parametrize("band,start", [pytest.param(band, start, id=name)
                                        for name, band, start in exact_eigenvector_starts()])
def test_lanczos_from_an_exact_eigenvector_finds_the_lowest_levels(band, start):
    """A start that is one exact eigenvector still gives the lowest k
    levels of ?sbevx, to 1e-12 of the band scale, with orthonormal
    eigenvectors: the solve goes on past the invariant subspace."""
    k = 6
    want = eig_banded_lowest(band, k)
    w, v = linalg.shift_invert_eigsh(band, k, linalg._below_gershgorin(band), True, start)
    assert np.abs(w - want).max() <= 1e-12 * float(np.abs(band).max())
    assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-12


@pytest.mark.parametrize("complex_band", [False, True])
def test_lanczos_eigenvectors_follow_the_phase_rule(harmonic, complex_band):
    """band_eigh's shift-invert eigenvectors are phase-fixed as
    ``_phase_fixed`` fixes them: each column's largest-magnitude entry is
    real and positive (to roundoff, for a complex band), and a real band's
    vectors stay real."""
    model, _ = harmonic
    band = particle1d._grid_bands(model, 0.3 if complex_band else 0.0)
    w, v = band_eigh(band, 6, vectors=True, sigma=particle1d._shift(model))
    assert np.iscomplexobj(v) == complex_band
    lead = v[np.abs(v).argmax(axis=0), np.arange(6)]
    assert np.all(lead.real > 0) and np.all(np.abs(lead.imag) <= 1e-15 * lead.real)


def test_lanczos_reports_its_cap(monkeypatch):
    # no residual is below a negative tolerance, so the basis reaches its cap
    band = particle1d._fold(particle1d.harmonic_model(n_points=2001), 1)
    monkeypatch.setattr(linalg, "LANCZOS_RTOL", -1.0)
    with pytest.raises(ConvergenceFailureError,
                       match="shift-invert Lanczos failed: the lowest 6 levels of the "
                             "1001-row band operator did not converge in 144 steps"):
        linalg.shift_invert_eigsh(band, 6, -1.0, False)


def test_fallback_loader_gives_the_same_results(monkeypatch, harmonic):
    """When scipy's LAPACK extension does not load by file location, the
    loader falls back to scipy.linalg.lapack, and every solver path gives
    the same bits: ?syevr blocks, ?sbevx chains and shift-invert Lanczos,
    real and complex."""
    model, _ = harmonic
    blocks = parity_block_sum(terms_H_C_correct(RabiParams(eta=0.5, cutoff=30)))
    chains = bands_H_D(RabiParams(eta=0.5, cutoff=30))
    grid = particle1d._grid_bands(model, 0.3)
    sigma = particle1d._shift(model)

    def solves():
        return [parity_eigvalsh(blocks, 5), parity_eigvalsh(chains, 5),
                *band_eigh(particle1d._fold(model, 1), 8, vectors=True, sigma=sigma),
                band_eigh(grid, 8, sigma=sigma)[0]]

    direct = solves()
    assert linalg._LAPACK.__name__ == "scipy.linalg._flapack"

    def failing():
        raise ImportError("no extension")

    monkeypatch.setattr(linalg, "_flapack_by_location", failing)
    fallback = linalg._load_lapack()
    assert fallback is scipy.linalg.lapack
    monkeypatch.setattr(linalg, "_LAPACK", fallback)
    assert all(np.array_equal(a, b) for a, b in zip(solves(), direct))
