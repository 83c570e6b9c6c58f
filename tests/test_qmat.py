import importlib
import warnings

import numpy as np
import pytest

import witnesslab
from conftest import PAPER_T2, bd, entangled_ginibre, local_coords, parity_values, random_density_matrix
from conftest import relaxed_states
from witnesslab import (
    DensityMatrix,
    Gate,
    HermitianOp,
    NumericalConsistencyError,
    StructuralError,
    expectation,
    fidelity,
    partial_transpose,
    thermal_state,
    ThermalParams,
    bell_state,
    BellKind,
    DomainError,
)
from witnesslab import optim, qmat
from witnesslab.qmat import (
    SIGMA_I,
    SIGMA_X,
    SIGMA_Z,
    TWO_SPIN_LABELS,
    TWO_SPIN_PAULIS,
    _pt_arr,
    from_pauli_coords,
    pauli_coords,
)


def op(m):
    return HermitianOp(np.asarray(m, dtype=complex))


def random_hermitian(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return HermitianOp(g + g.conj().T)


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

def test_hermitian_op_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(StructuralError, match="not Hermitian"):
        HermitianOp(m)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 3), (2, 4), (8, 8)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("make", [HermitianOp, DensityMatrix, lambda m: Gate(m, "g")],
                         ids=["HermitianOp", "DensityMatrix", "Gate"])
def test_operators_are_two_spin_by_construction(make, shape):
    # a unitary, and a state where square: only the shape is wrong
    m = np.eye(*shape, dtype=complex)
    with pytest.raises(StructuralError, match="4x4"):
        make(m / shape[0] if make is DensityMatrix else m)


def test_density_matrix_needs_unit_trace_and_psd():
    with pytest.raises(StructuralError):
        DensityMatrix(np.eye(4, dtype=complex))  # trace 4
    m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(StructuralError):
        DensityMatrix(m)


@pytest.mark.parametrize("matrix", [
    np.diag([0.4, 0.3, 0.3 + 1e-7, -1e-7]),  # an eigenvalue of -1e-7
    np.diag([0.5, 0.5, 1e-6, 0.0]),  # trace 1 + 1e-6
    np.eye(4) / 4 + np.triu(np.full((4, 4), 1e-6), 1),  # not Hermitian
], ids=["eigenvalue", "trace", "hermiticity"])
def test_density_matrix_checks_every_state_it_is_given(matrix):
    with pytest.raises(StructuralError):
        DensityMatrix(matrix.astype(complex))


def test_matrices_are_immutable():
    rho = bell_state(BellKind.PHI_PLUS)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0


# ---------------------------------------------------------------------------
# tensor products: the two-spin Pauli strings
# ---------------------------------------------------------------------------

def pauli_string(label):
    return TWO_SPIN_PAULIS[TWO_SPIN_LABELS.index(label)]


def test_tensor_pauli_products():
    assert np.array_equal(pauli_string("ZZ"), np.diag([1, -1, -1, 1]))
    assert np.array_equal(pauli_string("II"), np.eye(4))
    assert np.array_equal(pauli_string("XX"), np.fliplr(np.eye(4)))


def test_tensor_spin_i_is_slow_factor():
    # Z on spin I only: sign set by the first basis index; Z on spin S by the second
    assert np.array_equal(pauli_string("ZI"), np.diag([1, 1, -1, -1]))
    assert np.array_equal(pauli_string("IZ"), np.diag([1, -1, 1, -1]))


# ---------------------------------------------------------------------------
# partial transpose
# ---------------------------------------------------------------------------

def test_pt_phi_plus_eigenvalues():
    # frozen from the direct 4x4 computation: one -1/2, three +1/2
    pt = partial_transpose(bell_state(BellKind.PHI_PLUS))
    assert np.allclose(np.linalg.eigvalsh(pt.matrix), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_pt_leaves_diagonal_matrices_alone():
    m = op(np.diag([0.1, 0.2, 0.3, 0.4]))
    assert np.allclose(partial_transpose(m).matrix, m.matrix)


def test_pt_of_product_state(rng=np.random.default_rng(3)):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = a @ a.conj().T
    a /= np.trace(a).real
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = b @ b.conj().T
    b /= np.trace(b).real
    pt = partial_transpose(op(np.kron(a, b)))
    assert np.allclose(pt.matrix, np.kron(a.T, b))
    assert np.linalg.eigvalsh(pt.matrix)[0] >= -1e-12


def test_pt_is_involutive_and_trace_preserving():
    rng = np.random.default_rng(11)
    for _ in range(50):
        h = random_hermitian(rng)
        twice = partial_transpose(partial_transpose(h))
        assert np.max(np.abs(twice.matrix - h.matrix)) < 1e-12
        assert abs(np.trace(partial_transpose(h).matrix) - np.trace(h.matrix)) < 1e-12


def test_pt_adjoint_identity():
    # Tr(W sigma^PT) = Tr(W^PT sigma)
    rng = np.random.default_rng(5)
    for _ in range(30):
        w = random_hermitian(rng)
        sigma = random_density_matrix(rng)
        lhs = np.trace(w.matrix @ partial_transpose(sigma).matrix)
        rhs = np.trace(partial_transpose(w).matrix @ sigma.matrix)
        assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# marginals, read from the local Pauli coordinates
# ---------------------------------------------------------------------------

def test_partial_trace_of_bell_state_is_maximally_mixed():
    coords = local_coords(bell_state(BellKind.PHI_PLUS))
    assert np.allclose(list(coords.values()), 0.0, atol=1e-12)


def test_partial_trace_of_thermal_state():
    eps_i, eps_s = 0.3, 0.8
    coords = local_coords(thermal_state(ThermalParams(eps_i, eps_s)))
    assert abs(coords["ZI"] - eps_i) < 1e-12 and abs(coords["IZ"] - eps_s) < 1e-12
    assert np.allclose([coords[lab] for lab in ("XI", "YI", "IX", "IY")], 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# spectra of states
# ---------------------------------------------------------------------------

def test_eig_of_rank_one_projector():
    vals = np.linalg.eigvalsh(bell_state(BellKind.PHI_MINUS).matrix)
    assert np.allclose(vals, [0, 0, 0, 1], atol=1e-12)


def test_eig_of_bell_diagonal_matches_weight_formula():
    # weights (1 +- c1 -+ c2 +- c3)/4 give (0, 0, 0.4, 0.6) for this triple
    vals = np.linalg.eigvalsh(bd(-0.2, 1.0, 0.2).matrix)
    assert np.allclose(vals, [0, 0, 0.4, 0.6], atol=1e-10)


def test_eig_psd_inputs_stay_psd():
    rng = np.random.default_rng(17)
    for _ in range(40):
        rho = random_density_matrix(rng)
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-9


# ---------------------------------------------------------------------------
# expectation and fidelity
# ---------------------------------------------------------------------------

def test_expectation_reference_values():
    phim = bell_state(BellKind.PHI_MINUS)
    assert abs(expectation(phim, op(np.kron(SIGMA_X, SIGMA_X))) + 1.0) < 1e-12
    ident = DensityMatrix(np.eye(4, dtype=complex) / 4)
    assert abs(expectation(ident, op(np.kron(SIGMA_Z, SIGMA_I)))) < 1e-12
    assert abs(expectation(bd(-0.2, 1.0, 0.2), op(np.kron(SIGMA_Z, SIGMA_Z))) - 0.2) < 1e-12


def test_expectation_raw_flags_large_imaginary_part():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 5e-11j
    rho = DensityMatrix(m)
    obs = np.zeros((4, 4), dtype=complex)
    obs[0, 1] = obs[1, 0] = 1e6
    with pytest.raises(NumericalConsistencyError, match="imaginary part 5.000e-05"):
        expectation(rho, op(obs))


def test_fidelity_identical_orthogonal_and_mixed():
    phim = bell_state(BellKind.PHI_MINUS)
    assert abs(fidelity(phim, phim) - 1.0) < 1e-12
    ket00 = np.zeros((4, 4), dtype=complex)
    ket00[0, 0] = 1.0
    ket11 = np.zeros((4, 4), dtype=complex)
    ket11[3, 3] = 1.0
    assert fidelity(DensityMatrix(ket00), DensityMatrix(ket11)) < 1e-12
    # pure-vs-mixed oracle: <psi| sigma |psi> = 1/4 for the maximally mixed sigma
    ident = DensityMatrix(np.eye(4, dtype=complex) / 4)
    assert abs(fidelity(phim, ident) - 0.25) < 1e-12


def test_fidelity_is_symmetric():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a, b = random_density_matrix(rng), random_density_matrix(rng)
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-10


def test_fidelity_keeps_the_bits_of_clipping_below_at_zero():
    v = parity_values(4)
    assert np.maximum(v, 0.0).tobytes() == np.clip(v, 0.0, None).tobytes()

    def clipped_fidelity(rho, sigma):
        vals, vecs = np.linalg.eigh(rho.matrix)
        sqrt_rho = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
        inner = np.linalg.eigvalsh(sqrt_rho @ sigma.matrix @ sqrt_rho)
        root = float(np.sum(np.sqrt(np.clip(inner, 0.0, None))))
        return min(1.0, root * root)

    rng = np.random.default_rng(31)
    # rank 1 and 2 states have eigenvalues that round below zero, which the clip takes to 0
    states = [random_density_matrix(rng, rank=r) for r in (1, 2, 4) for _ in range(40)]
    for a, b in zip(states, states[1:] + states[:1]):
        assert fidelity(a, b) == clipped_fidelity(a, b)


def test_hermitian_op_rejects_non_finite_entries():
    with pytest.raises(StructuralError):
        HermitianOp(np.full((4, 4), np.nan))
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 0.0)):
        m = np.eye(4, dtype=complex) / 4
        m[1, 1] = bad
        with pytest.raises(StructuralError):
            HermitianOp(m)
        with pytest.raises(StructuralError):
            DensityMatrix(m)


# ---------------------------------------------------------------------------
# Pauli coordinates
# ---------------------------------------------------------------------------

def test_pauli_coords_round_trip():
    rng = np.random.default_rng(211)
    for _ in range(50):
        m = random_hermitian(rng).matrix
        x = pauli_coords(m)
        assert x.shape == (16,) and x.dtype == np.float64
        assert np.max(np.abs(from_pauli_coords(x) - 4 * m)) < 1e-12


def test_pauli_coords_order_follows_labels():
    for k, lab in enumerate(TWO_SPIN_LABELS):
        x = pauli_coords(TWO_SPIN_PAULIS[k])
        assert np.array_equal(x, 4.0 * np.eye(16)[k]), lab
    assert TWO_SPIN_LABELS[0] == "II"


def test_tolerances_are_read_only():
    # the two tolerances are qmat constants; no settable tolerance object exists
    assert qmat.TOL_EQ == 1e-10
    assert qmat.PSD_TOL == 1e-9
    with pytest.raises(ImportError):
        importlib.import_module(".config", "witnesslab")
    assert not [name for name in dir(witnesslab) if name.lower().startswith("tol")]


def test_density_matrix_takes_its_own_psd_tolerance():
    m = np.diag([0.4, 0.3, 0.3 + 1e-7, -1e-7]).astype(complex)
    with pytest.raises(StructuralError, match="positive semidefinite"):
        DensityMatrix(m)
    assert np.array_equal(DensityMatrix(m, psd_tol=1e-6).matrix, m)
    assert not hasattr(DensityMatrix(m, psd_tol=1e-6), "psd_tol")
    exact = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    assert np.array_equal(DensityMatrix(exact, psd_tol=0.0).matrix, exact)
    for bad in (np.nan, np.inf, -np.inf, -1e-6):
        with pytest.raises(DomainError, match="psd_tol"):
            DensityMatrix(m, psd_tol=bad)


# ---------------------------------------------------------------------------
# the LAPACK helpers
# ---------------------------------------------------------------------------

def test_the_lapack_helpers_give_the_bytes_of_np_linalg():
    # numpy.linalg's own gufuncs without its wrapper: one 4x4, a stack of one and a 200-point relaxed stack
    rho = entangled_ginibre(3).matrix
    relaxed = relaxed_states(entangled_ginibre(3), np.linspace(0.0, 0.6, 200), PAPER_T2)
    for a in (rho, _pt_arr(rho)[None], _pt_arr(relaxed)):
        w = qmat._eigvalsh(a)
        assert w.dtype == np.float64 and w.tobytes() == np.linalg.eigvalsh(a).tobytes()
        (w, v), (w_ref, v_ref) = qmat._eigh(a), np.linalg.eigh(a)
        assert v.dtype == np.complex128 and v.shape == a.shape
        assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()


def _pd_stack(rng, shape):
    """A seeded stack of complex Hermitian positive-definite matrices."""
    a = rng.standard_normal((*shape, 2)).view(complex)[..., 0]
    return a @ a.conj().swapaxes(-1, -2) + np.eye(shape[-1])


def _per_slice(f, a, *rest):
    """f of each matrix of the stack a alone, with the same slice of each of rest, stacked back."""
    lead = a.shape[:-2]
    out = [f(a[i], *(r[i] for r in rest)) for i in np.ndindex(lead)]
    return np.stack(out).reshape(lead + out[0].shape)


def _quietly(f, *args, **kwargs):
    """f called as optim calls a gufunc whose slices may fail: under errstate(invalid="ignore"), a warning an error."""
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("error")
        return f(*args, **kwargs)


def _nan_in_that_slice_alone(out, lead, bad, reference):
    """out is NaN throughout slice bad of the stack and nowhere else, and each other slice i is reference(i)'s bytes."""
    nan = np.isnan(out).reshape(lead + (-1,))
    assert nan[bad].all() and np.count_nonzero(nan) == nan[bad].size
    for i in np.ndindex(lead):
        if i != bad:
            assert out[i].tobytes() == reference(i).tobytes()


# the stacks optim hands the gufuncs: a solver point's four 4x4 blocks, the Bell bracket's (k, 4, 4) check and the
# completion's (k, 2, 3, 3) blocks
@pytest.mark.parametrize("shape", [(1, 4, 4), (30, 4, 4), (1, 2, 3, 3), (30, 2, 3, 3)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_the_solver_gufuncs_give_the_bytes_of_np_linalg_in_each_slice(shape):
    # numpy's private gufuncs that optim calls bare, read through optim: each slice as np.linalg computes it alone
    lapack = optim._umath_linalg
    a = _pd_stack(np.random.default_rng(4242), shape)
    chol = lapack.cholesky_lo(a, signature="D->D")
    inv_l = lapack.inv(chol, signature="D->D")
    w = lapack.eigvalsh_lo(a, signature="D->d")
    assert chol.dtype == inv_l.dtype == np.complex128 and w.dtype == np.float64
    assert chol.tobytes() == _per_slice(np.linalg.cholesky, a).tobytes()
    assert inv_l.tobytes() == _per_slice(np.linalg.inv, chol).tobytes()
    assert w.tobytes() == _per_slice(np.linalg.eigvalsh, a).tobytes()


def test_solve1_gives_the_bytes_of_np_linalg_solve_in_each_slice():
    # a solver step's 16x16 Schur system, and the completion's Newton systems as a (k, 6, 6) stack, k = 1 included
    lapack, rng = optim._umath_linalg, np.random.default_rng(4243)
    g, rhs = rng.standard_normal((16, 32)), rng.standard_normal(16)
    x = lapack.solve1(g @ g.T, rhs, signature="dd->d")
    assert x.dtype == np.float64 and x.tobytes() == np.linalg.solve(g @ g.T, rhs).tobytes()
    for k in (1, 30):
        g, rhs = rng.standard_normal((k, 6, 18)), rng.standard_normal((k, 6))
        gram = g @ g.swapaxes(-1, -2)
        x = lapack.solve1(gram, rhs, signature="dd->d")
        assert x.tobytes() == _per_slice(np.linalg.solve, gram, rhs).tobytes()


@pytest.mark.parametrize("name, signature, reference, broken", [
    ("cholesky_lo", "D->D", np.linalg.cholesky, lambda n: -np.eye(n)),  # not positive definite
    ("inv", "D->D", np.linalg.inv, lambda n: np.zeros((n, n))),  # singular
    ("inv", "D->D", np.linalg.inv, lambda n: np.full((n, n), np.nan)),  # a failed factor, as optim hands it on
    ("eigvalsh_lo", "D->d", np.linalg.eigvalsh, lambda n: np.full((n, n), np.nan)),  # NaN entries
], ids=["cholesky_lo not positive definite", "inv singular", "inv of a failed factor", "eigvalsh_lo NaN"])
@pytest.mark.parametrize("shape", [(5, 4, 4), (5, 2, 3, 3)], ids=lambda shape: "x".join(map(str, shape)))
def test_a_slice_that_cannot_be_factored_is_nan_in_that_slice_alone(name, signature, reference, broken, shape):
    # what optim reads in place of LinAlgError: no exception, no warning, and every other slice keeps its bytes
    a = _pd_stack(np.random.default_rng(4244), shape)
    lead = shape[:-2]
    bad = (1,) * len(lead)
    a[bad] = broken(shape[-1])
    out = _quietly(getattr(optim._umath_linalg, name), a, signature=signature)
    _nan_in_that_slice_alone(out, lead, bad, lambda i: reference(a[i]))


@pytest.mark.parametrize("lead", [(), (5,)], ids=["one 16x16", "5x6x6"])
def test_a_system_that_cannot_be_solved_is_nan_in_that_slice_alone(lead):
    # one singular 16x16 Schur system, or one singular slice of a (k, 6, 6) stack
    n = 6 if lead else 16
    rng = np.random.default_rng(4245)
    g, rhs = rng.standard_normal(lead + (n, 3 * n)), rng.standard_normal(lead + (n,))
    gram = g @ g.swapaxes(-1, -2)
    bad = (1,) * len(lead)
    gram[bad] = 0.0
    out = _quietly(optim._umath_linalg.solve1, gram, rhs, signature="dd->d")
    _nan_in_that_slice_alone(out, lead, bad, lambda i: np.linalg.solve(gram[i], rhs[i]))


def test_the_svd_helper_gives_the_bytes_of_np_linalg():
    # qmat._SVD_F binds _umath_linalg.svd_f, the gufunc numpy.linalg.svd calls: a seeded (k, 3, 3) stack, k = 1 included
    rng = np.random.default_rng(6630)
    for k in (1, 2, 50):
        a = rng.standard_normal((k, 3, 3))
        (u, s, vt), (u_ref, s_ref, vt_ref) = qmat._svd(a), np.linalg.svd(a)
        assert u.dtype == s.dtype == vt.dtype == np.float64
        assert u.tobytes() == u_ref.tobytes() and s.tobytes() == s_ref.tobytes() and vt.tobytes() == vt_ref.tobytes()


def test_a_failed_svd_raises(monkeypatch):
    monkeypatch.setattr(qmat, "_SVD_F", lambda a, signature: (np.full(a.shape, np.nan), np.full(a.shape[:-1], np.nan),
                                                             np.full(a.shape, np.nan)))
    with pytest.raises(np.linalg.LinAlgError):
        qmat._svd(np.eye(3)[None])


class _FailedLapack:
    """numpy's LAPACK gufuncs as they answer a decomposition that failed: NaN in every output."""

    @staticmethod
    def eigvalsh_lo(a, signature):
        return np.full(a.shape[:-1], np.nan)

    @staticmethod
    def eigh_lo(a, signature):
        return np.full(a.shape[:-1], np.nan), np.full(a.shape, np.nan, dtype=complex)


def test_a_failed_decomposition_raises_and_accepts_nothing(monkeypatch):
    mixed = np.eye(4, dtype=complex) / 4.0  # PPT: a NaN lambda_min must not read as PPT
    states = np.stack([mixed, bell_state(BellKind.PHI_PLUS).matrix])
    monkeypatch.setattr(qmat, "_umath_linalg", _FailedLapack)
    with pytest.raises(np.linalg.LinAlgError):
        DensityMatrix(mixed)
    for stack in (states[:1], states[1:], states):
        with pytest.raises(np.linalg.LinAlgError):
            optim._robustness(_pt_arr(stack))
