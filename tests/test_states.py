import numpy as np
import pytest

from conftest import bd, local_coords, random_density_matrix, random_physical_c
from witnesslab import (
    BellDiagonalParams,
    BellKind,
    DomainError,
    ThermalParams,
    bell_probabilities,
    bell_state,
    expectation,
    from_pauli_vector,
    is_separable_bd,
    partial_transpose,
    pauli_vector,
    pseudo_pure,
    thermal_state,
)
from witnesslab.states import PAULI_LABELS


def test_bell_state_phi_minus_matrix():
    v = np.array([1, 0, 0, -1]) / np.sqrt(2)
    assert np.allclose(bell_state(BellKind.PHI_MINUS).matrix, np.outer(v, v), atol=1e-12)


def test_bell_state_phi_plus_correlations():
    vec = pauli_vector(bell_state(BellKind.PHI_PLUS))
    corr = [vec[PAULI_LABELS.index(lab)] for lab in ("XX", "YY", "ZZ")]
    assert np.allclose(corr, [1.0, -1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("kind", list(BellKind))
def test_bell_states_are_pure(kind):
    rho = bell_state(kind).matrix
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert abs(np.trace(rho @ rho) - 1.0) < 1e-12


def test_bell_basis_is_orthonormal():
    mats = [bell_state(k).matrix for k in BellKind]
    overlaps = np.array([[np.trace(a @ b).real for a in mats] for b in mats])
    assert np.allclose(overlaps, np.eye(4), atol=1e-12)


# ---------------------------------------------------------------------------
# Bell-diagonal family
# ---------------------------------------------------------------------------

def test_bell_diagonal_origin_is_maximally_mixed():
    assert np.allclose(bd(0, 0, 0).matrix, np.eye(4) / 4, atol=1e-12)


def test_bell_diagonal_corner_is_phi_minus():
    # oracle: expand the projector in the Pauli basis, triple (-1, 1, 1)
    assert np.allclose(bd(-1, 1, 1).matrix, bell_state(BellKind.PHI_MINUS).matrix, atol=1e-12)


def test_bell_diagonal_rejects_unphysical_triple():
    with pytest.raises(DomainError, match="psi-"):
        BellDiagonalParams(1.0, 1.0, 1.0)  # weight (1-3)/4 < 0 on psi-


def test_bell_diagonal_params_range_check():
    with pytest.raises(DomainError):
        BellDiagonalParams(1.5, 0.0, 0.0)


def test_bell_diagonal_reproduces_correlations():
    rng = np.random.default_rng(29)
    from witnesslab.qmat import SIGMA_X, SIGMA_Y, SIGMA_Z
    from witnesslab import HermitianOp

    for _ in range(20):
        c = random_physical_c(rng)
        rho = bd(*c)
        for ci, sigma in zip(c, (SIGMA_X, SIGMA_Y, SIGMA_Z)):
            obs = HermitianOp(np.kron(sigma, sigma))
            assert abs(expectation(rho, obs) - ci) < 1e-12


def test_bell_probabilities_reference_triples():
    assert np.allclose(bell_probabilities(BellDiagonalParams(-0.2, 1.0, 0.2)), (0, 0.4, 0.6, 0), atol=1e-12)
    assert np.allclose(bell_probabilities(BellDiagonalParams(0, 0, 0)), (0.25,) * 4, atol=1e-12)
    assert np.allclose(bell_probabilities(BellDiagonalParams(-1, 1, 1)), (0, 0, 1, 0), atol=1e-12)


def test_bell_probabilities_match_eigenvalues():
    rng = np.random.default_rng(31)
    for _ in range(50):
        c = random_physical_c(rng)
        weights = np.sort(bell_probabilities(BellDiagonalParams(*c)))
        eigs = np.linalg.eigvalsh(bd(*c).matrix)
        assert np.max(np.abs(weights - eigs)) < 1e-10


def test_bell_probabilities_sum_to_one():
    rng = np.random.default_rng(37)
    for _ in range(50):
        assert abs(sum(bell_probabilities(BellDiagonalParams(*random_physical_c(rng)))) - 1.0) < 1e-12


def test_octahedron_reference_points():
    assert is_separable_bd(BellDiagonalParams(0, 0, 0))
    assert not is_separable_bd(BellDiagonalParams(-1, 1, 1))
    assert not is_separable_bd(BellDiagonalParams(-0.2, 1.0, 0.2))


def test_octahedron_matches_ppt_on_random_triples():
    # PPT is exact at this dimension, so the two classifiers must agree
    rng = np.random.default_rng(41)
    for _ in range(1000):
        c = random_physical_c(rng)
        ppt = np.linalg.eigvalsh(partial_transpose(bd(*c)).matrix)[0] >= -1e-9
        assert ppt == is_separable_bd(BellDiagonalParams(*c))


def test_bell_diagonal_marginals_are_maximally_mixed():
    rng = np.random.default_rng(43)
    for _ in range(20):
        rho = bd(*random_physical_c(rng))
        assert np.allclose(list(local_coords(rho).values()), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# thermal and pseudo-pure states
# ---------------------------------------------------------------------------

def test_thermal_state_limits():
    full = thermal_state(ThermalParams(1.0, 1.0)).matrix
    assert np.allclose(full, np.diag([1, 0, 0, 0]), atol=1e-12)
    none = thermal_state(ThermalParams(0.0, 0.0)).matrix
    assert np.allclose(none, np.eye(4) / 4, atol=1e-12)


def test_thermal_state_small_polarization_entries():
    eps = 1e-5
    rho = thermal_state(ThermalParams(eps, eps)).matrix
    p, q = (1 + eps) / 2, (1 - eps) / 2
    assert np.allclose(np.diag(rho).real, [p * p, p * q, q * p, q * q], atol=1e-15)


def test_thermal_params_range():
    with pytest.raises(DomainError):
        ThermalParams(-0.1, 0.5)
    with pytest.raises(DomainError):
        ThermalParams(0.5, 1.1)


def test_pseudo_pure_limits():
    phim = bell_state(BellKind.PHI_MINUS)
    assert np.allclose(pseudo_pure(1.0, phim).matrix, phim.matrix, atol=1e-12)
    assert np.allclose(pseudo_pure(0.0, phim).matrix, np.eye(4) / 4, atol=1e-12)


def test_pseudo_pure_at_room_temperature_polarization_is_ppt():
    # at eps ~ 1e-5 the identity background drowns the Bell coherence
    rho = pseudo_pure(1e-5, bell_state(BellKind.PHI_MINUS))
    assert np.linalg.eigvalsh(partial_transpose(rho).matrix)[0] >= 0.0


def test_pseudo_pure_rejects_bad_eps():
    with pytest.raises(DomainError):
        pseudo_pure(1.5, bell_state(BellKind.PHI_MINUS))


# ---------------------------------------------------------------------------
# Pauli decomposition
# ---------------------------------------------------------------------------

def test_pauli_vector_order_and_identity():
    assert PAULI_LABELS[:5] == ("IX", "IY", "IZ", "XI", "XX")
    assert len(PAULI_LABELS) == 15
    from witnesslab import DensityMatrix

    assert np.allclose(pauli_vector(DensityMatrix(np.eye(4, dtype=complex) / 4)), 0.0, atol=1e-15)


def test_pauli_vector_of_bell_diagonal_state():
    vec = pauli_vector(bd(-0.2, 1.0, 0.2))
    expected = np.zeros(15)
    for lab, v in (("XX", -0.2), ("YY", 1.0), ("ZZ", 0.2)):
        expected[PAULI_LABELS.index(lab)] = v
    assert np.allclose(vec, expected, atol=1e-12)


def test_pauli_vector_of_ground_state():
    from witnesslab import DensityMatrix

    ket00 = np.zeros((4, 4), dtype=complex)
    ket00[0, 0] = 1.0
    vec = pauli_vector(DensityMatrix(ket00))
    expected = np.zeros(15)
    for lab in ("IZ", "ZI", "ZZ"):
        expected[PAULI_LABELS.index(lab)] = 1.0
    assert np.allclose(vec, expected, atol=1e-12)


def test_pauli_vector_round_trip():
    rng = np.random.default_rng(47)
    for _ in range(30):
        rho = random_density_matrix(rng)
        rebuilt = from_pauli_vector(pauli_vector(rho))
        assert np.max(np.abs(rebuilt.matrix - rho.matrix)) < 1e-12


def test_from_pauli_vector_shape_check():
    with pytest.raises(DomainError):
        from_pauli_vector(np.zeros(14))


def test_thermal_state_keeps_the_bytes_of_the_kronecker_product():
    rng = np.random.default_rng(17)
    pairs = [tuple(rng.uniform(0.0, 1.0, 2)) for _ in range(2000)] + [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    for eps_i, eps_s in pairs:
        spin_i = np.diag([(1 + eps_i) / 2, (1 - eps_i) / 2])
        spin_s = np.diag([(1 + eps_s) / 2, (1 - eps_s) / 2])
        reference = np.kron(spin_i, spin_s).astype(complex)
        assert thermal_state(ThermalParams(eps_i, eps_s)).matrix.tobytes() == reference.tobytes()
