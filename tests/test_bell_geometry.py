"""Bell-diagonal geometry checked against per-point and eigensolver references."""

import itertools
import re

import numpy as np
import pytest

from conftest import bd_weights
from witnesslab import (
    BDClass,
    BellKind,
    DomainError,
    HermitianOp,
    PauliWitness,
    RelaxationParams,
    bell_state,
    bell_witness,
    classify_bd,
    detection_region_grid,
    epr_gate,
    eval_witness,
    expectation,
    f_witness_state,
    fidelity,
    negativity,
    pauli_vector,
    pseudo_pure,
    relax_channel,
    witness_is_valid,
)
from witnesslab.circuits import gradient_dephase
from witnesslab.qmat import PSD_TOL, SIGMA_X, SIGMA_Y, SIGMA_Z
from witnesslab.witness import _region_planes

# unit trace and Hermitian, but with negative eigenvalues: not a state
NOT_A_STATE = HermitianOp(np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex))
PHI_MINUS = BellKind.PHI_MINUS
# readers of a state, as functions of that state, keyed by the name their error gives (a
# suffix after "-" tells fidelity's two arguments apart); sweep, generalized_robustness and
# simulate_lines are checked beside their own tests
STATE_READERS = {
    "f_witness_state": f_witness_state,
    "eval_witness": lambda rho: eval_witness(bell_witness(PHI_MINUS), rho),
    "pauli_vector": pauli_vector,
    "negativity": negativity,
    "fidelity-first": lambda rho: fidelity(rho, bell_state(PHI_MINUS)),
    "fidelity-second": lambda rho: fidelity(bell_state(PHI_MINUS), rho),
    "expectation": lambda rho: expectation(rho, HermitianOp(np.eye(4))),
    "pseudo_pure": lambda rho: pseudo_pure(0.5, rho),
    "gradient_dephase": gradient_dephase,
    "Gate.apply": lambda rho: epr_gate().apply(rho),
    "relax_channel": lambda rho: relax_channel(rho, 0.1, RelaxationParams()),
}


def reference_class(c):
    """One triple classified from the defining inequalities, one at a time."""
    if bd_weights(c).min() < -1e-9:
        return BDClass.UNPHYSICAL
    if sum(abs(v) for v in c) <= 1.0 + 1e-12:
        return BDClass.SEPARABLE
    if (1.0 + abs(c[0])) * (1.0 + abs(c[2])) > 2.0:
        return BDClass.ENTANGLED_DETECTED_BY_F
    return BDClass.ENTANGLED_UNDETECTED_BY_F


@pytest.mark.parametrize("n", [2, 3, 4, 21])
def test_grid_matches_per_point_reference(n):
    axis = [float(v) for v in np.linspace(-1.0, 1.0, n)]
    want = [(c, reference_class(c)) for c in itertools.product(axis, repeat=3)]
    got = detection_region_grid(n)
    assert got == want
    assert all(type(v) is float for c, _cls in got for v in c)


@pytest.mark.parametrize("n", [2, 5, 21])
def test_grid_is_the_planes_in_row_major_order(n):
    axis, planes = _region_planes(n)
    planes = list(planes)
    assert axis == np.linspace(-1.0, 1.0, n).tolist()
    assert [plane.shape for plane in planes] == [(n, n)] * n
    want = [
        ((c1, c2, c3), planes[k][j2, j3])
        for k, c1 in enumerate(axis) for j2, c2 in enumerate(axis) for j3, c3 in enumerate(axis)
    ]
    assert detection_region_grid(n) == want


def test_grid_resolution_is_capped():
    with pytest.raises(DomainError, match="101"):
        detection_region_grid(102)


def test_classify_bd_rejects_non_finite_or_misshapen_triples():
    for c in ((np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, -np.inf), (0.1, 0.2), (0, 0, 0, 0)):
        with pytest.raises(DomainError):
            classify_bd(c)


@pytest.mark.parametrize("reader", STATE_READERS)
def test_two_spin_readers_reject_a_non_state_operator(reader):
    name = reader.split("-")[0]
    with pytest.raises(DomainError, match=re.escape(name) + ".*two-spin DensityMatrix"):
        STATE_READERS[reader](NOT_A_STATE)


def eigvalsh_is_valid(coeffs):
    """W^PT >= 0 and W <= 1, from the eigenvalues of the assembled 4x4 matrices."""
    c_i, c_x, c_y, c_z = coeffs
    w = (
        c_i * np.eye(4)
        + c_x * np.kron(SIGMA_X, SIGMA_X)
        + c_y * np.kron(SIGMA_Y, SIGMA_Y)
        + c_z * np.kron(SIGMA_Z, SIGMA_Z)
    )
    w_pt = w.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    pt_min = np.linalg.eigvalsh(w_pt)[0]
    w_max = np.linalg.eigvalsh(w)[-1]
    return pt_min >= -PSD_TOL and w_max <= 1.0 + PSD_TOL


def test_witness_validity_matches_eigvalsh_on_random_coefficients():
    rng = np.random.default_rng(2024)
    outcomes = []
    for _ in range(2000):
        coeffs = (rng.uniform(0.0, 1.0), *rng.uniform(-0.6, 0.6, 3))
        valid = witness_is_valid(PauliWitness(*coeffs))
        assert type(valid) is bool
        assert valid == eigvalsh_is_valid(coeffs), coeffs
        outcomes.append(valid)
    assert any(outcomes) and not all(outcomes)


def test_witness_validity_matches_eigvalsh_on_quarter_lattice():
    # every coefficient a multiple of 1/4, so many eigenvalues land exactly on 0 or 1
    lattice = np.linspace(-1.0, 1.0, 9)
    outcomes = []
    for coeffs in itertools.product(lattice, repeat=4):
        valid = witness_is_valid(PauliWitness(*coeffs))
        assert valid == eigvalsh_is_valid(coeffs), coeffs
        outcomes.append(valid)
    assert sum(outcomes) > 0 and not all(outcomes)


@pytest.mark.parametrize("triple", [("a", 0, 0), (None, 0.1, 0.2), ([1, 2], 0, 0), object()])
def test_classify_bd_rejects_non_numeric_triples(triple):
    with pytest.raises(DomainError):
        classify_bd(triple)


@pytest.mark.parametrize("resolution", [2.5, 3.0, "3", None])
def test_grid_resolution_must_be_an_integer(resolution):
    with pytest.raises(DomainError):
        detection_region_grid(resolution)


def test_grid_accepts_numpy_integer_resolution():
    assert detection_region_grid(np.int64(3)) == detection_region_grid(3)
