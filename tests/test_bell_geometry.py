"""Bell-diagonal geometry checked against per-point and eigensolver references."""

import itertools

import numpy as np
import pytest

from conftest import bd_weights
from witnesslab import (
    BDClass,
    BellKind,
    DensityMatrix,
    DomainError,
    PauliWitness,
    RelaxationParams,
    bell_witness,
    classify_bd,
    detection_region_grid,
    eval_witness,
    f_witness_state,
    relax_channel,
    witness_is_valid,
)
from witnesslab.config import TOL
from witnesslab.qmat import SIGMA_X, SIGMA_Y, SIGMA_Z

SINGLE_SPIN = DensityMatrix(np.eye(2, dtype=complex) / 2)


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


def test_grid_resolution_is_capped():
    with pytest.raises(DomainError, match="101"):
        detection_region_grid(102)


def test_classify_bd_rejects_non_finite_or_misshapen_triples():
    for c in ((np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, -np.inf), (0.1, 0.2), (0, 0, 0, 0)):
        with pytest.raises(DomainError):
            classify_bd(c)


def test_two_spin_readers_reject_a_single_spin_state():
    with pytest.raises(DomainError):
        f_witness_state(SINGLE_SPIN)
    with pytest.raises(DomainError):
        eval_witness(bell_witness(BellKind.PHI_MINUS), SINGLE_SPIN)
    with pytest.raises(DomainError):
        relax_channel(SINGLE_SPIN, 0.1, RelaxationParams())


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
    return pt_min >= -TOL.psd_tol and w_max <= 1.0 + TOL.psd_tol


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
