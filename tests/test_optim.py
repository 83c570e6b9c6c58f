import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import bd, bd_weights, entangled_ginibre, random_density_matrix, random_physical_c
from witnesslab import (
    BellDiagonalParams,
    BellKind,
    ConvergenceError,
    DensityMatrix,
    bell_state,
    bell_witness,
    eval_witness,
    generalized_robustness,
    gr_oracle_bd,
    negativity,
    optimal_witness,
    partial_transpose,
    witness_is_valid,
)
from witnesslab import optim

IDENTITY = DensityMatrix(np.eye(4, dtype=complex) / 4)


# ---------------------------------------------------------------------------
# the optimal Bell witness
# ---------------------------------------------------------------------------

def test_witness_lp_objective_cross_checked_with_scipy():
    from witnesslab.states import BELL_CORRELATIONS

    triples = [BELL_CORRELATIONS[k] for k in BellKind]
    rows_w = np.array([[1.0, s1, s2, s3] for (s1, s2, s3) in triples])
    rows_pt = rows_w * np.array([1.0, 1.0, -1.0, 1.0])
    a = np.vstack([rows_w, -rows_pt])
    b = np.concatenate([np.ones(4), np.zeros(4)])
    for kind in BellKind:
        c = np.array([1.0, *BELL_CORRELATIONS[kind]])
        ref = linprog(c, A_ub=a, b_ub=b, bounds=[(None, None)] * 4, method="highs")
        assert ref.success
        assert abs(ref.fun + 1.0) < 1e-9
        np.testing.assert_allclose(ref.x, optimal_witness(kind).as_tuple(), atol=1e-9)


@pytest.mark.parametrize("kind", list(BellKind))
def test_optimal_witness_matches_closed_form_rows(kind):
    assert optimal_witness is bell_witness
    w = optimal_witness(kind)
    assert witness_is_valid(w)
    assert abs(eval_witness(w, bell_state(kind)) + 1.0) < 1e-9


# ---------------------------------------------------------------------------
# robustness
# ---------------------------------------------------------------------------

def test_oracle_reference_values():
    assert abs(gr_oracle_bd(BellDiagonalParams(-1, 1, 1)) - 1.0) < 1e-12
    assert abs(gr_oracle_bd(BellDiagonalParams(-0.2, 1.0, 0.2)) - 0.2) < 1e-12
    assert gr_oracle_bd(BellDiagonalParams(0, 0, 0)) == 0.0


def test_robustness_reference_values():
    assert abs(generalized_robustness(bell_state(BellKind.PHI_MINUS)).value - 1.0) < 1e-6
    assert abs(generalized_robustness(bd(-0.2, 1.0, 0.2)).value - 0.2) < 1e-6
    assert generalized_robustness(IDENTITY).value == 0.0


def test_robustness_zero_iff_ppt_on_random_states():
    rng = np.random.default_rng(73)
    for _ in range(1000):
        rho = random_density_matrix(rng)
        ppt = np.linalg.eigvalsh(partial_transpose(rho).matrix)[0] >= -1e-9
        value = generalized_robustness(rho).value
        assert (value <= 1e-7) == ppt


def test_certificate_makes_the_mixture_ppt():
    rng = np.random.default_rng(79)
    checked = 0
    while checked < 40:
        rho = random_density_matrix(rng)
        result = generalized_robustness(rho)
        if result.value <= 1e-7:
            continue
        cert = result.certificate_state
        assert np.linalg.eigvalsh(cert.matrix)[0] >= -1e-9
        mix = (rho.matrix + result.value * cert.matrix) / (1.0 + result.value)
        pt_min = np.linalg.eigvalsh(
            partial_transpose(DensityMatrix(mix)).matrix
        )[0]
        assert pt_min >= -1e-9
        checked += 1


def test_robustness_monotone_under_mixing_with_identity():
    rng = np.random.default_rng(83)
    tried = 0
    while tried < 5:
        c = random_physical_c(rng)
        if bd_weights(c).max() <= 0.55:
            continue
        rho = bd(*c).matrix
        values = []
        for t in np.linspace(0.0, 1.0, 20):
            mixed = DensityMatrix((1 - t) * rho + t * np.eye(4) / 4)
            values.append(generalized_robustness(mixed).value)
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-7)
        tried += 1


def test_robustness_agrees_with_oracle_on_bell_diagonal_sample():
    rng = np.random.default_rng(89)
    for _ in range(100):
        c = random_physical_c(rng)
        got = generalized_robustness(bd(*c)).value
        assert abs(got - gr_oracle_bd(BellDiagonalParams(*c))) < 1e-5


def test_robustness_iteration_cap_raises_with_bounds(monkeypatch):
    monkeypatch.setattr(optim, "_MAX_ITERATIONS", 3)
    # the longer search only repeats the first: the solver takes what the brackets leave
    monkeypatch.setattr(optim, "_PRODUCT_STEPS_LAST", optim._PRODUCT_STEPS)
    with pytest.raises(ConvergenceError, match="3-iteration cap") as err:
        generalized_robustness(entangled_ginibre(268))  # product class: no bracket closes it, so the solver runs
    assert err.value.lower is not None and err.value.upper is not None
    assert err.value.lower <= err.value.upper


def test_robustness_is_deterministic():
    rho = bd(-0.2, 1.0, 0.2)
    a = generalized_robustness(rho)
    b = generalized_robustness(rho)
    assert a.value == b.value and a.iterations == b.iterations


def test_robustness_dominates_rank_one_dual_bound():
    # scaling the projector onto the negative eigenvector v of the partial
    # transpose by one over its largest squared Schmidt coefficient gives a
    # feasible dual point, so -mu/a^2 is a hard lower bound on the value
    rng = np.random.default_rng(97531)
    checked = 0
    while checked < 200:
        rho = random_density_matrix(rng)
        pt = partial_transpose(rho).matrix
        vals, vecs = np.linalg.eigh(pt)
        if vals[0] >= -1e-6:
            continue
        a_max = np.linalg.svd(vecs[:, 0].reshape(2, 2), compute_uv=False)[0]
        lower = -vals[0] / a_max**2
        assert generalized_robustness(rho).value >= lower - 1e-7
        checked += 1


def test_robustness_needs_a_validated_state():
    from witnesslab import DomainError
    from witnesslab.qmat import HermitianOp

    # unit trace but an eigenvalue of -0.1
    with pytest.raises(DomainError, match="DensityMatrix"):
        generalized_robustness(HermitianOp(np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)))


# ---------------------------------------------------------------------------
# negativity
# ---------------------------------------------------------------------------

def test_negativity_reference_values():
    assert abs(negativity(bell_state(BellKind.PHI_MINUS)) - 0.5) < 1e-12
    assert negativity(IDENTITY) == 0.0
    assert abs(negativity(bd(-0.2, 1.0, 0.2)) - 0.1) < 1e-12
