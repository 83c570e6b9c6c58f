"""The Bell bracket: bounds of the robustness from the locally optimal Bell witness.

R, the rotation that minimizes tr(R^T T) over the correlation matrix T,
gives W = (1 + sum_ij R_ij sigma_i (x) sigma_j) / 2 with W <= 1 and
W^PT >= 0, so L = -Tr(W rho) bounds the robustness of every state from
below; the minimum-norm omega that complementary slackness with W allows,
lifted by eps 1 until it is feasible, bounds it from above.  These checks
hold both bounds against the solver on the stress sets, the closed
certificates against the state check, L against local unitaries, the
witness against ``bell_witness`` on Bell-diagonal states, and a point's
bits alone and in a stack.  test_robustness_bracket holds the closed
values against a forced solve.
"""

import numpy as np

from conftest import bd, bd_weights, entangled_ginibre, haar_unitary, random_physical_c
from test_robustness_bracket import stress_sets
from test_robustness_stress import bracket_routes, ginibre_states
from witnesslab import BellKind, DensityMatrix, bell_witness, generalized_robustness
from witnesslab import optim
from witnesslab.qmat import TWO_SPIN_LABELS, _pt_arr, pauli_coords

GAP = 1e-8


def test_the_bounds_hold_the_robustness_on_the_stress_sets():
    rho = stress_sets()
    values, _, _, failures, lower, _, lam = optim._robustness(rho)
    assert not failures
    low, high, closed, _, _ = optim._bell_bracket(_pt_arr(rho))
    npt = lam < -optim.NPT_CUT
    # L <= GR <= value on every state, PPT ones too (GR = 0 there), and value - GAP <= lower <= GR <= U
    assert np.all(low <= values + 1e-12)
    assert np.all(low[~npt] <= 1e-12) and (~npt).sum() > 100
    assert np.all(high[npt] >= lower[npt] - 1e-12)
    assert np.all(high >= low)
    # the closed points: U - L below the gap, and L within it of the value
    assert np.all(high[closed] - low[closed] < GAP) and closed[npt].sum() > 1000
    assert np.all(np.abs(values[closed] - low[closed]) <= GAP)
    # the points it closes after the other two brackets are a share of those the solver would take
    _, _, bell, open_gap = bracket_routes(rho)
    assert bell.sum() > 450 and np.count_nonzero(np.isfinite(open_gap) & (open_gap >= GAP)) > 150


def test_closed_certificates_are_states_and_witnesses_are_valid():
    rho = stress_sets()
    m = _pt_arr(rho)
    low, high, closed, omega, witness = optim._bell_bracket(m)
    assert len(omega) == len(witness) == closed.sum() > 1000
    npt = np.linalg.eigvalsh(m[closed])[:, 0] < -optim.NPT_CUT
    for k in np.flatnonzero(npt)[::10]:  # omega over its trace passes the state check as is
        DensityMatrix(omega[k] / np.trace(omega[k]).real)
    np.testing.assert_allclose(np.trace(omega, axis1=1, axis2=2).real, high[closed], rtol=0, atol=1e-12)
    assert np.linalg.eigvalsh(omega)[:, 0].min() >= -1e-15
    assert np.linalg.eigvalsh(m[closed] + _pt_arr(omega))[:, 0].min() >= -1e-15
    # W <= 1 with eigenvalues (-1, 1, 1, 1), W^PT = 2 |f><f| >= 0, and L = -Tr(W rho)
    eig = np.linalg.eigvalsh(witness)
    np.testing.assert_allclose(eig, np.broadcast_to([-1.0, 1.0, 1.0, 1.0], eig.shape), rtol=0, atol=1e-13)
    eig_pt = np.linalg.eigvalsh(_pt_arr(witness))
    np.testing.assert_allclose(eig_pt, np.broadcast_to([0.0, 0.0, 0.0, 2.0], eig.shape), rtol=0, atol=1e-13)
    np.testing.assert_allclose(low[closed], -np.einsum("kab,kba->k", witness, rho[closed]).real, rtol=0, atol=1e-13)


def test_the_lower_bound_does_not_change_under_local_unitaries():
    rng = np.random.default_rng(7701)
    rho = ginibre_states(rng, 200)
    u = np.stack([np.kron(haar_unitary(rng), haar_unitary(rng)) for _ in rho])
    rotated = u @ rho @ u.conj().swapaxes(-1, -2)
    low = optim._bell_bracket(_pt_arr(rho))[0]
    np.testing.assert_allclose(optim._bell_bracket(_pt_arr(rotated))[0], low, rtol=0, atol=1e-14)
    assert np.ptp(low) > 0.5  # states far apart, entangled and not


def test_on_bell_diagonal_states_the_witness_is_that_of_the_largest_weight():
    # L = 2 lambda_max - 1 on every Bell-diagonal state, separable ones with det T > 0 too, where a
    # reflection in place of the rotation would give (c_1 + c_2 + c_3 - 1) / 2 instead
    rng = np.random.default_rng(7702)
    kinds = list(BellKind)
    c = np.stack([random_physical_c(rng) for _ in range(300)])
    rho = np.stack([bd(*ci).matrix for ci in c])
    weights = np.stack([bd_weights(ci) for ci in c])
    low, _, closed, _, witness = optim._bell_bracket(_pt_arr(rho))
    np.testing.assert_allclose(low, 2.0 * weights.max(axis=1) - 1.0, rtol=0, atol=1e-14)
    assert (np.prod(c, axis=1) > 0.0).sum() > 50
    # every entangled one closes, with the bell_witness of its largest weight
    entangled = weights.max(axis=1) > 0.5 + 1e-3
    assert entangled.sum() > 50 and closed[entangled].all()
    columns = [TWO_SPIN_LABELS.index(lab) for lab in ("II", "XX", "YY", "ZZ")]
    for k in np.flatnonzero(entangled):
        want = np.zeros(16)
        want[columns] = bell_witness(kinds[int(np.argmax(weights[k]))]).as_tuple()
        np.testing.assert_allclose(pauli_coords(witness[np.cumsum(closed)[k] - 1]) / 4.0, want, rtol=0, atol=1e-15)


def test_a_point_gives_the_same_bits_alone_and_in_a_stack():
    rho = ginibre_states(np.random.default_rng(7703), 120)
    m = _pt_arr(rho)
    low, high, closed, omega, witness = optim._bell_bracket(m)
    assert 0 < closed.sum() < len(m)
    position = np.cumsum(closed) - 1
    for k in range(len(m)):
        one = optim._bell_bracket(m[k:k + 1])
        assert (one[0].tobytes(), one[1].tobytes(), bool(one[2][0])) == (
            low[k:k + 1].tobytes(), high[k:k + 1].tobytes(), bool(closed[k]))
        if closed[k]:
            assert one[3][0].tobytes() == omega[position[k]].tobytes()
            assert one[4][0].tobytes() == witness[position[k]].tobytes()
    values, iterations, all_omega, _, lower, all_witness, _ = optim._robustness(rho)
    _, _, bell, _ = bracket_routes(rho)
    assert bell.sum() > 10
    for k in np.flatnonzero(bell):
        result = generalized_robustness(DensityMatrix(rho[k]))
        assert (result.value, result.lower, result.iterations) == (values[k], lower[k], 0)
        assert result.witness.matrix.tobytes() == all_witness[k].tobytes()
        assert result.certificate_state.matrix.tobytes() == (all_omega[k] / values[k]).tobytes()


def test_a_point_no_bracket_closes_still_solves():
    rho = entangled_ginibre(13)
    schmidt, product, bell, open_gap = bracket_routes(rho.matrix[None])
    assert not (schmidt | product | bell)[0] and open_gap[0] > 1e-5
    low, high, _, _, _ = optim._bell_bracket(_pt_arr(rho.matrix[None]))
    result = generalized_robustness(rho)
    assert result.iterations > 0 and result.lower <= result.value <= result.lower + GAP
    # its optimal witness is still the Bell witness: L is within the gap, while U is not
    assert low[0] <= result.value <= low[0] + GAP < high[0]
