"""The Bell bracket: bounds of the robustness from the locally optimal Bell witness.

R, the rotation that minimizes tr(R^T T) over the correlation matrix T,
gives W = (1 + sum_ij R_ij sigma_i (x) sigma_j) / 2 with W <= 1 and
W^PT >= 0, so L = -Tr(W rho) bounds the robustness of every state from
below; an omega that complementary slackness with W allows, the one the
completion reaches from the minimum-norm one, lifted by eps 1 until it is
feasible, bounds it from above.  These checks hold both bounds against the
solver on the stress sets, the closed certificates against the state
check, L against local unitaries, the witness against ``bell_witness`` on
Bell-diagonal states, a point's bits alone and in a stack, the completion
against the minimum-norm omega it starts from and against a forced solve,
a product-class point against the solver, and that no point whose L is
already more than the gap below a lower bound in hand closes, completion
or not.
test_robustness_bracket holds the closed values against a forced solve.
"""

import warnings

import numpy as np
import pytest

from conftest import GAP, PAPER_T2, ROUTES, bd, bd_weights, bench_robustness_inputs, entangled_ginibre, ginibre_states
from conftest import haar_unitary, isotropic_with_bloch, named_states, random_physical_c, relaxed_states, route_names
from conftest import stage_inputs, stress_sets
from witnesslab import BellKind, DensityMatrix, bell_witness, generalized_robustness
from witnesslab import optim
from witnesslab.qmat import TWO_SPIN_LABELS, _pt_arr, from_pauli_coords, pauli_coords


def test_the_bounds_hold_the_robustness_on_the_stress_sets(stress_robustness):
    rho, values, _, _, _, lower, _, route = stress_robustness
    low, high, closed, _, _ = optim._bell_bracket(_pt_arr(rho))
    npt = route != 0
    # L <= GR <= value on every state, PPT ones too (GR = 0 there), and value - GAP <= lower <= GR <= U
    assert np.all(low <= values + 1e-12)
    assert np.all(low[~npt] <= 1e-12) and (~npt).sum() > 100
    assert np.all(high[npt] >= lower[npt] - 1e-12)
    assert np.all(high >= low)
    # the closed points: U - L below the gap, and L within it of the value
    assert np.all(high[closed] - low[closed] < GAP) and closed[npt].sum() > 1300
    assert np.all(np.abs(values[closed] - low[closed]) <= GAP)
    # it closes most points the other two brackets leave open; the few it leaves are product class,
    # where W is not optimal: L sits more than the gap below the robustness
    bell, still_open = ROUTES[route] == "bell", ROUTES[route] == "longer search"
    assert bell.sum() > 700 and 10 < still_open.sum() < 30
    assert np.all(low[still_open] < values[still_open] - GAP)


def test_closed_certificates_are_states_and_witnesses_are_valid():
    rho = stress_sets()
    m = _pt_arr(rho)
    low, high, closed, omega, coords = optim._bell_bracket(m)
    assert len(omega) == len(coords) == closed.sum() > 1000
    witness = from_pauli_coords(coords)  # the matrix _robustness builds of W's coordinates
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
    low, _, closed, _, coords = optim._bell_bracket(_pt_arr(rho))
    np.testing.assert_allclose(low, 2.0 * weights.max(axis=1) - 1.0, rtol=0, atol=1e-14)
    assert (np.prod(c, axis=1) > 0.0).sum() > 50
    # every entangled one closes, with the bell_witness of its largest weight
    entangled = weights.max(axis=1) > 0.5 + 1e-3
    assert entangled.sum() > 50 and closed[entangled].all()
    columns = [TWO_SPIN_LABELS.index(lab) for lab in ("II", "XX", "YY", "ZZ")]
    for k in np.flatnonzero(entangled):
        want = np.zeros(16)
        want[columns] = bell_witness(kinds[int(np.argmax(weights[k]))]).as_tuple()
        witness = from_pauli_coords(coords[np.cumsum(closed)[k] - 1])
        np.testing.assert_allclose(pauli_coords(witness) / 4.0, want, rtol=0, atol=1e-15)


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
    values, iterations, all_omega, _, lower, all_witness, route = optim._robustness(_pt_arr(rho))
    bell = ROUTES[route] == "bell"
    assert bell.sum() > 10
    for k in np.flatnonzero(bell):
        result = generalized_robustness(DensityMatrix(rho[k]))
        assert (result.value, result.lower, result.iterations) == (values[k], lower[k], 0)
        assert result.witness.matrix.tobytes() == all_witness[k].tobytes()
        assert result.certificate_state.matrix.tobytes() == (all_omega[k] / values[k]).tobytes()


def test_the_completion_closes_the_points_the_minimum_norm_omega_leaves_open(monkeypatch):
    rho = np.stack([entangled_ginibre(13).matrix, entangled_ginibre(20).matrix, isotropic_with_bloch(0.4, 0.3).matrix])
    m = _pt_arr(rho)
    low, high, closed, omega, coords = optim._bell_bracket(m)
    assert closed.all() and np.all(low <= high) and np.all(high - low <= 1e-15)
    # omega >= 0 and (rho + omega)^PT >= 0 by the full 4x4 eigvalsh, and Tr omega = U
    assert np.linalg.eigvalsh(omega)[:, 0].min() >= 0.0
    assert np.linalg.eigvalsh(m + _pt_arr(omega))[:, 0].min() >= 0.0
    np.testing.assert_allclose(np.trace(omega, axis1=1, axis2=2).real, high, rtol=0, atol=1e-15)
    # each value within 1e-8 of a forced solve's
    lam_min = np.linalg.eigvalsh(m)[:, 0]
    solves = [optim._central_path(m[k], lam_min[k]) for k in range(len(rho))]
    assert all(iterations for _, _, _, _, iterations in solves)
    assert np.all(np.abs(high - [value for _, value, _, _, _ in solves]) <= GAP)
    for k in range(len(rho)):
        result = generalized_robustness(DensityMatrix(rho[k]))
        assert (result.value, result.iterations) == (high[k], 0)
        assert result.lower <= result.value <= result.lower + GAP
        assert result.certificate_state.matrix.tobytes() == (omega[k] / high[k]).tobytes()
        assert result.witness.matrix.tobytes() == from_pauli_coords(coords[k]).tobytes()
    # the minimum-norm omega alone leaves each of them open, with the same L
    monkeypatch.setattr(optim, "_COMPLETION_STEPS", 0)
    low_0, high_0, closed_0, _, _ = optim._bell_bracket(m)
    assert not closed_0.any() and np.all(high_0 - low_0 > 1e-4) and np.array_equal(low_0, low)


def test_the_completion_keeps_every_point_the_minimum_norm_omega_closes_and_loosens_none(monkeypatch):
    # the minimum-norm omega is the completion's step 0, so no second lift of it is needed
    m = stage_inputs(stress_sets())[0]  # the NPT points' partial transposes
    low, high, closed, omega, witness = optim._bell_bracket(m)
    monkeypatch.setattr(optim, "_COMPLETION_STEPS", 0)
    low_0, high_0, closed_0, omega_0, witness_0 = optim._bell_bracket(m)
    assert len(m) > 2000 and np.array_equal(low, low_0)
    # the closed mask only grows, and the completion closes points of its own
    assert closed[closed_0].all() and closed_0.sum() > 1000 and (closed & ~closed_0).sum() > 100
    # a point closed at 0 steps keeps its U, omega and witness bit for bit
    kept = (np.cumsum(closed) - 1)[closed_0]
    assert high[closed_0].tobytes() == high_0[closed_0].tobytes()
    assert omega[kept].tobytes() == omega_0.tobytes() and witness[kept].tobytes() == witness_0.tobytes()
    # U is never above the 0-step U, and below it on most points the minimum-norm omega leaves open
    assert np.all(high <= high_0) and (high < high_0).sum() > 1000


@pytest.mark.usefixtures("longer_search_repeats_the_first")
def test_a_point_no_bracket_closes_still_solves():
    rho = entangled_ginibre(268)  # product class: the Bell witness is not optimal, so no omega of its set is feasible
    assert route_names(rho.matrix[None]).tolist() == ["solved"]
    m, _, lam, vecs, _, start = stage_inputs(rho.matrix[None])
    low_p, high_p, _, _, _ = optim._product_bracket(m, lam, vecs, optim._PRODUCT_STEPS, start)
    assert abs(high_p[0] - low_p[0]) > GAP  # the product bracket sits 4e-8 open
    low, high, _, _, _ = optim._bell_bracket(_pt_arr(rho.matrix[None]))
    result = generalized_robustness(rho)
    assert result.iterations > 0 and result.lower <= result.value <= result.lower + GAP
    # L more than the gap below the value, and the completion's U above it
    assert low[0] < result.value - GAP < result.value < high[0]


def test_the_completion_takes_a_bounded_number_of_steps(monkeypatch):
    # one Cholesky of the compressions per Newton step, and none elsewhere in the bracket
    steps = counted_choleskys(monkeypatch)
    assert optim._COMPLETION_STEPS <= 25
    bell_class = [entangled_ginibre(13), entangled_ginibre(20), isotropic_with_bloch(0.4, 0.3)]
    product_class = [entangled_ginibre(seed) for seed in (83, 268, 385)]
    for rho, closes in [(rho, True) for rho in bell_class] + [(rho, False) for rho in product_class]:
        steps.append(0)
        assert optim._bell_bracket(_pt_arr(rho.matrix[None]))[2][0] == closes
    # the Bell class closes within a few steps; the product class stalls below t = 0 well before the cap
    assert all(0 < n <= 8 for n in steps[:3]) and all(3 <= n < optim._COMPLETION_STEPS // 2 for n in steps[3:])
    # a cap of one step bounds every point alike
    monkeypatch.setattr(optim, "_COMPLETION_STEPS", 1)
    steps.append(0)
    optim._bell_bracket(_pt_arr(np.stack([rho.matrix for rho in bell_class + product_class])))
    assert steps[-1] == 1


@pytest.mark.parametrize("lanes", [False, True])
def test_a_failed_newton_step_ends_the_search_at_its_last_iterate(lanes, monkeypatch):
    # a Cholesky that fails on the second step: the point keeps the first step's omega, with no warning
    # (the suite runs with RuntimeWarning as an error) and a finite U no looser than the minimum-norm one, whether the
    # step's bookkeeping runs on floats or on lanes
    rho = np.stack([entangled_ginibre(13).matrix, entangled_ginibre(268).matrix])
    m = _pt_arr(rho)
    monkeypatch.setattr(optim, "_COMPLETION_STEPS", 0)
    low_0, high_0, _, _, _ = optim._bell_bracket(m)
    monkeypatch.setattr(optim, "_COMPLETION_STEPS", 1)
    low_1, high_1, _, _, _ = optim._bell_bracket(m)
    monkeypatch.undo()
    monkeypatch.setattr(optim, "_LANES", 0 if lanes else 10 ** 9)
    lapack, calls = optim._umath_linalg, []

    class FailsOnTheSecondStep:
        def __getattr__(self, name):
            return getattr(lapack, name)

        @staticmethod
        def cholesky_lo(blocks, **kwargs):
            calls.append(len(blocks))
            chol = lapack.cholesky_lo(blocks, **kwargs)
            return chol if len(calls) == 1 else np.full_like(chol, np.nan)

    monkeypatch.setattr(optim, "_umath_linalg", FailsOnTheSecondStep())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        low, high, closed, _, _ = optim._bell_bracket(m)
    assert calls == [2, 2] and not closed.any()
    assert np.array_equal(low, low_0) and np.array_equal(high, high_1) and np.all(high < high_0)


def test_no_point_below_a_lower_bound_in_hand_closes_in_the_bell_bracket():
    # where L <= max(L_schmidt, L_product) - gap, U >= GR >= L + gap: no omega of the completion's set closes the
    # point, so every point that reaches the Bell bracket may take the completion without a change of route
    m, lam_min, lam, vecs, e, start = stage_inputs(stress_sets())
    low_s, _, closed_s, _, _, _ = optim._bracket(e, lam_min)
    low_p, _, closed_p, _, _ = optim._product_bracket(m, lam, vecs, optim._PRODUCT_STEPS, start)
    left = ~closed_s & ~closed_p  # the points that reach the Bell bracket, and the lower bound they hold
    floor = np.fmax(low_s, low_p)[left]
    low, high, closed, _, _ = optim._bell_bracket(m[left])
    assert not closed[low <= floor - GAP].any() and (~closed).sum() > 10


def counted_choleskys(monkeypatch):
    """A list whose last entry counts every Cholesky of optim's LAPACK calls from the time it is appended."""
    steps = []
    lapack = optim._umath_linalg

    class Counted:
        def __getattr__(self, name):
            return getattr(lapack, name)

        @staticmethod
        def cholesky_lo(*args, **kwargs):
            steps[-1] += 1
            return lapack.cholesky_lo(*args, **kwargs)

    monkeypatch.setattr(optim, "_umath_linalg", Counted())
    return steps


def test_the_completion_takes_steps_on_product_class_points_and_its_own_on_bell_class_points(monkeypatch):
    # every Cholesky of a robustness call counted: the completion's, one per Newton step, and the solver's
    steps = counted_choleskys(monkeypatch)
    bell_class = [entangled_ginibre(13), entangled_ginibre(20), isotropic_with_bloch(0.4, 0.3)]
    product_class = [entangled_ginibre(seed) for seed in (83, 268, 385)]
    for rho in bell_class + product_class:
        steps.append(0)
        _, iterations, _, failures, _, _, _ = optim._robustness(_pt_arr(rho.matrix[None]))
        assert not failures and iterations[0] == 0
    for rho in bell_class + product_class:  # and the Bell bracket alone on each
        steps.append(0)
        optim._bell_bracket(stage_inputs(rho.matrix[None])[0])
    robustness, alone = steps[:6], steps[6:]
    # the product class takes 3 or more steps and the Bell class a positive count, each as many as its bracket alone
    assert all(n >= 3 for n in robustness[3:]) and all(n > 0 for n in robustness[:3])
    assert robustness == alone


def completion_inputs(rho):
    """What _bell_bracket hands its completion for the NPT states of a stack: yx and the rotations r."""
    captured = []
    completion = optim._bell_completion
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optim, "_bell_completion", lambda yx, r: (captured.append((yx, r)), completion(yx, r))[1])
        optim._bell_bracket(stage_inputs(rho)[0])
    return captured[0]


def test_a_completion_with_no_step_adds_no_correction(monkeypatch):
    # only the points that step take the correction sum_j z_j S_j R; the others keep the minimum-norm omega's
    # coordinates as they are, where adding a zero correction would only turn a -0.0 into +0.0
    bds = np.stack([bd(*c).matrix for c in ([-0.9, -0.8, -0.7], [0.3, -0.9, 0.4], [0.5, 0.5, -0.9])])
    rho = np.concatenate([bds, named_states(), stress_sets(), bench_robustness_inputs()])
    # the Bell-route points of a relaxed isotropic state with a Bloch vector, whose minimum-norm omega has a -0.0
    # coordinate, and of them those whose minimum-norm compressions are PSD: each alone takes no Newton step
    isotropic = relaxed_states(isotropic_with_bloch(), np.linspace(0.0, 0.05, 40), PAPER_T2)
    bell = route_names(isotropic) == "bell"
    yx, r = completion_inputs(isotropic[bell])
    steps = counted_choleskys(monkeypatch)
    for k in range(len(yx)):
        steps.append(0)
        optim._bell_completion(yx[k:k + 1], r[k:k + 1])
    monkeypatch.undo()
    no_step = np.array(steps) == 0
    yx, r = yx[no_step], r[no_step]
    assert bell.sum() > 30 and len(yx) > 30 and np.signbit(yx[:, 0, 1, 2]).all()
    completed = optim._bell_completion(yx, r)  # no point steps
    assert completed.tobytes() == yx[:, 0].tobytes() and np.signbit(completed[:, 1, 2]).all()
    completion = optim._bell_completion

    def zero_correction_everywhere(yx, r):
        y = completion(yx, r).copy()
        y[:, 1:, 1:] += (np.zeros((len(y), 1, 5)) @ optim._CORRELATION_BASIS).reshape(-1, 3, 3) @ r
        return y

    m = stage_inputs(rho)[0]  # the NPT points' partial transposes
    skipped, robustness = optim._bell_bracket(m), optim._robustness(_pt_arr(rho))
    monkeypatch.setattr(optim, "_bell_completion", zero_correction_everywhere)
    added, robustness_added = optim._bell_bracket(m), optim._robustness(_pt_arr(rho))
    low, high, closed, omega, witness = skipped
    assert closed.sum() > 1000 and (~closed).sum() > 100
    # L, U, the closure, the value and the witness keep their bytes; omega may differ in the sign of a zero only
    for a, b in zip((low, high, closed, witness), (added[0], added[1], added[2], added[4])):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(omega, added[3])
    values, _, all_omega, failures, lower, all_witness, _ = robustness
    assert not failures and not robustness_added[3]
    for a, b in zip((values, lower, all_witness), (robustness_added[0], robustness_added[4], robustness_added[5])):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(all_omega, robustness_added[2])
