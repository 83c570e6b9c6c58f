"""The robustness solver's Newton system and line search, and metamorphic
checks of the value it returns: symmetries and monotonicity that hold for
the exact generalized robustness, so they need no reference solution."""

import numpy as np
import pytest

from conftest import bd, bd_weights, random_density_matrix, random_physical_c
from witnesslab import (
    BellKind,
    ConvergenceError,
    DensityMatrix,
    HermitianOp,
    RelaxationParams,
    bell_state,
    generalized_robustness,
    optimal_witness,
    partial_transpose,
    relax_channel,
)
from witnesslab import optim
from witnesslab.qmat import TWO_SPIN_LABELS, TWO_SPIN_PAULIS, pauli_coords
from witnesslab.states import BELL_ORDER

# the barrier stops at t = 1e7 with a duality gap of at most 8 / t
GAP = 8.0e-7


def pt(m):
    return partial_transpose(HermitianOp(m), "I").matrix


def barrier(x, m, t):
    """4t x_0 - log det Omega - log det(m + Omega^PT), Omega = sum_k x_k P_k."""
    omega = sum(xk * p for xk, p in zip(x, TWO_SPIN_PAULIS))
    value = 4.0 * t * x[0]
    for block in (omega, m + pt(omega)):
        sign, logdet = np.linalg.slogdet(block)
        assert abs(sign - 1.0) < 1e-9  # the point stays strictly feasible
        value -= logdet
    return value


def feasible_point(rng):
    """A random rho and a random omega with both barrier blocks positive definite."""
    rho = random_density_matrix(rng)
    m = pt(rho.matrix)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    omega = 0.3 * g @ g.conj().T
    lift = max(0.0, -np.linalg.eigvalsh(m + pt(omega))[0]) + rng.uniform(0.2, 0.6)
    omega = omega + lift * np.eye(4)
    return m, pauli_coords(omega) / 4.0


@pytest.mark.parametrize("t", [4.0, 80.0])
def test_newton_system_matches_finite_differences_of_the_barrier(t):
    rng = np.random.default_rng(20261)
    eye = np.eye(16)
    for _ in range(4):
        m, x = feasible_point(rng)
        shift = np.stack([np.zeros((4, 4)), m])
        grad, hess = optim._gradient_hessian(optim._barrier_blocks(x, shift), 4.0 * t * np.eye(16)[0])
        f = lambda y: barrier(y, m, t)  # noqa: E731
        h = 1e-6
        fd_grad = np.array([(f(x + h * e) - f(x - h * e)) / (2 * h) for e in eye])
        np.testing.assert_allclose(grad, fd_grad, rtol=0, atol=1e-6 * (1 + np.abs(grad).max()))
        h = 1e-4
        fd_hess = np.array([
            [
                (f(x + h * ek + h * el) - f(x + h * ek - h * el)
                 - f(x - h * ek + h * el) + f(x - h * ek - h * el)) / (4 * h * h)
                for el in eye
            ]
            for ek in eye
        ])
        np.testing.assert_allclose(hess, fd_hess, rtol=0, atol=1e-5 * np.abs(hess).max())
        np.testing.assert_allclose(hess, hess.T, rtol=0, atol=1e-12 * np.abs(hess).max())


def test_line_search_failure_raises_with_bounds(monkeypatch):
    rho = bell_state(BellKind.PHI_MINUS)  # rho^PT has min eigenvalue -1/2
    trials = []

    def never_positive_definite(blocks):
        trials.append(blocks)
        return np.arange(len(blocks))

    monkeypatch.setattr(optim, "_not_positive_definite", never_positive_definite)
    with pytest.raises(ConvergenceError, match="line search") as err:
        generalized_robustness(rho)
    assert len(trials) == 60  # the first step's halvings, and no step taken after them
    start = 4.0 * (1.5 * 0.5 + 0.05)  # Tr of the start point omega = alpha * identity
    assert err.value.upper == pytest.approx(start)
    assert err.value.lower == pytest.approx(start - 8.0 / 4.0)


def test_an_all_ppt_stack_is_answered_without_a_solve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("_central_path called for a PPT stack")

    monkeypatch.setattr(optim, "_central_path", no_solve)
    rng = np.random.default_rng(515)
    ppt = [np.eye(4) / 4.0, bd(0.3, -0.2, 0.4).matrix]
    ppt += [bd(*random_physical_c(rng)).matrix for _ in range(200)]
    ppt = np.array([m for m in ppt if np.linalg.eigvalsh(pt(m))[0] >= 0.0])
    assert len(ppt) > 20
    values, iterations, omega, failures = optim._robustness(ppt)
    assert not values.any() and not iterations.any() and not omega.any()
    assert failures == {}
    assert generalized_robustness(DensityMatrix(ppt[1])).value == 0.0


def test_one_unbatched_point_gives_its_verdict_as_an_index_array():
    blocks = feasible_blocks(np.random.default_rng(3303), 1)[0]
    with np.errstate(invalid="ignore"):
        assert optim._not_positive_definite(blocks).tolist() == []
        assert optim._not_positive_definite(-blocks).tolist() == [0]


def singular_at(weight_0, monkeypatch):
    """Make _gradient_hessian return a rank-15 Hessian (row and column 5 zeroed)
    at every point whose weight 4t * e_0 has the given first entry."""
    gradient_hessian = optim._gradient_hessian

    def rank_deficient(blocks, weight):
        grad, hess = gradient_hessian(blocks, weight)
        singular = weight[..., 0] == weight_0
        hess[..., 5, :] = np.where(singular[..., None], 0.0, hess[..., 5, :])
        hess[..., :, 5] = np.where(singular[..., None], 0.0, hess[..., :, 5])
        return grad, hess

    monkeypatch.setattr(optim, "_gradient_hessian", rank_deficient)


def feasible_blocks(rng, n):
    """Barrier blocks of n random strictly feasible points, stacked as (n, 2, 4, 4)."""
    out = []
    for _ in range(n):
        m, x = feasible_point(rng)
        shift = np.stack([np.zeros((4, 4)), m])
        out.append(optim._barrier_blocks(x, shift))
    return np.stack(out)


def test_singular_hessian_takes_the_jittered_step(monkeypatch):
    blocks = feasible_blocks(np.random.default_rng(3301), 1)[0]
    weight = 4.0 * 80.0 * np.eye(16)[0]
    singular_at(weight[0], monkeypatch)
    grad, hess = optim._gradient_hessian(blocks, weight)
    assert np.linalg.matrix_rank(hess) == 15
    # the solver runs its kernels with invalid-value warnings off: a failed solve is a NaN row
    with np.errstate(invalid="ignore"):
        step, decrement = optim._newton_direction(blocks, weight)
    jitter = 1e-10 * np.trace(hess) / 16.0
    assert np.all(np.isfinite(step))
    assert np.array_equal(step, np.linalg.solve(hess + jitter * np.eye(16), -grad))
    assert decrement == -grad @ step


def test_singular_rows_of_a_stack_are_the_only_ones_solved_again(monkeypatch):
    n = 7
    blocks = feasible_blocks(np.random.default_rng(3302), n)
    weight = 4.0 * np.array([4.0, 80.0, 4.0, 4.0, 80.0, 80.0, 4.0])[:, None] * np.eye(16)[0]
    singular_at(4.0 * 80.0, monkeypatch)
    jittered = []
    jittered_solve = optim._jittered_solve

    def spy(hess, neg_grad):
        jittered.append(hess)
        return jittered_solve(hess, neg_grad)

    monkeypatch.setattr(optim, "_jittered_solve", spy)
    with np.errstate(invalid="ignore"):
        step, decrement = optim._newton_direction(blocks, weight)
        assert len(jittered) == 3  # rows 1, 4 and 5
        assert np.all(np.isfinite(step))
        for i in range(n):
            single_step, single_decrement = optim._newton_direction(blocks[i], weight[i])
            assert np.array_equal(step[i], single_step)
            assert decrement[i] == single_decrement
    assert len(jittered) == 6  # and once more each on its own


def haar_unitary(rng):
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def entangled_states(rng, n):
    out = []
    while len(out) < n:
        rho = random_density_matrix(rng)
        if np.linalg.eigvalsh(pt(rho.matrix))[0] < -1e-3:
            out.append(rho)
    return out


def test_robustness_is_invariant_under_local_unitaries():
    rng = np.random.default_rng(4101)
    for rho in entangled_states(rng, 15):
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
        assert abs(generalized_robustness(rotated).value - generalized_robustness(rho).value) <= 1e-7


def test_robustness_is_convex_under_mixing():
    rng = np.random.default_rng(4103)
    states = entangled_states(rng, 16)
    for a, b in zip(states[::2], states[1::2]):
        ra, rb = generalized_robustness(a).value, generalized_robustness(b).value
        for p in (0.2, 0.5, 0.8):
            mix = DensityMatrix(p * a.matrix + (1 - p) * b.matrix)
            assert generalized_robustness(mix).value <= p * ra + (1 - p) * rb + GAP


def test_robustness_does_not_increase_under_local_relaxation():
    rng = np.random.default_rng(4107)
    params = RelaxationParams()
    for rho in [bell_state(BellKind.PHI_MINUS), *entangled_states(rng, 4)]:
        values = [generalized_robustness(relax_channel(rho, t, params)).value
                  for t in np.linspace(0.0, 0.4, 9)]
        assert values[0] > 0.0
        assert np.all(np.diff(values) <= GAP)


def certified_interval(rho):
    """The returned value and the dual lower bound built from its certificate.

    B = ((rho + omega)^PT)^-1 / t at the final weight t = 1e7 gives the
    witness W = B^PT / max(1, lambda_max(B^PT)): W^PT >= 0 and W <= 1 hold by
    construction, so -Tr(W rho) is a lower bound on the robustness.
    """
    result = generalized_robustness(rho)
    omega = result.value * result.certificate_state.matrix
    b = np.linalg.inv(pt(rho.matrix + omega)) / 1.0e7
    w = pt((b + b.conj().T) / 2.0)
    w = w / max(1.0, np.linalg.eigvalsh(w)[-1])
    return result.value, -np.trace(w @ rho.matrix).real, w


def test_certified_interval_holds_on_ginibre_states():
    for rho in entangled_states(np.random.default_rng(4201), 100):
        value, lower, _ = certified_interval(rho)
        assert lower <= value <= lower + 8.1e-7


def test_dual_witness_of_a_bell_diagonal_state_is_the_optimal_witness_lp():
    # the paper's two halves: the robustness solver's dual and the exact witness LP
    rng = np.random.default_rng(4203)
    columns = [TWO_SPIN_LABELS.index(label) for label in ("II", "XX", "YY", "ZZ")]
    checked = 0
    for _ in range(100):
        c = random_physical_c(rng)
        while bd_weights(c).max() <= 0.5:  # NPT: one Bell weight above 1/2
            c = random_physical_c(rng)
        value, lower, w = certified_interval(bd(*c))
        assert lower <= value <= lower + 8.1e-7
        if value >= 0.01:
            want = np.zeros(16)
            want[columns] = optimal_witness(BELL_ORDER[int(np.argmax(bd_weights(c)))]).as_tuple()
            np.testing.assert_allclose(pauli_coords(w) / 4.0, want, rtol=0, atol=1e-4)
            checked += 1
    assert checked >= 90


def test_newton_steps_per_npt_solve_stay_within_budget():
    # a count, not a time: the barrier schedule's cost on a fixed set of states
    states = entangled_states(np.random.default_rng(4205), 200)
    _, iterations, _, failures = optim._robustness(np.stack([rho.matrix for rho in states]))
    assert not failures
    assert iterations.mean() <= 30
    assert iterations.max() <= 50
