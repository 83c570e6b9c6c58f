"""The robustness solver's Schur system, its failure paths and its dual
certificate, and metamorphic checks of the value it returns: symmetries and
monotonicity that hold for the exact generalized robustness, so they need
no reference solution."""

import numpy as np
import pytest

from conftest import bd, bd_weights, entangled_ginibre, ginibre_states, haar_unitary, random_density_matrix
from conftest import GAP, check_certified, random_physical_c, stage_inputs
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
from witnesslab.qmat import TWO_SPIN_LABELS, TWO_SPIN_PAULIS, _pt_arr, pauli_coords


def pt(m):
    return partial_transpose(HermitianOp(m)).matrix


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


def slack_blocks(m, x):
    return optim._pauli_blocks(x) + np.stack([np.zeros((4, 4)), m])


def random_pd(rng, n=4):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + 0.1 * np.eye(n)


def test_schur_matrix_is_the_sum_of_traces_over_both_blocks():
    rng = np.random.default_rng(20260)
    signs = [np.ones(16), optim.PT_SIGN]
    for _ in range(4):
        m, x = feasible_point(rng)
        s = slack_blocks(m, x)
        s_inv = np.linalg.inv(s)
        z = np.stack([random_pd(rng), random_pd(rng)])
        inv_l, r = np.linalg.inv(np.linalg.cholesky(s)), np.linalg.cholesky(z)
        want = np.array([
            [
                sum(sign[k] * sign[l] * np.trace(TWO_SPIN_PAULIS[k] @ z[b] @ TWO_SPIN_PAULIS[l] @ s_inv[b]).real
                    for b, sign in enumerate(signs))
                for l in range(16)
            ]
            for k in range(16)
        ])
        got = optim._schur_matrix(inv_l, r)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        np.testing.assert_allclose(got, got.T, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("t", [4.0, 80.0])
def test_newton_system_matches_finite_differences_of_the_barrier(t):
    # on the central path Z_b = S_b^-1 / t: t M is the barrier's Hessian, and the
    # corrector's right-hand side with sigma mu = 1 / t is minus its gradient over t
    rng = np.random.default_rng(20261)
    eye = np.eye(16)
    for _ in range(4):
        m, x = feasible_point(rng)
        inv_l = np.linalg.inv(np.linalg.cholesky(slack_blocks(m, x)))
        s_inv = inv_l.conj().swapaxes(-1, -2) @ inv_l
        # Z_b = R_b R_b^H with R_b = L_b^-H / sqrt(t), any factor serves
        mm = optim._schur_matrix(inv_l, inv_l.conj().swapaxes(-1, -2) / np.sqrt(t))
        rhs = optim._traces(s_inv / t) - 4.0 * optim._E0
        f = lambda y: barrier(y, m, t)  # noqa: E731
        h = 1e-6
        fd_grad = np.array([(f(x + h * e) - f(x - h * e)) / (2 * h) for e in eye])
        np.testing.assert_allclose(-t * rhs, fd_grad, rtol=0, atol=1e-6 * (1 + np.abs(fd_grad).max()))
        h = 1e-4
        fd_hess = np.array([
            [
                (f(x + h * ek + h * el) - f(x + h * ek - h * el)
                 - f(x - h * ek + h * el) + f(x - h * ek - h * el)) / (4 * h * h)
                for el in eye
            ]
            for ek in eye
        ])
        np.testing.assert_allclose(t * mm, fd_hess, rtol=0, atol=1e-5 * np.abs(fd_hess).max())
        np.testing.assert_allclose(mm, mm.T, rtol=0, atol=1e-12 * np.abs(mm).max())


def bracket_bounds(rho):
    """The tightest of the three closed-form brackets of one NPT state: (max(L, L_prod, L_bell), min(U, ...))."""
    m, lam_min, lam, vecs, e, start = stage_inputs(rho.matrix[None])
    low, high, closed, _, _, _ = optim._bracket(e, lam_min)
    low_p, high_p, closed_p, _, _ = optim._product_bracket(m, lam, vecs, optim._PRODUCT_STEPS, start)
    low_b, high_b, closed_b, _, _ = optim._bell_bracket(m)
    assert not closed[0] and not closed_p[0] and not closed_b[0]  # none closes, so the solver runs
    return max(low[0], low_p[0], low_b[0]), min(high[0], high_p[0], high_b[0])


@pytest.mark.usefixtures("longer_search_repeats_the_first")
def test_cholesky_failure_raises_with_bounds(monkeypatch):
    rho = entangled_ginibre(268)  # product class: no bracket closes, so the solver runs
    lam_min = np.linalg.eigvalsh(pt(rho.matrix))[0]
    low, high = bracket_bounds(rho)
    calls = []

    def never_positive_definite(blocks):
        calls.append(blocks)
        nan = np.full(blocks.shape, np.nan, dtype=complex)
        return nan, nan, True

    monkeypatch.setattr(optim, "_cholesky", never_positive_definite)
    with pytest.raises(ConvergenceError, match="not positive definite") as err:
        generalized_robustness(rho)
    assert len(calls) == 1  # the start point's check, and no step taken after it
    start = 4.0 * (1.5 * -lam_min + 0.05)  # Tr of the start point omega = x_0 * identity
    # the start's gap 4 x_0 + 1/2 exceeds its value, so its lower bound is 0: the brackets' bounds are tighter
    assert start > high and low > 0.0
    assert (err.value.lower, err.value.upper) == (low, high)
    assert err.value.upper == pytest.approx(0.105744662899, rel=1e-9)  # the product bracket's U
    assert err.value.lower == pytest.approx(0.105744621141, rel=1e-9)  # and its L


@pytest.mark.usefixtures("longer_search_repeats_the_first")
def test_a_later_cholesky_failure_reports_the_last_checked_bounds(monkeypatch):
    # a rank-2 state of the stress set that no bracket closes: its brackets' bounds are within 3e-8 of the
    # value, so only the last iterate before the solve ends is tighter than them
    rho = DensityMatrix(ginibre_states(np.random.default_rng(20261018), 690)[-1])
    value = generalized_robustness(rho).value
    low, high = bracket_bounds(rho)
    cholesky = optim._cholesky
    # the 3rd iterate's bounds are looser than the brackets', the 8th's tighter on both sides
    for failing_call, iterate_binds in ((4, False), (9, True)):
        calls = []

        def fails_at_that_iterate(blocks):
            calls.append(blocks)
            if len(calls) < failing_call:
                return cholesky(blocks)
            nan = np.full(blocks.shape, np.nan, dtype=complex)
            return nan, nan, True

        monkeypatch.setattr(optim, "_cholesky", fails_at_that_iterate)
        with pytest.raises(ConvergenceError, match="not positive definite") as err:
            generalized_robustness(rho)
        # the last checked iterate's bounds: Tr(omega) = 4 x_0, less the gap from its S and Z
        s, z = calls[-2][:2], calls[-2][2:]
        upper = np.trace(s[0]).real
        gap = sum(np.trace(s[b] @ z[b]).real for b in range(2))
        lower = max(0.0, upper - gap)
        assert (upper < high and lower > low) == iterate_binds
        # the reported interval is the tightest of the iterate's and the three brackets'
        assert err.value.upper == pytest.approx(min(upper, high), rel=1e-14)
        assert err.value.lower == pytest.approx(max(lower, low), rel=1e-12, abs=1e-15)
        assert 0.0 <= err.value.lower <= value <= err.value.upper


def test_an_all_ppt_stack_is_answered_without_a_solve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("_central_path called for a PPT stack")

    monkeypatch.setattr(optim, "_central_path", no_solve)
    rng = np.random.default_rng(515)
    ppt = [np.eye(4) / 4.0, bd(0.3, -0.2, 0.4).matrix]
    ppt += [bd(*random_physical_c(rng)).matrix for _ in range(200)]
    ppt = np.array([m for m in ppt if np.linalg.eigvalsh(pt(m))[0] >= 0.0])
    assert len(ppt) > 20
    values, iterations, omega, failure, lower, witness, route = optim._robustness(_pt_arr(ppt))
    assert not route.any()  # every point PPT
    assert not values.any() and not iterations.any() and not omega.any()
    assert not lower.any() and not witness.any()
    assert failure is None
    result = generalized_robustness(DensityMatrix(ppt[1]))
    assert result.value == 0.0 and result.lower == 0.0 and result.witness is None


def schur_system(rng, singular):
    """A Schur matrix at a random dual point and a right-hand side; a singular one gets rank 15 (row and
    column 5 zeroed)."""
    inv_l = np.linalg.inv(np.linalg.cholesky(slack_blocks(*feasible_point(rng))))
    r = np.linalg.cholesky(np.stack([random_pd(rng), random_pd(rng)]))
    mm = optim._schur_matrix(inv_l, r)
    if singular:
        mm[5, :] = 0.0
        mm[:, 5] = 0.0
    return mm, rng.standard_normal(16)


def test_singular_hessian_takes_the_jittered_step():
    mm, rhs = schur_system(np.random.default_rng(3301), singular=True)
    assert np.linalg.matrix_rank(mm) == 15
    # the solver runs its kernels with invalid-value warnings off: a failed solve is a NaN
    with np.errstate(invalid="ignore"):
        dx = optim._schur_solve(mm, rhs)
    jitter = 1e-10 * np.trace(mm) / 16.0
    assert np.all(np.isfinite(dx))
    assert np.array_equal(dx, np.linalg.solve(mm + jitter * np.eye(16), rhs))
    # a nonsingular M solves as it is, with no jitter
    mm, rhs = schur_system(np.random.default_rng(3302), singular=False)
    assert np.array_equal(optim._schur_solve(mm, rhs), np.linalg.solve(mm, rhs))


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
    """The returned value, its dual lower bound and witness, with both certificates checked (check_certified).

    W^PT >= 0 and W <= 1 make -Tr(W rho) a lower bound on the robustness.
    """
    result = generalized_robustness(rho)
    w = result.witness.matrix
    check_certified(rho.matrix[None], np.array([result.value]), np.array([result.iterations]),
                    result.value * result.certificate_state.matrix[None], np.array([result.lower]), w[None])
    return result.value, result.lower, w


def test_certified_interval_holds_on_ginibre_states():
    for rho in entangled_states(np.random.default_rng(4201), 100):
        value, lower, _ = certified_interval(rho)
        assert lower <= value <= lower + GAP


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
        assert lower <= value <= lower + GAP
        if value >= 0.01:
            want = np.zeros(16)
            want[columns] = optimal_witness(list(BellKind)[int(np.argmax(bd_weights(c)))]).as_tuple()
            np.testing.assert_allclose(pauli_coords(w) / 4.0, want, rtol=0, atol=1e-4)
            checked += 1
    assert checked >= 90


def test_newton_steps_per_npt_solve_stay_within_budget():
    # a count, not a time: the predictor-corrector iterations on a fixed set of states, each solved by the
    # interior-point method itself, since a closed-form bracket closes every one of them and would report 0
    states = entangled_states(np.random.default_rng(4205), 200)
    m = _pt_arr(np.stack([rho.matrix for rho in states]))
    lam_min = np.linalg.eigvalsh(m)[:, 0]
    iterations = np.array([optim._central_path(m[k], lam_min[k])[4] for k in range(len(m))])
    assert len(iterations) == 200 and iterations.min() > 0
    assert iterations.mean() <= 12
    assert iterations.max() <= 20
