"""The robustness solver on a large seeded set: every solve converges, with
a certified gap of at most 1e-8 and a certificate that verifies to 1e-9.
The pure and Bell-like states take the closed-form bracket, most states
whose optimal omega is a product pure state take the product bracket, and
nearly all states whose optimal witness is a locally rotated Bell witness
take the Bell bracket, completed where its minimum-norm omega is not PSD;
all three must meet the same certificate checks with no interior-point
iteration.  The few states left to the solver are product class.  A forced
solve of every entangled state holds the solver itself to those checks on
the whole set.

The inputs are 2,400 Ginibre states of rank 1 to 4 (rank-deficient states
put the optimum on the boundary of both cones, where an interior-point
method is hardest pressed), the Bell states, pseudo-pure phi- at eps = 0.34
and just above its separability threshold 1/3, and the GRAPE state.
"""

import numpy as np

from conftest import stage_inputs
from witnesslab import BellKind, DensityMatrix, bell_state, generalized_robustness, pseudo_pure
from witnesslab import grape_target_pipeline, optim
from witnesslab.qmat import _pt_arr

GAP = 1e-8
RESIDUAL = 1e-9


def ginibre_states(rng, n):
    """n density matrices G G^H / Tr, with G 4 x r complex Gaussian and r = 1, 2, 3, 4 in turn."""
    out = np.empty((n, 4, 4), dtype=complex)
    for i in range(n):
        r = 1 + i % 4
        g = rng.standard_normal((4, r)) + 1j * rng.standard_normal((4, r))
        rho = g @ g.conj().T
        out[i] = rho / np.trace(rho).real
    return out


def named_states():
    phi_minus = bell_state(BellKind.PHI_MINUS)
    states = [bell_state(kind) for kind in BellKind]
    states += [pseudo_pure(0.34, phi_minus), pseudo_pure(1.0 / 3.0 + 1e-4, phi_minus), grape_target_pipeline()]
    return np.stack([rho.matrix for rho in states])


def bracket_routes(rho):
    """Where each state of a stack goes: the masks of the NPT states that _bracket closes, of those that
    _product_bracket closes after it, and of those that _bell_bracket closes after both, and the smaller of
    the product and Bell brackets' |U - L| of every NPT state (inf for PPT)."""
    npt = np.linalg.eigvalsh(_pt_arr(rho))[:, 0] < -optim.NPT_CUT
    m, lam_min, lam, vecs, e, start = stage_inputs(rho)
    schmidt, product, bell = (np.zeros(len(rho), bool) for _ in range(3))
    open_gap = np.full(len(rho), np.inf)
    schmidt[npt] = optim._bracket(e, lam_min)[2]
    low, high, product[npt], _, _ = optim._product_bracket(m, lam, vecs, optim._PRODUCT_STEPS, start)
    low_b, high_b, bell[npt], _, _ = optim._bell_bracket(m)
    open_gap[npt] = np.fmin(np.abs(high - low), np.abs(high_b - low_b))
    product &= ~schmidt
    return schmidt, product, bell & ~schmidt & ~product, open_gap


def check_certified(rho, values, iterations, omega, lower, witness):
    npt = np.linalg.eigvalsh(_pt_arr(rho))[:, 0] < -1e-12
    assert np.array_equal(values > 0, npt)
    assert not iterations[~npt].any() and not lower[~npt].any()
    # lower <= value exactly on both paths: a solve stops inside its gap, and the
    # closed form (no iteration) clamps L to U where they differ by rounding
    gap = values[npt] - lower[npt]
    assert np.all(gap >= 0.0) and np.all(gap <= GAP)
    # the primal certificate: (rho + omega)^PT >= 0, with omega >= 0 and Tr omega = value
    np.testing.assert_allclose(np.trace(omega[npt], axis1=1, axis2=2).real, values[npt], rtol=0, atol=1e-12)
    mix = (rho[npt] + omega[npt]) / (1.0 + values[npt])[:, None, None]
    assert np.linalg.eigvalsh(_pt_arr(mix))[:, 0].min() >= -RESIDUAL
    assert np.linalg.eigvalsh(omega[npt])[:, 0].min() >= -RESIDUAL
    # the dual certificate: W^PT >= 0 and W <= 1, and lower = -Tr(W rho)
    w = witness[npt]
    assert np.linalg.eigvalsh(_pt_arr(w))[:, 0].min() >= -1e-12
    assert np.linalg.eigvalsh(w)[:, -1].max() <= 1.0 + 1e-12
    np.testing.assert_allclose(lower[npt], -np.einsum("kab,kba->k", w, rho[npt]).real, rtol=0, atol=1e-12)
    return npt


def test_every_seeded_ginibre_solve_is_certified(monkeypatch):
    # the longer search only repeats the first: the solver takes what the brackets leave
    monkeypatch.setattr(optim, "_PRODUCT_STEPS_LAST", optim._PRODUCT_STEPS)
    rho = ginibre_states(np.random.default_rng(20261018), 2400)
    values, iterations, omega, failures, lower, witness, _ = optim._robustness(_pt_arr(rho))
    assert not failures
    npt = check_certified(rho, values, iterations, omega, lower, witness)
    assert npt.sum() > 2000
    assert iterations[npt].max() <= 20
    # every pure state (rank 1, every fourth) takes the closed form, whose bracket closes to rounding
    pure = np.arange(len(rho)) % 4 == 0
    assert npt[pure].all() and not iterations[pure].any()
    assert np.all(values[pure] - lower[pure] <= 1e-15)
    # four routes: the closed form, the product bracket, the Bell bracket, then the solver for what none closes
    schmidt, product, bell, open_gap = bracket_routes(rho)
    solved = iterations > 0
    assert np.array_equal(solved, npt & ~schmidt & ~product & ~bell)
    assert np.all(open_gap[solved] >= GAP)
    assert product[~pure].sum() > 700 and bell.sum() > 700 and 10 < solved.sum() < 30
    # what still solves is product class: the Bell witness is not optimal there, its L more than the gap below GR
    assert np.all(optim._bell_bracket(_pt_arr(rho[solved]))[0] < values[solved] - GAP)
    # the solver itself on every NPT state, closed or not: a forced solve meets the same checks
    values, lower, iterations = np.zeros(len(rho)), np.zeros(len(rho)), np.zeros(len(rho), int)
    omega, witness = np.zeros_like(rho), np.zeros_like(rho)
    m = _pt_arr(rho)
    lam_min = np.linalg.eigvalsh(m)[:, 0]
    for k in np.flatnonzero(npt):
        omega[k], values[k], lower[k], witness[k], iterations[k] = optim._central_path(m[k], lam_min[k])
    assert iterations[npt].all() and iterations.max() <= 20
    check_certified(rho, values, iterations, omega, lower, witness)


def test_a_solved_point_gets_from_the_solver_alone_what_the_robustness_stores(monkeypatch):
    # the solver is the last stage: like a closed bracket, it gives its point omega, value, lower and witness
    # the longer search only repeats the first: the solver takes what the brackets leave
    monkeypatch.setattr(optim, "_PRODUCT_STEPS_LAST", optim._PRODUCT_STEPS)
    rho = ginibre_states(np.random.default_rng(20261020), 1200)
    values, iterations, omega, failure, lower, witness, lam_min = optim._robustness(_pt_arr(rho))
    assert failure is None
    solved = np.flatnonzero(iterations)
    assert len(solved) >= 5
    m = _pt_arr(rho)
    alone = [optim._central_path(m[k], lam_min[k]) for k in solved]
    for k, (omega_k, value, lower_k, witness_k, iterations_k) in zip(solved, alone):
        assert omega_k.tobytes() == omega[k].tobytes() and witness_k.tobytes() == witness[k].tobytes()
        assert np.float64(value).tobytes() == values[k].tobytes()
        assert np.float64(lower_k).tobytes() == lower[k].tobytes()
        assert iterations_k == iterations[k]
    # and they pass the certificate checks, as the stack's points do
    fields = [np.array([solve[j] for solve in alone]) for j in (1, 4, 0, 2, 3)]
    assert check_certified(rho[solved], *fields).all()
    check_certified(rho, values, iterations, omega, lower, witness)


def test_named_states_are_certified_alone_and_together():
    rho = named_states()
    values, iterations, omega, failures, lower, witness, _ = optim._robustness(_pt_arr(rho))
    assert not failures
    npt = check_certified(rho, values, iterations, omega, lower, witness)
    assert npt.all()
    np.testing.assert_allclose(values, [1, 1, 1, 1, 0.01, 1.5e-4, 0.2], rtol=0, atol=GAP)
    # Bell-diagonal and pure (GRAPE) states: the closed form, with no interior-point iteration
    assert not iterations.any()
    assert np.array_equal(lower[:6], values[:6]) and values[6] - lower[6] <= 1e-15
    for k, matrix in enumerate(rho):
        result = generalized_robustness(DensityMatrix(matrix))
        assert (result.value, result.lower, result.iterations) == (values[k], lower[k], iterations[k])
        assert np.array_equal(result.witness.matrix, witness[k])
        assert np.array_equal(result.certificate_state.matrix, omega[k] / values[k])


def test_every_certificate_passes_the_state_check():
    # the certificate is made without the DensityMatrix check: omega over its
    # trace is a state by construction, so the check must accept it as is
    rho = np.concatenate([named_states(), ginibre_states(np.random.default_rng(20261019), 200)])
    certified = 0
    for matrix in rho:
        cert = generalized_robustness(DensityMatrix(matrix)).certificate_state
        if cert is not None:
            DensityMatrix(cert.matrix)  # raises unless it is a state within PSD_TOL
            certified += 1
    assert certified > 150
    _, product, bell, _ = bracket_routes(rho)
    assert product.sum() > 50 and bell.sum() > 50  # among them, points the product and Bell brackets close
