"""The closed-form two-qubit robustness bracket L <= GR <= U.

rho^PT has at most one negative eigenvalue lam; with e its eigenvector and
a >= b the Schmidt coefficients of e, L = |lam| / a^2 comes from the dual
witness (|e><e|)^PT / a^2 and U = |lam| (1 + 4ab) / (1 + ab) from an explicit
primal omega.  Where U - L is below the solver's gap the robustness takes
the closed form with no interior-point iteration.  These checks hold the
bracket against the solver, the Bell-diagonal oracle and 2 |lam|, and
every closed form, this one's and the product and Bell brackets', against a
forced solve.
"""

import numpy as np

from conftest import GAP, ROUTES, bd, bd_weights, check_certified, haar_unitary, random_physical_c, stage_inputs
from conftest import stress_sets
from witnesslab import BellDiagonalParams, DensityMatrix, generalized_robustness, gr_oracle_bd
from witnesslab import optim
from witnesslab.qmat import _eigh, _pt_arr


def npt_bracket(rho):
    """L, U and the closed mask of the NPT states of a (k, 4, 4) stack, with those states and their lambda_min."""
    npt = np.linalg.eigvalsh(_pt_arr(rho))[:, 0] < -optim.NPT_CUT
    _, lam_min, _, _, e, _ = stage_inputs(rho)  # e: the eigenvectors of the negative eigenvalues
    low, high, closed, _, _, _ = optim._bracket(e, lam_min)
    return low, high, closed, rho[npt], lam_min


def rotated_bell_diagonal(rng, n):
    """n entangled Bell-diagonal states, each turned by a random local unitary on both spins."""
    out = []
    while len(out) < n:
        c = random_physical_c(rng)
        if bd_weights(c).max() > 0.5 + 1e-3:
            u = np.kron(haar_unitary(rng), haar_unitary(rng))
            out.append(u @ bd(*c).matrix @ u.conj().T)
    return np.stack(out)


def pure_states(rng, n):
    """n Haar-random pure two-qubit states |psi><psi|."""
    psi = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    return psi[:, :, None] * psi[:, None, :].conj()


def test_the_bracket_holds_the_robustness_on_the_stress_sets(stress_robustness):
    rho, values, _, _, _, lower, _, route = stress_robustness
    low, high, _, _, _ = npt_bracket(rho)
    npt = route != 0
    assert npt.sum() > 2000
    # L <= GR <= value to rounding, and value <= U within the solver's gap
    assert np.all(low <= values[npt] * (1.0 + 1e-14))
    assert np.all(values[npt] <= high + GAP)
    assert np.all(low - GAP <= lower[npt])
    assert np.all(high >= low * (1.0 - 1e-14))


def test_the_bracket_is_exact_on_rotated_bell_diagonal_and_pure_states():
    rng = np.random.default_rng(5501)
    for rho in (rotated_bell_diagonal(rng, 200), pure_states(rng, 200)):
        low, high, closed, states, lam = npt_bracket(rho)
        assert len(states) == len(rho) and closed.all()
        np.testing.assert_allclose(low, -2.0 * lam, rtol=0, atol=1e-12)
        np.testing.assert_allclose(high, -2.0 * lam, rtol=0, atol=1e-12)


def test_the_closed_form_is_certified_on_rotated_bell_diagonal_states():
    rho = rotated_bell_diagonal(np.random.default_rng(5502), 200)
    values, iterations, omega, failures, lower, witness, route = optim._robustness(_pt_arr(rho))
    assert not failures and np.all(ROUTES[route] == "schmidt")
    assert check_certified(rho, values, iterations, omega, lower, witness).all()
    for k in range(0, len(rho), 20):  # one point alone takes the same path, bit for bit
        result = generalized_robustness(DensityMatrix(rho[k]))
        assert (result.value, result.lower, result.iterations) == (values[k], lower[k], 0)
        assert np.array_equal(result.witness.matrix, witness[k])


def test_the_closed_form_equals_the_bell_diagonal_oracle():
    rng = np.random.default_rng(5503)
    checked = 0
    while checked < 200:
        c = random_physical_c(rng)
        if bd_weights(c).max() <= 0.5 + 1e-9:
            continue
        result = generalized_robustness(bd(*c))
        assert result.iterations == 0
        assert abs(result.value - gr_oracle_bd(BellDiagonalParams(*c))) <= 1e-12
        checked += 1


def test_the_closed_form_is_within_the_gap_of_a_forced_solve(forced_ginibre_solves):
    rng = np.random.default_rng(5504)
    rho = np.concatenate([stress_sets(), rotated_bell_diagonal(rng, 100), pure_states(rng, 100)])
    values, _, _, _, _, _, route = optim._robustness(_pt_arr(rho))
    names = ROUTES[route]
    closed = np.isin(names, ("schmidt", "product", "bell", "longer search"))
    assert closed.sum() > 800
    assert (names == "product").sum() > 800 and (names == "bell").sum() > 500  # those brackets' points among them
    # the seeded Ginibre set's forced solves are shared; the states after it are solved here
    ginibre, ginibre_values, ginibre_iterations = forced_ginibre_solves[:3]
    n = len(ginibre)
    assert np.array_equal(rho[:n], ginibre)
    m = _pt_arr(rho[n:])
    lam_min = _eigh(m)[0][:, 0]
    solves = [optim._central_path(m[k], lam_min[k]) for k in np.flatnonzero(closed[n:])]
    assert ginibre_iterations[closed[:n]].all() and all(iterations for _, _, _, _, iterations in solves)
    forced = np.concatenate([ginibre_values[closed[:n]], [value for _, value, _, _, _ in solves]])
    np.testing.assert_allclose(values[closed], forced, rtol=0, atol=GAP)
