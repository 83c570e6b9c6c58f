"""The robustness solver on a large seeded set: every solve converges, with
a certified gap of at most 1e-8 and a certificate that verifies to 1e-9.
The pure and Bell-like states take the closed-form bracket, most states
whose optimal omega is a product pure state take the product bracket, and
nearly all states whose optimal witness is a locally rotated Bell witness
take the Bell bracket, completed where its minimum-norm omega is not PSD;
all three must meet the same certificate checks with no interior-point
iteration.  The few states left to the solver are product class.  A forced
solve of every entangled state holds the solver itself to those checks on
the whole set.  The route each point takes is built here once without the
stage loop, and each route is reached by a named state.

The inputs are 2,400 Ginibre states of rank 1 to 4 (rank-deficient states
put the optimum on the boundary of both cones, where an interior-point
method is hardest pressed), the Bell states, pseudo-pure phi- at eps = 0.34
and just above its separability threshold 1/3, and the GRAPE state.
"""

import numpy as np
import pytest

from conftest import GAP, ROUTES, check_certified, entangled_ginibre, ginibre_states, named_states, route_names
from conftest import stage_inputs
from witnesslab import DensityMatrix, generalized_robustness, optim
from witnesslab.cli import parse_state_spec
from witnesslab.qmat import _eigh, _pt_arr


@pytest.mark.usefixtures("longer_search_repeats_the_first")
def test_every_seeded_ginibre_solve_is_certified(forced_ginibre_solves):
    rho = forced_ginibre_solves[0]  # the seeded Ginibre stress set
    values, iterations, omega, failures, lower, witness, route = optim._robustness(_pt_arr(rho))
    assert not failures
    npt = check_certified(rho, values, iterations, omega, lower, witness)
    assert npt.sum() > 2000
    assert iterations[npt].max() <= 20
    # every pure state (rank 1, every fourth) takes the closed form, whose bracket closes to rounding
    pure = np.arange(len(rho)) % 4 == 0
    assert npt[pure].all() and np.all(ROUTES[route[pure]] == "schmidt")
    assert np.all(values[pure] - lower[pure] <= 1e-15)
    # four routes: the closed form, the product bracket, the Bell bracket, then the solver for what none closes
    names = ROUTES[route]
    product, bell, solved = names == "product", names == "bell", names == "solved"
    assert np.array_equal(npt, np.isin(names, ("schmidt", "product", "bell", "solved")))
    assert product[~pure].sum() > 700 and bell.sum() > 700 and 10 < solved.sum() < 30
    # what still solves is product class: the Bell witness is not optimal there, its L more than the gap below GR
    assert np.all(optim._bell_bracket(_pt_arr(rho[solved]))[0] < values[solved] - GAP)
    # the solver itself on every NPT state, closed or not: a forced solve meets the same checks
    _, values, iterations, omega, lower, witness = forced_ginibre_solves
    assert iterations[npt].all() and iterations.max() <= 20
    check_certified(rho, values, iterations, omega, lower, witness)


@pytest.mark.usefixtures("longer_search_repeats_the_first")
def test_a_solved_point_gets_from_the_solver_alone_what_the_robustness_stores():
    # the solver is the last stage: like a closed bracket, it gives its point omega, value, lower and witness
    rho = ginibre_states(np.random.default_rng(20261020), 1200)
    values, iterations, omega, failure, lower, witness, route = optim._robustness(_pt_arr(rho))
    assert failure is None
    solved = np.flatnonzero(ROUTES[route] == "solved")
    assert len(solved) >= 5
    m = _pt_arr(rho)
    lam_min = _eigh(m)[0][:, 0]  # the eigh that decides each point in the robustness, of the same stack
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
    values, iterations, omega, failures, lower, witness, route = optim._robustness(_pt_arr(rho))
    assert not failures
    npt = check_certified(rho, values, iterations, omega, lower, witness)
    assert npt.all()
    np.testing.assert_allclose(values, [1, 1, 1, 1, 0.01, 1.5e-4, 0.2], rtol=0, atol=GAP)
    # Bell-diagonal and pure (GRAPE) states: the closed form, with no interior-point iteration
    assert np.all(ROUTES[route] == "schmidt") and not iterations.any()
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
    names = route_names(rho)
    assert (names == "product").sum() > 50 and (names == "bell").sum() > 50  # among them, points those brackets close


def test_each_route_is_taken_by_a_named_state(request):
    cases = [(parse_state_spec("identity"), "ppt"), (parse_state_spec("bell:phi-"), "schmidt"),
             (entangled_ginibre(8), "product"), (entangled_ginibre(13), "bell"), (entangled_ginibre(20), "bell")]
    cases += [(entangled_ginibre(seed), "longer search") for seed in (83, 268, 385)]
    for rho, name in cases:
        assert route_names(rho.matrix[None]).tolist() == [name]
    # from here on the longer search only repeats the first: the solver takes what the brackets leave
    request.getfixturevalue("longer_search_repeats_the_first")
    assert route_names(entangled_ginibre(268).matrix[None]).tolist() == ["solved"]


def test_each_route_is_the_first_stage_that_closes_the_point(request, stress_robustness):
    # the routes built without the stage loop: each stage on the rows the stages before it left open
    rho, route = stress_robustness[0], stress_robustness[-1]
    npt = np.flatnonzero(_eigh(_pt_arr(rho))[0][:, 0] < -optim.NPT_CUT)
    m, lam_min, lam, vecs, e, _ = stage_inputs(rho)
    start = optim._bracket(e, lam_min)[5]  # where both product searches start

    def product(rows, steps):
        return optim._product_bracket(m[rows], lam[rows], vecs[rows], steps, start[rows])

    stages = (lambda rows: optim._bracket(e[rows], lam_min[rows]), lambda rows: product(rows, optim._PRODUCT_STEPS),
              lambda rows: optim._bell_bracket(m[rows]), lambda rows: product(rows, optim._PRODUCT_STEPS_LAST))
    want, left = np.zeros(len(rho), dtype=np.int8), np.arange(len(npt))
    want[npt] = 5  # no stage closes them
    open_gap = np.full(len(rho), np.inf)  # the smaller of the product and Bell brackets' |U - L|
    for code, stage in enumerate(stages, 1):
        low, high, closed = stage(left)[:3]
        if code in (2, 3):
            open_gap[npt[left]] = np.fmin(open_gap[npt[left]], np.abs(high - low))
        want[npt[left[closed]]] = code
        left = left[~closed]
    assert np.array_equal(route, want)
    assert set(want.tolist()) == {0, 1, 2, 3, 4}  # every route but the solver's
    # from here on the longer search only repeats the first: the solver takes what the brackets leave, and only that
    request.getfixturevalue("longer_search_repeats_the_first")
    solved = ROUTES[optim._robustness(_pt_arr(rho))[6]] == "solved"
    assert np.array_equal(solved, want == 4)
    assert np.all(open_gap[solved] >= GAP)
