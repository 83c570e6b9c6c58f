"""The batched sweep against its one-point functions.

``sweep`` relaxes the whole time grid as one coordinate array, takes the
closed-form robustness wherever its bracket, the product bracket or the
Bell bracket closes and solves every other entangled point by the
interior-point solver, one point at a time.  Each point must still equal
``f_witness_state``, ``eval_witness`` and ``generalized_robustness`` of
``relax_channel(rho0, float(t), p)`` bit for bit, with the same iteration count and dual bound, and a point whose solve
fails must name its sweep time.  The sweep's robustness call builds no certificate, and returns every other output of
the certified call byte for byte.
"""

import itertools
import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from conftest import PAPER_T2, ROUTES, bench_inputs, entangled_ginibre, isotropic_with_bloch, one_point_failures
from conftest import relaxed_states, route_names, stress_sets
from witnesslab import (
    BellKind,
    ConvergenceError,
    DensityMatrix,
    DomainError,
    RelaxationParams,
    bell_state,
    bell_witness,
    eval_witness,
    f_witness_state,
    generalized_robustness,
    pseudo_pure,
    relax_channel,
    sweep,
)
from witnesslab import optim, relax
from witnesslab.qmat import _pt_arr


def rotated_pseudo_pure():
    """A pseudo-pure phi- after a fixed local rotation: entangled but not Bell-diagonal."""
    def rotation(theta, phi):
        return np.array([[np.cos(theta), -np.exp(-1j * phi) * np.sin(theta)],
                         [np.exp(1j * phi) * np.sin(theta), np.cos(theta)]])

    u = np.kron(rotation(0.4, 1.1), rotation(1.3, -0.6))
    rho = pseudo_pure(0.7, bell_state(BellKind.PHI_MINUS))
    return DensityMatrix(u @ rho.matrix @ u.conj().T)


# the last field names where the entangled points go: "schmidt" when every one takes the closed-form bracket (no
# local Bloch vectors: Bell-diagonal states and their local rotations), "brackets" when the three brackets close
# every one, and "solver" when some are left to the solver
CASES = {
    "phi-": (bell_state(BellKind.PHI_MINUS), 0.6, 200, "schmidt"),
    "rotated-pseudo-pure": (rotated_pseudo_pure(), 0.6, 200, "schmidt"),
    "ginibre-1": (entangled_ginibre(1), 0.6, 200, "solver"),
    "ginibre-2": (entangled_ginibre(2), 0.6, 200, "brackets"),
    "ginibre-3": (entangled_ginibre(3), 0.6, 200, "brackets"),
    "ginibre-268": (entangled_ginibre(268), 0.6, 200, "solver"),
    # every point entangled, and more than 256 of them
    "phi-, 300 points": (bell_state(BellKind.PHI_MINUS), 0.25, 300, "schmidt"),
    "ginibre-3, 300 points": (entangled_ginibre(3), 0.05, 300, "brackets"),
    # more than 256 entangled points, most closed by the Bell bracket
    "isotropic with a Bloch vector, 300 points": (isotropic_with_bloch(), 0.05, 300, "brackets"),
    # more than 256 solved points: a product-class state, which no bracket closes, barely relaxed
    "ginibre-268, 300 solved points": (entangled_ginibre(268), 0.001, 300, "solver"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_sweep_equals_the_one_point_functions_bit_for_bit(name, monkeypatch):
    rho0, t_max, steps, kind = CASES[name]
    if kind == "solver":  # the longer search only repeats the first: the solver takes what the brackets leave
        monkeypatch.setattr(optim, "_PRODUCT_STEPS_LAST", optim._PRODUCT_STEPS)
    w = bell_witness(BellKind.PHI_MINUS)
    series = sweep(rho0, PAPER_T2, w, t_max, steps)
    # the solver's own iteration counts, dual bounds and routes for the grid, formed as the sweep forms them
    states = relaxed_states(rho0, series.times, PAPER_T2)
    _, iterations, _, failures, lower, witness, route = optim._robustness(_pt_arr(states))
    assert not failures
    assert np.array_equal(route == 0, series.pt_min_values >= -optim.NPT_CUT)
    for k, t in enumerate(series.times):
        rho_t = relax_channel(rho0, float(t), PAPER_T2)
        assert np.array_equal(rho_t.matrix, states[k])
        assert f_witness_state(rho_t) == series.f_values[k]
        assert eval_witness(w, rho_t) == series.w_values[k]
        single = generalized_robustness(rho_t)
        assert single.value == series.gr_values[k]
        assert single.iterations == iterations[k]
        assert single.lower == lower[k]
        if single.witness is not None:
            assert np.array_equal(single.witness.matrix, witness[k])
    names = ROUTES[route]
    entangled, solved = series.gr_values > 0, names == "solved"
    assert entangled.any() and np.array_equal(entangled, route != 0) and np.array_equal(solved, iterations > 0)
    assert np.array_equal(names[entangled] == "schmidt", np.full(entangled.sum(), kind == "schmidt"))
    assert solved.any() == (kind == "solver")
    if steps > 256:
        assert entangled.sum() > 256  # more than 256 entangled points
        if name.startswith("isotropic"):
            assert (names == "bell").sum() > 256  # most of them closed by the Bell bracket
        if "solved points" in name:
            assert solved.sum() > 256  # and as many solved ones


def test_ppt_is_absorbing_along_every_sweep():
    # relaxation is a semigroup of product channels, and for two qubits PPT is separability (Horodecki, Horodecki &
    # Horodecki, PLA 223, 1 (1996)): a point after a PPT point is PPT, so the PPT route is a suffix of each sweep
    runs = [(rho0, PAPER_T2, t_max, steps) for rho0, t_max, steps, _ in CASES.values()]
    runs += [(rho0, p, t_max, steps) for rho0, p, _, t_max, steps in bench_sweep_runs((1, 41, 97), 20)]
    assert len(runs) == len(CASES) + 840
    crossed = 0
    for rho0, p, t_max, steps in runs:
        states = relaxed_states(rho0, np.linspace(0.0, t_max, steps), p)  # the grid as the sweep forms it
        _, _, _, failure, _, _, route = optim._robustness(_pt_arr(states))
        ppt = route == 0
        assert failure is None and np.all(ppt[1:] >= ppt[:-1])
        crossed += ppt.any() and not ppt.all()
    assert crossed > 800  # sweeps that turn PPT inside their grid


def values_routes_and_failure(out):
    """A _robustness call's values, iterations, lower bounds and routes as bytes, and its failure as text and bounds."""
    values, iterations, _, failure, lower, _, route = out
    failure = failure and (failure[0], str(failure[1]), failure[1].lower, failure[1].upper)
    return values.tobytes(), iterations.tobytes(), lower.tobytes(), route.tobytes(), failure


def test_the_values_only_path_returns_what_the_certified_path_returns(stress_robustness, monkeypatch):
    # relax.sweep's call skips every omega and witness; all else must be the certified call's, byte for byte, solves
    # and a failed solve included
    rho, *certified = stress_robustness
    calls = [(_pt_arr(rho), certified, {})]
    for rho0, t_max, steps, kind in CASES.values():
        pinned = {"_PRODUCT_STEPS_LAST": optim._PRODUCT_STEPS} if kind == "solver" else {}
        calls.append((_pt_arr(relaxed_states(rho0, np.linspace(0.0, t_max, steps), PAPER_T2)), None, pinned))
    for rho0, p, _, t_max, steps in bench_sweep_runs((1, 41, 97), 20):
        calls.append((_pt_arr(relaxed_states(rho0, np.linspace(0.0, t_max, steps), p)), None, {}))
    capped = {"_PRODUCT_STEPS_LAST": optim._PRODUCT_STEPS, "_MAX_ITERATIONS": 2}
    calls.append((_pt_arr(relaxed_states(entangled_ginibre(268), np.linspace(0.0, 0.002, 9), PAPER_T2)), None, capped))
    assert len(calls) == 1 + len(CASES) + 840 + 1
    routes, failures = set(), 0
    for m, out, settings in calls:
        with monkeypatch.context() as patch:
            for name, value in settings.items():
                patch.setattr(optim, name, value)
            out = out or optim._robustness(m)
            values_only = optim._robustness(m, certificates=False)
        assert values_only[2] is None and values_only[5] is None
        assert values_routes_and_failure(values_only) == values_routes_and_failure(out)
        routes.update(ROUTES[out[6]].tolist())
        failures += out[3] is not None
    assert routes == set(optim._ROUTES) and failures == 1  # every route, the failed one too


def test_a_sweep_builds_no_omega_or_witness(monkeypatch):
    # every assembly of a closed point's omega or W raises: the brackets' (|e><e|)^PT and (|w><w|)^PT, the lift by
    # eps 1 and the identity of the first bracket's omega (optim._EYE4, read nowhere else in a sweep), and W from the
    # Bell bracket's coordinates; and _robustness hands back no stack of them
    def assembled(*args, **kwargs):
        raise AssertionError("a sweep built an omega or witness matrix")

    class Identity:
        __array_ufunc__ = staticmethod(assembled)

    robustness, routes = relax._robustness, []

    def values_only(m, **kwargs):
        out = robustness(m, **kwargs)
        assert out[2] is None and out[5] is None
        routes.extend(ROUTES[out[6]])
        return out

    runs = [(bell_state(BellKind.PHI_MINUS), 200), (entangled_ginibre(13), 200), (entangled_ginibre(13), 10_000)]
    series = [sweep(rho0, PAPER_T2, bell_witness(BellKind.PHI_MINUS), 0.6, steps) for rho0, steps in runs]
    grids = [_pt_arr(relaxed_states(rho0, want.times, PAPER_T2)) for (rho0, _), want in zip(runs, series)]
    for name, value in (("_pt_arr", assembled), ("from_pauli_coords", assembled), ("_EYE4", Identity())):
        monkeypatch.setattr(optim, name, value)
    monkeypatch.setattr(relax, "_robustness", values_only)
    for (rho0, steps), m, want in zip(runs, grids, series):
        got = sweep(rho0, PAPER_T2, bell_witness(BellKind.PHI_MINUS), 0.6, steps)
        assert got.gr_values.tobytes() == want.gr_values.tobytes()
        with pytest.raises(AssertionError, match="omega or witness"):  # the certified call of the same grid assembles
            optim._robustness(m)
    # every closing stage, on floats and on lanes
    assert set(routes) == {"schmidt", "product", "bell", "longer search"}


def test_capped_solves_fail_with_the_one_point_bounds(monkeypatch):
    # the longer search only repeats the first: the solver takes what the brackets leave
    monkeypatch.setattr(optim, "_PRODUCT_STEPS_LAST", optim._PRODUCT_STEPS)
    states = relaxed_states(entangled_ginibre(268), np.linspace(0.0, 0.002, 9), PAPER_T2)
    times = np.linspace(0.0, 0.25, 9)
    states = np.concatenate([states, relaxed_states(bell_state(BellKind.PHI_MINUS), times, PAPER_T2)])
    to_solver = route_names(states) == "solved"
    assert to_solver.sum() > 5  # no bracket closes these, so they reach _central_path
    for cap in (2, 5):
        monkeypatch.setattr(optim, "_MAX_ITERATIONS", cap)
        _, _, _, failure, _, _, route = optim._robustness(_pt_arr(states))
        alone = one_point_failures(states)
        assert sorted(alone) == np.flatnonzero(to_solver).tolist()  # each point left to the solver fails at the cap
        assert np.array_equal(ROUTES[route] == "failed", to_solver)  # the first fails, and leaves the rest open
        # the stack's call ends at its first failing point, with the error that point gives alone
        k, exc = failure
        assert k == min(alone) and (str(exc), exc.lower, exc.upper) == (str(alone[k]), alone[k].lower, alone[k].upper)
        for k, exc in alone.items():
            with pytest.raises(ConvergenceError) as single:
                generalized_robustness(DensityMatrix(states[k]))
            assert str(exc) == str(single.value)
            assert (exc.lower, exc.upper) == (single.value.lower, single.value.upper)


def test_the_first_failing_point_ends_the_call_with_its_one_point_bounds(monkeypatch):
    # the longer search only repeats the first: the solver takes what the brackets leave
    monkeypatch.setattr(optim, "_PRODUCT_STEPS_LAST", optim._PRODUCT_STEPS)
    # past the stress set's first solver point, so that points solved within the cap come before the first failure
    rho = stress_sets()[100:]
    _, uncapped, _, _, _, _, route = optim._robustness(_pt_arr(rho))
    solver = np.flatnonzero(ROUTES[route] == "solved")
    cap = 8
    first = solver[uncapped[solver] > cap][0]
    earlier, later = solver[solver < first], solver[solver > first]
    # solver points within the cap come before and after it
    assert (uncapped[earlier] <= cap).all() and (uncapped[later] <= cap).any()
    pt, calls = _pt_arr(rho), []
    central_path = optim._central_path

    def spy(m, lam_min):
        assert m.shape == (4, 4)  # one point a call
        calls.append(int(np.flatnonzero((pt == m).all(axis=(1, 2)))[0]))
        return central_path(m, lam_min)

    monkeypatch.setattr(optim, "_central_path", spy)
    monkeypatch.setattr(optim, "_MAX_ITERATIONS", cap)
    values, iterations, omega, failure, lower, witness, route = optim._robustness(_pt_arr(rho))
    # one point at a time, in index order, up to the first that fails: no later point is solved
    assert calls == solver[solver <= first].tolist()
    assert failure[0] == first
    assert np.array_equal(ROUTES[route[solver]], np.where(solver < first, "solved", "failed"))
    assert len(earlier) and np.array_equal(iterations[earlier], uncapped[earlier])
    assert not iterations[later].any() and not values[later].any() and not omega[later].any()
    assert not lower[later].any() and not witness[later].any()
    # and its error is the one the point gives alone, bounds and all
    with pytest.raises(ConvergenceError, match=f"{cap}-iteration cap") as single:
        generalized_robustness(DensityMatrix(rho[first]))
    exc = failure[1]
    assert (str(exc), exc.lower, exc.upper) == (str(single.value), single.value.lower, single.value.upper)


def test_sweep_names_the_earliest_failing_time(monkeypatch):
    # the longer search only repeats the first: the solver takes what the brackets leave
    monkeypatch.setattr(optim, "_PRODUCT_STEPS_LAST", optim._PRODUCT_STEPS)
    rho0 = entangled_ginibre(268)  # entangled at every grid time
    w = bell_witness(BellKind.PHI_MINUS)
    times = np.linspace(0.0, 0.002, 12)
    names = route_names(relaxed_states(rho0, times, PAPER_T2))
    assert np.all(names[[4, 9]] == "solved")  # no bracket closes the two targets: they reach the solver
    targets = [_pt_arr(relax_channel(rho0, float(times[k]), PAPER_T2).matrix) for k in (9, 4)]
    cholesky = optim._cholesky

    def not_positive_definite_at_the_targets(blocks):
        # the slacks of a point are omega and m + omega^PT, so m is their difference
        m = blocks[1] - _pt_arr(blocks[0])
        chol, inv_l, failed = cholesky(blocks)
        if any(np.max(np.abs(m - target)) < 1e-9 for target in targets):
            chol[:] = inv_l[:] = np.nan
            failed = True
        return chol, inv_l, failed

    monkeypatch.setattr(optim, "_cholesky", not_positive_definite_at_the_targets)
    with pytest.raises(ConvergenceError) as single:
        generalized_robustness(relax_channel(rho0, float(times[4]), PAPER_T2))
    with pytest.raises(ConvergenceError) as err:
        sweep(rho0, PAPER_T2, w, 0.002, 12)
    assert str(err.value) == f"robustness solver failed at sweep time t = {times[4]:.6g} s: {single.value}"
    assert "not positive definite" in str(err.value)
    assert (err.value.lower, err.value.upper) == (single.value.lower, single.value.upper)


def test_sweep_steps_are_bounded_integers(monkeypatch):
    def no_solve(m, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(relax, "_robustness", no_solve)
    w = bell_witness(BellKind.PHI_MINUS)
    for steps in (10_001, 1, 2.5, "3"):
        with pytest.raises(DomainError, match="steps"):
            sweep(bell_state(BellKind.PHI_MINUS), PAPER_T2, w, t_max=0.6, steps=steps)


def test_a_time_grid_that_repeats_a_time_is_rejected_before_any_solve(monkeypatch):
    def no_solve(m, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(relax, "_robustness", no_solve)
    w = bell_witness(BellKind.PHI_MINUS)
    for t_max, steps in ((5e-324, 3), (1e-320, 10_000)):
        with pytest.raises(DomainError, match="t_max.*steps"):
            sweep(bell_state(BellKind.PHI_MINUS), PAPER_T2, w, t_max=t_max, steps=steps)


def test_fitted_times_are_none_when_t_max_is_too_small_to_fit():
    # exp(-t/T) rounds to 1 at every t <= 1e-20, so each curve repeats one value: a fit would read its slope off rounding
    for t_max, steps in itertools.product([1e-20, 1e-200, 1e-320], [2, 3, 5, 200]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = sweep(bell_state(BellKind.PHI_MINUS), RelaxationParams(), bell_witness(BellKind.PHI_MINUS),
                           t_max, steps)
        assert np.ptp(series.gr_values) == np.ptp(series.w_values) == 0.0, (t_max, steps)
        assert series.tau_r is None and series.tau_w is None, (t_max, steps)


# t/T overflows to infinity at the first; the second has the ratios of all T = 1 at t_max = 1
EXTREME_RATIOS = [
    (1e300, RelaxationParams(t1_i=1e-10, t2_i=1e-10)),
    (1e308, RelaxationParams(1e308, 1e308, 1e308, 1e308)),
]


@pytest.mark.parametrize("t_max, p", EXTREME_RATIOS)
def test_extreme_time_ratios_raise_no_warning(t_max, p):
    rho0, w = bell_state(BellKind.PHI_MINUS), bell_witness(BellKind.PHI_MINUS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = sweep(rho0, p, w, t_max, 3)
        relax_channel(rho0, t_max, p)
    if t_max == 1e300:
        # every curve is 0 past t = 0, so nothing is fitted
        assert series.tau_r is None and series.tau_w is None
    else:
        # the fit is made on t/t_max, so the fitted times scale with it
        unit = sweep(rho0, RelaxationParams(1.0, 1.0, 1.0, 1.0), w, 1.0, 3)
        assert series.tau_r == pytest.approx(1e308 * unit.tau_r, rel=1e-12)
        assert series.tau_w == pytest.approx(1e308 * unit.tau_w, rel=1e-12)


def polyfit_decay_time(times, values):
    """The reference fit: numpy's polyfit of log(values) against t/t_max, with the same rules for None."""
    v0 = abs(values[0])
    mask = values > 1e-3 * v0
    if v0 <= 0 or mask.sum() < 2 or np.ptp(values[mask]) == 0:
        return None
    slope = float(np.polyfit(times[mask] / times[-1], np.log(values[mask]), 1)[0])
    tau = -float(times[-1]) / slope if slope < 0 else np.inf
    return tau if tau < np.inf else None


def bench_sweep_runs(seeds, rounds):
    """The sweep arguments of the bench's sweep mix over the given seeds and rounds."""
    make_round = bench_inputs().make_round
    runs = []
    for seed, index in itertools.product(seeds, range(rounds)):
        for item in make_round("sweep", seed, index):
            if item["matrix"] is not None:
                rho0 = DensityMatrix(item["matrix"])
            elif item["kind"] == "pseudo-pure":
                rho0 = pseudo_pure(item["eps"], bell_state(BellKind(item["bell"])))
            else:
                rho0 = bell_state(BellKind(item["bell"]))
            runs.append((rho0, RelaxationParams(*item["params"]), bell_witness(BellKind(item["witness"])), 0.6, 200))
    return runs


def test_fitted_times_match_a_polyfit_reference():
    w_phi = bell_witness(BellKind.PHI_MINUS)
    runs = [(rho0, PAPER_T2, w_phi, t_max, steps) for rho0, t_max, steps, _ in CASES.values()]
    runs += bench_sweep_runs((41, 97), 3)
    fitted = 0
    for rho0, p, w, t_max, steps in runs:
        series = sweep(rho0, p, w, t_max, steps)
        for tau, values in ((series.tau_r, series.gr_values), (series.tau_w, np.abs(series.w_values - w.c_i))):
            reference = polyfit_decay_time(series.times, values)
            assert (tau is None) == (reference is None)
            if tau is not None:
                assert abs(tau - reference) <= 1e-12 * reference
                fitted += 1
    assert fitted > 100


def mean_and_ptp_decay_time(times, values):
    """The decay fit in its mean and ptp form, whose bits _fit_decay_time keeps."""
    v0 = abs(values[0])
    mask = values > 1e-3 * v0
    if v0 <= 0 or mask.sum() < 2 or np.ptp(values[mask]) == 0:
        return None
    t_max = float(times[-1])
    x = times[mask] / t_max
    x -= x.mean()
    y = np.log(values[mask])
    slope = float(x @ (y - y.mean()) / (x @ x))
    if slope >= 0:
        return None
    tau = -t_max / slope
    return tau if tau < np.inf else None


def test_fitted_times_keep_the_bits_of_the_mean_and_ptp_form():
    curves = fitted = 0
    for rho0, p, w, t_max, steps in bench_sweep_runs((41,), 20):
        series = sweep(rho0, p, w, t_max, steps)
        for values in (series.gr_values, np.abs(series.w_values - w.c_i)):
            tau = relax._fit_decay_time(series.times, values)
            assert tau == mean_and_ptp_decay_time(series.times, values)  # a float or None, never NaN
            curves, fitted = curves + 1, fitted + (tau is not None)
    assert curves == 560 and fitted > 400


def test_stacked_positivity_test_agrees_with_lapack_on_every_point():
    rng = np.random.default_rng(77)
    n = 400
    g = rng.standard_normal((n, 2, 4, 4)) + 1j * rng.standard_normal((n, 2, 4, 4))
    h = g @ g.conj().swapaxes(-1, -2)
    lam = np.linalg.eigvalsh(h)[..., 0]
    # smallest eigenvalue moved to +-1e-6 and +-1e-12 of the scale, and to the
    # edge of rounding, so every branch of the test and its fallback is taken
    scale = np.abs(h).max(axis=(-2, -1))
    target = scale * rng.choice([1e-6, -1e-6, 1e-12, -1e-12, 1e-17, 0.3, -0.3], size=(n, 2))
    blocks = h + (target - lam)[..., None, None] * np.eye(4)
    want = []
    for b in blocks:
        try:
            np.linalg.cholesky(b)
            want.append(False)
        except np.linalg.LinAlgError:
            want.append(True)
    with np.errstate(invalid="ignore"):
        assert [optim._cholesky(b)[2] for b in blocks] == want  # one point at a time, as the solver factors them
    assert 0 < sum(want) < n


def test_lapack_cholesky_gives_nan_exactly_where_numpy_cholesky_raises():
    # the positivity test reads the gufunc's NaN output in place of numpy.linalg's exception
    rng = np.random.default_rng(78)
    n = 300
    g = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
    h = g @ g.conj().swapaxes(-1, -2)
    lam = np.linalg.eigvalsh(h)[:, 0]
    target = np.abs(h).max(axis=(-2, -1)) * rng.choice([1e-6, -1e-6, 1e-12, -1e-12, 1e-17, 0.3, -0.3], size=n)
    blocks = h + (target - lam)[:, None, None] * np.eye(4)
    with np.errstate(invalid="ignore"):
        chol = _umath_linalg.cholesky_lo(blocks, signature="D->D")
    raised = 0
    for b, c in zip(blocks, chol):
        try:
            want = np.linalg.cholesky(b)
        except np.linalg.LinAlgError:
            raised += 1
            assert np.all(np.isnan(c))
            continue
        assert np.array_equal(c, want)
    assert 0 < raised < n


def test_solves_raise_no_runtime_warning():
    # failed LAPACK calls inside the solver loop are read as NaN, never reported
    rho0 = bell_state(BellKind.PHI_MINUS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(generalized_robustness(rho0).value - 1.0) < 1e-6
        series = sweep(rho0, PAPER_T2, bell_witness(BellKind.PHI_MINUS), 0.6, 200)
    assert np.count_nonzero(series.gr_values) > 0
