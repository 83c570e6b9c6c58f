import dataclasses
import itertools

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq

from conftest import PAPER_T2, bd, bd_weights, random_density_matrix, relaxed_states
from witnesslab import (
    BellKind,
    DensityMatrix,
    DomainError,
    RelaxationParams,
    SweepSeries,
    bell_state,
    bell_witness,
    crossing_time,
    expectation,
    grape_target_pipeline,
    pseudo_pure,
    relax_channel,
    sweep,
)
from witnesslab.qmat import SIGMA_X, TWO_SPIN_LABELS, TWO_SPIN_PAULIS, HermitianOp, _pt_arr
from witnesslab.optim import NPT_CUT
from witnesslab.relax import _relax
from witnesslab.witness import _CORRELATION_COORDS


def transfer_oracle(t, p):
    """Independent channel oracle: exponentiate the Pauli-transfer generator.

    Each single-spin Pauli component decays at rate 0 (identity), 1/T2
    (X and Y), or 1/T1 (Z); the two-spin generator is the sum of the two
    single-spin ones, diagonal in the Pauli-string basis.
    """
    def rates(t1, t2):
        return {"I": 0.0, "X": 1.0 / t2, "Y": 1.0 / t2, "Z": 1.0 / t1}

    r_i, r_s = rates(p.t1_i, p.t2_i), rates(p.t1_s, p.t2_s)
    gen = np.diag([-(r_i[lab[0]] + r_s[lab[1]]) for lab in TWO_SPIN_LABELS])
    return expm(t * gen)


def apply_oracle(rho, t, p):
    coords = np.real(np.einsum("kab,ba->k", TWO_SPIN_PAULIS, rho.matrix)) / 4.0
    coords = transfer_oracle(t, p) @ coords
    return np.einsum("k,kab->ab", coords, TWO_SPIN_PAULIS)


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def test_params_must_be_positive_and_physical():
    with pytest.raises(DomainError):
        RelaxationParams(t1_i=-1.0)
    with pytest.raises(DomainError):
        RelaxationParams(t1_i=0.1, t2_i=0.5)  # T2 > 2 T1


def test_t2_may_not_pass_twice_t1_at_any_time_scale():
    # at T1 = 1e-16, T2 = 1e-15 is five times the bound: no absolute slack may admit it
    for spin in ("i", "s"):
        with pytest.raises(DomainError, match=f"t2_{spin}"):
            RelaxationParams(**{f"t1_{spin}": 1e-16, f"t2_{spin}": 1e-15})
    # doubling is exact in binary, so the boundary T2 = 2 T1 passes at every scale
    for t1 in (1e-300, 1e-16, 1.0, 1e300):
        RelaxationParams(t1_i=t1, t2_i=2 * t1, t1_s=t1, t2_s=2 * t1)


def test_channel_keeps_pure_states_psd_at_every_time_scale():
    rng = np.random.default_rng(139)
    for scale in 10.0 ** np.arange(-18, 4, 3):  # 1e-18 to 1e3
        for _ in range(60):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            t1_i, t1_s = scale * rng.uniform(0.1, 10.0, 2)
            r_i, r_s = rng.choice([1.0, rng.uniform(0.01, 1.0)], 2)
            p = RelaxationParams(t1_i=t1_i, t2_i=2 * r_i * t1_i, t1_s=t1_s, t2_s=2 * r_s * t1_s)
            out = relax_channel(DensityMatrix(np.outer(v, v.conj())), scale * rng.exponential(), p)
            assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-12


def test_zero_time_is_identity():
    rho = bell_state(BellKind.PHI_MINUS)
    out = relax_channel(rho, 0.0, PAPER_T2)
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12


def test_long_time_limit_is_maximally_mixed():
    out = relax_channel(bell_state(BellKind.PHI_MINUS), 1e6, PAPER_T2)
    assert np.max(np.abs(out.matrix - np.eye(4) / 4)) < 1e-12


def test_negative_time_rejected():
    with pytest.raises(DomainError):
        relax_channel(bell_state(BellKind.PHI_MINUS), -0.1, PAPER_T2)


def test_pure_dephasing_coherence_decay_law():
    # with T1 effectively infinite, <XX>(t) = -exp(-t (1/T2I + 1/T2S)) for phi-
    p = RelaxationParams(t1_i=1e12, t2_i=0.31, t1_s=1e12, t2_s=0.11)
    xx = HermitianOp(np.kron(SIGMA_X, SIGMA_X))
    rate = 1.0 / 0.31 + 1.0 / 0.11
    for t in (0.05, 0.1, 0.3):
        out = relax_channel(bell_state(BellKind.PHI_MINUS), t, p)
        assert abs(expectation(out, xx) + np.exp(-t * rate)) < 1e-9


def test_channel_matches_matrix_exponential_oracle():
    rng = np.random.default_rng(97)
    for t in (0.01, 0.07, 0.4, 2.0):
        for _ in range(10):
            rho = random_density_matrix(rng)
            got = relax_channel(rho, t, PAPER_T2).matrix
            want = apply_oracle(rho, t, PAPER_T2)
            assert np.max(np.abs(got - want)) < 1e-10


def test_channel_is_cptp_on_random_states():
    rng = np.random.default_rng(101)
    for t in (0.01, 0.1, 1.0, 10.0):
        for _ in range(25):
            out = relax_channel(random_density_matrix(rng), t, PAPER_T2)
            assert abs(np.trace(out.matrix) - 1.0) < 1e-9
            assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-9


def test_semigroup_property():
    rng = np.random.default_rng(103)
    for _ in range(25):
        rho = random_density_matrix(rng)
        t1, t2 = rng.uniform(0.01, 0.5, 2)
        chained = relax_channel(relax_channel(rho, t1, PAPER_T2), t2, PAPER_T2)
        direct = relax_channel(rho, t1 + t2, PAPER_T2)
        assert np.max(np.abs(chained.matrix - direct.matrix)) < 1e-9


def test_channel_matches_oracle_on_random_parameters():
    # distinct T1 and T2 on the two spins, a third of the draws on the
    # boundary T2 = 2*T1 of spin I and another third on that of spin S
    rng = np.random.default_rng(109)
    for k in range(60):
        t1_i, t1_s = rng.uniform(0.05, 20.0, 2)
        r_i, r_s = rng.uniform(0.01, 1.0, 2)
        if k % 3 == 0:
            r_i = 1.0
        elif k % 3 == 1:
            r_s = 1.0
        p = RelaxationParams(t1_i=t1_i, t2_i=2 * r_i * t1_i, t1_s=t1_s, t2_s=2 * r_s * t1_s)
        t = rng.exponential(max(p.t2_i, p.t2_s))
        rho = random_density_matrix(rng)
        got = relax_channel(rho, t, p).matrix
        want = apply_oracle(rho, t, p)
        assert np.max(np.abs(got - want)) < 1e-10


def test_channel_is_its_grid_row_bit_for_bit():
    # relax_channel returns the matching row of the grid sweep relaxes, unchecked
    rng = np.random.default_rng(113)
    times = np.array([0.0, 0.013, 0.1, 0.7, 5.0])
    for _ in range(10):
        rho = random_density_matrix(rng)
        grid = relaxed_states(rho, times, PAPER_T2)
        for k, t in enumerate(times):
            out = relax_channel(rho, float(t), PAPER_T2)
            assert np.array_equal(out.matrix, grid[k])
            assert not out.matrix.flags.writeable


def test_channel_needs_a_validated_state():
    not_a_state = HermitianOp(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
    with pytest.raises(DomainError, match="DensityMatrix"):
        relax_channel(not_a_state, 0.1, PAPER_T2)


def test_sweep_needs_a_validated_state():
    # unit trace but an eigenvalue of -0.1
    not_a_state = HermitianOp(np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex))
    with pytest.raises(DomainError, match="DensityMatrix"):
        sweep(not_a_state, PAPER_T2, bell_witness(BellKind.PHI_MINUS), t_max=0.6, steps=5)


def test_non_finite_times_rejected():
    rho = bell_state(BellKind.PHI_MINUS)
    w = bell_witness(BellKind.PHI_MINUS)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            relax_channel(rho, bad, PAPER_T2)
        with pytest.raises(DomainError):
            sweep(rho, PAPER_T2, w, t_max=bad, steps=5)
        for name in ("t1_i", "t2_i", "t1_s", "t2_s"):
            with pytest.raises(DomainError):
                RelaxationParams(**{name: bad})


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_of_maximally_mixed_state_is_flat():
    ident = DensityMatrix(np.eye(4, dtype=complex) / 4)
    series = sweep(ident, PAPER_T2, bell_witness(BellKind.PHI_MINUS), t_max=0.5, steps=10)
    assert np.allclose(series.f_values, 0.25, atol=1e-12)
    assert np.allclose(series.gr_values, 0.0, atol=1e-12)
    assert series.tau_c is None
    assert crossing_time(series, "F") is None


def test_sweep_phi_minus_detection_cutoff_window():
    series = sweep(
        bell_state(BellKind.PHI_MINUS), PAPER_T2, bell_witness(BellKind.PHI_MINUS),
        t_max=0.6, steps=80,
    )
    assert series.tau_c is not None
    assert 0.24 <= series.tau_c <= 0.40
    # robustness survives past the F cutoff, then dies on the grid
    last_gr = series.times[series.gr_values > 1e-6][-1]
    assert last_gr >= series.tau_c
    assert series.gr_values[-1] <= 1e-6


def test_sweep_robustness_curve_is_non_increasing():
    series = sweep(
        bell_state(BellKind.PHI_MINUS), PAPER_T2, bell_witness(BellKind.PHI_MINUS),
        t_max=0.6, steps=50,
    )
    assert np.all(np.diff(series.gr_values) <= 1e-7)


def test_sweep_f_and_w_detect_in_the_same_region():
    series = sweep(
        bell_state(BellKind.PHI_MINUS), PAPER_T2, bell_witness(BellKind.PHI_MINUS),
        t_max=0.6, steps=60,
    )
    dt = series.times[1] - series.times[0]
    crossings = [
        tc for tc in (crossing_time(series, "F"), crossing_time(series, "W"))
        if tc is not None
    ]
    for k, t in enumerate(series.times):
        f, w = series.f_values[k], series.w_values[k]
        if min((abs(t - tc) for tc in crossings), default=np.inf) <= dt:
            continue
        if abs(f) <= 1e-6 or abs(w) <= 1e-6:
            continue
        assert np.sign(f) == np.sign(w)


def test_sweeps_compare_by_identity_and_hash():
    args = (bell_state(BellKind.PHI_MINUS), PAPER_T2, bell_witness(BellKind.PHI_MINUS), 0.6, 20)
    s, t = sweep(*args), sweep(*args)
    assert s == s and s != t  # no elementwise comparison of the array fields, so no ValueError
    assert {s} == {s} and len({s, t}) == 2


def test_sweep_validates_steps():
    with pytest.raises(DomainError):
        sweep(bell_state(BellKind.PHI_MINUS), PAPER_T2, bell_witness(BellKind.PHI_MINUS), 0.5, 1)


def test_sweep_records_fitted_times():
    series = sweep(
        bell_state(BellKind.PHI_MINUS), PAPER_T2, bell_witness(BellKind.PHI_MINUS),
        t_max=0.6, steps=60,
    )
    assert series.tau_r is not None and series.tau_r > 0
    assert series.tau_w is not None and series.tau_w > 0


# ---------------------------------------------------------------------------
# crossing_time
# ---------------------------------------------------------------------------

def _series(times, f=None, w=None, gr=None, pt_min=None):
    """A series with the given curves; its partial transposes are pt_min times the identity, so lambda_min is pt_min."""
    n = len(times)
    pt_min = np.asarray(pt_min if pt_min is not None else np.zeros(n), dtype=float)
    series = SweepSeries(
        times=np.asarray(times, dtype=float),
        f_values=np.asarray(f if f is not None else np.zeros(n), dtype=float),
        w_values=np.asarray(w if w is not None else np.zeros(n), dtype=float),
        gr_values=np.asarray(gr if gr is not None else np.zeros(n), dtype=float),
        partial_transposes=pt_min[:, None, None] * np.eye(4, dtype=complex),
        tau_c=None,
        tau_r=None,
        tau_w=None,
    )
    assert np.array_equal(series.pt_min_values, pt_min)
    return series


def test_crossing_time_linear_interpolation():
    s = _series([0.0, 1.0], f=[-1.0, 1.0])
    assert abs(crossing_time(s, "F") - 0.5) < 1e-12


def test_crossing_time_none_when_no_sign_change():
    s = _series([0.0, 1.0, 2.0], f=[-1.0, -0.5, -0.2])
    assert crossing_time(s, "F") is None


@pytest.mark.parametrize("f, want", [
    ([0.0, 1.0, 2.0], None),  # starts at 0 and rises: nothing ended
    ([0.0, 0.0, -1.0], None),  # starts at 0 and falls: no nonzero value before the zeros
    ([-1.0, 0.0, -2.0], None),  # touches 0 and keeps its sign
    ([1.0, 0.0, 0.0], None),  # ends on zeros
    ([-1.0, 0.0, 1.0], 1.0),  # a zero between opposite signs is the change
    ([-1.0, 0.0, 0.0, 1.0], 1.0),  # the first of the zeros between them
    ([-2.0, -1.0, 0.0, 3.0], 2.0),
])
def test_a_zero_is_a_sign_change_only_between_opposite_signs(f, want):
    assert crossing_time(_series(np.arange(len(f), dtype=float), f=f), "F") == want


def test_crossing_time_lands_in_bracketing_interval():
    times = np.linspace(0.0, 1.0, 11)
    vals = np.linspace(-0.33, 0.41, 11)
    s = _series(times, w=vals)
    tc = crossing_time(s, "W")
    k = np.searchsorted(times, tc)
    assert vals[k - 1] < 0 <= vals[k]


def test_crossing_time_decomposes_the_partial_transposes_only_for_gr():
    series = sweep(bell_state(BellKind.PHI_MINUS), PAPER_T2, bell_witness(BellKind.PHI_MINUS), 0.6, 60)
    crossing_time(series, "F")
    crossing_time(series, "W")
    with pytest.raises(DomainError):
        crossing_time(series, "gr")
    assert "pt_min_values" not in vars(series)
    assert crossing_time(series, "GR") is not None and "pt_min_values" in vars(series)


def test_crossing_time_gr_level():
    # GR ends where lambda_min of the partial transpose crosses -NPT_CUT, the solver's cut, not 0
    s = _series([0.0, 1.0], pt_min=[-3.0 * NPT_CUT, NPT_CUT])
    assert crossing_time(s, "GR") == pytest.approx(0.5, abs=1e-12)
    # a state on the PPT boundary at t = 0 (lambda_min = 0) has no GR to end
    assert crossing_time(_series([0.0, 1.0, 2.0], pt_min=[0.0, 0.1, 0.2]), "GR") is None
    # the GR curve itself is not read: an NPT state over the whole grid never ends
    assert crossing_time(_series([0.0, 1.0, 2.0], gr=[1.0, 0.5, 0.0], pt_min=[-1.0, -0.5, -0.1]), "GR") is None


@pytest.mark.parametrize("pt_min, want", [
    ([-1.0, -0.9, 0.1], 1.9),  # interpolated across the last interval
    ([-0.5, 0.5, 1.0], 0.5),  # the first sign change, not a later one
])
def test_crossing_time_gr_stays_in_the_bracket(pt_min, want):
    assert crossing_time(_series([0.0, 1.0, 2.0], pt_min=pt_min), "GR") == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("make_rho0, steps, tol", [
    (lambda: bell_state(BellKind.PHI_MINUS), 200, 1e-4),
    (grape_target_pipeline, 2000, 1e-5),
], ids=["phi-", "grape"])
def test_crossing_time_gr_matches_the_closed_form_root(make_rho0, steps, tol):
    # relaxation keeps these states Bell-diagonal, where GR = max(0, 2 lambda_max - 1)
    rho0 = make_rho0()
    params = RelaxationParams()

    def excess(t):
        return 2.0 * np.linalg.eigvalsh(relax_channel(rho0, t, params).matrix)[-1] - 1.0

    exact = brentq(excess, 0.0, 0.6, xtol=1e-12)
    series = sweep(rho0, params, bell_witness(BellKind.PHI_MINUS), t_max=0.6, steps=steps)
    assert abs(crossing_time(series, "GR") - exact) <= tol


def _bd_grid():
    """The physical Bell-diagonal triples of a 9-point grid on [-1, 1]^3.

    54 of them have lambda_min = 0 of the partial transpose exactly: PPT
    states whose GR is never positive.
    """
    axis = np.linspace(-1.0, 1.0, 9)
    return [c for c in itertools.product(axis, repeat=3) if bd_weights(c).min() >= 0.0]


def test_crossing_time_gr_ends_exactly_where_the_robustness_reaches_zero():
    grid = _bd_grid()
    assert len(grid) == 249
    ends = 0
    for c in grid:
        series = sweep(bd(*c), PAPER_T2, bell_witness(BellKind.PHI_MINUS), t_max=0.6, steps=100)
        gr = series.gr_values
        dies = bool(((gr[:-1] > 0.0) & (gr[1:] == 0.0)).any())
        tau = crossing_time(series, "GR")
        assert (tau is not None) == dies, c
        if dies:
            k = np.searchsorted(series.times, tau)
            assert gr[k - 1] > 0.0 and gr[k] == 0.0, c
        ends += dies
    assert ends > 100


def test_a_witness_that_starts_at_zero_on_the_grid_never_ends_at_time_zero():
    # W = 0 exactly at t = 0 on some octahedron faces, then positive: no detection to end
    starts_at_zero = 0
    for c in _bd_grid():
        series = sweep(bd(*c), PAPER_T2, bell_witness(BellKind.PHI_MINUS), t_max=0.6, steps=20)
        xx, yy, zz = _relax(bd(*c)._coords, series.times, PAPER_T2)[:, _CORRELATION_COORDS].T
        for kind in BellKind:
            w = bell_witness(kind).value(xx, yy, zz)
            tau = crossing_time(dataclasses.replace(series, w_values=w), "W")
            assert tau is None or tau > 0.0, (c, kind)
            if w[0] == 0.0:
                starts_at_zero += 1
                assert (tau is None) == bool((w[1:] >= 0.0).all()), (c, kind)
    assert starts_at_zero == 60  # 15 grid points under each Bell witness


def test_no_witness_outlives_the_robustness():
    # W < 0 and F < 0 each imply an NPT state, so neither may end after GR
    rng = np.random.default_rng(2026)
    states = [random_density_matrix(rng, rank=2) for _ in range(60)]
    states += [pseudo_pure(eps, bell_state(kind)) for kind in BellKind for eps in (0.5, 0.75, 1.0)]
    states.append(grape_target_pipeline())
    for rho0 in states:
        series = sweep(rho0, PAPER_T2, bell_witness(BellKind.PHI_MINUS), t_max=0.6, steps=200)
        tau_gr = crossing_time(series, "GR")
        if tau_gr is None:  # NPT over the whole grid, or at no point of it
            tau_gr = np.inf if series.pt_min_values[-1] < -NPT_CUT else -np.inf
        tau_f = crossing_time(series, "F")
        assert tau_f is None or tau_f <= tau_gr
        xx, yy, zz = _relax(rho0._coords, series.times, PAPER_T2)[:, _CORRELATION_COORDS].T
        for kind in BellKind:
            w_series = dataclasses.replace(series, w_values=bell_witness(kind).value(xx, yy, zz))
            tau_w = crossing_time(w_series, "W")
            assert tau_w is None or tau_w <= tau_gr + 1e-9


def _spin_s_rotated_phi_minus(theta):
    u = np.kron(np.eye(2), np.array([[np.cos(theta / 2), -np.sin(theta / 2)], [np.sin(theta / 2), np.cos(theta / 2)]]))
    return DensityMatrix(u @ bell_state(BellKind.PHI_MINUS).matrix @ u.T)


@pytest.mark.parametrize("make_rho0", [
    lambda: bell_state(BellKind.PHI_MINUS),
    grape_target_pipeline,
    lambda: _spin_s_rotated_phi_minus(0.2),
    lambda: _spin_s_rotated_phi_minus(0.4),
    lambda: _spin_s_rotated_phi_minus(1.0),
], ids=["phi-", "grape", "rotated-0.2", "rotated-0.4", "rotated-1.0"])
def test_crossing_time_gr_matches_the_ppt_root(make_rho0):
    # the rotated states are not Bell-diagonal: the root is lambda_min of the partial transpose
    rho0 = make_rho0()

    def pt_min(t):
        return np.linalg.eigvalsh(_pt_arr(relax_channel(rho0, t, PAPER_T2).matrix))[0]

    exact = brentq(pt_min, 0.0, 0.6, xtol=1e-14)
    for steps, tol in ((200, 1e-5), (2000, 2e-7)):
        series = sweep(rho0, PAPER_T2, bell_witness(BellKind.PHI_MINUS), t_max=0.6, steps=steps)
        assert abs(crossing_time(series, "GR") - exact) <= tol


def test_crossing_time_rejects_unknown_quantity():
    with pytest.raises(DomainError):
        crossing_time(_series([0.0, 1.0]), "Q")


def test_series_validation():
    with pytest.raises(DomainError):
        SweepSeries(
            times=np.array([0.0, 1.0]),
            f_values=np.zeros(3),
            w_values=np.zeros(2),
            gr_values=np.zeros(2),
            partial_transposes=np.zeros((2, 4, 4), dtype=complex),
            tau_c=None,
            tau_r=None,
            tau_w=None,
        )
    with pytest.raises(DomainError):
        SweepSeries(
            times=np.array([1.0, 0.5]),
            f_values=np.zeros(2),
            w_values=np.zeros(2),
            gr_values=np.zeros(2),
            partial_transposes=np.zeros((2, 4, 4), dtype=complex),
            tau_c=None,
            tau_r=None,
            tau_w=None,
        )
    with pytest.raises(DomainError, match="partial_transposes"):
        _series([0.0, 1.0], pt_min=np.zeros(3))
