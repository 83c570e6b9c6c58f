"""The sweep's PPT certificate: one Cholesky factorization of m + (NPT_CUT / 2) 1 per partial transpose m.

A point the certificate passes must be one that the robustness stages'
rule (lambda_min >= -NPT_CUT, from their one eigh) also calls PPT, so that
no verdict changes; the stacks here put lambda_min(rho^PT) on both sides
of the cut, within 1e-16 of it.  A certificate whose margin reached past
the cut would pass the points between -2e-12 and -1e-12.
"""

import numpy as np
import pytest

from conftest import PAPER_T2, bd, random_density_matrix, relaxed_states
from witnesslab import (
    BellKind,
    ConvergenceError,
    DensityMatrix,
    bell_witness,
    generalized_robustness,
    relax_channel,
    sweep,
)
from witnesslab import optim, relax
from witnesslab.qmat import _eigh, _eigvalsh, _pt_arr

# lambda_min(rho^PT) of the stacks' states: past the cut, on it within 1e-16, inside it, on the PPT boundary and past it
TARGETS = (-2e-12, -1.5e-12, -1e-12 - 1e-16, -1e-12, -1e-12 + 1e-16, -5e-13, 0.0, 1e-13)


def entangled_states(seed, count):
    """count seeded Ginibre states with lambda_min(rho^PT) < -0.01."""
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < count:
        rho = random_density_matrix(rng)
        if _eigvalsh(_pt_arr(rho.matrix))[0] < -0.01:
            states.append(rho)
    return states


def toward_mixed(rho, target):
    """p rho + (1 - p) 1/4, with p chosen so that lambda_min of its partial transpose is target."""
    lam = _eigvalsh(_pt_arr(rho.matrix))[0]
    p = (0.25 - target) / (0.25 - lam)
    return DensityMatrix(p * rho.matrix + (1.0 - p) / 4.0 * np.eye(4))


def near_cut_stack():
    """Ginibre states mixed toward 1/4 and Bell-diagonal states, with lambda_min(rho^PT) at each target."""
    states = [toward_mixed(rho, t).matrix for rho in entangled_states(39, 6) for t in TARGETS]
    # psi- weight 1/2 - t, the others (2s + 4t) / 4, (2s + 4t) / 4 and (2 - 4t - 4s) / 4: lambda_min(rho^PT) = t
    states += [bd(-1.0 + 4.0 * t + 2.0 * s, -s, -s).matrix for t in TARGETS for s in (0.2, 1.0 / 3.0, 0.45)]
    return np.stack(states)


def test_a_certified_point_is_ppt_by_the_eigvalsh_rule():
    m = _pt_arr(near_cut_stack())
    lam = _eigvalsh(m)[:, 0]
    certified = optim._ppt_certified(m)
    assert np.all(lam[certified] >= -optim.NPT_CUT)
    # and by the eigh's lambda_min, the rule that decides a point in optim._robustness
    assert np.all(_eigh(m)[0][certified, 0] >= -optim.NPT_CUT)
    # the stack straddles the cut: points past it, points between it and -NPT_CUT / 2, and PPT points
    assert np.count_nonzero(lam < -optim.NPT_CUT) >= 25
    assert np.count_nonzero((lam >= -optim.NPT_CUT) & (lam < -0.5 * optim.NPT_CUT)) >= 15
    # and the certificate is not empty: every point on or past the PPT boundary, within rounding, passes
    assert np.all(certified[lam >= -1e-15]) and np.count_nonzero(lam >= -1e-15) >= 15


def test_a_point_gets_the_same_verdict_alone_and_in_a_stack():
    m = _pt_arr(near_cut_stack())
    certified = optim._ppt_certified(m)
    assert [bool(optim._ppt_certified(m[k:k + 1])[0]) for k in range(len(m))] == certified.tolist()
    order = np.random.default_rng(5).permutation(len(m))
    assert np.array_equal(optim._ppt_certified(m[order]), certified[order])


def near_cut_sweeps():
    """Sweeps from lambda_min(rho^PT) = -2.5e-12, over a grid short enough that the first points cross the cut."""
    w = bell_witness(BellKind.PHI_MINUS)
    for rho in entangled_states(40, 4):
        yield toward_mixed(rho, -2.5e-12), w, 2e-12, 81


def test_a_sweep_across_the_cut_equals_the_one_point_robustness():
    crossed = 0
    for rho0, w, t_max, steps in near_cut_sweeps():
        series = sweep(rho0, PAPER_T2, w, t_max, steps)
        lam = series.pt_min_values
        crossed += bool((lam < -optim.NPT_CUT).any() and (lam >= 0.0).any())
        for k, t in enumerate(series.times):
            assert generalized_robustness(relax_channel(rho0, float(t), PAPER_T2)).value == series.gr_values[k]
        assert np.array_equal(series.gr_values > 0.0, lam < -optim.NPT_CUT)
    assert crossed == 4


@pytest.mark.parametrize("near_cut", [False, True], ids=["paper grid", "across the cut"])
def test_pt_min_values_are_the_eigh_of_the_stack_read_on_first_use(near_cut):
    if near_cut:
        rho0, w, t_max, steps = next(near_cut_sweeps())
    else:
        rho0, w, t_max, steps = entangled_states(2, 1)[0], bell_witness(BellKind.PHI_MINUS), 0.6, 200
    series = sweep(rho0, PAPER_T2, w, t_max, steps)
    m = _pt_arr(relaxed_states(rho0, series.times, PAPER_T2))
    assert np.array_equal(series.partial_transposes, m)  # built from signed coordinates, the bits of _pt_arr
    assert "pt_min_values" not in vars(series)  # not computed by the sweep
    pt_min = series.pt_min_values
    # the lambda_min of the eigh that decides each point in optim._robustness, so the GR crossing follows the verdict
    assert np.array_equal(pt_min, _eigh(m)[0][:, 0]) and series.pt_min_values is pt_min
    assert "partial_transposes" not in repr(series)


def test_only_the_uncertified_points_reach_the_robustness_stages(monkeypatch):
    seen = []
    robustness = relax._robustness

    def spy(m, **kwargs):
        seen.append(m)
        return robustness(m, **kwargs)

    monkeypatch.setattr(relax, "_robustness", spy)
    for rho0 in entangled_states(3, 3):
        series = sweep(rho0, PAPER_T2, bell_witness(BellKind.PHI_MINUS), 0.6, 200)
        npt = np.flatnonzero(series.pt_min_values < -optim.NPT_CUT)
        assert 0 < len(npt) < 200
        # the NPT points and no other, as their own partial transposes
        assert np.array_equal(seen.pop(), _pt_arr(relaxed_states(rho0, series.times[npt], PAPER_T2)))


def test_one_eigh_decides_and_starts_every_point(monkeypatch):
    calls, handed = [], []
    robustness = optim._robustness

    def spy(m, **kwargs):
        handed.append(m)
        calls.append("robustness")
        out = robustness(m, **kwargs)
        calls.append("done")
        return out

    def recorded(name, decompose):
        def call(a):
            calls.append((name, a))
            return decompose(a)
        return call

    monkeypatch.setattr(optim, "_robustness", spy)
    monkeypatch.setattr(relax, "_robustness", spy)
    monkeypatch.setattr(optim, "_eigh", recorded("eigh", optim._eigh))
    monkeypatch.setattr(optim, "_eigvalsh", recorded("eigvalsh", optim._eigvalsh))
    rho0 = entangled_states(3, 1)[0]
    generalized_robustness(rho0)
    series = sweep(rho0, PAPER_T2, bell_witness(BellKind.PHI_MINUS), 0.6, 200)
    # one eigh of the stack handed over in each call, and no eigvalsh
    assert [c if isinstance(c, str) else c[0] for c in calls] == ["robustness", "eigh", "done"] * 2
    assert calls[1][1] is handed[0] and calls[4][1] is handed[1]
    assert handed[0].tobytes() == _pt_arr(rho0.matrix)[None].tobytes()
    # the sweep hands over the rows of its own stack that the certificate leaves, bit for bit
    candidates = np.flatnonzero(~optim._ppt_certified(series.partial_transposes))
    assert 0 < len(candidates) < 200
    assert handed[1].tobytes() == series.partial_transposes[candidates].tobytes()


def test_a_failure_names_its_grid_time_when_certified_points_come_first(monkeypatch):
    # the stack handed to the stages starts at grid point 3, so its point 1 is grid point 4
    def failing(rho, **kwargs):
        values = np.zeros(len(rho))
        return values, None, None, (1, ConvergenceError("cap", lower=0.1, upper=0.2)), None, None, None

    def first_three(m):
        certified = np.zeros(len(m), dtype=bool)
        certified[:3] = True
        return certified

    monkeypatch.setattr(relax, "_ppt_certified", first_three)
    monkeypatch.setattr(relax, "_robustness", failing)
    rho0 = entangled_states(3, 1)[0]
    with pytest.raises(ConvergenceError) as err:
        sweep(rho0, PAPER_T2, bell_witness(BellKind.PHI_MINUS), 0.6, 12)
    times = np.linspace(0.0, 0.6, 12)
    assert str(err.value) == f"robustness solver failed at sweep time t = {times[4]:.6g} s: cap"
    assert (err.value.lower, err.value.upper) == (0.1, 0.2)
