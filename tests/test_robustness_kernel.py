"""The closed-form stages' real-arithmetic kernel: one set of lines, two executors.

``_bracket``'s bounds, the whole product bracket, from the eigenpairs to
the closure test, and what follows the solve of each Newton step of the Bell
completion are written once in +, -, *, / and sqrt.  Each stage runs them on
plain Python floats, point by point, below one cutoff and on numpy (k,)
lanes from there; IEEE 754 rounds those operations correctly, so the two
give the same bits.  These checks hold every point to the same bytes alone
and in stacks of 2, 30 and 10,000, which sit on both sides of the cutoff:
in ``_bracket``, in the product bracket, in the Bell bracket on the points
those two leave open (stepping, not stepping, and product-class points that
stall open) and in the whole robustness; ``_bracket``'s bounds to the bytes
of its numpy formula on either executor; and a 10,000-step sweep, whose
product stacks run on lanes, to its one-point replay through
``generalized_robustness``.
"""

import warnings

import numpy as np
import pytest

from conftest import entangled_ginibre, relaxed_states, stage_inputs
from test_robustness_bracket import stress_sets
from test_robustness_product import bench_robustness_inputs
from test_sweep_batch import PAPER_T2
from witnesslab import DensityMatrix, bell_witness, BellKind, generalized_robustness, relax_channel, sweep
from witnesslab import optim
from witnesslab.qmat import _pt_arr

GAP = 1e-8
STACKS = (2, 30, 10_000)


@pytest.fixture(scope="module")
def states():
    return np.concatenate([stress_sets(), bench_robustness_inputs()])


@pytest.fixture(scope="module")
def npt_inputs(states):
    return stage_inputs(states)


def bracket_rows(out):
    """Each point's bytes of a bracket's outputs: L, U, the closure, and omega and the witness where it closes."""
    low, high, closed, omega, witness = out
    at = np.cumsum(closed) - 1
    return [(low[i].tobytes(), high[i].tobytes(), bool(closed[i]),
             omega[at[i]].tobytes() if closed[i] else None, witness[at[i]].tobytes() if closed[i] else None)
            for i in range(len(low))]


def robustness_rows(out):
    """Each point's bytes of _robustness's outputs: value, iterations, omega, lower, witness and lambda_min."""
    values, iterations, omega, failures, lower, witness, lam_min = out
    assert not failures
    return [b"".join(a[i].tobytes() for a in (values, iterations, omega, lower, witness, lam_min))
            for i in range(len(values))]


def stacked(stage, n, rows):
    """stage(idx) of the stacks of STACKS points cut from n points in turn (10,000 repeats them), each
    against the points' one-point rows."""
    for size in STACKS:
        idx = np.arange(max(size, n)) % n
        for start in range(0, len(idx) - size + 1, size):
            chunk = idx[start:start + size]
            got = stage(chunk)
            assert len(got) == size
            for i, row in zip(chunk, got):
                assert row == rows[i], (size, i)


def test_the_stacks_sit_on_both_sides_of_every_cutoff():
    assert 2 < optim._LANES <= 30


def test_every_point_gives_the_same_bytes_alone_and_in_stacks(states, npt_inputs, monkeypatch):
    m, lam_min, lam, vecs, e, r, diff = npt_inputs
    n = len(m)
    assert n > 3000
    alone = [bracket_rows(optim._bracket(e[i:i + 1], lam_min[i:i + 1], diff[i:i + 1]))[0] for i in range(n)]
    assert sum(row[2] for row in alone) > 1000  # closed points, whose omega and witness are compared too
    stacked(lambda idx: bracket_rows(optim._bracket(e[idx], lam_min[idx], diff[idx])), n, alone)
    open_first = np.array([not row[2] for row in alone])
    # the product bracket on every NPT point: the maximally entangled e of a point _bracket closes gives NaN
    alone = [bracket_rows(optim._product_bracket(m[i:i + 1], lam[i:i + 1], vecs[i:i + 1],
                                                 optim._PRODUCT_STEPS, r[i:i + 1]))[0] for i in range(n)]
    assert sum(row[2] for row in alone) > 1000
    stacked(lambda idx: bracket_rows(optim._product_bracket(m[idx], lam[idx], vecs[idx], optim._PRODUCT_STEPS,
                                                            r[idx])), n, alone)
    # the Bell bracket on the points both leave open: one _run per Newton step of the completion, on floats alone
    # and in the stacks of 2 and 30, and on lanes in the stack of 10,000 until few of its points still step
    left = m[open_first & ~np.array([row[2] for row in alone])]
    runs, run = [], optim._run
    with monkeypatch.context() as patch:
        patch.setattr(optim, "_run", lambda lines, inputs, *a: (runs.append(len(inputs[0])), run(lines, inputs, *a))[1])
        alone, steps = [], []
        for i in range(len(left)):
            runs.clear()
            alone.append(bracket_rows(optim._bell_bracket(left[i:i + 1]))[0])
            steps.append(len(runs))
        steps, closed = np.array(steps), np.array([row[2] for row in alone])
        # points that take no step, points that step and close, and product-class points that stall open
        assert (steps == 0).sum() > 500 and (closed & (steps > 0)).sum() > 200 and (~closed & (steps > 2)).sum() > 10
        runs.clear()
        stacked(lambda idx: bracket_rows(optim._bell_bracket(left[idx])), len(left), alone)
        assert min(runs) < optim._LANES <= max(runs)
    # and the whole robustness, whose stack of 10,000 sends thousands of points to the product bracket, on lanes
    alone = [robustness_rows(optim._robustness(_pt_arr(states[i:i + 1])))[0] for i in range(len(states))]
    stacked(lambda idx: robustness_rows(optim._robustness(_pt_arr(states[idx]))), len(states), alone)


def numpy_bracket(e, lam_min, diff):
    """_bracket as whole-stack numpy, the formula the kernel's lines replace, with its omega and witness."""
    a2_twice = 1.0 + diff
    ab_twice = np.sqrt(a2_twice * (2.0 - a2_twice))
    lower, upper = lam_min * (-2.0 / a2_twice), lam_min * (6.0 / (2.0 + ab_twice) - 4.0)
    closed = upper - lower < GAP
    vec, ab, neg = e[closed], 0.5 * ab_twice[closed], -lam_min[closed]
    proj_pt = _pt_arr(vec[:, :, None] * vec[:, None, :].conj())
    omega = (neg / (1.0 + ab))[:, None, None] * (proj_pt + ab[:, None, None] * np.eye(4))
    return lower, upper, closed, omega, proj_pt * (2.0 / a2_twice[closed])[:, None, None]


@pytest.mark.parametrize("lanes", [False, True])
def test_bracket_bounds_are_the_bytes_of_the_numpy_formula(npt_inputs, lanes, monkeypatch):
    m, lam_min, lam, vecs, e, r, diff = npt_inputs
    monkeypatch.setattr(optim, "_LANES", 0 if lanes else 10 ** 9)
    got, want = optim._bracket(e, lam_min, diff), numpy_bracket(e, lam_min, diff)
    assert got[2].sum() > 1000 and (~got[2]).sum() > 1000
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_a_long_sweep_replays_bit_for_bit_through_generalized_robustness(monkeypatch):
    rho0, w, steps = entangled_ginibre(2), bell_witness(BellKind.PHI_MINUS), 10_000
    sizes = []
    product_bracket = optim._product_bracket
    monkeypatch.setattr(optim, "_product_bracket",
                        lambda m, *args: (sizes.append(len(m)), product_bracket(m, *args))[1])
    series = sweep(rho0, PAPER_T2, w, 0.6, steps)
    monkeypatch.undo()
    # the product bracket's stack runs on lanes
    assert sizes and sizes[0] >= optim._LANES and sizes[0] > 1000
    states = relaxed_states(rho0, series.times, PAPER_T2)
    values, _, omega, failures, lower, witness, _ = optim._robustness(_pt_arr(states))
    assert not failures and values.tobytes() == series.gr_values.tobytes()
    entangled = np.flatnonzero(values > 0)
    for k in np.unique(np.concatenate([np.arange(0, steps, 499), entangled[::60], entangled[-3:]])):
        rho_t = relax_channel(rho0, float(series.times[k]), PAPER_T2)
        assert np.array_equal(rho_t.matrix, states[k])
        single = generalized_robustness(rho_t)
        assert single.value == series.gr_values[k] and single.lower == lower[k]
        if single.witness is not None:
            assert single.witness.matrix.tobytes() == witness[k].tobytes()
            assert single.certificate_state.matrix.tobytes() == (omega[k] / values[k]).tobytes()


def test_generalized_robustness_takes_the_float_executor_and_the_sweep_the_lanes(monkeypatch):
    # one point: both stages on floats; its value agrees with the lanes' bit for bit (the sweep test above)
    rho = DensityMatrix(entangled_ginibre(8).matrix)
    used = []
    run = optim._run
    monkeypatch.setattr(optim, "_run", lambda lines, inputs, *a: (
        used.append((lines.__name__, len(inputs[0]) >= optim._LANES)), run(lines, inputs, *a))[1])
    generalized_robustness(rho)
    assert used == [("_bracket_lines", False), ("_product_lines", False)]


@pytest.mark.parametrize("lanes", [False, True])
def test_a_newton_decrement_rounded_below_zero_takes_a_full_step(lanes, monkeypatch):
    # rhs . dz of a near-singular Newton system can round below 0: it counts as 0, where math.sqrt would raise and
    # np.sqrt give NaN, so both executors take the full step, with no warning
    monkeypatch.setattr(optim, "_LANES", 0 if lanes else 10 ** 9)
    dz, z = np.array([[0.125, -0.25, 0.375, 0.0, 0.5, 0.25]]), np.array([[0.0, 0.0, 0.0, 0.0, 0.0, -0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = optim._run(optim._newton_lines, (np.array([-2.0 ** -60]), dz, z, np.array([3.0])), True)
    assert out.tolist() == [[0.125, -0.25, 0.375, 0.0, 0.5, -0.25, 3.0 * optim._COMPLETION_GROWTH, 1.0]]


@pytest.mark.parametrize("lanes", [False, True])
def test_a_schmidt_difference_rounded_above_one_closes_with_b_zero(lanes, monkeypatch):
    # a^2 - b^2 = 1 + 2^-51 puts 2 a^2 (2 - 2 a^2) below 0: b = 0 there, on both executors and with no warning
    monkeypatch.setattr(optim, "_LANES", 0 if lanes else 10 ** 9)
    e = np.array([[1.0, 0.0, 0.0, 0.0]], dtype=complex)
    lam = np.array([-0.125])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        low, high, closed, omega, witness = optim._bracket(e, lam, np.array([1.0 + 2.0 ** -51]))
    assert high[0] == 0.125 and 0.0 < high[0] - low[0] < 1e-15 and closed[0]
    assert np.array_equal(omega[0], 0.125 * _pt_arr(np.outer(e[0], e[0].conj())))
