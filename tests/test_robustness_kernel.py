"""The closed-form stages' real-arithmetic kernel: one set of lines, two executors.

``_bracket``'s Schmidt coefficients and bounds, the whole product bracket,
from the eigenpairs to the closure test, the Bell bracket's coordinates of
rho and, from them and the SVD factors, its sign, rotation, lower bound,
minimum-norm omega and witness coordinates, and what follows the solve of
each Newton step of the Bell completion are written once in +, -, *, / and
sqrt.  Each stage runs them on plain Python floats, point by point, below
one cutoff and on numpy (k,) lanes from there; IEEE 754 rounds those
operations correctly, so the two give the same bits.  These checks hold
every point to the same bytes alone and in stacks of 2, 30 and 10,000,
which sit on both sides of the cutoff: in ``_bracket``, in the product
bracket, in the Bell bracket on the points those two leave open (stepping,
not stepping, and product-class points that stall open), in the Schmidt,
coordinate and Bell lines themselves (stacks of 1 too) and in the whole
robustness; ``_bracket``'s bounds to the bytes of its numpy formula on
either executor and to the matmul and hypot formula it replaced within
rounding; the coordinates to the bytes of ``pauli_coords``; the sign d to
the determinants' on degenerate correlation matrices; omega's and W's
coordinates to the numpy formula they replaced within 1e-15; and a
10,000-step sweep, whose product stacks run on lanes, to its one-point
replay through ``generalized_robustness``.
"""

import warnings

import numpy as np
import pytest

from conftest import GAP, PAPER_T2, bench_robustness_inputs, entangled_ginibre, relaxed_states, schmidt, stage_inputs
from conftest import stress_sets
from witnesslab import DensityMatrix, bell_witness, BellKind, generalized_robustness, relax_channel, sweep
from witnesslab import optim
from witnesslab.qmat import PT_SIGN, _eigh, _pt_arr, _svd, from_pauli_coords, pauli_coords

STACKS = (2, 30, 10_000)


@pytest.fixture(scope="module")
def states():
    return np.concatenate([stress_sets(), bench_robustness_inputs()])


@pytest.fixture(scope="module")
def npt_inputs(states):
    return stage_inputs(states)


@pytest.fixture(params=[False, True])
def lanes(request, monkeypatch):
    """The kernel's executor at any stack size: plain floats, then numpy lanes."""
    monkeypatch.setattr(optim, "_LANES", 0 if request.param else 10 ** 9)
    return request.param


def bracket_rows(out):
    """Each point's bytes of a bracket's outputs: L, U, the closure, omega and the witness where it closes, and
    _bracket's start row."""
    low, high, closed, omega, witness, *start = out
    at = np.cumsum(closed) - 1
    return [(low[i].tobytes(), high[i].tobytes(), bool(closed[i]),
             omega[at[i]].tobytes() if closed[i] else None, witness[at[i]].tobytes() if closed[i] else None,
             start[0][i].tobytes() if start else None)
            for i in range(len(low))]


def robustness_rows(out):
    """Each point's bytes of _robustness's outputs: value, iterations, omega, lower, witness and route."""
    values, iterations, omega, failures, lower, witness, route = out
    assert not failures
    return [b"".join(a[i].tobytes() for a in (values, iterations, omega, lower, witness, route))
            for i in range(len(values))]


def stacked(stage, n, rows, sizes=STACKS):
    """stage(idx) of the stacks of each size cut from n points in turn (10,000 repeats them, and stacks of 1 take
    every 97th point), each against the points' one-point rows."""
    for size in sizes:
        idx = np.arange(max(size, n)) % n
        for start in range(0, len(idx) - size + 1, size if size > 1 else 97):
            chunk = idx[start:start + size]
            got = stage(chunk)
            assert len(got) == size
            for i, row in zip(chunk, got):
                assert row == rows[i], (size, i)


def test_the_stacks_sit_on_both_sides_of_every_cutoff():
    assert 2 < optim._LANES <= 30


def test_every_point_gives_the_same_bytes_alone_and_in_stacks(states, npt_inputs, monkeypatch):
    m, lam_min, lam, vecs, e, start = npt_inputs
    n = len(m)
    assert n > 3000
    alone = [bracket_rows(optim._bracket(e[i:i + 1], lam_min[i:i + 1]))[0] for i in range(n)]
    assert sum(row[2] for row in alone) > 1000  # closed points, whose omega and witness are compared too
    stacked(lambda idx: bracket_rows(optim._bracket(e[idx], lam_min[idx])), n, alone)
    open_first = np.array([not row[2] for row in alone])
    # the product bracket on every NPT point: the maximally entangled e of a point _bracket closes gives NaN
    alone = [bracket_rows(optim._product_bracket(m[i:i + 1], lam[i:i + 1], vecs[i:i + 1],
                                                 optim._PRODUCT_STEPS, start[i:i + 1]))[0] for i in range(n)]
    assert sum(row[2] for row in alone) > 1000
    stacked(lambda idx: bracket_rows(optim._product_bracket(m[idx], lam[idx], vecs[idx], optim._PRODUCT_STEPS,
                                                            start[idx])), n, alone)
    # the Bell bracket on the points both leave open: its coordinate and Bell lines, then one _run per Newton step
    # of the completion, on floats alone and in the stacks of 2 and 30, and on lanes in the stack of 10,000 (the
    # completion's until few of its points still step)
    left = m[open_first & ~np.array([row[2] for row in alone])]
    runs, run = [], optim._run
    with monkeypatch.context() as patch:
        patch.setattr(optim, "_run", lambda lines, inputs, *a: (runs.append((lines.__name__, len(inputs[0]))),
                                                                  run(lines, inputs, *a))[1])
        alone, steps = [], []
        for i in range(len(left)):
            runs.clear()
            alone.append(bracket_rows(optim._bell_bracket(left[i:i + 1]))[0])
            assert [name for name, _ in runs[:2]] == ["_coord_lines", "_bell_lines"]
            steps.append(len(runs) - 2)
        steps, closed = np.array(steps), np.array([row[2] for row in alone])
        # points that take no step, points that step and close, and product-class points that stall open
        assert (steps == 0).sum() > 500 and (closed & (steps > 0)).sum() > 200 and (~closed & (steps > 2)).sum() > 10
        runs.clear()
        stacked(lambda idx: bracket_rows(optim._bell_bracket(left[idx])), len(left), alone)
        sizes = [size for name, size in runs if name == "_newton_lines"]
        assert min(sizes) < optim._LANES <= max(sizes)
        assert {size for name, size in runs if name == "_bell_lines"} == set(STACKS)
    # and the whole robustness, whose stack of 10,000 sends thousands of points to the product bracket, on lanes
    alone = [robustness_rows(optim._robustness(_pt_arr(states[i:i + 1])))[0] for i in range(len(states))]
    stacked(lambda idx: robustness_rows(optim._robustness(_pt_arr(states[idx]))), len(states), alone)


def numpy_bracket(e, lam_min):
    """_bracket as whole-stack numpy, the formula the kernel's lines replace, with its omega, witness and start.

    e's reduced matrix r on spin I is its 2x2 product written out in real
    arithmetic, and a^2 - b^2 = sqrt(D^2 + 4 |r01|^2), D = r00 - r11.
    """
    x0, y0, x1, y1, x2, y2, x3, y3 = np.ascontiguousarray(e).view(float).T
    r00, r11 = (x0 * x0 + y0 * y0) + (x1 * x1 + y1 * y1), (x2 * x2 + y2 * y2) + (x3 * x3 + y3 * y3)
    r01r, r01i = (x0 * x2 + y0 * y2) + (x1 * x3 + y1 * y3), (y0 * x2 - x0 * y2) + (y1 * x3 - x1 * y3)
    a2_twice = 1.0 + np.sqrt((r00 - r11) ** 2 + 4.0 * (r01r * r01r + r01i * r01i))
    ab_twice = np.sqrt(a2_twice * (2.0 - a2_twice))
    lower, upper = lam_min * (-2.0 / a2_twice), lam_min * (6.0 / (2.0 + ab_twice) - 4.0)
    closed = upper - lower < GAP
    vec, ab, neg = e[closed], 0.5 * ab_twice[closed], -lam_min[closed]
    proj_pt = _pt_arr(vec[:, :, None] * vec[:, None, :].conj())
    omega = (neg / (1.0 + ab))[:, None, None] * (proj_pt + ab[:, None, None] * np.eye(4))
    start = np.stack([r00, r11, r01r, r01i], axis=-1)
    return lower, upper, closed, omega, proj_pt * (2.0 / a2_twice[closed])[:, None, None], start


def test_bracket_bounds_are_the_bytes_of_the_numpy_formula(npt_inputs, lanes):
    m, lam_min, lam, vecs, e, start = npt_inputs
    got, want = optim._bracket(e, lam_min), numpy_bracket(e, lam_min)
    assert got[2].sum() > 1000 and (~got[2]).sum() > 1000
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_the_schmidt_lines_are_the_matmul_and_hypot_formula_to_rounding(npt_inputs):
    # r written out in real arithmetic and sqrt(D^2 + 4 |r01|^2) in place of the complex matmul and hypot: a few ulps
    m, lam_min, lam, vecs, e, start = npt_inputs
    want_start, diff = schmidt(e)
    low, high, closed, _, _, got_start = optim._bracket(e, lam_min)
    assert np.abs(got_start - want_start).max() <= 2.0 ** -52
    a2_twice = 1.0 + diff
    ab_twice = np.sqrt(np.maximum(0.0, a2_twice * (2.0 - a2_twice)))
    np.testing.assert_allclose(low, lam_min * (-2.0 / a2_twice), rtol=0, atol=1e-15)
    np.testing.assert_allclose(high, lam_min * (6.0 / (2.0 + ab_twice) - 4.0), rtol=0, atol=1e-15)


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


def test_a_newton_decrement_rounded_below_zero_takes_a_full_step(lanes):
    # rhs . dz of a near-singular Newton system can round below 0: it counts as 0, where math.sqrt would raise and
    # np.sqrt give NaN, so both executors take the full step, with no warning
    dz, z = np.array([[0.125, -0.25, 0.375, 0.0, 0.5, 0.25]]), np.array([[0.0, 0.0, 0.0, 0.0, 0.0, -0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = optim._run(optim._newton_lines, (np.array([-2.0 ** -60]), dz, z, np.array([3.0])), True)
    assert out.tolist() == [[0.125, -0.25, 0.375, 0.0, 0.5, -0.25, 3.0 * optim._COMPLETION_GROWTH, 1.0]]


def test_a_schmidt_difference_rounded_above_one_closes_with_b_zero(lanes):
    # e_00 = 1 + 2^-52 gives a^2 - b^2 = 1 + 2^-51, which puts 2 a^2 (2 - 2 a^2) below 0: b = 0 there, on both
    # executors and with no warning
    e = np.array([[1.0 + 2.0 ** -52, 0.0, 0.0, 0.0]], dtype=complex)
    lam = np.array([-0.125])
    assert optim._run(optim._bracket_lines, (lam, e.view(float)))[0, 3] == 2.0 + 2.0 ** -51
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        low, high, closed, omega, witness, _ = optim._bracket(e, lam)
    assert high[0] == 0.125 and 0.0 < high[0] - low[0] < 1e-15 and closed[0]
    assert np.array_equal(omega[0], 0.125 * _pt_arr(np.outer(e[0], e[0].conj())))


def bell_inputs(m):
    """_bell_lines' inputs for a (k, 4, 4) stack of partial transposes: rho's coordinates and the SVD of T."""
    x = optim._run(optim._coord_lines, (np.ascontiguousarray(m).reshape(-1, 16).view(float),))
    u, s, vt = _svd(x.reshape(-1, 4, 4)[:, 1:, 1:])
    return x, u.reshape(-1, 9), s, vt.reshape(-1, 9)


def old_bell_formula(x):
    """The Bell bracket's numpy formula the kernel's lines replace: the minimum-norm omega's coordinates y, W's and R.

    d = -sign(det U det V^T) by np.linalg.det, and the products by matmul.
    """
    x = x.reshape(-1, 4, 4)
    t = x[:, 1:, 1:]
    u, s, vt = np.linalg.svd(t)
    d = -np.sign(np.linalg.det(u) * np.linalg.det(vt))
    u[..., 2] *= d[:, None]
    r = -(u @ vt)
    lower = 0.5 * (s[:, 0] + s[:, 1] + d * s[:, 2] - x[:, 0, 0])
    a, b = x[:, 1:, :1], x[:, :1, 1:]
    y = np.empty_like(x)
    y[:, 0, 0] = lower
    y[:, 1:, :1] = -0.5 * (a + r @ b.swapaxes(-1, -2))
    y[:, :1, 1:] = -0.5 * (a.swapaxes(-1, -2) @ r + b)
    y[:, 1:, 1:] = (lower / 3.0)[:, None, None] * r - 0.25 * (t - r @ t.swapaxes(-1, -2) @ r)
    w = np.zeros_like(x)
    w[:, 0, 0] = 0.5
    w[:, 1:, 1:] = 0.5 * r
    return y.reshape(-1, 16), w.reshape(-1, 16), r.reshape(-1, 9)


def degenerate_correlations(rng):
    """States' partial transposes whose correlation matrix T = O_1 diag(s) O_2 has rank 2, rank 1 or 0, or repeated
    singular values; O_1, O_2 random orthogonal of either determinant, and random small local Bloch vectors.

    The coordinates need not be a state's: the lines take any Hermitian m.
    """
    spectra = [(0.6, 0.3, 0.0), (0.5, 0.0, 0.0), (0.0, 0.0, 0.0), (0.4, 0.4, 0.2), (0.5, 0.2, 0.2),
               (0.3, 0.3, 0.3), (0.7, 0.7, 0.0), (0.2, 0.2, 0.2)]
    x = np.zeros((len(spectra) * 40, 4, 4))
    for i, s in enumerate(spectra * 40):
        o1, o2 = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
        x[i, 0, 0] = 1.0
        x[i, 1:, 1:] = o1 @ np.diag(s) @ o2
        x[i, 1:, 0], x[i, 0, 1:] = 0.1 * rng.standard_normal(3), 0.1 * rng.standard_normal(3)
    return _pt_arr(from_pauli_coords(x.reshape(-1, 16)) / 4.0)


@pytest.fixture(scope="module")
def partial_transposes(states):
    m = _pt_arr(states)
    # signed zeros: the coordinates of -m keep pauli_coords' signs of zero too
    return np.concatenate([m, degenerate_correlations(np.random.default_rng(4107)), -m[:50], 0.0 * m[:3],
                           -0.0 * m[:3]])


def test_the_coordinate_lines_are_the_bytes_of_pauli_coords(partial_transposes, lanes):
    x = optim._run(optim._coord_lines, (partial_transposes.reshape(-1, 16).view(float),))
    assert x.tobytes(order="C") == (pauli_coords(partial_transposes) * PT_SIGN).tobytes()


def test_the_schmidt_and_bell_lines_give_the_same_bytes_alone_and_in_stacks(states, partial_transposes, monkeypatch):
    lam, vecs = _eigh(partial_transposes)
    kernels = [(optim._coord_lines, (partial_transposes.reshape(-1, 16).view(float),)),
               (optim._bracket_lines, (lam[:, 0], np.ascontiguousarray(vecs[..., 0]).view(float))),
               (optim._bell_lines, bell_inputs(partial_transposes))]
    n = len(partial_transposes)
    for lines, inputs in kernels:
        alone = [optim._run(lines, tuple(a[i:i + 1] for a in inputs))[0].tobytes() for i in range(n)]
        for lanes in (False, True):
            monkeypatch.setattr(optim, "_LANES", 0 if lanes else 10 ** 9)
            stacked(lambda idx: [row.tobytes() for row in optim._run(lines, tuple(a[idx] for a in inputs))], n, alone,
                    (1,) + STACKS)
            monkeypatch.undo()


def test_d_is_minus_the_sign_of_det_u_det_vt_on_every_correlation_matrix(partial_transposes, lanes):
    # the rotation R = -U diag(1, 1, d) V^T gives d back as -(U^T R V)_33; det R = 1 is what d is for
    x, u, s, vt = bell_inputs(partial_transposes)
    r = optim._run(optim._bell_lines, (x, u, s, vt))[:, 48:].reshape(-1, 3, 3)
    u, vt = u.reshape(-1, 3, 3), vt.reshape(-1, 3, 3)
    d = -(u.swapaxes(-1, -2) @ r @ vt.swapaxes(-1, -2))[:, 2, 2]
    want = -np.sign(np.linalg.det(u) * np.linalg.det(vt))
    assert np.abs(np.abs(d) - 1.0).max() < 1e-14 and np.array_equal(np.sign(d), want)
    np.testing.assert_allclose(np.linalg.det(r), 1.0, rtol=0, atol=1e-14)
    # the degenerate ones: rank 2, rank 1 and 0, and repeated singular values
    degenerate = np.isclose(s[:, 2], 0.0) | np.isclose(s[:, 0], s[:, 1]) | np.isclose(s[:, 1], s[:, 2])
    assert degenerate.sum() >= 320 and (s[:, 0] <= 1e-15).sum() >= 40


def test_omega_and_witness_coordinates_are_the_old_numpy_formula_to_rounding(partial_transposes):
    x, u, s, vt = bell_inputs(partial_transposes)
    out = optim._run(optim._bell_lines, (x, u, s, vt))
    y, w, r = old_bell_formula(x)
    assert out[:, 16:32].tobytes() == x.tobytes()  # rho's coordinates pass through
    np.testing.assert_allclose(out[:, :16], y, rtol=0, atol=1e-15)
    np.testing.assert_allclose(out[:, 32:48], w, rtol=0, atol=1e-15)
    np.testing.assert_allclose(out[:, 48:], r, rtol=0, atol=1e-15)
    # W's constant coordinates are exact: 1/2 and +0
    assert np.all(out[:, 32] == 0.5) and not np.signbit(out[:, [33, 34, 35, 36, 40, 44]]).any()
