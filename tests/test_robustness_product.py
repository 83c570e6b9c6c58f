"""The product bracket: bounds of the robustness from a product vector.

For every product vector w = u (x) v with q = <w|m^-1|w> < 0 (m = rho^PT),
U = -1/q bounds the robustness from above, and for every vector f,
L = -<f|m|f> / a_f^2 (a_f^2 the larger squared Schmidt coefficient of f)
bounds it from below.  The search in ``optim._product_bracket`` only picks
w and f = m^-1 w; where the two meet within the solver's gap, the point
takes them with no interior-point iteration.  These checks hold the bounds
for any choice and for the search's, the plain-float search against the
same search on numpy stacks, a point's bits alone and in a stack and on
either executor of the kernel, and the points that stay open against the
solver, and the longer search that closes the points every bracket leaves
open against a forced solve.  The stress tests and the forced-solve test
of the bracket hold the closed points to the same certificate checks and
to the solver's value.
"""

import warnings
from math import sqrt

import numpy as np
import pytest

from conftest import GAP, PAPER_T2, ROUTES, bench_robustness_inputs, check_certified, entangled_ginibre
from conftest import ginibre_states, isotropic_with_bloch, one_point_failures, relaxed_states, route_names, schmidt
from conftest import pin_lanes, stage_inputs, stress_sets
from witnesslab import BellKind, ConvergenceError, DensityMatrix, HermitianOp, generalized_robustness
from witnesslab import optim
from witnesslab.qmat import TOL_EQ, _pt_arr, pauli_coords
from witnesslab.states import _BELL_VECTORS


def unit(rng, shape):
    z = rng.standard_normal(shape + (2,)) + 1j * rng.standard_normal(shape + (2,))
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


@np.errstate(invalid="ignore", divide="ignore")
def stacked_search(x, start):
    """The reference: the same search as numpy stacks, _PRODUCT_STEPS half-step pairs on (k, 3, 1) columns.

    Returns w = u (x) v and the Bloch vectors of u and v.
    """
    x = np.concatenate([np.zeros((len(x), 1)), x], axis=1).reshape(-1, 4, 4)
    x_s, x_i, x_is = x[:, 0, 1:, None], x[:, 1:, 0, None], x[:, 1:, 1:]
    x_si = x_is.swapaxes(-1, -2)
    n_i = np.stack([2.0 * start[:, 2], -2.0 * start[:, 3], start[:, 0] - start[:, 1]], axis=-1)[..., None]
    n_i = n_i / np.sqrt(n_i.swapaxes(-1, -2) @ n_i)
    for _ in range(optim._PRODUCT_STEPS):
        g = x_s + x_si @ n_i
        n_s = g / np.sqrt(g.swapaxes(-1, -2) @ g)
        g = x_i + x_is @ n_s
        n_i = g / np.sqrt(g.swapaxes(-1, -2) @ g)
    n = np.concatenate([n_i, n_s], axis=-1).swapaxes(-1, -2)  # the Bloch vectors of u and v, (k, 2, 3)
    nz, nxy = n[..., 2], n[..., 0] + 1j * n[..., 1]
    up = nz >= 0.0
    uv = np.stack([np.where(up, 1.0 + nz, nxy.conj()), np.where(up, nxy, 1.0 - nz)], axis=-1)
    uv = uv / np.sqrt(2.0 + 2.0 * np.abs(nz))[..., None]
    return (uv[:, 0, :, None] * uv[:, 1, None, :]).reshape(-1, 4), n


def run_on(lanes, lines, inputs, *args):
    """optim._run on one executor at any stack size: numpy lanes, or plain floats point by point."""
    with pytest.MonkeyPatch.context() as patch:
        pin_lanes(patch, lanes)
        return optim._run(lines, inputs, *args)


def kernel_inputs(vecs, start):
    """The kernel's per-point inputs from the eigenpairs: the float view of vecs, and the start table of e's r."""
    return np.ascontiguousarray(vecs).reshape(len(vecs), 16).view(float), start


def kernel_table(m, lam, vecs, start, lanes, steps=optim._PRODUCT_STEPS):
    """The product kernel's outputs of each point as _product_bracket runs it, on one executor.

    Columns: w and f as floats (8 each), a_f^2, L, U, and the closure mask.
    """
    pt = np.ascontiguousarray(m).reshape(len(m), 16).view(float)
    return run_on(lanes, optim._product_lines, (lam, *kernel_inputs(vecs, start), pt), steps)


def kernel_inverse(lam, vecs, start):
    """m^-1 as the kernel forms it: the (k, 4, 4) Hermitian matrix of the entries that _search_lines returns first."""
    c = run_on(False, optim._search_lines, (lam, *kernel_inputs(vecs, start)), 1)
    m_inv = np.zeros((len(lam), 4, 4), dtype=complex)
    m_inv[:, range(4), range(4)] = c[:, :4]
    upper = np.triu_indices(4, 1)  # (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), as the kernel orders them
    m_inv[:, upper[0], upper[1]] = c[:, 4:16:2] + 1j * c[:, 5:16:2]
    m_inv[:, upper[1], upper[0]] = c[:, 4:16:2] - 1j * c[:, 5:16:2]
    return m_inv


def search_inputs(lam, vecs, start):
    """The search's inputs from the kernel's m^-1: -X of m^-1 without X_00, and the start table of e's r."""
    return -pauli_coords(kernel_inverse(lam, vecs, start))[:, 1:], start


def kernel_tail(m, lam, vecs, start, n):
    """L, U and the closure of the Bloch vectors n of u and v, (k, 2, 3), from the kernel's own m^-1 and tail.

    The kernel's search gives m^-1's entries and the mask; n stands for the
    Bloch vectors it found, so only they, and through them w, differ.
    """
    found = run_on(False, optim._search_lines, (lam, *kernel_inputs(vecs, start)), optim._PRODUCT_STEPS).tolist()
    pt = np.ascontiguousarray(m).reshape(len(m), 16).view(float).tolist()
    rows = [optim._tail_lines(sqrt, optim._pick, (*row[:16], *bloch, row[-1] != 0.0), entries)
            for row, bloch, entries in zip(found, n.reshape(-1, 6).tolist(), pt)]
    return np.array(rows, dtype=float)[:, -3:].T


def test_the_plain_float_search_matches_the_stacked_numpy_search():
    m, lam_min, lam, vecs, e, start = stage_inputs(stress_sets())
    # the points the search sees: on a few that _bracket closes, e is maximally entangled but for rounding, and
    # the search, started from that rounding, goes elsewhere on each side
    keep = ~optim._bracket(e, lam_min)[2]
    m, lam, vecs, start = m[keep], lam[keep], vecs[keep], start[keep]
    w_ref, n_ref = stacked_search(*search_inputs(lam, vecs, start))
    # the kernel on plain floats and on lanes: the same bytes
    table = kernel_table(m, lam, vecs, start, lanes=False)
    assert table.tobytes() == kernel_table(m, lam, vecs, start, lanes=True).tobytes()
    w = np.ascontiguousarray(table[:, :8]).view(complex)
    # only rounding apart: numpy's stacked products may fuse a multiply and an add, plain floats do not
    assert len(m) > 1500 and np.isfinite(w).all() and np.isfinite(w_ref).all()
    np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-12)
    # the bounds of the reference's Bloch vectors from the kernel's own m^-1 and tail, so that only w differs
    low, high, closed, _, _ = optim._product_bracket(m, lam, vecs, optim._PRODUCT_STEPS, start)
    low_ref, high_ref, closed_ref = kernel_tail(m, lam, vecs, start, n_ref)
    assert np.array_equal(closed, closed_ref) and closed.sum() > 800
    np.testing.assert_allclose(low, low_ref, rtol=0, atol=1e-14)  # NaN where the other is NaN
    np.testing.assert_allclose(high, high_ref, rtol=0, atol=1e-14)  # inf where the other is inf


def executors(monkeypatch):
    """Pin the product bracket to plain floats, then to lanes, at any stack size, in turn."""
    for lanes in (False, True):
        pin_lanes(monkeypatch, lanes)
        yield lanes


def test_a_degenerate_search_leaves_the_point_open_without_a_warning(monkeypatch):
    # e maximally entangled (a zero start Bloch vector), and a second eigenvalue <= 0 of m (no inverse)
    s = np.sqrt(0.5)
    bell = np.stack([_BELL_VECTORS[kind] for kind in (BellKind.PSI_MINUS, BellKind.PHI_PLUS,
                                                       BellKind.PHI_MINUS, BellKind.PSI_PLUS)], axis=1)
    product = np.kron(np.eye(2), [[s, s], [s, -s]]).astype(complex)  # e = |0>|+>, not entangled
    vecs = np.stack([bell, product, product])
    lam = np.array([[-0.2, 0.3, 0.4, 0.5], [-0.2, 0.0, 0.5, 0.7], [-0.2, -1e-17, 0.5, 0.7]])
    m = (vecs * lam[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    start = schmidt(vecs[..., 0])[0]
    # eigenpairs whose first half-step gives g = 0 exactly: m^-1 = 2 (all coordinates but X_00 zero, from any
    # start), and m^-1 diagonal with -X_0S = (0, 0, c) and -X_IS = diag(0, 0, c) from the start n_I = (0, 0, -1)
    basis = np.stack([np.eye(4, dtype=complex)] * 2)
    flat = np.array([[0.5, 0.5, 0.5, 0.5], [-0.25, 0.25, 0.5, 0.5]])
    starts = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])  # r = diag(1, 0) and diag(0, 1)
    for lanes in executors(monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low, high, closed, omega, _ = optim._product_bracket(m, lam, vecs, optim._PRODUCT_STEPS, start)
            assert np.isnan(low).all() and np.isinf(high).all() and not closed.any() and omega is None
            low, high, closed, omega, _ = optim._product_bracket(basis * flat[:, None, :], flat, basis,
                                                                 optim._PRODUCT_STEPS, starts)
            assert np.isnan(low).all() and np.isinf(high).all() and not closed.any() and omega is None
            assert not kernel_table(basis * flat[:, None, :], flat, basis, starts, lanes)[:, -1].any()


def test_any_product_vector_and_any_vector_bound_the_robustness(stress_robustness):
    rho, values, _, _, _, lower, _, route = stress_robustness
    npt = route != 0
    m, values, lower = _pt_arr(rho[npt]), values[npt], lower[npt]
    m_inv = np.linalg.inv(m)
    rng = np.random.default_rng(6601)
    upper_checked = 0
    for _ in range(20):
        u, v = unit(rng, (len(m),)), unit(rng, (len(m),))
        w = (u[:, :, None] * v[:, None, :]).reshape(-1, 4)
        q = np.einsum("ka,kab,kb->k", w.conj(), m_inv, w).real
        neg = q < 0.0
        upper = -1.0 / q[neg]
        assert np.all(upper >= lower[neg] - 1e-12)
        # m + U |w><w| is PSD and singular: U is the smallest such weight
        lifted = m[neg] + upper[:, None, None] * (w[neg, :, None] * w[neg, None, :].conj())
        lam_lifted = np.linalg.eigvalsh(lifted)[:, 0]
        assert np.all(np.abs(lam_lifted) <= 1e-9 * (1.0 + upper))
        upper_checked += neg.sum()
        # any vector f gives a lower bound; a_f^2 from the singular values of f as a 2x2 matrix
        f = rng.standard_normal((len(m), 4)) + 1j * rng.standard_normal((len(m), 4))
        a2 = np.linalg.svd(f.reshape(-1, 2, 2), compute_uv=False)[:, 0] ** 2
        low = -np.einsum("ka,kab,kb->k", f.conj(), m, f).real / a2
        assert np.all(low <= values + 1e-12)
    assert upper_checked > 2000


def test_the_optimizer_s_bounds_hold_on_every_npt_point(stress_robustness):
    rho, values, _, _, _, lower, _, route = stress_robustness
    npt = route != 0
    m, _, eig_lam, vecs, _, start = stage_inputs(rho)
    low, high, closed, omega, witness = optim._product_bracket(m, eig_lam, vecs, optim._PRODUCT_STEPS, start)
    # a maximally entangled negative eigenvector (pure and Bell-like states, which _bracket closes) gives
    # the search no start: NaN, the point stays open
    schmidt = ROUTES[route[npt]] == "schmidt"
    assert np.array_equal(np.isnan(low), np.isnan(low) & schmidt) and np.isfinite(low).sum() > 1500
    assert not np.any(low > values[npt] + 1e-12)
    assert np.all(high >= lower[npt] - 1e-12)
    assert closed.sum() > 800 and len(omega) == len(witness) == closed.sum()
    # Tr omega = U, omega / U is a pure product state, and the witness gives L = -Tr(W rho) on the closed points
    np.testing.assert_allclose(np.trace(omega, axis1=1, axis2=2).real, high[closed], rtol=0, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(omega / high[closed][:, None, None])[:, -2] <= 1e-12)
    # and the primal certificate: (rho + omega)^PT = m + omega^PT is PSD
    assert np.linalg.eigvalsh(m[closed] + _pt_arr(omega))[:, 0].min() >= -1e-9
    np.testing.assert_allclose(-np.einsum("kab,kba->k", witness, rho[npt][closed]).real, low[closed],
                               rtol=0, atol=1e-12)


def test_a_point_gives_the_same_bits_alone_and_in_a_stack():
    rho = ginibre_states(np.random.default_rng(6603), 120)
    m, _, lam, vecs, _, start = stage_inputs(rho)
    low, high, closed, omega, witness = optim._product_bracket(m, lam, vecs, optim._PRODUCT_STEPS, start)
    assert 0 < closed.sum() < len(m)
    position = np.cumsum(closed) - 1
    for k in range(len(m)):
        one = optim._product_bracket(m[k:k + 1], lam[k:k + 1], vecs[k:k + 1], optim._PRODUCT_STEPS, start[k:k + 1])
        assert (one[0].tobytes(), one[1].tobytes(), bool(one[2][0])) == (
            low[k:k + 1].tobytes(), high[k:k + 1].tobytes(), bool(closed[k]))
        if closed[k]:
            assert one[3][0].tobytes() == omega[position[k]].tobytes()
            assert one[4][0].tobytes() == witness[position[k]].tobytes()
    values, iterations, all_omega, _, lower, all_witness, route = optim._robustness(_pt_arr(rho))
    for k in np.flatnonzero(ROUTES[route] == "product")[:30]:
        result = generalized_robustness(DensityMatrix(rho[k]))
        assert (result.value, result.lower, result.iterations) == (values[k], lower[k], iterations[k])
        assert result.witness.matrix.tobytes() == all_witness[k].tobytes()
        assert result.certificate_state.matrix.tobytes() == (all_omega[k] / values[k]).tobytes()


def test_the_isotropic_state_with_a_bloch_vector_closes_without_a_solve(monkeypatch):
    # at weight 0.5 the minimum-norm omega of the Bell bracket closes it; nearer the threshold only the completion does
    cases = ((0.5, 0.1, 0.25, False), (0.4, 0.3, 0.1, True))
    for weight, bloch, value, _ in cases:
        rho = isotropic_with_bloch(weight, bloch)
        assert route_names(rho.matrix[None]).tolist() == ["bell"]  # the first two stages leave it open
        result = generalized_robustness(rho)
        assert abs(result.value - value) <= GAP and result.lower <= result.value <= result.lower + GAP
        assert result.iterations == 0
    monkeypatch.setattr(optim, "_COMPLETION_STEPS", 0)
    for weight, bloch, _, completed in cases:
        low, high, closed, _, _ = optim._bell_bracket(_pt_arr(isotropic_with_bloch(weight, bloch).matrix[None]))
        assert closed[0] != completed and (high[0] - low[0] > 1e-3) == completed


def test_a_singular_partial_transpose_leaves_the_point_open(monkeypatch):
    # a second eigenvalue 0 or below: m^-1 is not the inverse of a one-negative-eigenvalue m, so no bound
    rng = np.random.default_rng(6604)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    spectra = np.array([[-0.1, 0.0, 0.3, 0.8], [-0.1, -1e-17, 0.3, 0.8], [-0.1, 0.05, 0.3, 0.75]])
    m = np.stack([(q * s) @ q.conj().T for s in spectra])
    lam, vecs = np.linalg.eigh(m)
    lam[:2, 1] = spectra[:2, 1]  # the eigenvalues exactly as set
    start = schmidt(vecs[..., 0])[0]
    for _ in executors(monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low, high, closed, _, _ = optim._product_bracket(m, lam, vecs, optim._PRODUCT_STEPS, start)
        assert np.isnan(low[:2]).all() and np.isinf(high[:2]).all() and not closed[:2].any()
        assert np.isfinite(low[2]) and np.isfinite(high[2]) and low[2] <= high[2] * (1.0 + 1e-14)


@pytest.mark.usefixtures("longer_search_repeats_the_first")
def test_a_failed_solve_carries_the_tightest_certified_interval(monkeypatch):
    times = np.linspace(0.0, 0.01, 40)
    # Bell class, closed by the completion, then 10 product-class points that still solve
    states = np.concatenate([relaxed_states(entangled_ginibre(20), times, PAPER_T2),
                             relaxed_states(entangled_ginibre(13), times[:5], PAPER_T2),
                             relaxed_states(entangled_ginibre(268), times[:10] / 5.0, PAPER_T2)])
    product_class = np.arange(len(states)) >= 45
    m, lam_min, lam, vecs, e, start = stage_inputs(states)
    assert len(m) == len(states)  # every point NPT
    monkeypatch.setattr(optim, "_MAX_ITERATIONS", 3)
    minimum_norm_upper = None
    # no completion (the Bell class reaches the solver), one completion step (part of it does), the full completion
    for steps in (0, 1, optim._COMPLETION_STEPS):
        monkeypatch.setattr(optim, "_COMPLETION_STEPS", steps)
        failures = one_point_failures(states)  # every point that fails, not only a stack's first
        low, high, _, _, _, _ = optim._bracket(e, lam_min)
        low_p, high_p, _, _, _ = optim._product_bracket(m, lam, vecs, optim._PRODUCT_STEPS, start)
        low_b, high_b, _, _, _ = optim._bell_bracket(m)
        if minimum_norm_upper is None:
            minimum_norm_upper = high_b
        tighter, bell_binds, completion_tightens = 0, 0, 0
        for k, exc in failures.items():
            with pytest.raises(ConvergenceError) as alone:
                optim._central_path(m[k], lam_min[k])
            raw = alone.value
            assert str(exc) == str(raw) and "3-iteration cap" in str(exc)
            assert exc.lower == max(raw.lower, low[k], np.nan_to_num(low_p[k], nan=-np.inf), low_b[k])
            assert exc.upper == min(raw.upper, high[k], high_p[k], high_b[k])
            assert exc.lower <= exc.upper
            tighter += (exc.lower, exc.upper) != (raw.lower, raw.upper)
            bell_binds += exc.lower == low_b[k] > max(raw.lower, low[k], np.nan_to_num(low_p[k], nan=-np.inf))
            completion_tightens += high_b[k] < minimum_norm_upper[k]
        if steps == 0:
            assert len(failures) > 40 and tighter > 40
            assert bell_binds > 30  # the Bell witness gives most of them their lower bound
        elif steps == 1:
            # an unclosed completion still hands on a tighter U than the minimum-norm omega's, on the Bell-class
            # points and on the product-class points, whose Bell bound is below the other brackets' L, alike
            completed = [k for k in failures if not product_class[k]]
            assert 10 < len(failures) < 25 and completion_tightens == len(failures) and len(completed) > 5
        else:
            assert sorted(failures) == np.flatnonzero(product_class).tolist()
        with pytest.raises(ConvergenceError) as single:
            generalized_robustness(DensityMatrix(states[min(failures)]))
        exc = failures[min(failures)]
        assert (single.value.lower, single.value.upper) == (exc.lower, exc.upper)


# the stage that first closes each point of the benchmark's robustness inputs, rounds 0-99
BENCH_ROUTES = {41: {"ppt": 500, "schmidt": 600, "product": 620, "bell": 272, "longer search": 8, "solved": 0},
                97: {"ppt": 500, "schmidt": 600, "product": 625, "bell": 264, "longer search": 11, "solved": 0}}


def test_the_bench_inputs_take_their_routes():
    rho = bench_robustness_inputs()
    for seed, states in zip((41, 97), (rho[:2000], rho[2000:])):
        names = route_names(states)
        counts = {name: int(np.count_nonzero(names == name)) for name in ROUTES}
        assert counts.pop("failed") == 0
        assert counts == BENCH_ROUTES[seed], seed


def test_every_witness_is_a_read_only_hermitian_op_as_built():
    # generalized_robustness trusts the witness it builds: the check it skips would not have fired on these
    rho = np.concatenate([stress_sets(), bench_robustness_inputs()])
    entangled = 0
    for m in rho:
        witness = generalized_robustness(DensityMatrix(m)).witness
        if witness is None:
            continue
        entangled += 1
        w = witness.matrix
        assert isinstance(witness, HermitianOp) and w.shape == (4, 4) and w.dtype == np.complex128
        assert not w.flags.writeable
        assert np.abs(w - w.conj().T).max() <= TOL_EQ
    assert entangled > len(rho) // 2


def test_the_longer_search_closes_every_point_the_brackets_leave_open(monkeypatch, request):
    # the three product-class seeds, seed 268 barely relaxed, the stress sets and the bench's robustness inputs
    rho = np.concatenate([np.stack([entangled_ginibre(seed).matrix for seed in (83, 268, 385)]),
                          relaxed_states(entangled_ginibre(268), np.linspace(0.0, 0.002, 12), PAPER_T2),
                          stress_sets(), bench_robustness_inputs()])
    closed = optim._robustness(_pt_arr(rho))
    # from here on the longer search only repeats the first: the solver takes what the brackets leave
    request.getfixturevalue("longer_search_repeats_the_first")
    solved = optim._robustness(_pt_arr(rho))
    monkeypatch.undo()
    values, iterations, omega, failures, lower, witness, route = closed
    assert not failures and not solved[3]
    left = ROUTES[solved[6]] == "solved"  # the points every bracket leaves open
    assert left[:15].all() and left.sum() > 50
    # the longer search closes each of them with no iteration, within the gap and within it of the solve
    assert np.all(ROUTES[route[left]] == "longer search") and not iterations.any()
    assert np.all(values[left] - lower[left] >= 0.0) and np.all(values[left] - lower[left] < GAP)
    assert np.abs(values[left] - solved[0][left]).max() < GAP
    # and meets the certificate checks; omega, a pure product state, and (rho + omega)^PT, singular, are PSD
    check_certified(rho[left], values[left], iterations[left], omega[left], lower[left], witness[left])
    assert np.linalg.eigvalsh(omega[left])[:, 0].min() >= -1e-12
    assert np.linalg.eigvalsh(_pt_arr(rho[left] + omega[left]))[:, 0].min() >= -1e-12
    # every other point keeps its bits
    for with_search, without in zip(closed[:3] + closed[4:], solved[:3] + solved[4:]):
        assert with_search[~left].tobytes() == without[~left].tobytes()
    # and each closed point has the same bits alone as in the stack
    for k in np.flatnonzero(left):
        result = generalized_robustness(DensityMatrix(rho[k]))
        assert (result.value, result.lower, result.iterations) == (values[k], lower[k], 0)
        assert result.witness.matrix.tobytes() == witness[k].tobytes()
        assert result.certificate_state.matrix.tobytes() == (omega[k] / values[k]).tobytes()
