"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import itertools
import time

import numpy as np

from conftest import bd, random_density_matrix, random_physical_c
from witnesslab import (
    BellDiagonalParams,
    BellKind,
    DensityMatrix,
    Message,
    RelaxationParams,
    ThermalParams,
    bell_state,
    bell_witness,
    crossing_time,
    eval_witness,
    f_witness_state,
    fidelity,
    generalized_robustness,
    gr_oracle_bd,
    is_separable_bd,
    optimal_witness,
    pauli_tomography,
    pauli_vector,
    read_correlations,
    relax_channel,
    simulate_lines,
    superdense_run,
    sweep,
    witness_is_valid,
    witness_matrix,
)
from witnesslab.qmat import SIGMA_X, SIGMA_Y, SIGMA_Z, HermitianOp, _pt_arr
from witnesslab.readout import READOUT_PULSE

IDENTITY = DensityMatrix(np.eye(4, dtype=complex) / 4)
PHI_MINUS = bell_state(BellKind.PHI_MINUS)
UNDETECTED = bd(-0.2, 1.0, 0.2)


def report(n, msg):
    print(f"\n[PASS] criterion {n}: {msg}")


# ---------------------------------------------------------------------------

def test_c01_f_values():
    cases = [(PHI_MINUS, -0.50), (UNDETECTED, 0.14), (IDENTITY, 0.25)]
    for rho, want in cases:
        assert abs(f_witness_state(rho) - want) < 1e-9
    # runtime: under 1 ms per evaluation after warmup
    for rho, _ in cases:
        t0 = time.perf_counter()
        f_witness_state(rho)
        assert time.perf_counter() - t0 < 1e-3
    report(1, "F = -0.50 / 0.14 / 0.25 within 1e-9, each call < 1 ms")


def test_c02_optimal_witness_table():
    expected = {
        BellKind.PHI_PLUS: (0.5, -0.5, 0.5, -0.5),
        BellKind.PSI_PLUS: (0.5, -0.5, -0.5, 0.5),
        BellKind.PHI_MINUS: (0.5, 0.5, -0.5, -0.5),
        BellKind.PSI_MINUS: (0.5, 0.5, 0.5, 0.5),
    }
    optimal_witness(BellKind.PHI_PLUS)  # warmup outside the timed window
    t0 = time.perf_counter()
    rows = {kind: optimal_witness(kind) for kind in BellKind}
    elapsed = time.perf_counter() - t0
    for kind, w in rows.items():
        assert np.allclose(w.as_tuple(), expected[kind], atol=1e-12)
        assert abs(eval_witness(w, bell_state(kind)) + 1.0) < 1e-9
        assert witness_is_valid(w)
        mat = witness_matrix(w).matrix
        assert np.linalg.eigvalsh(_pt_arr(mat))[0] >= -1e-9
        assert np.linalg.eigvalsh(mat)[-1] <= 1.0 + 1e-9
    assert elapsed < 0.1
    report(2, f"all four optimal rows reproduced, objective -1, in {elapsed * 1e3:.1f} ms")


def test_c03_witness_evaluations():
    w = bell_witness(BellKind.PHI_MINUS)
    assert abs(eval_witness(w, PHI_MINUS) + 1.0) < 1e-9
    assert abs(eval_witness(w, UNDETECTED) + 0.2) < 1e-9
    assert abs(eval_witness(w, IDENTITY) - 0.5) < 1e-9
    report(3, "W(phi-) = -1.0 / -0.2 / +0.5 within 1e-9")


def _brute_force_gr(rho_mat, mixers, coarse=0.01, fine_points=101, s_max=3.0):
    """Dense grid search: least s with (rho + s*sigma)^PT >= 0 over mixers.

    Coarse scan at spacing 0.01, then a linspace refinement whose last point
    is the bit-identical coarse hit (an optimum sitting exactly on a grid
    point must stay feasible under re-evaluation).  Eigenvalue feasibility at
    machine precision, far tighter than the 1e-3 validation tolerance.
    """
    pt_rho = _pt_arr(rho_mat)
    if np.linalg.eigvalsh(pt_rho)[0] >= -1e-12:
        return 0.0
    best = np.inf
    coarse_grid = np.arange(0.0, s_max + coarse, coarse)
    for sigma in mixers:
        pt_sigma = _pt_arr(sigma)
        stack = pt_rho[None, :, :] + coarse_grid[:, None, None] * pt_sigma[None, :, :]
        feasible = np.linalg.eigvalsh(stack)[:, 0] >= -1e-12
        if not feasible.any():
            continue
        k = int(np.argmax(feasible))
        lo = coarse_grid[k - 1] if k > 0 else 0.0
        fine_grid = np.linspace(lo, coarse_grid[k], fine_points)
        stack = pt_rho[None, :, :] + fine_grid[:, None, None] * pt_sigma[None, :, :]
        feasible = np.linalg.eigvalsh(stack)[:, 0] >= -1e-12
        best = min(best, float(fine_grid[int(np.argmax(feasible))]))
    return best


def _mixing_candidates(rng):
    """Bell-weight simplex grid (step 1/4, includes the pure Bell states)
    plus random full-rank states."""
    bells = [bell_state(k).matrix for k in BellKind]
    mixers = []
    for ijkl in itertools.product(range(5), repeat=4):
        if sum(ijkl) == 4:
            weights = np.array(ijkl) / 4.0
            mixers.append(sum(w * b for w, b in zip(weights, bells)))
    mixers.extend(random_density_matrix(rng).matrix for _ in range(15))
    return mixers


def test_c04_robustness_oracle_validation_then_agreement():
    t0 = time.perf_counter()
    # stage 1: validate the closed-form oracle against brute force on
    # hand-picked triples, both exhibited states included
    picked = [
        (-1.0, 1.0, 1.0), (-0.2, 1.0, 0.2), (0.0, 0.0, 0.0),
        (1.0, -1.0, 1.0), (1.0, 1.0, -1.0), (-1.0, -1.0, -1.0),
        (-0.9, 0.9, 0.9), (-0.5, 0.5, 0.5), (-0.6, 0.8, 0.4),
        (0.7, -0.7, 0.7), (0.8, 0.2, -0.4), (0.3, 0.3, -0.3),
        (0.5, 0.0, 0.5), (0.49, 0.0, 0.49), (0.2, -0.2, 0.2),
        (-0.2, 0.2, 0.2), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
        (0.6, -0.3, 0.3), (-0.3, 0.4, 0.55), (0.25, 0.25, 0.25),
        (-0.75, 0.85, 0.6),
    ]
    assert len(picked) >= 20
    rng = np.random.default_rng(2024)
    mixers = _mixing_candidates(rng)
    for c in picked:
        params = BellDiagonalParams(*c)
        brute = _brute_force_gr(bd(*c).matrix, mixers)
        assert abs(brute - gr_oracle_bd(params)) < 1e-3, (c, brute, gr_oracle_bd(params))

    # stage 2: the solver agrees with the validated oracle on random triples
    worst = 0.0
    for _ in range(1000):
        c = random_physical_c(rng)
        got = generalized_robustness(bd(*c)).value
        worst = max(worst, abs(got - gr_oracle_bd(BellDiagonalParams(*c))))
    assert worst < 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, f"oracle brute-forced on {len(picked)} triples; solver within "
              f"{worst:.1e} of it on 1000 random triples; {elapsed:.1f} s")


def test_c05_ppt_octahedron_equivalence():
    rng = np.random.default_rng(404)
    boundary_band = 0
    for _ in range(10_000):
        c = random_physical_c(rng)
        octa = is_separable_bd(BellDiagonalParams(*c))
        pt_min = float(np.linalg.eigvalsh(_pt_arr(bd(*c).matrix))[0])
        if abs(pt_min) <= 1e-9:
            boundary_band += 1
            continue
        assert octa == (pt_min > 0), (c, pt_min, octa)
    report(5, f"PPT and octahedron agree on 10^4 triples ({boundary_band} in the 1e-9 band)")


def test_c06_superdense_coding_identity():
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for eps_i, eps_s in itertools.product(grid, grid):
        for x, z in itertools.product((0, 1), (0, 1)):
            r = superdense_run(ThermalParams(eps_i, eps_s), Message(x, z))
            assert abs(r.mz_i - (-1) ** z * eps_i) < 1e-10
            assert abs(r.mz_s - (-1) ** x * eps_s) < 1e-10
    report(6, "magnetization identity holds for all 4 messages on the 5x5 grid, 1e-10")


def test_c07_readout_equivalence():
    rng = np.random.default_rng(505)
    obs = {
        "xx": HermitianOp(np.kron(SIGMA_X, SIGMA_X)),
        "yy": HermitianOp(np.kron(SIGMA_Y, SIGMA_Y)),
        "zz": HermitianOp(np.kron(SIGMA_Z, SIGMA_Z)),
    }
    from witnesslab import expectation, measure_yy

    for _ in range(100):
        rho = random_density_matrix(rng)
        corr = read_correlations(
            simulate_lines(rho, "I", READOUT_PULSE), simulate_lines(rho, "S", READOUT_PULSE)
        )
        assert abs(corr.w1 - expectation(rho, obs["xx"])) < 1e-9
        assert abs(corr.w2 - expectation(rho, obs["zz"])) < 1e-9
        assert abs(measure_yy(rho) - expectation(rho, obs["yy"])) < 1e-9
    report(7, "spectra pipeline reproduces XX, ZZ, YY on 100 random states, 1e-9")


def test_c08_relaxation_phenomenology():
    t0 = time.perf_counter()
    params = RelaxationParams(t1_i=10.0, t2_i=0.31, t1_s=10.0, t2_s=0.11)
    series = sweep(PHI_MINUS, params, bell_witness(BellKind.PHI_MINUS), t_max=0.6, steps=200)

    # (a) detection cutoff of F inside the stated window
    assert series.tau_c is not None and 0.24 <= series.tau_c <= 0.40

    # (b) robustness is still alive at the cutoff and dies later on the grid
    gr_at_cutoff = generalized_robustness(relax_channel(PHI_MINUS, series.tau_c, params)).value
    assert gr_at_cutoff > 1e-6
    alive = series.times[series.gr_values > 1e-6]
    assert alive[-1] >= series.tau_c
    assert series.gr_values[-1] <= 1e-6  # vanishes by the end of the grid

    # (c) sign agreement of F and W away from either curve's crossing
    dt = series.times[1] - series.times[0]
    crossings = [
        tc for tc in (crossing_time(series, "F"), crossing_time(series, "W"))
        if tc is not None
    ]
    disagreements = 0
    for k, t in enumerate(series.times):
        f, w = series.f_values[k], series.w_values[k]
        if min(abs(t - tc) for tc in crossings) <= dt:
            continue
        if abs(f) <= 1e-6 or abs(w) <= 1e-6:
            continue
        disagreements += np.sign(f) != np.sign(w)
    assert disagreements == 0

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(8, f"tau_c = {series.tau_c:.3f} s in [0.24, 0.40]; robustness outlives F "
              f"(GR(tau_c) = {gr_at_cutoff:.2e}), same-region holds; {elapsed:.1f} s")


def test_c09_channel_correctness():
    params = RelaxationParams(t1_i=10.0, t2_i=0.31, t1_s=10.0, t2_s=0.11)
    rng = np.random.default_rng(606)
    for _ in range(100):
        rho = random_density_matrix(rng)
        t1, t2 = rng.uniform(0.005, 1.0, 2)
        out = relax_channel(rho, t1, params)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-9
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-9
        chained = relax_channel(out, t2, params)
        direct = relax_channel(rho, t1 + t2, params)
        assert np.max(np.abs(chained.matrix - direct.matrix)) < 1e-9
    report(9, "CPTP and semigroup checks pass on 100 random states, 1e-9")


def test_c10_tomography_noise_study():
    clean = pauli_vector(PHI_MINUS)
    rng = np.random.default_rng(707)
    good = 0
    trials = 1000
    for _ in range(trials):
        noisy = np.clip(clean + rng.normal(0.0, 0.01, 15), -1.0, 1.0)
        rebuilt = pauli_tomography(noisy).state
        good += fidelity(rebuilt, PHI_MINUS) >= 0.98
    assert good >= 0.95 * trials
    report(10, f"noisy tomography fidelity >= 0.98 in {good}/{trials} trials")
