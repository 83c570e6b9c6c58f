import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import bd, random_density_matrix
from witnesslab import (
    BellKind,
    DensityMatrix,
    DomainError,
    PulseSpec,
    add_noise,
    bell_state,
    expectation,
    f_witness,
    f_witness_state,
    fidelity,
    measure_yy,
    pauli_tomography,
    pauli_vector,
    prep_pulse_unitary,
    read_correlations,
    simulate_lines,
)
from witnesslab.qmat import SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z, HermitianOp, from_pauli_coords
from witnesslab.readout import READOUT_PULSE, SpectrumPair, _simplex_projection

IDENTITY = DensityMatrix(np.eye(4, dtype=complex) / 4)


def spectra(rho, prep=READOUT_PULSE):
    return simulate_lines(rho, "I", prep), simulate_lines(rho, "S", prep)


# ---------------------------------------------------------------------------
# pulses
# ---------------------------------------------------------------------------

def test_pulse_spec_validation():
    with pytest.raises(DomainError):
        PulseSpec(axis="z", angle=np.pi / 2, targets=("S",))
    with pytest.raises(DomainError):
        PulseSpec(axis="y", angle=0.0, targets=("S",))
    with pytest.raises(DomainError):
        PulseSpec(axis="y", angle=np.pi / 2, targets=())


def test_two_half_pulses_make_a_pi_rotation():
    half = prep_pulse_unitary(READOUT_PULSE).unitary
    full = prep_pulse_unitary(PulseSpec("y", np.pi, ("S",))).unitary
    assert np.max(np.abs(half @ half - full)) < 1e-12
    # a pi rotation about y flips Z on the target spin
    zs = np.kron(SIGMA_I, SIGMA_Z)
    assert np.max(np.abs(full @ zs @ full.conj().T + zs)) < 1e-12


def test_pulse_unitarity():
    u = prep_pulse_unitary(PulseSpec("x", np.pi / 2, ("I",))).unitary
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


def test_readout_pulse_maps_z_to_x_on_target():
    u = prep_pulse_unitary(READOUT_PULSE).unitary
    zs = np.kron(SIGMA_I, SIGMA_Z)
    xs = np.kron(SIGMA_I, SIGMA_X)
    assert np.max(np.abs(u @ zs @ u.conj().T - xs)) < 1e-12


# ---------------------------------------------------------------------------
# line intensities
# ---------------------------------------------------------------------------

def test_line_pair_recovers_the_projections():
    # the Hadamard-structured transform is its own inverse up to the factor 2
    rng = np.random.default_rng(107)
    for _ in range(20):
        lines = simulate_lines(random_density_matrix(rng), "I", READOUT_PULSE)
        a = lines.line_low + lines.line_high
        b = lines.line_low - lines.line_high
        rebuilt_low = (a + b) / 2
        rebuilt_high = (a - b) / 2
        assert abs(rebuilt_low - lines.line_low) < 1e-12
        assert abs(rebuilt_high - lines.line_high) < 1e-12


def test_maximally_mixed_state_gives_no_signal():
    for nucleus in ("I", "S"):
        lines = simulate_lines(IDENTITY, nucleus, READOUT_PULSE)
        assert abs(lines.line_low) < 1e-12 and abs(lines.line_high) < 1e-12


def test_phi_minus_line_difference_reads_xx():
    lines = simulate_lines(bell_state(BellKind.PHI_MINUS), "I", READOUT_PULSE)
    assert abs(lines.difference().real + 1.0) < 1e-12


def test_line_difference_sign_follows_the_correlation():
    # asymmetric triple so a sign slip in either receiver phase would show
    rho = bd(0.7, 0.0, 0.3)
    lines_i, lines_s = spectra(rho)
    assert abs(lines_i.difference().real - 0.7) < 1e-12
    assert abs(lines_s.difference().real - 0.3) < 1e-12


def kronecker_lines(rho, nucleus, prep):
    """Reference lines from explicit observables, e.g. Tr(rho_p (X - iY) x 1)."""
    rho_p = prep_pulse_unitary(prep).apply(rho).matrix if prep is not None else rho.matrix
    lowering = SIGMA_X - 1j * SIGMA_Y
    if nucleus == "I":
        ops, phase = (np.kron(lowering, SIGMA_I), np.kron(lowering, SIGMA_Z)), -1.0
    else:
        ops, phase = (np.kron(SIGMA_I, lowering), np.kron(SIGMA_Z, lowering)), 1.0
    a, b = (phase * np.trace(rho_p @ op) for op in ops)
    return (a + b) / 2, (a - b) / 2


@pytest.mark.parametrize(
    "prep",
    [
        None,
        READOUT_PULSE,
        PulseSpec("x", np.pi / 2, ("S",)),
        PulseSpec("x", 1.1, ("I", "S")),
        PulseSpec("y", 4.0, ("I",)),
    ],
    ids=["none", "readout", "x-half-S", "x-1.1-IS", "y-4.0-I"],
)
def test_lines_match_the_kronecker_reference(prep):
    rng = np.random.default_rng(113)
    for _ in range(300):
        rho = random_density_matrix(rng)
        for nucleus in ("I", "S"):
            lines = simulate_lines(rho, nucleus, prep)
            low, high = kronecker_lines(rho, nucleus, prep)
            assert abs(lines.line_low - low) <= 1e-15
            assert abs(lines.line_high - high) <= 1e-15


def test_lines_reject_an_unknown_nucleus():
    for nucleus in ("X", "", "IS"):
        with pytest.raises(DomainError, match="nucleus"):
            simulate_lines(IDENTITY, nucleus, READOUT_PULSE)


def test_read_correlations_reference_states():
    got = read_correlations(*spectra(bell_state(BellKind.PHI_MINUS)))
    assert abs(got.w1 + 1.0) < 1e-12 and abs(got.w2 - 1.0) < 1e-12
    got = read_correlations(*spectra(IDENTITY))
    assert abs(got.w1) < 1e-12 and abs(got.w2) < 1e-12
    got = read_correlations(*spectra(bd(-0.2, 1.0, 0.2)))
    assert abs(got.w1 + 0.2) < 1e-12 and abs(got.w2 - 0.2) < 1e-12


def test_read_correlations_argument_order_enforced():
    lines_i, lines_s = spectra(IDENTITY)
    with pytest.raises(DomainError):
        read_correlations(lines_s, lines_i)


def test_end_to_end_matches_direct_expectations():
    rng = np.random.default_rng(109)
    xx = HermitianOp(np.kron(SIGMA_X, SIGMA_X))
    zz = HermitianOp(np.kron(SIGMA_Z, SIGMA_Z))
    for _ in range(30):
        rho = random_density_matrix(rng)
        corr = read_correlations(*spectra(rho))
        assert abs(corr.w1 - expectation(rho, xx)) < 1e-9
        assert abs(corr.w2 - expectation(rho, zz)) < 1e-9


def test_measure_yy_reference_and_random_states():
    assert abs(measure_yy(bell_state(BellKind.PHI_MINUS)) - 1.0) < 1e-10
    assert abs(measure_yy(IDENTITY)) < 1e-10
    assert abs(measure_yy(bd(-0.2, 1.0, 0.2)) - 1.0) < 1e-10
    rng = np.random.default_rng(113)
    yy = HermitianOp(np.kron(SIGMA_Y, SIGMA_Y))
    for _ in range(30):
        rho = random_density_matrix(rng)
        assert abs(measure_yy(rho) - expectation(rho, yy)) < 1e-10


def test_spectra_pipeline_feeds_f_consistently():
    # the two measurement pathways must agree exactly without noise
    for rho in (bell_state(BellKind.PHI_MINUS), bd(-0.2, 1.0, 0.2), IDENTITY):
        via_lines = f_witness(read_correlations(*spectra(rho)))
        assert abs(via_lines - f_witness_state(rho)) < 1e-12


# ---------------------------------------------------------------------------
# tomography
# ---------------------------------------------------------------------------

def test_tomography_of_zeros_is_maximally_mixed():
    result = pauli_tomography(np.zeros(15))
    assert np.allclose(result.state.matrix, np.eye(4) / 4, atol=1e-12)
    assert result.projection_distance == 0.0


def test_tomography_inverts_pauli_vector():
    rng = np.random.default_rng(127)
    for _ in range(20):
        rho = random_density_matrix(rng)
        result = pauli_tomography(pauli_vector(rho))
        assert np.max(np.abs(result.state.matrix - rho.matrix)) < 1e-10
        assert result.projection_distance == 0.0


def test_tomography_projects_unphysical_data():
    # exaggerate the phi- correlations past purity to force clipping
    vec = pauli_vector(bell_state(BellKind.PHI_MINUS)) * 0.9
    vec[3] = 0.9  # XI component inconsistent with a Bell-like state
    result = pauli_tomography(vec)
    assert result.projection_distance > 0.0
    assert np.linalg.eigvalsh(result.state.matrix)[0] >= -1e-9
    assert abs(np.trace(result.state.matrix) - 1.0) < 1e-9


def test_tomography_with_gaussian_noise_keeps_high_fidelity():
    target = bell_state(BellKind.PHI_MINUS)
    clean = pauli_vector(target)
    rng = np.random.default_rng(131)
    good = 0
    for _ in range(100):
        noisy = np.clip(clean + rng.normal(0.0, 0.01, 15), -1.0, 1.0)
        rebuilt = pauli_tomography(noisy).state
        good += fidelity(rebuilt, target) >= 0.98
    assert good >= 95


def test_tomography_validates_input():
    with pytest.raises(DomainError):
        pauli_tomography(np.zeros(14))
    with pytest.raises(DomainError):
        pauli_tomography(np.full(15, 1.5))
    past = np.zeros(15)
    past[14] = 1.0 + 1e-6
    with pytest.raises(DomainError):
        pauli_tomography(past)


def test_tomography_round_trips_a_pure_states_own_pauli_vector():
    # <ZZ> of cos 0.17|00> + sin 0.17|11> reads 1.0000000000000002: rounding, not data
    rng = np.random.default_rng(137)
    vectors = [np.array([np.cos(0.17), 0.0, 0.0, np.sin(0.17)], dtype=complex)]
    for _ in range(200):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vectors.append(v / np.linalg.norm(v))
    for v in vectors:
        rho = DensityMatrix(np.outer(v, v.conj()))
        result = pauli_tomography(pauli_vector(rho))
        assert np.max(np.abs(result.state.matrix - rho.matrix)) < 1e-12
        assert result.projection_distance == 0.0


def raw_inversion(e):
    return from_pauli_coords(np.concatenate(([1.0], e))) / 4.0


def unphysical_expectations(rng, n):
    """n seeded expectation vectors whose raw inversion has an eigenvalue below -1e-6.

    Noisy pure and mixed states, as tomography meets them, and points of the cube [-1, 1]^15.
    """
    out = []
    while len(out) < n:
        if len(out) % 3 == 2:
            e = rng.uniform(-1.0, 1.0, 15)
        else:
            clean = pauli_vector(random_density_matrix(rng, rank=int(rng.integers(1, 5))))
            e = np.clip(clean + rng.normal(0.0, 0.05, 15), -1.0, 1.0)
        if np.linalg.eigvalsh(raw_inversion(e))[0] < -1e-6:
            out.append(e)
    return out


def clip_and_rescale(raw):
    vals, vecs = np.linalg.eigh(raw)
    clipped = np.clip(vals, 0.0, None)
    return (vecs * (clipped / clipped.sum())) @ vecs.conj().T


def test_tomography_is_never_farther_from_the_raw_inversion_than_clip_and_rescale():
    rng = np.random.default_rng(3811)
    closer = 0
    for e in unphysical_expectations(rng, 300):
        raw = raw_inversion(e)
        result = pauli_tomography(e)
        clipped = np.linalg.norm(clip_and_rescale(raw) - raw)
        assert result.projection_distance == np.linalg.norm(result.state.matrix - raw)
        assert result.projection_distance <= clipped + 1e-12
        assert np.linalg.eigvalsh(result.state.matrix)[0] >= -1e-12
        assert abs(np.trace(result.state.matrix) - 1.0) < 1e-12
        closer += result.projection_distance < clipped - 1e-9
    assert closer > 150


def nearest_state_search(raw, rng, starts=2):
    """min ||sigma - raw||_F over every state sigma = A A^H / Tr(A A^H), by BFGS from random A: the best of starts."""
    def distance2(a):
        g = (a[:16] + 1j * a[16:]).reshape(4, 4)
        sigma = g @ g.conj().T
        return np.sum(np.abs(sigma / np.trace(sigma).real - raw) ** 2)

    runs = [minimize(distance2, rng.standard_normal(32), method="BFGS", options={"gtol": 1e-10}) for _ in range(starts)]
    best = min(runs, key=lambda r: r.fun)
    g = (best.x[:16] + 1j * best.x[16:]).reshape(4, 4)
    sigma = g @ g.conj().T
    return sigma / np.trace(sigma).real


def test_tomography_matches_a_brute_force_nearest_state_search():
    rng = np.random.default_rng(3812)
    for e in unphysical_expectations(rng, 4):
        raw = raw_inversion(e)
        result = pauli_tomography(e)
        found = nearest_state_search(raw, rng)
        d_found = np.linalg.norm(found - raw)
        # no state the search finds is nearer, and it finds this one: the nearest state is unique
        assert result.projection_distance <= d_found + 1e-12
        assert d_found ** 2 - result.projection_distance ** 2 < 1e-9
        assert np.linalg.norm(found - result.state.matrix) < 1e-4


def test_tomography_returns_a_psd_input_unchanged():
    rng = np.random.default_rng(3813)
    for _ in range(100):
        e = pauli_vector(random_density_matrix(rng, rank=int(rng.integers(1, 5))))
        result = pauli_tomography(e)
        assert result.projection_distance == 0.0
        assert result.state.matrix.tobytes() == raw_inversion(e).tobytes()
    # the projection itself leaves a spectrum on the simplex where it is, up to rounding of its sum
    for _ in range(100):
        p = np.sort(rng.dirichlet(np.full(4, 0.5)))
        assert np.max(np.abs(_simplex_projection(p) - p)) <= 1e-15


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def test_noise_zero_sigma_is_identity():
    assert add_noise(0.37, 0.0, seed=5) == 0.37


def test_noise_is_reproducible():
    assert add_noise(0.1, 0.05, seed=42) == add_noise(0.1, 0.05, seed=42)
    assert add_noise(0.1, 0.05, seed=42) != add_noise(0.1, 0.05, seed=43)


def test_noise_sample_mean():
    sigma, n = 0.05, 100_000
    draws = np.array([add_noise(0.2, sigma, seed=k) for k in range(n)])
    assert abs(draws.mean() - 0.2) < 3 * sigma / np.sqrt(n)


def test_noise_clamps_to_correlation_range():
    assert add_noise(1.0, 5.0, seed=1) <= 1.0
    assert add_noise(-1.0, 5.0, seed=1) >= -1.0


def test_noise_equals_the_default_rng_reference():
    # a seeded grid in which about one draw in six is clamped
    rng = np.random.default_rng(71)
    clamped = 0
    for seed in range(300):
        value, sigma = float(rng.uniform(-1, 1)), float(rng.choice([0.0, 0.05, 0.5, 2.0]))
        want = float(np.clip(value + np.random.default_rng(seed).normal(0, sigma), -1, 1))
        assert add_noise(value, sigma, seed) == want
        clamped += abs(want) == 1.0
    assert clamped > 0


def test_noise_rejects_negative_sigma():
    with pytest.raises(DomainError):
        add_noise(0.0, -0.1, seed=0)


def test_noise_rejects_non_finite_sigma():
    for sigma in (np.nan, np.inf):
        with pytest.raises(DomainError):
            add_noise(0.0, sigma, seed=0)


def test_noise_rejects_non_finite_values():
    for value in (np.nan, np.inf, -np.inf):
        for sigma in (0.0, 0.1):
            with pytest.raises(DomainError, match="finite"):
                add_noise(value, sigma, seed=0)


@pytest.mark.parametrize("line", [np.nan, np.inf, complex(np.nan, 0.0), complex(0.0, -np.inf)])
def test_spectrum_pair_rejects_non_finite_lines(line):
    with pytest.raises(DomainError, match="line_low"):
        SpectrumPair("S", line, 0)
    with pytest.raises(DomainError, match="line_high"):
        SpectrumPair("I", 0, line)


def test_noise_rejects_negative_and_non_integer_seeds():
    for seed in (-1, 1.5, "7", None):
        with pytest.raises(DomainError, match="seed"):
            add_noise(0.0, 0.1, seed=seed)
    assert add_noise(0.1, 0.05, seed=np.int64(42)) == add_noise(0.1, 0.05, seed=42)


def test_tomography_rejects_nan_expectations():
    e = np.zeros(15)
    e[4] = np.nan
    with pytest.raises(DomainError):
        pauli_tomography(e)


@pytest.mark.parametrize("prep", [None, READOUT_PULSE], ids=["none", "readout"])
def test_lines_need_a_validated_state(prep):
    # unit trace but an eigenvalue of -0.1
    not_a_state = HermitianOp(np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex))
    with pytest.raises(DomainError, match="DensityMatrix"):
        simulate_lines(not_a_state, "I", prep)


def test_pulses_are_built_once_and_lines_do_not_change():
    spec = PulseSpec("x", 1.1, ("I", "S"))
    assert prep_pulse_unitary(spec) is prep_pulse_unitary(PulseSpec("x", 1.1, ("I", "S")))
    assert prep_pulse_unitary(READOUT_PULSE) is prep_pulse_unitary(READOUT_PULSE)
    rng = np.random.default_rng(4242)
    for _ in range(20):
        rho = random_density_matrix(rng)
        for prep in (spec, READOUT_PULSE):
            fresh = prep_pulse_unitary.__wrapped__(prep)  # the same pulse, built anew
            assert np.array_equal(fresh.unitary, prep_pulse_unitary(prep).unitary)
            rho_p = fresh.apply(rho)
            for nucleus in ("I", "S"):
                lines = simulate_lines(rho, nucleus, prep)
                assert lines == simulate_lines(rho_p, nucleus, None)
