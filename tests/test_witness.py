import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bd, parity_values, random_physical_c, random_separable
from witnesslab import (
    BDClass,
    BellDiagonalParams,
    BellKind,
    CorrelationPair,
    DensityMatrix,
    DomainError,
    PauliWitness,
    bell_state,
    bell_witness,
    classify_bd,
    detection_region_grid,
    eval_witness,
    f_detects_bd,
    f_witness,
    f_witness_state,
    is_separable_bd,
    witness_is_valid,
    witness_matrix,
)
from witnesslab.states import _in_octahedron, _is_physical
from witnesslab.witness import _classify, _f_values

IDENTITY = DensityMatrix(np.eye(4, dtype=complex) / 4)


def test_f_reference_values():
    assert abs(f_witness(CorrelationPair(-1.0, 1.0)) + 0.5) < 1e-12
    assert abs(f_witness(CorrelationPair(-0.2, 0.2)) - 0.14) < 1e-12
    assert abs(f_witness(CorrelationPair(0.0, 0.0)) - 0.25) < 1e-12


def test_f_values_keep_the_bits_of_clip_then_abs():
    xx, zz = parity_values(1), np.random.default_rng(2).permutation(parity_values(3))

    def clipped(v):
        return 1.0 + np.abs(np.clip(v, -1, 1))

    reference = 0.5 - 0.25 * clipped(xx) * clipped(zz)
    assert _f_values(xx, zz).tobytes() == reference.tobytes()
    for x, z in zip(xx[-9:].tolist(), zz[:9].tolist()):  # plain floats, as f_witness passes them
        assert np.float64(_f_values(x, z)).tobytes() == np.float64(0.5 - 0.25 * clipped(x) * clipped(z)).tobytes()


def test_f_rejects_out_of_range_correlations():
    with pytest.raises(DomainError):
        CorrelationPair(1.2, 0.0)


def test_f_on_states():
    assert abs(f_witness_state(bell_state(BellKind.PHI_MINUS)) + 0.5) < 1e-9
    assert abs(f_witness_state(IDENTITY) - 0.25) < 1e-9
    assert abs(f_witness_state(bd(-0.2, 1.0, 0.2)) - 0.14) < 1e-9


def test_f_consistency_with_closed_form():
    rng = np.random.default_rng(59)
    for _ in range(200):
        c1, c2, c3 = random_physical_c(rng)
        closed = 0.5 - 0.25 * (1 + abs(c1)) * (1 + abs(c3))
        assert abs(f_witness_state(bd(c1, c2, c3)) - closed) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    w1=st.floats(-1.0, 1.0, allow_nan=False),
    w2=st.floats(-1.0, 1.0, allow_nan=False),
)
def test_f_is_invariant_under_sign_flips(w1, w2):
    base = f_witness(CorrelationPair(w1, w2))
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            assert f_witness(CorrelationPair(s1 * w1, s2 * w2)) == base


# ---------------------------------------------------------------------------
# Pauli witness family
# ---------------------------------------------------------------------------

def test_witness_matrix_identity_row():
    assert np.allclose(witness_matrix(PauliWitness(1, 0, 0, 0)).matrix, np.eye(4), atol=1e-12)


def test_witness_matrix_uniform_row_spectrum():
    w = witness_matrix(PauliWitness(0.5, 0.5, 0.5, 0.5))
    vals, vecs = np.linalg.eigh(w.matrix)
    assert np.allclose(vals, [-1, 1, 1, 1], atol=1e-12)
    # the -1 eigenvector is the psi- singlet
    psim = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert abs(abs(np.vdot(vecs[:, 0], psim)) - 1.0) < 1e-12


def test_bell_witness_rows():
    expected = {
        BellKind.PHI_PLUS: (0.5, -0.5, 0.5, -0.5),
        BellKind.PSI_PLUS: (0.5, -0.5, -0.5, 0.5),
        BellKind.PHI_MINUS: (0.5, 0.5, -0.5, -0.5),
        BellKind.PSI_MINUS: (0.5, 0.5, 0.5, 0.5),
    }
    for kind, row in expected.items():
        assert bell_witness(kind).as_tuple() == row


@pytest.mark.parametrize("kind", list(BellKind))
def test_bell_witnesses_are_valid(kind):
    assert witness_is_valid(bell_witness(kind))


@pytest.mark.parametrize("kind", list(BellKind))
def test_bell_witness_hits_minus_one_on_target(kind):
    assert abs(eval_witness(bell_witness(kind), bell_state(kind)) + 1.0) < 1e-12


def test_eval_witness_reference_values():
    w = bell_witness(BellKind.PHI_MINUS)
    assert abs(eval_witness(w, bell_state(BellKind.PHI_MINUS)) + 1.0) < 1e-9
    assert abs(eval_witness(w, bd(-0.2, 1.0, 0.2)) + 0.2) < 1e-9
    assert abs(eval_witness(w, IDENTITY) - 0.5) < 1e-9


def test_witnesses_nonnegative_on_separable_states():
    rng = np.random.default_rng(61)
    rows = [bell_witness(k) for k in BellKind]
    for k in range(10_000):
        # alternate pure product states and mixtures of them
        sep = random_separable(rng) if k % 2 else random_separable(rng, max_terms=1)
        for w in rows:
            assert eval_witness(w, sep) >= -1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_witness_rejects_non_finite_coefficients(bad):
    for k in range(4):
        coeffs = [0.5, -0.5, 0.5, 0.5]
        coeffs[k] = bad
        with pytest.raises(DomainError, match="not finite"):
            PauliWitness(*coeffs)
    # the coefficients are kept as given
    assert PauliWitness(1, 0, 0, 0).as_tuple() == (1, 0, 0, 0)
    assert type(PauliWitness(1, 0, 0, 0).c_i) is int


def test_invalid_witness_detected():
    # too much XX weight: the partial transpose dips negative
    assert not witness_is_valid(PauliWitness(0.1, 0.9, 0.0, 0.0))


# ---------------------------------------------------------------------------
# detection-region classifier
# ---------------------------------------------------------------------------

def test_f_detects_reference_triples():
    assert f_detects_bd(BellDiagonalParams(-1, 1, 1))
    assert not f_detects_bd(BellDiagonalParams(-0.2, 1.0, 0.2))
    assert not f_detects_bd(BellDiagonalParams(0, 0, 0))


def test_f_detects_requires_physical_params():
    with pytest.raises(DomainError):
        f_detects_bd(BellDiagonalParams(1, 1, 1))


def test_classify_reference_points():
    assert classify_bd((-0.2, 1.0, 0.2)) is BDClass.ENTANGLED_UNDETECTED_BY_F
    assert classify_bd((1.0, 1.0, 1.0)) is BDClass.UNPHYSICAL
    assert classify_bd((0.5, 0.0, 0.4)) is BDClass.SEPARABLE
    assert classify_bd((-1.0, 1.0, 1.0)) is BDClass.ENTANGLED_DETECTED_BY_F


def test_classify_octahedron_boundary_counts_as_separable():
    assert classify_bd((0.5, 0.25, 0.25)) is BDClass.SEPARABLE


def product_rule_classes(c1, c2, c3):
    """BDClass values by the product form of F < 0, (1 + |c1|)(1 + |c3|) > 2: a reference."""
    detected = (1.0 + np.abs(c1)) * (1.0 + np.abs(c3)) > 2.0
    k = np.where(_in_octahedron(c1, c2, c3), 1, np.where(detected, 2, 3))
    return np.array(list(BDClass), dtype=object)[np.where(_is_physical(c1, c2, c3), k, 0)]


def test_classification_equals_the_product_rule_on_the_full_grid():
    axis = np.linspace(-1.0, 1.0, 101)
    c = np.meshgrid(axis, axis, axis, indexing="ij", sparse=True)
    got = _classify(*c)
    assert got.shape == (101, 101, 101)
    assert np.array_equal(got, product_rule_classes(*c))


def test_classify_labels_a_triple_just_past_the_cube_unphysical():
    # the Bell weights' 1e-9 slack admits (1 + 1e-9, 0, 0); the cube bound does not
    assert classify_bd((1.0 + 1e-9, 0.0, 0.0)) is BDClass.UNPHYSICAL
    assert classify_bd((0.0, -1.0 - 1e-9, 0.0)) is BDClass.UNPHYSICAL
    assert classify_bd((0.0, 0.0, 1.0 + 4e-9)) is BDClass.UNPHYSICAL
    # the cube's own corners and faces stay physical
    assert f_witness_state(bd(1.0, 0.0, 0.0)) == 0.0
    assert classify_bd((1.0, 0.0, 0.0)) is BDClass.SEPARABLE
    assert classify_bd((-1.0, 1.0, 1.0)) is BDClass.ENTANGLED_DETECTED_BY_F
    assert not _is_physical(np.array([1.0 + 1e-9, 1.0]), 0.0, 0.0)[0]
    assert _is_physical(np.array([1.0 + 1e-9, 1.0]), 0.0, 0.0)[1]


def test_classification_equals_the_product_rule_on_random_triples():
    rng = np.random.default_rng(8080)
    c = rng.uniform(-1.0, 1.0, size=(3, 100_000))
    assert np.array_equal(_classify(*c), product_rule_classes(*c))
    for triple in c.T[:300]:
        assert classify_bd(triple) is product_rule_classes(*triple)
    for _ in range(300):
        params = BellDiagonalParams(*random_physical_c(rng))
        assert f_detects_bd(params) == ((1 + abs(params.c1)) * (1 + abs(params.c3)) > 2)


def test_f_detection_is_exact_on_thermal_derived_triples():
    # on the family c = (eI, -eI*eS, eS) produced by encoding a thermal state,
    # F < 0 is exactly the entanglement condition
    for eps_i in np.linspace(0.0, 1.0, 21):
        for eps_s in np.linspace(0.0, 1.0, 21):
            params = BellDiagonalParams(eps_i, -eps_i * eps_s, eps_s)
            assert f_detects_bd(params) == (not is_separable_bd(params))


def test_f_detection_overlaps_separable_region_off_the_thermal_family():
    # F's negativity is not conclusive near the octahedron edge: this triple
    # is PPT (hence separable) yet satisfies (1+|c1|)(1+|c3|) > 2.  The
    # classifier resolves the overlap by giving separability precedence.
    params = BellDiagonalParams(0.49, 0.0, 0.49)
    assert f_detects_bd(params)
    assert is_separable_bd(params)
    from witnesslab import partial_transpose

    pt_min = np.linalg.eigvalsh(partial_transpose(bd(0.49, 0.0, 0.49)).matrix)[0]
    assert pt_min >= 0.0
    assert classify_bd((0.49, 0.0, 0.49)) is BDClass.SEPARABLE


def test_classifier_never_marks_separable_points_detected():
    rng = np.random.default_rng(67)
    for _ in range(500):
        c = random_physical_c(rng)
        if classify_bd(tuple(c)) is BDClass.ENTANGLED_DETECTED_BY_F:
            assert not is_separable_bd(BellDiagonalParams(*c))
    # the exhibited point shows detection does not exhaust entanglement
    params = BellDiagonalParams(-0.2, 1.0, 0.2)
    assert not is_separable_bd(params) and not f_detects_bd(params)


def test_grid_resolution_two_hits_the_four_bell_corners():
    grid = detection_region_grid(2)
    assert len(grid) == 8
    physical = {c for c, cls in grid if cls is not BDClass.UNPHYSICAL}
    # exactly the corners whose sign product is -1 are physical (pure Bell states)
    assert physical == {c for c, _ in grid if c[0] * c[1] * c[2] == -1.0}
    assert len(physical) == 4


def test_grid_resolution_three_contains_separable_origin():
    grid = detection_region_grid(3)
    assert len(grid) == 27
    lookup = dict(grid)
    assert lookup[(0.0, 0.0, 0.0)] is BDClass.SEPARABLE


def test_grid_detected_fraction_strictly_inside_entangled_fraction():
    grid = detection_region_grid(21)
    detected = sum(cls is BDClass.ENTANGLED_DETECTED_BY_F for _, cls in grid)
    undetected = sum(cls is BDClass.ENTANGLED_UNDETECTED_BY_F for _, cls in grid)
    assert 0 < detected < detected + undetected


def test_grid_rejects_tiny_resolution():
    with pytest.raises(DomainError):
        detection_region_grid(1)


def test_grid_is_deterministic():
    assert detection_region_grid(5) == detection_region_grid(5)
