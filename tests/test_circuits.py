import itertools

import numpy as np
import pytest

from conftest import random_density_matrix
from witnesslab import (
    BellKind,
    DomainError,
    Gate,
    Message,
    StructuralError,
    ThermalParams,
    bell_state,
    epr_gate,
    grape_target_pipeline,
    message_operator,
    pauli_vector,
    pseudo_epr,
    superdense_run,
    thermal_state,
)
from witnesslab.circuits import grape_unitary, gradient_dephase
from witnesslab.qmat import TWO_SPIN_LABELS, HermitianOp, pauli_coords
from witnesslab.states import PAULI_LABELS, _BELL_VECTORS


def apply_to_ket(gate, ket):
    return gate.unitary @ np.asarray(ket, dtype=complex)


def same_ray(u, v):
    # equality of states up to a global phase
    return abs(abs(np.vdot(u, v)) - 1.0) < 1e-12


def test_gate_rejects_non_unitary():
    with pytest.raises(StructuralError):
        Gate(np.ones((4, 4)), "bad")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_gate_rejects_non_finite_entries(bad):
    u = np.eye(4, dtype=complex)
    u[1, 2] = bad
    with pytest.raises(StructuralError, match="NaN or infinite"):
        Gate(u, "bad")


def test_gate_rejects_other_shapes_and_is_read_only():
    for shape in ((3, 3), (2, 4), (4,), (8, 8)):
        with pytest.raises(StructuralError):
            Gate(np.eye(*shape) if len(shape) == 2 else np.ones(shape), "bad")
    g = epr_gate()
    with pytest.raises(ValueError):
        g.unitary[0, 0] = 0.0


def test_message_bits_validated():
    with pytest.raises(DomainError):
        Message(2, 0)


@pytest.mark.parametrize("bits", [(1.0, 0), (0, 0.0), (-1, 0), (0, 2), ("1", 0), (None, 1)])
def test_message_rejects_non_bits(bits):
    with pytest.raises(DomainError):
        Message(*bits)


def test_message_stores_plain_int_bits():
    for bits in ((True, False), (np.int64(1), np.int8(0))):
        m = Message(*bits)
        assert (type(m.x), type(m.z)) == (int, int)
        assert (m.x, m.z) == (1, 0)
        assert message_operator(m).label == "U_x1z0"


def test_epr_gate_creates_cat_state():
    out = apply_to_ket(epr_gate(), [1, 0, 0, 0])
    assert same_ray(out, _BELL_VECTORS[BellKind.PHI_PLUS])


def test_epr_gate_on_one_zero():
    out = apply_to_ket(epr_gate(), [0, 0, 1, 0])
    assert same_ray(out, _BELL_VECTORS[BellKind.PHI_MINUS])


def test_epr_gate_unitarity():
    u = epr_gate().unitary
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


def test_pseudo_epr_pinned_columns():
    gate = pseudo_epr()
    assert same_ray(apply_to_ket(gate, [1, 0, 0, 0]), _BELL_VECTORS[BellKind.PHI_MINUS])
    assert same_ray(apply_to_ket(gate, [0, 0, 0, 1]), _BELL_VECTORS[BellKind.PSI_PLUS])
    # documented completion on the free columns
    assert same_ray(apply_to_ket(gate, [0, 1, 0, 0]), _BELL_VECTORS[BellKind.PSI_MINUS])
    assert same_ray(apply_to_ket(gate, [0, 0, 1, 0]), _BELL_VECTORS[BellKind.PHI_PLUS])
    u = gate.unitary
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


def test_message_operator_identity_case():
    assert np.allclose(message_operator(Message(0, 0)).unitary, np.eye(4), atol=1e-12)


def test_message_operator_bell_basis_action():
    phip = _BELL_VECTORS[BellKind.PHI_PLUS]
    out10 = apply_to_ket(message_operator(Message(1, 0)), phip)
    assert same_ray(out10, _BELL_VECTORS[BellKind.PSI_PLUS])
    out11 = apply_to_ket(message_operator(Message(1, 1)), phip)
    assert same_ray(out11, _BELL_VECTORS[BellKind.PSI_MINUS])


# ---------------------------------------------------------------------------
# superdense coding
# ---------------------------------------------------------------------------

def test_superdense_pure_reference_messages():
    full = ThermalParams(1.0, 1.0)
    r = superdense_run(full, Message(0, 0))
    assert abs(r.mz_i - 1.0) < 1e-12 and abs(r.mz_s - 1.0) < 1e-12
    r = superdense_run(full, Message(1, 1))
    assert abs(r.mz_i + 1.0) < 1e-12 and abs(r.mz_s + 1.0) < 1e-12


def test_superdense_mixed_polarizations():
    r = superdense_run(ThermalParams(0.3, 0.7), Message(1, 0))
    # z rides on spin I, x on spin S
    assert abs(r.mz_i - 0.3) < 1e-12
    assert abs(r.mz_s + 0.7) < 1e-12


def test_superdense_sign_structure_on_grid():
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for eps_i, eps_s in itertools.product(grid, grid):
        thermal = ThermalParams(eps_i, eps_s)
        for x, z in itertools.product((0, 1), (0, 1)):
            r = superdense_run(thermal, Message(x, z))
            assert abs(r.mz_i - (-1) ** z * eps_i) < 1e-10
            assert abs(r.mz_s - (-1) ** x * eps_s) < 1e-10


def test_superdense_decode_matches_inline_conjugation():
    # decoding through Gate.apply is bit for bit U^dagger rho U with U the EPR gate
    epr = epr_gate()
    zi, iz = TWO_SPIN_LABELS.index("ZI"), TWO_SPIN_LABELS.index("IZ")
    for eps_i, eps_s in itertools.product(np.linspace(0.0, 1.0, 11), repeat=2):
        thermal = ThermalParams(float(eps_i), float(eps_s))
        for x, z in itertools.product((0, 1), (0, 1)):
            r = superdense_run(thermal, Message(x, z))
            encoded = message_operator(Message(x, z)).apply(epr.apply(thermal_state(thermal)))
            rho_f = epr.unitary.conj().T @ encoded.matrix @ epr.unitary
            coords = pauli_coords(rho_f)
            assert np.array_equal(r.rho_f.matrix, rho_f)
            assert r.mz_i == float(coords[zi]) and r.mz_s == float(coords[iz])


def test_superdense_pure_decoding_is_deterministic():
    for x, z in itertools.product((0, 1), (0, 1)):
        r = superdense_run(ThermalParams(1.0, 1.0), Message(x, z))
        diag = np.diag(r.rho_f.matrix).real
        k = int(np.argmax(diag))
        assert diag[k] > 1.0 - 1e-12
        # basis index |z x>: spin I carries z, spin S carries x
        assert (k >> 1, k & 1) == (z, x)


def test_decoded_magnetizations_equal_bell_basis_correlations():
    # measuring Z on the decoded state is the same as measuring XX / ZZ on
    # the entangled intermediate: the bridge that lets spectra stand in for
    # Bell-basis measurements
    rng = np.random.default_rng(51)
    for _ in range(10):
        eps = rng.uniform(0, 1, 2)
        r = superdense_run(ThermalParams(*eps), Message(0, 0))
        vec = pauli_vector(r.rho1)
        assert abs(r.mz_i - vec[PAULI_LABELS.index("XX")]) < 1e-12
        assert abs(r.mz_s - vec[PAULI_LABELS.index("ZZ")]) < 1e-12


def test_superdense_rho1_is_bell_diagonal():
    rng = np.random.default_rng(53)
    for _ in range(10):
        eps = rng.uniform(0, 1, 2)
        r = superdense_run(ThermalParams(*eps), Message(0, 0))
        vec = pauli_vector(r.rho1)
        support = {PAULI_LABELS[k] for k in np.nonzero(np.abs(vec) > 1e-12)[0]}
        assert support <= {"XX", "YY", "ZZ"}


# the fuzz's numbers (tests/test_cli_fuzz.py) that are valid polarizations; the others are
# rejected by ThermalParams before any state is formed
FUZZ_EPS = (0.0, 1.0, 0.5, 0.31, 1e-5)


def test_superdense_formed_states_are_not_judged_by_a_zero_tolerance(monkeypatch):
    # rho1 after the EPR gate has rounding residues down to -4.6e-34 in its
    # spectrum; a zero psd_tol judges the thermal input alone, since the
    # thermal input is the one state of a run that goes through the check
    from witnesslab.qmat import DensityMatrix

    checks = []
    check = DensityMatrix.__post_init__

    def counted(self, psd_tol):
        checks.append(psd_tol)
        check(self, psd_tol)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
    for eps_i, eps_s in itertools.product(FUZZ_EPS, repeat=2):
        for x, z in itertools.product((0, 1), (0, 1)):
            checks.clear()
            r = superdense_run(ThermalParams(eps_i, eps_s), Message(x, z))
            assert len(checks) == 1
            assert abs(r.mz_i - (-1) ** z * eps_i) < 1e-12
            assert abs(r.mz_s - (-1) ** x * eps_s) < 1e-12


def test_gate_apply_is_the_plain_conjugation():
    rng = np.random.default_rng(61)
    gates = [epr_gate(), pseudo_epr(), grape_unitary(), message_operator(Message(1, 1))]
    for _ in range(20):
        rho = random_density_matrix(rng)
        for gate in gates:
            u = gate.unitary
            out = gate.apply(rho)
            assert np.array_equal(out.matrix, u @ rho.matrix @ u.conj().T)
            assert not out.matrix.flags.writeable


def test_gate_apply_needs_a_validated_state():
    not_a_state = HermitianOp(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
    with pytest.raises(DomainError, match="DensityMatrix"):
        epr_gate().apply(not_a_state)


def test_circuit_gates_are_built_once():
    assert epr_gate() is epr_gate()
    assert not epr_gate().unitary.flags.writeable
    for x, z in itertools.product((0, 1), (0, 1)):
        gate = message_operator(Message(x, z))
        assert gate is message_operator(Message(x, z))
        assert not gate.unitary.flags.writeable
        assert np.array_equal(gate.unitary, message_operator.__wrapped__(Message(x, z)).unitary)


# ---------------------------------------------------------------------------
# preparation pipeline
# ---------------------------------------------------------------------------

def test_grape_unitary_first_column():
    col = grape_unitary().unitary[:, 0]
    assert np.allclose(col, [np.sqrt(0.6), 0, 0, np.sqrt(0.4)], atol=1e-12)


def test_gradient_dephase_kills_coherences():
    zero = np.zeros((4, 4), dtype=complex)
    zero[0, 0] = 1.0
    from witnesslab import DensityMatrix

    pumped = grape_unitary().apply(DensityMatrix(zero))
    dephased = gradient_dephase(pumped)
    assert np.allclose(dephased.matrix, np.diag([0.6, 0, 0, 0.4]), atol=1e-12)


def test_grape_pipeline_hits_target_correlations():
    vec = pauli_vector(grape_target_pipeline())
    got = [vec[PAULI_LABELS.index(lab)] for lab in ("XX", "YY", "ZZ")]
    assert np.allclose(got, [-0.2, 1.0, 0.2], atol=1e-10)


def test_grape_pipeline_spectrum():
    eigs = np.linalg.eigvalsh(grape_target_pipeline().matrix)
    assert np.allclose(eigs, [0, 0, 0.4, 0.6], atol=1e-10)


def test_grape_pipeline_is_phi_minus_psi_plus_mixture():
    rho = grape_target_pipeline().matrix
    expected = 0.6 * bell_state(BellKind.PHI_MINUS).matrix + 0.4 * bell_state(BellKind.PSI_PLUS).matrix
    assert np.max(np.abs(rho - expected)) < 1e-10
