"""A state's Pauli coordinates: read once through the state, and kept exactly where the program builds a state from them."""

import dataclasses

import numpy as np
import pytest

from conftest import PAPER_T2, entangled_ginibre, random_density_matrix
from witnesslab import (
    BellKind,
    bell_state,
    bell_witness,
    epr_gate,
    from_pauli_vector,
    generalized_robustness,
    pauli_tomography,
    pauli_vector,
    relax_channel,
    sweep,
)
from witnesslab.qmat import from_pauli_coords, pauli_coords
from witnesslab.witness import _CORRELATION_COORDS, _f_values


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_a_states_coordinates_are_read_once_and_read_only():
    rho = random_density_matrix(np.random.default_rng(3801))
    coords = rho._coords
    assert rho._coords is coords
    assert not coords.flags.writeable
    with pytest.raises(ValueError):
        coords[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho._coords = np.zeros(16)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del rho._coords
    # pauli_vector hands the caller its own array
    vec = pauli_vector(rho)
    vec[0] = 2.0
    assert rho._coords[1] != 2.0


def test_a_state_built_from_a_matrix_holds_its_matrixs_coordinates():
    # the witness goldens read these, so they are pauli_coords of the matrix, bit for bit
    rng = np.random.default_rng(3802)
    rho = random_density_matrix(rng)
    states = [rho, epr_gate().apply(rho)]
    states += [bell_state(kind) for kind in BellKind]
    states.append(generalized_robustness(entangled_ginibre(3)).certificate_state)
    for state in states:
        assert same_bits(state._coords, pauli_coords(state.matrix))


def test_a_state_built_from_coordinates_gives_them_back_exactly():
    # from_pauli_vector and a tomography that needs no projection keep (1, e): pauli_vector returns e
    rng = np.random.default_rng(3803)
    for _ in range(200):
        e = pauli_vector(random_density_matrix(rng, rank=int(rng.integers(1, 5))))
        for state in (from_pauli_vector(e), pauli_tomography(e).state):
            assert same_bits(pauli_vector(state), e)
            assert same_bits(state._coords, np.concatenate(([1.0], e)))
            assert same_bits(state.matrix, from_pauli_coords(state._coords) / 4.0)


def decay_table(t, p):
    spin_i = np.exp(-t / np.array([np.inf, p.t2_i, p.t2_i, p.t1_i]))
    spin_s = np.exp(-t / np.array([np.inf, p.t2_s, p.t2_s, p.t1_s]))
    return (spin_i[:, None] * spin_s[None, :]).reshape(16)


def test_relaxation_hands_on_the_decayed_coordinates():
    rng = np.random.default_rng(3804)
    bell = from_pauli_vector(pauli_vector(bell_state(BellKind.PHI_MINUS)))
    for rho in (random_density_matrix(rng), entangled_ginibre(2), bell):
        for t in np.linspace(0.0, 0.6, 7):
            out = relax_channel(rho, float(t), PAPER_T2)
            assert same_bits(out._coords, decay_table(t, PAPER_T2) * rho._coords)
            assert same_bits(out.matrix, from_pauli_coords(out._coords) / 4.0)
            assert not out._coords.flags.writeable
            # a relaxed state relaxed again starts from the coordinates it kept
            again = relax_channel(out, 0.01, PAPER_T2)
            assert same_bits(again._coords, decay_table(0.01, PAPER_T2) * out._coords)


def test_sweep_reads_f_and_w_from_the_relaxed_coordinates():
    rng = np.random.default_rng(3805)
    w = bell_witness(BellKind.PHI_MINUS)
    for rho in (random_density_matrix(rng, rank=2), entangled_ginibre(2), bell_state(BellKind.PHI_MINUS)):
        series = sweep(rho, PAPER_T2, w, t_max=0.6, steps=50)
        coords = np.stack([relax_channel(rho, float(t), PAPER_T2)._coords for t in series.times])
        xx, yy, zz = coords[:, _CORRELATION_COORDS].T
        assert same_bits(series.f_values, _f_values(xx, zz))
        assert same_bits(series.w_values, w.value(xx, yy, zz))
