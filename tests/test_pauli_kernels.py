"""The Pauli-coordinate gather kernels against the einsums they replaced, bit for bit."""

import hashlib
import warnings

import numpy as np
import pytest

from witnesslab import BellKind, DomainError, StructuralError, bell_state, from_pauli_vector, pauli_tomography
from witnesslab.qmat import TWO_SPIN_PAULIS, _pt_arr, from_pauli_coords, pauli_coords

# sha256 of both conversions of dyadic_inputs(), recorded on numpy 2.4.6
CONVERSIONS_SHA256 = "7a598e20ca53b0e329537895a024c692007125ee39d223431e817b8f3f4c7076"


def einsum_coords(m):
    """The reference pauli_coords: every entry of every P_k, in einsum's order."""
    return np.real(np.einsum("kab,...ba->...k", TWO_SPIN_PAULIS, m))


def einsum_matrix(x):
    """The reference from_pauli_coords."""
    return np.einsum("...k,kab->...ab", x, TWO_SPIN_PAULIS)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def check_both(m, x):
    """Both conversions equal the references bit for bit."""
    assert_same_bits(pauli_coords(m), einsum_coords(m))
    assert_same_bits(from_pauli_coords(x), einsum_matrix(x))


def random_stack(rng, shape):
    g = rng.standard_normal(shape + (4, 4)) + 1j * rng.standard_normal(shape + (4, 4))
    return g + g.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("shape", [(), (1,), (7,), (200,), (3, 5), (0,)])
def test_seeded_stacks_match_the_einsums(shape):
    rng = np.random.default_rng(20261019)
    h = random_stack(rng, shape)
    g = rng.standard_normal(shape + (4, 4)) + 1j * rng.standard_normal(shape + (4, 4))
    for m in (h, g, h.real):
        check_both(m, rng.standard_normal(shape + (16,)))
    check_both(h, pauli_coords(h))


def test_one_row_gives_the_same_bytes_alone_in_a_stack_of_one_and_in_a_larger_stack():
    # one row takes the 2-D gather whatever its leading axes of length 1; a larger stack the fancy-index one
    rng = np.random.default_rng(20261020)
    h, x = random_stack(rng, (9,)), rng.standard_normal((9, 16))
    coords, matrices = pauli_coords(h), from_pauli_coords(x)
    for k in (0, 4, 8):
        for lead in ((), (1,), (1, 1)):
            assert_same_bits(pauli_coords(h[k].reshape(lead + (4, 4))), coords[k].reshape(lead + (16,)))
            assert_same_bits(from_pauli_coords(x[k].reshape(lead + (16,))), matrices[k].reshape(lead + (4, 4)))


def test_exact_and_signed_zeros_match_the_einsums():
    m = np.zeros((6, 4, 4), dtype=complex)
    m[1] = -0.0
    m[2].real = -0.0
    m[3].imag = -0.0
    m[4] = np.diag([0.5, -0.0, 0.0, 0.5])
    m[5, 0, 3] = complex(-0.0, 0.25)
    m[5, 3, 0] = complex(0.0, -0.25)
    x = np.zeros((5, 16))
    x[1] = -0.0
    x[2, ::2] = -0.0
    x[3, 0] = 1.0
    x[4, [0, 5, 10, 15]] = [1.0, -0.0, 0.5, 0.0]
    check_both(m, x)
    for i in range(len(m)):
        check_both(m[i], x[i % len(x)])
    # einsum's sums start at +0, so a zero coordinate or entry reads +0
    for out in (pauli_coords(m), from_pauli_coords(x).view(float)):
        assert not np.signbit(out[out == 0.0]).any()


@pytest.mark.parametrize("kind", list(BellKind))
def test_bell_states_match_the_einsums(kind):
    m = bell_state(kind).matrix
    check_both(m, pauli_coords(m))
    check_both(m[None], pauli_coords(m)[None])


def test_a_row_gives_the_same_bits_alone_and_in_a_stack():
    rng = np.random.default_rng(41)
    m = random_stack(rng, (9,))
    x = rng.standard_normal((9, 16))
    coords, matrices = pauli_coords(m), from_pauli_coords(x)
    for i in range(len(m)):
        assert_same_bits(pauli_coords(m[i]), coords[i])
        assert_same_bits(pauli_coords(m[i:i + 1]), coords[i:i + 1])
        assert_same_bits(from_pauli_coords(x[i]), matrices[i])
        assert_same_bits(from_pauli_coords(x[i:i + 1]), matrices[i:i + 1])


def test_non_contiguous_inputs_match_the_einsums():
    rng = np.random.default_rng(97)
    m = random_stack(rng, (12,))
    wide = rng.standard_normal((12, 32))
    for view in (m.swapaxes(-1, -2), _pt_arr(m), m[::3], m[..., ::-1, :], np.asfortranarray(m)):
        check_both(view, wide[: len(view), ::2])
    check_both(m.swapaxes(-1, -2)[5], wide[5, 1::2])


def dyadic_inputs():
    """A fixed (64, 4, 4) stack and (128, 16) coordinates, no RNG.

    Each float is a 50-bit integer from a multiplicative hash of its index,
    signed and scaled by 2^-58 to 2^-42, so it is an exact dyadic rational,
    and four-term sums of them round: a change in the order of terms moves
    the bits.  Every eleventh float is -0.0 and every thirteenth +0.0.
    """
    j = np.arange(64 * 32, dtype=np.uint64)
    mantissa = ((j * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(14)).astype(float)
    v = np.ldexp(np.where(j % 3 == 0, -mantissa, mantissa), (j % 17).astype(int) - 58)
    v[j % 11 == 4] = -0.0
    v[j % 13 == 6] = 0.0
    return v.view(complex).reshape(64, 4, 4), v.reshape(128, 16)


def test_conversions_keep_their_recorded_bits():
    # a numpy whose gather, multiply or reduction computed otherwise would change the hash
    m, x = dyadic_inputs()
    digest = hashlib.sha256(pauli_coords(m).tobytes() + from_pauli_coords(x).tobytes()).hexdigest()
    assert digest == CONVERSIONS_SHA256


def test_wrong_shapes_raise_value_error_as_the_einsums_did():
    for bad in (np.zeros((2, 8)), np.zeros(16), np.zeros((3, 4))):
        with pytest.raises(ValueError):
            pauli_coords(bad)
    for bad in (np.zeros(17), np.zeros((4, 4)), np.zeros(())):
        with pytest.raises(ValueError):
            from_pauli_coords(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("k", [0, 4, 14])
def test_non_finite_expectations_raise_the_same_errors(value, k):
    # from_pauli_vector checks its expectations before the inversion, so no floating-point
    # exception comes first: under warnings as errors and raising errstate the error is its own
    e = np.zeros(15)
    e[k] = value
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(StructuralError, match=r"^matrix has NaN or infinite entries$"):
            from_pauli_vector(e)
        with pytest.raises(DomainError, match=r"^expectations must lie in \[-1, 1\]$"):
            pauli_tomography(e)
