"""Dense complex Hermitian matrix core for two-spin (4x4) operators.

Everything in the package runs through the two value types defined here:
``HermitianOp`` (observables, witnesses) and ``DensityMatrix`` (states).
Conventions fixed once and inherited everywhere:

* spin I is the left (slow) tensor factor, spin S the right one;
* the computational basis is ordered |00>, |01>, |10>, |11> (row-major);
* every operator is 4x4, held by ``_as_operator_array``, and every reader
  of a state checks that it is a ``DensityMatrix`` with ``_two_spin_state``;
* the partial transpose acts on spin I (``PT_SIGN``, ``_pt_arr``);
* ``TOL_EQ`` and ``PSD_TOL`` are the two tolerances that judge inputs; a
  rule's own cut lives beside its code (``optim.NPT_CUT``, the 1e-9
  Bell-weight slack in ``states``), and ``WITNESSLAB_TOL`` sets only the
  CLI's ``psd_tol``;
* every eigendecomposition whose result the program acts on runs through
  ``_eigvalsh`` and ``_eigh``, and every SVD through ``_svd``: numpy.linalg's
  own LAPACK gufuncs, so the same bits, without its per-call wrapper, and
  with its failure contract (a NaN eigenvalue or singular value raises
  ``LinAlgError``).  The robustness stages decompose a stack of partial
  transposes once, with ``_eigh``: its lambda_min decides each point's PPT
  verdict and ``relax.SweepSeries.pt_min_values``, and its eigenpairs start
  every bracket.  Only the inner calls of ``optim``'s solver and Bell
  bracket, where a NaN marks a point that stays open or fails, and the
  sweep's PPT certificate (``optim._ppt_certified``), where a NaN marks a
  point it does not certify, call the gufuncs bare;
* an operator or state is checked once, where it enters the program;
  ``_trusted_op`` and ``_trusted_state`` hold a matrix the program built
  Hermitian, or a state, by construction, with no second check;
* a state's 16 Pauli coordinates are read once, through the state
  (``DensityMatrix._coords``), and a state the program makes from
  coordinates keeps them (``_keep_coords``): no other module gathers them
  from a state's matrix.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np
# numpy.linalg's private LAPACK gufuncs, the ones its eigvalsh, eigh and svd call
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import DomainError, NumericalConsistencyError, StructuralError

SIGMA_I = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI_BY_LETTER = {"I": SIGMA_I, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}

# the 16 two-spin Pauli strings in lexicographic order (II, IX, ..., ZZ)
TWO_SPIN_LABELS = tuple(a + b for a in "IXYZ" for b in "IXYZ")
TWO_SPIN_PAULIS = np.stack(
    [np.kron(PAULI_BY_LETTER[lab[0]], PAULI_BY_LETTER[lab[1]]) for lab in TWO_SPIN_LABELS]
)
TWO_SPIN_PAULIS.setflags(write=False)
# sign picked up by each Pauli string under partial transpose on spin I (Y^T = -Y)
PT_SIGN = np.array([-1.0 if lab[0] == "Y" else 1.0 for lab in TWO_SPIN_LABELS])
PT_SIGN.setflags(write=False)
# row k is vec(P_k): x @ _Q is vec(sum_k x_k P_k)
_Q = TWO_SPIN_PAULIS.reshape(16, 16)


def _conversion_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Pauli-coordinate conversions as (4, K) gather tables: source and sign of term t of output j.

    Each Pauli string has four nonzero entries, all +-1 or +-i, so each
    output float is four signed input floats.  pauli_coords: the real part
    of P_k[a, b] m[b, a] is +-Re m[b, a] or -+Im m[b, a], float 2 (4b + a)
    or 2 (4b + a) + 1 of m's float view, with the terms in the row-major
    order of P_k's nonzero entries.  from_pauli_coords: floats 2 (4a + b)
    and 2 (4a + b) + 1 of the output, the real and imaginary parts of entry
    (a, b), are the sums of P_k[a, b].real x_k and P_k[a, b].imag x_k over
    the four strings with P_k[a, b] != 0, in order of k; a part with only 2
    or 0 such terms has zero-sign terms in their place.
    """
    k, a, b = np.nonzero(TWO_SPIN_PAULIS)
    p = TWO_SPIN_PAULIS[k, a, b]
    coord_src = (2 * (4 * b + a) + (p.imag != 0)).reshape(16, 4).T
    coord_sign = (p.real - p.imag).reshape(16, 4).T
    a, b, k = np.nonzero(TWO_SPIN_PAULIS.transpose(1, 2, 0))
    p = TWO_SPIN_PAULIS[k, a, b]
    entry_src = np.repeat(k.reshape(16, 4).T, 2, axis=1)
    entry_sign = np.stack([p.real, p.imag], axis=-1).reshape(16, 4, 2).transpose(1, 0, 2).reshape(4, 32)
    tables = tuple(np.ascontiguousarray(t) for t in (coord_src, coord_sign, entry_src, entry_sign))
    for t in tables:
        t.setflags(write=False)
    return tables


_COORD_SRC, _COORD_SIGN, _ENTRY_SRC, _ENTRY_SIGN = _conversion_tables()

# elementwise absolute tolerance for hermiticity, a state's trace and the tomography spill
TOL_EQ = 1e-10
# how far below zero an eigenvalue may sit and still count as PSD
PSD_TOL = 1e-9


def _gather_sum(rows: np.ndarray, src: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """sum_t sign[t, j] * rows[..., src[t, j]], added to +0 in order of t: a C-contiguous (..., K) array.

    No BLAS call: the terms and their order are the tables', so a row's
    bits do not depend on the stack it sits in.
    """
    ndim = rows.ndim
    if rows.size == rows.shape[-1]:
        # one row, alone or as a stack of one: take is the cheaper gather, its 2-D terms meet the
        # signs with no broadcast, and its C-ordered terms give a C-ordered sum
        g = (rows if ndim == 1 else rows.reshape(-1)).take(src)
        g *= sign
        total = np.add.reduce(g, 0, None, None, False, 0.0)
        return total if ndim == 1 else total[(None,) * (ndim - 1)]
    # a stack: fancy indexing leaves the batch axis innermost, so the sum runs
    # along long rows, into a C-ordered buffer (its own layout would follow g's)
    g = rows[..., src]
    g *= sign
    return np.add.reduce(g, -2, None, np.empty(rows.shape[:-1] + src.shape[1:]), False, 0.0)


def pauli_coords(m: np.ndarray) -> np.ndarray:
    """The 16 real coordinates Tr(P_k m) of a 4x4 matrix, in TWO_SPIN_LABELS order.

    A (..., 4, 4) stack gives (..., 16), each row computed as for its matrix
    alone: each coordinate is its four signed entries of m added to +0 in
    the row-major order of P_k's nonzero entries, with no BLAS call.  The
    result is C-contiguous.  A state's own coordinates are
    ``DensityMatrix._coords``.
    """
    m = np.ascontiguousarray(m, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a (..., 4, 4) array, got shape {m.shape}")
    return _gather_sum(m.reshape(m.shape[:-2] + (16,)).view(float), _COORD_SRC, _COORD_SIGN)


def from_pauli_coords(x) -> np.ndarray:
    """sum_k x_k P_k, so from_pauli_coords(pauli_coords(m)) == 4 m for Hermitian m.

    Rows of a real (..., 16) array give a (..., 4, 4) stack.  The real and
    the imaginary part of each entry are its terms x_k P_k[a, b] added to +0
    in order of k, with no BLAS call.  The result is C-contiguous.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (16,):
        raise ValueError(f"expected a (..., 16) array, got shape {x.shape}")
    return _gather_sum(x, _ENTRY_SRC, _ENTRY_SIGN).view(complex).reshape(x.shape[:-1] + (4, 4))


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh of a complex (..., n, n) Hermitian array, bit for bit, without its wrapper.

    The lower triangle is read, as there.  A NaN eigenvalue, LAPACK's mark
    of a decomposition that failed, raises LinAlgError.
    """
    w = _umath_linalg.eigvalsh_lo(a, signature="D->d")
    if np.count_nonzero(np.isnan(w)):
        raise LinAlgError("Eigenvalues did not converge")
    return w


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of a complex (..., n, n) Hermitian array, bit for bit, without its wrapper; as ``_eigvalsh``."""
    w, v = _umath_linalg.eigh_lo(a, signature="D->dD")
    if np.count_nonzero(np.isnan(w)):
        raise LinAlgError("Eigenvalues did not converge")
    return w, v


# the gufunc np.linalg.svd calls for full_matrices=True on a square matrix
_SVD_F = _umath_linalg.svd_f


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.linalg.svd of a real (..., n, n) array, bit for bit, without its wrapper: U, s and V^T.

    A NaN singular value, LAPACK's mark of a decomposition that failed,
    raises LinAlgError, as there.
    """
    u, s, vt = _SVD_F(a, signature="d->ddd")
    if np.count_nonzero(np.isnan(s)):
        raise LinAlgError("SVD did not converge")
    return u, s, vt


def _as_operator_array(matrix) -> np.ndarray:
    arr = np.array(matrix, dtype=complex)
    if arr.shape != (4, 4):
        raise StructuralError(f"expected a two-spin 4x4 matrix, got shape {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) < arr.size:
        raise StructuralError("matrix has NaN or infinite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class HermitianOp:
    """A 4x4 Hermitian matrix.

    Inputs that fail the hermiticity check are rejected outright; silently
    symmetrizing would mask bugs upstream.  ``_trusted_op`` makes one
    without the check, under one rule: the program built the matrix
    Hermitian (the robustness witness, Z_2^PT or a closed-form W).
    """

    matrix: np.ndarray

    def __post_init__(self):
        arr = _as_operator_array(self.matrix)
        object.__setattr__(self, "matrix", arr)
        if np.abs(arr - arr.conj().T).max() > TOL_EQ:
            raise StructuralError(f"matrix is not Hermitian within TOL_EQ = {TOL_EQ:g}")


@dataclass(frozen=True, eq=False)
class DensityMatrix(HermitianOp):
    """A Hermitian operator with unit trace and (numerically) no negative eigenvalues.

    Constructing one checks all three, the eigenvalues within the init-only
    ``psd_tol`` (default ``PSD_TOL``): every state given to the program
    passes that check.  ``_trusted_state`` makes one without it, under one
    rule: the matrix is a state by construction, the image of a validated
    state under a unitary or a CPTP map (``Gate.apply``, ``relax_channel``),
    a tomography result whose spectrum was just checked or projected
    (``pauli_tomography``), or the robustness certificate (omega over its
    trace: positive definite by the solver's last Cholesky factor, or PSD
    by construction on the closed-form path).
    So the tolerance judges inputs, never the program's own rounding.
    """

    psd_tol: InitVar[float] = PSD_TOL

    def __post_init__(self, psd_tol):
        if not 0.0 <= psd_tol < np.inf:
            raise DomainError(f"psd_tol must be finite and nonnegative, got {psd_tol}")
        super().__post_init__()
        tr = self.matrix.trace()
        if abs(tr - 1.0) > TOL_EQ:
            raise StructuralError(f"trace must be 1, got {tr}")
        lam_min = float(_eigvalsh(self.matrix)[0])
        if lam_min < -psd_tol:
            raise StructuralError(f"not positive semidefinite: min eigenvalue {lam_min}")

    @cached_property
    def _coords(self) -> np.ndarray:
        """The 16 Pauli coordinates Tr(P_k rho), read-only: read from the matrix on first use.

        A state the program made from coordinates holds those instead
        (``_keep_coords``).  Every reader of a state's coordinates reads
        them here, so each is read once.
        """
        x = pauli_coords(self.matrix)
        x.setflags(write=False)
        return x


del DensityMatrix.psd_tol  # init-only: the class default would read as every state's tolerance


def _two_spin_state(rho, caller: str) -> None:
    """Raise DomainError unless rho is a DensityMatrix (4x4 by construction)."""
    if not isinstance(rho, DensityMatrix):
        raise DomainError(f"{caller} needs a two-spin DensityMatrix, got {type(rho).__name__}")


def _trusted(cls, matrix: np.ndarray):
    matrix.setflags(write=False)
    op = object.__new__(cls)
    object.__setattr__(op, "matrix", matrix)
    return op


def _trusted_op(matrix: np.ndarray) -> HermitianOp:
    """A HermitianOp holding ``matrix`` (a complex 4x4 array no other code holds), unchecked.

    Only for a matrix that the program built Hermitian (see ``HermitianOp``);
    every other operator goes through ``HermitianOp``.
    """
    return _trusted(HermitianOp, matrix)


def _trusted_state(matrix: np.ndarray) -> DensityMatrix:
    """A DensityMatrix holding ``matrix`` (a fresh complex 4x4 array), unchecked.

    Only for a matrix that is a state by construction (see ``DensityMatrix``);
    every other state goes through ``DensityMatrix``.
    """
    return _trusted(DensityMatrix, matrix)


def _keep_coords(state: DensityMatrix, x: np.ndarray) -> DensityMatrix:
    """``state``, whose matrix the program made as from_pauli_coords(x) / 4, keeping ``x`` as its coordinates.

    ``x`` is a (16,) array no other code holds.  The exact coordinates are
    handed on, not read back from the rounded matrix.
    """
    x.setflags(write=False)
    state.__dict__["_coords"] = x  # where the cached_property keeps its value
    return state


def _pt_arr(arr: np.ndarray) -> np.ndarray:
    """Partial transpose on spin I of a 4x4 array, or of each one in a (..., 4, 4) stack."""
    return arr.reshape(arr.shape[:-2] + (2, 2, 2, 2)).swapaxes(-4, -2).reshape(arr.shape)


def partial_transpose(op: HermitianOp) -> HermitianOp:
    """Transpose spin I's factor of an operator, state or not.  Involutive and trace preserving."""
    return HermitianOp(_pt_arr(op.matrix))


def expectation(rho: DensityMatrix, obs: HermitianOp) -> float:
    """Tr(rho * obs).  The imaginary residue is checked, then discarded."""
    _two_spin_state(rho, "expectation")
    value = complex(np.einsum("ab,ba->", rho.matrix, obs.matrix))
    if abs(value.imag) > 1e-8:
        raise NumericalConsistencyError(f"expectation value has imaginary part {value.imag:.3e}")
    return value.real


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1]."""
    _two_spin_state(rho, "fidelity")
    _two_spin_state(sigma, "fidelity")
    vals, vecs = _eigh(rho.matrix)
    sqrt_rho = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T
    inner = _eigvalsh(sqrt_rho @ sigma.matrix @ sqrt_rho)
    root = float(np.sum(np.sqrt(np.maximum(inner, 0.0))))
    return min(1.0, root * root)
