"""Dense complex Hermitian matrix core for one- and two-spin operators.

Everything in the package runs through the two value types defined here:
``HermitianOp`` (observables, witnesses) and ``DensityMatrix`` (states).
Conventions fixed once and inherited everywhere:

* spin I is the left (slow) tensor factor, spin S the right one;
* the computational basis is ordered |00>, |01>, |10>, |11> (row-major);
* only dimensions 2 and 4 are supported, and every reader of a state
  takes a two-spin one, checked by ``_two_spin_state``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .config import TOL
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


def pauli_coords(m: np.ndarray) -> np.ndarray:
    """The 16 real coordinates Tr(P_k m) of a 4x4 matrix, in TWO_SPIN_LABELS order.

    A (..., 4, 4) stack gives (..., 16), each row computed as for its matrix alone.
    """
    return np.real(np.einsum("kab,...ba->...k", TWO_SPIN_PAULIS, m))


def from_pauli_coords(x) -> np.ndarray:
    """sum_k x_k P_k, so from_pauli_coords(pauli_coords(m)) == 4 m for Hermitian m.

    Rows of a (..., 16) array give a (..., 4, 4) stack.
    """
    return np.einsum("...k,kab->...ab", x, TWO_SPIN_PAULIS)


def _as_operator_array(matrix) -> np.ndarray:
    arr = np.array(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise StructuralError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] not in (2, 4):
        raise StructuralError(f"only dimensions 2 and 4 are supported, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise StructuralError("matrix has NaN or infinite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class HermitianOp:
    """A 2x2 or 4x4 Hermitian matrix.

    Inputs that fail the hermiticity check are rejected outright; silently
    symmetrizing would mask bugs upstream.
    """

    matrix: np.ndarray

    def __post_init__(self):
        arr = _as_operator_array(self.matrix)
        object.__setattr__(self, "matrix", arr)
        if np.max(np.abs(arr - arr.conj().T)) > TOL.tol_eq:
            raise StructuralError("matrix is not Hermitian within tol_eq")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __eq__(self, other) -> bool:
        # equality means elementwise agreement within tol_eq, not bit identity
        if not isinstance(other, HermitianOp):
            return NotImplemented
        return self.matrix.shape == other.matrix.shape and bool(
            np.max(np.abs(self.matrix - other.matrix)) <= TOL.tol_eq
        )

    __hash__ = None


@dataclass(frozen=True, eq=False)
class DensityMatrix(HermitianOp):
    """A Hermitian operator with unit trace and (numerically) no negative eigenvalues.

    Constructing one checks all three, the eigenvalues within the init-only
    ``psd_tol`` (default ``TOL.psd_tol``): every state given to the program
    passes that check.  ``_trusted_state`` makes one without it, under one
    rule: the matrix is a state by construction, the image of a validated
    state under a unitary or a CPTP map (``Gate.apply``, ``relax_channel``)
    or a tomography result whose spectrum was just checked or clipped
    (``pauli_tomography``).  So the tolerance judges inputs, never the
    program's own rounding.
    """

    psd_tol: InitVar[float] = TOL.psd_tol

    def __post_init__(self, psd_tol):
        if not 0.0 <= psd_tol < np.inf:
            raise DomainError(f"psd_tol must be finite and nonnegative, got {psd_tol}")
        super().__post_init__()
        tr = np.trace(self.matrix)
        if abs(tr - 1.0) > TOL.tol_eq:
            raise StructuralError(f"trace must be 1, got {tr}")
        lam_min = float(np.linalg.eigvalsh(self.matrix)[0])
        if lam_min < -psd_tol:
            raise StructuralError(f"not positive semidefinite: min eigenvalue {lam_min}")


del DensityMatrix.psd_tol  # init-only: the class default would read as every state's tolerance


def _two_spin_state(rho, caller: str) -> None:
    """Raise DomainError unless rho is a two-spin (4x4) DensityMatrix."""
    if not (isinstance(rho, DensityMatrix) and rho.dim == 4):
        got = f"dim {rho.dim}" if isinstance(rho, DensityMatrix) else type(rho).__name__
        raise DomainError(f"{caller} needs a two-spin DensityMatrix, got {got}")


def _trusted_state(matrix: np.ndarray) -> DensityMatrix:
    """A DensityMatrix holding ``matrix`` (a fresh complex 2x2 or 4x4 array), unchecked.

    Only for a matrix that is a state by construction (see ``DensityMatrix``);
    every other state goes through ``DensityMatrix``.
    """
    matrix.setflags(write=False)
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "matrix", matrix)
    return rho


def _pt_arr(arr: np.ndarray, subsystem: str) -> np.ndarray:
    """Partial transpose of a 4x4 array, or of each one in a (..., 4, 4) stack."""
    four = arr.reshape(arr.shape[:-2] + (2, 2, 2, 2))
    if subsystem == "I":
        return four.swapaxes(-4, -2).reshape(arr.shape)
    if subsystem == "S":
        return four.swapaxes(-3, -1).reshape(arr.shape)
    raise StructuralError(f"subsystem must be 'I' or 'S', got {subsystem!r}")


def partial_transpose(op: HermitianOp, subsystem: str = "I") -> HermitianOp:
    """Transpose one tensor factor of an operator, state or not.  Involutive and trace preserving."""
    if op.dim != 4:
        raise StructuralError("partial_transpose needs a two-spin (dim 4) operator")
    return HermitianOp(_pt_arr(op.matrix, subsystem))


def partial_trace(op: HermitianOp, keep: str = "I") -> HermitianOp:
    """Trace out one spin, keeping the marginal of the other."""
    if op.dim != 4:
        raise StructuralError("partial_trace needs a two-spin (dim 4) operator")
    four = op.matrix.reshape(2, 2, 2, 2)
    if keep == "I":
        return HermitianOp(np.einsum("isjs->ij", four))
    if keep == "S":
        return HermitianOp(np.einsum("isit->st", four))
    raise StructuralError(f"keep must be 'I' or 'S', got {keep!r}")


def _expectation_raw(rho_arr: np.ndarray, obs_arr: np.ndarray) -> float:
    value = complex(np.einsum("ab,ba->", rho_arr, obs_arr))
    if abs(value.imag) > 1e-8:
        raise NumericalConsistencyError(
            f"expectation value has imaginary part {value.imag:.3e}"
        )
    return value.real


def expectation(rho: DensityMatrix, obs: HermitianOp) -> float:
    """Tr(rho * obs).  The imaginary residue is checked, then discarded."""
    _two_spin_state(rho, "expectation")
    if rho.dim != obs.dim:
        raise StructuralError("state and observable dimensions differ")
    return _expectation_raw(rho.matrix, obs.matrix)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1]."""
    _two_spin_state(rho, "fidelity")
    _two_spin_state(sigma, "fidelity")
    vals, vecs = np.linalg.eigh(rho.matrix)
    sqrt_rho = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    inner = np.linalg.eigvalsh(sqrt_rho @ sigma.matrix @ sqrt_rho)
    root = float(np.sum(np.sqrt(np.clip(inner, 0.0, None))))
    return min(1.0, root * root)
