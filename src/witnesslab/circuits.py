"""Gate-level simulation of the superdense-coding circuit and the
pseudo-EPR preparation pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructuralError
from .qmat import SIGMA_I, SIGMA_X, SIGMA_Z, TWO_SPIN_LABELS, DensityMatrix, pauli_coords
from .states import BellKind, ThermalParams, _BELL_VECTORS, thermal_state

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


@dataclass(frozen=True)
class Gate:
    """A unitary with a human-readable label."""

    unitary: np.ndarray
    label: str

    def __post_init__(self):
        u = np.array(self.unitary, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] not in (2, 4):
            raise StructuralError(f"gate must be 2x2 or 4x4, got shape {u.shape}")
        if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) > 1e-10:
            raise StructuralError(f"gate {self.label!r} is not unitary")
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        return DensityMatrix(self.unitary @ rho.matrix @ self.unitary.conj().T)


@dataclass(frozen=True)
class Message:
    """The two classical bits (x, z) to be transmitted."""

    x: int
    z: int

    def __post_init__(self):
        if self.x not in (0, 1) or self.z not in (0, 1):
            raise DomainError(f"message bits must be 0 or 1, got ({self.x}, {self.z})")


@dataclass(frozen=True)
class SuperdenseResult:
    rho1: DensityMatrix
    rho_f: DensityMatrix
    mz_i: float
    mz_s: float


def epr_gate() -> Gate:
    """CNOT . (H x 1) with control on spin I; maps |00> to (|00>+|11>)/sqrt2."""
    return Gate(_CNOT @ np.kron(_H, SIGMA_I), "EPR")


def pseudo_epr() -> Gate:
    """Basis-to-Bell unitary |00>->phi-, |01>->psi-, |10>->phi+, |11>->psi+.

    Only the |00> and |11> columns are pinned by the preparation target
    (the dephased input has support there); the completion on |01>, |10> is
    a free choice kept Bell-valued for symmetry.
    """
    cols = [
        _BELL_VECTORS[BellKind.PHI_MINUS],
        _BELL_VECTORS[BellKind.PSI_MINUS],
        _BELL_VECTORS[BellKind.PHI_PLUS],
        _BELL_VECTORS[BellKind.PSI_PLUS],
    ]
    return Gate(np.column_stack(cols), "pseudo-EPR")


def message_operator(m: Message) -> Gate:
    """(X^x Z^z on spin I) tensored with the identity on spin S."""
    op = np.linalg.matrix_power(SIGMA_X, m.x) @ np.linalg.matrix_power(SIGMA_Z, m.z)
    return Gate(np.kron(op, SIGMA_I), f"U_x{m.x}z{m.z}")


def superdense_run(thermal: ThermalParams, m: Message) -> SuperdenseResult:
    """Run the full encode/decode circuit on a thermal input.

    The EPR gate turns the diagonal thermal state into a Bell-diagonal rho1
    with Bell weights (pI*pS, pI*qS, qI*pS, qI*qS) on (phi+, psi+, phi-, psi-),
    as direct conjugation of diag(pI*pS, pI*qS, qI*pS, qI*qS) shows.  After the
    message operator, decoding with the inverse EPR gate leaves the two
    longitudinal magnetizations carrying the bits:
    <Z_I> = (-1)^z eps_I and <Z_S> = (-1)^x eps_S.
    """
    epr = epr_gate()
    rho1 = epr.apply(thermal_state(thermal))
    encoded = message_operator(m).apply(rho1)
    rho_f = DensityMatrix(
        epr.unitary.conj().T @ encoded.matrix @ epr.unitary
    )
    coords = pauli_coords(rho_f.matrix)
    mz_i, mz_s = (float(coords[TWO_SPIN_LABELS.index(lab)]) for lab in ("ZI", "IZ"))
    return SuperdenseResult(rho1=rho1, rho_f=rho_f, mz_i=mz_i, mz_s=mz_s)


def grape_unitary() -> Gate:
    """A unitary taking |00> to sqrt(0.6)|00> + sqrt(0.4)|11>.

    Stands in for the shaped pulse that implements this map in the lab; any
    unitary with the right first column works, so a plain rotation in the
    {|00>, |11>} plane is used.
    """
    c, s = np.sqrt(0.6), np.sqrt(0.4)
    u = np.eye(4, dtype=complex)
    u[0, 0] = c
    u[3, 0] = s
    u[0, 3] = -s
    u[3, 3] = c
    return Gate(u, "GRAPE")


def gradient_dephase(rho: DensityMatrix) -> DensityMatrix:
    """Idealized crusher gradient: drop every computational-basis coherence."""
    return DensityMatrix(np.diag(np.diag(rho.matrix)))


def grape_target_pipeline() -> DensityMatrix:
    """Prepare the Bell-diagonal state with correlations (-0.2, 1.0, 0.2).

    |00> -> grape_unitary -> gradient dephasing (leaving diag(0.6, 0, 0, 0.4))
    -> pseudo-EPR, which mixes 0.6 phi- with 0.4 psi+.
    """
    zero = np.zeros((4, 4), dtype=complex)
    zero[0, 0] = 1.0
    pumped = grape_unitary().apply(DensityMatrix(zero))
    return pseudo_epr().apply(gradient_dephase(pumped))
