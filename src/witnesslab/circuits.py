"""Gate-level simulation of the superdense-coding circuit and the
pseudo-EPR preparation pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import StructuralError, bounded_int
from .qmat import SIGMA_I, SIGMA_X, SIGMA_Z, TWO_SPIN_LABELS, DensityMatrix, _as_operator_array
from .qmat import _trusted_state, _two_spin_state
from .states import BellKind, ThermalParams, _BELL_VECTORS, thermal_state

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
# the Pauli coordinates of <Z_I>, <Z_S>
_MAGNETIZATION_COORDS = np.array([TWO_SPIN_LABELS.index(lab) for lab in ("ZI", "IZ")])


@dataclass(frozen=True)
class Gate:
    """A two-spin (4x4) unitary with a human-readable label."""

    unitary: np.ndarray
    label: str

    def __post_init__(self):
        u = _as_operator_array(self.unitary)
        if np.max(np.abs(u.conj().T @ u - np.eye(4))) > 1e-10:
            raise StructuralError(f"gate {self.label!r} is not unitary")
        object.__setattr__(self, "unitary", u)

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        """U rho U^H.  A unitary maps a state to a state, so the result is made
        with ``qmat._trusted_state`` and not checked again."""
        _two_spin_state(rho, "Gate.apply")
        return _trusted_state(self.unitary @ rho.matrix @ self.unitary.conj().T)


@dataclass(frozen=True)
class Message:
    """The two classical bits (x, z) to be transmitted."""

    x: int
    z: int

    def __post_init__(self):
        for name in ("x", "z"):
            object.__setattr__(self, name, bounded_int(getattr(self, name), name, 0, 1))


@dataclass(frozen=True)
class SuperdenseResult:
    rho1: DensityMatrix
    rho_f: DensityMatrix
    mz_i: float
    mz_s: float


@lru_cache(maxsize=None)
def epr_gate() -> Gate:
    """CNOT . (H x 1) with control on spin I; maps |00> to (|00>+|11>)/sqrt2.

    Gate is immutable, so the gate is built once and shared.
    """
    return Gate(_CNOT @ np.kron(_H, SIGMA_I), "EPR")


@lru_cache(maxsize=None)
def _epr_inverse() -> Gate:
    """The decoding gate, the adjoint of ``epr_gate``."""
    return Gate(epr_gate().unitary.conj().T, "EPR^-1")


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


@lru_cache(maxsize=4)
def message_operator(m: Message) -> Gate:
    """(X^x Z^z on spin I) tensored with the identity on spin S, built once per message."""
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
    rho1 = epr_gate().apply(thermal_state(thermal))
    encoded = message_operator(m).apply(rho1)
    rho_f = _epr_inverse().apply(encoded)
    mz_i, mz_s = rho_f._coords[_MAGNETIZATION_COORDS].tolist()
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
    _two_spin_state(rho, "gradient_dephase")
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
