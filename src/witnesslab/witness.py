"""Entanglement witnesses: the magnetization-product functional F and the
diagonal-Pauli witness family, plus the Bell-diagonal detection-region
classifier."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import TOL
from .errors import DomainError
from .qmat import (
    TWO_SPIN_PAULIS,
    DensityMatrix,
    HermitianOp,
    _expectation_raw,
    _pt_arr,
)
from .states import _BD_COORDS, BellKind, _bd_operator, _bd_weights, _in_octahedron

_XX, _YY, _ZZ = TWO_SPIN_PAULIS[_BD_COORDS[1:]]


@dataclass(frozen=True)
class PauliWitness:
    """Coefficients of W = c_i*1 + c_x*XX + c_y*YY + c_z*ZZ."""

    c_i: float
    c_x: float
    c_y: float
    c_z: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.c_i, self.c_x, self.c_y, self.c_z)

    def value(self, xx: float, yy: float, zz: float) -> float:
        """c_i + c_x*xx + c_y*yy + c_z*zz for the correlations <XX>, <YY>, <ZZ>."""
        return self.c_i + self.c_x * xx + self.c_y * yy + self.c_z * zz


@dataclass(frozen=True)
class CorrelationPair:
    """The two correlations F consumes: w1 = <XX>, w2 = <ZZ>."""

    w1: float
    w2: float

    def __post_init__(self):
        for name, v in (("w1", self.w1), ("w2", self.w2)):
            if not -1.0 <= v <= 1.0:
                raise DomainError(f"correlation {name} = {v} outside [-1, 1]")


class BDClass(Enum):
    UNPHYSICAL = "unphysical"
    SEPARABLE = "separable"
    ENTANGLED_DETECTED_BY_F = "entangled-detected-by-f"
    ENTANGLED_UNDETECTED_BY_F = "entangled-undetected-by-f"


def f_witness(corr: CorrelationPair) -> float:
    """F = 1/2 - (1/4)(1 + |w1|)(1 + |w2|); negative F certifies entanglement."""
    return 0.5 - 0.25 * (1.0 + abs(corr.w1)) * (1.0 + abs(corr.w2))


def f_witness_state(rho: DensityMatrix) -> float:
    """Evaluate F on a state via its XX and ZZ correlations."""
    w1 = _expectation_raw(rho.matrix, _XX)
    w2 = _expectation_raw(rho.matrix, _ZZ)
    # clip rounding spill so the CorrelationPair range check stays meaningful
    return f_witness(CorrelationPair(np.clip(w1, -1, 1), np.clip(w2, -1, 1)))


def witness_matrix(w: PauliWitness) -> HermitianOp:
    """Assemble the 4x4 operator from the four coefficients."""
    return HermitianOp(_bd_operator(*w.as_tuple()))


def witness_is_valid(w: PauliWitness) -> bool:
    """True iff the witness is PSD after partial transpose and bounded by 1."""
    mat = witness_matrix(w).matrix
    pt_min = float(np.linalg.eigvalsh(_pt_arr(mat, "I"))[0])
    w_max = float(np.linalg.eigvalsh(mat)[-1])
    return pt_min >= -TOL.psd_tol and w_max <= 1.0 + TOL.psd_tol


def eval_witness(w: PauliWitness, rho: DensityMatrix) -> float:
    """Tr(W rho) = c_i + c_x<XX> + c_y<YY> + c_z<ZZ>.

    A negative value certifies entanglement provided the witness is valid.
    """
    return w.value(
        _expectation_raw(rho.matrix, _XX),
        _expectation_raw(rho.matrix, _YY),
        _expectation_raw(rho.matrix, _ZZ),
    )


# Optimal diagonal-Pauli witness for each Bell state: eigenvalue -1 on the
# target, +1 on the other three.  optim.optimal_witness recovers these rows
# from first principles; this table is the closed form.
_BELL_WITNESS_ROWS = {
    BellKind.PHI_PLUS: (0.5, -0.5, 0.5, -0.5),
    BellKind.PSI_PLUS: (0.5, -0.5, -0.5, 0.5),
    BellKind.PHI_MINUS: (0.5, 0.5, -0.5, -0.5),
    BellKind.PSI_MINUS: (0.5, 0.5, 0.5, 0.5),
}


def bell_witness(kind: BellKind) -> PauliWitness:
    """The optimal diagonal-Pauli witness targeting the given Bell state."""
    return PauliWitness(*_BELL_WITNESS_ROWS[kind])


def f_detects_bd(params) -> bool:
    """Whether F goes negative on the Bell-diagonal state with these correlations.

    F sees only c1 (via <XX>) and c3 (via <ZZ>), so detection means
    (1 + |c1|)(1 + |c3|) > 2, strictly.
    """
    return _f_detects(params.c1, params.c3)


def _f_detects(c1: float, c3: float) -> bool:
    return (1.0 + abs(c1)) * (1.0 + abs(c3)) > 2.0


def classify_bd(c) -> BDClass:
    """Classify an arbitrary real triple as a point of the Bell-diagonal family.

    Unphysical triples are allowed in and labelled rather than rejected.  The
    octahedron boundary counts as separable (the separable set is closed).
    """
    c1, c2, c3 = (float(v) for v in c)
    if min(_bd_weights(c1, c2, c3)) < -1e-9:
        return BDClass.UNPHYSICAL
    if _in_octahedron(c1, c2, c3):
        return BDClass.SEPARABLE
    if _f_detects(c1, c3):
        return BDClass.ENTANGLED_DETECTED_BY_F
    return BDClass.ENTANGLED_UNDETECTED_BY_F


def detection_region_grid(resolution: int):
    """Classify a uniform resolution^3 grid over [-1, 1]^3.

    Points are emitted in row-major order (c1 slowest, c3 fastest), so the
    output is deterministic however callers choose to parallelize rendering.
    """
    if resolution < 2:
        raise DomainError("resolution must be at least 2")
    axis = np.linspace(-1.0, 1.0, resolution)
    return [
        ((float(c1), float(c2), float(c3)), classify_bd((c1, c2, c3)))
        for c1 in axis
        for c2 in axis
        for c3 in axis
    ]
