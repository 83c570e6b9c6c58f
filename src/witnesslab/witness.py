"""Entanglement witnesses: the magnetization-product functional F and the
diagonal-Pauli witness family, plus the Bell-diagonal detection-region
classifier."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import TOL
from .errors import DomainError
from .qmat import DensityMatrix, HermitianOp, pauli_coords
from .states import _BD_COORDS, BELL_CORRELATIONS, BellKind, _bd_operator, _bell_spectrum
from .states import _in_octahedron, _is_physical

# largest detection_region_grid resolution: 101^3 is about a million points
_MAX_RESOLUTION = 101


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


def _correlations(rho: DensityMatrix) -> tuple[float, float, float]:
    """(<XX>, <YY>, <ZZ>) of a two-spin state, read off its Pauli coordinates."""
    if rho.dim != 4:
        raise DomainError("correlations need a two-spin state")
    return tuple(pauli_coords(rho.matrix)[_BD_COORDS[1:]].tolist())


def f_witness_state(rho: DensityMatrix) -> float:
    """Evaluate F on a state via its XX and ZZ correlations."""
    w1, _, w2 = _correlations(rho)
    # clip rounding spill so the CorrelationPair range check stays meaningful
    return f_witness(CorrelationPair(np.clip(w1, -1, 1), np.clip(w2, -1, 1)))


def witness_matrix(w: PauliWitness) -> HermitianOp:
    """Assemble the 4x4 operator from the four coefficients."""
    return HermitianOp(_bd_operator(*w.as_tuple()))


def witness_is_valid(w: PauliWitness) -> bool:
    """True iff the witness is PSD after partial transpose and bounded by 1."""
    # both are diagonal in the Bell basis; transposing spin I flips the YY term
    pt_min = _bell_spectrum(w.c_i, w.c_x, -w.c_y, w.c_z).min()
    w_max = _bell_spectrum(w.c_i, w.c_x, w.c_y, w.c_z).max()
    return bool(pt_min >= -TOL.psd_tol and w_max <= 1.0 + TOL.psd_tol)


def eval_witness(w: PauliWitness, rho: DensityMatrix) -> float:
    """Tr(W rho) = c_i + c_x<XX> + c_y<YY> + c_z<ZZ>.

    A negative value certifies entanglement provided the witness is valid.
    """
    return w.value(*_correlations(rho))


def bell_witness(kind: BellKind) -> PauliWitness:
    """The optimal diagonal-Pauli witness 1 - 2|psi><psi| for the given Bell state."""
    return PauliWitness(0.5, *(-0.5 * s for s in BELL_CORRELATIONS[kind]))


def f_detects_bd(params) -> bool:
    """Whether F goes negative on the Bell-diagonal state with these correlations.

    F sees only c1 (via <XX>) and c3 (via <ZZ>), so detection means
    (1 + |c1|)(1 + |c3|) > 2, strictly.
    """
    return _f_detects(params.c1, params.c3)


def _f_detects(c1: float, c3: float) -> bool:
    return (1.0 + abs(c1)) * (1.0 + abs(c3)) > 2.0


_BD_CLASSES = np.array(list(BDClass), dtype=object)


def _classify(c1, c2, c3) -> np.ndarray:
    """BDClass of each triple, elementwise: physicality, then separability, then F."""
    k = np.where(_in_octahedron(c1, c2, c3), 1, np.where(_f_detects(c1, c3), 2, 3))
    return _BD_CLASSES[np.where(_is_physical(c1, c2, c3), k, 0)]


def classify_bd(c) -> BDClass:
    """Classify an arbitrary real triple as a point of the Bell-diagonal family.

    Unphysical triples are allowed in and labelled rather than rejected.  The
    octahedron boundary counts as separable (the separable set is closed).
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (3,) or not np.isfinite(c).all():
        raise DomainError(f"classify_bd needs three finite numbers, got {c}")
    return _classify(*c)


def detection_region_grid(resolution: int):
    """Classify a uniform resolution^3 grid over [-1, 1]^3.

    Points are emitted in row-major order (c1 slowest, c3 fastest), so the
    output is deterministic however callers choose to parallelize rendering.
    """
    if not 2 <= resolution <= _MAX_RESOLUTION:
        raise DomainError(f"resolution must be between 2 and {_MAX_RESOLUTION}")
    axis = np.linspace(-1.0, 1.0, resolution)
    classes = _classify(*np.meshgrid(axis, axis, axis, indexing="ij", sparse=True))
    # the points share the axis' float objects instead of holding three new ones each
    return list(zip(itertools.product(axis.tolist(), repeat=3), classes.ravel().tolist()))
