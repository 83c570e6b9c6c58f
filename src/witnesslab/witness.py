"""Entanglement witnesses: the magnetization-product functional F and the
diagonal-Pauli witness family, plus the Bell-diagonal detection-region
classifier."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import _MAX_RESOLUTION, DomainError, bounded_int
from .qmat import PSD_TOL, PT_SIGN, DensityMatrix, HermitianOp, _two_spin_state
from .states import _BD_COORDS, BELL_CORRELATIONS, BellKind, _bd_operator, _bell_spectrum
from .states import _in_octahedron, _is_physical

# the Pauli coordinates of <XX>, <YY>, <ZZ>
_CORRELATION_COORDS = np.array(_BD_COORDS[1:])


@dataclass(frozen=True)
class PauliWitness:
    """Coefficients of W = c_i*1 + c_x*XX + c_y*YY + c_z*ZZ."""

    c_i: float
    c_x: float
    c_y: float
    c_z: float

    def __post_init__(self):
        for name, v in zip(("c_i", "c_x", "c_y", "c_z"), self.as_tuple()):
            if not -np.inf < v < np.inf:
                raise DomainError(f"witness coefficient {name} = {v} is not finite")

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
    return float(_f_values(corr.w1, corr.w2))


def _correlations(rho: DensityMatrix) -> tuple[float, float, float]:
    """(<XX>, <YY>, <ZZ>) of a two-spin state, read off its Pauli coordinates."""
    _two_spin_state(rho, "f_witness_state or eval_witness")
    return tuple(rho._coords[_CORRELATION_COORDS].tolist())


def _f_values(xx, zz):
    """f_witness of <XX> and <ZZ>, elementwise, with rounding spill past +-1 clipped first."""
    return 0.5 - 0.25 * (1.0 + np.minimum(np.abs(xx), 1.0)) * (1.0 + np.minimum(np.abs(zz), 1.0))


def f_witness_state(rho: DensityMatrix) -> float:
    """Evaluate F on a state via its XX and ZZ correlations."""
    w1, _, w2 = _correlations(rho)
    return float(_f_values(w1, w2))


def witness_matrix(w: PauliWitness) -> HermitianOp:
    """Assemble the 4x4 operator from the four coefficients."""
    return HermitianOp(_bd_operator(*w.as_tuple()))


def witness_is_valid(w: PauliWitness) -> bool:
    """True iff the witness is PSD after partial transpose and bounded by 1."""
    # both are diagonal in the Bell basis; transposing spin I flips the YY term
    coeffs = np.array(w.as_tuple())
    pt_min = _bell_spectrum(*(PT_SIGN[_BD_COORDS] * coeffs)).min()
    w_max = _bell_spectrum(*coeffs).max()
    return bool(pt_min >= -PSD_TOL and w_max <= 1.0 + PSD_TOL)


def eval_witness(w: PauliWitness, rho: DensityMatrix) -> float:
    """Tr(W rho) = c_i + c_x<XX> + c_y<YY> + c_z<ZZ>.

    A negative value certifies entanglement provided the witness is valid.
    """
    return w.value(*_correlations(rho))


def bell_witness(kind: BellKind) -> PauliWitness:
    """The optimal diagonal-Pauli witness 1 - 2|psi><psi| for the given Bell state.

    The witness program minimizes Tr(W |psi><psi|) subject to W <= 1 and
    W^PT >= 0.  For this coefficient family W and W^PT are both diagonal in
    the Bell basis (transposing spin I flips the YY term), so the two
    semidefinite constraints are eight linear inequalities in
    (c_i, c_x, c_y, c_z).  The objective, W's eigenvalue on |psi>, reaches
    -1 at a unique vertex of them: 1 - 2|psi><psi|.
    """
    return PauliWitness(0.5, *(-0.5 * s for s in BELL_CORRELATIONS[kind]))


optimal_witness = bell_witness


def f_detects_bd(params) -> bool:
    """Whether F goes negative on the Bell-diagonal state with these correlations.

    F sees only c1 (via <XX>) and c3 (via <ZZ>), and detection means F < 0, strictly.
    """
    return bool(_f_values(params.c1, params.c3) < 0)


_BD_CLASSES = np.array(list(BDClass), dtype=object)


def _classify(c1, c2, c3) -> np.ndarray:
    """BDClass of each triple, elementwise: physicality, then separability, then F."""
    k = np.where(_in_octahedron(c1, c2, c3), 1, np.where(_f_values(c1, c3) < 0, 2, 3))
    return _BD_CLASSES[np.where(_is_physical(c1, c2, c3), k, 0)]


def classify_bd(c) -> BDClass:
    """Classify an arbitrary real triple as a point of the Bell-diagonal family.

    Unphysical triples are allowed in and labelled rather than rejected.  The
    octahedron boundary counts as separable (the separable set is closed).
    """
    try:
        c = np.asarray(c, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"classify_bd needs three finite numbers, got {c!r}") from None
    if c.shape != (3,) or not np.isfinite(c).all():
        raise DomainError(f"classify_bd needs three finite numbers, got {c}")
    return _classify(*c)


def _region_planes(resolution: int):
    """The grid axis as floats, and an iterator over the classes of each c1 plane.

    resolution is checked here, before any plane is classified.  Plane k is
    the (c2, c3) array of BDClass at c1 = axis[k], indexed [j2, j3], so the
    planes raveled in turn are the grid in row-major order.
    """
    resolution = bounded_int(resolution, "resolution", 2, _MAX_RESOLUTION)
    axis = np.linspace(-1.0, 1.0, resolution)
    c2, c3 = np.meshgrid(axis, axis, indexing="ij", sparse=True)
    return axis.tolist(), (_classify(c1, c2, c3) for c1 in axis)


def detection_region_grid(resolution: int):
    """Classify a uniform resolution^3 grid over [-1, 1]^3.

    Returns ((c1, c2, c3), BDClass) pairs in row-major order (c1 slowest, c3
    fastest), built from the same c1 planes that ``witnesslab detect-region``
    streams.
    """
    axis, planes = _region_planes(resolution)
    classes = itertools.chain.from_iterable(plane.ravel().tolist() for plane in planes)
    # the points share the axis' float objects instead of holding three new ones each
    return list(zip(itertools.product(axis, repeat=3), classes))
