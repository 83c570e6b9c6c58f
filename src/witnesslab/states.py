"""State families: Bell basis, Bell-diagonal geometry, thermal and pseudo-pure states."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, StructuralError
from .qmat import TWO_SPIN_LABELS, DensityMatrix, _keep_coords, _two_spin_state, from_pauli_coords

# non-identity Pauli strings, the order used by pauli_vector and tomography
PAULI_LABELS = TWO_SPIN_LABELS[1:]
# Pauli coordinates spanned by the Bell-diagonal family: II, XX, YY, ZZ
_BD_COORDS = [TWO_SPIN_LABELS.index(lab) for lab in ("II", "XX", "YY", "ZZ")]


class BellKind(Enum):
    PHI_PLUS = "phi+"
    PSI_PLUS = "psi+"
    PHI_MINUS = "phi-"
    PSI_MINUS = "psi-"


# state vectors in the |00>,|01>,|10>,|11> basis
_BELL_VECTORS = {
    BellKind.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    BellKind.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    BellKind.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    BellKind.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}

# (<XX>, <YY>, <ZZ>) of each Bell state; each triple has product -1
BELL_CORRELATIONS = {
    BellKind.PHI_PLUS: (1.0, -1.0, 1.0),
    BellKind.PSI_PLUS: (1.0, 1.0, -1.0),
    BellKind.PHI_MINUS: (-1.0, 1.0, 1.0),
    BellKind.PSI_MINUS: (-1.0, -1.0, -1.0),
}

# row k: the signs s_k of XX, YY, ZZ on the k-th Bell state in BellKind order
_BELL_SIGNS = np.array([BELL_CORRELATIONS[k] for k in BellKind])


def _bell_spectrum(c_i, c1, c2, c3) -> np.ndarray:
    """Eigenvalues c_i + c.s_k of c_i*1 + c1*XX + c2*YY + c3*ZZ, in BellKind order.

    Elementwise: arguments broadcast and the eigenvalues lie along a new last axis.
    """
    c_i, c1, c2, c3 = (np.asarray(v, dtype=float)[..., None] for v in (c_i, c1, c2, c3))
    s1, s2, s3 = _BELL_SIGNS.T
    return ((c_i + c1 * s1) + c2 * s2) + c3 * s3


def _bd_weights(c1, c2, c3) -> np.ndarray:
    """Bell-basis weights (1 + c.s_k)/4 of the correlation triple(s)."""
    return _bell_spectrum(1.0, c1, c2, c3) / 4.0


def _is_physical(c1, c2, c3):
    """True where every |c_i| <= 1 and no Bell weight is negative beyond rounding, elementwise.

    The weights' 1e-9 slack alone would admit a triple a few 1e-9 past the
    cube, such as (1 + 1e-9, 0, 0), which no Bell-diagonal state has.
    """
    in_cube = (np.abs(c1) <= 1.0) & (np.abs(c2) <= 1.0) & (np.abs(c3) <= 1.0)
    return in_cube & (_bd_weights(c1, c2, c3).min(axis=-1) >= -1e-9)


@dataclass(frozen=True)
class BellDiagonalParams:
    """Correlation triple (c1, c2, c3) of a Bell-diagonal state.

    Physicality requires every Bell-basis weight (1 + c.s)/4 to be
    nonnegative, which confines (c1, c2, c3) to the tetrahedron spanned by
    the four Bell correlation triples.
    """

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        for name in ("c1", "c2", "c3"):
            v = getattr(self, name)
            if not -1.0 <= v <= 1.0:
                raise DomainError(f"{name} = {v} outside [-1, 1]")
        if not _is_physical(self.c1, self.c2, self.c3):
            weights = _bd_weights(self.c1, self.c2, self.c3)
            k = int(np.argmin(weights))
            w = f"weight on {list(BellKind)[k].value} is {weights[k]:.3e}"
            raise DomainError(f"unphysical correlation triple: {w}")


@dataclass(frozen=True)
class ThermalParams:
    """Per-spin polarizations of the thermal two-spin state."""

    eps_i: float
    eps_s: float

    def __post_init__(self):
        for name, v in (("eps_i", self.eps_i), ("eps_s", self.eps_s)):
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"{name} = {v} outside [0, 1]")


def bell_state(kind: BellKind) -> DensityMatrix:
    """Rank-1 projector onto the named Bell state."""
    v = _BELL_VECTORS[kind]
    return DensityMatrix(np.outer(v, v.conj()))


def bell_diagonal(params: BellDiagonalParams) -> DensityMatrix:
    """rho = (1/4)(1 + c1 XX + c2 YY + c3 ZZ), so that <sigma_i sigma_i> = c_i."""
    return DensityMatrix(0.25 * _bd_operator(1.0, params.c1, params.c2, params.c3))


def _bd_operator(c_i: float, c1: float, c2: float, c3: float) -> np.ndarray:
    """c_i*1 + c1*XX + c2*YY + c3*ZZ, an operator diagonal in the Bell basis."""
    x = np.zeros(16)
    x[_BD_COORDS] = (c_i, c1, c2, c3)
    return from_pauli_coords(x)


def bell_probabilities(params: BellDiagonalParams) -> tuple[float, float, float, float]:
    """Bell-basis weights, in BellKind order (phi+, psi+, phi-, psi-), of the Bell-diagonal state."""
    return tuple(_bd_weights(params.c1, params.c2, params.c3).tolist())


def is_separable_bd(params: BellDiagonalParams) -> bool:
    """Octahedron test: a physical Bell-diagonal state is separable iff |c|_1 <= 1."""
    return _in_octahedron(params.c1, params.c2, params.c3)


def _in_octahedron(c1: float, c2: float, c3: float) -> bool:
    """|c|_1 <= 1, boundary included (the separable set is closed)."""
    return abs(c1) + abs(c2) + abs(c3) <= 1.0 + 1e-12


def thermal_state(params: ThermalParams) -> DensityMatrix:
    """Product of single-spin equilibrium states diag((1+eps)/2, (1-eps)/2)."""
    spin_i = np.array([(1 + params.eps_i) / 2, (1 - params.eps_i) / 2])
    spin_s = np.array([(1 + params.eps_s) / 2, (1 - params.eps_s) / 2])
    return DensityMatrix(np.diag(np.outer(spin_i, spin_s).ravel().astype(complex)))


def pseudo_pure(eps: float, rho1: DensityMatrix) -> DensityMatrix:
    """Convex mixture ((1-eps)/4) * identity + eps * rho1."""
    if not 0.0 <= eps <= 1.0:
        raise DomainError(f"eps = {eps} outside [0, 1]")
    _two_spin_state(rho1, "pseudo_pure")
    return DensityMatrix((1.0 - eps) / 4 * np.eye(4) + eps * rho1.matrix)


def pauli_vector(rho: DensityMatrix) -> np.ndarray:
    """Expectations of the 15 non-identity Pauli strings, in PAULI_LABELS order."""
    _two_spin_state(rho, "pauli_vector")
    return rho._coords[1:].copy()  # the caller's own array; the state's coordinates are read-only


def _expectation_coords(expectations) -> np.ndarray:
    """Pauli coordinates (1, e_1, ..., e_15) of a vector of 15 expectations."""
    e = np.asarray(expectations, dtype=float)
    if e.shape != (15,):
        raise DomainError(f"expected 15 expectations, got shape {e.shape}")
    return np.concatenate(([1.0], e))


def from_pauli_vector(expectations) -> DensityMatrix:
    """Exact linear inverse of pauli_vector.

    Raises if the reconstructed matrix is not a valid state; use
    ``readout.pauli_tomography`` for noisy data that may need projection.
    A NaN or infinite expectation raises before the inversion, whose
    zero-sign terms would turn an infinity into an "invalid" warning.  The
    state keeps the coordinates (1, e) it was built from, so its
    ``pauli_vector`` is the input, bit for bit.
    """
    x = _expectation_coords(expectations)
    if not np.isfinite(x).all():
        raise StructuralError("matrix has NaN or infinite entries")
    return _keep_coords(DensityMatrix(from_pauli_coords(x) / 4.0), x)
