"""Simulated spectrometer observables: preparatory pulses, doublet line
intensities, correlation extraction, linear tomography, and seeded noise.

The observable model keeps only what the correlation readout consumes: the
two integrated line intensities per nucleus.  Intensities are normalized so
a fully polarized spin read with its standard pulse gives unit total signal,
and each nucleus carries a fixed receiver phase standing in for the perfect
per-spectrum phase adjustment done against the equilibrium reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import Gate
from .errors import DomainError, bounded_int
from .qmat import PSD_TOL, SIGMA_I, SIGMA_X, SIGMA_Y, TOL_EQ, TWO_SPIN_LABELS, DensityMatrix
from .qmat import _eigh, _keep_coords, _trusted_state, _two_spin_state, from_pauli_coords
from .states import _expectation_coords
from .witness import CorrelationPair

# Pauli coordinates each nucleus's lines are read from: <X>, <Y> of the
# observed spin, then the same with the partner spin's Z attached
_LINE_COORDS = {
    nucleus: np.array([TWO_SPIN_LABELS.index(lab) for lab in labels])
    for nucleus, labels in (("I", ("XI", "YI", "XZ", "YZ")), ("S", ("IX", "IY", "ZX", "ZY")))
}

# Receiver phase per nucleus.  With the pulse convention below, the raw
# nucleus-I response to the (y, pi/2, S) reading pulse comes out sign-flipped
# relative to the target <XX>; a perfectly phased receiver absorbs that sign.
# The calibration that produces these values is exercised in the test suite.
_RECEIVER_PHASE = {"I": -1.0, "S": 1.0}


@dataclass(frozen=True)
class PulseSpec:
    """A hard pulse: rotation axis, angle, and the spins it hits."""

    axis: str
    angle: float
    targets: tuple[str, ...]

    def __post_init__(self):
        if self.axis not in ("x", "y"):
            raise DomainError(f"axis must be 'x' or 'y', got {self.axis!r}")
        if not 0.0 < self.angle < 2.0 * np.pi:
            raise DomainError(f"angle {self.angle} outside (0, 2*pi)")
        targets = tuple(self.targets)
        if not targets or any(s not in ("I", "S") for s in targets):
            raise DomainError(f"targets must be a nonempty subset of I, S, got {targets}")
        object.__setattr__(self, "targets", targets)


@dataclass(frozen=True)
class SpectrumPair:
    """The two lines of one nucleus's doublet, as complex intensities."""

    nucleus: str
    line_low: complex
    line_high: complex

    def __post_init__(self):
        if self.nucleus not in ("I", "S"):
            raise DomainError(f"nucleus must be 'I' or 'S', got {self.nucleus!r}")
        for name, v in (("line_low", self.line_low), ("line_high", self.line_high)):
            if not abs(v) <= 1.0 + PSD_TOL:  # NaN fails this test too
                raise DomainError(f"{name} magnitude {abs(v)} is not within the unit reference")

    def difference(self) -> complex:
        return self.line_low - self.line_high


@lru_cache(maxsize=64)
def prep_pulse_unitary(p: PulseSpec) -> Gate:
    """exp(-i * angle/2 * sigma_axis) on each target spin, identity elsewhere.

    PulseSpec is frozen and Gate immutable, so a pulse is built once and shared.
    """
    sigma = SIGMA_X if p.axis == "x" else SIGMA_Y
    rot = np.cos(p.angle / 2) * SIGMA_I - 1j * np.sin(p.angle / 2) * sigma
    u_i = rot if "I" in p.targets else SIGMA_I
    u_s = rot if "S" in p.targets else SIGMA_I
    label = f"({p.axis},{p.angle:.4g})_{''.join(p.targets)}"
    return Gate(np.kron(u_i, u_s), label)


def simulate_lines(rho: DensityMatrix, nucleus: str, prep: PulseSpec | None) -> SpectrumPair:
    """Line intensities of one nucleus after an optional preparatory pulse.

    The pulsed state is probed with the lowering operator X - iY alone (a)
    and with the partner spin's Z attached (b), read off its Pauli
    coordinates; inverting the 2x2 Hadamard transform that relates these
    to the doublet gives line_low = (a + b)/2 and line_high = (a - b)/2.
    """
    if nucleus not in _LINE_COORDS:
        raise DomainError(f"nucleus must be 'I' or 'S', got {nucleus!r}")
    _two_spin_state(rho, "simulate_lines")
    rho_p = prep_pulse_unitary(prep).apply(rho) if prep is not None else rho
    x, y, xz, yz = rho_p._coords[_LINE_COORDS[nucleus]].tolist()
    phase = _RECEIVER_PHASE[nucleus]
    a, b = phase * complex(x, -y), phase * complex(xz, -yz)
    return SpectrumPair(nucleus=nucleus, line_low=(a + b) / 2, line_high=(a - b) / 2)


READOUT_PULSE = PulseSpec(axis="y", angle=np.pi / 2, targets=("S",))
_YY_PULSE = PulseSpec(axis="x", angle=np.pi / 2, targets=("S",))


def _clamp(v: float) -> float:
    """v clamped to the correlation range [-1, 1], as np.clip does (NaN stays NaN)."""
    return float(min(max(v, -1.0), 1.0))


def read_correlations(spec_i: SpectrumPair, spec_s: SpectrumPair) -> CorrelationPair:
    """Extract (<XX>, <ZZ>) from the two spectra.

    Assumes both spectra were generated with the (y, pi/2, S) reading pulse:
    <XX> then sits in the real part of the nucleus-I line difference and
    <ZZ> in the real part of the nucleus-S one.
    """
    if spec_i.nucleus != "I" or spec_s.nucleus != "S":
        raise DomainError("pass the nucleus-I spectrum first and nucleus-S second")
    return CorrelationPair(w1=_clamp(spec_i.difference().real), w2=_clamp(spec_s.difference().real))


def measure_yy(rho: DensityMatrix) -> float:
    """<YY> via the spectra pathway with an (x, pi/2) pulse on spin S.

    Under that pulse the YY correlation lands in the dispersive (imaginary)
    quadrature of the nucleus-I line difference.
    """
    lines = simulate_lines(rho, "I", _YY_PULSE)
    return _clamp(lines.difference().imag)


@dataclass(frozen=True)
class TomographyResult:
    """Reconstructed state plus the Frobenius distance moved by the PSD projection."""

    state: DensityMatrix
    projection_distance: float


def _simplex_projection(vals: np.ndarray) -> np.ndarray:
    """The nearest probability vector to ascending ``vals``: max(vals - theta, 0), summing to 1.

    theta comes from one pass over the descending values and their running
    sums (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)): it is
    (sum of the r largest - 1) / r for the largest r whose r-th largest
    value still exceeds it.
    """
    desc = vals[::-1]
    theta = (np.cumsum(desc) - 1.0) / np.arange(1, desc.size + 1)
    r = np.flatnonzero(desc > theta)[-1]  # r = 0 always qualifies: desc[0] > desc[0] - 1
    return np.maximum(vals - theta[r], 0.0)


def pauli_tomography(expectations) -> TomographyResult:
    """Linear inversion of 15 Pauli expectations, projected back to a state.

    Noisy data can produce negative eigenvalues.  Then the result is the
    nearest state to the raw inversion in the Frobenius norm: its
    eigenvectors, with the eigenvalues projected onto the probability
    simplex (``_simplex_projection``), and the projection distance is the
    distance to it (zero when the raw inversion was already physical).  A
    raw inversion that needs no projection keeps the coordinates (1, e) it
    was made from.  Either way the state is Hermitian with unit trace by
    construction and its spectrum has just been checked or projected, so
    it is made with ``qmat._trusted_state``.
    """
    x = _expectation_coords(expectations)
    # a state's own Pauli vector can spill past +-1 by rounding
    if not np.all(np.abs(x) <= 1.0 + TOL_EQ):
        raise DomainError("expectations must lie in [-1, 1]")
    raw = from_pauli_coords(x) / 4.0
    vals, vecs = _eigh(raw)
    if vals[0] >= -PSD_TOL:
        return TomographyResult(state=_keep_coords(_trusted_state(raw), x), projection_distance=0.0)
    projected = (vecs * _simplex_projection(vals)) @ vecs.conj().T
    distance = float(np.linalg.norm(projected - raw))
    return TomographyResult(state=_trusted_state(projected), projection_distance=distance)


def add_noise(value: float, sigma: float, seed: int) -> float:
    """Add seeded Gaussian noise and clamp to the correlation range [-1, 1]."""
    if not -np.inf < value < np.inf:
        raise DomainError(f"value must be finite, got {value}")
    if not 0.0 <= sigma < np.inf:
        raise DomainError(f"sigma must be finite and nonnegative, got {sigma}")
    # the stream of np.random.default_rng(seed), without its argument dispatch
    rng = np.random.Generator(np.random.PCG64(bounded_int(seed, "seed", 0)))
    return _clamp(value + rng.normal(0.0, sigma))

