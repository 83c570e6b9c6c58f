"""Phenomenological T1/T2 relaxation channel and the time-sweep engine that
tracks how F, the Pauli witness, and generalized robustness decay.

Each spin relaxes through a Pauli channel, I -> I, X -> exp(-t/T2) X,
Y -> exp(-t/T2) Y, Z -> exp(-t/T1) Z: generalized amplitude damping at
p = 1/2, which is unital, followed by phase damping (Nielsen & Chuang,
section 8.3).  On the 16 Pauli coordinates of a two-spin state the channel
is therefore a diagonal Pauli-transfer map.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DomainError
from .qmat import DensityMatrix, from_pauli_coords, pauli_coords
from .optim import generalized_robustness
from .witness import PauliWitness, eval_witness, f_witness_state


@dataclass(frozen=True)
class RelaxationParams:
    """Per-spin longitudinal (T1) and transverse (T2) time constants, seconds."""

    t1_i: float = 10.0
    t2_i: float = 0.31
    t1_s: float = 10.0
    t2_s: float = 0.11

    def __post_init__(self):
        for name in ("t1_i", "t2_i", "t1_s", "t2_s"):
            v = getattr(self, name)
            if not 0.0 < v < np.inf:
                raise DomainError(f"{name} = {v} must be positive and finite")
        # complete positivity of the per-spin channel requires T2 <= 2*T1
        if self.t2_i > 2 * self.t1_i + 1e-15:
            raise DomainError(f"t2_i = {self.t2_i} exceeds 2*t1_i = {2 * self.t1_i}")
        if self.t2_s > 2 * self.t1_s + 1e-15:
            raise DomainError(f"t2_s = {self.t2_s} exceeds 2*t1_s = {2 * self.t1_s}")


@dataclass(frozen=True)
class SweepSeries:
    """Sampled decay curves plus the extracted characteristic times.

    ``tau_c`` is the first zero crossing of the F curve (detection cutoff);
    ``tau_w`` and ``tau_r`` are 1/e times of log-linear exponential fits to
    the witness curve's distance from its equilibrium value and to the
    robustness curve.  Any of them is None when the corresponding feature
    does not exist in the sweep.
    """

    times: np.ndarray
    f_values: np.ndarray
    w_values: np.ndarray
    gr_values: np.ndarray
    tau_c: float | None
    tau_r: float | None
    tau_w: float | None

    def __post_init__(self):
        n = self.times.size
        if not (self.f_values.size == self.w_values.size == self.gr_values.size == n):
            raise DomainError("sweep arrays must share one length")
        if n >= 2 and not np.all(np.diff(self.times) > 0):
            raise DomainError("times must be strictly increasing")


def _decay_factors(t: float, t1: float, t2: float) -> np.ndarray:
    """Factors by which one spin's I, X, Y and Z components shrink in t seconds."""
    d2 = np.exp(-t / t2)
    return np.array([1.0, d2, d2, np.exp(-t / t1)])


def relax_channel(rho: DensityMatrix, t: float, p: RelaxationParams) -> DensityMatrix:
    """Apply t seconds of independent per-spin relaxation.

    The Pauli coordinate of P_I x P_S is scaled by f_I(P_I) * f_S(P_S).  The
    map is completely positive and trace preserving for all t >= 0 because
    T2 <= 2*T1 on each spin; t = 0 is the identity and t -> infinity sends
    everything to the maximally mixed state.
    """
    if rho.dim != 4:
        raise DomainError("relax_channel needs a two-spin state")
    if not 0.0 <= t < np.inf:
        raise DomainError(f"time must be finite and nonnegative, got {t}")
    scale = np.outer(_decay_factors(t, p.t1_i, p.t2_i), _decay_factors(t, p.t1_s, p.t2_s))
    return DensityMatrix(from_pauli_coords(scale.ravel() * pauli_coords(rho.matrix)) / 4.0)


def _fit_decay_time(times: np.ndarray, values: np.ndarray) -> float | None:
    """1/e time of A*exp(-t/tau) fitted by least squares on log(values).

    Only points above 1e-3 of the initial magnitude enter the fit; returns
    None when the curve never decays or has too few usable points.
    """
    v0 = abs(values[0])
    if v0 <= 0:
        return None
    mask = values > 1e-3 * v0
    if mask.sum() < 2:
        return None
    slope = np.polyfit(times[mask], np.log(values[mask]), 1)[0]
    if slope >= 0:
        return None
    return float(-1.0 / slope)


def sweep(
    rho0: DensityMatrix,
    p: RelaxationParams,
    w: PauliWitness,
    t_max: float,
    steps: int,
) -> SweepSeries:
    """Evaluate F, the witness, and robustness on a uniform time grid.

    Each grid point relaxes the initial state directly (the channel forms a
    semigroup, so chaining would give the same result but impose an order).
    """
    if steps < 2:
        raise DomainError("steps must be at least 2")
    if not 0.0 < t_max < np.inf:
        raise DomainError(f"t_max = {t_max} must be positive and finite")
    times = np.linspace(0.0, t_max, steps)
    f_vals = np.empty(steps)
    w_vals = np.empty(steps)
    gr_vals = np.empty(steps)
    for k, t in enumerate(times):
        rho_t = relax_channel(rho0, float(t), p)
        f_vals[k] = f_witness_state(rho_t)
        w_vals[k] = eval_witness(w, rho_t)
        try:
            gr_vals[k] = generalized_robustness(rho_t).value
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"robustness solver failed at sweep time t = {t:.6g} s: {exc}",
                lower=exc.lower,
                upper=exc.upper,
            ) from exc

    series = SweepSeries(
        times=times,
        f_values=f_vals,
        w_values=w_vals,
        gr_values=gr_vals,
        tau_c=None,
        tau_r=None,
        tau_w=None,
    )
    # the witness curve decays toward its maximally mixed value c_i, not zero
    return replace(
        series,
        tau_c=crossing_time(series, "F"),
        tau_r=_fit_decay_time(times, gr_vals),
        tau_w=_fit_decay_time(times, np.abs(w_vals - w.c_i)),
    )


def crossing_time(series: SweepSeries, quantity: str) -> float | None:
    """Linearly interpolated end-of-detection time of one curve.

    For F and W this is the first sign change; for GR the first descent below
    1e-6.  None when the curve never crosses.
    """
    times = series.times
    if quantity in ("F", "W"):
        vals = series.f_values if quantity == "F" else series.w_values
        for k in range(vals.size - 1):
            if vals[k] * vals[k + 1] < 0:
                frac = vals[k] / (vals[k] - vals[k + 1])
                return float(times[k] + frac * (times[k + 1] - times[k]))
            if vals[k] == 0.0 and vals[k + 1] != 0.0:
                return float(times[k])
        return None
    if quantity == "GR":
        level = 1e-6
        vals = series.gr_values
        for k in range(vals.size - 1):
            if vals[k] > level >= vals[k + 1]:
                frac = (vals[k] - level) / (vals[k] - vals[k + 1])
                return float(times[k] + frac * (times[k + 1] - times[k]))
        return None
    raise DomainError(f"quantity must be 'F', 'W' or 'GR', got {quantity!r}")
