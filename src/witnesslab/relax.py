"""Phenomenological T1/T2 relaxation channel and the time-sweep engine that
tracks how F, the Pauli witness, and generalized robustness decay.

Each spin relaxes through a Pauli channel, I -> I, X -> exp(-t/T2) X,
Y -> exp(-t/T2) Y, Z -> exp(-t/T1) Z: generalized amplitude damping at
p = 1/2, which is unital, followed by phase damping (Nielsen & Chuang,
section 8.3).  On the 16 Pauli coordinates of a two-spin state the channel
is therefore a diagonal Pauli-transfer map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import _MAX_STEPS, ConvergenceError, DomainError, bounded_int
from .qmat import PT_SIGN, DensityMatrix, _eigh, _keep_coords, _trusted_state, _two_spin_state, from_pauli_coords
from .optim import NPT_CUT, _ppt_certified, _robustness
from .witness import _CORRELATION_COORDS, PauliWitness, _f_values


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
        # complete positivity of the per-spin channel requires T2 <= 2*T1, with no slack (2*T1 is exact)
        for spin in ("i", "s"):
            t1, t2 = getattr(self, f"t1_{spin}"), getattr(self, f"t2_{spin}")
            if t2 > 2 * t1:
                raise DomainError(f"t2_{spin} = {t2} exceeds 2*t1_{spin} = {2 * t1}")


@dataclass(frozen=True, eq=False)
class SweepSeries:
    """Sampled decay curves plus the extracted characteristic times.

    ``partial_transposes`` is the (N, 4, 4) stack of the points' partial
    transposes, and ``pt_min_values``, computed from it on first read, is
    lambda_min of each, the curve whose sign change ends GR
    (``crossing_time``): an eigh of the whole stack, the bits of the eigh
    that decides each point in ``optim._robustness``, so the GR crossing
    and the verdict keep one rule.  A series compares equal only to itself
    and hashes by identity, as its array fields have no single truth value.
    ``tau_c`` is the first zero crossing of the F curve (detection cutoff);
    ``tau_w`` and ``tau_r`` are 1/e times of log-linear exponential fits to
    the witness curve's distance from its equilibrium value and to the
    robustness curve.  The robustness curve reaches 0 at a finite time, where
    the state turns PPT, so ``tau_r`` is a scale of its decay, not the time
    it ends (``crossing_time(series, "GR")``).  Any of them is None when the
    corresponding feature does not exist in the sweep.  A series built here
    is checked for one length, the stack's shape and a strictly increasing
    time grid; ``sweep``, which has made those checks, builds its series
    with ``_trusted_series``, unchecked.
    """

    times: np.ndarray
    f_values: np.ndarray
    w_values: np.ndarray
    gr_values: np.ndarray
    partial_transposes: np.ndarray = field(repr=False)
    tau_c: float | None
    tau_r: float | None
    tau_w: float | None

    def __post_init__(self):
        n = self.times.size
        if not all(v.size == n for v in (self.f_values, self.w_values, self.gr_values)):
            raise DomainError("sweep arrays must share one length")
        if self.partial_transposes.shape != (n, 4, 4):
            raise DomainError(f"partial_transposes must have shape ({n}, 4, 4), got {self.partial_transposes.shape}")
        if n >= 2 and not np.all(np.diff(self.times) > 0):
            raise DomainError("times must be strictly increasing")

    @cached_property
    def pt_min_values(self) -> np.ndarray:
        """lambda_min of each point's partial transpose, computed on first read."""
        return _eigh(self.partial_transposes)[0][:, 0]


def _trusted_series(**fields) -> SweepSeries:
    """A SweepSeries of ``fields``, unchecked.

    Only for the arrays ``sweep`` built to one length on the time grid it
    checked; every other series goes through ``SweepSeries``.
    """
    series = object.__new__(SweepSeries)
    vars(series).update(fields)
    return series


def _relax(coords: np.ndarray, times: np.ndarray, p: RelaxationParams) -> np.ndarray:
    """(N, 16) Pauli coordinates reached from a state's 16 coordinates after each of N times.

    Spin I's and spin S's I, X, Y, Z components shrink by 1, exp(-t/T2),
    exp(-t/T2), exp(-t/T1), and the Pauli coordinate of P_I x P_S by the
    product of its two factors: the (N, 16) decay table times the
    coordinates of the start state.  A ratio t/T that overflows to infinity
    decays to exactly 0.
    """
    lifetimes = np.array([[np.inf, p.t2_i, p.t2_i, p.t1_i], [np.inf, p.t2_s, p.t2_s, p.t1_s]])
    with np.errstate(over="ignore"):
        f = np.exp(-times[:, None, None] / lifetimes)
    table = (f[:, 0, :, None] * f[:, 1, None, :]).reshape(-1, 16)
    return table * coords


def relax_channel(rho: DensityMatrix, t: float, p: RelaxationParams) -> DensityMatrix:
    """Apply t seconds of independent per-spin relaxation.

    The map is completely positive and trace preserving for all t >= 0
    because T2 <= 2*T1 on each spin; t = 0 is the identity and t -> infinity
    sends everything to the maximally mixed state.  This is the one-point
    case of the grid that ``sweep`` relaxes.  Being CPTP, it maps the
    validated input to a state, which is made with ``qmat._trusted_state``
    and not checked again; the state keeps the decayed coordinates its
    matrix was made from.
    """
    _two_spin_state(rho, "relax_channel")
    if not 0.0 <= t < np.inf:
        raise DomainError(f"time must be finite and nonnegative, got {t}")
    x = _relax(rho._coords, np.array([t], dtype=float), p)[0]
    return _keep_coords(_trusted_state(from_pauli_coords(x) / 4.0), x)


def _fit_decay_time(times: np.ndarray, values: np.ndarray) -> float | None:
    """1/e time of A*exp(-t/tau) fitted by least squares on log(values).

    Only points above 1e-3 of the initial magnitude enter the fit, which is
    made against t/t_max so that it behaves alike at every time scale;
    returns None when the curve never decays (its fitted values all equal
    included), has too few usable points or gives a time that overflows.
    """
    v0 = abs(values[0])
    mask = values > 1e-3 * v0
    if v0 <= 0 or np.count_nonzero(mask) < 2:
        return None
    y = values[mask]
    if y.max() == y.min():  # finite values, so their spread is 0 exactly when they are equal
        return None
    t_max = float(times[-1])
    x = times[mask] / t_max
    x -= x.sum() / x.size
    y = np.log(y)
    slope = float(x @ (y - y.sum() / y.size) / (x @ x))  # the least-squares slope, in closed form
    if slope >= 0:
        return None
    tau = -t_max / slope
    return tau if tau < np.inf else None


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
    The grid is relaxed as one (N, 16) coordinate array, F and W are read
    from it, and its partial transposes are built from it with the signs
    of PT_SIGN: the same Pauli strings in the same order, signs flipped
    exactly, so the bits of ``_pt_arr`` of its matrices.  One Cholesky
    factorization of the stack (``optim._ppt_certified``) proves most PPT
    points PPT, robustness 0; only the rows of the stack it leaves go on to
    ``optim._robustness``, whose one eigh decides each as a one-point call
    does, so the certificate changes no verdict.  Its NPT points take the
    robustness stages as one stack, the solver one point at a time; every
    point equals the one-point functions applied to ``relax_channel(rho0,
    t, p)``.  The sweep returns values, not certificates, so it calls
    ``_robustness`` with certificates=False: no closed point's omega or
    witness matrix is built, a solved point's are dropped, and only
    ``generalized_robustness`` returns them.  The first point whose solve fails, the earliest time, ends
    the sweep.  ``pt_min_values`` is computed when first read.  The arrays
    are built here to one length on the grid checked above, so the series
    is made with ``_trusted_series``, without ``SweepSeries``'s checks.
    """
    steps = bounded_int(steps, "steps", 2, _MAX_STEPS)
    if not 0.0 < t_max < np.inf:
        raise DomainError(f"t_max = {t_max} must be positive and finite")
    _two_spin_state(rho0, "sweep")
    times = np.linspace(0.0, t_max, steps)
    if not (np.diff(times) > 0).all():  # a subnormal t_max rounds grid points together
        raise DomainError(f"t_max = {t_max} is too small for steps = {steps}: the time grid repeats a time")
    coords = _relax(rho0._coords, times, p)
    xx, yy, zz = coords[:, _CORRELATION_COORDS].T
    f_vals, w_vals = _f_values(xx, zz), w.value(xx, yy, zz)
    m = from_pauli_coords(coords * PT_SIGN) / 4.0
    candidates = (~_ppt_certified(m)).nonzero()[0]
    gr_vals = np.zeros(steps)
    gr_vals[candidates], _, _, failure, _, _, _ = _robustness(m[candidates], certificates=False)
    if failure:
        k, exc = failure
        raise ConvergenceError(
            f"robustness solver failed at sweep time t = {times[candidates[k]]:.6g} s: {exc}",
            lower=exc.lower,
            upper=exc.upper,
        ) from exc

    return _trusted_series(
        times=times,
        f_values=f_vals,
        w_values=w_vals,
        gr_values=gr_vals,
        partial_transposes=m,
        tau_c=_sign_change(times, f_vals),
        tau_r=_fit_decay_time(times, gr_vals),
        # the witness curve decays toward its maximally mixed value c_i, not zero
        tau_w=_fit_decay_time(times, np.abs(w_vals - w.c_i)),
    )


def _sign_change(times: np.ndarray, values: np.ndarray) -> float | None:
    """Linearly interpolated time of the first sign change of values, or None.

    Zeros change the sign only between nonzero values of opposite signs, and
    the change is at the first of them; a curve that starts at 0, or touches
    0 and keeps its sign, has no change there.
    """
    nonzero = np.flatnonzero(values)
    negative = values[nonzero] < 0
    changes = np.flatnonzero(negative[1:] != negative[:-1])
    if not changes.size:
        return None
    j, k = nonzero[changes[0]], nonzero[changes[0] + 1]
    if k > j + 1:
        return float(times[j + 1])
    frac = values[j] / (values[j] - values[k])
    return float(times[j] + frac * (times[k] - times[j]))


def crossing_time(series: SweepSeries, quantity: str) -> float | None:
    """Linearly interpolated end-of-detection time of one curve, or None when it never ends.

    F and W end at their first sign change.  For two qubits GR > 0 exactly
    when the partial transpose has a negative eigenvalue (Sanpera, Tarrach &
    Vidal, PRA 58, 826 (1998)), so GR ends at the first sign change of
    lambda_min + NPT_CUT, the cut below which the solver solves a point.
    Only a GR query reads ``pt_min_values``, and so decomposes the stack.
    """
    if quantity == "F":
        curve = series.f_values
    elif quantity == "W":
        curve = series.w_values
    elif quantity == "GR":
        curve = series.pt_min_values + NPT_CUT
    else:
        raise DomainError(f"quantity must be 'F', 'W' or 'GR', got {quantity!r}")
    return _sign_change(series.times, curve)
