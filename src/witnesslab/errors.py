"""Exception classes shared across the package, the integer check that raises one, and
the two grid bounds it checks (here, so that the CLI's help prints them and loads no solver)."""

import operator

# largest relax.sweep grid: each point takes one robustness value, from a closed-form stage or a solve
_MAX_STEPS = 10_000
# largest witness.detection_region_grid resolution: 101^3 is about a million points
_MAX_RESOLUTION = 101


class StructuralError(ValueError):
    """Input has the wrong shape, dimension, or symmetry (e.g. non-Hermitian)."""


class DomainError(ValueError):
    """Parameters are outside their physical domain (e.g. an unphysical state)."""


class NumericalConsistencyError(ValueError):
    """A quantity that must be real (or otherwise constrained) drifted past tolerance."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed: it hit its iteration cap, or an iterate
    lost positive definiteness (its Cholesky factorization failed).

    Carries the best bounds obtained so far in ``lower`` and ``upper``.
    """

    def __init__(self, message, lower=None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


def bounded_int(value, name: str, lo: int, hi: int | None = None) -> int:
    """value as an int in [lo, hi] (no upper bound when hi is None), else DomainError.

    Only true integers pass: operator.index refuses floats such as 2.0 and strings.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < lo or (hi is not None and value > hi):
        bounds = f"at least {lo}" if hi is None else f"between {lo} and {hi}"
        raise DomainError(f"{name} must be {bounds}, got {value}")
    return value
