"""The shared numerical tolerances, in the single read-only ``TOL`` instance.

They judge hermiticity, a state's trace and PSD check, and the tomography
spill.  A cut of one rule lives beside its code: the 1e-12 NPT cut in
``optim``, the 1e-9 Bell-weight slack in ``states`` and the 1e-6 robustness
level in ``relax``.
The one settable value is a ``DensityMatrix`` check's own ``psd_tol``
argument, which the CLI sets from the ``WITNESSLAB_TOL`` environment variable.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # elementwise absolute tolerance for hermiticity, a state's trace and the tomography spill
    tol_eq: float = 1e-10
    # how far below zero an eigenvalue may sit and still count as PSD
    psd_tol: float = 1e-9


TOL = Tolerances()
