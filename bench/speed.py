"""CPU-speed gauge that scales measured op times to a reference speed.

On a shared machine the same op can take 1.5-1.8x longer for tens of seconds
at a time while a neighbour loads the core, which would swamp any regression
bound.  Before every op the benchmark times a short calibration kernel (4x4
complex linear algebra plus Python arithmetic, the same mix witnesslab runs).
An op's time is multiplied by KERNEL_REF_S over the median kernel time of
the op and its neighbours, so it reads as if the machine ran at the
reference speed.  The kernel belongs to the benchmark and never changes with
the program, so a faster or slower program still reads faster or slower.
Raw wall times are reported beside the scaled ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# typical kernel time on the reference machine (2 vCPU x86-64 VM, numpy 2.4, OpenBLAS 0.3.31)
KERNEL_REF_S = 3.3e-4
NEIGHBOURS = 2  # samples on each side in the median that scales one op
_RNG = np.random.default_rng(20120202)
_G = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_A = _G @ _G.conj().T + np.eye(4)
_B = np.kron(_G[:2, :2], _G[2:, 2:])


def kernel_seconds() -> float:
    """Time of one pass of the calibration kernel."""
    start = perf_counter()
    acc = 0.0
    for k in range(12):
        acc += float(np.linalg.eigvalsh(_A)[0])
        acc += float(np.einsum("ab,ba->", np.linalg.inv(_A), _B).real)
        acc += sum(0.5 * j for j in range(k % 7, 30))
    return perf_counter() - start


def scale_factors(kernel_times) -> np.ndarray:
    """Per-op factor KERNEL_REF_S / (median kernel time of the op and its neighbours)."""
    padded = np.pad(np.asarray(kernel_times, dtype=float), NEIGHBOURS, constant_values=np.nan)
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * NEIGHBOURS + 1)
    return KERNEL_REF_S / np.nanmedian(windows, axis=1)
