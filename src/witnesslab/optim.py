"""Optimization kernel: exact small-LP solver (vertex enumeration), the
optimal-witness program, and generalized robustness of entanglement computed
as a two-cone barrier problem (exact for two qubits via the positive partial
transpose criterion)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InfeasibleError, UnboundedError
from .qmat import TWO_SPIN_LABELS, TWO_SPIN_PAULIS, DensityMatrix, _pt_arr, from_pauli_coords
from .states import _BELL_SIGNS, BELL_ORDER, BellDiagonalParams, BellKind, bell_probabilities
from .witness import PauliWitness

# sign picked up by each Pauli string under partial transpose on spin I
_PT_SIGN = np.array([-1.0 if lab[0] == "Y" else 1.0 for lab in TWO_SPIN_LABELS])
_E0 = np.eye(16)[0]


# ---------------------------------------------------------------------------
# linear programming by exhaustive vertex enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearProgram:
    """minimize objective . x  subject to  a_ub @ x <= b_ub."""

    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray


def solve_lp(lp: LinearProgram, box_bound: float = 1e6) -> np.ndarray:
    """Exact minimizer of a small LP.

    Every n-subset of constraint rows (the given ones plus a +-box_bound box,
    which guarantees the polytope has vertices) is solved as a linear system;
    feasible solutions are vertices and the best one is returned.  An optimal
    vertex that touches the box means the true problem is unbounded.  Ties
    within 1e-9 of the optimum break toward the lexicographically largest
    vertex so repeated calls are reproducible.
    """
    c = np.asarray(lp.objective, dtype=float)
    n = c.size
    a = np.asarray(lp.a_ub, dtype=float).reshape(-1, n)
    b = np.asarray(lp.b_ub, dtype=float).ravel()
    a_all = np.vstack([a, np.eye(n), -np.eye(n)])
    b_all = np.concatenate([b, np.full(2 * n, box_bound)])

    combos = np.array(list(itertools.combinations(range(a_all.shape[0]), n)))
    sub_a = a_all[combos]
    sub_b = b_all[combos]
    dets = np.abs(np.linalg.det(sub_a))
    ok = dets > 1e-12
    if not ok.any():
        raise InfeasibleError("no basis of constraints is invertible")
    verts = np.linalg.solve(sub_a[ok], sub_b[ok][..., None])[..., 0]
    feas = np.all(a_all @ verts.T <= b_all[:, None] + 1e-9, axis=0)
    if not feas.any():
        raise InfeasibleError("constraint system has no feasible point")
    verts = verts[feas]

    values = verts @ c
    best = values.min()
    candidates = verts[values <= best + 1e-9]
    off_box = candidates[np.all(np.abs(candidates) < box_bound - 1e-6, axis=1)]
    if off_box.size == 0:
        raise UnboundedError("objective is unbounded (every optimal vertex sits on the box)")
    order = np.lexsort(off_box.T[::-1])  # lexicographic in x0, x1, ...
    return off_box[order[-1]]


def optimal_witness(kind: BellKind) -> PauliWitness:
    """Best diagonal-Pauli witness for a Bell state, solved as an exact LP.

    Both the witness and its partial transpose are diagonal in the Bell basis
    for this coefficient family, so the two semidefinite constraints
    (PT >= 0 and W <= 1) collapse to eight linear inequalities in
    (c_i, c_x, c_y, c_z).  The objective, the witness eigenvalue on the target
    Bell state, reaches -1 at a unique vertex.
    """
    rows_w = np.column_stack([np.ones(4), _BELL_SIGNS])  # W's eigenvalue on each Bell state
    rows_pt = rows_w * np.array([1.0, 1.0, -1.0, 1.0])  # PT flips the YY term
    lp = LinearProgram(
        objective=rows_w[BELL_ORDER.index(kind)],
        a_ub=np.vstack([rows_w, -rows_pt]),
        b_ub=np.concatenate([np.ones(4), np.zeros(4)]),
    )
    return PauliWitness(*(float(v) for v in solve_lp(lp)))


# ---------------------------------------------------------------------------
# generalized robustness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RobustnessResult:
    """Outcome of the robustness program.

    ``value`` is the minimal trace of a PSD operator omega such that
    rho + omega has a positive partial transpose; ``certificate_state`` is
    omega normalized to unit trace whenever value > 0.
    """

    value: float
    certificate_state: DensityMatrix | None
    iterations: int


def _posdef(h: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(h)
        return True
    except np.linalg.LinAlgError:
        return False


def generalized_robustness(rho: DensityMatrix, max_iter: int = 400) -> RobustnessResult:
    """minimize Tr(omega) over omega >= 0 with (rho + omega)^PT >= 0.

    Separability of two qubits is exactly positivity of the partial
    transpose, so this value is the minimal weight of an arbitrary state that
    must be mixed in before rho turns separable.  Solved by following the
    central path of the two-cone log-det barrier with damped Newton steps;
    the barrier weight stops at 1e7, where the duality gap is below 1e-6 and
    the iterate is still strictly feasible (so the certificate always
    verifies).  Iterates are parametrized by the 16 real Pauli coordinates
    of omega.
    """
    if rho.dim != 4:
        raise DomainError("generalized_robustness needs a two-spin state")
    m = _pt_arr(rho.matrix, "I")
    lam_min = float(np.linalg.eigvalsh(m)[0])
    if lam_min >= -1e-12:
        return RobustnessResult(value=0.0, certificate_state=None, iterations=0)

    x = np.zeros(16)
    x[0] = 1.5 * (-lam_min) + 0.05  # omega = alpha * identity is strictly feasible
    t, t_max = 4.0, 1.0e7
    iterations = 0
    while True:
        for _ in range(80):
            omega_inv = np.linalg.inv(from_pauli_coords(x))
            gap_inv = np.linalg.inv(m + from_pauli_coords(_PT_SIGN * x))
            grad = (
                4.0 * t * _E0
                - np.real(np.einsum("ab,kba->k", omega_inv, TWO_SPIN_PAULIS))
                - _PT_SIGN * np.real(np.einsum("ab,kba->k", gap_inv, TWO_SPIN_PAULIS))
            )
            wk = np.einsum("ab,kbc->kac", omega_inv, TWO_SPIN_PAULIS)
            gk = np.einsum("ab,kbc->kac", gap_inv, TWO_SPIN_PAULIS) * _PT_SIGN[:, None, None]
            hess = np.real(np.einsum("kab,lba->kl", wk, wk)) + np.real(
                np.einsum("kab,lba->kl", gk, gk)
            )
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                jitter = 1e-10 * np.trace(hess) / 16.0
                step = np.linalg.solve(hess + jitter * np.eye(16), -grad)
            decrement = float(-grad @ step)
            iterations += 1
            if iterations > max_iter:
                value = 4.0 * x[0]
                raise ConvergenceError(
                    f"robustness solver hit the {max_iter}-iteration cap",
                    lower=max(0.0, value - 8.0 / t),
                    upper=value,
                )
            alpha = 1.0
            for _ in range(60):
                trial = x + alpha * step
                omega_ok = _posdef(from_pauli_coords(trial))
                if omega_ok and _posdef(m + from_pauli_coords(_PT_SIGN * trial)):
                    break
                alpha *= 0.5
            x = x + alpha * step
            if decrement < 1e-11:
                break
        if t >= t_max:
            break
        t = min(20.0 * t, t_max)

    omega = from_pauli_coords(x)
    value = float(np.real(np.trace(omega)))
    certificate = DensityMatrix(omega / value)
    return RobustnessResult(value=value, certificate_state=certificate, iterations=iterations)


def gr_oracle_bd(params: BellDiagonalParams) -> float:
    """Closed-form robustness of a Bell-diagonal state: max(0, 2*lambda_max - 1).

    lambda_max is the largest Bell weight.  The formula is validated against
    a brute-force search over mixing states in the test suite before anything
    relies on it.
    """
    return max(0.0, 2.0 * max(bell_probabilities(params)) - 1.0)


def negativity(rho: DensityMatrix) -> float:
    """Sum of |negative eigenvalues| of the partial transpose."""
    eigs = np.linalg.eigvalsh(_pt_arr(rho.matrix, "I"))
    return float(-eigs[eigs < 0].sum())
