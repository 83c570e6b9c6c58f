"""Optimization kernel: exact small-LP solver (vertex enumeration), the
optimal-witness program, and generalized robustness of entanglement computed
as a two-cone barrier problem (exact for two qubits via the positive partial
transpose criterion)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InfeasibleError, UnboundedError
from .qmat import PT_SIGN, TWO_SPIN_PAULIS, DensityMatrix, _pt_arr, from_pauli_coords
from .states import _BD_COORDS, _BELL_SIGNS, BELL_ORDER, BellDiagonalParams, BellKind
from .states import bell_probabilities
from .witness import PauliWitness

_E0 = np.eye(16)[0]
_Q = TWO_SPIN_PAULIS.reshape(16, 16)  # row k is vec(P_k): x @ _Q is vec(sum_k x_k P_k)
_QB = np.stack([_Q, PT_SIGN[:, None] * _Q])  # rows vec(P_k) and vec(P_k^PT)
_QB_CONJ = _QB.conj()
# barrier weights t of the central-path stages: 4, then x20 per stage, capped at 1e7
_BARRIER_WEIGHTS = (4.0, 80.0, 1.6e3, 3.2e4, 6.4e5, 1.0e7)


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
    rows_pt = rows_w * PT_SIGN[_BD_COORDS]  # PT flips the YY term
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


def _barrier_blocks(x: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Omega(x) and m + Omega(x)^PT stacked as (2, 4, 4); shift stacks 0 and m."""
    return (x @ _QB).reshape(2, 4, 4) + shift


def _newton_system(x: np.ndarray, shift: np.ndarray, t: float):
    """Gradient and Hessian of 4t x_0 - log det Omega - log det(m + Omega^PT).

    With a the inverse of a block and Q the basis of that block (rows vec(P_k)
    for Omega, vec(P_k^PT) = PT sign * vec(P_k) for Omega^PT, which scales
    its Hessian by the outer product of the signs), d(-log det)/dx_k =
    -Tr(a P_k) = -(conj(Q) vec(a))_k and d2(-log det)/dx_k dx_l =
    Tr(a P_k a P_l) = (conj(Q) kron(a, a^T) Q^T)_kl, one batched product
    over both blocks.
    """
    inv = np.linalg.inv(_barrier_blocks(x, shift))
    tr = np.real(_QB_CONJ @ inv.reshape(2, 16, 1))[..., 0]
    kron = inv[:, :, None, :, None] * inv.transpose(0, 2, 1)[:, None, :, None, :]
    h = np.real(_QB_CONJ @ kron.reshape(2, 16, 16) @ _QB.transpose(0, 2, 1))
    return 4.0 * t * _E0 - tr[0] - tr[1], h[0] + h[1]


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
    shift = np.stack([np.zeros_like(m), m])
    iterations = 0

    def stalled(reason: str) -> ConvergenceError:
        value = 4.0 * x[0]
        return ConvergenceError(reason, lower=max(0.0, value - 8.0 / t), upper=value)
    for t in _BARRIER_WEIGHTS:
        for _ in range(80):
            grad, hess = _newton_system(x, shift, t)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                jitter = 1e-10 * np.trace(hess) / 16.0
                step = np.linalg.solve(hess + jitter * np.eye(16), -grad)
            decrement = float(-grad @ step)
            iterations += 1
            if iterations > max_iter:
                raise stalled(f"robustness solver hit the {max_iter}-iteration cap")
            alpha = 1.0
            for _ in range(60):
                trial = x + alpha * step
                try:  # both blocks positive definite
                    np.linalg.cholesky(_barrier_blocks(trial, shift))
                    break
                except np.linalg.LinAlgError:
                    alpha *= 0.5
            else:
                raise stalled("robustness line search found no strictly feasible step")
            x = trial
            if decrement < 1e-11:
                break

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
