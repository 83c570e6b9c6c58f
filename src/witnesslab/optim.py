"""Optimization kernel: exact small-LP solver (vertex enumeration), the
optimal-witness program, and generalized robustness of entanglement computed
as a two-cone barrier problem (exact for two qubits via the positive partial
transpose criterion)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
# numpy's private LAPACK gufuncs: the Newton loop calls them directly, because the public
# wrappers cost about 4 us a call in argument checks and cholesky raises for a whole stack
# where the gufunc answers per block (NaN output for a block it cannot factor or solve)
from numpy.linalg import _umath_linalg

from .errors import ConvergenceError, DomainError, InfeasibleError, UnboundedError
from .qmat import PT_SIGN, TWO_SPIN_PAULIS, DensityMatrix, _pt_arr, from_pauli_coords
from .states import _BD_COORDS, _BELL_SIGNS, BELL_ORDER, BellDiagonalParams, BellKind
from .states import bell_probabilities
from .witness import PauliWitness

_E0 = np.eye(16)[0]
_Q = TWO_SPIN_PAULIS.reshape(16, 16)  # row k is vec(P_k): x @ _Q is vec(sum_k x_k P_k)
_QB = np.stack([_Q, PT_SIGN[:, None] * _Q])  # rows vec(P_k) and vec(P_k^PT)
_QB_CONJ = _QB.conj()
_QB_T = _QB.transpose(0, 2, 1)
# barrier weights t of the central-path stages: 4, then x50 per stage, capped at 1e7
_BARRIER_WEIGHTS = (4.0, 200.0, 1.0e4, 5.0e5, 1.0e7)
_WEIGHT_ROWS = 4.0 * np.array(_BARRIER_WEIGHTS)[:, None] * _E0  # 4t * e_0, the linear term's gradient
# squared Newton decrement below which a point leaves each stage: an intermediate stage only
# places the next stage's start inside its quadratic-convergence region (lambda < 0.32), and
# only the last stage, whose 8/t is the reported gap, centres exactly
_ADVANCE_DECREMENT = np.array([0.1] * (len(_BARRIER_WEIGHTS) - 1) + [1e-11])
# Newton steps one robustness solve may take
_MAX_NEWTON_STEPS = 400
# NPT points solved together at most: about 30 KB of Newton temporaries each
_CHUNK = 256
# half-width of the box solve_lp adds so that every LP has vertices
_BOX_BOUND = 1e6


# ---------------------------------------------------------------------------
# linear programming by exhaustive vertex enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearProgram:
    """minimize objective . x  subject to  a_ub @ x <= b_ub."""

    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray


def solve_lp(lp: LinearProgram) -> np.ndarray:
    """Exact minimizer of a small LP.

    Every n-subset of constraint rows (the given ones plus a +-_BOX_BOUND box,
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
    b_all = np.concatenate([b, np.full(2 * n, _BOX_BOUND)])

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
    off_box = candidates[np.all(np.abs(candidates) < _BOX_BOUND - 1e-6, axis=1)]
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
    """Omega(x) and m + Omega(x)^PT stacked as (..., 2, 4, 4); shift stacks 0 and m.

    Each point's blocks come from their own (1, 16) @ (16, 16) products, so
    they do not depend on how many points are formed together.
    """
    return (x[..., None, None, :] @ _QB).reshape(shift.shape) + shift


def _gradient_hessian(blocks: np.ndarray, weight: np.ndarray):
    """Gradient and Hessian of 4t x_0 - log det Omega - log det(m + Omega^PT), over leading axes.

    With a the inverse of a block and Q the basis of that block (rows vec(P_k)
    for Omega, vec(P_k^PT) = PT sign * vec(P_k) for Omega^PT, which scales
    its Hessian by the outer product of the signs), d(-log det)/dx_k =
    -Tr(a P_k) = -(conj(Q) vec(a))_k and d2(-log det)/dx_k dx_l =
    Tr(a P_k a P_l) = (conj(Q) kron(a, a^T) Q^T)_kl, one batched product
    over both blocks.  weight is 4t * e_0, the gradient of the linear term.
    """
    inv = _umath_linalg.inv(blocks, signature="D->D")
    lead = inv.shape[:-2]
    tr = (_QB_CONJ @ inv.reshape(lead + (16, 1))).real[..., 0]
    # order C: the product's default layout follows the transposed factor, and reshape would copy
    kron = np.multiply(inv[..., :, None, :, None], inv.swapaxes(-1, -2)[..., None, :, None, :], order="C")
    h = (_QB_CONJ @ kron.reshape(lead + (16, 16)) @ _QB_T).real
    return weight - tr[..., 0, :] - tr[..., 1, :], h[..., 0, :, :] + h[..., 1, :, :]


def _newton_direction(blocks: np.ndarray, weight: np.ndarray):
    """Newton step and decrement of one point, or of each point of a stack.

    weight is 4t * e_0.  One LAPACK solve serves every point, and each row of
    it has the same bits as that point's own solve.  A singular Hessian gives
    a NaN row; only those rows are solved again, with a small jitter.  One
    point takes the plain vector form of the decrement, which gives the same
    bits as one slice of the stacked form.
    """
    grad, hess = _gradient_hessian(blocks, weight)
    neg_grad = -grad
    step = _umath_linalg.solve1(hess, neg_grad, signature="dd->d")
    if hess.ndim == 2:
        if np.isnan(step[0]):
            step = _jittered_solve(hess, neg_grad)
        return step, neg_grad @ step
    for i in np.isnan(step[:, 0]).nonzero()[0]:
        step[i] = _jittered_solve(hess[i], neg_grad[i])
    return step, (neg_grad[:, None, :] @ step[:, :, None])[:, 0, 0]


def _jittered_solve(hess: np.ndarray, neg_grad: np.ndarray) -> np.ndarray:
    """The Newton step of one point whose Hessian is singular: 1e-10 of its mean diagonal added."""
    jitter = 1e-10 * np.trace(hess) / 16.0
    return _umath_linalg.solve1(hess + jitter * np.eye(16), neg_grad, signature="dd->d")


def _not_positive_definite(blocks: np.ndarray) -> np.ndarray:
    """Indices of the points whose barrier blocks are not both positive definite, over leading axes.

    One LAPACK Cholesky of the whole stack: it fills every block it cannot
    factor with NaN, so its verdict is the one np.linalg.cholesky raises on.
    One unbatched (2, 4, 4) point gives [0] or [].
    """
    chol = _umath_linalg.cholesky_lo(blocks, signature="D->D")
    return np.atleast_1d(np.isnan(chol[..., 0, 0].real).any(axis=-1)).nonzero()[0]


def _line_search(x: np.ndarray, step: np.ndarray, shift: np.ndarray):
    """Trials x + alpha * step, alpha = 1, 1/2, ..., 2^-59, until both blocks are positive definite.

    Every point starts at alpha = 1 and the points that fail halve together,
    so alpha is one number per round.  Returns the accepted trials, their
    barrier blocks, and the indices of the points that found none.
    """
    trial = x + step
    blocks = _barrier_blocks(trial, shift)
    failed = _not_positive_definite(blocks)
    alpha = 1.0
    for _ in range(59):
        if not len(failed):
            break
        alpha *= 0.5
        if len(failed) == len(x):  # every point retries, as a single point always does: no indexing
            trial = x + alpha * step
            blocks = _barrier_blocks(trial, shift)
            failed = _not_positive_definite(blocks)
            continue
        t_sub = x[failed] + alpha * step[failed]
        b_sub = _barrier_blocks(t_sub, shift[failed])
        still = _not_positive_definite(b_sub)
        passed = np.ones(len(failed), dtype=bool)
        passed[still] = False
        trial[failed[passed]], blocks[failed[passed]] = t_sub[passed], b_sub[passed]
        failed = failed[still]
    return trial, blocks, failed


@np.errstate(invalid="ignore")  # a failed LAPACK call marks its block with NaN, which the loop reads
def _central_path(m: np.ndarray, lam_min: np.ndarray, max_iter: int):
    """Follow the barrier's central path for k NPT points at once.

    m is the (k, 4, 4) stack of partial transposes and lam_min their
    smallest eigenvalues.  All active points take one damped Newton step per
    round.  Each point runs its own barrier schedule t = 4, 200, 1e4, 5e5,
    1e7: it moves to the next weight once its squared Newton decrement is
    below _ADVANCE_DECREMENT of its stage, or after 80 steps, and leaves the
    active set after the last weight or when it fails.  An intermediate
    stage only sets the next stage's start, so it stops at 0.1, inside the
    region where the next stage's Newton steps converge quadratically
    (Boyd & Vandenberghe 9.6.4, 11.3.3); the last stage centres to 1e-11,
    so the final iterate is on the central path at t = 1e7 and the duality
    gap is still 8/t.  The one-point and stacked branches read the same
    thresholds, so a point takes the same steps alone or in a sweep.
    Iterates are the 16 real Pauli coordinates of omega.  Returns the final
    iterates (k, 16), the Newton steps of each point that finished, and a
    ConvergenceError for each point that failed, by index.
    """
    k = len(m)
    x = np.zeros((k, 16))
    x[:, 0] = 1.5 * (-lam_min) + 0.05  # omega = alpha * identity is strictly feasible
    shift = np.zeros((k, 2, 4, 4), dtype=complex)
    shift[:, 1] = m
    blocks = _barrier_blocks(x, shift)
    points = np.arange(k)  # the point each active row belongs to
    stage = np.zeros(k, dtype=int)
    stage_end = np.full(k, 80)  # the step count at which each row's stage is cut
    x_out, iterations, failures = np.zeros((k, 16)), np.zeros(k, dtype=int), {}
    step_count, next_cut = 0, 80  # next_cut is at most the smallest stage_end

    def fail(i, reason):
        value = 4.0 * x[i, 0]
        bound = max(0.0, value - 8.0 / _BARRIER_WEIGHTS[stage[i]])
        failures[int(points[i])] = ConvergenceError(reason, lower=bound, upper=value)

    while len(points):
        if len(points) == 1:  # without the batch axis, whose broadcasting costs a few us a step
            step, decrement = _newton_direction(blocks[0], _WEIGHT_ROWS[stage[0]])
            step, advance = step[None], [0] if decrement < _ADVANCE_DECREMENT[stage[0]] else []
        else:
            step, decrement = _newton_direction(blocks, _WEIGHT_ROWS[stage])
            advance = (decrement < _ADVANCE_DECREMENT[stage]).nonzero()[0].tolist()
        step_count += 1
        if step_count > max_iter:
            for i in range(len(points)):
                fail(i, f"robustness solver hit the {max_iter}-iteration cap")
            break
        trial, blocks, failed = _line_search(x, step, shift)
        leaving = failed.tolist()
        for i in leaving:
            fail(i, "robustness line search found no strictly feasible step")
        x = trial
        if step_count == next_cut:
            advance = sorted(set(advance) | set(np.flatnonzero(stage_end == step_count).tolist()))
        for i in advance:
            if i in leaving:
                continue
            stage[i] += 1
            stage_end[i] = step_count + 80
            if stage[i] == len(_BARRIER_WEIGHTS):
                x_out[points[i]], iterations[points[i]] = x[i], step_count
                leaving.append(i)
        if len(leaving) == len(points):
            break
        if leaving:
            keep = np.ones(len(points), dtype=bool)
            keep[leaving] = False
            x, shift, blocks = x[keep], shift[keep], blocks[keep]
            points, stage, stage_end = points[keep], stage[keep], stage_end[keep]
        if step_count == next_cut:
            next_cut = stage_end.min()
    return x_out, iterations, failures


def _robustness(rho: np.ndarray, max_iter: int = _MAX_NEWTON_STEPS):
    """Generalized robustness of each state of a (k, 4, 4) stack of density matrices.

    PPT points are 0 without a solve.  The NPT points are solved together in
    chunks of _CHUNK, which bounds the Newton temporaries, and the chunks stop
    at the first one with a failure.  Returns the values, the Newton steps,
    the optimal omegas (zero for PPT points) and the failures by index.
    """
    m = _pt_arr(rho, "I")
    lam_min = np.linalg.eigvalsh(m)[:, 0]
    npt = (lam_min < -1e-12).nonzero()[0]
    values, iterations, omega = np.zeros(len(m)), np.zeros(len(m), dtype=int), np.zeros(m.shape, dtype=complex)
    failures = {}
    for start in range(0, len(npt), _CHUNK):
        idx = npt[start:start + _CHUNK]
        x, iterations[idx], chunk_failures = _central_path(m[idx], lam_min[idx], max_iter)
        if chunk_failures:
            failures = {int(idx[i]): exc for i, exc in chunk_failures.items()}
            break
        omega[idx] = chunk = from_pauli_coords(x)
        values[idx] = np.trace(chunk, axis1=-2, axis2=-1).real
    return values, iterations, omega, failures


def generalized_robustness(rho: DensityMatrix, max_iter: int = _MAX_NEWTON_STEPS) -> RobustnessResult:
    """minimize Tr(omega) over omega >= 0 with (rho + omega)^PT >= 0.

    Separability of two qubits is exactly positivity of the partial
    transpose, so this value is the minimal weight of an arbitrary state that
    must be mixed in before rho turns separable.  Solved by following the
    central path of the two-cone log-det barrier with damped Newton steps,
    the weight t rising x50 per stage from 4 to 1e7.  Intermediate weights
    are centred loosely (squared decrement below 0.1), because they only
    start the next stage; the last, t = 1e7, is centred exactly (below
    1e-11), so the duality gap there is 8/t, below 1e-6, and the iterate
    is still strictly feasible (so the certificate always verifies).  This
    is the one-point case of the batched solver that ``relax.sweep`` runs
    over a whole time grid.
    """
    if rho.dim != 4:
        raise DomainError("generalized_robustness needs a two-spin state")
    values, iterations, omega, failures = _robustness(rho.matrix[None], max_iter)
    if failures:
        raise failures[0]
    if iterations[0] == 0:
        return RobustnessResult(value=0.0, certificate_state=None, iterations=0)
    value = float(values[0])
    certificate = DensityMatrix(omega[0] / value)
    return RobustnessResult(value=value, certificate_state=certificate, iterations=int(iterations[0]))


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
