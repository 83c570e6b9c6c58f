"""Optimization kernel: generalized robustness of entanglement, a two-cone
semidefinite program (exact for two qubits via the positive partial
transpose criterion), in closed form from certified brackets that close to
within 1e-8: the two-qubit bracket from the negative eigenvector of the
partial transpose, the one from the best product state, or the one from the
locally rotated Bell witness, whose primal omega a phase-1 Newton completion
finds where the minimum-norm one is not PSD; the points all three leave
open take the product search again, longer.  A primal-dual interior-point
solver is the last stage, for a point that no bracket closes: one point's
own 4x4 linear algebra, one point at a time, since no measured workload
leaves a point open.

Each stage's arithmetic from its decompositions to its bounds is one
kernel of real arithmetic: +, -, *, / and sqrt in a fixed order, with
comparisons, & and | and a select, and no matmul, reduction or complex
product.  IEEE 754 rounds each of those correctly, so the same lines give
the same bits on plain Python floats, one point at a time, below _LANES
points and on numpy (k,) lanes from there (_run): the first bracket from
the negative eigenvector's floats, its Schmidt coefficients included, to
its closure test (_bracket_lines); the product bracket from the eigenpairs
of the partial transpose to its closure test (_product_lines); the Bell
bracket's coordinates of rho, read off the partial transpose's floats
(_coord_lines), and, from them and the SVD factors of the correlation
matrix, its sign d, rotation R, lower bound, minimum-norm omega and the
coordinates of its witness (_bell_lines); and what follows the solve of
each Newton step of the Bell completion (_newton_lines).  A degenerate
point of the first two is open by an explicit mask, with no division by
zero and no NaN on the way.  The eigendecompositions, the Bell bracket's
SVD and final eigvalsh check, and each completion step's Cholesky,
inverse, Gram products and solve stay whole-stack numpy.

Only a caller that returns certificates builds them: the closed points'
omega and witness matrices are assembled, as whole-stack numpy, when
_robustness is called with certificates=True, as generalized_robustness
calls it.  relax.sweep, which returns the values alone, calls it with
certificates=False: the stages compute the same bounds, closure masks,
routes and failures, bit for bit, and skip the matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, nan, sqrt

import numpy as np
# numpy's private LAPACK gufuncs: the PPT certificate, the Bell stages and the interior-point loop call them directly,
# because the public wrappers cost about 4 us a call in argument checks, and a gufunc answers a block it cannot factor
# or solve with NaN output where np.linalg raises: the certificate and the Bell completion read that per point of
# their stacks, the solver per block
from numpy.linalg import _umath_linalg

from .errors import ConvergenceError
from .qmat import _Q, PT_SIGN, TWO_SPIN_PAULIS, DensityMatrix, HermitianOp, _eigh, _eigvalsh, _pt_arr, _svd
from .qmat import _trusted_op, _trusted_state, _two_spin_state, from_pauli_coords
from .states import BellDiagonalParams, bell_probabilities

_E0 = np.eye(16)[0]
_EYE4 = np.eye(4)
_EYE4.setflags(write=False)
_MINUS_C = -4.0 * _E0  # -grad Tr(omega), Tr(omega) = 4 x_0: the predictor's right-hand side, added to the corrector's
_MINUS_C.setflags(write=False)
_QB = np.stack([_Q, PT_SIGN[:, None] * _Q])  # rows vec(P_k) and vec(P_k^PT)
_QB_CONJ = _QB.conj()
# duality gap sum_b Tr(S_b Z_b) at which a robustness solve stops: value - lower is below it
_GAP = 1e-8
# a corrector step goes _FRACTION + _FRACTION_GAIN * min(1, a_p, a_d) of the largest feasible steps
_FRACTION = 0.9
_FRACTION_GAIN = 0.09
# iterations one robustness solve may take
_MAX_ITERATIONS = 100
# alternating half-step pairs of the product-state search that every point still open after _bracket takes,
# and of the longer one that the points every bracket leaves open take before the interior-point solver
_PRODUCT_STEPS = 12
_PRODUCT_STEPS_LAST = 100
# stack size from which the kernel's lines run on numpy lanes in place of plain floats: the product bracket's
# measured crossover, where the floats' cost, which grows with the points, passes the lanes', which is nearly
# fixed up to a few hundred points
_LANES = 30
# phase-1 Newton steps the Bell completion takes at most, and the growth of its weight on t per step
_COMPLETION_STEPS = 20
_COMPLETION_GROWTH = 8.0
# a point is solved when lambda_min of its partial transpose is below -NPT_CUT; any other point is PPT, robustness 0
NPT_CUT = 1e-12
# (NPT_CUT / 2) 1, the shift under which _ppt_certified factors a partial transpose
_PPT_SHIFT = 0.5 * NPT_CUT * _EYE4
_PPT_SHIFT.setflags(write=False)
# the names of _robustness's route codes, each indexed by its code: the code -1 names the last
_ROUTES = ("ppt", "schmidt", "product", "bell", "longer search", "solved", "failed")


def _ppt_certified(m: np.ndarray) -> np.ndarray:
    """Mask of the points of a (k, 4, 4) stack of partial transposes that one Cholesky factorization proves PPT.

    A point is certified when LAPACK factors m + (NPT_CUT / 2) 1.  A
    factorization that runs to completion gives the exact factor L of a
    nearby matrix: L L^H = m + (NPT_CUT / 2) 1 + E with |E| <= gamma_5 |L|
    |L^H| entrywise (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 10.3; complex arithmetic raises the constant by
    a small factor).  So |E|_2 <= gamma_5 |L|_F^2 = gamma_5 Tr(L L^H),
    O(1e-15) for a state's partial transpose, whose trace is 1, and L L^H
    is PSD: lambda_min(m) >= -NPT_CUT / 2 - O(1e-15).  The eigh that
    decides a point in _robustness is backward stable, off by O(1e-15) on a
    matrix of norm at most 1, so its lambda_min is above -NPT_CUT and it
    would call the point PPT too: no certified point changes its verdict.
    A factorization that fails gives NaN, with no warning, and leaves the
    point to that eigh; so does a PSD point that rounding keeps from
    factoring.
    Every point's verdict comes from its own slice.
    """
    with np.errstate(invalid="ignore"):  # a failed factorization is NaN, and no warning
        chol = _umath_linalg.cholesky_lo(m + _PPT_SHIFT, signature="D->D")
    return ~np.isnan(chol[:, 0, 0].real)


@dataclass(frozen=True)
class RobustnessResult:
    """Outcome of the robustness program.

    ``value`` is the minimal trace of a PSD operator omega such that
    rho + omega has a positive partial transpose; ``certificate_state`` is
    omega normalized to unit trace whenever value > 0.  ``witness`` has
    witness <= 1 and witness^PT >= 0, so ``lower`` = -Tr(witness rho)
    bounds the robustness from below, within 1e-8 of ``value``.  They come
    from the first closed-form bracket that closes within 1e-8, its primal
    omega and its dual witness, with no solve: ``_bracket``'s, from the
    negative eigenvector of rho^PT, or else ``_product_bracket``'s, whose
    omega is a pure product state and whose witness is (|f><f|)^PT / a_f^2
    for one vector f, or else ``_bell_bracket``'s, whose witness is the
    locally rotated Bell witness (1 + sum_ij R_ij sigma_i (x) sigma_j) / 2
    and whose omega is the one its completion finds in the set that
    complementary slackness with it allows, starting at the minimum-norm
    one of that set, or else ``_product_bracket``'s again, from a search of
    _PRODUCT_STEPS_LAST half-step pairs in place of _PRODUCT_STEPS.  Where
    none closes, the interior-point solver's final iterate gives them, the
    witness as Z_2^PT of its dual Z_2.  ``iterations`` counts
    interior-point iterations, so it is 0 on the closed paths as well as
    for a PPT state.  A PPT state has value and lower 0 and no witness.

    By the duality of Brandao, PRA 72, 022310 (2005), ``witness`` is the
    optimal witness of rho with W <= 1: it minimizes Tr(W rho) over every W
    with W <= 1 and W^PT >= 0, which for two qubits is every such witness.
    So no other solver is needed for the optimal witness of a state.  For an
    entangled Bell-diagonal state it is, within the solver's gap, the
    ``bell_witness`` of the largest Bell weight.
    """

    value: float
    certificate_state: DensityMatrix | None
    iterations: int
    lower: float
    witness: HermitianOp | None


def _pauli_blocks(x: np.ndarray) -> np.ndarray:
    """sum_k x_k P_k and sum_k s_k x_k P_k = (sum_k x_k P_k)^PT stacked as (..., 2, 4, 4).

    Each point's blocks come from their own (1, 16) @ (16, 16) products, so
    they do not depend on how many points are formed together.
    """
    return (x[..., None, None, :] @ _QB).reshape(x.shape[:-1] + (2, 4, 4))


def _traces(g: np.ndarray) -> np.ndarray:
    """Re sum_b Tr(F_bk g_b) of a (2, 4, 4) pair, F_1k = P_k and F_2k = P_k^PT: rows conj(Q_b) vec(g_b)."""
    tr = (_QB_CONJ @ g.reshape(2, 16, 1)).real[..., 0]
    return tr[0] + tr[1]


def _schur_matrix(inv_l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """M_kl = Re sum_b Tr(F_bk Z_b F_bl S_b^-1), the HKM Schur matrix, from (2, 4, 4) factors.

    inv_l holds L_b^-1 for S_b = L_b L_b^H and r holds R_b for Z_b = R_b R_b^H.
    The trace is the real inner product of G_bk = L_b^-1 F_bk R_b and G_bl,
    and vec(G_bk) is row k of Q_b kron(L_b^-T, R_b) (Q_b has rows vec(F_bk)),
    so M is the Gram matrix of both blocks' rows side by side: symmetric
    and PSD by construction.  At Z_b = S_b^-1 it is the Hessian of
    -log det S_1 - log det S_2.
    """
    # (a, b, block, c, d) holds L_b^-T[a, c] R_b[b, d]; order C so that the reshape does not copy
    kron = np.multiply(inv_l.transpose(2, 0, 1)[:, None, :, :, None], r.transpose(1, 0, 2)[None, :, :, None, :],
                       order="C")
    g = _Q @ kron.reshape(16, 32)
    g[:, 16:] *= PT_SIGN[:, None]  # F_2k = s_k P_k
    g = g.view(np.float64)  # real and imaginary parts side by side: Re(g g^H) = g g^T
    return g @ g.T


def _schur_solve(mm: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """M dx = rhs; a singular M gives NaN, and is solved once more with 1e-10 of its mean diagonal added."""
    dx = _umath_linalg.solve1(mm, rhs, signature="dd->d")
    if np.isnan(dx[0]):
        jitter = 1e-10 * np.trace(mm) / 16.0
        dx = _umath_linalg.solve1(mm + jitter * np.eye(16), rhs, signature="dd->d")
    return dx


def _cholesky(blocks: np.ndarray):
    """Cholesky factors L of one point's (b, 4, 4) blocks, their inverses, and whether a block is not positive definite.

    The gufuncs fill a block they cannot factor with NaN, so the verdict is
    the one np.linalg.cholesky raises on.
    """
    chol = _umath_linalg.cholesky_lo(blocks, signature="D->D")
    inv_l = _umath_linalg.inv(chol, signature="D->D")
    return chol, inv_l, bool(np.isnan(inv_l[:, 0, 0].real).any())


def _direction(mm, z2, s_inv2, rhs, base):
    """HKM direction from M dx = rhs: dx and d = [dS_1, dS_2, dZ_1, dZ_2] (4, 4, 4).

    dZ_2 = base - Z_2 dS_2 S_2^-1, made Hermitian, with base = target_2 - Z_2
    for the aim target_2 S_2 of Z_2 S_2 (0 for the predictor), and
    dZ_1 = -dZ_2^PT, so Z_1 + Z_2^PT = 1 holds exactly whatever the
    rounding of the solve.
    """
    dx = _schur_solve(mm, rhs)
    d = np.empty((4, 4, 4), dtype=complex)
    d[:2] = _pauli_blocks(dx)
    dz2 = d[3]
    np.subtract(base, z2 @ d[1] @ s_inv2, out=dz2)
    np.add(dz2, dz2.conj().T, out=dz2)
    np.multiply(dz2, 0.5, out=dz2)
    np.negative(_pt_arr(dz2), out=d[2])
    return dx, d


def _max_steps(inv_l, inv_lh, d):
    """Largest primal and dual steps (2,) along d that keep S_1, S_2 and Z_1, Z_2 PSD; inf along a PSD direction.

    X + a D stays PSD while a <= 1 / -lambda_min(L^-1 D L^-H), X = L L^H
    and inv_lh = L^-H: one eigvalsh over the four blocks.
    """
    lam = _umath_linalg.eigvalsh_lo(inv_l @ d @ inv_lh, signature="D->d")[:, 0]
    return 1.0 / np.maximum(0.0, -lam.reshape(2, 2).min(axis=-1))


def _affine_steps(inv_l, inv_lh, d):
    """Primal and dual steps (2,) along the predictor's d, at most 1, from a bound in place of an eigvalsh.

    A = L^-1 D L^-H of each block has lambda_min >= tr/4 - sqrt(3/4 (|A|_F^2 - tr^2/4))
    (Wolkowicz & Styan, Linear Algebra Appl. 29, 471 (1980)), so the steps
    stay feasible and are at most the largest ones.  They only set sigma.
    """
    a = inv_l @ d @ inv_lh
    tr = np.trace(a, axis1=-2, axis2=-1).real
    flat = a.view(np.float64).reshape(4, 1, 32)
    frobenius = (flat @ flat.swapaxes(-1, -2))[:, 0, 0]
    lam = tr / 4.0 - np.sqrt(np.maximum(0.0, 0.75 * (frobenius - tr * tr / 4.0)))
    return 1.0 / np.maximum(1.0, -lam.reshape(2, 2).min(axis=-1))


def _gap(blocks):
    """sum_b Tr(S_b Z_b) of [S_1, S_2, Z_1, Z_2] Hermitian blocks.

    It is the real inner product of the S and Z entries, the first and
    second 64 reals of the contiguous blocks.
    """
    flat = blocks.view(np.float64).reshape(2, 64)
    return (flat[:1] @ flat[1:].T)[0, 0]


def _step(blocks, chol, inv_l, gap):
    """One predictor-corrector step: dx, d = [dS_1, dS_2, dZ_1, dZ_2] (4, 4, 4) and the primal and dual steps (2,).

    blocks is the iterate's [S_1, S_2, Z_1, Z_2], chol and inv_l are its
    Cholesky factors and their inverses, and gap is sum_b Tr(S_b Z_b).
    The step's temporaries end with it, so none outlives the iteration.
    """
    mm = _schur_matrix(inv_l[:2], chol[2:])  # the step's largest temporaries: L^-H comes after
    inv_lh = inv_l.conj().swapaxes(-1, -2)
    s_inv = inv_lh[:2] @ inv_l[:2]
    mu = gap / 8.0
    z2, s_inv2 = blocks[3], s_inv[1]
    # predictor: the affine-scaling direction, toward Z_b S_b = 0
    dx, d = _direction(mm, z2, s_inv2, _MINUS_C, -z2)
    alpha = _affine_steps(inv_l, inv_lh, d)
    mu_aff = _gap(blocks.reshape(2, 2, 4, 4) + alpha[:, None, None, None] * d.reshape(2, 2, 4, 4)) / 8.0
    sigma_mu = np.power(mu_aff / mu, 3) * mu  # numpy's power: the scalar ** rounds differently
    # corrector: toward Z_b S_b = sigma mu - dZ_b dS_b, from the same M
    target = sigma_mu * s_inv - d[2:] @ d[:2] @ s_inv
    dx, d = _direction(mm, z2, s_inv2, _traces(target) + _MINUS_C, target[1] - z2)
    a_max = _max_steps(inv_l, inv_lh, d)
    fraction = _FRACTION + _FRACTION_GAIN * np.minimum(1.0, a_max.min())
    return dx, d, np.minimum(1.0, fraction * a_max)


# a failed LAPACK call marks its block with NaN, which the loop reads; a PSD direction has an infinite step
@np.errstate(invalid="ignore", divide="ignore")
def _central_path(m: np.ndarray, lam_min: float):
    """Solve the robustness SDP of one NPT point by a primal-dual interior-point method.

    m is the 4x4 partial transpose and lam_min its smallest eigenvalue.  The
    primal is the 16 real Pauli coordinates x of omega, with slacks
    S_1 = omega and S_2 = m + omega^PT; the dual is Z_1, Z_2 >= 0 with
    Z_1 + Z_2^PT = 1; the gap is sum_b Tr(S_b Z_b).  The start,
    omega = x_0 * identity with x_0 = 1.5 |lam_min| + 0.05 and
    Z_1 = Z_2 = 1/2, is feasible on both sides, and every step keeps it so.
    Each iteration takes the HKM direction (Helmberg, Rendl, Vanderbei &
    Wolkowicz, SIAM J. Optim. 6, 342 (1996)) with Mehrotra's
    predictor-corrector (SIAM J. Optim. 2, 575 (1992)): the affine-scaling
    predictor sets sigma = (mu_aff / mu)^3, with its steps from a trace
    bound (fewer iterations than its exact steps, 6.8 against 7.3 on
    rank 1-4 Ginibre states, and no eigensolve), and the corrector, solved
    with the same Schur matrix, goes 0.9 + 0.09 min(1, a_p, a_d) of the
    largest feasible steps a_p, a_d, at most 1 (a fixed 0.98 drove about 1
    rank-deficient state in 5,000 onto the boundary of its cone).  S_1,
    S_2, Z_1, Z_2 share one (4, 4, 4) array per iterate, S written into it
    from x, Z by the step that made it, and _cholesky factors it whole.
    Once the gap is below _GAP, returns what a closed bracket stage gives
    its point: omega, its trace (the value), the lower bound -Tr(m Z_2)
    that the dual certifies, the witness Z_2^PT, and the iterations.
    Raises ConvergenceError at the iteration cap or at an iterate that is
    not positive definite, bounded by its last positive definite iterate.
    """
    x = np.zeros(16)
    x[0] = 1.5 * (-lam_min) + 0.05  # omega = x_0 * identity: both slacks positive definite
    shift = np.zeros((2, 4, 4), dtype=complex)
    shift[1] = m
    blocks = np.empty((4, 4, 4), dtype=complex)  # S_1, S_2, Z_1, Z_2
    blocks[2:] = 0.5 * np.eye(4)
    upper, lower = 4.0 * x[0], 0.0  # the bounds of the last positive definite iterate
    for iteration in range(_MAX_ITERATIONS + 1):
        np.add(_pauli_blocks(x), shift, out=blocks[:2])
        chol, inv_l, failed = _cholesky(blocks)
        if failed:
            raise ConvergenceError("robustness iterate is not positive definite", lower=lower, upper=upper)
        gap = _gap(blocks)
        if gap < _GAP:
            omega, z2 = from_pauli_coords(x), blocks[3]
            certified = -(m.reshape(1, 16) @ z2.conj().reshape(16, 1)).real[0, 0]  # -Tr(m Z_2)
            return omega, np.trace(omega).real, certified, _pt_arr(z2), iteration
        upper = 4.0 * x[0]
        lower = max(0.0, upper - gap)
        if iteration == _MAX_ITERATIONS:
            raise ConvergenceError(f"robustness solver hit the {_MAX_ITERATIONS}-iteration cap",
                                   lower=lower, upper=upper)
        dx, d, alpha = _step(blocks, chol, inv_l, gap)
        stack = np.empty_like(blocks)  # the next iterate's: Z from this step, S from x at the top of the loop
        np.add(blocks[2:], alpha[1] * d[2:], out=stack[2:])
        x, blocks = x + alpha[0] * dx, stack


def _pick(c, a, b):
    """np.where of the float executor: a where c holds, else b."""
    return a if c else b


def _run(lines, inputs, *args) -> np.ndarray:
    """Run a kernel stage's lines over the k points of a stack, and return their n outputs as one (k, n) float table.

    Each input is a float64 array, (k, n) for a sequence of n values of
    each point or (k,) for one.  The lines take (sqrt, where), then one
    argument per input, then args.  They use +, -, *, / and sqrt,
    comparisons, &, | and where, and nothing else; IEEE 754 rounds each of
    those correctly, so a point gets the same bits from both executors.
    Below _LANES points they run once per point, on Python floats with
    math.sqrt and _pick; from there, and on an empty stack, once on (k,)
    arrays with np.sqrt and np.where, so every output must be a lane there:
    a constant is written as one computed from an input.  A mask comes back
    as 0.0 or 1.0.  The table is C-ordered on floats and F-ordered on lanes.
    """
    if 0 < len(inputs[0]) < _LANES:
        return np.array([lines(sqrt, _pick, *point, *args) for point in zip(*[a.tolist() for a in inputs])],
                        dtype=float)
    return np.array(lines(np.sqrt, np.where, *[a.T for a in inputs], *args), dtype=float).T


def _bracket_lines(sqrt, where, lam, e):
    """_bracket's bounds of one point or one lane: L, U, U - L < _GAP, 2 a^2, 2 ab, and r00, r11, re and im r01.

    e holds the negative eigenvector's 8 floats, v_ij = e[2 i + j] on
    |i>_I |j>_S.  r = v v^H is its reduced matrix on spin I, and a^2 - b^2,
    the length of r's Bloch vector, is sqrt(D^2 + 4 |r01|^2) with
    D = r00 - r11.  That is as accurate near a = b as hypot: both take the
    same D, and the rest is a sum of squares, with no cancellation, so the
    sum and its sqrt are each a few ulps off in relative terms; where
    sqrt(1 - 4 a^2 b^2) of a unit vector would cancel to about 1e-8, this
    carries only D's own rounding, about an ulp of 1, which is also all that
    1 + (a^2 - b^2) can hold.  hypot guards overflow and underflow, which a
    unit vector's squares meet only below 1e-154, far under that ulp.
    """
    x0, y0, x1, y1, x2, y2, x3, y3 = e
    r00, r11 = (x0 * x0 + y0 * y0) + (x1 * x1 + y1 * y1), (x2 * x2 + y2 * y2) + (x3 * x3 + y3 * y3)
    r01r, r01i = (x0 * x2 + y0 * y2) + (x1 * x3 + y1 * y3), (y0 * x2 - x0 * y2) + (y1 * x3 - x1 * y3)
    delta = r00 - r11
    a2_twice = 1.0 + sqrt(delta * delta + 4.0 * (r01r * r01r + r01i * r01i))
    ab_twice = a2_twice * (2.0 - a2_twice)
    ab_twice = sqrt(where(ab_twice > 0.0, ab_twice, 0.0))  # b = 0 where rounding puts a^2 above 1
    lower = lam * (-2.0 / a2_twice)
    upper = lam * (6.0 / (2.0 + ab_twice) - 4.0)
    return lower, upper, upper - lower < _GAP, a2_twice, ab_twice, r00, r11, r01r, r01i


def _bracket(e: np.ndarray, lam_min: np.ndarray, certificates: bool = True):
    """Closed-form bounds L <= GR <= U of NPT points, the certificate and witness where they close, and r.

    lam_min is the stack of the smallest eigenvalues of the partial
    transposes m, and e the (k, 4) stack of their eigenvectors.  For two
    qubits m has at most one negative eigenvalue lam (Sanpera, Tarrach &
    Vidal, PRA 58, 826 (1998)); let a >= b be the Schmidt coefficients of
    its eigenvector e.
    The dual witness Z_2^PT with Z_2 = |e><e| / a^2 gives L = |lam| / a^2
    (Brandao, PRA 72, 022310 (2005)).  The primal omega = c ((|e><e|)^PT +
    ab 1) with c = |lam| / (1 + ab) is PSD, and so is (rho + omega)^PT =
    m + c |e><e| + c ab 1, so U = Tr omega = |lam| (1 + 4ab) / (1 + ab).
    When e is maximally entangled, as for every state with no local Bloch
    vectors and every pure state, L = U = 2 |lam|.  Everything from e's
    floats to the closure test, e's reduced matrix r on spin I and a^2 - b^2
    included, is the real arithmetic of _bracket_lines, run on plain floats
    below _LANES points and on numpy lanes from there (_run): the same bits
    either way.  Returns L and U of every point, the mask of the points with
    U - L < _GAP (the certificate contract of a finished solve), omega and
    the witness of those points, assembled as whole-stack numpy, or None
    for both when no point closes or ``certificates`` is False, and the
    (k, 4) table of r00, r11 and the real and imaginary parts of r01 of
    every point, where the product searches start.  The points it leaves
    open go on to _product_bracket.
    """
    out = _run(_bracket_lines, (lam_min, np.ascontiguousarray(e).view(np.float64)))
    lower, upper, closed, a2_twice, ab_twice = out[:, :5].T
    closed = closed != 0.0
    if not certificates or not np.count_nonzero(closed):
        return lower, upper, closed, None, None, out[:, 5:]
    vec, ab, neg = e[closed], 0.5 * ab_twice[closed], -lam_min[closed]
    proj_pt = _pt_arr(vec[:, :, None] * vec[:, None, :].conj())  # (|e><e|)^PT
    omega = (neg / (1.0 + ab))[:, None, None] * (proj_pt + ab[:, None, None] * _EYE4)
    return lower, upper, closed, omega, proj_pt * (2.0 / a2_twice[closed])[:, None, None], out[:, 5:]


def _search_lines(sqrt, where, lam, vec, start, steps):
    """The product search of one point or one lane: m^-1's entries, u's and v's Bloch vectors, and the mask.

    lam holds m's eigenvalues l_0 <= ... <= l_3 and vec its eigenvectors,
    entry i of eigenvector k as the floats x_ik, y_ik of vec[8 i + 2 k],
    vec[8 i + 2 k + 1].  m^-1 = s_3 1 + sum_{k<3} (s_k - s_3) v_k v_k^H with
    s_k = 1 / l_k, so eigenvector 3 is not read; its entries c_ij (c_00,
    c_11, c_22, c_33, then re and im of c_01, c_02, c_03, c_12, c_13, c_23)
    give -X / 2, X the Pauli coordinates of m^-1 (X_00 is not needed): the
    search is the same for any positive multiple of X.  start holds e's
    reduced matrix r on spin I as r00, r11 and the real and imaginary parts
    of r01, from _bracket_lines: its Bloch vector, normalized, is n_I.  Each
    of the steps half-step pairs takes g = -(X_0S + X_IS^T n_I) / 2, whose
    direction is n_S, then n_I = h / |h| with h = |g| (-(X_I0 + X_IS n_S) /
    2) = |g| (-X_I0 / 2) - X_IS g / 2, so a step divides once; n_S = g / |g|
    of the last step.
    A zero g makes h zero too.  The mask is False where m has a second
    eigenvalue <= 0, or the start vector, an h or the last g is 0; each
    such divisor is lifted to 1 by adding the test's 0 or 1, so every value
    stays finite and no division fails.
    """
    l0, l1, l2, l3 = lam
    (x00, y00, x01, y01, x02, y02, _, _, x10, y10, x11, y11, x12, y12, _, _,
     x20, y20, x21, y21, x22, y22, _, _, x30, y30, x31, y31, x32, y32, _, _) = vec
    ok = l1 > 0.0
    s3 = 1.0 / (l3 + (l3 == 0.0))
    d0 = 1.0 / (l0 + (l0 == 0.0)) - s3
    d1 = 1.0 / (l1 + (l1 == 0.0)) - s3
    d2 = 1.0 / (l2 + (l2 == 0.0)) - s3
    # (s_k - s_3) v_k, row by row
    p00, q00, p01, q01, p02, q02 = d0 * x00, d0 * y00, d1 * x01, d1 * y01, d2 * x02, d2 * y02
    p10, q10, p11, q11, p12, q12 = d0 * x10, d0 * y10, d1 * x11, d1 * y11, d2 * x12, d2 * y12
    p20, q20, p21, q21, p22, q22 = d0 * x20, d0 * y20, d1 * x21, d1 * y21, d2 * x22, d2 * y22
    p30, q30, p31, q31, p32, q32 = d0 * x30, d0 * y30, d1 * x31, d1 * y31, d2 * x32, d2 * y32
    c00 = s3 + (p00 * x00 + q00 * y00) + (p01 * x01 + q01 * y01) + (p02 * x02 + q02 * y02)
    c11 = s3 + (p10 * x10 + q10 * y10) + (p11 * x11 + q11 * y11) + (p12 * x12 + q12 * y12)
    c22 = s3 + (p20 * x20 + q20 * y20) + (p21 * x21 + q21 * y21) + (p22 * x22 + q22 * y22)
    c33 = s3 + (p30 * x30 + q30 * y30) + (p31 * x31 + q31 * y31) + (p32 * x32 + q32 * y32)
    c01r = (p00 * x10 + q00 * y10) + (p01 * x11 + q01 * y11) + (p02 * x12 + q02 * y12)
    c01i = (q00 * x10 - p00 * y10) + (q01 * x11 - p01 * y11) + (q02 * x12 - p02 * y12)
    c02r = (p00 * x20 + q00 * y20) + (p01 * x21 + q01 * y21) + (p02 * x22 + q02 * y22)
    c02i = (q00 * x20 - p00 * y20) + (q01 * x21 - p01 * y21) + (q02 * x22 - p02 * y22)
    c03r = (p00 * x30 + q00 * y30) + (p01 * x31 + q01 * y31) + (p02 * x32 + q02 * y32)
    c03i = (q00 * x30 - p00 * y30) + (q01 * x31 - p01 * y31) + (q02 * x32 - p02 * y32)
    c12r = (p10 * x20 + q10 * y20) + (p11 * x21 + q11 * y21) + (p12 * x22 + q12 * y22)
    c12i = (q10 * x20 - p10 * y20) + (q11 * x21 - p11 * y21) + (q12 * x22 - p12 * y22)
    c13r = (p10 * x30 + q10 * y30) + (p11 * x31 + q11 * y31) + (p12 * x32 + q12 * y32)
    c13i = (q10 * x30 - p10 * y30) + (q11 * x31 - p11 * y31) + (q12 * x32 - p12 * y32)
    c23r = (p20 * x30 + q20 * y30) + (p21 * x31 + q21 * y31) + (p22 * x32 + q22 * y32)
    c23i = (q20 * x30 - p20 * y30) + (q21 * x31 - p21 * y31) + (q22 * x32 - p22 * y32)
    # -X / 2: X_0S, X_I0 and X_IS row by row, from the traces Tr(m^-1 sigma_a (x) sigma_b)
    s1, s2, s3 = -(c01r + c23r), c01i + c23i, 0.5 * ((c11 - c00) + (c33 - c22))
    i1, i2, i3 = -(c02r + c13r), c02i + c13i, 0.5 * ((c22 - c00) + (c33 - c11))
    a11, a12, a13 = -(c03r + c12r), c03i - c12i, c13r - c02r
    a21, a22, a23 = c03i + c12i, c03r - c12r, c02i - c13i
    a31, a32, a33 = c23r - c01r, c01i - c23i, 0.5 * ((c11 - c00) + (c22 - c33))
    r00, r11, r01r, r01i = start
    n1, n2, n3 = 2.0 * r01r, -2.0 * r01i, r00 - r11
    norm = sqrt(n1 * n1 + n2 * n2 + n3 * n3)
    lifted = norm == 0.0  # a zero divisor, lifted to 1: the point stays open
    norm = norm + lifted
    n1, n2, n3 = n1 / norm, n2 / norm, n3 / norm
    for _ in range(steps):
        g1 = s1 + (a11 * n1 + a21 * n2 + a31 * n3)
        g2 = s2 + (a12 * n1 + a22 * n2 + a32 * n3)
        g3 = s3 + (a13 * n1 + a23 * n2 + a33 * n3)
        size = sqrt(g1 * g1 + g2 * g2 + g3 * g3)
        # |g| (i + A g / |g|): n_I's direction with no division by |g|; a zero g gives zero here too
        h1 = size * i1 + (a11 * g1 + a12 * g2 + a13 * g3)
        h2 = size * i2 + (a21 * g1 + a22 * g2 + a23 * g3)
        h3 = size * i3 + (a31 * g1 + a32 * g2 + a33 * g3)
        norm = sqrt(h1 * h1 + h2 * h2 + h3 * h3)
        zero = norm == 0.0
        lifted = lifted | zero
        norm = norm + zero
        n1, n2, n3 = h1 / norm, h2 / norm, h3 / norm
    zero = size == 0.0
    size = size + zero
    return (c00, c11, c22, c33, c01r, c01i, c02r, c02i, c03r, c03i, c12r, c12i, c13r, c13i, c23r, c23i,
            n1, n2, n3, g1 / size, g2 / size, g3 / size, ok > (lifted | zero))


def _tail_lines(sqrt, where, found, pt):
    """The product bracket of one point or one lane from its search: L, U, the closure mask, w, f and a_f^2.

    found is _search_lines' output, pt the float view of m's 16 entries.
    u and v, the spinors of the Bloch vectors n_I and n_S: of (1 + n_3,
    n_1 + i n_2) and (n_1 - i n_2, 1 - n_3), both |u> up to norm and
    phase, the longer one, normalized.  Then w = u (x) v, f = m^-1 w,
    q = Re <w|f>, U = -1/q where q < 0 and else inf, f's reduced matrix r
    on spin I, a_f^2 = (Tr r + |Bloch vector of r|) / 2, and
    L = -<f|m|f> / a_f^2, NaN where the search's mask is False.  The point
    closes where the mask holds, q < 0 and |U - L| < _GAP.
    """
    (c00, c11, c22, c33, c01r, c01i, c02r, c02i, c03r, c03i, c12r, c12i, c13r, c13i, c23r, c23i,
     n1, n2, n3, t1, t2, t3, ok) = found
    (h00, _, h01r, h01i, h02r, h02i, h03r, h03i, _, _, h11, _, h12r, h12i, h13r, h13i,
     _, _, _, _, h22, _, h23r, h23i, _, _, _, _, _, _, h33, _) = pt
    up = n3 >= 0.0
    scale = 1.0 / sqrt(2.0 + 2.0 * abs(n3))
    big, x, y = (1.0 + abs(n3)) * scale, n1 * scale, n2 * scale
    u0r, u0i, u1r, u1i = where(up, big, x), where(up, 0.0, -y), where(up, x, big), where(up, y, 0.0)
    up = t3 >= 0.0
    scale = 1.0 / sqrt(2.0 + 2.0 * abs(t3))
    big, x, y = (1.0 + abs(t3)) * scale, t1 * scale, t2 * scale
    v0r, v0i, v1r, v1i = where(up, big, x), where(up, 0.0, -y), where(up, x, big), where(up, y, 0.0)
    w0r, w0i = u0r * v0r - u0i * v0i, u0r * v0i + u0i * v0r
    w1r, w1i = u0r * v1r - u0i * v1i, u0r * v1i + u0i * v1r
    w2r, w2i = u1r * v0r - u1i * v0i, u1r * v0i + u1i * v0r
    w3r, w3i = u1r * v1r - u1i * v1i, u1r * v1i + u1i * v1r
    # f = m^-1 w, the entries below the diagonal the conjugates of those above
    f0r = c00 * w0r + (c01r * w1r - c01i * w1i) + (c02r * w2r - c02i * w2i) + (c03r * w3r - c03i * w3i)
    f0i = c00 * w0i + (c01r * w1i + c01i * w1r) + (c02r * w2i + c02i * w2r) + (c03r * w3i + c03i * w3r)
    f1r = (c01r * w0r + c01i * w0i) + c11 * w1r + (c12r * w2r - c12i * w2i) + (c13r * w3r - c13i * w3i)
    f1i = (c01r * w0i - c01i * w0r) + c11 * w1i + (c12r * w2i + c12i * w2r) + (c13r * w3i + c13i * w3r)
    f2r = (c02r * w0r + c02i * w0i) + (c12r * w1r + c12i * w1i) + c22 * w2r + (c23r * w3r - c23i * w3i)
    f2i = (c02r * w0i - c02i * w0r) + (c12r * w1i - c12i * w1r) + c22 * w2i + (c23r * w3i + c23i * w3r)
    f3r = (c03r * w0r + c03i * w0i) + (c13r * w1r + c13i * w1i) + (c23r * w2r + c23i * w2i) + c33 * w3r
    f3i = (c03r * w0i - c03i * w0r) + (c13r * w1i - c13i * w1r) + (c23r * w2i - c23i * w2r) + c33 * w3i
    q = (w0r * f0r + w0i * f0i) + (w1r * f1r + w1i * f1i) + (w2r * f2r + w2i * f2i) + (w3r * f3r + w3i * f3i)
    # conj(f_i) f_j = re_ij + i im_ij: f's reduced matrix and <f|m|f> share them
    e0, e1, e2, e3 = f0r * f0r + f0i * f0i, f1r * f1r + f1i * f1i, f2r * f2r + f2i * f2i, f3r * f3r + f3i * f3i
    re01, im01 = f0r * f1r + f0i * f1i, f0r * f1i - f0i * f1r
    re02, im02 = f0r * f2r + f0i * f2i, f0r * f2i - f0i * f2r
    re03, im03 = f0r * f3r + f0i * f3i, f0r * f3i - f0i * f3r
    re12, im12 = f1r * f2r + f1i * f2i, f1r * f2i - f1i * f2r
    re13, im13 = f1r * f3r + f1i * f3i, f1r * f3i - f1i * f3r
    re23, im23 = f2r * f3r + f2i * f3i, f2r * f3i - f2i * f3r
    r00, r11, r01r, r01i = e0 + e1, e2 + e3, re02 + re13, im02 + im13  # r_01 = conj(re + i im)
    d = r00 - r11
    a2 = 0.5 * ((r00 + r11) + sqrt(d * d + 4.0 * (r01r * r01r + r01i * r01i)))
    fmf = ((h00 * e0 + h11 * e1) + (h22 * e2 + h33 * e3)) + 2.0 * (
        ((h01r * re01 - h01i * im01) + (h02r * re02 - h02i * im02)) +
        ((h03r * re03 - h03i * im03) + (h12r * re12 - h12i * im12)) +
        ((h13r * re13 - h13i * im13) + (h23r * re23 - h23i * im23)))
    neg = q < 0.0
    upper = -1.0 / where(neg, q, -1.0)
    lower = -fmf / (a2 + (a2 == 0.0))
    closed = ok & neg & (abs(upper - lower) < _GAP)
    return (w0r, w0i, w1r, w1i, w2r, w2i, w3r, w3i, f0r, f0i, f1r, f1i, f2r, f2i, f3r, f3i,
            a2, where(ok, lower, nan), where(ok & neg, upper, inf), closed)


def _product_lines(sqrt, where, lam, vec, start, pt, steps):
    """The product bracket of one point or one lane: _tail_lines on _search_lines' output."""
    return _tail_lines(sqrt, where, _search_lines(sqrt, where, lam, vec, start, steps), pt)


def _product_bracket(m: np.ndarray, lam: np.ndarray, vecs: np.ndarray, steps: int, start: np.ndarray,
                     certificates: bool = True):
    """Bounds L <= GR <= U of NPT points from a product vector, and the certificate and witness where they close.

    m is the (k, 4, 4) stack of partial transposes, lam, vecs their
    eigenpairs, lowest first, and start the (k, 4) table of the reduced
    matrices r on spin I of the negative eigenvectors e, from _bracket.  For
    every product vector w = u (x) v with q = <w|m^-1|w> < 0, U = -1/q
    bounds the robustness from above: omega = U |conj(u) (x) v><conj(u) (x)
    v| has omega^PT = U |w><w|, and m + U |w><w| is PSD and singular,
    because det(m + t |w><w|) = det(m) (1 + t q) and m has exactly one
    negative eigenvalue (Sanpera, Tarrach & Vidal 1998).  For every vector
    f, Z_2 = |f><f| / a_f^2 with a_f^2 the larger squared Schmidt
    coefficient of f gives L = -<f|m|f> / a_f^2 (Brandao 2005); here
    f = m^-1 w.
    Where the optimal dual Z_2 has rank one and its vector is not maximally
    entangled, complementary slackness makes the optimal omega such a
    product pure state, and the bounds meet at the w that minimizes q.

    The search for it alternates exact half-steps from the leading Schmidt
    vector of m's negative eigenvector on spin I: v is the lowest
    eigenvector of the 2x2 matrix <u|m^-1|u> (taken on spin I), then u
    that of <v|m^-1|v> (taken on spin S).  With X the Pauli coordinates of
    m^-1 and n_I, n_S the Bloch vectors of u and v, <u|m^-1|u> is
    (X_0S + X_IS^T n_I) . sigma / 4 plus a multiple of 1, so a half-step is
    n_S = -g / |g| with g = X_0S + X_IS^T n_I: one 3x3 product and a
    normalization.  Every point of a call takes the same ``steps``
    half-step pairs, so its result is its own: _PRODUCT_STEPS on every
    point _bracket leaves open, and _PRODUCT_STEPS_LAST, from the same
    start, on the points that _bell_bracket then leaves open too, before
    the solver.  The start is e's reduced matrix r on spin I.

    Everything from the eigenpairs to the closure test is real arithmetic,
    written once: _search_lines (m^-1 and its coordinates, the search),
    then _tail_lines (w, f, q, U, a_f^2, L and the test), the two as
    _product_lines, run on plain Python floats below _LANES points and on
    numpy (k,) lanes from there: the same bits either way (_run).  A point
    is open by an explicit mask where m has a second eigenvalue <= 0, e is
    maximally entangled (a zero start: _bracket closes those points) or a
    half-step meets a zero vector; no division meets a zero and no NaN is
    made on the way.  m^-1 comes from three eigenvectors and the identity,
    so its bits are the kernel's own, not those of a stacked matmul.
    Returns L and U of every point, the mask of the points with
    |U - L| < _GAP, and omega and the witness of those points, assembled
    as whole-stack numpy, or None for both when no point closes or
    ``certificates`` is False.  U is inf where q >= 0 or the mask is False,
    and L is NaN where the mask is False.  The points the first search
    leaves open go on to _bell_bracket, those the longer one leaves open to
    _central_path.
    """
    k = len(m)
    vec = np.ascontiguousarray(vecs).reshape(k, 16).view(np.float64)
    pt = np.ascontiguousarray(m).reshape(k, 16).view(np.float64)
    out = _run(_product_lines, (lam, vec, start, pt), steps)
    lower, upper, closed = out[:, 17], out[:, 18], out[:, 19] != 0.0
    if not certificates or not np.count_nonzero(closed):
        return lower, upper, closed, None, None
    out = out[closed]
    wf = out[:, :16].view(complex).reshape(-1, 2, 4)  # w, then f
    proj_pt = _pt_arr(wf[..., :, None] * wf[..., None, :].conj())  # (|w><w|)^PT, then (|f><f|)^PT
    return lower, upper, closed, out[:, 18, None, None] * proj_pt[:, 0], proj_pt[:, 1] / out[:, 16, None, None]


def _completion_tables():
    """The Bell completion's constant tables, in the frame where the Bell witness is W_0 = (1 + XX + YY + ZZ) / 2.

    W_0's -1 eigenvector is psi-, with g_perp = (|00>, |11>, (|01> + |10>) /
    sqrt 2) spanning its complement, and W_0^PT = 2 |phi+><phi+|, with
    f_perp = (|01>, |10>, (|00> - |11>) / sqrt 2) spanning phi+'s.  Row k of
    the (32, 36) table maps Pauli coordinates to the two compressions, held
    as two complex 3x3 blocks in their real view: coordinate k of omega
    (rows 0-15) to g_perp^H P_k g_perp / 4 and f_perp^H P_k^PT f_perp / 4,
    and coordinate k of rho (rows 16-31) to the second alone.  The 5 omegas
    with omega psi- = 0 and omega^PT phi+ = 0 are the correlation blocks
    sum_ij S_ij sigma_i (x) sigma_j / 4 with S real, symmetric and
    traceless; the (5, 9) basis holds an orthonormal basis of those S, and
    the directions hold their compressions and, last, those of -t 1 (-1 in
    both blocks), as rows of 36 reals and side by side per block.
    """
    s = np.sqrt(0.5)
    g_perp = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, s, s, 0]], dtype=complex).T
    f_perp = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [s, 0, 0, -s]], dtype=complex).T
    table = np.zeros((32, 2, 3, 3), dtype=complex)
    table[:16, 0] = g_perp.conj().T @ TWO_SPIN_PAULIS @ g_perp / 4.0
    table[:16, 1] = table[16:, 1] = PT_SIGN[:, None, None] * (f_perp.conj().T @ TWO_SPIN_PAULIS @ f_perp) / 4.0
    basis = np.zeros((5, 3, 3))
    basis[0, 0, 1] = basis[0, 1, 0] = basis[1, 0, 2] = basis[1, 2, 0] = basis[2, 1, 2] = basis[2, 2, 1] = s
    basis[3, 0, 0], basis[3, 1, 1] = s, -s
    basis[4] = np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    directions = np.empty((6, 2, 3, 3), dtype=complex)
    correlations = np.zeros((5, 4, 4))
    correlations[:, 1:, 1:] = basis
    directions[:5] = np.tensordot(correlations.reshape(5, 16), table[:16], 1)
    directions[5] = -np.eye(3)
    tables = (np.ascontiguousarray(table.reshape(32, 18)).view(float), basis.reshape(5, 9),
              directions.reshape(6, 18).view(float), directions.transpose(1, 2, 0, 3).reshape(2, 3, 18))
    for t in tables:
        t.setflags(write=False)
    return tables


_COMPLETION_TABLE, _CORRELATION_BASIS, _DIRECTIONS_FLAT, _DIRECTIONS = _completion_tables()
# the identity in both blocks, in their real view: the inner product with a block pair is its trace
_EYES = np.ascontiguousarray(np.broadcast_to(np.eye(3, dtype=complex), (2, 3, 3)).reshape(18)).view(float)


def _newton_lines(sqrt, where, dec2, dz, z, weight, first):
    """After the solve of a Bell completion step, of one point or one lane: its z and weight, and whether it goes on.

    dec2 = rhs . dz, the squared Newton decrement lambda^2, counts as 0 where
    rounding puts it below 0 (a full step either way); z moves 1 / (1 +
    lambda) of dz while lambda > 1/4, else all of it.  A NaN in the moved z
    (a failed Cholesky or solve) stops the point at its last z, as do t >= 0
    and, after the first step, a t four more such steps would not lift to 0.
    """
    decrement = sqrt(where(dec2 > 0.0, dec2, 0.0))
    a = where(decrement > 0.25, 1.0 / (1.0 + decrement), 1.0)  # the step length
    (d0, d1, d2, d3, d4, d5), (z0, z1, z2, z3, z4, z5) = dz, z
    m0, m1, m2, m3, m4, m5 = z0 + a * d0, z1 + a * d1, z2 + a * d2, z3 + a * d3, z4 + a * d4, z5 + a * d5
    failed = (m0 != m0) | (m1 != m1) | (m2 != m2) | (m3 != m3) | (m4 != m4) | (m5 != m5)  # a NaN
    t = where(failed, z5, m5)
    keep = ((t < 0.0) > failed) & (first | (t + 4.0 * (t - z5) >= 0.0))
    return (where(failed, z0, m0), where(failed, z1, m1), where(failed, z2, m2), where(failed, z3, m3),
            where(failed, z4, m4), t, _COMPLETION_GROWTH * weight, keep)


def _bell_completion(yx: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Pauli coordinates (k, 4, 4) of an omega that complementary slackness with W allows, PSD where one was found.

    yx (k, 2, 4, 4) holds the coordinates of the minimum-norm omega, then
    rho's, and r the rotation R of _bell_bracket.  In the frame where W is
    W_0 (spin S's coordinates turned by R^T), omega = omega_0 + sum_ij S_ij
    sigma_i (x) sigma_j / 4 with S real, symmetric and traceless keeps
    omega g = 0 and (m + omega^PT) f = 0 and Tr omega = L, so omega >= 0 and
    m + omega^PT >= 0 ask only that the compressions A = G^H omega G and
    B = F^H (m + omega^PT) F be PSD, with G and F orthonormal bases of the
    complements of g and f.  With c the 5 coordinates of S, a phase-1
    barrier method maximizes t subject to A(c) >= t and B(c) >= t: at most
    _COMPLETION_STEPS damped Newton steps on -w t - log det(A - t) - log
    det(B - t) from c = 0 and t = 2 lambda_min of the minimum-norm
    compressions, w starting at Tr (A - t)^-1 + Tr (B - t)^-1 and growing
    by _COMPLETION_GROWTH per step.  Each step's LAPACK and matmul calls
    are whole-stack numpy on the points still stepping, and what follows
    its solve is _newton_lines, on floats below _LANES such points and on
    lanes from there (_run).  A point whose minimum-norm compressions are
    PSD takes no step and keeps their coordinates bit for bit: only the
    points that step take the correction sum_j c_j S_j R (a zero one would
    turn a -0.0 into +0.0).  Every point's numbers come from its own
    slices.  On near-singular compressions one Newton step turns a last-bit
    change of R or y into a move of up to about 3e-11 in omega, so another
    kernel or BLAS may move the certificates of the points that step.  The
    caller checks the result with the full 4x4 eigvalsh.
    """
    rot = np.zeros((len(yx), 4, 4))
    rot[:, 0, 0] = 1.0
    rot[:, 1:, 1:] = r.swapaxes(-1, -2)
    base = (yx @ rot[:, None]).reshape(-1, 1, 32) @ _COMPLETION_TABLE  # both in W_0's frame, in their real view
    lam = _umath_linalg.eigvalsh_lo(base.view(complex).reshape(-1, 2, 3, 3), signature="D->d")[..., 0].min(axis=-1)
    stepped = (lam < 0.0).nonzero()[0]
    if not len(stepped):  # no point steps: every omega is the minimum-norm one
        return yx[:, 0]
    z = np.zeros((len(stepped), 6))  # c, then t, of the points that step
    z[:, 5] = 2.0 * lam[stepped]
    points, zp, base, weight = slice(None), z, base[stepped], None  # the rows of z still stepping
    with np.errstate(invalid="ignore", divide="ignore"):  # a failed Cholesky or solve gives NaN, and no warning
        for step in range(_COMPLETION_STEPS):
            blocks = (base + zp[:, None] @ _DIRECTIONS_FLAT).view(complex).reshape(-1, 2, 3, 3)
            inv_l = _umath_linalg.inv(_umath_linalg.cholesky_lo(blocks, signature="D->D"), signature="D->D")
            # L^-1 C_j L^-H, six per matmul: the barrier's Hessian is their Gram matrix, its gradient minus their traces
            left = (inv_l @ _DIRECTIONS).reshape(-1, 2, 3, 6, 3).swapaxes(2, 3).reshape(-1, 2, 18, 3)
            scaled = (left @ inv_l.conj().swapaxes(-1, -2)).reshape(-1, 2, 6, 9).swapaxes(1, 2)
            gram = scaled.reshape(-1, 6, 18).view(float)
            rhs = gram @ _EYES
            weight = -rhs[:, 5] if weight is None else weight  # the t-gradient is 0 at the start
            rhs[:, 5] += weight
            dz = _umath_linalg.solve1(gram @ gram.swapaxes(-1, -2), rhs, signature="dd->d")
            out = _run(_newton_lines, ((rhs[:, None] @ dz[:, :, None])[:, 0, 0], dz, zp, weight), not step)
            z[points], weight, rows = out[:, :6], out[:, 6], out[:, 7].nonzero()[0]
            if len(rows) < len(out):  # the points that stop keep their rows of z
                if not len(rows):
                    break
                points = rows if isinstance(points, slice) else points[rows]
                base, weight = base[rows], weight[rows]
            zp = z[points]
    y = yx[:, 0].copy()
    y[stepped, 1:, 1:] = yx[stepped, 0, 1:, 1:] + (z[:, None, :5] @ _CORRELATION_BASIS).reshape(-1, 3, 3) @ r[stepped]
    return y


def _coord_lines(sqrt, where, pt):
    """rho's 16 Pauli coordinates x_ab = Tr(rho sigma_a (x) sigma_b) of one point or one lane, from m = rho^PT.

    pt is the float view of m's 16 entries.  x_ab = s_a Tr(P_ab m), with
    s_a = -1 where a is Y: the four signed entries of m added to +0 in
    pauli_coords' order, then negated where s_a = -1, so the bits are those
    of pauli_coords(m) * PT_SIGN.
    """
    (m00r, _, m01r, m01i, m02r, m02i, m03r, m03i, m10r, m10i, m11r, _, m12r, m12i, m13r, m13i,
     m20r, m20i, m21r, m21i, m22r, _, m23r, m23i, m30r, m30i, m31r, m31i, m32r, m32i, m33r, _) = pt
    return (0.0 + m00r + m11r + m22r + m33r, 0.0 + m10r + m01r + m32r + m23r,
            0.0 + m10i - m01i + m32i - m23i, 0.0 + m00r - m11r + m22r - m33r,
            0.0 + m20r + m31r + m02r + m13r, 0.0 + m30r + m21r + m12r + m03r,
            0.0 + m30i - m21i + m12i - m03i, 0.0 + m20r - m31r + m02r - m13r,
            -(0.0 + m20i + m31i - m02i - m13i), -(0.0 + m30i + m21i - m12i - m03i),
            -(0.0 - m30r + m21r + m12r - m03r), -(0.0 + m20i - m31i - m02i + m13i),
            0.0 + m00r + m11r - m22r - m33r, 0.0 + m10r + m01r - m32r - m23r,
            0.0 + m10i - m01i - m32i + m23i, 0.0 + m00r - m11r - m22r + m33r)


def _bell_lines(sqrt, where, x, u, s, vt):
    """The Bell bracket of one point or one lane: the minimum-norm omega's coordinates, rho's, W's, and R.

    x holds rho's 16 coordinates x_ab (row-major in a, b), and u, s, vt the
    SVD T = U diag(s) V^T of the correlation matrix T_ij = x_ij, i, j >= 1,
    U and V^T row-major.  det U and det V^T are the triple products of
    their rows, each +-1 up to rounding, so d = -1 where they have one sign
    and +1 where not, and R = -U diag(1, 1, d) V^T, with d folded into U's
    last column.  L = (s_1 + s_2 + d s_3 - x_00) / 2.  The coordinates y
    of 4 omega, with a_i = x_i0 and b_j = x_0j: y_00 = L, y_i0 = -(a +
    R b)_i / 2, y_0j = -(R^T a + b)_j / 2 and y_ij = L R_ij / 3 - (T -
    (R T^T) R)_ij / 4, each product summed in index order.  W's are
    w_00 = 1/2, w_ij = R_ij / 2 and 0 else, the zeros d - d, so that every
    output is a lane.  Returns y, x as given, w, then R row-major.
    """
    x00, b1, b2, b3, a1, t11, t12, t13, a2, t21, t22, t23, a3, t31, t32, t33 = x
    u11, u12, u13, u21, u22, u23, u31, u32, u33 = u
    s1, s2, s3 = s
    v11, v12, v13, v21, v22, v23, v31, v32, v33 = vt
    det_u = u11 * (u22 * u33 - u23 * u32) - u12 * (u21 * u33 - u23 * u31) + u13 * (u21 * u32 - u22 * u31)
    det_v = v11 * (v22 * v33 - v23 * v32) - v12 * (v21 * v33 - v23 * v31) + v13 * (v21 * v32 - v22 * v31)
    d = where(det_u * det_v > 0.0, -1.0, 1.0)
    u13, u23, u33 = u13 * d, u23 * d, u33 * d
    r11, r12, r13 = (-(u11 * v11 + u12 * v21 + u13 * v31), -(u11 * v12 + u12 * v22 + u13 * v32),
                     -(u11 * v13 + u12 * v23 + u13 * v33))
    r21, r22, r23 = (-(u21 * v11 + u22 * v21 + u23 * v31), -(u21 * v12 + u22 * v22 + u23 * v32),
                     -(u21 * v13 + u22 * v23 + u23 * v33))
    r31, r32, r33 = (-(u31 * v11 + u32 * v21 + u33 * v31), -(u31 * v12 + u32 * v22 + u33 * v32),
                     -(u31 * v13 + u32 * v23 + u33 * v33))
    low = 0.5 * (s1 + s2 + d * s3 - x00)
    y01, y02, y03 = (-0.5 * (a1 * r11 + a2 * r21 + a3 * r31 + b1), -0.5 * (a1 * r12 + a2 * r22 + a3 * r32 + b2),
                     -0.5 * (a1 * r13 + a2 * r23 + a3 * r33 + b3))
    y10, y20, y30 = (-0.5 * (a1 + (r11 * b1 + r12 * b2 + r13 * b3)), -0.5 * (a2 + (r21 * b1 + r22 * b2 + r23 * b3)),
                     -0.5 * (a3 + (r31 * b1 + r32 * b2 + r33 * b3)))
    # P = R T^T, row by row, then y_ij = L R_ij / 3 - (T - P R)_ij / 4
    p11, p12, p13 = (r11 * t11 + r12 * t12 + r13 * t13, r11 * t21 + r12 * t22 + r13 * t23,
                     r11 * t31 + r12 * t32 + r13 * t33)
    p21, p22, p23 = (r21 * t11 + r22 * t12 + r23 * t13, r21 * t21 + r22 * t22 + r23 * t23,
                     r21 * t31 + r22 * t32 + r23 * t33)
    p31, p32, p33 = (r31 * t11 + r32 * t12 + r33 * t13, r31 * t21 + r32 * t22 + r33 * t23,
                     r31 * t31 + r32 * t32 + r33 * t33)
    third = low / 3.0
    y11 = third * r11 - 0.25 * (t11 - (p11 * r11 + p12 * r21 + p13 * r31))
    y12 = third * r12 - 0.25 * (t12 - (p11 * r12 + p12 * r22 + p13 * r32))
    y13 = third * r13 - 0.25 * (t13 - (p11 * r13 + p12 * r23 + p13 * r33))
    y21 = third * r21 - 0.25 * (t21 - (p21 * r11 + p22 * r21 + p23 * r31))
    y22 = third * r22 - 0.25 * (t22 - (p21 * r12 + p22 * r22 + p23 * r32))
    y23 = third * r23 - 0.25 * (t23 - (p21 * r13 + p22 * r23 + p23 * r33))
    y31 = third * r31 - 0.25 * (t31 - (p31 * r11 + p32 * r21 + p33 * r31))
    y32 = third * r32 - 0.25 * (t32 - (p31 * r12 + p32 * r22 + p33 * r32))
    y33 = third * r33 - 0.25 * (t33 - (p31 * r13 + p32 * r23 + p33 * r33))
    zero = d - d
    return (low, y01, y02, y03, y10, y11, y12, y13, y20, y21, y22, y23, y30, y31, y32, y33, *x,
            0.5 + zero, zero, zero, zero, zero, 0.5 * r11, 0.5 * r12, 0.5 * r13,
            zero, 0.5 * r21, 0.5 * r22, 0.5 * r23, zero, 0.5 * r31, 0.5 * r32, 0.5 * r33,
            r11, r12, r13, r21, r22, r23, r31, r32, r33)


def _bell_bracket(m: np.ndarray, certificates: bool = True):
    """Bounds L <= GR <= U from the locally optimal Bell witness, and the certificate and witness where they close.

    m is the (k, 4, 4) stack of partial transposes.  With x_ab = Tr(rho
    sigma_a (x) sigma_b), T = x_ij (i, j >= 1) the correlation matrix and
    T = U diag(s) V^T its SVD, R = -U diag(1, 1, d) V^T with d = det(-U V^T)
    = -det U det V^T, +-1, is the rotation that minimizes tr(R^T T) (R. & M.
    Horodecki, PRA 54, 1838 (1996)); the sign d is what makes det R = 1.
    W = (1 + sum_ij R_ij sigma_i (x) sigma_j) / 2 is then a local rotation
    of (1 + XX + YY + ZZ) / 2: eigenvalues (1, 1, 1, -1), so W <= 1, and
    W^PT = 2 |f><f| with f maximally entangled.  So L = -Tr(W rho) = (s_1 +
    s_2 + d s_3 - Tr rho) / 2 bounds the robustness of every state from
    below (Brandao, PRA 72, 022310 (2005)).
    Where W is the optimal witness, complementary slackness asks of the
    optimal omega that omega g = 0, with g the -1 eigenvector of W, and
    (m + omega^PT) f = 0: 16 real equations in omega's Pauli coordinates,
    of rank 11, on whose solutions Tr omega = L.  Their minimum-norm
    least-squares solution (a solution wherever they have one, as where W
    is optimal) is, in the coordinates y_ab of 4 omega, with a and b the
    Bloch vectors of spins I and S:
        y_00 = L, y_i0 = -(a + R b)_i / 2, y_0j = -(R^T a + b)_j / 2,
        y_ij = L R_ij / 3 - (T - R T^T R)_ij / 4.
    _bell_completion starts from that omega, leaves it as it is where its
    compressions are already PSD, and else searches the same set for one
    whose compressions are.  With eps = max(0, -lambda_min(omega),
    -lambda_min(m + omega^PT)) of the omega it returns, from one full 4x4
    eigvalsh, omega + eps 1 is a primal certificate, so U = L + 4 eps.
    Returns L and U of every point, the mask of the points with U - L <
    _GAP, and, of those points, omega + eps 1 and W's 16 Pauli coordinates
    (W = from_pauli_coords of them, which _robustness builds where it
    returns certificates), or None for both when no point closes or
    ``certificates`` is False.  Every point's numbers come from its own
    slices.  rho's coordinates (_coord_lines), and d, R, L, the minimum-norm
    omega and W's coordinates from them and the SVD factors (_bell_lines),
    are kernel lines, on floats below _LANES points and on lanes from there
    (_run), as is what follows each Newton solve of the completion
    (_newton_lines); the SVD, the completion's LAPACK calls and matmuls, the
    eigvalsh check and the closed points' omega are whole-stack numpy.
    """
    k = len(m)
    x = _run(_coord_lines, (np.ascontiguousarray(m).reshape(k, 16).view(np.float64),))
    u, s, vt = _svd(x.reshape(k, 4, 4)[:, 1:, 1:])
    out = _run(_bell_lines, (x, u.reshape(k, 9), s, vt.reshape(k, 9)))
    # the minimum-norm omega's coordinates, then rho's: C-ordered on either executor, so the completion's matmuls
    # see one layout and give a point the same bits alone and in a stack
    yx = np.ascontiguousarray(out[:, :32]).reshape(k, 2, 4, 4)
    blocks = _pauli_blocks(0.25 * _bell_completion(yx, out[:, 48:].reshape(k, 3, 3)).reshape(k, 16))
    blocks[:, 1] += m  # omega and m + omega^PT
    eps = np.maximum(0.0, -_umath_linalg.eigvalsh_lo(blocks, signature="D->d")[..., 0].min(axis=-1))
    lower = out[:, 0]
    upper = lower + 4.0 * eps
    closed = upper - lower < _GAP
    if not certificates or not np.count_nonzero(closed):
        return lower, upper, closed, None, None
    return lower, upper, closed, blocks[closed, 0] + eps[closed, None, None] * _EYE4, out[closed, 32:48]


def _robustness(m: np.ndarray, certificates: bool = True):
    """Generalized robustness of each state of a stack, from the (k, 4, 4) stack m of their partial transposes.

    One eigh of m decides and starts every point: for two qubits m has at
    most one negative eigenvalue (Sanpera, Tarrach & Vidal, PRA 58, 826
    (1998)), so a point whose lambda_min is >= -NPT_CUT is PPT, 0 without a
    solve, and the eigenpairs of the others feed every stage.  The NPT
    points meet the stages in turn, each on the rows that the stages before
    it left open, and take the first that closes to below the solver's gap:
    _bracket, from the negative eigenvector of its partial transpose (every
    state with no local Bloch vectors, every pure state and any state with
    a tiny |lambda_min|), which takes every NPT point and hands on the
    reduced matrices of their eigenvectors, where both product searches
    start; _product_bracket with _PRODUCT_STEPS half-step pairs (most
    states whose optimal omega is a product pure state); _bell_bracket with
    its completion (nearly every state whose optimal witness is a locally
    rotated Bell witness); and _product_bracket again with the longer search
    of _PRODUCT_STEPS_LAST pairs from the same start, for the product-class
    points the others leave open.  A point left open keeps the tightest of
    the stages' bounds.  The open rows are a slice of all of them until a
    point closes, and m and the eigenpairs themselves serve where every
    point is NPT, so that a one-state call gathers nothing.  The last stage
    is _central_path, the HKM predictor-corrector method (Helmberg, Rendl,
    Vanderbei & Wolkowicz 1996; Mehrotra 1992) from a feasible start, which
    solves the points no bracket closes one at a time, in index order, each
    to a duality gap below 1e-8.  The first point whose solve fails ends the
    call, and later points stay unsolved: its ConvergenceError carries the
    tightest of the solver's and the bracket stages' bounds (the Bell
    bracket's U from its completed omega).
    Returns the values, the interior-point iterations (0 on the closed
    paths), the optimal omegas (zero for PPT points), that first failure as
    (index, ConvergenceError) or None, the dual fields (the lower bounds
    -Tr(W rho) and the witnesses W, zero for PPT points), and each point's
    int8 route, named by _ROUTES: 0 PPT, 1-4 the stage that first closed it
    (its place in the stage tuple: _bracket, the product search, the Bell
    bracket, the longer search), 5 solved, and -1 left open by a failed
    solve, that point's and every later one's.  The omegas and witnesses are
    built, W from the Bell bracket's coordinates included, only where
    ``certificates`` holds, as generalized_robustness asks; relax.sweep,
    which returns the values alone, passes False, and gets None for both,
    with every other output the same, bit for bit.
    """
    lam, vecs = _eigh(m)
    npt = (lam[:, 0] < -NPT_CUT).nonzero()[0]
    values, lower = np.zeros(len(m)), np.zeros(len(m))
    iterations, route = np.zeros(len(m), dtype=int), np.zeros(len(m), dtype=np.int8)
    omega = witness = None
    if certificates:
        omega, witness = np.zeros(m.shape, dtype=complex), np.zeros(m.shape, dtype=complex)
    if not len(npt):
        return values, iterations, omega, None, lower, witness, route
    if len(npt) < len(m):
        m, lam, vecs = m[npt], lam[npt], vecs[npt]
    lam_npt = lam[:, 0]
    *schmidt, start = _bracket(vecs[..., 0], lam_npt, certificates)  # every NPT point: the first stage's rows are all
    stages = (lambda rows: schmidt,
              lambda rows: _product_bracket(m[rows], lam[rows], vecs[rows], _PRODUCT_STEPS, start[rows], certificates),
              lambda rows: _bell_bracket(m[rows], certificates),
              lambda rows: _product_bracket(m[rows], lam[rows], vecs[rows], _PRODUCT_STEPS_LAST, start[rows],
                                            certificates))
    rows, low, high = slice(None), -np.inf, np.inf  # the open rows of the NPT points, and their bounds
    for code, stage in enumerate(stages, 1):
        low_b, high_b, closed, closed_omega, closed_witness = stage(rows)
        if not np.count_nonzero(closed):
            low, high = np.fmax(low, low_b), np.fmin(high, high_b)
            continue
        points, value = npt[rows][closed], high_b[closed]
        values[points], route[points] = value, code
        lower[points] = np.minimum(low_b[closed], value)  # L can exceed U by rounding
        if certificates:  # the Bell bracket hands out W's coordinates, the others W itself
            omega[points] = closed_omega
            witness[points] = from_pauli_coords(closed_witness) if _ROUTES[code] == "bell" else closed_witness
        if len(points) == len(closed):  # every point closed: a later stage costs about as much on no point
            return values, iterations, omega, None, lower, witness, route
        rest = ~closed
        rows = rest.nonzero()[0] if isinstance(rows, slice) else rows[rest]
        low, high = np.fmax(low, low_b)[rest], np.fmin(high, high_b)[rest]
    for j, row in enumerate(np.arange(len(npt))[rows]):
        i = npt[row]
        try:
            solved_omega, values[i], lower[i], solved_witness, iterations[i] = _central_path(m[row], lam_npt[row])
        except ConvergenceError as exc:  # the first failing point ends the call
            failure = int(i), ConvergenceError(str(exc), lower=max(exc.lower, float(low[j])),
                                               upper=min(exc.upper, float(high[j])))
            route[npt[rows][j:]] = -1
            return values, iterations, omega, failure, lower, witness, route
        route[i] = 5
        if certificates:
            omega[i], witness[i] = solved_omega, solved_witness
    return values, iterations, omega, None, lower, witness, route


def generalized_robustness(rho: DensityMatrix) -> RobustnessResult:
    """minimize Tr(omega) over omega >= 0 with (rho + omega)^PT >= 0.

    Separability of two qubits is exactly positivity of the partial
    transpose, so this value is the minimal weight of an arbitrary state that
    must be mixed in before rho turns separable.  One eigh of rho^PT decides
    and starts the point: lambda_min >= -NPT_CUT is PPT, value 0, and its
    eigenpairs feed every stage below.  When the closed-form
    bracket L = |lam| / a^2 <= GR <= U = |lam| (1 + 4ab) / (1 + ab) of the
    negative eigenvalue lam of rho^PT and the Schmidt coefficients a >= b
    of its eigenvector (Sanpera, Tarrach & Vidal 1998; Brandao 2005)
    closes within 1e-8, as for every state with no local Bloch vectors and
    every pure state, the result is U with L as ``lower`` and no iteration.
    Else a search over product vectors w = u (x) v gives a second bracket:
    U = -1/q with q = <w|(rho^PT)^-1|w> < 0, from the primal omega =
    U |conj(u) (x) v><conj(u) (x) v|, and L from the dual witness of
    f = (rho^PT)^-1 w; where it closes within 1e-8, as for most states whose
    optimal omega is a product pure state, the result is that U with no
    iteration.  Else the Bell witness W = (1 + sum_ij R_ij sigma_i (x)
    sigma_j) / 2, with R the rotation that minimizes tr(R^T T) over the
    correlation matrix T (Horodecki 1996), gives a third bracket: L =
    -Tr(W rho), and U = L + 4 eps from an omega that complementary
    slackness with W allows, lifted by eps 1 until it is feasible: a
    phase-1 barrier Newton method starts at the minimum-norm omega of that
    5-dimensional set and, where it is not PSD with (rho + omega)^PT,
    searches the set for one that is, in at most 20 steps; one eigvalsh
    check of the omega it ends at gives eps.  Where it closes within 1e-8,
    as for nearly every state whose optimal witness is a rotated Bell
    witness, the result is that U with no iteration.  Else the product
    search runs again, 100 half-step pairs in place of 12, and where its
    bracket closes within 1e-8, as for the product-class states the first
    search leaves open, the result is its U with no iteration.  Otherwise, as a fallback, it is solved as a
    semidefinite program by a feasible-start primal-dual interior-point
    method: HKM directions (Helmberg, Rendl, Vanderbei & Wolkowicz 1996)
    with Mehrotra's predictor-corrector (1992), from omega a multiple of the identity and
    the dual Z_1 = Z_2 = 1/2, until the duality gap is below 1e-8.  Every
    iterate is strictly feasible, so the certificate always verifies, and
    the final dual iterate gives the result's ``lower`` bound and
    ``witness``.  A solve that fails raises ``ConvergenceError`` with the
    tightest of the solver's and the brackets' bounds.  This is the
    one-point case of the stages that ``relax.sweep`` runs over a whole
    time grid, on the partial transposes it already holds, where the solver
    takes its points one at a time as it does here; only this function
    builds the certificate and witness matrices.  Each bracket's
    arithmetic from its decompositions to its bounds (the first bracket's
    Schmidt coefficients included, and the Bell witness's sign, rotation and
    minimum-norm omega) and what follows each solve of the Bell completion
    run here on plain Python floats, and in a sweep on numpy lanes once a
    stack reaches _LANES points: the same lines, so the same bits.
    """
    _two_spin_state(rho, "generalized_robustness")
    values, iterations, omega, failure, lower, witness, _ = _robustness(_pt_arr(rho.matrix)[None])
    if failure:
        raise failure[1]
    if values[0] == 0:
        return RobustnessResult(value=0.0, certificate_state=None, iterations=0, lower=0.0, witness=None)
    value = float(values[0])
    return RobustnessResult(
        value=value,
        certificate_state=_trusted_state(omega[0] / value),
        iterations=int(iterations[0]),
        lower=float(lower[0]),
        witness=_trusted_op(witness[0]),  # Z_2^PT or a bracket's W: Hermitian as built
    )


def gr_oracle_bd(params: BellDiagonalParams) -> float:
    """Closed-form robustness of a Bell-diagonal state: max(0, 2*lambda_max - 1).

    lambda_max is the largest Bell weight.  The formula is validated against
    a brute-force search over mixing states in the test suite before anything
    relies on it.
    """
    return max(0.0, 2.0 * max(bell_probabilities(params)) - 1.0)


def negativity(rho: DensityMatrix) -> float:
    """Sum of |negative eigenvalues| of the partial transpose."""
    _two_spin_state(rho, "negativity")
    eigs = _eigvalsh(_pt_arr(rho.matrix))
    return float(-eigs[eigs < 0].sum())
