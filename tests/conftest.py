"""Shared helpers for the test suite, and the one home of what the robustness tests share."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from witnesslab import BellDiagonalParams, BellKind, DensityMatrix, RelaxationParams, bell_diagonal, bell_state, optim
from witnesslab import grape_target_pipeline, partial_transpose, pauli_vector, pseudo_pure, relax
from witnesslab.qmat import _eigh, _pt_arr, from_pauli_coords
from witnesslab.states import PAULI_LABELS

# the solver stops at a duality gap below 1e-8, and a bracket closes within it
GAP = 1e-8
RESIDUAL = 1e-9
PAPER_T2 = RelaxationParams(t1_i=10.0, t2_i=0.31, t1_s=10.0, t2_s=0.11)
# the names of optim._robustness's route codes, indexed by them (-1, failed, indexes the last): ROUTES[route] == "bell"
ROUTES = np.array(optim._ROUTES)


def random_density_matrix(rng, rank=4):
    """Ginibre-distributed density matrix, full rank unless a lower rank is asked for."""
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def entangled_ginibre(seed):
    """The first full-rank Ginibre state of a seeded stream with lambda_min(rho^PT) < -0.05.

    Its negative eigenvector is not maximally entangled, but that alone does
    not send it to the interior-point solver: one of the closed-form brackets
    closes nearly every such state, and the route optim._robustness returns
    names which.  At t = 0 seed 8 takes the product route, seeds 13 and 20,
    Bell class, the Bell route (its completion closes them), and of seeds
    1-400 only 83, 268 and 385, product class, where the Bell witness is not
    optimal, take the longer search: none reaches the solver.  Of the
    200-point relaxation sweep to 0.6 s under the paper's T2s, the longer
    search takes 2 points of seed 1, none of seeds 2 and 3, and every point
    of seed 268 up to about 2 ms.  A test that drives the solver loop uses
    268 (or 83, 385) with optim._PRODUCT_STEPS_LAST pinned to
    optim._PRODUCT_STEPS, so that the longer search only repeats the first.
    """
    rng = np.random.default_rng(seed)
    while True:
        rho = random_density_matrix(rng)
        if np.linalg.eigvalsh(partial_transpose(rho).matrix)[0] < -0.05:
            return rho


def relaxed_states(rho, times, p):
    """The (N, 4, 4) stack of rho relaxed to each time as a sweep forms it: its relaxed coordinates as matrices.

    _pt_arr of it is, bit for bit, the stack of partial transposes the sweep builds and hands the robustness stages.
    """
    return from_pauli_coords(relax._relax(rho._coords, times, p)) / 4.0


def stage_inputs(rho):
    """The robustness stages' inputs for the NPT states of a (k, 4, 4) stack.

    Returns their partial transposes m, lambda_min of each, the eigenpairs
    lam, vecs of the one eigh that gives lambda_min and decides which states
    are NPT, and the negative eigenvectors e, as optim._robustness forms
    them, and the product searches' start table of e's reduced matrices r
    on spin I from the oracle ``schmidt``, the formula that optim._bracket's
    Schmidt lines replace; those give it to within an ulp of 1.
    """
    m = _pt_arr(rho)
    lam, vecs = _eigh(m)
    npt = lam[:, 0] < -optim.NPT_CUT
    m, lam, vecs = m[npt], lam[npt], vecs[npt]
    lam_min, e = lam[:, 0], vecs[..., 0]
    return m, lam_min, lam, vecs, e, schmidt(e)[0]


def schmidt(v):
    """The oracle of optim._bracket_lines' Schmidt lines, by complex matmul and hypot.

    The reduced matrices r on spin I of a (k, 4) stack of vectors (v_ij on
    |i>_I |j>_S) as the product searches' (k, 4) start table, r00, r11 and
    the real and imaginary parts of r01, and a^2 - b^2 of each.
    """
    v = v.reshape(-1, 2, 2)
    r = v @ v.conj().swapaxes(-1, -2)
    start = np.stack([r[:, 0, 0].real, r[:, 1, 1].real, r[:, 0, 1].real, r[:, 0, 1].imag], axis=-1)
    return start, np.hypot(r[:, 0, 0].real - r[:, 1, 1].real, 2.0 * np.abs(r[:, 0, 1]))


def parity_values(seed, n=100_000):
    """n seeded values over and past [-1, 1], with +-0, spill of one ulp past +-1, +-inf and NaN."""
    spill = np.nextafter(1.0, 2.0)
    special = [0.0, -0.0, 1.0, -1.0, spill, -spill, np.inf, -np.inf, np.nan]
    return np.concatenate([np.random.default_rng(seed).uniform(-1.5, 1.5, n), special])


def bench_inputs():
    """The benchmark's seeded input generator, bench/inputs.py, loaded from the checkout."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_physical_c(rng):
    """Uniform sample from the tetrahedron of physical correlation triples."""
    while True:
        c = rng.uniform(-1.0, 1.0, 3)
        if bd_weights(c).min() >= 0.0:
            return c


def bd_weights(c):
    """Bell-basis weights (phi+, psi+, phi-, psi-) of a correlation triple."""
    signs = np.array([[1, -1, 1], [1, 1, -1], [-1, 1, 1], [-1, -1, -1]], dtype=float)
    return (1.0 + signs @ np.asarray(c, dtype=float)) / 4.0


def bd(c1, c2, c3):
    return bell_diagonal(BellDiagonalParams(c1, c2, c3))


def haar_unitary(rng):
    """A Haar-random 2x2 unitary: QR of a complex Gaussian matrix, phases fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def local_coords(rho):
    """<XI>, <YI>, <ZI>, <IX>, <IY>, <IZ>: the Bloch vectors of spin I and spin S."""
    vec = dict(zip(PAULI_LABELS, pauli_vector(rho)))
    return {lab: vec[lab] for lab in ("XI", "YI", "ZI", "IX", "IY", "IZ")}


def random_product_state(rng):
    """Pure product state |a><a| x |b><b|."""
    def pure(dim):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())

    return DensityMatrix(np.kron(pure(2), pure(2)))


def random_separable(rng, max_terms=4):
    """Random convex mixture of pure product states."""
    n = rng.integers(1, max_terms + 1)
    weights = rng.dirichlet(np.ones(n))
    rho = sum(w * random_product_state(rng).matrix for w in weights)
    return DensityMatrix(rho)


def ginibre_states(rng, n):
    """n density matrices G G^H / Tr, with G 4 x r complex Gaussian and r = 1, 2, 3, 4 in turn."""
    out = np.empty((n, 4, 4), dtype=complex)
    for i in range(n):
        r = 1 + i % 4
        g = rng.standard_normal((4, r)) + 1j * rng.standard_normal((4, r))
        rho = g @ g.conj().T
        out[i] = rho / np.trace(rho).real
    return out


def named_states():
    phi_minus = bell_state(BellKind.PHI_MINUS)
    states = [bell_state(kind) for kind in BellKind]
    states += [pseudo_pure(0.34, phi_minus), pseudo_pure(1.0 / 3.0 + 1e-4, phi_minus), grape_target_pipeline()]
    return np.stack([rho.matrix for rho in states])


def stress_sets():
    """The seeded Ginibre stress set, 2,400 states of rank 1 to 4, then the named states."""
    return np.concatenate([ginibre_states(np.random.default_rng(20261018), 2400), named_states()])


def bench_robustness_inputs():
    """The benchmark's robustness inputs of seeds 41 and 97, rounds 0-99, as one (4000, 4, 4) stack."""
    make_round = bench_inputs().make_round
    return np.stack([item["matrix"] for seed in (41, 97) for index in range(100)
                     for item in make_round("robustness", seed, index)])


def isotropic_with_bloch(weight=0.5, bloch=0.1):
    """weight |phi+><phi+| + (1 - weight) (1 + bloch Z)/2 (x) 1/2.

    A local Bloch vector keeps its bracket open, and its optimal omega is not a
    product pure state.  At the defaults the Bell bracket's minimum-norm omega
    closes it and most points of its relaxation; at weight 0.4 and bloch 0.3,
    nearer the threshold weight 1/3, only the Bell bracket's completion does.
    """
    z_i = np.kron(np.diag([1.0, -1.0]), np.eye(2))
    mixed = (np.eye(4) + bloch * z_i) / 4.0
    return DensityMatrix(weight * bell_state(BellKind.PHI_PLUS).matrix + (1.0 - weight) * mixed)


def route_names(rho):
    """The route name of each state of a (k, 4, 4) stack, from one optim._robustness call of the stack."""
    return ROUTES[optim._robustness(_pt_arr(rho))[6]]


def one_point_failures(states):
    """The failure of each state that fails in a _robustness call of its own, by index.

    A stack's call stops at its first failing point, so this is how every
    point that fails is seen.
    """
    failures = {}
    for k in range(len(states)):
        failure = optim._robustness(_pt_arr(states[k:k + 1]))[3]
        if failure:
            failures[k] = failure[1]
    return failures


def check_certified(rho, values, iterations, omega, lower, witness):
    npt = np.linalg.eigvalsh(_pt_arr(rho))[:, 0] < -1e-12
    assert np.array_equal(values > 0, npt)
    assert not iterations[~npt].any() and not lower[~npt].any()
    # lower <= value exactly on both paths: a solve stops inside its gap, and the
    # closed form (no iteration) clamps L to U where they differ by rounding
    gap = values[npt] - lower[npt]
    assert np.all(gap >= 0.0) and np.all(gap <= GAP)
    # the primal certificate: (rho + omega)^PT >= 0, with omega >= 0 and Tr omega = value
    np.testing.assert_allclose(np.trace(omega[npt], axis1=1, axis2=2).real, values[npt], rtol=0, atol=1e-12)
    mix = (rho[npt] + omega[npt]) / (1.0 + values[npt])[:, None, None]
    assert np.linalg.eigvalsh(_pt_arr(mix))[:, 0].min() >= -RESIDUAL
    assert np.linalg.eigvalsh(omega[npt])[:, 0].min() >= -RESIDUAL
    # the dual certificate: W^PT >= 0 and W <= 1, and lower = -Tr(W rho)
    w = witness[npt]
    assert np.linalg.eigvalsh(_pt_arr(w))[:, 0].min() >= -1e-12
    assert np.linalg.eigvalsh(w)[:, -1].max() <= 1.0 + 1e-12
    np.testing.assert_allclose(lower[npt], -np.einsum("kab,kba->k", w, rho[npt]).real, rtol=0, atol=1e-12)
    return npt


@pytest.fixture(scope="session")
def stress_robustness():
    """The stress sets, then optim._robustness's seven outputs of them, all read-only; no point fails."""
    rho = stress_sets()
    out = rho, *optim._robustness(_pt_arr(rho))
    assert out[4] is None
    for a in out[:4] + out[5:]:
        a.setflags(write=False)
    return out


@pytest.fixture(scope="session")
def forced_ginibre_solves():
    """The seeded Ginibre stress set, then the interior-point solver's values, iterations, omega, lower and witness
    of it (zero at PPT points), every NPT point solved alone from the lambda_min of the robustness's eigh; read-only."""
    rho = ginibre_states(np.random.default_rng(20261018), 2400)
    m = _pt_arr(rho)
    lam_min = _eigh(m)[0][:, 0]
    values, lower, iterations = np.zeros(len(rho)), np.zeros(len(rho)), np.zeros(len(rho), int)
    omega, witness = np.zeros_like(rho), np.zeros_like(rho)
    for k in np.flatnonzero(lam_min < -optim.NPT_CUT):
        omega[k], values[k], lower[k], witness[k], iterations[k] = optim._central_path(m[k], lam_min[k])
    solves = rho, values, iterations, omega, lower, witness
    for a in solves:
        a.setflags(write=False)
    return solves
