"""Seeded input generator for every benchmark workload.

``make_round(workload, seed, index)`` is the only source of inputs.  It
returns plain data (numpy arrays, floats, ints, strings and argv lists), never
witnesslab objects, so the program under test receives only generated values.
The same (workload, seed, index) always gives the same round, and every round
holds the workload's mix in exact counts; the order inside a round is
shuffled from the seed.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

WORKLOADS = ("robustness", "sweep", "measure", "cli")

# (<XX>, <YY>, <ZZ>) of each Bell state, and its state vector in |00>,|01>,|10>,|11>
BELL_CORRELATIONS = {
    "phi+": (1.0, -1.0, 1.0),
    "psi+": (1.0, 1.0, -1.0),
    "phi-": (-1.0, 1.0, 1.0),
    "psi-": (-1.0, -1.0, -1.0),
}
BELL_KINDS = tuple(BELL_CORRELATIONS)
REFERENCE_PARAMS = (10.0, 0.31, 10.0, 0.11)  # (t1_i, t2_i, t1_s, t2_s), seconds
SWEEP_T_MAX = 0.6
SWEEP_STEPS = 200
OUT_DIR = ".bench_out"  # relative to the checkout root, the working directory of a run
CLI_STATE_PATH = f"{OUT_DIR}/cli_state.json"
PSEUDO_PURE_THRESHOLD = 1.0 / 3.0
SHORT_LIVED_S = 10 * SWEEP_T_MAX / (SWEEP_STEPS - 1)  # ten sweep grid steps

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli2(label: str) -> np.ndarray:
    """Two-spin Pauli string, spin I on the left."""
    return np.kron(_PAULI[label[0]], _PAULI[label[1]])


_PAULIS16 = np.stack([pauli2(a + b) for a in "IXYZ" for b in "IXYZ"])


def bd_matrix(c) -> np.ndarray:
    """(1/4)(1 + c1 XX + c2 YY + c3 ZZ)."""
    return 0.25 * (pauli2("II") + c[0] * pauli2("XX") + c[1] * pauli2("YY") + c[2] * pauli2("ZZ"))


def bd_weights(c) -> np.ndarray:
    """Bell-basis weights of a correlation triple, in BELL_KINDS order."""
    signs = np.array([BELL_CORRELATIONS[k] for k in BELL_KINDS])
    return (1.0 + signs @ np.asarray(c, dtype=float)) / 4.0


def pt_min_eig(m: np.ndarray) -> float:
    """Smallest eigenvalue of the partial transpose on spin I."""
    pt = m.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    return float(np.linalg.eigvalsh(pt)[0])


def _ginibre(rng) -> np.ndarray:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _ginibre_with(rng, ppt: bool) -> np.ndarray:
    while True:
        rho = _ginibre(rng)
        if (pt_min_eig(rho) >= 0.0) == ppt:
            return rho


def _bd_triple(rng, separable: bool) -> tuple[float, float, float]:
    """Uniform over the tetrahedron, restricted to one side of the octahedron."""
    signs = np.array([BELL_CORRELATIONS[k] for k in BELL_KINDS])
    while True:
        c = rng.dirichlet(np.ones(4)) @ signs
        if (np.abs(c).sum() <= 1.0) == separable:
            return tuple(float(v) for v in c)


def _local_unitary(rng) -> np.ndarray:
    """Haar-random U_I x U_S."""
    def haar2():
        q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        return q * (np.diag(r) / np.abs(np.diag(r)))
    return np.kron(haar2(), haar2())


class _Spread:
    """Evenly spread values for the parameters that set an op's cost.

    Value k of round r is lo + (hi - lo) * frac(phase_k + r * golden), with
    phases drawn from the seed.  Any run of consecutive rounds then covers
    [lo, hi) almost evenly, so the cost mix of a short run barely depends on
    the seed, while each seed still gives different inputs.
    """

    GOLDEN = 0.6180339887498949

    def __init__(self, seed: int, workload: str, index: int):
        self._phases = np.random.default_rng([seed, WORKLOADS.index(workload), 0x5EED]).random(16)
        self._index = index
        self._next = 0

    def __call__(self, lo: float, hi: float) -> float:
        u = (self._phases[self._next] + self._index * self.GOLDEN) % 1.0
        self._next += 1
        return lo + (hi - lo) * float(u)

    def params(self, lo: float = 0.8, hi: float = 1.25) -> tuple[float, float, float, float]:
        """Reference T1 with both T2 scaled by lo to hi; T2 <= 2*T1 holds throughout."""
        t1_i, t2_i, t1_s, t2_s = REFERENCE_PARAMS
        scale = self(lo, hi)
        return (t1_i, t2_i * scale, t1_s, t2_s * scale)


def _varied_params(rng) -> tuple[float, float, float, float]:
    """Reference T1 with both T2 scaled by up to 25%; T2 <= 2*T1 holds throughout."""
    t1_i, t2_i, t1_s, t2_s = REFERENCE_PARAMS
    return (t1_i, t2_i * rng.uniform(0.8, 1.25), t1_s, t2_s * rng.uniform(0.8, 1.25))


def _robustness_round(rng, _spread) -> list[dict]:
    items = []
    for ppt, n in ((True, 3), (False, 9)):
        items += [{"kind": "ginibre", "ppt": ppt, "bd": None, "matrix": _ginibre_with(rng, ppt)}
                  for _ in range(n)]
    for separable in (True, True, False, False):
        c = _bd_triple(rng, separable)
        items.append({"kind": "bell-diagonal", "ppt": separable, "bd": c, "matrix": bd_matrix(c)})
    for _ in range(4):
        kind = BELL_KINDS[rng.integers(4)]
        eps = float(rng.uniform(PSEUDO_PURE_THRESHOLD + 0.005, PSEUDO_PURE_THRESHOLD + 0.06))
        c = tuple(eps * s for s in BELL_CORRELATIONS[kind])
        items.append({"kind": "pseudo-pure", "ppt": False, "bd": c, "matrix": bd_matrix(c)})
    return items


def _short_lived_ginibre(rng) -> np.ndarray:
    """An entangled Ginibre state that turns separable within SHORT_LIVED_S
    under the reference relaxation (the slice where relax_channel dominates)."""
    t1_i, t2_i, t1_s, t2_s = REFERENCE_PARAMS
    t = SHORT_LIVED_S
    spin_i = np.exp(-t / np.array([np.inf, t2_i, t2_i, t1_i]))
    spin_s = np.exp(-t / np.array([np.inf, t2_s, t2_s, t1_s]))
    transfer = np.outer(spin_i, spin_s).ravel()
    while True:
        rho = _ginibre_with(rng, ppt=False)
        coords = np.real(np.einsum("kab,ba->k", _PAULIS16, rho)) * transfer
        if pt_min_eig(np.einsum("k,kab->ab", coords, _PAULIS16) / 4.0) >= 0.0:
            return rho


def _sweep_round(rng, spread) -> list[dict]:
    def item(kind, **kw):
        base = {"kind": kind, "bell": None, "eps": 1.0, "matrix": None, "bd": None,
                "params": REFERENCE_PARAMS, "witness": "phi-", "reference": False}
        return {**base, **kw}

    items = [item("bell", bell="phi-", witness="phi-", bd=BELL_CORRELATIONS["phi-"], reference=True)]
    # longer T2 than the reference, so the costliest ops of a run are these
    # and the reference sweep, and the tail lands on the reference sweeps
    for _ in range(2):
        kind = BELL_KINDS[rng.integers(4)]
        items.append(item("bell", bell=kind, witness=kind, bd=BELL_CORRELATIONS[kind],
                          params=spread.params(1.05, 1.3)))
    kind = BELL_KINDS[rng.integers(4)]
    eps = spread(0.6, 0.85)
    items.append(item("pseudo-pure", bell=kind, eps=eps, witness=kind,
                      bd=tuple(eps * s for s in BELL_CORRELATIONS[kind]), params=spread.params()))
    kind = BELL_KINDS[rng.integers(4)]
    eps = spread(0.6, 0.85)
    u = _local_unitary(rng)
    items.append(item("rotated", eps=eps, witness=kind, params=spread.params(),
                      matrix=u @ bd_matrix([eps * s for s in BELL_CORRELATIONS[kind]]) @ u.conj().T))
    items += [item("ginibre", matrix=_short_lived_ginibre(rng)) for _ in range(9)]
    return items


def _measure_round(rng, _spread) -> list[dict]:
    def item(kind, **kw):
        base = {
            "kind": kind, "matrix": None, "bell": None, "eps": None, "bd": None,
            "delay": float(rng.uniform(0.0, 0.3)), "params": _varied_params(rng),
            "witness": BELL_KINDS[rng.integers(4)], "sigma": 0.01,
            "noise_seed": int(rng.integers(2**31)),
            "thermal": (float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0))),
            "message": (int(rng.integers(2)), int(rng.integers(2))),
        }
        return {**base, **kw}

    items = [item("ginibre", matrix=_ginibre(rng)) for _ in range(4)]
    for _ in range(2):
        kind = BELL_KINDS[rng.integers(4)]
        eps = float(rng.uniform(0.05, 1.0))
        items.append(item("pseudo-pure", bell=kind, eps=eps,
                          bd=tuple(eps * s for s in BELL_CORRELATIONS[kind])))
    for separable in (True, False):
        items.append(item("bell-diagonal", bd=_bd_triple(rng, separable)))
    return items


def _spec_bd(c) -> str:
    return "bd:" + ",".join(f"{v:.4f}" for v in c)


def _cli_round(rng, spread) -> list[dict]:
    def bd_spec(separable):
        # rounded to 4 decimals, so re-check the rounded triple stays on its side
        while True:
            spec = _spec_bd(_bd_triple(rng, separable))
            c = [float(v) for v in spec[3:].split(",")]
            if bd_weights(c).min() >= 1e-6 and (np.abs(c).sum() <= 1.0 - 1e-6) == separable:
                return spec

    kind = lambda: BELL_KINDS[rng.integers(4)]  # noqa: E731
    k = kind()
    t1_i, t2_i, t1_s, t2_s = spread.params()
    argvs = [
        ["witness", "--state", f"bell:{k}", "--witness", k],
        ["witness", "--state", bd_spec(False), "--witness", "phi-", "--witness", "psi+",
         "--format", "csv"],
        ["witness", "--state", f"file:{CLI_STATE_PATH}", "--witness", kind(),
         "--noise", "0.01", "--seed", str(int(rng.integers(10_000))), "--format", "json"],
        ["optimal-witness", "--all"],
        ["optimal-witness", kind(), "--format", "csv"],
        ["optimal-witness", "--all", "--format", "json"],
        ["robustness", "--state", bd_spec(False)],
        ["robustness", "--state", f"file:{CLI_STATE_PATH}", "--format", "csv"],
        ["robustness", "--state", bd_spec(True), "--format", "json"],
        ["relax-sweep"],
        ["relax-sweep", "--state", f"bell:{k}", "--witness", k, "--t1i", repr(t1_i),
         "--t2i", f"{t2_i:.4f}", "--t1s", repr(t1_s), "--t2s", f"{t2_s:.4f}", "--format", "json"],
        ["detect-region", "21"],
        ["detect-region", "21", "--format", "json"],
        ["detect-region", "21", "--format", "json"],  # repeated argv: bytes must be identical
        ["detect-region", "41"],
        ["detect-region", "41", "--format", "json"],
        ["sdc", "--eps", f"{rng.uniform(0.05, 1):.4f},{rng.uniform(0.05, 1):.4f}",
         "--msg", f"{rng.integers(2)},{rng.integers(2)}"],
        ["sdc", "--eps", f"{rng.uniform(0.05, 1):.4f},{rng.uniform(0.05, 1):.4f}",
         "--msg", f"{rng.integers(2)},{rng.integers(2)}", "--format", "csv"],
        ["sdc", "--eps", f"{rng.uniform(0.05, 1):.4f},{rng.uniform(0.05, 1):.4f}",
         "--msg", f"{rng.integers(2)},{rng.integers(2)}", "--format", "json"],
    ]
    return [{"kind": a[0], "format": _format_of(a), "argv": a} for a in argvs]


def _format_of(argv: list[str]) -> str:
    if "--format" in argv:
        return argv[argv.index("--format") + 1]
    return "csv" if argv[0] in ("relax-sweep", "detect-region") else "text"


def cli_file_state(seed: int) -> np.ndarray:
    """The entangled Ginibre state written for the ``file:`` argv of one run."""
    return _ginibre_with(np.random.default_rng([seed, 0xF11E]), ppt=False)


def warmup_item(workload: str) -> dict:
    """A fixed, seed-independent input for the untimed warm-up op of set-up."""
    if workload == "cli":  # needs no file: state, which set-up has not written yet
        return {"kind": "witness", "format": "text",
                "argv": ["witness", "--state", "bell:phi-", "--witness", "phi-"]}
    items = make_round(workload, seed=0, index=0)
    return next(i for i in items if i["kind"] == "ginibre" and not i.get("ppt"))


_ROUNDS = {
    "robustness": _robustness_round,
    "sweep": _sweep_round,
    "measure": _measure_round,
    "cli": _cli_round,
}


def make_round(workload: str, seed: int, index: int) -> list[dict]:
    """Round ``index`` of a workload: its full input mix, shuffled from the seed."""
    rng = np.random.default_rng([seed, index, WORKLOADS.index(workload)])
    items = _ROUNDS[workload](rng, _Spread(seed, workload, index))
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def mix_counts(workload: str, seed: int, rounds: int) -> dict[str, int]:
    """Exact counts of the input classes over ``rounds`` rounds."""
    counts: Counter = Counter()
    for r in range(rounds):
        for item in make_round(workload, seed, r):
            counts[f"kind:{item['kind']}"] += 1
            if workload == "cli":
                counts[f"format:{item['format']}"] += 1
                continue
            if item.get("ppt"):
                counts["ppt"] += 1
            if item.get("bd") is not None:
                counts["bell_diagonal"] += 1
            counts["ops"] += 1
    return dict(sorted(counts.items()))
