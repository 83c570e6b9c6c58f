"""One op and one checker per workload.

An op calls witnesslab's public API (or its CLI) on one generated input and
returns what the program produced.  Every call into a package module goes
through ``ctx.call(name, fn, *args)``, which is a plain call in an untraced
run and records a span in a traced one.  A checker compares the output with
values the benchmark computes itself, from the generated input alone, and
raises ``CheckFailed`` when they disagree.  Checkers run outside the op's
timed interval.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np

from inputs import (
    BELL_CORRELATIONS,
    CLI_STATE_PATH,
    OUT_DIR,
    REFERENCE_PARAMS,
    SWEEP_STEPS,
    SWEEP_T_MAX,
    bd_matrix,
    bd_weights,
    pauli2,
    pt_min_eig,
)

# the optimal diagonal-Pauli witness rows (c_i, c_x, c_y, c_z) of each Bell state
WITNESS_ROWS = {
    "phi+": (0.5, -0.5, 0.5, -0.5),
    "psi+": (0.5, -0.5, -0.5, 0.5),
    "phi-": (0.5, 0.5, -0.5, -0.5),
    "psi-": (0.5, 0.5, 0.5, 0.5),
}
LABELS = tuple(a + b for a in "IXYZ" for b in "IXYZ")
_PAULIS = np.stack([pauli2(lab) for lab in LABELS])
_XX, _YY, _ZZ = (LABELS.index(k) for k in ("XX", "YY", "ZZ"))
VALIDATED_DIR = os.path.join(OUT_DIR, "validated")
MARKER_MIN_BYTES = 1 << 20


class CheckFailed(Exception):
    """An op produced an output the benchmark's own reference disagrees with."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def direct(_name, fn, *args):
    """The untraced form of ``ctx.call``."""
    return fn(*args)


class Context:
    """What ops and checkers share: the package, the call hook and caches."""

    def __init__(self, wl, call=direct, child_env=None):
        self.wl = wl
        self.call = call
        self.child_env = child_env
        self.witnesses = {}  # Bell kind -> PauliWitness, solved at measure set-up
        # cli: argv -> sha256 of its first output, detect-region resolution ->
        # library points, the schema validator and digest, the file: state
        self.cli_seen = {}
        self.cli_expected = {}
        self.cli_validator = None
        self.cli_schema_sha = None
        self.cli_state = None
        self.launcher = None

    def close(self) -> None:
        if self.launcher is not None:
            self.launcher.close()


# ---------------------------------------------------------------------------
# references computed by the benchmark
# ---------------------------------------------------------------------------

def pauli_coords(m: np.ndarray) -> np.ndarray:
    """The 16 real Pauli coordinates Tr(P_k rho), II first."""
    return np.real(np.einsum("kab,ba->k", _PAULIS, m))


def relaxed_coords(m: np.ndarray, times, params) -> np.ndarray:
    """Pauli coordinates after relaxation: a diagonal Pauli-transfer map.

    Each spin keeps I, scales X and Y by exp(-t/T2) and Z by exp(-t/T1).
    Returns an array of shape (len(times), 16).
    """
    t1_i, t2_i, t1_s, t2_s = params
    t = np.atleast_1d(np.asarray(times, dtype=float))[:, None]

    def spin(t1, t2):
        return np.hstack([np.ones_like(t), np.exp(-t / t2), np.exp(-t / t2), np.exp(-t / t1)])

    fi, fs = spin(t1_i, t2_i), spin(t1_s, t2_s)
    return pauli_coords(m)[None, :] * (fi[:, :, None] * fs[:, None, :]).reshape(-1, 16)


def f_from(xx, zz):
    return 0.5 - 0.25 * (1.0 + np.abs(xx)) * (1.0 + np.abs(zz))


def witness_from(kind: str, xx, yy, zz):
    c_i, c_x, c_y, c_z = WITNESS_ROWS[kind]
    return c_i + c_x * xx + c_y * yy + c_z * zz


def gr_oracle(c) -> float:
    """Closed-form robustness of a Bell-diagonal state, max(0, 2*lambda_max - 1)."""
    return max(0.0, 2.0 * float(bd_weights(c).max()) - 1.0)


def item_matrix(item) -> np.ndarray:
    """The input state of an item: its raw matrix, or its Bell-diagonal triple's."""
    return item["matrix"] if item["matrix"] is not None else bd_matrix(item["bd"])


def certificate_residual(rho: np.ndarray, value: float, cert: np.ndarray) -> float:
    """How far (rho + value*cert)^PT sits below zero."""
    return max(0.0, -pt_min_eig(rho + value * cert))


def classify(c) -> np.ndarray:
    """Expected class of each real triple in ``c`` (shape (n, 3)).

    Triples within 1e-9 of a class boundary get None: the program may put
    them on either side.
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    signs = np.array([BELL_CORRELATIONS[k] for k in BELL_CORRELATIONS])
    w_min = ((1.0 + c @ signs.T) / 4.0).min(axis=1)
    l1 = np.abs(c).sum(axis=1)
    f_prod = (1.0 + np.abs(c[:, 0])) * (1.0 + np.abs(c[:, 2]))
    out = np.where(f_prod > 2.0, "entangled-detected-by-f", "entangled-undetected-by-f").astype(object)
    out[np.abs(f_prod - 2.0) < 1e-9] = None
    out[l1 < 1.0] = "separable"
    out[np.abs(l1 - 1.0) < 1e-9] = None
    out[w_min < 0.0] = "unphysical"
    out[np.abs(w_min) < 1e-9] = None
    return out


# ---------------------------------------------------------------------------
# robustness: DensityMatrix -> generalized_robustness -> certificate check
# ---------------------------------------------------------------------------

def robustness_op(ctx, item):
    wl, call = ctx.wl, ctx.call
    rho = call("qmat.DensityMatrix", wl.DensityMatrix, item["matrix"])
    return call("optim.generalized_robustness", wl.generalized_robustness, rho)


def robustness_check(ctx, item, result) -> dict:
    value = float(result.value)
    diag = {"iterations": int(result.iterations), "residual": 0.0, "oracle_err": 0.0}
    if item["ppt"]:
        expect(value == 0.0, f"PPT input got robustness {value!r}")
        return diag
    expect(value > 0.0, f"entangled input got robustness {value!r}")
    cert = np.asarray(result.certificate_state.matrix)
    expect(abs(np.trace(cert).real - 1.0) < 1e-9, "certificate is not unit trace")
    expect(np.linalg.eigvalsh(cert)[0] >= -1e-9, "certificate is not PSD")
    diag["residual"] = certificate_residual(item["matrix"], value, cert)
    expect(diag["residual"] <= 1e-9,
           f"(rho + value*cert)^PT has min eigenvalue -{diag['residual']:.3e}")
    if item["bd"] is not None:
        diag["oracle_err"] = abs(value - gr_oracle(item["bd"]))
        expect(diag["oracle_err"] <= 1e-6,
               f"robustness {value!r} is {diag['oracle_err']:.2e} off the Bell-diagonal oracle")
    return diag


# ---------------------------------------------------------------------------
# sweep: sweep(rho0, params, w, t_max=0.6, steps=200)
# ---------------------------------------------------------------------------

def sweep_op(ctx, item):
    wl, call = ctx.wl, ctx.call
    if item["kind"] == "bell":
        rho0 = call("states.bell_state", wl.bell_state, wl.BellKind(item["bell"]))
    elif item["kind"] == "pseudo-pure":
        bell = call("states.bell_state", wl.bell_state, wl.BellKind(item["bell"]))
        rho0 = call("states.pseudo_pure", wl.pseudo_pure, item["eps"], bell)
    else:
        rho0 = call("qmat.DensityMatrix", wl.DensityMatrix, item["matrix"])
    params = wl.RelaxationParams(*item["params"])
    w = wl.bell_witness(wl.BellKind(item["witness"]))
    series = call("relax.sweep", wl.sweep, rho0, params, w, SWEEP_T_MAX, SWEEP_STEPS)
    return rho0, params, w, series


def sweep_check(ctx, item, out) -> dict:
    series = out[3]
    times = np.linspace(0.0, SWEEP_T_MAX, SWEEP_STEPS)
    expect(np.array_equal(np.asarray(series.times), times), "sweep time grid differs")
    coords = relaxed_coords(item_matrix(item), times, item["params"])
    xx, yy, zz = coords[:, _XX], coords[:, _YY], coords[:, _ZZ]
    gr = np.asarray(series.gr_values, dtype=float)
    f_err = float(np.max(np.abs(np.asarray(series.f_values) - f_from(xx, zz))))
    w_err = float(np.max(np.abs(np.asarray(series.w_values) - witness_from(item["witness"], xx, yy, zz))))
    expect(f_err <= 1e-9, f"F curve is {f_err:.2e} off the reference")
    expect(w_err <= 1e-9, f"witness curve is {w_err:.2e} off the reference")
    expect(np.all(gr >= 0.0), "negative robustness in the sweep")
    diag = {"oracle_err": 0.0, "entangled_points": int(np.count_nonzero(gr > 0.0)),
            "points": int(gr.size)}
    if item["bd"] is not None:
        oracle = np.array([gr_oracle(c) for c in coords[:, [_XX, _YY, _ZZ]]])
        diag["oracle_err"] = float(np.max(np.abs(gr - oracle)))
        expect(diag["oracle_err"] <= 1e-6,
               f"robustness curve is {diag['oracle_err']:.2e} off the Bell-diagonal oracle")
    else:
        for k in range(times.size):
            m = (np.einsum("k,kab->ab", coords[k], _PAULIS)) / 4.0
            lam = pt_min_eig(m)
            expect(not (lam < -1e-9 and gr[k] == 0.0), f"NPT point {k} reported separable")
            expect(not (lam > 1e-9 and gr[k] != 0.0), f"PPT point {k} reported entangled")
    if item["kind"] == "rotated":
        c0 = np.array(BELL_CORRELATIONS[item["witness"]]) * item["eps"]
        expect(abs(gr[0] - gr_oracle(c0)) <= 1e-6, "robustness changed under a local unitary")
    if item["reference"]:
        expect(series.tau_c is not None and 0.24 <= series.tau_c <= 0.40,
               f"reference tau_c = {series.tau_c!r} outside [0.24, 0.40] s")
    return diag


def sweep_replay(ctx, out) -> dict:
    """Re-run one sweep's grid through its four layers, traced (traced runs only)."""
    wl, call = ctx.wl, ctx.call
    rho0, params, w, series = out
    iters = solves = barrier = 0
    for k, t in enumerate(series.times):
        rho_t = call("relax.relax_channel", wl.relax_channel, rho0, float(t), params)
        f = call("witness.f_witness_state", wl.f_witness_state, rho_t)
        wv = call("witness.eval_witness", wl.eval_witness, w, rho_t)
        res = call("optim.generalized_robustness", wl.generalized_robustness, rho_t)
        expect(f == series.f_values[k] and wv == series.w_values[k]
               and res.value == series.gr_values[k], f"replay differs from sweep at point {k}")
        iters += res.iterations
        solves += 1
        barrier += res.iterations > 0
    return {"iterations": iters, "solves": solves, "barrier": barrier}


# ---------------------------------------------------------------------------
# measure: one simulated NMR acquisition
# ---------------------------------------------------------------------------

def measure_setup(ctx) -> None:
    """Solve the optimal-witness LP once per Bell state and check it."""
    wl = ctx.wl
    for kind, row in WITNESS_ROWS.items():
        w = ctx.call("optim.optimal_witness", wl.optimal_witness, wl.BellKind(kind))
        expect(np.allclose(w.as_tuple(), row, atol=1e-12), f"optimal witness row for {kind}")
        ctx.witnesses[kind] = w


def measure_op(ctx, item):
    wl, call = ctx.wl, ctx.call
    if item["kind"] == "ginibre":
        rho = call("qmat.DensityMatrix", wl.DensityMatrix, item["matrix"])
    elif item["kind"] == "pseudo-pure":
        bell = call("states.bell_state", wl.bell_state, wl.BellKind(item["bell"]))
        rho = call("states.pseudo_pure", wl.pseudo_pure, item["eps"], bell)
    else:
        rho = call("states.bell_diagonal", wl.bell_diagonal, wl.BellDiagonalParams(*item["bd"]))
    params = wl.RelaxationParams(*item["params"])
    rho_t = call("relax.relax_channel", wl.relax_channel, rho, item["delay"], params)
    pulse = wl.readout.READOUT_PULSE
    spec_i = call("readout.simulate_lines", wl.simulate_lines, rho_t, "I", pulse)
    spec_s = call("readout.simulate_lines", wl.simulate_lines, rho_t, "S", pulse)
    corr = call("readout.read_correlations", wl.read_correlations, spec_i, spec_s)
    out = {
        "corr": corr,
        "f_read": call("witness.f_witness", wl.f_witness, corr),
        "f_state": call("witness.f_witness_state", wl.f_witness_state, rho_t),
        "yy": call("readout.measure_yy", wl.measure_yy, rho_t),
        "w": call("witness.eval_witness", wl.eval_witness, ctx.witnesses[item["witness"]], rho_t),
        "class": None,
    }
    if item["bd"] is not None:
        out["class"] = call("witness.classify_bd", wl.classify_bd, item["bd"])
    pv = call("states.pauli_vector", wl.pauli_vector, rho_t)
    noisy = [call("readout.add_noise", wl.add_noise, float(v), item["sigma"], item["noise_seed"] + k)
             for k, v in enumerate(pv)]
    tomo = call("readout.pauli_tomography", wl.pauli_tomography, noisy)
    out["pauli"] = pv
    out["fidelity"] = call("qmat.fidelity", wl.fidelity, tomo.state, rho_t)
    out["sdc"] = call("circuits.superdense_run", wl.superdense_run,
                      wl.ThermalParams(*item["thermal"]), wl.Message(*item["message"]))
    return out


def measure_check(ctx, item, out) -> dict:
    truth = relaxed_coords(item_matrix(item), [item["delay"]], item["params"])[0]
    xx, yy, zz = truth[_XX], truth[_YY], truth[_ZZ]
    pv_err = float(np.max(np.abs(np.asarray(out["pauli"]) - truth[1:])))
    expect(pv_err <= 1e-9, f"pauli_vector is {pv_err:.2e} off the relaxed reference")
    expect(abs(out["corr"].w1 - xx) <= 1e-9 and abs(out["corr"].w2 - zz) <= 1e-9,
           "noiseless correlations differ from the Pauli vector")
    expect(abs(out["yy"] - yy) <= 1e-9, "measured <YY> differs from the Pauli vector")
    expect(abs(out["f_read"] - f_from(xx, zz)) <= 1e-9, "F from the spectra is wrong")
    expect(abs(out["f_state"] - out["f_read"]) <= 1e-9, "F from the state and the spectra differ")
    expect(abs(out["w"] - witness_from(item["witness"], xx, yy, zz)) <= 1e-9, "witness value is wrong")
    expect(0.0 <= out["fidelity"] <= 1.0, f"fidelity {out['fidelity']!r} outside [0, 1]")
    if item["bd"] is not None:
        want = classify(item["bd"])[0]
        expect(want is None or out["class"].value == want,
               f"classify_bd gave {out['class'].value}, expected {want}")
    eps_i, eps_s = item["thermal"]
    x, z = item["message"]
    sdc = out["sdc"]
    expect(abs(sdc.mz_i - (-1) ** z * eps_i) <= 1e-9 and abs(sdc.mz_s - (-1) ** x * eps_s) <= 1e-9,
           "superdense identity <Z_I> = (-1)^z eps_I, <Z_S> = (-1)^x eps_S fails")
    return {}


# ---------------------------------------------------------------------------
# cli: one `python -m witnesslab.cli ...` subprocess
# ---------------------------------------------------------------------------

def cli_setup(ctx, state: np.ndarray, schema_path: str) -> None:
    """Write the file: state and load the output schema."""
    import jsonschema

    os.makedirs(os.path.dirname(CLI_STATE_PATH), exist_ok=True)
    ctx.wl.cli.save_state_json(ctx.wl.DensityMatrix(state), CLI_STATE_PATH)
    with open(schema_path, "rb") as fh:
        schema = fh.read()
    ctx.cli_validator = jsonschema.Draft202012Validator(json.loads(schema))
    ctx.cli_schema_sha = hashlib.sha256(schema).hexdigest()
    ctx.cli_state = state
    ctx.launcher = Launcher(ctx.child_env)


def validate_json(ctx, doc, raw: bytes) -> None:
    """Validate against the schema, remembering documents already validated.

    Validating the 41^3-point detect-region document takes seconds, and its
    bytes repeat on every run, so a marker file per (schema, document) digest
    lets later runs skip what an earlier run of this checkout proved.  Small
    documents are validated every time.
    """
    if len(raw) < MARKER_MIN_BYTES:
        errors = list(ctx.cli_validator.iter_errors(doc))
        expect(not errors, f"JSON fails the schema: {errors[:1]}")
        return
    marker = os.path.join(VALIDATED_DIR, hashlib.sha256(
        ctx.cli_schema_sha.encode() + hashlib.sha256(raw).digest()).hexdigest())
    if os.path.exists(marker):
        return
    errors = list(ctx.cli_validator.iter_errors(doc))
    expect(not errors, f"JSON fails the schema: {errors[:1]}")
    os.makedirs(VALIDATED_DIR, exist_ok=True)
    open(marker, "w").close()


class Launcher:
    """Runs ``python -m witnesslab.cli`` children through bench/launcher.py.

    Children started from this process would inherit its peak RSS; the
    launcher is small, so ``peak_rss_mb`` is the largest child's own.
    """

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        self.children_maxrss_kb = 0

    def run(self, argv) -> subprocess.CompletedProcess:
        self.proc.stdin.write(json.dumps(argv).encode() + b"\n")
        self.proc.stdin.flush()
        head = json.loads(self.proc.stdout.readline())
        stdout = self.proc.stdout.read(head["stdout"])
        stderr = self.proc.stdout.read(head["stderr"])
        self.children_maxrss_kb = head["children_maxrss_kb"]
        return subprocess.CompletedProcess(argv, head["returncode"], stdout, stderr)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def cli_op(ctx, item):
    return ctx.launcher.run([sys.executable, "-m", "witnesslab.cli", *item["argv"]])


def cli_in_process(ctx, argv) -> bytes:
    """Run cli.main in this process with stdout captured (traced runs only)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = ctx.call(f"cli.main.{argv[0]}", ctx.wl.cli.main, list(argv))
    expect(code == 0, f"in-process cli.main exited {code}")
    return buf.getvalue().encode()


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _state_of(ctx, spec: str) -> np.ndarray:
    if spec.startswith("bell:"):
        return bd_matrix(BELL_CORRELATIONS[spec[5:]])
    if spec.startswith("bd:"):
        return bd_matrix([float(v) for v in spec[3:].split(",")])
    return ctx.cli_state


def _close(got, want, text: bool, what: str) -> None:
    # text output carries 6 significant digits; csv and json carry full repr
    tol = 1e-5 * max(1.0, abs(want)) if text else 1e-9
    expect(abs(float(got) - want) <= tol, f"{what}: CLI gave {got}, library gives {want!r}")


def cli_check(ctx, item, proc) -> dict:
    argv = item["argv"]
    expect(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr.decode()[-300:]}")
    digest = hashlib.sha256(proc.stdout).hexdigest()
    key = tuple(argv)
    if key in ctx.cli_seen:
        expect(ctx.cli_seen[key] == digest, f"repeated argv {argv} gave different bytes")
        return {"bytes": len(proc.stdout)}
    ctx.cli_seen[key] = digest
    text = proc.stdout.decode()
    fmt = item["format"]
    doc = None
    if fmt == "json":
        doc = json.loads(text)
        validate_json(ctx, doc, proc.stdout)
    _CLI_CHECKS[argv[0]](ctx, argv, fmt, text, doc)
    return {"bytes": len(proc.stdout)}


def _check_witness(ctx, argv, fmt, text, doc):
    wl = ctx.wl
    coords = pauli_coords(_state_of(ctx, _opt(argv, "--state")))
    corr = {"xx": coords[_XX], "yy": coords[_YY], "zz": coords[_ZZ]}
    sigma = float(_opt(argv, "--noise", "0"))
    if sigma > 0:
        seed = int(_opt(argv, "--seed", "0"))
        corr = {k: wl.add_noise(float(v), sigma, seed + i) for i, (k, v) in enumerate(corr.items())}
    kinds = [argv[i + 1] for i, a in enumerate(argv) if a == "--witness"]
    want = {**corr, "f": f_from(corr["xx"], corr["zz"])}
    want.update({f"w:{k}": witness_from(k, corr["xx"], corr["yy"], corr["zz"]) for k in kinds})
    if fmt == "json":
        got = {**doc["correlations"], "f": doc["f"]["value"]}
        got.update({f"w:{w['kind']}": w["value"] for w in doc["witnesses"]})
    elif fmt == "csv":
        rows = [line.rsplit(",", 3) for line in text.splitlines()[1:]]
        got = {q: v for _state, q, v, _verdict in rows}
    else:
        got = dict(zip(("xx", "yy", "zz"), re.findall(r"<(?:XX|YY|ZZ)> = (\S+)", text)))
        got["f"] = re.search(r"^F = (\S+)", text, re.M).group(1)
        got.update({f"w:{k}": v for k, v in re.findall(r"^W\[(\S+)\] = (\S+)", text, re.M)})
    expect(set(got) == set(want), f"witness output has fields {sorted(got)}")
    for k, v in want.items():
        _close(got[k], float(v), fmt == "text", k)


def _check_optimal_witness(ctx, argv, fmt, text, doc):
    kinds = list(WITNESS_ROWS) if "--all" in argv else [argv[1]]
    if fmt == "json":
        rows = [(r["kind"], r["coefficients"], r["objective"]) for r in doc["rows"]]
        expect(all(r["valid"] for r in doc["rows"]), "an optimal witness is reported invalid")
    elif fmt == "csv":
        rows = [(p[0], p[1:5], p[5]) for p in (line.split(",") for line in text.splitlines()[1:])]
    else:
        rows = [(k, c.split(", "), o) for k, c, o in
                re.findall(r"^(\S+): coefficients \(([^)]*)\)\s+objective (\S+)", text, re.M)]
    expect([r[0] for r in rows] == kinds, f"optimal-witness rows {[r[0] for r in rows]}")
    for kind, coeffs, objective in rows:
        for got, want in zip(coeffs, WITNESS_ROWS[kind]):
            _close(got, want, fmt == "text", f"{kind} coefficient")
        _close(objective, -1.0, fmt == "text", f"{kind} objective")


def _check_robustness(ctx, argv, fmt, text, doc):
    spec = _opt(argv, "--state")
    rho = _state_of(ctx, spec)
    result = ctx.wl.generalized_robustness(ctx.wl.DensityMatrix(rho))
    if fmt == "json":
        value, iterations = doc["value"], doc["iterations"]
    elif fmt == "csv":
        _state, value, iterations, _res = text.splitlines()[1].rsplit(",", 3)
    else:
        value = re.search(r"robustness = (\S+)", text).group(1)
        iterations = re.search(r"iterations = (\S+)", text).group(1)
    _close(value, result.value, fmt == "text", "robustness")
    expect(int(iterations) == result.iterations, "iteration count differs from the library")
    if spec.startswith("bd:"):
        c = [float(v) for v in spec[3:].split(",")]
        _close(value, gr_oracle(c), fmt == "text", "robustness vs oracle")


def _check_relax_sweep(ctx, argv, fmt, text, doc):
    state = _opt(argv, "--state", "bell:phi-")
    kind = _opt(argv, "--witness", "phi-")
    params = tuple(float(_opt(argv, f, str(d))) for f, d in
                   zip(("--t1i", "--t2i", "--t1s", "--t2s"), REFERENCE_PARAMS))
    if fmt == "json":
        rows = np.array([[p["time"], p["f"], p["w"], p["gr"]] for p in doc["series"]])
        tau_c = doc["tau_c"]
    else:
        lines = text.splitlines()
        tau_c = float(lines[2].split()[1].split("=")[1])
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[4:]])
    expect(rows.shape == (SWEEP_STEPS, 4), f"relax-sweep gave {rows.shape[0]} rows")
    c = np.array(BELL_CORRELATIONS[state[5:]])
    coords = relaxed_coords(bd_matrix(c), rows[:, 0], params)
    xx, yy, zz = coords[:, _XX], coords[:, _YY], coords[:, _ZZ]
    expect(np.max(np.abs(rows[:, 1] - f_from(xx, zz))) <= 1e-9, "relax-sweep F curve")
    expect(np.max(np.abs(rows[:, 2] - witness_from(kind, xx, yy, zz))) <= 1e-9, "relax-sweep W curve")
    oracle = np.array([gr_oracle(v) for v in coords[:, [_XX, _YY, _ZZ]]])
    expect(np.max(np.abs(rows[:, 3] - oracle)) <= 1e-6, "relax-sweep robustness vs oracle")
    if params == REFERENCE_PARAMS and state == "bell:phi-":
        expect(tau_c is not None and 0.24 <= tau_c <= 0.40, f"reference tau_c = {tau_c!r}")


def _check_detect_region(ctx, argv, fmt, text, doc):
    n = int(argv[1])
    if n not in ctx.cli_expected:
        grid = ctx.wl.detection_region_grid(n)
        ctx.cli_expected[n] = [(list(c), cls.value) for c, cls in grid]
    want = ctx.cli_expected[n]
    if fmt == "json":
        got = [(p["c"], p["class"]) for p in doc["points"]]
    else:
        got = [([float(v) for v in p[:3]], p[3])
               for p in (line.split(",") for line in text.splitlines()[1:])]
    expect(len(got) == n ** 3, f"detect-region {n} gave {len(got)} points")
    expect(got == want, f"detect-region {n} points differ from the library")
    ref = classify([c for c, _cls in want])
    bad = [k for k, (_c, cls) in enumerate(want) if ref[k] is not None and ref[k] != cls]
    expect(not bad, f"detect-region {n}: {len(bad)} points in the wrong class, first {want[bad[0]] if bad else None}")


def _check_sdc(ctx, argv, fmt, text, doc):
    eps = [float(v) for v in _opt(argv, "--eps").split(",")]
    x, z = (int(v) for v in _opt(argv, "--msg").split(","))
    if fmt == "json":
        mz_i, mz_s, ok = doc["mz_i"], doc["mz_s"], doc["success"]
    elif fmt == "csv":
        p = text.splitlines()[1].split(",")
        mz_i, mz_s, ok = p[4], p[5], p[8] == "true"
    else:
        mz_i, mz_s = re.findall(r"<Z_[IS]> = (\S+)", text)
        ok = "[success]" in text
    _close(mz_i, (-1) ** z * eps[0], fmt == "text", "<Z_I>")
    _close(mz_s, (-1) ** x * eps[1], fmt == "text", "<Z_S>")
    expect(ok is True, "superdense decode did not report success")


_CLI_CHECKS = {
    "witness": _check_witness,
    "optimal-witness": _check_optimal_witness,
    "robustness": _check_robustness,
    "relax-sweep": _check_relax_sweep,
    "detect-region": _check_detect_region,
    "sdc": _check_sdc,
}

OPS = {
    "robustness": (robustness_op, robustness_check),
    "sweep": (sweep_op, sweep_check),
    "measure": (measure_op, measure_check),
    "cli": (cli_op, cli_check),
}
