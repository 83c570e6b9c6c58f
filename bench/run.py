"""witnesslab benchmark: one seeded, single-client, closed-loop workload per run.

    python3 bench/run.py --workload robustness --seed 1 --seconds 20 --trace 0

Run from anywhere; it works on the checkout that holds this file and imports
witnesslab from its ``src`` directory.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics; the last line of stdout is the
JSON result.  The exit code is 0 when every op passed its check, 1 when some
failed, and 2 when the benchmark could not start.  See bench/README.md.
"""

from __future__ import annotations

import os

# one worker thread in this process and in every child it starts; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from inputs import WORKLOADS, cli_file_state, make_round, mix_counts, warmup_item  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import kernel_seconds, scale_factors  # noqa: E402
from workloads import (  # noqa: E402
    OPS,
    CheckFailed,
    Context,
    cli_in_process,
    cli_setup,
    measure_setup,
    sweep_replay,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# Seconds one round of each mix takes on the reference machine (2 vCPU x86-64,
# Python 3.11, numpy 2.4, OpenBLAS 0.3.31).  A run is a fixed number of whole
# rounds, round(seconds / nominal), so the mix, the op count and every count
# metric are the same on every run of a seed, however fast the program is.
NOMINAL_ROUND_S = {"robustness": 0.13, "sweep": 5.1, "measure": 0.019, "cli": 9.0}
MAX_MEASURE_S = 140.0  # stop early (and flag) rather than overrun the 180 s limit
SETUP_REPEATS = 5
TAIL_WINDOW = 500


def fail(message: str):
    """Stop before any result is printed: exit code 2."""
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


class Pass:
    """Outcome of running a list of rounds once."""

    def __init__(self):
        self.raw: list[float] = []  # op times as measured
        self.kernel: list[float] = []  # calibration kernel time just before each op
        self.kinds: list[str] = []
        self.failures: list[str] = []
        self.diags: list[dict] = []
        self.attempted = 0
        self.truncated = False

    @property
    def factors(self) -> np.ndarray:
        return scale_factors(self.kernel)

    @property
    def durations(self) -> list[float]:
        """Op times scaled to the reference speed."""
        return list(np.asarray(self.raw) * self.factors)

    @property
    def op_seconds(self) -> float:
        return sum(self.durations)


def run_ops(ctx, workload, items, result: Pass, tracer=None, after=None) -> None:
    """Time each op, then check it outside the timed interval.

    An op that raises, or whose output fails its check, counts as failed.
    ``after(item, out, diag)`` runs untimed on each passing op.
    """
    op, check = OPS[workload]
    for item in items:
        result.attempted += 1
        result.kinds.append(item["kind"])
        if tracer is not None:
            tracer.op_id = result.attempted
        result.kernel.append(kernel_seconds())
        start = perf_counter()
        try:
            with tracer.span(f"op.{workload}") if tracer is not None else nullcontext():
                out = op(ctx, item)
        except Exception as exc:  # the program failed this op; record it and go on
            out = exc
        result.raw.append(perf_counter() - start)
        if isinstance(out, Exception):
            result.failures.append(f"op {result.attempted}: {type(out).__name__}: {out}")
            continue
        try:
            diag = check(ctx, item, out)
            if after is not None:
                after(item, out, diag)
        except Exception as exc:  # a wrong or unparsable output fails the op
            kind = "check" if isinstance(exc, CheckFailed) else type(exc).__name__
            result.failures.append(f"op {result.attempted} ({item['kind']}): {kind}: {exc}")
            continue
        result.diags.append(diag)


def run_rounds(ctx, workload, seed, rounds, tracer=None, after=None) -> Pass:
    result = Pass()
    start = perf_counter()
    for r in range(rounds):
        if perf_counter() - start > MAX_MEASURE_S:
            result.truncated = True
            break
        run_ops(ctx, workload, make_round(workload, seed, r), result, tracer, after)
    return result


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_package():
    """Import witnesslab from this checkout's src, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "witnesslab", "__init__.py")):
        fail(f"no witnesslab package under {SRC}")
    sys.path.insert(0, SRC)
    import witnesslab
    import witnesslab.cli  # noqa: F401  (the cli workload and checker use it)

    if os.path.dirname(os.path.dirname(os.path.abspath(witnesslab.__file__))) != SRC:
        fail(f"imported witnesslab from {witnesslab.__file__}, not {SRC}")
    return witnesslab


def timed_child(argv, env) -> float:
    start = perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=120, check=False)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        fail(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
    return elapsed


def measure_setup_s(workload, env) -> float:
    """Median wall time of a fresh process that imports the package and runs one op."""
    probe = os.path.join(ROOT, "bench", "probe.py")
    return statistics.median(
        timed_child([sys.executable, probe, workload], env) for _ in range(SETUP_REPEATS)
    )


def prepare(ctx, workload, seed) -> None:
    """Workload set-up, then one untimed warm-up op in this process."""
    if workload == "measure":
        measure_setup(ctx)
    if workload == "cli":
        cli_setup(ctx, cli_file_state(seed), os.path.join(ROOT, "schemas", "output.schema.json"))
    pass_ = Pass()
    run_ops(ctx, workload, [warmup_item(workload)], pass_)
    if pass_.failures:
        fail(f"warm-up op failed: {pass_.failures[0]}")


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "witnesslab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(wl, seed) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        # the ceiling keeps git from searching directories above the checkout
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
                             timeout=10, check=False)
        commit = git.stdout.decode().strip() if git.returncode == 0 else "not a git checkout"
    except OSError:
        commit = "git unavailable"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src_digest(),
        "witnesslab": wl.__version__,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(durations) -> tuple[float, float]:
    """Value and percentile of the highest percentile with ten ops beyond it.

    A run of n >= 2 * TAIL_WINDOW ops is cut into n // TAIL_WINDOW windows
    of consecutive ops and the median of the windows' values is reported,
    so that a few seconds of preemption by a neighbour cannot set the tail
    of a whole run.
    """
    n_windows = max(1, len(durations) // TAIL_WINDOW)
    values, pcts = [], []
    for window in np.array_split(np.asarray(durations), n_windows):
        ordered = np.sort(window)
        n = ordered.size
        k = n - 11 if n >= 11 else n - 1
        values.append(float(ordered[k]))
        pcts.append(100.0 * (k + 1) / n)
    return statistics.median(values), statistics.median(pcts)


def peak_rss_mb(ctx) -> float:
    if ctx.launcher is not None:
        return ctx.launcher.children_maxrss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timings(durations, setup_s) -> dict:
    return {
        "ops_per_s": len(durations) / sum(durations),
        "latency_p50_ms": statistics.median(durations) * 1e3,
        "latency_tail_ms": tail(durations)[0] * 1e3,
        "setup_s": setup_s,
    }


def end_to_end(ctx, result: Pass, setup_raw: float) -> tuple[dict, dict]:
    # set-up is mostly process start and imports, too unlike the kernel to
    # scale probe by probe; the run's median speed factor scales it
    factors = result.factors
    setup_s = setup_raw * float(np.median(factors))
    values = {**timings(result.durations, setup_s), "peak_rss_mb": peak_rss_mb(ctx)}
    detail = {"tail_percentile": round(tail(result.durations)[1], 3),
              "samples": len(result.durations),
              "error_rate": len(result.failures) / result.attempted,
              "raw_wall": timings(result.raw, setup_raw),
              "speed_factor": {"median": float(np.median(factors)),
                               "min": float(factors.min()), "max": float(factors.max())}}
    return values, detail


def python_startup(env) -> tuple[float, float]:
    """Median bare-interpreter start and the extra for `import witnesslab.cli`, in ms."""
    bare = [timed_child([sys.executable, "-c", "pass"], env) for _ in range(SETUP_REPEATS)]
    full = [timed_child([sys.executable, "-c", "import witnesslab.cli"], env)
            for _ in range(SETUP_REPEATS)]
    return statistics.median(bare) * 1e3, (statistics.median(full) - statistics.median(bare)) * 1e3


CLI_SUBCOMMANDS = ("witness", "optimal-witness", "robustness", "relax-sweep", "detect-region", "sdc")


def per_layer(tracer: Tracer, traced: Pass, overhead: float, cli_probe) -> dict:
    d = tracer.durations()

    def calls(name):
        return len(d.get(name, ()))

    def busy_ms(name):
        return sum(d.get(name, ())) * 1e3

    def p50_us(name):
        return statistics.median(d[name]) * 1e6 if d.get(name) else 0.0

    diags = traced.diags
    iters = sum(x.get("iterations", 0) for x in diags)
    solves = sum(x.get("solves", 1) for x in diags if "iterations" in x)
    barrier = sum(x.get("barrier", x.get("iterations", 0) > 0) for x in diags if "iterations" in x)
    points = sum(x.get("points", 0) for x in diags)
    m = {
        "optim.newton_iters": iters,
        "optim.newton_iters_per_solve": iters / solves if solves else 0.0,
        "optim.barrier_ratio": barrier / solves if solves else 0.0,
        "optim.certificate_residual_max": max((x.get("residual", 0.0) for x in diags), default=0.0),
        "optim.oracle_abs_err_max": max((x.get("oracle_err", 0.0) for x in diags), default=0.0),
        "relax.sweep.self_ms": busy_ms("relax.sweep") - tracer.child_seconds("replay") * 1e3,
        "relax.sweep.entangled_point_ratio":
            sum(x.get("entangled_points", 0) for x in diags) / points if points else 0.0,
        "witness.detection_region_grid.points": sum(x.get("grid_points", 0) for x in diags),
        "cli.python_startup_ms": cli_probe[0],
        "cli.import_ms": cli_probe[1],
        "cli.output_bytes": sum(x.get("bytes", 0) for x in diags),
        "trace.overhead_ratio": overhead,
    }
    for name in ("optim.generalized_robustness", "relax.relax_channel"):
        m[f"{name}.p50_us"] = p50_us(name)
    for name in ("optim.generalized_robustness", "relax.relax_channel", "relax.sweep",
                 "witness.f_witness_state", "witness.eval_witness", "witness.classify_bd",
                 "qmat.DensityMatrix", "readout.simulate_lines", "readout.read_correlations",
                 "readout.measure_yy", "readout.add_noise", "readout.pauli_tomography"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_ms"] = busy_ms(name)
    for name in ("optim.optimal_witness", "witness.detection_region_grid", "qmat.fidelity",
                 "states.pauli_vector", "states.pseudo_pure", "states.bell_diagonal",
                 "circuits.superdense_run"):
        m[f"{name}.busy_ms"] = busy_ms(name)
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.main.{sub}.busy_ms"] = busy_ms(f"cli.main.{sub}")
        times = [t for t, k in zip(traced.durations, traced.kinds) if k == sub]
        m[f"cli.{sub}.p50_ms"] = statistics.median(times) * 1e3 if times else 0.0
    return m


def count_guard(workload, seed, rounds, counts: dict) -> str:
    """Compare the exact counts with an earlier traced run of the same seed and code."""
    path = os.path.join(OUT, "counts", f"{workload}-s{seed}-r{rounds}-{src_digest()[:16]}.json")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)
        return "first run of this seed"
    with open(path, encoding="utf-8") as fh:
        before = json.load(fh)
    diff = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
    if diff:
        print(f"bench: FLAG: exact counts differ from an earlier run of this seed: {diff}",
              file=sys.stderr)
        return "MISMATCH: " + ", ".join(diff)
    return "match"


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def traced_extras(ctx, workload, tracer):
    """Untimed per-op work of a traced run: sweep replay, in-process CLI runs."""
    if workload == "sweep":
        def after(item, out, diag):
            with tracer.span("replay"):
                diag.update(sweep_replay(ctx, out))
        return after
    if workload == "cli":
        wl = ctx.wl

        def after(item, proc, diag):
            argv = item["argv"]
            if cli_in_process(ctx, argv) != proc.stdout:
                raise CheckFailed(f"in-process cli.main output differs for {argv}")
            if argv[0] == "detect-region":
                n = int(argv[1])
                ctx.call("witness.detection_region_grid", wl.detection_region_grid, n)
                diag["grid_points"] = n ** 3
            if argv[0] == "optimal-witness":
                kinds = list(wl.BellKind) if "--all" in argv else [wl.BellKind(argv[1])]
                for kind in kinds:
                    ctx.call("optim.optimal_witness", wl.optimal_witness, kind)
        return after
    return None


def traced_run(ctx, workload, seed, rounds, env):
    """The same rounds untraced, then traced: their gap is the tracing overhead."""
    plain = run_rounds(ctx, workload, seed, rounds)
    tracer = Tracer()
    ctx.call = tracer.call
    if workload == "measure":
        measure_setup(ctx)  # again, traced, for optim.optimal_witness
    result = run_rounds(ctx, workload, seed, rounds, tracer, traced_extras(ctx, workload, tracer))
    overhead = result.op_seconds / plain.op_seconds - 1.0
    values = per_layer(tracer, result, overhead, python_startup(env))
    counts = {k: v for k, v in values.items()
              if k.endswith(".calls") or k in ("optim.newton_iters", "witness.detection_region_grid.points")}
    detail = {"error_rate": (len(result.failures) + len(plain.failures))
              / (result.attempted + plain.attempted),
              "count_guard": count_guard(workload, seed, rounds, counts),
              "untraced_ops_per_s": len(plain.durations) / plain.op_seconds,
              "traced_ops_per_s": len(result.durations) / result.op_seconds}
    tracer.write(os.path.join(OUT, f"spans-{workload}-s{seed}.jsonl"))
    result.failures += plain.failures
    result.attempted += plain.attempted
    return result, values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    wl = load_package()
    # one CPU for this process and its children, so that the speed gauge and
    # the op it scales, in this process or a CLI child, run on the same core
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    os.chdir(ROOT)
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    info = {"workload": args.workload, "trace": args.trace, "rounds": rounds,
            "env": {**environment(wl, args.seed), "pinned_cpu": cpu}}

    if args.trace == 0:
        setup = measure_setup_s(args.workload, env)
    ctx = Context(wl, child_env=env)
    try:
        prepare(ctx, args.workload, args.seed)
        if args.trace == 0:
            result = run_rounds(ctx, args.workload, args.seed, rounds)
            values, detail = end_to_end(ctx, result, setup)
        else:
            rounds = info["rounds"] = max(1, rounds // 2)
            result, values, detail = traced_run(ctx, args.workload, args.seed, rounds, env)
    finally:
        ctx.close()
    declared = spec["end_to_end" if args.trace == 0 else "per_layer"]

    info.update(detail, truncated=result.truncated, mix=mix_counts(args.workload, args.seed, rounds),
                failures=result.failures[:5])
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    if args.trace == 0:
        print(f"{'error_rate':44s} {detail['error_rate']:.6g} ratio")
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not result.failures, "attempted": result.attempted,
                      "failed": len(result.failures), "metrics": metrics}))
    return 0 if not result.failures else 1


if __name__ == "__main__":
    sys.exit(main())
