"""Command-line interface.

Every computation is a subcommand with text (default), CSV, or JSON output.
Exit codes: 0 success, 2 usage error, 3 domain error (unphysical input),
4 solver non-convergence.  Identical invocations produce byte-identical
output; JSON documents validate against schemas/output.schema.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .config import TOL
from .errors import ConvergenceError, DomainError
from .circuits import Message, superdense_run
from .optim import generalized_robustness, optimal_witness
from .qmat import DensityMatrix, _pt_arr
from .readout import add_noise
from .relax import RelaxationParams, sweep
from .states import BellDiagonalParams, BellKind, ThermalParams, bell_diagonal, bell_state
from .witness import (
    _MAX_RESOLUTION,
    CorrelationPair,
    _correlations,
    bell_witness,
    detection_region_grid,
    eval_witness,
    f_witness,
    witness_is_valid,
)

_KIND_NAMES = {k.value: k for k in BellKind}


class _UsageError(Exception):
    """Malformed arguments discovered after argparse (exit code 2)."""


def _fmt(v: float) -> str:
    """Human-report float: 6 significant digits."""
    return f"{v:.6g}"


def parse_state_spec(spec: str) -> DensityMatrix:
    """Grammar: bell:<kind> | bd:<c1,c2,c3> | identity | file:<path>."""
    if spec == "identity":
        return DensityMatrix(np.eye(4, dtype=complex) / 4.0)
    if spec.startswith("bell:"):
        name = spec[len("bell:"):]
        if name not in _KIND_NAMES:
            raise _UsageError(
                f"unknown Bell state {name!r}; choose from {sorted(_KIND_NAMES)}"
            )
        return bell_state(_KIND_NAMES[name])
    if spec.startswith("bd:"):
        parts = spec[len("bd:"):].split(",")
        if len(parts) != 3:
            raise _UsageError("bd: takes exactly three comma-separated numbers")
        try:
            c = [float(p) for p in parts]
        except ValueError as exc:
            raise _UsageError(f"bd: values must be numeric ({exc})") from exc
        return bell_diagonal(BellDiagonalParams(*c))
    if spec.startswith("file:"):
        return load_state_json(spec[len("file:"):])
    raise _UsageError(f"unrecognized state spec {spec!r}")


def load_state_json(path: str) -> DensityMatrix:
    """Read a density matrix from the JSON wire format.

    The format is an object with "entries": 16 row-major {"re": .., "im": ..}
    pairs.  Structural problems are usage errors; a well-formed matrix that
    is not a valid state is a domain error.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        entries = doc["entries"]
        values = [complex(float(e["re"]), float(e["im"])) for e in entries]
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"cannot read state file {path!r}: {exc}") from exc
    if len(values) != 16:
        raise _UsageError(f"state file must hold 16 entries, found {len(values)}")
    try:
        return DensityMatrix(np.array(values, dtype=complex).reshape(4, 4))
    except ValueError as exc:
        raise DomainError(f"state file {path!r} is not a valid density matrix: {exc}") from exc


def save_state_json(rho: DensityMatrix, path: str) -> None:
    """Write a density matrix in the JSON wire format read by file: specs."""
    entries = [
        {"re": float(v.real), "im": float(v.imag)} for v in rho.matrix.ravel()
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"dim": 4, "entries": entries}, fh, indent=2)
        fh.write("\n")


def _verdict(value: float) -> str:
    # strictly negative certifies entanglement, but a hair below zero is
    # numerical noise, never reported as a detection
    if value < -1e-9:
        return "entangled (detected)"
    if value < 0.0:
        return "inconclusive within numerical noise"
    return "not detected"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit_json(doc: dict, path: str | None) -> None:
    _emit(json.dumps(doc, indent=2) + "\n", path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_witness(args) -> int:
    labels = ("XX", "YY", "ZZ")
    corr = dict(zip(labels, _correlations(parse_state_spec(args.state))))
    if args.noise != 0.0:  # add_noise rejects negative and NaN sigma
        corr = {
            lab: add_noise(v, args.noise, args.seed + k)
            for k, (lab, v) in enumerate(corr.items())
        }
    # F and the witness values are formed from the same (possibly noisy)
    # correlations that get reported, exactly as a measurement run would
    f_val = f_witness(CorrelationPair(corr["XX"], corr["ZZ"]))
    rows = []
    for name in args.witness or []:
        w = bell_witness(_KIND_NAMES[name])
        rows.append((name, w, w.value(corr["XX"], corr["YY"], corr["ZZ"])))

    if args.format == "json":
        doc = {
            "subcommand": "witness",
            "state": args.state,
            "correlations": {"xx": corr["XX"], "yy": corr["YY"], "zz": corr["ZZ"]},
            "f": {"value": f_val, "verdict": _verdict(f_val)},
            "witnesses": [
                {
                    "kind": name,
                    "coefficients": list(w.as_tuple()),
                    "value": val,
                    "verdict": _verdict(val),
                }
                for name, w, val in rows
            ],
        }
        _emit_json(doc, args.output)
    elif args.format == "csv":
        lines = ["state,quantity,value,verdict"]
        for lab in labels:
            lines.append(f"{args.state},{lab.lower()},{corr[lab]!r},")
        lines.append(f"{args.state},f,{f_val!r},{_verdict(f_val)}")
        for name, _w, val in rows:
            lines.append(f"{args.state},w:{name},{val!r},{_verdict(val)}")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        out = [f"state: {args.state}"]
        out.append(
            f"<XX> = {_fmt(corr['XX'])}   <YY> = {_fmt(corr['YY'])}   <ZZ> = {_fmt(corr['ZZ'])}"
        )
        out.append(f"F = {_fmt(f_val)}   [{_verdict(f_val)}]")
        for name, w, val in rows:
            co = ", ".join(_fmt(c) for c in w.as_tuple())
            out.append(f"W[{name}] = {_fmt(val)}   coefficients ({co})   [{_verdict(val)}]")
        _emit("\n".join(out) + "\n", args.output)
    return 0


def _cmd_optimal_witness(args) -> int:
    if not args.all and args.kind is None:
        raise _UsageError("optimal-witness needs a Bell kind or --all")
    kinds = list(BellKind) if args.all else [_KIND_NAMES[args.kind]]
    rows = []
    for kind in kinds:
        w = optimal_witness(kind)
        objective = eval_witness(w, bell_state(kind))
        rows.append((kind.value, w, objective, witness_is_valid(w)))

    if args.format == "json":
        doc = {
            "subcommand": "optimal-witness",
            "rows": [
                {
                    "kind": kind,
                    "coefficients": list(w.as_tuple()),
                    "objective": obj,
                    "valid": valid,
                }
                for kind, w, obj, valid in rows
            ],
        }
        _emit_json(doc, args.output)
    elif args.format == "csv":
        lines = ["kind,c_i,c_x,c_y,c_z,objective"]
        for kind, w, obj, _valid in rows:
            coeffs = ",".join(repr(c) for c in w.as_tuple())
            lines.append(f"{kind},{coeffs},{obj!r}")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        out = []
        for kind, w, obj, valid in rows:
            co = ", ".join(_fmt(c) for c in w.as_tuple())
            out.append(
                f"{kind}: coefficients ({co})   objective {_fmt(obj)}   "
                f"{'valid' if valid else 'INVALID'}"
            )
        _emit("\n".join(out) + "\n", args.output)
    return 0


def _certificate_residual(rho: DensityMatrix, result) -> float:
    if result.certificate_state is None or result.value == 0.0:
        return 0.0
    mix = (rho.matrix + result.value * result.certificate_state.matrix) / (1.0 + result.value)
    lam = float(np.linalg.eigvalsh(_pt_arr(mix, "I"))[0])
    return max(0.0, -lam)


def _cmd_robustness(args) -> int:
    rho = parse_state_spec(args.state)
    result = generalized_robustness(rho)
    residual = _certificate_residual(rho, result)
    if args.format == "json":
        _emit_json(
            {
                "subcommand": "robustness",
                "state": args.state,
                "value": result.value,
                "iterations": result.iterations,
                "certificate_residual": residual,
            },
            args.output,
        )
    elif args.format == "csv":
        lines = [
            "state,value,iterations,certificate_residual",
            f"{args.state},{result.value!r},{result.iterations},{residual!r}",
        ]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(
            f"state: {args.state}\n"
            f"generalized robustness = {_fmt(result.value)}\n"
            f"iterations = {result.iterations}\n"
            f"certificate residual = {_fmt(residual)}\n",
            args.output,
        )
    return 0


def _cmd_relax_sweep(args) -> int:
    rho = parse_state_spec(args.state)
    params = RelaxationParams(t1_i=args.t1i, t2_i=args.t2i, t1_s=args.t1s, t2_s=args.t2s)
    w = bell_witness(_KIND_NAMES[args.witness])
    series = sweep(rho, params, w, t_max=args.tmax, steps=args.steps)

    def opt(v):
        return None if v is None else float(v)

    if args.format == "json":
        doc = {
            "subcommand": "relax-sweep",
            "state": args.state,
            "witness": args.witness,
            "params": {"t1_i": args.t1i, "t2_i": args.t2i, "t1_s": args.t1s, "t2_s": args.t2s},
            "tau_c": opt(series.tau_c),
            "tau_r": opt(series.tau_r),
            "tau_w": opt(series.tau_w),
            "series": [
                {"time": float(t), "f": float(f), "w": float(wv), "gr": float(g)}
                for t, f, wv, g in zip(
                    series.times, series.f_values, series.w_values, series.gr_values
                )
            ],
        }
        _emit_json(doc, args.output)
    else:  # csv is the default for series data
        def meta(v):
            return "none" if v is None else repr(float(v))

        lines = [
            f"# state={args.state} witness={args.witness}",
            f"# t1_i={args.t1i!r} t2_i={args.t2i!r} t1_s={args.t1s!r} t2_s={args.t2s!r}",
            f"# tau_c={meta(series.tau_c)} tau_r={meta(series.tau_r)} tau_w={meta(series.tau_w)}",
            "time,f,w,gr",
        ]
        for t, f, wv, g in zip(series.times, series.f_values, series.w_values, series.gr_values):
            lines.append(f"{float(t)!r},{float(f)!r},{float(wv)!r},{float(g)!r}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_detect_region(args) -> int:
    grid = detection_region_grid(args.resolution)
    if args.format == "json":
        doc = {
            "subcommand": "detect-region",
            "resolution": args.resolution,
            "points": [
                {"c": [c1, c2, c3], "class": cls.value} for (c1, c2, c3), cls in grid
            ],
        }
        _emit_json(doc, args.output)
    else:
        lines = ["c1,c2,c3,class"]
        for (c1, c2, c3), cls in grid:
            lines.append(f"{c1!r},{c2!r},{c3!r},{cls.value}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _decode_bit(mz: float) -> int | None:
    if mz > 1e-12:
        return 0
    if mz < -1e-12:
        return 1
    return None


def _cmd_sdc(args) -> int:
    try:
        eps = [float(p) for p in args.eps.split(",")]
        msg = [int(p) for p in args.msg.split(",")]
        if len(eps) != 2 or len(msg) != 2:
            raise ValueError("need two comma-separated values")
    except ValueError as exc:
        raise _UsageError(f"bad --eps/--msg: {exc}") from exc
    result = superdense_run(ThermalParams(*eps), Message(*msg))
    # spin I's magnetization carries z, spin S's carries x
    decoded_z = _decode_bit(result.mz_i)
    decoded_x = _decode_bit(result.mz_s)
    success = (
        None
        if decoded_x is None or decoded_z is None
        else (decoded_x == msg[0] and decoded_z == msg[1])
    )
    if args.format == "json":
        _emit_json(
            {
                "subcommand": "sdc",
                "eps": eps,
                "message": {"x": msg[0], "z": msg[1]},
                "mz_i": result.mz_i,
                "mz_s": result.mz_s,
                "decoded": {"x": decoded_x, "z": decoded_z},
                "success": success,
            },
            args.output,
        )
    elif args.format == "csv":
        dx = "" if decoded_x is None else decoded_x
        dz = "" if decoded_z is None else decoded_z
        ok = "" if success is None else str(success).lower()
        lines = [
            "eps_i,eps_s,x,z,mz_i,mz_s,decoded_x,decoded_z,success",
            f"{eps[0]!r},{eps[1]!r},{msg[0]},{msg[1]},{result.mz_i!r},{result.mz_s!r},{dx},{dz},{ok}",
        ]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        if success is None:
            verdict = "decode inconclusive (zero magnetization)"
        else:
            verdict = "success" if success else "FAILURE"
        _emit(
            f"<Z_I> = {_fmt(result.mz_i)}   <Z_S> = {_fmt(result.mz_s)}\n"
            f"decoded (x, z) = ({'?' if decoded_x is None else decoded_x}, "
            f"{'?' if decoded_z is None else decoded_z})   [{verdict}]\n",
            args.output,
        )
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _add_common(sub, default_format="text"):
    sub.add_argument(
        "--format", choices=("text", "csv", "json"), default=default_format,
        help=f"output format (default: {default_format})",
    )
    sub.add_argument("--output", "-o", default=None, help="write to file instead of stdout")
    sub.add_argument("--seed", type=int, default=0, help="seed for stochastic options")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="witnesslab",
        description="Two-qubit entanglement witnesses, robustness, and relaxation sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("witness", help="correlations, F, and Pauli witness values of a state")
    p.add_argument("--state", required=True, help="bell:<kind> | bd:<c1,c2,c3> | identity | file:<path>")
    p.add_argument(
        "--witness", action="append", choices=sorted(_KIND_NAMES),
        help="also evaluate the optimal witness for this Bell state (repeatable)",
    )
    p.add_argument(
        "--noise", type=float, default=0.0,
        help="report correlations with seeded Gaussian noise of this sigma",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_witness)

    p = subs.add_parser("optimal-witness", help="solve the optimal-witness program")
    p.add_argument("kind", nargs="?", choices=sorted(_KIND_NAMES), help="target Bell state")
    p.add_argument("--all", action="store_true", help="emit all four rows")
    _add_common(p)
    p.set_defaults(func=_cmd_optimal_witness)

    p = subs.add_parser("robustness", help="generalized robustness of entanglement")
    p.add_argument("--state", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_robustness)

    p = subs.add_parser("relax-sweep", help="decay of F, W, and robustness under relaxation")
    p.add_argument("--state", default="bell:phi-")
    p.add_argument("--witness", default="phi-", choices=sorted(_KIND_NAMES))
    p.add_argument("--t1i", type=float, default=10.0, help="T1 of spin I, seconds")
    p.add_argument("--t2i", type=float, default=0.31, help="T2 of spin I, seconds")
    p.add_argument("--t1s", type=float, default=10.0, help="T1 of spin S, seconds")
    p.add_argument("--t2s", type=float, default=0.11, help="T2 of spin S, seconds")
    p.add_argument("--tmax", type=float, default=0.6, help="sweep end time, seconds")
    p.add_argument("--steps", type=int, default=200, help="number of grid points")
    _add_common(p, default_format="csv")
    p.set_defaults(func=_cmd_relax_sweep)

    p = subs.add_parser("detect-region", help="classify a grid of correlation triples")
    p.add_argument("resolution", type=int, help=f"grid points per axis (2 to {_MAX_RESOLUTION})")
    _add_common(p, default_format="csv")
    p.set_defaults(func=_cmd_detect_region)

    p = subs.add_parser("sdc", help="superdense coding run on a thermal state")
    p.add_argument("--eps", required=True, help="polarizations, e.g. 1,1")
    p.add_argument("--msg", required=True, help="message bits x,z, e.g. 1,0")
    _add_common(p)
    p.set_defaults(func=_cmd_sdc)

    return parser


def main(argv=None) -> int:
    env_tol = os.environ.get("WITNESSLAB_TOL")
    psd_tol = TOL.psd_tol
    if env_tol is not None:
        try:
            psd_tol = float(env_tol)
        except ValueError:
            psd_tol = np.nan
        if not 0.0 <= psd_tol < np.inf:
            print(f"witnesslab: bad WITNESSLAB_TOL value {env_tol!r}", file=sys.stderr)
            return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; normalize --help's exit code 0
        return int(exc.code or 0)
    # the tolerance holds for this call only
    saved_tol, TOL.psd_tol = TOL.psd_tol, psd_tol
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"witnesslab: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"witnesslab: domain error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(
            f"witnesslab: solver did not converge: {exc} "
            f"(bounds: [{exc.lower}, {exc.upper}])",
            file=sys.stderr,
        )
        return 4
    finally:
        TOL.psd_tol = saved_tol


if __name__ == "__main__":
    sys.exit(main())
