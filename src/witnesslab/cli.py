"""Command-line interface.

Every computation is a subcommand with text (default), CSV, or JSON output.
A subcommand returns its JSON document or its output lines (``detect-region``
formats its JSON itself, to stream it), and ``main`` is the one writer.
Exit codes: 0 success, 2 usage error or unwritable output, 3 domain error
(unphysical input), 4 solver non-convergence.  Identical
invocations produce byte-identical output; JSON documents validate against
schemas/output.schema.json.

Only errors, qmat and states load with this module.  Each subcommand imports
the modules it runs, so that ``witness`` loads no robustness solver and
``sdc`` loads no witness code.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import _MAX_RESOLUTION, _MAX_STEPS, ConvergenceError, DomainError, StructuralError
from .qmat import PSD_TOL, DensityMatrix, _eigvalsh, _pt_arr
from .states import BellDiagonalParams, BellKind, ThermalParams, _bd_operator, bell_state

_KIND_NAMES = {k.value: k for k in BellKind}
_MAX_STATE_BYTES = 1 << 16  # a save_state_json file is about 1.2 KB


class _UsageError(Exception):
    """Malformed arguments discovered after argparse (exit code 2)."""


def _fmt(v: float) -> str:
    """Human-report float: 6 significant digits."""
    return f"{v:.6g}"


def parse_state_spec(spec: str, psd_tol: float = PSD_TOL) -> DensityMatrix:
    """Grammar: bell:<kind> | bd:<c1,c2,c3> | identity | file:<path>; PSD within psd_tol."""
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
        BellDiagonalParams(*c)  # the Bell weights' check; bell_diagonal's matrix, judged once
        return DensityMatrix(0.25 * _bd_operator(1.0, *c), psd_tol=psd_tol)
    if spec.startswith("file:"):
        return load_state_json(spec[len("file:"):], psd_tol)
    raise _UsageError(f"unrecognized state spec {spec!r}")


def load_state_json(path: str, psd_tol: float = PSD_TOL) -> DensityMatrix:
    """Read a density matrix from the JSON wire format.

    The format is an object with "entries": 16 row-major {"re": .., "im": ..}
    pairs.  At most _MAX_STATE_BYTES are read; a larger file, or JSON nested
    too deeply to parse, is malformed.  Structural problems are usage errors;
    a well-formed matrix that is not a state (PSD within psd_tol) is a domain error.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read(_MAX_STATE_BYTES + 1)
        if len(raw) > _MAX_STATE_BYTES:
            raise _UsageError(f"state file {path!r} is larger than {_MAX_STATE_BYTES} bytes")
        doc = json.loads(raw.decode("utf-8"))
        entries = doc["entries"]
        values = [complex(float(e["re"]), float(e["im"])) for e in entries]
    except (OSError, RecursionError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"cannot read state file {path!r}: {exc}") from exc
    if len(values) != 16:
        raise _UsageError(f"state file must hold 16 entries, found {len(values)}")
    try:
        return DensityMatrix(np.array(values, dtype=complex).reshape(4, 4), psd_tol=psd_tol)
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


# ---------------------------------------------------------------------------
# subcommands: each returns a JSON document or an iterable of output lines
# ---------------------------------------------------------------------------

def _cmd_witness(args):
    from .witness import _correlations, _f_values, bell_witness

    labels = ("XX", "YY", "ZZ")
    corr = dict(zip(labels, _correlations(parse_state_spec(args.state, args.psd_tol))))
    if args.noise != 0.0:  # add_noise rejects negative and NaN sigma
        from .readout import add_noise

        corr = {
            lab: add_noise(v, args.noise, args.seed + k)
            for k, (lab, v) in enumerate(corr.items())
        }
    # F (by f_witness_state's rule, which clips rounding spill past +-1) and the witness values
    # come from the same, possibly noisy, correlations that get reported, as a measurement run would
    f_val = float(_f_values(corr["XX"], corr["ZZ"]))
    rows = []
    for name in args.witness or []:
        w = bell_witness(_KIND_NAMES[name])
        rows.append((name, w, w.value(corr["XX"], corr["YY"], corr["ZZ"])))

    if args.format == "json":
        return {
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
    if args.format == "csv":
        return [
            "state,quantity,value,verdict",
            *(f"{args.state},{lab.lower()},{corr[lab]!r}," for lab in labels),
            f"{args.state},f,{f_val!r},{_verdict(f_val)}",
            *(f"{args.state},w:{name},{val!r},{_verdict(val)}" for name, _w, val in rows),
        ]
    return [
        f"state: {args.state}",
        f"<XX> = {_fmt(corr['XX'])}   <YY> = {_fmt(corr['YY'])}   <ZZ> = {_fmt(corr['ZZ'])}",
        f"F = {_fmt(f_val)}   [{_verdict(f_val)}]",
        *(
            f"W[{name}] = {_fmt(val)}   coefficients ({', '.join(_fmt(c) for c in w.as_tuple())})"
            f"   [{_verdict(val)}]"
            for name, w, val in rows
        ),
    ]


def _cmd_optimal_witness(args):
    from .witness import eval_witness, optimal_witness, witness_is_valid

    kinds = list(BellKind) if args.all else [_KIND_NAMES[args.kind]]
    rows = []
    for kind in kinds:
        w = optimal_witness(kind)
        objective = eval_witness(w, bell_state(kind))
        rows.append((kind.value, w, objective, witness_is_valid(w)))

    if args.format == "json":
        return {
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
    if args.format == "csv":
        return [
            "kind,c_i,c_x,c_y,c_z,objective",
            *(
                f"{kind},{','.join(repr(c) for c in w.as_tuple())},{obj!r}"
                for kind, w, obj, _valid in rows
            ),
        ]
    return [
        f"{kind}: coefficients ({', '.join(_fmt(c) for c in w.as_tuple())})   "
        f"objective {_fmt(obj)}   {'valid' if valid else 'INVALID'}"
        for kind, w, obj, valid in rows
    ]


def _certificate_residual(rho: DensityMatrix, result) -> float:
    if result.certificate_state is None or result.value == 0.0:
        return 0.0
    mix = (rho.matrix + result.value * result.certificate_state.matrix) / (1.0 + result.value)
    lam = float(_eigvalsh(_pt_arr(mix))[0])
    return max(0.0, -lam)


def _cmd_robustness(args):
    from .optim import generalized_robustness

    rho = parse_state_spec(args.state, args.psd_tol)
    result = generalized_robustness(rho)
    residual = _certificate_residual(rho, result)
    if args.format == "json":
        return {
            "state": args.state,
            "value": result.value,
            "iterations": result.iterations,
            "certificate_residual": residual,
        }
    if args.format == "csv":
        return [
            "state,value,iterations,certificate_residual",
            f"{args.state},{result.value!r},{result.iterations},{residual!r}",
        ]
    return [
        f"state: {args.state}",
        f"generalized robustness = {_fmt(result.value)}",
        f"iterations = {result.iterations}",
        f"certificate residual = {_fmt(residual)}",
    ]


def _cmd_relax_sweep(args):
    from .relax import RelaxationParams, sweep
    from .witness import bell_witness

    rho = parse_state_spec(args.state, args.psd_tol)
    params = RelaxationParams(t1_i=args.t1i, t2_i=args.t2i, t1_s=args.t1s, t2_s=args.t2s)
    w = bell_witness(_KIND_NAMES[args.witness])
    series = sweep(rho, params, w, t_max=args.tmax, steps=args.steps)
    taus = {"tau_c": series.tau_c, "tau_r": series.tau_r, "tau_w": series.tau_w}
    points = zip(series.times.tolist(), series.f_values.tolist(), series.w_values.tolist(), series.gr_values.tolist())
    if args.format == "json":
        return {
            "state": args.state,
            "witness": args.witness,
            "params": {"t1_i": args.t1i, "t2_i": args.t2i, "t1_s": args.t1s, "t2_s": args.t2s},
            **taus,
            "series": [{"time": t, "f": f, "w": wv, "gr": g} for t, f, wv, g in points],
        }
    # csv is the default for series data, and stands in for text
    return [
        f"# state={args.state} witness={args.witness}",
        f"# t1_i={args.t1i!r} t2_i={args.t2i!r} t1_s={args.t1s!r} t2_s={args.t2s!r}",
        "# " + " ".join(f"{name}={'none' if v is None else repr(v)}" for name, v in taus.items()),
        "time,f,w,gr",
        *(f"{t!r},{f!r},{wv!r},{g!r}" for t, f, wv, g in points),
    ]


def _cmd_detect_region(args):
    from .witness import BDClass, _region_planes

    # a bad resolution is a domain error here, before any output
    axis, planes = _region_planes(args.resolution)
    text = [repr(v) for v in axis]  # also json's encoding of these finite floats
    if args.format == "json":
        # the document json.JSONEncoder(indent=2) writes, streamed point by point
        head = '    {{\n      "c": [\n        {},\n        {},\n        '
        tail = '{}\n      ],\n      "class": "{}"\n    }}'
        sep, more = ",\n", ","
        start = ["{", f'  "subcommand": "{args.subcommand}",',
                 f'  "resolution": {args.resolution},', '  "points": [']
        end = ["  ]", "}"]
    else:
        head, tail, sep, more = "{},{},", "{},{}", "\n", ""
        start, end = ["c1,c2,c3,class"], []
    # the c3 end of a point for every (class, c3), so a point is two pieces
    tails = {cls: [tail.format(r3, cls.value) for r3 in text] for cls in BDClass}

    def rows():
        # one c1 plane classified at a time, written one c2 row at a time;
        # a row is its points joined by sep, and every row but the last ends in more
        last = (len(text) - 1, len(text) - 1)
        for k, (r1, plane) in enumerate(zip(text, planes)):
            for j2, (r2, classes) in enumerate(zip(text, plane.tolist())):
                h = head.format(r1, r2)
                points = [h + tails[cls][j3] for j3, cls in enumerate(classes)]
                if (k, j2) != last:
                    points[-1] += more
                yield sep.join(points)

    return itertools.chain(start, rows(), end)


def _decode_bit(mz: float) -> int | None:
    if mz > 1e-12:
        return 0
    if mz < -1e-12:
        return 1
    return None


def _cmd_sdc(args):
    from .circuits import Message, superdense_run

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
        return {
            "eps": eps,
            "message": {"x": msg[0], "z": msg[1]},
            "mz_i": result.mz_i,
            "mz_s": result.mz_s,
            "decoded": {"x": decoded_x, "z": decoded_z},
            "success": success,
        }
    if args.format == "csv":
        dx = "" if decoded_x is None else decoded_x
        dz = "" if decoded_z is None else decoded_z
        ok = "" if success is None else str(success).lower()
        return [
            "eps_i,eps_s,x,z,mz_i,mz_s,decoded_x,decoded_z,success",
            f"{eps[0]!r},{eps[1]!r},{msg[0]},{msg[1]},{result.mz_i!r},{result.mz_s!r},{dx},{dz},{ok}",
        ]
    if success is None:
        verdict = "decode inconclusive (zero magnetization)"
    else:
        verdict = "success" if success else "FAILURE"
    return [
        f"<Z_I> = {_fmt(result.mz_i)}   <Z_S> = {_fmt(result.mz_s)}",
        f"decoded (x, z) = ({'?' if decoded_x is None else decoded_x}, "
        f"{'?' if decoded_z is None else decoded_z})   [{verdict}]",
    ]


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _add_common(sub, default_format="text"):
    # the series subcommands default to CSV and print it for text as well
    text_note = "; text prints the CSV" if default_format == "csv" else ""
    sub.add_argument(
        "--format", choices=("text", "csv", "json"), default=default_format,
        help=f"output format (default: {default_format}{text_note})",
    )
    sub.add_argument("--output", "-o", default=None, help="write to file instead of stdout")


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
    p.add_argument("--seed", type=int, default=0, help="seed of the --noise draws")
    _add_common(p)
    p.set_defaults(func=_cmd_witness)

    p = subs.add_parser("optimal-witness", help="print the optimal witness of a Bell state")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("kind", nargs="?", choices=sorted(_KIND_NAMES), help="target Bell state")
    target.add_argument("--all", action="store_true", help="emit all four rows")
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
    p.add_argument("--steps", type=int, default=200, help=f"number of grid points (2 to {_MAX_STEPS})")
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


def _write(out, path: str | None) -> int:
    """Write a JSON document or an iterable of lines to path, or to stdout.

    An item of the iterable may hold several lines, all but its last newline.
    The chunks go straight to the file's buffered writer, so the encoded
    output is never held whole.  Returns the exit code: 0, or 2 when the
    output cannot be opened or written.
    """
    if isinstance(out, dict):
        chunks = itertools.chain(json.JSONEncoder(indent=2).iterencode(out), ["\n"])
    else:
        chunks = (line + "\n" for line in out)
    try:
        if path is None:
            sink = contextlib.nullcontext(sys.stdout)
        else:
            sink = open(path, "w", encoding="utf-8", newline="\n")
        with sink as fh:
            fh.writelines(chunks)
            fh.flush()
    except OSError as exc:
        if path is None:  # so the flush at exit does not fail a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 0  # the reader stopped early, as `| head` does
        target = "stdout" if path is None else repr(path)
        print(f"witnesslab: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    env_tol = os.environ.get("WITNESSLAB_TOL")
    psd_tol = PSD_TOL
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
    args.psd_tol = psd_tol  # judges this call's --state and nothing else
    try:
        out = args.func(args)
    except _UsageError as exc:
        print(f"witnesslab: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 2
    except (DomainError, StructuralError) as exc:
        # a StructuralError here is a state outside a tolerance tighter than rounding
        print(f"witnesslab: domain error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(
            f"witnesslab: solver did not converge: {exc} "
            f"(bounds: [{exc.lower}, {exc.upper}])",
            file=sys.stderr,
        )
        return 4
    if isinstance(out, dict):
        out = {"subcommand": args.subcommand, **out}
    return _write(out, args.output)

if __name__ == "__main__":
    sys.exit(main())
