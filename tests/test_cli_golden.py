"""Golden output: the exact bytes every subcommand writes, in each format.

The argvs are chosen so the bytes do not depend on LAPACK rounding: Bell
states, the identity, the closed-form optimal witnesses, a 3-point detection grid,
superdense coding and six-digit text robustness.  The files under
``tests/golden/`` are the reference; regenerate them deliberately with
``PYTHONPATH=src python tests/test_cli_golden.py`` after an intended change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import witnesslab
from witnesslab import detection_region_grid
from witnesslab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "witness-bell-text": ["witness", "--state", "bell:phi-", "--witness", "phi-", "--witness", "psi+"],
    "witness-bell-csv": ["witness", "--state", "bell:psi-", "--witness", "psi-", "--format", "csv"],
    "witness-bell-json": ["witness", "--state", "bell:phi+", "--witness", "phi+", "--format", "json"],
    "witness-identity-text": ["witness", "--state", "identity", "--witness", "phi-"],
    "witness-identity-csv": ["witness", "--state", "identity", "--format", "csv"],
    "witness-identity-json": ["witness", "--state", "identity", "--witness", "psi-", "--format", "json"],
    "witness-noise-json": ["witness", "--state", "bell:phi-", "--noise", "0.01", "--seed", "7",
                           "--format", "json"],
    "optimal-witness-text": ["optimal-witness", "--all"],
    "optimal-witness-csv": ["optimal-witness", "psi+", "--format", "csv"],
    "optimal-witness-json": ["optimal-witness", "--all", "--format", "json"],
    "robustness-bell-text": ["robustness", "--state", "bell:phi-"],
    "robustness-bd-text": ["robustness", "--state", "bd:-0.2,1.0,0.2"],
    "robustness-identity-text": ["robustness", "--state", "identity"],
    "robustness-identity-csv": ["robustness", "--state", "identity", "--format", "csv"],
    "robustness-identity-json": ["robustness", "--state", "identity", "--format", "json"],
    "relax-sweep-identity-csv": ["relax-sweep", "--state", "identity", "--steps", "5", "--tmax", "0.2"],
    "relax-sweep-identity-text": ["relax-sweep", "--state", "identity", "--steps", "5", "--tmax", "0.2",
                                  "--format", "text"],
    "relax-sweep-identity-json": ["relax-sweep", "--state", "identity", "--steps", "5", "--tmax", "0.2",
                                  "--format", "json"],
    "detect-region-csv": ["detect-region", "3"],
    "detect-region-text": ["detect-region", "3", "--format", "text"],
    "detect-region-json": ["detect-region", "3", "--format", "json"],
    "sdc-text": ["sdc", "--eps", "1,1", "--msg", "1,0"],
    "sdc-csv": ["sdc", "--eps", "1,1", "--msg", "1,0", "--format", "csv"],
    "sdc-json": ["sdc", "--eps", "1,1", "--msg", "1,0", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_and_output_file_match_golden(name, capsys, tmp_path):
    want = (GOLDEN / f"{name}.out").read_bytes()
    assert main(CASES[name]) == 0
    out = capsys.readouterr()
    assert out.out.encode() == want and out.err == ""
    path = tmp_path / "out"
    assert main([*CASES[name], "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == want


@pytest.mark.parametrize("n", [2, 4, 21, 41])
def test_detect_region_streams_the_encoder_bytes(n, capsys):
    # the streamed document and rows against json's own encoder and repr on the library's grid
    grid = detection_region_grid(n)
    doc = {
        "subcommand": "detect-region",
        "resolution": n,
        "points": [{"c": list(c), "class": cls.value} for c, cls in grid],
    }
    assert main(["detect-region", str(n), "--format", "json"]) == 0
    assert capsys.readouterr().out == "".join(json.JSONEncoder(indent=2).iterencode(doc)) + "\n"
    rows = "".join(f"{c1!r},{c2!r},{c3!r},{cls.value}\n" for (c1, c2, c3), cls in grid)
    assert main(["detect-region", str(n)]) == 0
    assert capsys.readouterr().out == "c1,c2,c3,class\n" + rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_detect_region_output_file_equals_stdout(fmt, capsys, tmp_path):
    argv = ["detect-region", "21", "--format", fmt]
    assert main(argv) == 0
    want = capsys.readouterr().out.encode()
    path = tmp_path / "region"
    assert main([*argv, "-o", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == want


def _child_peak_rss_kb(*argv):
    # a fresh wrapper: Linux carries a parent's peak RSS into its children over fork and exec
    wrapper = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-m', 'witnesslab.cli', *sys.argv[1:]],"
        " stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(witnesslab.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", wrapper, *argv], capture_output=True, env=env,
                         check=True, timeout=120)
    return int(out.stdout)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_detect_region_memory_is_flat_in_the_resolution(fmt):
    small = _child_peak_rss_kb("detect-region", "2", "--format", fmt)
    largest = _child_peak_rss_kb("detect-region", "101", "--format", fmt)
    assert largest <= 1.1 * small, (small, largest)


def _cli(*argv, stdout):
    # stdout block-buffered, as in a plain shell
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(witnesslab.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, "-m", "witnesslab.cli", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env,
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reader_closing_early_is_not_an_error(fmt):
    # like `witnesslab detect-region 41 | head -1`
    proc = _cli("detect-region", "41", "--format", fmt, stdout=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
    assert first in (b"c1,c2,c3,class\n", b"{\n")


def test_pipe_closed_before_any_output_is_not_an_error():
    # a short output stays buffered until the final flush, which must not fail again at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = _cli("witness", "--state", "identity", stdout=write_end)
    os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == b""


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0, name
        (GOLDEN / f"{name}.out").write_bytes(buf.getvalue().encode())
