"""Golden output: the exact bytes every subcommand writes, in each format.

The argvs are chosen so the bytes do not depend on LAPACK rounding: Bell
states, the identity, the exact witness LP, a 3-point detection grid,
superdense coding and six-digit text robustness.  The files under
``tests/golden/`` are the reference; regenerate them deliberately with
``PYTHONPATH=src python tests/test_cli_golden.py`` after an intended change.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import witnesslab
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
