"""A file: state spec reads a bounded number of bytes and never ends in a traceback."""

import os
import tracemalloc

import pytest

from witnesslab import BellKind, bell_state
from witnesslab.cli import _MAX_STATE_BYTES, main, save_state_json

ENTRY = '{"re": 0.25, "im": 0.0}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def rejected(capsys, path) -> str:
    """Exit 2, nothing on stdout, the path named; returns stderr."""
    code, out, err = run(capsys, "witness", "--state", f"file:{path}")
    assert code == 2 and out == ""
    assert repr(str(path)) in err and "Traceback" not in err
    return err


def test_budget_boundary(tmp_path, capsys):
    path = tmp_path / "state.json"
    save_state_json(bell_state(BellKind.PHI_MINUS), str(path))
    text = path.read_text(encoding="utf-8")
    path.write_text(text + " " * (_MAX_STATE_BYTES - len(text)), encoding="utf-8")
    code, out, _ = run(capsys, "witness", "--state", f"file:{path}")
    assert code == 0 and "F = -0.5" in out
    path.write_text(text + " " * (_MAX_STATE_BYTES + 1 - len(text)), encoding="utf-8")
    assert "larger than" in rejected(capsys, path)


def test_deeply_nested_json(tmp_path, capsys):
    # 100,000 brackets are over the byte budget; 50,000 fit and overflow the parser
    for n, reason in ((100_000, "larger than"), (50_000, "recursion")):
        path = tmp_path / f"deep{n}.json"
        path.write_text("[" * n, encoding="utf-8")
        assert reason in rejected(capsys, path)


def test_large_file_is_rejected_after_a_bounded_read(tmp_path, capsys):
    path = tmp_path / "big.json"
    with open(path, "w", encoding="utf-8") as fh:  # about 2.4 MB of entries
        fh.write('{"entries": [')
        for _ in range(10):
            fh.write(",".join([ENTRY] * 10_000) + ",")
        fh.write(ENTRY + "]}")
    run(capsys, "witness", "--state", "identity")  # first-call caches outside the trace
    tracemalloc.start()
    try:
        err = rejected(capsys, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "larger than" in err
    assert peak < 1 << 20


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero on this platform")
def test_endless_file(capsys):
    assert "larger than" in rejected(capsys, "/dev/zero")
