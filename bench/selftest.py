"""Tests of the benchmark itself: input generator, checkers, exact-count guard.

    python3 -m pytest -q bench/selftest.py

They never modify witnesslab.  The checker cases feed fabricated wrong
outputs through the same op accounting the benchmark uses and assert that
each one is counted as a failed op.  The file is not named test_*.py, so the
package's own test suite does not collect it.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import run
import workloads
from inputs import (
    BELL_CORRELATIONS,
    BELL_KINDS,
    WORKLOADS,
    bd_matrix,
    make_round,
    mix_counts,
    pt_min_eig,
    warmup_item,
)

_PLAIN = (np.ndarray, float, int, str, bool, type(None))


def _plain(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(_plain(v) for v in value)
    return isinstance(value, _PLAIN)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_plain_inputs(workload):
    for index in (0, 3):
        first = make_round(workload, 7, index)
        assert _same(first, make_round(workload, 7, index))
        assert all(_plain(v) for item in first for v in item.values())
    assert not _same(make_round(workload, 7, 0), make_round(workload, 8, 0))


def test_stated_mix_in_exact_counts():
    assert mix_counts("robustness", 5, 3) == {
        "bell_diagonal": 24, "kind:bell-diagonal": 12, "kind:ginibre": 36,
        "kind:pseudo-pure": 12, "ops": 60, "ppt": 15,
    }
    assert mix_counts("sweep", 5, 3) == {
        "bell_diagonal": 12, "kind:bell": 9, "kind:ginibre": 27, "kind:pseudo-pure": 3,
        "kind:rotated": 3, "ops": 42,
    }
    assert mix_counts("measure", 5, 3) == {
        "bell_diagonal": 12, "kind:bell-diagonal": 6, "kind:ginibre": 12,
        "kind:pseudo-pure": 6, "ops": 24,
    }
    assert mix_counts("cli", 5, 2) == {
        "format:csv": 14, "format:json": 16, "format:text": 8,
        "kind:detect-region": 10, "kind:optimal-witness": 6, "kind:relax-sweep": 4,
        "kind:robustness": 6, "kind:sdc": 6, "kind:witness": 6,
    }


def test_cli_warmup_needs_no_file_state():
    # set-up probes run the warm-up before the file: state is written
    assert not any(a.startswith("file:") for a in warmup_item("cli")["argv"])


def test_ppt_flags_match_the_inputs():
    for item in make_round("robustness", 5, 0):
        assert (pt_min_eig(item["matrix"]) >= 0.0) == item["ppt"]
        if item["bd"] is not None:
            assert np.allclose(item["matrix"], bd_matrix(item["bd"]))


# ---------------------------------------------------------------------------
# checker self-test: each fabricated wrong output counts in error_rate
# ---------------------------------------------------------------------------

def _error_rate(monkeypatch, workload, ctx, items_and_outputs) -> float:
    outputs = dict((id(item), out) for item, out in items_and_outputs)
    check = workloads.OPS[workload][1]
    monkeypatch.setitem(workloads.OPS, workload, (lambda _ctx, item: outputs[id(item)], check))
    result = run.Pass()
    run.run_ops(ctx, workload, [item for item, _ in items_and_outputs], result)
    return len(result.failures) / result.attempted


def _entangled_bd_item():
    c = (-0.2, 1.0, 0.2)  # 0.6 phi- + 0.4 psi+, robustness 0.2
    return {"kind": "bell-diagonal", "ppt": False, "bd": c, "matrix": bd_matrix(c)}


def _robustness_result(value, cert):
    return SimpleNamespace(value=value, iterations=40, certificate_state=SimpleNamespace(matrix=cert))


def test_robustness_checker_counts_wrong_values(monkeypatch):
    item = _entangled_bd_item()
    oracle = workloads.gr_oracle(item["bd"])
    v = np.array([1, 0, 0, -1]) / np.sqrt(2)  # phi-, the heaviest Bell state here
    good_cert = (np.eye(4) - np.outer(v, v)) / 3.0
    ctx = workloads.Context(wl=None)
    assert _error_rate(monkeypatch, "robustness", ctx, [(item, _robustness_result(oracle, good_cert))]) == 0.0
    cases = [
        _robustness_result(oracle + 1e-5, good_cert),  # value off the oracle by 1e-5
        _robustness_result(oracle, np.eye(4) / 4.0),  # the mixture is not PPT
    ]
    for wrong in cases:
        assert _error_rate(monkeypatch, "robustness", ctx, [(item, wrong)]) == 1.0


def _reference_series(item):
    times = np.linspace(0.0, 0.6, 200)
    coords = workloads.relaxed_coords(workloads.item_matrix(item), times, item["params"])
    xx, yy, zz = coords[:, workloads._XX], coords[:, workloads._YY], coords[:, workloads._ZZ]
    return SimpleNamespace(
        times=times,
        f_values=workloads.f_from(xx, zz),
        w_values=workloads.witness_from(item["witness"], xx, yy, zz),
        gr_values=np.array([workloads.gr_oracle(c) for c in coords[:, [workloads._XX, workloads._YY, workloads._ZZ]]]),
        tau_c=0.288,
    )


def test_sweep_checker_counts_a_curve_off_the_oracle(monkeypatch):
    item = next(i for i in make_round("sweep", 5, 0) if i["reference"])
    series = _reference_series(item)
    ctx = workloads.Context(wl=None)
    assert _error_rate(monkeypatch, "sweep", ctx, [(item, (None, None, None, series))]) == 0.0
    off = SimpleNamespace(**{**vars(series), "gr_values": series.gr_values + 1e-5})
    assert _error_rate(monkeypatch, "sweep", ctx, [(item, (None, None, None, off))]) == 1.0


def test_cli_checker_counts_different_bytes_for_one_argv(monkeypatch):
    argv = ["sdc", "--eps", "0.5,0.3", "--msg", "1,0"]
    good = b"<Z_I> = 0.5   <Z_S> = -0.3\ndecoded (x, z) = (1, 0)   [success]\n"
    drift = b"<Z_I> = 0.5   <Z_S> = -0.300001\ndecoded (x, z) = (1, 0)   [success]\n"
    first = {"kind": "sdc", "format": "text", "argv": argv}
    again = {"kind": "sdc", "format": "text", "argv": list(argv)}
    ctx = workloads.Context(wl=None)
    rate = _error_rate(monkeypatch, "cli", ctx, [
        (first, SimpleNamespace(returncode=0, stdout=good, stderr=b"")),
        (again, SimpleNamespace(returncode=0, stdout=drift, stderr=b"")),
    ])
    assert rate == 0.5


# ---------------------------------------------------------------------------
# exact-count guard
# ---------------------------------------------------------------------------

def test_count_guard_flags_counts_that_change(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    counts = {"optim.newton_iters": 7420, "optim.generalized_robustness.calls": 220}
    assert run.count_guard("robustness", 1, 11, counts) == "first run of this seed"
    assert run.count_guard("robustness", 1, 11, dict(counts)) == "match"
    changed = {**counts, "optim.newton_iters": 7421}
    assert run.count_guard("robustness", 1, 11, changed).startswith("MISMATCH")


def test_tail_has_ten_ops_beyond_it():
    value, pct = run.tail([float(k) for k in range(100)])
    assert value == 89.0 and pct == 90.0
    assert sum(1 for k in range(100) if k > value) == 10


def test_bell_tables_agree():
    for kind in BELL_KINDS:
        assert workloads.witness_from(kind, *BELL_CORRELATIONS[kind]) == pytest.approx(-1.0)
