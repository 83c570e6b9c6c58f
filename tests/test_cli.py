import json
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate

from witnesslab import BellKind, bell_state
from witnesslab.cli import main, parse_state_spec, save_state_json

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "schemas" / "output.schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    validate(doc, SCHEMA)
    return doc


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def test_witness_phi_minus_report(capsys):
    code, out, _ = run(capsys, "witness", "--state", "bell:phi-", "--witness", "phi-")
    assert code == 0
    assert "F = -0.5" in out
    assert "W[phi-] = -1" in out


def test_witness_identity_report(capsys):
    code, out, _ = run(capsys, "witness", "--state", "identity")
    assert code == 0
    assert "F = 0.25" in out and "not detected" in out


def test_witness_undetected_state_json(capsys):
    doc = run_json(
        capsys, "witness", "--state", "bd:-0.2,1.0,0.2", "--witness", "phi-"
    )
    assert abs(doc["f"]["value"] - 0.14) < 1e-9
    assert doc["f"]["verdict"] == "not detected"
    assert abs(doc["witnesses"][0]["value"] + 0.2) < 1e-9
    assert doc["witnesses"][0]["verdict"] == "entangled (detected)"


def test_witness_csv_shape(capsys):
    code, out, _ = run(capsys, "witness", "--state", "identity", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "state,quantity,value,verdict"
    assert len(lines) == 5  # xx, yy, zz, f


def test_witness_noise_is_seeded(capsys):
    a = run_json(capsys, "witness", "--state", "bell:phi-", "--noise", "0.01", "--seed", "7")
    b = run_json(capsys, "witness", "--state", "bell:phi-", "--noise", "0.01", "--seed", "7")
    c = run_json(capsys, "witness", "--state", "bell:phi-", "--noise", "0.01", "--seed", "8")
    assert a == b
    assert a["correlations"] != c["correlations"]


# ---------------------------------------------------------------------------
# optimal-witness
# ---------------------------------------------------------------------------

def test_optimal_witness_single(capsys):
    doc = run_json(capsys, "optimal-witness", "phi+")
    assert doc["rows"][0]["coefficients"] == [0.5, -0.5, 0.5, -0.5]
    assert abs(doc["rows"][0]["objective"] + 1.0) < 1e-9


def test_optimal_witness_all_rows(capsys):
    doc = run_json(capsys, "optimal-witness", "--all")
    rows = {r["kind"]: r["coefficients"] for r in doc["rows"]}
    assert rows == {
        "phi+": [0.5, -0.5, 0.5, -0.5],
        "psi+": [0.5, -0.5, -0.5, 0.5],
        "phi-": [0.5, 0.5, -0.5, -0.5],
        "psi-": [0.5, 0.5, 0.5, 0.5],
    }
    assert all(r["valid"] for r in doc["rows"])


def test_optimal_witness_report_mentions_psi_minus(capsys):
    code, out, _ = run(capsys, "optimal-witness", "psi-")
    assert code == 0
    assert "0.5, 0.5, 0.5, 0.5" in out


# ---------------------------------------------------------------------------
# robustness
# ---------------------------------------------------------------------------

def test_robustness_phi_minus(capsys):
    doc = run_json(capsys, "robustness", "--state", "bell:phi-")
    assert abs(doc["value"] - 1.0) < 1e-6
    assert doc["certificate_residual"] >= 0.0
    assert doc["iterations"] > 0


def test_robustness_identity(capsys):
    doc = run_json(capsys, "robustness", "--state", "identity")
    assert doc["value"] == 0.0 and doc["iterations"] == 0


def test_robustness_undetected_state(capsys):
    doc = run_json(capsys, "robustness", "--state", "bd:-0.2,1.0,0.2")
    assert abs(doc["value"] - 0.2) < 1e-6


# ---------------------------------------------------------------------------
# relax-sweep
# ---------------------------------------------------------------------------

def test_relax_sweep_csv_layout(capsys):
    code, out, _ = run(
        capsys, "relax-sweep", "--steps", "40", "--tmax", "0.6",
        "--t2i", "0.31", "--t2s", "0.11",
    )
    assert code == 0
    lines = out.strip().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    assert any("tau_c=" in ln for ln in meta)
    header_at = lines.index("time,f,w,gr")
    rows = lines[header_at + 1:]
    assert len(rows) == 40
    tau_c = float(next(ln for ln in meta if "tau_c=" in ln).split("tau_c=")[1].split()[0])
    assert 0.24 <= tau_c <= 0.40


def test_relax_sweep_identity_constant_columns(capsys):
    doc = run_json(capsys, "relax-sweep", "--state", "identity", "--steps", "5", "--tmax", "0.2")
    assert doc["tau_c"] is None
    f_column = {round(pt["f"], 12) for pt in doc["series"]}
    assert f_column == {0.25}
    assert all(pt["gr"] == 0.0 for pt in doc["series"])


def test_relax_sweep_json_schema_and_lengths(capsys):
    doc = run_json(capsys, "relax-sweep", "--steps", "10", "--tmax", "0.3")
    assert len(doc["series"]) == 10
    assert doc["params"]["t2_i"] == 0.31


# ---------------------------------------------------------------------------
# detect-region
# ---------------------------------------------------------------------------

def test_detect_region_row_count(capsys):
    code, out, _ = run(capsys, "detect-region", "21")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c1,c2,c3,class"
    assert len(lines) - 1 == 21 ** 3
    assert "0.0,0.0,0.0,separable" in lines
    assert "-1.0,1.0,1.0,entangled-detected-by-f" in lines


def test_detect_region_json(capsys):
    doc = run_json(capsys, "detect-region", "3")
    assert doc["resolution"] == 3
    assert len(doc["points"]) == 27


# ---------------------------------------------------------------------------
# sdc
# ---------------------------------------------------------------------------

def test_sdc_pure_message(capsys):
    doc = run_json(capsys, "sdc", "--eps", "1,1", "--msg", "1,0")
    assert doc["mz_i"] == pytest.approx(1.0, abs=1e-9)
    assert doc["mz_s"] == pytest.approx(-1.0, abs=1e-9)
    assert doc["decoded"] == {"x": 1, "z": 0}
    assert doc["success"] is True


def test_sdc_zero_polarization_inconclusive(capsys):
    doc = run_json(capsys, "sdc", "--eps", "0,0", "--msg", "1,1")
    assert doc["decoded"] == {"x": None, "z": None}
    assert doc["success"] is None


def test_sdc_room_temperature_polarization(capsys):
    doc = run_json(capsys, "sdc", "--eps", "1e-5,1e-5", "--msg", "0,1")
    assert doc["mz_i"] == pytest.approx(-1e-5, rel=1e-6)
    assert doc["mz_s"] == pytest.approx(1e-5, rel=1e-6)
    assert doc["decoded"] == {"x": 0, "z": 1}
    assert doc["success"] is True


# ---------------------------------------------------------------------------
# plumbing: exit codes, determinism, files, env
# ---------------------------------------------------------------------------

def test_exit_code_2_on_malformed_state(capsys):
    code, _, err = run(capsys, "witness", "--state", "nonsense")
    assert code == 2
    assert "usage" in err


def test_exit_code_2_on_unknown_flag(capsys):
    assert main(["witness", "--state", "identity", "--frobnicate"]) == 2


def test_exit_code_3_on_unphysical_triple(capsys):
    code, _, err = run(capsys, "witness", "--state", "bd:1,1,1")
    assert code == 3
    assert "domain error" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_output_files_are_byte_identical(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code = main([
            "relax-sweep", "--steps", "12", "--tmax", "0.4",
            "--format", "json", "--output", str(p),
        ])
        assert code == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_state_file_round_trip(tmp_path, capsys):
    path = tmp_path / "state.json"
    save_state_json(bell_state(BellKind.PHI_MINUS), str(path))
    doc = run_json(capsys, "witness", "--state", f"file:{path}")
    assert abs(doc["f"]["value"] + 0.5) < 1e-9
    rho = parse_state_spec(f"file:{path}")
    assert np.max(np.abs(rho.matrix - bell_state(BellKind.PHI_MINUS).matrix)) < 1e-12


def test_state_file_malformed_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"entries": [1, 2]}')
    code, _, _ = run(capsys, "witness", "--state", f"file:{path}")
    assert code == 2


def test_state_file_unphysical_is_domain_error(tmp_path, capsys):
    path = tmp_path / "unphysical.json"
    entries = [{"re": 0.0, "im": 0.0} for _ in range(16)]
    for flat, v in ((0, 1.5), (5, -0.5)):  # diagonal slots (0,0) and (1,1)
        entries[flat] = {"re": v, "im": 0.0}
    path.write_text(json.dumps({"entries": entries}))
    code, _, _ = run(capsys, "witness", "--state", f"file:{path}")
    assert code == 3


def test_env_var_overrides_psd_tolerance(tmp_path, capsys, monkeypatch):
    from witnesslab.config import TOL

    # a state with a -1e-7 eigenvalue: rejected at the default psd_tol,
    # accepted once the env var loosens it
    lam = np.array([0.4, 0.3, 0.3 + 1e-7, -1e-7])
    path = tmp_path / "edge.json"
    entries = []
    for i in range(4):
        for j in range(4):
            entries.append({"re": float(lam[i]) if i == j else 0.0, "im": 0.0})
    path.write_text(json.dumps({"entries": entries}))

    code, _, _ = run(capsys, "witness", "--state", f"file:{path}")
    assert code == 3

    monkeypatch.setenv("WITNESSLAB_TOL", "1e-6")
    old = TOL.psd_tol
    try:
        code, _, _ = run(capsys, "witness", "--state", f"file:{path}")
        assert code == 0
    finally:
        TOL.psd_tol = old


def test_env_var_bad_value(capsys, monkeypatch):
    monkeypatch.setenv("WITNESSLAB_TOL", "not-a-number")
    assert main(["witness", "--state", "identity"]) == 2
    capsys.readouterr()


def test_exit_code_4_on_solver_non_convergence(capsys, monkeypatch):
    import witnesslab.cli as cli_mod
    from witnesslab import ConvergenceError

    def explode(rho):
        raise ConvergenceError("stalled", lower=0.9, upper=1.1)

    monkeypatch.setattr(cli_mod, "generalized_robustness", explode)
    code, _, err = run(capsys, "robustness", "--state", "bell:phi-")
    assert code == 4
    assert "0.9" in err and "1.1" in err


def test_sdc_csv_row(capsys):
    code, out, _ = run(capsys, "sdc", "--eps", "1,1", "--msg", "0,1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eps_i,eps_s,x,z,mz_i,mz_s,decoded_x,decoded_z,success"
    assert lines[1].endswith("true")


def test_optimal_witness_without_kind_is_usage_error(capsys):
    code, _, err = run(capsys, "optimal-witness")
    assert code == 2
    assert "Bell kind" in err


def test_more_domain_and_usage_edges(capsys):
    assert run(capsys, "witness", "--state", "bd:0.2,0.3")[0] == 2
    assert run(capsys, "witness", "--state", "file:/nonexistent.json")[0] == 2
    assert run(capsys, "sdc", "--eps", "2,0", "--msg", "0,0")[0] == 3
    assert run(capsys, "detect-region", "1")[0] == 3
    assert run(capsys, "relax-sweep", "--steps", "1")[0] == 3
    assert run(capsys, "relax-sweep", "--t1i", "0.01", "--t2i", "0.31")[0] == 3


def test_non_finite_relaxation_inputs_are_domain_errors(capsys):
    for argv in (
        ("relax-sweep", "--tmax", "nan"),
        ("relax-sweep", "--tmax", "inf"),
        ("relax-sweep", "--t1i", "nan"),
        ("relax-sweep", "--t2s", "inf"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert "domain error" in err and "Traceback" not in err


def test_witness_rejects_nan_and_negative_noise(capsys):
    for sigma in ("nan", "-1", "inf"):
        code, out, err = run(capsys, "witness", "--state", "bell:phi-", "--noise", sigma)
        assert code == 3, sigma
        assert out == ""
        assert "sigma" in err


def test_env_var_rejects_non_finite_and_negative_values(tmp_path, capsys, monkeypatch):
    from witnesslab.config import TOL

    # a non-PSD file state (eigenvalues 1.1, 0, 0, -0.1) that a NaN tolerance
    # would wave through as a valid state
    path = tmp_path / "non_psd.json"
    lam = (1.1, 0.0, 0.0, -0.1)
    entries = [{"re": lam[i] if i == j else 0.0, "im": 0.0} for i in range(4) for j in range(4)]
    path.write_text(json.dumps({"entries": entries}))
    old = TOL.psd_tol
    for value in ("nan", "inf", "-inf", "-1e-6"):
        monkeypatch.setenv("WITNESSLAB_TOL", value)
        code, out, err = run(capsys, "robustness", "--state", f"file:{path}")
        assert code == 2, value
        assert out == ""
        assert "bad WITNESSLAB_TOL value" in err
        assert TOL.psd_tol == old


def test_env_var_does_not_outlive_the_call(capsys, monkeypatch):
    from witnesslab.config import TOL

    old = TOL.psd_tol
    monkeypatch.setenv("WITNESSLAB_TOL", "1e-6")
    assert run(capsys, "witness", "--state", "identity")[0] == 0
    assert TOL.psd_tol == old
    monkeypatch.setenv("WITNESSLAB_TOL", "0")
    assert run(capsys, "witness", "--state", "identity")[0] == 0
    assert TOL.psd_tol == old


def test_detect_region_resolution_limit(capsys):
    code, out, err = run(capsys, "detect-region", "102")
    assert code == 3
    assert out == ""
    assert "domain error" in err and "101" in err
    code, out, _ = run(capsys, "detect-region", "--help")
    assert code == 0
    assert "2 to 101" in out
