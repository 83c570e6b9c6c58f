import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate

import witnesslab
from conftest import entangled_ginibre, route_names
from witnesslab import BellKind, DensityMatrix, StructuralError, bell_state, f_witness_state, generalized_robustness
from witnesslab import optim, relax
from witnesslab.cli import load_state_json, main, parse_state_spec, save_state_json
from witnesslab.qmat import _pt_arr

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


def test_witness_of_a_state_whose_correlation_spills_past_one(tmp_path, capsys):
    # <ZZ> of cos 0.17|00> + sin 0.17|11> reads 1.0000000000000002; F clips that
    # rounding spill, by the one rule f_witness_state uses, instead of exiting 3
    psi = np.array([np.cos(0.17), 0.0, 0.0, np.sin(0.17)], dtype=complex)
    path = tmp_path / "spill.json"
    save_state_json(DensityMatrix(np.outer(psi, psi.conj())), str(path))
    for fmt in ("text", "csv"):
        code, out, err = run(capsys, "witness", "--state", f"file:{path}", "--format", fmt)
        assert (code, err) == (0, "")
        assert "entangled (detected)" in out
    doc = run_json(capsys, "witness", "--state", f"file:{path}")
    assert doc["f"]["value"] == f_witness_state(load_state_json(str(path)))


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
    assert doc["iterations"] == 0  # the closed-form bracket is exact on a Bell state: no interior-point iteration


def test_robustness_identity(capsys):
    doc = run_json(capsys, "robustness", "--state", "identity")
    assert doc["value"] == 0.0 and doc["iterations"] == 0


def test_robustness_undetected_state(capsys):
    doc = run_json(capsys, "robustness", "--state", "bd:-0.2,1.0,0.2")
    assert abs(doc["value"] - 0.2) < 1e-6


@pytest.mark.parametrize("seed, route", [(8, "product"), (3, "bell"), (13, "completion"), (268, "longer search"),
                                         (268, "solver")])
def test_robustness_of_a_ginibre_state_end_to_end_on_its_route(seed, route, tmp_path, monkeypatch):
    rho = entangled_ginibre(seed)
    if route == "solver":  # the longer search only repeats the first: no bracket closes it, so the solver runs
        monkeypatch.setattr(optim, "_PRODUCT_STEPS_LAST", optim._PRODUCT_STEPS)
    # the first stage to close it; the completion's points take the Bell route
    assert route_names(rho.matrix[None]).tolist() == [{"completion": "bell", "solver": "solved"}.get(route, route)]
    if route == "completion":  # the minimum-norm omega alone leaves it to the solver
        monkeypatch.setattr(optim, "_COMPLETION_STEPS", 0)
        assert route_names(rho.matrix[None]).tolist() == ["solved"]
    elif route == "solver":
        result = generalized_robustness(rho)
        assert result.value > 0 and result.iterations > 0 and result.lower <= result.value <= result.lower + 1e-8
        # the certificate: rho + value * sigma, normalized, has a PSD partial transpose to 1e-9
        mix = (rho.matrix + result.value * result.certificate_state.matrix) / (1.0 + result.value)
        assert np.linalg.eigvalsh(_pt_arr(mix))[0] >= -1e-9
        assert np.linalg.eigvalsh(result.certificate_state.matrix)[0] >= -1e-9
        return
    state = tmp_path / f"ginibre-{seed}.json"
    save_state_json(rho, state)
    proc = run_subprocess("robustness", "--state", f"file:{state}", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    d = json.loads(proc.stdout)
    assert d["value"] > 0 and d["iterations"] == 0 and d["certificate_residual"] <= 1e-9, d


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
    code, _, _ = run(capsys, "witness", "--state", f"file:{path}")
    assert code == 0


def test_env_var_judges_the_state_argument_and_nothing_else(tmp_path, capsys, monkeypatch):
    # WITNESSLAB_TOL=1e-6 admits the -1e-7 file state; a DensityMatrix that library
    # code builds of the same matrix inside that call is judged at the default
    from witnesslab import DensityMatrix, StructuralError, witness

    lam = (0.4, 0.3, 0.3 + 1e-7, -1e-7)
    path = tmp_path / "edge.json"
    entries = [{"re": lam[i] if i == j else 0.0, "im": 0.0} for i in range(4) for j in range(4)]
    path.write_text(json.dumps({"entries": entries}))
    correlations, judged = witness._correlations, []

    def judge_again(rho):
        with pytest.raises(StructuralError, match="positive semidefinite"):
            DensityMatrix(rho.matrix)
        judged.append(rho)
        return correlations(rho)

    # the witness subcommand imports _correlations from its home module on each call
    monkeypatch.setattr(witness, "_correlations", judge_again)
    monkeypatch.setenv("WITNESSLAB_TOL", "1e-6")
    code, _, err = run(capsys, "witness", "--state", f"file:{path}")
    assert code == 0, err
    assert len(judged) == 1


def test_env_var_bad_value(capsys, monkeypatch):
    monkeypatch.setenv("WITNESSLAB_TOL", "not-a-number")
    assert main(["witness", "--state", "identity"]) == 2
    capsys.readouterr()


def test_exit_code_4_on_solver_non_convergence(capsys, monkeypatch):
    from witnesslab import ConvergenceError

    def explode(rho):
        raise ConvergenceError("stalled", lower=0.9, upper=1.1)

    monkeypatch.setattr(optim, "generalized_robustness", explode)  # the robustness subcommand's import
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
    assert "kind" in err and "--all" in err


def test_optimal_witness_takes_a_kind_or_all_not_both(capsys):
    code, out, err = run(capsys, "optimal-witness", "phi+", "--all")
    assert (code, out) == (2, "")
    assert "not allowed" in err


def test_more_domain_and_usage_edges(capsys):
    assert run(capsys, "witness", "--state", "bd:0.2,0.3")[0] == 2
    assert run(capsys, "witness", "--state", "file:/nonexistent.json")[0] == 2
    assert run(capsys, "sdc", "--eps", "2,0", "--msg", "0,0")[0] == 3
    assert run(capsys, "detect-region", "1")[0] == 3
    assert run(capsys, "relax-sweep", "--steps", "1")[0] == 3
    assert run(capsys, "relax-sweep", "--t1i", "0.01", "--t2i", "0.31")[0] == 3


def run_subprocess(*argv):
    # a subprocess: LAPACK reports its failures on fd 2, past any redirect of sys.stderr
    env = {**os.environ, "PYTHONPATH": str(Path(witnesslab.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "witnesslab.cli", *argv], capture_output=True, text=True, env=env, timeout=120,
    )


def test_relax_sweep_with_a_tiny_tmax_fits_no_decay_time():
    proc = run_subprocess("relax-sweep", "--tmax", "1e-200", "--steps", "3")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "# tau_c=none tau_r=none tau_w=none" in proc.stdout


def test_relax_sweep_of_a_curve_that_starts_at_zero_has_no_cutoff(capsys):
    # F = 0 exactly at t = 0 for bd:0,0,1, then positive: no detection ends
    code, out, _ = run(capsys, "relax-sweep", "--state", "bd:0,0,1", "--steps", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[2].startswith("# tau_c=none ")


def fitted_taus(proc):
    """tau_r and tau_w from the header of relax-sweep's CSV, None where it prints none."""
    line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("# tau_c="))
    fields = dict(f.split("=") for f in line[2:].split())
    return tuple(None if fields[k] == "none" else float(fields[k]) for k in ("tau_r", "tau_w"))


def all_times(t):
    return ["--t1i", t, "--t2i", t, "--t1s", t, "--t2s", t]


@pytest.mark.parametrize("argv", [
    ["--tmax", "1e300", "--t1i", "1e-10", "--t2i", "1e-10"],
    ["--tmax", "1e308", *all_times("1e308")],
], ids=["ratio-overflows", "squares-overflow"])
def test_relax_sweep_at_extreme_time_ratios_writes_nothing_to_stderr(argv):
    proc = run_subprocess("relax-sweep", "--steps", "3", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    if argv[1] == "1e300":
        # every t/T past t = 0 overflows, so every curve is 0 there and nothing is fitted
        assert "tau_r=none tau_w=none" in proc.stdout
    else:
        # the ratios of all T = 1 at --tmax 1, whose fitted times scale by 1e308
        unit = fitted_taus(run_subprocess("relax-sweep", "--steps", "3", "--tmax", "1", *all_times("1")))
        assert fitted_taus(proc) == pytest.approx([1e308 * tau for tau in unit], rel=1e-12)


def test_relax_sweep_fits_decay_times_at_every_time_scale():
    # the same ratios t/T, one time scale 1e100 times the other
    large = run_subprocess("relax-sweep", "--steps", "200", "--tmax", "1e200", *all_times("1e199"))
    small = run_subprocess("relax-sweep", "--steps", "200", "--tmax", "1e100", *all_times("1e99"))
    assert (large.returncode, large.stderr) == (small.returncode, small.stderr) == (0, "")
    assert None not in fitted_taus(small)
    assert fitted_taus(large) == pytest.approx([1e100 * tau for tau in fitted_taus(small)], rel=1e-12)


def test_relax_sweep_with_a_tmax_that_repeats_grid_times_names_both_flags(capsys, monkeypatch):
    def no_solve(m, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(relax, "_robustness", no_solve)
    code, out, err = run(capsys, "relax-sweep", "--tmax", "5e-324", "--steps", "3")
    assert (code, out) == (3, "")
    assert "t_max" in err and "steps" in err and "Traceback" not in err


def test_relax_sweep_rejects_t2_past_twice_t1_at_a_tiny_time_scale(capsys):
    # T2 = 10 T1 at T1 = 1e-16 is not completely positive, however small the excess
    code, out, err = run(capsys, "relax-sweep", "--t1i", "1e-16", "--t2i", "1e-15", "--t1s", "1e-16",
                         "--t2s", "1e-15", "--tmax", "3e-16", "--steps", "4")
    assert (code, out) == (3, "")
    assert "t2_i" in err and "Traceback" not in err


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


def assert_default_psd_tol_holds():
    # a -1e-7 eigenvalue, which WITNESSLAB_TOL=1e-6 admits, still fails a DensityMatrix built here
    with pytest.raises(StructuralError, match="positive semidefinite"):
        DensityMatrix(np.diag([0.4, 0.3, 0.3 + 1e-7, -1e-7]))


def test_env_var_rejects_non_finite_and_negative_values(tmp_path, capsys, monkeypatch):
    # a non-PSD file state (eigenvalues 1.1, 0, 0, -0.1) that a NaN tolerance
    # would wave through as a valid state
    path = tmp_path / "non_psd.json"
    lam = (1.1, 0.0, 0.0, -0.1)
    entries = [{"re": lam[i] if i == j else 0.0, "im": 0.0} for i in range(4) for j in range(4)]
    path.write_text(json.dumps({"entries": entries}))
    for value in ("nan", "inf", "-inf", "-1e-6"):
        monkeypatch.setenv("WITNESSLAB_TOL", value)
        code, out, err = run(capsys, "robustness", "--state", f"file:{path}")
        assert code == 2, value
        assert out == ""
        assert "bad WITNESSLAB_TOL value" in err
        assert_default_psd_tol_holds()


def test_env_var_does_not_outlive_the_call(capsys, monkeypatch):
    monkeypatch.setenv("WITNESSLAB_TOL", "1e-6")
    assert run(capsys, "witness", "--state", "identity")[0] == 0
    assert_default_psd_tol_holds()
    monkeypatch.setenv("WITNESSLAB_TOL", "0")
    assert run(capsys, "witness", "--state", "identity")[0] == 0
    assert_default_psd_tol_holds()


def test_detect_region_resolution_limit(capsys):
    # the output is streamed, so the resolution must be refused before the first byte
    for resolution in ("1", "102"):
        code, out, err = run(capsys, "detect-region", resolution)
        assert code == 3
        assert out == ""
        assert "domain error" in err and "101" in err
    code, out, _ = run(capsys, "detect-region", "--help")
    assert code == 0
    assert "2 to 101" in out


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "dir" / "x.json"
    code, out, err = run(capsys, "witness", "--state", "identity", "--format", "json",
                         "--output", str(path))
    assert code == 2
    assert out == ""
    assert str(path) in err and "Traceback" not in err
    assert not path.exists()


def test_witness_rejects_negative_noise_seed(capsys):
    code, out, err = run(capsys, "witness", "--state", "bell:phi-", "--noise", "0.1", "--seed", "-1")
    assert code == 3
    assert out == ""
    assert "domain error" in err and "seed" in err


@pytest.mark.parametrize("argv", [
    ("optimal-witness", "--all"),
    ("robustness", "--state", "identity"),
    ("relax-sweep", "--steps", "2"),
    ("detect-region", "2"),
    ("sdc", "--eps", "1,1", "--msg", "1,0"),
])
def test_seed_is_a_witness_option_only(capsys, argv):
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--seed=7")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --seed=7" in err
    assert "--seed" not in run(capsys, argv[0], "--help")[1]
    assert "--seed" in run(capsys, "witness", "--help")[1]
    assert run(capsys, "witness", "--state", "bell:phi-", "--seed", "7")[0] == 0


@pytest.mark.parametrize("tol, argv", [
    # a file: state whose own smallest eigenvalue is -1e-13
    ("0", ("witness", "--state", "file:{near_psd}")),
    ("1e-12", ("witness", "--state", "bd:1,0.5,-0.500000002")),
])
def test_state_outside_a_tight_tolerance_is_a_domain_error(tmp_path, capsys, monkeypatch, tol, argv):
    path = tmp_path / "near_psd.json"
    save_state_json(DensityMatrix(np.diag([0.5, 0.5 + 1e-13, 0.0, -1e-13]).astype(complex)), str(path))
    argv = [a.format(near_psd=path) for a in argv]
    monkeypatch.setenv("WITNESSLAB_TOL", tol)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "domain error" in err and "positive semidefinite" in err
    assert "Traceback" not in err
    assert_default_psd_tol_holds()
    monkeypatch.delenv("WITNESSLAB_TOL")
    assert run(capsys, *argv)[0] == 0


def test_a_zero_tolerance_judges_the_sdc_input_not_the_circuit(capsys, monkeypatch):
    # with eps 1,1 the EPR gate's rounding leaves rho1 an eigenvalue of -4.6e-34,
    # which the tolerance once rejected (exit 3).  The polarizations are the fuzz's
    # numbers (tests/test_cli_fuzz.py) that are valid; its other --eps and --msg
    # values stop at parsing or validation, before any state is formed.
    monkeypatch.setenv("WITNESSLAB_TOL", "0")
    eps = ("0", "1", "0.5", "0.31", "1e-5")
    for eps_i, eps_s, x, z in itertools.product(eps, eps, (0, 1), (0, 1)):
        code, out, err = run(capsys, "sdc", "--eps", f"{eps_i},{eps_s}", "--msg", f"{x},{z}",
                             "--format", "json")
        assert code == 0, err
        doc = json.loads(out)
        # <Z_I> = (-1)^z eps_I and <Z_S> = (-1)^x eps_S
        assert doc["mz_i"] == pytest.approx((-1) ** z * float(eps_i), abs=1e-12)
        assert doc["mz_s"] == pytest.approx((-1) ** x * float(eps_s), abs=1e-12)
        if float(eps_i) and float(eps_s):
            assert doc["decoded"] == {"x": x, "z": z} and doc["success"] is True


def test_relax_sweep_steps_limit(capsys):
    code, out, err = run(capsys, "relax-sweep", "--steps", "10001")
    assert code == 3
    assert out == ""
    assert "10000" in err
    code, out, _ = run(capsys, "relax-sweep", "--help")
    assert code == 0
    assert "2 to 10000" in out


def test_series_subcommands_say_text_prints_csv(capsys):
    for sub in ("relax-sweep", "detect-region"):
        code, out, _ = run(capsys, sub, "--help")
        assert code == 0 and "text prints the CSV" in " ".join(out.split())
    code, out, _ = run(capsys, "witness", "--help")
    assert "text prints the CSV" not in " ".join(out.split())
