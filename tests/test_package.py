"""The package's exports load on first use, each CLI subcommand loads only what it runs, and the source rules hold."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import witnesslab

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = ("errors", "qmat", "states", "circuits", "witness", "optim", "relax", "readout")
CLI_BASE = {"cli", "errors", "qmat", "states"}


def loaded_after(code, *argv):
    """The witnesslab submodules that a fresh interpreter holds after running code."""
    script = (
        "import json, sys\n"
        f"{code}\n"
        "print(json.dumps([m.split('.', 1)[1] for m in sys.modules if m.startswith('witnesslab.')]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(witnesslab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_a_bare_import_loads_no_submodule():
    assert loaded_after("import witnesslab") == set()


def test_submodules_are_attributes_after_a_bare_import():
    code = (
        "import witnesslab\n"
        "assert witnesslab.readout.READOUT_PULSE.targets == ('S',)\n"
        f"for name in {SUBMODULES!r}:\n"
        "    assert getattr(witnesslab, name) is sys.modules['witnesslab.' + name]\n"
    )
    assert loaded_after(code) == set(SUBMODULES)


def test_a_name_loads_its_home_module_and_what_that_imports():
    assert loaded_after("import witnesslab; witnesslab.bell_state") == {"errors", "qmat", "states"}
    assert loaded_after("from witnesslab import sweep") == {"errors", "qmat", "states", "witness",
                                                             "optim", "relax"}


@pytest.mark.parametrize("argv, loads", [
    (["witness", "--state", "bell:phi-", "--witness", "phi-"], {"witness"}),
    (["witness", "--state", "bell:phi-", "--noise", "0.01"], {"witness", "readout", "circuits"}),
    (["optimal-witness", "--all"], {"witness"}),
    (["detect-region", "3", "--format", "json"], {"witness"}),
    (["sdc", "--eps", "1,1", "--msg", "1,0"], {"circuits"}),
    (["robustness", "--state", "bd:-0.2,1.0,0.2"], {"optim"}),
    (["relax-sweep", "--steps", "3"], {"witness", "optim", "relax"}),
    (["--help"], set()),
    (["--version"], set()),
    (["relax-sweep", "--help"], set()),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_each_subcommand_loads_only_the_modules_it_runs(argv, loads):
    code = (
        "import contextlib, io\n"
        "from witnesslab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n"
    )
    assert loaded_after(code, *argv) == CLI_BASE | loads


def test_the_library_and_its_cli_import_no_scipy():
    # scipy is a test oracle only; the package loads on first use, so every submodule is named
    code = (
        f"import witnesslab.cli, {', '.join('witnesslab.' + name for name in SUBMODULES)}\n"
        "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules), 'scipy was imported'\n"
    )
    assert loaded_after(code) == {"cli", *SUBMODULES}


@pytest.mark.parametrize("where, pattern, allowed", [
    # every eigendecomposition, SVD, Cholesky, inverse, solve and determinant calls a LAPACK gufunc
    ("src/witnesslab", r"np\.linalg\.(eigvalsh|eigh|svd|cholesky|inv|solve|det)\(", ()),
    # one reader of a state's Pauli coordinates, DensityMatrix._coords: only qmat and the robustness
    # stages, which read a partial transpose, gather coordinates from a matrix
    ("src/witnesslab", r"\bpauli_coords\(|_pauli_columns", ("qmat.py", "optim.py")),
    # what the tests share lives in tests/conftest.py
    ("tests", r"^(from|import) test_", ()),
], ids=["no np.linalg wrapper", "no coordinate gather outside qmat and optim", "no test module imports another"])
def test_a_source_rule_holds_in_every_file(where, pattern, allowed):
    hits = [f"{path.relative_to(ROOT)}:{n}: {line}"
            for path in sorted((ROOT / where).rglob("*.py")) if path.name not in allowed
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if re.search(pattern, line)]
    assert hits == []


def test_star_import_gives_exactly_the_exported_names():
    namespace = {}
    exec("from witnesslab import *", namespace)
    names = set(namespace) - {"__builtins__"}
    assert names == set(witnesslab.__all__)
    assert len(witnesslab.__all__) == len(names) == 59


def test_each_exported_name_is_its_home_modules_object():
    for module, names in witnesslab._EXPORTS.items():
        home = importlib.import_module(f"witnesslab.{module}")
        for name in names:
            assert getattr(witnesslab, name) is getattr(home, name), name


def test_dir_lists_every_exported_name_and_submodule():
    listed = set(dir(witnesslab))
    assert set(witnesslab.__all__) <= listed
    assert set(SUBMODULES) <= listed


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        witnesslab.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from witnesslab import no_such_name  # noqa: F401


def test_readme_api_table_matches_the_export_table():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### API", 1)[1].split("\n## ", 1)[0]
    rows = [
        (module, tuple(re.findall(r"`(\w+)`", names)))
        for module, names in re.findall(r"^\| `(\w+)` \| (.+) \|$", section, flags=re.M)
    ]
    assert rows == list(witnesslab._EXPORTS.items())
