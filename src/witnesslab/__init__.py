"""witnesslab: two-qubit entanglement detection toolkit.

Builds Bell-diagonal and thermal spin states, evaluates the nonlinear
magnetization witness F and the optimal diagonal-Pauli witness family,
computes the exact generalized robustness of entanglement, simulates
spectrometer readout, and sweeps all three detectors through T1/T2
relaxation.

``import witnesslab`` loads no submodule.  Each exported name, and each of
the eight submodules (``witnesslab.optim`` and the like), is imported on its
first use (PEP 562), so a program pays only for the modules it touches.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# home module -> the names it exports; README's API table lists the same rows
_EXPORTS = {
    "errors": (
        "ConvergenceError", "DomainError", "NumericalConsistencyError", "StructuralError",
    ),
    "qmat": ("DensityMatrix", "HermitianOp", "expectation", "fidelity", "partial_transpose"),
    "states": (
        "BellDiagonalParams", "BellKind", "ThermalParams", "bell_diagonal", "bell_probabilities",
        "bell_state", "from_pauli_vector", "is_separable_bd", "pauli_vector", "pseudo_pure",
        "thermal_state",
    ),
    "circuits": (
        "Gate", "Message", "SuperdenseResult", "epr_gate", "grape_target_pipeline",
        "message_operator", "pseudo_epr", "superdense_run",
    ),
    "witness": (
        "BDClass", "CorrelationPair", "PauliWitness", "bell_witness", "classify_bd",
        "detection_region_grid", "eval_witness", "f_detects_bd", "f_witness", "f_witness_state",
        "optimal_witness", "witness_is_valid", "witness_matrix",
    ),
    "optim": ("RobustnessResult", "generalized_robustness", "gr_oracle_bd", "negativity"),
    "relax": ("RelaxationParams", "SweepSeries", "crossing_time", "relax_channel", "sweep"),
    "readout": (
        "PulseSpec", "SpectrumPair", "TomographyResult", "add_noise", "measure_yy",
        "pauli_tomography", "prep_pulse_unitary", "read_correlations", "simulate_lines",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # the import binds the submodule here as well
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
