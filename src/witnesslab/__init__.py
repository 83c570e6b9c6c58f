"""witnesslab: two-qubit entanglement detection toolkit.

Builds Bell-diagonal and thermal spin states, evaluates the nonlinear
magnetization witness F and the optimal diagonal-Pauli witness family,
computes the exact generalized robustness of entanglement, simulates
spectrometer readout, and sweeps all three detectors through T1/T2
relaxation.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DomainError,
    NumericalConsistencyError,
    StructuralError,
)
from .qmat import (
    DensityMatrix,
    HermitianOp,
    expectation,
    fidelity,
    partial_transpose,
)
from .states import (
    BellDiagonalParams,
    BellKind,
    ThermalParams,
    bell_diagonal,
    bell_probabilities,
    bell_state,
    from_pauli_vector,
    is_separable_bd,
    pauli_vector,
    pseudo_pure,
    thermal_state,
)
from .circuits import (
    Gate,
    Message,
    SuperdenseResult,
    epr_gate,
    grape_target_pipeline,
    message_operator,
    pseudo_epr,
    superdense_run,
)
from .witness import (
    BDClass,
    CorrelationPair,
    PauliWitness,
    bell_witness,
    classify_bd,
    detection_region_grid,
    eval_witness,
    f_detects_bd,
    f_witness,
    f_witness_state,
    optimal_witness,
    witness_is_valid,
    witness_matrix,
)
from .optim import (
    RobustnessResult,
    generalized_robustness,
    gr_oracle_bd,
    negativity,
)
from .relax import (
    RelaxationParams,
    SweepSeries,
    crossing_time,
    relax_channel,
    sweep,
)
from .readout import (
    PulseSpec,
    SpectrumPair,
    TomographyResult,
    add_noise,
    measure_yy,
    pauli_tomography,
    prep_pulse_unitary,
    read_correlations,
    simulate_lines,
)
