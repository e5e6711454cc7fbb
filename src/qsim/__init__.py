"""Desk-scale state-vector quantum simulator and experiment harness.

Everything is verifiable against brute-force linear algebra: states,
gates, and measurement in `qstate`/`gates`; entanglement experiments in
`entangle`; QFT, phase estimation, Grover search, and order finding in
`algorithms`; Trotterized evolution in `hamsim`; error-correction codes
in `qec`; the statistical framework in `statharness`; and the CLI plus
acceptance suite in `cli`/`acceptance`.
"""

from .errors import (
    ConditioningError,
    DomainError,
    InternalError,
    NotFoundError,
    NumericalConsistencyError,
    QsimError,
    ResourceError,
    ValidationError,
)
from .qstate import (
    DensityMatrix,
    Observable,
    StateVector,
    apply_unitary,
    basis_state,
    density_from_ensemble,
    expectation,
    fidelity,
    measure_observable,
    measure_qubits,
    posterior_density,
    random_density,
    random_state,
    states_equal,
    tensor,
    variance,
    von_neumann_entropy,
)
from .gates import (
    BooleanOracle,
    Circuit,
    GateOp,
    cnot,
    controlled,
    hadamard,
    hadamard_layer,
    oracle_uf,
    pauli_x,
    pauli_y,
    pauli_z,
    run_circuit,
)
from .rng import Stream

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
