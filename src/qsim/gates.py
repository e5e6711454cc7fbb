"""Gate constructors, circuit composition, Boolean oracles, and the
uniform-superposition layer.

A GateOp binds a small unitary to explicit target qubits, with optional
control qubits listed before targets; the active block of a controlled
gate is the all-controls-one subspace. Circuits are ordered GateOp lists
applied in place by a strided kernel to one copy of the amplitude array;
the 2^b embedding is never materialized outside the dense test oracles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DomainError, ResourceError, ValidationError
from .qstate import (
    StateVector,
    _apply_matrix,
    _check_dense_qubits,
    _check_qubit_count,
    _check_targets,
    _renormalized,
)

SQRT2_INV = 1.0 / math.sqrt(2.0)

HADAMARD_MATRIX = np.array([[SQRT2_INV, SQRT2_INV], [SQRT2_INV, -SQRT2_INV]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

_ORACLE_TABLE_MAX_BITS = 20


def _check_table_bits(b: int) -> None:
    """An oracle table has 2^b entries: 1 <= b <= _ORACLE_TABLE_MAX_BITS."""
    if b < 1:
        raise DomainError("oracle needs at least one input bit")
    if b > _ORACLE_TABLE_MAX_BITS:
        raise ResourceError(f"an oracle table holds at most {_ORACLE_TABLE_MAX_BITS} bits, "
                            f"got {b}")


class GateOp:
    """A unitary on `targets`, optionally conditioned on `controls`."""

    __slots__ = ("name", "matrix", "targets", "controls")

    def __init__(self, name: str, matrix, targets, controls=()):
        self.name = name
        self.matrix = linalg.require_unitary(matrix)
        self.targets = tuple(int(q) for q in targets)
        self.controls = tuple(int(q) for q in controls)
        if len(set(self.targets) | set(self.controls)) != len(self.targets) + len(
            self.controls
        ):
            raise ValidationError("targets and controls must be disjoint")
        if self.matrix.shape[0] != 1 << len(self.targets):
            raise ValidationError(
                f"matrix dim {self.matrix.shape[0]} does not match "
                f"{len(self.targets)} target qubits"
            )

    def qubits_touched(self):
        return self.controls + self.targets

    def dagger(self) -> "GateOp":
        return GateOp(
            self.name + "†", self.matrix.conj().T, self.targets, self.controls
        )

    def __repr__(self):
        ctrl = f", controls={self.controls}" if self.controls else ""
        return f"GateOp({self.name!r}, targets={self.targets}{ctrl})"


@dataclass(frozen=True)
class Circuit:
    """Ordered gate applications on a fixed-width register."""

    qubits: int
    ops: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for op in self.ops:
            for q in op.qubits_touched():
                if not 0 <= q < self.qubits:
                    raise DomainError(
                        f"gate {op.name!r} touches qubit {q}, register has {self.qubits}"
                    )

    def __len__(self):
        return len(self.ops)


class BooleanOracle:
    """A total function {0,..,2^b - 1} -> {0, 1}.

    Values are materialized as a lookup table; a callable or a solution
    list is tabulated at construction, up to 20 input bits.
    """

    __slots__ = ("b", "table")

    def __init__(self, b: int, fn=None, table=None):
        if b < 1:
            raise DomainError("oracle needs at least one input bit")
        self.b = int(b)
        if table is not None:
            arr = np.asarray(table, dtype=np.uint8)
            if arr.shape != (1 << b,) or not np.all((arr == 0) | (arr == 1)):
                raise ValidationError("oracle table must hold 2^b zero/one entries")
            self.table = arr
        elif fn is not None:
            _check_table_bits(b)
            self.table = np.array([1 if fn(x) else 0 for x in range(1 << b)], dtype=np.uint8)
        else:
            raise DomainError("provide either a callable or a table")

    @classmethod
    def from_solutions(cls, b: int, solutions) -> "BooleanOracle":
        _check_table_bits(b)
        table = np.zeros(1 << b, dtype=np.uint8)
        for x in solutions:
            if not 0 <= x < (1 << b):
                raise DomainError(f"solution {x} out of range for {b} bits")
            table[x] = 1
        return cls(b, table=table)

    def __call__(self, x: int) -> int:
        if not 0 <= x < (1 << self.b):
            raise DomainError(f"oracle input {x} out of range")
        return int(self.table[x])

    def values(self) -> np.ndarray:
        return self.table

    def solution_count(self) -> int:
        return int(self.values().sum())


# ---------------------------------------------------------------------------
# gate factories


def hadamard(q: int = 0) -> GateOp:
    return GateOp("h", HADAMARD_MATRIX, [q])


def pauli_x(q: int = 0) -> GateOp:
    return GateOp("x", PAULI_X, [q])


def pauli_y(q: int = 0) -> GateOp:
    return GateOp("y", PAULI_Y, [q])


def pauli_z(q: int = 0) -> GateOp:
    return GateOp("z", PAULI_Z, [q])


def phase_gate(angle: float, q: int = 0) -> GateOp:
    """diag(1, e^{i angle}) on one qubit."""
    mat = np.array([[1, 0], [0, cmath.exp(1j * angle)]], dtype=complex)
    return GateOp(f"phase({angle:.12g})", mat, [q])


def swap_gate(q1: int, q2: int) -> GateOp:
    return GateOp("swap", SWAP_MATRIX, [q1, q2])


def controlled(u: GateOp, control: int) -> GateOp:
    """Prepend a control qubit: u acts only when every control reads 1."""
    if control in u.targets or control in u.controls:
        raise DomainError(f"control qubit {control} already used by the gate")
    return GateOp("c" + u.name, u.matrix, u.targets, (control,) + u.controls)


def cnot(control: int = 0, target: int = 1) -> GateOp:
    return controlled(pauli_x(target), control)


def oracle_uf(f: BooleanOracle) -> GateOp:
    """The reversible embedding |x, y> -> |x, y XOR f(x)> on b+1 qubits.

    Built as a dense permutation matrix; the data register occupies the
    top b qubits, the target qubit is last.
    """
    _check_dense_qubits(f.b + 1, "dense oracle embedding")
    values = f.values()
    dim = 1 << (f.b + 1)
    mat = np.zeros((dim, dim), dtype=complex)
    for x in range(1 << f.b):
        fx = int(values[x])
        for y in (0, 1):
            mat[(x << 1) | (y ^ fx), (x << 1) | y] = 1.0
    return GateOp("uf", mat, list(range(f.b + 1)))


def hadamard_layer(b: int) -> StateVector:
    """Equal superposition over all 2^b basis states, the output of one
    Hadamard per qubit on |0...0>."""
    b = _check_qubit_count(b)
    amps = np.full(1 << b, 2.0 ** (-b / 2.0), dtype=complex)
    return StateVector(b, amps, _trusted=True)


# ---------------------------------------------------------------------------
# execution


def apply_gate(s: StateVector, op: GateOp) -> StateVector:
    _check_targets(s.qubits, op.targets, op.controls)
    out = np.array(s.amps, dtype=np.complex128)
    _apply_matrix(out, s.qubits, op.matrix, op.targets, op.controls)
    return StateVector(s.qubits, out, _trusted=True)


def run_circuit(c: Circuit, input_state: StateVector) -> StateVector:
    """Apply the circuit's gates in order to one copy of the input; the
    result is renormalised if its norm has drifted (qstate.NORM_DRIFT)."""
    if input_state.qubits != c.qubits:
        raise DomainError(
            f"circuit expects {c.qubits} qubits, state has {input_state.qubits}"
        )
    amps = np.array(input_state.amps, dtype=np.complex128)
    for op in c.ops:
        _check_targets(c.qubits, op.targets, op.controls)
        _apply_matrix(amps, c.qubits, op.matrix, op.targets, op.controls)
    return _renormalized(StateVector(c.qubits, amps, _trusted=True))


def inverse_circuit(c: Circuit) -> Circuit:
    """Reversed gate order with conjugate-transposed matrices."""
    return Circuit(c.qubits, tuple(op.dagger() for op in reversed(c.ops)))


def bell_circuit() -> Circuit:
    """Hadamard on the first qubit followed by a controlled-NOT."""
    return Circuit(2, (hadamard(0), cnot(0, 1)))

