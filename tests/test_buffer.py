"""Gate sequences on one private buffer.

The kernel `_apply_matrix` updates the array it is given. `run_circuit`
and `TrotterStep.apply` copy their input once and run every gate on that
copy; `apply_gate` and `apply_unitary` copy at their boundary. These tests
check the sequence runners byte for byte against the per-gate route they
replaced (`oracles.per_gate_amplitudes`), and check that no public
operation writes to its input.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_gate_amplitudes
from qsim import entangle
from qsim.gates import (
    HADAMARD_MATRIX,
    Circuit,
    GateOp,
    apply_gate,
    bell_circuit,
    cnot,
    run_circuit,
)
from qsim.hamsim import TrotterPlan, TrotterStep, commuting_chain, ising_chain, trotter_evolve
from qsim.qstate import StateVector, _apply_matrix, apply_unitary, random_state
from qsim.rng import Stream

SEEDS = st.integers(0, 2**64 - 1)
# squared-norm drifts of the input: none, inside NORM_DRIFT, and past it
DRIFTS = st.sampled_from([0.0, 5e-14, 3e-13])


def _unitary(kind: str, dim: int, gen) -> np.ndarray:
    if kind == "diagonal":
        return np.diag(np.exp(2j * math.pi * gen.random(dim)))
    if kind == "permutation":
        return np.eye(dim, dtype=complex)[gen.permutation(dim)]
    return np.linalg.qr(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))[0]


def _drifted(b: int, seed: int, drift: float) -> StateVector:
    amps = random_state(b, Stream(seed, "buffer")).amps * math.sqrt(1.0 + drift)
    return StateVector(b, amps, _trusted=True)


@st.composite
def circuits(draw):
    """1-30 gates on b <= 8 qubits: up to 3 targets in any order and up to
    2 controls, each a diagonal-phase, permutation or dense unitary."""
    b = draw(st.integers(1, 8))
    gen = np.random.default_rng(draw(SEEDS))
    ops = []
    for _ in range(draw(st.integers(1, 30))):
        qubits = draw(st.permutations(range(b)))
        k = draw(st.integers(1, min(3, b)))
        nc = draw(st.integers(0, min(2, b - k)))
        kind = draw(st.sampled_from(["diagonal", "permutation", "dense"]))
        ops.append(GateOp(kind, _unitary(kind, 1 << k, gen), qubits[:k], qubits[k : k + nc]))
    return Circuit(b, tuple(ops))


class TestAgainstPerGateRoute:
    @settings(max_examples=150)
    @given(circuit=circuits(), seed=SEEDS, drift=DRIFTS)
    def test_run_circuit(self, circuit, seed, drift):
        s = _drifted(circuit.qubits, seed, drift)
        gates = [(op.matrix, op.targets, op.controls) for op in circuit.ops]
        want = per_gate_amplitudes(circuit.qubits, gates, s.amps)
        assert run_circuit(circuit, s).amps.tobytes() == want.tobytes()

    @settings(max_examples=60)
    @given(chain=st.sampled_from([ising_chain, commuting_chain]), b=st.integers(2, 8),
           delta=st.floats(-2.0, 2.0), seed=SEEDS, drift=DRIFTS)
    def test_trotter_step(self, chain, b, delta, seed, drift):
        step = TrotterStep(chain(b), delta)
        s = _drifted(b, seed, drift)
        gates = [(mat, targets, ()) for mat, targets in step.factors]
        want = per_gate_amplitudes(b, gates, s.amps)
        assert step.apply(s).amps.tobytes() == want.tobytes()


def _input(qubits: int, read_only: bool) -> StateVector:
    """A random state, or a read-only one: the cached singlet on two qubits."""
    if read_only and qubits == 2:
        return entangle.singlet()
    s = random_state(qubits, Stream(qubits, "input"))
    s.amps.flags.writeable = not read_only
    return s


_STEP = TrotterStep(ising_chain(2), 0.3)
# (name, input qubits, operation)
_CASES = [
    ("apply_gate", 2, lambda s: apply_gate(s, cnot(1, 0))),
    ("apply_unitary", 2, lambda s: apply_unitary(s, HADAMARD_MATRIX, [1])),
    ("run_circuit", 2, lambda s: run_circuit(bell_circuit(), s)),
    ("TrotterStep.apply", 2, _STEP.apply),
    ("trotter_evolve", 2, lambda s: trotter_evolve(ising_chain(2), TrotterPlan(1.0, 4), s)),
    ("teleport", 1, lambda s: entangle.teleport(s, Stream(5, "teleport"))),
    ("teleport_bit_counts", 1, lambda s: entangle.teleport_bit_counts(s, 64, Stream(5, "n"))),
]


class TestInputsUnchanged:
    @pytest.mark.parametrize("read_only", [False, True], ids=["writable", "read-only"])
    @pytest.mark.parametrize("case", _CASES, ids=[name for name, _, _ in _CASES])
    def test_operation_leaves_its_input(self, case, read_only):
        _, qubits, op = case
        state = _input(qubits, read_only)
        before = state.amps.tobytes()
        op(state)
        assert state.amps.tobytes() == before

    def test_trajectory_states_share_no_buffer(self):
        psi = random_state(2, Stream(4, "trajectory"))
        states = trotter_evolve(ising_chain(2), TrotterPlan(1.0, 5), psi)
        for i, a in enumerate(states):
            for c in states[i + 1 :]:
                assert not np.shares_memory(a.amps, c.amps)

    def test_bell_state_returns_a_new_buffer_each_call(self):
        first = entangle.bell_state(0, 0)
        before = first.amps.tobytes()
        second = entangle.bell_state(0, 0)
        second.amps[:] = 0.0
        assert first.amps.tobytes() == before
        assert entangle._PHI_PLUS.amps.tobytes() == before
        assert entangle.bell_state(0, 0).amps.tobytes() == before

    def test_shared_module_states_survive_teleports(self):
        phi_plus = entangle._PHI_PLUS.amps.tobytes()
        singlet = entangle.singlet().amps.tobytes()
        for i in range(4):
            entangle.teleport(random_state(1, Stream(i, "psi")), Stream(i, "shot"))
        entangle.teleport_bit_counts(random_state(1, Stream(9, "psi")), 32, Stream(9, "shot"))
        assert entangle._PHI_PLUS.amps.tobytes() == phi_plus
        assert entangle.singlet().amps.tobytes() == singlet

    def test_kernel_updates_in_place_and_returns_its_buffer(self):
        s = random_state(3, Stream(6, "kernel"))
        want = apply_gate(s, GateOp("ch", HADAMARD_MATRIX, [1], [0])).amps
        amps = s.amps.copy()
        assert _apply_matrix(amps, 3, HADAMARD_MATRIX, [1], [0]) is amps
        assert amps.tobytes() == want.tobytes()

    def test_empty_circuit_returns_a_copy(self):
        s = random_state(2, Stream(8, "empty"))
        out = run_circuit(Circuit(2, ()), s)
        assert out.amps.tobytes() == s.amps.tobytes()
        assert not np.shares_memory(out.amps, s.amps)
