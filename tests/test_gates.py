import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import circuit_unitary, dense_embedding, permute_qubits
from qsim.errors import DomainError, ResourceError, ValidationError
from qsim.gates import (
    BooleanOracle,
    Circuit,
    GateOp,
    PAULI_X,
    apply_gate,
    bell_circuit,
    cnot,
    controlled,
    hadamard,
    hadamard_layer,
    inverse_circuit,
    oracle_uf,
    pauli_x,
    pauli_y,
    pauli_z,
    phase_gate,
    run_circuit,
    swap_gate,
)
from qsim.qstate import (
    DENSE_MAX_QUBITS,
    NORM_DRIFT,
    StateVector,
    basis_state,
    fidelity,
    measure_qubits,
    random_state,
    states_equal,
    tensor,
)
from qsim.rng import Stream

SQ2 = 1.0 / math.sqrt(2.0)


class TestFactories:
    def test_hadamard_on_one(self):
        out = apply_gate(basis_state(1, 1), hadamard(0))
        np.testing.assert_allclose(out.amps, [SQ2, -SQ2])

    def test_hadamard_involution(self):
        h = hadamard().matrix
        np.testing.assert_allclose(h @ h, np.eye(2), atol=1e-15)

    def test_pauli_product_is_i_times_identity(self):
        product = pauli_x().matrix @ pauli_y().matrix @ pauli_z().matrix
        np.testing.assert_allclose(product, 1j * np.eye(2), atol=1e-15)

    def test_all_factories_are_unitary(self):
        for op in (hadamard(), pauli_x(), pauli_y(), pauli_z(), phase_gate(0.4),
                   swap_gate(0, 1), cnot(0, 1)):
            full = dense_embedding(op.matrix, op.targets, op.controls, 2)
            assert np.max(np.abs(full.conj().T @ full - np.eye(full.shape[0]))) < 1e-10


class TestCnotAndControlled:
    def test_cnot_mapping_table(self):
        expectations = {0: 0, 1: 1, 2: 3, 3: 2}
        for source, target in expectations.items():
            out = apply_gate(basis_state(2, source), cnot(0, 1))
            assert states_equal(out, basis_state(2, target))

    def test_cnot_involution(self):
        s = random_state(2, Stream(1, "cnot"))
        twice = apply_gate(apply_gate(s, cnot(0, 1)), cnot(0, 1))
        assert fidelity(twice, s) >= 1 - 1e-12

    def test_controlled_x_equals_cnot(self):
        op = controlled(pauli_x(1), 0)
        np.testing.assert_allclose(
            dense_embedding(op.matrix, op.targets, op.controls, 2),
            np.eye(4)[[0, 1, 3, 2]],
            atol=1e-15,
        )

    def test_control_zero_leaves_target_alone(self):
        rng = Stream(2, "ctrl")
        for i in range(10):
            psi = random_state(1, rng.substream(i))
            state = tensor(basis_state(1, 0), psi)
            u = controlled(GateOp("r", phase_gate(1.1).matrix @ PAULI_X, [1]), 0)
            assert states_equal(apply_gate(state, u), state)

    def test_controlled_preserves_unitarity(self):
        op = controlled(GateOp("g", phase_gate(0.3).matrix, [1]), 0)
        full = dense_embedding(op.matrix, op.targets, op.controls, 2)
        np.testing.assert_allclose(full.conj().T @ full, np.eye(4), atol=1e-12)

    def test_control_collision_rejected(self):
        with pytest.raises(DomainError):
            controlled(pauli_x(1), 1)


class TestOracle:
    def test_constant_zero_is_identity(self):
        f = BooleanOracle(2, fn=lambda x: 0)
        np.testing.assert_allclose(oracle_uf(f).matrix, np.eye(8), atol=0)

    def test_first_bit_oracle_is_cnot(self):
        f = BooleanOracle(1, fn=lambda x: x & 1)
        expected = dense_embedding(PAULI_X, [1], [0], 2)
        np.testing.assert_allclose(oracle_uf(f).matrix, expected, atol=0)

    def test_uf_is_an_involution(self):
        f = BooleanOracle(3, fn=lambda x: (x * 13 + 5) % 2)
        mat = oracle_uf(f).matrix
        np.testing.assert_allclose(mat @ mat, np.eye(16), atol=0)

    def test_uf_is_permutation(self):
        f = BooleanOracle(3, fn=lambda x: 1 if x in (2, 5) else 0)
        mat = oracle_uf(f).matrix
        assert np.all((mat == 0) | (mat == 1))
        assert np.all(mat.sum(axis=0) == 1) and np.all(mat.sum(axis=1) == 1)

    def test_uf_computes_f_into_target(self):
        f = BooleanOracle(2, fn=lambda x: 1 if x == 2 else 0)
        gate = oracle_uf(f)
        for x in range(4):
            state = tensor(basis_state(2, x), basis_state(1, 0))
            out = apply_gate(state, gate)
            assert states_equal(out, basis_state(3, (x << 1) | f(x)))

    def test_oracle_table_and_solutions(self):
        f = BooleanOracle.from_solutions(4, [3, 9])
        assert f.solution_count() == 2
        assert f(3) == 1 and f(4) == 0
        with pytest.raises(DomainError):
            BooleanOracle.from_solutions(2, [4])

    def test_dense_oracle_cap(self):
        with pytest.raises(ResourceError):
            oracle_uf(BooleanOracle(12, fn=lambda x: 0))
        with pytest.raises(ResourceError):  # 10 input bits and the target: 11 qubits
            oracle_uf(BooleanOracle.from_solutions(DENSE_MAX_QUBITS, [1]))
        assert oracle_uf(BooleanOracle.from_solutions(3, [1])).matrix.shape == (16, 16)

    def test_solution_table_is_capped_before_it_is_allocated(self, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("the table was allocated")

        with monkeypatch.context() as m:
            m.setattr(np, "zeros", no_table)
            with pytest.raises(ResourceError):
                BooleanOracle.from_solutions(21, [1])
            with pytest.raises(DomainError):
                BooleanOracle.from_solutions(0, [])
            with pytest.raises(DomainError):
                BooleanOracle.from_solutions(-1, [])
        assert BooleanOracle.from_solutions(20, [5]).solution_count() == 1

    def test_callable_oracle_above_table_cap_rejected(self):
        def never(x):
            raise AssertionError("the callable must not be evaluated")

        with pytest.raises(ResourceError):
            BooleanOracle(21, fn=never)


class TestHadamardLayer:
    def test_single_qubit(self):
        np.testing.assert_allclose(hadamard_layer(1).amps, [SQ2, SQ2])

    def test_three_qubits(self):
        np.testing.assert_allclose(hadamard_layer(3).amps, np.full(8, 1 / math.sqrt(8)))

    def test_matches_gate_construction(self):
        circuit = Circuit(3, tuple(hadamard(q) for q in range(3)))
        built = run_circuit(circuit, basis_state(3, 0))
        assert fidelity(built, hadamard_layer(3)) >= 1 - 1e-12

    def test_parallel_evaluation_state(self):
        f = BooleanOracle(3, fn=lambda x: x % 2)
        out = apply_gate(tensor(hadamard_layer(3), basis_state(1, 0)), oracle_uf(f))
        expected = np.zeros(16, dtype=complex)
        for x in range(8):
            expected[(x << 1) | f(x)] = 1 / math.sqrt(8)
        np.testing.assert_allclose(out.amps, expected, atol=1e-12)

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("QSIM_MAX_QUBITS", "3")
        with pytest.raises(ResourceError):
            hadamard_layer(4)


class TestRunCircuit:
    def test_empty_circuit(self):
        s = random_state(2, Stream(3, "empty"))
        assert states_equal(run_circuit(Circuit(2), s), s)

    def test_bell_preparation(self):
        out = run_circuit(bell_circuit(), basis_state(2, 0))
        np.testing.assert_allclose(out.amps, [SQ2, 0, 0, SQ2], atol=1e-12)

    def test_inverse_circuit_restores_input(self):
        circuit = Circuit(3, (
            hadamard(0), cnot(0, 2), phase_gate(0.7, 1),
            controlled(phase_gate(1.3, 2), 0), swap_gate(1, 2),
        ))
        s = random_state(3, Stream(5, "inv"))
        back = run_circuit(inverse_circuit(circuit), run_circuit(circuit, s))
        assert fidelity(back, s) >= 1 - 1e-9

    def test_against_dense_product_oracle(self):
        rng = Stream(7, "dense")
        gen = np.random.default_rng(99)
        for b in range(2, 7):
            ops = []
            for _ in range(6):
                kind = gen.integers(4)
                qs = list(gen.choice(b, size=2, replace=False))
                if kind == 0:
                    ops.append(hadamard(int(qs[0])))
                elif kind == 1:
                    ops.append(cnot(int(qs[0]), int(qs[1])))
                elif kind == 2:
                    ops.append(phase_gate(float(gen.normal()), int(qs[0])))
                else:
                    ops.append(controlled(phase_gate(float(gen.normal()), int(qs[1])), int(qs[0])))
            circuit = Circuit(b, tuple(ops))
            dense = circuit_unitary(circuit, b)
            s = random_state(b, rng.substream(b))
            np.testing.assert_allclose(
                run_circuit(circuit, s).amps, dense @ s.amps, atol=1e-9
            )

    def test_gate_permutation_equivariance(self):
        gen = np.random.default_rng(17)
        b = 4
        u = np.linalg.qr(gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4)))[0]
        targets = [1, 3]
        perm = [2, 0, 3, 1]  # qubit q -> perm[q]
        s = random_state(b, Stream(11, "perm"))
        direct = apply_gate(s, GateOp("u", u, targets))
        permuted_input = StateVector(b, permute_qubits(s.amps, perm))
        moved = apply_gate(permuted_input, GateOp("u", u, [perm[q] for q in targets]))
        np.testing.assert_allclose(
            permute_qubits(direct.amps, perm), moved.amps, atol=1e-10
        )

    def test_long_circuit_stays_measurable(self):
        # each H scales the squared norm by about 1 + 1.6e-16: unrenormalised,
        # 8,000 of them drift by 1.3e-12, past the sampler's CDF_RESIDUAL
        circuit = Circuit(6, tuple(hadamard(q % 6) for q in range(8000)))
        out = run_circuit(circuit, basis_state(6, 0))
        bits, _ = measure_qubits(out, range(6), Stream(37, "long-circuit"))
        assert len(bits) == 6
        assert abs(np.vdot(out.amps, out.amps).real - 1.0) <= NORM_DRIFT

    def test_qubit_bounds_checked(self):
        with pytest.raises(DomainError):
            Circuit(1, (cnot(0, 1),))
        with pytest.raises(DomainError):
            run_circuit(Circuit(2, (hadamard(0),)), basis_state(1, 0))


@st.composite
def gate_cases(draw):
    """(b, matrix, targets, controls, amps): up to 3 targets and 2 disjoint
    controls on b <= 6 qubits, with a diagonal-phase, permutation or random
    unitary matrix and a random state."""
    b = draw(st.integers(1, 6))
    qubits = draw(st.permutations(range(b)))
    k = draw(st.integers(1, min(3, b)))
    nc = draw(st.integers(0, min(2, b - k)))
    kind = draw(st.sampled_from(["diagonal", "permutation", "unitary"]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 1 << k
    if kind == "diagonal":
        mat = np.diag(np.exp(2j * math.pi * gen.random(dim)))
    elif kind == "permutation":
        mat = np.eye(dim, dtype=complex)[gen.permutation(dim)]
    else:
        mat = np.linalg.qr(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))[0]
    amps = gen.normal(size=1 << b) + 1j * gen.normal(size=1 << b)
    return b, mat, qubits[:k], qubits[k : k + nc], amps / np.linalg.norm(amps)


class TestKernel:
    @settings(max_examples=200)
    @given(gate_cases())
    def test_matches_dense_embedding(self, case):
        b, mat, targets, controls, amps = case
        out = apply_gate(StateVector(b, amps), GateOp("g", mat, targets, controls))
        expected = dense_embedding(mat, targets, controls, b) @ amps
        np.testing.assert_allclose(out.amps, expected, rtol=0, atol=1e-12)

    def test_real_trusted_amplitudes_are_promoted(self):
        # the trusted constructor now rejects real arrays, so the state is
        # assembled around it: the kernel must still promote what it gets
        plus = StateVector.__new__(StateVector)
        plus.qubits, plus.amps = 1, np.array([SQ2, SQ2])
        np.testing.assert_allclose(
            apply_gate(plus, phase_gate(math.pi / 2)).amps, [SQ2, 1j * SQ2], atol=1e-12
        )
        np.testing.assert_allclose(
            apply_gate(plus, pauli_y()).amps, [-1j * SQ2, 1j * SQ2], atol=1e-12
        )


class TestGateOpValidation:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            GateOp("bad", np.array([[1, 0], [0, 2.0]]), [0])

    def test_overlapping_targets_controls_rejected(self):
        with pytest.raises(ValidationError):
            GateOp("bad", np.eye(2, dtype=complex), [0], controls=[0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            GateOp("bad", np.eye(4, dtype=complex), [0])


# validation raises that no other in-process test reaches
@pytest.mark.parametrize("call, error, fragment", [
    (lambda: BooleanOracle(0, table=[0]), DomainError, "at least one input bit"),
    (lambda: BooleanOracle(2, table=[0, 1, 2, 0]), ValidationError, "zero/one entries"),
    (lambda: BooleanOracle(2, table=[0, 1]), ValidationError, "zero/one entries"),
    (lambda: BooleanOracle(2), DomainError, "either a callable or a table"),
    (lambda: BooleanOracle(2, table=[0, 1, 0, 0])(4), DomainError, "input 4 out of range"),
], ids=["no-bits", "bad-entry", "short-table", "no-function", "input-out-of-range"])
def test_bad_oracle_raises(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
