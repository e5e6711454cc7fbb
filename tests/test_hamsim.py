import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import dense_embedding
from qsim.errors import DomainError, ResourceError, ValidationError
from qsim.gates import PAULI_X, PAULI_Z, hadamard_layer
from qsim.hamsim import (
    HamiltonianTerms,
    TrotterPlan,
    _embed,
    commuting_chain,
    exact_evolve,
    grover_hamiltonian,
    hamiltonian_from_json,
    hamiltonian_to_json,
    ising_chain,
    trotter_error,
    trotter_evolve,
    trotter_step,
)
from qsim.qstate import Observable, basis_state, expectation, fidelity, random_state
from qsim.rng import Stream


def single_term(mat, qubits=1):
    return HamiltonianTerms(qubits, ((np.asarray(mat, dtype=complex), tuple(range(qubits))),))


class TestExactEvolve:
    def test_zero_time_is_identity(self):
        h = ising_chain(2)
        psi = random_state(2, Stream(1, "t0"))
        assert fidelity(exact_evolve(h, 0.0, psi), psi) >= 1 - 1e-12

    def test_sigma_z_phase_rotation(self):
        # term sigma_z/2 makes the total Hamiltonian sigma_z
        h = single_term(PAULI_Z / 2)
        out = exact_evolve(h, math.pi, basis_state(1, 0))
        np.testing.assert_allclose(out.amps, [np.exp(-1j * math.pi), 0.0], atol=1e-12)
        assert fidelity(out, basis_state(1, 0)) >= 1 - 1e-12  # global phase only

    def test_energy_conservation(self):
        h = ising_chain(2, coupling=0.7, field=0.3)
        obs = Observable(h.assemble())
        psi = random_state(2, Stream(3, "energy"))
        base = expectation(psi, obs)
        for t in (0.1, 0.4, 1.3, 2.9):
            drift = abs(expectation(exact_evolve(h, t, psi), obs) - base)
            assert drift < 1e-9

    def test_norm_preserved(self):
        h = ising_chain(3)
        psi = random_state(3, Stream(5, "norm"))
        out = exact_evolve(h, 1.7, psi)
        assert abs(out.norm() - 1.0) < 1e-9


class TestTrotterStep:
    def test_single_term_is_exact(self):
        h = single_term(0.4 * PAULI_X)
        psi = random_state(1, Stream(7, "L1"))
        step = trotter_step(h, 0.9)
        exact = exact_evolve(h, 0.9, psi)
        assert np.linalg.norm(step.apply(psi).amps - exact.amps) < 1e-9

    def test_commuting_terms_are_exact(self):
        h = commuting_chain(3)
        psi = random_state(3, Stream(9, "comm"))
        step = trotter_step(h, 0.31)
        exact = exact_evolve(h, 0.31, psi)
        assert np.linalg.norm(step.apply(psi).amps - exact.amps) < 1e-9

    def test_step_is_unitary(self):
        for delta in (0.3, 0.05):
            dense = trotter_step(ising_chain(2), delta).dense()
            np.testing.assert_allclose(
                dense.conj().T @ dense, np.eye(4), atol=1e-9
            )

    def test_noncommuting_single_step_error_scales(self):
        # second-order symmetric step: one-step error falls at least
        # quadratically in delta (measured exponent is ~3)
        h = ising_chain(2)
        psi = random_state(2, Stream(11, "step"))
        deltas = [0.2, 0.1, 0.05, 0.025]
        errors = [trotter_error(h, TrotterPlan(d, 1), psi) for d in deltas]
        assert all(e > 0 for e in errors)
        slope = np.polyfit(np.log(deltas), np.log(errors), 1)[0]
        assert slope >= 1.8
        ratios = [e / d**2 for e, d in zip(errors, deltas)]
        assert all(np.isfinite(r) and r > 0 for r in ratios)


class TestTrotterEvolve:
    def test_one_step_plan_matches_step(self):
        h = ising_chain(2)
        psi = random_state(2, Stream(13, "one"))
        trajectory = trotter_evolve(h, TrotterPlan(0.5, 1), psi)
        assert len(trajectory) == 2
        direct = trotter_step(h, 0.5).apply(psi)
        assert np.linalg.norm(trajectory[-1].amps - direct.amps) < 1e-12

    def test_commuting_matches_exact_at_every_grid_point(self):
        h = commuting_chain(3, coupling=0.8)
        psi = random_state(3, Stream(17, "grid"))
        plan = TrotterPlan(1.0, 5)
        trajectory = trotter_evolve(h, plan, psi)
        for t, state in zip(plan.grid(), trajectory):
            exact = exact_evolve(h, t, psi)
            assert np.linalg.norm(state.amps - exact.amps) < 1e-8

    def test_doubling_steps_quarters_error(self):
        h = ising_chain(2)
        psi = random_state(2, Stream(19, "dbl"))
        e1 = trotter_error(h, TrotterPlan(1.0, 8), psi)
        e2 = trotter_error(h, TrotterPlan(1.0, 16), psi)
        assert e1 / e2 == pytest.approx(4.0, rel=0.25)

    def test_norm_drift_bounded(self):
        h = ising_chain(2)
        psi = random_state(2, Stream(23, "drift"))
        plan = TrotterPlan(2.0, 40)
        for state in trotter_evolve(h, plan, psi):
            assert abs(state.norm() - 1.0) < 1e-8 * plan.m


class TestGroverHamiltonian:
    def test_uniform_two_qubits(self):
        psi = hadamard_layer(2)
        h, t = grover_hamiltonian(2, psi)
        assert t == pytest.approx(math.pi)
        evolved = exact_evolve(h, t, psi)
        assert abs(evolved.amps[2]) ** 2 >= 1 - 1e-9

    def test_single_qubit_timing(self):
        psi = hadamard_layer(1)
        h, t = grover_hamiltonian(1, psi)
        assert t == pytest.approx(math.pi * math.sqrt(2) / 2)
        evolved = exact_evolve(h, t, psi)
        assert abs(evolved.amps[1]) ** 2 >= 1 - 1e-9

    def test_three_qubits(self):
        psi = hadamard_layer(3)
        h, t = grover_hamiltonian(5, psi)
        evolved = exact_evolve(h, t, psi)
        assert abs(evolved.amps[5]) ** 2 >= 1 - 1e-9

    def test_degenerate_when_no_overlap(self):
        with pytest.raises(DomainError):
            grover_hamiltonian(1, basis_state(2, 0))

    def test_register_cap(self):
        with pytest.raises(ResourceError):
            grover_hamiltonian(0, hadamard_layer(4))


class TestValidation:
    def test_terms_must_be_hermitian(self):
        with pytest.raises(ValidationError):
            HamiltonianTerms(1, ((np.array([[0, 1], [0, 0]], dtype=complex), (0,)),))

    def test_term_size_cap(self):
        big = np.eye(16, dtype=complex)
        with pytest.raises(ValidationError):
            HamiltonianTerms(4, ((big, (0, 1, 2, 3)),))

    def test_assemble_matches_embedding(self):
        h = ising_chain(2, coupling=1.0, field=0.0)
        expected = 2.0 * np.kron(PAULI_Z, PAULI_Z)
        np.testing.assert_allclose(h.assemble(), expected, atol=1e-12)

    @given(data=st.data(), b=st.integers(1, 5), seed=st.integers(0, 2**64 - 1))
    def test_embedding_matches_oracle_exactly(self, data, b, seed):
        k = data.draw(st.integers(1, min(3, b)))
        targets = data.draw(st.permutations(range(b)))[:k]
        rng = Stream(seed, "embed")
        mat = np.array([[complex(rng.normal(), rng.normal()) for _ in range(1 << k)]
                        for _ in range(1 << k)])
        mat[0, -1] = 0.0  # a zero entry, which the oracle skips
        assert np.array_equal(_embed(mat, targets, b), dense_embedding(mat, targets, [], b))

    def test_plan_validation(self):
        with pytest.raises(DomainError):
            TrotterPlan(1.0, 0)
        with pytest.raises(DomainError):
            TrotterPlan(-1.0, 3)


class TestSerialization:
    def test_roundtrip(self):
        h = ising_chain(3, coupling=0.25, field=0.75)
        restored = hamiltonian_from_json(hamiltonian_to_json(h))
        np.testing.assert_allclose(restored.assemble(), h.assemble(), atol=1e-12)

    def test_schema_shape(self):
        data = json.loads(hamiltonian_to_json(ising_chain(2)))
        assert set(data) == {"qubits", "terms"}
        assert set(data["terms"][0]) == {"targets", "matrix"}
        assert all(len(pair) == 2 for pair in data["terms"][0]["matrix"])


def test_step_unitarity_dense_four_qubits():
    dense = trotter_step(ising_chain(4, coupling=0.45, field=0.6), 0.21).dense()
    deviation = np.max(np.abs(dense.conj().T @ dense - np.eye(16)))
    assert deviation < 1e-9
