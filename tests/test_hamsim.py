import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import dense_embedding
from qsim import hamsim, linalg, qstate
from qsim.acceptance import run_acceptance
from qsim.errors import DomainError, ResourceError, ValidationError
from qsim.gates import PAULI_X, PAULI_Y, PAULI_Z, hadamard_layer
from qsim.hamsim import (
    HamiltonianTerms,
    TrotterStep,
    TrotterPlan,
    _embed,
    commuting_chain,
    exact_evolve,
    grover_hamiltonian,
    ising_chain,
    qmc_problem,
    trotter_error,
    trotter_evolve,
    trotter_qmc,
)
from qsim.qstate import (
    NORM_DRIFT,
    Observable,
    StateVector,
    _apply_matrix,
    basis_state,
    expectation,
    fidelity,
    measure_qubits,
    random_state,
)
from qsim.rng import Stream


def single_term(mat, qubits=1):
    return HamiltonianTerms(qubits, ((np.asarray(mat, dtype=complex), tuple(range(qubits))),))


def pauli_string(letters):
    out = np.ones((1, 1), dtype=complex)
    for letter in letters:
        out = np.kron(out, {"I": np.eye(2), "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}[letter])
    return out


# every Pauli string on 1 to 3 qubits: 4 + 16 + 64
PAULI_STRINGS = ["".join(letters) for k in (1, 2, 3)
                 for letters in itertools.product("IXYZ", repeat=k)]
NONZERO = st.floats(-1e6, 1e6, allow_nan=False).filter(lambda c: c != 0.0)


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
        step = TrotterStep(h, 0.9)
        exact = exact_evolve(h, 0.9, psi)
        assert np.linalg.norm(step.apply(psi).amps - exact.amps) < 1e-9

    def test_commuting_terms_are_exact(self):
        h = commuting_chain(3)
        psi = random_state(3, Stream(9, "comm"))
        step = TrotterStep(h, 0.31)
        exact = exact_evolve(h, 0.31, psi)
        assert np.linalg.norm(step.apply(psi).amps - exact.amps) < 1e-9

    def test_step_is_unitary(self):
        for delta in (0.3, 0.05):
            dense = _dense_step(TrotterStep(ising_chain(2), delta))
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
        direct = TrotterStep(h, 0.5).apply(psi)
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

    @pytest.mark.parametrize("qubits, steps", [(10, 200), (6, 2000)])
    def test_long_runs_stay_measurable(self, qubits, steps):
        # unrenormalised, the squared norms drift by 1.5e-13 and 4.9e-13, past
        # NORM_DRIFT (with eigensolved factors 1.6e-12 and 5.0e-12, past the
        # Born sampler's CDF_RESIDUAL of 1e-12)
        plan = TrotterPlan(2.0, steps)
        final = trotter_evolve(ising_chain(qubits), plan, basis_state(qubits, 0))[-1]
        bits, post = measure_qubits(final, range(qubits), Stream(29, "long-trotter"))
        assert len(bits) == qubits and abs(post.norm() - 1.0) < 1e-12
        assert abs(np.vdot(final.amps, final.amps).real - 1.0) <= NORM_DRIFT

    @pytest.mark.parametrize("drift, renormalised", [(5e-14, False), (3e-13, True)])
    def test_step_renormalises_only_past_the_drift_limit(self, drift, renormalised):
        step = TrotterStep(ising_chain(2), 0.1)
        psi = random_state(2, Stream(31, "drift-limit")).amps * np.sqrt(1.0 + drift)
        raw = psi.copy()
        for mat, targets in step.factors:
            raw = _apply_matrix(raw, 2, mat, targets)
        out = step.apply(StateVector(2, psi, _trusted=True)).amps
        norm2 = np.vdot(raw, raw).real
        assert (abs(norm2 - 1.0) > NORM_DRIFT) == renormalised
        want = raw / np.sqrt(norm2) if renormalised else raw
        assert out.tobytes() == want.tobytes()

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


class TestPauliTerms:
    def test_there_are_84_strings(self):
        assert len(PAULI_STRINGS) == len(set(PAULI_STRINGS)) == 84

    @settings(max_examples=30)
    @given(c=NONZERO)
    def test_every_scaled_string_is_recognised(self, c):
        for letters in PAULI_STRINGS:
            p = pauli_string(letters)
            (got_c, got_p), = single_term(c * p, len(letters)).paulis
            assert got_c == c and np.array_equal(got_p, p), letters

    @settings(max_examples=30)
    @given(index=st.integers(0, 83), c=NONZERO, entry=st.integers(0, 63), imag=st.booleans())
    def test_one_ulp_off_is_not_a_pauli_term(self, index, c, entry, imag):
        letters = PAULI_STRINGS[index]
        m = c * pauli_string(letters)
        row = entry % len(m)
        col = int(np.flatnonzero(m[row])[0])
        x, y = m[row, col].real, m[row, col].imag
        if imag:
            y = np.nextafter(y, math.inf)
        else:
            x = np.nextafter(x, math.inf)
        m[row, col] = complex(x, y)
        assert hamsim._pauli_form(m) is None

    @pytest.mark.parametrize("mat", [
        1j * PAULI_X, (0.6 + 1e-300j) * PAULI_Z, PAULI_X + PAULI_Z,
        np.diag([1.0, 0.0]), np.kron(PAULI_X, PAULI_X) + np.kron(PAULI_Z, PAULI_Z),
    ], ids=["imaginary", "complex", "sum", "projector", "two-string-sum"])
    def test_complex_multiples_and_sums_are_rejected(self, mat):
        assert hamsim._pauli_form(np.asarray(mat, dtype=complex)) is None

    def test_zero_term_is_zero_times_identity(self):
        (c, p), = single_term(np.zeros((4, 4)), 2).paulis
        assert c == 0.0 and np.array_equal(p, np.eye(4))

    @settings(max_examples=60)
    @given(index=st.integers(0, 83), c=st.floats(0.01, 10.0), sign=st.sampled_from([-1, 1]),
           angle=st.floats(-1.0, 1.0))
    def test_factor_matches_expm_hermitian(self, index, c, sign, angle):
        letters = PAULI_STRINGS[index]
        m = sign * c * pauli_string(letters)
        delta = angle / c
        factor = TrotterStep(single_term(m, len(letters)), delta).factors[0][0]
        assert np.abs(factor - linalg.expm_hermitian(m, -1j * delta)).max() <= 1e-15

    @settings(max_examples=60)
    @given(index=st.integers(0, 83), c=st.floats(0.01, 10.0), angle=st.floats(-100.0, 100.0))
    def test_factor_is_unitary_to_rounding(self, index, c, angle):
        letters = PAULI_STRINGS[index]
        h = single_term(c * pauli_string(letters), len(letters))
        factor = TrotterStep(h, angle / c).factors[0][0]
        assert np.abs(factor.conj().T @ factor - np.eye(len(factor))).max() <= 5e-16

    def test_pauli_models_take_no_eigensolve(self, monkeypatch):
        def refuse(mat):
            raise AssertionError("linalg.eigh was called")

        models = (ising_chain(4), commuting_chain(3), qmc_problem()[0])
        monkeypatch.setattr(linalg, "eigh", refuse)
        for model in models:
            step = TrotterStep(model, 0.1)
            assert len(step.factors) == 2 * len(model.terms)
            step.apply(basis_state(model.qubits, 0))

    def test_other_terms_keep_expm_hermitian(self, monkeypatch):
        calls = []
        eigh = linalg.eigh
        monkeypatch.setattr(linalg, "eigh", lambda mat: calls.append(len(mat)) or eigh(mat))
        h, _ = grover_hamiltonian(3, hadamard_layer(2))
        assert h.paulis == (None,)
        TrotterStep(h, 0.1)
        assert calls == [4]

    def test_criterion_8_runs_drift_below_1e_14(self, monkeypatch):
        drifts = []

        def renormalized(s):
            drifts.append(abs(np.vdot(s.amps, s.amps).real - 1.0))
            return qstate._renormalized(s)

        monkeypatch.setattr(hamsim, "_renormalized", renormalized)
        assert run_acceptance(ids=[8])[0].passed
        assert len(drifts) == 7 + 5 + 10 + 20 + 40
        assert max(drifts) <= 1e-14


class TestStoredArrays:
    def test_terms_are_read_only_copies(self):
        mat = 0.5 * PAULI_Z.copy()
        h = single_term(mat)
        mat[:] = PAULI_X
        (stored, _), = h.terms
        assert np.array_equal(stored, 0.5 * PAULI_Z) and h.paulis[0][0] == 0.5
        with pytest.raises(ValueError):
            stored[0, 0] = 2.0
        with pytest.raises(ValueError):
            h.total[0, 0] = 2.0
        assert h.total is h.total and h.assemble() is not h.assemble()

    def test_models_compare_and_hash_by_identity(self):
        a, b = ising_chain(2), ising_chain(2)
        assert a == a and a != b and len({a, b, a}) == 2

    def test_qmc_problem_is_built_once(self):
        model, obs = qmc_problem()
        again = qmc_problem()
        assert again[0] is model and again[1] is obs
        arrays = [m for m, _ in model.terms] + [p for _, p in model.paulis]
        arrays += [obs.mat, model.total] + [q for _, q in obs.spectrum]
        assert not any(a.flags.writeable for a in arrays)

    def test_both_solvers_split_z_on_the_first_qubit_alike(self):
        # so the cached qmc observable does not depend on which solver built it
        z1 = np.kron(PAULI_Z, np.eye(2)).astype(complex)
        lapack, jacobi = np.linalg.eigh(z1), oracles.jacobi_eigh(z1)
        for got, want in zip(jacobi, lapack):
            assert got.tobytes() == want.tobytes()


# +0.0, -0.0 and ints among the floats
T_FINALS = st.one_of(st.sampled_from([0.0, -0.0, 0, 1, 3]), st.floats(0.0, 4.0),
                     st.integers(0, 4))


class TestKeptQmcStates:
    """trotter_qmc keeps its law (both expectations, the eigenvalues and
    the Born table of the prepared state) per (t_final, steps); from an
    empty cache or a kept law, it returns what the per-call route returns,
    signed zeros included."""

    @given(t_final=T_FINALS, steps=st.integers(1, 4), shots=st.integers(1, 300),
           seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=80)
    def test_cold_and_warm_calls_match_the_per_call_route(self, t_final, steps, shots, seed):
        want = oracles.trotter_qmc_per_call(t_final, steps, shots, Stream(seed, "kept"))
        hamsim._qmc_law.cache_clear()
        for cache in ("cold", "warm"):
            got = trotter_qmc(t_final, steps, shots, Stream(seed, "kept"))
            assert repr(got) == repr(want), cache

    def test_the_states_are_kept_per_time_and_step_count(self):
        hamsim._qmc_law.cache_clear()
        for t_final in (0.5, 1.0):
            for steps in (1, 2):
                want = oracles.trotter_qmc_per_call(t_final, steps, 50, Stream(4, "key"))
                for _ in range(2):
                    got = trotter_qmc(t_final, steps, 50, Stream(4, "key"))
                    assert repr(got) == repr(want), (t_final, steps)

    def test_a_kept_int_step_count_answers_no_float_one(self):
        trotter_qmc(1.0, 2, 5, Stream(4, "typed"))
        with pytest.raises(TypeError):
            trotter_qmc(1.0, 2.0, 5, Stream(4, "typed"))

    def test_a_warm_call_runs_no_evolution(self, monkeypatch):
        first = trotter_qmc(1.0, 2, 100, Stream(5, "warm"))

        def refuse(*args):
            raise AssertionError("a warm trotter_qmc call rebuilt its states")

        monkeypatch.setattr(linalg, "eigh", refuse)
        monkeypatch.setattr(hamsim, "TrotterStep", refuse)
        assert repr(trotter_qmc(1.0, 2, 100, Stream(5, "warm"))) == repr(first)

    def test_a_warm_call_makes_only_its_draws(self, refuse_seed_free_work):
        first = trotter_qmc(1.0, 2, 100, Stream(6, "draws"))
        refuse_seed_free_work()
        assert repr(trotter_qmc(1.0, 2, 100, Stream(6, "draws"))) == repr(first)

    def test_the_kept_law_is_read_only(self):
        trotter_qmc(1.0, 2, 5, Stream(4, "read-only"))
        table = hamsim._qmc_law(1.0, 2)[3]
        for array in (hamsim._qmc_law(1.0, 2)[2], table.probs, table._edges):
            with pytest.raises(ValueError):
                array[0] = 0.0


def _dense_step(step):
    """U_delta as a dense matrix: the product of its factors' embeddings."""
    out = np.eye(1 << step.qubits, dtype=complex)
    for mat, targets in step.factors:
        out = dense_embedding(mat, targets, [], step.qubits) @ out
    return out


def test_step_unitarity_dense_four_qubits():
    dense = _dense_step(TrotterStep(ising_chain(4, coupling=0.45, field=0.6), 0.21))
    deviation = np.max(np.abs(dense.conj().T @ dense - np.eye(16)))
    assert deviation < 1e-9


# validation raises that no other in-process test reaches
@pytest.mark.parametrize("call, error, fragment", [
    (lambda: HamiltonianTerms(0, ((PAULI_Z, (0,)),)), DomainError, "at least one qubit"),
    (lambda: HamiltonianTerms(1, ()), ValidationError, "at least one Hamiltonian term"),
    (lambda: HamiltonianTerms(2, ((PAULI_Z, (0, 1)),)), ValidationError,
     "dimension does not match its targets"),
    (lambda: exact_evolve(ising_chain(2), 1.0, basis_state(3, 0)), DomainError,
     "qubit counts differ"),
    (lambda: TrotterStep(ising_chain(2), 0.1).apply(basis_state(3, 0)), DomainError,
     "state size does not match"),
    (lambda: grover_hamiltonian(4, hadamard_layer(2)), DomainError, "index 4 out of range"),
    (lambda: grover_hamiltonian(0, StateVector(1, [1j, 0])), DomainError, "must be real"),
    (lambda: ising_chain(1), DomainError, "at least two qubits"),
    (lambda: commuting_chain(1), DomainError, "at least two qubits"),
], ids=["no-qubits", "no-terms", "term-size", "evolve-size", "step-size", "index-range",
        "complex-overlap", "ising-1", "commuting-1"])
def test_bad_input_raises(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
