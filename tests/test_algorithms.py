import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    circuit_unitary,
    fejer_longdouble,
    grover_operator_matrix,
    modmul_unitary,
    order_find_per_call,
    orbit_register_distribution,
    pe_register_distribution,
    pe_register_full_columns,
    pe_register_out_of_place,
    per_stream_indices,
    phase_coverage_by_gate,
    phase_estimates_per_call,
)
from qsim.algorithms import (
    GroverPlan,
    PhasePlan,
    dft_matrix,
    grover_search,
    grover_solution_amplitude,
    grover_success_rate,
    inverse_qft,
    order_brute_force,
    order_find,
    order_trial,
    phase_coverage,
    phase_distance,
    phase_estimates,
    phase_estimation_circuit,
    qft,
    qft_check,
    quantum_counts,
    register_size,
    _grover_probs,
    _orbit_register_distribution,
    _pe_register_distribution,
)
from qsim import algorithms, linalg
from qsim import rng as qrng
from qsim.acceptance import SEED, run_acceptance
from qsim.entangle import (
    SpinAxis,
    anticorrelation_experiment,
    chsh_experiment,
    teleport_bit_counts,
    teleport_trials,
)
from qsim.errors import DomainError, NotFoundError, ResourceError, ValidationError
from qsim.gates import (
    PAULI_Z,
    BooleanOracle,
    GateOp,
    controlled,
    hadamard,
    hadamard_layer,
    phase_gate,
    run_circuit,
)
from qsim.qec import logical_error_rate
from qsim.qstate import (
    DENSE_MAX_QUBITS,
    Observable,
    StateVector,
    basis_state,
    fidelity,
    marginal,
    random_state,
)
from qsim.rng import Stream, sample_indices
from qsim.statharness import point_mass_mixture, qmc_estimate, quantum_rng


def phase_unitary(phi: float) -> GateOp:
    return GateOp("u", np.diag([1.0, np.exp(2j * math.pi * phi)]), [0])


def plan_with_b(b: int) -> PhasePlan:
    """A phase-estimation plan whose register has b >= 3 qubits."""
    plan = PhasePlan(zeta=2.0 ** (2 - b), epsilon=0.5)
    assert plan.b == b
    return plan


def sampled_distribution(call):
    """The register distribution that `call` hands to the Born sampler,
    directly or through phase estimation's kept table."""
    seen = []
    pe_table = algorithms._pe_table

    def spy(probs, u):
        seen.append(np.array(probs))
        return sample_indices(probs, u)

    def table_spy(phi, b):
        table = pe_table(phi, b)
        seen.append(np.array(table.probs))
        return table

    with pytest.MonkeyPatch.context() as m:
        m.setattr(algorithms, "sample_indices", spy)
        m.setattr(algorithms, "_pe_table", table_spy)
        call()
    [dist] = seen
    return dist


def eigenpair(gen, k: int):
    """(U = V diag(e^{2 pi i phi_j}) V^dagger on k qubits for a random
    unitary V, V's column j, phi_j) for a random j."""
    dim = 1 << k
    v = np.linalg.qr(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))[0]
    phis = gen.random(dim)
    j = int(gen.integers(dim))
    return (v * np.exp(2j * np.pi * phis)) @ v.conj().T, v[:, j], float(phis[j])


def count_distribution(f: BooleanOracle, plan: PhasePlan) -> np.ndarray:
    return sampled_distribution(lambda: quantum_counts(f, plan, 1, Stream(0, "dist")))


def per_stream_counts(f: BooleanOracle, plan: PhasePlan, rngs) -> list:
    """quantum_counts by one sample_index call per stream, on the register
    distribution quantum_counts samples."""
    n = 1 << f.b
    dist = count_distribution(f, plan)
    counts = []
    for i in per_stream_indices(dist, rngs):
        omega = i / float(1 << plan.b)
        theta = 2.0 * math.pi * min(omega, 1.0 - omega)
        counts.append(min(max(round(n * math.sin(theta / 2.0) ** 2), 0), n))
    return counts


class TestQft:
    def test_single_qubit_is_hadamard(self):
        np.testing.assert_allclose(
            circuit_unitary(qft(1), 1), hadamard().matrix, atol=1e-12
        )

    def test_zero_maps_to_uniform(self):
        out = run_circuit(qft(4), basis_state(4, 0))
        np.testing.assert_allclose(out.amps, np.full(16, 0.25), atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_circuit_matches_dense_dft(self, n):
        dense = dft_matrix(n)
        built = circuit_unitary(qft(n), n)
        np.testing.assert_allclose(built, dense, atol=1e-9)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_inverse_is_conjugate_transpose(self, n):
        built = circuit_unitary(inverse_qft(n), n)
        np.testing.assert_allclose(built, dft_matrix(n).conj().T, atol=1e-9)

    def test_roundtrip_identity(self):
        s = random_state(5, Stream(1, "qft"))
        back = run_circuit(inverse_qft(5), run_circuit(qft(5), s))
        assert fidelity(back, s) >= 1 - 1e-9

    class Stop(Exception):
        pass

    @classmethod
    def _record_angles(cls, monkeypatch, stop_after=None):
        """The angles qft passes to phase_gate, in order; raises Stop once
        `stop_after` of them are recorded."""
        angles = []
        build = algorithms.phase_gate

        def phase_gate(angle, target):
            angles.append(angle)
            if len(angles) == stop_after:
                raise cls.Stop
            return build(angle, target)

        monkeypatch.setattr(algorithms, "phase_gate", phase_gate)
        return angles

    def test_angles_are_the_former_expression_up_to_64_qubits(self, monkeypatch):
        monkeypatch.setenv("QSIM_MAX_QUBITS", "64")
        angles = self._record_angles(monkeypatch)
        qft(64)
        assert angles == [2.0 * math.pi / (1 << (m - i + 1))
                          for i in range(64) for m in range(i + 1, 64)]

    def test_angles_past_1024_qubits(self, monkeypatch):
        # 2 pi / (1 << 1025) cannot convert the int to a float; qubit 0's
        # 1,024th rotation (m = 1024) is the first to need that power
        monkeypatch.setenv("QSIM_MAX_QUBITS", "1100")
        angles = self._record_angles(monkeypatch, stop_after=1024)
        with pytest.raises(self.Stop):
            qft(1030)
        assert angles == [math.ldexp(math.pi, -m) for m in range(1, 1025)]
        assert 0.0 < angles[-1] < angles[-2]


def test_dense_oracles_are_capped_before_they_allocate(monkeypatch):
    def no_array(*args, **kwargs):
        raise AssertionError("a dense matrix was allocated")

    past_cap = BooleanOracle.from_solutions(18, [1])  # 18 + 7 register qubits > 24
    plan = PhasePlan(zeta=2.0**-4, epsilon=0.1)
    with monkeypatch.context() as m:
        for name in ("meshgrid", "ones", "exp", "arange", "full", "empty"):
            m.setattr(np, name, no_array)
        with pytest.raises(ResourceError):
            dft_matrix(DENSE_MAX_QUBITS + 1)
        with pytest.raises(ResourceError):
            qft_check(40, Stream(3, "qft-cap"))
        with pytest.raises(ResourceError):
            quantum_counts(past_cap, plan, 1, Stream(3, "count-cap"))
    assert dft_matrix(3).shape == (8, 8)


class TestRegisterSize:
    def test_worked_values(self):
        assert register_size(2.0**-4, 0.25) == 6
        assert register_size(0.5, 0.5) == 3

    def test_monotonicity(self):
        zetas = [2.0**-k for k in range(1, 8)]
        epss = [0.4, 0.25, 0.1, 0.05, 0.01]
        for eps in epss:
            sizes = [register_size(z, eps) for z in zetas]
            assert sizes == sorted(sizes)
        for z in zetas:
            sizes = [register_size(z, e) for e in sorted(epss, reverse=True)]
            assert sizes == sorted(sizes)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            register_size(1.0, 0.1)
        with pytest.raises(DomainError):
            register_size(0.1, 0.0)
        with pytest.raises(DomainError):
            register_size(0.1, 1.0)

    def test_plan_derives_b(self):
        plan = PhasePlan(zeta=2.0**-4, epsilon=0.1)
        assert plan.b == 7


class TestPhaseEstimation:
    def test_exact_three_bit_phase(self):
        plan = PhasePlan(zeta=2.0**-4, epsilon=0.25)
        rng = Stream(3, "pe")
        for est in phase_estimates(phase_unitary(5 / 8), basis_state(1, 1), plan, 20, rng):
            assert est == 5 / 8

    def test_zero_phase(self):
        plan = PhasePlan(zeta=2.0**-3, epsilon=0.25)
        [est] = phase_estimates(phase_unitary(0.0), basis_state(1, 1), plan, 1, Stream(5, "pe0"))
        assert est == 0.0

    def test_exact_case_all_phases_small_registers(self):
        for b in range(1, 6):
            for k in range(1 << b):
                dist = _pe_register_distribution(k / (1 << b), b)
                assert dist[k] == 1.0 and dist.sum() == 1.0

    @pytest.mark.parametrize("b", range(1, 7))
    @pytest.mark.parametrize("k", [1, 2])
    def test_register_distribution_matches_dense_circuit(self, b, k):
        # an eigenpair of a random unitary, against the gate-level circuit
        u, psi, phi = eigenpair(np.random.default_rng(10 * b + k), k)
        np.testing.assert_allclose(
            _pe_register_distribution(phi, b), pe_register_distribution(u, psi, b),
            rtol=0, atol=1e-12,
        )

    def test_register_distribution_order_finding_and_counting(self):
        # both mixtures of eigenstates, against the gate-level circuit
        modmul = modmul_unitary(7, 15)
        np.testing.assert_allclose(
            _orbit_register_distribution(4, 6),
            pe_register_distribution(modmul.matrix, basis_state(4, 1).amps, 6),
            rtol=0, atol=1e-12,
        )
        f = BooleanOracle.from_solutions(3, [2])
        np.testing.assert_allclose(
            count_distribution(f, plan_with_b(5)),
            pe_register_distribution(grover_operator_matrix(f), hadamard_layer(3).amps, 5),
            rtol=0, atol=1e-12,
        )

    @pytest.mark.parametrize("n", range(2, 22))
    def test_orbit_columns_match_full_columns_for_order_finding(self, n):
        # the orbit's closed form against every column of the dense gate
        for x in range(1, n):
            if math.gcd(x, n) != 1:
                continue
            gate = modmul_unitary(x, n)
            k = len(gate.targets)
            np.testing.assert_allclose(
                _orbit_register_distribution(order_brute_force(x, n), 2 * k + 4),
                pe_register_full_columns(gate.matrix, basis_state(k, 1).amps, 2 * k + 4),
                rtol=0, atol=1e-15,
            )

    @given(k=st.integers(1, 3), b=st.integers(3, 10), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_closed_form_matches_the_dense_routes_on_random_eigenpairs(self, k, b, seed):
        # the phase phase_estimates reads off <psi|U|psi>; the FFT route at
        # every b, the gate-level circuit while it stays small
        u, psi, _ = eigenpair(np.random.default_rng(seed), k)
        dist = sampled_distribution(lambda: phase_estimates(
            GateOp("u", u, range(k)), StateVector(k, psi), plan_with_b(b), 1, Stream(seed, "e")))
        np.testing.assert_allclose(dist, pe_register_out_of_place(u, psi, b), rtol=0, atol=1e-12)
        if b + k <= 7:
            np.testing.assert_allclose(dist, pe_register_distribution(u, psi, b),
                                       rtol=0, atol=1e-12)

    @given(phi=st.floats(0.0, 1.0, exclude_max=True), b=st.integers(1, 8))
    @settings(max_examples=40)
    def test_closed_form_matches_the_simulated_circuit(self, phi, b):
        out = run_circuit(phase_estimation_circuit(phi, b), basis_state(b + 1, 1))
        np.testing.assert_allclose(_pe_register_distribution(phi, b), marginal(out, range(b)),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("b", [1, 3, 7, 10, 12])
    def test_error_against_long_double_is_no_larger_than_the_fft_route(self, b):
        phis = [0.0, 1.0, -0.5, 1.0 - 2.0**-53, 2.0, 1.0 / 3.0]
        phis += list(np.random.default_rng(b).random(20))
        closed = fft = 0.0
        for phi in phis:
            want = fejer_longdouble(phi, b)
            closed = max(closed, float(np.max(np.abs(_pe_register_distribution(phi, b) - want))))
            u = np.diag([1.0, np.exp(2j * math.pi * phi)])
            got = pe_register_out_of_place(u, np.array([0.0, 1.0 + 0j]), b)
            fft = max(fft, float(np.max(np.abs(got - want))))
        assert closed <= 1e-15 and closed <= fft, (closed, fft)

    @given(b=st.integers(1, 12), k=st.integers(0, 2**12 - 1), side=st.sampled_from([-1, 1]))
    def test_edge_phases(self, b, k, side):
        M = 1 << b
        near = float(np.nextafter((k % M) / M, side * math.inf))
        for phi in (0.0, 1.0, -0.5, 1.0 - 2.0**-53, 2.0, (k % M) / M, near):
            dist = _pe_register_distribution(phi, b)
            assert np.all(np.isfinite(dist)) and abs(dist.sum() - 1.0) <= 1e-12, phi
            assert np.max(np.abs(dist - fejer_longdouble(phi, b))) <= 1e-15, phi
        for phi, peak in ((0.0, 0), (1.0, 0), (2.0, 0), (-0.5, M // 2), ((k % M) / M, k % M)):
            dist = _pe_register_distribution(phi, b)
            assert dist[peak] == 1.0 and dist.sum() == 1.0, phi

    def test_block_diagonal_unitary_with_psi_inside_one_block(self):
        gen = np.random.default_rng(5)
        block, psi_block, phi = eigenpair(gen, 1)
        other = np.linalg.qr(gen.normal(size=(6, 6)) + 1j * gen.normal(size=(6, 6)))[0]
        u = np.zeros((8, 8), dtype=complex)
        u[np.ix_([2, 5], [2, 5])] = block
        u[np.ix_([0, 1, 3, 4, 6, 7], [0, 1, 3, 4, 6, 7])] = other
        psi = np.zeros(8, dtype=complex)
        psi[[2, 5]] = psi_block
        for b in range(3, 6):
            dist = sampled_distribution(lambda: phase_estimates(
                GateOp("u", u, range(3)), StateVector(3, psi), plan_with_b(b), 1, Stream(5, "blk")))
            np.testing.assert_allclose(dist, pe_register_distribution(u, psi, b),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(dist, _pe_register_distribution(phi, b), rtol=0, atol=1e-13)

    def test_psi_with_zero_amplitudes(self):
        # an eigenvector of a degenerate eigenvalue, zero on half the basis
        u = GateOp("u", np.diag(np.exp(2j * math.pi * np.array([0.1, 0.3, 0.7, 0.3]))), range(2))
        psi = np.array([0.0, 0.6, 0.0, -0.8j])
        for b in range(3, 7):
            dist = sampled_distribution(lambda: phase_estimates(
                u, StateVector(2, psi), plan_with_b(b), 1, Stream(6, "zeros")))
            np.testing.assert_allclose(dist, pe_register_distribution(u.matrix, psi, b),
                                       rtol=0, atol=1e-12)

    def test_modmul_padding_states_are_fixed_points(self):
        # states 5, 6 and 7 map to themselves under y -> 2y mod 5: phase 0
        gate = modmul_unitary(2, 5)
        for amps in ([0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 1, 1, 1]):
            psi = np.array(amps, dtype=complex) / math.sqrt(sum(amps))
            for b in range(3, 7):
                estimates = phase_estimates(gate, StateVector(3, psi), plan_with_b(b), 20,
                                            Stream(b, "pad"))
                assert estimates.tolist() == [0.0] * 20
                np.testing.assert_allclose(
                    _pe_register_distribution(0.0, b),
                    pe_register_distribution(gate.matrix, psi, b), rtol=0, atol=1e-12,
                )

    def test_estimates_match_a_per_stream_sample_index_loop(self):
        plan = PhasePlan(zeta=2.0**-6, epsilon=0.05)
        u, eigenstate = phase_unitary(1 / 3), basis_state(1, 1)
        rng = Stream(17, "pe-loop")
        dist = sampled_distribution(lambda: phase_estimates(u, eigenstate, plan, 1, rng))
        expected = per_stream_indices(dist, map(rng.substream, range(300)))
        estimates = phase_estimates(u, eigenstate, plan, 300, rng).tolist()
        assert estimates == [i / float(1 << plan.b) for i in expected]
        assert all(type(e) is float for e in estimates)

    def test_coverage_for_one_third(self):
        plan = PhasePlan(zeta=2.0**-4, epsilon=0.1)
        phi = 1 / 3
        u = phase_unitary(phi)
        eigenstate = basis_state(1, 1)
        runs = 400
        rng = Stream(7, "pe-cov")
        hits = sum(
            1
            for est in phase_estimates(u, eigenstate, plan, runs, rng)
            if phase_distance(est, phi) <= plan.zeta
        )
        sigma = math.sqrt(0.9 * 0.1 / runs)
        assert hits / runs >= 0.9 - 3 * sigma

    def test_wraparound_distance(self):
        assert phase_distance(0.98, 0.01) == pytest.approx(0.03)
        assert phase_distance(0.25, 0.75) == pytest.approx(0.5)

    def test_register_cap(self, monkeypatch):
        monkeypatch.setenv("QSIM_MAX_QUBITS", "6")
        u, one = phase_unitary(0.5), basis_state(1, 1)
        assert phase_estimates(u, one, plan_with_b(5), 3, Stream(8, "cap")).tolist() == [0.5] * 3
        with pytest.raises(ResourceError):
            phase_estimates(u, one, plan_with_b(6), 3, Stream(8, "cap"))
        f = BooleanOracle.from_solutions(3, [1])
        assert len(quantum_counts(f, plan_with_b(3), 3, Stream(8, "cap"))) == 3
        with pytest.raises(ResourceError):
            quantum_counts(f, plan_with_b(4), 3, Stream(8, "cap"))

    def test_non_eigenstate_rejected(self):
        plan = PhasePlan(zeta=0.25, epsilon=0.25)
        plus = hadamard_layer(1)
        with pytest.raises(ValidationError):
            phase_estimates(phase_unitary(1 / 3), plus, plan, 1, Stream(9, "bad"))

    def test_inputs_are_checked_in_order_before_any_arithmetic(self, monkeypatch):
        # controls, then widths, then the qubit cap, then the eigenstate
        plan, rng, plus = plan_with_b(5), Stream(9, "order"), hadamard_layer(1)
        two_qubit = GateOp("u", np.eye(4), range(2))
        cases = [
            (controlled(phase_gate(0.5, 1), 0), plus, DomainError, "uncontrolled"),
            (two_qubit, basis_state(1, 1), DomainError, "eigenstate register has 1 qubits"),
            (phase_unitary(1 / 3), hadamard_layer(2), DomainError, "unitary acts on 1"),
        ]
        for u, state, error, text in cases:
            with pytest.raises(error, match=text):
                phase_estimates(u, state, plan, 1, rng)
        monkeypatch.setenv("QSIM_MAX_QUBITS", "5")
        with pytest.raises(ResourceError):
            phase_estimates(phase_unitary(1 / 3), plus, plan, 1, rng)
        monkeypatch.setenv("QSIM_MAX_QUBITS", "6")
        with pytest.raises(ValidationError):
            phase_estimates(phase_unitary(1 / 3), plus, plan, 1, rng)


class TestGrover:
    def test_iteration_counts(self):
        assert GroverPlan.for_counts(4, 1).R == 1
        assert GroverPlan.for_counts(4, 2).R in (0, 1)  # theta = pi/2 boundary
        big = GroverPlan.for_counts(1 << 20, 1).R
        assert big == 804
        assert big <= (math.pi / 4) * math.sqrt(1 << 20) + 1

    def test_m_out_of_range(self):
        with pytest.raises(DomainError):
            GroverPlan.for_counts(8, 5)
        with pytest.raises(DomainError):
            GroverPlan.for_counts(8, 0)

    def test_n4_certain_success(self):
        f = BooleanOracle.from_solutions(2, [1])
        plan = GroverPlan.for_counts(4, 1)
        assert plan.theta == pytest.approx(math.pi / 3)
        amp = grover_solution_amplitude(f, 1, plan.R)
        assert amp == pytest.approx(1.0, abs=1e-12)
        rng = Stream(11, "g4")
        assert all(grover_search(f, 1, 50, rng) == 1)

    def test_n2_half_space_solution(self):
        f = BooleanOracle.from_solutions(1, [0])
        rng = Stream(13, "g2")
        hits = int(np.count_nonzero(grover_search(f, 1, 2000, rng) == 0))
        assert hits / 2000 >= 0.5 - 3 * math.sqrt(0.25 / 2000)

    def test_n64_success_rate(self):
        f = BooleanOracle.from_solutions(6, [23])
        plan = GroverPlan.for_counts(64, 1)
        runs = 400
        rng = Stream(17, "g64")
        hits = int(np.count_nonzero(grover_search(f, 1, runs, rng) == 23))
        p = math.sin((2 * plan.R + 1) * plan.theta / 2) ** 2
        assert hits / runs >= 63 / 64 - 3 * math.sqrt(p * (1 - p) / runs)

    def test_rotation_geometry(self):
        f = BooleanOracle.from_solutions(4, [3, 11])
        plan = GroverPlan.for_counts(16, 2)
        for r in range(plan.R + 1):
            amp = grover_solution_amplitude(f, 2, r)
            assert amp == pytest.approx(math.sin((2 * r + 1) * plan.theta / 2), abs=1e-9)

    def test_solution_count_validated(self):
        f = BooleanOracle.from_solutions(3, [1, 2])
        with pytest.raises(ValidationError):
            grover_search(f, 1, 1, Stream(19, "bad"))

    def test_operator_matrix_is_unitary_rotation(self):
        f = BooleanOracle.from_solutions(3, [5])
        g = grover_operator_matrix(f)
        np.testing.assert_allclose(g.conj().T @ g, np.eye(8), atol=1e-12)
        # eigenphases on the search plane are +- theta
        plan = GroverPlan.for_counts(8, 1)
        phases = np.angle(np.linalg.eigvals(g))
        assert min(abs(p - plan.theta) for p in phases) < 1e-9

    @pytest.mark.parametrize("bits,marked", [(1, 1), (3, 5), (5, 11)])
    def test_success_rate_matches_per_shot_searches(self, bits, marked):
        f = BooleanOracle.from_solutions(bits, [marked])
        rng = Stream(13, "grover-loop")
        found = grover_search(f, 1, 64, rng).tolist()
        for shots in range(1, 65):
            hits = sum(idx == marked for idx in found[:shots])
            assert grover_success_rate(f, marked, shots, rng) == hits / shots

    def test_success_rate_validates_solution_count(self):
        with pytest.raises(ValidationError):
            grover_success_rate(BooleanOracle.from_solutions(5, [1, 2]), 1, 10, Stream(19, "bad"))


class TestQuantumCount:
    def test_empty_oracle_counts_zero(self):
        f = BooleanOracle(3, fn=lambda x: 0)
        plan = PhasePlan(zeta=2.0**-5, epsilon=0.25)
        assert quantum_counts(f, plan, 1, Stream(23, "qc0")).tolist() == [0]

    def test_sixteen_four(self):
        f = BooleanOracle.from_solutions(4, [0, 3, 9, 14])
        plan = PhasePlan(zeta=2.0**-7, epsilon=0.1)
        rng = Stream(29, "qc")
        estimates = quantum_counts(f, plan, 30, rng)
        hits = sum(1 for m in estimates if m == 4)
        assert hits / 30 >= 1 - plan.epsilon - 3 * math.sqrt(0.1 * 0.9 / 30)

    def test_closed_form_matches_the_dense_grover_route_at_small_n(self):
        # every M at N <= 32, against phase estimation on the dense operator
        for bits in range(1, 6):
            uniform = hadamard_layer(bits).amps
            for m in range((1 << bits) + 1):
                f = BooleanOracle.from_solutions(bits, range(m))
                g = grover_operator_matrix(f)
                for b in (4, 7, 10):
                    np.testing.assert_allclose(count_distribution(f, plan_with_b(b)),
                                               pe_register_out_of_place(g, uniform, b),
                                               rtol=0, atol=1e-13, err_msg=f"{bits} {m} {b}")

    @given(bits=st.integers(1, 8), pick=st.integers(0, 2**16), b=st.sampled_from([4, 7, 10]))
    @settings(max_examples=30)
    def test_closed_form_matches_the_dense_grover_route(self, bits, pick, b):
        f = BooleanOracle.from_solutions(bits, range(pick % ((1 << bits) + 1)))
        want = pe_register_out_of_place(grover_operator_matrix(f), hadamard_layer(bits).amps, b)
        np.testing.assert_allclose(count_distribution(f, plan_with_b(b)), want,
                                   rtol=0, atol=1e-13)

    def test_past_the_dense_cap(self):
        # N = 4096 with M = 4 reads 40 or 41 of 4096 and inverts to 4; no
        # N x N operator is built
        f = BooleanOracle.from_solutions(DENSE_MAX_QUBITS + 2, range(4))
        estimates = quantum_counts(f, plan_with_b(12), 200, Stream(3, "wide"))
        assert estimates.tolist().count(4) / 200 >= 0.8

    def test_counts_match_a_per_stream_sample_index_loop(self):
        f = BooleanOracle.from_solutions(3, [1, 6])
        plan = PhasePlan(zeta=2.0**-5, epsilon=0.1)
        rng = Stream(19, "qc-loop")
        expected = per_stream_counts(f, plan, map(rng.substream, range(200)))
        assert quantum_counts(f, plan, 200, rng).tolist() == expected

    def test_estimates_clamped(self):
        f = BooleanOracle.from_solutions(2, [0, 1])
        plan = PhasePlan(zeta=2.0**-4, epsilon=0.25)
        rng = Stream(31, "clamp")
        for m in quantum_counts(f, plan, 20, rng):
            assert 0 <= m <= 4


SEEDS = st.integers(0, 2**64 - 1)
TAGS = st.one_of(st.text(max_size=8), st.integers(-(2**70), 2**70))


class TestShotsMatchPerShotStreams:
    """Shot i of each batched sampler is the sample_index draw of
    rng.substream(i), for any (seed, tag, shots)."""

    @given(seed=SEEDS, tag=TAGS, shots=st.integers(1, 64))
    def test_phase_estimates(self, seed, tag, shots):
        plan = PhasePlan(zeta=2.0**-5, epsilon=0.1)
        u, eigenstate = phase_unitary(1 / 3), basis_state(1, 1)
        rng = Stream(seed, tag)
        dist = sampled_distribution(lambda: phase_estimates(u, eigenstate, plan, 1, rng))
        expected = per_stream_indices(dist, map(rng.substream, range(shots)))
        estimates = phase_estimates(u, eigenstate, plan, shots, rng)
        assert estimates.tolist() == [i / float(1 << plan.b) for i in expected]

    @given(seed=SEEDS, tag=TAGS, shots=st.integers(1, 64),
           phi=st.floats(-2.0, 2.0, allow_nan=False))
    def test_phase_coverage(self, seed, tag, shots, phi):
        plan = PhasePlan(zeta=2.0**-5, epsilon=0.1)
        u, rng = phase_unitary(phi), Stream(seed, tag)
        dist = sampled_distribution(lambda: phase_estimates(u, basis_state(1, 1), plan, 1, rng))
        hits = sum(1 for i in per_stream_indices(dist, map(rng.substream, range(shots)))
                   if phase_distance(i / float(1 << plan.b), phi) <= plan.zeta)
        assert phase_coverage(phi, plan, shots, rng) == hits / shots

    @given(seed=SEEDS, tag=TAGS, shots=st.integers(1, 64))
    def test_quantum_counts(self, seed, tag, shots):
        f = BooleanOracle.from_solutions(3, [1, 6])
        plan = PhasePlan(zeta=2.0**-5, epsilon=0.1)
        rng = Stream(seed, tag)
        expected = per_stream_counts(f, plan, map(rng.substream, range(shots)))
        assert quantum_counts(f, plan, shots, rng).tolist() == expected

    @given(seed=SEEDS, tag=TAGS, shots=st.integers(1, 64))
    def test_grover_search(self, seed, tag, shots):
        f = BooleanOracle.from_solutions(7, [5, 77])
        rng = Stream(seed, tag)
        expected = per_stream_indices(_grover_probs(f, 2), map(rng.substream, range(shots)))
        assert grover_search(f, 2, shots, rng).tolist() == expected


# negative, past 1, k / 2^b, subnormal and one ulp below 1
PHASES = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False),
    st.builds(lambda k, e: math.ldexp(k, -e), st.integers(-(1 << 10), 1 << 10), st.integers(0, 10)),
    st.sampled_from([5e-324, -5e-324, 2.0**-1022, 1.0 - 2.0**-53, -(1.0 - 2.0**-53), 1e15]),
)


def counted_estimates(phi, plan, shots, rng):
    """(phase_coverage's result, the estimates it counted)."""
    seen = []
    distance = algorithms.phase_distance
    with pytest.MonkeyPatch.context() as m:
        m.setattr(algorithms, "phase_distance", lambda a, b: seen.append(a) or distance(a, b))
        coverage = phase_coverage(phi, plan, shots, rng)
    [estimates] = seen
    return coverage, estimates.tolist()


class TestKeptPhaseTable:
    """phase_coverage and phase_estimates draw from one table kept per
    (phi, b); from an empty cache or a kept table, they draw what the
    per-call gate route draws."""

    @given(phi=PHASES, b=st.integers(3, 9), seed=SEEDS, shots=st.integers(1, 64))
    @settings(max_examples=80)
    def test_cold_and_warm_calls_match_the_gate_route(self, phi, b, seed, shots):
        plan, u = plan_with_b(b), phase_unitary(phi)
        estimates = phase_estimates_per_call(u, basis_state(1, 1), plan, shots,
                                             Stream(seed, "kept")).tolist()
        coverage = phase_coverage_by_gate(phi, plan, shots, Stream(seed, "kept"))
        algorithms._pe_table.cache_clear()
        for cache in ("cold", "warm"):
            got = counted_estimates(phi, plan, shots, Stream(seed, "kept"))
            assert got == (coverage, estimates), cache
            got = phase_estimates(u, basis_state(1, 1), plan, shots, Stream(seed, "kept"))
            assert got.tolist() == estimates, cache

    def test_the_table_is_kept_per_phase_and_register_size(self):
        algorithms._pe_table.cache_clear()
        for phi in (1 / 3, 0.7):
            for b in (4, 6):
                plan = plan_with_b(b)
                want = phase_estimates_per_call(phase_unitary(phi), basis_state(1, 1), plan, 9,
                                                Stream(3, "key")).tolist()
                for _ in range(2):
                    assert counted_estimates(phi, plan, 9, Stream(3, "key"))[1] == want, (phi, b)

    def test_a_warm_call_builds_no_gate_and_no_table(self, monkeypatch):
        plan = PhasePlan(zeta=0.0625, epsilon=0.1)
        first = phase_coverage(0.333333, plan, 20, Stream(3, "warm"))

        def refuse(*args):
            raise AssertionError("a warm phase_coverage call rebuilt its law")

        monkeypatch.setattr(algorithms, "_pe_register_distribution", refuse)
        monkeypatch.setattr(linalg, "require_unitary", refuse)
        assert phase_coverage(0.333333, plan, 20, Stream(3, "warm")) == first

    def test_a_warm_call_makes_only_its_draws(self, refuse_seed_free_work):
        # b = 7: a table of 128 outcomes, which draws by one search over its kept edges
        plan = PhasePlan(zeta=0.0625, epsilon=0.1)
        assert plan.b == 7
        first = phase_coverage(0.333333, plan, 20, Stream(4, "draws"))
        refuse_seed_free_work()
        assert repr(phase_coverage(0.333333, plan, 20, Stream(4, "draws"))) == repr(first)

    def test_kept_tables_are_read_only_and_few(self):
        table = algorithms._pe_table(0.25, 8)  # 256 outcomes: the filter's arrays too
        for array in (table.probs, table._grid, table._limits):
            with pytest.raises(ValueError):
                array[0] = 0.0
        for b in range(3, 8):
            algorithms._pe_table(0.25, b)
        info = algorithms._pe_table.cache_info()
        assert info.maxsize == 2 and info.currsize <= 2

    def test_checks_come_before_the_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the table was built before the checks")

        monkeypatch.setattr(algorithms, "_pe_table", refuse)
        with pytest.raises(DomainError, match="finite"):
            phase_coverage(math.nan, PLAN, 1, Stream(3, "checks"))
        with pytest.raises(ResourceError):
            phase_coverage(0.5, PhasePlan(zeta=2.0**-30, epsilon=0.1), 1, Stream(3, "checks"))


PLAN = PhasePlan(zeta=2.0**-5, epsilon=0.1)
SAMPLERS = {
    "phase_estimates": lambda shots, rng: phase_estimates(
        phase_unitary(1 / 3), basis_state(1, 1), PLAN, shots, rng),
    "phase_coverage": lambda shots, rng: phase_coverage(1 / 3, PLAN, shots, rng),
    "quantum_counts": lambda shots, rng: quantum_counts(
        BooleanOracle.from_solutions(3, [1, 6]), PLAN, shots, rng),
    "grover_search": lambda shots, rng: grover_search(
        BooleanOracle.from_solutions(3, [5]), 1, shots, rng),
    "grover_success_rate": lambda shots, rng: grover_success_rate(
        BooleanOracle.from_solutions(3, [5]), 5, shots, rng),
    "anticorrelation_experiment": lambda shots, rng: anticorrelation_experiment(
        SpinAxis(0.0, 0.0, 1.0), shots, rng),
    "teleport_bit_counts": lambda shots, rng: teleport_bit_counts(
        basis_state(1, 0), shots, rng),
    "teleport_trials": teleport_trials,
    "chsh_experiment": chsh_experiment,
    "qmc_estimate": lambda shots, rng: qmc_estimate(
        Observable(PAULI_Z), basis_state(1, 0), shots, rng, basis_state(1, 0)),
    "quantum_rng": lambda shots, rng: quantum_rng(4, shots, rng),
    "logical_error_rate": lambda shots, rng: logical_error_rate(0.1, shots, rng),
    "point_mass_mixture": lambda shots, rng: point_mass_mixture(0.3, 0.25, 0.3, 50, shots, rng),
}


@pytest.mark.parametrize("shots", [0, -1])
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_shots_below_one_are_rejected(sampler, shots):
    with pytest.raises(DomainError, match="need at least one shot"):
        SAMPLERS[sampler](shots, Stream(29, "no-shots"))


class TestModMul:
    def test_identity_for_x_one(self):
        gate = modmul_unitary(1, 5)
        np.testing.assert_allclose(gate.matrix, np.eye(8), atol=0)

    def test_two_mod_five_cycle(self):
        gate = modmul_unitary(2, 5)
        state = basis_state(3, 1)
        seen = []
        for _ in range(4):
            state = run_circuit_like(gate, state)
            seen.append(int(np.argmax(np.abs(state.amps))))
        assert seen == [2, 4, 3, 1]

    def test_matrix_is_permutation(self):
        for x, n in ((2, 5), (3, 7), (5, 12), (7, 15)):
            mat = modmul_unitary(x, n).matrix
            assert np.all((mat == 0) | (mat == 1))
            assert np.all(mat.sum(axis=0) == 1) and np.all(mat.sum(axis=1) == 1)

    def test_coprimality_required(self):
        with pytest.raises(DomainError):
            modmul_unitary(6, 9)
        with pytest.raises(DomainError):
            modmul_unitary(5, 5)


def run_circuit_like(gate, state):
    from qsim.gates import apply_gate

    return apply_gate(state, gate)


class TestOrderFind:
    def test_closed_form_matches_the_dense_route(self):
        # every coprime pair with N <= 33 at order finding's b = 2k + 4,
        # against phase estimation on the dense modular multiplication gate
        kinds = set()
        for n in range(2, 34):
            for x in range(1, n):
                if math.gcd(x, n) != 1:
                    continue
                gate = modmul_unitary(x, n)
                k = len(gate.targets)
                b = 2 * k + 4
                r = order_brute_force(x, n)
                got = _orbit_register_distribution(r, b)
                want = pe_register_out_of_place(gate.matrix, basis_state(k, 1).amps, b)
                assert np.max(np.abs(got - want)) <= 1e-15, (n, x)
                assert abs(got.sum() - 1.0) <= 1e-15, (n, x)
                # draw i is the first uniform of criterion 7's substream i:
                # attempts 1-25 of order_find, then 2,000 further draws
                u = Stream(SEED, f"acc/order/{n}/{x}").uniforms(np.arange(1, 2026), 1)[:, 0]
                assert np.array_equal(sample_indices(got, u), sample_indices(want, u)), (n, x)
                kinds.add("r = 1" if r == 1 else "a = r" if (1 << b) % r == 0 else "a < r")
        assert kinds == {"r = 1", "a = r", "a < r"}

    @given(n=st.integers(2, 64), pick=st.integers(0, 2**32 - 1), b=st.integers(1, 10))
    def test_closed_form_matches_the_dense_route_at_small_registers(self, n, pick, b):
        # b <= 10 covers r >= M = 2^b (L = 1, a uniform register) as well
        coprime = [x for x in range(1, n) if math.gcd(x, n) == 1]
        x = coprime[pick % len(coprime)]
        gate = modmul_unitary(x, n)
        k = len(gate.targets)
        got = _orbit_register_distribution(order_brute_force(x, n), b)
        want = pe_register_out_of_place(gate.matrix, basis_state(k, 1).amps, b)
        assert np.max(np.abs(got - want)) <= 1e-15
        assert abs(got.sum() - 1.0) <= 1e-15

    def test_sine_tables_are_the_per_call_expression_and_read_only(self):
        for b in range(6, 17, 2):
            M = 1 << b
            half = np.sin(np.pi / M * np.arange(M // 2 + 1)) ** 2
            table = algorithms._sin2_table(b)
            assert table.tobytes() == np.concatenate((half, half[-2:0:-1])).tobytes()
            assert algorithms._sin2_table(b) is table
            with pytest.raises(ValueError):
                table[1] = 0.0

    def test_closed_form_is_bit_equal_to_the_per_call_formula(self):
        for b in range(6, 17, 2):
            for r in range(1, 65):
                got = _orbit_register_distribution(r, b)
                assert got.tobytes() == orbit_register_distribution(r, b).tobytes(), (r, b)

    @pytest.mark.parametrize("seed", [SEED, 5, 2026])
    def test_cached_tables_draw_what_the_per_call_route_draws(self, seed, monkeypatch):
        # every attempt's phase, on every coprime pair with N <= 64: first
        # from a cleared cache, then from the table the first call kept (whose
        # second use keeps its edges), then from the kept edges
        phases = []
        candidate = algorithms._order_candidate
        monkeypatch.setattr(algorithms, "_order_candidate",
                            lambda phi, *args: phases.append(phi) or candidate(phi, *args))
        for n in range(2, 65):
            for x in range(1, n):
                if math.gcd(x, n) != 1:
                    continue
                want = order_find_per_call(x, n, Stream(seed, f"of-table/{n}/{x}"))
                algorithms._orbit_table.cache_clear()
                for cache in ("cold", "warm", "kept"):
                    phases.clear()
                    try:
                        found = order_find(x, n, Stream(seed, f"of-table/{n}/{x}"))
                    except NotFoundError:
                        found = None
                    assert (found, phases) == want, (n, x, cache)

    def test_a_second_pair_with_the_same_orbit_builds_no_table(self, monkeypatch):
        # after one pair at (r, b) = (4, 12), a second one reuses its table
        algorithms._orbit_table.cache_clear()
        assert order_find(7, 15, Stream(59, "once")) == 4

        def rebuilt(r, b):
            raise AssertionError(f"order finding rebuilt the (r, b) = ({r}, {b}) register")

        monkeypatch.setattr(algorithms, "_orbit_register_distribution", rebuilt)
        assert order_find(2, 15, Stream(59, "once")) == 4
        table = algorithms._orbit_table(4, 12)
        for array in (table.probs, table._grid, table._limits):
            assert not array.flags.writeable
        monkeypatch.undo()
        for r in range(1, 18):
            algorithms._orbit_table(r, 8)
        info = algorithms._orbit_table.cache_info()
        assert info.maxsize == 16 and info.currsize <= 16

    def test_a_warm_call_makes_only_its_draws(self, cold_laws, monkeypatch):
        # after a cold call and two warm ones at (r, b) = (6, 14), the table
        # holds every block's edges: a later call cumulates nothing and
        # builds no register
        for seed in (61, 67, 71):
            assert order_find(2, 21, Stream(seed, "warm-draws")) == 6
        assert algorithms._orbit_table(6, 14)._edges is not None

        def refuse(*args):
            raise AssertionError("a warm order-finding call redid seed-free work")

        for module, name in ((qrng, "_block_edges"), (qrng, "kahan_cumsum"),
                             (algorithms, "_orbit_register_distribution")):
            monkeypatch.setattr(module, name, refuse)
        for seed in range(73, 83):
            assert order_find(2, 21, Stream(seed, "warm-draws")) == 6

    def test_builds_no_dense_gate(self, monkeypatch):
        def dense(*args):
            raise AssertionError("order finding built a dense gate")

        assert not hasattr(algorithms, "modmul_unitary")  # the dense gate is a test oracle
        monkeypatch.setattr(algorithms, "_pe_register_distribution", dense)
        assert order_find(7, 15, Stream(59, "no-dense")) == 4

    @pytest.mark.parametrize("n", range(33, 65))
    def test_up_to_the_modulus_cap(self, n):
        smallest = next(x for x in range(2, n) if math.gcd(x, n) == 1)
        for x in (smallest, n - 1):
            found, reference = order_trial(x, n, Stream(SEED, f"order-cap/{n}/{x}"))
            assert found == reference == order_brute_force(x, n)

    def test_checks_keep_their_order(self):
        with pytest.raises(ResourceError):
            order_find(6, 65, Stream(61, "cap"))
        with pytest.raises(DomainError, match="gcd"):
            order_find(6, 9, Stream(61, "gcd"))
        with pytest.raises(DomainError, match="1 <= x < N"):
            order_find(9, 9, Stream(61, "range"))
        # order_trial: the reference's own checks, then the cap, then its scan
        with pytest.raises(DomainError, match=r"gcd\(6, 1000000008\) != 1$"):
            order_trial(6, 1_000_000_008, Stream(61, "trial-gcd"))

    def test_worked_examples(self):
        assert order_find(2, 5, Stream(37, "of1")) == 4
        assert order_find(4, 5, Stream(41, "of2")) == 2
        assert order_find(1, 9, Stream(43, "of3")) == 1

    def test_candidate_is_minimised_to_the_order(self):
        # phase 1/d with d not dividing r: d is the first denominator in the
        # window, and its first multiple m with x^m = 1 (mod N) is lcm(d, r) > r,
        # which the divisor scan must bring down to r
        cases = 0
        for n in range(2, 36):
            for x in range(1, n):
                if math.gcd(x, n) != 1:
                    continue
                window = 0.5 ** (2 * algorithms._modmul_qubits(x, n) + 1)
                r = order_brute_force(x, n)
                for d in range(2, n + 1):
                    if r % d and math.lcm(d, r) <= n:
                        assert algorithms._order_candidate(1 / d, x, n, window) == r, (n, x, d)
                        cases += 1
        assert cases > 100

    def test_brute_force_oracle(self):
        assert order_brute_force(2, 5) == 4
        assert order_brute_force(4, 5) == 2
        assert order_brute_force(7, 15) == 4

    def test_minimality_on_moduli_up_to_15(self):
        for n in range(2, 16):
            for x in range(1, n):
                if math.gcd(x, n) != 1:
                    continue
                r = order_find(x, n, Stream(47, f"of/{n}/{x}"))
                assert pow(x, r, n) == 1
                assert all(pow(x, d, n) != 1 for d in range(1, r))

    def test_non_coprime_rejected(self):
        with pytest.raises(DomainError):
            order_find(6, 9, Stream(53, "bad"))

    def test_criterion_7_draws_skip_the_kahan_loop(self, monkeypatch):
        # structural, no clock: every register of 2^(2k+4) outcomes at or above
        # the filter's crossover (all N >= 3) is sampled without the Python loop
        exact = qrng.kahan_cumsum
        sizes = []

        def guarded(values):
            if len(values) >= qrng._FILTER_MIN_OUTCOMES:
                raise AssertionError(f"Kahan loop over {len(values)} outcomes")
            sizes.append(len(values))
            return exact(values)

        monkeypatch.setattr(qrng, "kahan_cumsum", guarded)
        result = run_acceptance(ids=[7])[0]
        ok, details = result.passed, result.details
        assert ok and details["pairs"] == 139 and details["pair_failures"] == []
        assert set(sizes) <= {64}  # N = 2: one qubit, a 6-qubit register

    def test_budget_exhaustion_carries_report(self):
        # an impossible verifier exercises the not-found path
        from qsim.statharness import repeat_verified

        with pytest.raises(NotFoundError) as info:
            repeat_verified(lambda i: i, lambda c: False, 4)
        assert info.value.report.n == 4
        assert info.value.report.per_run == (1, 2, 3, 4)


class TestPhaseEstimationBoundGrid:
    """Coverage >= 1 - eps - 3 sigma for irrational-ish phases across the
    plan grid; the register distribution is fixed per plan, so a moderate
    run count per cell keeps the check sharp."""

    PHIS = (1 / 3, 1 / 7, math.sqrt(2) - 1)
    ZETAS = (2.0**-3, 2.0**-4, 2.0**-5)
    EPSILONS = (0.25, 0.1)

    @pytest.mark.parametrize("zeta", ZETAS)
    @pytest.mark.parametrize("eps", EPSILONS)
    def test_coverage_grid(self, zeta, eps):
        plan = PhasePlan(zeta=zeta, epsilon=eps)
        runs = 250
        for idx, phi in enumerate(self.PHIS):
            u = phase_unitary(phi)
            eigenstate = basis_state(1, 1)
            rng = Stream(61, f"grid/{zeta}/{eps}/{idx}")
            hits = sum(
                1
                for est in phase_estimates(u, eigenstate, plan, runs, rng)
                if phase_distance(est, phi) <= zeta
            )
            sigma = math.sqrt((1 - eps) * eps / runs)
            assert hits / runs >= 1 - eps - 3 * sigma, (phi, zeta, eps, hits / runs)


class TestGroverEmpiricalPairs:
    @pytest.mark.parametrize("bits,m", [(3, 1), (4, 2), (6, 1)])
    def test_success_rate(self, bits, m):
        n = 1 << bits
        solutions = list(range(1, 1 + m))
        f = BooleanOracle.from_solutions(bits, solutions)
        plan = GroverPlan.for_counts(n, m)
        runs = 400
        rng = Stream(67, f"gp/{bits}/{m}")
        hits = sum(1 for idx in grover_search(f, m, runs, rng).tolist() if idx in solutions)
        p = math.sin((2 * plan.R + 1) * plan.theta / 2) ** 2
        sigma = math.sqrt(p * (1 - p) / runs) if p < 1 else 0.0
        assert hits / runs >= (1 - m / n) - 3 * sigma


# validation raises that no other in-process test reaches
@pytest.mark.parametrize("call, error, fragment", [
    (lambda: qft(0), DomainError, "at least one qubit"),
    (lambda: algorithms._modmul_qubits(1, 1), DomainError, "modulus must be at least 2"),
], ids=["qft-0", "modmul-N-1"])
def test_bad_input_raises(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_caps_are_checked_before_the_work(monkeypatch):
    # qft(400) builds about 80,000 gates, qft(1100) overflows its angles, and
    # the brute-force order scan of N = 10^9 + 7 takes minutes
    def no_work(*args):
        raise AssertionError("work began before the cap check")

    monkeypatch.setattr(algorithms, "hadamard", no_work)
    with pytest.raises(ResourceError, match="exceeds the configured cap"):
        qft(1100)
    monkeypatch.setattr(algorithms, "qft", no_work)
    with pytest.raises(ResourceError, match="the dense DFT"):
        qft_check(400, Stream(3, "qft-cap"))
    monkeypatch.setattr(algorithms, "order_brute_force", no_work)
    with pytest.raises(ResourceError, match="N <= 64"):
        order_trial(5, 1_000_000_007, Stream(3, "order-cap"))
