import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import expectation_by_loops, measure_chain, measure_sequence_recursive
from qsim.errors import (
    ConditioningError,
    DomainError,
    NumericalConsistencyError,
    ResourceError,
    ValidationError,
)
from qsim.gates import HADAMARD_MATRIX, PAULI_X, PAULI_Y, PAULI_Z
from qsim.qstate import (
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
    measure_sequence,
    posterior_density,
    qubit_cap,
    random_density,
    random_state,
    states_equal,
    tensor,
    variance,
    von_neumann_entropy,
)
from qsim.rng import Stream

SQ2 = 1.0 / math.sqrt(2.0)


class TestBasisAndTensor:
    def test_basis_state_examples(self):
        np.testing.assert_allclose(basis_state(1, 0).amps, [1, 0])
        np.testing.assert_allclose(basis_state(2, 3).amps, [0, 0, 0, 1])
        s = basis_state(3, 5)  # |101>
        assert s.amps[5] == 1.0 and np.sum(np.abs(s.amps)) == 1.0

    def test_basis_state_rejects_bad_index(self):
        with pytest.raises(DomainError):
            basis_state(2, 4)
        with pytest.raises(DomainError):
            basis_state(0, 0)

    def test_qubit_cap(self, monkeypatch):
        monkeypatch.setenv("QSIM_MAX_QUBITS", "3")
        with pytest.raises(ResourceError):
            basis_state(4, 0)
        basis_state(3, 0)

    def test_tensor_examples(self):
        s = tensor(basis_state(1, 0), basis_state(1, 1))
        np.testing.assert_allclose(s.amps, basis_state(2, 1).amps)
        plus = StateVector(1, [SQ2, SQ2])
        st = tensor(plus, basis_state(1, 0))
        np.testing.assert_allclose(st.amps, [SQ2, 0, SQ2, 0])

    def test_tensor_preserves_norm(self):
        rng = Stream(1, "tensor")
        a = random_state(2, rng.substream(0))
        c = random_state(3, rng.substream(1))
        assert tensor(a, c).norm() == pytest.approx(1.0, abs=1e-12)

    def test_tensor_cap(self, monkeypatch):
        monkeypatch.setenv("QSIM_MAX_QUBITS", "3")
        with pytest.raises(ResourceError):
            tensor(basis_state(2, 0), basis_state(2, 0))


class TestStateValidation:
    def test_norm_enforced(self):
        with pytest.raises(ValidationError):
            StateVector(1, [1.0, 1.0])

    def test_finite_enforced(self):
        with pytest.raises(ValidationError):
            StateVector(1, [np.nan, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_non_finite_part_rejected_at_every_position(self, part, bad):
        for at in range(4):
            amps = np.full(4, 0.5 + 0.0j)
            getattr(amps, part)[at] = bad
            with pytest.raises(ValidationError, match="^amplitudes contain non-finite values$"):
                StateVector(2, amps)

    def test_trusted_constructors_reject_real_arrays(self):
        with pytest.raises(AssertionError, match="float64"):
            StateVector(1, np.array([1.0, 0.0]), _trusted=True)
        with pytest.raises(AssertionError, match="float64"):
            DensityMatrix(1, np.diag([1.0, 0.0]), _trusted=True)
        assert StateVector(1, np.array([1.0, 0.0], dtype=complex), _trusted=True).qubits == 1


class TestApplyUnitary:
    def test_hadamard_on_zero(self):
        out = apply_unitary(basis_state(1, 0), HADAMARD_MATRIX, [0])
        np.testing.assert_allclose(out.amps, [SQ2, SQ2])

    def test_cnot_on_10(self):
        cnot = np.eye(4)[[0, 1, 3, 2]].astype(complex)
        out = apply_unitary(basis_state(2, 2), cnot, [0, 1])
        np.testing.assert_allclose(out.amps, basis_state(2, 3).amps)

    def test_x_flips(self):
        out = apply_unitary(basis_state(1, 0), PAULI_X, [0])
        np.testing.assert_allclose(out.amps, [0, 1])

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            apply_unitary(basis_state(1, 0), np.array([[1, 0], [0, 2.0]]), [0])

    def test_rejects_bad_targets(self):
        with pytest.raises(DomainError):
            apply_unitary(basis_state(2, 0), PAULI_X, [2])
        with pytest.raises(DomainError):
            apply_unitary(basis_state(2, 0), np.eye(4, dtype=complex), [0, 0])

    def test_norm_preserved_on_random_states(self):
        rng = Stream(2, "norm")
        for i in range(25):
            s = random_state(4, rng.substream(i))
            u = np.linalg.qr(
                np.random.default_rng(i).normal(size=(4, 4))
                + 1j * np.random.default_rng(100 + i).normal(size=(4, 4))
            )[0]
            out = apply_unitary(s, u, [1, 3])
            assert abs(out.norm() ** 2 - 1.0) < 1e-10


class TestMeasureQubits:
    def test_two_qubit_marginal_and_post_state(self):
        # a00|00> + a01|01> + a10|10> + a11|11>, measure the first qubit
        amps = np.array([0.5, 0.5j, -0.5, 0.5])
        s = StateVector(2, amps)
        seen = set()
        for i in range(50):
            bits, post, record = measure_qubits(s, [0], Stream(7, "m").substream(i))
            seen.add(bits)
            assert record.probability == pytest.approx(0.5, abs=1e-12)
            if bits == "0":
                np.testing.assert_allclose(
                    post.amps, [0.5 / SQ2, 0.5j / SQ2, 0, 0], atol=1e-12
                )
            else:
                np.testing.assert_allclose(
                    post.amps, [0, 0, -0.5 / SQ2, 0.5 / SQ2], atol=1e-12
                )
        assert seen == {"0", "1"}

    def test_measuring_zero_state(self):
        bits, post, record = measure_qubits(basis_state(1, 0), [0], Stream(1, "z"))
        assert bits == "0" and record.probability == 1.0
        assert states_equal(post, basis_state(1, 0))

    def test_bell_marginal_frequency(self):
        bell = StateVector(2, [SQ2, 0, 0, SQ2])
        shots = 100_000
        rng = Stream(11, "bellfreq")
        zeros = 0
        for i in range(shots):
            bits, _, _ = measure_qubits(bell, [0], rng.substream(i))
            zeros += bits == "0"
        assert abs(zeros / shots - 0.5) <= 3.0 * math.sqrt(0.25 / shots)

    def test_subset_order_controls_bit_order(self):
        s = basis_state(2, 1)  # |01>
        bits, _, _ = measure_qubits(s, [0, 1], Stream(1, "o"))
        assert bits == "01"
        bits, _, _ = measure_qubits(s, [1, 0], Stream(1, "o"))
        assert bits == "10"

    def test_empty_subset_rejected(self):
        with pytest.raises(DomainError):
            measure_qubits(basis_state(1, 0), [], Stream(1, "e"))


class TestMeasureObservable:
    def test_sigma_z_eigenstate(self):
        value, post = measure_observable(basis_state(1, 0), Observable(PAULI_Z), Stream(1, "sz"))
        assert value == 1.0
        assert states_equal(post, basis_state(1, 0))

    def test_sigma_x_on_zero_is_fair(self):
        obs = Observable(PAULI_X)
        outcomes = [
            measure_observable(basis_state(1, 0), obs, Stream(3, "sx").substream(i))[0]
            for i in range(2000)
        ]
        mean = np.mean(outcomes)
        assert set(outcomes) == {-1.0, 1.0}
        assert abs(mean) < 4.0 / math.sqrt(2000)

    def test_spin_axis_eigenvalues(self):
        rng = Stream(9, "axis")
        for i in range(20):
            v = np.array([rng.normal(), rng.normal(), rng.normal()])
            v /= np.linalg.norm(v)
            mat = v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z
            values = sorted(Observable(mat).eigenvalues())
            np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-10)

    @pytest.mark.parametrize("mat,message", [
        ([[0, 1], [0, 0]], "matrix is not Hermitian: max |A - A†| = 1.000e+00"),
        ([[1, 0, 0], [0, 1, 0]], "expected a square matrix, got shape (2, 3)"),
        ([[1, 0], [0, np.nan]], "matrix contains non-finite entries"),
    ])
    def test_observable_rejects_invalid_matrices(self, mat, message):
        with pytest.raises(ValidationError) as err:
            Observable(mat)
        assert str(err.value) == message

    def test_observable_keeps_a_read_only_copy(self):
        mat = np.kron(PAULI_Z, np.eye(2)).astype(complex)
        obs = Observable(mat)
        mat[:] = np.kron(PAULI_X, np.eye(2))
        assert expectation(basis_state(2, 0), obs) == 1.0
        drawn = measure_sequence(basis_state(2, 0), [obs], np.full((5, 1), 0.99))
        assert drawn.tolist() == [[1.0]] * 5
        with pytest.raises(ValueError):
            obs.mat[0, 0] = 2.0
        with pytest.raises(ValueError):
            obs.spectrum[0][1][0, 0] = 2.0

    def test_projection_idempotence(self):
        obs = Observable(PAULI_X + 0.3 * PAULI_Z)
        rng = Stream(13, "idem")
        for i in range(30):
            s = random_state(1, rng.substream(i))
            v1, post = measure_observable(s, obs, rng.substream(100 + i))
            v2, _ = measure_observable(post, obs, rng.substream(200 + i))
            assert v1 == v2

    def test_born_completeness(self):
        rng = Stream(17, "born")
        for i in range(20):
            s = random_state(2, rng.substream(i))
            obs = Observable(np.kron(PAULI_Z, PAULI_X) + 0.5 * np.kron(PAULI_X, PAULI_X))
            total = sum(
                float(np.real(np.vdot(s.amps, q @ s.amps))) for _, q in obs.spectrum
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_unbiasedness(self):
        s = random_state(1, Stream(19, "bias"))
        obs = Observable(PAULI_X)
        mean_expected = expectation(s, obs)
        var = variance(s, obs)
        shots = 100_000
        rng = Stream(23, "bias-shots")
        total = sum(measure_observable(s, obs, rng.substream(i))[0] for i in range(shots))
        assert abs(total / shots - mean_expected) <= 4.0 * math.sqrt(var / shots)

    def test_global_phase_has_no_observable_consequence(self):
        s = random_state(2, Stream(29, "phase"))
        rotated = StateVector(2, np.exp(0.7j) * s.amps)
        obs = Observable(np.kron(PAULI_X, PAULI_Z))
        p1 = [float(np.real(np.vdot(s.amps, q @ s.amps))) for _, q in obs.spectrum]
        p2 = [float(np.real(np.vdot(rotated.amps, q @ rotated.amps))) for _, q in obs.spectrum]
        np.testing.assert_allclose(p1, p2, atol=1e-10)
        assert states_equal(s, rotated)

    def test_degenerate_eigenvalues_are_merged(self):
        obs = Observable(np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
        assert len(obs.spectrum) == 2
        for _, q in obs.spectrum:
            assert np.trace(q).real == pytest.approx(2.0, abs=1e-12)


def random_observable(b: int, eigenvalues, rng: Stream) -> Observable:
    """V diag(eigenvalues) V^dagger for a random unitary V on b qubits; a
    repeated eigenvalue gives a degenerate level."""
    dim = 1 << b
    gauss = np.array([[complex(rng.normal(), rng.normal()) for _ in range(dim)]
                      for _ in range(dim)])
    v = np.linalg.qr(gauss)[0]
    return Observable(v @ np.diag(np.asarray(eigenvalues, dtype=complex)) @ v.conj().T)


SPECTRA = {
    1: [(-1.0, 1.0), (0.3, 2.5)],
    2: [(-1.0, 1.0, 1.0, -1.0),  # two degenerate levels
        (2.0, 0.0, 0.0, -1.0),  # three levels
        (-1.5, 0.2, 0.9, 3.0)],
}


class TestMeasureSequence:
    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**64 - 1), b=st.sampled_from([1, 2]),
           picks=st.lists(st.integers(0, 2), min_size=1, max_size=3),
           shots=st.integers(1, 60))
    def test_matches_chained_measure_observable(self, seed, b, picks, shots):
        rng = Stream(seed, "seq")
        spectra = SPECTRA[b]
        observables = [random_observable(b, spectra[k % len(spectra)], rng.substream(1000 + i))
                       for i, k in enumerate(picks)]
        state = random_state(b, rng.substream(2000))
        batch = measure_sequence(state, observables, rng.uniforms(np.arange(shots), len(picks)))
        assert batch.tolist() == [measure_chain(state, observables, rng.substream(i))
                                  for i in range(shots)]

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**64 - 1), b=st.sampled_from([1, 2]),
           picks=st.lists(st.integers(0, 2), min_size=1, max_size=3),
           shots=st.integers(0, 80))
    def test_matches_the_recursive_route(self, seed, b, picks, shots):
        rng = Stream(seed, "seq-rec")
        spectra = SPECTRA[b]
        observables = [random_observable(b, spectra[k % len(spectra)], rng.substream(1000 + i))
                       for i, k in enumerate(picks)]
        state = random_state(b, rng.substream(2000))
        u = rng.uniforms(np.arange(shots), len(picks))
        got = measure_sequence(state, observables, u)
        assert got.tobytes() == measure_sequence_recursive(state, observables, u).tobytes()

    def test_levels_of_zero_probability_are_never_drawn(self):
        # |00> is an eigenstate of Z (x) I, and Z on the first qubit then
        # leaves no weight on the -1 level of I (x) Z
        obs = [Observable(np.kron(PAULI_Z, np.eye(2))), Observable(np.kron(np.eye(2), PAULI_Z)),
               Observable(np.kron(PAULI_X, np.eye(2)))]
        rng = Stream(5, "zero")
        u = rng.uniforms(np.arange(200), 3)
        batch = measure_sequence(basis_state(2, 0), obs, u)
        assert batch.tolist() == [measure_chain(basis_state(2, 0), obs, rng.substream(i))
                                  for i in range(200)]
        assert set(batch[:, 0]) == set(batch[:, 1]) == {1.0}
        assert set(batch[:, 2]) == {-1.0, 1.0}

    def test_draw_shape_must_match_levels(self):
        with pytest.raises(DomainError):
            measure_sequence(basis_state(1, 0), [Observable(PAULI_Z)], np.zeros((4, 2)))
        with pytest.raises(DomainError):
            measure_sequence(basis_state(1, 0), [Observable(np.eye(4))], np.zeros((4, 1)))


class TestExpectationVariance:
    def test_sigma_z_on_zero(self):
        assert expectation(basis_state(1, 0), Observable(PAULI_Z)) == pytest.approx(1.0)

    def test_singlet_zz_expectation(self):
        singlet = StateVector(2, [0, SQ2, -SQ2, 0])
        obs = Observable(np.kron(PAULI_Z, PAULI_Z))
        oracle = expectation_by_loops(singlet.amps, obs.mat)
        assert oracle.real == pytest.approx(-1.0, abs=1e-12)
        assert expectation(singlet, obs) == pytest.approx(-1.0, abs=1e-12)

    def test_maximally_mixed_traceless(self):
        rho = DensityMatrix(1, np.eye(2) / 2)
        for mat in (PAULI_X, PAULI_Y, PAULI_Z):
            assert expectation(rho, Observable(mat)) == pytest.approx(0.0, abs=1e-12)

    def test_variance_eigenstate_zero(self):
        assert variance(basis_state(1, 0), Observable(PAULI_Z)) == pytest.approx(0.0, abs=1e-12)

    def test_variance_sigma_x_on_zero(self):
        assert variance(basis_state(1, 0), Observable(PAULI_X)) == pytest.approx(1.0)

    def test_variance_quadratic_scaling(self):
        s = random_state(1, Stream(31, "var"))
        base = variance(s, Observable(PAULI_X + 0.2 * PAULI_Z))
        scaled = variance(s, Observable(3.0 * (PAULI_X + 0.2 * PAULI_Z)))
        assert scaled == pytest.approx(9.0 * base, rel=1e-9)

    @pytest.mark.parametrize("state", [[1, 0], basis_state(2, 0)])
    def test_dimension_mismatch_rejected_by_both(self, state):
        for moment in (expectation, variance):
            with pytest.raises(DomainError, match="dimension does not match"):
                moment(state, Observable(PAULI_Z))

    def test_imaginary_residue_guard(self):
        s = basis_state(1, 0)

        class Fake:
            dim = 2
            mat = np.array([[1j, 0], [0, 0]])

        with pytest.raises(NumericalConsistencyError):
            expectation(s, Fake())


class TestDensity:
    def test_single_pure_state(self):
        s = random_state(1, Stream(37, "dens"))
        rho = density_from_ensemble([s], [1.0])
        np.testing.assert_allclose(rho.mat, np.outer(s.amps, s.amps.conj()), atol=1e-12)

    def test_equal_mixture_is_maximally_mixed(self):
        rho = density_from_ensemble([basis_state(1, 0), basis_state(1, 1)], [0.5, 0.5])
        np.testing.assert_allclose(rho.mat, np.eye(2) / 2, atol=1e-12)

    def test_superposition_vs_mixture_off_diagonals(self):
        plus = StateVector(1, [SQ2, SQ2])
        pure = density_from_ensemble([plus], [1.0])
        mixed = density_from_ensemble([basis_state(1, 0), basis_state(1, 1)], [0.5, 0.5])
        assert pure.mat[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert mixed.mat[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValidationError):
            density_from_ensemble([basis_state(1, 0)], [0.7])
        with pytest.raises(ValidationError):
            density_from_ensemble([basis_state(1, 0), basis_state(1, 1)], [1.5, -0.5])

    def test_density_invariants_on_random_instances(self):
        rng = Stream(41, "rand-dens")
        for i in range(10):
            rho = random_density(2, rng.substream(i))
            # validating constructor re-checks Hermiticity, trace, PSD
            DensityMatrix(2, rho.mat)


class TestPosterior:
    def test_pure_projector(self):
        rho = DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex))
        post, prob = posterior_density(rho, np.diag([1.0, 0.0]).astype(complex))
        assert prob == pytest.approx(1.0)
        np.testing.assert_allclose(post.mat, rho.mat, atol=1e-12)

    def test_mixed_conditioning(self):
        rho = DensityMatrix(1, np.eye(2) / 2)
        post, prob = posterior_density(rho, np.diag([0.0, 1.0]).astype(complex))
        assert prob == pytest.approx(0.5)
        np.testing.assert_allclose(post.mat, np.diag([0.0, 1.0]), atol=1e-12)

    def test_random_density_posterior_properties(self):
        rng = Stream(43, "post")
        proj = np.zeros((4, 4), dtype=complex)
        proj[0, 0] = proj[1, 1] = 1.0
        for i in range(10):
            rho = random_density(2, rng.substream(i))
            post, prob = posterior_density(rho, proj)
            direct = proj @ rho.mat @ proj / prob
            np.testing.assert_allclose(post.mat, direct, atol=1e-10)
            assert np.trace(post.mat).real == pytest.approx(1.0, abs=1e-10)

    def test_null_conditioning_raises(self):
        rho = DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(ConditioningError):
            posterior_density(rho, np.diag([0.0, 1.0]).astype(complex))

    def test_non_projector_rejected(self):
        rho = DensityMatrix(1, np.eye(2) / 2)
        with pytest.raises(ValidationError):
            posterior_density(rho, 0.5 * np.eye(2, dtype=complex))


class TestEntropy:
    def test_pure_state_zero(self):
        s = random_state(2, Stream(47, "ent"))
        rho = density_from_ensemble([s], [1.0])
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(DensityMatrix(1, np.eye(2) / 2)) == pytest.approx(1.0)
        assert von_neumann_entropy(DensityMatrix(3, np.eye(8) / 8)) == pytest.approx(3.0)

    def test_entropy_bounds_on_random_densities(self):
        rng = Stream(53, "ent-rand")
        for b in (1, 2):
            for i in range(10):
                s = von_neumann_entropy(random_density(b, rng.substream(10 * b + i)))
                assert 0.0 <= s <= b


def _qubit_cap_from(raw):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("QSIM_MAX_QUBITS", raw)
        return qubit_cap()


# validation raises that no other in-process test reaches
@pytest.mark.parametrize("call, error, fragment", [
    (lambda: _qubit_cap_from("x"), DomainError, "must be an integer"),
    (lambda: _qubit_cap_from("0"), DomainError, "must be >= 1"),
    (lambda: StateVector(1, [1, 0, 0]), ValidationError, "expected 2 amplitudes"),
    (lambda: DensityMatrix(1, np.eye(4) / 4), ValidationError, "expected a 2-dim matrix"),
    (lambda: DensityMatrix(1, np.eye(2)), ValidationError, "trace"),
    (lambda: DensityMatrix(1, np.diag([1.5, -0.5])), ValidationError, "negative eigenvalue"),
    (lambda: apply_unitary(basis_state(2, 0), PAULI_X, [0, 1]), DomainError,
     "does not match 2 target qubits"),
    (lambda: density_from_ensemble([basis_state(1, 0)], [0.5, 0.5]), ValidationError,
     "equally many"),
    (lambda: density_from_ensemble([basis_state(1, 0), basis_state(2, 0)], [0.5, 0.5]),
     ValidationError, "equal qubit counts"),
    (lambda: posterior_density(DensityMatrix(1, np.diag([1.0, 0.0])), np.eye(4)), DomainError,
     "projector dimension"),
    (lambda: fidelity(basis_state(1, 0), basis_state(2, 0)), DomainError, "equal qubit count"),
], ids=["cap-not-int", "cap-0", "amplitude-count", "density-size", "density-trace",
        "density-negative", "unitary-size", "ensemble-lengths", "ensemble-qubits",
        "projector-size", "fidelity-sizes"])
def test_bad_input_raises(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
