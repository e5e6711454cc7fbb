import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    anticorrelation_by_shots,
    chsh_by_shots,
    teleport_bits_by_shots,
    teleport_branches,
)
from qsim import entangle
from qsim.entangle import (
    ChshSetting,
    SpinAxis,
    anticorrelation_experiment,
    bell_state,
    chsh_experiment,
    chsh_quantum_value,
    classical_chsh_maximum,
    default_chsh_setting,
    singlet,
    spin_observable,
    teleport,
    teleport_bit_counts,
)
from qsim.errors import DomainError, ValidationError
from qsim.gates import PAULI_X, PAULI_Z
from qsim.qstate import (
    Observable,
    StateVector,
    basis_state,
    fidelity,
    random_density,
    random_state,
)
from qsim.rng import Stream

SQ2 = 1.0 / math.sqrt(2.0)
TSIRELSON = 2.0 * math.sqrt(2.0)
SEEDS = st.integers(0, 2**64 - 1)


@st.composite
def spin_axes(draw):
    v = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    if np.linalg.norm(v) < 0.1:
        v = np.array([0.0, 0.0, 1.0])
    return SpinAxis(*(v / np.linalg.norm(v)))


class TestBellStates:
    def test_output_table(self):
        np.testing.assert_allclose(bell_state(0, 0).amps, [SQ2, 0, 0, SQ2], atol=1e-12)
        np.testing.assert_allclose(bell_state(0, 1).amps, [0, SQ2, SQ2, 0], atol=1e-12)
        np.testing.assert_allclose(bell_state(1, 0).amps, [SQ2, 0, 0, -SQ2], atol=1e-12)
        np.testing.assert_allclose(bell_state(1, 1).amps, [0, SQ2, -SQ2, 0], atol=1e-12)

    def test_mutual_orthonormality(self):
        states = [bell_state(a, b).amps for a in (0, 1) for b in (0, 1)]
        gram = np.array([[np.vdot(u, v) for v in states] for u in states])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_bad_bits_rejected(self):
        with pytest.raises(DomainError):
            bell_state(2, 0)


class TestAnticorrelation:
    def test_z_axis_outcomes(self):
        pairs = anticorrelation_experiment(SpinAxis(0, 0, 1), 200, Stream(1, "anti-z"))
        assert all((a, b) in ((1, -1), (-1, 1)) for a, b in pairs)

    def test_x_axis_alice_is_fair(self):
        shots = 10_000
        pairs = anticorrelation_experiment(SpinAxis(1, 0, 0), shots, Stream(2, "anti-x"))
        ones = sum(1 for a, _ in pairs if a == 1)
        assert abs(ones / shots - 0.5) <= 3.0 * math.sqrt(0.25 / shots)

    def test_random_axes_always_opposite(self):
        rng = Stream(3, "axes")
        for i in range(100):
            v = np.array([rng.normal(), rng.normal(), rng.normal()])
            v /= np.linalg.norm(v)
            axis = SpinAxis(*v)
            pairs = anticorrelation_experiment(axis, 100, rng.substream(1000 + i))
            assert all(a * b == -1 for a, b in pairs)

    @settings(max_examples=40)
    @given(axis=spin_axes(), shots=st.integers(1, 150), seed=SEEDS)
    def test_matches_per_shot_measurement(self, axis, shots, seed):
        pairs = anticorrelation_experiment(axis, shots, Stream(seed, "anti"))
        assert pairs.dtype == np.int64 and pairs.shape == (shots, 2)
        assert list(map(tuple, pairs.tolist())) == anticorrelation_by_shots(
            axis, shots, Stream(seed, "anti"))

    def test_axis_must_be_unit(self):
        with pytest.raises(ValidationError):
            SpinAxis(1.0, 1.0, 0.0)

    def test_spin_observable_eigenvalues(self):
        obs = spin_observable(SpinAxis(0.6, 0.0, 0.8))
        np.testing.assert_allclose(sorted(obs.eigenvalues()), [-1.0, 1.0], atol=1e-12)


class TestTeleport:
    def test_zero_state_every_branch(self):
        zero = basis_state(1, 0)
        seen = set()
        for i in range(200):
            bob, bits = teleport(zero, Stream(5, "tele0").substream(i))
            seen.add(bits)
            assert fidelity(bob, zero) >= 1 - 1e-12
        assert seen == {"00", "01", "10", "11"}

    def test_branch_states_match_protocol(self):
        a0, a1 = 0.6, 0.8j
        psi = StateVector(1, [a0, a1])
        branches = {bits: (pre, fixed) for bits, _, pre, fixed in teleport_branches(psi)}
        pre01, fixed01 = branches["01"]
        np.testing.assert_allclose(pre01.amps, [a1, a0], atol=1e-12)
        assert fidelity(fixed01, psi) >= 1 - 1e-12
        pre10, _ = branches["10"]
        np.testing.assert_allclose(pre10.amps, [a0, -a1], atol=1e-12)
        pre11, _ = branches["11"]
        np.testing.assert_allclose(pre11.amps, [-a1, a0], atol=1e-12)

    def test_branch_probabilities_are_quarter(self):
        rng = Stream(7, "branch")
        for i in range(20):
            psi = random_state(1, rng.substream(i))
            for _, prob, _, fixed in teleport_branches(psi):
                assert prob == pytest.approx(0.25, abs=1e-12)
                assert fidelity(fixed, psi) >= 1 - 1e-12

    def test_random_inputs_unit_fidelity(self):
        rng = Stream(9, "tele-rand")
        worst = 1.0
        for i in range(300):
            psi = random_state(1, rng.substream(2 * i))
            bob, _ = teleport(psi, rng.substream(2 * i + 1))
            worst = min(worst, fidelity(bob, psi))
        assert worst >= 1 - 1e-10

    def test_multi_qubit_input_rejected(self):
        with pytest.raises(DomainError):
            teleport(basis_state(2, 0), Stream(1, "bad"))
        with pytest.raises(DomainError):
            teleport_bit_counts(basis_state(2, 0), 10, Stream(1, "bad"))

    @settings(max_examples=40)
    @given(state_seed=SEEDS, shots=st.integers(1, 300), seed=SEEDS)
    def test_bit_counts_match_per_shot_teleports(self, state_seed, shots, seed):
        psi = random_state(1, Stream(state_seed, "tele-psi"))
        counts = teleport_bit_counts(psi, shots, Stream(seed, "tele-bits"))
        assert list(counts) == ["00", "01", "10", "11"]
        assert counts == teleport_bits_by_shots(psi, shots, Stream(seed, "tele-bits"))


class TestChshValue:
    def test_singlet_reaches_tsirelson(self):
        value = chsh_quantum_value(singlet(), default_chsh_setting())
        assert value == pytest.approx(TSIRELSON, abs=1e-9)

    def test_product_state_value(self):
        value = chsh_quantum_value(basis_state(2, 0), default_chsh_setting())
        assert value == pytest.approx(-math.sqrt(2.0), abs=1e-12)

    def test_tsirelson_bound_on_random_densities(self):
        setting = default_chsh_setting()
        rng = Stream(11, "tsirelson")
        for i in range(300):
            rho = random_density(2, rng.substream(i))
            assert chsh_quantum_value(rho, setting) <= TSIRELSON + 1e-9

    def test_classical_bound_is_two(self):
        assert classical_chsh_maximum() == 2.0

    def test_setting_validation(self):
        good = Observable(PAULI_Z)
        with pytest.raises(ValidationError):
            ChshSetting(good, good, good, Observable(0.5 * PAULI_X))

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            chsh_quantum_value(basis_state(1, 0), default_chsh_setting())


class TestChshExperiment:
    def test_converges_to_tsirelson(self):
        result = chsh_experiment(20_000, Stream(13, "chsh-mc"))
        assert abs(result.value - TSIRELSON) <= 4.0 * result.stderr
        assert sum(result.counts.values()) == 20_000

    def test_zero_shots_rejected(self):
        with pytest.raises(DomainError):
            chsh_experiment(0, Stream(1, "none"))

    def test_seeded_determinism(self):
        a = chsh_experiment(2_000, Stream(17, "det"))
        b = chsh_experiment(2_000, Stream(17, "det"))
        assert a.value == b.value and a.correlators == b.correlators

    @settings(max_examples=40)
    @given(shots=st.integers(1, 200), seed=SEEDS)
    def test_matches_per_shot_loop(self, shots, seed):
        rows, corr = chsh_by_shots(shots, Stream(seed, "chsh"))
        if len(corr) < 4:  # some pair drew no shot
            with pytest.raises(DomainError):
                chsh_experiment(shots, Stream(seed, "chsh"))
            return
        result = chsh_experiment(shots, Stream(seed, "chsh"))
        labels = tuple(result.counts)
        assert [(shot, labels[k], a, b) for shot, (k, (a, b)) in enumerate(
            zip(result.settings.tolist(), result.outcomes.tolist()))] == rows
        assert result.correlators == corr
        assert result.counts == {label: sum(r[1] == label for r in rows) for label in corr}

    def test_rows_follow_schema(self):
        result = chsh_experiment(500, Stream(19, "rows"))
        assert tuple(result.counts) == ("13", "23", "24", "14")
        assert result.settings.shape == (500,) and result.outcomes.shape == (500, 2)
        assert set(result.settings.tolist()) == {0, 1, 2, 3}
        assert set(result.outcomes.ravel().tolist()) == {-1, 1}

    def test_setting_embeddings_and_singlet_are_built_once_and_read_only(self):
        assert default_chsh_setting() is default_chsh_setting()
        assert entangle._chsh_pairs() is entangle._chsh_pairs()
        assert singlet() is singlet()
        with pytest.raises(ValueError):
            singlet().amps[0] = 1.0


# validation raises that no other in-process test reaches
_Z = Observable(PAULI_Z)
_ZZ = Observable(np.kron(PAULI_Z, PAULI_Z))


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: ChshSetting(_ZZ, _Z, _Z, _Z), ValidationError, "x1 must be a single-qubit"),
    (lambda: ChshSetting(_Z, _Z, _Z, _ZZ), ValidationError, "x4 must be a single-qubit"),
], ids=["alice-two-qubit", "bob-two-qubit"])
def test_bad_input_raises(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
