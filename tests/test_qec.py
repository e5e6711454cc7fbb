import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from children import child_env
from oracles import (
    bitflip_failures,
    float_sweep_rate,
    shor9_correct_dense,
    syndrome_measure_dense,
    syndrome_measure_phase_dense,
)
from qsim import qec
from qsim.errors import DomainError
from qsim.gates import PAULI_X, PAULI_Z
from qsim.qec import (
    BIT_FLIP,
    PHASE_FLIP,
    SWEEP_BLOCK,
    NoiseChannel,
    Syndrome,
    apply_channel,
    encode_bitflip,
    encode_phaseflip,
    encode_shor9,
    logical_error_rate,
    predicted_logical_rate,
    qec_sweep,
    recover_bitflip,
    recover_phaseflip,
    shor9_correct,
    syndrome_measure,
    syndrome_measure_phase,
)
from qsim.qstate import (
    StateVector,
    apply_unitary,
    basis_state,
    fidelity,
    random_state,
    states_equal,
)
from qsim.rng import Stream

SQ2 = 1.0 / math.sqrt(2.0)


class TestEncoding:
    def test_basis_codewords(self):
        assert states_equal(encode_bitflip(basis_state(1, 0)), basis_state(3, 0))
        assert states_equal(encode_bitflip(basis_state(1, 1)), basis_state(3, 7))

    def test_superposition_linearity(self):
        plus = StateVector(1, [SQ2, SQ2])
        encoded = encode_bitflip(plus)
        np.testing.assert_allclose(encoded.amps[[0, 7]], [SQ2, SQ2], atol=1e-12)
        assert np.count_nonzero(encoded.amps) == 2


class TestChannel:
    def test_zero_probability_is_identity(self):
        s = encode_bitflip(random_state(1, Stream(1, "ch")))
        out, mask = apply_channel(s, NoiseChannel(BIT_FLIP, 0.0), Stream(2, "ch"))
        assert mask == 0 and states_equal(out, s)

    def test_certain_flip_hits_every_qubit(self):
        out, mask = apply_channel(basis_state(3, 0), NoiseChannel(BIT_FLIP, 1.0), Stream(3, "ch"))
        assert mask == 0b111
        assert states_equal(out, basis_state(3, 7))

    def test_flip_frequency(self):
        shots = 20000
        channel = NoiseChannel(BIT_FLIP, 0.1)
        rng = Stream(5, "freq")
        flips = 0
        single = basis_state(1, 0)
        for i in range(shots):
            _, mask = apply_channel(single, channel, rng.substream(i))
            flips += mask & 1
        assert abs(flips / shots - 0.1) <= 3.0 * math.sqrt(0.1 * 0.9 / shots)

    def test_phase_kind_applies_sigma_z(self):
        plus3 = encode_phaseflip(basis_state(1, 0))
        out, mask = apply_channel(plus3, NoiseChannel(PHASE_FLIP, 1.0), Stream(7, "ph"))
        expected = plus3.amps.copy()
        for q in range(3):
            expected = (apply_unitary(StateVector(3, expected), PAULI_Z, [q])).amps
        np.testing.assert_allclose(out.amps, expected, atol=1e-12)

    def test_channel_validation(self):
        with pytest.raises(DomainError):
            NoiseChannel("depolarizing", 0.1)
        with pytest.raises(DomainError):
            NoiseChannel(BIT_FLIP, 1.4)


class TestSyndrome:
    def test_flip_on_first_qubit(self):
        a0, a1 = 0.6, 0.8
        corrupted = StateVector(3, [0, 0, 0, a1, a0, 0, 0, 0])  # a0|100> + a1|011>
        syn, post = syndrome_measure(corrupted, Stream(9, "syn"))
        assert syn.value == 1
        assert fidelity(post, corrupted) >= 1 - 1e-12

    def test_clean_codeword(self):
        codeword = encode_bitflip(random_state(1, Stream(11, "syn0")))
        syn, post = syndrome_measure(codeword, Stream(13, "syn0"))
        assert syn.value == 0
        assert fidelity(post, codeword) >= 1 - 1e-12

    def test_syndrome_independent_of_amplitudes(self):
        rng = Stream(15, "amp")
        for i in range(10):
            psi = random_state(1, rng.substream(i))
            noisy = apply_unitary(encode_bitflip(psi), PAULI_X, [1])
            syn, _ = syndrome_measure(noisy, rng.substream(100 + i))
            assert syn.value == 2

    def test_preservation_within_code_plus_single_error(self):
        rng = Stream(17, "pres")
        for q in (0, 1, 2):
            psi = random_state(1, rng.substream(q))
            noisy = apply_unitary(encode_bitflip(psi), PAULI_X, [q])
            _, post = syndrome_measure(noisy, rng.substream(10 + q))
            assert fidelity(post, noisy) >= 1 - 1e-12

    def test_syndrome_values_validated(self):
        with pytest.raises(DomainError):
            Syndrome(4)


class TestRecovery:
    def test_recover_first_qubit(self):
        a0, a1 = 0.6, 0.8
        corrupted = StateVector(3, [0, 0, 0, a1, a0, 0, 0, 0])
        recovered = recover_bitflip(corrupted, Syndrome(1))
        np.testing.assert_allclose(recovered.amps[[0, 7]], [a0, a1], atol=1e-12)

    def test_syndrome_zero_is_noop(self):
        s = encode_bitflip(random_state(1, Stream(19, "noop")))
        assert states_equal(recover_bitflip(s, Syndrome(0)), s)

    def test_full_cycle_single_flip(self):
        rng = Stream(21, "cycle")
        for q in (0, 1, 2):
            psi = random_state(1, rng.substream(q))
            codeword = encode_bitflip(psi)
            noisy = apply_unitary(codeword, PAULI_X, [q])
            syn, post = syndrome_measure(noisy, rng.substream(10 + q))
            assert fidelity(recover_bitflip(post, syn), codeword) >= 1 - 1e-10

    def test_two_flips_cause_logical_error(self):
        psi = basis_state(1, 0)
        codeword = encode_bitflip(psi)
        noisy = apply_unitary(apply_unitary(codeword, PAULI_X, [0]), PAULI_X, [1])
        syn, post = syndrome_measure(noisy, Stream(23, "two"))
        decoded = recover_bitflip(post, syn)
        # decoder lands on the flipped logical codeword
        assert fidelity(decoded, encode_bitflip(basis_state(1, 1))) >= 1 - 1e-10
        assert fidelity(decoded, codeword) <= 1e-10


class TestPhaseCode:
    def test_plus_minus_codewords(self):
        plus3 = encode_phaseflip(basis_state(1, 0))
        np.testing.assert_allclose(plus3.amps, np.full(8, SQ2**3), atol=1e-12)
        minus3 = encode_phaseflip(basis_state(1, 1))
        signs = np.array([(-1) ** bin(i).count("1") for i in range(8)])
        np.testing.assert_allclose(minus3.amps, signs * SQ2**3, atol=1e-12)

    def test_single_phase_flip_corrected(self):
        rng = Stream(25, "pf")
        for q in (0, 1, 2):
            psi = random_state(1, rng.substream(q))
            codeword = encode_phaseflip(psi)
            noisy = apply_unitary(codeword, PAULI_Z, [q])
            syn, post = syndrome_measure_phase(noisy, rng.substream(10 + q))
            assert syn.value == q + 1
            assert fidelity(recover_phaseflip(post, syn), codeword) >= 1 - 1e-10

    def test_clean_codeword_syndrome_zero(self):
        codeword = encode_phaseflip(random_state(1, Stream(27, "pf0")))
        syn, _ = syndrome_measure_phase(codeword, Stream(29, "pf0"))
        assert syn.value == 0

    def test_hadamard_conjugation_identity(self):
        # phase pipeline = H-layer o bit pipeline o H-layer
        from qsim.qec import _H3

        psi = random_state(1, Stream(31, "conj"))
        noisy = apply_unitary(encode_phaseflip(psi), PAULI_Z, [2])
        syn_a, post_a = syndrome_measure_phase(noisy, Stream(33, "conj"))
        rotated = StateVector(3, _H3 @ noisy.amps)
        syn_b, post_b = syndrome_measure(rotated, Stream(33, "conj"))
        assert syn_a.value == syn_b.value
        np.testing.assert_allclose(post_a.amps, _H3 @ post_b.amps, atol=1e-10)


class TestShor9:
    def test_zero_codeword_amplitudes(self):
        encoded = encode_shor9(basis_state(1, 0))
        nonzero = np.flatnonzero(np.abs(encoded.amps) > 1e-12)
        assert len(nonzero) == 8
        np.testing.assert_allclose(
            encoded.amps[nonzero], np.full(8, 1.0 / (2.0 * math.sqrt(2.0))), atol=1e-12
        )

    def test_codewords_orthonormal(self):
        zero_l = encode_shor9(basis_state(1, 0))
        one_l = encode_shor9(basis_state(1, 1))
        assert abs(np.vdot(zero_l.amps, one_l.amps)) < 1e-12
        assert zero_l.norm() == pytest.approx(1.0, abs=1e-12)

    def test_linearity(self):
        psi = random_state(1, Stream(35, "lin"))
        encoded = encode_shor9(psi)
        combo = psi.amps[0] * encode_shor9(basis_state(1, 0)).amps + psi.amps[
            1
        ] * encode_shor9(basis_state(1, 1)).amps
        np.testing.assert_allclose(encoded.amps, combo, atol=1e-12)

    @pytest.mark.parametrize("error", ["x", "z", "zx"])
    def test_single_error_sweep(self, error):
        rng = Stream(37, f"shor/{error}")
        for trial in range(4):
            psi = random_state(1, rng.substream(trial))
            encoded = encode_shor9(psi)
            for q in range(9):
                noisy = encoded
                if "x" in error:
                    noisy = apply_unitary(noisy, PAULI_X, [q])
                if "z" in error:
                    noisy = apply_unitary(noisy, PAULI_Z, [q])
                corrected = shor9_correct(noisy, rng.substream(100 + 10 * trial + q))
                assert fidelity(corrected, encoded) >= 1 - 1e-9

    def test_no_error_is_untouched(self):
        psi = random_state(1, Stream(41, "clean"))
        encoded = encode_shor9(psi)
        corrected = shor9_correct(encoded, Stream(43, "clean"))
        assert fidelity(corrected, encoded) >= 1 - 1e-10


def _noisy_state(b, encode, seed, kind, q):
    """A random b-qubit state, or a random codeword of `encode` with a
    sigma_x, sigma_z or sigma_z sigma_x error on qubit q (or none)."""
    rng = Stream(seed, "qec/dense")
    if kind == "random":
        return random_state(b, rng)
    state = encode(random_state(1, rng))
    if "x" in kind:
        state = apply_unitary(state, PAULI_X, [q])
    if "z" in kind:
        state = apply_unitary(state, PAULI_Z, [q])
    return state


KINDS = st.sampled_from(["random", "none", "x", "z", "zx"])


class TestIndexRouteMatchesDenseProjectors:
    """The syndromes and parities measured from index structure pick the
    same branch and give the same amplitudes as the dense projectors."""

    @given(seed=st.integers(0, 2**32 - 1), kind=KINDS, q=st.integers(0, 2))
    def test_bitflip_syndrome(self, seed, kind, q):
        s = _noisy_state(3, encode_bitflip, seed, kind, q)
        syn, post = syndrome_measure(s, Stream(seed, "qec/draw"))
        ref_syn, ref_post = syndrome_measure_dense(s, Stream(seed, "qec/draw"))
        assert syn == ref_syn
        assert np.array_equal(post.amps, ref_post.amps)

    @given(seed=st.integers(0, 2**32 - 1), kind=KINDS, q=st.integers(0, 2))
    def test_phaseflip_syndrome(self, seed, kind, q):
        s = _noisy_state(3, encode_phaseflip, seed, kind, q)
        syn, post = syndrome_measure_phase(s, Stream(seed, "qec/draw"))
        ref_syn, ref_post = syndrome_measure_phase_dense(s, Stream(seed, "qec/draw"))
        assert syn == ref_syn
        assert np.array_equal(post.amps, ref_post.amps)

    @given(seed=st.integers(0, 2**32 - 1), kind=KINDS, q=st.integers(0, 8))
    def test_shor9_correct(self, seed, kind, q):
        s = _noisy_state(9, encode_shor9, seed, kind, q)
        corrected = shor9_correct(s, Stream(seed, "qec/draw"))
        reference = shor9_correct_dense(s, Stream(seed, "qec/draw"))
        assert np.array_equal(corrected.amps, reference.amps)

    def test_first_shor9_call_stays_under_a_megabyte(self):
        """No call builds a dense 2^9 x 2^9 operator (4 MiB each)."""
        code = (
            "import tracemalloc\n"
            "from qsim.qec import encode_shor9, shor9_correct\n"
            "from qsim.qstate import basis_state\n"
            "from qsim.rng import Stream\n"
            "noisy = encode_shor9(basis_state(1, 1))\n"
            "tracemalloc.start()\n"
            "shor9_correct(noisy, Stream(1, 'qec/peak'))\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=child_env())
        assert int(proc.stdout) < 1 << 20


class TestLogicalRate:
    def test_zero_probability(self):
        assert logical_error_rate(0.0, 200, Stream(45, "p0")) == 0.0

    def test_rate_tracks_formula(self):
        shots = 20000
        for p in (0.1, 0.5):
            rate = logical_error_rate(p, shots, Stream(47, f"rate{p}"))
            predicted = predicted_logical_rate(p)
            sigma = math.sqrt(predicted * (1 - predicted) / shots)
            assert abs(rate - predicted) <= 3.0 * sigma

    def test_improvement_region(self):
        shots = 20000
        for p in (0.01, 0.05, 0.1, 0.2):
            rate = logical_error_rate(p, shots, Stream(49, f"imp{p}"))
            assert rate < p

    def test_formula_values(self):
        assert predicted_logical_rate(0.1) == pytest.approx(0.028)
        assert predicted_logical_rate(0.5) == pytest.approx(0.5)

    @pytest.mark.parametrize("p", [0.0, 0.01, 0.2, 0.5, 1.0])
    def test_matches_state_vector_shots(self, p):
        for shots in (1, 37, 600):
            rng = Stream(55, f"oracle{p}/{shots}")
            assert logical_error_rate(p, shots, rng) == (
                bitflip_failures(p, shots, rng) / shots)

    def test_shots_past_one_block(self):
        p, shots = 0.3, SWEEP_BLOCK + 3
        rng = Stream(57, "blocks")
        failures = 0
        for shot in range(shots):
            stream = rng.substream(shot)
            failures += sum(stream.uniform() < p for _ in range(3)) >= 2
        assert logical_error_rate(p, shots, rng) == failures / shots

    @settings(max_examples=60)
    @given(p=st.one_of(st.sampled_from([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0]),
                       st.floats(0.0, 1.0)),
           seed=st.integers(0, 2**64 - 1),
           shots=st.one_of(st.integers(1, 3000),
                           st.sampled_from([SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1,
                                            2 * SWEEP_BLOCK + 1])))
    @example(p=0.3, seed=57, shots=SWEEP_BLOCK - 1)
    @example(p=0.3, seed=57, shots=SWEEP_BLOCK + 1)
    @example(p=0.3, seed=57, shots=2 * SWEEP_BLOCK + 1)
    def test_matches_the_float_sweep(self, p, seed, shots):
        rng = Stream(seed, "float-sweep")
        assert logical_error_rate(p, shots, rng) == float_sweep_rate(p, shots, rng)

    @pytest.mark.parametrize("block", [1 << 10, 1 << 16])
    def test_rate_does_not_depend_on_the_block_size(self, monkeypatch, block):
        shots = 3 * (1 << 14) + 7
        want = [logical_error_rate(p, shots, Stream(61, f"block{p}"))
                for p in (0.05, 0.3)]
        monkeypatch.setattr(qec, "SWEEP_BLOCK", block)
        assert [logical_error_rate(p, shots, Stream(61, f"block{p}"))
                for p in (0.05, 0.3)] == want

    def test_sweep_never_draws_floats(self, monkeypatch):
        want = logical_error_rate(0.2, 5000, Stream(63, "words"))

        def refuse(self, shot_indices, draws):
            raise AssertionError("the sweep drew float uniforms")

        monkeypatch.setattr(Stream, "uniforms", refuse)
        assert logical_error_rate(0.2, 5000, Stream(63, "words")) == want

    def test_invalid_arguments_rejected(self):
        for p in (1.5, -0.1, float("nan")):
            with pytest.raises(DomainError):
                logical_error_rate(p, 10, Stream(59, "bad-p"))
        with pytest.raises(DomainError):
            logical_error_rate(0.1, 0, Stream(59, "no-shots"))

    def test_sweep_rows_schema(self):
        rows = qec_sweep([0.0, 0.1], 500, seed=53)
        assert [row["p"] for row in rows] == [0.0, 0.1]
        assert rows[0]["rate"] == 0.0 and rows[0]["failures"] == 0
        for row in rows:
            assert set(row) == {"p", "shots", "failures", "rate", "predicted", "stderr"}


# validation raises that no other in-process test reaches: a wrong-size state
@pytest.mark.parametrize("call, fragment", [
    (lambda: encode_bitflip(basis_state(2, 0)), "single-qubit state"),
    (lambda: syndrome_measure(basis_state(2, 0), Stream(1, "size")), "three-qubit state"),
    (lambda: syndrome_measure_phase(basis_state(2, 0), Stream(1, "size")), "three-qubit state"),
    (lambda: qec.encode_shor9(basis_state(2, 0)), "single-qubit state"),
    (lambda: qec.shor9_correct(basis_state(2, 0), Stream(1, "size")), "nine-qubit state"),
], ids=["encode-bitflip", "syndrome", "syndrome-phase", "encode-shor9", "shor9-correct"])
def test_wrong_size_state_raises(call, fragment):
    with pytest.raises(DomainError, match=fragment):
        call()
