"""Brute-force oracles for the test suite.

These deliberately avoid the package's gate kernel and log-space math:
dense embeddings are built by explicit index arithmetic and binomial
tails by exact Fraction arithmetic, so each test compares two
independent computation routes.
"""

from fractions import Fraction
from math import comb

import numpy as np
from qsim.algorithms import inverse_qft
from qsim.gates import hadamard_layer
from qsim.qec import (
    BIT_FLIP,
    NoiseChannel,
    apply_channel,
    encode_bitflip,
    recover_bitflip,
    syndrome_measure,
)
from qsim.qstate import StateVector, fidelity, measure_qubits
from qsim.rng import sample_index


def dense_embedding(matrix: np.ndarray, targets, controls, b: int) -> np.ndarray:
    """2^b x 2^b operator applying `matrix` on `targets` when every control
    qubit reads 1 (qubit 0 = most significant bit)."""
    k = len(targets)
    dim = 1 << b
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (b - 1 - q)) & 1 for q in range(b)]
        if any(bits[c] == 0 for c in controls):
            out[col, col] += 1.0
            continue
        sub_col = 0
        for pos, t in enumerate(targets):
            sub_col |= bits[t] << (k - 1 - pos)
        for sub_row in range(1 << k):
            value = matrix[sub_row, sub_col]
            if value == 0:
                continue
            row_bits = list(bits)
            for pos, t in enumerate(targets):
                row_bits[t] = (sub_row >> (k - 1 - pos)) & 1
            row = 0
            for q in range(b):
                row |= row_bits[q] << (b - 1 - q)
            out[row, col] += value
    return out


def circuit_unitary(circuit, b: int) -> np.ndarray:
    """Dense product of the circuit's embedded gates, later gates on the left."""
    out = np.eye(1 << b, dtype=complex)
    for op in circuit.ops:
        out = dense_embedding(op.matrix, list(op.targets), list(op.controls), b) @ out
    return out


def pe_register_distribution(u: np.ndarray, psi: np.ndarray, b: int) -> np.ndarray:
    """Register distribution of phase estimation from its gate-level
    circuit, multiplied out densely: a Hadamard on each register qubit of
    |0...0>|psi>, the ladder in which register qubit j controls
    U^(2^(b-1-j)) on the second register, then the inverse QFT circuit on
    the register."""
    k = len(psi).bit_length() - 1
    total = b + k
    second = list(range(b, total))
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    state = np.zeros(1 << total, dtype=complex)
    state[: 1 << k] = psi
    for q in range(b):
        state = dense_embedding(hadamard, [q], [], total) @ state
    for j in range(b):
        power = np.linalg.matrix_power(u, 1 << (b - 1 - j))
        state = dense_embedding(power, second, [j], total) @ state
    state = np.kron(circuit_unitary(inverse_qft(b), b), np.eye(1 << k)) @ state
    return (np.abs(state.reshape(1 << b, 1 << k)) ** 2).sum(axis=1)


def pe_register_full_columns(u: np.ndarray, psi: np.ndarray, b: int) -> np.ndarray:
    """Register distribution of phase estimation over every column of the
    second register: the 2^b x 2^k rows U^j|psi> by doubling with the
    repeated squares of the dense U, then a DFT along the register axis."""
    rows = np.empty((1 << b, len(psi)), dtype=complex)
    rows[0] = psi
    power = u
    for j in range(b):
        rows[1 << j : 2 << j] = rows[: 1 << j] @ power.T
        power = power @ power
    return (np.abs(np.fft.fft(rows, axis=0) / (1 << b)) ** 2).sum(axis=1)


def per_stream_indices(probs, rngs) -> list:
    """One `sample_index` draw per stream, the CDF rebuilt for each."""
    return [sample_index(probs, rng)[0] for rng in rngs]


def permute_qubits(amps: np.ndarray, perm) -> np.ndarray:
    """Relabel qubits: qubit q of the input becomes qubit perm[q]."""
    b = len(perm)
    inverse = [0] * b
    for q, target in enumerate(perm):
        inverse[target] = q
    return amps.reshape((2,) * b).transpose(inverse).reshape(-1)


def exact_binomial_tail(n: int, k_lo: int, p_num: int, p_den: int) -> float:
    """P(K >= k_lo), K ~ Binomial(n, p_num/p_den), with Fraction arithmetic."""
    p = Fraction(p_num, p_den)
    total = Fraction(0)
    for k in range(max(k_lo, 0), n + 1):
        total += comb(n, k) * p**k * (1 - p) ** (n - k)
    return float(total)


def expectation_by_loops(amps, mat) -> complex:
    """<psi|M|psi> as an explicit double loop."""
    total = 0j
    dim = len(amps)
    for i in range(dim):
        for j in range(dim):
            total += np.conj(amps[i]) * mat[i, j] * amps[j]
    return total


def bitflip_failures(p: float, shots: int, rng) -> int:
    """Failed shots of the three-qubit bit-flip code, one state-vector
    shot at a time: encode |0>, flip each qubit with probability p,
    measure the syndrome, recover, and count fidelity below 1 - 1e-9."""
    channel = NoiseChannel(BIT_FLIP, p)
    reference = encode_bitflip(StateVector(1, [1.0, 0.0]))
    failures = 0
    for shot in range(shots):
        stream = rng.substream(shot)
        noisy, _ = apply_channel(reference, channel, stream)
        syn, post = syndrome_measure(noisy, stream)
        decoded = recover_bitflip(post, syn)
        failures += fidelity(decoded, reference) < 1.0 - 1e-9
    return failures


def qrng_values(b: int, shots: int, rng) -> list:
    """b-bit integers from measuring every qubit of the Hadamard layer,
    one `measure_qubits` call per shot."""
    layer = hadamard_layer(b)
    return [int(measure_qubits(layer, range(b), rng.substream(shot))[0], 2)
            for shot in range(shots)]
