"""Bit-flip and phase-flip channels, the three-qubit codes with syndrome
measurement and recovery, and the nine-qubit concatenated code.

Decoding the nine-qubit code runs the canonical two-level procedure:
bit-flip syndrome and recovery inside each three-qubit block, then
phase-level detection across blocks from the two X-parity observables,
fixed by one sigma_z on the offending block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .gates import HADAMARD_MATRIX, apply_gate, pauli_x, pauli_z
from .linalg import kron
from .qstate import StateVector, collapse
from .rng import Stream

# Shots drawn at once by the batched sweep; keeps its memory flat at any
# shot count. A 2^12-shot block's arrays (96 KiB each) stay in L2 and below
# glibc's 128 KiB mmap threshold, so the heap reuses them block after block;
# from 2^13 on each is mapped and faulted in afresh, which doubled the cost
# of a shot on a 2-vCPU Xeon.
SWEEP_BLOCK = 1 << 12

BIT_FLIP = "bit-flip"
PHASE_FLIP = "phase-flip"


@dataclass(frozen=True)
class NoiseChannel:
    """Independent per-qubit flips: sigma_x (bit) or sigma_z (phase),
    each with probability p."""

    kind: str
    p: float

    def __post_init__(self):
        if self.kind not in (BIT_FLIP, PHASE_FLIP):
            raise DomainError(f"unknown channel kind {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"flip probability {self.p} not in [0, 1]")


@dataclass(frozen=True)
class Syndrome:
    """Three-qubit code syndrome: 0 = clean, k = flip on qubit k."""

    value: int

    def __post_init__(self):
        if self.value not in (0, 1, 2, 3):
            raise DomainError(f"syndrome value {self.value} not in 0..3")


def encode_bitflip(q: StateVector) -> StateVector:
    """a0|0> + a1|1>  ->  a0|000> + a1|111>."""
    if q.qubits != 1:
        raise DomainError("encode_bitflip takes a single-qubit state")
    amps = np.zeros(8, dtype=complex)
    amps[0] = q.amps[0]
    amps[7] = q.amps[1]
    return StateVector(3, amps, _trusted=True)


@lru_cache(maxsize=None)
def _flip_gate(kind: str, q: int):
    return pauli_x(q) if kind == BIT_FLIP else pauli_z(q)


def apply_channel(s: StateVector, ch: NoiseChannel, rng: Stream):
    """Flip each qubit independently with probability p; returns the new
    state and the realized flip mask (qubit 0 = most significant bit)."""
    mask = 0
    state = s
    for q in range(s.qubits):
        if rng.uniform() < ch.p:
            mask |= 1 << (s.qubits - 1 - q)
            state = apply_gate(state, _flip_gate(ch.kind, q))
    return state, mask


# Bit-flip syndrome of each value of a three-qubit block: 0 on |000> and
# |111>, k on the two words with qubit k flipped. Measuring the syndrome
# projects onto the basis states that carry one label.
_SYNDROME_LABELS = np.array([0, 3, 2, 1, 1, 2, 3, 0])
_SYNDROMES = (0, 1, 2, 3)


def _measure_labels(s: StateVector, labels, rng: Stream):
    """Measure the projectors onto {x : labels[x] == a}, a = 0..3."""
    return collapse(s, _SYNDROMES, [s.amps * (labels == a) for a in _SYNDROMES], rng)


def syndrome_measure(s: StateVector, rng: Stream):
    """Measure the error syndrome of a three-qubit bit-flip codeword.

    For a codeword with at most one flip the outcome is deterministic and
    the state is untouched; states outside the code+single-error span are
    still sampled by the Born rule. Returns (Syndrome, post_state).
    """
    if s.qubits != 3:
        raise DomainError("syndrome measurement takes a three-qubit state")
    value, post = _measure_labels(s, _SYNDROME_LABELS, rng)
    return Syndrome(value), post


def recover_bitflip(s: StateVector, syn: Syndrome) -> StateVector:
    """Undo the flip named by the syndrome (1..3 -> qubit index 0..2)."""
    if syn.value == 0:
        return s
    return apply_gate(s, _flip_gate(BIT_FLIP, syn.value - 1))


_H3 = kron(HADAMARD_MATRIX, HADAMARD_MATRIX, HADAMARD_MATRIX)


def encode_phaseflip(q: StateVector) -> StateVector:
    """|0> -> |+++>, |1> -> |--->; the bit-flip code conjugated by H x H x H."""
    encoded = encode_bitflip(q)
    return StateVector(3, _H3 @ encoded.amps, _trusted=True)


def syndrome_measure_phase(s: StateVector, rng: Stream):
    """Phase-code syndrome: the bit-flip measurement in the |+->, basis."""
    if s.qubits != 3:
        raise DomainError("syndrome measurement takes a three-qubit state")
    rotated = StateVector(3, _H3 @ s.amps, _trusted=True)
    syn, post = syndrome_measure(rotated, rng)
    return syn, StateVector(3, _H3 @ post.amps, _trusted=True)


def recover_phaseflip(s: StateVector, syn: Syndrome) -> StateVector:
    """sigma_z on the flagged qubit (= H sigma_x H in the rotated basis)."""
    if syn.value == 0:
        return s
    return apply_gate(s, _flip_gate(PHASE_FLIP, syn.value - 1))


# ---------------------------------------------------------------------------
# nine-qubit code

_BLOCKS = ((0, 1, 2), (3, 4, 5), (6, 7, 8))

_PLUS, _MINUS = np.zeros((2, 8), dtype=complex)
_PLUS[0] = _PLUS[7] = _MINUS[0] = 1.0 / math.sqrt(2.0)
_MINUS[7] = -1.0 / math.sqrt(2.0)
_ZERO_L, _ONE_L = kron(_PLUS, _PLUS, _PLUS), kron(_MINUS, _MINUS, _MINUS)


def encode_shor9(q: StateVector) -> StateVector:
    """|0> -> product of (|000>+|111>)/sqrt2 blocks, |1> with minus signs."""
    if q.qubits != 1:
        raise DomainError("encode_shor9 takes a single-qubit state")
    return StateVector(9, q.amps[0] * _ZERO_L + q.amps[1] * _ONE_L, _trusted=True)


# The syndrome label of every nine-qubit index, read from each block's
# three bits (block 0 = the most significant octal digit).
_BLOCK_LABELS = tuple(_SYNDROME_LABELS[(np.arange(512) >> shift) & 7] for shift in (6, 3, 0))
# X^(x)3 on blocks 0 and 1, then on blocks 1 and 2, flips these index bits;
# index x is paired with x ^ mask, so (I +- X..X)/2 psi is
# (psi +- psi[x ^ mask])/2.
_PARITY_PARTNERS = tuple(np.arange(512) ^ mask for mask in (0o770, 0o077))
_PARITIES = (1, -1)
_PARITY_TO_BLOCK = {(1, 1): None, (-1, 1): 0, (-1, -1): 1, (1, -1): 2}


def shor9_correct(s: StateVector, rng: Stream) -> StateVector:
    """Correct any single-qubit sigma_x, sigma_z, or combined error.

    Step one measures and fixes the bit-flip syndrome inside each block;
    step two measures the two block X-parities and fixes the flagged
    block's sign with one sigma_z.
    """
    if s.qubits != 9:
        raise DomainError("shor9_correct takes a nine-qubit state")
    state = s
    for block in range(3):
        syn, state = _measure_labels(state, _BLOCK_LABELS[block], rng)
        if syn:
            state = apply_gate(state, _flip_gate(BIT_FLIP, _BLOCKS[block][syn - 1]))
    parities = []
    for partner in _PARITY_PARTNERS:
        psi, flipped = state.amps, state.amps[partner]
        branches = [0.5 * (psi + flipped), 0.5 * (psi - flipped)]
        parity, state = collapse(state, _PARITIES, branches, rng)
        parities.append(parity)
    flagged = _PARITY_TO_BLOCK[tuple(parities)]
    if flagged is not None:
        state = apply_gate(state, _flip_gate(PHASE_FLIP, _BLOCKS[flagged][0]))
    return state


# ---------------------------------------------------------------------------
# Monte Carlo sweep


def predicted_logical_rate(p: float) -> float:
    """P(two or more flips among three) = 3 p^2 - 2 p^3."""
    return 3.0 * p * p - 2.0 * p**3


def logical_error_rate(p: float, shots: int, rng: Stream) -> float:
    """Empirical failure rate of the three-qubit bit-flip code.

    Shot i encodes |0>, flips each qubit when its draw from
    `rng.substream(i)` falls below p, measures the syndrome and recovers.
    Flips on |000> leave a basis state, so the syndrome is certain and the
    recovered codeword is |000> (fidelity 1) after at most one flip and
    |111> (fidelity 0) after two or more. The sweep therefore tracks only
    each shot's flips, its Pauli frame, over blocks of SWEEP_BLOCK shots:
    `rng.below` gives a block's flip rows a, b, c, and a shot fails where
    the majority (a & (b | c)) | (b & c) holds.
    """
    if shots < 1:
        raise DomainError("need at least one shot")
    channel = NoiseChannel(BIT_FLIP, p)
    failures = 0
    for start in range(0, shots, SWEEP_BLOCK):
        a, b, c = rng.below(np.arange(start, min(start + SWEEP_BLOCK, shots)), 3, channel.p)
        failures += int(np.count_nonzero((a & (b | c)) | (b & c)))
    return failures / shots


def qec_sweep(ps, shots: int, seed: int):
    """Logical-rate sweep rows: (p, shots, failures, rate, predicted, stderr)."""
    rows = []
    for p in ps:
        rng = Stream(seed, f"qec/sweep/{p}")
        rate = logical_error_rate(p, shots, rng)
        failures = round(rate * shots)
        stderr = math.sqrt(max(rate * (1.0 - rate), 0.0) / shots)
        rows.append(
            {
                "p": p,
                "shots": shots,
                "failures": failures,
                "rate": rate,
                "predicted": predicted_logical_rate(p),
                "stderr": stderr,
            }
        )
    return rows
