"""Bell states and the three entanglement experiments: spin
anti-correlation on the singlet, teleportation, and CHSH correlations.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import qstate
from .errors import DomainError, ValidationError
from .gates import PAULI_X, PAULI_Y, PAULI_Z, Circuit, GateOp, bell_circuit, cnot, hadamard
from .gates import apply_gate, run_circuit
from .linalg import kron
from .qstate import Observable, StateVector, basis_state, measure_qubits, measure_sequence
from .qstate import tensor
from .rng import Stream, sample_indices

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
_ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class SpinAxis:
    """Real unit vector (a_x, a_y, a_z) defining a spin measurement axis."""

    a_x: float
    a_y: float
    a_z: float

    def __post_init__(self):
        norm = self.a_x**2 + self.a_y**2 + self.a_z**2
        if not abs(norm - 1.0) <= 1e-12:
            raise ValidationError(f"axis norm^2 = {norm!r} is not 1 within 1e-12")


def spin_observable(axis: SpinAxis) -> Observable:
    """a_x sigma_x + a_y sigma_y + a_z sigma_z; eigenvalues are +-1."""
    return Observable(axis.a_x * PAULI_X + axis.a_y * PAULI_Y + axis.a_z * PAULI_Z)


@dataclass(frozen=True)
class ChshSetting:
    """Four +-1-valued single-qubit observables: x1, x2 for Alice and
    x3, x4 for Bob."""

    x1: Observable
    x2: Observable
    x3: Observable
    x4: Observable

    def __post_init__(self):
        for label, obs in zip(("x1", "x2", "x3", "x4"), (self.x1, self.x2, self.x3, self.x4)):
            if obs.dim != 2:
                raise ValidationError(f"{label} must be a single-qubit observable")
            if np.abs(obs.mat @ obs.mat - _ID2).max() > 1e-9:
                raise ValidationError(f"{label} does not square to the identity")

    def pairs(self) -> dict:
        """The (Alice, Bob) observable pair of each term of the CHSH sum."""
        return {"13": (self.x1, self.x3), "23": (self.x2, self.x3),
                "24": (self.x2, self.x4), "14": (self.x1, self.x4)}


@functools.cache
def default_chsh_setting() -> ChshSetting:
    """The maximally violating setting: sigma_z, sigma_x for Alice and the
    two diagonal combinations for Bob. Built on first use, then the same
    read-only observables on every call."""
    s = 1.0 / math.sqrt(2.0)
    return ChshSetting(
        x1=Observable(PAULI_Z),
        x2=Observable(PAULI_X),
        x3=Observable(-s * (PAULI_Z + PAULI_X)),
        x4=Observable(s * (PAULI_Z - PAULI_X)),
    )


def bell_state(x1: int, x2: int) -> StateVector:
    """Output of the H-then-CNOT circuit on computational input |x1 x2>."""
    if x1 not in (0, 1) or x2 not in (0, 1):
        raise DomainError("bell_state takes two bits")
    return run_circuit(bell_circuit(), basis_state(2, (x1 << 1) | x2))


@functools.cache
def singlet() -> StateVector:
    """(|01> - |10>)/sqrt(2), the antisymmetric Bell state; built once, read-only."""
    state = bell_state(1, 1)
    state.amps.flags.writeable = False
    return state


def _embedded(alice: Observable, bob: Observable) -> tuple:
    """Alice's single-qubit observable on qubit 0 and Bob's on qubit 1."""
    return Observable(kron(alice.mat, _ID2)), Observable(kron(_ID2, bob.mat))


def _singlet_outcomes(pair: tuple, u) -> np.ndarray:
    """(shots, 2) integer outcomes of an `_embedded` pair on the singlet,
    Alice's and then Bob's on the collapsed state; a row of `u` per shot."""
    return np.rint(measure_sequence(singlet(), pair, u)).astype(np.int64)


def anticorrelation_experiment(axis: SpinAxis, shots: int, rng: Stream) -> np.ndarray:
    """Measure the same spin axis on both qubits of the singlet.

    Alice measures first; Bob measures the collapsed state. Shot i draws
    from `rng.substream(i)`, all shots at once. Returns the (shots, 2)
    int64 array of (alice, bob) outcomes; they are opposite in every shot.
    """
    obs = spin_observable(axis)
    return _singlet_outcomes(_embedded(obs, obs), rng.shot_uniforms(shots, 2))


# ---------------------------------------------------------------------------
# teleportation

_PHI_PLUS = bell_state(0, 0)
_ALICE = Circuit(3, (cnot(0, 1), hadamard(0)))
_BITS = ("00", "01", "10", "11")
_CORRECTIONS = {
    "00": None,
    "01": GateOp("x", PAULI_X, [0]),
    "10": GateOp("z", PAULI_Z, [0]),
    "11": GateOp("zx", PAULI_Z @ PAULI_X, [0]),  # sigma_x first, then sigma_z
}


def _alice_ready(psi: StateVector) -> StateVector:
    """psi (x) |Phi+> after Alice's CNOT and Hadamard: the three-qubit
    state whose first two qubits she measures."""
    if psi.qubits != 1:
        raise DomainError("teleport takes a single-qubit state")
    return run_circuit(_ALICE, tensor(psi, _PHI_PLUS))


def teleport(psi: StateVector, rng: Stream):
    """Teleport a single-qubit state over a shared Bell pair.

    Runs the three-qubit protocol: CNOT on Alice's qubits, Hadamard on the
    first, measurement of Alice's two qubits, then the classical correction
    on Bob's qubit. Returns (bob_state, classical_bits).
    """
    bits, post = measure_qubits(_alice_ready(psi), [0, 1], rng)
    bob = StateVector(1, post.amps.reshape(4, 2)[int(bits, 2)].copy(), _trusted=True)
    correction = _CORRECTIONS[bits]
    return (bob if correction is None else apply_gate(bob, correction)), bits


def teleport_trials(shots: int, rng: Stream):
    """(minimum fidelity, count of each bit pair) over `shots` teleported random
    states; shot i draws its input from substream 2i, its measurement from 2i + 1.
    Raises DomainError below one shot."""
    if shots < 1:
        raise DomainError("need at least one shot")
    worst = 1.0
    counts = {"00": 0, "01": 0, "10": 0, "11": 0}
    for i in range(shots):
        psi = qstate.random_state(1, rng.substream(2 * i))
        bob, bits = teleport(psi, rng.substream(2 * i + 1))
        worst = min(worst, qstate.fidelity(bob, psi))
        counts[bits] += 1
    return worst, counts


def teleport_bit_counts(psi: StateVector, shots: int, rng: Stream) -> dict:
    """Count of each of Alice's bit pairs over `shots` teleports of the fixed
    input psi; shot i measures with the first draw of `rng.substream(i)`,
    as `teleport` would, all shots sampled at once."""
    probs = qstate.marginal(_alice_ready(psi), [0, 1])
    picks = sample_indices(probs, rng.shot_uniforms(shots, 1)[:, 0])
    return dict(zip(_BITS, np.bincount(picks, minlength=4).tolist()))


# ---------------------------------------------------------------------------
# CHSH


def chsh_quantum_value(state, setting: ChshSetting) -> float:
    """E(X1 X3) + E(X2 X3) + E(X2 X4) - E(X1 X4) with tensor-product
    observables on a two-qubit state."""
    if getattr(state, "dim", 0) != 4:
        raise DomainError("CHSH needs a two-qubit state")
    corr = {
        label: qstate._expect_matrix(state, kron(a.mat, b.mat))
        for label, (a, b) in setting.pairs().items()
    }
    return corr["13"] + corr["23"] + corr["24"] - corr["14"]


def classical_chsh_maximum() -> float:
    """Exhaustive maximum of x1 x3 + x2 x3 + x2 x4 - x1 x4 over the 16
    deterministic +-1 assignments (the classical bound, exactly 2)."""
    return float(max(x1 * x3 + x2 * x3 + x2 * x4 - x1 * x4
                     for x1, x2, x3, x4 in itertools.product((-1, 1), repeat=4)))


@functools.cache
def _chsh_pairs() -> tuple:
    """(label, `_embedded` pair) of each term of the default setting, in
    `ChshSetting.pairs` order; built once, read-only."""
    return tuple((label, _embedded(*pair))
                 for label, pair in default_chsh_setting().pairs().items())


@dataclass(frozen=True, eq=False)
class ChshResult:
    """The estimate and its per-pair correlators and counts; shot i measured
    pair `settings[i]` (in `counts` order) with (alice, bob) `outcomes[i]`.
    Instances compare by identity."""

    value: float
    stderr: float
    correlators: dict
    counts: dict
    settings: np.ndarray
    outcomes: np.ndarray


def chsh_experiment(shots: int, rng: Stream) -> ChshResult:
    """Monte Carlo CHSH on the singlet with the default setting.

    Each shot draws one of the four observable pairs uniformly, measures
    Alice's observable and then Bob's on the collapsed state, and
    accumulates the per-pair correlators. Shot i takes its three draws
    (pair, Alice, Bob) from `rng.substream(i)`, all shots at once.
    """
    u = rng.shot_uniforms(shots, 3)
    settings = (u[:, 0] * 4).astype(np.int64)  # Stream.integer(4) on the first draw
    outcomes = np.empty((shots, 2), dtype=np.int64)
    sums, counts = {}, {}
    for k, (label, pair) in enumerate(_chsh_pairs()):
        rows = np.flatnonzero(settings == k)
        if rows.size == 0:
            raise DomainError(f"no shots landed on pair {label}; increase shots")
        outcomes[rows] = _singlet_outcomes(pair, u[rows, 1:])
        sums[label] = int(np.sum(outcomes[rows, 0] * outcomes[rows, 1]))
        counts[label] = rows.size
    corr = {label: sums[label] / counts[label] for label in counts}
    value = corr["13"] + corr["23"] + corr["24"] - corr["14"]
    # products are +-1, so Var = 1 - mean^2 per pair; pairs are independent
    variance = sum((1.0 - corr[label] ** 2) / counts[label] for label in counts)
    return ChshResult(value=value, stderr=math.sqrt(variance), correlators=corr, counts=counts,
                      settings=settings, outcomes=outcomes)
