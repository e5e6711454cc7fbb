"""Bell states and the three entanglement experiments: spin
anti-correlation on the singlet, teleportation, and CHSH correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qstate
from .errors import DomainError, ValidationError
from .gates import (
    PAULI_X,
    PAULI_Z,
    GateOp,
    bell_circuit,
    cnot,
    hadamard,
    apply_gate,
    run_circuit,
)
from .qstate import (
    Observable,
    StateVector,
    basis_state,
    measure_observable,  # noqa: F401  (the benchmark tracer rebinds this name)
    measure_qubits,
    measure_sequence,
    tensor,
)
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
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"axis norm^2 = {norm!r} is not 1 within 1e-12")


def spin_observable(axis: SpinAxis) -> Observable:
    """a_x sigma_x + a_y sigma_y + a_z sigma_z; eigenvalues are +-1."""
    from .gates import PAULI_Y

    mat = axis.a_x * PAULI_X + axis.a_y * PAULI_Y + axis.a_z * PAULI_Z
    return Observable(mat)


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
            if np.max(np.abs(obs.mat @ obs.mat - _ID2)) > 1e-9:
                raise ValidationError(f"{label} does not square to the identity")

    def pairs(self) -> dict:
        """The (Alice, Bob) observable pair of each term of the CHSH sum."""
        return {"13": (self.x1, self.x3), "23": (self.x2, self.x3),
                "24": (self.x2, self.x4), "14": (self.x1, self.x4)}


def default_chsh_setting() -> ChshSetting:
    """The maximally violating setting: sigma_z, sigma_x for Alice and the
    two diagonal combinations for Bob."""
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


def singlet() -> StateVector:
    """(|01> - |10>)/sqrt(2), the antisymmetric Bell state."""
    return bell_state(1, 1)


def _singlet_outcomes(alice: Observable, bob: Observable, u) -> np.ndarray:
    """(shots, 2) integer outcomes of Alice's single-qubit observable on the
    singlet, then Bob's on the collapsed state; a row of `u` per shot."""
    pair = [Observable(np.kron(alice.mat, _ID2)), Observable(np.kron(_ID2, bob.mat))]
    return np.rint(measure_sequence(singlet(), pair, u)).astype(np.int64)


def anticorrelation_experiment(axis: SpinAxis, shots: int, rng: Stream):
    """Measure the same spin axis on both qubits of the singlet.

    Alice measures first; Bob measures the collapsed state. Shot i draws
    from `rng.substream(i)`, all shots at once. Returns the list of
    (alice, bob) outcomes; they are opposite in every shot.
    """
    if shots < 1:
        raise DomainError("need at least one shot")
    obs = spin_observable(axis)
    outcomes = _singlet_outcomes(obs, obs, rng.uniforms(np.arange(shots), 2))
    return [tuple(row) for row in outcomes.tolist()]


# ---------------------------------------------------------------------------
# teleportation

_PHI_PLUS = bell_state(0, 0)
_ALICE_GATES = (cnot(0, 1), hadamard(0))
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
    state = tensor(psi, _PHI_PLUS)
    for gate in _ALICE_GATES:
        state = apply_gate(state, gate)
    return state


def _correct(bob: StateVector, bits: str) -> StateVector:
    """Bob's classical correction for Alice's bits."""
    correction = _CORRECTIONS[bits]
    return bob if correction is None else apply_gate(bob, correction)


def teleport(psi: StateVector, rng: Stream):
    """Teleport a single-qubit state over a shared Bell pair.

    Runs the three-qubit protocol: CNOT on Alice's qubits, Hadamard on the
    first, measurement of Alice's two qubits, then the classical correction
    on Bob's qubit. Returns (bob_state, classical_bits).
    """
    bits, post, _ = measure_qubits(_alice_ready(psi), [0, 1], rng)
    bob = StateVector(1, post.amps.reshape(4, 2)[int(bits, 2)].copy(), _trusted=True)
    return _correct(bob, bits), bits


def teleport_trials(shots: int, rng: Stream):
    """(minimum fidelity, count of each bit pair) over `shots` teleported random
    states; shot i draws its input from substream 2i, its measurement from 2i + 1."""
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
    if shots < 1:
        raise DomainError("need at least one shot")
    probs = qstate.marginal(_alice_ready(psi), [0, 1])
    picks = sample_indices(probs, rng.uniforms(np.arange(shots), 1)[:, 0])
    return dict(zip(_BITS, np.bincount(picks, minlength=4).tolist()))


def teleport_branches(psi: StateVector):
    """All four measurement branches of the protocol, deterministically.

    Returns a list of (bits, probability, pre_correction, corrected)
    entries; each branch has probability 1/4 and corrected state psi.
    """
    grid = _alice_ready(psi).amps.reshape(4, 2)
    branches = []
    for bits, block in zip(_BITS, grid):
        prob = float(np.sum(np.abs(block) ** 2))
        pre = StateVector(1, block / math.sqrt(prob), _trusted=True)
        branches.append((bits, prob, pre, _correct(pre, bits)))
    return branches


# ---------------------------------------------------------------------------
# CHSH


def chsh_quantum_value(state, setting: ChshSetting) -> float:
    """E(X1 X3) + E(X2 X3) + E(X2 X4) - E(X1 X4) with tensor-product
    observables on a two-qubit state."""
    dim = state.dim if hasattr(state, "dim") else 0
    if dim != 4:
        raise DomainError("CHSH needs a two-qubit state")
    corr = {
        label: qstate._expect_matrix(state, np.kron(a.mat, b.mat))
        for label, (a, b) in setting.pairs().items()
    }
    return corr["13"] + corr["23"] + corr["24"] - corr["14"]


def classical_chsh_maximum() -> float:
    """Exhaustive maximum of x1 x3 + x2 x3 + x2 x4 - x1 x4 over the 16
    deterministic +-1 assignments (the classical bound, exactly 2)."""
    best = -math.inf
    for x1 in (-1, 1):
        for x2 in (-1, 1):
            for x3 in (-1, 1):
                for x4 in (-1, 1):
                    best = max(best, x1 * x3 + x2 * x3 + x2 * x4 - x1 * x4)
    return float(best)


@dataclass(frozen=True)
class ChshResult:
    value: float
    stderr: float
    correlators: dict
    counts: dict
    shots: int
    rows: tuple


def chsh_experiment(shots: int, rng: Stream, collect_rows: bool = False) -> ChshResult:
    """Monte Carlo CHSH on the singlet with the default setting.

    Each shot draws one of the four observable pairs uniformly, measures
    Alice's observable and then Bob's on the collapsed state, and
    accumulates the per-pair correlators. Shot i takes its three draws
    (pair, Alice, Bob) from `rng.substream(i)`, all shots at once.
    """
    if shots < 1:
        raise DomainError("chsh_experiment needs at least one shot")
    pairs = default_chsh_setting().pairs()
    labels = tuple(pairs)
    u = rng.uniforms(np.arange(shots), 3)
    picks = (u[:, 0] * 4).astype(np.int64)  # Stream.integer(4) on the first draw
    outcomes = np.empty((shots, 2), dtype=np.int64)
    sums, counts = {}, {}
    for k, label in enumerate(labels):
        rows = np.flatnonzero(picks == k)
        if rows.size == 0:
            raise DomainError(f"no shots landed on pair {label}; increase shots")
        outcomes[rows] = _singlet_outcomes(*pairs[label], u[rows, 1:])
        sums[label] = int(np.sum(outcomes[rows, 0] * outcomes[rows, 1]))
        counts[label] = rows.size
    corr = {label: sums[label] / counts[label] for label in labels}
    value = corr["13"] + corr["23"] + corr["24"] - corr["14"]
    # products are +-1, so Var = 1 - mean^2 per pair; pairs are independent
    variance = sum(
        (1.0 - corr[label] ** 2) / counts[label] for label in labels
    )
    rows = ()
    if collect_rows:
        rows = tuple((shot, labels[k], a, b) for shot, (k, (a, b))
                     in enumerate(zip(picks.tolist(), outcomes.tolist())))
    return ChshResult(
        value=value,
        stderr=math.sqrt(variance),
        correlators=corr,
        counts=counts,
        shots=shots,
        rows=rows,
    )
