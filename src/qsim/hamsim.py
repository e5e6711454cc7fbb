"""Trotterized time evolution of local Hamiltonians, the dense
exact-evolution oracle, Trotter error measurement, and the search-as-
simulation construction.

A Hamiltonian is stored as local terms H_l on subsystems of at most three
qubits, with the total operator fixed by the convention H = 2 * sum_l H_l.
The symmetric step U_delta = [prod_l e^{-i H_l d}][prod_l reversed] then
approximates e^{-i H d}; keep the factor two in mind when assembling
terms (a single term T yields total Hamiltonian 2T).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DomainError, ResourceError, ValidationError
from .gates import PAULI_X, PAULI_Z, hadamard_layer
from .qstate import Observable, StateVector, _apply_matrix, _check_targets, basis_state
from .qstate import _from_pairs, _to_pairs
from .rng import Stream
from .statharness import QmcResult, qmc_estimate

EXACT_ORACLE_MAX_QUBITS = 10
MAX_TERM_QUBITS = 3


@dataclass(frozen=True)
class HamiltonianTerms:
    """Local Hamiltonian: b system qubits and (matrix, targets) terms.

    The total Hamiltonian is H = 2 * sum of embedded terms.
    """

    qubits: int
    terms: tuple

    def __post_init__(self):
        if self.qubits < 1:
            raise DomainError("need at least one qubit")
        if not self.terms:
            raise ValidationError("need at least one Hamiltonian term")
        checked = []
        for mat, targets in self.terms:
            targets = tuple(int(t) for t in targets)
            if len(targets) > MAX_TERM_QUBITS:
                raise ValidationError(
                    f"term acts on {len(targets)} qubits; local terms are capped at "
                    f"{MAX_TERM_QUBITS}"
                )
            _check_targets(self.qubits, targets)
            m = linalg.require_hermitian(linalg.as_complex_matrix(mat))
            if m.shape[0] != 1 << len(targets):
                raise ValidationError("term matrix dimension does not match its targets")
            checked.append((m, targets))
        object.__setattr__(self, "terms", tuple(checked))

    def assemble(self) -> np.ndarray:
        """Dense total Hamiltonian 2 * sum_l embed(H_l); oracle scale only."""
        if self.qubits > EXACT_ORACLE_MAX_QUBITS:
            raise ResourceError(
                f"dense assembly supports at most {EXACT_ORACLE_MAX_QUBITS} qubits"
            )
        dim = 1 << self.qubits
        total = np.zeros((dim, dim), dtype=complex)
        for mat, targets in self.terms:
            total += _embed(mat, targets, self.qubits)
        return 2.0 * total


def _embed(mat: np.ndarray, targets, b: int) -> np.ndarray:
    """Dense embedding of a small operator at the given qubit positions:
    mat (x) I with the qubits in the order (targets, rest), its row and
    column axes then permuted back to qubit order."""
    order = list(targets) + [q for q in range(b) if q not in targets]
    full = np.kron(mat, np.eye(1 << (b - len(targets)))).reshape((2,) * (2 * b))
    axes = np.argsort(order).tolist()
    return full.transpose(axes + [b + a for a in axes]).reshape(1 << b, 1 << b)


@dataclass(frozen=True)
class TrotterPlan:
    """Time grid t_j = j * t_final / m for the iterated Trotter step."""

    t_final: float
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("step count m must be at least 1")
        if self.t_final < 0:
            raise DomainError("t_final must be non-negative")

    @property
    def delta(self) -> float:
        return self.t_final / self.m

    def grid(self):
        return [j * self.t_final / self.m for j in range(self.m + 1)]


def exact_evolve(h: HamiltonianTerms, t: float, psi0: StateVector) -> StateVector:
    """|psi(t)> = e^{-i H t} |psi(0)> through the dense eigendecomposition."""
    if psi0.qubits != h.qubits:
        raise DomainError("state and Hamiltonian qubit counts differ")
    return StateVector(h.qubits, _evolve_dense(h.assemble(), t, psi0.amps), _trusted=True)


def _evolve_dense(total: np.ndarray, t: float, amps: np.ndarray) -> np.ndarray:
    """e^{-i H t} amps for a dense Hermitian H, through its eigendecomposition."""
    if total.shape[0] > 1 << EXACT_ORACLE_MAX_QUBITS:
        raise ResourceError(f"dense evolution supports at most {EXACT_ORACLE_MAX_QUBITS} qubits")
    vals, vecs = linalg.jacobi_eigh(total)
    phases = np.exp(-1j * vals * t)
    return vecs @ (phases * (vecs.conj().T @ amps))


class TrotterStep:
    """One symmetric Trotter step in applied form.

    Factors are the exponentials e^{-i H_l delta} of the local terms,
    applied in listed order and then in reverse, so a single step equals
    [e^{-i H_1 d} ... e^{-i H_L d}][e^{-i H_L d} ... e^{-i H_1 d}] acting
    on the state.
    """

    __slots__ = ("qubits", "delta", "factors")

    def __init__(self, h: HamiltonianTerms, delta: float):
        self.qubits = h.qubits
        self.delta = float(delta)
        exponentials = [
            (linalg.expm_hermitian(mat, -1j * self.delta), targets)
            for mat, targets in h.terms
        ]
        self.factors = tuple(exponentials + exponentials[::-1])

    def apply(self, s: StateVector) -> StateVector:
        if s.qubits != self.qubits:
            raise DomainError("state size does not match the step")
        amps = s.amps
        for mat, targets in self.factors:
            amps = _apply_matrix(amps, self.qubits, mat, targets)
        return StateVector(self.qubits, amps, _trusted=True)

    def dense(self) -> np.ndarray:
        """Dense U_delta for oracle-scale checks."""
        if self.qubits > EXACT_ORACLE_MAX_QUBITS:
            raise ResourceError("dense step supports oracle scale only")
        dim = 1 << self.qubits
        out = np.eye(dim, dtype=complex)
        for mat, targets in self.factors:
            out = _embed(mat, targets, self.qubits) @ out
        return out


def trotter_step(h: HamiltonianTerms, delta: float) -> TrotterStep:
    return TrotterStep(h, delta)


def trotter_evolve(h: HamiltonianTerms, plan: TrotterPlan, psi0: StateVector):
    """States at every grid point: [psi0, U_d psi0, ..., U_d^m psi0]."""
    step = TrotterStep(h, plan.delta)
    trajectory = [psi0]
    state = psi0
    for _ in range(plan.m):
        state = step.apply(state)
        trajectory.append(state)
    return trajectory


def trotter_error(h: HamiltonianTerms, plan: TrotterPlan, psi0: StateVector) -> float:
    """Terminal 2-norm error || psi_tilde(t_final) - psi(t_final) ||."""
    approx = trotter_evolve(h, plan, psi0)[-1]
    exact = exact_evolve(h, plan.t_final, psi0)
    return float(np.linalg.norm(approx.amps - exact.amps))


def grover_hamiltonian(x: int, psi: StateVector):
    """Hamiltonian |x><x| + |psi><psi| whose evolution rotates psi onto the
    solution state; measuring at t = pi / (2 alpha) yields x certainly.

    Requires alpha = <x|psi> real and positive. Returns
    (HamiltonianTerms, t_measure).
    """
    if psi.qubits > MAX_TERM_QUBITS:
        raise ResourceError(
            f"search Hamiltonian stores the full register as one local term; "
            f"at most {MAX_TERM_QUBITS} qubits"
        )
    mat, t_measure = _search_matrix(x, psi)
    return HamiltonianTerms(psi.qubits, ((0.5 * mat, tuple(range(psi.qubits))),)), t_measure


def _search_matrix(x: int, psi: StateVector):
    """(dense |x><x| + |psi><psi|, t_measure) of grover_hamiltonian."""
    dim = psi.dim
    if not 0 <= x < dim:
        raise DomainError(f"solution index {x} out of range")
    alpha = complex(psi.amps[x])
    if abs(alpha.imag) > 1e-12:
        raise DomainError("overlap <x|psi> must be real for the rotation picture")
    if alpha.real <= 1e-12:
        raise DomainError("degenerate problem: initial state has no overlap with |x>")
    solution = basis_state(psi.qubits, x)
    mat = np.outer(solution.amps, solution.amps.conj()) + np.outer(
        psi.amps, psi.amps.conj()
    )
    return mat, math.pi / (2.0 * alpha.real)


def grover_hamiltonian_success(b: int, marked: int):
    """(success probability of the b-qubit search Hamiltonian at t_measure,
    t_measure); the dense Hamiltonian is evolved, so b is not term-capped."""
    uniform = hadamard_layer(b)
    mat, t_measure = _search_matrix(marked, uniform)
    evolved = _evolve_dense(mat, t_measure, uniform.amps)
    return float(np.abs(evolved[marked]) ** 2), t_measure


def qmc_problem():
    """(model, observable) of trotter_qmc: the two-qubit Ising chain with
    coupling 0.6 and field 0.7, and Z (x) I; the input state is |00>."""
    return ising_chain(2, coupling=0.6, field=0.7), Observable(np.kron(PAULI_Z, np.eye(2)))


def trotter_qmc(t_final: float, steps: int, shots: int, rng: Stream) -> QmcResult:
    """qmc_estimate of Z (x) I after a `steps`-step Trotterized evolution of |00>."""
    model, obs = qmc_problem()
    psi0 = basis_state(2, 0)
    prepared = trotter_evolve(model, TrotterPlan(t_final, steps), psi0)[-1]
    return qmc_estimate(obs, prepared, shots, rng, exact_evolve(model, t_final, psi0))


def ising_chain(qubits: int, coupling: float = 0.5, field: float = 0.4) -> HamiltonianTerms:
    """Transverse-field Ising chain: ZZ couplings on neighbors plus X
    fields. Non-commuting for any nonzero coupling and field; the
    reference model for Trotter error measurements."""
    if qubits < 2:
        raise DomainError("the chain needs at least two qubits")
    terms = []
    zz = np.kron(PAULI_Z, PAULI_Z)
    for q in range(qubits - 1):
        terms.append((coupling * zz, (q, q + 1)))
    for q in range(qubits):
        terms.append((field * PAULI_X, (q,)))
    return HamiltonianTerms(qubits, tuple(terms))


def commuting_chain(qubits: int, coupling: float = 0.5) -> HamiltonianTerms:
    """All-ZZ chain; every term commutes, so the Trotter step is exact."""
    if qubits < 2:
        raise DomainError("the chain needs at least two qubits")
    zz = np.kron(PAULI_Z, PAULI_Z)
    terms = [(coupling * zz, (q, q + 1)) for q in range(qubits - 1)]
    return HamiltonianTerms(qubits, tuple(terms))


# ---------------------------------------------------------------------------
# serialization


def hamiltonian_to_json(h: HamiltonianTerms) -> str:
    """JSON {qubits, terms: [{targets, matrix}]}, matrix row-major [re, im]."""
    terms = [{"targets": list(targets), "matrix": _to_pairs(mat)} for mat, targets in h.terms]
    return json.dumps({"qubits": h.qubits, "terms": terms})


def hamiltonian_from_json(text: str) -> HamiltonianTerms:
    data = json.loads(text)
    terms = []
    for entry in data["terms"]:
        targets = tuple(entry["targets"])
        dim = 1 << len(targets)
        terms.append((_from_pairs(entry["matrix"]).reshape(dim, dim), targets))
    return HamiltonianTerms(int(data["qubits"]), tuple(terms))
