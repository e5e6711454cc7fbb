"""Trotterized time evolution of local Hamiltonians, the dense
exact-evolution oracle, Trotter error measurement, and the search-as-
simulation construction.

A Hamiltonian is stored as local terms H_l on subsystems of at most three
qubits, with the total operator fixed by the convention H = 2 * sum_l H_l.
The symmetric step U_delta = [prod_l e^{-i H_l d}][prod_l reversed] then
approximates e^{-i H d}; keep the factor two in mind when assembling
terms (a single term T yields total Hamiltonian 2T).

A term that is exactly c * P, for real c and a Pauli string P (so P^2 = I),
has the factor e^{-i c P d} = cos(c d) I - i sin(c d) P, unitary by
construction and built with no eigensolve; every term of `ising_chain`,
`commuting_chain` and `qmc_problem` is one. Any other term (the search
Hamiltonian) takes `linalg.expm_hermitian`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DomainError, ResourceError, ValidationError
from .gates import PAULI_X, PAULI_Y, PAULI_Z, hadamard_layer
from .qstate import Observable, StateVector, _apply_matrix, _check_dense_qubits, _check_targets
from .qstate import _renormalized, basis_state
from .rng import Stream
from .statharness import QmcResult, qmc_draws, qmc_law

MAX_TERM_QUBITS = 3


@functools.cache
def _pauli_strings(k: int) -> dict:
    """The 4^k k-qubit Pauli strings, read-only, grouped by the column of
    their row-0 entry (each string has one nonzero, of modulus 1, a row)."""
    strings = [np.ones((1, 1), dtype=complex)]
    for _ in range(k):
        strings = [linalg.kron(s, p) for s in strings
                   for p in (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)]
    by_column = {}
    for p in strings:
        p.flags.writeable = False
        by_column.setdefault(int(np.flatnonzero(p[0])[0]), []).append(p)
    return by_column


def _pauli_form(m: np.ndarray):
    """(c, P) with m == c * P entry for entry, c real and P a Pauli string;
    None when m is no such multiple (the zero matrix is 0 * I)."""
    row = np.flatnonzero(m[0])
    if len(row) > 1:
        return None
    column = int(row[0]) if len(row) else 0
    for p in _pauli_strings(m.shape[0].bit_length() - 1)[column]:
        c = m[0, column] * p[0, column].conjugate()  # exact: p[0, column] is +-1 or +-i
        if c.imag == 0 and (m == c.real * p).all():
            return c.real, p
    return None


@dataclass(frozen=True, eq=False)
class HamiltonianTerms:
    """Local Hamiltonian: b system qubits and (matrix, targets) terms.

    The total Hamiltonian is H = 2 * sum of embedded terms. The term
    matrices are read-only copies, and `paulis[l]` is term l's (c, P) form
    or None. Instances compare and hash by identity.
    """

    qubits: int
    terms: tuple
    paulis: tuple = field(init=False, repr=False)

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
            m = linalg.require_hermitian(mat).copy()
            if m.shape[0] != 1 << len(targets):
                raise ValidationError("term matrix dimension does not match its targets")
            m.flags.writeable = False
            checked.append((m, targets))
        object.__setattr__(self, "terms", tuple(checked))
        object.__setattr__(self, "paulis", tuple(_pauli_form(m) for m, _ in checked))

    def assemble(self) -> np.ndarray:
        """Dense total Hamiltonian 2 * sum_l embed(H_l); oracle scale only."""
        _check_dense_qubits(self.qubits, "dense assembly")
        dim = 1 << self.qubits
        total = np.zeros((dim, dim), dtype=complex)
        for mat, targets in self.terms:
            total += _embed(mat, targets, self.qubits)
        return 2.0 * total

    @functools.cached_property
    def total(self) -> np.ndarray:
        """`assemble()`, built on first use and kept read-only."""
        total = self.assemble()
        total.flags.writeable = False
        return total


def _embed(mat: np.ndarray, targets, b: int) -> np.ndarray:
    """Dense embedding of a small operator at the given qubit positions:
    mat (x) I with the qubits in the order (targets, rest), its row and
    column axes then permuted back to qubit order."""
    order = list(targets) + [q for q in range(b) if q not in targets]
    full = linalg.kron(mat, np.eye(1 << (b - len(targets)))).reshape((2,) * (2 * b))
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
        if not 0 <= self.t_final < math.inf:
            raise DomainError(f"t_final must be finite and non-negative, got {self.t_final}")

    @property
    def delta(self) -> float:
        return self.t_final / self.m

    def grid(self):
        return [j * self.t_final / self.m for j in range(self.m + 1)]


def exact_evolve(h: HamiltonianTerms, t: float, psi0: StateVector) -> StateVector:
    """|psi(t)> = e^{-i H t} |psi(0)> through the dense eigendecomposition."""
    if psi0.qubits != h.qubits:
        raise DomainError("state and Hamiltonian qubit counts differ")
    return StateVector(h.qubits, _evolve_dense(h.total, t, psi0.amps), _trusted=True)


def _evolve_dense(total: np.ndarray, t: float, amps: np.ndarray) -> np.ndarray:
    """e^{-i H t} amps for a dense Hermitian H, through its eigendecomposition."""
    _check_dense_qubits(total.shape[0].bit_length() - 1, "dense evolution")
    vals, vecs = linalg.eigh(total)
    phases = np.exp(-1j * vals * t)
    return vecs @ (phases * (vecs.conj().T @ amps))


class TrotterStep:
    """One symmetric Trotter step in applied form.

    Factors are the exponentials e^{-i H_l delta} of the local terms,
    applied in listed order and then in reverse, so a single step equals
    [e^{-i H_1 d} ... e^{-i H_L d}][e^{-i H_L d} ... e^{-i H_1 d}] acting
    on the state (each factor as the module docstring says). `apply`
    renormalises a state whose norm has drifted (qstate.NORM_DRIFT), so
    that long runs stay measurable.
    """

    __slots__ = ("qubits", "delta", "factors")

    def __init__(self, h: HamiltonianTerms, delta: float):
        self.qubits = h.qubits
        self.delta = float(delta)
        exponentials = [
            (_exponential(mat, pauli, self.delta), targets)
            for (mat, targets), pauli in zip(h.terms, h.paulis)
        ]
        self.factors = tuple(exponentials + exponentials[::-1])

    def apply(self, s: StateVector) -> StateVector:
        if s.qubits != self.qubits:
            raise DomainError("state size does not match the step")
        amps = np.array(s.amps, dtype=np.complex128)
        for mat, targets in self.factors:
            _apply_matrix(amps, self.qubits, mat, targets)
        return _renormalized(StateVector(self.qubits, amps, _trusted=True))


def _exponential(mat: np.ndarray, pauli, delta: float) -> np.ndarray:
    """e^{-i mat delta}; in closed form when `pauli` is mat's (c, P) form."""
    if pauli is None:
        return linalg.expm_hermitian(mat, -1j * delta)
    c, p = pauli
    theta = c * delta
    return math.cos(theta) * np.eye(len(p)) - (1j * math.sin(theta)) * p


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
    t_measure); the dense Hamiltonian is evolved, so b is not term-capped,
    but dense-capped before anything is allocated."""
    _check_dense_qubits(b, "dense evolution")
    uniform = hadamard_layer(b)
    mat, t_measure = _search_matrix(marked, uniform)
    evolved = _evolve_dense(mat, t_measure, uniform.amps)
    return float(np.abs(evolved[marked]) ** 2), t_measure


@functools.cache
def qmc_problem():
    """(model, observable) of trotter_qmc: the two-qubit Ising chain with
    coupling 0.6 and field 0.7, and Z (x) I; the input state is |00>.
    Built on first use, then the same read-only objects on every call."""
    return ising_chain(2, coupling=0.6, field=0.7), Observable(linalg.kron(PAULI_Z, np.eye(2)))


@functools.lru_cache(maxsize=16, typed=True)
def _qmc_law(t_final: float, steps: int) -> tuple:
    """The `qmc_law` of trotter_qmc: |00> prepared by `steps` Trotter steps
    to t_final, against its exact evolution. Built on first use and kept
    read-only for the next call with the same (t_final, steps); the law does
    not depend on the seed. Typed, so a float step count still raises where
    a cached int one would answer. Bounded: an entry is two floats, two
    2-entry arrays and a table, under 1 KiB, so 16 slots hold under 16 KiB."""
    model, obs = qmc_problem()
    psi0 = basis_state(2, 0)
    prepared = trotter_evolve(model, TrotterPlan(t_final, steps), psi0)[-1]
    law = qmc_law(obs, prepared, exact_evolve(model, t_final, psi0))
    law[2].flags.writeable = law[3].probs.flags.writeable = False
    return law


def trotter_qmc(t_final: float, steps: int, shots: int, rng: Stream) -> QmcResult:
    """qmc_estimate of Z (x) I after a `steps`-step Trotterized evolution of
    |00>; the law comes from `_qmc_law`, the shots from `rng`."""
    return qmc_draws(_qmc_law(t_final, steps), shots, rng)


def ising_chain(qubits: int, coupling: float = 0.5, field: float = 0.4) -> HamiltonianTerms:
    """Transverse-field Ising chain: ZZ couplings on neighbors plus X
    fields. Non-commuting for any nonzero coupling and field; the
    reference model for Trotter error measurements."""
    if qubits < 2:
        raise DomainError("the chain needs at least two qubits")
    terms = []
    zz = linalg.kron(PAULI_Z, PAULI_Z)
    for q in range(qubits - 1):
        terms.append((coupling * zz, (q, q + 1)))
    for q in range(qubits):
        terms.append((field * PAULI_X, (q,)))
    return HamiltonianTerms(qubits, tuple(terms))


def commuting_chain(qubits: int, coupling: float = 0.5) -> HamiltonianTerms:
    """All-ZZ chain; every term commutes, so the Trotter step is exact."""
    if qubits < 2:
        raise DomainError("the chain needs at least two qubits")
    zz = linalg.kron(PAULI_Z, PAULI_Z)
    terms = [(coupling * zz, (q, q + 1)) for q in range(qubits - 1)]
    return HamiltonianTerms(qubits, tuple(terms))

