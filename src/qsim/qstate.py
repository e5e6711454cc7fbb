"""States, density matrices, observables, and projective measurement.

Amplitudes are numpy complex128. Basis labels follow the big-endian
convention: for a b-qubit register the basis index of |x_0 x_1 ... x_{b-1}>
is x_0 * 2^(b-1) + ... + x_{b-1}, i.e. qubit 0 is the most significant bit
and reads leftmost in ket notation.

States and matrices are immutable values: every operation returns a new
object, and all randomness comes from an explicit Stream, so operations
are pure and safe to share across threads.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import linalg
from .errors import (
    ConditioningError,
    DomainError,
    NumericalConsistencyError,
    ResourceError,
    ValidationError,
)
from .rng import Stream, sample_index, sample_indices

NORM_TOL = 1e-10
DERIVED_TOL = 1e-9
EIGENVALUE_MERGE_TOL = 1e-9
ENTROPY_CLAMP = 1e-14
IMAG_RESIDUE_ERROR = 1e-8
DEFAULT_QUBIT_CAP = 24
QUBIT_CAP_ENV = "QSIM_MAX_QUBITS"
# Dense 2^n x 2^n matrices (oracles, exact evolution): 16 MiB at 10 qubits.
DENSE_MAX_QUBITS = 10
# Evolution renormalises a state whose squared norm has drifted further
# than this from 1. Each gate adds about 1e-16, so a long Trotter run would
# otherwise drift past the Born sampler's CDF_RESIDUAL of 1e-12.
NORM_DRIFT = 1e-13


def qubit_cap() -> int:
    """Maximum register size; QSIM_MAX_QUBITS overrides the default of 24."""
    raw = os.environ.get(QUBIT_CAP_ENV)
    if raw is None:
        return DEFAULT_QUBIT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DomainError(f"{QUBIT_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise DomainError(f"{QUBIT_CAP_ENV} must be >= 1, got {cap}")
    return cap


def _check_qubit_count(b: int) -> int:
    if not isinstance(b, (int, np.integer)) or b < 1:
        raise DomainError(f"qubit count must be a positive integer, got {b!r}")
    cap = qubit_cap()
    if b > cap:
        raise ResourceError(f"{b} qubits exceeds the configured cap of {cap}")
    return int(b)


def _check_dense_qubits(n: int, what: str) -> None:
    """Refuse a dense 2^n x 2^n matrix above DENSE_MAX_QUBITS, before allocating it."""
    if n > DENSE_MAX_QUBITS:
        raise ResourceError(f"{what} supports at most {DENSE_MAX_QUBITS} qubits")


class StateVector:
    """Pure state of `qubits` qubits: 2^qubits amplitudes with unit norm."""

    __slots__ = ("qubits", "amps")

    def __init__(self, qubits: int, amps, *, _trusted: bool = False):
        if _trusted:
            assert amps.dtype == np.complex128, f"trusted amplitudes are {amps.dtype}"
            self.qubits = qubits
            self.amps = amps
            return
        b = _check_qubit_count(qubits)
        vec = np.asarray(amps, dtype=complex).reshape(-1)
        if vec.shape[0] != 1 << b:
            raise ValidationError(
                f"expected {1 << b} amplitudes for {b} qubits, got {vec.shape[0]}"
            )
        if not np.isfinite(vec).all():
            raise ValidationError("amplitudes contain non-finite values")
        norm_sq = float(np.sum(np.abs(vec) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValidationError(f"state norm^2 = {norm_sq!r} is not 1 within {NORM_TOL}")
        self.qubits = b
        self.amps = vec.copy()

    @property
    def dim(self) -> int:
        return 1 << self.qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def __repr__(self):
        return f"StateVector(qubits={self.qubits})"


class DensityMatrix:
    """Hermitian, positive semi-definite, trace-1 operator on `qubits` qubits."""

    __slots__ = ("qubits", "mat")

    def __init__(self, qubits: int, mat, *, _trusted: bool = False):
        if _trusted:
            assert mat.dtype == np.complex128, f"trusted matrix is {mat.dtype}"
            self.qubits = qubits
            self.mat = mat
            return
        b = _check_qubit_count(qubits)
        m = linalg.as_complex_matrix(mat)
        if m.shape[0] != 1 << b:
            raise ValidationError(f"expected a {1 << b}-dim matrix for {b} qubits")
        linalg.require_hermitian(m, NORM_TOL)
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > NORM_TOL:
            raise ValidationError(f"trace = {trace!r} is not 1 within {NORM_TOL}")
        eigvals, _ = linalg.eigh(m)
        if eigvals[0] < -NORM_TOL:
            raise ValidationError(f"matrix has negative eigenvalue {eigvals[0]:.3e}")
        self.qubits = b
        self.mat = m.copy()

    @property
    def dim(self) -> int:
        return 1 << self.qubits

    def __repr__(self):
        return f"DensityMatrix(qubits={self.qubits})"


class Observable:
    """Hermitian operator with a cached spectral decomposition.

    `spectrum` is a list of (eigenvalue, projector) pairs; eigenvalues
    closer than EIGENVALUE_MERGE_TOL are merged into one projector. `mat`
    and the projectors are read-only, and `mat` is a copy of the input.
    """

    __slots__ = ("mat", "spectrum")

    def __init__(self, mat):
        self.mat = linalg.as_complex_matrix(mat).copy()
        self.mat.flags.writeable = False
        self.spectrum = self._decompose(self.mat)
        for _, projector in self.spectrum:
            projector.flags.writeable = False
        self._validate()

    @staticmethod
    def _decompose(mat):
        eigvals, eigvecs = linalg.eigh(mat)
        groups = []
        start = 0
        for i in range(1, len(eigvals) + 1):
            if i == len(eigvals) or eigvals[i] - eigvals[i - 1] > EIGENVALUE_MERGE_TOL:
                groups.append((start, i))
                start = i
        spectrum = []
        for lo, hi in groups:
            vecs = eigvecs[:, lo:hi]
            projector = vecs @ vecs.conj().T
            spectrum.append((float(eigvals[lo:hi].mean()), projector))
        return spectrum

    def _validate(self):
        dim = self.mat.shape[0]
        total = sum(q for _, q in self.spectrum)
        if np.abs(total - np.eye(dim)).max() > DERIVED_TOL:
            raise ValidationError("projectors do not sum to the identity")
        recon = sum(x * q for x, q in self.spectrum)
        if np.abs(recon - self.mat).max() > DERIVED_TOL:
            raise ValidationError("spectral decomposition does not reproduce the matrix")
        for i, (_, qa) in enumerate(self.spectrum):
            for _, qc in self.spectrum[i + 1 :]:
                if np.abs(qa @ qc).max() > DERIVED_TOL:
                    raise ValidationError("projectors are not mutually orthogonal")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def eigenvalues(self):
        return [x for x, _ in self.spectrum]

    def __repr__(self):
        return f"Observable(dim={self.dim}, levels={len(self.spectrum)})"


# ---------------------------------------------------------------------------
# gate application kernel


def _apply_matrix(amps, b, mat, targets, controls=()):
    """Apply `mat` to the target qubits of a contiguous complex128 2^b
    amplitude array, in place, conditioned on all control qubits being 1.
    Returns `amps`; callers that must keep their input pass a copy.

    The controls are fixed to 1 by slicing, the remaining block is
    transposed so that the targets are its last axes, and every row of
    2^k target amplitudes is multiplied by mat^T.
    """
    sel = [slice(None)] * b
    for c in controls:
        sel[c] = 1
    block = amps.reshape((2,) * b)[tuple(sel)]
    free = [q for q in range(b) if q not in controls]
    order = [i for i, q in enumerate(free) if q not in targets]
    order += [free.index(t) for t in targets]
    active = block.transpose(order)
    rows = active.reshape(-1, 1 << len(targets))
    active[...] = (rows @ mat.T).reshape(active.shape)
    return amps


def _renormalized(s: StateVector) -> StateVector:
    """`s`, or `s` scaled to unit norm when its squared norm has drifted
    from 1 by more than NORM_DRIFT."""
    norm2 = np.vdot(s.amps, s.amps).real
    if abs(norm2 - 1.0) <= NORM_DRIFT:
        return s
    return StateVector(s.qubits, s.amps / math.sqrt(norm2), _trusted=True)


def _check_targets(b, targets, controls=()):
    seen = set()
    for q in list(targets) + list(controls):
        if not isinstance(q, (int, np.integer)) or not 0 <= q < b:
            raise DomainError(f"qubit index {q!r} out of range for {b} qubits")
        if q in seen:
            raise DomainError(f"qubit index {q} repeated across targets/controls")
        seen.add(q)


# ---------------------------------------------------------------------------
# operations


def basis_state(b: int, x: int) -> StateVector:
    """Computational basis state |x> on b qubits."""
    b = _check_qubit_count(b)
    if not 0 <= x < (1 << b):
        raise DomainError(f"basis index {x} out of range for {b} qubits")
    amps = np.zeros(1 << b, dtype=complex)
    amps[x] = 1.0
    return StateVector(b, amps, _trusted=True)


def tensor(a: StateVector, c: StateVector) -> StateVector:
    """Composite state a (x) c; a's qubits become the most significant."""
    b = _check_qubit_count(a.qubits + c.qubits)
    return StateVector(b, linalg.kron(a.amps, c.amps), _trusted=True)


def apply_unitary(s: StateVector, u, targets) -> StateVector:
    """Apply unitary u to the listed target qubits (identity elsewhere)."""
    mat = linalg.require_unitary(u)
    targets = list(targets)
    _check_targets(s.qubits, targets)
    if mat.shape[0] != 1 << len(targets):
        raise DomainError(
            f"matrix dimension {mat.shape[0]} does not match {len(targets)} target qubits"
        )
    out = _apply_matrix(np.array(s.amps, dtype=np.complex128), s.qubits, mat, targets)
    return StateVector(s.qubits, out, _trusted=True)


def marginal(s: StateVector, subset) -> np.ndarray:
    """Born distribution of a qubit subset: entry x is the probability of
    reading the bits of x on the subset's qubits, in the listed order."""
    subset = list(subset)
    if not subset:
        raise DomainError("measurement subset must be non-empty")
    _check_targets(s.qubits, subset)
    probs = np.abs(s.amps.reshape((2,) * s.qubits)) ** 2
    other = tuple(i for i in range(s.qubits) if i not in subset)
    if other:
        probs = probs.sum(axis=other)
    ordered = sorted(subset)
    return probs.transpose([ordered.index(q) for q in subset]).reshape(-1)


def measure_qubits(s: StateVector, subset, rng: Stream):
    """Projective measurement of a qubit subset in the computational basis.

    Samples an outcome bitstring by the Born rule over the subset's
    marginal, collapses the state, and returns (bits, post_state).
    """
    subset = list(subset)
    idx, prob = sample_index(marginal(s, subset), rng)
    bits = format(idx, f"0{len(subset)}b")
    b = s.qubits
    psi = s.amps.reshape((2,) * b)
    sel = [slice(None)] * b
    for q, bit in zip(subset, bits):
        sel[q] = int(bit)
    post = np.zeros_like(psi)
    post[tuple(sel)] = psi[tuple(sel)]
    post = post.reshape(-1) / math.sqrt(prob)
    return bits, StateVector(b, post, _trusted=True)


def _projections(s: StateVector, obs: Observable) -> list:
    """Q_a|psi> for each level a of `obs`, unnormalised."""
    if obs.dim != s.dim:
        raise DomainError(f"observable dim {obs.dim} does not match state dim {s.dim}")
    return [q @ s.amps for _, q in obs.spectrum]


def _born_weights(s: StateVector, projected) -> list:
    """<psi|Q_a|psi> for each branch Q_a|psi>, as Python floats."""
    return [float(np.real(np.vdot(s.amps, qpsi))) for qpsi in projected]


def collapse(s: StateVector, values, projected, rng: Stream):
    """Projective measurement given its branches: `projected[a]` is
    Q_a|psi> for a complete set of orthogonal projectors Q_a, and
    `values[a]` names outcome a. Samples a with <psi|Q_a|psi> and returns
    (values[a], Q_a|psi>/sqrt(P(a)))."""
    idx, prob = sample_index(_born_weights(s, projected), rng)
    return values[idx], StateVector(s.qubits, projected[idx] / math.sqrt(prob), _trusted=True)


def measure_observable(s: StateVector, obs: Observable, rng: Stream):
    """Measure an observable: samples eigenvalue x_a with <psi|Q_a|psi>,
    collapses to Q_a|psi>/sqrt(P(a)). Returns (eigenvalue, post_state)."""
    return collapse(s, obs.eigenvalues(), _projections(s, obs), rng)


def measure_sequence(s: StateVector, observables, u) -> np.ndarray:
    """Eigenvalues of `observables` measured in turn, each on the previous
    post-state: row i holds what chained `measure_observable` calls return
    on a stream whose draws are u[i], for a (shots, levels) array `u`. Each
    branch is computed once and sampled for all its shots at once; the last
    observable's post-states are never built."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != len(observables):
        raise DomainError(f"need a (shots, {len(observables)}) array of draws, got {u.shape}")
    out = np.empty(u.shape)
    if not observables:
        return out
    obs, rest = observables[0], observables[1:]
    projected = _projections(s, obs)
    probs = _born_weights(s, projected)
    picks = sample_indices(probs, u[:, 0])
    out[:, 0] = np.array(obs.eigenvalues())[picks]
    if rest:
        for idx in np.flatnonzero(np.bincount(picks, minlength=len(probs))).tolist():
            post = StateVector(s.qubits, projected[idx] / math.sqrt(probs[idx]), _trusted=True)
            rows = picks == idx
            out[rows, 1:] = measure_sequence(post, rest, u[rows, 1:])
    return out


def _expect_matrix(state, mat) -> float:
    if isinstance(state, StateVector):
        value = complex(np.vdot(state.amps, mat @ state.amps))
    elif isinstance(state, DensityMatrix):
        value = complex(np.trace(mat @ state.mat))
    else:
        raise DomainError(f"expected StateVector or DensityMatrix, got {type(state)!r}")
    if abs(value.imag) > IMAG_RESIDUE_ERROR:
        raise NumericalConsistencyError(
            f"expectation has imaginary residue {value.imag:.3e}"
        )
    return value.real


def _check_dim(state, obs: Observable):
    if obs.dim != getattr(state, "dim", 0):
        raise DomainError("observable dimension does not match state")


def expectation(state, obs: Observable) -> float:
    """<X> = Tr(X rho) (or <psi|X|psi> for pure states)."""
    _check_dim(state, obs)
    return _expect_matrix(state, obs.mat)


def variance(state, obs: Observable) -> float:
    """Var[X] = tr(X^2 rho) - (tr(X rho))^2."""
    _check_dim(state, obs)
    second = _expect_matrix(state, obs.mat @ obs.mat)
    first = _expect_matrix(state, obs.mat)
    return second - first * first


def density_from_ensemble(states, probs) -> DensityMatrix:
    """rho = sum_j p_j |psi_j><psi_j| for an ensemble of pure states."""
    if len(states) != len(probs) or not states:
        raise ValidationError("need equally many states and probabilities")
    p = np.asarray(probs, dtype=float)
    if np.any(p < 0):
        raise ValidationError("ensemble probabilities must be non-negative")
    if abs(float(p.sum()) - 1.0) > NORM_TOL:
        raise ValidationError(f"ensemble probabilities sum to {p.sum()!r}, not 1")
    b = states[0].qubits
    if any(s.qubits != b for s in states):
        raise ValidationError("ensemble states must have equal qubit counts")
    mat = np.zeros((1 << b, 1 << b), dtype=complex)
    for weight, s in zip(p, states):
        mat += weight * np.outer(s.amps, s.amps.conj())
    return DensityMatrix(b, mat)


def posterior_density(rho: DensityMatrix, q):
    """Post-measurement ensemble (Q rho Q / Tr(Q rho), Tr(Q rho))."""
    proj = linalg.require_hermitian(q, DERIVED_TOL)
    if proj.shape[0] != rho.dim:
        raise DomainError("projector dimension does not match state")
    if np.abs(proj @ proj - proj).max() > DERIVED_TOL:
        raise ValidationError("q is not a projector (q^2 != q)")
    prob = float(np.real(np.trace(proj @ rho.mat)))
    if prob < 1e-14:
        raise ConditioningError(f"conditioning on outcome of probability {prob:.3e}")
    post = proj @ rho.mat @ proj / prob
    post = 0.5 * (post + post.conj().T)  # kill rounding asymmetry
    return DensityMatrix(rho.qubits, post), prob


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum lambda_i log2 lambda_i, in bits."""
    eigvals, _ = linalg.eigh(rho.mat)
    s = 0.0
    for lam in eigvals:
        if lam > ENTROPY_CLAMP:
            s -= lam * math.log(lam)
    s /= math.log(2.0)
    return min(max(s, 0.0), float(rho.qubits))


# ---------------------------------------------------------------------------
# comparisons and random instances


def fidelity(a: StateVector, c: StateVector) -> float:
    """|<a|c>|; global phase is irrelevant by construction."""
    if a.qubits != c.qubits:
        raise DomainError("fidelity needs states of equal qubit count")
    return float(abs(np.vdot(a.amps, c.amps)))


def states_equal(a: StateVector, c: StateVector, tol: float = NORM_TOL) -> bool:
    """Equality up to global phase: |<a|c>| >= 1 - tol."""
    return fidelity(a, c) >= 1.0 - tol


def random_state(b: int, rng: Stream) -> StateVector:
    """Haar-ish random pure state: complex Gaussian amplitudes, normalized."""
    b = _check_qubit_count(b)
    amps = np.array(
        [complex(rng.normal(), rng.normal()) for _ in range(1 << b)], dtype=complex
    )
    return StateVector(b, amps / np.linalg.norm(amps), _trusted=True)


def random_density(b: int, rng: Stream) -> DensityMatrix:
    """Random density matrix: A A-dagger normalized to unit trace."""
    b = _check_qubit_count(b)
    dim = 1 << b
    a = np.array(
        [[complex(rng.normal(), rng.normal()) for _ in range(dim)] for _ in range(dim)]
    )
    m = a @ a.conj().T
    m /= np.trace(m).real
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(b, m, _trusted=True)

