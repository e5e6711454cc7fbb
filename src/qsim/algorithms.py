"""QFT, phase estimation with register-size planning, Grover search with
quantum counting, and small-modulus order finding.

Phase estimation follows the two-stage procedure: a Hadamard layer on the
b-qubit register, the controlled-U^(2^j) ladder (register qubit j controls
U^(2^(b-1-j))), an inverse QFT, and a register measurement whose value
over 2^b estimates the eigenphase. On an eigenstate the register follows
the Fejer kernel, counting mixes it at two eigenphases and order finding
has Shor's closed form; the dense routes are in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import laws, statharness
from .errors import DomainError, InternalError, NotFoundError, ResourceError, ValidationError
from .gates import (
    BooleanOracle,
    Circuit,
    GateOp,
    controlled,
    hadamard,
    inverse_circuit,
    phase_gate,
    run_circuit,
    swap_gate,
)
from .qstate import StateVector, _check_dense_qubits, _check_qubit_count, basis_state
from .qstate import fidelity, random_state
from .rng import BornTable, Stream, sample_indices


def register_size(zeta: float, epsilon: float) -> int:
    """Register qubits needed for accuracy zeta at failure probability
    epsilon: ceil(log2(1/zeta)) + ceil(log2(2 + 1/(2 epsilon)))."""
    if not 0.0 < zeta < 1.0:
        raise DomainError(f"accuracy zeta = {zeta} must lie in (0, 1)")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"failure probability epsilon = {epsilon} must lie in (0, 1)")
    return math.ceil(math.log2(1.0 / zeta)) + math.ceil(math.log2(2.0 + 1.0 / (2.0 * epsilon)))


@dataclass(frozen=True)
class PhasePlan:
    """Accuracy/confidence plan for phase estimation; b is derived."""

    zeta: float
    epsilon: float
    b: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "b", register_size(self.zeta, self.epsilon))


def phase_distance(a, b):
    """Distance on the phase circle (modulo 1), elementwise."""
    d = np.abs(a - b) % 1.0
    return np.minimum(d, 1.0 - d)


# ---------------------------------------------------------------------------
# quantum Fourier transform


def qft(n: int) -> Circuit:
    """QFT circuit from the product representation: Hadamards, controlled
    phase rotations, and the closing swap network. O(n^2) gates, none
    built for a register past the qubit cap."""
    if n < 1:
        raise DomainError("QFT needs at least one qubit")
    _check_qubit_count(n)
    ops = []
    for i in range(n):
        ops.append(hadamard(i))
        for m in range(i + 1, n):
            angle = math.ldexp(math.pi, i - m)  # 2 pi / 2^(m - i + 1), no int to overflow
            ops.append(controlled(phase_gate(angle, i), m))
    for i in range(n // 2):
        ops.append(swap_gate(i, n - 1 - i))
    return Circuit(n, tuple(ops))


def inverse_qft(n: int) -> Circuit:
    return inverse_circuit(qft(n))


def dft_matrix(n: int) -> np.ndarray:
    """Dense 2^n DFT matrix |j> -> sum_k e^{2 pi i jk / 2^n} |k> / sqrt(2^n);
    the brute-force oracle for the QFT circuit."""
    _check_dense_qubits(n, "the dense DFT")
    dim = 1 << n
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(2j * math.pi * j * k / dim).T / math.sqrt(dim)


def qft_check(n: int, rng: Stream) -> tuple[float, float]:
    """(largest amplitude error of the QFT circuit against the dense DFT,
    fidelity of a random state from rng after the QFT and its inverse)."""
    _check_dense_qubits(n, "the dense DFT")  # before the O(n^2) gates of a huge n
    circuit = qft(n)
    dense = dft_matrix(n)
    worst = 0.0
    for j in range(1 << n):
        out = run_circuit(circuit, basis_state(n, j))
        worst = max(worst, float(np.max(np.abs(out.amps - dense[:, j]))))
    s = random_state(n, rng)
    return worst, fidelity(run_circuit(inverse_qft(n), run_circuit(circuit, s)), s)


# ---------------------------------------------------------------------------
# phase estimation


def _pe_register_distribution(phi: float, b: int) -> np.ndarray:
    """Phase estimation's register distribution on an eigenstate of phase
    phi: the Fejer kernel (Nielsen & Chuang 5.2.1; Cleve et al. 1998)

        P(m) = sin^2(pi M d) / (M^2 sin^2(pi d)),  d = phi - m/M,  M = 2^b,

    and 1 where d is an integer. With n the integer nearest M phi, t = M phi - n
    is exact (0 below 2^-900, where P rounds to the one-hot at n) and
    sin^2(pi M d) = sin^2(pi t); M d is t - j mod M, j = m - n in [-M/2, M/2).
    """
    M = 1 << b
    n = round(phi * M)
    t = phi * M - n if abs(phi * M - n) >= 2.0**-900 else 0.0
    j = (np.arange(M) - n % M + M // 2) % M - M // 2
    den = np.sin((t - j) * (math.pi / M))
    dist = np.divide(math.sin(math.pi * t) / M, den, out=np.ones(M), where=den != 0.0)
    return np.square(dist, out=dist)


def phase_estimation_circuit(phi: float, b: int) -> Circuit:
    """Phase estimation of U = diag(1, e^{2 pi i phi}) on qubit b, which the
    caller prepares in |1>, as gates: Hadamards on register qubits 0..b-1,
    qubit j controlling U^(2^(b-1-j)), then the inverse QFT on the register."""
    ops = [hadamard(j) for j in range(b)]
    for j in range(b):
        turn = math.ldexp(phi, b - 1 - j) % 1.0  # exact, so the angle rounds once
        ops.append(controlled(phase_gate(2.0 * math.pi * turn, b), j))
    return Circuit(b + 1, (*ops, *inverse_qft(b).ops))


EIGENSTATE_TOL = 1e-8


def phase_estimates(u: GateOp, eigenstate: StateVector, plan: PhasePlan, shots: int,
                    rng: Stream) -> np.ndarray:
    """Estimate the eigenphase phi of u (eigenvalue e^{2 pi i phi}) `shots`
    times, shot i drawn from rng.substream(i), into a float array; the
    register distribution is the closed form at phi = arg(<psi|u|psi>) / 2 pi,
    drawn through `_pe_draws`.

    Exactly b-bit phases are recovered deterministically; otherwise
    |estimate - phi| <= zeta (mod 1) with probability at least 1 - epsilon.
    """
    if u.controls:
        raise DomainError("phase estimation takes an uncontrolled unitary")
    k = len(u.targets)
    if eigenstate.qubits != k:
        raise DomainError(
            f"eigenstate register has {eigenstate.qubits} qubits, unitary acts on {k}"
        )
    _check_qubit_count(plan.b + k)
    applied = u.matrix @ eigenstate.amps
    lam = complex(np.vdot(eigenstate.amps, applied))
    if np.linalg.norm(applied - lam * eigenstate.amps) > EIGENSTATE_TOL:
        raise ValidationError("input state is not an eigenvector of the unitary")
    return _pe_draws(lam, plan.b, shots, rng)


@laws.kept
def _pe_table(phi: float, b: int) -> BornTable:
    """The `BornTable` of `_pe_register_distribution(phi, b)`, kept per phase
    and register size; the law does not depend on the seed."""
    return BornTable(_pe_register_distribution(phi, b))


def _pe_draws(lam: complex, b: int, shots: int, rng: Stream) -> np.ndarray:
    """`shots` b-bit phase estimates on an eigenstate of eigenvalue lam,
    shot i drawn from rng.substream(i), from the kept table at
    phi = atan2(lam) / 2 pi mod 1."""
    phi = math.atan2(lam.imag, lam.real) / (2.0 * math.pi) % 1.0
    draws = rng.shot_uniforms(shots, 1)[:, 0]
    return _pe_table(phi, b).sample(draws) / float(1 << b)


def phase_coverage(phi: float, plan: PhasePlan, shots: int, rng: Stream) -> float:
    """Fraction of `shots` estimates of the phase of diag(1, e^{2 pi i phi})
    on |1>, shot i drawn from rng.substream(i), that lie within plan.zeta.
    |1> has eigenvalue e^{2 pi i phi}, so the estimates are `_pe_draws` of it."""
    if not math.isfinite(phi):
        raise DomainError(f"phase must be finite, got {phi!r}")
    _check_qubit_count(plan.b + 1)
    lam = complex(np.exp(2j * math.pi * phi))
    d = phase_distance(_pe_draws(lam, plan.b, shots, rng), phi)
    return int(np.count_nonzero(d <= plan.zeta)) / shots


# ---------------------------------------------------------------------------
# Grover search


@dataclass(frozen=True)
class GroverPlan:
    """Rotation geometry for N = 2^b items with M solutions."""

    N: int
    M: int
    theta: float
    R: int

    @classmethod
    def for_counts(cls, N: int, M: int) -> "GroverPlan":
        if M < 1 or 2 * M > N:
            raise DomainError(f"solution count M = {M} must satisfy 1 <= M <= N/2")
        theta = 2.0 * math.asin(math.sqrt(M / N))
        r = round(math.acos(math.sqrt(M / N)) / theta)
        if r > (math.pi / 4.0) * math.sqrt(N / M) + 1.0:
            raise InternalError("iteration count exceeded its analytic bound")
        return cls(N=N, M=M, theta=theta, R=r)

    @property
    def success_probability(self) -> float:
        """sin^2((2R + 1) theta / 2), the solution mass after R iterations."""
        return math.sin((2 * self.R + 1) * self.theta / 2.0) ** 2


def _grover_amps(f: BooleanOracle, r: int) -> np.ndarray:
    """Amplitudes after r Grover iterations from the uniform start: each
    iteration is the oracle phase flip then inversion about the mean."""
    signs = 1.0 - 2.0 * f.values().astype(float)
    n = signs.shape[0]
    amps = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(r):
        amps = amps * signs
        amps = 2.0 * amps.mean() - amps
    return amps


def grover_solution_amplitude(f: BooleanOracle, M: int, r: int) -> float:
    """sqrt of the probability mass on the solution subspace after r
    iterations; equals sin((2r+1) theta / 2)."""
    GroverPlan.for_counts(1 << f.b, M)
    amps = _grover_amps(f, r)
    return float(np.sqrt(np.sum(amps[f.values() == 1] ** 2)))


def _grover_probs(f: BooleanOracle, M: int) -> np.ndarray:
    """Measurement distribution after the planned Grover iterations, for an
    oracle checked to mark exactly M solutions."""
    plan = GroverPlan.for_counts(1 << f.b, M)
    actual = f.solution_count()
    if actual != M:
        raise ValidationError(f"oracle marks {actual} solutions, caller claimed {M}")
    return _grover_amps(f, plan.R) ** 2


def grover_search(f: BooleanOracle, M: int, shots: int, rng: Stream) -> np.ndarray:
    """Run Grover search and measure `shots` times, shot i drawn from
    rng.substream(i); each returned index satisfies f with probability at
    least 1 - M/N."""
    return sample_indices(_grover_probs(f, M), rng.shot_uniforms(shots, 1)[:, 0])


def grover_success_rate(f: BooleanOracle, marked: int, shots: int, rng: Stream) -> float:
    """Fraction of `shots` searches, shot i on rng.substream(i), that find `marked`."""
    return int(np.count_nonzero(grover_search(f, 1, shots, rng) == marked)) / shots


def quantum_counts(f: BooleanOracle, plan: PhasePlan, shots: int, rng: Stream) -> np.ndarray:
    """Estimate the solution count M by phase-estimating the Grover operator
    `shots` times, shot i drawn from rng.substream(i), into an int64 array.
    The uniform state has weight 1/2 on each eigenvector of phase +-omega,
    sin^2(pi omega) = M/N (Brassard, Hoyer, Mosca & Tapp 2002), so the
    register reads the mean of the kernel at omega and its mirror
    m -> -m mod 2^b. Estimates above one half are folded down before
    inverting sin^2(theta/2) = M/N, once for each register value drawn."""
    _check_qubit_count(plan.b + f.b)
    draws = rng.shot_uniforms(shots, 1)[:, 0]
    N = 1 << f.b
    dist = _pe_register_distribution(math.asin(math.sqrt(f.solution_count() / N)) / math.pi, plan.b)
    dist += np.roll(dist[::-1], 1)
    dist *= 0.5
    values, shot_values = np.unique(sample_indices(dist, draws), return_inverse=True)
    counts = []
    for i in values.tolist():
        omega = i / float(1 << plan.b)
        theta = 2.0 * math.pi * min(omega, 1.0 - omega)
        counts.append(min(max(round(N * math.sin(theta / 2.0) ** 2), 0), N))
    return np.array(counts, dtype=np.int64)[shot_values]


# ---------------------------------------------------------------------------
# order finding

ORDER_MAX_MODULUS = 64
ORDER_MAX_RUNS = 25


def _check_order_modulus(N: int) -> None:
    if N > ORDER_MAX_MODULUS:
        raise ResourceError(f"order finding is dense desk scale: N <= {ORDER_MAX_MODULUS}")


def _modmul_qubits(x: int, N: int) -> int:
    """Check that y -> x y mod N is a permutation; its qubit count ceil(log2 N)."""
    if N < 2:
        raise DomainError("modulus must be at least 2")
    if not 1 <= x < N:
        raise DomainError(f"base x = {x} must satisfy 1 <= x < N")
    if math.gcd(x, N) != 1:
        raise DomainError(f"gcd({x}, {N}) != 1; modular multiplication is not invertible")
    return max(1, math.ceil(math.log2(N)))


def order_brute_force(x: int, N: int) -> int:
    """Smallest r with x^r = 1 (mod N), by direct scan."""
    if N < 2:
        raise DomainError("modulus must be at least 2")
    if math.gcd(x, N) != 1:
        raise DomainError(f"gcd({x}, {N}) != 1")
    value = x % N
    for r in range(1, N + 1):
        if value == 1:
            return r
        value = (value * x) % N
    raise InternalError("order scan failed; inputs were not coprime")


def _order_candidate(phi: float, x: int, N: int, window: float):
    """Denominator scan: the unique reduced fraction c/d (d <= N) inside the
    window around phi, extended over multiples of d and minimized over
    divisors once a verified order is found."""
    for d in range(1, N + 1):
        c = round(phi * d)
        if abs(phi - c / d) <= window:
            mult = d
            while mult <= N:
                if pow(x, mult, N) == 1:
                    for div in range(1, mult + 1):
                        if mult % div == 0 and pow(x, div, N) == 1:
                            return div
                mult += d
            return None
    return None


@laws.kept
def _sin2_table(b: int) -> np.ndarray:
    """S(j) = sin^2(pi j / M) for every j < M = 2^b, kept. S(M - j) = S(j),
    so it is computed up to M/2 and mirrored."""
    M = 1 << b
    half = np.sin(np.pi / M * np.arange(M // 2 + 1)) ** 2
    return np.concatenate((half, half[-2:0:-1]))


def _orbit_register_distribution(r: int, b: int) -> np.ndarray:
    """Register distribution of order finding, in closed form (Shor 1997,
    section 5; Nielsen & Chuang 5.3.1): the phase-estimation distribution
    of multiplication by x mod N from |1>, whose orbit has length r.

    U^j|1> = |x^j mod N> depends on j mod r only, so orbit offset t < r
    collects the n_t register values j = t, t + r, ... below M = 2^b:
    L = ceil(M/r) of them for the a = M - (L-1) r offsets t < a, L - 1 for
    the rest. Their DFT at m is a geometric sum in e^{-2 pi i k / M},
    k = m r mod M, so with S(j) = sin^2(pi j / M) (`_sin2_table`)

        P(m) = [a S(k L) + (r - a) S(k (L-1))] / (M^2 S(k)),

    and P(m) = (a L^2 + (r - a) (L-1)^2) / M^2 where k = 0, that is where
    M / gcd(r, M) divides m. Every argument is reduced mod M on integers.
    P(M - m) = P(m), so P is computed up to M/2, in place in the first
    half of the result, and mirrored.
    """
    M = 1 << b
    L = -(-M // r)
    a = M - (L - 1) * r
    sin2 = _sin2_table(b)
    m = np.arange(M // 2 + 1)
    at = np.empty_like(m)

    def s_of(c, out=None):  # S(m c mod M) for every m <= M/2
        np.bitwise_and(np.multiply(m, c, out=at), M - 1, out=at)
        return sin2.take(at, out=out, mode="clip")  # in range; "clip" is unbuffered

    dist = np.empty(M)
    half = dist[: M // 2 + 1]
    s_of(r * L, out=half)
    half *= a / M**2
    part = s_of(r * (L - 1))
    part *= (r - a) / M**2
    half += part
    den = s_of(r, out=part)
    peaks = slice(None, None, M // math.gcd(r, M))
    den[peaks] = 1.0
    half /= den
    half[peaks] = (a * L * L + (r - a) * (L - 1) ** 2) / M**2
    dist[M // 2 + 1 :] = half[-2:0:-1]
    return dist


@laws.kept
def _orbit_table(r: int, b: int) -> BornTable:
    """The `BornTable` of `_orbit_register_distribution(r, b)`, kept for the
    next order-finding call with the same orbit length and register size.
    The law depends on (r, b) alone, so every pair x, N with that orbit
    draws from one table."""
    return BornTable(_orbit_register_distribution(r, b))


def order_find(x: int, N: int, rng: Stream) -> int:
    """Find the order of x modulo N by phase estimation on the modular
    multiplication gate, started from register state |1> (the uniform
    mixture of the eigenvectors u_s with phases s/r).

    The register distribution is the closed form of
    `_orbit_register_distribution`, from the length r of the orbit of 1
    under y -> x y mod N; phase estimation on the dense modular
    multiplication gate (`tests/oracles.py`'s `modmul_unitary`) is the
    route it stands for. Its Born table comes from `_orbit_table`, built
    once per (r, b), and attempt i draws from it with the first uniform of
    rng.substream(i), given as one float: on a table that keeps its edges
    the draw is one scalar search. Each run measures a phase estimate,
    recovers a candidate denominator, and verifies x^r = 1 (mod N);
    repetition is driven by the verified repetition strategy. Raises
    NotFoundError when none of ORDER_MAX_RUNS runs verifies.
    """
    _check_order_modulus(N)
    k = _modmul_qubits(x, N)
    b = 2 * k + 4
    _check_qubit_count(b + k)
    window = 0.5 ** (2 * k + 1)
    r, y = 1, x
    while y != 1:
        r, y = r + 1, y * x % N
    table = _orbit_table(r, b)
    scale = float(1 << b)

    def run(attempt: int):
        idx = table.sample(rng.substream(attempt).uniform())
        return _order_candidate(idx / scale, x, N, window)

    def verify(candidate):
        return candidate is not None and pow(x, candidate, N) == 1

    report = statharness.repeat_verified(run, verify, ORDER_MAX_RUNS)
    return report.estimate


def order_trial(x: int, N: int, rng: Stream):
    """(order_find's answer, or None if its budget ran out; the true order).
    The modulus cap comes after the reference's checks, before its N-step scan."""
    if math.gcd(x, N) == 1:
        _check_order_modulus(N)
    reference = order_brute_force(x, N)
    try:
        return order_find(x, N, rng), reference
    except NotFoundError:
        return None, reference
