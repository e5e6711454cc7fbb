"""Brute-force oracles for the test suite.

These deliberately avoid the package's gate kernel and log-space math:
dense embeddings are built by explicit index arithmetic, binomial
tails by exact Fraction arithmetic and Hermitian eigendecompositions by a
cyclic Jacobi iteration instead of LAPACK, so each test compares two
independent computation routes.
"""

import math
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np
from qsim.algorithms import (
    EIGENSTATE_TOL,
    ORDER_MAX_RUNS,
    _modmul_qubits,
    _orbit_register_distribution,
    _order_candidate,
    _pe_register_distribution,
    inverse_qft,
    phase_distance,
)
from qsim.gates import (
    HADAMARD_MATRIX,
    PAULI_X,
    PAULI_Z,
    GateOp,
    apply_gate,
    hadamard_layer,
    pauli_x,
    pauli_z,
)
from qsim.qec import (
    BIT_FLIP,
    NoiseChannel,
    Syndrome,
    apply_channel,
    encode_bitflip,
    recover_bitflip,
    syndrome_measure,
)
from qsim.cli import build_parser
from qsim.entangle import default_chsh_setting, singlet, spin_observable, teleport
from qsim.errors import DomainError, InternalError, NotFoundError, ValidationError
from qsim.linalg import require_hermitian
from qsim.qstate import (
    Observable,
    StateVector,
    _apply_matrix,
    _born_weights,
    _projections,
    _renormalized,
    expectation,
    fidelity,
    measure_observable,
    measure_qubits,
    measure_sequence,
)
from qsim.rng import CDF_RESIDUAL, PROB_FLOOR, _checked_cdf, _tag_key, sample_index, sample_indices
from qsim.hamsim import TrotterPlan, exact_evolve, qmc_problem, trotter_evolve
from qsim.qstate import _check_qubit_count, basis_state
from qsim.statharness import QmcResult, repeat_verified


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


def per_gate_amplitudes(b: int, gates, amps) -> np.ndarray:
    """The gate-by-gate route that `run_circuit` and `TrotterStep.apply`
    replaced with one private buffer: each (matrix, targets, controls) gate
    runs on a fresh complex128 copy of the amplitudes so far, and the last
    amplitudes are then `_renormalized`."""
    for mat, targets, controls in gates:
        amps = _apply_matrix(np.array(amps, dtype=np.complex128), b, mat, targets, controls)
    return _renormalized(StateVector(b, amps, _trusted=True)).amps


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


def pe_register_out_of_place(u: np.ndarray, psi: np.ndarray, b: int) -> np.ndarray:
    """Register distribution of phase estimation on the closed support of
    psi under U, every step out of place: the columns U^j|psi> by doubling
    with matrix products, the DFT into a new array, and the squared
    magnitudes as new arrays. The library's route must equal it in every bit."""
    live = psi != 0
    while (grown := live | (u[:, live] != 0).any(axis=1)).sum() > live.sum():
        live = grown
    power = u[np.ix_(live, live)]
    cols = np.empty((power.shape[0], 1 << b), dtype=complex)
    cols[:, 0] = psi[live]
    for j in range(b):
        cols[:, 1 << j : 2 << j] = power @ cols[:, : 1 << j]
        power = power @ power
    return (np.abs(np.fft.fft(cols, norm="forward")) ** 2).sum(axis=0)


def grover_operator_matrix(f) -> np.ndarray:
    """Dense N x N Grover operator: the oracle phase flip, then the
    reflection about the uniform state. Quantum counting samples its phase
    estimation from the uniform state in closed form."""
    N = 1 << f.b
    signs = 1.0 - 2.0 * f.values().astype(float)
    reflect = 2.0 / N * np.ones((N, N)) - np.eye(N)
    return (reflect * signs[np.newaxis, :]).astype(complex)


def fejer_longdouble(phi: float, b: int) -> np.ndarray:
    """Phase estimation's closed-form register distribution in np.longdouble:
    P(m) = sin^2(pi t) / (M sin(pi (t - j) / M))^2 with M = 2^b, t = M phi
    less its nearest integer n, and j = m - n mod M in [-M/2, M/2); 1 where
    the denominator is 0."""
    M = 1 << b
    pi = 4 * np.arctan(np.longdouble(1))
    x = np.longdouble(phi) * M
    n = int(np.round(x))
    t = x - n
    j = ((np.arange(M) - n % M + M // 2) % M - M // 2).astype(np.longdouble)
    den = M * np.sin(pi * (t - j) / M)
    ratio = np.ones(M, dtype=np.longdouble)
    np.divide(np.sin(pi * t), den, out=ratio, where=den != 0)
    return ratio * ratio


def kahan_sample_index(probs, rng):
    """The scalar Born sampler before the filter: a Python scan of the
    Kahan CDF. Returns (index, probs[index])."""
    values = probs.tolist() if isinstance(probs, np.ndarray) else probs
    cdf = _checked_cdf(values)
    u = rng.uniform()
    last_valid = -1
    for i, p in enumerate(values):
        if p < PROB_FLOOR:
            continue
        last_valid = i
        if u < cdf[i]:
            return i, probs[i]
    if last_valid < 0:
        raise InternalError("no outcome with probability above the floor")
    return last_valid, probs[last_valid]


def kahan_sample_indices(probs, u) -> np.ndarray:
    """The batched Born sampler before the filter: `np.searchsorted` over
    the running maximum of the non-floored Kahan CDF values, always."""
    probs = np.asarray(probs, dtype=np.float64)
    cdf = np.array(_checked_cdf(probs))
    valid = probs >= PROB_FLOOR
    if not valid.any():
        raise InternalError("no outcome with probability above the floor")
    bounds = np.maximum.accumulate(np.where(valid, cdf, -np.inf))
    last_valid = np.flatnonzero(valid)[-1]
    return np.minimum(np.searchsorted(bounds, u, side="right"), last_valid)


def two_level_sample_indices(probs, u) -> np.ndarray:
    """The batched Born sampler's former filter: the full two-level
    cumulative array (rows of width ceil(sqrt(n)), zero-padded, each
    cumsummed, then the running sum of the row totals added to every row)
    and the bound E = 4 (m + nb + 2) u. A draw more than E from the edges of
    the non-floored entries on both sides is decided there; every other
    draw, and every array the filter cannot certify, by
    `kahan_sample_indices`."""
    probs = np.asarray(probs, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    n = probs.shape[0]
    if n < 128 or not probs.min() >= 0.0:
        return kahan_sample_indices(probs, u)
    width = math.isqrt(n - 1) + 1
    blocks = -(-n // width)
    padded = np.zeros(blocks * width)
    padded[:n] = probs
    rows = padded.reshape(blocks, width).cumsum(axis=1)
    ends = rows[:, -1].cumsum()
    rows[1:] += ends[:-1, None]
    cdf = rows.reshape(-1)[:n]
    bound = 4.0 * (width + blocks + 2) * 2.0**-53
    at = np.flatnonzero(probs >= PROB_FLOOR)
    if not abs(cdf[-1] - 1.0) <= CDF_RESIDUAL - bound or at.size == 0:
        return kahan_sample_indices(probs, u)
    edges = np.concatenate(([-np.inf], cdf[at], [np.inf]))
    k = edges.searchsorted(u, side="right")
    decided = (u - edges[k - 1] > bound) & (edges[k] - u > bound)
    picks = at[np.minimum(k - 1, at.size - 1)]
    if not decided.all():
        picks[~decided] = kahan_sample_indices(probs, u[~decided])
    return picks


def modmul_unitary(x: int, N: int) -> GateOp:
    """Permutation gate |y> -> |x y mod N> on ceil(log2 N) qubits,
    identity on padding states y >= N: the dense gate whose phase
    estimation from |1> order finding samples in closed form."""
    k = _modmul_qubits(x, N)
    dim = 1 << k
    mat = np.zeros((dim, dim), dtype=complex)
    for y in range(dim):
        mat[(x * y) % N if y < N else y, y] = 1.0
    return GateOp(f"modmul({x},{N})", mat, list(range(k)))


def orbit_register_distribution(r: int, b: int) -> np.ndarray:
    """Order finding's closed-form register distribution as first written:
    S(j) = sin^2(pi j / M) rebuilt for the call, out-of-place arithmetic."""
    M = 1 << b
    L = -(-M // r)
    a = M - (L - 1) * r
    m = np.arange(M // 2 + 1)
    sin2 = np.sin(np.pi / M * m) ** 2
    sin2 = np.concatenate((sin2, sin2[-2:0:-1]))

    def s_of(c):
        return sin2[(m * c) & (M - 1)]

    dist = a / M**2 * s_of(r * L) + (r - a) / M**2 * s_of(r * (L - 1))
    den = s_of(r)
    peaks = slice(None, None, M // math.gcd(r, M))
    den[peaks] = 1.0
    dist /= den
    dist[peaks] = (a * L * L + (r - a) * (L - 1) ** 2) / M**2
    return np.concatenate((dist, dist[-2:0:-1]))


def order_find_per_call(x: int, N: int, rng) -> tuple:
    """Order finding as it was before its Born tables were kept: the
    register distribution is rebuilt, and `sample_index` called, on every
    attempt. Returns (the verified order, or None when every attempt
    fails; the phase that each attempt measured)."""
    k = _modmul_qubits(x, N)
    b = 2 * k + 4
    window = 0.5 ** (2 * k + 1)
    r, y = 1, x
    while y != 1:
        r, y = r + 1, y * x % N
    phases = []

    def run(attempt: int):
        idx, _ = sample_index(_orbit_register_distribution(r, b), rng.substream(attempt))
        phases.append(idx / float(1 << b))
        return _order_candidate(phases[-1], x, N, window)

    def verify(candidate):
        return candidate is not None and pow(x, candidate, N) == 1

    try:
        return repeat_verified(run, verify, ORDER_MAX_RUNS).estimate, phases
    except NotFoundError:
        return None, phases


def phase_estimates_per_call(u: GateOp, eigenstate: StateVector, plan, shots: int,
                             rng) -> np.ndarray:
    """`algorithms.phase_estimates` as it was before its Born tables were
    kept: the eigenphase read off <psi|u|psi>, the register distribution
    rebuilt and sampled on every call."""
    if u.controls:
        raise DomainError("phase estimation takes an uncontrolled unitary")
    k = len(u.targets)
    if eigenstate.qubits != k:
        raise DomainError("eigenstate and unitary sizes differ")
    _check_qubit_count(plan.b + k)
    applied = u.matrix @ eigenstate.amps
    lam = complex(np.vdot(eigenstate.amps, applied))
    if np.linalg.norm(applied - lam * eigenstate.amps) > EIGENSTATE_TOL:
        raise ValidationError("input state is not an eigenvector of the unitary")
    draws = rng.shot_uniforms(shots, 1)[:, 0]
    phi = math.atan2(lam.imag, lam.real) / (2.0 * math.pi) % 1.0
    return sample_indices(_pe_register_distribution(phi, plan.b), draws) / float(1 << plan.b)


def phase_coverage_by_gate(phi: float, plan, shots: int, rng) -> float:
    """`algorithms.phase_coverage` through the gate: a GateOp
    diag(1, e^{2 pi i phi}) and |1>, through `phase_estimates_per_call`."""
    u = GateOp("u", np.diag([1.0, np.exp(2j * math.pi * phi)]), [0])
    d = phase_distance(phase_estimates_per_call(u, basis_state(1, 1), plan, shots, rng), phi)
    return int(np.count_nonzero(d <= plan.zeta)) / shots


def qmc_estimate_per_call(obs, prepared, shots: int, rng, target):
    """`statharness.qmc_estimate` as it was before its law was kept: two
    dense expectations and a `measure_sequence` of every shot on each call."""
    theta_prepared = expectation(prepared, obs)
    theta_true = expectation(target, obs)
    x = measure_sequence(prepared, [obs], rng.shot_uniforms(shots, 1))[:, 0]
    # left to right, as a loop from 0.0 adds; + 0.0 gives an all-zero sum its sign
    total = float(np.add.accumulate(x)[-1]) + 0.0
    total_sq = float(np.add.accumulate(x * x)[-1])
    theta_hat = total / shots
    return QmcResult(theta_hat=theta_hat, theta_true=theta_true,
                     theta_prepared=theta_prepared, bias=theta_prepared - theta_true,
                     variance=max(total_sq / shots - theta_hat**2, 0.0), n=shots)


def trotter_qmc_per_call(t_final: float, steps: int, shots: int, rng):
    """`hamsim.trotter_qmc` as it was before its law was kept: both
    evolutions of |00> and `qmc_estimate_per_call` run on every call."""
    model, obs = qmc_problem()
    psi0 = basis_state(2, 0)
    prepared = trotter_evolve(model, TrotterPlan(t_final, steps), psi0)[-1]
    return qmc_estimate_per_call(obs, prepared, shots, rng, exact_evolve(model, t_final, psi0))


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


def repeat_successes_by_trial(rng, trials: int, eps: float, budget: int) -> int:
    """Criterion 10's repetition loop before batching: trial t calls
    rng.substream(t).uniform() once per attempt inside repeat_verified."""
    successes = 0
    for t in range(trials):
        stream = rng.substream(t)
        try:
            repeat_verified(lambda attempt: stream.uniform() >= eps, lambda good: good, budget)
            successes += 1
        except NotFoundError:
            pass
    return successes


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


def float_sweep_rate(p: float, shots: int, rng) -> float:
    """The logical failure rate of the three-qubit bit-flip code from float
    draws: each shot's three uniforms, compared with p, summed per shot and
    counted where two or more fall below p, over blocks of 2^16 shots."""
    failures = 0
    for start in range(0, shots, 1 << 16):
        flips = rng.uniforms(np.arange(start, min(start + (1 << 16), shots)), 3) < p
        failures += int(np.count_nonzero(flips.sum(axis=1) >= 2))
    return failures / shots


def _basis_projector(indices, dim: int) -> np.ndarray:
    proj = np.zeros((dim, dim), dtype=complex)
    for i in indices:
        proj[i, i] = 1.0
    return proj


def _dense_measure(s: StateVector, spectrum, rng):
    """A projective measurement by dense products: samples a with
    <psi|Q_a|psi> and returns (value_a, Q_a|psi>/sqrt(P(a)))."""
    projected = [q @ s.amps for _, q in spectrum]
    probs = [float(np.real(np.vdot(s.amps, qpsi))) for qpsi in projected]
    idx, prob = sample_index(probs, rng)
    return spectrum[idx][0], StateVector(s.qubits, projected[idx] / math.sqrt(prob), _trusted=True)


def _bitflip_syndrome_spectrum() -> list:
    """(syndrome, 8x8 projector) pairs: the no-error and the
    single-position-flip pairs of codewords."""
    pairs = [(0b000, 0b111), (0b100, 0b011), (0b010, 0b101), (0b001, 0b110)]
    return [(k, _basis_projector(pair, 8)) for k, pair in enumerate(pairs)]


_H3_DENSE = np.kron(np.kron(HADAMARD_MATRIX, HADAMARD_MATRIX), HADAMARD_MATRIX)


def syndrome_measure_dense(s: StateVector, rng):
    """`qec.syndrome_measure` with the syndrome projectors as dense matrices."""
    value, post = _dense_measure(s, _bitflip_syndrome_spectrum(), rng)
    return Syndrome(value), post


def syndrome_measure_phase_dense(s: StateVector, rng):
    """`qec.syndrome_measure_phase` with dense projectors and H x H x H."""
    syn, post = syndrome_measure_dense(StateVector(3, _H3_DENSE @ s.amps, _trusted=True), rng)
    return syn, StateVector(3, _H3_DENSE @ post.amps, _trusted=True)


def _kron3(mats) -> np.ndarray:
    return np.kron(np.kron(mats[0], mats[1]), mats[2])


@lru_cache(maxsize=None)
def _shor9_spectra() -> tuple:
    """Dense 512x512 (value, projector) lists: the three-qubit syndrome
    embedded on each block by Kronecker products, then (I +- X^(x)6)/2
    for the X-parities of blocks 0, 1 and of blocks 1, 2."""
    eyes = [np.eye(8, dtype=complex)] * 3
    blocks = []
    for block in range(3):
        spectrum = []
        for value, proj in _bitflip_syndrome_spectrum():
            mats = list(eyes)
            mats[block] = proj
            spectrum.append((value, _kron3(mats)))
        blocks.append(spectrum)
    xxx = _kron3([PAULI_X] * 3)
    eye = np.eye(512, dtype=complex)
    parities = []
    for first, second in ((0, 1), (1, 2)):
        mats = list(eyes)
        mats[first] = mats[second] = xxx
        a = _kron3(mats)
        parities.append([(1, 0.5 * (eye + a)), (-1, 0.5 * (eye - a))])
    return blocks, parities


def shor9_correct_dense(s: StateVector, rng) -> StateVector:
    """`qec.shor9_correct` with every stabiliser measured through the dense
    projectors of `_shor9_spectra`."""
    blocks, parity_spectra = _shor9_spectra()
    state = s
    for block, spectrum in enumerate(blocks):
        syn, state = _dense_measure(state, spectrum, rng)
        if syn:
            state = apply_gate(state, pauli_x(3 * block + syn - 1))
    parities = []
    for spectrum in parity_spectra:
        parity, state = _dense_measure(state, spectrum, rng)
        parities.append(parity)
    flagged = {(1, 1): None, (-1, 1): 0, (-1, -1): 1, (1, -1): 2}[tuple(parities)]
    if flagged is not None:
        state = apply_gate(state, pauli_z(3 * flagged))
    return state


def qrng_values(b: int, shots: int, rng) -> list:
    """b-bit integers from measuring every qubit of the Hadamard layer,
    one `measure_qubits` call per shot."""
    layer = hadamard_layer(b)
    return [int(measure_qubits(layer, range(b), rng.substream(shot))[0], 2)
            for shot in range(shots)]


def born_qrng(b: int, shots: int, rng) -> np.ndarray:
    """`statharness.quantum_rng` by the Born route: the batched sampler over
    the Hadamard layer's 2^b probabilities, shot i on the first draw of
    `rng.substream(i)`."""
    probs = np.abs(hadamard_layer(b).amps) ** 2
    return sample_indices(probs, rng.shot_uniforms(shots, 1)[:, 0])


def measure_chain(state, observables, rng) -> list:
    """Eigenvalues of `observables` measured in turn on one stream, each
    `measure_observable` call on the previous call's post-state."""
    values = []
    for obs in observables:
        value, state = measure_observable(state, obs, rng)
        values.append(value)
    return values


def measure_sequence_recursive(s: StateVector, observables, u) -> np.ndarray:
    """`qstate.measure_sequence` as it was: every level, the last one too,
    builds each drawn branch's post-state and recurses into it."""
    out = np.empty(u.shape)
    if observables:
        projected = _projections(s, observables[0])
        probs = _born_weights(s, projected)
        picks = sample_indices(probs, u[:, 0])
        for idx in np.flatnonzero(np.bincount(picks, minlength=len(probs))).tolist():
            rows = picks == idx
            post = StateVector(s.qubits, projected[idx] / math.sqrt(probs[idx]), _trusted=True)
            out[rows, 0] = observables[0].spectrum[idx][0]
            out[rows, 1:] = measure_sequence_recursive(post, observables[1:], u[rows, 1:])
    return out


def _singlet_pair(alice, bob, rng) -> tuple:
    """Rounded outcomes of Alice's observable on the singlet, then Bob's."""
    pair = [Observable(np.kron(alice.mat, np.eye(2))), Observable(np.kron(np.eye(2), bob.mat))]
    a, b = measure_chain(singlet(), pair, rng)
    return int(round(a)), int(round(b))


def anticorrelation_by_shots(axis, shots: int, rng) -> list:
    """(alice, bob) spin outcomes along `axis` on the singlet, one shot at a time."""
    obs = spin_observable(axis)
    return [_singlet_pair(obs, obs, rng.substream(shot)) for shot in range(shots)]


def chsh_by_shots(shots: int, rng):
    """(rows, correlators) of the CHSH experiment one shot at a time: each
    shot draws its observable pair with `integer(4)` and measures Alice's
    observable, then Bob's, on the same stream. A pair that no shot drew
    has no correlator."""
    pairs = default_chsh_setting().pairs()
    labels = tuple(pairs)
    sums = {label: 0.0 for label in labels}
    counts = {label: 0 for label in labels}
    rows = []
    for shot in range(shots):
        stream = rng.substream(shot)
        label = labels[stream.integer(4)]
        a, b = _singlet_pair(*pairs[label], stream)
        sums[label] += a * b
        counts[label] += 1
        rows.append((shot, label, a, b))
    return rows, {label: sums[label] / counts[label] for label in labels if counts[label]}


def qmc_by_shots(obs, prepared, shots: int, rng):
    """(theta_hat, variance) of the measured eigenvalues of `obs` on the
    fixed state `prepared`, one `measure_observable` call per shot."""
    total = 0.0
    total_sq = 0.0
    for shot in range(shots):
        x, _ = measure_observable(prepared, obs, rng.substream(shot))
        total += x
        total_sq += x * x
    theta_hat = total / shots
    return theta_hat, max(total_sq / shots - theta_hat**2, 0.0)


def teleport_bits_by_shots(psi, shots: int, rng) -> dict:
    """Count of each bit pair over `shots` full teleports of psi, shot i on
    `rng.substream(i)`."""
    counts = {"00": 0, "01": 0, "10": 0, "11": 0}
    for shot in range(shots):
        counts[teleport(psi, rng.substream(shot))[1]] += 1
    return counts


# Alice's CNOT (qubit 0 on 1) then H on qubit 0, as one dense 8 x 8 matrix.
_ALICE_DENSE = dense_embedding(HADAMARD_MATRIX, [0], [], 3) @ dense_embedding(PAULI_X, [1], [0], 3)
_PHI_PLUS_DENSE = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0)


def teleport_branches(psi: StateVector) -> list:
    """All four measurement branches of teleportation, from the dense
    protocol on psi (x) |Phi+>: (bits, probability, Bob's state before the
    correction, Bob's state after Z^m0 X^m1 for bits m0 m1)."""
    ready = (_ALICE_DENSE @ np.kron(psi.amps, _PHI_PLUS_DENSE)).reshape(4, 2)
    branches = []
    for m, block in enumerate(ready):
        prob = float(np.vdot(block, block).real)
        pre = block / math.sqrt(prob)
        fixed = PAULI_X @ pre if m & 1 else pre
        fixed = PAULI_Z @ fixed if m & 2 else fixed
        branches.append((f"{m:02b}", prob, StateVector(1, pre), StateVector(1, fixed)))
    return branches


# The cyclic Jacobi eigensolver the package used before `linalg.eigh` went
# to LAPACK: each sweep annihilates every off-diagonal element with a
# phase-adjusted Givens rotation, until the off-diagonal Frobenius norm
# falls below threshold.
JACOBI_THRESHOLD = 1e-12
_MAX_SWEEPS = 60


def _offdiag_frobenius(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(np.abs(off) ** 2)))


def jacobi_eigh(mat, threshold: float = JACOBI_THRESHOLD):
    """Eigendecomposition of a complex Hermitian matrix by cyclic Jacobi.

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and
    eigenvectors as the corresponding columns. Convergence criterion is an
    off-diagonal Frobenius norm below `threshold` (scaled by the matrix
    norm for matrices far from unit scale).
    """
    a = require_hermitian(mat)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real]), np.eye(1, dtype=complex)

    a = a.copy()
    v = np.eye(n, dtype=complex)
    scale = max(1.0, float(np.sqrt(np.sum(np.abs(a) ** 2))))
    tol = threshold * scale

    for _ in range(_MAX_SWEEPS):
        if _offdiag_frobenius(a) < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol / (n * n):
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                # Phase that makes the pivot real, then a real rotation angle:
                # R has columns (c, -s; conj(s)/|s| pattern) chosen so that
                # R† A R zeroes the (p, q) element.
                phase = apq / abs(apq)
                theta = 0.5 * math.atan2(2.0 * abs(apq), app - aqq)
                c = math.cos(theta)
                s = math.sin(theta) * phase
                # Rows transform by R†, columns (and eigenvectors) by R.
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp + s * rq
                a[q, :] = -np.conj(s) * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp + np.conj(s) * cq
                a[:, q] = -s * cp + c * cq
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp + np.conj(s) * vq
                v[:, q] = -s * vp + c * vq
    else:
        raise InternalError(
            f"Jacobi eigensolver did not converge in {_MAX_SWEEPS} sweeps "
            f"(off-diagonal norm {_offdiag_frobenius(a):.3e})"
        )

    eigvals = np.diag(a).real.copy()
    order = np.argsort(eigvals, kind="stable")
    return eigvals[order], v[:, order]


# ---------------------------------------------------------------------------
# The generic-wrapper routes that `linalg`'s checks and `rng`'s array mixer
# replaced, kept as references for the property tests.

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def as_complex_matrix_two_part(mat) -> np.ndarray:
    """`linalg.as_complex_matrix` with its finiteness test split into the
    real and the imaginary part."""
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError("matrix contains non-finite entries")
    return m


def hermitian_deviation(mat) -> float:
    """max |A - A†| through the `np.max` wrapper."""
    m = np.asarray(mat, dtype=complex)
    return float(np.max(np.abs(m - m.conj().T)))


def unitary_deviation(mat) -> float:
    """max |U†U - I| through the `np.max` wrapper."""
    m = np.asarray(mat, dtype=complex)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def mix_masked(z):
    """splitmix64 with Python-int constants and the 64-bit mask after each
    product, on a Python int or elementwise on a uint64 array."""
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_key(seed: int, tag, shot):
    """Key of the stream (seed, tag, shot), derived whole each time; `shot`
    is an int or a uint64 array."""
    k = mix_masked(mix_masked((seed & _MASK64) ^ _GOLDEN) ^ _tag_key(tag))
    return mix_masked(k ^ mix_masked(shot))


def words_masked(seed: int, tag, shot_indices, draws: int) -> np.ndarray:
    """(shots, draws) splitmix words of the streams (seed, tag, shot)
    through `mix_masked`: the transpose of `Stream(seed, tag).words`."""
    keys = stream_key(seed, tag, np.asarray(shot_indices, dtype=np.uint64))
    counters = np.arange(1, draws + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return mix_masked(keys[:, None] + counters)


def uniforms_masked(seed: int, tag, shot_indices, draws: int) -> np.ndarray:
    """`Stream(seed, tag).uniforms(shot_indices, draws)` through `mix_masked`."""
    return (words_masked(seed, tag, shot_indices, draws) >> 11) * (1.0 / (1 << 53))


def parse_args_by_top_level(argv):
    """`cli.parse_args`'s reference route: the top-level parser classifies
    every token and hands the command's tokens on to its sub-parser."""
    return build_parser().parse_args(argv)
