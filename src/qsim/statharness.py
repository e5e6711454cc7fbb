"""Statistical framework for randomized quantum procedures: the gross
error model, repeat-until-verified and trimmed-mean strategies with their
binomial success bounds, quantum Monte Carlo estimation, and random-number
extraction from the uniform superposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotFoundError, ResourceError
from .pool import shot_map  # noqa: F401  (the benchmark tracer's tests read this binding)
from .qstate import Observable, _born_weights, _check_qubit_count, _projections, expectation
from .rng import BornTable, Stream


# binomial_tail keeps one log term per run; at this cap `qsim run --experiment
# stats-bound` takes about 0.4 s and 45 MB peak RSS on a 2-vCPU Xeon.
TAIL_MAX_RUNS = 10**6


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def log_binomial_pmf(n: int, k: int, p: float) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def binomial_tail(n: int, k_lo: int, p: float) -> float:
    """P(K >= k_lo) for K ~ Binomial(n, p), summed exactly in log space."""
    if n > TAIL_MAX_RUNS:
        raise ResourceError(f"{n} runs exceed the binomial tail's cap of {TAIL_MAX_RUNS}")
    if k_lo <= 0:
        return 1.0
    if k_lo > n:
        return 0.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    logs = [log_binomial_pmf(n, k, p) for k in range(k_lo, n + 1)]
    peak = max(logs)
    return math.exp(peak) * sum(math.exp(v - peak) for v in logs)


@dataclass(frozen=True)
class GrossErrorModel:
    """Mixture (1 - epsilon) * good + epsilon * bad of algorithm outputs.

    `good` and `bad` are samplers (Stream -> float); the caller is
    responsible for keeping their supports on the correct side of the
    accuracy threshold that separates right from wrong answers.
    """

    epsilon: float
    good: object
    bad: object

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise DomainError(f"contamination probability {self.epsilon} not in [0, 1)")

    def draw(self, rng: Stream) -> float:
        if rng.uniform() < self.epsilon:
            return self.bad(rng)
        return self.good(rng)

    def sample(self, n: int, rng: Stream):
        return [self.draw(rng) for _ in range(n)]


def point_mass(value: float):
    return lambda rng: value


def point_mass_mixture(epsilon: float, good: float, bad: float, n: int, shots: int,
                       rng: Stream) -> np.ndarray:
    """(shots, n) samples; row t is, bit for bit, GrossErrorModel(epsilon,
    point_mass(good), point_mass(bad)).sample(n, rng.substream(t)). A point
    mass draws nothing, so sample j is `bad` exactly when uniform j of the
    substream is below epsilon, which `rng.below` decides on the words."""
    GrossErrorModel(epsilon, point_mass(good), point_mass(bad))  # checks epsilon
    if shots < 1:
        raise DomainError("need at least one shot")
    return np.where(rng.below(range(shots), n, epsilon).T, bad, good)


@dataclass(frozen=True)
class RepetitionReport:
    """Outcome of a repeat-until-verified loop."""

    n: int
    estimate: object
    success: bool
    per_run: tuple


def repeat_verified(run, verify, max_runs: int) -> RepetitionReport:
    """Re-run a procedure until its output verifies, up to max_runs.

    `run` takes the 1-based attempt index (so callers can derive per-attempt
    streams); `verify` is a predicate. For i.i.d. failure probability eps
    the success probability within n runs is 1 - eps^n. Raises NotFoundError
    carrying the report when the budget is exhausted.
    """
    if max_runs < 1:
        raise DomainError("max_runs must be at least 1")
    candidates = []
    for attempt in range(1, max_runs + 1):
        candidate = run(attempt)
        candidates.append(candidate)
        if verify(candidate):
            return RepetitionReport(
                n=attempt, estimate=candidate, success=True, per_run=tuple(candidates)
            )
    report = RepetitionReport(
        n=max_runs, estimate=None, success=False, per_run=tuple(candidates)
    )
    raise NotFoundError(
        f"no verified answer within {max_runs} runs", report=report
    )


def trimmed_mean(samples, alpha: float) -> float:
    """Drop the floor(n*alpha) smallest and largest samples, average the rest."""
    n = len(samples)
    if n < 1:
        raise DomainError("trimmed_mean needs at least one sample")
    if not 0.0 <= alpha < 0.5:
        raise DomainError(f"trim fraction {alpha} not in [0, 1/2)")
    drop = int(n * alpha)
    if n - 2 * drop < 1:
        raise DomainError(f"trimming {drop} from each tail of {n} samples leaves nothing")
    kept = sorted(samples)[drop : n - drop]
    return sum(kept) / len(kept)


@dataclass(frozen=True)
class TrimmedBound:
    """Success-probability bound for the trimmed-mean strategy: the exact
    binomial tail and its large-n normal approximation."""

    exact: float
    normal_approx: float


def trimmed_success_bound(n: int, epsilon: float, alpha: float) -> TrimmedBound:
    """P(more than n(1-2a) of the runs are correct), as an exact binomial
    tail plus the normal approximation Phi(sqrt(n)(2a-e)/sqrt(e(1-e)))."""
    if n < 1:
        raise DomainError("n must be at least 1")
    if not 0.0 <= epsilon < 1.0:
        raise DomainError("epsilon must lie in [0, 1)")
    if not 0.0 < alpha < 0.5:
        raise DomainError("alpha must lie in (0, 1/2)")
    if alpha <= epsilon / 2.0:
        raise DomainError(
            f"alpha = {alpha} must exceed epsilon/2 = {epsilon / 2.0} for the bound"
        )
    k_lo = math.floor(n * (1.0 - 2.0 * alpha)) - 1
    exact = binomial_tail(n, k_lo, 1.0 - epsilon)
    if epsilon == 0.0:
        approx = 1.0
    else:
        approx = normal_cdf(
            math.sqrt(n) * (2.0 * alpha - epsilon) / math.sqrt(epsilon * (1.0 - epsilon))
        )
    return TrimmedBound(exact=exact, normal_approx=approx)


@dataclass(frozen=True)
class QmcResult:
    """Quantum Monte Carlo estimate of Tr(X rho) with its error split."""

    theta_hat: float
    theta_true: float
    theta_prepared: float
    bias: float
    variance: float
    n: int

    @property
    def stderr(self) -> float:
        return math.sqrt(self.variance / self.n) if self.n else float("inf")


def qmc_estimate(obs: Observable, prepared, shots: int, rng: Stream, target) -> QmcResult:
    """Estimate Tr(X rho) by repeated preparation and measurement.

    `prepared` is the state a deterministic preparation (exact or Trotterized)
    yields on every shot; `target` is the exact-oracle state defining the
    true theta. The bias Tr(X rho_tilde) - Tr(X rho) comes from dense
    expectations, the sampling part from the measured eigenvalues. Shot i
    measures with the first draw of `rng.substream(i)`, all shots at once.
    """
    return qmc_draws(qmc_law(obs, prepared, target), shots, rng)


def qmc_law(obs: Observable, prepared, target) -> tuple:
    """The seed-free half of `qmc_estimate`: (theta_prepared, theta_true,
    obs's eigenvalue array, the `BornTable` of their weights on `prepared`)."""
    theta_prepared, theta_true = expectation(prepared, obs), expectation(target, obs)
    weights = _born_weights(prepared, _projections(prepared, obs))
    return theta_prepared, theta_true, np.array(obs.eigenvalues()), BornTable(weights)


def qmc_draws(law: tuple, shots: int, rng: Stream) -> QmcResult:
    """`qmc_estimate` from its `qmc_law`: the seed-keyed half."""
    theta_prepared, theta_true, values, table = law
    x = values[table.sample(rng.shot_uniforms(shots, 1)[:, 0])]
    # left to right, as a loop from 0.0 adds; + 0.0 gives an all-zero sum its sign
    total = float(np.add.accumulate(x)[-1]) + 0.0
    total_sq = float(np.add.accumulate(x * x)[-1])
    theta_hat = total / shots
    variance = max(total_sq / shots - theta_hat**2, 0.0)
    return QmcResult(
        theta_hat=theta_hat,
        theta_true=theta_true,
        theta_prepared=theta_prepared,
        bias=theta_prepared - theta_true,
        variance=variance,
        n=shots,
    )


def quantum_rng(b: int, shots: int, rng: Stream) -> np.ndarray:
    """b-bit integers from measuring every qubit of the Hadamard layer on
    |0...0>, one array entry per shot. The outcome is uniform on
    {0, ..., 2^b - 1}, so shot i is floor(2^b u), exact in floating point,
    for the first draw u of `rng.substream(i)`. (On a simulator the stream
    is seeded and reproducible; genuine randomness needs hardware.)"""
    b = _check_qubit_count(b)
    return np.ldexp(rng.shot_uniforms(shots, 1)[:, 0], b).astype(np.int64)


def quantum_rng_chi_square(b: int, shots: int, rng: Stream) -> float:
    """Chi-square statistic of `shots` quantum_rng draws over the 2^b values."""
    counts = np.unique(quantum_rng(b, shots, rng), return_counts=True)[1]
    return chi_square_uniform(counts.tolist(), 1 << b)


def chi_square_uniform(counts, bins: int) -> float:
    """Chi-square statistic of the occupied bins' counts against uniformity
    over `bins` bins; each bin not listed counts 0, so adds its expected count."""
    total = sum(counts)
    if total == 0 or len(counts) > bins:
        raise DomainError(f"need non-empty counts of at most {bins} bins")
    expected = total / bins
    return sum((c - expected) ** 2 / expected for c in counts) + (bins - len(counts)) * expected
