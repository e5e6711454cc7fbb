"""The acceptance suite: one function per exit criterion, with fixed seeds.

Every criterion checks an analytic value, a dense-oracle comparison, or a
Monte Carlo estimate at its stated tolerance. It reports each verdict
through `check(label, ok, value)` and writes further values into
`details`; `run_acceptance` times it and decides. The CLI `acceptance`
command prints one line per criterion; the pytest suite asserts each one.
A criterion with a `qsim run` twin calls the same library function, and
the threshold functions below serve both; criterion 9 alone holds each QEC
rate within 3 sigma, a band inside `qec_rate_ok`'s, and so checks more strictly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import algorithms, entangle, gates, hamsim, linalg, qec, qstate, statharness
from .errors import DomainError, NotFoundError
from .rng import Stream, sample_index

SEED = 20260808

TSIRELSON = entangle.TSIRELSON_BOUND
CHI2_99_9_DF15 = 37.697  # chi-square critical value, df = 15, right tail 0.001
Z_99_9 = 3.090232306167813  # standard normal 0.999 quantile


def within_4_sigma(estimate, reference, stderr) -> bool:
    return abs(estimate - reference) <= 4.0 * stderr


def teleport_ok(min_fidelity: float) -> bool:
    return min_fidelity >= 1.0 - 1e-10


def error_ok(error: float) -> bool:
    """An error that must vanish up to rounding."""
    return error <= 1e-9


def unit_ok(value: float) -> bool:
    """A fidelity or success probability that must be 1 up to rounding."""
    return value >= 1.0 - 1e-9


def grover_ok(rate: float, plan: algorithms.GroverPlan, shots: int) -> bool:
    """At least 1 - 1/N, less 3 sigma of the binomial success count."""
    p = plan.success_probability
    sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / shots)
    return rate >= 1.0 - 1.0 / plan.N - 3.0 * sigma


def coverage_ok(coverage: float, epsilon: float, shots: int) -> bool:
    """At least 1 - epsilon, less 3 sigma taken at the reference."""
    return coverage >= (1.0 - epsilon) - 3.0 * math.sqrt(epsilon * (1.0 - epsilon) / shots)


def count_ok(accuracy: float, epsilon: float, shots: int) -> bool:
    """At least 1 - epsilon, less 3 / sqrt(shots)."""
    return accuracy >= 1.0 - epsilon - 3.0 / math.sqrt(shots)


def qec_rate_ok(rate: float, predicted: float, stderr: float, shots: int) -> bool:
    """Within max(3 stderr, 3 / shots) + 3 sqrt(predicted / shots) of the prediction."""
    spread = max(3.0 * stderr, 3.0 / shots) + 3.0 * math.sqrt(predicted / shots)
    return abs(rate - predicted) <= spread


def chi_square_critical(bins: int) -> float:
    """The chi-square 0.999 quantile at bins - 1 degrees of freedom: tabulated
    at 16 bins, else Wilson & Hilferty's cube-root normal approximation."""
    v = 2.0 / (9 * (bins - 1))
    return CHI2_99_9_DF15 if bins == 16 else (bins - 1) * (1.0 - v + Z_99_9 * math.sqrt(v)) ** 3


def chi_square_ok(stat: float, bins: int = 16) -> bool:
    """Uniformity of `bins` bins at the 0.1% level."""
    return stat < chi_square_critical(bins)


def qmc_ok(result: statharness.QmcResult) -> bool:
    """theta_hat within 4 sigma of theta_prepared, sigma taken at the reference:
    Z (x) I has eigenvalues +-1, so one shot's variance is 1 - theta_prepared^2."""
    sigma = math.sqrt(max(1.0 - result.theta_prepared**2, 0.0) / result.n)
    return within_4_sigma(result.theta_hat, result.theta_prepared, sigma)


def chsh_ok(result: entangle.ChshResult) -> bool:
    """The CHSH estimate within 4 sigma of Tsirelson's bound, sigma taken at
    the reference: sigma^2 = sum_k (1 - E_k^2) / n_k, and every analytic
    correlator E_k of the default setting is +-1/sqrt(2)."""
    sigma = math.sqrt(sum(0.5 / n for n in result.counts.values()))
    return within_4_sigma(result.value, TSIRELSON, sigma)


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    elapsed: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.cid:2d}  {self.name}  ({self.elapsed:.2f}s)"


def _check(details, label, ok, value):
    details[label] = value
    return bool(ok)


def criterion_1_chsh(check, details) -> None:
    """Analytic CHSH value on the singlet and its Monte Carlo estimate."""
    analytic = entangle.chsh_quantum_value(entangle.singlet(), entangle.default_chsh_setting())
    check("analytic_error", abs(analytic - TSIRELSON) <= 1e-9, abs(analytic - TSIRELSON))
    result = entangle.chsh_experiment(100_000, Stream(SEED, "acc/chsh"))
    check("mc_deviation_over_se", chsh_ok(result), abs(result.value - TSIRELSON) / result.stderr)
    details["mc_value"] = result.value


def criterion_2_tsirelson(check, details) -> None:
    """Quantum bound 2 sqrt(2) on random densities; classical bound 2."""
    setting = entangle.default_chsh_setting()
    rng = Stream(SEED, "acc/tsirelson")
    worst = -math.inf
    for i in range(1000):
        rho = qstate.random_density(2, rng.substream(i))
        worst = max(worst, entangle.chsh_quantum_value(rho, setting))
    check("max_quantum_value", worst <= TSIRELSON + 1e-9, worst)
    classical = entangle.classical_chsh_maximum()
    check("classical_max", classical == 2.0, classical)


def criterion_3_teleport(check, details) -> None:
    """Unit fidelity over random inputs; uniform classical bits."""
    worst, _ = entangle.teleport_trials(1000, Stream(SEED, "acc/teleport"))
    check("min_fidelity", teleport_ok(worst), worst)

    shots = 10_000
    psi = qstate.random_state(1, Stream(SEED, "acc/teleport/fixed"))
    counts = entangle.teleport_bit_counts(psi, shots, Stream(SEED, "acc/teleport/bits"))
    sigma = math.sqrt(0.25 * 0.75 / shots)
    deviation = max(abs(c / shots - 0.25) for c in counts.values())
    check("bits_max_deviation_over_4sigma", deviation <= 4.0 * sigma, deviation / sigma)
    details["bit_counts"] = dict(counts)


def criterion_4_qft(check, details) -> None:
    """Circuit vs dense DFT matrix for n = 1..6, and the round trip."""
    rng = Stream(SEED, "acc/qft")
    errors, fidelities = zip(*(algorithms.qft_check(n, rng.substream(n)) for n in range(1, 7)))
    check("max_amplitude_error", error_ok(max(errors)), max(errors))
    worst_rt = min(1.0, *fidelities)
    check("min_roundtrip_fidelity", unit_ok(worst_rt), worst_rt)


def criterion_5_phase_estimation(check, details) -> None:
    """Exact recovery of every b-bit phase, by the simulated circuit (b <= 5,
    within 1e-12 of the closed form) or the closed form; the (zeta, epsilon) bound."""
    rng = Stream(SEED, "acc/pe-exact")
    exact_failures = 0
    for b in range(1, 9):
        # a b-bit register recovers every phi = k / 2^b with certainty
        for k in range(1 << b):
            phi = k / (1 << b)
            dist = closed = algorithms._pe_register_distribution(phi, b)
            if b <= 5:
                out = gates.run_circuit(algorithms.phase_estimation_circuit(phi, b),
                                        qstate.basis_state(b + 1, 1))
                dist = qstate.marginal(out, range(b))
            idx, _ = sample_index(dist, rng.substream((b << 10) | k))
            if (np.max(np.abs(dist - closed)) > 1e-12 or idx / (1 << b) != phi
                    or dist[idx] < 1.0 - 1e-9):
                exact_failures += 1
    check("exact_case_failures", exact_failures == 0, exact_failures)

    plan = algorithms.PhasePlan(zeta=2.0**-4, epsilon=0.1)
    details["plan_b"] = plan.b
    runs = 2000
    coverage = algorithms.phase_coverage(1.0 / 3.0, plan, runs, Stream(SEED, "acc/pe-bound"))
    check("coverage", coverage_ok(coverage, plan.epsilon, runs), coverage)


def criterion_6_grover(check, details) -> None:
    """Certain success at (4,1); empirical success at (64,1); geometry."""
    f4 = gates.BooleanOracle.from_solutions(2, [3])
    amp = algorithms.grover_solution_amplitude(f4, 1, algorithms.grover_iterations(4, 1))
    error = abs(amp * amp - 1.0)
    check("n4_success_prob_error", error_ok(error), error)

    f64 = gates.BooleanOracle.from_solutions(6, [37])
    plan = algorithms.GroverPlan.for_counts(64, 1)
    runs = 1000
    rate = algorithms.grover_success_rate(f64, 37, runs, Stream(SEED, "acc/grover"))
    check("n64_success_rate", grover_ok(rate, plan, runs), rate)

    worst = 0.0
    for r in range(plan.R + 1):
        measured = algorithms.grover_solution_amplitude(f64, 1, r)
        worst = max(worst, abs(measured - math.sin((2 * r + 1) * plan.theta / 2.0)))
    check("geometry_max_error", worst <= 1e-9, worst)


def criterion_7_order_finding(check, details) -> None:
    """Every coprime pair with N <= 21, against the brute-force order."""
    failures = []
    pairs = 0
    for n_mod in range(2, 22):
        for x in range(1, n_mod):
            if math.gcd(x, n_mod) != 1:
                continue
            pairs += 1
            rng = Stream(SEED, f"acc/order/{n_mod}/{x}")
            found, reference = algorithms.order_trial(x, n_mod, rng)
            if found != reference:
                failures.append((n_mod, x, found, reference))
    check("pair_failures", not failures, failures[:5])
    details["pairs"] = pairs


def criterion_8_trotter(check, details) -> None:
    """Commuting exactness, second-order error slope, search-as-simulation."""
    commuting = hamsim.commuting_chain(3)
    psi3 = qstate.random_state(3, Stream(SEED, "acc/trotter/commuting"))
    err_commuting = hamsim.trotter_error(commuting, hamsim.TrotterPlan(1.0, 7), psi3)
    check("commuting_error", err_commuting < 1e-9, err_commuting)

    model = hamsim.ising_chain(2)
    psi = qstate.random_state(2, Stream(SEED, "acc/trotter/slope"))
    deltas = [0.2, 0.1, 0.05, 0.025]
    errors = [
        hamsim.trotter_error(model, hamsim.TrotterPlan(1.0, round(1.0 / d)), psi)
        for d in deltas
    ]
    slope = float(np.polyfit(np.log(deltas), np.log(errors), 1)[0])
    check("error_slope", 1.8 <= slope <= 2.2, slope)
    details["errors"] = errors

    worst = min(1.0, *(hamsim.grover_hamiltonian_success(b, (1 << b) - 1)[0] for b in (1, 2, 3)))
    check("search_success_prob", unit_ok(worst), worst)


def criterion_9_qec(check, details) -> None:
    """Logical rate vs 3p^2 - 2p^3 at four p values; exhaustive Shor-9 sweep."""
    start = time.perf_counter()
    shots = 100_000
    rate_checks = {}
    within = []
    for p in (0.01, 0.05, 0.1, 0.2):
        rate = qec.logical_error_rate(p, shots, Stream(SEED, f"acc/qec/{p}"))
        predicted = qec.predicted_logical_rate(p)
        sigma = math.sqrt(predicted * (1.0 - predicted) / shots)
        rate_checks[p] = (rate, predicted)
        within.append(abs(rate - predicted) <= 3.0 * sigma)
    check("rates", all(within), rate_checks)
    elapsed = time.perf_counter() - start
    check("sweep_runtime_s", elapsed < 60.0, elapsed)

    worst = 1.0
    rng = Stream(SEED, "acc/shor9")
    for trial in range(20):
        psi = qstate.random_state(1, rng.substream(trial))
        encoded = qec.encode_shor9(psi)
        for q in range(9):
            for error in ("x", "z", "zx"):
                noisy = encoded
                if "x" in error:
                    noisy = qstate.apply_unitary(noisy, gates.PAULI_X, [q])
                if "z" in error:
                    noisy = qstate.apply_unitary(noisy, gates.PAULI_Z, [q])
                corrected = qec.shor9_correct(noisy, rng.substream(1000 + trial * 27 + q))
                worst = min(worst, qstate.fidelity(corrected, encoded))
    check("shor9_min_fidelity", worst >= 1.0 - 1e-9, worst)


def _repeat_successes(rng: Stream, trials: int, eps: float, budget: int) -> int:
    """Trials in which repeat_verified accepts an attempt within `budget`,
    attempt i of trial t accepting when the i-th uniform of rng.substream(t)
    is at least eps; trial t's uniforms are row t of `rng.uniforms`."""
    successes = 0
    for row in rng.shot_uniforms(trials, budget).tolist():
        try:
            statharness.repeat_verified(lambda attempt: row[attempt - 1] >= eps, bool, budget)
            successes += 1
        except NotFoundError:
            pass
    return successes


def criterion_10_statistics(check, details) -> None:
    """Verified-repetition law, trimmed-mean bound vs Monte Carlo, and the
    exact values for the (eps = 0.3, alpha = 0.2) worked example."""
    eps = 0.3
    budget = 6
    trials = 10_000
    successes = _repeat_successes(Stream(SEED, "acc/stats/repeat"), trials, eps, budget)
    expect = 1.0 - eps**budget
    sigma = math.sqrt(expect * (1.0 - expect) / trials)
    check("repeat_rate", abs(successes / trials - expect) <= 3.0 * sigma, successes / trials)
    details["repeat_expected"] = expect

    # Mixture calibrated so that the binomial tail is the exact success law:
    # success of the trimmed mean <=> at least floor(n(1-2a))-1 good runs.
    n, alpha, zeta = 50, 0.2, 0.01
    bad_offset = 2.6 * zeta
    phi = 0.25
    bound = statharness.trimmed_success_bound(n, eps, alpha)
    mc_trials = 10_000
    samples = statharness.point_mass_mixture(eps, phi, phi + bad_offset, n, mc_trials,
                                             Stream(SEED, "acc/stats/trimmed"))
    hits = sum(1 for sample in samples.tolist()
               if abs(statharness.trimmed_mean(sample, alpha) - phi) <= zeta)
    sigma = math.sqrt(max(bound.exact * (1.0 - bound.exact), 1e-12) / mc_trials)
    check("trimmed_mc_rate", abs(hits / mc_trials - bound.exact) <= 3.0 * sigma,
          hits / mc_trials)
    details["trimmed_bound_exact"] = bound.exact
    details["trimmed_bound_normal"] = bound.normal_approx

    # Worked example: computed and reported, not asserted against 0.999.
    verified_5 = 1.0 - eps**5
    unverified_20 = statharness.trimmed_success_bound(20, eps, alpha)
    check("example_verified_n5", 0.9 < verified_5 < 1.0, verified_5)
    check("example_unverified_n20_exact", 0.0 < unverified_20.exact < 1.0, unverified_20.exact)
    details["example_unverified_n20_normal"] = unverified_20.normal_approx


def criterion_11_qmc(check, details) -> None:
    """Bias/variance split of the Trotterized Monte Carlo estimator."""
    t_final, steps = 1.0, 2
    result = hamsim.trotter_qmc(t_final, steps, 10_000, Stream(SEED, "acc/qmc"))
    check("sampling_deviation", qmc_ok(result), abs(result.theta_hat - result.theta_prepared))
    # The bias against dense routes that share no code with trotter_qmc: a symmetric
    # step of the terms' exponentials, applied `steps` times, and the exact exponential.
    model, obs = hamsim.qmc_problem()
    psi0 = qstate.basis_state(2, 0).amps
    half = [hamsim._embed(linalg.expm_hermitian(mat, -1j * t_final / steps), targets, 2)
            for mat, targets in model.terms]
    step = np.eye(4, dtype=complex)
    for factor in half + half[::-1]:
        step = factor @ step
    prepared = np.linalg.matrix_power(step, steps) @ psi0
    # The problem is time-reversal symmetric, so e^{+iHt} gives the same expectations
    # and only the amplitudes show a sign error in trotter_qmc's factors.
    evolved = hamsim.trotter_evolve(model, hamsim.TrotterPlan(t_final, steps),
                                    qstate.basis_state(2, 0))[-1].amps
    amplitude_error = float(np.abs(evolved - prepared).max())
    check("prepared_amplitude_error", amplitude_error <= 1e-9, amplitude_error)
    exact = linalg.expm_hermitian(model.assemble(), -1j * t_final) @ psi0
    bias = np.vdot(prepared, obs.mat @ prepared).real - np.vdot(exact, obs.mat @ exact).real
    bias_error = float(abs(result.bias - bias))
    check("bias_identity_error", bias_error <= 1e-9, bias_error)
    details["bias"] = result.bias
    details["theta_hat"] = result.theta_hat


def criterion_12_qrng(check, details) -> None:
    """Chi-square uniformity of 4-bit extraction at 10^5 shots."""
    stat = statharness.quantum_rng_chi_square(4, 100_000, Stream(SEED, "acc/qrng"))
    check("chi_square", chi_square_ok(stat), stat)
    details["critical_value"] = CHI2_99_9_DF15


# id: (name, criterion, wall-clock budget in seconds or None)
CRITERIA = {
    1: ("chsh-analytic-and-mc", criterion_1_chsh, 5.0),
    2: ("tsirelson-and-classical-bounds", criterion_2_tsirelson, 10.0),
    3: ("teleportation", criterion_3_teleport, None),
    4: ("qft-vs-dense-dft", criterion_4_qft, None),
    5: ("phase-estimation", criterion_5_phase_estimation, None),
    6: ("grover-search", criterion_6_grover, None),
    7: ("order-finding", criterion_7_order_finding, 60.0),
    8: ("trotter-simulation", criterion_8_trotter, None),
    9: ("qec-codes", criterion_9_qec, None),
    10: ("statistical-framework", criterion_10_statistics, None),
    11: ("qmc-bias-variance", criterion_11_qmc, None),
    12: ("qrng-uniformity", criterion_12_qrng, None),
}


def run_acceptance(ids=None):
    """Run each selected criterion once (all by default), in id order, and return the results.

    A criterion passes when it reported at least one check and every check
    passed; one with a budget also fails past it, under `runtime_s`.
    Raises DomainError on an empty selection or an unknown id.
    """
    selected = sorted(CRITERIA) if ids is None else sorted(set(ids))
    if not selected:
        raise DomainError("no criteria selected")
    if unknown := [cid for cid in selected if cid not in CRITERIA]:
        raise DomainError(f"unknown criteria: {unknown}")
    results = []
    for cid in selected:
        name, fn, budget = CRITERIA[cid]
        details, verdicts = {}, []

        def check(label, ok, value):
            verdicts.append(_check(details, label, ok, value))

        start = time.perf_counter()
        fn(check, details)
        elapsed = time.perf_counter() - start
        if budget is not None:
            check("runtime_s", elapsed < budget, elapsed)
        passed = bool(verdicts) and all(verdicts)
        results.append(CriterionResult(cid, name, passed, elapsed, details))
    return results
