"""The acceptance suite: one function per exit criterion, with fixed seeds.

Every criterion checks an analytic value, a dense-oracle comparison, or a
Monte Carlo estimate at its stated tolerance, and returns a structured
result. The CLI `acceptance` command prints one line per criterion; the
pytest suite asserts each one. A criterion with a `qsim run` twin calls
the same library function, and the threshold functions below serve both.

`tol_scale` shrinks the central tolerance of a criterion and exists for
the negative-control test (at 0 no criterion can pass, so a corrupted
tolerance fails loudly); the published tolerances, which `qsim run
--assert` also applies, correspond to tol_scale = 1.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import algorithms, entangle, gates, hamsim, linalg, qec, qstate, statharness
from .errors import NotFoundError
from .rng import Stream

SEED = 20260808

TSIRELSON = entangle.TSIRELSON_BOUND
CHI2_99_9_DF15 = 37.697  # chi-square critical value, df = 15, right tail 0.001


def within_4_sigma(estimate, reference, stderr, tol_scale: float = 1.0) -> bool:
    return abs(estimate - reference) <= 4.0 * stderr * max(tol_scale, 1e-12)


def teleport_ok(min_fidelity: float, tol_scale: float = 1.0) -> bool:
    return min_fidelity >= 1.0 - 1e-10 * max(tol_scale, 1e-12)


def error_ok(error: float, tol_scale: float = 1.0) -> bool:
    """An error that must vanish up to rounding; at tol_scale = 0 none passes."""
    return error <= 1e-9 * tol_scale and tol_scale > 0


def unit_ok(value: float) -> bool:
    """A fidelity or success probability that must be 1 up to rounding."""
    return value >= 1.0 - 1e-9


def grover_ok(rate: float, plan: algorithms.GroverPlan, shots: int) -> bool:
    """At least 1 - 1/N, less 3 sigma of the binomial success count."""
    p = plan.success_probability
    sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / shots)
    return rate >= 1.0 - 1.0 / plan.N - 3.0 * sigma


def chi_square_ok(stat: float, tol_scale: float = 1.0) -> bool:
    """Uniformity of 16 bins at the 0.1% level."""
    return stat < CHI2_99_9_DF15 * max(tol_scale, 1e-12)


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


def criterion_1_chsh(tol_scale: float = 1.0) -> tuple[bool, dict]:
    """Analytic CHSH value on the singlet and its Monte Carlo estimate."""
    details = {}
    start = time.perf_counter()
    analytic = entangle.chsh_quantum_value(entangle.singlet(), entangle.default_chsh_setting())
    ok = _check(details, "analytic_error", abs(analytic - TSIRELSON) <= 1e-9 * tol_scale,
                abs(analytic - TSIRELSON))
    result = entangle.chsh_experiment(100_000, Stream(SEED, "acc/chsh"))
    ok &= _check(details, "mc_deviation_over_se",
                 within_4_sigma(result.value, TSIRELSON, result.stderr),
                 abs(result.value - TSIRELSON) / result.stderr)
    elapsed = time.perf_counter() - start
    ok &= _check(details, "runtime_s", elapsed < 5.0, elapsed)
    details["mc_value"] = result.value
    return ok, details


def criterion_2_tsirelson(tol_scale: float = 1.0) -> tuple[bool, dict]:
    """Quantum bound 2 sqrt(2) on random densities; classical bound 2."""
    details = {}
    start = time.perf_counter()
    setting = entangle.default_chsh_setting()
    rng = Stream(SEED, "acc/tsirelson")
    worst = -math.inf
    for i in range(1000):
        rho = qstate.random_density(2, rng.substream(i))
        worst = max(worst, entangle.chsh_quantum_value(rho, setting))
    ok = _check(details, "max_quantum_value", worst <= (TSIRELSON + 1e-9) * tol_scale, worst)
    classical = entangle.classical_chsh_maximum()
    ok &= _check(details, "classical_max", classical == 2.0, classical)
    elapsed = time.perf_counter() - start
    ok &= _check(details, "runtime_s", elapsed < 10.0, elapsed)
    return ok, details


def criterion_3_teleport(tol_scale: float = 1.0) -> tuple[bool, dict]:
    """Unit fidelity over random inputs; uniform classical bits."""
    details = {}
    worst, _ = entangle.teleport_trials(1000, Stream(SEED, "acc/teleport"))
    ok = _check(details, "min_fidelity", teleport_ok(worst, tol_scale), worst)

    shots = 10_000
    psi = qstate.random_state(1, Stream(SEED, "acc/teleport/fixed"))
    counts = entangle.teleport_bit_counts(psi, shots, Stream(SEED, "acc/teleport/bits"))
    sigma = math.sqrt(0.25 * 0.75 / shots)
    deviation = max(abs(c / shots - 0.25) for c in counts.values())
    ok &= _check(details, "bits_max_deviation_over_4sigma",
                 deviation <= 4.0 * sigma, deviation / sigma)
    details["bit_counts"] = dict(counts)
    return ok, details


def criterion_4_qft(tol_scale: float = 1.0) -> tuple[bool, dict]:
    """Circuit vs dense DFT matrix for n = 1..6, and the round trip."""
    details = {}
    rng = Stream(SEED, "acc/qft")
    errors, fidelities = zip(*(algorithms.qft_check(n, rng.substream(n)) for n in range(1, 7)))
    ok = _check(details, "max_amplitude_error", error_ok(max(errors), tol_scale), max(errors))
    worst_rt = min(1.0, *fidelities)
    ok &= _check(details, "min_roundtrip_fidelity", unit_ok(worst_rt), worst_rt)
    return ok, details


def criterion_5_phase_estimation(tol_scale: float = 1.0) -> tuple[bool, dict]:
    """Exact recovery of every b-bit phase, and the (zeta, epsilon) bound."""
    details = {}
    rng = Stream(SEED, "acc/pe-exact")
    exact_failures = 0
    for b in range(1, 9):
        # a b-bit register recovers every phi = k / 2^b with certainty
        for k in range(1 << b):
            phi = k / (1 << b)
            u = gates.GateOp("u", np.diag([1.0, np.exp(2j * math.pi * phi)]), [0])
            dist = algorithms._pe_register_distribution(u, qstate.basis_state(1, 1), b)
            idx, _ = algorithms.sample_index(dist, rng.substream((b << 10) | k))
            if idx / (1 << b) != phi or dist[idx] < 1.0 - 1e-9:
                exact_failures += 1
    ok = _check(details, "exact_case_failures", exact_failures == 0, exact_failures)

    plan = algorithms.PhasePlan(zeta=2.0**-4, epsilon=0.1)
    details["plan_b"] = plan.b
    runs = 2000
    coverage = algorithms.phase_coverage(1.0 / 3.0, plan, runs, Stream(SEED, "acc/pe-bound"))
    sigma = math.sqrt(0.9 * 0.1 / runs)
    threshold = ((1.0 - plan.epsilon) - 3.0 * sigma) / max(tol_scale, 1e-12)
    ok &= _check(details, "coverage", coverage >= threshold, coverage)
    return ok, details


def criterion_6_grover(tol_scale: float = 1.0) -> tuple[bool, dict]:
    """Certain success at (4,1); empirical success at (64,1); geometry."""
    details = {}
    f4 = gates.BooleanOracle.from_solutions(2, [3])
    amp = algorithms.grover_solution_amplitude(f4, 1, algorithms.grover_iterations(4, 1))
    error = abs(amp * amp - 1.0)
    ok = _check(details, "n4_success_prob_error", error_ok(error, tol_scale), error)

    f64 = gates.BooleanOracle.from_solutions(6, [37])
    plan = algorithms.GroverPlan.for_counts(64, 1)
    runs = 1000
    rate = algorithms.grover_success_rate(f64, 37, runs, Stream(SEED, "acc/grover"))
    ok &= _check(details, "n64_success_rate", grover_ok(rate, plan, runs), rate)

    worst = 0.0
    for r in range(plan.R + 1):
        measured = algorithms.grover_solution_amplitude(f64, 1, r)
        worst = max(worst, abs(measured - math.sin((2 * r + 1) * plan.theta / 2.0)))
    ok &= _check(details, "geometry_max_error", worst <= 1e-9, worst)
    return ok, details


def criterion_7_order_finding(tol_scale: float = 1.0) -> tuple[bool, dict]:
    """Every coprime pair with N <= 21, against the brute-force order."""
    details = {}
    start = time.perf_counter()
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
    elapsed = time.perf_counter() - start
    ok = _check(details, "pair_failures", not failures, failures[:5])
    details["pairs"] = pairs
    ok &= _check(details, "runtime_s", elapsed < 60.0 * max(tol_scale, 1e-12), elapsed)
    return ok, details


def criterion_8_trotter(tol_scale: float = 1.0) -> tuple[bool, dict]:
    """Commuting exactness, second-order error slope, search-as-simulation."""
    details = {}
    commuting = hamsim.commuting_chain(3)
    psi3 = qstate.random_state(3, Stream(SEED, "acc/trotter/commuting"))
    err_commuting = hamsim.trotter_error(commuting, hamsim.TrotterPlan(1.0, 7), psi3)
    ok = _check(details, "commuting_error", err_commuting < 1e-9 * tol_scale, err_commuting)

    model = hamsim.ising_chain(2)
    psi = qstate.random_state(2, Stream(SEED, "acc/trotter/slope"))
    deltas = [0.2, 0.1, 0.05, 0.025]
    errors = [
        hamsim.trotter_error(model, hamsim.TrotterPlan(1.0, round(1.0 / d)), psi)
        for d in deltas
    ]
    slope = float(np.polyfit(np.log(deltas), np.log(errors), 1)[0])
    ok &= _check(details, "error_slope", 1.8 <= slope <= 2.2, slope)
    details["errors"] = errors

    worst = min(1.0, *(hamsim.grover_hamiltonian_success(b, (1 << b) - 1)[0] for b in (1, 2, 3)))
    ok &= _check(details, "search_success_prob", unit_ok(worst), worst)
    return ok, details


def criterion_9_qec(tol_scale: float = 1.0) -> tuple[bool, dict]:
    """Logical rate vs 3p^2 - 2p^3 at four p values; exhaustive Shor-9 sweep."""
    details = {}
    start = time.perf_counter()
    shots = 100_000
    rate_checks = {}
    ok = True
    for p in (0.01, 0.05, 0.1, 0.2):
        rate = qec.logical_error_rate(
            "bit-flip-3", p, shots, Stream(SEED, f"acc/qec/{p}")
        )
        predicted = qec.predicted_logical_rate(p)
        sigma = math.sqrt(predicted * (1.0 - predicted) / shots)
        rate_checks[p] = (rate, predicted)
        ok &= abs(rate - predicted) <= 3.0 * sigma * max(tol_scale, 1e-12)
    details["rates"] = rate_checks
    elapsed = time.perf_counter() - start
    ok &= _check(details, "sweep_runtime_s", elapsed < 60.0, elapsed)

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
    ok &= _check(details, "shor9_min_fidelity", worst >= 1.0 - 1e-9, worst)
    return ok, details


def criterion_10_statistics(tol_scale: float = 1.0) -> tuple[bool, dict]:
    """Verified-repetition law, trimmed-mean bound vs Monte Carlo, and the
    exact values for the (eps = 0.3, alpha = 0.2) worked example."""
    details = {}
    eps = 0.3
    budget = 6
    trials = 10_000
    rng = Stream(SEED, "acc/stats/repeat")
    successes = 0
    for t in range(trials):
        stream = rng.substream(t)
        try:
            statharness.repeat_verified(
                lambda attempt: stream.uniform() >= eps, lambda good: good, budget
            )
            successes += 1
        except NotFoundError:
            pass
    expect = 1.0 - eps**budget
    sigma = math.sqrt(expect * (1.0 - expect) / trials)
    ok = _check(details, "repeat_rate",
                abs(successes / trials - expect) <= 3.0 * sigma * max(tol_scale, 1e-12),
                successes / trials)
    details["repeat_expected"] = expect

    # Mixture calibrated so that the binomial tail is the exact success law:
    # success of the trimmed mean <=> at least floor(n(1-2a))-1 good runs.
    n, alpha, zeta = 50, 0.2, 0.01
    bad_offset = 2.6 * zeta
    phi = 0.25
    bound = statharness.trimmed_success_bound(n, eps, alpha)
    model = statharness.GrossErrorModel(
        epsilon=eps,
        good=statharness.point_mass(phi),
        bad=statharness.point_mass(phi + bad_offset),
    )
    mc_trials = 10_000
    mc_rng = Stream(SEED, "acc/stats/trimmed")
    hits = 0
    for t in range(mc_trials):
        sample = model.sample(n, mc_rng.substream(t))
        if abs(statharness.trimmed_mean(sample, alpha) - phi) <= zeta:
            hits += 1
    sigma = math.sqrt(max(bound.exact * (1.0 - bound.exact), 1e-12) / mc_trials)
    ok &= _check(details, "trimmed_mc_rate",
                 abs(hits / mc_trials - bound.exact) <= 3.0 * sigma, hits / mc_trials)
    details["trimmed_bound_exact"] = bound.exact
    details["trimmed_bound_normal"] = bound.normal_approx

    # Worked example: computed and reported, not asserted against 0.999.
    verified_5 = 1.0 - eps**5
    unverified_20 = statharness.trimmed_success_bound(20, eps, alpha)
    details["example_verified_n5"] = verified_5
    details["example_unverified_n20_exact"] = unverified_20.exact
    details["example_unverified_n20_normal"] = unverified_20.normal_approx
    ok &= 0.0 < unverified_20.exact < 1.0 and 0.9 < verified_5 < 1.0
    return ok, details


def criterion_11_qmc(tol_scale: float = 1.0) -> tuple[bool, dict]:
    """Bias/variance split of the Trotterized Monte Carlo estimator."""
    details = {}
    t_final, steps = 1.0, 2
    result = hamsim.trotter_qmc(t_final, steps, 10_000, Stream(SEED, "acc/qmc"))
    ok = _check(details, "sampling_deviation",
                within_4_sigma(result.theta_hat, result.theta_prepared, result.stderr, tol_scale),
                abs(result.theta_hat - result.theta_prepared))
    # The bias against dense routes that share no code with trotter_qmc:
    # the dense Trotter step applied `steps` times, and the matrix exponential.
    model, obs = hamsim.qmc_problem()
    psi0 = qstate.basis_state(2, 0).amps
    step = hamsim.TrotterStep(model, t_final / steps).dense()
    prepared = np.linalg.matrix_power(step, steps) @ psi0
    exact = linalg.expm_hermitian(model.assemble(), -1j * t_final) @ psi0
    bias = np.vdot(prepared, obs.mat @ prepared).real - np.vdot(exact, obs.mat @ exact).real
    bias_error = float(abs(result.bias - bias))
    ok &= _check(details, "bias_identity_error", bias_error <= 1e-9, bias_error)
    details["bias"] = result.bias
    details["theta_hat"] = result.theta_hat
    return ok, details


def criterion_12_qrng(tol_scale: float = 1.0) -> tuple[bool, dict]:
    """Chi-square uniformity of 4-bit extraction at 10^5 shots."""
    details = {}
    stat = statharness.quantum_rng_chi_square(4, 100_000, Stream(SEED, "acc/qrng"))
    ok = _check(details, "chi_square", chi_square_ok(stat, tol_scale), stat)
    details["critical_value"] = CHI2_99_9_DF15
    return ok, details


CRITERIA = {
    1: ("chsh-analytic-and-mc", criterion_1_chsh),
    2: ("tsirelson-and-classical-bounds", criterion_2_tsirelson),
    3: ("teleportation", criterion_3_teleport),
    4: ("qft-vs-dense-dft", criterion_4_qft),
    5: ("phase-estimation", criterion_5_phase_estimation),
    6: ("grover-search", criterion_6_grover),
    7: ("order-finding", criterion_7_order_finding),
    8: ("trotter-simulation", criterion_8_trotter),
    9: ("qec-codes", criterion_9_qec),
    10: ("statistical-framework", criterion_10_statistics),
    11: ("qmc-bias-variance", criterion_11_qmc),
    12: ("qrng-uniformity", criterion_12_qrng),
}


def run_acceptance(ids=None, corrupt: int | None = None):
    """Run the selected criteria (all by default) and return their results.

    `corrupt` names a criterion whose tolerance is shrunk to an impossible
    value; the negative control for the reporting pipeline.
    """
    selected = sorted(CRITERIA) if ids is None else sorted(ids)
    results = []
    for cid in selected:
        name, fn = CRITERIA[cid]
        start = time.perf_counter()
        passed, details = fn(tol_scale=0.0 if corrupt == cid else 1.0)
        results.append(
            CriterionResult(
                cid=cid,
                name=name,
                passed=passed,
                elapsed=time.perf_counter() - start,
                details=details,
            )
        )
    return results
