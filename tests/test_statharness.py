import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    born_qrng,
    exact_binomial_tail,
    qmc_by_shots,
    qrng_values,
    repeat_successes_by_trial,
)
from qsim.acceptance import _repeat_successes
from qsim.errors import DomainError, NotFoundError, ResourceError
from qsim.gates import PAULI_X, PAULI_Z
from qsim.hamsim import TrotterPlan, exact_evolve, ising_chain, qmc_problem, trotter_evolve
from qsim.qstate import Observable, basis_state, expectation, random_state
from qsim.rng import Stream
from qsim.statharness import (
    TAIL_MAX_RUNS,
    GrossErrorModel,
    binomial_tail,
    chi_square_uniform,
    point_mass,
    point_mass_mixture,
    qmc_estimate,
    quantum_rng,
    quantum_rng_chi_square,
    repeat_verified,
    trimmed_mean,
    trimmed_success_bound,
)

CHI2_99_9_DF15 = 37.697


class FixedDraws:
    """Stands in for a Stream whose shot i draws u[i] first."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def shot_uniforms(self, shots, draws):
        assert shots == self.u.size and draws == 1
        return self.u[:, None]


class TestTrimmedMean:
    def test_constant_samples(self):
        assert trimmed_mean([3.5] * 7, 0.2) == 3.5

    def test_hand_sorted_example(self):
        assert trimmed_mean([1, 2, 3, 4, 100], 0.2) == pytest.approx(3.0)

    def test_zero_alpha_is_mean(self):
        data = [0.3, -1.2, 4.0, 2.2]
        assert trimmed_mean(data, 0.0) == pytest.approx(np.mean(data))

    def test_translation_equivariance(self):
        rng = Stream(1, "tm")
        data = [rng.normal() for _ in range(21)]
        base = trimmed_mean(data, 0.2)
        shifted = trimmed_mean([x + 2.5 for x in data], 0.2)
        assert shifted == pytest.approx(base + 2.5, abs=1e-12)

    def test_monotone_in_each_sample(self):
        rng = Stream(2, "tm-mono")
        data = [rng.normal() for _ in range(15)]
        base = trimmed_mean(data, 0.2)
        for i in range(len(data)):
            bumped = list(data)
            bumped[i] += 0.7
            assert trimmed_mean(bumped, 0.2) >= base - 1e-12

    def test_alpha_toward_half_approaches_median(self):
        data = [1.0, 2.0, 3.0, 4.0, 100.0]
        assert trimmed_mean(data, 0.45) == pytest.approx(np.median(data))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            trimmed_mean([], 0.2)
        with pytest.raises(DomainError):
            trimmed_mean([1.0], 0.5)
        with pytest.raises(DomainError):
            trimmed_mean([1.0, 2.0], -0.1)
        # alpha < 1/2 always leaves at least one sample: floor(2 * 0.49) = 0
        assert trimmed_mean([1.0, 2.0], 0.49) == pytest.approx(1.5)


class TestRepeatVerified:
    def test_immediate_success(self):
        report = repeat_verified(lambda i: "answer", lambda c: True, 10)
        assert report.n == 1 and report.success and report.estimate == "answer"

    def test_zero_failure_probability(self):
        rng = Stream(3, "rv")
        report = repeat_verified(lambda i: rng.uniform() >= 0.0, lambda ok: ok, 5)
        assert report.n == 1

    def test_geometric_success_law(self):
        eps, budget, trials = 0.3, 6, 4000
        rng = Stream(5, "rv-law")
        successes = 0
        for t in range(trials):
            stream = rng.substream(t)
            try:
                repeat_verified(lambda i: stream.uniform() >= eps, lambda ok: ok, budget)
                successes += 1
            except NotFoundError:
                pass
        expected = 1.0 - eps**budget
        sigma = math.sqrt(expected * (1.0 - expected) / trials)
        assert abs(successes / trials - expected) <= 3.0 * sigma

    def test_budget_exhaustion_report(self):
        with pytest.raises(NotFoundError) as info:
            repeat_verified(lambda i: i * 10, lambda c: False, 3)
        report = info.value.report
        assert not report.success and report.per_run == (10, 20, 30)


class TestTrimmedSuccessBound:
    def test_no_contamination_is_certain(self):
        assert trimmed_success_bound(10, 0.0, 0.2).exact == 1.0

    def test_exact_matches_fraction_oracle(self):
        bound = trimmed_success_bound(20, 0.3, 0.2)
        oracle = exact_binomial_tail(20, math.floor(20 * 0.6) - 1, 7, 10)
        assert bound.exact == pytest.approx(oracle, abs=1e-13)
        bound = trimmed_success_bound(50, 0.2, 0.25)
        oracle = exact_binomial_tail(50, math.floor(50 * 0.5) - 1, 8, 10)
        assert bound.exact == pytest.approx(oracle, abs=1e-12)

    def test_normal_approximation_tracks_exact_for_large_n(self):
        bound = trimmed_success_bound(400, 0.2, 0.25)
        assert abs(bound.exact - bound.normal_approx) < 0.02

    def test_nondecreasing_beyond_parity_effects(self):
        values = [trimmed_success_bound(n, 0.2, 0.3).exact for n in range(10, 80, 2)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        stride5 = [trimmed_success_bound(n, 0.3, 0.2).exact for n in range(15, 200, 5)]
        assert all(b >= a - 1e-12 for a, b in zip(stride5, stride5[1:]))

    def test_alpha_precondition(self):
        with pytest.raises(DomainError):
            trimmed_success_bound(20, 0.5, 0.2)

    def test_binomial_tail_edges(self):
        assert binomial_tail(10, 0, 0.3) == 1.0
        assert binomial_tail(10, 11, 0.3) == 0.0
        assert binomial_tail(10, 3, 1.0) == 1.0
        assert binomial_tail(10, 3, 0.0) == 0.0


class TestGrossErrorRobustness:
    """Point-mass mixture: good at phi, bad at phi + 10 zeta, eps = 0.2,
    alpha = 0.25, n = 50. Success of the trimmed mean is exactly
    K <= 14 bad draws (12 trimmed plus 2 surviving within tolerance),
    so the analytic law is the Bin(50, 0.2) CDF at 14."""

    EPS, ALPHA, N, ZETA, PHI = 0.2, 0.25, 50, 0.01, 0.3
    TRUE_SUCCESS = 0.9392779203680498  # 1 - P(K >= 15), frozen from the tail sum
    CONSERVATIVE = 0.813943006537378  # P(K <= 12): every bad value trimmed

    def _mixture(self):
        return GrossErrorModel(
            epsilon=self.EPS,
            good=point_mass(self.PHI),
            bad=point_mass(self.PHI + 10 * self.ZETA),
        )

    def test_frozen_laws_match_binomial(self):
        assert 1.0 - binomial_tail(50, 15, 0.2) == pytest.approx(self.TRUE_SUCCESS, abs=1e-12)
        assert 1.0 - binomial_tail(50, 13, 0.2) == pytest.approx(self.CONSERVATIVE, abs=1e-12)

    def test_empirical_success_matches_analytic_law(self):
        model = self._mixture()
        trials = 4000
        rng = Stream(7, "gross")
        hits = 0
        for t in range(trials):
            sample = model.sample(self.N, rng.substream(t))
            if abs(trimmed_mean(sample, self.ALPHA) - self.PHI) <= self.ZETA:
                hits += 1
        rate = hits / trials
        sigma = math.sqrt(self.TRUE_SUCCESS * (1 - self.TRUE_SUCCESS) / trials)
        assert abs(rate - self.TRUE_SUCCESS) <= 3.0 * sigma
        assert rate >= self.CONSERVATIVE - 3.0 * sigma

    def test_paper_formula_value_is_reported_not_asserted(self):
        # the n(1-2a) tail exceeds the actual success law for this mixture;
        # pin its value so the discrepancy stays visible
        bound = trimmed_success_bound(self.N, self.EPS, self.ALPHA)
        assert bound.exact == pytest.approx(0.9999998927930573, abs=1e-12)
        assert bound.exact > self.TRUE_SUCCESS


class TestExponentialApproach:
    def test_verified_strategy_failure_squares(self):
        eps, n, trials = 0.3, 3, 20000
        rng = Stream(11, "exp")
        fail_n = 0
        fail_2n = 0
        for t in range(trials):
            stream = rng.substream(t)
            draws = [stream.uniform() >= eps for _ in range(2 * n)]
            if not any(draws[:n]):
                fail_n += 1
            if not any(draws):
                fail_2n += 1
        f_n = fail_n / trials
        f_2n = fail_2n / trials
        sigma_n = math.sqrt(max(f_n * (1 - f_n), 1e-9) / trials)
        sigma_2n = math.sqrt(max(f_2n * (1 - f_2n), 1e-9) / trials)
        assert f_2n + 3 * sigma_2n <= max(f_n - 3 * sigma_n, 0.0) ** 1.5

    def test_trimmed_bound_failure_decays_superexponentially(self):
        for n in (20, 30):
            f_n = 1.0 - trimmed_success_bound(n, 0.25, 0.3).exact
            f_2n = 1.0 - trimmed_success_bound(2 * n, 0.25, 0.3).exact
            assert f_2n <= f_n**1.5


class TestQmc:
    def _setup(self):
        model = ising_chain(2, coupling=0.6, field=0.7)
        psi0 = basis_state(2, 0)
        obs = Observable(np.kron(PAULI_Z, np.eye(2)))
        target = exact_evolve(model, 1.0, psi0)
        return model, psi0, obs, target

    def test_exact_preparation_is_unbiased(self):
        model, psi0, obs, target = self._setup()
        result = qmc_estimate(obs, target, 4000, Stream(13, "qmc"), target)
        assert result.bias == pytest.approx(0.0, abs=1e-12)
        assert abs(result.theta_hat - result.theta_true) <= 4.0 * result.stderr

    def test_trotterized_bias_identity(self):
        model, psi0, obs, target = self._setup()
        plan = TrotterPlan(1.0, 2)
        prepared = trotter_evolve(model, plan, psi0)[-1]
        result = qmc_estimate(obs, prepared, 4000, Stream(17, "qmc-b"), target)
        theta_tilde = expectation(prepared, obs)
        theta = expectation(target, obs)
        assert result.bias == pytest.approx(theta_tilde - theta, abs=1e-9)
        assert abs(result.theta_hat - theta_tilde) <= 4.0 * result.stderr
        assert result.bias != 0.0

    @settings(max_examples=40)
    @given(state_seed=st.integers(0, 2**64 - 1), seed=st.integers(0, 2**64 - 1),
           shots=st.integers(1, 300), steps=st.integers(1, 4), mixed=st.booleans())
    def test_matches_per_shot_measurement(self, state_seed, seed, shots, steps, mixed):
        model, obs = qmc_problem()
        if mixed:  # eigenvalues +-0.6, +-0.8: their float sums depend on the order
            obs = Observable(0.1 * obs.mat + 0.7 * np.kron(np.eye(2), PAULI_X))
        psi0 = random_state(2, Stream(state_seed, "qmc-psi"))
        prepared = trotter_evolve(model, TrotterPlan(1.0, steps), psi0)[-1]
        result = qmc_estimate(obs, prepared, shots, Stream(seed, "qmc"), psi0)
        expected = qmc_by_shots(obs, prepared, shots, Stream(seed, "qmc"))
        assert (result.theta_hat, result.variance) == expected

    def test_single_shot_returns_one_eigenvalue(self):
        _, _, obs, target = self._setup()
        result = qmc_estimate(obs, target, 1, Stream(19, "one"), target)
        assert result.theta_hat in (-1.0, 1.0)
        assert result.n == 1


class TestQuantumRng:
    def test_single_bit_frequency(self):
        shots = 20000
        values = quantum_rng(1, shots, Stream(23, "qrng1"))
        ones = sum(values)
        assert abs(ones / shots - 0.5) <= 3.0 * math.sqrt(0.25 / shots)

    def test_four_bit_uniformity(self):
        shots = 20000
        values = quantum_rng(4, shots, Stream(29, "qrng4"))
        counts = [0] * 16
        for v in values:
            counts[v] += 1
        assert chi_square_uniform(counts, 16) < CHI2_99_9_DF15

    def test_reproducible_stream(self):
        a = quantum_rng(3, 500, Stream(31, "det"))
        b = quantum_rng(3, 500, Stream(31, "det"))
        assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("b", range(1, 7))
    def test_matches_per_shot_measurement(self, b):
        values = quantum_rng(b, 300, Stream(33, f"oracle{b}")).tolist()
        assert all(type(v) is int for v in values)
        assert values == qrng_values(b, 300, Stream(33, f"oracle{b}"))

    @settings(max_examples=60)
    @given(b=st.integers(1, 12), seed=st.integers(0, 2**32))
    def test_matches_the_born_route_on_random_draws(self, b, seed):
        got = quantum_rng(b, 500, Stream(seed, "born"))
        assert np.array_equal(got, born_qrng(b, 500, Stream(seed, "born")))

    @staticmethod
    def _edge_bins(b):
        """(edges j, {neighbour: (closed-form bins, Born bins)}) for the draws
        j/2^b, j = 1..2^b - 1, and the floats just below and above them."""
        j = np.arange(1, 1 << b)
        edge = np.ldexp(j.astype(float), -b)
        draws = {"below": np.nextafter(edge, 0.0), "edge": edge, "above": np.nextafter(edge, 1.0)}
        routes = (quantum_rng, born_qrng)
        return j, {name: tuple(route(b, u.size, FixedDraws(u)) for route in routes)
                   for name, u in draws.items()}

    @pytest.mark.parametrize("b", range(2, 13, 2))
    def test_matches_the_born_route_on_every_edge_at_even_b(self, b):
        # fl(2^(-b/2))^2 = 2^-b exactly, so the Born CDF's edges are the j/2^b
        j, bins = self._edge_bins(b)
        for name, (closed, born) in bins.items():
            assert np.array_equal(closed, born), name
            assert np.array_equal(closed, j - (name == "below")), name

    @pytest.mark.parametrize("b", range(1, 13, 2))
    def test_odd_b_edges_pin_the_born_route_one_rounding_high(self, b):
        """At odd b the Born route's probabilities sit one rounding above
        2^-b, so its CDF edges sit above the j/2^b: the draw on an edge,
        and the float above it when j's two leading bits are 11, land in
        bin j - 1 there. The closed form keeps floor(2^b u), the exact law."""
        j, bins = self._edge_bins(b)
        leading_11 = np.array([k > 2 and k >> (k.bit_length() - 2) == 3 for k in j.tolist()])
        want = {"below": (j - 1, j - 1), "edge": (j, j - 1), "above": (j, j - leading_11)}
        for name, (closed, born) in bins.items():
            assert np.array_equal(closed, want[name][0]), name
            assert np.array_equal(born, want[name][1]), name

    @pytest.mark.parametrize("b", [1, 12, 24])
    def test_unit_interval_ends(self, b):
        u = np.array([0.0, np.nextafter(1.0, 0.0)])
        assert quantum_rng(b, 2, FixedDraws(u)).tolist() == [0, (1 << b) - 1]

    def test_chi_square_counts_only_the_occupied_bins(self):
        # 2 bins of 4 occupied, 8 draws: expected 2, (4 - 2)^2 / 2 twice, plus 2 + 2
        assert chi_square_uniform([4, 4], 4) == 8.0
        assert chi_square_uniform([4, 4, 0, 0], 4) == 8.0
        values = quantum_rng(10, 50, Stream(35, "sparse"))
        counts = np.bincount(values, minlength=1 << 10).tolist()
        assert chi_square_uniform(counts, 1 << 10) == pytest.approx(
            quantum_rng_chi_square(10, 50, Stream(35, "sparse")), rel=1e-12)

    def test_chi_square_rejects_empty(self):
        with pytest.raises(DomainError):
            chi_square_uniform([], 4)

    @pytest.mark.parametrize("counts, bins", [([0, 0], 4), ([1, 1, 1], 2)])
    def test_chi_square_rejects_no_draws_or_too_many_bins(self, counts, bins):
        with pytest.raises(DomainError):
            chi_square_uniform(counts, bins)


class TestGrossErrorModel:
    def test_epsilon_validated(self):
        with pytest.raises(DomainError):
            GrossErrorModel(epsilon=1.0, good=point_mass(0), bad=point_mass(1))

    def test_draw_mixes(self):
        model = GrossErrorModel(epsilon=0.4, good=point_mass(0.0), bad=point_mass(1.0))
        rng = Stream(37, "mix")
        draws = model.sample(20000, rng)
        assert abs(np.mean(draws) - 0.4) <= 3.0 * math.sqrt(0.24 / 20000)


@settings(max_examples=50)
@given(seed=st.integers(0, 2**64 - 1), eps=st.floats(0.0, 0.99),
       good=st.floats(-1e3, 1e3), bad=st.floats(-1e3, 1e3),
       n=st.integers(1, 60), shots=st.integers(1, 40))
def test_point_mass_mixture_matches_the_per_shot_model(seed, eps, good, bad, n, shots):
    rng = Stream(seed, "mixture")
    model = GrossErrorModel(epsilon=eps, good=point_mass(good), bad=point_mass(bad))
    expected = [model.sample(n, rng.substream(t)) for t in range(shots)]
    assert point_mass_mixture(eps, good, bad, n, shots, rng).tolist() == expected


def test_point_mass_mixture_never_draws_floats(monkeypatch):
    want = point_mass_mixture(0.3, 0.25, 0.5, 20, 30, Stream(3, "words")).tolist()

    def refuse(self, shot_indices, draws):
        raise AssertionError("the mixture drew float uniforms")

    monkeypatch.setattr(Stream, "uniforms", refuse)
    assert point_mass_mixture(0.3, 0.25, 0.5, 20, 30, Stream(3, "words")).tolist() == want


@settings(max_examples=50)
@given(seed=st.integers(0, 2**64 - 1), eps=st.floats(0.0, 1.0),
       budget=st.integers(1, 8), trials=st.integers(1, 300))
def test_batched_repetition_matches_the_per_trial_loop(seed, eps, budget, trials):
    rng = Stream(seed, "repeat")
    assert _repeat_successes(rng, trials, eps, budget) == repeat_successes_by_trial(
        rng, trials, eps, budget)


def test_point_mass_mixture_checks_epsilon():
    with pytest.raises(DomainError):
        point_mass_mixture(1.0, 0.0, 1.0, 3, 2, Stream(1, "eps"))


# validation raises that no other in-process test reaches
@pytest.mark.parametrize("call, error, fragment", [
    (lambda: repeat_verified(lambda i: i, lambda c: True, 0), DomainError,
     "max_runs must be at least 1"),
    (lambda: trimmed_success_bound(0, 0.1, 0.2), DomainError, "n must be at least 1"),
    (lambda: trimmed_success_bound(5, -0.1, 0.2), DomainError, "epsilon must lie in"),
    (lambda: trimmed_success_bound(5, 1.0, 0.2), DomainError, "epsilon must lie in"),
    (lambda: trimmed_success_bound(5, 0.1, 0.0), DomainError, "alpha must lie in"),
    (lambda: trimmed_success_bound(5, 0.1, 0.5), DomainError, "alpha must lie in"),
    (lambda: binomial_tail(TAIL_MAX_RUNS + 1, 1, 0.5), ResourceError, "cap of 1000000"),
], ids=["max-runs-0", "n-0", "epsilon-negative", "epsilon-1", "alpha-0", "alpha-half",
        "runs-past-cap"])
def test_bad_input_raises(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
