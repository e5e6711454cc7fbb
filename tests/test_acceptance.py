"""Acceptance gate: every exit criterion at its stated tolerance.

Each test runs one criterion from the acceptance module (fixed published
seeds), prints its PASS/FAIL line, asserts the verdict, and compares the
criterion's details, timings aside, with its golden (make_goldens.py).
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or `qsim acceptance` for the standalone report.
"""

import math

import pytest

from make_goldens import acceptance_path, details_line
from qsim import acceptance, hamsim
from qsim.acceptance import CRITERIA, CriterionResult, run_acceptance
from qsim.algorithms import GroverPlan
from qsim.entangle import ChshResult
from qsim.errors import DomainError
from qsim.statharness import QmcResult


CIDS = sorted(CRITERIA)
CID_NAMES = [f"{i:02d}-{CRITERIA[i][0]}" for i in CIDS]


@pytest.mark.parametrize("cid", CIDS, ids=CID_NAMES)
def test_criterion(cid):
    result = run_acceptance(ids=[cid])[0]
    print()
    print(result.line())
    for key, value in result.details.items():
        print(f"    {key}: {value}")
    assert result.passed, f"{result.name} failed: {result.details}"
    assert details_line(cid, result.details) + "\n" == acceptance_path(cid).read_text()


@pytest.mark.parametrize("cid", CIDS, ids=CID_NAMES)
def test_negative_control_corruption_fails_loudly(cid, monkeypatch):
    """With every check forced to fail, the criterion reports FAIL."""
    monkeypatch.setattr(acceptance, "_check", lambda details, label, ok, value: False)
    result = run_acceptance(ids=[cid])[0]
    assert not result.passed
    assert isinstance(result, CriterionResult)
    assert result.line().startswith("FAIL")


@pytest.mark.parametrize("cid, label", [
    (9, "rates"), (10, "example_verified_n5"), (10, "example_unverified_n20_exact"),
])
def test_one_failed_check_fails_its_criterion(cid, label, monkeypatch):
    """A criterion reports FAIL when only the check under `label` fails."""
    check = acceptance._check
    monkeypatch.setattr(acceptance, "_check", lambda details, name, ok, value:
                        check(details, name, ok and name != label, value))
    result = run_acceptance(ids=[cid])[0]
    assert label in result.details
    assert not result.passed and result.line().startswith("FAIL")


def _stub(*checks, details=None):
    """A criterion that reports `checks` and writes `details`."""
    def criterion(check, out):
        out.update(details or {})
        for label, ok in checks:
            check(label, ok, ok)
    return criterion


@pytest.mark.parametrize("checks, passed", [
    ([("a", True), ("b", True)], True),
    ([("a", True), ("b", False)], False),
    ([("a", False)], False),
    ([], False),  # a criterion that checked nothing has not passed
])
def test_verdict_is_every_reported_check(monkeypatch, checks, passed):
    stub = _stub(*checks, details={"n": 3})
    monkeypatch.setattr(acceptance, "CRITERIA", {1: ("stub", stub, None)})
    result = run_acceptance()[0]
    assert result.passed is passed and result.line().startswith("PASS" if passed else "FAIL")
    assert result.details == {"n": 3, **{label: ok for label, ok in checks}}


@pytest.mark.parametrize("budget, passed", [(60.0, True), (0.0, False)])
def test_budget_is_a_check_on_the_whole_criterion(monkeypatch, budget, passed):
    monkeypatch.setattr(acceptance, "CRITERIA", {1: ("stub", _stub(("a", True)), budget)})
    result = run_acceptance(ids=[1])[0]
    assert result.passed is passed
    assert list(result.details) == ["a", "runtime_s"]
    assert result.details["runtime_s"] == result.elapsed


@pytest.mark.parametrize("ids, message", [
    ([], "no criteria selected"), ([0], r"unknown criteria: \[0\]"),
    ([4, 13, -1], r"unknown criteria: \[-1, 13\]"),
])
def test_empty_or_unknown_selection_raises(ids, message):
    with pytest.raises(DomainError, match=message):
        run_acceptance(ids=ids)


def test_criterion_11_sees_a_sign_flip_in_the_trotter_factors(monkeypatch, cold_laws):
    """e^{+i H d} for e^{-i H d}: the expectations of the time-reversal
    symmetric qmc problem do not move, so only the amplitude check fails."""
    exponential = hamsim._exponential
    monkeypatch.setattr(hamsim, "_exponential",
                        lambda mat, pauli, delta: exponential(mat, pauli, -delta))
    result = run_acceptance(ids=[11])[0]
    assert not result.passed
    assert result.details["bias_identity_error"] <= 1e-9
    assert result.details["prepared_amplitude_error"] > 0.5


def test_budgets_are_the_published_gates():
    budgets = {cid: entry[2] for cid, entry in CRITERIA.items() if entry[2] is not None}
    assert budgets == {1: 5.0, 2: 10.0, 7: 60.0}


GROVER_64 = GroverPlan.for_counts(64, 1)
_P64 = GROVER_64.success_probability


def _qmc_ok(theta_hat):
    # theta_prepared 0.5 at n = 3: sigma = sqrt((1 - 0.25) / 3) = 0.5 exactly
    return acceptance.qmc_ok(QmcResult(theta_hat=theta_hat, theta_true=0.5,
                                       theta_prepared=0.5, bias=0.0, variance=0.0, n=3))


def _chsh_ok(value):
    # 32 shots a pair: sigma^2 = 4 * 0.5 / 32, so 4 sigma = 1 exactly
    counts = dict.fromkeys(("13", "23", "24", "14"), 32)
    return acceptance.chsh_ok(ChshResult(value=value, stderr=0.0, correlators={},
                                         counts=counts, settings=None, outcomes=None))


# (verdict on one value, the last value it passes, the way out of the pass region)
BOUNDARIES = {
    "teleport_ok": (acceptance.teleport_ok, 1.0 - 1e-10, -math.inf),
    "error_ok": (acceptance.error_ok, 1e-9, math.inf),
    "unit_ok": (acceptance.unit_ok, 1.0 - 1e-9, -math.inf),
    "coverage_ok": (lambda c: acceptance.coverage_ok(c, 0.1, 2000),
                    (1.0 - 0.1) - 3.0 * math.sqrt(0.1 * (1.0 - 0.1) / 2000), -math.inf),
    "grover_ok": (lambda rate: acceptance.grover_ok(rate, GROVER_64, 1000),
                  1.0 - 1.0 / 64 - 3.0 * math.sqrt(_P64 * (1.0 - _P64) / 1000), -math.inf),
    "chi_square_ok": (acceptance.chi_square_ok, math.nextafter(37.697, 0.0), math.inf),
    "chi_square_ok_1024_bins": (lambda stat: acceptance.chi_square_ok(stat, 1024),
                                math.nextafter(acceptance.chi_square_critical(1024), 0.0),
                                math.inf),
    "qmc_ok": (_qmc_ok, 0.5 + 2.0, math.inf),
    "chsh_ok": (_chsh_ok, 2.0 * math.sqrt(2.0) - 1.0, -math.inf),
    "within_4_sigma": (lambda e: acceptance.within_4_sigma(e, 1.0, 0.5), 3.0, math.inf),
    # 1 - 1/8 - 3/sqrt(64) = 1/2
    "count_ok": (lambda a: acceptance.count_ok(a, 0.125, 64), 0.5, -math.inf),
    # predicted 1/4 at 16 shots: max(3 * 1/8, 3/16) + 3 sqrt(1/64) = 3/4 either side
    "qec_rate_ok": (lambda r: acceptance.qec_rate_ok(r, 0.25, 0.125, 16), 1.0, math.inf),
    # predicted 0 at 16 shots with no spread: the 3 / shots floor alone
    "qec_rate_ok_floor": (lambda r: acceptance.qec_rate_ok(r, 0.0, 0.0, 16), 0.1875, math.inf),
}


@pytest.mark.parametrize("name", BOUNDARIES)
def test_verdict_passes_at_its_threshold_and_fails_one_step_past(name):
    """Each verdict's decision rule, pinned at its boundary: the threshold
    passes (the last value below chi-square's strict critical value) and
    the next float past it fails."""
    verdict, edge, outward = BOUNDARIES[name]
    assert verdict(edge) is True
    assert verdict(math.nextafter(edge, outward)) is False


# chi-square 0.999 quantiles from the tables, by degrees of freedom
CHI2_99_9 = {1: 10.828, 3: 16.266, 7: 24.322, 15: 37.697, 31: 61.098, 1023: 1168.497}


@pytest.mark.parametrize("df", CHI2_99_9)
def test_chi_square_critical_is_never_below_the_tabulated_quantile(df):
    # Wilson-Hilferty overshoots these quantiles, by at most 3.1% (at df = 1)
    got, tabulated = acceptance.chi_square_critical(df + 1), CHI2_99_9[df]
    assert tabulated <= got <= 1.031 * tabulated
    assert (got == tabulated) == (df == 15)
