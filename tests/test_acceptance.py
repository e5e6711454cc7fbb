"""Acceptance gate: every exit criterion at its stated tolerance.

Each test runs one criterion from the acceptance module (fixed published
seeds), prints its PASS/FAIL line, asserts the verdict, and compares the
criterion's details, timings aside, with its golden (make_goldens.py).
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or `qsim acceptance` for the standalone report.
"""

import pytest

from make_goldens import acceptance_path, details_line
from qsim import acceptance
from qsim.acceptance import CRITERIA, CriterionResult, run_acceptance


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
