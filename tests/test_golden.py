"""Every `qsim run` golden case reproduces its committed output byte for
byte (see make_goldens.py; the criterion details are compared in
test_acceptance.py)."""

import pytest

from make_goldens import CLI_CASES, cli_path, run_case


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_matches_golden(case):
    code, out = run_case(CLI_CASES[case])
    assert code == 0
    assert out.encode() == cli_path(case).read_bytes()
