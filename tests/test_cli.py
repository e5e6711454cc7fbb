import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from children import child_env
from make_goldens import CLI_CASES
from qsim import acceptance, cli, entangle, linalg
from qsim.cli import EXPERIMENTS, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_rows(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestRun:
    def test_chsh_row_schema_and_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "chsh", "--shots", "2000", "--seed", "7"
        )
        assert code == 0
        rows = parse_rows(out)
        head = rows[0]
        assert head["metric"] == "chsh_value"
        assert head["experiment"] == "chsh" and head["seed"] == 7
        assert head["reference"] == pytest.approx(2.8284271247461903)
        assert "stderr" in head

    def test_determinism_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "run", "--experiment", "teleport",
                             "--shots", "300", "--seed", "11")
        _, out2, _ = run_cli(capsys, "run", "--experiment", "teleport",
                             "--shots", "300", "--seed", "11")
        assert out1 == out2

    def test_threads_do_not_change_output(self, capsys):
        base = run_cli(capsys, "run", "--experiment", "chsh", "--shots", "500",
                       "--seed", "3", "--threads", "1")[1]
        multi = run_cli(capsys, "run", "--experiment", "chsh", "--shots", "500",
                        "--seed", "3", "--threads", "4")[1]
        assert base == multi

    def test_qec_sweep_csv_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "qec-sweep", "--shots", "400",
            "--p", "0.0", "0.1", "--format", "csv",
        )
        assert code == 0
        header = out.splitlines()[0].split(",")
        for column in ("p", "shots", "failures", "rate", "predicted", "stderr"):
            assert column in header
        first = out.splitlines()[1].split(",")
        assert first[header.index("rate")] == "0.0"

    @pytest.mark.parametrize("p", ["1.5", "nan"])
    def test_qec_sweep_rejects_bad_p(self, capsys, p):
        code, out, err = run_cli(capsys, "run", "--experiment", "qec-sweep",
                                 "--shots", "10", "--p", p)
        assert code == 2 and out == "" and "flip probability" in err

    def test_qec_sweep_certain_and_null_flips(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--experiment", "qec-sweep",
                               "--shots", "10", "--p", "1.0", "0.0", "--assert")
        assert code == 0
        assert [row["rate"] for row in parse_rows(out)] == [1.0, 0.0]

    def test_grover_certain_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "grover", "--bits", "2", "--marked", "3",
            "--shots", "100", "--assert",
        )
        assert code == 0
        assert parse_rows(out)[0]["value"] == 1.0
        # the search Hamiltonian at its default 4 bits is certain too
        code, out, _ = run_cli(capsys, "run", "--experiment", "grover-ham", "--assert")
        assert code == 0
        assert parse_rows(out)[0]["bits"] == 4

    def test_order_find_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "order-find", "--x-base", "7",
            "--modulus", "15", "--seed", "5", "--assert",
        )
        assert code == 0
        row = parse_rows(out)[0]
        assert row["value"] == 4 and row["reference"] == 4

    def test_stats_bound_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "stats-bound", "--n-runs", "20",
            "--epsilon", "0.3", "--alpha", "0.2",
        )
        assert code == 0
        by_metric = {row["metric"]: row["value"] for row in parse_rows(out)}
        assert by_metric["exact_binomial"] == pytest.approx(0.9520381026686563)
        assert by_metric["normal_approx"] == pytest.approx(0.8354430070106961)

    def test_parameter_validation_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--experiment", "order-find", "--x-base", "6", "--modulus", "9"
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    @pytest.mark.parametrize("shots", ["0", "-3"])
    def test_shots_below_one_exit_2(self, capsys, experiment, shots):
        code, out, err = run_cli(capsys, "run", "--experiment", experiment, "--shots", shots)
        assert code == 2 and out == ""
        assert "--shots must be at least 1" in err
        # --threads is ignored, but a value below 1 is rejected the same way
        code, out, err = run_cli(capsys, "run", "--experiment", experiment, "--threads", shots)
        assert code == 2 and out == ""
        assert "--threads must be at least 1" in err

    def test_parser_is_built_once_and_reused(self, capsys):
        parser = build_parser()
        hits = build_parser.cache_info().hits
        argv = ("run", "--experiment", "qec-sweep", "--shots", "300", "--seed", "5")
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second and first[0] == 0 and first[1]
        assert build_parser() is parser and build_parser.cache_info().hits == hits + 3
        # no default is a shared mutable object
        assert parser.parse_args(argv).p == (0.01, 0.05, 0.1, 0.2)
        assert [row["p"] for row in parse_rows(first[1])] == [0.01, 0.05, 0.1, 0.2]

    def test_unknown_experiment_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qsim.cli", "run", "--experiment", "nonsense"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 2

    def test_bell_axis_experiment(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "bell", "--shots", "300",
            "--axis", "0", "0", "1", "--assert",
        )
        assert code == 0
        rows = parse_rows(out)
        assert rows[0]["metric"] == "anticorrelation_violations"
        assert rows[0]["value"] == 0

    def test_phase_est_experiment(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "phase-est", "--shots", "150",
            "--zeta", "0.0625", "--epsilon", "0.1", "--phase", "0.3333333333333333",
            "--assert",
        )
        assert code == 0
        row = parse_rows(out)[0]
        assert row["register_qubits"] == 7
        assert row["value"] >= 0.8

    def test_qmc_assert_takes_sigma_at_the_reference(self, capsys):
        # theta_hat = -0.66 against -0.323: 4.49 sample stderrs, but 3.6 standard
        # deviations sqrt((1 - theta^2)/n) of the shot mean at the reference
        code, out, _ = run_cli(capsys, "run", "--experiment", "qmc", "--shots", "100",
                               "--steps", "2", "--seed", "4111601437", "--assert")
        assert code == 0
        assert parse_rows(out)[0]["value"] == -0.66

    def test_phase_est_assert_takes_sigma_at_the_reference(self, capsys, monkeypatch):
        # 5 of 10 estimates inside zeta lie 2.5 sample sigmas below 0.9, but
        # 4.2 sigmas sqrt(0.1 * 0.9 / 10) taken at the reference; 7 of 10 lie 2.1
        assert not acceptance.coverage_ok(0.5, 0.1, 10)
        assert acceptance.coverage_ok(0.7, 0.1, 10)
        monkeypatch.setattr(acceptance, "coverage_ok", lambda coverage, eps, shots: False)
        code, _, _ = run_cli(capsys, "run", "--experiment", "phase-est", "--shots", "10",
                             "--phase", "0", "--assert")
        assert code == 3

    def test_chsh_assert_takes_sigma_at_the_reference(self, capsys):
        # two pairs a setting, every correlator +-1: the sample stderr is 0, but
        # sigma at the reference is sqrt(4 (1 - 1/2) / 2) = 1
        code, out, _ = run_cli(capsys, "run", "--experiment", "chsh", "--shots", "8",
                               "--seed", "1", "--assert")
        assert code == 0
        head = parse_rows(out)[0]
        assert (head["value"], head["stderr"]) == (4.0, 0.0)
        # at 100 pairs a setting sigma is 0.141: the classical bound 2 lies 5.9 sigma off
        counts = dict.fromkeys(("13", "23", "24", "14"), 100)
        for value, ok in ((2.0, False), (2.6, True)):
            result = entangle.ChshResult(value=value, stderr=0.0, correlators={},
                                         counts=counts, settings=None, outcomes=None)
            assert acceptance.chsh_ok(result) is ok

    @pytest.mark.parametrize("argv, named", [
        (["count", "--m-count", "-1", "--assert"], "--m-count"),
        (["count", "--bits", "4", "--m-count", "17"], "--m-count"),
        (["order-find", "--modulus", "1"], "modulus"),
        (["qmc", "--t-final", "nan"], "t_final"),
        (["trotter", "--t-final", "inf"], "t_final"),
        (["phase-est", "--phase", "inf"], "phase"),
        (["phase-est", "--phase", "nan"], "phase"),
        (["bell", "--axis", "nan", "0", "1"], "axis"),
    ])
    def test_bad_parameters_exit_2_and_name_the_parameter(self, capsys, argv, named):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "run", "--shots", "5", "--experiment", *argv)
        assert code == 2 and out == "" and caught == []
        assert err.startswith("error: ") and named in err

    def test_m_count_range_ends_are_accepted(self, capsys):
        for m in ("0", "16"):
            code, out, _ = run_cli(capsys, "run", "--experiment", "count", "--bits", "4",
                                   "--m-count", m, "--shots", "20", "--assert")
            assert code == 0 and parse_rows(out)[0]["value"] == int(m)

    def test_qmc_experiment(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "qmc", "--shots", "1500", "--assert"
        )
        assert code == 0
        by_metric = {row["metric"]: row for row in parse_rows(out)}
        assert by_metric["bias"]["value"] == pytest.approx(
            by_metric["bias"]["reference"], abs=1e-9
        )


class TestAcceptanceCommand:
    def test_single_criterion_pass(self, capsys):
        code, out, _ = run_cli(capsys, "acceptance", "--criteria", "4")
        assert code == 0
        assert out.startswith("PASS  criterion  4")

    def test_corrupted_tolerance_fails_with_name(self, capsys, monkeypatch):
        monkeypatch.setattr(acceptance, "_check", lambda details, label, ok, value: False)
        code, out, err = run_cli(capsys, "acceptance", "--criteria", "1")
        assert code == 3
        assert out.startswith("FAIL  criterion  1")
        assert "chsh" in err

    def test_repeated_criterion_runs_once(self, capsys):
        code, out, _ = run_cli(capsys, "acceptance", "--criteria", "6,6")
        assert code == 0
        assert [line.split("(")[0] for line in out.splitlines()] == [
            "PASS  criterion  6  grover-search  "
        ]

    def test_unknown_criterion_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "acceptance", "--criteria", "99")
        assert code == 2
        assert "unknown" in err

    @pytest.mark.parametrize("ids", ["x", ",,", "4,x"])
    def test_malformed_criteria_exit_2(self, capsys, ids):
        try:
            code = main(["acceptance", "--criteria", ids])
        except SystemExit as stop:
            code = stop.code
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "Traceback" not in err
        assert "argument --criteria" in err or "no criteria selected" in err

    def test_report_is_reproducible(self, capsys):
        first = run_cli(capsys, "acceptance", "--criteria", "4")[1]
        second = run_cli(capsys, "acceptance", "--criteria", "4")[1]
        assert first.split("(")[0] == second.split("(")[0]  # timing varies, verdict fixed


class TestQrngVerdict:
    """qrng decides at every size once shots >= 5 * 2^bits, the chi-square
    law's usual condition, against `acceptance.chi_square_critical`."""

    def test_ten_bits_get_a_verdict_at_five_shots_a_bin(self, capsys, monkeypatch):
        argv = ["run", "--experiment", "qrng", "--bits", "10", "--shots", "5120", "--assert"]
        code, out, _ = run_cli(capsys, *argv)
        [row] = parse_rows(out)
        assert code == 0 and row["value"] < row["reference"]
        assert row["reference"] == acceptance.chi_square_critical(1024)
        monkeypatch.setattr(acceptance, "chi_square_critical", lambda bins: row["value"])
        assert run_cli(capsys, *argv)[0] == 3

    @pytest.mark.parametrize("bits, needed", [(4, 80), (10, 5120)])
    def test_assert_below_the_shot_rule_exits_2_naming_the_shots_needed(self, capsys,
                                                                          bits, needed):
        argv = ["run", "--experiment", "qrng", "--bits", str(bits)]
        code, out, err = run_cli(capsys, *argv, "--shots", str(needed - 1), "--assert")
        assert code == 2 and out == "" and f"--shots >= {needed}" in err
        code, out, _ = run_cli(capsys, *argv, "--shots", str(needed - 1))
        assert code == 0 and "reference" not in parse_rows(out)[0]
        code, out, _ = run_cli(capsys, *argv, "--shots", str(needed), "--assert")
        assert code == 0 and "reference" in parse_rows(out)[0]


def test_chsh_emit_shots_rows(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--experiment", "chsh", "--shots", "50", "--emit-shots"
    )
    assert code == 0
    shot_rows = [r for r in parse_rows(out) if r["metric"] == "shot"]
    assert len(shot_rows) == 50
    first = shot_rows[0]
    assert {"shot", "setting", "alice", "bob"} <= set(first)
    assert first["alice"] in (-1, 1) and first["bob"] in (-1, 1)


def test_a_second_chsh_run_makes_no_eigensolve(capsys, monkeypatch):
    # the default setting, its pair embeddings and the singlet are built once;
    # bell's axis observable and its embeddings are built on every run
    chsh = ["run", "--experiment", "chsh", "--shots", "200", "--seed", "5"]
    first = run_cli(capsys, *chsh)
    calls = []
    eigh = linalg.eigh
    monkeypatch.setattr(linalg, "eigh", lambda mat: calls.append(len(mat)) or eigh(mat))
    assert run_cli(capsys, *chsh) == first
    assert calls == []
    assert run_cli(capsys, "run", "--experiment", "bell", "--shots", "200")[0] == 0
    assert sorted(calls) == [2, 4, 4]


# Runs each argv through qsim.cli.main in one child whose address space is
# capped before numpy is imported, so an uncapped dense allocation fails
# there (MemoryError, a traceback) instead of exhausting the machine.
_CAPPED_CHILD = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (768 << 20, 768 << 20))
from qsim.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        results.append((main(argv), err.getvalue()))
print(json.dumps(results))
"""


def _run_capped(cases, shots="5"):
    """`_run_argvs_capped` of `qsim run --experiment name --bits bits
    --shots shots` for each (name, bits)."""
    return _run_argvs_capped([["run", "--experiment", name, "--bits", bits, "--shots", shots]
                              for name, bits in cases])


def _run_argvs_capped(argvs):
    """[(exit code, stderr)] of `qsim` on each argv, in one memory-capped
    child. Each argv takes well under a second, so one that hangs, such as
    work begun before a cap check, fails at the 30-second timeout."""
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD, json.dumps(argvs)],
        capture_output=True, text=True, timeout=30, env=child_env(OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    return json.loads(proc.stdout)


def test_dense_sizes_past_the_caps_exit_2_in_a_memory_capped_child():
    # count 18 needs 18 + 7 qubits at the default zeta, past the cap of 24;
    # count 10^10 must meet the oracle-table cap before anything is 2^bits long;
    # qft 1100 must meet the dense cap before its angles overflow a float
    cases = [("qft", "14"), ("qft", "40"), ("qft", "1100"), ("count", "18"), ("count", "24"),
             ("count", "30"), ("grover", "30"), ("grover", "-1"), ("count", "-1"),
             ("count", "10000000000")]
    for case, (code, err) in zip(cases, _run_capped(cases)):
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err, (case, err)


def test_a_shot_count_past_memory_exits_2_in_a_memory_capped_child():
    # 10^11 shots ask numpy for hundreds of GiB at once
    [(code, err)] = _run_capped([("grover", "4")], shots="100000000000")
    assert code == 2 and err.startswith("error: Unable to allocate"), err


def test_an_allocation_failure_without_a_message_exits_2_naming_it(capsys, monkeypatch):
    # a MemoryError raised by Python code carries no message of its own
    def fail(args):
        raise MemoryError()

    monkeypatch.setitem(EXPERIMENTS, "qmc", fail)
    code, out, err = run_cli(capsys, "run", "--experiment", "qmc", "--shots", "5")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_stats_bound_stops_at_its_run_cap_in_a_memory_capped_child():
    # the exact binomial tail keeps one term per run: 10^9 runs would take
    # minutes and gigabytes before the cap
    argvs = [["run", "--experiment", "stats-bound", "--n-runs", n]
             for n in ("1000000", "1000001", "1000000000")]
    at_cap, *past = _run_argvs_capped(argvs)
    assert at_cap == [0, ""]
    for code, err in past:
        assert code == 2 and err.startswith("error: ") and "cap of 1000000" in err, err


def test_qrng_runs_to_the_qubit_cap_in_a_memory_capped_child():
    # qrng draws floor(2^b u) for each shot: no 2^b state, probability array or bin table
    cases = [("qrng", "21"), ("qrng", "24")]
    assert _run_capped(cases) == [[0, ""], [0, ""]]


def test_count_runs_past_the_dense_cap_in_a_memory_capped_child():
    # counting builds no N x N operator, so it runs up to 24 - 7 bits
    cases = [("count", "12"), ("count", "17")]
    assert _run_capped(cases) == [[0, ""], [0, ""]]


# Edge values for the CLI fuzz below. Register sizes that the dense routes
# accept stay at or below 4 bits (12 for grover, 17 for count and 24 for
# qrng, which build no dense matrix); 12 is past the dense cap, 21+ past the
# oracle-table cap.
_EDGE_FLOATS = ("nan", "inf", "-inf", "-1", "-0.5", "0", "0.5", "1", "1.5")
_EDGE_INTS = ("-1", "0", "1", "2", "25", "40")
_FLAG_VALUES = {
    "--shots": ("-1", "0", "1", "2", "8", "40"),
    "--seed": ("-1", "0", "1", "18446744073709551616"),
    "--threads": ("-1", "0", "1", "2"),
    "--bits": ("-1", "0", "1", "2", "4", "12", "21", "25", "40"),
    "--marked": _EDGE_INTS,
    "--m-count": _EDGE_INTS + ("16", "17"),
    "--zeta": _EDGE_FLOATS + ("1e-300",),
    "--epsilon": _EDGE_FLOATS + ("1e-300",),
    "--alpha": _EDGE_FLOATS,
    "--phase": _EDGE_FLOATS,
    "--t-final": _EDGE_FLOATS,
    "--steps": _EDGE_INTS,
    "--x-base": _EDGE_INTS + ("7", "64"),
    "--modulus": _EDGE_INTS + ("15", "21", "65"),
    "--n-runs": _EDGE_INTS,
}
# values for flags that take several, where argparse would read "-inf" as a flag
_LIST_VALUES = ("nan", "inf", "-1", "-0.5", "0", "0.5", "1", "1.5")


def fuzz_cli(max_examples=400):
    """Drive `main` over every experiment's flags and `acceptance --criteria`
    at edge values, asserting exit 0, 2 or 3 and no traceback. Returns the
    exit codes seen. Runs the sizes past the caps, so call it only in a
    memory-capped child (the test below)."""

    def flag(name, values):
        return st.sampled_from(values).map(lambda value: [f"{name}={value}"])

    def flags(draw_from):
        return st.lists(st.one_of(draw_from), max_size=4).map(lambda parts: sum(parts, []))

    def run_flags(experiment):
        values = dict(_FLAG_VALUES)
        if experiment == "qrng":  # builds no 2^bits array, so it runs up to the qubit cap
            values["--bits"] += ("24",)
        if experiment == "count":  # the widest count at the default zeta
            values["--bits"] += ("17",)
        return flags([flag(name, pool) for name, pool in values.items()] + [
            st.lists(st.sampled_from(_LIST_VALUES), min_size=1, max_size=3).map(
                lambda ps: ["--p", *ps]),
            st.lists(st.sampled_from(_LIST_VALUES), min_size=3, max_size=3).map(
                lambda axis: ["--axis", *axis]),
            st.sampled_from([["--assert"], ["--emit-shots"], ["--format", "csv"]]),
        ]).map(lambda parts: ["run", "--experiment", experiment, "--shots", "5", *parts])

    run = st.sampled_from(sorted(EXPERIMENTS)).flatmap(run_flags)
    criteria = ["x", ",,", "", "0", "-1", "4", "99", "4,x", " 4 "]
    acceptance_run = st.sampled_from(criteria).map(lambda ids: ["acceptance", f"--criteria={ids}"])
    codes = set()

    @settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)
    @given(argv=st.one_of(run, acceptance_run))
    @example(argv=["run", "--experiment", "count", "--shots", "40", "--zeta", "0.5",
                   "--assert"])  # exit 3
    def drive(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code
        message = err.getvalue()
        assert code in (0, 2, 3) and "Traceback" not in message, (argv, code, message)
        codes.add(code)

    for ids in criteria:
        drive = example(argv=["acceptance", f"--criteria={ids}"])(drive)
    for name in ("qft", "grover", "count", "grover-ham", "qrng"):  # every size past its cap
        for bits in ("21", "25", "40") if name != "qrng" else ("25", "40"):
            drive = example(argv=["run", "--experiment", name, "--bits", bits])(drive)
    drive()
    return sorted(codes)


def test_cli_fuzz_exits_0_2_or_3_in_a_memory_capped_child():
    child = (
        "import json, resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (768 << 20, 768 << 20))\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_cli\n"
        "print(json.dumps(test_cli.fuzz_cli()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, os.path.dirname(__file__)],
        capture_output=True, text=True, timeout=120, env=child_env(OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr[-4000:]
    assert json.loads(proc.stdout) == [0, 2, 3]


# JSON values at the edges of `json.dumps`: ints past 64 bits, bools, the
# float extremes and non-finite values, strings needing escapes (quotes,
# backslashes, control and non-ASCII characters), None, tuples and lists
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]),
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "\x00\x1f\n\t\x7f", "é€\u2028😀", 'say "hi"\r\n']),
)
_JSON_VALUES = st.recursive(_JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple)), max_leaves=6)
_JSON_ROWS = st.lists(st.dictionaries(
    st.one_of(st.text(max_size=6), st.sampled_from(["value", "é", '"', "\n"])),
    _JSON_VALUES, max_size=6), max_size=4)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rows=_JSON_ROWS)
@example(rows=[{"z": 1, "a": [2**70, -0.0, 5e-324, 1e308, math.nan, -math.inf],
                "é": ("\u00e9\x00\"", None, True)}])
def test_jsonl_rows_are_json_dumps_lines(rows):
    out = io.StringIO()
    cli._emit(rows, "jsonl", out)
    assert out.getvalue() == "".join(json.dumps(row) + "\n" for row in rows)


def test_import_leaves_the_thread_pool_and_csv_unloaded():
    # set-up cost: nothing on the default route uses either module
    code = ("import sys, qsim.cli\n"
            "print(sorted({'concurrent.futures', 'csv'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# argvs whose help, usage or error text would show a difference between
# `cli.parse_args` and the top-level route, and argvs the scan must hand to
# argparse: negative values, wrong arity, a value after a flag, a repeated
# option, a bad choice and a missing --experiment. None is decided by the
# scan; the ones that parse run an experiment.
_RUN = ["run", "--experiment"]
DISPATCH_EDGES = [
    [], ["-h"], ["bogus"], ["run"], ["run", "-h"], ["acceptance", "-h"], ["-h", "run"],
    ["run", "--", "--experiment", "bell"],
    ["run", "--experiment", "bell", "--shots", "5", "junk", "--nope"],
    ["acceptance", "--bogus"], ["acceptance", "--criteria", "4,x"],
    ["run", "--experiment", "trotter", "--steps", "x"],
    ["run", "--e", "bell"],  # ambiguous: --emit-shots, --epsilon, --experiment
    ["run", "--experiment", "nonsense"],
    ["run", "--exp", "bell"],
    ["run", "--experiment=qec-sweep", "--shots", "50", "--format", "csv", "--assert"],
    [*_RUN, "bell", "--shots", "5", "--seed", "-1"],
    [*_RUN, "trotter", "--t-final", "-0.5"],
    [*_RUN, "qec-sweep", "--shots", "5", "--p", "0.1", "-inf"],
    [*_RUN, "bell", "--shots", "5", "--axis", "0", "1"],
    [*_RUN, "bell", "--shots", "5", "--axis", "0", "1", "0", "1"],
    [*_RUN, "qec-sweep", "--shots", "5", "--p"],
    [*_RUN, "bell", "--shots", "5", "--assert", "x"],
    [*_RUN, "bell", "--shots", "3", "--shots", "4"],
    [*_RUN, "bell", "--shots", "5", "--format", "CSV"],
    ["run", "--shots", "5", "--seed", "7"],
]


def _outcome(fn, argv):
    """(exit code, stdout, stderr, value) of fn(argv); a SystemExit gives
    the exit code and no value, a return gives the value and exit code 0."""
    out, err = io.StringIO(), io.StringIO()
    code, value = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            value = fn(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue(), value


def _scan(argv):
    """The scan's own Namespace for argv, or None where it defers to argparse."""
    scan = build_parser().scans.get(argv[0]) if argv else None
    return None if scan is None else scan(argv[1:])


def _typed(args):
    """A Namespace's fields as text, which tells 3 from 3.0 and a list from a tuple."""
    return repr(sorted(vars(args).items()))


def _same_as_the_top_level_route(argv):
    """Assert that `cli.parse_args` and `cli.main` behave as through the
    reference route, `build_parser().parse_args`, a parsed Namespace equal
    field for field with its types; return ("parsed" or the parser's exit
    code, whether the scan decided)."""
    fast = _outcome(cli.parse_args, argv)
    reference = _outcome(oracles.parse_args_by_top_level, argv)
    assert fast == reference, argv
    ran = _outcome(main, argv)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "parse_args", oracles.parse_args_by_top_level)
        assert ran == _outcome(main, argv), argv
    scanned = _scan(argv)
    if scanned is not None:
        assert reference[0] == 0 and _typed(scanned) == _typed(reference[3]), argv
    if fast[3] is None:
        return fast[0], scanned is not None
    assert fast[3].command == argv[0] and _typed(fast[3]) == _typed(reference[3])
    return "parsed", scanned is not None


@pytest.mark.parametrize("argv", DISPATCH_EDGES, ids=lambda argv: "_".join(argv) or "none")
def test_dispatch_edges_match_the_top_level_route(argv):
    assert _same_as_the_top_level_route(argv)[1] is False  # argparse decides every edge


# every golden CLI case and the shape of each benchmark workload's items
WELL_FORMED = [*CLI_CASES.values(),
               [*_RUN, "qec-sweep", "--p", "0.01", "--shots", "2500", "--threads", "1",
                "--seed", "7", "--assert"],
               [*_RUN, "order-find", "--x-base", "2", "--modulus", "15", "--seed", "7",
                "--assert"],
               [*_RUN, "phase-est", "--zeta", "0.0625", "--epsilon", "0.1", "--phase",
                "0.333333", "--shots", "20", "--seed", "7", "--assert"],
               [*_RUN, "qmc", "--shots", "100", "--steps", "2", "--seed", "7", "--assert"],
               [*_RUN, "bell", "--axis", "0", "1", "0", "--p", "0.1", "0.2", "--format", "csv"],
               ["acceptance", "--criteria", "4,6"], ["acceptance"]]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_the_scan_decides_well_formed_argvs(argv, monkeypatch):
    reference = oracles.parse_args_by_top_level(argv)
    scanned = _scan(argv)
    assert scanned is not None and _typed(scanned) == _typed(reference)

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a well-formed argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert _typed(cli.parse_args(argv)) == _typed(reference)


def test_the_scan_defers_one_of_several_values_outside_the_choices():
    # no qsim option takes several values with choices; this parser's does
    command = argparse.ArgumentParser()
    command.add_argument("--pair", nargs=2, choices=("a", "b"))
    scan = cli._Scan("pairs", command)
    assert vars(scan(["--pair", "b", "a"])) == {"command": "pairs", "pair": ["b", "a"]}
    assert scan(["--pair", "a", "c"]) is None


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_each_scan_gives_a_fresh_namespace_in_the_merge_order(argv):
    first = _scan(argv)
    fields = dict(vars(first))
    # the key order of the former `Namespace(**{**defaults, **values})`
    assert list(fields) == list({**build_parser().scans[argv[0]].defaults, **fields})
    first.seed, first.added = -1, "changed"  # a caller's change stays its own
    second = _scan(argv)
    assert second is not first and vars(second) == fields
    assert list(vars(second)) == list(fields)
    assert (first.seed, first.added) == (-1, "changed")


# a valid use of each option but --experiment, which the strategy below draws apart
_VALID_OPTIONS = [
    ["--seed", "7"], ["--shots", "3"], ["--format", "csv"], ["--threads", "2"], ["--assert"],
    ["--emit-shots"], ["--axis", "0", "1", "0"], ["--bits", "3"], ["--marked", "2"],
    ["--m-count", "2"], ["--zeta", "0.25"], ["--epsilon", "0.2"], ["--alpha", "0.1"],
    ["--phase", "0.25"], ["--p", "0.1", "0.2"], ["--t-final", "0.5"], ["--steps", "3"],
    ["--x-base", "7"], ["--modulus", "15"], ["--n-runs", "5"], ["--criteria", "4,6"],
]


def _dispatch_argvs():
    """Token lists over both commands: each option string and its
    abbreviations (unique and ambiguous), valid and invalid values,
    `--`, `-h` and junk, loose or paired as `--opt value` or `--opt=value`."""
    options = set()
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    for command in subparsers.choices.values():
        for action in command._actions:
            for string in action.option_strings:
                options.add(string)
                if string.startswith("--"):
                    options.update(string[:n] for n in range(3, len(string)))
    options = sorted(options)
    values = sorted(EXPERIMENTS) + [
        "0", "1", "3", "-1", "0.5", "-0.5", "nan", "1e3", "x", "", "a b", "4", "4,x", "1,4",
        "jsonl", "csv"]
    junk = ["run", "acceptance", "bogus", "--", "-h", "--help", "-x", "--nope", "-", "---"]
    pair = st.tuples(st.sampled_from(options), st.sampled_from(values))
    valid = st.tuples(st.sampled_from(_VALID_OPTIONS), st.integers(3, 12)).map(
        lambda use: [use[0][0][:use[1]], *use[0][1:]])  # the option, perhaps abbreviated
    piece = st.one_of(
        st.sampled_from(options + values + junk).map(lambda token: [token]),
        pair.map(list),
        pair.map(lambda pair: ["=".join(pair)]),
        st.sampled_from(sorted(EXPERIMENTS)).map(lambda name: ["--experiment", name]),
        valid,
    )
    head = st.sampled_from([[], ["run"], ["acceptance"], ["-h"], ["bogus"]])
    loose = st.tuples(head, st.lists(piece, max_size=6))
    # mostly valid: an experiment and valid options, which parse unless one
    # is abbreviated ambiguously or belongs to the other command
    run = st.tuples(st.sampled_from(sorted(EXPERIMENTS)).map(
        lambda name: ["run", "--experiment", name]), st.lists(valid, max_size=4))
    return st.one_of(loose, run).map(lambda parts: parts[0] + sum(parts[1], []))


def test_parse_args_matches_the_top_level_route_on_drawn_argvs(monkeypatch):
    # The routes differ only in parsing, so every experiment and the
    # acceptance run are replaced by an echo of the parsed Namespace: main's
    # stdout then shows any field that differs, and no drawn argv runs a
    # default-sized experiment.
    def echo(args):
        return [{"args": repr(sorted(vars(args).items()))}], True

    for name in EXPERIMENTS:
        monkeypatch.setitem(EXPERIMENTS, name, echo)
    monkeypatch.setattr(acceptance, "run_acceptance", lambda ids: [
        acceptance.CriterionResult(0, repr(ids), True, 0.0)])
    seen = []

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(argv=_dispatch_argvs())
    def check(argv):
        seen.append(_same_as_the_top_level_route(argv))

    for argv in DISPATCH_EDGES:
        check = example(argv=argv)(check)
    check()
    assert {outcome for outcome, _ in seen} == {"parsed", 0, 2}
    # both routes decide drawn argvs: the scan the well-formed ones, argparse the rest
    assert {scanned for _, scanned in seen} == {True, False}
