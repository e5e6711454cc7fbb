import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsim import acceptance, entangle
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
                                         counts=counts, shots=400, rows=())
            assert acceptance.chsh_ok(result) is ok

    @pytest.mark.parametrize("argv, named", [
        (["count", "--m-count", "-1", "--assert"], "--m-count"),
        (["count", "--bits", "4", "--m-count", "17"], "--m-count"),
        (["order-find", "--modulus", "1"], "modulus"),
        (["qmc", "--t-final", "nan"], "t_final"),
        (["trotter", "--t-final", "inf"], "t_final"),
    ])
    def test_bad_parameters_exit_2_and_name_the_parameter(self, capsys, argv, named):
        code, out, err = run_cli(capsys, "run", "--shots", "5", "--experiment", *argv)
        assert code == 2 and out == ""
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


def _run_capped(cases):
    """[(exit code, stderr)] of `qsim run --experiment name --bits bits
    --shots 5` for each (name, bits), in one memory-capped child."""
    argvs = [["run", "--experiment", name, "--bits", bits, "--shots", "5"] for name, bits in cases]
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    return json.loads(proc.stdout)


def test_dense_sizes_past_the_caps_exit_2_in_a_memory_capped_child():
    # count 18 needs 18 + 7 qubits at the default zeta, past the cap of 24
    cases = [("qft", "14"), ("qft", "40"), ("count", "18"), ("count", "24"), ("count", "30"),
             ("grover", "30"), ("grover", "-1"), ("count", "-1")]
    for case, (code, err) in zip(cases, _run_capped(cases)):
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err, (case, err)


def test_count_runs_past_the_dense_cap_in_a_memory_capped_child():
    # counting builds no N x N operator, so it runs up to 24 - 7 bits
    cases = [("count", "12"), ("count", "17")]
    assert _run_capped(cases) == [[0, ""], [0, ""]]


# Edge values for the CLI fuzz below. Register sizes that the dense routes
# accept stay at or below 4 bits (12 for grover and qrng, and 17 for count,
# which build no dense matrix); 12 is past the dense cap, 21+ past the
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
        if experiment == "qrng":  # 21 bits is past the table cap, but a legal qrng register
            values["--bits"] = tuple(bits for bits in values["--bits"] if bits != "21")
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
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr[-4000:]
    assert json.loads(proc.stdout) == [0, 2, 3]
