import json
import subprocess
import sys

import pytest

from qsim.cli import EXPERIMENTS, main


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

    def test_corrupted_tolerance_fails_with_name(self, capsys):
        code, out, err = run_cli(capsys, "acceptance", "--criteria", "1", "--corrupt", "1")
        assert code == 3
        assert out.startswith("FAIL  criterion  1")
        assert "chsh" in err

    def test_unknown_criterion_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "acceptance", "--criteria", "99")
        assert code == 2
        assert "unknown" in err

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
