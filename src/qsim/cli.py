"""Command-line experiment runner.

`qsim run --experiment <name> --seed S --shots N [...]` executes one
experiment and emits JSON-lines rows (CSV with --format csv); every row
carries the seed, so published numbers are reproducible byte for byte.
`qsim acceptance` runs the acceptance criteria and prints one pass/fail
line per criterion.

Exit codes: 0 success, 2 validation or parameter error, 3 assertion or
acceptance failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys

from . import acceptance, algorithms, entangle, gates, hamsim, qec, qstate, statharness
from .errors import DomainError, QsimError
from .rng import Stream

EXPERIMENTS = {}


def experiment(name):
    def register(fn):
        EXPERIMENTS[name] = fn
        return fn

    return register


def _row(args, metric, value, stderr=None, reference=None, **params):
    row = {"experiment": args.experiment, "seed": args.seed, "shots": args.shots}
    row.update(params)
    row["metric"] = metric
    row["value"] = value
    if stderr is not None:
        row["stderr"] = stderr
    if reference is not None:
        row["reference"] = reference
    for key, val in row.items():
        if isinstance(val, float) and not math.isfinite(val):
            raise QsimError(f"non-finite value in output row field {key!r}")
    return row


@experiment("bell")
def _run_bell(args):
    axis = entangle.SpinAxis(*args.axis)
    rng = Stream(args.seed, "cli/bell")
    pairs = entangle.anticorrelation_experiment(axis, args.shots, rng)
    violations = sum(1 for a, b in pairs if a * b != -1)
    alice_mean = sum(a for a, _ in pairs) / len(pairs)
    rows = [
        _row(args, "anticorrelation_violations", violations, reference=0,
             axis=",".join(f"{c:g}" for c in args.axis)),
        _row(args, "alice_mean", alice_mean,
             stderr=1.0 / math.sqrt(len(pairs)), reference=0.0,
             axis=",".join(f"{c:g}" for c in args.axis)),
    ]
    return rows, violations == 0


@experiment("chsh")
def _run_chsh(args):
    result = entangle.chsh_experiment(
        args.shots, Stream(args.seed, "cli/chsh"), collect_rows=args.emit_shots
    )
    rows = [_row(args, "chsh_value", result.value, stderr=result.stderr,
                 reference=entangle.TSIRELSON_BOUND)]
    for label, corr in result.correlators.items():
        rows.append(_row(args, f"correlator_{label}", corr, pairs=result.counts[label]))
    if args.emit_shots:
        for shot, label, a, b in result.rows:
            rows.append(_row(args, "shot", a * b, shot=shot, setting=label, alice=a, bob=b))
    return rows, acceptance.chsh_ok(result)


@experiment("teleport")
def _run_teleport(args):
    worst, counts = entangle.teleport_trials(args.shots, Stream(args.seed, "cli/teleport"))
    rows = [_row(args, "min_fidelity", worst, reference=1.0)]
    for bits in sorted(counts):
        rows.append(_row(args, f"bits_{bits}_fraction", counts[bits] / args.shots,
                         reference=0.25))
    return rows, acceptance.teleport_ok(worst)


@experiment("qft")
def _run_qft(args):
    worst, fid = algorithms.qft_check(args.bits, Stream(args.seed, "cli/qft"))
    rows = [
        _row(args, "max_amplitude_error", worst, bits=args.bits, reference=0.0),
        _row(args, "roundtrip_fidelity", fid, bits=args.bits, reference=1.0),
    ]
    return rows, acceptance.error_ok(worst) and acceptance.unit_ok(fid)


@experiment("phase-est")
def _run_phase_est(args):
    plan = algorithms.PhasePlan(zeta=args.zeta, epsilon=args.epsilon)
    coverage = algorithms.phase_coverage(args.phase, plan, args.shots,
                                         Stream(args.seed, "cli/phase-est"))
    rows = [_row(args, "coverage", coverage, reference=1.0 - args.epsilon, zeta=args.zeta,
                 epsilon=args.epsilon, phase=args.phase, register_qubits=plan.b)]
    return rows, acceptance.coverage_ok(coverage, args.epsilon, args.shots)


@experiment("grover")
def _run_grover(args):
    f = gates.BooleanOracle.from_solutions(args.bits, [args.marked])
    plan = algorithms.GroverPlan.for_counts(1 << args.bits, 1)
    rate = algorithms.grover_success_rate(f, args.marked, args.shots,
                                          Stream(args.seed, "cli/grover"))
    rows = [_row(args, "success_rate", rate, reference=plan.success_probability,
                 bits=args.bits, marked=args.marked, iterations=plan.R)]
    return rows, acceptance.grover_ok(rate, plan, args.shots)


@experiment("count")
def _run_count(args):
    if not 0 <= args.m_count <= 1 << max(args.bits, 0):
        raise DomainError(f"--m-count must satisfy 0 <= m <= 2^bits, got {args.m_count}")
    f = gates.BooleanOracle.from_solutions(args.bits, list(range(args.m_count)))
    plan = algorithms.PhasePlan(zeta=args.zeta, epsilon=args.epsilon)
    estimates = algorithms.quantum_counts(f, plan, args.shots, Stream(args.seed, "cli/count"))
    correct = sum(1 for m in estimates if m == args.m_count)
    rows = [
        _row(args, "count_mode", max(set(estimates), key=estimates.count),
             reference=args.m_count, bits=args.bits, zeta=args.zeta, epsilon=args.epsilon),
        _row(args, "count_accuracy", correct / args.shots, reference=1.0 - args.epsilon),
    ]
    return rows, correct / args.shots >= 1.0 - args.epsilon - 3.0 / math.sqrt(args.shots)


@experiment("order-find")
def _run_order_find(args):
    found, reference = algorithms.order_trial(args.x_base, args.modulus,
                                              Stream(args.seed, "cli/order"))
    rows = [_row(args, "order", -1 if found is None else found, reference=reference,
                 x_base=args.x_base, modulus=args.modulus)]
    return rows, found == reference


@experiment("trotter")
def _run_trotter(args):
    model = hamsim.ising_chain(2)
    psi0 = qstate.random_state(2, Stream(args.seed, "cli/trotter"))
    plan = hamsim.TrotterPlan(args.t_final, args.steps)
    error = hamsim.trotter_error(model, plan, psi0)
    rows = [_row(args, "terminal_error", error, t_final=args.t_final,
                 steps=args.steps, delta=plan.delta)]
    return rows, True


@experiment("grover-ham")
def _run_grover_ham(args):
    prob, t_measure = hamsim.grover_hamiltonian_success(args.bits, args.marked)
    rows = [_row(args, "success_probability", prob, reference=1.0,
                 bits=args.bits, marked=args.marked, t_measure=t_measure)]
    return rows, acceptance.unit_ok(prob)


@experiment("qec-sweep")
def _run_qec_sweep(args):
    rows = []
    ok = True
    for entry in qec.qec_sweep(args.p, args.shots, args.seed):
        entry = dict(entry)
        entry["experiment"] = args.experiment
        entry["seed"] = args.seed
        rows.append(entry)
        ok &= abs(entry["rate"] - entry["predicted"]) <= max(
            3.0 * entry["stderr"], 3.0 / args.shots
        ) + 3.0 * math.sqrt(entry["predicted"] / args.shots)
    return rows, ok


@experiment("qrng")
def _run_qrng(args):
    stat = statharness.quantum_rng_chi_square(args.bits, args.shots, Stream(args.seed, "cli/qrng"))
    tabulated = args.bits == 4  # the critical value is tabulated for 16 bins only
    rows = [_row(args, "chi_square", stat, bits=args.bits,
                 reference=acceptance.CHI2_99_9_DF15 if tabulated else None)]
    return rows, not tabulated or acceptance.chi_square_ok(stat)


@experiment("qmc")
def _run_qmc(args):
    result = hamsim.trotter_qmc(args.t_final, args.steps, args.shots, Stream(args.seed, "cli/qmc"))
    rows = [
        _row(args, "theta_hat", result.theta_hat, stderr=result.stderr,
             reference=result.theta_prepared, steps=args.steps, t_final=args.t_final),
        _row(args, "bias", result.bias, reference=result.theta_prepared - result.theta_true),
        _row(args, "theta_true", result.theta_true),
    ]
    return rows, acceptance.qmc_ok(result)


@experiment("stats-bound")
def _run_stats_bound(args):
    bound = statharness.trimmed_success_bound(args.n_runs, args.epsilon, args.alpha)
    rows = [
        _row(args, "exact_binomial", bound.exact, n_runs=args.n_runs,
             epsilon=args.epsilon, alpha=args.alpha),
        _row(args, "normal_approx", bound.normal_approx, n_runs=args.n_runs,
             epsilon=args.epsilon, alpha=args.alpha),
        _row(args, "verified_success", 1.0 - args.epsilon**args.n_runs,
             n_runs=args.n_runs, epsilon=args.epsilon),
    ]
    return rows, True


def _emit(rows, fmt, out):
    if fmt == "jsonl":
        import json

        for row in rows:
            out.write(json.dumps(row) + "\n")
    else:
        if not rows:
            return
        header = []
        for row in rows:
            for key in row:
                if key not in header:
                    header.append(key)
        writer = csv.DictWriter(out, fieldnames=header, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def criterion_ids(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; `parse_args` leaves it
    unchanged, and every default is immutable."""
    parser = argparse.ArgumentParser(prog="qsim",
                                     description="state-vector quantum experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and emit result rows")
    run.add_argument("--experiment", required=True, choices=sorted(EXPERIMENTS))
    run.add_argument("--seed", type=int, default=20260808,
                     help="root seed; printed in every row (default: %(default)s)")
    run.add_argument("--shots", type=int, default=10_000)
    run.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    run.add_argument("--threads", type=int, default=1,
                     help="accepted and ignored: every experiment runs in the calling "
                          "thread; must be at least 1 (default: %(default)s)")
    run.add_argument("--assert", dest="assert_", action="store_true",
                     help="exit 3 unless the experiment meets its reference")
    run.add_argument("--emit-shots", action="store_true",
                     help="also emit one row per shot where supported")
    run.add_argument("--axis", type=float, nargs=3, default=(0.0, 0.0, 1.0),
                     metavar=("AX", "AY", "AZ"))
    run.add_argument("--bits", type=int, default=4)
    run.add_argument("--marked", type=int, default=3, help="marked search index")
    run.add_argument("--m-count", type=int, default=4, help="solution count for counting")
    run.add_argument("--zeta", type=float, default=2.0**-4)
    run.add_argument("--epsilon", type=float, default=0.1)
    run.add_argument("--alpha", type=float, default=0.2)
    run.add_argument("--phase", type=float, default=1.0 / 3.0)
    run.add_argument("--p", type=float, nargs="+", default=(0.01, 0.05, 0.1, 0.2))
    run.add_argument("--t-final", type=float, default=1.0)
    run.add_argument("--steps", type=int, default=2)
    run.add_argument("--x-base", type=int, default=2)
    run.add_argument("--modulus", type=int, default=15)
    run.add_argument("--n-runs", type=int, default=20)

    acc = sub.add_parser("acceptance", help="run the acceptance criteria")
    acc.add_argument("--criteria", type=criterion_ids, default=None,
                     help="comma-separated criterion ids (default: all)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            for flag, value in (("--shots", args.shots), ("--threads", args.threads)):
                if value < 1:
                    raise DomainError(f"{flag} must be at least 1, got {value}")
            rows, ok = EXPERIMENTS[args.experiment](args)
            buffer = io.StringIO()
            _emit(rows, args.format, buffer)
            sys.stdout.write(buffer.getvalue())
            if args.assert_ and not ok:
                print("assertion failed: experiment missed its reference", file=sys.stderr)
                return 3
            return 0
        results = acceptance.run_acceptance(ids=args.criteria)
        for result in results:
            print(result.line())
        if not all(r.passed for r in results):
            failed = ", ".join(r.name for r in results if not r.passed)
            print(f"acceptance failed: {failed}", file=sys.stderr)
            return 3
        return 0
    except QsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
