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
    alice, bob = entangle.anticorrelation_experiment(axis, args.shots, rng).T
    violations = int((alice * bob != -1).sum())
    label = ",".join(f"{c:g}" for c in args.axis)
    rows = [
        _row(args, "anticorrelation_violations", violations, reference=0, axis=label),
        _row(args, "alice_mean", int(alice.sum()) / args.shots,
             stderr=1.0 / math.sqrt(args.shots), reference=0.0, axis=label),
    ]
    return rows, violations == 0


@experiment("chsh")
def _run_chsh(args):
    result = entangle.chsh_experiment(args.shots, Stream(args.seed, "cli/chsh"))
    rows = [_row(args, "chsh_value", result.value, stderr=result.stderr,
                 reference=entangle.TSIRELSON_BOUND)]
    for label, corr in result.correlators.items():
        rows.append(_row(args, f"correlator_{label}", corr, pairs=result.counts[label]))
    if args.emit_shots:
        labels = tuple(result.counts)
        for shot, (k, (a, b)) in enumerate(zip(result.settings.tolist(),
                                               result.outcomes.tolist())):
            rows.append(_row(args, "shot", a * b, shot=shot, setting=labels[k],
                             alice=a, bob=b))
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
    gates._check_table_bits(args.bits)  # first: 1 << bits of a huge --bits exhausts memory
    if not 0 <= args.m_count <= 1 << args.bits:
        raise DomainError(f"--m-count must satisfy 0 <= m <= 2^bits, got {args.m_count}")
    f = gates.BooleanOracle.from_solutions(args.bits, list(range(args.m_count)))
    plan = algorithms.PhasePlan(zeta=args.zeta, epsilon=args.epsilon)
    estimates = algorithms.quantum_counts(f, plan, args.shots,
                                          Stream(args.seed, "cli/count")).tolist()
    correct = estimates.count(args.m_count)
    rows = [
        _row(args, "count_mode", max(set(estimates), key=estimates.count),
             reference=args.m_count, bits=args.bits, zeta=args.zeta, epsilon=args.epsilon),
        _row(args, "count_accuracy", correct / args.shots, reference=1.0 - args.epsilon),
    ]
    return rows, acceptance.count_ok(correct / args.shots, args.epsilon, args.shots)


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
    rows = [dict(entry, experiment=args.experiment, seed=args.seed)
            for entry in qec.qec_sweep(args.p, args.shots, args.seed)]
    return rows, all(acceptance.qec_rate_ok(row["rate"], row["predicted"], row["stderr"],
                                            args.shots) for row in rows)


@experiment("qrng")
def _run_qrng(args):
    stat = statharness.quantum_rng_chi_square(args.bits, args.shots, Stream(args.seed, "cli/qrng"))
    bins = 1 << args.bits
    decided = args.shots >= 5 * bins  # the chi-square law wants 5 expected counts a bin
    if args.assert_ and not decided:
        raise DomainError(f"qrng --assert at --bits {args.bits} needs --shots >= {5 * bins}")
    rows = [_row(args, "chi_square", stat, bits=args.bits,
                 reference=acceptance.chi_square_critical(bins) if decided else None)]
    return rows, not decided or acceptance.chi_square_ok(stat, bins)


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


@functools.cache
def _json_encoder():
    """The C encoder that `json.dumps` builds afresh for every call, built
    once with its default settings (ASCII escapes, ", " and ": ", NaN and
    infinities allowed, keys unsorted) but no check for circular
    containers, which no row has. Called as `encode(obj, 0)`, it returns
    the chunks whose join is `json.dumps(obj)`."""
    import json  # here, not at import: start-up does not pay for json

    return json.encoder.c_make_encoder(None, json.JSONEncoder().default,
                                       json.encoder.encode_basestring_ascii, None,
                                       ": ", ", ", False, False, True)


def _emit(rows, fmt, out):
    if fmt == "jsonl":
        encode = _json_encoder()
        for row in rows:
            out.write("".join(encode(row, 0)) + "\n")
    else:
        import csv

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
    parser.scans = {name: _Scan(name, command) for name, command in sub.choices.items()}
    return parser


class _Scan:
    """One pass over a command's tokens, read against the command parser's
    own store actions. Calling it gives the Namespace that argparse gives
    when every token is a full option string followed by exactly its
    values, none starting with "-", each converting with the action's type
    and lying in its choices, with no option repeated and every required
    option present; otherwise None, and argparse decides. The Namespace
    names the command, as the top-level parser's subparsers action does."""

    def __init__(self, name: str, command: argparse.ArgumentParser):
        stores = (argparse._StoreAction, argparse._StoreConstAction)
        # option string -> (dest, nargs, converter, choices, const); every
        # choice in the parser is hashable, so a set answers `in` as a list does
        self.options = {
            string: (action.dest, action.nargs, action.type or str,
                     None if action.choices is None else frozenset(action.choices),
                     action.const)
            for action in command._actions if isinstance(action, stores)
            for string in action.option_strings}
        self.required = [action.dest for action in command._actions if action.required]
        self.defaults = {"command": name}
        for action in command._actions:  # as argparse fills them: the first action of a dest wins
            if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
                self.defaults.setdefault(action.dest, action.default)

    def __call__(self, tokens):
        values, start, count = {}, 0, len(tokens)
        while start < count:
            option = self.options.get(tokens[start])
            if option is None or option[0] in values:  # unknown, or its dest repeated
                return None
            dest, nargs, convert, choices, const = option
            end = start + 1
            if nargs is None:  # one value, then the end or the next option
                end += 1
                if end > count or tokens[start + 1][:1] == "-" or (
                        end < count and tokens[end][:1] != "-"):
                    return None
                try:
                    value = convert(tokens[start + 1])
                except (ValueError, TypeError, argparse.ArgumentTypeError):
                    return None
                if choices is not None and value not in choices:
                    return None
                values[dest] = value
            elif nargs == 0:  # a flag
                if end < count and tokens[end][:1] != "-":
                    return None
                values[dest] = const
            else:  # N values, or "+" for one or more
                while end < count and tokens[end][:1] != "-":
                    end += 1
                strings = tokens[start + 1:end]
                if not (strings if nargs == "+" else len(strings) == nargs):
                    return None
                try:
                    parsed = [convert(string) for string in strings]
                except (ValueError, TypeError, argparse.ArgumentTypeError):
                    return None
                if choices is not None and any(v not in choices for v in parsed):
                    return None
                values[dest] = parsed
            start = end
        if any(dest not in values for dest in self.required):
            return None
        args = argparse.Namespace()  # filled in one step, not a `setattr` a field
        vars(args).update(self.defaults, **values)
        return args


def parse_args(argv=None) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`: a well-formed command argv is
    decided by one scan over its parser's own actions (`_Scan`), and the
    top-level parser decides help, errors and every other spelling."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.scans[argv[0]](argv[1:]) if argv and argv[0] in parser.scans else None
    return parser.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = parse_args(argv)
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
    except MemoryError as exc:  # a size the host cannot hold is a parameter error
        # numpy names the allocation; a MemoryError raised by Python code has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
