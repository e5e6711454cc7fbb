"""One-line mutants of src/qsim, each run against the tier-1 suite.

    python tests/mutants.py [FILE ...]

With FILE arguments (file names under src/qsim, such as cli.py) only the
mutants of those files run; a name that no mutant has exits 1. Each
entry of MUTANTS names a file, an old text that must occur in it
exactly once, its replacement, and the guarantee the replacement attacks.
For each entry the repository is copied to a temporary directory (the
working tree is never written), the replacement is made there, and
tier-1 runs with `-x`, the mutated file's own tests/test_<name>.py first:
a mutant killed there pays seconds, not the suite up to its first failing
test. The tool prints one table row per mutant: killed, with the first
failing test, or survived. It exits 1 when an old text does not occur
exactly once (before running anything) or when a mutant survives.
Standard library only; pytest does not collect this file.

Mutation testing: DeMillo, Lipton & Sayward 1978, IEEE Computer 11(4).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                               ".benchmarks", "*.egg-info")

# (file under src/qsim, old text, new text, guarantee attacked)
MUTANTS = [
    ("gates.py", "out = np.array(s.amps, dtype=np.complex128)", "out = s.amps",
     "apply_gate leaves its input unchanged"),
    ("qstate.py", "_apply_matrix(np.array(s.amps, dtype=np.complex128),",
     "_apply_matrix(s.amps,", "apply_unitary leaves its input unchanged"),
    ("gates.py", "amps = np.array(input_state.amps, dtype=np.complex128)",
     "amps = input_state.amps", "run_circuit leaves its input unchanged"),
    ("hamsim.py", "amps = np.array(s.amps, dtype=np.complex128)", "amps = s.amps",
     "TrotterStep.apply leaves its input unchanged"),
    ("acceptance.py", "min_fidelity >= 1.0 - 1e-10", "min_fidelity >= 1.0 - 1e-2",
     "teleport_ok's fidelity threshold"),
    ("algorithms.py", "for div in range(1, mult + 1):", "for div in range(mult, mult + 1):",
     "_order_candidate minimises the candidate over its divisors"),
    ("rng.py", "threshold = math.ceil(p * 2.0**53) << 11",
     "threshold = math.floor(p * 2.0**53) << 11", "Stream.below decides u < p exactly"),
    ("rng.py", "bound = 4.0 * (width + blocks + 2) * _UNIT_ROUNDOFF",
     "bound = 4.0 * (width + 2) * _UNIT_ROUNDOFF",
     "the Born filter's error bound E covers the block sums"),
    ("algorithms.py", "den = np.sin((t - j) * (math.pi / M))",
     "den = np.sin((t + j) * (math.pi / M))", "the Fejer kernel of phase estimation"),
    ("cli.py", "return parser.parse_args(argv) if args is None else args",
     "return parser.parse_known_args(argv)[0] if args is None else args",
     "the CLI's argparse route reports leftover tokens"),
    ("cli.py", 'self.defaults = {"command": name}', "self.defaults = {}",
     "the CLI's scan names its command"),
    ("cli.py", "if action.choices is not None and any(", "if False and any(",
     "the CLI's scan defers a value outside the action's choices"),
    ("cli.py", 'tokens[end][:1] != "-"', "tokens[end] not in self.options",
     "the CLI's scan defers a value that starts with -"),
    ("cli.py", "for dest in self.required", "for dest in ()",
     "the CLI's scan defers an argv missing a required option"),
    ("cli.py", "parsed[0] if nargs is None else parsed",
     'parsed[0] if nargs in (None, "+") else parsed',
     "the CLI's scan reads every value of a nargs='+' option"),
    ("acceptance.py", "return error <= 1e-9", "return error <= 1e-8", "error_ok's threshold"),
    ("acceptance.py", "return value >= 1.0 - 1e-9", "return value >= 1.0 - 1e-8",
     "unit_ok's threshold"),
    ("acceptance.py", "return rate >= 1.0 - 1.0 / plan.N - 3.0 * sigma",
     "return rate >= 1.0 - 1.0 / plan.N - 4.0 * sigma", "grover_ok's 3 sigma"),
    ("acceptance.py", "return coverage >= (1.0 - epsilon) - 3.0 * math.sqrt(",
     "return coverage >= (1.0 - epsilon) - 6.0 * math.sqrt(", "coverage_ok's 3 sigma"),
    ("acceptance.py", "return stat < chi_square_critical(bins)",
     "return stat <= chi_square_critical(bins)", "chi_square_ok's strict critical value"),
    ("acceptance.py", "0.0) / result.n)", "0.0) / (result.n - 1))",
     "qmc_ok's sigma at the reference"),
    ("acceptance.py", "sum(0.5 / n for n in result.counts.values())",
     "sum(1.0 / n for n in result.counts.values())", "chsh_ok's sigma at the reference"),
    ("acceptance.py", "return accuracy >= 1.0 - epsilon - 3.0 / math.sqrt(shots)",
     "return accuracy >= 1.0 - epsilon - 4.0 / math.sqrt(shots)", "count_ok's 3 / sqrt(shots)"),
    ("acceptance.py", "max(3.0 * stderr, 3.0 / shots)", "max(3.0 * stderr, 4.0 / shots)",
     "qec_rate_ok's 3 / shots floor"),
    ("algorithms.py", "part = s_of(r * (L - 1))", "part = s_of(r * L)",
     "Shor's orbit form of the order-finding register"),
    ("hamsim.py", "np.eye(len(p)) - (1j * math.sin(theta)) * p",
     "np.eye(len(p)) + (1j * math.sin(theta)) * p",
     "the closed-form Pauli factor e^{-i c P delta}"),
    ("acceptance.py", "amplitude_error <= 1e-9", "amplitude_error <= 2.0",
     "criterion 11 checks trotter_qmc's prepared amplitudes"),
    ("statharness.py", "np.ldexp(rng.shot_uniforms(shots, 1)[:, 0], b).astype(np.int64)",
     "np.ldexp(rng.shot_uniforms(shots, 1)[:, 0], b).round().astype(np.int64)",
     "qrng's closed form floor(2^b u)"),
    ("statharness.py", " + (bins - len(counts)) * expected", "",
     "the chi-square's empty bins"),
    ("rng.py", "valid = probs >= PROB_FLOOR", "valid = probs > PROB_FLOOR",
     "the exact route samples an entry at PROB_FLOOR"),
    ("linalg.py", "out = (out.reshape(-1, 1) * c).reshape(-1)",
     "out = (c.reshape(-1, 1) * out).reshape(-1)",
     "kron of vectors puts the left factor first"),
    ("algorithms.py", "return np.minimum(d, 1.0 - d)", "return d",
     "phase_distance folds the distance onto the circle"),
    ("cli.py", "decided = args.shots >= 5 * bins", "decided = args.shots >= 4 * bins",
     "qrng decides from five expected counts a bin"),
    ("acceptance.py", "Z_99_9 = 3.090232306167813", "Z_99_9 = 2.5758293035489004",
     "the Wilson-Hilferty z of the 0.999 chi-square quantile"),
    ("algorithms.py", "table = _orbit_table(r, b)",
     "table = _orbit_table.__dict__.setdefault(r, _orbit_table(r, b))",
     "the order-finding cache is keyed by r and b, not by r alone"),
    ("hamsim.py", "return qmc_draws(_qmc_law(t_final, steps), shots, rng)",
     "return qmc_draws(_qmc_law.__dict__.setdefault(t_final, _qmc_law(t_final, steps)), shots, rng)",
     "the qmc law cache is keyed by t_final and steps, not by t_final alone"),
    ("hamsim.py", "return qmc_draws(_qmc_law(t_final, steps), shots, rng)",
     "return qmc_draws(_qmc_law.__dict__.setdefault(steps, _qmc_law(t_final, steps)), shots, rng)",
     "the qmc law cache is keyed by t_final and steps, not by steps alone"),
    ("hamsim.py", "@functools.lru_cache(maxsize=16, typed=True)", "@functools.lru_cache(maxsize=16)",
     "the qmc law cache keeps a float step count apart from an int one"),
    ("hamsim.py", "    law[2].flags.writeable = law[3].probs.flags.writeable = False", "    pass",
     "the kept qmc law is read-only"),
    ("rng.py", 'return self._edges.searchsorted(u, side="right")',
     'return self._edges.searchsorted(u, side="left")',
     "a kept exact table searches its edges with side='right'"),
    ("rng.py", "    cdf[~valid] = -np.inf\n", "",
     "the exact edges skip floored entries"),
    ("rng.py", "np.maximum.accumulate(cdf, out=cdf).flags.writeable = False",
     "np.maximum.accumulate(cdf, out=cdf)", "a table's kept exact edges are read-only"),
    ("algorithms.py", "return _pe_table(phi, b).sample(draws)",
     "return _pe_table.__dict__.setdefault(phi, _pe_table(phi, b)).sample(draws)",
     "the phase-estimation cache is keyed by phi and b, not by phi alone"),
    ("algorithms.py", "return _pe_table(phi, b).sample(draws)",
     "return _pe_table.__dict__.setdefault(b, _pe_table(phi, b)).sample(draws)",
     "the phase-estimation cache is keyed by phi and b, not by b alone"),
    ("algorithms.py", "    dist = _pe_register_distribution(phi, b)\n    dist.flags.writeable = False",
     "    dist = _pe_register_distribution(phi, b)",
     "the kept phase-estimation table is read-only"),
    ("rng.py", "if not abs(float(limits[-1]) - 1.0) <= CDF_RESIDUAL - bound:", "if False:",
     "a prepared Born table makes its residual check"),
    ("algorithms.py", "    _check_qubit_count(n)\n    ops = []", "    ops = []",
     "qft checks the qubit cap before it builds a gate"),
    ("algorithms.py", '    _check_dense_qubits(n, "the dense DFT")  #', "    #",
     "qft_check checks the dense cap before it builds the circuit"),
    ("algorithms.py", "        _check_order_modulus(N)\n    reference",
     "        pass\n    reference",
     "order_trial checks the modulus cap before the brute-force scan"),
    ("cli.py", "except MemoryError as exc:", "except ArithmeticError as exc:",
     "the CLI exits 2 when an allocation fails"),
    ("cli.py", "str(exc) or 'out of memory'", "str(exc)",
     "the CLI names an allocation failure that has no message"),
    ("algorithms.py", "angle = math.ldexp(math.pi, i - m)",
     "angle = 2.0 * math.pi / (1 << (m - i + 1))", "qft's angles past 1,024 qubits"),
    ("statharness.py", "if n > TAIL_MAX_RUNS:", "if False:", "the binomial tail's run cap"),
    ("rng.py", "            flat.flags.writeable = False\n", "",
     "a filter table's kept edges are read-only"),
    ("rng.py", "flat = _block_edges(grid[rows], limits[rows], limits[rows + 1]).reshape(-1)",
     "flat = self._edges = _block_edges(grid[rows], limits[rows], limits[rows + 1]).reshape(-1)",
     "a filter table keeps edges only when they cover every block"),
    ("rng.py", "return below - below // (width + 1), decided",
     "return below - below // width, decided",
     "a filter table's pick from its kept edges lies in the lower edge's row"),
    ("rng.py", "0 <= r.start <= r.stop <= _SHOT_TABLE:", "0 <= r.start <= r.stop <= _SHOT_TABLE + 1:",
     "a range of shots reads the shot table only inside it"),
    ("rng.py", "mixed = _SHOT_MIXES[r.start:r.stop]", "mixed = _SHOT_MIXES[r.start + 1:r.stop + 1]",
     "a range's slice of the shot table starts at its first shot"),
    ("rng.py", "_SHOT_MIXES.flags.writeable = False\n", "", "the shot table is read-only"),
    ("rng.py", "    z = z ^ (z >> _U30)\n", "    z ^= z >> _U30\n",
     "the array mixer leaves its input unchanged"),
]


def check_texts(mutants) -> list:
    """A line for each mutant whose old text does not occur exactly once."""
    bad = []
    for name, old, _, _ in mutants:
        count = (REPO / "src" / "qsim" / name).read_text().count(old)
        if count != 1:
            bad.append(f"{name}: {old!r} occurs {count} times")
    return bad


def first_failure(output: str) -> str:
    """The first FAILED or ERROR test id in pytest's short summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ")[1]
    return "(no test id in the output)"


def suite_files(name: str) -> list:
    """Every tier-1 test file, the one named after module `name` first;
    pytest runs file arguments in the order given."""
    files = sorted(path.relative_to(REPO).as_posix() for path in (REPO / "tests").glob("test_*.py"))
    own = f"tests/test_{Path(name).stem}.py"
    return sorted(files, key=lambda path: path != own)


def run_mutant(name: str, old: str, new: str) -> tuple:
    """(killed, first failing test) of one mutant, run on a copy of the repository."""
    with tempfile.TemporaryDirectory(prefix="qsim-mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(REPO, tree, ignore=_SKIP)
        path = tree / "src" / "qsim" / name
        path.write_text(path.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(TIER1 + suite_files(name), cwd=tree, env=env,
                              capture_output=True, text=True)
    if done.returncode == 0:
        return False, ""
    return True, first_failure(done.stdout)


def main(files) -> int:
    unknown = sorted(set(files) - {name for name, _, _, _ in MUTANTS})
    if unknown:
        print(f"no mutant of {', '.join(unknown)} under src/qsim", file=sys.stderr)
        return 1
    mutants = [m for m in MUTANTS if not files or m[0] in files]
    bad = check_texts(mutants)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    print("| file | guarantee | verdict | first failing test |")
    print("|---|---|---|---|")
    survived = 0
    for name, old, new, guarantee in mutants:
        killed, test = run_mutant(name, old, new)
        survived += not killed
        print(f"| {name} | {guarantee} | {'killed' if killed else 'SURVIVED'} | {test} |",
              flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
