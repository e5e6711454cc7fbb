"""Benchmark worker: runs one workload's passes in this fresh process.

Items call `qsim.cli.main` in-process with stdout captured. Usage:

    python3 benchmarks/worker.py <root> <workload> <seed> <seconds> <e2e|trace>

The last line of stdout is one JSON object with the raw measurements;
`run.py` turns it into metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layertrace import Tracer

MIN_PASSES = 2  # passes at one seed are compared with each other
SETUP_EVERY_S = 1.5  # run time per set-up sample

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import qsim.cli\n"
    "qsim.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


def import_qsim(root: Path):
    """Import qsim from the checkout at `root`, never from elsewhere."""
    src = (root / "src").resolve()
    if not (src / "qsim" / "cli.py").is_file():
        raise SystemExit(f"no qsim sources under {src}")
    sys.path.insert(0, str(src))
    import qsim.cli

    if src not in Path(qsim.cli.__file__).resolve().parents:
        raise SystemExit(f"qsim was imported from {qsim.cli.__file__}, not from {src}")
    return qsim.cli


def _cpu_s() -> float:
    """User plus system CPU time of this process, all threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Runner:
    """Runs items through the CLI and records the outcome of each."""

    def __init__(self, cli, check):
        self.cli = cli
        self.check = check
        self.attempted = 0
        self.failures = []
        self.passes = 0
        self.cpus = sorted(os.sched_getaffinity(0))

    def run_item(self, argv):
        """sha256 of the item's output, or None if the item failed."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed item, not a crashed benchmark
            self.failures.append(f"{argv}: {type(exc).__name__}: {exc}")
            return None
        text = out.getvalue()
        problem = f"exit {code}: {err.getvalue().strip()}" if code else self.check(argv, text)
        if problem:
            self.failures.append(f"{argv}: {problem}")
            return None
        return hashlib.sha256(text.encode()).hexdigest()

    def run_pass(self, items, wrap=None):
        """(digests, walls, cpus) of one pass: one entry per item, times in s.

        Each pass starts on the next CPU in turn: the calling thread moves
        there and is unpinned again before the pass. The CPUs of a shared
        host change speed independently, so single-threaded passes would
        otherwise all sample whichever CPU the scheduler first chose.
        Threads the pass starts get the full affinity mask, as usual.
        """
        self.passes += 1
        os.sched_setaffinity(0, {self.cpus[self.passes % len(self.cpus)]})
        os.sched_setaffinity(0, self.cpus)
        digests, walls, cpus = [], [], []
        for argv in items:
            c0, t0 = _cpu_s(), time.perf_counter()
            if wrap is None:
                digests.append(self.run_item(argv))
            else:
                digests.append(wrap(self.run_item, argv, name=" ".join(argv[1:5])))
            walls.append(time.perf_counter() - t0)
            cpus.append(_cpu_s() - c0)
        return digests, walls, cpus

    def compare(self, digests, reference, label):
        """Count each item whose digest differs from the reference as failed."""
        for i, (got, want) in enumerate(zip(digests, reference)):
            if got is not None and want is not None and got != want:
                self.failures.append(f"item {i}: {label} digest differs")


def setup_time(root: Path) -> float:
    """Seconds to import qsim.cli and build its parser in a fresh interpreter.

    The interpreter's BLAS runs one thread. Importing numpy otherwise starts
    BLAS worker threads, and on a small VM that start costs 0.05-0.1 s more
    when the other vCPU sits idle than when it is busy, so set-up time would
    depend on which workload ran before it rather than on qsim's imports.
    """
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(root / "src")], env=env,
                          stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return float(proc.stdout.strip().splitlines()[-1])


def fastest(per_pass):
    """Sum over items of each item's fastest time across the passes.

    Other tenants of a shared host only ever add time, and their load often
    changes within seconds, so an item's fastest pass is its steadiest
    reading; a pass's total mixes the host's fast and slow moments.
    """
    return sum(min(times) for times in zip(*per_pass))


def measure_e2e(runner, items, seconds: float, root: Path, thread_check=None):
    """Timed passes until the next one would overrun `seconds` (at least
    MIN_PASSES), then the thread-count check on `thread_check`'s item.

    Between passes, set-ups in a fresh interpreter catch up with a schedule
    of one every SETUP_EVERY_S, so every workload gets about as many of them,
    spread over the whole run, whatever its pass length."""
    setup_time(root)  # unrecorded: the first import may write bytecode caches
    walls, cpus, setups, steps, first = [], [], [], [], None
    start = next_setup = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        digests, wall, cpu = runner.run_pass(items)
        walls.append(wall)
        cpus.append(cpu)
        while time.perf_counter() >= next_setup:
            setups.append(setup_time(root))
            next_setup += SETUP_EVERY_S
        steps.append(time.perf_counter() - t0)
        if first is None:
            first = digests
        else:
            runner.compare(digests, first, "same-seed repeat")
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(steps) > seconds:
            break
    if thread_check is not None:
        index, argv = thread_check
        runner.compare([runner.run_item(argv)], [first[index]], "--threads 2 vs --threads 1")
    return {"walls": walls, "cpus": cpus, "setups": setups,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def measure_trace(runner, items):
    """A traced pass between two untraced ones; all three must match."""
    plain, before, _ = runner.run_pass(items)
    tracer = Tracer()
    with tracer:
        traced, _, _ = tracer.span(runner.run_pass, items, tracer.span, name="pass")
    runner.compare(traced, plain, "traced vs untraced")
    again, after, _ = runner.run_pass(items)
    runner.compare(again, plain, "same-seed repeat")
    agg, counts = tracer.totals()
    (_, t0, t1), = [span for span in tracer.spans if span[0] == "pass"]
    return {
        "untraced_wall_s": (sum(before) + sum(after)) / 2,
        "traced_wall_s": t1 - t0,
        "layers": agg,
        "counts": counts,
        "pool": tracer.pool,
        "spans": [(name, round(t0, 6), round(t1, 6)) for name, t0, t1 in tracer.spans],
    }


def thread_check_item(items):
    """(index, argv at --threads 2) for the first item run with --threads."""
    for index, argv in enumerate(items):
        if "--threads" in argv:
            pooled = list(argv)
            pooled[pooled.index("--threads") + 1] = "2"
            return index, pooled
    return None


def main(argv) -> int:
    root, workload, seed, seconds, mode = argv
    seed, seconds = int(seed), float(seconds)
    cli = import_qsim(Path(root))
    items = workloads.seeded_items(workload, seed)
    runner = Runner(cli, workloads.check_output)
    if mode == "e2e":
        result = measure_e2e(runner, items, seconds, Path(root), thread_check_item(items))
    else:
        import micro  # imports qsim, so only after import_qsim

        result = measure_trace(runner, items)
        result["micro"] = micro.run_micro(seed)
    result.update(attempted=runner.attempted, failures=runner.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
