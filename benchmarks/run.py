"""qsim benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 benchmarks/run.py --workload order-find --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from anywhere; qsim is imported from `src/` next to this directory.
With `--trace 0` the workload runs untraced in a fresh worker process and
the end-to-end metrics are reported: wall_s, work_per_s, cpu_s,
peak_rss_mb, setup_s and pass_frac. Every item of a pass is timed on its
own, and wall_s and cpu_s add up each item's fastest pass: on a shared
host other tenants only ever add time, so the fastest reading is the
steadiest. setup_s is likewise the fastest of the set-ups taken during
the run. The report also prints whole-pass and set-up medians with their
quartiles. With `--trace 1` a fresh worker runs
a traced pass between two untraced ones, then the per-layer
microbenchmarks, and the per-layer metrics are reported. Every item's
output is checked.

Stdout carries a machine block and a readable report; its last line is
one JSON object with the keys correct, attempted, failed and metrics.
With `--workload all` each workload runs in turn, in its own worker, and
the metric names in that line are prefixed with `<workload>/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_LIMIT_S = 170  # one workload's run must end within 180 s
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(BENCH_DIR))
from layertrace import GLUE, LAYERS  # noqa: E402
from worker import fastest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Layers that one optimisation would speed up together.
GROUPS = {
    "rng (stream + draw + sample)": ("rng.stream", "rng.draw", "rng.sample"),
    "circuit building (gateop + check)": ("gates.gateop", "linalg.check"),
    "linalg (check + eigh)": ("linalg.check", "linalg.eigh"),
}

def machine_block() -> dict:
    """Hardware and software the numbers were measured on, and the load."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "loadavg_start": list(os.getloadavg()),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(name, values, unit):
    q1, q3 = quartiles(values)
    return (f"{name}: median {statistics.median(values):.6g} {unit} "
            f"(n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g})")


def last_line(cmd, deadline) -> str:
    """Last stdout line of `cmd`, which is killed if it outlives `deadline`."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    return proc.stdout.strip().splitlines()[-1]


def run_worker(workload, seed, seconds, mode, deadline) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(ROOT), workload,
           str(seed), str(seconds), mode]
    return json.loads(last_line(cmd, deadline))


def e2e_metrics(workload, seed, seconds, deadline):
    raw = run_worker(workload, seed, seconds, "e2e", deadline)
    units, unit_name = WORKLOADS[workload][1], WORKLOADS[workload][2]
    wall, cpu = fastest(raw["walls"]), fastest(raw["cpus"])
    passes = [sum(walls) for walls in raw["walls"]]
    attempted, failed = raw["attempted"], len(raw["failures"])
    metrics = {
        "wall_s": (wall, "s"),
        "work_per_s": (units / wall, "1/s"),
        "cpu_s": (cpu, "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "setup_s": (min(raw["setups"]), "s"),
        "pass_frac": ((attempted - failed) / attempted, "fraction"),
    }
    report = [
        f"wall_s: {wall:.6g} s per pass of {len(raw['walls'][0])} items, "
        f"each item at its fastest of {len(passes)} passes",
        summarize("  whole passes", passes, "s"),
        f"work_per_s: {units / wall:.6g} {unit_name}/s at {units} {unit_name} per pass",
        f"cpu_s: {cpu:.6g} s per pass, each item at its fastest",
        summarize("  whole passes", [sum(cpus) for cpus in raw["cpus"]], "s"),
        f"peak_rss_mb: {raw['peak_rss_mb']:.6g} MB",
        f"setup_s: {min(raw['setups']):.6g} s, the fastest set-up",
        summarize("  all set-ups", raw["setups"], "s"),
        f"fail_frac: {failed}/{attempted} = {failed / attempted:.6g}",
    ]
    return raw, metrics, report


def _cap(share: float) -> str:
    return f"{1 / (1 - share):.3g}x" if share < 1 else "inf"


def trace_metrics(workload, seed, seconds, deadline):
    raw = run_worker(workload, seed, seconds, "trace", deadline)
    wall = raw["traced_wall_s"]
    layers, counts, pool = raw["layers"], raw["counts"], raw["pool"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    for layer in LAYERS + (GLUE,):
        calls, _total, self_s = layers.get(layer, (0, 0.0, 0.0))
        if layer not in ("cli.emit", GLUE):
            put(f"{layer}.calls", calls, "count")
        put(f"{layer}.self_s", self_s, "s")
        put(f"{layer}.share", self_s / wall, "fraction")
    for key in ("calls.diag", "calls.trailing", "calls.general", "calls.perm",
                "amps", "bytes_computed"):
        put(f"qstate.kernel.{key}", counts.get(f"qstate.kernel.{key}", 0),
            "bytes" if key == "bytes_computed" else "count")
    put("rng.sample.outcomes", counts.get("rng.sample.outcomes", 0), "count")
    put("linalg.eigh.n3", counts.get("linalg.eigh.n3", 0), "count")
    put("pool.shots", pool["shots"], "count")
    put("pool.wall_s", pool["wall_s"], "s")
    put("pool.busy_s", pool["busy_s"], "s")
    put("pool.parallelism", pool["busy_s"] / pool["wall_s"] if pool["wall_s"] else 0.0, "ratio")
    put("trace.wall_s", wall, "s")
    put("trace.overhead", wall / raw["untraced_wall_s"], "ratio")
    for name, value in raw["micro"].items():
        put(name, value, "us")

    accounted = sum(layers.get(layer, (0, 0.0, 0.0))[2] for layer in LAYERS + (GLUE,))
    report = [f"traced wall {wall:.6g} s, untraced {raw['untraced_wall_s']:.6g} s; "
              f"layer self times + glue = {accounted:.6g} s",
              f"{'layer':<24}{'calls':>10}{'total_s':>10}{'self_s':>10}{'share':>8}{'cap':>9}"]
    for layer in sorted(LAYERS + (GLUE,), key=lambda l: -layers.get(l, (0, 0, 0))[2]):
        calls, total, self_s = layers.get(layer, (0, 0.0, 0.0))
        share = self_s / wall
        report.append(f"{layer:<24}{calls:>10}{total:>10.4f}{self_s:>10.4f}{share:>8.1%}"
                      f"{_cap(share):>9}")
    for group, members in GROUPS.items():
        share = sum(layers.get(layer, (0, 0.0, 0.0))[2] for layer in members) / wall
        report.append(f"{group:<44}{'':>10}{share:>8.1%}{_cap(share):>9}")
    report.append("cap = 1 / (1 - share): the most a faster layer can save when nothing contends")
    report.append(json.dumps({"spans": raw["spans"]}))
    return raw, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qsim" / "cli.py").is_file():
        print(f"error: no qsim sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"machine": machine_block()}), flush=True)
    measure = trace_metrics if args.trace else e2e_metrics
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        raw, metrics, report = measure(workload, args.seed, args.seconds, deadline)
        if declared != {name: unit for name, (_, unit) in metrics.items()}:
            print("error: metrics differ from those declared in BENCHMARK.json", file=sys.stderr)
            return 1
        print(f"== {workload}")
        for line in report + [f"FAILED: {failure}" for failure in raw["failures"]]:
            print(line, flush=True)
        result["correct"] &= not raw["failures"]
        result["attempted"] += raw["attempted"]
        result["failed"] += len(raw["failures"])
        prefix = f"{workload}/" if len(names) > 1 else ""
        result["metrics"].update({prefix + name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
