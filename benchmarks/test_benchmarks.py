"""Tests of the benchmark itself: tracer hygiene, determinism, smoke runs.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import layertrace
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent
CLI = worker.import_qsim(ROOT)

import qsim  # noqa: E402  (imported from the checkout by import_qsim)
from qsim import gates, hamsim, rng  # noqa: E402

IMPORTERS = ("gates", "algorithms", "hamsim", "qec", "entangle", "statharness")


def tiny_items(workload, shots="40"):
    items = workloads.WORKLOADS[workload][0]
    if workload == "order-find":
        items = [items[1], items[-1]]
    items = [[shots if prev == "--shots" else arg for prev, arg in zip([""] + item, item)]
             for item in items]
    return workloads.seeded_items(workload, 7, items)


def bindings():
    """Every qsim module global and traced class attribute, by identity."""
    snap = {}
    for name, mod in sys.modules.items():
        if name == "qsim" or name.startswith("qsim."):
            snap.update({(name, key): id(value) for key, value in vars(mod).items()})
    for cls in (rng.Stream, gates.GateOp, hamsim.TrotterStep):
        snap.update({(cls.__name__, key): id(value) for key, value in vars(cls).items()})
    return snap


def traced_run(items):
    runner = worker.Runner(CLI, workloads.check_output)
    result = worker.measure_trace(runner, items)
    assert runner.failures == []
    return result


def test_tracer_rebinds_imported_names_and_restores_them():
    before = bindings()
    tracer = layertrace.Tracer()
    with tracer:
        for mod in IMPORTERS:
            module = sys.modules[f"qsim.{mod}"]
            wrapped = [key for key, value in vars(module).items()
                       if getattr(value, "__wrapped__", None) is not None]
            assert wrapped, f"nothing traced in qsim.{mod}"
        assert hasattr(rng.Stream.__init__, "__wrapped__")
        assert bindings() != before
    assert bindings() == before
    assert not hasattr(qsim.statharness.shot_map, "__wrapped__")


def test_tracer_restores_bindings_after_an_exception():
    before = bindings()
    with pytest.raises(ZeroDivisionError):
        with layertrace.Tracer():
            1 / 0
    assert bindings() == before


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_e2e(workload):
    items = tiny_items(workload)
    runner = worker.Runner(CLI, workloads.check_output)
    raw = worker.measure_e2e(runner, items, 0.0, ROOT, worker.thread_check_item(items))
    assert runner.failures == []
    assert len(raw["walls"]) == len(raw["cpus"]) == worker.MIN_PASSES
    assert len(raw["setups"]) >= 1
    assert all(len(walls) == len(items) for walls in raw["walls"])
    assert runner.attempted == len(items) * worker.MIN_PASSES + ("--threads" in items[0])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_and_times_add_up(workload):
    items = tiny_items(workload)
    first, second = traced_run(items), traced_run(items)
    calls = lambda r: {layer: rec[0] for layer, rec in r["layers"].items()}  # noqa: E731
    assert calls(first) == calls(second)
    assert first["counts"] == second["counts"]
    assert first["pool"]["shots"] == second["pool"]["shots"]
    accounted = sum(rec[2] for rec in first["layers"].values())
    assert accounted == pytest.approx(first["traced_wall_s"], rel=0.01, abs=0.005)


def test_pool_threads_are_folded_into_the_calling_thread():
    items = [[("2" if prev == "--threads" else arg) for prev, arg in zip([""] + argv, argv)]
             for argv in tiny_items("qec-shots", shots="400")]
    result = traced_run(items)
    pool = result["pool"]
    assert pool["calls"] == 4 and pool["shots"] == 1600
    assert result["layers"]["qstate.measure"][0] == 1600
    assert 0 < pool["busy_s"] and 0 < pool["wall_s"] <= result["traced_wall_s"]


def test_pool_worker_time_is_scaled_to_the_wall_time_it_covered():
    def nap(i):
        time.sleep(0.01)  # waits without using CPU, so a thread's CPU clock barely moves
        return i

    tracer = layertrace.Tracer()
    with tracer:
        out = tracer.span(qsim.pool.shot_map, nap, 8, 2, name="root")
    assert out == list(range(8))
    agg, _ = tracer.totals()
    (_, t0, t1), = [span for span in tracer.spans if span[0] == "root"]
    assert sum(rec[2] for rec in agg.values()) == pytest.approx(t1 - t0, rel=1e-6)
    assert 0 <= agg["pool.shot_map"][2] < 0.5 * (t1 - t0)


def test_kernel_classification():
    counts = {}
    h, x = gates.HADAMARD_MATRIX, gates.PAULI_X
    layertrace._count_kernel(counts, None, 3, h, [0])
    layertrace._count_kernel(counts, None, 3, h, [2])
    layertrace._count_kernel(counts, None, 3, x, [2], [0], np.array([1, 0]))
    layertrace._count_kernel(counts, None, 3, gates.PAULI_Z, [1], (), None, np.array([1, -1]))
    assert counts["qstate.kernel.calls.general"] == 1
    assert counts["qstate.kernel.calls.trailing"] == 2
    assert counts["qstate.kernel.calls.diag"] == 1
    assert counts["qstate.kernel.calls.perm"] == 1
    assert counts["qstate.kernel.amps"] == 4 * 8
    # general 4N+4N, trailing 2N+4N, controlled trailing 2N+4(N/2), diag 2N+2(N/2)
    assert counts["qstate.kernel.bytes_computed"] == 16 * (64 + 48 + 32 + 24)


def test_fastest_sums_each_items_best_pass():
    assert worker.fastest([[1.0, 5.0, 2.0], [3.0, 4.0, 1.5]]) == 1.0 + 4.0 + 1.5


def test_failed_items_are_counted():
    class Stub:
        def __init__(self, code, text):
            self.code, self.text = code, text

        def main(self, argv):
            print(self.text)
            return self.code

    argv = ["run", "--experiment", "order-find", "--x-base", "2", "--modulus", "15"]
    wrong = worker.Runner(Stub(0, '{"value": 2}'), workloads.check_output)
    missed = worker.Runner(Stub(3, '{"value": 4}'), workloads.check_output)
    right = worker.Runner(Stub(0, '{"value": 4}'), workloads.check_output)
    assert wrong.run_item(argv) is None and "want 4" in wrong.failures[0]
    assert missed.run_item(argv) is None and "exit 3" in missed.failures[0]
    assert right.run_item(argv) is not None and right.failures == []
    right.compare(["a", "b"], ["a", "c"], "repeat")
    assert right.failures == ["item 1: repeat digest differs"]


def test_passes_leave_the_thread_unpinned():
    runner = worker.Runner(CLI, workloads.check_output)
    for _ in range(3):
        runner.run_pass([])
        assert os.sched_getaffinity(0) == set(runner.cpus)


def test_multiplicative_order():
    assert [workloads.multiplicative_order(x, 21) for x in (1, 2, 4, 5, 8, 20)] == [
        1, 6, 3, 6, 2, 2]


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "qmc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
