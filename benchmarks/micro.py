"""Per-layer microbenchmarks: each layer's public function alone, at fixed sizes.

Every result is the median time of one call, in microseconds. Calls much
shorter than a batch target are timed in batches so that timer resolution
does not dominate.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from qsim import algorithms, gates, linalg, pool
from qsim import rng as qrng
from qsim.qstate import StateVector

BATCH_S = 0.01  # target duration of one timed batch
BUDGET_S = 0.15  # time spent per microbenchmark, beyond the minimum repeats
MIN_REPEATS = 3
KERNEL_QUBITS = (10, 16, 20)


def time_call(fn) -> float:
    """Median seconds per call of `fn()`."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    batch = max(1, int(BATCH_S / max(first, 1e-9)))
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_REPEATS or time.perf_counter() - start < BUDGET_S:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples)


def _random_state(b: int, rng: np.random.Generator) -> StateVector:
    amps = rng.standard_normal(1 << b) + 1j * rng.standard_normal(1 << b)
    return StateVector(b, amps / np.linalg.norm(amps))


def _hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def run_micro(seed: int) -> dict:
    """Metric name -> median microseconds per call."""
    rng = np.random.default_rng(seed)
    stream = qrng.Stream(seed, "bench/micro")
    out = {}

    def record(name, fn):
        out[f"micro.{name}_us"] = time_call(fn) * 1e6

    shot = iter(range(1 << 62))
    record("rng.stream", lambda: qrng.Stream(seed, "bench/micro", next(shot)))
    record("rng.uniform", stream.uniform)
    for n, label in ((16, "16"), (1 << 14, "16k")):
        probs = rng.random(n)
        probs = list(probs / probs.sum())
        probs[-1] = 1.0 - sum(probs[:-1])
        record(f"rng.sample{label}", lambda probs=probs: qrng.sample_index(probs, stream))

    for b in KERNEL_QUBITS:
        state = _random_state(b, rng)
        for label, op in (
            ("h0", gates.hadamard(0)),
            ("hlast", gates.hadamard(b - 1)),
            ("swap", gates.swap_gate(0, b - 1)),
        ):
            record(f"kernel.{label}_b{b}", lambda op=op, state=state: gates.apply_gate(state, op))
        del state

    record("gates.gateop", lambda: gates.GateOp("h", gates.HADAMARD_MATRIX, [0]))
    record("gates.qft14", lambda: algorithms.qft(14))
    for n in (8, 64):
        mat = _hermitian(n, rng)
        record(f"linalg.eigh{n}", lambda mat=mat: linalg.jacobi_eigh(mat))

    shots = 20_000
    for threads in (1, 2):
        per_call = time_call(lambda threads=threads: pool.shot_map(int, shots, threads))
        out[f"micro.pool.shot_t{threads}_us"] = per_call / shots * 1e6
    return out
