"""Shot-level worker pool, bit-identical for any thread count because each
shot derives its own stream from (seed, tag, shot). No experiment uses it;
the benchmark's tracer and micro-benchmarks still import it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from .errors import DomainError


def shot_map(fn, shots: int, threads: int = 1) -> list:
    """[fn(0), fn(1), ..., fn(shots-1)], computed across `threads` workers."""
    if shots < 0:
        raise DomainError("shot count must be non-negative")
    if threads < 1:
        raise DomainError("thread count must be at least 1")
    if threads == 1 or shots <= 1:
        return [fn(i) for i in range(shots)]
    results = [None] * shots
    def work(start: int):
        for i in range(start, shots, threads):
            results[i] = fn(i)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, range(threads)))
    return results
