"""The benchmark's workloads: fixed lists of `qsim run` argument lists.

Each workload stresses different layers (see BENCHMARK.json for why each
was chosen). An item's `--seed` is derived from the workload seed and the
item's position, and every item runs with `--assert`, so the CLI itself
checks each result against its reference value.
"""

from __future__ import annotations

import hashlib
import json
import math

ORDER_MODULI = (15, 21)


def _qec_items():
    # One item per noise strength: the rows are identical to one
    # `--p 0.01 0.05 0.1 0.2` run, because each p draws from its own stream.
    # One pool thread: with two, the threads hand the interpreter lock back
    # and forth between two vCPUs of a shared host, and the run-to-run spread
    # of the timings triples. The worker re-runs one item at two threads and
    # checks that its output is unchanged.
    return [
        ["--experiment", "qec-sweep", "--p", p, "--shots", "2500", "--threads", "1"]
        for p in ("0.01", "0.05", "0.1", "0.2")
    ]


def _order_items():
    return [
        ["--experiment", "order-find", "--x-base", str(x), "--modulus", str(n)]
        for n in ORDER_MODULI
        for x in range(1, n)
        if math.gcd(x, n) == 1
    ]


# The shot-loop experiments run as several short items, each with its own
# seed: the benchmark times every item, and short items give each one many
# readings within a run.
def _phase_items():
    return [[
        "--experiment", "phase-est", "--zeta", "0.0625", "--epsilon", "0.1",
        "--phase", "0.333333", "--shots", "20",
    ]] * 10


def _qmc_items():
    return [["--experiment", "qmc", "--shots", "100", "--steps", "2"]] * 10


# name -> (items, work units per pass, unit of work)
WORKLOADS = {
    "qec-shots": (_qec_items(), 10_000, "shots"),
    "order-find": (_order_items(), 20, "pairs"),
    "phase-est": (_phase_items(), 200, "shots"),
    "qmc": (_qmc_items(), 1_000, "shots"),
}


def item_seed(workload: str, seed: int, index: int) -> int:
    """Seed for item `index` of `workload` under the benchmark seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def seeded_items(workload: str, seed: int, items=None):
    """Complete `qsim run` argv lists for one pass of the workload."""
    if items is None:
        items = WORKLOADS[workload][0]
    return [
        ["run", *item, "--seed", str(item_seed(workload, seed, i)), "--assert"]
        for i, item in enumerate(items)
    ]


def multiplicative_order(x: int, n: int) -> int:
    """Smallest r >= 1 with x^r = 1 (mod n), by direct scan."""
    value, r = x % n, 1
    while value != 1:
        value, r = (value * x) % n, r + 1
    return r


def check_output(argv, text: str):
    """None if the rows of one item are well formed and correct, else why not.

    Every line must be a JSON object. An order-finding row must report the
    true multiplicative order; the other experiments are checked by
    `--assert` against their reference values.
    """
    try:
        rows = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError as exc:
        return f"malformed output row: {exc}"
    if not rows:
        return "no output rows"
    if "order-find" in argv:
        x = int(argv[argv.index("--x-base") + 1])
        n = int(argv[argv.index("--modulus") + 1])
        want = multiplicative_order(x, n)
        if rows[0].get("value") != want:
            return f"order of {x} mod {n}: got {rows[0].get('value')}, want {want}"
    return None
