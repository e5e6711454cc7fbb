"""Golden outputs: the fixed-seed output of every `qsim run` experiment
and the details of every acceptance criterion, pinned byte for byte.

    PYTHONPATH=src python tests/make_goldens.py

writes the goldens under tests/golden/ that do not exist yet. It never
overwrites one: if an existing golden would change, it names the file,
exits non-zero and writes nothing. So no golden is regenerated to make a
change pass; a change that moves one on purpose deletes the file first,
in a commit of its own that names it and says why in CHANGES.md.
tests/test_golden.py compares the CLI outputs and tests/test_acceptance.py
compares the criterion details.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"

# Wall-clock readings vary from run to run, so they are not pinned.
TIMING_KEYS = ("runtime_s", "sweep_runtime_s")

_BASE = ["run", "--seed", "11", "--shots", "200"]
_EXPERIMENTS = (
    "bell", "chsh", "teleport", "qft", "phase-est", "grover", "count", "order-find",
    "trotter", "grover-ham", "qec-sweep", "qrng", "qmc", "stats-bound",
)
CLI_CASES = {name: [*_BASE, "--experiment", name] for name in _EXPERIMENTS}
CLI_CASES["grover-ham"] += ["--bits", "3"]
CLI_CASES["chsh-emit-shots"] = ["run", "--seed", "11", "--shots", "40",
                                "--experiment", "chsh", "--emit-shots"]
CLI_CASES["qec-sweep-csv"] = [*_BASE, "--experiment", "qec-sweep", "--format", "csv"]


def run_case(argv):
    """(exit code, stdout) of `qsim <argv>`, run in-process."""
    from qsim.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def cli_path(case: str) -> Path:
    suffix = "csv" if "--format" in CLI_CASES[case] else "jsonl"
    return GOLDEN_DIR / "cli" / f"{case}.{suffix}"


def details_line(cid: int, details: dict) -> str:
    """One JSON line holding a criterion's details without its timings."""
    kept = {k: v for k, v in details.items() if k not in TIMING_KEYS}
    return json.dumps({"cid": cid, "details": kept})


def acceptance_path(cid: int) -> Path:
    return GOLDEN_DIR / "acceptance" / f"{cid:02d}.json"


def main():
    from qsim.acceptance import run_acceptance

    outputs = {}
    for case, argv in CLI_CASES.items():
        code, out = run_case(argv)
        if code != 0:
            raise SystemExit(f"{case} exited {code}")
        outputs[cli_path(case)] = out.encode()
    for result in run_acceptance():
        if not result.passed:
            raise SystemExit(f"criterion {result.cid} failed")
        line = details_line(result.cid, result.details) + "\n"
        outputs[acceptance_path(result.cid)] = line.encode()
    changed = [path for path, data in outputs.items()
               if path.exists() and path.read_bytes() != data]
    if changed:
        names = "\n".join(f"  {path}" for path in changed)
        raise SystemExit(f"refusing to overwrite goldens that would change:\n{names}")
    for path, data in outputs.items():
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)


if __name__ == "__main__":
    main()
