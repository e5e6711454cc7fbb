"""Golden outputs: the fixed-seed output of every `qsim run` experiment
and the details of every acceptance criterion, pinned byte for byte.

    PYTHONPATH=src python tests/make_goldens.py

writes the goldens under tests/golden/ that do not exist yet. It never
overwrites one: if an existing golden would change, it prints each
differing field as `path: old → new`, exits non-zero and writes nothing.
So no golden is regenerated to make a change pass; a change that moves
one on purpose deletes the file first, in a commit of its own that names
it and lists these lines.
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


def changed_fields(path: Path, old: bytes, new: bytes) -> list:
    """`path:line.field: old → new` for each differing field of a JSON-lines
    golden; `path:line: old → new` for a differing line that is not JSON or
    differs only in its text; `path: ...` when only the line ends differ."""
    name = path.relative_to(GOLDEN_DIR) if path.is_relative_to(GOLDEN_DIR) else path
    old_lines, new_lines = old.decode().splitlines(), new.decode().splitlines()
    out = []
    for i in range(max(len(old_lines), len(new_lines))):
        a = old_lines[i] if i < len(old_lines) else None
        b = new_lines[i] if i < len(new_lines) else None
        if a == b:
            continue
        try:
            diffs = _differing_values(json.loads(a), json.loads(b), "")
        except (TypeError, ValueError):  # a missing line, or one that is not JSON
            diffs = []
        out += [f"{name}:{i + 1}{where}: {x} → {y}" for where, x, y in diffs or [("", a, b)]]
    if not out and old != new:
        out.append(f"{name}: {len(old)} bytes → {len(new)} bytes, the same lines")
    return out


def _differing_values(a, b, where: str) -> list:
    """(field path, old, new) for every leaf where two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [d for key in {**a, **b}
                for d in _differing_values(a.get(key), b.get(key), f"{where}.{key}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in _differing_values(x, y, f"{where}[{i}]")]
    return [] if a == b and type(a) is type(b) else [(where, json.dumps(a), json.dumps(b))]


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
    changes = [line for path, data in outputs.items()
               if path.exists() and path.read_bytes() != data
               for line in changed_fields(path, path.read_bytes(), data)]
    if changes:
        fields = "\n".join(f"  {line}" for line in changes)
        raise SystemExit(f"refusing to overwrite goldens that would change:\n{fields}")
    for path, data in outputs.items():
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)


if __name__ == "__main__":
    main()
