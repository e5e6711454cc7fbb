"""Every `qsim run` golden case reproduces its committed output byte for
byte (see make_goldens.py; the criterion details are compared in
test_acceptance.py)."""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import make_goldens
import oracles
import qsim
from conftest import KEPT_LAWS
from make_goldens import CLI_CASES, acceptance_path, cli_path, details_line, run_case
from qsim import acceptance, linalg
from qsim.acceptance import CRITERIA, run_acceptance


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_matches_golden(case):
    code, out = run_case(CLI_CASES[case])
    assert code == 0
    assert out.encode() == cli_path(case).read_bytes()


def _assert_same_up_to_rounding(got, want, where):
    """Equal in structure and in every non-float field; floats within
    rel 1e-10 (abs 1e-14 near zero)."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_same_up_to_rounding(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_up_to_rounding(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), (where, got)
        assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-14), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def test_make_goldens_writes_only_missing_files(tmp_path, monkeypatch):
    committed = cli_path("bell").read_bytes()
    monkeypatch.setattr(make_goldens, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(make_goldens, "CLI_CASES", {"bell": CLI_CASES["bell"]})
    monkeypatch.setattr(acceptance, "run_acceptance", lambda: [])
    make_goldens.main()
    assert cli_path("bell").read_bytes() == committed

    # a golden that would change stops the run before anything is written
    cli_path("bell").write_bytes(b"stale\n")
    make_goldens.CLI_CASES["chsh"] = CLI_CASES["chsh"]
    with pytest.raises(SystemExit, match="bell.jsonl") as stop:
        make_goldens.main()
    assert stop.value.code != 0
    assert cli_path("bell").read_bytes() == b"stale\n"
    assert not cli_path("chsh").exists()


def test_make_goldens_prints_each_changed_field(tmp_path, monkeypatch):
    committed = cli_path("bell").read_text().splitlines()
    monkeypatch.setattr(make_goldens, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(make_goldens, "CLI_CASES", {"bell": CLI_CASES["bell"]})
    monkeypatch.setattr(acceptance, "run_acceptance", lambda: [])
    stale = [json.loads(line) for line in committed]
    stale[1]["stderr"] = 0.5
    stale[1]["extra"] = [1]
    stale[0]["value"] = 3
    lines = [json.dumps(row) for row in stale] + ["trailing"]
    cli_path("bell").parent.mkdir(parents=True)
    cli_path("bell").write_text("\n".join(lines) + "\n")
    with pytest.raises(SystemExit) as stop:
        make_goldens.main()
    want = json.loads(committed[1])["stderr"]
    assert str(stop.value).splitlines()[1:] == [
        "  cli/bell.jsonl:1.value: 3 → 0",
        f"  cli/bell.jsonl:2.stderr: 0.5 → {want}",
        "  cli/bell.jsonl:2.extra: [1] → null",
        f"  cli/bell.jsonl:{len(committed) + 1}: trailing → None",
    ]

    # the same values written differently, or only the line ends changed
    spaced = committed[0].replace(", ", ",  ")
    cli_path("bell").write_text("\n".join([spaced, *committed[1:]]) + "\n")
    with pytest.raises(SystemExit) as stop:
        make_goldens.main()
    assert str(stop.value).splitlines()[1:] == [f"  cli/bell.jsonl:1: {spaced} → {committed[0]}"]
    cli_path("bell").write_text("\r\n".join(committed) + "\r\n")
    with pytest.raises(SystemExit, match=r"cli/bell.jsonl: \d+ bytes → \d+ bytes"):
        make_goldens.main()


# The goldens re-pinned when `linalg.eigh` moved from a cyclic Jacobi
# iteration to LAPACK; every other golden is byte-identical under both.
# The kept laws start empty, so the Jacobi solver builds them, and are
# emptied after, so no Jacobi-built state reaches a byte-for-byte golden.
@pytest.mark.parametrize("case", ["trotter", "qmc", "grover-ham", 8, 11])
def test_jacobi_oracle_reproduces_repinned_golden(case, monkeypatch, cold_laws):
    calls = []

    def jacobi(mat):
        calls.append(len(mat))
        return oracles.jacobi_eigh(mat)

    def bypass(*args, **kwargs):
        raise AssertionError("an eigendecomposition bypassed linalg.eigh")

    monkeypatch.setattr(linalg, "eigh", jacobi)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, bypass)
    if isinstance(case, int):
        result = run_acceptance(ids=[case])[0]
        got = [details_line(case, result.details)]
        want = acceptance_path(case).read_text().splitlines()
    else:
        code, out = run_case(CLI_CASES[case])
        assert code == 0
        got = out.splitlines()
        want = cli_path(case).read_text().splitlines()
    assert calls
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        _assert_same_up_to_rounding(json.loads(g), json.loads(w), f"{case} line {i + 1}")


# Caches that `cold_laws` leaves full: each builds a constant that no test's
# patch changes (the parser; fixed settings, states and Pauli strings; the
# exact sin^2 and flip-gate tables; the qmc model, whose observable is
# diagonal, so every eigensolver gives it the same projectors).
CONSTANT_BUILDERS = {
    ("cli", "build_parser"), ("entangle", "default_chsh_setting"), ("entangle", "singlet"),
    ("entangle", "_chsh_pairs"), ("hamsim", "_pauli_strings"), ("hamsim", "qmc_problem"),
    ("algorithms", "_sin2_table"), ("qec", "_flip_gate"),
}


def _cache_sites():
    """(module, function) of every function of src/qsim decorated with
    functools' `cache` or `lru_cache`, called or not, however imported."""
    sites = set()
    for path in Path(qsim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for deco in node.decorator_list:
                deco = deco.func if isinstance(deco, ast.Call) else deco
                name = deco.attr if isinstance(deco, ast.Attribute) else getattr(deco, "id", "")
                if name in ("cache", "lru_cache"):
                    sites.add((path.stem, node.name))
    return sites


def test_every_cache_is_a_kept_law_or_a_constant():
    sites = _cache_sites()
    assert sites - set(KEPT_LAWS) - CONSTANT_BUILDERS == set(), "cold_laws must empty it"
    assert set(KEPT_LAWS) | CONSTANT_BUILDERS <= sites  # no stale name on either list


# `linalg.kron` is the package's one Kronecker product, of vectors and of
# matrices alike, so no golden run reaches `np.kron`, nor do the builds of
# the kept laws, which start empty.
@pytest.mark.parametrize("case", sorted(CLI_CASES) + sorted(CRITERIA))
def test_golden_runs_never_call_np_kron(case, monkeypatch, cold_laws):
    def refuse(*args, **kwargs):
        raise AssertionError("np.kron was called")

    monkeypatch.setattr(np, "kron", refuse)
    if isinstance(case, int):
        result = run_acceptance(ids=[case])[0]
        assert result.passed
        assert details_line(case, result.details) + "\n" == acceptance_path(case).read_text()
    else:
        code, out = run_case(CLI_CASES[case])
        assert code == 0
        assert out.encode() == cli_path(case).read_bytes()
