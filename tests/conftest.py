import sys
from pathlib import Path

import pytest
from hypothesis import settings

from qsim import laws

sys.path.insert(0, str(Path(__file__).parent))

# Every property test is seed-reproducible: examples come from a fixed
# derivation, not from the clock or the example database.
settings.register_profile("qsim", derandomize=True, deadline=None)
settings.load_profile("qsim")


@pytest.fixture
def cold_laws():
    """Empties the store of kept seed-free laws (`qsim.laws`) before and
    after the test. A test that patches a function they call then builds
    them under its patch, and no law built under the patch reaches a later
    test."""
    laws.clear()
    yield
    laws.clear()


@pytest.fixture
def refuse_seed_free_work(monkeypatch):
    """A function that, once called, makes the seed-free work of a Born
    draw raise for the rest of the test: the Kahan loop, dense
    expectations, an observable's projections (in qstate and where
    statharness binds them) and the filter of `rng.BornTable`."""
    from qsim import qstate, rng, statharness

    def refuse(*args, **kwargs):
        raise AssertionError("a warm call redid seed-free work")

    def patch():
        monkeypatch.setattr(rng, "kahan_cumsum", refuse)
        monkeypatch.setattr(rng.BornTable, "_filtered", refuse)
        for module in (qstate, statharness):
            monkeypatch.setattr(module, "expectation", refuse)
            monkeypatch.setattr(module, "_projections", refuse)

    return patch
