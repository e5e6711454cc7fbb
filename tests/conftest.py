import importlib
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every property test is seed-reproducible: examples come from a fixed
# derivation, not from the clock or the example database.
settings.register_profile("qsim", derandomize=True, deadline=None)
settings.load_profile("qsim")


# The kept seed-free laws, as (module of qsim, cached function): qmc's law
# and the phase-estimation and order-finding Born tables.
KEPT_LAWS = (("hamsim", "_qmc_law"), ("algorithms", "_pe_table"), ("algorithms", "_orbit_table"))


@pytest.fixture
def cold_laws():
    """Empties the kept seed-free laws (KEPT_LAWS) before and after the
    test. A test that patches a function they call then builds them under
    its patch, and no law built under the patch reaches a later test."""
    caches = [getattr(importlib.import_module(f"qsim.{module}"), name)
              for module, name in KEPT_LAWS]
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


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
