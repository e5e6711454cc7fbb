import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every property test is seed-reproducible: examples come from a fixed
# derivation, not from the clock or the example database.
settings.register_profile("qsim", derandomize=True, deadline=None)
settings.load_profile("qsim")


@pytest.fixture
def cold_laws():
    """Empties the kept seed-free laws (qmc's states, the phase-estimation
    and order-finding Born tables) before and after the test. A test that
    patches a function they call then builds them under its patch, and no
    law built under the patch reaches a later test."""
    from qsim import algorithms, hamsim

    caches = (hamsim._qmc_states, algorithms._pe_table, algorithms._orbit_table)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
