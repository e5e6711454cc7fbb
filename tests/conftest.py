import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every property test is seed-reproducible: examples come from a fixed
# derivation, not from the clock or the example database.
settings.register_profile("qsim", derandomize=True, deadline=None)
settings.load_profile("qsim")
