import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and keep no example
# database, so the suite's outcome depends on the code alone; each test's
# own max_examples still applies.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
