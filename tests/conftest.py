"""One Hypothesis profile for every property test: the same examples on
every run, no per-example deadline, and no example database on disk.
Each test file sets only its own `max_examples`."""
from hypothesis import settings

settings.register_profile("doubleslit", derandomize=True, deadline=None, database=None)
settings.load_profile("doubleslit")
