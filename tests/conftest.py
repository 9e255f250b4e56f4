"""Suite-wide Hypothesis profile.

The example database is off, so a run never depends on what an earlier run
left in ``.hypothesis/``, and examples are derandomized, so every run of the
suite draws the same examples.
"""

from hypothesis import settings

settings.register_profile("deterministic", database=None, derandomize=True)
settings.load_profile("deterministic")
