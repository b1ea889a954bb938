"""Shared pytest configuration.

Property tests run under a fixed hypothesis profile: examples are derived
deterministically from each test and no example database is kept, so every
run checks the same inputs; there is no per-example deadline (the reference
recursions are slow by design), and the example count is bounded so the
suite's run time stays predictable.
"""

from hypothesis import settings

settings.register_profile(
    "graphit", derandomize=True, database=None, deadline=None, max_examples=40
)
settings.load_profile("graphit")
