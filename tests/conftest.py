"""Settings shared by every test module.

The property tests draw the same examples on every run, and no example
database carries a failure from one run into the next: a tier-1 result
repeats from run to run, and a failing example fails every run. Each
test's own max_examples and deadline still apply.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
