"""Test-wide settings: every hypothesis test draws the same examples on
every run, chosen from its own name, and keeps no example database, so
repeated runs of the suite are identical.  A test's own settings still
choose how many examples it runs."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
