"""Shared test set-up: property tests run a fixed, reproducible example set."""

from hypothesis import settings

# derandomize: the same examples on every run; deadline=None: a slow host
# never turns a correct example into a failure
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
