"""Checks that every test in the suite keeps."""

import gc

import pytest
from hypothesis import settings

# Every Hypothesis test draws the same examples on every run (seeded from
# the test's own code, with no example database), so that a count taken
# over the suite, such as search nodes, reads the same on two runs of one
# tree.  Each test keeps its own max_examples.
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")


@pytest.fixture(autouse=True)
def collector_left_as_found():
    """Fail a test that leaves the garbage collector disabled or changes
    how many objects are frozen, as a driver's error path might; the
    collector is re-enabled, and unfrozen if nothing was frozen before, so
    that later tests run as usual."""
    frozen = gc.get_freeze_count()
    yield
    enabled, now = gc.isenabled(), gc.get_freeze_count()
    gc.enable()
    if not frozen:
        gc.unfreeze()
    assert enabled, "the test left the garbage collector disabled"
    assert now == frozen, f"the test changed the frozen count from {frozen} to {now}"
