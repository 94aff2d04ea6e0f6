"""Checks that every test in the suite keeps."""

import gc

import pytest


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
