"""A verdict makes no reference cycles, nor does a bundle it has used, and
the drivers run it with the cyclic garbage collector paused.

Reference counting frees everything a verdict drops, so the collector
would find nothing; the drivers (`check_zc`, `check_pq`, `solve_order`,
`solve_order_report`) pause it and restore it as they found it, moving the
verdict's survivors into the oldest generation unless the caller holds
frozen objects.
"""

import gc

import pytest

from helpers import corrupted_bundle, sign_rows
from helpzc.chartables import cyclic_table, load_bundle, resolve_bundle_path
from helpzc.intsolve import Finite, Infinite, LinSystem, solve_all
from helpzc.verify import (
    REASON_BUDGET,
    DriverError,
    SolutionStore,
    SolverOptions,
    check_pq,
    check_zc,
    solve_order,
    solve_order_report,
)


def m11():
    return load_bundle(resolve_bundle_path("m11"))


def order_12(bundle):
    return solve_order_report(bundle, 12, SolutionStore(bundle.group_name))


def budget_abort(bundle):
    verdict = check_zc(bundle, SolverOptions(max_nodes=5))
    assert REASON_BUDGET in dict(verdict.obstructions).values()


def no_shortcuts(bundle):
    return check_zc(bundle, SolverOptions(shortcuts=False))


def p_constant(bundle):
    return check_zc(bundle, SolverOptions(p_constant=True))


def no_brauer(bundle):
    return check_zc(bundle, SolverOptions(use_brauer=False))


def lp_path(_):
    # no norm bound: the LP bounds the first system and its search finds
    # the 15 points of x + y + z = 4 in N^3; the second is unbounded
    box = LinSystem(("x", "y", "z"), (((1, 1, 1), 4),), congruences=sign_rows(3, range(3)))
    assert solve_all(box) == Finite(tuple(
        (x, y, 4 - x - y) for x in range(5) for y in range(5 - x)
    ))
    ray = LinSystem(("x", "y"), (((1, -1), 0),), congruences=sign_rows(2, range(2)))
    assert isinstance(solve_all(ray), Infinite)


VERDICTS = {
    "zc m11": (m11, check_zc),
    "pq m11": (m11, check_pq),
    "zc --p-constant m11": (m11, p_constant),
    "zc --no-brauer m11": (m11, no_brauer),
    "order 12 m11": (m11, order_12),
    "zc --no-shortcuts cyclic:18": (lambda: cyclic_table(18), no_shortcuts),
    "zc --max-nodes 5 m11": (m11, budget_abort),
    "lp path": (lambda: None, lp_path),
}


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_a_verdict_leaves_no_cyclic_garbage(name):
    load, work = VERDICTS[name]
    work(load())  # imports every module the verdict loads on first use
    gc.disable()
    try:
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        # the bundle is dropped with the verdict: the caches the verdict
        # leaves on its tables must not refer back to a table either
        work(load())
        found = gc.collect()
        kinds = sorted({type(o).__name__ for o in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert (found, kinds) == (0, [])


COUNTED = {
    "zc m11": (m11, check_zc),
    "pq m11": (m11, check_pq),
    "order 12 m11": (m11, order_12),
    "zc --no-shortcuts cyclic:18": (lambda: cyclic_table(18), no_shortcuts),
}


@pytest.mark.parametrize("name", sorted(COUNTED))
def test_a_verdict_runs_no_collection(name):
    load, work = COUNTED[name]
    bundle = load()
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    # a full pass resets the young count, so that the few allocations
    # made before a driver pauses the collector cannot start one
    gc.collect()
    gc.callbacks.append(count)
    try:
        work(bundle)
    finally:
        gc.callbacks.remove(count)
    assert passes == []


@pytest.fixture
def spied(monkeypatch):
    """Calls to gc.freeze and gc.unfreeze, in order."""
    calls = []
    for name in ("freeze", "unfreeze"):
        real = getattr(gc, name)
        monkeypatch.setattr(
            gc, name, lambda real=real, name=name: (calls.append(name), real())[1]
        )
    return calls


def s4_missing_a_group_element():
    # 4a^2 = 2a: the group element of class 4a fails the order-4 constraints
    return load_bundle(corrupted_bundle("s4", ("ordinary", "power_maps", "2", 4), 1))


def broken(bundle):
    with pytest.raises(DriverError, match="group elements of class 4a"):
        no_shortcuts(bundle)


DRIVERS = {
    "check_zc": (m11, check_zc),
    "check_pq": (m11, check_pq),
    "solve_order": (m11, lambda b: solve_order(b, 12, SolutionStore(b.group_name))),
    "solve_order_report": (m11, order_12),
    "DriverError": (s4_missing_a_group_element, broken),
}


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_an_enabled_collector_stays_enabled(name, spied):
    load, work = DRIVERS[name]
    work(load())
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0
    assert spied == ["freeze", "unfreeze"]


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_a_disabled_collector_stays_disabled(name, spied):
    load, work = DRIVERS[name]
    bundle = load()
    gc.disable()
    try:
        work(bundle)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert spied == []


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_a_callers_frozen_objects_stay_frozen(name, spied):
    load, work = DRIVERS[name]
    bundle = load()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        work(bundle)
        # neither moved; only frozen objects that the verdict drops, such
        # as the lattice it evicts from intsolve's cache, leave the count
        assert spied == ["freeze"]  # the caller's own
        assert 0 < gc.get_freeze_count() <= frozen
        assert gc.isenabled()
    finally:
        gc.unfreeze()
