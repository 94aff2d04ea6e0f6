"""The JSON store format: writing and reading a SolutionStore.

A store is a JSON object holding the group's name, the admissible tuples
of each solved order and the obstruction marker of each obstructed one:

    {"group": "M11",
     "solutions": {"2": [{"2": {"2a": 1}}], ...},
     "obstructions": {"12": "node budget"}}

Each tuple maps every level e > 1 of its order to the partial
augmentations of u^(k/e), by class name.  Reading a store checks it as
hard as a table: it may hold no other key, every tuple must be complete
and pass the congruence test, every solved order must hold its divisors'
orders and the tuples its own tuples restrict to, and the group
elements' own tuples; a marker must be one that the order recursion
writes.

`cli` imports this module only where it reads or writes a store, a
`--json-out` payload or a `--tuple` file, so a solve that writes none of
them never compiles it.  `helpzc.store_to_json` and
`helpzc.store_from_json` name the same functions.
"""

from __future__ import annotations

from .arith import divisors, prime_factors
from .chartables import CharacterTable, TableBundle
from .constraints import PATuple, pa_vector
from .verify import (
    REASON_BUDGET,
    REASON_INFINITE,
    DriverError,
    SolutionStore,
    _check_order,
    canonical_key,
    trivial_solutions,
)
from .wagner import wagner_test


def pa_to_json(table: CharacterTable, pa) -> dict:
    return {table.classes[i].name: v for i, v in pa.entries}


def patuple_to_json(table: CharacterTable, tup: PATuple) -> dict:
    return {str(e): pa_to_json(table, pa) for e, pa in tup.levels}


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise DriverError(f"{what} must be a JSON object")
    return value


def _order_key(key) -> int:
    """An order written as a JSON key: the decimal string of an integer >= 2."""
    try:
        k = int(key)
    except (TypeError, ValueError):
        k = None
    if k is None or str(k) != key or k < 2:
        raise DriverError(f"{key!r} is not an order (an integer from 2 up)")
    return k


def patuple_from_json(table: CharacterTable, order: int, data: dict) -> PATuple:
    _check_order(order)
    levels = []
    for e_str, by_name in _json_object(data, f"an order-{order} tuple").items():
        e = _order_key(e_str)
        values = {}
        for name, v in _json_object(by_name, f"level {e}").items():
            # bool is an int subclass, and a float may carry a fraction
            if type(v) is not int:
                raise DriverError(
                    f"partial augmentation {name} = {v!r} at level {e}"
                    " is not an integer"
                )
            values[table.index_of(name)] = v
        levels.append((e, pa_vector(table, e, values)))
    return PATuple(order, tuple(sorted(levels, key=lambda level: level[0])))


def store_to_json(bundle: TableBundle, store: SolutionStore) -> dict:
    t = bundle.ordinary
    return {
        "group": store.group_name,
        "solutions": {
            str(k): [patuple_to_json(t, tup) for tup in tuples]
            for k, tuples in sorted(store.solutions.items())
        },
        "obstructions": {str(k): r for k, r in sorted(store.obstructions.items())},
    }


def store_from_json(bundle: TableBundle, data: dict) -> SolutionStore:
    # nothing reads another key, so a misspelt one would drop what it holds
    for key in _json_object(data, "a store"):
        if key not in ("group", "solutions", "obstructions"):
            raise DriverError(f"a store has no field {key!r}")
    if data.get("group") != bundle.group_name:
        raise DriverError(
            f"store belongs to {data.get('group')!r}, not {bundle.group_name!r}"
        )
    store = SolutionStore(bundle.group_name)
    t = bundle.ordinary
    for k_str, tuples in _json_object(data.get("solutions", {}), "solutions").items():
        k = _order_key(k_str)
        if not isinstance(tuples, list):
            raise DriverError(f"the tuples of order {k} must be a JSON list")
        loaded = []
        for item in tuples:
            tup = patuple_from_json(t, k, item)
            if not tup.is_complete():
                raise DriverError(f"stored tuple for order {k} is incomplete")
            if not wagner_test(t, tup):
                raise DriverError(
                    f"stored tuple for order {k} fails the congruence test"
                )
            loaded.append(tup)
        store.solutions[k] = tuple(sorted(set(loaded), key=canonical_key))
    for k_str, reason in _json_object(
        data.get("obstructions", {}), "obstructions"
    ).items():
        k = _order_key(k_str)
        if k in store.solutions:
            raise DriverError(f"store has order {k} both solved and obstructed")
        # _candidates marks only these; nontrivial solutions are a verdict,
        # and a marker would block the order without ever being retried
        if reason not in (REASON_INFINITE, REASON_BUDGET):
            raise DriverError(f"order {k}: unknown obstruction {reason!r}")
        store.obstructions[k] = reason
    for k in store.solutions:
        for d in divisors(k):
            if 1 < d < k and d not in store.solutions:
                raise DriverError(
                    f"store has order {k} but no entry for its divisor {d}"
                )
    # the recursion builds order k only from stored tuples of each k/p
    for k, tuples in store.solutions.items():
        for tup in tuples:
            for p in prime_factors(k):
                m = k // p
                if m > 1 and tup.restrict(m) not in store.solutions[m]:
                    raise DriverError(
                        f"stored tuple for order {k} restricts to an order-{m}"
                        " tuple the store does not hold"
                    )
    # group elements pass every filter, so a store helpzc wrote holds them
    for k, tuples in store.solutions.items():
        if not set(trivial_solutions(t, k)) <= set(tuples):
            raise DriverError(f"stored order {k} lacks a group element's tuple")
    return store
