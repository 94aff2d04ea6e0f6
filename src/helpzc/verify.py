"""Top-level verification drivers.

Checks two questions about the normalized torsion units of Z[G]:

* rational conjugacy of every torsion unit to a group element, verified
  order by order (check_zc), and
* existence of units of order p*q for primes p, q that are element orders
  while p*q is not (check_pq).

Orders are processed bottom-up over the divisor lattice: the admissible
partial augmentation tuples of u^p for every prime p | k are merged into
compatible candidates for the proper powers of u, the constraint system of
one candidate per Galois orbit is solved exactly and its solutions twisted
onto the rest of the orbit (the twists derived before the first system),
and the surviving tuples are filtered through the congruence test.
Results land in a SolutionStore, which `helpzc.storefile` writes and reads
as JSON, for audit or to resume from.

A verdict is Proved or Unknown, never "false": an obstruction (nontrivial
solutions, an infinite solution set, or an exhausted node budget) means the
method is inconclusive, not that a counterexample exists.

A verdict makes no reference cycles, nor do the caches it leaves on the
tables, so reference counting frees what it drops, and a dropped bundle.
The drivers (`check_zc`, `check_pq`, `solve_order`, `solve_order_report`)
check their inputs once and run with the cyclic garbage collector paused,
restoring it as they found it, even on an error; the recursion over lower
orders goes through `_solved`, never through a driver.
"""

from __future__ import annotations

import gc
from functools import wraps
from itertools import product

from .arith import divisors, prime_factors
from .chartables import CharacterTable, TableBundle
from .constraints import (
    ConstraintError,
    PATuple,
    build_system,
    build_system_p_constant,
    eps_projection,
    galois_twists,
    numerators,
    pa_vector,
    usable_tables,
)
from .intsolve import DEFAULT_MAX_NODES, Aborted, Finite, Infinite, solve_all
from .records import Record
from .wagner import wagner_test

REASON_NONTRIVIAL = "nontrivial solutions"
REASON_INFINITE = "infinite solution set"
REASON_BUDGET = "node budget"


class DriverError(ValueError):
    pass


def _collector_paused(driver):
    """Run the driver with the cyclic garbage collector paused, if it is
    enabled, and enable it again however the driver ends.  The collector
    would find nothing (see the module docstring) and only walk what the
    verdict keeps: tables, templates and store.  Unless the caller holds
    frozen objects, freezing and unfreezing moves those survivors into
    the oldest generation before the collector resumes, so that its next
    young pass does not walk them either.  No driver calls another."""

    @wraps(driver)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return driver(*args, **kwargs)
        gc.disable()
        try:
            return driver(*args, **kwargs)
        finally:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()

    return paused


def _check_order(k: int) -> None:
    if k < 2:
        raise DriverError("orders start at 2")


def _check_store(bundle: TableBundle, store: SolutionStore) -> None:
    if store.group_name != bundle.group_name:
        raise DriverError(
            f"store belongs to {store.group_name!r}, not {bundle.group_name!r}"
        )


class SolverOptions(Record):
    __slots__ = ("shortcuts", "use_brauer", "p_constant", "max_nodes")

    def __init__(
        self,
        shortcuts: bool = True,
        use_brauer: bool = True,
        p_constant: bool = False,
        max_nodes: int = DEFAULT_MAX_NODES,
    ):
        if max_nodes < 0:
            raise DriverError("the node budget must be non-negative")
        super().__init__(shortcuts, use_brauer, p_constant, max_nodes)


class ShortcutProved(Record):
    __slots__ = ("reason",)


class SolutionStore:
    """Admissible tuples per order, plus obstruction markers.

    An order appears in `solutions` only once all its proper divisor orders
    do, and never in both `solutions` and `obstructions`; every stored tuple
    is complete and passed the congruence test.
    """

    def __init__(self, group_name: str):
        self.group_name = group_name
        self.solutions: dict[int, tuple[PATuple, ...]] = {}
        self.obstructions: dict[int, str] = {}

    def __eq__(self, other):
        return (
            isinstance(other, SolutionStore)
            and self.group_name == other.group_name
            and self.solutions == other.solutions
            and self.obstructions == other.obstructions
        )

    def __repr__(self):
        return (
            f"SolutionStore({self.group_name!r}, orders={sorted(self.solutions)},"
            f" obstructions={self.obstructions})"
        )


class Verdict(Record):
    __slots__ = ("proved", "shortcut", "store", "obstructions")

    def __init__(
        self,
        proved: bool,
        shortcut: str | None,
        store: SolutionStore,
        obstructions: tuple[tuple[int, str], ...] = (),
    ):
        super().__init__(proved, shortcut, store, obstructions)


def canonical_key(tup: PATuple):
    return tuple((e, pa.entries) for e, pa in tup.levels)


# -- order enumeration ---------------------------------------------------------


def trivial_solutions(table: CharacterTable, k: int) -> tuple[PATuple, ...]:
    """One complete tuple per class of element order exactly k, holding the
    partial augmentations of the group elements themselves; built once per
    table and order."""
    got = table.group_elements.get(k)
    if got is not None:
        return got
    out = []
    for c, cl in enumerate(table.classes):
        if cl.element_order != k:
            continue
        levels = []
        for e in divisors(k):
            if e == 1:
                continue
            ci = table.class_of_power(c, k // e)
            levels.append((e, pa_vector(table, e, {ci: 1})))
        out.append(PATuple(k, tuple(levels)))
    got = table.group_elements[k] = tuple(sorted(out, key=canonical_key))
    return got


def orders_to_check_zc(bundle: TableBundle, shortcuts: bool = True):
    if shortcuts and bundle.is_nilpotent:
        return ShortcutProved("nilpotent")
    if bundle.is_solvable:
        return [k for k in bundle.ordinary.element_orders() if k > 1]
    return [k for k in divisors(bundle.ordinary.exponent()) if k > 1]


def orders_to_check_pq(bundle: TableBundle, shortcuts: bool = True):
    if shortcuts and bundle.is_solvable:
        return ShortcutProved("solvable")
    return list(bundle.ordinary.prime_graph_missing_pq())


# -- lattice recursion ----------------------------------------------------------


def _merge_levels(k: int, parts) -> PATuple | None:
    """The levels of the power tuples `parts`, merged at order k; None if
    two parts differ on a level they share, so describe no one unit."""
    levels: dict[int, object] = {}
    for part in parts:
        for e, pa in part.levels:
            if levels.setdefault(e, pa) != pa:
                return None
    return PATuple(k, tuple(sorted(levels.items())))


def _aggregated_rules_out(bundle, k, proper, tables, options) -> bool:
    """Try the p-constant relaxation for each prime; an infeasible aggregated
    system rules the order out without solving the full system.  Only its
    emptiness counts, so each search stops at the first solution."""
    for p in prime_factors(k):
        try:
            agg = build_system_p_constant(bundle, k, p, proper, tables)
        except ConstraintError:
            continue
        result = solve_all(agg, max_nodes=options.max_nodes, first=True)
        if isinstance(result, Finite) and not result.solutions:
            return True
    return False


def _candidates(bundle, k, store, options):
    """Complete tuples of order k that pass the eigenvalue-multiplicity
    constraints, before the congruence test, sorted; None when an
    obstruction blocks the order (recorded in store.obstructions)."""
    subs = []
    for p in prime_factors(k):
        m = k // p
        if m == 1:
            continue
        got = _solved(bundle, m, store, options)
        if got is None:
            store.obstructions[k] = store.obstructions[m]
            return None
        subs.append(got)
    # with no class of order dividing k, Σ eps = 1 has no variable to sit
    # on; the proper powers above are solved all the same, so that the
    # store holds every divisor
    if not bundle.ordinary.classes_of_order_dividing(k):
        return []

    tables = usable_tables(bundle, k, options.use_brauer)
    merged = (_merge_levels(k, combo) for combo in product(*subs))
    propers = [proper for proper in merged if proper is not None]

    # one system per Galois orbit: the first combination of each orbit is
    # solved and its candidates twisted onto the others (identity 3 of the
    # constraints module); None stands for every j that fixes each class,
    # j = 1 among them
    twists = [None]
    if len(propers) > 1:
        group = galois_twists(bundle.ordinary, tables, k)
        for perm in group.values():
            if perm != group[1] and perm not in twists:
                twists.append(perm)
    pending = set(propers)
    candidates = []
    for proper in propers:
        if proper not in pending:
            continue
        found = []
        if not (
            options.p_constant
            and _aggregated_rules_out(bundle, k, proper, tables, options)
        ):
            sys = build_system(bundle, k, proper, tables)
            result = solve_all(sys, max_nodes=options.max_nodes)
            if isinstance(result, Infinite):
                store.obstructions[k] = REASON_INFINITE
                return None
            if isinstance(result, Aborted):
                store.obstructions[k] = REASON_BUDGET
                return None
            for sol in result.solutions:
                numerators(sys, sol)  # each k·mu a non-negative multiple of k
                top = pa_vector(bundle.ordinary, k, eps_projection(sys, sol))
                found.append(proper.with_top(top))
        for perm in twists:
            member = proper if perm is None else proper.twisted(perm)
            if member in pending:
                pending.discard(member)
                candidates.extend(
                    found if perm is None else (c.twisted(perm) for c in found)
                )
    return sorted(set(candidates), key=canonical_key)


def _solved(bundle, k, store, options):
    """solve_order past the driver: the stored tuples, audited if absent."""
    if k in store.obstructions:
        return None
    got = store.solutions.get(k)
    if got is None:
        got, _ = _audit_order(bundle, k, store, options)
    return got


@_collector_paused
def solve_order(
    bundle: TableBundle,
    k: int,
    store: SolutionStore,
    options: SolverOptions | None = None,
) -> tuple[PATuple, ...] | None:
    """Admissible tuples of order k, populating the store bottom-up.

    Returns None when an obstruction (infinite set or node budget) blocks
    the order; the reason is recorded in store.obstructions.  Like every
    driver it first drops the store's node-budget markers.
    """
    _check_order(k)
    _check_store(bundle, store)
    _drop_budget_markers(store)
    return _solved(bundle, k, store, options or SolverOptions())


def _drop_budget_markers(store: SolutionStore) -> None:
    """Drop the store's node-budget markers.  Such a marker records the
    budget of the run that set it, not a fact about the group, so each
    driver call recomputes those orders (at most once, because a failure
    sets the marker again); infinite-set markers stay."""
    for k, reason in list(store.obstructions.items()):
        if reason == REASON_BUDGET:
            del store.obstructions[k]


@_collector_paused
def solve_order_report(bundle, k, store, options=None):
    """Like solve_order but also reports the pre-congruence candidates,
    for auditing a single order."""
    _check_order(k)
    _check_store(bundle, store)
    _drop_budget_markers(store)
    return _audit_order(bundle, k, store, options or SolverOptions())


def _audit_order(bundle, k, store, options):
    pre = _candidates(bundle, k, store, options)
    if pre is None:
        return None, None
    table = bundle.ordinary
    survivors = tuple(t for t in pre if wagner_test(table, t))
    # a group element's tuple passes every sound filter, so a missing one
    # means that the tables are wrong, and nothing of the order is stored
    kept = set(survivors)
    for own in trivial_solutions(table, k):
        if own not in kept:
            (c, _), = own.top.entries
            raise DriverError(
                f"order {k}: the group elements of class {table.classes[c].name}"
                " fail the constraints; the tables are inconsistent"
            )
    store.solutions[k] = survivors
    # a re-audit that gets through supersedes an earlier obstruction
    store.obstructions.pop(k, None)
    return survivors, tuple(pre)


# -- verdicts --------------------------------------------------------------------


@_collector_paused
def _check(bundle, orders_for, options, store) -> Verdict:
    """Solve every order `orders_for` names, each expected to hold exactly
    the group elements' tuples (none at an order that no element has); a
    theorem's shortcut proves at once."""
    options = options or SolverOptions()
    store = store if store is not None else SolutionStore(bundle.group_name)
    _check_store(bundle, store)
    _drop_budget_markers(store)
    orders = orders_for(bundle, options.shortcuts)
    if isinstance(orders, ShortcutProved):
        return Verdict(True, orders.reason, store)
    obstructions = []
    for k in sorted(orders):
        got = _solved(bundle, k, store, options)
        if got is None:
            obstructions.append((k, store.obstructions[k]))
        elif set(got) != set(trivial_solutions(bundle.ordinary, k)):
            obstructions.append((k, REASON_NONTRIVIAL))
    return Verdict(not obstructions, None, store, tuple(obstructions))


def check_zc(
    bundle: TableBundle,
    options: SolverOptions | None = None,
    store: SolutionStore | None = None,
) -> Verdict:
    """Every order's admissible tuples are those of the group elements."""
    return _check(bundle, orders_to_check_zc, options, store)


def check_pq(
    bundle: TableBundle,
    options: SolverOptions | None = None,
    store: SolutionStore | None = None,
) -> Verdict:
    """No missing prime-graph order p*q has an admissible tuple."""
    return _check(bundle, orders_to_check_pq, options, store)
