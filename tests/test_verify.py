"""Tests for the order-lattice driver, verdicts, and the solution store."""

from collections import Counter
from itertools import combinations, product

import pytest

from helpers import asymmetric_row, compatible, full_solve_candidates, with_rows
from helpzc import intsolve, verify
from helpzc.arith import divisors, prime_factors
from helpzc.chartables import (
    CharacterTable,
    TableBundle,
    cyclic_table,
    load_bundle,
    resolve_bundle_path,
)
from helpzc.constraints import AggVar, PATuple, pa_vector
from helpzc.storefile import (
    patuple_from_json,
    patuple_to_json,
    store_from_json,
    store_to_json,
)
from helpzc.verify import (
    REASON_BUDGET,
    REASON_INFINITE,
    REASON_NONTRIVIAL,
    DriverError,
    ShortcutProved,
    SolutionStore,
    SolverOptions,
    check_pq,
    check_zc,
    orders_to_check_pq,
    orders_to_check_zc,
    solve_order,
    solve_order_report,
    trivial_solutions,
    usable_tables,
)
from helpzc.wagner import wagner_test


@pytest.fixture(scope="module")
def bundles():
    names = ("s3", "s4", "a5", "sl23", "m11")
    return {n: load_bundle(resolve_bundle_path(n)) for n in names}


@pytest.fixture(scope="module")
def m11_pq(bundles):
    return check_pq(bundles["m11"])


def tops(tuples):
    return [dict(t.top.entries) for t in tuples]


# -- order enumeration ----------------------------------------------------------


def test_trivial_solutions_examples(bundles):
    a5, m11 = bundles["a5"].ordinary, bundles["m11"].ordinary
    assert len(trivial_solutions(cyclic_table(4).ordinary, 4)) == 2
    assert trivial_solutions(a5, 6) == ()
    (t2,) = trivial_solutions(a5, 2)
    assert tops([t2]) == [{a5.index_of("2a"): 1}]

    eights = trivial_solutions(m11, 8)
    i4a, i8a, i8b = (m11.index_of(n) for n in ("4a", "8a", "8b"))
    assert tops(eights) == [{i8a: 1}, {i8b: 1}]
    for t in eights:
        assert t.is_complete()
        # the proper powers are the group element's powers
        assert dict(t.level(4).entries) == {i4a: 1}


def test_orders_to_check_zc(bundles):
    assert orders_to_check_zc(bundles["a5"]) == [2, 3, 5, 6, 10, 15, 30]
    assert orders_to_check_zc(bundles["s4"]) == [2, 3, 4]
    # solvable order restriction is a theorem, not a shortcut
    assert orders_to_check_zc(bundles["s4"], shortcuts=False) == [2, 3, 4]
    assert orders_to_check_zc(bundles["m11"]) == [
        k for k in divisors(1320) if k > 1
    ]
    got = orders_to_check_zc(cyclic_table(12))
    assert got == ShortcutProved("nilpotent")
    assert orders_to_check_zc(cyclic_table(12), shortcuts=False) == [2, 3, 4, 6, 12]


def test_orders_to_check_pq(bundles):
    assert orders_to_check_pq(bundles["a5"]) == [6, 10, 15]
    assert orders_to_check_pq(bundles["m11"]) == [10, 15, 22, 33, 55]
    for name in ("s3", "s4"):
        assert orders_to_check_pq(bundles[name]) == ShortcutProved("solvable")
        assert orders_to_check_pq(bundles[name], shortcuts=False) == [6]


def test_usable_tables(bundles):
    m11 = bundles["m11"]
    assert [t.prime for t in usable_tables(m11, 12)] == [None, 5, 11]
    assert [t.prime for t in usable_tables(m11, 11)] == [None, 5]
    assert [t.prime for t in usable_tables(m11, 5)] == [None, 11]
    assert [t.prime for t in usable_tables(m11, 55)] == [None]
    no_brauer = usable_tables(m11, 12, use_brauer=False)
    assert [t.prime for t in no_brauer] == [None]


def test_usable_tables_fong_swan_skip():
    t = cyclic_table(6).ordinary
    fake = [
        CharacterTable(
            "C6", 6, t.classes, t.power_maps, t.characters, prime=p
        )
        for p in (5, 7)
    ]
    b = TableBundle(
        "C6", t, tuple(fake),
        is_solvable=True, is_nilpotent=True,
        p_solvable_for=frozenset({2, 3, 7}),
    )
    # p-solvable for 7, so the mod-7 table adds nothing and is dropped
    assert [x.prime for x in usable_tables(b, 6)] == [None, 5]
    # dividing the order excludes the table although 5 is not p-solvable
    assert [x.prime for x in usable_tables(b, 10)] == [None]


# -- lattice recursion ----------------------------------------------------------


def test_compatible_checks_shared_levels():
    t = cyclic_table(18).ordinary
    g6, g12, g9 = t.index_of("g6"), t.index_of("g12"), t.index_of("g9")

    def order9(l3):
        return PATuple(
            9,
            (
                (3, pa_vector(t, 3, l3)),
                (9, pa_vector(t, 9, {t.index_of("g2"): 1})),
            ),
        )

    def order6(l3):
        return PATuple(
            6,
            (
                (2, pa_vector(t, 2, {g9: 1})),
                (3, pa_vector(t, 3, l3)),
                (6, pa_vector(t, 6, {t.index_of("g3"): 1})),
            ),
        )

    nine, six = order9({g6: 1}), order6({g6: 1})
    assert verify._merge_levels(18, (nine, six)) == PATuple(
        18, tuple(sorted(dict(nine.levels + six.levels).items()))
    )
    assert verify._merge_levels(18, (order9({g6: 1}), order6({g12: 1}))) is None
    assert verify._merge_levels(18, (order9({g6: 2, g12: -1}), six)) is None
    # coprime orders share no level, so anything goes
    two = PATuple(2, ((2, pa_vector(t, 2, {g9: 1})),))
    three = PATuple(3, ((3, pa_vector(t, 3, {g12: 1})),))
    assert verify._merge_levels(6, (two, three)) == PATuple(6, two.levels + three.levels)


# (group, checker, options, combinations kept, combinations dropped)
MERGE_STORES = {
    "zc m11": ("m11", check_zc, SolverOptions(), 32, 0),
    "pq m11": ("m11", check_pq, SolverOptions(), 18, 0),
    "zc --no-shortcuts cyclic:72": (
        None, check_zc, SolverOptions(shortcuts=False), 63, 98
    ),
}


@pytest.mark.parametrize("name", sorted(MERGE_STORES))
def test_merge_rejects_exactly_the_incompatible_combinations(bundles, name):
    group, checker, options, kept, dropped = MERGE_STORES[name]
    bundle = bundles[group] if group else cyclic_table(72)
    store = checker(bundle, options).store
    fitting = Counter()
    for k in store.solutions:
        subs = [store.solutions[k // p] for p in prime_factors(k) if p < k]
        for combo in product(*subs):
            merged = verify._merge_levels(k, combo)
            fits = all(compatible(a, b) for a, b in combinations(combo, 2))
            assert (merged is not None) == fits
            fitting[fits] += 1
            if fits:
                levels = {e: pa for part in combo for e, pa in part.levels}
                assert merged == PATuple(k, tuple(sorted(levels.items())))
    assert (fitting[True], fitting[False]) == (kept, dropped)


def order_12(bundle):
    return solve_order_report(bundle, 12, SolutionStore(bundle.group_name))


@pytest.mark.parametrize(
    "work, audits",
    [(check_zc, 31), (check_pq, 9), (order_12, 5)],
    ids=["zc m11", "pq m11", "order 12 m11"],
)
def test_the_recursion_audits_each_order_once_past_the_driver(
    bundles, monkeypatch, work, audits
):
    calls = Counter()
    for name in ("solve_order", "_audit_order"):
        real = getattr(verify, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    work(bundles["m11"])
    # a lower order is read from the store or audited, never re-entered
    # through the public driver
    assert calls == {"_audit_order": audits}


def test_solve_order_rejects_bad_order(bundles):
    store = SolutionStore("A5")
    for k in (0, 1):
        for solve in (solve_order, solve_order_report):
            with pytest.raises(DriverError, match="orders start at 2"):
                solve(bundles["a5"], k, store)


def test_solver_options_reject_negative_budget():
    with pytest.raises(DriverError, match="non-negative"):
        SolverOptions(max_nodes=-1)
    assert SolverOptions(max_nodes=0).max_nodes == 0


def test_solve_order_cyclic_five():
    c5 = cyclic_table(5)
    store = SolutionStore("C5")
    got = solve_order(c5, 5, store, SolverOptions())
    assert got == trivial_solutions(c5.ordinary, 5)
    assert len(got) == 4


def test_solve_order_a5(bundles):
    a5 = bundles["a5"]
    store = SolutionStore("A5")
    assert solve_order(a5, 5, store) == trivial_solutions(a5.ordinary, 5)
    assert solve_order(a5, 6, store) == ()
    assert solve_order(a5, 10, store) == ()
    # bottom-up: every proper divisor order is in the store afterwards
    assert sorted(store.solutions) == [2, 3, 5, 6, 10]


def test_solve_order_reuses_store(bundles):
    a5 = bundles["a5"]
    store = SolutionStore("A5")
    first = solve_order(a5, 5, store)
    assert solve_order(a5, 5, store) is first
    store.obstructions[6] = REASON_INFINITE
    assert solve_order(a5, 6, store) is None
    # the obstruction propagates upward without recomputing
    assert solve_order(a5, 12, store) is None
    assert store.obstructions[12] == REASON_INFINITE


def test_m11_order_eight(bundles):
    m11 = bundles["m11"]
    store = SolutionStore("M11")
    got = solve_order(m11, 8, store, SolverOptions())
    assert len(got) == 16
    assert set(trivial_solutions(m11.ordinary, 8)) <= set(got)
    assert all(t.is_complete() and t.order == 8 for t in got)
    # the same top can sit over different order-4 levels; tuples stay distinct
    distinct_tops = {t.top for t in got}
    assert len(distinct_tops) == 8


def test_m11_order_eleven(bundles):
    m11 = bundles["m11"]
    store = SolutionStore("M11")
    got = solve_order(m11, 11, store, SolverOptions())
    ia, ib = m11.ordinary.index_of("11a"), m11.ordinary.index_of("11b")
    assert sorted(tops(got), key=str) == sorted(
        [{ia: 1}, {ib: 1}, {ia: 2, ib: -1}, {ia: -1, ib: 2}], key=str
    )


# -- verdicts ---------------------------------------------------------------------


def test_check_zc_a5(bundles):
    v = check_zc(bundles["a5"])
    assert v.proved and v.shortcut is None and v.obstructions == ()
    sizes = {k: len(t) for k, t in v.store.solutions.items()}
    assert sizes == {2: 1, 3: 1, 5: 2, 6: 0, 10: 0, 15: 0, 30: 0}


def test_check_zc_s4_sees_nontrivial_solutions(bundles):
    # the congruence test at every p-power settles S4 without the shortcut
    v = check_zc(bundles["s4"])
    assert v.proved and v.shortcut is None and v.obstructions == ()
    t = bundles["s4"].ordinary
    for k in (2, 3, 4):
        assert set(v.store.solutions[k]) == set(trivial_solutions(t, k))
    # M11 keeps nontrivial tuples at orders 4, 6, 8 and 11
    v = check_zc(bundles["m11"])
    assert not v.proved
    assert v.obstructions == tuple(
        (k, REASON_NONTRIVIAL) for k in (4, 6, 8, 11)
    )
    # orders 2, 3 and 5 individually came out trivial
    t = bundles["m11"].ordinary
    for k in (2, 3, 5):
        assert set(v.store.solutions[k]) == set(trivial_solutions(t, k))


def test_check_zc_cyclic_shortcut_and_computed():
    c12 = cyclic_table(12)
    v = check_zc(c12)
    assert v.proved and v.shortcut == "nilpotent"
    assert v.store.solutions == {}
    v = check_zc(c12, SolverOptions(shortcuts=False))
    assert v.proved and v.shortcut is None
    sizes = {k: len(t) for k, t in v.store.solutions.items()}
    assert sizes == {2: 1, 3: 2, 4: 2, 6: 2, 12: 4}


def test_check_pq_shortcut_and_computed(bundles):
    for name in ("s3", "s4"):
        v = check_pq(bundles[name])
        assert v.proved and v.shortcut == "solvable"
        v = check_pq(bundles[name], SolverOptions(shortcuts=False))
        assert v.proved and v.shortcut is None
    v = check_pq(bundles["s4"], SolverOptions(shortcuts=False))
    assert {k: len(t) for k, t in v.store.solutions.items()} == {2: 2, 3: 1, 6: 0}


def test_check_pq_a5(bundles):
    v = check_pq(bundles["a5"])
    assert v.proved
    assert all(v.store.solutions[k] == () for k in (6, 10, 15))


def test_check_pq_m11(m11_pq):
    assert m11_pq.proved and m11_pq.obstructions == ()
    sizes = {k: len(t) for k, t in m11_pq.store.solutions.items()}
    assert sizes == {2: 1, 3: 1, 5: 1, 10: 0, 11: 4, 15: 0, 22: 0, 33: 0, 55: 0}


def test_node_budget_obstruction():
    c12 = cyclic_table(12)
    v = check_zc(c12, SolverOptions(shortcuts=False, max_nodes=1))
    assert not v.proved
    assert v.obstructions
    assert all(reason == REASON_BUDGET for _, reason in v.obstructions)
    # a small but honest budget suffices for this group
    v = check_zc(c12, SolverOptions(shortcuts=False, max_nodes=200))
    assert v.proved


def test_reaudit_clears_stale_obstruction(bundles):
    m11 = bundles["m11"]
    store = SolutionStore(m11.group_name)
    assert solve_order_report(m11, 4, store, SolverOptions(max_nodes=0)) == (
        None,
        None,
    )
    assert store.obstructions == {4: REASON_BUDGET}
    store = store_from_json(m11, store_to_json(m11, store))
    survivors, _ = solve_order_report(m11, 4, store)
    assert len(survivors) == 2
    assert store.obstructions == {}
    store = store_from_json(m11, store_to_json(m11, store))
    # resuming gives the verdict of a fresh store
    assert check_zc(m11, store=store).obstructions == tuple(
        (k, REASON_NONTRIVIAL) for k in (4, 6, 8, 11)
    )


def test_drivers_retry_budget_markers(bundles):
    m11 = bundles["m11"]
    fresh = check_zc(m11)
    store = SolutionStore(m11.group_name)
    starved = check_zc(m11, SolverOptions(max_nodes=0), store)
    assert (4, REASON_BUDGET) in starved.obstructions
    solve_order_report(m11, 4, store, SolverOptions())
    # order 8's marker was inherited from order 4 and no longer holds
    again = check_zc(m11, SolverOptions(), store)
    assert again.obstructions == fresh.obstructions
    assert store == fresh.store


def test_pq_and_audit_retry_budget_markers(bundles):
    m11 = bundles["m11"]
    store = SolutionStore(m11.group_name)
    assert check_pq(m11, SolverOptions(max_nodes=0), store).obstructions
    assert check_pq(m11, store=store).proved
    store = SolutionStore(m11.group_name)
    assert solve_order_report(m11, 12, store, SolverOptions(max_nodes=0)) == (
        None,
        None,
    )
    survivors, pre = solve_order_report(m11, 12, store)
    assert (survivors, len(pre)) == ((), 3)
    assert REASON_BUDGET not in store.obstructions.values()


def test_solve_order_retries_budget_markers(bundles):
    m11 = bundles["m11"]
    store = SolutionStore(m11.group_name)
    assert solve_order(m11, 12, store, SolverOptions(max_nodes=0)) is None
    assert store.obstructions == {6: REASON_BUDGET, 12: REASON_BUDGET}
    # a marker records the budget of the call that set it, so the default
    # budget recomputes both orders
    assert solve_order(m11, 12, store) == ()
    assert store.obstructions == {}
    assert store.solutions[12] == solve_order_report(m11, 12, store)[0]


def test_infinite_obstruction_propagates(monkeypatch):
    # with only two of the six characters the order-3 system is
    # underdetermined, and orders above 3 inherit the obstruction; an
    # incomplete table carries no norm bound, so the LP bounds its systems
    t = cyclic_table(6).ordinary
    weak = CharacterTable(
        "C6", 6, t.classes, t.power_maps, (t.characters[0], t.characters[3])
    )
    lps = []
    real = intsolve.simplex_opt

    def counting(*args, **kwargs):
        lps.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(intsolve, "simplex_opt", counting)
    v = check_zc(TableBundle("C6", weak))
    assert not v.proved
    assert v.obstructions == ((3, REASON_INFINITE), (6, REASON_INFINITE))
    assert lps


def test_determinism(bundles, m11_pq):
    again = check_pq(bundles["m11"])
    assert store_to_json(bundles["m11"], again.store) == store_to_json(
        bundles["m11"], m11_pq.store
    )


# -- p-constant fast path ---------------------------------------------------------


def test_p_constant_skips_full_builds(bundles, monkeypatch):
    import helpzc.verify as driver

    calls = []
    original = driver.build_system

    def counting(bundle, k, proper, tables=None):
        calls.append(k)
        return original(bundle, k, proper, tables)

    monkeypatch.setattr(driver, "build_system", counting)
    v = check_pq(bundles["a5"], SolverOptions(p_constant=True))
    assert v.proved
    # every missing order was ruled out by the aggregated relaxation
    assert {k for k in calls if k in (6, 10, 15)} == set()
    plain = check_pq(bundles["a5"])
    assert v.store.solutions == plain.store.solutions


def test_p_constant_prefilter_stops_at_the_first_solution(monkeypatch):
    # the prefilter asks only whether a relaxation is empty: each of the six
    # relaxations of zc --no-shortcuts --p-constant cyclic:30 stops at its
    # first solution, where listing them all gave 18
    relaxed = []
    solve = verify.solve_all

    def solving(system, *args, **kwargs):
        got = solve(system, *args, **kwargs)
        if any(isinstance(v, AggVar) for v in system.variables):
            relaxed.append(got)
        return got

    monkeypatch.setattr(verify, "solve_all", solving)
    b = cyclic_table(30)
    v = check_zc(b, SolverOptions(shortcuts=False, p_constant=True))
    assert len(relaxed) == 6
    assert all(len(got.solutions) <= 1 for got in relaxed)
    monkeypatch.setattr(verify, "solve_all", solve)
    plain = check_zc(b, SolverOptions(shortcuts=False))
    assert v.store.solutions == plain.store.solutions


# -- one system per Galois orbit --------------------------------------------------


def assert_orbit_solve_is_full_solve(bundle, store, options):
    """At every order the store holds, the orbit solve's candidates equal
    those of one system per combination, from the same lower orders; by
    induction the whole store is the one the full solve builds."""
    for k in sorted(store.solutions):
        assert verify._candidates(bundle, k, store, options) == full_solve_candidates(
            bundle, k, store, options
        )


ORACLE_OPTIONS = {
    "defaults": SolverOptions(),
    "p-constant": SolverOptions(p_constant=True),
    "no-brauer": SolverOptions(use_brauer=False),
}


@pytest.mark.parametrize("option", sorted(ORACLE_OPTIONS))
@pytest.mark.parametrize("checker", [check_zc, check_pq], ids=["zc", "pq"])
@pytest.mark.parametrize("name", ["s3", "s4", "a5", "sl23", "m11"])
def test_orbit_solve_matches_full_solve(bundles, name, checker, option):
    options = ORACLE_OPTIONS[option]
    verdict = checker(bundles[name], options)
    assert not verdict.store.obstructions
    assert_orbit_solve_is_full_solve(bundles[name], verdict.store, options)


def test_orbit_solve_matches_full_solve_m11_order_twelve(bundles):
    store = SolutionStore("M11")
    solve_order_report(bundles["m11"], 12, store)
    assert 12 in store.solutions
    assert_orbit_solve_is_full_solve(bundles["m11"], store, SolverOptions())


@pytest.mark.parametrize("n", range(2, 25))
def test_orbit_solve_matches_full_solve_cyclic(n):
    b = cyclic_table(n)
    options = SolverOptions(shortcuts=False)
    verdict = check_zc(b, options)
    assert verdict.proved
    assert_orbit_solve_is_full_solve(b, verdict.store, options)


def test_symmetry_breaking_row_keeps_full_solve():
    b = with_rows(cyclic_table(12), [asymmetric_row()])
    options = SolverOptions(shortcuts=False)
    # the row is no character: the driver refuses the order at which it
    # first kills a group element
    with pytest.raises(DriverError, match="order 6: the group elements of class g10"):
        check_zc(b, options)
    # the store built order by order without that check: the row kills one
    # of the two order-6 group elements and two of the four of order 12, so
    # the store is not closed under the lost twists
    store = SolutionStore(b.group_name)
    for k in (2, 3, 4, 6, 12):
        pre = verify._candidates(b, k, store, options)
        store.solutions[k] = tuple(t for t in pre if wagner_test(b.ordinary, t))
    assert {k: len(v) for k, v in store.solutions.items()} == {
        2: 1, 3: 2, 4: 2, 6: 1, 12: 2
    }
    assert_orbit_solve_is_full_solve(b, store, options)


def test_one_system_per_galois_orbit(bundles, monkeypatch):
    solved = []
    real = verify.solve_all

    def counting(sys, max_nodes):
        solved.append(sys)
        return real(sys, max_nodes=max_nodes)

    monkeypatch.setattr(verify, "solve_all", counting)
    check_zc(cyclic_table(18), SolverOptions(shortcuts=False))
    assert len(solved) == 5  # 12 combinations in 5 orbits
    solved.clear()
    for checker in (check_zc, check_pq):
        checker(bundles["m11"])
    solve_order_report(bundles["m11"], 12, SolutionStore("M11"))
    assert len(solved) == 52  # 64 combinations


def test_orbit_solve_twists_by_each_nontrivial_twist_only(bundles, monkeypatch):
    perms = []
    real = PATuple.twisted

    def recording(self, perm):
        perms.append(perm)
        return real(self, perm)

    monkeypatch.setattr(PATuple, "twisted", recording)
    check_zc(cyclic_table(18), SolverOptions(shortcuts=False))
    check_zc(bundles["m11"])
    assert perms
    assert not any(all(x == y for x, y in perm.items()) for perm in perms)


# -- single-order audit -----------------------------------------------------------


def test_solve_order_report_m11_twelve(bundles):
    m11 = bundles["m11"]
    t = m11.ordinary
    store = SolutionStore("M11")
    survivors, pre = solve_order_report(m11, 12, store, SolverOptions())
    i2a, i3a, i4a, i6a = (t.index_of(n) for n in ("2a", "3a", "4a", "6a"))
    assert sorted(tops(pre), key=str) == sorted(
        [
            {i2a: 1, i4a: -1, i6a: 1},
            {i2a: -1, i4a: 1, i6a: 1},
            {i2a: 1, i4a: 1, i6a: -1},
        ],
        key=str,
    )
    # every candidate squares into the same order-6 augmentations
    assert all(dict(c.level(6).entries) == {i3a: 3, i6a: -2} for c in pre)
    # the classic pair sits over u^3 = 4a, the third candidate over the
    # other admissible order-4 tuple
    by_top = {c.top.entries: dict(c.level(4).entries) for c in pre}
    assert by_top == {
        ((i2a, 1), (i4a, -1), (i6a, 1)): {i2a: 2, i4a: -1},
        ((i2a, -1), (i4a, 1), (i6a, 1)): {i4a: 1},
        ((i2a, 1), (i4a, 1), (i6a, -1)): {i4a: 1},
    }
    assert survivors == ()
    assert store.solutions[12] == survivors


# -- persistence ------------------------------------------------------------------


def order12_candidate_json(sign):
    top = (
        {"2a": -1, "4a": 1, "6a": 1} if sign < 0 else {"2a": 1, "4a": 1, "6a": -1}
    )
    return {
        "2": {"2a": 1},
        "3": {"3a": 1},
        "4": {"4a": 1},
        "6": {"3a": 3, "6a": -2},
        "12": top,
    }


def test_patuple_json_roundtrip(bundles):
    t = bundles["m11"].ordinary
    tup = patuple_from_json(t, 12, order12_candidate_json(-1))
    assert tup.is_complete()
    assert patuple_to_json(t, tup) == order12_candidate_json(-1)
    assert patuple_from_json(t, 12, patuple_to_json(t, tup)) == tup


def test_store_json_roundtrip_and_resume(bundles, m11_pq):
    m11 = bundles["m11"]
    data = store_to_json(m11, m11_pq.store)
    loaded = store_from_json(m11, data)
    assert loaded == m11_pq.store
    resumed = check_pq(m11, store=loaded)
    assert resumed.proved
    assert resumed.store.solutions == m11_pq.store.solutions


def test_store_json_rejects_wrong_group(bundles, m11_pq):
    data = store_to_json(bundles["m11"], m11_pq.store)
    with pytest.raises(DriverError, match="belongs to"):
        store_from_json(bundles["a5"], data)


def test_drivers_refuse_a_store_of_another_group(bundles):
    s3, s4 = bundles["s3"], bundles["s4"]
    foreign = check_zc(s3).store
    # read as S4's, S3's tuples would leave orders 2, 3 and 4 with
    # nontrivial solutions; each driver refuses the store untouched
    drivers = (
        lambda: check_zc(s4, store=foreign),
        lambda: check_pq(s4, store=foreign),
        lambda: solve_order(s4, 4, foreign),
        lambda: solve_order_report(s4, 4, foreign),
    )
    for driver in drivers:
        with pytest.raises(DriverError, match="store belongs to 'S3', not 'S4'"):
            driver()
    assert foreign == check_zc(s3).store
    assert check_zc(s4).proved


def test_store_json_rejects_incomplete_tuple(bundles):
    a5 = bundles["a5"]
    data = {
        "group": "A5",
        "solutions": {"6": [{"3": {"3a": 1}, "6": {"3a": 1}}]},
        "obstructions": {},
    }
    with pytest.raises(DriverError, match="incomplete"):
        store_from_json(a5, data)


def test_store_json_rejects_congruence_failure(bundles):
    data = {
        "group": "M11",
        "solutions": {"12": [order12_candidate_json(1)]},
        "obstructions": {},
    }
    with pytest.raises(DriverError, match="congruence"):
        store_from_json(bundles["m11"], data)


def test_store_json_rejects_missing_divisor(bundles):
    # the tuple passes the congruence test, so only the divisor check fires
    data = {
        "group": "A5",
        "solutions": {
            "6": [{"2": {"2a": 1}, "3": {"3a": 1}, "6": {"2a": -2, "3a": 3}}]
        },
        "obstructions": {},
    }
    with pytest.raises(DriverError, match="divisor"):
        store_from_json(bundles["a5"], data)


def test_store_json_rejects_solved_and_obstructed_order(bundles):
    data = {
        "group": "M11",
        "solutions": {"2": [{"2": {"2a": 1}}]},
        "obstructions": {"2": REASON_BUDGET},
    }
    with pytest.raises(DriverError, match="both solved and obstructed"):
        store_from_json(bundles["m11"], data)
    del data["obstructions"]["2"]
    assert store_from_json(bundles["m11"], data).solutions[2]


def test_store_json_rejects_foreign_proper_levels(bundles):
    # the order-8 tuple passes the congruence and its divisors are present,
    # but its level 4 is not the stored order-4 tuple
    data = {
        "group": "M11",
        "solutions": {
            "2": [{"2": {"2a": 1}}],
            "4": [{"2": {"2a": 1}, "4": {"4a": 1}}],
            "8": [
                {
                    "2": {"2a": 1},
                    "4": {"2a": 2, "4a": -1},
                    "8": {"4a": 2, "8a": -2, "8b": 1},
                }
            ],
        },
        "obstructions": {},
    }
    with pytest.raises(DriverError, match="order-4 tuple the store does not hold"):
        store_from_json(bundles["m11"], data)
    data["solutions"]["4"].append({"2": {"2a": 1}, "4": {"2a": 2, "4a": -1}})
    data["solutions"]["8"] += [
        {"2": {"2a": 1}, "4": {"4a": 1}, "8": {c: 1}} for c in ("8a", "8b")
    ]
    assert len(store_from_json(bundles["m11"], data).solutions[8]) == 3


def a5_store_json(solutions=None, obstructions=None):
    return {
        "group": "A5",
        "solutions": {"2": [{"2": {"2a": 1}}]} if solutions is None else solutions,
        "obstructions": {} if obstructions is None else obstructions,
    }


def a5_order5(pa):
    return a5_store_json(solutions={"5": [{"5": pa}]})


@pytest.mark.parametrize(
    "load, data, match",
    [
        pytest.param("store", [], "a store must be a JSON object", id="store-list"),
        pytest.param(
            # read as an empty store, a resumed run would redo every order
            "store",
            {"group": "A5", "solution": {"2": [{"2": {"2a": 1}}]}, "obstructions": {}},
            "a store has no field 'solution'",
            id="unknown-key",
        ),
        pytest.param(
            "store", a5_store_json(solutions=[]), "solutions must be", id="solutions-list"
        ),
        pytest.param(
            "store",
            a5_store_json(obstructions=[[3, REASON_BUDGET]]),
            "obstructions must be",
            id="obstructions-list",
        ),
        pytest.param(
            "store",
            a5_store_json(solutions={"2": {"2": {"2a": 1}}}),
            "must be a JSON list",
            id="tuples-object",
        ),
        pytest.param(
            "store",
            a5_store_json(solutions={"2": [["2a", 1]]}),
            "tuple must be a JSON object",
            id="tuple-list",
        ),
        pytest.param(
            "store",
            a5_store_json(solutions={"2": [{"2": [1]}]}),
            "level 2 must be a JSON object",
            id="level-list",
        ),
        pytest.param(
            "store",
            a5_store_json(solutions={"two": [{"2": {"2a": 1}}]}),
            "'two' is not an order",
            id="order-key-word",
        ),
        pytest.param(
            "store",
            a5_store_json(solutions={"2": [{"2.0": {"2a": 1}}]}),
            "'2.0' is not an order",
            id="level-key-float",
        ),
        pytest.param(
            "store",
            a5_store_json(solutions={"2": [{"02": {"2a": 1}}]}),
            "'02' is not an order",
            id="level-key-padded",
        ),
        pytest.param(
            "store",
            a5_store_json(obstructions={"-5": REASON_BUDGET}),
            "'-5' is not an order",
            id="order-below-two",
        ),
        pytest.param(
            "store",
            a5_order5({"5a": 1.5, "5b": -0.5}),
            "5a = 1.5 at level 5 is not an integer",
            id="pa-fraction",
        ),
        pytest.param(
            "store", a5_order5({"5a": True}), "5a = True", id="pa-bool"
        ),
        pytest.param("store", a5_order5({"5a": "1"}), "5a = '1'", id="pa-string"),
        pytest.param(
            "store",
            a5_store_json(obstructions={"10": 42}),
            "order 10: unknown obstruction 42",
            id="reason-number",
        ),
        pytest.param(
            "store",
            a5_store_json(obstructions={"10": "gave up"}),
            "unknown obstruction 'gave up'",
            id="reason-text",
        ),
        pytest.param(
            "store",
            a5_store_json(obstructions={"10": REASON_NONTRIVIAL}),
            "unknown obstruction 'nontrivial solutions'",
            id="reason-verdict",
        ),
        pytest.param(
            "store",
            a5_store_json(solutions={"2": []}),
            "order 2 lacks a group element's tuple",
            id="no-group-element",
        ),
        pytest.param("tuple", (0, {}), "orders start at 2", id="tuple-order-zero"),
        pytest.param(
            "tuple", (2, [["2a", 1]]), "tuple must be a JSON object", id="tuple-array"
        ),
    ],
)
def test_malformed_store_or_tuple_json_is_rejected(bundles, load, data, match):
    a5 = bundles["a5"]
    with pytest.raises(DriverError, match=match):
        if load == "store":
            store_from_json(a5, data)
        else:
            patuple_from_json(a5.ordinary, *data)


def test_stores_written_by_helpzc_load(bundles):
    for name in ("s4", "a5", "sl23", "m11"):
        b = bundles[name]
        store = check_zc(b, SolverOptions(shortcuts=False)).store
        check_pq(b, SolverOptions(shortcuts=False), store)
        assert store_from_json(b, store_to_json(b, store)) == store
