"""Acceptance gate: one test per stated criterion, run `pytest -v` for one
pass/fail line each.

Criterion 1 pins the outcome for the bundled M11 tables (ordinary, mod 5,
mod 11) at order 12.  With the congruence test applied at every p-power,
order 4 keeps only {4a: 1} and {2a: 2, 4a: -1}, and order 12 has exactly
three candidates before the congruence test: the classic pair over
u^3 = {4a: 1}, and {2a: 1, 4a: -1, 6a: 1} over u^3 = {2a: 2, 4a: -1}.  The
set is cross-checked against a brute-force oracle that evaluates the trace
formula over a box for every admissible proper part, bypassing the builder
and the solver.  The congruence test rejects all three, so no tuple of
order 12 survives.
"""

import json
import random
from itertools import combinations, product
from time import perf_counter

import pytest

from helpers import (
    box_solutions,
    brute_force_pa_solutions,
    in_box,
    proper,
    random_system,
)
from helpzc.arith import prime_factors
from helpzc.bundlefile import bundle_to_json
from helpzc.chartables import (
    BundleError,
    cyclic_table,
    load_bundle,
    resolve_bundle_path,
)
from helpzc.constraints import (
    build_system,
    char_rows,
    eps_projection,
    mu_sums,
)
from helpzc.intsolve import Finite, solve_all
from helpzc.verify import (
    SolutionStore,
    SolverOptions,
    check_pq,
    check_zc,
    compatible,
    patuple_to_json,
    solve_order,
    solve_order_report,
    trivial_solutions,
    usable_tables,
)
from helpzc.wagner import wagner_test

BUNDLE_NAMES = ("s3", "s4", "a5", "sl23", "m11")


@pytest.fixture(scope="module")
def m11():
    return load_bundle(resolve_bundle_path("m11"))


@pytest.fixture(scope="module")
def a5():
    return load_bundle(resolve_bundle_path("a5"))


@pytest.fixture(scope="module")
def m11_order12(m11):
    store = SolutionStore("M11")
    t0 = perf_counter()
    survivors, pre = solve_order_report(m11, 12, store, SolverOptions())
    return survivors, pre, store, perf_counter() - t0


@pytest.fixture(scope="module")
def a5_zc(a5):
    t0 = perf_counter()
    verdict = check_zc(a5)
    return verdict, perf_counter() - t0


@pytest.fixture(scope="module")
def m11_pq(m11):
    t0 = perf_counter()
    verdict = check_pq(m11)
    return verdict, perf_counter() - t0


@pytest.fixture(scope="module")
def cyclic_zc():
    t0 = perf_counter()
    verdicts = {
        n: check_zc(cyclic_table(n), SolverOptions(shortcuts=False))
        for n in range(2, 13)
    }
    return verdicts, perf_counter() - t0


def _m11_order12_json(u3, top):
    return {
        "2": {"2a": 1},
        "3": {"3a": 1},
        "4": u3,
        "6": {"3a": 3, "6a": -2},
        "12": top,
    }


CLASSIC_PAIR = [
    _m11_order12_json({"4a": 1}, {"2a": -1, "4a": 1, "6a": 1}),
    _m11_order12_json({"4a": 1}, {"2a": 1, "4a": 1, "6a": -1}),
]
M11_ORDER12_CANDIDATES = CLASSIC_PAIR + [
    _m11_order12_json({"2a": 2, "4a": -1}, {"2a": 1, "4a": -1, "6a": 1}),
]


def _oracle_candidates(bundle, store, k, bound):
    """Pre-congruence candidates of order k straight from the trace formula,
    over every compatible combination of the stored proper parts."""
    t = bundle.ordinary

    def names(entries):
        return {t.classes[i].name: v for i, v in entries}

    support = t.classes_of_order_dividing(k)
    subs = [store.solutions[k // p] for p in prime_factors(k) if k // p > 1]
    out = []
    for combo in product(*subs):
        if not all(compatible(a, b) for a, b in combinations(combo, 2)):
            continue
        levels = {e: dict(pa.entries) for part in combo for e, pa in part.levels}
        for eps in brute_force_pa_solutions(bundle, k, levels, bound):
            full = {str(e): names(lv.items()) for e, lv in levels.items()}
            full[str(k)] = names((i, v) for i, v in zip(support, eps) if v)
            out.append(full)
    return out


def _canon(tuples):
    return sorted(tuples, key=lambda d: json.dumps(d, sort_keys=True))


def test_criterion_1_m11_order_twelve(m11, m11_order12):
    survivors, pre, store, elapsed = m11_order12
    assert elapsed < 120
    t = m11.ordinary
    got = [patuple_to_json(t, c) for c in pre]
    for classic in CLASSIC_PAIR:
        assert classic in got, (
            f"classic candidate {classic['12']} missing; the bundled tables"
            f" yield {[c['12'] for c in got]}"
        )
    assert _canon(got) == _canon(M11_ORDER12_CANDIDATES), (
        "expected exactly the classic pair and {2a: 1, 4a: -1, 6a: 1} before"
        f" the congruence filter; the bundled tables yield {len(pre)}: {got}"
    )
    assert _canon(_oracle_candidates(m11, store, 12, 3)) == _canon(got)
    assert all(not wagner_test(t, c) for c in pre), (
        "expected the congruence test to reject every candidate"
    )
    assert len(survivors) == 0, (
        f"expected no surviving tuples, got {len(survivors)}"
    )


def test_criterion_2_a5_zc(a5, a5_zc):
    verdict, elapsed = a5_zc
    assert elapsed < 30
    assert verdict.proved and verdict.obstructions == ()
    t = a5.ordinary
    for k in (2, 3, 5):
        assert set(verdict.store.solutions[k]) == set(trivial_solutions(t, k))
    for k in (6, 10, 15, 30):
        assert verdict.store.solutions[k] == ()


def test_criterion_3_m11_pq(m11_pq):
    verdict, elapsed = m11_pq
    assert elapsed < 120
    assert verdict.proved and verdict.shortcut is None
    for k in (10, 15, 22, 33, 55):
        assert verdict.store.solutions[k] == ()


def test_criterion_4_cyclic_sanity(cyclic_zc):
    verdicts, elapsed = cyclic_zc
    assert elapsed < 60
    for n, verdict in verdicts.items():
        assert verdict.proved, f"C{n} not proved"
        t = cyclic_table(n).ordinary
        for k, sols in verdict.store.solutions.items():
            assert set(sols) == set(trivial_solutions(t, k)), (
                f"C{n} order {k} admits nontrivial tuples"
            )


def test_criterion_5_solver_oracle():
    rng = random.Random(20260814)
    t0 = perf_counter()
    verified = 0
    for _ in range(400):
        sys = random_system(rng)
        result = solve_all(sys)
        if isinstance(result, Finite):
            inside = tuple(x for x in result.solutions if in_box(x, 6))
            assert inside == box_solutions(sys, 6)
            verified += 1
    assert verified >= 200
    assert perf_counter() - t0 < 60


def _recheck_mu_sums(bundle, solutions_by_order):
    """Re-solve each stored tuple's system and confirm every character row's
    multiplicities sum to its degree."""
    checked = 0
    for k, tuples in solutions_by_order.items():
        by_proper = {}
        for tup in tuples:
            by_proper.setdefault(proper(tup), []).append(tup)
        for lower, siblings in by_proper.items():
            tables = usable_tables(bundle, k)
            rows = char_rows(tables)
            sys = build_system(bundle, k, lower, tables)
            result = solve_all(sys)
            assert isinstance(result, Finite)
            by_top = {}
            for sol in result.solutions:
                eps = eps_projection(sys, sol)
                key = tuple(sorted((i, v) for i, v in eps.items() if v))
                by_top[key] = sol
            for tup in siblings:
                sol = by_top[tup.top.entries]
                sums = mu_sums(sys, sol)
                for row in rows:
                    assert sums.get(row.label) == row.degree, (
                        f"{bundle.group_name} order {k}: row {row.label}"
                        f" sums to {sums.get(row.label)}, degree {row.degree}"
                    )
                checked += 1
    return checked


def test_criterion_6_mu_sums(m11, a5, m11_order12, a5_zc, m11_pq, cyclic_zc):
    _, pre, store12, _ = m11_order12
    runs = [
        (m11, {**store12.solutions, 12: tuple(pre)}),
        (a5, a5_zc[0].store.solutions),
        (m11, m11_pq[0].store.solutions),
    ]
    for n, verdict in cyclic_zc[0].items():
        runs.append((cyclic_table(n), verdict.store.solutions))
    checked = sum(_recheck_mu_sums(b, sols) for b, sols in runs)
    assert checked > 50


def test_criterion_7_orthogonality_gate():
    for name in BUNDLE_NAMES:
        load_bundle(resolve_bundle_path(name))
    corrupted = bundle_to_json(load_bundle(resolve_bundle_path("m11")))
    corrupted["ordinary"]["characters"][1][2] = {"n": 1, "coeffs": [[0, 7]]}
    with pytest.raises(BundleError):
        load_bundle(corrupted)


def test_criterion_8_p_constant_consistency(a5):
    t0 = perf_counter()
    for k in (6, 10, 15):
        full = solve_order(a5, k, SolutionStore("A5"), SolverOptions())
        fast = solve_order(
            a5, k, SolutionStore("A5"), SolverOptions(p_constant=True)
        )
        assert (len(full) > 0) == (len(fast) > 0)
        assert full == fast == ()
    assert perf_counter() - t0 < 30
