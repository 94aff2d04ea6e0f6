"""The congruence form, its assembly and its lattice shared per order (see
the intsolve and constraints module docstrings).

A HeLP system holds only its lead variables and one congruence row per
distinct coefficient tuple.  Its assembly is a template kept per order plus
the constant terms of its combination, and its reduction is made once per
coefficient matrix and reused.  The oracles here are the system assembled
from nothing, a fresh reduction per system, the search on the Hermite basis
without its LLL step, the system written out as it was assembled before,
with one nonnegative multiplicity column per row, and that written-out
system without its norm, bounded by the LP.
"""

import gc

import pytest

from helpers import (
    built_calls,
    built_systems,
    bundle_of,
    constant_terms,
    reference_system,
    sign_rows,
    solve_unreduced,
)
from helpzc import intsolve, verify
from helpzc.constraints import AggVar, build_system, usable_tables
from helpzc.intsolve import Finite, Infinite, LinSystem, solve_all
from helpzc.records import Record
from helpzc.verify import (
    SolutionStore,
    SolverOptions,
    check_pq,
    check_zc,
    solve_order_report,
)

BUNDLES = ["s3", "s4", "a5", "sl23", "m11"]
# `order` audits the exponent, which is no element order of s3, s4 or sl23;
# m11 audits the benchmark's order 12
AUDITED = {"s3": 6, "s4": 12, "a5": 30, "sl23": 12, "m11": 12}

RUNS = [(name, "zc") for name in BUNDLES]
# SL(2,3) has elements of order 6, so its pq builds no system
RUNS += [(name, "pq") for name in BUNDLES if name != "sl23"]
RUNS += [(name, "order") for name in BUNDLES]
RUNS += [(f"cyclic:{n}", "zc") for n in range(2, 19)]

VARIANTS = {
    "full": SolverOptions(shortcuts=False),
    "p-constant": SolverOptions(shortcuts=False, p_constant=True),
    "no-brauer": SolverOptions(shortcuts=False, use_brauer=False),
}
CASES = [
    (name, command, variant)
    for name, command in RUNS
    for variant in VARIANTS
    # only m11 has Brauer tables to leave out
    if variant != "no-brauer" or name == "m11"
]


def run(name, command):
    if command == "zc":
        return check_zc
    if command == "pq":
        return check_pq
    return lambda bundle, options: solve_order_report(
        bundle, AUDITED[name], SolutionStore(bundle.group_name), options
    )


def written_out(system, bounded=True):
    """The system over its lead variables and one nonnegative column mu per
    congruence row c·x + a ≡ 0 (mod k), which becomes c·x - k·mu = -a."""
    n, rows = len(system.variables), system.congruences
    pad = (0,) * len(rows)
    equalities = [(coeffs + pad, rhs) for coeffs, rhs in system.equalities]
    for i, (coeffs, a, _) in enumerate(rows):
        mu = [0] * len(rows)
        mu[i] = -system.modulus
        equalities.append((coeffs + tuple(mu), -a))
    norm = None
    if bounded and system.norm is not None:
        norm = (system.norm[0] + pad, system.norm[1])
    return LinSystem(
        system.variables + tuple(f"mu{i}" for i in range(len(rows))),
        tuple(equalities),
        norm,
        congruences=sign_rows(n + len(rows), range(n, n + len(rows))),
    )


@pytest.mark.parametrize("name, command, variant", CASES)
def test_assembly_matches_the_per_system_reference(monkeypatch, name, command, variant):
    calls = built_calls(monkeypatch, bundle_of(name), run(name, command), VARIANTS[variant])
    assert calls
    for builder, args, system in calls:
        if builder == "build_system":
            reference = reference_system(*args)
        else:
            bundle, k, p, proper, tables = args
            reference = reference_system(bundle, k, proper, tables, p)
        # field by field, so that a failure names the field; the reference
        # rows carry their ((label, l), a(psi, l)) owners, which must be the
        # system's constant terms in order
        for field in LinSystem.__slots__:
            if field != "congruences":
                assert getattr(system, field) == getattr(reference, field), field
        rows = [row[:2] for row in system.congruences]
        assert rows == [row[:2] for row in reference.congruences], "congruences"
        owners = [o for *_, own in reference.congruences if own for o in own]
        assert list(constant_terms(system).items()) == owners, "constants"


@pytest.mark.parametrize("variant", ["default", "p-constant"])
@pytest.mark.parametrize("command", ["zc", "pq", "order"])
def test_m11_systems_equal_those_over_every_brauer_row(monkeypatch, command, variant):
    # usable_tables keeps only the Brauer rows that restrict no ordinary
    # irreducible (identity 7 of constraints); the reference assembles every
    # row of every Brauer table whose prime does not divide k
    m11 = bundle_of("m11")
    options = SolverOptions(p_constant=variant == "p-constant")
    calls = built_calls(monkeypatch, m11, run("m11", command), options)
    assert calls
    for builder, args, system in calls:
        if builder == "build_system":
            _, k, proper, _ = args
            p = None
        else:
            _, k, p, proper, _ = args
        every = (m11.ordinary, *(t for t in m11.brauer if k % t.prime))
        reference = reference_system(m11, k, proper, every, p)
        for field in ("variables", "equalities", "norm", "modulus"):
            assert getattr(system, field) == getattr(reference, field), field
        rows = [row[:2] for row in system.congruences]
        assert rows == [row[:2] for row in reference.congruences], "congruences"


@pytest.mark.parametrize(
    "command, constants",
    # 5424, 4074 and 1053 when every Brauer row was assembled
    [("zc", 3245), ("pq", 2695), ("order", 429)],
)
def test_m11_assembles_only_the_rows_its_brauer_tables_add(monkeypatch, command, constants):
    m11 = bundle_of("m11")
    systems = built_systems(monkeypatch, m11, run("m11", command), SolverOptions())
    records = [system.congruences[0][2] for system in systems]
    # the (psi, l) constants of the systems that have them
    assert sum(len(record.values) for record in records if record) == constants
    # no Brauer table is traced, summed or flattened whole, and no mod-5
    # row is assembled at all
    for table in m11.brauer:
        assert (table.trace_blocks, table.level_sums, table.char_rows) == ({}, {}, None)
    labels = {label for record in records if record for label in record.layout.labels}
    assert {label for label in labels if label.startswith("mod")} <= {"mod11:1"}


def lead_part(result, n):
    return tuple(sorted({x[:n] for x in result.solutions}))


@pytest.mark.parametrize("name, command, variant", CASES)
def test_shared_lattice_matches_fresh_reduction_and_oracles(
    monkeypatch, name, command, variant
):
    bundle = bundle_of(name)
    systems = built_systems(monkeypatch, bundle, run(name, command), VARIANTS[variant])
    assert systems
    # in order, so that each system after the first of its order reuses
    # that one's lattice
    results = [solve_all(system) for system in systems]
    for system, shared in zip(systems, results):
        n = len(system.variables)
        assert system.norm is not None
        assert all(len(row[0]) == n for row in system.congruences)
        monkeypatch.setattr(intsolve, "_lattice", (None, None))
        assert solve_all(system) == shared
        assert solve_unreduced(system) == shared
        assert isinstance(shared, Finite)
        assert lead_part(solve_all(written_out(system)), n) == shared.solutions
        lp = solve_all(written_out(system, bounded=False))
        if any(isinstance(v, AggVar) for v in system.variables):
            # a relaxation without its norm may be unbounded
            if isinstance(lp, Infinite):
                continue
            kept = tuple(x for x in lead_part(lp, n) if system.check_solution(x))
            assert kept == shared.solutions
        else:
            assert lead_part(lp, n) == shared.solutions


def test_zc_m11_reduces_each_order_once(monkeypatch):
    m11 = bundle_of("m11")
    monkeypatch.setattr(intsolve, "_lattice", (None, None))
    reductions, solves, rows, steps = [], [], [], []
    real_reduce, real_solve = intsolve._reduce, verify.solve_all

    def reducing(*key):
        reductions.append(key[0])
        lat = real_reduce(*key)
        rows.append(len(key[3]))
        steps.append(sum(r >= len(key[2]) for r, _, _ in lat.steps))
        return lat

    def solving(system, **kwargs):
        solves.append(system.modulus)
        return real_solve(system, **kwargs)

    monkeypatch.setattr(intsolve, "_reduce", reducing)
    monkeypatch.setattr(verify, "solve_all", solving)
    check_zc(m11)
    # 26 systems over 13 orders, up to 10 at one order; the order-12
    # systems whose equal rows clash are refused before any reduction
    assert len(solves) == 26 and len(reductions) == 13
    assert sorted(reductions) == sorted(set(solves))
    assert max(solves.count(k) for k in solves) == 10
    # of their 276 congruence rows all but 17 are implied mod k by the
    # rows before them, or repeat one, and record no origin step
    assert sum(rows) == 276 and sum(steps) <= 17


class Recording(dict):
    """A kept cache that logs (tag, key) for every entry stored in it."""

    def __init__(self, log, tag):
        super().__init__()
        self.log, self.tag = log, tag

    def __setitem__(self, key, value):
        self.log.append((self.tag, key))
        super().__setitem__(key, value)


@pytest.mark.parametrize(
    "options, systems, templates",
    # --p-constant: 18 full systems and 10 relaxations, from 9 full and 6
    # relaxed templates (order 6 relaxes both of its primes)
    [(SolverOptions(), 26, 13), (SolverOptions(p_constant=True), 28, 15)],
    ids=["zc", "zc-p-constant"],
)
def test_zc_m11_assembles_each_order_once(monkeypatch, options, systems, templates):
    m11 = bundle_of("m11")
    built, summed = [], []
    m11.ordinary.templates = Recording(built, None)
    # the table of the one mod-11 row that restricts no ordinary irreducible,
    # kept by usable_tables for every order that reads it
    (added,) = usable_tables(m11, 2)[1:]
    tables = (m11.ordinary, added, *m11.brauer)
    for table in tables:
        table.level_sums = Recording(summed, table)
    moduli = [s.modulus for s in built_systems(monkeypatch, m11, check_zc, options)]
    assert len(moduli) == systems
    # no template and no level's sums are built twice
    assert len(built) == len(set(built)) == templates
    assert len(summed) == len(set(summed))
    if not options.p_constant:
        # one template per order, up to 10 systems at one order
        assert sorted(k for _, (k, _, _) in built) == sorted(set(moduli))
        assert max(moduli.count(k) for k in moduli) == 10
    # 12 distinct proper levels reach the ordinary table and 10 the mod-11
    # row, which skips the orders 11 divides; no Brauer table is summed
    # whole, and no mod-5 row at all
    per_table = [sum(tag is t for tag, _ in summed) for t in tables]
    assert per_table == [12, 10, 0, 0]


def held(obj, shared):
    """Every tuple, list and dict reachable from obj through containers and
    records other than the objects in `shared`."""
    skip = {id(x) for x in shared}
    seen, stack = {}, [obj]
    while stack:
        x = stack.pop()
        if id(x) not in seen and id(x) not in skip:
            seen[id(x)] = x
            if isinstance(x, Record):
                stack.extend(getattr(x, f) for f in x.__slots__)
            elif isinstance(x, (tuple, list, dict)):
                stack.extend(gc.get_referents(x))
    return [x for x in seen.values() if isinstance(x, (tuple, list, dict))]


def test_zc_m11_order_33_rows_share_one_constants_record(monkeypatch):
    m11 = bundle_of("m11")
    calls = built_calls(monkeypatch, m11, check_zc, SolverOptions())
    calls = [(args, system) for _, args, system in calls if system.modulus == 33]
    assert calls
    for args, system in calls:
        rows = system.congruences
        record = rows[0][2]
        # 330 rows (psi, l), the 10 ordinary rows times 33, merged into 28
        # congruence rows that all point at one record; the 9 mod-5 rows
        # restrict ordinary ones and add none (identity 7 of constraints)
        assert (len(rows), len(record.values)) == (28, 330)
        assert all(row[2] is record for row in rows)
        assert all(type(a) is int for a in record.values)
        # the layout is the template's, kept for the next system
        assert build_system(*args).congruences[0][2].layout is record.layout
        # beyond the template's coefficients and layout, the system holds
        # its rows and one flat tuple of constants: nothing per (psi, l)
        owned = held(rows, [row[0] for row in rows] + [record.layout])
        assert len(owned) == len(rows) + 2
