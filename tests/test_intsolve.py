import hashlib
import inspect
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    box_solutions,
    hermite_rows,
    in_box,
    in_lattice,
    random_system,
    reference_reduce,
    reference_simplex,
    round_robin_propagate,
    sign_rows,
)
from helpzc import intsolve, simplex
from helpzc.intsolve import (
    Aborted,
    Finite,
    Infeasible,
    Infinite,
    LinSystem,
    Optimal,
    Unbounded,
    diophantine_eliminate,
    remove_redundant,
    simplex_opt,
    solve_all,
)


def sys_of(eqs, nonneg=(), nvars=None):
    if nvars is None:
        nvars = len(eqs[0][0]) if eqs else 0
    return LinSystem(
        tuple(f"x{i}" for i in range(nvars)), tuple(eqs),
        congruences=sign_rows(nvars, nonneg),
    )


# -- diophantine elimination -----------------------------------------------


def test_eliminate_single_divisible():
    p = diophantine_eliminate(sys_of([((2,), 4)]))
    assert p.origin == (2,)
    assert p.basis == ()


def test_eliminate_no_solution():
    assert diophantine_eliminate(sys_of([((2,), 3)])) is None
    assert diophantine_eliminate(sys_of([((0, 0), 1)])) is None
    assert diophantine_eliminate(sys_of([((3, 6), 2)])) is None


def test_eliminate_line():
    s = sys_of([((1, 1), 1)])
    p = diophantine_eliminate(s)
    assert s.check_solution(p.origin)
    for vec in p.basis:
        shifted = tuple(o + v for o, v in zip(p.origin, vec))
        assert s.check_solution(shifted)
    assert len(p.basis) == 1


def test_eliminate_inconsistent_rows():
    assert diophantine_eliminate(sys_of([((1, 1), 1), ((1, 1), 2)])) is None
    assert diophantine_eliminate(sys_of([((1, 1), 1), ((2, 2), 2)])) is not None


def test_eliminate_gcd_condition():
    # 6x + 10y = 8 solvable (gcd 2 | 8); 6x + 10y = 7 not
    assert diophantine_eliminate(sys_of([((6, 10), 8)])) is not None
    assert diophantine_eliminate(sys_of([((6, 10), 7)])) is None


def test_induced_inequalities_normalized():
    # x nonneg, x = 2t on the lattice -> t >= 0 after rounding
    s = sys_of([((1, -2), 0)], nonneg=[0])
    p = diophantine_eliminate(s)
    assert len(p.inequalities) == 1
    (coeffs, rhs) = p.inequalities[0]
    assert all(abs(c) <= 1 for c in coeffs)


# -- simplex ----------------------------------------------------------------


def test_simplex_bounded():
    res = simplex_opt(
        (((-1,), Fraction(-3, 2)),), (1,), maximize=True
    )  # x <= 3/2
    assert isinstance(res, Optimal)
    assert res.value == Fraction(3, 2)
    assert res.point == (Fraction(3, 2),)


def test_simplex_unbounded():
    res = simplex_opt((((1,), 0),), (1,), maximize=True)  # x >= 0
    assert isinstance(res, Unbounded)
    assert res.ray[0] > 0


def test_simplex_infeasible():
    res = simplex_opt((((-1,), 0), ((1,), 1)), (1,))  # x <= 0 and x >= 1
    assert isinstance(res, Infeasible)


def test_simplex_minimize():
    res = simplex_opt((((1,), -5), ((-1,), -7)), (1,), maximize=False)
    assert isinstance(res, Optimal)
    assert res.value == -5


def test_simplex_two_vars():
    # max x + y st x + y <= 4, x <= 1
    rows = (((-1, -1), -4), ((-1, 0), -1))
    res = simplex_opt(rows, (1, 1))
    assert isinstance(res, Optimal)
    assert res.value == 4
    res = simplex_opt(rows, (1, 0))
    assert res.value == 1


def test_simplex_no_constraints():
    res = simplex_opt((), (1,))
    assert isinstance(res, Unbounded)


def test_simplex_random_vs_enumeration():
    # vertices of small integer polytopes: LP optimum >= every box point
    rng = random.Random(7)
    for _ in range(60):
        d = rng.randint(1, 3)
        rows = tuple(
            (
                tuple(rng.randint(-3, 3) for _ in range(d)),
                rng.randint(-6, 2),
            )
            for _ in range(rng.randint(1, 4))
        )
        obj = tuple(rng.randint(-3, 3) for _ in range(d))
        res = simplex_opt(rows, obj)
        box = [
            pt
            for pt in __import__("itertools").product(range(-8, 9), repeat=d)
            if all(
                sum(c * v for c, v in zip(coeffs, pt)) >= r for coeffs, r in rows
            )
        ]
        if isinstance(res, Optimal):
            for pt in box:
                assert sum(o * v for o, v in zip(obj, pt)) <= res.value
        elif isinstance(res, Infeasible):
            assert not box


def random_lp(rng):
    d = rng.randint(1, 4)
    rows = tuple(
        (
            tuple(rng.randint(-4, 4) for _ in range(d)),
            rng.choice([rng.randint(-8, 8), Fraction(rng.randint(-8, 8), 3)]),
        )
        for _ in range(rng.randint(0, 6))
    )
    objective = tuple(rng.randint(-3, 3) for _ in range(d))
    if rng.random() < 0.2:
        objective = tuple(Fraction(c, 2) for c in objective)
    return rows, objective


def test_simplex_matches_reference(monkeypatch):
    # every pivot division must be exact, not merely floored
    real = simplex._bareiss_row

    def exact(row, prow, p, D, e):
        f = row[e]
        assert all((v * p - f * w) % D == 0 for v, w in zip(row, prow))
        return real(row, prow, p, D, e)

    monkeypatch.setattr(simplex, "_bareiss_row", exact)
    rng = random.Random(2024)
    seen = set()
    for _ in range(1500):
        rows, objective = random_lp(rng)
        maximize = rng.random() < 0.5
        got = simplex_opt(rows, objective, maximize)
        want = reference_simplex(rows, objective, maximize)
        assert type(got) is type(want)
        seen.add(type(got))
        if isinstance(got, Optimal):
            assert got.value == want.value
            assert sum(c * v for c, v in zip(objective, got.point)) == got.value
            assert all(isinstance(v, Fraction) for v in got.point)
        elif isinstance(got, Unbounded):
            gain = sum(c * v for c, v in zip(objective, got.ray))
            assert gain > 0 if maximize else gain < 0
    assert seen == {Optimal, Unbounded, Infeasible}


def test_bounding_runs_phase_one_once(monkeypatch):
    phase1 = []
    tableaus = []
    real_phase1 = simplex._Tableau._phase1
    real_init = simplex._Tableau.__init__

    def counting_phase1(self, base):
        phase1.append(len(tableaus))
        return real_phase1(self, base)

    def counting_init(self, inequalities, d):
        tableaus.append(d)
        real_init(self, inequalities, d)

    monkeypatch.setattr(simplex._Tableau, "_phase1", counting_phase1)
    monkeypatch.setattr(simplex._Tableau, "__init__", counting_init)
    rng = random.Random(3)
    bounded_with_phase1 = 0
    for _ in range(100):
        n = rng.randint(3, 5)
        # a bounded polytope: nonnegative variables with a fixed sum
        s = sys_of(
            [
                ((1,) * n, rng.randint(3, 8)),
                (tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-4, 4)),
            ],
            nonneg=range(n),
        )
        del phase1[:], tableaus[:]
        # a budget of 0 stops the search right after the bounds
        res = solve_all(s, max_nodes=0)
        assert len(tableaus) <= 1
        assert len(phase1) <= 1
        if isinstance(res, Aborted) and phase1 and tableaus[0] >= 2:
            bounded_with_phase1 += 1
    assert bounded_with_phase1 >= 20


def test_an_infinite_ray_does_not_depend_on_earlier_lps():
    # each lp_bounds starts from its own phase 1, so the witness of an
    # unbounded system is the same however often it is solved and whatever
    # LP system was solved before it
    s = sys_of([((4, -5, -4, -2), 4)], nonneg=range(4))
    other = sys_of([((1, 1, 1), 3)], nonneg=range(3))
    first = solve_all(s)
    assert isinstance(first, Infinite)
    assert solve_all(s) == first
    assert isinstance(solve_all(other), Finite)
    assert solve_all(s) == first


def test_bound_lps_are_simplex_calls(monkeypatch):
    # each parameter is bounded by one maximizing and one minimizing
    # simplex_opt call, so a trace of simplex_opt sees every bound LP
    calls = []
    real = intsolve.simplex_opt

    def counting(rows, objective, maximize=True):
        calls.append((tuple(objective), maximize))
        return real(rows, objective, maximize)

    monkeypatch.setattr(intsolve, "simplex_opt", counting)
    s = sys_of([((1, 1, 1, 1), 3)], nonneg=range(4))
    assert solve_all(s) == Finite(box_solutions(s, 3))
    d = 3
    unit = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    assert calls == [(e, m) for e in unit for m in (True, False)]


def test_wide_search_bounds_once_and_matches_box(monkeypatch):
    # root intervals up to 12 wide, yet the search prunes by interval
    # propagation alone: one lp_bounds call per system that reaches
    # bounding, none at the search nodes
    calls = []
    real = simplex.lp_bounds

    def counting(rows, d):
        calls.append(d)
        return real(rows, d)

    monkeypatch.setattr(simplex, "lp_bounds", counting)
    rng = random.Random(17)
    bounded = 0
    for _ in range(20):
        total = rng.randint(8, 12)
        eqs = [((1, 1, 1), total)]
        if rng.random() < 0.5:
            coeffs = tuple(rng.randint(-2, 2) for _ in range(3))
            eqs.append((coeffs, rng.randint(-2, 2)))
        s = sys_of(eqs, nonneg=range(3))
        del calls[:]
        assert solve_all(s) == Finite(box_solutions(s, total))
        par = diophantine_eliminate(s)
        reaches = (
            par is not None
            and par.basis
            and not any(r > 0 and not any(c) for c, r in par.inequalities)
        )
        assert calls == ([len(par.basis)] if reaches else [])
        bounded += bool(reaches)
    assert bounded >= 15


# -- redundancy removal -------------------------------------------------------


def test_remove_redundant_examples():
    assert remove_redundant((((1,), 0), ((1,), -1))) == (((1,), 0),)
    assert remove_redundant((((1,), 0), ((1,), 0))) == (((1,), 0),)
    rows = (((1, 1), 1), ((1, 0), 0), ((0, 1), 0))
    assert remove_redundant(rows) == rows


def test_remove_redundant_preserves_solutions():
    rng = random.Random(11)
    swept = 0
    for _ in range(40):
        d = rng.randint(1, 3)
        rows = [
            (tuple(rng.randint(-3, 3) for _ in range(d)), rng.randint(-6, 2))
            for _ in range(rng.randint(1, 4))
        ]
        # the sum of two rows, loosened: implied by them
        (a, ra), (b, rb) = rng.choice(rows), rng.choice(rows)
        rows.append((tuple(x + y for x, y in zip(a, b)), ra + rb - rng.randint(0, 3)))
        rows = tuple(row for row in rows if any(row[0]))
        kept = remove_redundant(rows)
        assert set(kept) <= set(rows)
        swept += len(kept) < len(rows)
        for t in product(range(-6, 7), repeat=d):
            assert in_polyhedron(rows, t) == in_polyhedron(kept, t)
    assert swept >= 20


def in_polyhedron(rows, t):
    return all(sum(c * v for c, v in zip(coeffs, t)) >= r for coeffs, r in rows)


# -- solve_all ----------------------------------------------------------------


def test_solve_simplex_line():
    s = sys_of([((1, 1), 1)], nonneg=[0, 1])
    assert solve_all(s) == Finite(((0, 1), (1, 0)))


def test_solve_infinite_ray():
    s = sys_of([((1, -1), 0)], nonneg=[0])
    res = solve_all(s)
    assert isinstance(res, Infinite)
    ray = res.ray
    assert any(ray)
    assert sum(c * v for c, v in zip((1, -1), ray)) == 0
    assert ray[0] >= 0


def test_solve_no_integer_solutions():
    assert solve_all(sys_of([((2,), 3)], nonneg=[0])) == Finite(())


def test_solve_fully_determined():
    s = sys_of([((1, 0), 4), ((0, 1), -2)])
    assert solve_all(s) == Finite(((4, -2),))
    s = sys_of([((1, 0), 4), ((0, 1), -2)], nonneg=[1])
    assert solve_all(s) == Finite(())


def test_solve_bounded_interval():
    # -2 <= x <= 3 encoded with slack variables
    s = sys_of([((1, 1, 0), 3), ((1, 0, -1), -2)], nonneg=[1, 2])
    res = solve_all(s)
    assert [x[0] for x in res.solutions] == [-2, -1, 0, 1, 2, 3]


def test_solve_abort_budget():
    s = sys_of([((1, 1, 0), 3), ((1, 0, -1), -2)], nonneg=[1, 2])
    res = solve_all(s, max_nodes=2)
    assert res == Aborted(2)


def test_a_wide_interval_keeps_the_budget():
    # t takes 10^8 + 1 values under either bound; each node makes its
    # children one at a time, so a budget of 10 nodes stops the search
    # after 10 of them, holding a few boxes
    wide = 10**8
    for s in (
        sys_of([((1, 1), wide)], nonneg=[0, 1]),
        LinSystem(("x0", "x1"), (((1, 1), wide),), ((1, 1), wide * wide)),
    ):
        tracemalloc.start()
        try:
            assert solve_all(s, max_nodes=10) == Aborted(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


def test_a_deep_search_leaves_the_recursion_limit_alone():
    # 80 parameters under Σ x_i² <= 1: the search fixes them one below
    # another, 81 nodes deep
    n = 80
    s = LinSystem(tuple(f"x{i}" for i in range(n)), (), ((1,) * n, 1))
    units = [tuple(v * (i == j) for i in range(n)) for j in range(n) for v in (-1, 1)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        got = solve_all(s)
    finally:
        sys.setrecursionlimit(limit)
    assert got == Finite(tuple(sorted([(0,) * n, *units])))


def test_first_is_one_solution_or_none_when_there_is_none():
    # each system as drawn, within a box |x_i| <= 3 (both bounded by LP)
    # and under a norm bound (bounded by its LDL)
    rng = random.Random(67)
    several = Counter()
    for _ in range(300):
        s = random_system(rng)
        n = len(s.variables)
        box = tuple(
            (tuple(v * (i == j) for j in range(n)), 3, None)
            for i in range(n)
            for v in (-1, 1)
        )
        weights = tuple(rng.randint(1, 6) for _ in range(n))
        variants = (
            s,
            LinSystem(s.variables, s.equalities, congruences=s.congruences + box),
            LinSystem(
                s.variables, s.equalities, (weights, rng.randint(0, 12)),
                congruences=s.congruences,
            ),
        )
        for system in variants:
            every = solve_all(system)
            got = solve_all(system, first=True)
            assert type(got) is type(every)
            if not isinstance(every, Finite):
                continue
            assert len(got.solutions) == min(1, len(every.solutions))
            assert set(got.solutions) <= set(every.solutions)
            several[system.norm is None] += len(every.solutions) > 1
    assert several[True] >= 40 and several[False] >= 10, several


def test_solutions_sorted_and_unique():
    s = sys_of([((1, 1, 1), 2)], nonneg=[0, 1, 2])
    res = solve_all(s)
    sols = res.solutions
    assert sols == tuple(sorted(set(sols)))
    assert len(sols) == 6  # weak compositions of 2 into 3 parts


def test_row_permutation_and_negation_invariance():
    rng = random.Random(23)
    for _ in range(25):
        s = random_system(rng, max_vars=3, cmax=4)
        base = solve_all(s)
        eqs = list(s.equalities)
        rng.shuffle(eqs)
        eqs = [
            ((tuple(-c for c in coeffs), -rhs) if rng.random() < 0.5 else (coeffs, rhs))
            for coeffs, rhs in eqs
        ]
        flipped = solve_all(LinSystem(s.variables, tuple(eqs), congruences=s.congruences))
        assert type(base) is type(flipped)
        if isinstance(base, Finite):
            assert base.solutions == flipped.solutions


def test_oracle_random_box():
    rng = random.Random(5)
    compared = 0
    for _ in range(140):
        s = random_system(rng)
        res = solve_all(s)
        if isinstance(res, Finite):
            inside = tuple(x for x in res.solutions if in_box(x, 6))
            assert inside == box_solutions(s, 6)
            if len(inside) == len(res.solutions):
                compared += 1
        elif isinstance(res, Infinite):
            ray = res.ray
            assert any(ray)
            for coeffs, _ in s.equalities:
                assert sum(c * v for c, v in zip(coeffs, ray)) == 0
            assert all(sum(map(mul, c, ray)) >= 0 for c, _, _ in s.congruences)
    assert compared >= 40


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_oracle_property(data):
    # equalities, then congruence rows c·x + a ≡ 0 (mod k), c·x + a >= 0,
    # whose origin is solved from the residual modulo k; half the systems
    # get right sides that make a drawn point x0 a solution
    n = data.draw(st.integers(1, 3), label="nvars")
    m = data.draw(st.integers(1, 2), label="nrows")
    modulus = data.draw(st.integers(1, 12), label="modulus")
    ncong = data.draw(st.integers(1, 3), label="ncong")
    nonneg = frozenset(
        i for i in range(n) if data.draw(st.booleans(), label=f"nn{i}")
    )
    x0 = None
    if data.draw(st.booleans(), label="planted"):
        x0 = [data.draw(st.integers(-3 * (i not in nonneg), 3)) for i in range(n)]

    def row(label):
        c = tuple(data.draw(st.integers(-4, 4), label=f"{label}{j}") for j in range(n))
        if x0 is None:
            return c, data.draw(st.integers(-4, 4), label=f"{label}rhs")
        return c, sum(map(mul, c, x0))

    eqs = tuple(row(f"e{i},") for i in range(m))
    congruences = []
    for i in range(ncong):
        c, v = row(f"k{i},")
        # c·x0 + a = modulus·j, j >= 0, when x0 is planted
        a = v if x0 is None else modulus * data.draw(st.integers(0, 2)) - v
        congruences.append((c, a, None))
    s = LinSystem(
        tuple(f"x{i}" for i in range(n)), eqs,
        modulus=modulus, congruences=sign_rows(n, nonneg, modulus) + tuple(congruences),
    )
    res = solve_all(s)
    if isinstance(res, Finite):
        inside = tuple(x for x in res.solutions if in_box(x, 6))
        assert inside == box_solutions(s, 6)
        assert x0 is None or tuple(x0) in inside


def congruence_system(rng, k):
    """A system over 2 to 4 variables, bounded by nonnegativity and a fixed
    sum or by a norm, with one or two equality rows and congruence rows mod
    k among which some repeat an earlier row mod k, some are implied by
    earlier rows, some are 0 mod k on the equalities' kernel, and some have
    constants that clash mod k with the rows they derive from; half the
    systems have a planted solution x0.  Returns the system and a bound on
    every coordinate of its solutions."""
    n = rng.randint(2, 4)
    x0 = [rng.randint(0, 1) for _ in range(n)]
    planted = rng.random() < 0.5
    total = sum(x0) if planted else rng.randint(0, 3)
    eqs = [((1,) * n, total)]
    if rng.random() < 0.5:
        c = tuple(rng.randint(-3, 3) for _ in range(n))
        eqs.append((c, sum(map(mul, c, x0)) if planted else rng.randint(-3, 3)))
    rows = []  # (c, a) with c·x0 + a ≡ 0 (mod k) when planted
    for _ in range(rng.randint(1, 7)):
        kind = rng.choice(["new", "new", "repeat", "implied", "zero"]) if rows else "new"
        if kind == "new":
            c = [rng.randint(-k, k) for _ in range(n)]
            a = -sum(map(mul, c, x0))
        elif kind == "repeat":
            c, a = rng.choice(rows)
        elif kind == "implied":
            (c1, a1), (c2, a2) = rng.choice(rows), rng.choice(rows)
            t1, t2 = rng.randint(-2, 2), rng.randint(-2, 2)
            c = [t1 * u + t2 * v for u, v in zip(c1, c2)]
            a = t1 * a1 + t2 * a2
        else:
            # a multiple of an equality row: 0 mod k on their kernel
            e, b = rng.choice(eqs)
            t = rng.randint(-2, 2)
            c, a = [t * v for v in e], -t * b
        # the same class mod k; c·x0 moves by a multiple of k
        c = [v + k * rng.randint(-1, 1) for v in c]
        if not planted or rng.random() < 0.05:
            a += rng.randint(1, k - 1)  # clashes mod k
        rows.append((c, a + k * rng.randint(0, 3)))
    variables = tuple(f"x{i}" for i in range(n))
    congruences = tuple((tuple(c), a, None) for c, a in rows)
    if rng.random() < 0.5:
        return LinSystem(
            variables, tuple(eqs),
            modulus=k, congruences=sign_rows(n, range(n), k) + congruences,
        ), total
    return LinSystem(
        variables, tuple(eqs), ((1,) * n, 4),
        modulus=k, congruences=congruences,
    ), 2


@pytest.mark.parametrize("k", [4, 6, 12, 18, 30, 36])
def test_mod_k_reduction_matches_the_slack_column_reduction(monkeypatch, k):
    rng = random.Random(k)
    refused = solved = 0
    for _ in range(100):
        s, bound = congruence_system(rng, k)
        monkeypatch.setattr(intsolve, "_lattice", (None, None))
        par = diophantine_eliminate(s)
        origin, basis = reference_reduce(s)
        # one lattice: the same Hermite form from either basis
        key = (
            k, len(s.variables), tuple(c for c, _ in s.equalities),
            tuple(c for c, _, _ in s.congruences),
            None if s.norm is None else s.norm[0],
        )
        lat = intsolve._reduce(*key)
        hermite = hermite_rows(basis)
        assert hermite_rows(lat.basis) == hermite
        if origin is None:
            assert par is None
            refused += 1
        elif par is None:
            # refused only by a row that is constant on the lattice
            assert any(
                not any(sum(map(mul, c, b)) for b in basis)
                and sum(map(mul, c, origin)) + a < 0
                for c, a, _ in s.congruences
            )
        else:
            assert in_lattice([a - b for a, b in zip(par.origin, origin)], hermite)
        result = solve_all(s)
        assert result == Finite(box_solutions(s, bound))
        solved += bool(result.solutions)
    assert refused >= 20 and solved >= 10, (refused, solved)


def test_a_row_equal_mod_k_to_an_earlier_one_up_to_sign_is_read_once(monkeypatch):
    # rows 1-3 are row 0 negated, row 0 shifted by k and a row 0 mod k: only
    # row 0's class is read, and every row is still tested at the origin
    k, c = 6, (1, 2, 3)
    coeffs = (c, tuple(-v for v in c), tuple(v + k for v in c), (k, 0, -k))
    read = []
    classes = intsolve._classes
    monkeypatch.setattr(intsolve, "_classes", lambda *a: read.append(a) or classes(*a))
    cases = [((1, 5, 7, 0), True), ((1, 4, 7, 0), False), ((1, 5, 7, 3), False)]
    for constants, solvable in cases:
        monkeypatch.setattr(intsolve, "_lattice", (None, None))
        s = LinSystem(
            ("x", "y", "z"), (), modulus=k,
            congruences=tuple((r, a, None) for r, a in zip(coeffs, constants)),
        )
        par = diophantine_eliminate(s)
        assert (par is not None) == solvable
        if solvable:
            values = [sum(map(mul, r, par.origin)) + a for r, a in zip(coeffs, constants)]
            assert not any(v % k for v in values)
    assert len(read) == 3


def lattices_made(monkeypatch, commands):
    """The sha256 over every _Lattice the commands reduce, in order, each
    command from an empty cache: its steps, basis, sparse basis, merged
    rows and LDLᵀ; and the number of reductions and of congruence rows
    reduced."""
    from test_golden import run

    reduce, made, rows = intsolve._reduce, [], []

    def reducing(*key):
        lat = reduce(*key)
        made.append(repr((lat.steps, lat.basis, lat.sparse, lat.rows, lat.gram)))
        rows.append(len(key[3]))
        return lat

    monkeypatch.setattr(intsolve, "_reduce", reducing)
    for command in commands:
        monkeypatch.setattr(intsolve, "_lattice", (None, None))
        run(command)
    return hashlib.sha256("\n".join(made).encode()).hexdigest(), len(made), sum(rows)


def no_shortcuts(orders):
    return [f"zc --no-shortcuts cyclic:{n}" for n in orders]


@pytest.mark.parametrize(
    "commands, digest, reductions",
    [
        (
            "golden",
            "575995489fc7c9afc09d89535f4671102806b0ca97881932f605bbe7d7481386",
            158,
        ),
        (
            "cyclic:2..40",
            "984db19f4ca83657edb665ade323ae5a36e60c52bc86da6b91bd1fc2e5d10604",
            118,
        ),
    ],
)
def test_every_lattice_equals_the_reference(monkeypatch, commands, digest, reductions):
    # the digests of the lattices made before a row's class was read once
    # per residue vector up to sign, the rows over the basis were summed by
    # columns and the LLL tested |μ_kl| > 1/2 before calling `red`
    from test_golden import GOLDEN

    commands = sorted(GOLDEN) if commands == "golden" else no_shortcuts(range(2, 41))
    assert lattices_made(monkeypatch, commands)[:2] == (digest, reductions)


@pytest.mark.parametrize(
    "commands, rows, most_classes",
    [
        (no_shortcuts([18]), 98, 44),
        (no_shortcuts(range(2, 17)), 394, 172),
        (["zc m11", "pq m11", "order 12 m11"], 551, 252),
        (no_shortcuts([72]), 584, 282),
    ],
)
def test_congruence_classes_read(monkeypatch, commands, rows, most_classes):
    # before a row equal mod k to an earlier one, up to sign, was skipped,
    # the class of every congruence row was read
    read = []
    classes = intsolve._classes
    monkeypatch.setattr(intsolve, "_classes", lambda *a: read.append(a) or classes(*a))
    assert lattices_made(monkeypatch, commands)[2] == rows
    assert len(read) <= most_classes, len(read)


# -- interval propagation ------------------------------------------------------


def propagate(rows, d, intervals, work=None):
    """The worklist propagation from `intervals` by the rows in `work` (all
    by default), as the search runs it; None on conflict."""
    prepared, reads_lo, reads_hi = intsolve._prepare(rows, d)
    lo, hi = [a for a, _ in intervals], [b for _, b in intervals]
    if work is None:
        work = range(len(rows))
    if not intsolve._interval_propagate(
        prepared, reads_lo, reads_hi, lo, hi, work, 40 * len(rows)
    ):
        return None
    return list(zip(lo, hi))


def test_worklist_propagation_matches_round_robin():
    # from the root box, and after fixing one parameter of the box reached,
    # with only the rows that read a bound the fixing moved queued, as at a
    # search node
    rng = random.Random(73)
    shrunk = conflicts = 0
    for _ in range(2000):
        d = rng.randint(1, 5)
        rows = [
            (tuple(rng.choice([0, 0, *range(-4, 5)]) for _ in range(d)), rng.randint(-12, 12))
            for _ in range(rng.randint(1, 6))
        ]
        box = []
        for _ in range(d):
            a = rng.randint(-6, 6)
            box.append((a, a + rng.randint(0, 9)))
        want = round_robin_propagate(rows, box)
        assert propagate(rows, d, box) == want
        if want is None:
            conflicts += 1
            continue
        shrunk += want != box
        j = rng.randrange(d)
        val = rng.randint(*want[j])
        fixed = want[:]
        fixed[j] = (val, val)
        # a row with c_j < 0 reads lo[j] only, one with c_j > 0 hi[j] only
        work = [
            i
            for i, (coeffs, _) in enumerate(rows)
            if coeffs[j] < 0 and val > want[j][0] or coeffs[j] > 0 and val < want[j][1]
        ]
        assert propagate(rows, d, fixed, work) == round_robin_propagate(rows, fixed)
    assert shrunk > 300 and conflicts > 300, (shrunk, conflicts)


def test_worklist_propagation_matches_round_robin_on_golden_searches(monkeypatch):
    from test_golden import GOLDEN, run

    prepare, propagate_rows = intsolve._prepare, intsolve._interval_propagate
    # the search's rows as it was given them, beside their prepared form
    given = {}
    calls = []

    def recording(rows, d):
        out = prepare(rows, d)
        given["prepared"], given["rows"] = out[0], rows
        return out

    def checked(prepared, reads_lo, reads_hi, lo, hi, work, cap):
        assert prepared is given["prepared"]
        box = list(zip(lo, hi))
        got = propagate_rows(prepared, reads_lo, reads_hi, lo, hi, work, cap)
        want = round_robin_propagate(given["rows"], box)
        assert got == (want is not None)
        if got:
            assert list(zip(lo, hi)) == want
        calls.append(got)
        return got

    monkeypatch.setattr(intsolve, "_prepare", recording)
    monkeypatch.setattr(intsolve, "_interval_propagate", checked)
    for command in sorted(GOLDEN):
        run(command)
    assert len(calls) > 500 and not all(calls), (len(calls), all(calls))


class SearchCounts:
    """Search nodes and row visits, counted from outside the solver: the
    row list `_prepare` returns counts the reads of its rows, and each
    propagation, one per search node, records how many visits it left
    under its cap."""

    def __init__(self, monkeypatch):
        self.nodes = self.visits = 0
        self.headroom = []
        prepare, propagate_rows = intsolve._prepare, intsolve._interval_propagate
        counts = self

        class Rows(list):
            def __getitem__(self, i):
                counts.visits += 1
                return super().__getitem__(i)

        def counted_prepare(rows, d):
            prepared, *reads = prepare(rows, d)
            return (Rows(prepared), *reads)

        def counted_propagate(*args):
            before = self.visits
            got = propagate_rows(*args)
            self.nodes += 1
            self.headroom.append(args[-1] - (self.visits - before))
            return got

        monkeypatch.setattr(intsolve, "_prepare", counted_prepare)
        monkeypatch.setattr(intsolve, "_interval_propagate", counted_propagate)


@pytest.mark.parametrize(
    "command, nodes, most_visits",
    [
        # 411 row visits when a fixing queued every row that meets t_j
        ("zc m11", 72, 249),
        ("zc --no-shortcuts cyclic:18", 36, 85),
        # 1891 row visits when a fixing queued every row that meets t_j
        ("zc --no-shortcuts cyclic:72", 188, 507),
    ],
)
def test_search_nodes_and_row_visits(monkeypatch, command, nodes, most_visits):
    from test_golden import run

    counts = SearchCounts(monkeypatch)
    run(command)
    assert counts.nodes == nodes
    assert counts.visits <= most_visits, counts.visits


def test_no_golden_search_reaches_the_visit_cap(monkeypatch):
    # below the cap every propagation reaches its fixpoint, which the order
    # of the queue cannot change; the least headroom is 77 visits
    from test_golden import GOLDEN, run

    counts = SearchCounts(monkeypatch)
    for command in sorted(GOLDEN):
        run(command)
    assert counts.nodes > 500 and min(counts.headroom) > 0, min(counts.headroom)
