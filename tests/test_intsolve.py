import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    box_solutions,
    in_box,
    random_system,
    reference_simplex,
    round_robin_propagate,
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
        tuple(f"x{i}" for i in range(nvars)), tuple(eqs), frozenset(nonneg)
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
    real = intsolve.lp_bounds

    def counting(rows, d):
        calls.append(d)
        return real(rows, d)

    monkeypatch.setattr(intsolve, "lp_bounds", counting)
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
        flipped = solve_all(LinSystem(s.variables, tuple(eqs), s.nonneg))
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
            assert all(ray[i] >= 0 for i in s.nonneg)
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
        tuple(f"x{i}" for i in range(n)), eqs, nonneg,
        modulus=modulus, congruences=tuple(congruences),
    )
    res = solve_all(s)
    if isinstance(res, Finite):
        inside = tuple(x for x in res.solutions if in_box(x, 6))
        assert inside == box_solutions(s, 6)
        assert x0 is None or tuple(x0) in inside


# -- interval propagation ------------------------------------------------------


def propagate(rows, d, intervals, work=None):
    """The worklist propagation from `intervals` by the rows in `work` (all
    by default), as the search runs it; None on conflict."""
    prepared, meets = intsolve._prepare(rows, d)
    lo, hi = [a for a, _ in intervals], [b for _, b in intervals]
    if work is None:
        work = range(len(rows))
    if not intsolve._interval_propagate(prepared, meets, lo, hi, work, 40 * len(rows)):
        return None
    return list(zip(lo, hi))


def test_worklist_propagation_matches_round_robin():
    # from the root box, and after fixing one parameter of the box reached,
    # with only the rows that meet it queued, as at a search node
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
        prepared, meets = intsolve._prepare(rows, d)
        want = round_robin_propagate(prepared, box)
        assert propagate(rows, d, box) == want
        if want is None:
            conflicts += 1
            continue
        shrunk += want != box
        j = rng.randrange(d)
        val = rng.randint(*want[j])
        fixed = want[:]
        fixed[j] = (val, val)
        assert propagate(rows, d, fixed, meets[j]) == round_robin_propagate(prepared, fixed)
    assert shrunk > 300 and conflicts > 300, (shrunk, conflicts)


def test_worklist_propagation_matches_round_robin_on_golden_searches(monkeypatch):
    from test_golden import GOLDEN, run

    real = intsolve._interval_propagate
    calls = []

    def checked(rows, meets, lo, hi, work, cap):
        box = list(zip(lo, hi))
        got = real(rows, meets, lo, hi, work, cap)
        want = round_robin_propagate(rows, box)
        assert got == (want is not None)
        if got:
            assert list(zip(lo, hi)) == want
        calls.append(got)
        return got

    monkeypatch.setattr(intsolve, "_interval_propagate", checked)
    for command in sorted(GOLDEN):
        run(command)
    assert len(calls) > 500 and not all(calls), (len(calls), all(calls))
