"""The LP layer: the fraction-free simplex behind `intsolve.simplex_opt`,
its result records, the bounding of a system's parameters by LP
(`lp_bounds`) and the redundancy sweep (`remove_redundant`).

Only a system without a norm bound reaches it, which among HeLP systems
means one over an incomplete character table, so `intsolve` imports this
module at its first LP and a run over complete tables never compiles it.
`intsolve.simplex_opt` stays the one LP entry: the functions here look it
up in `intsolve` at each call, so that a wrapper put there after this
module loaded (`bench/tracer.py` puts one) sees every LP solved here.  The
names moved here from `intsolve` still resolve there.
"""

from __future__ import annotations

import math
from math import gcd

from . import intsolve
from .records import Record


class Optimal(Record):
    __slots__ = ("value", "point")


class Unbounded(Record):
    __slots__ = ("ray",)


class Infeasible(Record):
    __slots__ = ()


def _bareiss_row(row, prow, p, D, e):
    """(row·p - row[e]·prow) / D, which divides exactly."""
    f = row[e]
    if not f:
        return row if p == D else [v * p // D for v in row]
    return [(v * p - f * w) // D for v, w in zip(row, prow)]


class _Tableau:
    """Fraction-free simplex tableau for rows coeffs·t >= rhs, t free.

    Columns: t = u - v with u, v >= 0 (2d columns), one surplus per row, and
    during phase 1 one artificial per row whose right side is positive; the
    last entry of each row is its right side.  Every stored entry is D times
    the entry of the usual tableau, where D > 0 is the determinant of the
    basis, so all entries are integer minors of the input and each pivot
    divides exactly (Bareiss 1968).  Phase 1 runs once, in the constructor;
    `maximize` then re-optimizes any objective from the current feasible
    basis with Bland's rule.
    """

    def __init__(self, inequalities, d: int):
        self.inequalities = inequalities
        self.d = d
        m = len(inequalities)
        base = 2 * d + m
        nart = sum(1 for _, r in inequalities if r > 0)
        self.ncols = base + nart
        self.rows = []
        self.basis = []
        self.D = 1
        art = base
        for i, (coeffs, r) in enumerate(inequalities):
            row = [0] * (self.ncols + 1)
            sgn = 1 if r > 0 else -1
            for j, c in enumerate(coeffs):
                row[j] = sgn * c
                row[d + j] = -sgn * c
            row[2 * d + i] = -sgn
            row[-1] = sgn * r
            if r > 0:
                row[art] = 1
                self.basis.append(art)
                art += 1
            else:
                self.basis.append(2 * d + i)
            self.rows.append(row)
        self.feasible = not nart or self._phase1(base)
        if nart:
            self.ncols = base
            self.rows = [row[:base] + row[-1:] for row in self.rows]

    def _phase1(self, base: int) -> bool:
        """Maximize -(sum of artificials); on success drive the artificials
        out of the basis.  Every row has its own surplus column, so the base
        columns have full row rank, which pivoting keeps: no row is zero
        over them."""
        obj = self._objective({j: -1 for j in range(base, self.ncols)})
        unbounded = self._run(obj)
        assert unbounded is None, "phase 1 objective is bounded by 0"
        if obj[-1]:
            return False
        for i, k in enumerate(self.basis):
            if k >= base:
                row = self.rows[i]
                piv = next(j for j in range(base) if row[j])
                if row[piv] < 0:
                    # the row reads 0 = ..., so it may change sign
                    self.rows[i] = [-v for v in row]
                self._pivot(i, piv, None)
        return True

    def _objective(self, cost: dict[int, int]) -> list[int]:
        """Reduced costs D·c_j - Σ_i c_B(i)·T[i][j] on the current basis; the
        last entry is minus D times the objective value."""
        obj = [0] * (self.ncols + 1)
        for j, c in cost.items():
            obj[j] = c * self.D
        for i, k in enumerate(self.basis):
            c = cost.get(k)
            if c:
                obj = [o - c * v for o, v in zip(obj, self.rows[i])]
        return obj

    def _pivot(self, r: int, e: int, obj) -> None:
        prow = self.rows[r]
        p, D = prow[e], self.D
        for i, row in enumerate(self.rows):
            if i != r:
                self.rows[i] = _bareiss_row(row, prow, p, D, e)
        if obj is not None:
            obj[:] = _bareiss_row(obj, prow, p, D, e)
        self.basis[r] = e
        self.D = p

    def _run(self, obj):
        """Bland's rule to the optimum (None) or to an entering column with
        no leaving row (returned)."""
        rows, basis = self.rows, self.basis
        while True:
            e = next((j for j in range(self.ncols) if obj[j] > 0), None)
            if e is None:
                return None
            leave = None
            for i, row in enumerate(rows):
                a = row[e]
                if a > 0:
                    if leave is None:
                        leave, lb, la = i, row[-1], a
                        continue
                    # b_i / a_i against b_leave / a_leave, both a > 0
                    lhs, rhs = row[-1] * la, lb * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, lb, la = i, row[-1], a
            if leave is None:
                return e
            self._pivot(leave, e, obj)

    def maximize(self, cost: dict[int, int]):
        """Maximize Σ cost[j]·column_j from the current basis.

        Returns (value numerator over self.D, point numerators) at the
        optimum, or (None, ray) with an integer ray in t-space along which
        the objective grows without bound.
        """
        d = self.d
        obj = self._objective(cost)
        e = self._run(obj)
        if e is not None:
            direction = {e: self.D}
            for i, row in enumerate(self.rows):
                if row[e]:
                    direction[self.basis[i]] = -row[e]
            ray = tuple(
                direction.get(j, 0) - direction.get(d + j, 0) for j in range(d)
            )
            for coeffs, _ in self.inequalities:
                drift = sum(c * v for c, v in zip(coeffs, ray))
                assert drift >= 0, "unbounded ray must stay feasible"
            return None, ray
        xs = {k: row[-1] for k, row in zip(self.basis, self.rows)}
        point = tuple(xs.get(j, 0) - xs.get(d + j, 0) for j in range(d))
        for coeffs, r in self.inequalities:
            total = sum(c * v for c, v in zip(coeffs, point))
            assert total >= r * self.D, "optimal point must satisfy all rows"
        return -obj[-1], point


def _integer_row(coeffs, r):
    """The row scaled by a positive integer to integer entries."""
    scale = math.lcm(r.denominator, *(c.denominator for c in coeffs))
    if scale == 1:
        return tuple(int(c) for c in coeffs), int(r)
    return tuple(int(c * scale) for c in coeffs), int(r * scale)


# The row set simplex_opt solved last, as (d, rows), and its tableau, left
# feasible at the last optimum.  A run of LPs over one row set, such as
# lp_bounds over a system's parameters, thus does phase 1 once and
# re-optimizes each objective from the previous optimum.
_warm = (None, None)


def _feasible_tableau(inequalities, d: int) -> _Tableau:
    global _warm
    key = (d, tuple(inequalities))
    if _warm[0] != key:
        rows = tuple(_integer_row(c, r) for c, r in inequalities)
        _warm = (key, _Tableau(rows, d))
    return _warm[1]


# -- LP bounding ------------------------------------------------------------------


def lp_bounds(rows, d: int):
    """Integer bounds of each of the d free parameters over the LP
    relaxation of `rows` (coeffs·t >= rhs): a maximizing and a minimizing
    `simplex_opt` per parameter, all from one phase 1.

    Returns [(lo, hi), ...], one interval per parameter; None when the
    relaxation is infeasible or an interval holds no integer; or the
    Unbounded result of the first unbounded parameter.
    """
    intervals = []
    for j in range(d):
        objective = tuple(1 if i == j else 0 for i in range(d))
        hi = intsolve.simplex_opt(rows, objective)
        if isinstance(hi, Infeasible):
            return None
        lo = intsolve.simplex_opt(rows, objective, maximize=False)
        if isinstance(hi, Unbounded) or isinstance(lo, Unbounded):
            return hi if isinstance(hi, Unbounded) else lo
        lo, hi = math.ceil(lo.value), math.floor(hi.value)
        if lo > hi:
            return None
        intervals.append((lo, hi))
    return intervals


def _scale_ray(ray):
    """The primitive integer vector on the rational ray."""
    denom = math.lcm(*(v.denominator for v in ray))
    ints = [int(v * denom) for v in ray]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


# -- redundancy elimination --------------------------------------------------


def remove_redundant(inequalities):
    """Drop duplicate rows and rows implied by the remaining ones (LP test).

    Never changes the solution set of the system, over rationals or
    integers.  `solve_all` does not call it: on every system measured, one
    LP per row cost more than the smaller row set saved.
    """
    seen = set()
    rows = []
    for row in inequalities:
        if row not in seen:
            seen.add(row)
            rows.append(row)
    i = 0
    while i < len(rows):
        coeffs, r = rows[i]
        rest = rows[:i] + rows[i + 1:]
        if rest:
            res = intsolve.simplex_opt(rest, coeffs, maximize=False)
            if isinstance(res, Optimal) and res.value >= r:
                rows.pop(i)
                continue
        i += 1
    return tuple(rows)
