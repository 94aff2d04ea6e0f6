"""Exact enumeration of integer solutions of linear constraint systems.

A LinSystem is a list of integer equality rows over declared variables, some
of which are flagged nonnegative.  The pipeline:

  1. eliminate the equalities over Z (column reduction to a Hermite-style
     form with a unimodular transform), writing every integer solution as
     origin + integer combination of lattice basis vectors;
  2. push the nonnegativity constraints through that parametrization,
     giving an inequality system over the free integer parameters;
  3. bound each parameter exactly with a rational simplex (Bland's rule,
     fraction arithmetic throughout);
  4. enumerate by depth-first fixing of parameters, tightening intervals by
     integer propagation and re-solved LP bounds.

Everything is exact; there is no floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

DEFAULT_MAX_NODES = 10_000_000

# redundancy elimination pays off on large systems and costs on small ones;
# below this many inequality rows it defaults to off
REDUNDANCY_ROW_THRESHOLD = 40

# branch directly once an interval is this small; LP re-tightening first
# only for wider intervals
LP_RETIGHTEN_RANGE = 4


@dataclass(frozen=True)
class LinSystem:
    """Integer equalities Σ c·x = rhs plus x_i ≥ 0 for i in nonneg."""

    variables: tuple
    equalities: tuple[tuple[tuple[int, ...], int], ...]
    nonneg: frozenset[int]

    def __post_init__(self):
        n = len(self.variables)
        for coeffs, _ in self.equalities:
            if len(coeffs) != n:
                raise ValueError("equality row arity does not match variables")
        if any(not 0 <= i < n for i in self.nonneg):
            raise ValueError("nonneg index out of range")

    def check_solution(self, x) -> bool:
        return all(
            sum(c * v for c, v in zip(coeffs, x)) == rhs
            for coeffs, rhs in self.equalities
        ) and all(x[i] >= 0 for i in self.nonneg)


@dataclass(frozen=True)
class Finite:
    solutions: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Infinite:
    ray: tuple[int, ...]


@dataclass(frozen=True)
class Aborted:
    nodes: int


@dataclass(frozen=True)
class Optimal:
    value: Fraction
    point: tuple[Fraction, ...]


@dataclass(frozen=True)
class Unbounded:
    ray: tuple[Fraction, ...]


@dataclass(frozen=True)
class Infeasible:
    pass


@dataclass(frozen=True)
class Parametrization:
    """x = origin + Σ t_j · basis[j], t integer; inequalities over t."""

    origin: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    inequalities: tuple[tuple[tuple[int, ...], int], ...]


def _ceil_div(a: int, b: int) -> int:
    # b > 0
    return -((-a) // b)


# -- integer elimination ---------------------------------------------------


def diophantine_eliminate(sys: LinSystem) -> Parametrization | None:
    """Parametrize all integer solutions of the equality rows.

    Returns None when the equalities have no integer solution.  Nonnegativity
    turns into the returned inequality rows (coeffs·t >= rhs), normalized by
    integer rounding, which is exact because the parameters are integers.
    """
    n = len(sys.variables)
    m = len(sys.equalities)
    acols = [[sys.equalities[r][0][j] for r in range(m)] for j in range(n)]
    ucols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    rhs = [r for _, r in sys.equalities]

    def negate(j):
        acols[j] = [-v for v in acols[j]]
        ucols[j] = [-v for v in ucols[j]]

    def axpy(j, j0, q):
        # column_j -= q * column_j0
        aj, a0 = acols[j], acols[j0]
        for i in range(m):
            if a0[i]:
                aj[i] -= q * a0[i]
        uj, u0 = ucols[j], ucols[j0]
        for i in range(n):
            if u0[i]:
                uj[i] -= q * u0[i]

    avail = list(range(n))
    pivots: list[tuple[int, int]] = []
    for r in range(m):
        while True:
            live = [j for j in avail if acols[j][r] != 0]
            if len(live) <= 1:
                break
            j0 = min(live, key=lambda j: (abs(acols[j][r]), j))
            if acols[j0][r] < 0:
                negate(j0)
            p = acols[j0][r]
            for j in live:
                if j != j0:
                    q = acols[j][r] // p
                    if q:
                        axpy(j, j0, q)
        if live:
            j0 = live[0]
            if acols[j0][r] < 0:
                negate(j0)
            pivots.append((r, j0))
            avail.remove(j0)

    # forward substitution down the reduced rows
    y = [0] * n
    piv_col = dict(pivots)
    solved: list[int] = []
    for r in range(m):
        acc = rhs[r] - sum(acols[j][r] * y[j] for j in solved if acols[j][r])
        j0 = piv_col.get(r)
        if j0 is None:
            if acc != 0:
                return None
        else:
            p = acols[j0][r]
            if acc % p:
                return None
            y[j0] = acc // p
            solved.append(j0)

    origin = tuple(
        sum(ucols[j][i] * y[j] for j in solved if y[j]) for i in range(n)
    )
    basis = tuple(tuple(ucols[j]) for j in avail)

    by_coeffs: dict[tuple[int, ...], int] = {}
    for i in sorted(sys.nonneg):
        coeffs = tuple(col[i] for col in basis)
        bound = -origin[i]
        g = 0
        for c in coeffs:
            g = gcd(g, c)
        if g > 1:
            coeffs = tuple(c // g for c in coeffs)
            bound = _ceil_div(bound, g)
        if any(coeffs) or bound > 0:
            prev = by_coeffs.get(coeffs)
            if prev is None or bound > prev:
                by_coeffs[coeffs] = bound
    inequalities = tuple(sorted(by_coeffs.items()))
    return Parametrization(origin, basis, inequalities)


# -- exact simplex ---------------------------------------------------------


def _run_simplex(tableau, b, basis, cbar, value, ncols):
    """Maximize with Bland's rule on an explicit tableau.  Mutates arguments.

    Returns ("optimal", value) or ("unbounded", entering column).
    """
    m = len(tableau)
    while True:
        enter = next((j for j in range(ncols) if cbar[j] > 0), None)
        if enter is None:
            return "optimal", value
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = b[i] / a
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            return "unbounded", enter
        _, leave = best
        piv = tableau[leave][enter]
        if piv != 1:
            tableau[leave] = [v / piv for v in tableau[leave]]
            b[leave] /= piv
        prow = tableau[leave]
        pb = b[leave]
        for i in range(m):
            if i != leave:
                f = tableau[i][enter]
                if f:
                    tableau[i] = [v - f * p for v, p in zip(tableau[i], prow)]
                    b[i] -= f * pb
        f = cbar[enter]
        if f:
            for j in range(ncols):
                if prow[j]:
                    cbar[j] -= f * prow[j]
            value += f * pb
        basis[leave] = enter


def simplex_opt(inequalities, objective, maximize: bool = True):
    """Exact LP over free rational variables t: rows are coeffs·t >= rhs.

    Returns Optimal(value, point), Unbounded(ray), or Infeasible().  The
    point/ray live in t-space; the ray certifies unboundedness of the
    requested direction.
    """
    d = len(objective)
    obj = [Fraction(c) for c in objective]
    if not maximize:
        obj = [-c for c in obj]

    # split free vars t = u - v; one surplus var per row; artificials only
    # for rows whose right side stays positive after sign normalization
    prepared = []
    nart = 0
    for coeffs, r in inequalities:
        a = [Fraction(c) for c in coeffs]
        r = Fraction(r)
        if r > 0:
            prepared.append((a, Fraction(-1), r, True))
            nart += 1
        else:
            prepared.append(([-c for c in a], Fraction(1), -r, False))
    m = len(prepared)
    base = 2 * d + m
    ncols = base + nart

    tableau = []
    b = []
    basis = []
    art = base
    for i, (a, sgn, rv, needs_art) in enumerate(prepared):
        row = [Fraction(0)] * ncols
        for j in range(d):
            row[j] = a[j]
            row[d + j] = -a[j]
        row[2 * d + i] = sgn
        if needs_art:
            row[art] = Fraction(1)
            basis.append(art)
            art += 1
        else:
            basis.append(2 * d + i)
        tableau.append(row)
        b.append(rv)

    if nart:
        # phase 1: maximize -(sum of artificials)
        cbar = [Fraction(0)] * ncols
        value = Fraction(0)
        for i in range(m):
            if basis[i] >= base:
                for j in range(ncols):
                    cbar[j] += tableau[i][j]
                value -= b[i]
        for j in range(base, ncols):
            cbar[j] -= 1
        status, value = _run_simplex(tableau, b, basis, cbar, value, ncols)
        assert status == "optimal", "phase 1 objective is bounded by 0"
        if value != 0:
            return Infeasible()
        # drive leftover artificials out or drop their (redundant) rows
        keep = []
        for i in range(m):
            if basis[i] >= base:
                piv = next((j for j in range(base) if tableau[i][j] != 0), None)
                if piv is None:
                    continue
                f = tableau[i][piv]
                tableau[i] = [v / f for v in tableau[i]]
                b[i] /= f
                for i2 in range(m):
                    if i2 != i and tableau[i2][piv]:
                        f2 = tableau[i2][piv]
                        tableau[i2] = [
                            v - f2 * p for v, p in zip(tableau[i2], tableau[i])
                        ]
                        b[i2] -= f2 * b[i]
                basis[i] = piv
            keep.append(i)
        if len(keep) != m:
            tableau = [tableau[i] for i in keep]
            b = [b[i] for i in keep]
            basis = [basis[i] for i in keep]
            m = len(keep)
        tableau = [row[:base] for row in tableau]
    ncols = base

    cost = [Fraction(0)] * ncols
    for j in range(d):
        cost[j] = obj[j]
        cost[d + j] = -obj[j]
    cbar = cost[:]
    value = Fraction(0)
    for i in range(m):
        cb = cost[basis[i]]
        if cb:
            for j in range(ncols):
                if tableau[i][j]:
                    cbar[j] -= cb * tableau[i][j]
            value += cb * b[i]
    status, out = _run_simplex(tableau, b, basis, cbar, value, ncols)

    if status == "unbounded":
        enter = out
        direction = [Fraction(0)] * ncols
        direction[enter] = Fraction(1)
        for i in range(m):
            if tableau[i][enter]:
                direction[basis[i]] = -tableau[i][enter]
        ray = tuple(direction[j] - direction[d + j] for j in range(d))
        for coeffs, _ in inequalities:
            drift = sum(Fraction(c) * rj for c, rj in zip(coeffs, ray))
            assert drift >= 0, "unbounded ray must stay feasible"
        return Unbounded(ray)

    value = out
    xs = {}
    for i, bi in enumerate(basis):
        xs[bi] = b[i]
    point = tuple(
        xs.get(j, Fraction(0)) - xs.get(d + j, Fraction(0)) for j in range(d)
    )
    for coeffs, r in inequalities:
        total = sum(Fraction(c) * p for c, p in zip(coeffs, point))
        assert total >= Fraction(r), "optimal point must satisfy all rows"
    return Optimal(value if maximize else -value, point)


# -- redundancy elimination --------------------------------------------------


def remove_redundant(inequalities):
    """Drop duplicate rows and rows implied by the remaining ones (LP test).

    Never changes the solution set of the system, over rationals or
    integers.
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
            res = simplex_opt(rest, coeffs, maximize=False)
            if isinstance(res, Optimal) and res.value >= r:
                rows.pop(i)
                continue
        i += 1
    return tuple(rows)


# -- enumeration -------------------------------------------------------------


class _Budget(Exception):
    pass


def _interval_propagate(rows, intervals):
    """Shrink integer intervals using each row; None on conflict."""
    d = len(intervals)
    for _ in range(40):
        changed = False
        for coeffs, r in rows:
            total_max = 0
            for j in range(d):
                c = coeffs[j]
                if c > 0:
                    total_max += c * intervals[j][1]
                elif c < 0:
                    total_max += c * intervals[j][0]
            if total_max < r:
                return None
            for j in range(d):
                c = coeffs[j]
                if not c:
                    continue
                lo, hi = intervals[j]
                part = total_max - (c * hi if c > 0 else c * lo)
                bound = r - part
                if c > 0:
                    nlo = _ceil_div(bound, c)
                    if nlo > lo:
                        if nlo > hi:
                            return None
                        intervals[j] = (nlo, hi)
                        changed = True
                else:
                    nhi = bound // c
                    if nhi < hi:
                        if nhi < lo:
                            return None
                        intervals[j] = (lo, nhi)
                        changed = True
        if not changed:
            return intervals
    return intervals


def _substituted_rows(rows, fixed):
    """Rows over the unfixed parameters after substituting fixed values."""
    free = [j for j, v in enumerate(fixed) if v is None]
    out = []
    for coeffs, r in rows:
        rr = r - sum(
            coeffs[j] * fixed[j] for j in range(len(fixed)) if fixed[j] is not None
        )
        cc = tuple(coeffs[j] for j in free)
        if any(cc):
            out.append((cc, rr))
        elif rr > 0:
            return free, None  # constant row violated
    return free, out


def _integer_bounds(rows, j, d):
    """Exact integer floor/ceil bounds of parameter j over the relaxation."""
    objective = tuple(1 if i == j else 0 for i in range(d))
    hi = simplex_opt(rows, objective, maximize=True)
    if isinstance(hi, Infeasible):
        return "infeasible"
    lo = simplex_opt(rows, objective, maximize=False)
    if isinstance(hi, Unbounded) or isinstance(lo, Unbounded):
        return hi if isinstance(hi, Unbounded) else lo
    return math.ceil(lo.value), math.floor(hi.value)


def _scale_ray(ray):
    denom = 1
    for v in ray:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in ray]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def solve_all(
    sys: LinSystem,
    max_nodes: int = DEFAULT_MAX_NODES,
    redundancy: bool | None = None,
):
    """All integer solutions of the system.

    Finite(solutions) with a duplicate-free, lexicographically sorted tuple;
    Infinite(ray) when the relaxation is unbounded along an integer lattice
    direction; Aborted(nodes) when the node budget runs out.  Every returned
    solution is re-substituted into the original rows before being reported.
    """
    par = diophantine_eliminate(sys)
    if par is None:
        return Finite(())
    d = len(par.basis)
    rows = list(par.inequalities)

    for coeffs, r in rows:
        if not any(coeffs) and r > 0:
            return Finite(())
    rows = [row for row in rows if any(row[0])]

    if d == 0:
        sol = par.origin
        if sys.check_solution(sol):
            return Finite((sol,))
        return Finite(())

    if redundancy is None:
        redundancy = len(rows) > REDUNDANCY_ROW_THRESHOLD
    if redundancy and rows:
        rows = list(remove_redundant(tuple(rows)))

    intervals = []
    for j in range(d):
        got = _integer_bounds(rows, j, d)
        if got == "infeasible":
            return Finite(())
        if isinstance(got, Unbounded):
            ray_t = got.ray
            ray_x = tuple(
                sum(ray_t[j2] * par.basis[j2][i] for j2 in range(d))
                for i in range(len(sys.variables))
            )
            return Infinite(_scale_ray(ray_x))
        lo, hi = got
        if lo > hi:
            return Finite(())
        intervals.append((lo, hi))

    solutions = []
    nodes = 0

    def leaf(fixed):
        t = fixed
        for coeffs, r in rows:
            if sum(c * v for c, v in zip(coeffs, t)) < r:
                return
        x = tuple(
            par.origin[i] + sum(t[j] * par.basis[j][i] for j in range(d))
            for i in range(len(sys.variables))
        )
        assert sys.check_solution(x), "enumerated point must satisfy the system"
        solutions.append(x)

    def dfs(fixed, intervals):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise _Budget
        intervals = _interval_propagate(rows, intervals)
        if intervals is None:
            return
        free = [j for j in range(d) if fixed[j] is None]
        if not free:
            leaf(fixed)
            return
        j = min(free, key=lambda j2: (intervals[j2][1] - intervals[j2][0], j2))
        lo, hi = intervals[j]
        if hi - lo > LP_RETIGHTEN_RANGE:
            free_idx, sub = _substituted_rows(rows, fixed)
            if sub is None:
                return
            pos = free_idx.index(j)
            got = _integer_bounds(sub, pos, len(free_idx))
            if got == "infeasible":
                return
            if not isinstance(got, Unbounded):
                lo = max(lo, got[0])
                hi = min(hi, got[1])
            if lo > hi:
                return
        for val in range(lo, hi + 1):
            nfixed = fixed[:]
            nfixed[j] = val
            nintervals = intervals[:]
            nintervals[j] = (val, val)
            dfs(nfixed, nintervals)

    try:
        dfs([None] * d, intervals)
    except _Budget:
        return Aborted(nodes - 1)

    return Finite(tuple(sorted(set(solutions))))
