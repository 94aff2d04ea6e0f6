"""Exact enumeration of integer solutions of linear constraint systems.

A LinSystem is a list of integer equality rows over declared variables, some
of which are flagged nonnegative, and optionally a norm bound
sum_i w_i * x_i^2 <= R with integer weights w_i >= 0.  The pipeline:

  1. eliminate the equalities over Z (column reduction to a Hermite-style
     form with a unimodular transform), writing every integer solution as
     origin + integer combination of lattice basis vectors;
  2. push the nonnegativity constraints through that parametrization,
     giving an inequality system over the free integer parameters;
  3. bound the parameters.  A system with a norm bound (every HeLP system
     over a complete character table, see the constraints module) is
     bounded by its ellipsoid Q(t) <= R, which must be positive definite
     on the lattice: a fraction-free LDL^T of its Gram matrix (Bareiss)
     gives the box around its centre and, at each search node, the exact
     interval of the next parameter in LDL order (Fincke and Pohst 1985).
     A system without one is bounded per parameter by a fraction-free
     simplex (Bland's rule on an integer tableau with one common
     denominator): one phase 1 per system, then each bound re-optimized
     from the feasible basis; only such a system can be Infinite;
  4. enumerate by depth-first fixing of parameters inside those bounds,
     pruning by integer interval propagation over the inequality rows.

Everything is exact; there is no floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, isqrt
from operator import mul as _mul

from .records import Record, set_field

DEFAULT_MAX_NODES = 10_000_000


class LinSystem(Record):
    """Integer equalities Σ c·x = rhs plus x_i ≥ 0 for i in nonneg, and
    Σ w_i·x_i² ≤ R when norm = (w, R) is given."""

    __slots__ = ("variables", "equalities", "nonneg", "norm")

    def __init__(
        self,
        variables: tuple,
        equalities: tuple[tuple[tuple[int, ...], int], ...],
        nonneg: frozenset[int],
        norm: tuple[tuple[int, ...], int] | None = None,
    ):
        n = len(variables)
        for coeffs, _ in equalities:
            if len(coeffs) != n:
                raise ValueError("equality row arity does not match variables")
        if any(not 0 <= i < n for i in nonneg):
            raise ValueError("nonneg index out of range")
        if norm is not None and (len(norm[0]) != n or any(w < 0 for w in norm[0])):
            raise ValueError("norm needs one nonnegative weight per variable")
        set_field(self, "variables", variables)
        set_field(self, "equalities", equalities)
        set_field(self, "nonneg", nonneg)
        set_field(self, "norm", norm)

    def check_solution(self, x) -> bool:
        return (
            all(
                sum(c * v for c, v in zip(coeffs, x)) == rhs
                for coeffs, rhs in self.equalities
            )
            and all(x[i] >= 0 for i in self.nonneg)
            and (
                self.norm is None
                or sum(w * v * v for w, v in zip(self.norm[0], x)) <= self.norm[1]
            )
        )


class Finite(Record):
    __slots__ = ("solutions",)

    def __init__(self, solutions: tuple[tuple[int, ...], ...]):
        set_field(self, "solutions", solutions)


class Infinite(Record):
    __slots__ = ("ray",)

    def __init__(self, ray: tuple[int, ...]):
        set_field(self, "ray", ray)


class Aborted(Record):
    __slots__ = ("nodes",)

    def __init__(self, nodes: int):
        set_field(self, "nodes", nodes)


class Optimal(Record):
    __slots__ = ("value", "point")

    def __init__(self, value: Fraction, point: tuple[Fraction, ...]):
        set_field(self, "value", value)
        set_field(self, "point", point)


class Unbounded(Record):
    __slots__ = ("ray",)

    def __init__(self, ray: tuple[Fraction, ...]):
        set_field(self, "ray", ray)


class Infeasible(Record):
    __slots__ = ()


class Parametrization(Record):
    """x = origin + Σ t_j · basis[j], t integer; inequalities over t."""

    __slots__ = ("origin", "basis", "inequalities")

    def __init__(
        self,
        origin: tuple[int, ...],
        basis: tuple[tuple[int, ...], ...],
        inequalities: tuple[tuple[tuple[int, ...], int], ...],
    ):
        set_field(self, "origin", origin)
        set_field(self, "basis", basis)
        set_field(self, "inequalities", inequalities)


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
        out of the basis or drop their rows, which are then redundant."""
        obj = self._objective({j: -1 for j in range(base, self.ncols)})
        unbounded = self._run(obj)
        assert unbounded is None, "phase 1 objective is bounded by 0"
        if obj[-1]:
            return False
        keep = []
        for i, k in enumerate(self.basis):
            if k >= base:
                row = self.rows[i]
                piv = next((j for j in range(base) if row[j]), None)
                if piv is None:
                    continue
                if row[piv] < 0:
                    # the row reads 0 = ..., so it may change sign
                    self.rows[i] = [-v for v in row]
                self._pivot(i, piv, None)
            keep.append(i)
        if len(keep) != len(self.rows):
            self.rows = [self.rows[i] for i in keep]
            self.basis = [self.basis[i] for i in keep]
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


def _bareiss_row(row, prow, p, D, e):
    """(row·p - row[e]·prow) / D, which divides exactly."""
    f = row[e]
    if not f:
        return row if p == D else [v * p // D for v in row]
    return [(v * p - f * w) // D for v, w in zip(row, prow)]


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


def simplex_opt(inequalities, objective, maximize: bool = True):
    """Exact LP over free rational variables t: rows are coeffs·t >= rhs.

    Returns Optimal(value, point), Unbounded(ray), or Infeasible().  The
    point/ray live in t-space; the ray certifies unboundedness of the
    requested direction.  Consecutive calls on equal rows share one
    tableau and one phase 1.
    """
    d = len(objective)
    tab = _feasible_tableau(inequalities, d)
    if not tab.feasible:
        return Infeasible()
    scale = math.lcm(*(c.denominator for c in objective))
    sign = 1 if maximize else -1
    cost = {}
    for j, c in enumerate(objective):
        if c:
            cost[j] = int(sign * scale * c)
            cost[d + j] = -cost[j]
    value, got = tab.maximize(cost)
    if value is None:
        return Unbounded(tuple(Fraction(v, tab.D) for v in got))
    return Optimal(
        Fraction(sign * value, tab.D * scale),
        tuple(Fraction(v, tab.D) for v in got),
    )


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
        hi = simplex_opt(rows, objective)
        if isinstance(hi, Infeasible):
            return None
        lo = simplex_opt(rows, objective, maximize=False)
        if isinstance(hi, Unbounded) or isinstance(lo, Unbounded):
            return hi if isinstance(hi, Unbounded) else lo
        lo, hi = math.ceil(lo.value), math.floor(hi.value)
        if lo > hi:
            return None
        intervals.append((lo, hi))
    return intervals


# -- norm bound ----------------------------------------------------------------


def _ellipsoid(par: Parametrization, norm):
    """The norm bound Σ w_i·x_i² ≤ R over x = origin + Σ t_j·basis[j]:
    Q(t) = tᵀGt + 2hᵀt + c0 ≤ R, with G positive definite.

    One fraction-free Gauss–Jordan elimination of [G | I | h] (Bareiss)
    has the leading principal minors D[j + 1] of G as its pivots, takes
    the forward row U[j] = (D[j + 1], ...) over t_j, ..., t_{d-1} and the
    constant as row j becomes the pivot row, and ends at
    [Δ·I | adj G | adj G·h] with Δ = det G.  Then

        Q(t) = Σ_j L_j(t)² / (D[j]·D[j + 1]) + c0 − hᵀ·adj G·h / Δ,
        L_j(t) = U[j] · (t_j, ..., t_{d-1}, 1),

    and with N = Δ·(R − c0) + hᵀ·adj G·h, Δ times the slack at the centre
    −adj G·h / Δ, every t_j lies within √(N·(adj G)_jj) / Δ of the centre.

    Returns (intervals, D, U, N), the intervals being that box, or None when
    the ellipsoid holds no integer point.
    """
    d = len(par.basis)
    weighted = [i for i, w in enumerate(norm[0]) if w]
    weights = [norm[0][i] for i in weighted]
    origin = [par.origin[i] for i in weighted]
    cols = [[b[i] for i in weighted] for b in par.basis]
    wcols = [list(map(_mul, weights, col)) for col in cols]
    rows = []
    for a in range(d):
        row = [rows[b][a] for b in range(a)]
        row += [sum(map(_mul, wcols[a], cols[b])) for b in range(a, d)]
        row += [0] * d + [sum(map(_mul, wcols[a], origin))]
        row[d + a] = 1
        rows.append(row)
    h = [row[-1] for row in rows]
    c0 = sum(map(_mul, weights, map(_mul, origin, origin)))

    D, U = [1], []
    for k in range(d):
        prow = rows[k]
        p = prow[k]
        assert p > 0, "the norm must be positive definite on the lattice"
        U.append(prow[k:d] + prow[-1:])
        for i in range(d):
            if i != k:
                rows[i] = _bareiss_row(rows[i], prow, p, D[-1], k)
        D.append(p)

    delta = D[-1]
    adj_h = [row[-1] for row in rows]
    n = delta * (norm[1] - c0) + sum(map(_mul, h, adj_h))
    if n < 0:
        return None
    intervals = []
    for j, row in enumerate(rows):
        s = isqrt(n * row[d + j])
        lo, hi = _ceil_div(-adj_h[j] - s, delta), (s - adj_h[j]) // delta
        if lo > hi:
            return None
        intervals.append((lo, hi))
    return intervals, D, U, n


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
    """Shrink integer intervals using each row; None on conflict.

    `rows` holds (nonzero (j, c) pairs, positive parts, negative parts, r)
    for each row c·t >= r.  Over the box the row's slack s = max c·t - r
    must be >= 0, and then t_j keeps only the values within s // |c_j| of
    the end of its interval at which c_j·t_j is largest."""
    lo = [a for a, _ in intervals]
    hi = [b for _, b in intervals]
    for _ in range(40):
        changed = False
        for nonzero, pos, neg, r in rows:
            s = sum(map(_mul, pos, hi)) + sum(map(_mul, neg, lo)) - r
            if s < 0:
                return None
            for j, c in nonzero:
                if c > 0:
                    if c * (hi[j] - lo[j]) > s:
                        lo[j] = hi[j] - s // c
                        changed = True
                elif c * (lo[j] - hi[j]) > s:
                    hi[j] = lo[j] + s // -c
                    changed = True
        if not changed:
            break
    return list(zip(lo, hi))


def _scale_ray(ray):
    """The primitive integer vector on the rational ray."""
    denom = math.lcm(*(v.denominator for v in ray))
    ints = [int(v * denom) for v in ray]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def solve_all(sys: LinSystem, max_nodes: int = DEFAULT_MAX_NODES):
    """All integer solutions of the system.

    Finite(solutions) with a duplicate-free, lexicographically sorted tuple;
    Infinite(ray) when the relaxation is unbounded along an integer lattice
    direction, which needs a system without a norm bound; Aborted(nodes)
    when the node budget runs out.  Every returned solution is
    re-substituted into the original system before being reported.
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

    if sys.norm is None:
        intervals = lp_bounds(rows, d)
        if intervals is None:
            return Finite(())
        if isinstance(intervals, Unbounded):
            ray_t = intervals.ray
            ray_x = tuple(
                sum(ray_t[j2] * par.basis[j2][i] for j2 in range(d))
                for i in range(len(sys.variables))
            )
            return Infinite(_scale_ray(ray_x))
        slack = None
    else:
        bounded = _ellipsoid(par, sys.norm)
        if bounded is None:
            return Finite(())
        intervals, D, U, slack = bounded

    prepared = [
        (
            [(j, c) for j, c in enumerate(coeffs) if c],
            [max(c, 0) for c in coeffs],
            [min(c, 0) for c in coeffs],
            r,
        )
        for coeffs, r in rows
    ]
    solutions = []
    nodes = 0

    def leaf(t):
        # propagation has checked every row on the point intervals of t
        x = tuple(
            par.origin[i] + sum(t[j] * par.basis[j][i] for j in range(d))
            for i in range(len(sys.variables))
        )
        assert sys.check_solution(x), "enumerated point must satisfy the system"
        solutions.append(x)

    def dfs(fixed, intervals, slack):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise _Budget
        intervals = _interval_propagate(prepared, intervals)
        if intervals is None:
            return
        free = [j for j in range(d) if fixed[j] is None]
        if not free:
            leaf(fixed)
            return
        if slack is None:
            j = min(free, key=lambda j2: (intervals[j2][1] - intervals[j2][0], j2))
            lo, hi = intervals[j]
        else:
            # the last free parameter, in LDL order: slack is
            # D[j + 1]·(R − min Q over the free t_0, ..., t_j), so the
            # bound leaves L_j(t)² ≤ D[j]·slack
            j = free[-1]
            u = U[j]
            p = u[0]
            c = u[-1] + sum(map(_mul, u[1:-1], fixed[j + 1:]))
            m = isqrt(D[j] * slack)
            lo = max(intervals[j][0], _ceil_div(-m - c, p))
            hi = min(intervals[j][1], (m - c) // p)
        for val in range(lo, hi + 1):
            nfixed = fixed[:]
            nfixed[j] = val
            nintervals = intervals[:]
            nintervals[j] = (val, val)
            nslack = None
            if slack is not None:
                lval = p * val + c
                nslack, rem = divmod(D[j] * slack - lval * lval, p)
                assert not rem, "the LDL slack must stay integral"
            dfs(nfixed, nintervals, nslack)

    try:
        dfs([None] * d, intervals, slack)
    except _Budget:
        return Aborted(nodes - 1)

    return Finite(tuple(sorted(set(solutions))))
