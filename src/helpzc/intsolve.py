"""Exact enumeration of integer solutions of linear constraint systems.

A LinSystem holds integer equality rows over declared variables, some of
which are flagged nonnegative, congruence rows c·x + a ≡ 0 (mod k) that
also require c·x + a >= 0, and optionally a norm bound
sum_i w_i * x_i^2 <= R with integer weights w_i >= 0.  The pipeline:

  1. eliminate the equalities and congruences over Z (a column reduction
     to a Hermite-style form, each column held only as its unimodular
     transform over the variables and each congruence taking a private
     slack column of value -k), writing every integer solution as
     origin + integer combination of lattice basis vectors.  Under a norm
     bound the basis is then LLL-reduced (δ = 99/100, integral, Cohen's
     Algorithm 2.6.7) for the norm's inner product Σ w_i·u_i·v_i, a
     unimodular change that keeps the lattice and makes its vectors short,
     so that step 3 searches a short basis.  The reduction reads only the
     coefficients, so it is made once per coefficient matrix and shared;
     each system adds only its right sides, which fix its origin row by
     row: the residual of a row over the origin so far, divided by the
     row's pivot value, times the pivot's transform;
  2. push the nonnegativity constraints and each c·x + a >= 0 through that
     parametrization, giving an inequality system over the free integer
     parameters;
  3. bound the parameters.  A system with a norm bound (every HeLP system
     over a complete character table, see the constraints module) is
     bounded by its ellipsoid Q(t) <= R, which must be positive definite
     on the lattice: a fraction-free LDL^T of its Gram matrix (Bareiss)
     gives the box around its centre and, at each search node, the exact
     interval of the next parameter in LDL order (Fincke and Pohst 1985).
     A system without one is bounded per parameter by a fraction-free
     simplex (Bland's rule on an integer tableau with one common
     denominator): one phase 1 per system, then each bound re-optimized
     from the feasible basis; only such a system can be Infinite.  The
     tableau lives in the `simplex` module, which `simplex_opt` imports
     on its first call together with `fractions.Fraction`, the type of
     its results, so a run over complete tables never loads either;
  4. enumerate by depth-first fixing of parameters inside those bounds,
     pruning by integer interval propagation over the inequality rows: a
     worklist that starts with every row at the root and, after a
     parameter is fixed, with the rows that meet it, re-queueing the rows
     of each parameter a row shrinks, up to 40 visits per row.

Everything is exact; there is no floating point anywhere.
"""

from __future__ import annotations

import math
from math import gcd, isqrt
from operator import mul as _mul

from .records import Record

DEFAULT_MAX_NODES = 10_000_000


class LinSystem(Record):
    """Integer equalities Σ c·x = rhs, x_i ≥ 0 for i in nonneg, for each
    congruence row (c, a, owners) c·x + a ≡ 0 (mod modulus) and c·x + a ≥ 0,
    and Σ w_i·x_i² ≤ R when norm = (w, R) is given.  `owners`, like the
    variables, means nothing to the solver (see constraints._assemble)."""

    __slots__ = ("variables", "equalities", "nonneg", "norm", "modulus", "congruences")

    def __init__(
        self, variables, equalities, nonneg, norm=None, modulus=1, congruences=()
    ):
        n = len(variables)
        if any(len(row[0]) != n for row in (*equalities, *congruences)):
            raise ValueError("row arity does not match variables")
        if any(not 0 <= i < n for i in nonneg):
            raise ValueError("nonneg index out of range")
        if norm is not None and (len(norm[0]) != n or any(w < 0 for w in norm[0])):
            raise ValueError("norm needs one nonnegative weight per variable")
        if modulus < 1:
            raise ValueError("the modulus must be positive")
        super().__init__(variables, equalities, nonneg, norm, modulus, congruences)

    def check_solution(self, x) -> bool:
        mu = [sum(map(_mul, c, x)) + a for c, a, _ in self.congruences]
        return (
            all(sum(map(_mul, c, x)) == rhs for c, rhs in self.equalities)
            and all(x[i] >= 0 for i in self.nonneg)
            and all(v >= 0 and v % self.modulus == 0 for v in mu)
            and (
                self.norm is None
                or sum(w * v * v for w, v in zip(self.norm[0], x)) <= self.norm[1]
            )
        )


class Finite(Record):
    __slots__ = ("solutions",)


class Infinite(Record):
    __slots__ = ("ray",)


class Aborted(Record):
    __slots__ = ("nodes",)


class Optimal(Record):
    __slots__ = ("value", "point")


class Unbounded(Record):
    __slots__ = ("ray",)


class Infeasible(Record):
    __slots__ = ()


class Parametrization(Record):
    """x = origin + Σ t_j · basis[j], t integer; inequalities over t.  The
    basis is that of `lattice`, the reduction shared by every system with
    the same coefficients."""

    __slots__ = ("origin", "basis", "inequalities", "lattice")


def _ceil_div(a: int, b: int) -> int:
    # b > 0
    return -((-a) // b)


# -- integer elimination ---------------------------------------------------


class _Lattice:
    """One coefficient matrix reduced: per row its pivot value and the
    pivot's transform over x, or (0, None) when no column is left nonzero
    on it (`steps`); the basis; the rows over x that become inequalities
    (`sources`: x_i ≥ 0, then each c·x + a ≥ 0) and their rows over t,
    merged by coefficients with their sources and divisors; `_gram`."""

    __slots__ = ("steps", "basis", "sources", "rows", "gram")


# The coefficient matrix reduced last, as (key, _Lattice), the key being
# everything the reduction reads.  The systems of one unit order differ only
# in their right sides and are solved one after another, so they share it,
# as consecutive LPs share the tableau kept in `simplex._warm`.
_lattice = (None, None)


def _reduce(modulus, n, equalities, congruences, nonneg, weights) -> _Lattice:
    """Column-reduce the equality rows, then the congruence rows.  A column
    is only its unimodular transform u over the n variables: every earlier
    row is zero on it, so its value on row r is row·u, and a congruence
    row's private slack column is u = 0 with value -modulus."""
    ucols = [[int(i == j) for i in range(n)] for j in range(n)]
    avail = list(range(n))
    lat = _Lattice()
    lat.steps = []
    for r, row in enumerate(equalities + congruences):
        val = {j: sum(map(_mul, row, ucols[j])) for j in avail}
        if r >= len(equalities):
            avail.append(len(ucols))
            val[len(ucols)] = -modulus
            ucols.append([0] * n)
        live = [j for j in avail if val[j]]
        if not live:
            lat.steps.append((0, None))
            continue
        while True:
            # the column of least |value|, lowest index first, made positive
            j0 = min(live, key=lambda j: (abs(val[j]), j))
            p = val[j0]
            if p < 0:
                p = val[j0] = -p
                ucols[j0] = [-v for v in ucols[j0]]
            if len(live) == 1:
                break
            # column_j -= q * column_j0, over the pivot's nonzeros
            u0 = [(i, v) for i, v in enumerate(ucols[j0]) if v]
            for j in live:
                q = val[j] // p
                if q and j != j0:
                    val[j] -= q * p
                    uj = ucols[j]
                    for i, v in u0:
                        uj[i] -= q * v
            live = [j for j in live if val[j]]
        # leaving avail, the pivot column is final
        lat.steps.append((p, tuple(ucols[j0])))
        avail.remove(j0)
    basis = tuple(tuple(ucols[j]) for j in avail)
    lat.basis = basis = basis if weights is None else _lll(basis, weights)

    # the sources of inequality rows over x: x_i >= 0, then c·x + a >= 0
    lat.sources = [tuple(int(i == j) for j in range(n)) for i in sorted(nonneg)]
    lat.sources += congruences
    merged: dict[tuple[int, ...], list] = {}
    for s, c in enumerate(lat.sources):
        coeffs = tuple([sum(map(_mul, c, b)) for b in basis])
        g = gcd(*coeffs)
        if g > 1:
            coeffs = tuple([v // g for v in coeffs])
        merged.setdefault(coeffs, []).append((s, max(g, 1)))
    lat.rows = sorted(merged.items())
    lat.gram = None if weights is None or not basis else _gram(basis, weights)
    return lat


def _lll(basis, weights):
    """The basis LLL-reduced with δ = 99/100 under ⟨u, v⟩ = Σ w_i·u_i·v_i,
    all in integers (Cohen, Algorithm 2.6.7): with vectors b[1..n], sorted
    by length first, d[i] is the Gram determinant of b[1..i] and
    lam[k][j] = d[j]·μ_kj, j < k.  Only integer multiples of one vector are
    added to another and vectors are swapped, so the lattice is unchanged.
    The basis as given when the form is not positive definite on it
    (`_gram` rejects it).

    δ = 3/4 is not enough: on the top system of `zc --no-shortcuts
    cyclic:105` it leaves Gram–Schmidt lengths² down to 0.05 against a
    radius of 1, and the search does not end in 20,000 nodes; with 99/100
    every length² is above 2."""

    def length(v):
        return sum(map(_mul, map(_mul, weights, v), v))

    n = len(basis)
    b = [None, *sorted(map(list, basis), key=length)]
    d = [1] + [0] * n
    lam = [[0] * (n + 1) for _ in range(n + 1)]

    def red(k, l):
        # b[k] -= q·b[l], q the integer nearest μ_kl
        if 2 * abs(lam[k][l]) > d[l]:
            q = (2 * lam[k][l] + d[l]) // (2 * d[l])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l]
            for i in range(1, l):
                lam[k][i] -= q * lam[l][i]

    k, kmax = 1, 0
    while k <= n:
        if k > kmax:
            # the incremental Gram–Schmidt of the new vector
            kmax = k
            wk = list(map(_mul, weights, b[k]))
            for j in range(1, k + 1):
                u = sum(map(_mul, wk, b[j]))
                for i in range(1, j):
                    u = (d[i] * u - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = u
                elif u <= 0:
                    return basis
                else:
                    d[k] = u
        if k == 1:
            k = 2
            continue
        red(k, k - 1)
        if 100 * d[k] * d[k - 2] < 99 * d[k - 1] ** 2 - 100 * lam[k][k - 1] ** 2:
            # swap b[k - 1] and b[k]: d[k - 1] and the lam beside them move
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(1, k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            m = lam[k][k - 1]
            e = (d[k - 2] * d[k] + m * m) // d[k - 1]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k] * lam[i][k - 1] - m * t) // d[k - 1]
                lam[i][k - 1] = (e * t + m * lam[i][k]) // d[k]
            d[k - 1] = e
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                red(k, l)
            k += 1
    return tuple(map(tuple, b[1:]))


def diophantine_eliminate(sys: LinSystem) -> Parametrization | None:
    """Parametrize all integer solutions of the equality and congruence rows
    from their shared reduction: the right sides fix only the origin, row by
    row from its residual.  Nonnegativity and each c·x + a >= 0 become the
    returned rows coeffs·t >= rhs, normalized by integer rounding (exact,
    since t is integral) and merged by coefficients.  None when there is no
    integer solution or a row without coefficients fails."""
    global _lattice
    k = sys.modulus
    # a row without coefficients is a condition on its constant alone,
    # checked before the cache so that the system keeps its order's lattice
    if any((a < 0 or a % k) and not any(c) for c, a, _ in sys.congruences):
        return None
    weights = None if sys.norm is None else sys.norm[0]
    equalities = tuple([c for c, _ in sys.equalities])
    congruences = tuple([c for c, _, _ in sys.congruences])
    key = (k, len(sys.variables), equalities, congruences, sys.nonneg, weights)
    if _lattice[0] != key:
        _lattice = (key, _reduce(*key))
    lat = _lattice[1]
    rhs = [r for _, r in sys.equalities] + [-a for _, a, _ in sys.congruences]
    origin = [0] * len(sys.variables)
    rows = zip(lat.steps, equalities + congruences, rhs)
    for r, ((p, u), row, acc) in enumerate(rows):
        # the pivot transform is zero on every earlier equality row and
        # 0 mod k on every earlier congruence row, so the origin keeps them
        acc -= sum(map(_mul, row, origin))
        if r >= len(equalities):
            # exact: the slack -k took part in the row's Euclid, so p | k
            acc %= k
        if not p:
            if acc:
                return None
            continue
        y, rem = divmod(acc, p)
        if rem:
            return None
        if y:
            origin = [o + y * v for o, v in zip(origin, u)]

    consts = [0] * len(sys.nonneg) + [a for _, a, _ in sys.congruences]
    values = [sum(map(_mul, c, origin)) + a for c, a in zip(lat.sources, consts)]
    inequalities = []
    for coeffs, members in lat.rows:
        bound = max([_ceil_div(-values[s], g) for s, g in members])
        if any(coeffs):
            inequalities.append((coeffs, bound))
        elif bound > 0:
            return None
    return Parametrization(tuple(origin), lat.basis, tuple(inequalities), lat)


# -- exact simplex ---------------------------------------------------------


def _bareiss_row(row, prow, p, D, e):
    """(row·p - row[e]·prow) / D, which divides exactly."""
    f = row[e]
    if not f:
        return row if p == D else [v * p // D for v in row]
    return [(v * p - f * w) // D for v, w in zip(row, prow)]


def simplex_opt(inequalities, objective, maximize: bool = True):
    """Exact LP over free rational variables t: rows are coeffs·t >= rhs.

    Returns Optimal(value, point), Unbounded(ray), or Infeasible().  The
    point/ray live in t-space; the ray certifies unboundedness of the
    requested direction.  Consecutive calls on equal rows share one
    tableau and one phase 1.
    """
    from fractions import Fraction

    from .simplex import _feasible_tableau

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


def _gram(basis, weights):
    """G of the norm Σ w_i·x_i² = tᵀGt + 2hᵀt + c0 over x = origin + Σ t_j·b_j,
    G positive definite (h and c0 move with the origin: `_ellipsoid`).  A
    fraction-free Gauss–Jordan elimination of [G | I] (Bareiss) has the
    leading principal minors D[j + 1] of G as pivots, takes the forward row
    U[j] = (D[j + 1], ...) over t_j, ..., t_{d-1} and the identity part V[j]
    as row j becomes the pivot row, and ends at [Δ·I | adj G], Δ = det G.
    On [G | I | h] it would carry V[j]·h beside U[j] and end at adj G·h, so
    it serves every origin.  Returns (weighted indices, weights, weighted
    basis columns, D, U, V, adj G)."""
    d = len(basis)
    weighted = [i for i, w in enumerate(weights) if w]
    weights = [weights[i] for i in weighted]
    cols = [[b[i] for i in weighted] for b in basis]
    wcols = [list(map(_mul, weights, col)) for col in cols]
    rows = []
    for a in range(d):
        row = [rows[b][a] for b in range(a)]
        row += [sum(map(_mul, wcols[a], cols[b])) for b in range(a, d)]
        row += [0] * d
        row[d + a] = 1
        rows.append(row)

    D, U, V = [1], [], []
    for k in range(d):
        prow = rows[k]
        p = prow[k]
        assert p > 0, "the norm must be positive definite on the lattice"
        U.append(prow[k:d])
        V.append(prow[d:])
        for i in range(d):
            if i != k:
                rows[i] = _bareiss_row(rows[i], prow, p, D[-1], k)
        D.append(p)
    return weighted, weights, wcols, D, U, V, [row[d:] for row in rows]


def _ellipsoid(par: Parametrization, radius: int):
    """The norm bound at this system's origin: with h and c0 of `_gram`,

        Q(t) = Σ_j L_j(t)² / (D[j]·D[j + 1]) + c0 − hᵀ·adj G·h / Δ,
        L_j(t) = U[j] · (t_j, ..., t_{d-1}) + V[j]·h,

    and with N = Δ·(R − c0) + hᵀ·adj G·h, Δ times the slack at the centre
    −adj G·h / Δ, every t_j lies within √(N·(adj G)_jj) / Δ of the centre.
    Returns (that box, (V[j]·h)_j, N), or None when the ellipsoid holds no
    integer point."""
    weighted, weights, wcols, D, _, V, adj = par.lattice.gram
    origin = [par.origin[i] for i in weighted]
    h = [sum(map(_mul, wcol, origin)) for wcol in wcols]
    c0 = sum(map(_mul, weights, map(_mul, origin, origin)))
    adj_h = [sum(map(_mul, row, h)) for row in adj]
    delta = D[-1]
    n = delta * (radius - c0) + sum(map(_mul, h, adj_h))
    if n < 0:
        return None
    intervals = []
    for j, row in enumerate(adj):
        s = isqrt(n * row[j])
        lo, hi = _ceil_div(-adj_h[j] - s, delta), (s - adj_h[j]) // delta
        if lo > hi:
            return None
        intervals.append((lo, hi))
    return intervals, [sum(map(_mul, v, h)) for v in V], n


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


def _prepare(rows, d):
    """The rows coeffs·t >= r over d parameters as _interval_propagate
    reads them, and per parameter the indices of the rows that meet it."""
    prepared = [
        (
            [(j, c) for j, c in enumerate(coeffs) if c],
            [max(c, 0) for c in coeffs],
            [min(c, 0) for c in coeffs],
            r,
        )
        for coeffs, r in rows
    ]
    meets = [[i for i, (coeffs, _) in enumerate(rows) if coeffs[j]] for j in range(d)]
    return prepared, meets


def _interval_propagate(rows, meets, lo, hi, work, cap):
    """Shrink the integer intervals [lo[j], hi[j]] in place by the rows
    queued in `work` and every row they re-queue; False on conflict.

    `rows` holds (nonzero (j, c) pairs, positive parts, negative parts, r)
    for each row c·t >= r, and meets[j] the rows with c_j != 0.  Over the
    box the row's slack s = max c·t - r must be >= 0, and then t_j keeps
    only the values within s // |c_j| of the end of its interval at which
    c_j·t_j is largest.  A row whose parameters have not moved since it
    was last read is stable, so a shrunk t_j queues only meets[j].  Each
    step is monotone and only shrinks the box, so when every row outside
    `work` is stable on entry, the box reached is the largest one that all
    rows leave unchanged, in any order of the queue.  After `cap` rows the
    box is kept as it is, which is sound."""
    queued = set(work)
    work = list(work)
    while work and cap:
        cap -= 1
        i = work.pop()
        queued.discard(i)
        nonzero, pos, neg, r = rows[i]
        s = sum(map(_mul, pos, hi)) + sum(map(_mul, neg, lo)) - r
        if s < 0:
            return False
        for j, c in nonzero:
            if c > 0:
                if c * (hi[j] - lo[j]) <= s:
                    continue
                lo[j] = hi[j] - s // c
            elif c * (lo[j] - hi[j]) > s:
                hi[j] = lo[j] + s // -c
            else:
                continue
            for i2 in meets[j]:
                if i2 not in queued and i2 != i:
                    queued.add(i2)
                    work.append(i2)
    return True


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
    basis = par.basis
    d = len(basis)
    rows = par.inequalities
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
                sum(ray_t[j2] * basis[j2][i] for j2 in range(d))
                for i in range(len(sys.variables))
            )
            return Infinite(_scale_ray(ray_x))
        slack = None
    else:
        bounded = _ellipsoid(par, sys.norm[1])
        if bounded is None:
            return Finite(())
        intervals, consts, slack = bounded
        _, _, _, D, U, _, _ = par.lattice.gram

    prepared, meets = _prepare(rows, d)
    # as many rows as 40 rounds over all of them
    cap = 40 * len(rows)
    solutions = []
    nodes = 0

    def leaf(t):
        # propagation has checked every row on the point intervals of t
        x = tuple(
            par.origin[i] + sum(t[j] * basis[j][i] for j in range(d))
            for i in range(len(sys.variables))
        )
        assert sys.check_solution(x), "enumerated point must satisfy the system"
        solutions.append(x)

    def dfs(fixed, lo, hi, work, slack):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise _Budget
        if not _interval_propagate(prepared, meets, lo, hi, work, cap):
            return
        free = [j for j in range(d) if fixed[j] is None]
        if not free:
            leaf(fixed)
            return
        if slack is None:
            j = min(free, key=lambda j2: (hi[j2] - lo[j2], j2))
            first, last = lo[j], hi[j]
        else:
            # the last free parameter, in LDL order: slack is
            # D[j + 1]·(R − min Q over the free t_0, ..., t_j), so the
            # bound leaves L_j(t)² ≤ D[j]·slack
            j = free[-1]
            u = U[j]
            p = u[0]
            c = consts[j] + sum(map(_mul, u[1:], fixed[j + 1:]))
            m = isqrt(D[j] * slack)
            first = max(lo[j], _ceil_div(-m - c, p))
            last = min(hi[j], (m - c) // p)
        for val in range(first, last + 1):
            nfixed = fixed[:]
            nfixed[j] = val
            nlo, nhi = lo[:], hi[:]
            nlo[j] = nhi[j] = val
            nslack = None
            if slack is not None:
                lval = p * val + c
                nslack, rem = divmod(D[j] * slack - lval * lval, p)
                assert not rem, "the LDL slack must stay integral"
            # only the rows that meet t_j can have moved
            dfs(nfixed, nlo, nhi, meets[j], nslack)

    try:
        dfs(
            [None] * d,
            [a for a, _ in intervals],
            [b for _, b in intervals],
            range(len(prepared)),
            slack,
        )
    except _Budget:
        return Aborted(nodes - 1)

    return Finite(tuple(sorted(set(solutions))))
