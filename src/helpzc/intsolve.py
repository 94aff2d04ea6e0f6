"""Exact enumeration of integer solutions of linear constraint systems.

A LinSystem holds integer equality rows over declared variables,
congruence rows c·x + a ≡ 0 (mod k) that also require c·x + a >= 0, and
optionally a norm bound sum_i w_i * x_i^2 <= R with integer weights
w_i >= 0.  The congruence row is the one inequality: a sign bound
x_i >= 0 is the row (k·e_i, 0).  The pipeline:

  1. eliminate the equalities and congruences over Z, writing every integer
     solution as origin + integer combination of lattice basis vectors: the
     equality rows are column-reduced exactly, each column held only as its
     transform over the variables, and the congruence rows are taken modulo
     k over the kernel left, which the lattice contains k times, each class
     of residues mod k once up to sign (a sign row, 0 mod k, restricts
     nothing).  Its basis is the Hermite normal form
     modulo k (after Cohen, Algorithm 2.4.8; Domich, Kannan and Trotter
     1987).  Under a norm bound it is then LLL-reduced (δ = 99/100,
     integral, Cohen's Algorithm 2.6.7) for the norm's inner product
     Σ w_i·u_i·v_i, a unimodular change that keeps the lattice and makes
     its vectors short, so that step 3 searches a short basis.  The
     reduction reads only the coefficients, so it is made once per
     coefficient matrix and shared; each system adds only its right sides,
     which fix its origin (`diophantine_eliminate`).  The congruence
     coefficients are kept by columns, so the rows over the basis and their
     values at the origin are sums of columns, one per nonzero entry;
  2. push each c·x + a >= 0 through it: inequalities over the parameters;
  3. bound the parameters.  A system with a norm bound (every HeLP system
     over a complete character table, see the constraints module) is
     bounded by its ellipsoid Q(t) <= R, which must be positive definite
     on the lattice.  Its fraction-free LDL^T is read off the LLL's
     integral Gram–Schmidt data, d and λ, with no Gram matrix built again;
     the rows V of the elimination's identity part come from a forward
     recurrence over d and λ (`_ldl`).  Together they give the box around
     its centre and, at each search node, the exact interval of the next
     parameter in LDL order (Fincke and Pohst 1985).
     A system without one is bounded per parameter by a fraction-free
     simplex (Bland's rule on an integer tableau with one common
     denominator): one phase 1 per system, then each bound re-optimized
     from the feasible basis; only such a system can be Infinite.  The
     tableau, the LP's result records, this bounding (`lp_bounds`) and
     the redundancy sweep live in the `simplex` module, which the first
     LP imports together with `fractions.Fraction`, the type of its
     results, so a run over complete tables never loads either.
     `simplex_opt` stays here as the one LP entry, and those names
     resolve as attributes of this module too;
  4. enumerate by depth-first fixing of parameters inside those bounds:
     under the norm bound the last free one (t_{d-1} first, the LDL
     order), under the LP bounds the one whose interval is the narrowest
     not yet a point, reading the fixed values off the box (lo == hi).
     One loop over an explicit stack makes each child only when its turn
     comes, so the depth is not bounded by the recursion limit and the
     search holds O(d) boxes, however wide the intervals, and leaves no
     reference cycle.  Each node is pruned by integer interval
     propagation over the inequality rows, each held as its nonzero
     coefficients only: a worklist that starts with every row at the root
     and, after a parameter is fixed, with the rows that read a bound the
     fixing moved (a row with c_j > 0 reads only hi[j], one with c_j < 0
     only lo[j]), re-queueing the readers of each bound a row moves, up to
     40 visits per row.

Everything is exact; there is no floating point anywhere.
"""

from __future__ import annotations

import math
from math import gcd, isqrt
from operator import mul as _mul

from .records import Record

DEFAULT_MAX_NODES = 10_000_000


class LinSystem(Record):
    """Integer equalities Σ c·x = rhs, for each congruence row (c, a, tag)
    c·x + a ≡ 0 (mod modulus) and c·x + a ≥ 0, and Σ w_i·x_i² ≤ R when
    norm = (w, R) is given.  The congruence rows are the only inequalities:
    x_i ≥ 0 is the row (modulus·e_i, 0).  The tag, like the variables,
    means nothing to the solver: a HeLP system's rows all hold its one
    record of constant terms (see constraints._assemble)."""

    __slots__ = ("variables", "equalities", "norm", "modulus", "congruences")

    def __init__(self, variables, equalities, norm=None, modulus=1, congruences=()):
        n = len(variables)
        if any(len(row[0]) != n for row in (*equalities, *congruences)):
            raise ValueError("row arity does not match variables")
        if norm is not None and (len(norm[0]) != n or any(w < 0 for w in norm[0])):
            raise ValueError("norm needs one non-negative weight per variable")
        if modulus < 1:
            raise ValueError("the modulus must be positive")
        super().__init__(variables, equalities, norm, modulus, congruences)

    def check_solution(self, x) -> bool:
        mu = [sum(map(_mul, c, x)) + a for c, a, _ in self.congruences]
        return (
            all(sum(map(_mul, c, x)) == rhs for c, rhs in self.equalities)
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
    """One coefficient matrix reduced: for each row that moves the origin,
    its index, its pivot value and the pivot's transform over x (`steps`);
    the basis, and each basis vector's nonzero (i, v) pairs (`sparse`); the
    congruence rows over t, which become the inequalities, merged by
    coefficients with their indices and divisors; under a norm, its LDLᵀ
    read off the LLL (`_ldl`); the congruence coefficients by columns, one
    per variable (`columns`)."""

    __slots__ = ("steps", "basis", "sparse", "rows", "gram", "columns")


# The coefficient matrix reduced last, as (key, _Lattice), the key being
# everything the reduction reads.  The systems of one unit order differ only
# in their right sides and are solved one after another, so they share it,
# as consecutive LPs share the tableau kept in `simplex._warm`.
_lattice = (None, None)


def _reduce(modulus, n, equalities, congruences, weights) -> _Lattice:
    """Column-reduce the equality rows exactly, then take the congruence
    rows modulo k over the kernel they leave.  A column is only its
    unimodular transform u over the n variables: every earlier row is zero
    on it, so its value on row r is row·u.  In coordinates y over the d
    columns left, L = {y : (c·columns)·y ≡ 0 (mod k) for each congruence
    row c} contains k·Z^d, so d generators held mod k span it with k·Z^d,
    and each row restricts them to its class (`_split`).  A class that is
    0 on every generator is implied by the rows before it, or repeats
    one: its row is constant mod k on origin + L and records no step.  A
    row once restricted stays 0 mod k on every generator, as `_split` only
    combines generators mod k and replaces g0 by (k/p)·g0; so a row whose
    residues mod k are those of an earlier row, of its negation, or all 0
    records no step either, and its class is not read.  The basis is the
    Hermite normal form of L modulo k: lower triangular over y, p | k on
    the diagonal, each entry in [0, p) for the diagonal entry p of its
    coordinate.  Each merged row's coefficients over the basis are sums
    of the coefficient columns, one per nonzero basis entry."""
    k = modulus
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    lat = _Lattice()
    lat.steps = []
    for r, row in enumerate(equalities):
        vals = [sum(map(_mul, row, u)) for u in cols]
        j0 = _euclid(cols, vals)
        if j0 is not None:
            # leaving the columns, the pivot is final
            lat.steps.append((r, vals[j0], tuple(cols.pop(j0))))
    kernel = [[(i, v) for i, v in enumerate(u) if v] for u in cols]
    d = len(kernel)

    def over_x(y):
        x = [0] * n
        for t, col in zip(y, kernel):
            if t:
                for i, v in col:
                    x[i] += t * v
        return tuple(x)

    # each generator is its image over x mod k, on which the rows' classes
    # are read, followed by itself over y
    gens = [
        [v % k for v in u] + [int(i == j) for i in range(d)]
        for j, u in enumerate(cols)
    ]
    seen = {(0,) * n}
    for r, c in enumerate(congruences, len(equalities)):
        residues = tuple([v % k for v in c])
        if residues not in seen:
            seen.update((residues, tuple([-v % k for v in c])))
            vals = _classes(c, gens, k)
            if any(vals):
                p, h = _split(gens, vals, k)
                lat.steps.append((r, p, over_x(h[n:])))
    gens = [g[n:] for g in gens]
    # coordinate by coordinate, the generators split off one basis vector,
    # or k·e_i when none is nonzero there, and the vectors before it are
    # reduced by it at that coordinate
    hnf = []
    for i in range(d):
        p, h = _split(gens, [g[i] for g in gens], k) or (k, [0] * d)
        h[i] = p
        for prev in hnf:
            q = prev[i] // p
            if q:
                prev[i:] = [a - q * b for a, b in zip(prev[i:], h[i:])]
        hnf.append(h)
    basis = tuple(map(over_x, hnf))
    lat.basis, *ldl = (basis,) if weights is None else _lll(basis, weights)
    lat.sparse = [[(i, v) for i, v in enumerate(b) if v] for b in lat.basis]

    lat.columns = list(zip(*congruences)) or [()] * n
    over_basis = [_combine(lat.columns, col) for col in lat.sparse]
    # with no basis vector each row's coefficients are ()
    merged: dict[tuple[int, ...], list] = {}
    for s, coeffs in enumerate(list(zip(*over_basis)) or [()] * len(congruences)):
        g = gcd(*coeffs)
        if g > 1:
            coeffs = tuple([v // g for v in coeffs])
        merged.setdefault(coeffs, []).append((s, max(g, 1)))
    lat.rows = sorted(merged.items())
    lat.gram = _ldl(lat.basis, weights, *ldl) if ldl and lat.basis else None
    return lat


def _euclid(cols, vals, k=0):
    """Column Euclid on one row, vals[j] being the value of cols[j] on it:
    the column of least |value|, lowest index first, made positive,
    reduces the others until it alone is nonzero.  Returns its index, its
    value being the gcd, or None when every value is 0.  With a modulus k
    the values lie in [0, k) and the columns are held mod k."""
    live = [j for j, v in enumerate(vals) if v]
    if not live:
        return None
    while True:
        j0 = min(live, key=lambda j: (abs(vals[j]), j))
        if vals[j0] < 0:
            vals[j0] = -vals[j0]
            cols[j0] = [-v for v in cols[j0]]
        if len(live) == 1:
            return j0
        c0 = cols[j0]
        for j in live:
            if j != j0:
                q = vals[j] // vals[j0]
                vals[j] -= q * vals[j0]
                pairs = zip(cols[j], c0)
                if k:
                    cols[j] = [(x - q * y) % k for x, y in pairs]
                else:
                    cols[j] = [x - q * y for x, y in pairs]
        live = [j for j in live if vals[j]]


def _classes(c, gens, k):
    """The class mod k of the row c on each generator's image over x."""
    return [sum(map(_mul, c, g)) % k for g in gens]


def _combine(columns, pairs, *start):
    """start + Σ v·columns[i] over the (i, v) pairs, entry by entry."""
    return list(map(sum, zip(*start, *[map(v.__mul__, columns[i]) for i, v in pairs if v])))


def _split(gens, vals, k):
    """Restrict the lattice that gens and k·Z^d span to f ≡ 0 (mod k), f a
    linear form with vals[j] = f(gens[j]) mod k.  The column Euclid leaves
    one generator g0 of value g, the gcd of the values, and the others of
    value 0.  With p = gcd(g, k), the multiples of g0 on which f ≡ 0 are
    those of (k/p)·g0, which replaces g0.  Returns p and h = s·g0 mod k,
    s·(g/p) ≡ 1 (mod k/p), so that f(h) ≡ p: h and the restricted lattice
    span the old one.  None when f is 0 on every generator."""
    j0 = _euclid(gens, vals, k)
    if j0 is None:
        return None
    g0, g = gens[j0], vals[j0]
    p = gcd(g, k)
    s = pow(g // p, -1, k // p)
    gens[j0] = [k // p * v % k for v in g0]
    return p, [s * v % k for v in g0]


def _lll(basis, weights):
    """The basis LLL-reduced with δ = 99/100 under ⟨u, v⟩ = Σ w_i·u_i·v_i,
    all in integers (Cohen, Algorithm 2.6.7): with vectors b[1..n], sorted
    by length first, d[i] is the Gram determinant of b[1..i] and
    lam[k][j] = d[j]·μ_kj, j < k.  Only integer multiples of one vector are
    added to another and vectors are swapped, so the lattice is unchanged.
    Returns the reduced basis with its integral Gram–Schmidt data d and
    lam, from which `_ldl` reads the norm's LDLᵀ; the basis as given and
    None, None when the form is not positive definite on it (`_ldl`
    rejects it).

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
        # b[k] -= q·b[l], q the integer nearest μ_kl, called when |μ_kl| > 1/2
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
                    return basis, None, None
                else:
                    d[k] = u
        if k == 1:
            k = 2
            continue
        if 2 * abs(lam[k][k - 1]) > d[k - 1]:
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
                if 2 * abs(lam[k][l]) > d[l]:
                    red(k, l)
            k += 1
    return tuple(map(tuple, b[1:])), d, lam


def diophantine_eliminate(sys: LinSystem) -> Parametrization | None:
    """Parametrize all integer solutions of the equality and congruence rows
    from their shared reduction: the right sides fix only the origin, step
    by step from the residual of each step's row.  A step's pivot transform
    lies in the lattice of the rows before it, so later steps keep every
    earlier row, and a row without a step is constant on origin + L (mod k
    on a congruence row), so testing it at the origin is the whole check it
    needs.  Each congruence row's c·x + a >= 0, sign bounds included,
    becomes a returned row coeffs·t >= rhs, normalized by integer rounding
    (exact, since t is integral) and merged by coefficients.  None when
    there is no integer solution or a row without coefficients fails."""
    global _lattice
    k = sys.modulus
    # a row without coefficients is a condition on its constant alone,
    # checked before the cache so that the system keeps its order's lattice
    if any((a < 0 or a % k) and not any(c) for c, a, _ in sys.congruences):
        return None
    weights = None if sys.norm is None else sys.norm[0]
    equalities = tuple([c for c, _ in sys.equalities])
    congruences = tuple([c for c, _, _ in sys.congruences])
    key = (k, len(sys.variables), equalities, congruences, weights)
    if _lattice[0] != key:
        _lattice = (key, _reduce(*key))
    lat = _lattice[1]
    origin = [0] * len(sys.variables)
    for r, p, u in lat.steps:
        # the pivot transform is zero on every earlier equality row and
        # 0 mod k on every earlier congruence row, so the origin keeps them
        if r < len(equalities):
            c, acc = sys.equalities[r]
            acc -= sum(map(_mul, c, origin))
        else:
            # p | k, the values being taken mod k
            c, a, _ = sys.congruences[r - len(equalities)]
            acc = -(sum(map(_mul, c, origin)) + a) % k
        y, rem = divmod(acc, p)
        if rem:
            return None
        if y:
            origin = [o + y * v for o, v in zip(origin, u)]
    # the rows without a step, at the origin
    if any(sum(map(_mul, c, origin)) != b for c, b in sys.equalities):
        return None
    values = _combine(lat.columns, enumerate(origin), [a for _, a, _ in sys.congruences])
    if any(v % k for v in values):
        return None
    inequalities = []
    for coeffs, members in lat.rows:
        bound = max([_ceil_div(-values[s], g) for s, g in members])
        if any(coeffs):
            inequalities.append((coeffs, bound))
        elif bound > 0:
            return None
    return Parametrization(tuple(origin), lat.basis, tuple(inequalities), lat)


# -- exact simplex ---------------------------------------------------------


def simplex_opt(inequalities, objective, maximize: bool = True):
    """Exact LP over free rational variables t: rows are coeffs·t >= rhs.

    Returns Optimal(value, point), Unbounded(ray), or Infeasible().  The
    point/ray live in t-space; the ray certifies unboundedness of the
    requested direction.  Consecutive calls on equal rows share one
    tableau and one phase 1.
    """
    from fractions import Fraction

    from .simplex import Infeasible, Optimal, Unbounded, _feasible_tableau

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


# -- norm bound ----------------------------------------------------------------


def _ldl(basis, weights, D, lam):
    """The norm Σ w_i·x_i² = tᵀGt + 2hᵀt + c0 over x = origin + Σ t_j·b_j,
    G positive definite, in the fraction-free LDLᵀ form that `_lll` leaves
    (h and c0 move with the origin: `_ellipsoid`).  D[j] is the leading
    principal minor of order j of G (`_lll`'s d[j]), and U[j] = (D[j + 1],
    λ_{j+2,j+1}, ..., λ_{d,j+1}), λ being `_lll`'s lam, indexed from 1, the
    row over t_j, ..., t_{d-1} that the forward elimination of G (Bareiss)
    takes as pivot row j.  The same elimination on [G | I] carries V[j]
    right of the bar, over t_0, ..., t_j, with V·G = U; on its own it is
    the recurrence v ← (D[m + 1]·v − λ_{j+1,m+1}·V[m]) / D[m] for m < j,
    about d³/6 steps, each division exact.  Then
    G⁻¹ = Σ_j V[j]ᵀ·V[j] / (D[j]·D[j + 1]), whose diagonal, times
    Δ = det G, bounds the box (`_adj_sum`).  Returns (weighted indices,
    weights, weighted basis columns, D, U, V, the diagonal of adj G)."""
    assert D, "the norm must be positive definite on the lattice"
    d = len(basis)
    weighted = [i for i, w in enumerate(weights) if w]
    weights = [weights[i] for i in weighted]
    wcols = [[w * b[i] for w, i in zip(weights, weighted)] for b in basis]
    U = [[D[j], *[lam[i][j] for i in range(j + 1, d + 1)]] for j in range(1, d + 1)]
    V = []
    for j in range(1, d + 1):
        v = []
        for m in range(1, j):
            q = lam[j][m]
            v = [(D[m] * a - q * b) // D[m - 1] for a, b in zip(v + [0], V[m - 1])]
        V.append(v + [D[j - 1]])
    adj = _adj_sum(D, [[a * a for a in v] for v in V])
    return weighted, weights, wcols, D, U, V, adj


def _adj_sum(D, terms):
    """Δ·Σ_j terms[j] / (D[j]·D[j + 1]), Δ = D[-1], terms[j] a vector of
    length j + 1 that is (V[j]·y)·V[j] for some integer y: adj G·y, or
    with y = e_i the i-th entry of the diagonal of adj G.  The sum over
    j < m, times D[m], is a minor of G bordered by y and e_i, so each step
    acc ← (D[j + 1]·acc + terms[j]) / D[j] divides exactly."""
    acc = []
    for j, term in enumerate(terms):
        acc = [(D[j + 1] * a + b) // D[j] for a, b in zip(acc + [0], term)]
    return acc


def _ellipsoid(par: Parametrization, radius: int):
    """The norm bound at this system's origin: with h and c0 of `_ldl`,

        Q(t) = Σ_j L_j(t)² / (D[j]·D[j + 1]) + c0 − hᵀ·adj G·h / Δ,
        L_j(t) = U[j] · (t_j, ..., t_{d-1}) + V[j]·h,

    and with N = Δ·(R − c0) + hᵀ·adj G·h, Δ times the slack at the centre
    −adj G·h / Δ, every t_j lies within √(N·(adj G)_jj) / Δ of the centre.
    adj G·h comes from the V[j]·h (`_adj_sum`).  Returns (that box,
    (V[j]·h)_j, N), or None when the ellipsoid holds no integer point."""
    weighted, weights, wcols, D, _, V, adj = par.lattice.gram
    origin = [par.origin[i] for i in weighted]
    h = [sum(map(_mul, wcol, origin)) for wcol in wcols]
    c0 = sum(map(_mul, weights, map(_mul, origin, origin)))
    consts = [sum(map(_mul, v, h)) for v in V]
    adj_h = _adj_sum(D, [[c * a for a in v] for c, v in zip(consts, V)])
    delta = D[-1]
    n = delta * (radius - c0) + sum(map(_mul, h, adj_h))
    if n < 0:
        return None
    intervals = []
    for j, a in enumerate(adj):
        s = isqrt(n * a)
        lo, hi = _ceil_div(-adj_h[j] - s, delta), (s - adj_h[j]) // delta
        if lo > hi:
            return None
        intervals.append((lo, hi))
    return intervals, consts, n


# -- enumeration -------------------------------------------------------------


def _prepare(rows, d):
    """The rows coeffs·t >= r over d parameters as _interval_propagate
    reads them, each as its nonzero (j, c) pairs and r, and per parameter
    the indices of the rows that read its lower bound (c_j < 0) and of
    those that read its upper bound (c_j > 0)."""
    prepared = []
    reads_lo = [[] for _ in range(d)]
    reads_hi = [[] for _ in range(d)]
    for i, (coeffs, r) in enumerate(rows):
        nonzero = [(j, c) for j, c in enumerate(coeffs) if c]
        for j, c in nonzero:
            (reads_hi if c > 0 else reads_lo)[j].append(i)
        prepared.append((nonzero, r))
    return prepared, reads_lo, reads_hi


def _interval_propagate(rows, reads_lo, reads_hi, lo, hi, work, cap):
    """Shrink the integer intervals [lo[j], hi[j]] in place by the rows
    queued in `work` and every row they re-queue; False on conflict.

    `rows` holds (nonzero (j, c) pairs, r) for each row c·t >= r, and
    reads_lo[j] and reads_hi[j] the rows with c_j < 0 and c_j > 0 of
    `_prepare`.  Over the box the row's slack

        s = Σ_{c_j > 0} c_j·hi[j] + Σ_{c_j < 0} c_j·lo[j] − r

    must be >= 0, and then t_j keeps only the values within s // |c_j| of
    the end of its interval at which c_j·t_j is largest: hi[j] − s // c_j
    bounds lo[j] from below when c_j > 0, and lo[j] + s // −c_j bounds
    hi[j] from above when c_j < 0.  So a row reads hi[j] only where
    c_j > 0 and lo[j] only where c_j < 0, and it leaves the box unchanged
    (is stable) when each of its bounds is no tighter than the one it
    would move.  Moving a bound it does not read leaves its slack and its
    bounds as they were and only tightens what they are compared with, so
    it stays stable: a rise of lo[j] queues only reads_lo[j], a fall of
    hi[j] only reads_hi[j], and the row that moved the bound reads the
    other one.  Each step is monotone and only shrinks the box, so when
    every row outside `work` is stable on entry, the box reached is the
    largest one that all rows leave unchanged, in any order of the queue.
    After `cap` rows the box is kept as it is, which is sound."""
    queued = set(work)
    work = list(work)
    while work and cap:
        cap -= 1
        i = work.pop()
        queued.discard(i)
        nonzero, r = rows[i]
        s = -r
        for j, c in nonzero:
            s += c * (hi[j] if c > 0 else lo[j])
        if s < 0:
            return False
        for j, c in nonzero:
            if c > 0:
                if c * (hi[j] - lo[j]) <= s:
                    continue
                lo[j] = hi[j] - s // c
                moved = reads_lo[j]
            elif c * (lo[j] - hi[j]) > s:
                hi[j] = lo[j] + s // -c
                moved = reads_hi[j]
            else:
                continue
            for i2 in moved:
                if i2 not in queued:
                    queued.add(i2)
                    work.append(i2)
    return True


def solve_all(sys: LinSystem, max_nodes: int = DEFAULT_MAX_NODES, first: bool = False):
    """All integer solutions of the system.

    Finite(solutions) with a duplicate-free, lexicographically sorted tuple;
    Infinite(ray) when the relaxation is unbounded along an integer lattice
    direction, which needs a system without a norm bound; Aborted(nodes)
    when the node budget runs out.  Every returned solution is
    re-substituted into the original system before being reported.  With
    `first` the search stops at its first solution, so Finite holds at most
    one: enough to tell whether there is any.
    """
    par = diophantine_eliminate(sys)
    if par is None:
        return Finite(())
    d = len(par.basis)
    rows = par.inequalities
    if d == 0:
        return Finite((par.origin,) if sys.check_solution(par.origin) else ())

    if sys.norm is None:
        from .simplex import Unbounded, _scale_ray, lp_bounds

        intervals = lp_bounds(rows, d)
        if intervals is None:
            return Finite(())
        if isinstance(intervals, Unbounded):
            ray = tuple(sum(map(_mul, intervals.ray, col)) for col in zip(*par.basis))
            return Infinite(_scale_ray(ray))
        slack = None
    else:
        bounded = _ellipsoid(par, sys.norm[1])
        if bounded is None:
            return Finite(())
        intervals, consts, slack = bounded
        _, _, _, D, U, _, _ = par.lattice.gram

    prepared, reads_lo, reads_hi = _prepare(rows, d)
    sparse = par.lattice.sparse
    # as many rows as 40 rounds over all of them
    cap = 40 * len(rows)
    solutions, nodes = [], 0
    # a node (j, lo, hi, work, slack) fixes t_j as step 4 says, the fixed
    # values at lo == hi; at j < 0 it is a point.  The stack holds a frame
    # per depth, whose children are made one at a time in increasing order
    node = (d - 1, *map(list, zip(*intervals)), range(len(prepared)), slack)
    stack = []
    while True:
        j, lo, hi, work, slack = node
        nodes += 1
        if nodes > max_nodes:
            return Aborted(nodes - 1)
        if _interval_propagate(prepared, reads_lo, reads_hi, lo, hi, work, cap):
            if slack is None:
                widths = [(hi[i] - lo[i], i) for i in range(d) if lo[i] < hi[i]]
                j = min(widths)[1] if widths else -1
            if j < 0:
                # propagation has checked every row on the point intervals of t
                x = list(par.origin)
                for tj, col in zip(lo, sparse):
                    for i, v in col:
                        x[i] += tj * v
                x = tuple(x)
                assert sys.check_solution(x), "enumerated point must satisfy the system"
                solutions.append(x)
                if first:
                    break
            else:
                low, high, p, c = lo[j], hi[j], None, None
                if slack is not None:
                    # slack is D[j + 1]·(R − min Q over the free t_0, ..., t_j),
                    # so the bound leaves L_j(t)² ≤ D[j]·slack
                    u = U[j]
                    p = u[0]
                    c = consts[j] + sum(map(_mul, u[1:], lo[j + 1:]))
                    m = isqrt(D[j] * slack)
                    low = max(low, _ceil_div(-m - c, p))
                    high = min(high, (m - c) // p)
                stack.append((j, lo, hi, slack, p, c, iter(range(low, high + 1))))
        # the next node: the next child of the deepest node that has one
        while stack:
            j, lo, hi, slack, p, c, values = stack[-1]
            val = next(values, None)
            if val is not None:
                break
            stack.pop()
        else:
            break
        # only the rows that read a bound of t_j that moved can change
        work = []
        if val > lo[j]:
            work += reads_lo[j]
        if val < hi[j]:
            work += reads_hi[j]
        nlo, nhi = lo[:], hi[:]
        nlo[j] = nhi[j] = val
        nslack = None
        if slack is not None:
            lval = p * val + c
            nslack, rem = divmod(D[j] * slack - lval * lval, p)
            assert not rem, "the LDL slack must stay integral"
        node = (j - 1, nlo, nhi, work, nslack)

    return Finite(tuple(sorted(set(solutions))))


# The LP bounding and its records live in `simplex`, which a run over
# complete tables never loads; these names resolve here too, loading it.
_IN_SIMPLEX = frozenset(
    ("Infeasible", "Optimal", "Unbounded", "lp_bounds", "remove_redundant", "_scale_ray")
)


def __getattr__(name):
    if name in _IN_SIMPLEX:
        from . import simplex

        return getattr(simplex, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
