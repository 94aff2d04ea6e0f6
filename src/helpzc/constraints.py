"""Integer linear constraint systems on partial augmentations.

For a normalized torsion unit u of order k and a character psi with
representing matrix D(u), the multiplicity of zeta_k^l as an eigenvalue of
D(u) is

    mu_l(u, psi) = (1/k) * sum_{d | k} Tr_{Q(zeta_{k/d})/Q}( psi(u^d) * zeta_{k/d}^{-l} )

and must be a non-negative integer.  Writing psi(u) = sum_x eps_x(u) psi(x)
over the classes x of order dividing k turns each (psi, l) into a congruence

    sum_x Tr(psi(x) zeta_k^{-l}) * eps_x + a(psi, l)  ≡  0 (mod k),  >= 0,

where a collects the d > 1 terms, known once the partial augmentations of
all proper powers of u are fixed, and mu_{psi,l} is the quotient by k.
This module builds those systems and their relaxation to the p-constant
characters (identity 4), each with the norm bound of identity 5 when the
ordinary table is complete.

Assembly is integer-only; identities 1 and 2 make that exact.

1. The constant term is a dot product.  The trace is Q-linear and
   psi(u^d) = sum_x eps_x(u^d) psi(x), so with e = k/d

       Tr(psi(u^d) zeta_e^{-l}) = sum_x eps_x(u^d) * C_e[psi][l mod e][x],

   where C_e[psi][l][x] = Tr_{Q(zeta_e)/Q}(psi(x) zeta_e^{-l}) is the
   coefficient of eps_x in the order-e system; the e = 1 term is deg psi.
2. Each coefficient is a sum of Ramanujan sums.  With psi(x) stored as
   sum_a c_a zeta_n^a over its conductor n | m,

       C_m[psi][l][x] = sum_a c_a * c_m(a*m/n - l),

   where c_m(j) = mu(r) phi(m)/phi(r), r = m/gcd(m, j), is the trace of
   zeta_m^j.  No product, reduction or descent in Q(zeta_m) is needed.

3. Galois twists permute solutions.  For j coprime to k, let pi_j be the
   permutation x -> x^j of the classes of order dividing k, and let the
   twist of a tuple move every level's eps_x to pi_j(x).  If every usable
   block at k satisfies

       C_k[psi][l][pi_j(x)] = C_k[psi][l j^-1 mod k][x],

   as it does for ordinary and Brauer rows alike because
   psi(x^j) = sigma_j(psi(x)), then so does every block at e | k:
   for x of order dividing e, psi(x) lies in Q(zeta_e), so
   C_e[psi][l][x] = phi(e)/phi(k) * C_k[psi][l k/e][x], and
   (l k/e) j^-1 = (l j^-1 mod e) k/e mod k.  Substituting into the row
   (psi, l) of the system of the twisted proper levels, eps' and constant
   terms alike, gives the row (psi, l j^-1) of the original system.  So the
   twisted system is the original with its eps variables permuted by pi_j
   and its rows (psi, l) renamed (psi, l j^-1): twisting is a bijection
   between the two solution sets, and feasibility, unboundedness and the
   p-constant relaxation (which permutes order-p classes among themselves
   and reads its witness only through p-constant rows) are shared.
   The condition reads on trace tuples: with T(v) = (Tr(v zeta_k^-l))_l,
   which determines v in Q(zeta_k), T(sigma_j(v))[l] = T(v)[l j^-1], so a
   cell holds the twist of another iff its tuple is the other's permuted by
   l -> l j^-1.  _traced numbers each table's distinct tuples as it
   traces them, and galois_twists maps each number to that of its permuted
   tuple.  It derives pi_j from the ordinary table alone, since its columns
   separate the classes: pi_j(x) is the class whose column of numbers is
   x's column mapped.  It keeps j only if every other usable table maps
   each cell's number at x to the number at pi_j(x); a row that breaks the
   symmetry therefore only shrinks the group of twists.

4. The p-constant relaxation.  Let k = p*q with distinct primes p, q and
   let psi be constant on the classes of order p, with value psi(x_p).  In
   psi(u) = sum_x eps_x psi(x) the order-p classes enter only through
   agg_p = sum_{o(x) = p} eps_x, so the row (psi, l) reads the same over
   the other eps and agg_p.  And u^q has order p, so its partial
   augmentations sit on the order-p classes and sum to 1: psi(u^q) =
   psi(x_p), the constant term of a unit with eps = 1 at the witness x_p.
   Hence every solution of the full system, its order-p eps summed, solves
   the system over the p-constant rows, and an infeasible one rules the
   proper powers out.

5. The norm bound.  Let the ordinary table be complete: as many
   irreducibles as classes, their row orthogonality checked at load, so
   their columns are orthogonal too.  For any integer solution of order k
   and any irreducible chi, the multiplicities mu_l of the rows (chi, l)
   are the discrete Fourier coefficients of j -> chi(u^j), so
   chi(u) = sum_x eps_x chi(x) = sum_l mu_l zeta_k^l with mu_l >= 0 and
   sum_l mu_l = chi(1), and |chi(u)| <= chi(1).  Column orthogonality gives
   sum_chi |chi(u)|^2 = |G| sum_x eps_x^2 / |x^G|, and sum_chi chi(1)^2 =
   |G|, hence

       sum_x eps_x^2 / |x^G| <= 1.

   The bound thus removes no integer solution, and it bounds the system,
   whose only unknowns are the eps (k mu = C eps + a).  In the relaxation of
   identity 4, Cauchy-Schwarz gives agg_p^2 <= S_p sum_{o(x) = p}
   eps_x^2 / |x^G|, S_p the total size of the order-p classes, so every
   full solution also has sum_{o(x) != p} eps_x^2 / |x^G| + agg_p^2 / S_p
   <= 1, and the relaxation with this bound is still one.  Each system over
   a complete table carries its bound scaled by L, the lcm of the sizes
   (S_p for agg_p) of its lead variables: weights L / |x^G| and radius L.
   On an abelian group every class has size 1, so eps is a unit vector
   (Higman's theorem).

6. The multiplicities of a row sum to its degree.  For m > 1 the m-th
   roots of unity sum to zero, so for every class x

       sum_{l < m} C_m[psi][l][x] = Tr(psi(x) sum_l zeta_m^-l) = 0.

   Sum the rows (psi, l) of an order-k system over l < k.  The eps terms
   cancel (m = k), and so does each proper level's share, which repeats
   its e sums k/e times (m = e > 1); only the e = 1 term is left, deg psi
   k times.  Hence sum_l mu_l(u, psi) = deg psi for every eps, so no
   solution needs checking for it.  _template checks the first half on
   each row of its top block, class by class, and _assemble the second on
   each level's sums when it first builds that level's share, both before
   they are gathered into merged order; a trace block that breaks it is
   refused there.

7. A Brauer row that restricts an ordinary irreducible adds nothing.  Let
   p not divide k, and let the Brauer row beta equal the ordinary
   irreducible chi on the p-regular classes.  Every class of order dividing
   k is p-regular, the identity among them, so deg beta = deg chi, and the
   coefficients and each proper level's sums of identity 1 read beta only
   there.  Hence the rows (beta, l) and (chi, l) have the same coefficient
   tuple and the same constant, and in the relaxation of identity 4 beta is
   p-constant iff chi is.  Merging by coefficient tuple puts (beta, l) in
   the run of (chi, l), so each run holds the same set of constants without
   it: the same least constant and the same clash test mod k.  The ordinary
   rows come first, so the first-seen order of the runs is unchanged too.
   Neither does beta shrink the group of identity 3, as each of its cells
   is chi's.  So usable_tables keeps only a Brauer table's other rows, each
   under its label in its own table, and a table left with none is skipped.

Each character table gets one integer block of C_m per unit order m, built
from the stored exponents on first use, with each distinct value traced
once, and kept on the table; a table set's coefficients are its tables'
blocks joined.  What the systems of one order share (the rows merged by
coefficient tuple, their layout, the degrees, the variables, the norm) is
built once per order and table set, each proper power's sums of identity 1
once per table, and their share of the constants, in the merged order, once
per order.  A system's constant terms are then one flat list, the degrees
plus its proper powers' shares, and every step over the rows (psi, l) is an
operation on whole lists: the sum, the clash test mod k, and the check that
each solution's multiplicities are non-negative integers.  Cyclotomic (Cyc)
arithmetic only loads and validates the character tables.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from math import gcd, lcm
from operator import add

from .arith import divisors, is_prime
from .chartables import CharacterTable, TableBundle
from .cyclotomics import Cyc, FieldError
from .intsolve import LinSystem
from .records import Record


class ConstraintError(ValueError):
    pass


# -- partial augmentations ---------------------------------------------------


class PAVector(Record):
    """Partial augmentations of one unit of order `order`.

    Entries are (class index, value) pairs, sorted, zero values dropped;
    class indices refer to the ordinary table.
    """

    __slots__ = ("order", "entries")

    def __init__(self, order: int, entries: tuple[tuple[int, int], ...]):
        if sum(v for _, v in entries) != 1:
            raise ConstraintError("partial augmentations must sum to 1")
        idx = [i for i, _ in entries]
        if idx != sorted(set(idx)) or any(v == 0 for _, v in entries):
            raise ConstraintError("entries must be sorted, unique, nonzero")
        super().__init__(order, entries)

    def __hash__(self):
        return hash((self.order, self.entries))

    def twisted(self, perm: dict[int, int]) -> "PAVector":
        """The entries moved from each class x to perm[x]."""
        return PAVector(self.order, tuple(sorted((perm[i], v) for i, v in self.entries)))


def pa_vector(table: CharacterTable, k: int, values: dict[int, int]) -> PAVector:
    """Validated constructor: support restricted to non-identity classes of
    order dividing k (vanishing elsewhere is forced, so nonzero entries on
    other classes are rejected)."""
    entries = []
    for i, v in sorted(values.items()):
        if v == 0:
            continue
        o = table.classes[i].element_order
        if o == 1:
            raise ConstraintError("identity class cannot carry augmentation")
        if k % o:
            raise ConstraintError(
                f"class {table.classes[i].name} has order {o}, not dividing {k}"
            )
        entries.append((i, v))
    return PAVector(k, tuple(entries))


class PATuple(Record):
    """Partial augmentations of u and its powers: one PAVector per divisor
    e > 1 of `order` (e = order is u itself; smaller e are proper powers)."""

    __slots__ = ("order", "levels")

    def __init__(self, order: int, levels: tuple[tuple[int, PAVector], ...]):
        keys = [e for e, _ in levels]
        if keys != sorted(set(keys)):
            raise ConstraintError("levels must be sorted by divisor")
        for e, pa in levels:
            if e <= 1 or order % e:
                raise ConstraintError(f"level {e} does not divide order {order}")
            if pa.order != e:
                raise ConstraintError(f"level {e} holds a PAVector of order {pa.order}")
        super().__init__(order, levels)

    def __hash__(self):
        return hash((self.order, self.levels))

    def has_level(self, e: int) -> bool:
        return any(k == e for k, _ in self.levels)

    def level(self, e: int) -> PAVector:
        for k, pa in self.levels:
            if k == e:
                return pa
        raise ConstraintError(
            f"partial augmentations for order {e} are missing from the tuple"
        )

    @property
    def top(self) -> PAVector:
        return self.level(self.order)

    def with_top(self, pa: PAVector) -> "PATuple":
        if pa.order != self.order or self.has_level(self.order):
            raise ConstraintError("top level already present or order mismatch")
        return PATuple(self.order, self.levels + ((self.order, pa),))

    def is_complete(self) -> bool:
        return all(self.has_level(e) for e in divisors(self.order) if e > 1)

    def twisted(self, perm: dict[int, int]) -> "PATuple":
        """Every level moved by the class permutation perm (identity 3 of
        the module docstring)."""
        return PATuple(self.order, tuple((e, pa.twisted(perm)) for e, pa in self.levels))

    def restrict(self, m: int) -> "PATuple":
        """The levels dividing m: the tuple of u^(order/m), of order m."""
        return PATuple(m, tuple((e, pa) for e, pa in self.levels if m % e == 0))


# -- character rows -----------------------------------------------------------


class CharRow(Record):
    """One usable character row, with values indexed by ordinary class
    index (None where a Brauer row is undefined)."""

    __slots__ = ("label", "degree", "values")

    def value_at(self, class_index: int) -> Cyc:
        v = self.values[class_index]
        if v is None:
            raise ConstraintError(
                f"{self.label} has no value on class index {class_index}"
            )
        return v


def char_rows(tables) -> tuple[CharRow, ...]:
    """Flatten the usable tables into CharRows over the ordinary classes.

    Every table, Brauer tables included, stores its rows over the ordinary
    classes, so a CharRow holds the row itself.  Each table's rows are
    built once and kept on the table; a table set joins them in order.
    """
    out = []
    for t in tables:
        if t.char_rows is None:
            t.char_rows = _table_rows(t, range(len(t.characters)))
        out.extend(t.char_rows)
    return tuple(out)


def _table_rows(t: CharacterTable, numbers):
    """The CharRows of t's rows numbered `numbers`, each labelled by its
    number in t."""
    # a separator keeps mod-3 row 11 apart from mod-31 row 1
    prefix = f"mod{t.prime}:" if t.is_brauer else "ord"
    return tuple(
        CharRow(f"{prefix}{r}", t.degree(t.characters[r]), t.characters[r])
        for r in numbers
    )


# -- integer trace blocks -------------------------------------------------------


def _integer_traces(value: Cyc, m: int, context: str) -> tuple[int, ...]:
    """Tr_{Q(zeta_m)/Q}(value * zeta_m^-l) for l = 0 .. m-1, each an integer
    as the value is a cyclotomic integer."""
    try:
        return value.twisted_traces(m)
    except FieldError as exc:
        raise ConstraintError(f"{context}: {exc}") from None


def trace_block(table: CharacterTable, m: int):
    """The integer coefficients of `table`'s rows at unit order m:
    block[r][l][i] = Tr_{Q(zeta_m)/Q}(psi_r(x) zeta_m^-l) for the r-th row
    of char_rows((table,)), l < m and x the i-th class of order dividing m.
    """
    return _traced(table, m)[0]


def _traced(table: CharacterTable, m: int):
    """(trace_block(table, m), ids, number): number maps each distinct trace
    tuple (Tr(psi(x) zeta_m^-l))_l met to its number, in the order met, and
    ids[r][i] is the number of the tuple of cell (r, i).  A trace tuple
    determines the value, so equal numbers mean equal values.

    Built on first use and kept on the table, so each distinct value is
    traced once per m, whichever cells hold it and whichever table sets the
    table joins.
    """
    got = table.trace_blocks.get(m)
    if got is None:
        support = table.classes_of_order_dividing(m)
        traced: dict[Cyc, int] = {}
        number: dict[tuple[int, ...], int] = {}
        ids = []
        for row in char_rows((table,)):
            cells = []
            for x in support:
                value = row.value_at(x)
                n = traced.get(value)
                if n is None:
                    t = _integer_traces(value, m, row.label)
                    n = traced[value] = number.setdefault(t, len(number))
                cells.append(n)
            ids.append(tuple(cells))
        traces = list(number)
        block = tuple(
            tuple(zip(*[traces[n] for n in cells])) if cells else ((),) * m
            for cells in ids
        )
        got = table.trace_blocks[m] = (block, tuple(ids), number)
    return got


def galois_twists(ordinary: CharacterTable, tables, k: int) -> dict:
    """The verified twists of order-k units: unit j mod k -> the class
    permutation x -> x^j on the classes of order dividing k, for every j
    that leaves each block of `tables` at k invariant (identity 3 of the
    module docstring).  The result is a group; j = 1 is always in it.

    Each j outside the group found so far is derived from the numbered
    trace tuples of the ordinary table and checked on those of the others;
    an accepted one joins as a generator and the group is closed under
    composition.
    """
    support = ordinary.classes_of_order_dividing(k)
    others = (t for t in tables if t is not ordinary)
    numbered = [_traced(t, k)[1:] for t in (ordinary, *others)]
    columns = list(zip(*numbered[0][0]))
    column = {col: i for i, col in enumerate(columns)}

    def derive(j):
        # sigma_j(v) has the traces l -> Tr(v zeta^(-l j^-1)): the image of
        # each number, None when no cell of the table holds that value
        inv = pow(j, -1, k)
        turn = [ell * inv % k for ell in range(k)]
        images = [
            [number.get(tuple(map(tr.__getitem__, turn))) for tr in number]
            for _, number in numbered
        ]
        at = [column.get(tuple(map(images[0].__getitem__, col))) for col in columns]
        if None in at or len(set(at)) < len(at):
            return None
        for (ids, _), image in zip(numbered[1:], images[1:]):
            for row in ids:
                if any(row[a] != image[n] for a, n in zip(at, row)):
                    return None
        return {x: support[a] for x, a in zip(support, at)}

    group = {1: {x: x for x in support}}
    for j in range(2, k):
        if gcd(j, k) != 1 or j in group:
            continue
        perm = derive(j)
        if perm is None:
            continue
        # <group, j> is the union of the cosets group * j^i
        base = dict(group)
        power, step = j, perm
        while power not in base:
            for h, ph in base.items():
                group[h * power % k] = {x: step[ph[x]] for x in support}
            power, step = power * j % k, {x: perm[step[x]] for x in support}
    return group


def _level_sums(table: CharacterTable, pa: PAVector):
    """The share of the proper power with partial augmentations `pa`, of
    order e, in the constant terms of `table`'s rows: for each row psi, the
    e sums sum_x eps_x C_e[psi][l][x], l < e (identity 1 of the module
    docstring).  Built on first use and kept on the table."""
    sums = table.level_sums.get(pa)
    if sums is None:
        support = table.classes_of_order_dividing(pa.order)
        try:
            entries = [(support.index(x), eps) for x, eps in pa.entries]
        except ValueError:
            raise ConstraintError(
                f"partial augmentations of order {pa.order} sit on a class"
                " of another order"
            ) from None
        sums = table.level_sums[pa] = tuple(
            tuple([sum([eps * c[i] for i, eps in entries]) for c in row])
            for row in trace_block(table, pa.order)
        )
    return sums


# -- system assembly -----------------------------------------------------------


class EpsVar(Record):
    __slots__ = ("class_index", "name")

    def __str__(self):
        return f"eps:{self.name}"


class AggVar(Record):
    """Sum of the eps over all classes of order `prime` (p-constant mode)."""

    __slots__ = ("prime",)

    def __str__(self):
        return f"agg:{self.prime}"


def usable_tables(bundle: TableBundle, k: int, use_brauer: bool = True):
    """Ordinary table plus, if `use_brauer`, the rows of each Brauer(p) table,
    p not dividing k, that restrict no ordinary irreducible to the p-regular
    classes: any other row gives only the rows (psi, l) of the irreducible
    it restricts (identity 7 of the module docstring).  A Brauer table with
    no such row is skipped, and so is every Brauer table of a prime the
    group is p-solvable for, unread: by Fong–Swan all its rows lift."""
    tables = [bundle.ordinary]
    if use_brauer:
        for t in bundle.brauer:
            if k % t.prime and t.prime not in bundle.p_solvable_for:
                added = _added_rows(bundle, t)
                if added.characters:
                    tables.append(added)
    return tuple(tables)


def _added_rows(bundle: TableBundle, t: CharacterTable) -> CharacterTable:
    """The rows of the Brauer table t of the bundle that equal no ordinary
    irreducible on the p-regular classes, as a table of their own whose rows
    keep their labels in t.  Built on first use and kept on the bundle."""
    added = bundle.added_rows.get(t)
    if added is None:
        regular = [cl.element_order % t.prime != 0 for cl in t.classes]
        restricted = {
            tuple([v if r else None for v, r in zip(chi, regular)])
            for chi in bundle.ordinary.characters
        }
        numbers = [r for r, row in enumerate(t.characters) if row not in restricted]
        rows = _table_rows(t, numbers)
        added = bundle.added_rows[t] = CharacterTable(
            t.group_name, t.group_order, t.classes, t.power_maps,
            tuple(row.values for row in rows), t.prime,
        )
        added.char_rows = rows
    return added


def build_system(
    bundle: TableBundle, k: int, proper: PATuple, tables=None
) -> LinSystem:
    """HeLP system for units of order k, given partial augmentations of all
    proper powers: one EpsVar per class of order dividing k, and one
    congruence row per distinct coefficient tuple."""
    if k < 2:
        raise ConstraintError("unit order must be at least 2")
    if tables is None:
        tables = usable_tables(bundle, k)
    levels = [proper.level(e) for e in divisors(k) if 1 < e < k]
    return _assemble(bundle.ordinary, tables, k, None, levels)


class Layout(Record):
    """Where the rows (psi, l) of an order-k system sit, in the merged
    order of _template: `at[j]` is the index r*k + l of the j-th one, r the
    row in char_rows(tables) and l < k, `labels[j]` and `ells[j]` name it,
    and the congruence rows own `runs` of them in turn."""

    __slots__ = ("at", "labels", "ells", "runs")


class Constants(Record):
    """The constant terms a(psi, l) of one system, one flat tuple in its
    layout's merged order; every congruence row of the system holds this
    one record."""

    __slots__ = ("layout", "values")


def _template(ordinary, tables, k, p):
    """What the order-k systems over `tables` share, kept on the ordinary
    table; p is None for the full system, else the summed prime of identity
    4.  The rows (psi, l) are merged by coefficient tuple C in first-seen
    order: the distinct C, the bounds of each one's run and the Layout.
    Then the degrees gathered in merged order, each proper level's share
    gathered likewise on first use, the lead variables, Σ x = 1 and the
    norm bound of identity 5 if the ordinary table is complete.  A few flat
    tuples, not one per row, keep the garbage collector's work small.  Each
    row's k coefficient tuples must sum to zero (identity 6)."""
    # the ordinary table stands for itself as None: a key holding it would
    # make the table a reference cycle
    key = (k, tuple(None if t is ordinary else t for t in tables), p)
    template = ordinary.templates.get(key)
    if template is not None:
        return template
    rows = char_rows(tables)
    support = ordinary.classes_of_order_dividing(k)
    used, columns = range(len(rows)), list(range(len(support)))
    if p is not None:
        used = [r for r in used if is_p_constant(rows[r], ordinary, p)]
        if not used:
            raise ConstraintError("no p-constant rows")
        agg = [i for i in columns if ordinary.classes[support[i]].element_order == p]
        columns = [i for i in columns if i not in agg] + agg[:1]
    top = [row for t in tables for row in trace_block(t, k)]
    merged: dict[tuple, list] = {}
    for r in used:
        if any(map(sum, zip(*top[r]))):
            raise AssertionError(f"{rows[r].label}: order-{k} coefficients sum to nonzero")
        for i, c in enumerate(top[r], r * k):
            if p is not None:
                c = tuple([c[j] for j in columns])
            merged.setdefault(c, []).append(i)
    at = tuple(chain.from_iterable(merged.values()))
    runs = tuple(map(len, merged.values()))
    layout = Layout(
        at, tuple([rows[i // k].label for i in at]), tuple([i % k for i in at]), runs
    )
    lead = [EpsVar(support[i], ordinary.classes[support[i]].name) for i in columns]
    if p is not None:
        lead[-1] = AggVar(p)
    norm = None
    if len(ordinary.characters) == len(ordinary.classes):
        sizes = [
            ordinary.classes[v.class_index].size
            if isinstance(v, EpsVar)
            else sum(c.size for c in ordinary.classes if c.element_order == v.prime)
            for v in lead
        ]
        scale = lcm(*sizes)
        norm = (tuple(scale // size for size in sizes), scale)
    template = ordinary.templates[key] = (
        tuple(merged),
        tuple(accumulate(runs, initial=0)),
        layout,
        tuple([rows[i // k].degree for i in at]),
        {},
        tuple(lead),
        (((1,) * len(lead), 1),),
        norm,
    )
    return template


def _assemble(ordinary, tables, k, p, levels) -> LinSystem:
    """The system of _template(...) for the proper powers `levels`, with
    constants a(psi, l) = deg psi + each level's share (identity 1), summed
    a whole list at a time in merged order.  Per distinct C the row
    (C, a, constants), C·x + a ≡ 0 (mod k) and C·x + a >= 0, a the least
    constant of its run and `constants` the Constants record shared by all
    rows; if two constants of one run differ mod k, the system is the clash
    row (0, 1, None).  Each row's sums in a level's share must total zero
    (identity 6)."""
    coefficients, bounds, layout, constants, shares, lead, equalities, norm = _template(
        ordinary, tables, k, p
    )
    for pa in levels:
        share = shares.get(pa)
        if share is None:
            # a level of order e repeats its e sums every e entries
            sums = [s * (k // pa.order) for t in tables for s in _level_sums(t, pa)]
            for r, row in enumerate(sums):
                if sum(row):
                    label = char_rows(tables)[r].label
                    raise AssertionError(f"{label}: level-{pa.order} sums total nonzero")
            flat = list(chain.from_iterable(sums))
            share = shares[pa] = tuple(map(flat.__getitem__, layout.at))
        constants = map(add, constants, share)
    constants = tuple(constants)
    residues = list(map(k.__rmod__, constants))
    record = Constants(layout, constants)
    congruences = []
    for coeffs, lo, hi in zip(coefficients, bounds, bounds[1:]):
        if len(set(residues[lo:hi])) > 1:
            congruences = [((0,) * len(lead), 1, None)]
            break
        congruences.append((coeffs, min(constants[lo:hi]), record))
    return LinSystem(lead, equalities, norm, k, tuple(congruences))


def is_p_constant(row: CharRow, table: CharacterTable, p: int) -> bool:
    """True iff the row takes a single value on all classes of order p."""
    vals = [
        row.values[i]
        for i, cl in enumerate(table.classes)
        if cl.element_order == p
    ]
    if any(v is None for v in vals):
        return False
    return len(set(vals)) <= 1


def build_system_p_constant(
    bundle: TableBundle, k: int, p: int, proper: PATuple, tables=None
) -> LinSystem:
    """HeLP system for order k = p*q (distinct primes) over the p-constant
    rows, with the order-p eps variables replaced by one AggVar, their sum
    (identity 4 of the module docstring).  Only the partial augmentations of
    u^p (order q) are read, not those of u^q."""
    q, rem = divmod(k, p)
    if rem or not is_prime(p) or not is_prime(q) or q == p:
        raise ConstraintError(f"{k} is not a product of two distinct primes with {p}")
    ordinary = bundle.ordinary
    if tables is None:
        tables = usable_tables(bundle, k)
    support = ordinary.classes_of_order_dividing(k)
    agg = [x for x in support if ordinary.classes[x].element_order == p]
    if not agg:
        raise ConstraintError(f"no classes of order {p}")
    # psi(u^q) = psi(x_p), the value of a unit with eps = 1 at the witness
    levels = (PAVector(p, ((agg[0], 1),)), proper.level(q))
    return _assemble(ordinary, tables, k, p, levels)


# -- inspection helpers --------------------------------------------------------


def eps_projection(sys: LinSystem, solution) -> dict[int, int]:
    """Class index -> eps value for one solver solution (zeros included)."""
    out = {}
    for var, val in zip(sys.variables, solution):
        if isinstance(var, EpsVar):
            out[var.class_index] = val
    return out


def numerators(sys: LinSystem, solution):
    """The layout of `sys` and k·mu = C·eps + a(psi, l) for every (psi, l)
    in its merged order: each run's dot product, repeated over the run,
    plus the constants.  Each must be a non-negative multiple of k, so
    anything else means a bug; the message names the first (psi, l) that
    is not."""
    record = sys.congruences[0][2]
    if record is None:
        raise AssertionError("a system with clashing constants has no solution")
    nonzero = [(i, v) for i, v in enumerate(solution) if v]
    dots = [sum([c[i] * v for i, v in nonzero]) for c, _, _ in sys.congruences]
    layout, k = record.layout, sys.modulus
    repeated = chain.from_iterable(map(repeat, dots, layout.runs))
    values = list(map(add, repeated, record.values))
    if min(values) < 0 or any(map(k.__rmod__, values)):
        j = next(j for j, v in enumerate(values) if v < 0 or v % k)
        key = (layout.labels[j], layout.ells[j])
        raise AssertionError(f"{key}: {values[j]} / {k} is no non-negative integer")
    return layout, values
