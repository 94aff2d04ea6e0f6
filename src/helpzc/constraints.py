"""Integer linear constraint systems on partial augmentations.

For a normalized torsion unit u of order k and a character psi with
representing matrix D(u), the multiplicity of zeta_k^l as an eigenvalue of
D(u) is

    mu_l(u, psi) = (1/k) * sum_{d | k} Tr_{Q(zeta_{k/d})/Q}( psi(u^d) * zeta_{k/d}^{-l} )

and must be a nonnegative integer.  Writing psi(u) = sum_x eps_x(u) psi(x)
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

Each character table gets one integer block of C_m per unit order m, built
from the stored exponents on first use, with each distinct value traced
once, and kept on the table; a table set's coefficients are its tables'
blocks joined.  What the systems of one order share (the rows merged by
coefficient tuple, the variables, the norm) is built once per order and
table set, and each proper power's sums of identity 1 once per table, so a
system computes only its constant terms.  Cyclotomic (Cyc) arithmetic only
loads and validates the character tables.
"""

from __future__ import annotations

from itertools import accumulate, chain
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
            t.char_rows = _table_rows(t)
        out.extend(t.char_rows)
    return tuple(out)


def _table_rows(t: CharacterTable):
    # a separator keeps mod-3 row 11 apart from mod-31 row 1
    prefix = f"mod{t.prime}:" if t.is_brauer else "ord"
    return tuple(
        CharRow(f"{prefix}{ri}", t.degree(row), row)
        for ri, row in enumerate(t.characters)
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
    """(trace_block(table, m), ids, traces): traces[n] is the n-th distinct
    trace tuple (Tr(psi(x) zeta_m^-l))_l met and ids[r][i] the number of
    the tuple of cell (r, i), so equal numbers mean equal values.

    Built on first use and kept on the table, so each distinct value is
    traced once per m, whichever cells hold it and whichever table sets the
    table joins.
    """
    got = table.trace_blocks.get(m)
    if got is None:
        support = table.classes_of_order_dividing(m)
        traced: dict[Cyc, int] = {}
        number: dict[tuple[int, ...], int] = {}
        traces, ids = [], []
        for row in char_rows((table,)):
            cells = []
            for x in support:
                value = row.value_at(x)
                n = traced.get(value)
                if n is None:
                    t = _integer_traces(value, m, row.label)
                    n = traced[value] = number.setdefault(t, len(traces))
                    if n == len(traces):
                        traces.append(t)
                cells.append(n)
            ids.append(tuple(cells))
        block = tuple(
            tuple(zip(*[traces[n] for n in cells])) if cells else ((),) * m
            for cells in ids
        )
        got = table.trace_blocks[m] = (block, tuple(ids), tuple(traces))
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
    numbered = []
    for t in (ordinary, *(t for t in tables if t is not ordinary)):
        _, ids, traces = _traced(t, k)
        numbered.append((ids, traces, {tr: n for n, tr in enumerate(traces)}))
    columns = list(zip(*numbered[0][0]))
    column = {col: i for i, col in enumerate(columns)}

    def derive(j):
        # sigma_j(v) has the traces l -> Tr(v zeta^(-l j^-1)): the image of
        # each number, None when no cell of the table holds that value
        inv = pow(j, -1, k)
        turn = [ell * inv % k for ell in range(k)]
        images = [
            [number.get(tuple(map(tr.__getitem__, turn))) for tr in traces]
            for _, traces, number in numbered
        ]
        at = [column.get(tuple(map(images[0].__getitem__, col))) for col in columns]
        if None in at or len(set(at)) < len(at):
            return None
        for (ids, _, _), image in zip(numbered[1:], images[1:]):
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
    """Ordinary table plus, if `use_brauer`, Brauer(p) for p not dividing k;
    Brauer tables of primes the group is p-solvable for add nothing and are
    skipped."""
    tables = [bundle.ordinary]
    if use_brauer:
        for t in bundle.brauer:
            if k % t.prime and t.prime not in bundle.p_solvable_for:
                tables.append(t)
    return tuple(tables)


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


def _template(ordinary, tables, k, p):
    """What the order-k systems over `tables` share, kept on the ordinary
    table; p is None for the full system, else the summed prime of identity
    4.  The rows (psi, l) are merged by coefficient tuple C in first-seen
    order: the distinct C, the bounds of each one's run in `at`, and per row
    its index r*k + l into the flat constants (r indexing char_rows(tables)),
    label and l.  Then the degrees, laid out like the constants, the lead
    variables, Σ x = 1 and the norm bound of identity 5 if the ordinary
    table is complete.  A few flat tuples, not one per row, keep the
    garbage collector's work small."""
    key = (k, tuple(tables), p)
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
        for i, c in enumerate(top[r], r * k):
            if p is not None:
                c = tuple([c[j] for j in columns])
            merged.setdefault(c, []).append(i)
    at = tuple(chain.from_iterable(merged.values()))
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
        tuple(accumulate(map(len, merged.values()), initial=0)),
        at,
        tuple([rows[i // k].label for i in at]),
        tuple([i % k for i in at]),
        [row.degree for row in rows for _ in range(k)],
        tuple(lead),
        (((1,) * len(lead), 1),),
        norm,
    )
    return template


def _assemble(ordinary, tables, k, p, levels) -> LinSystem:
    """The system of _template(...) for the proper powers `levels`, with
    a(psi, l) = deg psi + each level's kept sums (identity 1): per distinct
    C the row C·x + a ≡ 0 (mod k), C·x + a >= 0, a the least constant of
    its rows and `owners` each one's ((label, l), a(psi, l)); if two of
    them differ mod k, the system is the clash row (0, 1, None)."""
    coefficients, bounds, at, labels, ells, a_terms, lead, equalities, norm = _template(
        ordinary, tables, k, p
    )
    for pa in levels:
        # each level's sums repeat every e = pa.order
        sums = [s * (k // pa.order) for t in tables for s in _level_sums(t, pa)]
        a_terms = list(map(add, a_terms, chain.from_iterable(sums)))
    constants = list(map(a_terms.__getitem__, at))
    owners = tuple(zip(zip(labels, ells), constants))
    congruences = []
    for coeffs, lo, hi in zip(coefficients, bounds, bounds[1:]):
        run = constants[lo:hi]
        a = min(run)
        if any((b - a) % k for b in run):
            congruences = [((0,) * len(lead), 1, None)]
            break
        congruences.append((coeffs, a, owners[lo:hi]))
    return LinSystem(lead, equalities, frozenset(), norm, k, tuple(congruences))


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


def mu_values(sys: LinSystem, solution) -> dict[tuple[str, int], int]:
    """(row label, l) -> multiplicity, recomputed from the solution's eps:
    (C·eps + a(psi, l)) / k for each owner of each congruence row, which
    must be a nonnegative integer, so anything else means a bug."""
    out = {}
    k = sys.modulus
    nonzero = [(i, v) for i, v in enumerate(solution) if v]
    for coeffs, _, owners in sys.congruences:
        if owners is None:
            raise AssertionError("a system with clashing constants has no solution")
        dot = sum([coeffs[i] * v for i, v in nonzero])
        for key, a in owners:
            count, rem = divmod(dot + a, k)
            if rem or count < 0:
                raise AssertionError(f"{key}: {dot + a} / {k} is no nonnegative integer")
            out[key] = count
    return out


def mu_sums(sys: LinSystem, solution) -> dict[str, int]:
    """Row label -> sum of its multiplicities (must equal the degree)."""
    out: dict[str, int] = {}
    for (label, _), val in mu_values(sys, solution).items():
        out[label] = out.get(label, 0) + val
    return out


def assert_mu_sums(sys: LinSystem, solution, rows) -> None:
    """The multiplicities of each row must be nonnegative integers summing
    to its degree; both are implied by the system, so a violation means a
    bug."""
    sums = mu_sums(sys, solution)
    for row in rows:
        if row.label in sums and sums[row.label] != row.degree:
            raise AssertionError(
                f"multiplicity sum {sums[row.label]} != degree {row.degree}"
                f" for {row.label}"
            )
