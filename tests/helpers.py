"""Shared test utilities: random system generation and brute-force oracles."""

import json
from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt, lcm
from operator import mul

from helpzc import intsolve, verify
from helpzc.arith import divisors, euler_phi, is_prime, prime_factors
from helpzc.bundlefile import bundle_to_json
from helpzc.chartables import (
    CharacterTable,
    TableBundle,
    cyclic_table,
    load_bundle,
    resolve_bundle_path,
)
from helpzc.constraints import (
    AggVar,
    ConstraintError,
    EpsVar,
    PATuple,
    PAVector,
    build_system,
    char_rows,
    eps_projection,
    is_p_constant,
    numerators,
    pa_vector,
    trace_block,
    usable_tables,
)
from helpzc.cyclotomics import (
    ONE,
    ZERO,
    cyclotomic_polynomial,
    ramanujan_sums,
    root_of_unity,
)
from helpzc.intsolve import Finite, LinSystem, solve_all
from helpzc.verify import _aggregated_rules_out, _merge_levels, canonical_key


def compatible(tup_a, tup_b):
    """The two power tuples describe the same unit only if they agree on
    every order both of them cover: the pairwise reference for
    verify._merge_levels, which checks while it merges."""
    shared = gcd(tup_a.order, tup_b.order)
    return all(
        tup_a.level(e) == tup_b.level(e) for e in divisors(shared) if e > 1
    )


def proper(tup):
    """The tuple's levels below its own order: those of its proper powers."""
    return PATuple(tup.order, tuple((e, pa) for e, pa in tup.levels if e != tup.order))


def brute_force_pa_solutions(bundle, k, proper_levels, bound, tables=None):
    """All eps vectors over the classes of order dividing k, entries in
    [-bound, bound] and summing to 1, for which every eigenvalue multiplicity
    mu_l(u, psi) is a nonnegative integer.

    Computed straight from the trace formula, bypassing the system builder
    and the integer solver entirely.  `proper_levels` maps each divisor
    e of k with 1 < e < k to {class index: eps value} for u^(k/e).
    """
    ordinary = bundle.ordinary
    if tables is None:
        tables = (ordinary,) + tuple(t for t in bundle.brauer if k % t.prime)
    # every row, Brauer rows included, is indexed by the ordinary classes
    rows = [(t.degree(row), row) for t in tables for row in t.characters]
    support = ordinary.classes_of_order_dividing(k)

    def level_value(values, items):
        total = ZERO
        for x, c in items:
            total = total + values[x] * c
        return total

    def trace_term(val, e, ell):
        return trace_to_rational(val * root_of_unity(e, -ell), e)

    # the d > 1 terms depend only on the fixed proper levels
    fixed = []
    for degree, values in rows:
        per_ell = []
        for ell in range(k):
            total = Fraction(0)
            for d in divisors(k):
                e = k // d
                if e == 1:
                    total += trace_term(ONE * degree, 1, ell)
                elif e < k:
                    total += trace_term(
                        level_value(values, proper_levels[e].items()), e, ell
                    )
            per_ell.append(total)
        fixed.append(per_ell)

    solutions = []
    for assignment in product(range(-bound, bound + 1), repeat=len(support)):
        if sum(assignment) != 1:
            continue
        good = True
        for (_, values), per_ell in zip(rows, fixed):
            val = level_value(values, zip(support, assignment))
            for ell in range(k):
                total = per_ell[ell] + trace_term(val, k, ell)
                mu, rem = divmod(total, k)
                if rem or mu < 0:
                    good = False
                    break
            if not good:
                break
        if good:
            solutions.append(assignment)
    return solutions


def trace_to_rational(value, m):
    """Trace oracle: Tr_{Q(zeta_m)/Q}(value); the value must lie in
    Q(zeta_m).  Equals the sum of value.galois(j) over j coprime to m,
    computed term by term from the Ramanujan sums Tr(zeta_m^j)."""
    step = value._step_into(m)
    sums = ramanujan_sums(m)
    return sum((c * sums[e * step] for e, c in value.coeffs.items()), Fraction(0))


def bundle_of(name):
    if name.startswith("cyclic:"):
        return cyclic_table(int(name.split(":")[1]))
    return load_bundle(resolve_bundle_path(name))


def built_calls(monkeypatch, bundle, checker, options):
    """(builder name, arguments, system) for every system, full or
    p-constant, that checker(bundle, options) builds; undoes every
    monkeypatch when done."""
    calls = []
    for name in ("build_system", "build_system_p_constant"):
        real = getattr(verify, name)

        def recording(*args, real=real, name=name):
            system = real(*args)
            calls.append((name, args, system))
            return system

        monkeypatch.setattr(verify, name, recording)
    checker(bundle, options)
    monkeypatch.undo()
    return calls


def built_systems(monkeypatch, bundle, checker, options):
    """Every system, full or p-constant, that checker(bundle, options)
    builds."""
    return [system for _, _, system in built_calls(monkeypatch, bundle, checker, options)]


def constant_terms(sys):
    """(row label, l) -> a(psi, l) in the system's merged order, read from
    the Constants record that its congruence rows share; empty for the
    clash row, which has none."""
    record = sys.congruences[0][2]
    if record is None:
        return {}
    layout = record.layout
    return dict(zip(zip(layout.labels, layout.ells), record.values))


# -- reference assembly ----------------------------------------------------------


def reference_system(bundle, k, proper, tables, p=None):
    """The HeLP system of one combination of proper powers, assembled from
    nothing as build_system (p None) and build_system_p_constant assemble
    it: every constant term summed and every (psi, l) row merged by its
    coefficient tuple anew, with no template or sum kept between systems.
    An oracle for the constraints module's per-order templates."""
    ordinary = bundle.ordinary
    rows = list(enumerate(char_rows(tables)))
    support = ordinary.classes_of_order_dividing(k)
    top = _reference_coefficients(tables, k)
    if p is None:
        levels = [proper.level(e) for e in divisors(k) if 1 < e < k]
        lead = [EpsVar(i, ordinary.classes[i].name) for i in support]
        return _reference_assemble(ordinary, tables, k, rows, levels, top, lead)
    rows = [(r, row) for r, row in rows if is_p_constant(row, ordinary, p)]
    agg = [i for i, x in enumerate(support) if ordinary.classes[x].element_order == p]
    keep = [i for i, x in enumerate(support) if ordinary.classes[x].element_order != p]
    witness = agg[0]
    levels = (PAVector(p, ((support[witness], 1),)), proper.level(k // p))
    coefficients = [
        [tuple(c[i] for i in keep) + (c[witness],) for c in top[r]] for r, _ in rows
    ]
    lead = [EpsVar(support[i], ordinary.classes[support[i]].name) for i in keep]
    lead.append(AggVar(p))
    return _reference_assemble(ordinary, tables, k, rows, levels, coefficients, lead)


def _reference_coefficients(tables, m):
    return [row for t in tables for row in trace_block(t, m)]


def _reference_constant_terms(ordinary, tables, k, levels, rows):
    """a(psi, l) for each (r, psi) in `rows` and l < k: deg psi plus one
    dot product per proper power."""
    parts = []
    for pa in levels:
        support = ordinary.classes_of_order_dividing(pa.order)
        try:
            entries = [(support.index(x), eps) for x, eps in pa.entries]
        except ValueError:
            raise ConstraintError(
                f"partial augmentations of order {pa.order} sit on a class"
                " of another order"
            ) from None
        parts.append((pa.order, _reference_coefficients(tables, pa.order), entries))
    out = []
    for r, row in rows:
        terms = [row.degree] * k
        for e, values, entries in parts:
            level = [sum(eps * c[i] for i, eps in entries) for c in values[r]]
            terms = [a + b for a, b in zip(terms, level * (k // e))]
        out.append(tuple(terms))
    return out


def _reference_assemble(ordinary, tables, k, rows, levels, coefficients, lead):
    a_terms = _reference_constant_terms(ordinary, tables, k, levels, rows)
    merged: dict[tuple, list] = {}
    for (_, row), coeffs, a_row in zip(rows, coefficients, a_terms):
        for ell in range(k):
            merged.setdefault(coeffs[ell], []).append(((row.label, ell), a_row[ell]))

    congruences = []
    for coeffs, owners in merged.items():
        a = min(b for _, b in owners)
        if any((b - a) % k for _, b in owners):
            congruences = [((0,) * len(lead), 1, None)]
            break
        congruences.append((coeffs, a, tuple(owners)))

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
    equality = ((1,) * len(lead), 1)
    return LinSystem(tuple(lead), (equality,), norm, k, tuple(congruences))


def full_solve_candidates(bundle, k, store, options):
    """Reference for verify._candidates without Galois orbits: one system
    for every compatible combination of the store's tuples of each order
    k/p, so the store must hold those orders.  The sorted complete tuples,
    or None when a system is infinite or exhausts the node budget."""
    subs = [store.solutions[k // p] for p in prime_factors(k) if p < k]
    tables = usable_tables(bundle, k, options.use_brauer)
    found = set()
    for combo in product(*subs):
        if not all(compatible(a, b) for a, b in combinations(combo, 2)):
            continue
        proper = _merge_levels(k, combo)
        if options.p_constant and _aggregated_rules_out(
            bundle, k, proper, tables, options
        ):
            continue
        sys = build_system(bundle, k, proper, tables)
        result = solve_all(sys, max_nodes=options.max_nodes)
        if not isinstance(result, Finite):
            return None
        for sol in result.solutions:
            top = pa_vector(bundle.ordinary, k, eps_projection(sys, sol))
            found.add(proper.with_top(top))
    return sorted(found, key=canonical_key)


def with_rows(b, rows):
    """Bundle b plus a fake Brauer table, for the least prime p not dividing
    the group order, that holds every ordinary character of b and then
    `rows`: a way to put rows the loader would refuse into a system.  With
    no p-singular class, it is read at every order; its copies of the
    ordinary rows add nothing there and usable_tables drops them (identity
    7 of constraints), so `rows` are what it adds."""
    t = b.ordinary
    n = t.group_order
    p = next(p for p in range(2, 2 * n + 3) if is_prime(p) and n % p)
    fake = CharacterTable(
        t.group_name, n, t.classes, t.power_maps, t.characters + tuple(rows),
        prime=p,
    )
    return TableBundle(t, b.brauer + (fake,))


def brauer_table(b, p):
    """The Brauer table of bundle b for the prime p, or None."""
    return next((t for t in b.brauer if t.prime == p), None)


def asymmetric_row():
    """The character g -> zeta_12 of C12, but with the value of g^4 also at
    g^8: psi(x^j) != sigma_j(psi(x)) for x = g^4 and j = 2 mod 3."""
    row = list(cyclic_table(12).ordinary.characters[1])
    row[8] = row[4]
    return tuple(row)


def sign_rows(n, nonneg, modulus=1):
    """x_i >= 0 over n variables for each i in `nonneg`, as the congruence
    rows (modulus·e_i, 0): the one form in which a LinSystem bounds a
    sign."""
    return tuple(
        (tuple(modulus * (i == j) for j in range(n)), 0, None) for i in sorted(nonneg)
    )


def random_system(rng, max_vars=4, cmax=6, name_prefix="x"):
    n = rng.randint(1, max_vars)
    m = rng.randint(1, 3)
    equalities = tuple(
        (
            tuple(rng.randint(-cmax, cmax) for _ in range(n)),
            rng.randint(-cmax, cmax),
        )
        for _ in range(m)
    )
    if rng.random() < 0.5:
        signed = range(n)
    else:
        signed = [i for i in range(n) if rng.random() < 0.5]
    return LinSystem(
        tuple(f"{name_prefix}{i}" for i in range(n)), equalities,
        congruences=sign_rows(n, signed),
    )


def box_solutions(sys, bound):
    """All solutions with every coordinate in [-bound, bound], sorted."""
    n = len(sys.variables)
    return tuple(
        pt
        for pt in product(range(-bound, bound + 1), repeat=n)
        if sys.check_solution(pt)
    )


def in_box(point, bound):
    return all(-bound <= v <= bound for v in point)


# -- reference simplex --------------------------------------------------------


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


def reference_simplex(inequalities, objective, maximize: bool = True):
    """Exact LP over free rational variables t: rows are coeffs·t >= rhs.

    The Fraction-tableau simplex helpzc used before its integer kernel, kept
    verbatim as an oracle for `simplex_opt`.

    Returns Optimal(value, point), Unbounded(ray), or Infeasible().  The
    point/ray live in t-space; the ray certifies unboundedness of the
    requested direction.
    """
    # imported here, as the LP layer is, so that importing these helpers
    # leaves `helpzc.simplex` unloaded
    from helpzc.simplex import Infeasible, Optimal, Unbounded

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


# Malformed bundles, each as (id, base bundle, path into its JSON, the value
# put there, the start of the error it must give).  Each one either crashed
# the loader, or loaded with a value that is not the file's (a float size or
# order cut to an integer, a boolean read as 0 or 1, a name made a string
# by str()) or with a key that is not read (extra character rows, a
# misspelt key).
M11_CYC = ("ordinary", "characters", 2, 6, "coeffs", 0)  # zeta_8 + zeta_8^3
BUNDLE_CORRUPTIONS = [
    ("zero-denominator", "m11", ("ordinary", "characters", 1, 1), "1/0",
     "M11: bad value in characters: not a cyclotomic integer encoding: '1/0'"),
    ("brauer-not-list", "m11", ("brauer",), 7,
     "M11: brauer must be of type list"),
    ("power-maps-list", "m11", ("ordinary", "power_maps"), [[0]],
     "M11: power_maps must be of type dict"),
    ("characters-not-list", "m11", ("ordinary", "characters"), 7,
     "M11: characters must be of type list"),
    ("extra-characters-listed", "m11", ("ordinary", "extra_characters"), [],
     "M11: extra_characters is not read: every character is a non-negative"
     " sum of irreducibles"),
    ("flags-listed", "m11", ("flags",), {},
     "M11: flags is not read: nilpotency comes from the class sizes"),
    ("brauer-classes-not-list", "m11", ("brauer", 0, "classes"), 7,
     "M11 mod 5: classes must be of type list"),
    ("brauer-characters-not-list", "m11", ("brauer", 0, "characters"), 7,
     "M11 mod 5: characters must be of type list"),
    ("brauer-class-not-string", "m11", ("brauer", 0, "classes", 0), ["1a"],
     "M11 mod 5: class name must be of type str"),
    ("brauer-prime-string", "m11", ("brauer", 0, "p"), "5",
     "M11 Brauer table: p must be of type int"),
    ("class-size-float", "s3", ("ordinary", "classes", 1, "size"), 3.9,
     "S3 class 2a: size must be of type int"),
    ("class-order-float", "s3", ("ordinary", "classes", 1, "order"), 2.0,
     "S3 class 2a: order must be of type int"),
    ("group-order-bool", "C1", ("order",), True,
     "C1: order must be of type int"),
    ("power-map-entry-bool", "s3", ("ordinary", "power_maps", "2", 0), False,
     "S3: malformed power map for '2'"),
    # three spellings of 3 besides s3's own "3": int() reads the first two as
    # 3, and fails on the third
    ("power-map-key-leading-zero", "s3", ("ordinary", "power_maps", "03"), [0, 1, 0],
     "S3: malformed power map for '03'"),
    ("power-map-key-arabic-indic", "s3", ("ordinary", "power_maps", "\u0663"), [0, 1, 0],
     "S3: malformed power map for '\u0663'"),
    ("power-map-key-superscript", "s3", ("ordinary", "power_maps", "\u00b3"), [0, 1, 0],
     "S3: malformed power map for '\u00b3'"),
    ("exponent-bool", "m11", M11_CYC + (0,), True,
     "M11: bad value in characters: exponent True out of range"),
    ("coefficient-bool", "m11", M11_CYC + (1,), True,
     "M11: bad value in characters: coefficient True is not an integer"),
    ("coefficient-float", "m11", M11_CYC + (1,), 1.0,
     "M11: bad value in characters: coefficient 1.0 is not an integer"),
    # 3a^2 = 3a: orders are kept and rows stay orthogonal, but 3a holds z3
    ("power-map-against-values", "sl23", ("ordinary", "power_maps", "2"),
     [0, 0, 2, 3, 1, 2, 3],
     "SL(2,3): power map for 2 sends 3a to 3a, where character 1 is z3,"
     " not -1 - z3"),
    # z3 at 2a: a value at an element of order 2 lies in Q(zeta_2)
    ("value-outside-its-field", "m11", ("brauer", 0, "characters", 1, 1),
     {"n": 3, "coeffs": [[1, 1]]},
     "M11 mod 5: character 1 at class 2a is encoded over zeta_3, outside"
     " Q(zeta_2)"),
    # a huge field is refused before the value is reduced, whose cost grows
    # with n
    ("value-over-zeta-2-to-the-70", "s3", ("ordinary", "characters", 1, 1),
     {"n": 2**70, "coeffs": [[0, 1]]},
     f"S3: character 1 at class 2a is encoded over zeta_{2**70}, outside"
     " Q(zeta_2)"),
    ("value-over-zeta-20011", "s3", ("ordinary", "characters", 1, 1),
     {"n": 20011, "coeffs": [[20010, 1]]},
     "S3: character 1 at class 2a is encoded over zeta_20011, outside"
     " Q(zeta_2)"),
    # every value and coefficient is a JSON integer: no string is read
    ("value-decimal-string", "m11", ("ordinary", "characters", 1, 1), "2.0",
     "M11: bad value in characters: not a cyclotomic integer encoding: '2.0'"),
    ("value-rational-string", "m11", ("ordinary", "characters", 1, 1), "2/3",
     "M11: bad value in characters: not a cyclotomic integer encoding: '2/3'"),
    ("coefficient-exponent-string", "m11", M11_CYC + (1,), "1e3",
     "M11: bad value in characters: coefficient '1e3' is not an integer"),
    ("coefficient-rational-string", "m11", M11_CYC + (1,), "1/2",
     "M11: bad value in characters: coefficient '1/2' is not an integer"),
    # a name is a JSON string, not made one by str()
    ("group-null", "m11", ("group",), None,
     "bundle: missing field 'group'"),
    ("group-not-string", "m11", ("group",), ["M11"],
     "bundle: group must be of type str, got ['M11']"),
    ("class-name-not-string", "s3", ("ordinary", "classes", 1, "name"), [2, "a"],
     "S3: name must be of type str, got [2, 'a']"),
    # a key that is not read is refused: a misspelt one would drop its data
    ("brauer-key-misspelt", "m11", ("Brauer",), [],
     "M11: unknown field 'Brauer'"),
    ("ordinary-unknown-key", "m11", ("ordinary", "Characters"), [],
     "M11: unknown field 'Characters'"),
    ("class-unknown-key", "s3", ("ordinary", "classes", 1, "sise"), 3,
     "S3 class 2a: unknown field 'sise'"),
    ("brauer-node-unknown-key", "m11", ("brauer", 0, "prime"), 5,
     "M11 mod 5: unknown field 'prime'"),
    ("value-unknown-key", "m11", ("ordinary", "characters", 2, 6, "den"), 1,
     "M11: bad value in characters: malformed cyclotomic value encoding"),
    # a degree lies in Q(zeta_2), the field of the identity's values
    ("degree-not-rational", "s3", ("ordinary", "characters", 1, 0),
     {"n": 3, "coeffs": [[1, 1]]},
     "S3: character 1 at class 1a is encoded over zeta_3, outside Q(zeta_2)"),
    ("coefficients-not-list", "m11", M11_CYC[:-1], 7,
     "M11: bad value in characters: coefficients must be a list: 7"),
    # the classes and power maps are checked before any value is decoded
    ("group-order-zero", "s3", ("order",), 0,
     "S3: group order must be positive"),
    ("no-classes", "s3", ("ordinary", "classes"), [],
     "S3: table has no classes"),
    ("class-entry-not-object", "s3", ("ordinary", "classes", 1), "2a",
     "S3: malformed class entry '2a'"),
    ("duplicate-class-names", "s3", ("ordinary", "classes", 2, "name"), "2a",
     "S3: duplicate class names"),
    ("two-identity-classes", "s3", ("ordinary", "classes", 1, "order"), 1,
     "S3: need exactly one identity class of size 1"),
    ("identity-class-size-two", "s3", ("ordinary", "classes", 0, "size"), 2,
     "S3: need exactly one identity class of size 1"),
    ("class-order-not-dividing", "s3", ("ordinary", "classes", 2, "order"), 5,
     "S3: class 3a order 5 does not divide 6"),
    ("class-size-zero", "s3", ("ordinary", "classes", 1, "size"), 0,
     "S3: class 2a has nonpositive size"),
    ("power-map-short", "s3", ("ordinary", "power_maps", "2"), [0, 0],
     "S3: power map for 2 has wrong length"),
    ("power-map-bad-index", "s3", ("ordinary", "power_maps", "2"), [0, 0, 5],
     "S3: power map for 2 has a bad class index 5"),
    ("no-characters", "s3", ("ordinary", "characters"), [],
     "S3: table has no characters"),
    ("brauer-p-not-prime", "m11", ("brauer", 0, "p"), 4,
     "M11 mod 4: 4 is not a prime"),
    ("brauer-p-not-dividing", "m11", ("brauer", 0, "p"), 7,
     "M11 mod 7: 7 does not divide the group order"),
]


def corrupted_bundle(base, path, value):
    """The JSON of bundle `base` (a bundled name, or C1) with `value` put
    at `path`."""
    if base == "C1":
        data = bundle_to_json(cyclic_table(1))
    else:
        data = json.loads(resolve_bundle_path(base).read_text())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


# -- reference elimination -------------------------------------------------------


def reference_reduce(sys):
    """The elimination as it was made before the congruences were taken
    modulo k: an exact column reduction of the equality rows and then of
    the congruence rows, each congruence row with a private slack column of
    value -k, every column held as its transform over x.  Returns the
    origin solved from it, None when the rows have no integer solution, and
    the basis it leaves, before any LLL step."""
    n, k = len(sys.variables), sys.modulus
    rows = [c for c, _ in sys.equalities] + [c for c, _, _ in sys.congruences]
    rhs = [b for _, b in sys.equalities] + [-a for _, a, _ in sys.congruences]
    ucols = [[int(i == j) for i in range(n)] for j in range(n)]
    avail = list(range(n))
    origin = [0] * n
    for r, row in enumerate(rows):
        val = {j: sum(map(mul, row, ucols[j])) for j in avail}
        if r >= len(sys.equalities):
            avail.append(len(ucols))
            val[len(ucols)] = -k
            ucols.append([0] * n)
        live = [j for j in avail if val[j]]
        if origin is not None:
            acc = rhs[r] - sum(map(mul, row, origin))
            if r >= len(sys.equalities):
                acc %= k
        if not live:
            if origin is not None and acc:
                origin = None
            continue
        while True:
            j0 = min(live, key=lambda j: (abs(val[j]), j))
            if val[j0] < 0:
                val[j0] = -val[j0]
                ucols[j0] = [-v for v in ucols[j0]]
            if len(live) == 1:
                break
            for j in live:
                q = val[j] // val[j0]
                if q and j != j0:
                    val[j] -= q * val[j0]
                    ucols[j] = [a - q * b for a, b in zip(ucols[j], ucols[j0])]
            live = [j for j in live if val[j]]
        if origin is not None:
            y, rem = divmod(acc, val[j0])
            origin = None if rem else [o + y * v for o, v in zip(origin, ucols[j0])]
        avail.remove(j0)
    basis = tuple(tuple(ucols[j]) for j in avail)
    return origin and tuple(origin), basis


def hermite_rows(vectors):
    """The Hermite normal form of the lattice the integer vectors span, as
    its nonzero rows: each row's leading entry positive and the entries
    above it reduced modulo it.  Two sets of vectors span one lattice
    exactly when their forms are equal."""
    rows = [list(v) for v in vectors if any(v)]
    out = []
    for col in range(len(rows[0]) if rows else 0):
        live = [r for r in rows if r[col]]
        if not live:
            continue
        while len(live) > 1:
            p = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not p:
                    q = r[col] // p[col]
                    r[:] = [a - q * b for a, b in zip(r, p)]
            live = [r for r in live if r[col]]
        p = live[0]
        if p[col] < 0:
            p[:] = [-a for a in p]
        for r in out:
            q = r[col] // p[col]
            r[:] = [a - q * b for a, b in zip(r, p)]
        out.append(p)
        rows = [r for r in rows if r is not p and any(r)]
    return tuple(map(tuple, out))


def in_lattice(vector, hermite):
    """Whether the vector lies in the lattice of the form `hermite_rows`
    gives."""
    v = list(vector)
    for row in hermite:
        col = next(i for i, a in enumerate(row) if a)
        q, rem = divmod(v[col], row[col])
        if rem:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


# -- reference search -----------------------------------------------------------


def solve_unreduced(system, **kwargs):
    """solve_all on the basis that the reduction hands to its LLL step,
    the Hermite normal form modulo k, with the Gram–Schmidt data of that
    basis from `reference_gram_schmidt`: an oracle for the search on the
    LLL-reduced basis, which must find the same solutions."""
    saved = intsolve._lll, intsolve._lattice
    intsolve._lll = lambda basis, weights: (
        basis, *reference_gram_schmidt(basis, weights)
    )
    intsolve._lattice = (None, None)
    try:
        return solve_all(system, **kwargs)
    finally:
        intsolve._lll, intsolve._lattice = saved


def round_robin_propagate(rows, intervals):
    """Interval propagation by up to 40 rounds over every row c·t >= r of
    `rows`, the (coeffs, r) pairs as the search is given them, stopping
    after a round that changes nothing; None on conflict.  An oracle for
    the worklist of intsolve._interval_propagate that shares nothing with
    it: c_j·t_j must reach r minus the most the other terms reach over the
    box, each term c_i·t_i reaching max(c_i·lo_i, c_i·hi_i)."""
    lo = [a for a, _ in intervals]
    hi = [b for _, b in intervals]
    for _ in range(40):
        changed = False
        for coeffs, r in rows:
            most = [max(c * a, c * b) for c, a, b in zip(coeffs, lo, hi)]
            total = sum(most)
            if total < r:
                return None
            for j, c in enumerate(coeffs):
                need = r - (total - most[j])
                if c > 0 and -(-need // c) > lo[j]:
                    lo[j] = -(-need // c)
                    changed = True
                elif c < 0 and need // c < hi[j]:
                    hi[j] = need // c
                    changed = True
        if not changed:
            break
    return list(zip(lo, hi))


def reference_galois_twists(ordinary, tables, k):
    """galois_twists with each x -> x^j derived by looking up the whole
    twisted column of the ordinary block, all rows and all l, and checked
    on every cell of every other block: an oracle for the derivation from
    trace ids."""
    support = ordinary.classes_of_order_dividing(k)
    top = trace_block(ordinary, k)
    others = [trace_block(t, k) for t in tables if t is not ordinary]
    column = {
        tuple(c[i] for row in top for c in row): i for i in range(len(support))
    }

    def derive(j):
        inv = pow(j, -1, k)
        at = [
            column.get(tuple(row[ell * inv % k][i] for row in top for ell in range(k)))
            for i in range(len(support))
        ]
        if None in at or len(set(at)) < len(at):
            return None
        for block in others:
            for row in block:
                if any(
                    tuple(row[ell][a] for a in at) != row[ell * inv % k]
                    for ell in range(k)
                ):
                    return None
        return {x: support[a] for x, a in zip(support, at)}

    group = {1: {x: x for x in support}}
    for j in range(2, k):
        if gcd(j, k) != 1 or j in group:
            continue
        perm = derive(j)
        if perm is None:
            continue
        base = dict(group)
        power, step = j, perm
        while power not in base:
            for h, ph in base.items():
                group[h * power % k] = {x: step[ph[x]] for x in support}
            power, step = power * j % k, {x: perm[step[x]] for x in support}
    return group


# -- reference cyclotomic canonical form ------------------------------------------


def _reference_power_table(n):
    """x^e mod Phi_n for e in 0..n-1, as dense integer vectors."""
    deg = euler_phi(n)
    phi_poly = cyclotomic_polynomial(n)
    rows, cur = [], [1] + [0] * (deg - 1)
    for _ in range(n):
        rows.append(tuple(cur))
        top = cur[deg - 1]
        cur = [0] + cur[:-1]
        cur = [c - top * f for c, f in zip(cur, phi_poly)]
    return rows


def _reference_reduce(n, sparse):
    table = _reference_power_table(n)
    dense = [Fraction(0)] * euler_phi(n)
    for e, c in sparse.items():
        for i, r in enumerate(table[e]):
            dense[i] += c * r
    return {i: c for i, c in enumerate(dense) if c}


def _reference_descend(n, d, coeffs):
    """Coordinates over the zeta_d power basis by Gauss–Jordan in Fractions
    on the canonical vectors of zeta_d^j inside Q(zeta_n); None when the
    value is not in their span."""
    if d == 1:
        return dict(coeffs) if set(coeffs) <= {0} else None
    deg_n, deg_d = euler_phi(n), euler_phi(d)
    table = _reference_power_table(n)
    cols = [table[(n // d * j) % n] for j in range(deg_d)]
    # the augmented system [M | v], M's columns the zeta_d^j
    rows = [
        [Fraction(cols[j][i]) for j in range(deg_d)] + [Fraction(coeffs.get(i, 0))]
        for i in range(deg_n)
    ]
    r = 0
    for col in range(deg_d):
        piv = next(i for i in range(r, deg_n) if rows[i][col])
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(deg_n):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    if any(rows[i][-1] for i in range(deg_d, deg_n)):
        return None
    return {j: rows[j][-1] for j in range(deg_d) if rows[j][-1]}


def reference_canonical(n, coeffs):
    """(conductor, {exponent: Fraction}) of sum(c * zeta_n^e), found in
    Fraction arithmetic as helpzc's Cyc once did: fold, move n = 2 mod 4
    to n/2, reduce modulo Phi_n, and descend by linear algebra to each
    maximal subfield in turn.  An oracle for the integer canonical form."""
    folded = {}
    for e, c in coeffs.items():
        folded[e % n] = folded.get(e % n, Fraction(0)) + Fraction(c)
    if n % 4 == 2:
        m, moved = n // 2, {}
        for e, c in folded.items():
            e2 = e * ((n // 2 + 1) // 2) % m
            moved[e2] = moved.get(e2, Fraction(0)) + (-c if e % 2 else c)
        n, folded = m, moved
    coeffs = _reference_reduce(n, folded)
    if not coeffs:
        return 1, {}
    while n > 1:
        for p in prime_factors(n):
            d = n // p
            if d % 4 == 2:
                d //= 2
            down = _reference_descend(n, d, coeffs)
            if down is not None:
                n, coeffs = d, down
                break
        else:
            break
    return n, coeffs


def reference_str(n, coeffs):
    """The display of a canonical form, as Cyc.__str__ gives it."""
    parts = []
    for e, c in sorted(coeffs.items()):
        mono = f"z{n}" if e == 1 else f"z{n}^{e}"
        if e == 0:
            parts.append(str(c))
        else:
            parts.append(mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}")
    out = parts[0] if parts else "0"
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


# -- reference LLL ------------------------------------------------------------


def reference_lll(basis, weights):
    """Cohen's Algorithm 2.6.7 as intsolve._lll follows it, with every step
    b[k] -= q·b[l] applied at once and the same δ = 99/100 and tie rules.
    An oracle that must give the same basis, vector for vector."""

    def length(v):
        return sum(map(mul, map(mul, weights, v), v))

    n = len(basis)
    b = [None, *sorted(map(list, basis), key=length)]
    d = [1] + [0] * n
    lam = [[0] * (n + 1) for _ in range(n + 1)]

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l]:
            q = (2 * lam[k][l] + d[l]) // (2 * d[l])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l]
            for i in range(1, l):
                lam[k][i] -= q * lam[l][i]

    k, kmax = 1, 0
    while k <= n:
        if k > kmax:
            kmax = k
            wk = list(map(mul, weights, b[k]))
            for j in range(1, k + 1):
                u = sum(map(mul, wk, b[j]))
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


# -- reference norm bound -----------------------------------------------------


def reference_ldl(basis, weights):
    """The norm's LDLᵀ over `basis` as intsolve read it before taking it
    from the LLL: the Gram matrix G built afresh, and a fraction-free
    Gauss–Jordan elimination of [G | I] (Bareiss), every division checked
    exact.  Its pivots are the leading principal minors D[j + 1] of G; row
    j as it becomes the pivot row gives U[j] over t_j, ..., t_{d-1} and
    the identity part V[j]; it ends at [Δ·I | adj G].  Returns (weighted
    indices, weights, weighted basis columns, D, U, V, adj G)."""
    d = len(basis)
    weighted = [i for i, w in enumerate(weights) if w]
    weights = [weights[i] for i in weighted]
    cols = [[b[i] for i in weighted] for b in basis]
    wcols = [list(map(mul, weights, col)) for col in cols]
    rows = []
    for a in range(d):
        row = [rows[b][a] for b in range(a)]
        row += [sum(map(mul, wcols[a], cols[b])) for b in range(a, d)]
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
                f = rows[i][k]
                num = [v * p - f * w for v, w in zip(rows[i], prow)]
                assert all(v % D[-1] == 0 for v in num), "inexact Bareiss step"
                rows[i] = [v // D[-1] for v in num]
        D.append(p)
    return weighted, weights, wcols, D, U, V, [row[d:] for row in rows]


def reference_gram_schmidt(basis, weights):
    """The integral Gram–Schmidt data (d, lam) of `basis` that
    intsolve._lll returns with its reduced basis, read off
    `reference_ldl`: d[j] is D[j] and lam[i][j] = U[j - 1][i - j],
    1-indexed as in Cohen's Algorithm 2.6.7."""
    _, _, _, D, U, _, _ = reference_ldl(basis, weights)
    n = len(basis)
    lam = [[0] * (n + 1) for _ in range(n + 1)]
    for j in range(1, n + 1):
        for i in range(j + 1, n + 1):
            lam[i][j] = U[j - 1][i - j]
    return D, lam


def reference_ellipsoid(ldl, origin, radius):
    """The box, the constants (V[j]·h)_j, N and the centre's numerators
    adj G·h of the norm bound at `origin`, as intsolve._ellipsoid gives the
    first three, from the full adj G of `reference_ldl`: the centre is
    −adj G·h / Δ and every t_j lies within √(N·(adj G)_jj) / Δ of it;
    None for the box when it holds no integer point."""
    weighted, weights, wcols, D, _, V, adj = ldl
    origin = [origin[i] for i in weighted]
    h = [sum(map(mul, wcol, origin)) for wcol in wcols]
    c0 = sum(w * x * x for w, x in zip(weights, origin))
    adj_h = [sum(map(mul, row, h)) for row in adj]
    delta = D[-1]
    n = delta * (radius - c0) + sum(map(mul, h, adj_h))
    box = None
    if n >= 0:
        box = []
        for j, row in enumerate(adj):
            s = isqrt(n * row[j])
            box.append((-((adj_h[j] + s) // delta), (s - adj_h[j]) // delta))
        if any(lo > hi for lo, hi in box):
            box = None
    return box, [sum(map(mul, v, h)) for v in V], n, adj_h


def mu_values(sys: LinSystem, solution) -> dict[tuple[str, int], int]:
    """(row label, l) -> multiplicity (C·eps + a(psi, l)) / k, recomputed
    from the solution's eps."""
    layout, values = numerators(sys, solution)
    k = sys.modulus
    return dict(zip(zip(layout.labels, layout.ells), [v // k for v in values]))


def mu_sums(sys: LinSystem, solution) -> dict[str, int]:
    """Row label -> sum of its multiplicities, the row's degree by identity
    6 of the constraints module docstring."""
    out: dict[str, int] = {}
    for (label, _), val in mu_values(sys, solution).items():
        out[label] = out.get(label, 0) + val
    return out
