"""Tests for the constraint builder.

Expected solution sets were frozen from the brute-force oracle in
helpers.brute_force_pa_solutions (direct evaluation of the trace formula
over a box), which bypasses the builder and the solver; a few cheap cases
also run the oracle live.
"""

import json
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from helpers import (
    asymmetric_row,
    brauer_table,
    brute_force_pa_solutions,
    constant_terms,
    mu_sums,
    mu_values,
    proper,
    reference_galois_twists,
    trace_to_rational,
    with_rows,
)
from helpzc import constraints
from helpzc.arith import divisors, euler_phi, prime_factors
from helpzc.bundlefile import bundle_to_json
from helpzc.chartables import (
    CharacterTable,
    cyclic_table,
    load_bundle,
    resolve_bundle_path,
)
from helpzc.constraints import (
    AggVar,
    CharRow,
    Constants,
    ConstraintError,
    EpsVar,
    PATuple,
    PAVector,
    build_system,
    build_system_p_constant,
    char_rows,
    eps_projection,
    galois_twists,
    is_p_constant,
    pa_vector,
    trace_block,
    usable_tables,
)
from helpzc.cyclotomics import ONE, ZERO, Cyc, root_of_unity
from helpzc.intsolve import Finite, Infinite, LinSystem, solve_all
from helpzc.verify import SolverOptions, check_zc, trivial_solutions


def bundle(name):
    return load_bundle(resolve_bundle_path(name))


def solutions_on_support(sys, result):
    """Solver output -> sorted eps tuples in support order."""
    assert isinstance(result, Finite)
    out = []
    for sol in result.solutions:
        proj = eps_projection(sys, sol)
        out.append(tuple(proj[i] for i in sorted(proj)))
    return sorted(out)


def trivial_proper(table, k, chosen):
    """PATuple for the proper powers of a unit mimicking an element of class
    `chosen`: level e holds 1 on the class of x^(k/e)."""
    levels = []
    for e in sorted(d for d in range(2, k) if k % d == 0):
        ci = table.class_of_power(chosen, k // e)
        levels.append((e, pa_vector(table, e, {ci: 1})))
    return PATuple(k, tuple(levels))


# -- partial augmentation containers ------------------------------------------


def test_pa_vector_validation():
    t = cyclic_table(6).ordinary
    pa = pa_vector(t, 6, {1: 2, 5: -1, 3: 0})
    assert pa.entries == ((1, 2), (5, -1))
    with pytest.raises(ConstraintError):
        pa_vector(t, 6, {1: 2})  # sum != 1
    with pytest.raises(ConstraintError):
        pa_vector(t, 6, {0: 1})  # identity class
    with pytest.raises(ConstraintError):
        pa_vector(t, 2, {2: 1})  # order 3 does not divide 2
    with pytest.raises(ConstraintError):
        PAVector(2, ((2, 1), (1, 0)))  # unsorted / zero entry


def test_pa_tuple_levels():
    t = cyclic_table(6).ordinary
    lv2 = pa_vector(t, 2, {3: 1})
    lv3 = pa_vector(t, 3, {2: 1})
    tup = PATuple(6, ((2, lv2), (3, lv3)))
    assert tup.level(2) is lv2
    assert not tup.is_complete()
    with pytest.raises(ConstraintError, match="missing"):
        tup.level(6)
    top = pa_vector(t, 6, {1: 1})
    full = tup.with_top(top)
    assert full.is_complete() and full.top is top
    assert proper(full) == tup
    with pytest.raises(ConstraintError):
        PATuple(6, ((3, lv3), (2, lv2)))  # unsorted
    with pytest.raises(ConstraintError):
        PATuple(6, ((4, lv2),))  # 4 does not divide 6
    with pytest.raises(ConstraintError):
        PATuple(6, ((3, lv2),))  # order mismatch


# -- coefficients --------------------------------------------------------------


def test_mu_coefficient_sign_character_c2():
    t = cyclic_table(2).ordinary
    sign = trace_block(t, 2)[1]
    assert sign[1][0] == 1  # l = 1 at class 1, the first of order dividing 2
    assert sign[0][0] == -1


def test_mu_coefficient_trivial_character_c3():
    t = cyclic_table(3).ordinary
    trivial = trace_block(t, 3)[0]
    assert trivial[0][0] == 2
    assert trivial[1][0] == -1


def test_mu_coefficient_galois_sums():
    # linear character j of C6 at class g: Tr(zeta_6^(j-l)), a Ramanujan sum
    t = cyclic_table(6).ordinary
    block = trace_block(t, 6)
    for j in range(6):
        for ell in range(6):
            expect = trace_to_rational(root_of_unity(6, j - ell), 6)
            assert block[j][ell][0] == expect


def one_row_table(n, value):
    """C_n's classes with the single row taking `value` at g and 1 elsewhere."""
    t = cyclic_table(n).ordinary
    row = [ONE] * n
    row[1] = value
    return CharacterTable(f"C{n}", n, t.classes, t.power_maps, (tuple(row),))


def test_mu_coefficient_rejects_value_outside_field():
    bad = one_row_table(2, root_of_unity(5))
    with pytest.raises(ConstraintError):
        trace_block(bad, 2)


def test_a_term_examples():
    # the only proper-power term is d = k: Tr over Q of the degree, so the
    # same value for every l
    a2 = constant_terms(build_system(cyclic_table(2), 2, PATuple(2, ())))
    assert a2[("ord1", 1)] == 1
    assert a2[("ord1", 0)] == 1
    a3 = constant_terms(build_system(cyclic_table(3), 3, PATuple(3, ())))
    assert a3[("ord0", 0)] == 1
    # k=4, trivial proper tuple (u^2 = g^2): d=2 gives Tr_Q(z2)(z4^(2j) z2^-l),
    # d=4 gives 1; for the character j=1: l=0 -> 1 + (-1) = 0, l=1 -> 1 + 1 = 2
    proper4 = PATuple(4, ((2, pa_vector(cyclic_table(4).ordinary, 2, {2: 1})),))
    a4 = constant_terms(build_system(cyclic_table(4), 4, proper4))
    assert a4[("ord1", 0)] == 0
    assert a4[("ord1", 1)] == 2


def test_a_term_missing_level():
    with pytest.raises(ConstraintError, match="missing"):
        build_system(cyclic_table(4), 4, PATuple(4, ()))


def test_char_rows_brauer_expansion():
    m11 = bundle("m11")
    t11 = brauer_table(m11, 11)
    rows = char_rows((t11,))
    i11a = m11.ordinary.index_of("11a")
    assert rows[0].values[i11a] is None
    with pytest.raises(ConstraintError, match="no value"):
        rows[0].value_at(i11a)
    with pytest.raises(ConstraintError, match="no value"):
        trace_block(t11, 11)
    assert rows[0].degree == 1


# -- full systems vs oracle ----------------------------------------------------


def test_system_c2():
    b = cyclic_table(2)
    sys = build_system(b, 2, PATuple(2, ()))
    # frozen oracle (bound 8): only eps_g = 1
    assert solutions_on_support(sys, solve_all(sys)) == [(1,)]


def test_system_c3():
    b = cyclic_table(3)
    sys = build_system(b, 3, PATuple(3, ()))
    # frozen oracle (bound 8)
    assert solutions_on_support(sys, solve_all(sys)) == [(0, 1), (1, 0)]


def test_system_c4_against_oracle():
    b = cyclic_table(4)
    proper = trivial_proper(b.ordinary, 4, 1)
    sys = build_system(b, 4, proper)
    got = solutions_on_support(sys, solve_all(sys))
    assert got == [(0, 0, 1), (1, 0, 0)]  # frozen, bound 5
    live = brute_force_pa_solutions(b, 4, {2: {2: 1}}, 5)
    assert got == sorted(live)


def test_system_c6_trivial_tuple():
    b = cyclic_table(6)
    proper = trivial_proper(b.ordinary, 6, 1)
    sys = build_system(b, 6, proper)
    got = solutions_on_support(sys, solve_all(sys))
    assert got == [(1, 0, 0, 0, 0)]  # frozen oracle, bound 2
    live = brute_force_pa_solutions(b, 6, {2: {3: 1}, 3: {2: 1}}, 2)
    assert got == sorted(live)


def test_system_a5_order_five():
    a5 = bundle("a5")
    sys = build_system(a5, 5, PATuple(5, ()))
    got = solutions_on_support(sys, solve_all(sys))
    assert got == [(0, 1), (1, 0)]  # frozen oracle, bound 10
    assert got == sorted(brute_force_pa_solutions(a5, 5, {}, 10))


def test_system_a5_order_six_infeasible():
    a5 = bundle("a5")
    t = a5.ordinary
    proper = PATuple(
        6,
        (
            (2, pa_vector(t, 2, {t.index_of("2a"): 1})),
            (3, pa_vector(t, 3, {t.index_of("3a"): 1})),
        ),
    )
    sys = build_system(a5, 6, proper)
    result = solve_all(sys)
    assert isinstance(result, Finite) and result.solutions == ()
    assert brute_force_pa_solutions(a5, 6, {2: {1: 1}, 3: {2: 1}}, 20) == []


def test_system_s4_order_four():
    s4 = bundle("s4")
    t = s4.ordinary
    for square, frozen in [
        ("2a", []),
        ("2b", [(0, 0, 1), (0, 1, 0), (1, 0, 0)]),
    ]:
        proper = PATuple(4, ((2, pa_vector(t, 2, {t.index_of(square): 1})),))
        sys = build_system(s4, 4, proper)
        assert solutions_on_support(sys, solve_all(sys)) == frozen


def test_empty_support_is_infeasible():
    a5 = bundle("a5")
    sys = build_system(a5, 7, PATuple(7, ()))
    result = solve_all(sys)
    assert isinstance(result, Finite) and result.solutions == ()


# -- structural properties ------------------------------------------------------


def test_variable_layout_and_merging():
    sys = build_system(cyclic_table(2), 2, PATuple(2, ()))
    assert [type(v) for v in sys.variables] == [EpsVar]
    assert sys.equalities == (((1,), 1),)
    assert sys.modulus == 2
    # trivial and sign character rows coincide pairwise: ord0 at l = 0 and
    # ord1 at l = 1 have C = (1,), the other two C = (-1,)
    assert [coeffs for coeffs, _, _ in sys.congruences] == [(1,), (-1,)]
    a = constant_terms(sys)
    assert list(a) == [("ord0", 0), ("ord1", 1), ("ord0", 1), ("ord1", 0)]
    # each row keeps the least constant of its run of two
    values = list(a.values())
    assert [b for _, b, _ in sys.congruences] == [min(values[:2]), min(values[2:])]
    # and both rows share one record of the constants
    assert sys.congruences[0][2] is sys.congruences[1][2]
    assert str(sys.variables[0]) == "eps:g1"


def trivial_plus(n, extra):
    """C_n with one more row, the trivial character's values but degree
    1 + extra: the trivial row's coefficients, and its constant terms plus
    extra.  It is row n of a fake Brauer table, labelled mod{p}:{n}."""
    return with_rows(cyclic_table(n), [(ONE * (1 + extra),) + (ONE,) * (n - 1)])


def test_equal_rows_with_incongruent_constants_are_infeasible():
    # a = a(1, l) + 1: the same C, constants apart by 1 mod 4
    b = trivial_plus(4, 1)
    sys = build_system(b, 4, trivial_proper(b.ordinary, 4, 1))
    assert sys.congruences == (((0, 0, 0), 1, None),)
    assert solve_all(sys) == Finite(())
    with pytest.raises(AssertionError, match="clashing constants"):
        mu_values(sys, (1, 0, 0))


def test_equal_rows_with_congruent_constants_keep_the_tighter():
    # trivial + regular character: a = a(1, l) + 4, so each row keeps the
    # trivial character's constant and the solutions stay those of C4
    plain = cyclic_table(4)
    b = trivial_plus(4, 4)
    proper = trivial_proper(b.ordinary, 4, 1)
    sys, ref = build_system(b, 4, proper), build_system(plain, 4, proper)
    assert [row[:2] for row in sys.congruences] == [row[:2] for row in ref.congruences]
    a = constant_terms(sys)
    for ell in range(4):
        assert a[("mod3:4", ell)] == a[("ord0", ell)] + 4
    result = solve_all(sys)
    assert result == solve_all(ref) and result.solutions
    for sol in result.solutions:
        mu = mu_values(sys, sol)
        assert all(mu[("mod3:4", ell)] == mu[("ord0", ell)] + 1 for ell in range(4))


def test_brauer_labels_keep_the_prime_apart_from_the_row():
    # fake mod-3 and mod-31 tables over C12: without a separator mod-3 row
    # 11 and mod-31 row 1 would share one label, and their multiplicities
    # one key
    b = cyclic_table(12)
    t = b.ordinary
    tables = (t,) + tuple(
        CharacterTable(t.group_name, 12, t.classes, t.power_maps, t.characters, prime=p)
        for p in (3, 31)
    )
    labels = [row.label for row in char_rows(tables)]
    assert len(set(labels)) == len(labels) == 36
    assert {"mod3:11", "mod31:1"} <= set(labels)
    sys = build_system(b, 2, PATuple(2, ()), tables)
    (sol,) = solve_all(sys).solutions
    assert len(mu_values(sys, sol)) == 36 * 2
    assert mu_sums(sys, sol) == dict.fromkeys(labels, 1)


def test_mu_values_reject_a_non_solution():
    b = cyclic_table(4)
    sys = build_system(b, 4, trivial_proper(b.ordinary, 4, 1))
    assert solve_all(sys).solutions
    # the message names the (row, l) whose multiplicity fails
    with pytest.raises(AssertionError, match=r"^\('ord\d', \d\): .* no non-negative integer"):
        mu_values(sys, (2, -1, 0))


def test_mu_sums_reject_a_wrong_degree_sum():
    b = cyclic_table(4)
    sys = build_system(b, 4, trivial_proper(b.ordinary, 4, 1))
    sol = solve_all(sys).solutions[0]
    # one constant raised by k: every multiplicity is still a nonnegative
    # integer, but that row's sum is its degree plus 1; no solution is
    # checked for the sum, which identity 6 proves from the trace blocks
    record = sys.congruences[0][2]
    j = record.layout.labels.index("ord2")
    values = list(record.values)
    values[j] += 4
    raised = Constants(record.layout, tuple(values))
    bad = LinSystem(
        sys.variables, sys.equalities, sys.norm, sys.modulus,
        tuple((coeffs, a, raised) for coeffs, a, _ in sys.congruences),
    )
    key = ("ord2", record.layout.ells[j])
    assert mu_values(bad, sol)[key] == mu_values(sys, sol)[key] + 1
    assert mu_sums(bad, sol)["ord2"] == 2
    # so the blocks it is built from are checked instead, when the template
    # and each level's share are first built: one row's sums of level 2,
    # raised by 1 at l = 0, total 1
    b = cyclic_table(4)
    proper = trivial_proper(b.ordinary, 4, 1)
    level = proper.level(2)
    sums = list(constraints._level_sums(b.ordinary, level))
    sums[2] = (sums[2][0] + 1,) + sums[2][1:]
    b.ordinary.level_sums[level] = tuple(sums)
    with pytest.raises(AssertionError, match=r"^ord2: level-2 sums total nonzero$"):
        build_system(b, 4, proper)
    # and one coefficient of row ord2 at l = 0, raised by 1
    b = cyclic_table(4)
    block, ids, number = constraints._traced(b.ordinary, 4)
    row = list(block[2])
    row[0] = (row[0][0] + 1,) + row[0][1:]
    block = block[:2] + (tuple(row),) + block[3:]
    b.ordinary.trace_blocks[4] = (block, ids, number)
    with pytest.raises(AssertionError, match=r"^ord2: order-4 coefficients sum to nonzero$"):
        build_system(b, 4, proper)


def test_integer_coefficients():
    for n in (2, 3, 4, 6, 8, 12):
        b = cyclic_table(n)
        sys = build_system(b, n, trivial_proper(b.ordinary, n, 1))
        for coeffs, rhs in sys.equalities:
            assert all(type(c) is int for c in coeffs)
            assert type(rhs) is int


def test_mu_sums_equal_degree():
    cases = []
    for n in (3, 4, 6):
        b = cyclic_table(n)
        cases.append((b, n, trivial_proper(b.ordinary, n, 1)))
    a5 = bundle("a5")
    cases.append((a5, 5, PATuple(5, ())))
    for b, k, proper in cases:
        sys = build_system(b, k, proper)
        rows = char_rows((b.ordinary,))
        result = solve_all(sys)
        assert isinstance(result, Finite) and result.solutions
        for sol in result.solutions:
            assert mu_sums(sys, sol) == {r.label: r.degree for r in rows}


def test_cyclic_multiplicities_are_zero_one():
    # for u = g in C_n every linear character contributes its eigenvalue once
    for n in (4, 6):
        b = cyclic_table(n)
        sys = build_system(b, n, trivial_proper(b.ordinary, n, 1))
        result = solve_all(sys)
        trivial = next(
            sol
            for sol in result.solutions
            if eps_projection(sys, sol).get(1) == 1
        )
        mv = mu_values(sys, trivial)
        assert set(mv.values()) <= {0, 1}
        for j in range(n):
            assert mv[(f"ord{j}", j)] == 1
            assert sum(mv[(f"ord{j}", l)] for l in range(n)) == 1


def test_class_permutation_invariance():
    perm = [3, 0, 4, 1, 2]  # new position -> old index
    data = json.loads(Path(resolve_bundle_path("a5")).read_text())
    ordinary = data["ordinary"]
    inv = {old: new for new, old in enumerate(perm)}
    ordinary["classes"] = [ordinary["classes"][old] for old in perm]
    ordinary["power_maps"] = {
        p: [inv[pm[old]] for old in perm]
        for p, pm in ordinary["power_maps"].items()
    }
    ordinary["characters"] = [[row[old] for old in perm] for row in ordinary["characters"]]
    shuffled = load_bundle(data)

    def named_solutions(b, k):
        t = b.ordinary
        sys = build_system(b, k, PATuple(k, ()))
        result = solve_all(sys)
        out = set()
        for sol in result.solutions:
            proj = eps_projection(sys, sol)
            out.add(tuple(sorted((t.classes[i].name, v) for i, v in proj.items())))
        return out

    for k in (2, 3, 5):
        assert named_solutions(bundle("a5"), k) == named_solutions(shuffled, k)


def test_more_rows_never_enlarge_solutions():
    a5 = bundle("a5")
    t = a5.ordinary
    previous = None
    for m in range(1, len(t.characters) + 1):
        sub = CharacterTable(
            t.group_name, t.group_order, t.classes, t.power_maps, t.characters[:m]
        )
        sys = build_system(a5, 5, PATuple(5, ()), tables=(sub,))
        result = solve_all(sys)
        if isinstance(result, Infinite):
            assert previous is None  # only underdetermined prefixes
            continue
        got = set(solutions_on_support(sys, result))
        if previous is not None:
            assert got <= previous
        previous = got
    assert previous == {(0, 1), (1, 0)}


# -- p-constant systems ----------------------------------------------------------


def test_is_p_constant():
    a5 = bundle("a5")
    t = a5.ordinary
    rows = char_rows((t,))
    assert [is_p_constant(r, t, 5) for r in rows] == [True, False, False, True, True]
    assert all(is_p_constant(r, t, 2) for r in rows)  # single class of order 2
    m11 = bundle("m11")
    t5 = brauer_table(m11, 5)
    brows = char_rows((t5,))
    assert not any(is_p_constant(r, m11.ordinary, 5) for r in brows)


def test_p_constant_system_a5_order_ten():
    a5 = bundle("a5")
    t = a5.ordinary
    proper = PATuple(10, ((2, pa_vector(t, 2, {t.index_of("2a"): 1})),))
    sys = build_system_p_constant(a5, 10, 5, proper)
    names = [str(v) for v in sys.variables if isinstance(v, (EpsVar, AggVar))]
    assert names == ["eps:2a", "agg:5"]
    result = solve_all(sys)
    assert isinstance(result, Finite) and result.solutions == ()

    # full systems over both order-5 choices are infeasible as well
    for five in ("5a", "5b"):
        full_proper = PATuple(
            10,
            (
                (2, pa_vector(t, 2, {t.index_of("2a"): 1})),
                (5, pa_vector(t, 5, {t.index_of(five): 1})),
            ),
        )
        full = build_system(a5, 10, full_proper)
        full_result = solve_all(full)
        assert isinstance(full_result, Finite) and full_result.solutions == ()


def test_p_constant_system_a5_order_fifteen():
    a5 = bundle("a5")
    t = a5.ordinary
    proper = PATuple(15, ((3, pa_vector(t, 3, {t.index_of("3a"): 1})),))
    sys = build_system_p_constant(a5, 15, 5, proper)
    result = solve_all(sys)
    assert isinstance(result, Finite) and result.solutions == ()


def test_p_constant_relaxation_preserves_feasibility():
    # Groups with genuine order-6 units: the aggregated system must never
    # come back infeasible.  The surviving p-constant rows cannot separate
    # the order-6 classes (or, for C6, g1 from g3), so without its norm
    # bound the relaxation is Infinite; with it (identity 5 of the
    # constraints module) it is finite and keeps each genuine unit.
    cases = [
        (cyclic_table(6), 3, {3: 1}),
        (bundle("sl23"), 3, None),
    ]
    for b, p, level2 in cases:
        t = b.ordinary
        if level2 is None:
            level2 = {t.index_of("2a"): 1}
        proper = PATuple(6, ((2, pa_vector(t, 2, level2)),))
        sys = build_system_p_constant(b, 6, p, proper)
        result = solve_all(sys)
        assert isinstance(result, Finite)
        found = [
            {x for x, v in eps_projection(sys, sol).items() if v}
            for sol in result.solutions
        ]
        genuine = [
            x
            for x in t.classes_of_order_dividing(6)
            if t.classes[x].element_order == 6 and t.class_of_power(x, 3) in level2
        ]
        assert genuine and all({x} in found for x in genuine)

        result = solve_all(
            LinSystem(sys.variables, sys.equalities, None, sys.modulus, sys.congruences)
        )
        assert isinstance(result, Infinite)
        for coeffs, _ in sys.equalities:
            assert sum(c * r for c, r in zip(coeffs, result.ray)) == 0
        assert all(
            sum(c * r for c, r in zip(coeffs, result.ray)) >= 0
            for coeffs, _, _ in sys.congruences
        )


def test_p_constant_errors():
    a5 = bundle("a5")
    t = a5.ordinary
    proper = PATuple(10, ((2, pa_vector(t, 2, {t.index_of("2a"): 1})),))
    with pytest.raises(ConstraintError):
        build_system_p_constant(a5, 4, 2, PATuple(4, ()))  # not p*q
    with pytest.raises(ConstraintError):
        build_system_p_constant(a5, 12, 2, PATuple(12, ()))  # q = 6 not prime
    # drop every 5-constant row: only chi2, chi3 remain
    sub = CharacterTable(
        t.group_name, t.group_order, t.classes, t.power_maps, t.characters[1:3]
    )
    with pytest.raises(ConstraintError, match="no p-constant rows"):
        build_system_p_constant(a5, 10, 5, proper, tables=(sub,))


def test_build_system_rejects_order_one():
    with pytest.raises(ConstraintError):
        build_system(cyclic_table(2), 1, PATuple(1, ()))


# -- integer coefficient tables vs the cyclotomic path ---------------------------


def cyc_trace(value, m, ell):
    """Tr_{Q(zeta_m)/Q}(value * zeta_m^-l), through canonical Cyc arithmetic."""
    return trace_to_rational(value * root_of_unity(m, -ell), m)


def m11_with_squares():
    """M11 plus a fake Brauer table whose last two rows are the tensor
    squares of its first two nonlinear characters."""
    m11 = bundle("m11")
    chi = m11.ordinary.characters
    return with_rows(m11, [tuple(a * a for a in chi[j]) for j in (1, 2)])


def test_trace_tables_match_cyc():
    seen = set()
    reference = {}  # cyclic tables repeat values: trace each one once
    bundles = [bundle(n) for n in ("s3", "s4", "a5", "sl23")]
    bundles += [m11_with_squares()] + [cyclic_table(n) for n in range(2, 25)]
    for b in bundles:
        t = b.ordinary
        orders = {m for o in t.element_orders() for m in divisors(o) if m > 1}
        for m in sorted(orders):
            support = t.classes_of_order_dividing(m)
            for table in (t,) + tuple(bt for bt in b.brauer if m % bt.prime):
                rows = char_rows((table,))
                block = trace_block(table, m)
                assert len(block) == len(rows)
                for row, per_ell in zip(rows, block):
                    seen.add(row.label)
                    assert len(per_ell) == m
                    for ell in range(m):
                        expect = []
                        for x in support:
                            key = (row.value_at(x), m, ell)
                            if key not in reference:
                                reference[key] = cyc_trace(*key)
                            expect.append(reference[key])
                        assert list(per_ell[ell]) == expect
                        assert all(type(c) is int for c in per_ell[ell])
    # every kind of row: ordinary, mod 5, mod 11 and the squares mod 7
    assert {"ord1", "mod5:0", "mod11:0", "mod7:11"} <= seen


def cyc_constant_term(row, k, ell, tup):
    total = Fraction(0)
    for d in divisors(k)[1:]:
        e = k // d
        value = ONE * row.degree
        if e > 1:
            value = ZERO
            for x, eps in tup.level(e).entries:
                value = value + row.value_at(x) * eps
        total += cyc_trace(value, e, ell)
    return total


@pytest.mark.parametrize("name", ["m11", "sl23"])
def test_constant_terms_match_cyc(name):
    # M11's stored tuples only reach real-valued classes; SL(2,3) also
    # tells the twist zeta^-l from its conjugate
    b = bundle(name)
    store = check_zc(b, SolverOptions(shortcuts=False)).store
    checked = 0
    for k, tuples in sorted(store.solutions.items()):
        tables = usable_tables(b, k)
        rows = char_rows(tables)
        for tup in tuples:
            rhs = constant_terms(build_system(b, k, proper(tup), tables))
            for row in rows:
                for ell in range(k):
                    expect = cyc_constant_term(row, k, ell, tup)
                    assert rhs[(row.label, ell)] == expect
                    checked += 1
    assert checked > 100


def test_assembly_rejects_bad_table_values():
    bad = one_row_table(3, root_of_unity(5))
    with pytest.raises(ConstraintError, match="does not divide 3"):
        build_system(cyclic_table(3), 3, PATuple(3, ()), tables=(bad,))


def test_trace_blocks_are_shared_between_table_sets(monkeypatch):
    m11 = bundle("m11")
    t = m11.ordinary
    traced = []
    real = constraints._integer_traces

    def counting(value, m, context):
        traced.append((context, value, m))
        return real(value, m, context)

    monkeypatch.setattr(constraints, "_integer_traces", counting)
    # every Brauer row, given as explicit tables: usable_tables would drop
    # the mod-5 table and all mod-11 rows but one (identity 7)
    with_mod5 = (t, *m11.brauer)
    without_mod5 = (t, brauer_table(m11, 11))
    assert [x.prime for x in with_mod5] == [None, 5, 11]
    systems = [build_system(m11, 2, PATuple(2, ()), with_mod5)]
    first = len(traced)
    systems.append(build_system(m11, 2, PATuple(2, ()), without_mod5))
    # one trace per distinct value of each table on the classes of order
    # dividing 2 (M11 has only 2a), and none for the second table set
    assert len(traced) == first
    table_of = {row.label: x.prime for x in with_mod5 for row in char_rows((x,))}
    keys = [(table_of[c], value, m) for c, value, m in traced]
    assert len(keys) == len(set(keys))
    assert set(keys) == {
        (x.prime, row.value_at(i), 2)
        for x in with_mod5
        for row in char_rows((x,))
        for i in t.classes_of_order_dividing(2)
    }
    assert len(keys) < sum(len(char_rows((x,))) for x in with_mod5)
    assert set(t.trace_blocks) == {2}
    # the second set's system is the first's without the mod-5 rows
    terms = [set(constant_terms(s)) for s in systems]
    assert terms[1] == {key for key in terms[0] if not key[0].startswith("mod5:")}


def test_char_rows_are_built_once_per_table(monkeypatch):
    m11 = bundle("m11")
    built = []
    real = constraints._table_rows

    def counting(table, numbers):
        built.extend((table.prime, r) for r in numbers)
        return real(table, numbers)

    monkeypatch.setattr(constraints, "_table_rows", counting)
    with_mod5 = (m11.ordinary, *m11.brauer)
    first = char_rows(with_mod5)
    build_system(m11, 2, PATuple(2, ()), with_mod5)
    again = char_rows((m11.ordinary, brauer_table(m11, 11)))
    assert sorted(built, key=str) == sorted(
        [(t.prime, r) for t in with_mod5 for r in range(len(t.characters))], key=str
    )
    # the joined rows are the tables' own row objects, in table order
    kept = [r for r in first if not r.label.startswith("mod5:")]
    assert len(again) == len(kept)
    assert all(a is b for a, b in zip(again, kept))
    # usable_tables builds, once, only the rows a Brauer table adds: of
    # M11's, mod-11 row 1 (identity 7)
    built.clear()
    for k in (2, 10):
        char_rows(usable_tables(m11, k))
    assert built == [(11, 1)]


def test_assembly_creates_no_cyc(monkeypatch):
    m11 = bundle("m11")
    t = m11.ordinary
    made = []
    init, raw = Cyc.__init__, Cyc._raw.__func__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    def counting_raw(cls, *args):
        made.append(args)
        return raw(cls, *args)

    monkeypatch.setattr(Cyc, "__init__", counting_init)
    monkeypatch.setattr(Cyc, "_raw", classmethod(counting_raw))
    assert root_of_unity(3) * root_of_unity(4) and made  # the counter sees Cyc
    made.clear()

    def level(e, values):
        return (e, pa_vector(t, e, {t.index_of(n): v for n, v in values.items()}))

    proper12 = PATuple(
        12,
        (
            level(2, {"2a": 1}),
            level(3, {"3a": 1}),
            level(4, {"4a": 1}),
            level(6, {"3a": 3, "6a": -2}),
        ),
    )
    build_system(m11, 12, proper12)
    build_system_p_constant(m11, 6, 2, proper12.restrict(6))
    assert len(galois_twists(t, usable_tables(m11, 12), 12)) == 4
    assert made == []


# -- Galois twists -----------------------------------------------------------------


@pytest.fixture(scope="module")
def twist_cases():
    """(bundle, k) for every order of the five bundles, of cyclic:2..24 and
    of C10 with a fake Brauer table that adds a non-rational character."""
    bundles = [bundle(n) for n in ("s3", "s4", "a5", "sl23", "m11")]
    bundles += [cyclic_table(n) for n in range(2, 25)]
    # chi_1 + chi_2 restricts no ordinary irreducible, so usable_tables
    # keeps it at every order (identity 7)
    chi = cyclic_table(10).ordinary.characters
    fake = with_rows(cyclic_table(10), [tuple(a + b for a, b in zip(chi[1], chi[2]))])
    assert all(len(usable_tables(fake, k)) == 2 for k in divisors(10))
    bundles.append(fake)
    return [
        (b, k) for b in bundles for k in divisors(b.ordinary.exponent()) if k > 1
    ]


def test_galois_twists_are_power_maps(twist_cases):
    nontrivial = 0
    for b, k in twist_cases:
        t = b.ordinary
        twists = galois_twists(t, usable_tables(b, k), k)
        # genuine tables are symmetric under every unit
        assert set(twists) == {j for j in range(1, k) if gcd(j, k) == 1}
        group_elements = set(trivial_solutions(t, k))
        for j, perm in twists.items():
            assert set(perm) == set(t.classes_of_order_dividing(k))
            if all(p in t.power_maps for p in prime_factors(j)):
                for x, y in perm.items():
                    assert y == t.class_of_power(x, j)
                nontrivial += any(x != y for x, y in perm.items())
            # a twisted group element is a group element
            assert {tup.twisted(perm) for tup in group_elements} == group_elements
    assert nontrivial > 50


def test_galois_twists_match_the_column_derivation(twist_cases):
    asymmetric = with_rows(cyclic_table(12), [asymmetric_row()])
    cases = twist_cases + [(asymmetric, k) for k in (2, 3, 4, 6, 12)]
    for b, k in cases:
        for tables in (usable_tables(b, k), (b.ordinary,)):
            assert galois_twists(b.ordinary, tables, k) == reference_galois_twists(
                b.ordinary, tables, k
            )


def test_lower_blocks_are_scaled_top_blocks(twist_cases):
    """Identity 3: C_e[psi][l][x] = phi(e)/phi(k) C_k[psi][l k/e][x] for x
    of order dividing e, so invariance of the blocks at k implies it at
    every e | k."""
    for b, k in twist_cases:
        t = b.ordinary
        support = t.classes_of_order_dividing(k)
        for e in divisors(k):
            if e in (1, k):
                continue
            at = [support.index(x) for x in t.classes_of_order_dividing(e)]
            scale = Fraction(euler_phi(e), euler_phi(k))
            for table in usable_tables(b, k):
                top, low = trace_block(table, k), trace_block(table, e)
                for row_k, row_e in zip(top, low):
                    for ell in range(e):
                        assert list(row_e[ell]) == [
                            scale * row_k[ell * k // e][i] for i in at
                        ]


def test_symmetry_breaking_row_shrinks_twists():
    b = with_rows(cyclic_table(12), [asymmetric_row()])
    twists = {
        k: sorted(galois_twists(b.ordinary, usable_tables(b, k), k))
        for k in (3, 4, 6, 12)
    }
    # the units that are 2 mod 3 are lost; 3 mod 4 survives
    assert twists == {3: [1], 4: [1, 3], 6: [1], 12: [1, 7]}


def test_galois_twists_need_columns_that_separate_the_classes():
    # an incomplete table whose columns coincide on two classes maps no
    # unit but 1 to a permutation of them: C6's trivial and sign rows give
    # g, g^3 and g^5 one column and g^2, g^4 another; C5's row g -> zeta_5
    # is faithful and keeps every unit
    def cut(n, rows):
        data = bundle_to_json(cyclic_table(n))
        chars = data["ordinary"]["characters"]
        data["ordinary"]["characters"] = [chars[r] for r in rows]
        return load_bundle(data).ordinary

    t = cut(6, [0, 3])
    assert galois_twists(t, (t,), 6) == {1: {x: x for x in range(1, 6)}}
    t = cut(5, [0, 1])
    twists = galois_twists(t, (t,), 5)
    assert twists == {j: {x: x * j % 5 for x in range(1, 5)} for j in range(1, 5)}
    assert twists == reference_galois_twists(t, (t,), 5)
