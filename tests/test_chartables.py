import copy
import json
import time
from math import gcd, lcm

import pytest

from helpers import BUNDLE_CORRUPTIONS, brauer_table, corrupted_bundle
from helpzc.arith import prime_factors
from helpzc.bundlefile import bundle_to_json
from helpzc.chartables import (
    BundleError,
    CharacterTable,
    ClassInfo,
    TableBundle,
    cyclic_table,
    data_dir,
    load_bundle,
    resolve_bundle_path,
)
from helpzc.bundlefile import cyc_from_json, cyc_to_json
from helpzc.cyclotomics import ONE, Cyc, root_of_unity

BUNDLED = ["s3.json", "s4.json", "a5.json", "sl23.json", "m11.json"]


def load_named(name):
    return load_bundle(resolve_bundle_path(name))


@pytest.fixture(scope="module")
def bundles():
    return {name: load_named(name) for name in BUNDLED}


def m11_raw():
    with open(resolve_bundle_path("m11.json")) as fh:
        return json.load(fh)


# -- cyclic tables -------------------------------------------------------


def test_cyclic_small():
    c1 = cyclic_table(1).ordinary
    assert len(c1.classes) == 1 and len(c1.characters) == 1
    assert c1.characters[0][0] == 1

    c2 = cyclic_table(2).ordinary
    assert [list(r) for r in c2.characters] == [
        [ONE, ONE],
        [ONE, -ONE],
    ]

    c6 = cyclic_table(6).ordinary
    g = c6.index_of("g1")
    assert c6.power_maps[2][g] == c6.index_of("g2")
    assert c6.power_maps[3][g] == c6.index_of("g3")

    # entrywise against an independently built root of unity
    for n in range(1, 37):
        chars = cyclic_table(n).ordinary.characters
        for j in range(n):
            for a in range(n):
                assert chars[j][a] == root_of_unity(n, j * a)


@pytest.mark.parametrize("n", range(1, 25))
def test_cyclic_roundtrip_and_orthogonality(n):
    # load_bundle re-validates everything, including exact orthogonality
    bundle = cyclic_table(n)
    again = load_bundle(bundle_to_json(bundle))
    assert again.ordinary.group_order == n
    assert again.ordinary.characters == bundle.ordinary.characters


def test_cyclic_bad_order():
    with pytest.raises(ValueError):
        cyclic_table(0)


def test_cyclic_facts_are_derived():
    # a cyclic group is nilpotent, solvable and p-solvable for every prime
    # dividing its order; none of this is declared by cyclic_table
    for n in range(1, 121):
        b = cyclic_table(n)
        assert b.group_name == f"C{n}"
        assert facts(b) == (True, frozenset(prime_factors(n)), True)


# -- bundled tables ------------------------------------------------------


def test_bundles_load(bundles):
    assert bundles["a5.json"].ordinary.group_order == 60
    orders = [cl.element_order for cl in bundles["a5.json"].ordinary.classes]
    assert sorted(orders) == [1, 2, 3, 5, 5]

    m11 = bundles["m11.json"].ordinary
    assert len(m11.classes) == 10
    assert m11.index_of("2a") == 1


# (is_solvable, p_solvable_for, is_nilpotent) of each bundled group.  A5 and
# M11 are simple; S3 has chief factors of orders 3 and 2, S4 and SL(2,3) of
# orders 4, 3 and 2.  None is nilpotent: SL(2,3) fails only at p = 3, its
# 2-elements being its normal quaternion subgroup.
FACTS = {
    "s3.json": (True, {2, 3}, False),
    "s4.json": (True, {2, 3}, False),
    "sl23.json": (True, {2, 3}, False),
    "a5.json": (False, set(), False),
    "m11.json": (False, set(), False),
}


def facts(bundle):
    return bundle.is_solvable, bundle.p_solvable_for, bundle.is_nilpotent


def test_flags(bundles):
    assert {name: facts(b) for name, b in bundles.items()} == FACTS


def test_nilpotency_is_derived_when_not_declared():
    c8 = load_bundle(bundle_to_json(cyclic_table(8)))
    assert c8.is_nilpotent is True and c8.is_solvable is True


def test_a_bundle_built_by_hand_derives_its_facts(bundles):
    # the constructor takes tables only: M11's name and facts are those of
    # the loaded bundle, and an incomplete C6 table is nilpotent by its
    # class sizes with its solvability unknown, as when it is loaded
    m11 = bundles["m11.json"]
    by_hand = TableBundle(m11.ordinary, m11.brauer)
    assert by_hand.group_name == "M11"
    assert facts(by_hand) == facts(m11) == FACTS["m11.json"]
    t = cyclic_table(6).ordinary
    weak = TableBundle(CharacterTable("C6", 6, t.classes, t.power_maps, t.characters[:2]))
    assert facts(weak) == facts(load_bundle(bundle_to_json(weak))) == (None, frozenset(), True)


def test_order_facts(bundles):
    a5 = bundles["a5.json"].ordinary
    assert a5.element_orders() == (1, 2, 3, 5)
    assert a5.exponent() == 30
    assert a5.prime_graph_missing_pq() == (6, 10, 15)

    m11 = bundles["m11.json"].ordinary
    assert m11.element_orders() == (1, 2, 3, 4, 5, 6, 8, 11)
    assert m11.exponent() == 1320
    assert m11.prime_graph_missing_pq() == (10, 15, 22, 33, 55)

    assert bundles["s3.json"].ordinary.prime_graph_missing_pq() == (6,)
    assert bundles["s4.json"].ordinary.prime_graph_missing_pq() == (6,)
    assert bundles["sl23.json"].ordinary.prime_graph_missing_pq() == ()
    assert cyclic_table(6).ordinary.prime_graph_missing_pq() == ()


def test_class_of_power(bundles):
    c6 = cyclic_table(6).ordinary
    g = c6.index_of("g1")
    assert c6.class_of_power(g, 2) == c6.index_of("g2")
    assert c6.class_of_power(g, 1) == g
    assert c6.class_of_power(g, 6) == c6.identity_index
    assert c6.class_of_power(g, 4) == c6.index_of("g4")
    assert c6.class_of_power(g, 7) == g

    a5 = bundles["a5.json"].ordinary
    assert a5.class_of_power(a5.index_of("5a"), 2) == a5.index_of("5b")
    assert a5.class_of_power(a5.index_of("5a"), 3) == a5.index_of("5b")
    assert a5.class_of_power(a5.index_of("5a"), 4) == a5.index_of("5a")


def test_classes_of_order_dividing(bundles):
    c6 = cyclic_table(6).ordinary
    assert c6.classes_of_order_dividing(6) == (1, 2, 3, 4, 5)
    assert c6.classes_of_order_dividing(1) == ()

    a5 = bundles["a5.json"].ordinary
    assert a5.classes_of_order_dividing(2) == (a5.index_of("2a"),)
    assert a5.classes_of_order_dividing(6) == (1, 2)
    assert a5.classes_of_order_dividing(30) == (1, 2, 3, 4)


def test_table_invariants_are_computed_once(bundles):
    """The exponent is fixed at construction and each k's dividing classes
    are kept; both equal a fresh computation from the classes."""
    tables = [
        t
        for bundle in (*bundles.values(), *map(cyclic_table, range(2, 17)))
        for t in (bundle.ordinary, *bundle.brauer)
    ]
    for t in tables:
        exponent = lcm(*(cl.element_order for cl in t.classes))
        assert t.exponent() == exponent
        for k in range(1, 2 * exponent + 1):
            fresh = tuple(
                i
                for i, cl in enumerate(t.classes)
                if cl.element_order != 1 and k % cl.element_order == 0
            )
            first = t.classes_of_order_dividing(k)
            assert first == fresh
            assert t.classes_of_order_dividing(k) is first


def all_tables(bundles):
    for bundle in bundles.values():
        yield bundle.ordinary
        yield from bundle.brauer
    yield cyclic_table(12).ordinary


def test_power_maps_commute(bundles):
    for t in all_tables(bundles):
        primes = sorted(t.power_maps)
        for p in primes:
            for q in primes:
                for c in range(len(t.classes)):
                    assert (
                        t.power_maps[q][t.power_maps[p][c]]
                        == t.power_maps[p][t.power_maps[q][c]]
                    )


def test_power_maps_match_galois_action(bundles):
    # for p coprime to o(x), chi(x^p) is the Galois image of chi(x) under
    # zeta -> zeta^p; this ties power maps and character values together
    for t in all_tables(bundles):
        for p, pm in t.power_maps.items():
            for c, cl in enumerate(t.classes):
                if gcd(p, cl.element_order) != 1:
                    continue
                for row in t.characters:
                    # a Brauer row has no value at a p-singular class
                    if row[c] is not None:
                        assert row[pm[c]] == row[c].galois(p)


def test_brauer_structure(bundles):
    m11 = bundles["m11.json"]
    assert m11.brauer_primes == (5, 11)
    t5 = brauer_table(m11, 5)
    assert t5 is not None and t5.is_brauer and t5.prime == 5
    assert brauer_table(m11, 7) is None

    # a Brauer table shares the ordinary classes and power maps
    for t in m11.brauer:
        assert t.classes is m11.ordinary.classes
        assert t.power_maps is m11.ordinary.power_maps
    t11 = brauer_table(m11, 11)
    a8 = t11.index_of("8a")
    assert t11.class_of_power(a8, 2) == t11.index_of("4a")


def test_brauer_rows_live_over_the_ordinary_classes(bundles):
    # each row is None exactly at the p-singular classes and, at every
    # class the node names, the value the file gives there
    m11 = bundles["m11.json"]
    nodes = m11_raw()["brauer"]
    assert [node["p"] for node in nodes] == list(m11.brauer_primes)
    for t, node in zip(m11.brauer, nodes):
        assert len(t.characters) == len(node["characters"])
        for row, raw in zip(t.characters, node["characters"]):
            assert len(row) == len(m11.ordinary.classes)
            singular = [cl.element_order % t.prime == 0 for cl in t.classes]
            assert [v is None for v in row] == singular
            for name, value in zip(node["classes"], raw):
                assert row[t.index_of(name)] == cyc_from_json(value, m11.ordinary.exponent())
    assert bundle_to_json(m11)["brauer"] == nodes


def test_degree(bundles):
    m11 = bundles["m11.json"].ordinary
    assert sorted(m11.degree(r) for r in m11.characters) == [
        1, 10, 10, 10, 11, 16, 16, 44, 45, 55,
    ]
    assert sum(m11.degree(r) ** 2 for r in m11.characters) == 7920


# -- rejection of bad input ----------------------------------------------


def corrupt(mutate):
    data = m11_raw()
    mutate(data)
    with pytest.raises(BundleError):
        load_bundle(data)


def test_reject_corrupted_character_value():
    def mutate(d):
        d["ordinary"]["characters"][1][1] = 3  # breaks orthogonality
    corrupt(mutate)


@pytest.mark.parametrize(
    "row, cls, conductor, change, pair",
    [
        (5, 8, 11, lambda v: v.galois(-1), (0, 5)),  # b11 at 11a -> its conjugate
        (2, 6, 8, Cyc.__neg__, (0, 2)),  # i*sqrt(2) at 8a negated
    ],
    ids=["b11-conjugated", "sqrt-minus-2-negated"],
)
def test_reject_corrupted_irrational_value(row, cls, conductor, change, pair):
    value = load_named("m11").ordinary.characters[row][cls]
    assert value.conductor == conductor
    data = m11_raw()
    data["ordinary"]["characters"][row][cls] = cyc_to_json(change(value))
    i, j = pair
    with pytest.raises(
        BundleError, match=f"row orthogonality fails for characters {i} and {j}$"
    ):
        load_bundle(data)


def test_reject_row_of_wrong_norm():
    # twice a b11 row stays orthogonal to every other row; only its own
    # inner product, 4 instead of 1, shows the fault
    row = load_named("m11").ordinary.characters[5]
    data = m11_raw()
    data["ordinary"]["characters"][5] = [cyc_to_json(v * 2) for v in row]
    with pytest.raises(
        BundleError, match="row orthogonality fails for characters 5 and 5$"
    ):
        load_bundle(data)


# (2 + zeta_3)/3 has an integer trace Tr(v zeta_m^-l) for every l at m = 3, 6,
# 9 and 12, so only its coefficients show it is no algebraic integer; its
# encoding needs a coefficient that is not a JSON integer
NOT_INTEGRAL = {"n": 3, "coeffs": [[0, "2/3"], [1, "1/3"]]}


def test_reject_brauer_value_that_is_not_an_algebraic_integer():
    data = m11_raw()
    mod5 = data["brauer"][0]
    assert mod5["p"] == 5
    mod5["characters"][1][mod5["classes"].index("3a")] = NOT_INTEGRAL
    with pytest.raises(
        BundleError,
        match="^M11 mod 5: bad value in characters: coefficient '2/3' is not an integer$",
    ):
        load_bundle(data)


def test_reject_ordinary_value_that_is_not_an_algebraic_integer():
    # refused as it is decoded, before orthogonality, which it also breaks
    data = m11_raw()
    at = [c["name"] for c in data["ordinary"]["classes"]].index("3a")
    data["ordinary"]["characters"][1][at] = NOT_INTEGRAL
    with pytest.raises(
        BundleError,
        match="^M11: bad value in characters: coefficient '2/3' is not an integer$",
    ):
        load_bundle(data)


def test_reject_bad_class_sizes():
    def mutate(d):
        d["ordinary"]["classes"][1]["size"] = 166
    corrupt(mutate)


def test_reject_missing_power_map():
    def mutate(d):
        del d["ordinary"]["power_maps"]["11"]
    corrupt(mutate)


def test_reject_power_map_order_mismatch():
    def mutate(d):
        d["ordinary"]["power_maps"]["2"][3] = 3  # 4a^2 must have order 2
    corrupt(mutate)


def test_reject_wrong_brauer_classes():
    def mutate(d):
        d["brauer"][0]["classes"][4] = "5a"  # not 5-regular
    corrupt(mutate)

    def mutate2(d):
        d["brauer"][0]["classes"][4] = "7a"  # unresolved name
    corrupt(mutate2)

    def mutate3(d):
        d["brauer"][0]["classes"].append("1a")  # listed twice
    corrupt(mutate3)


def test_reject_brauer_table_without_one_row_per_regular_class():
    # M11 mod 5 has 9 irreducible Brauer characters on its 9 5-regular
    # classes; a dropped row leaves 8, and a repeated one is no irreducible
    dropped = m11_raw()
    mod5 = dropped["brauer"][0]
    assert mod5["p"] == 5 and len(mod5["characters"]) == len(mod5["classes"]) == 9
    del mod5["characters"][3]
    with pytest.raises(
        BundleError, match="M11 mod 5: 8 rows for 9 5-regular classes"
    ):
        load_bundle(dropped)
    repeated = m11_raw()
    rows = repeated["brauer"][0]["characters"]
    rows[3] = rows[2]
    with pytest.raises(BundleError, match="M11 mod 5: a character row is repeated"):
        load_bundle(repeated)


def test_reject_duplicate_brauer_prime():
    def mutate(d):
        d["brauer"].append(d["brauer"][0])
    corrupt(mutate)


def test_reject_bad_arity():
    def mutate(d):
        d["ordinary"]["characters"][0] = [1, 1, 1]
    corrupt(mutate)


def test_reject_bad_degree():
    data = bundle_to_json(cyclic_table(2))
    data["ordinary"]["characters"][0] = [0, 0]
    with pytest.raises(BundleError):
        load_bundle(data)


def test_reject_malformed_value():
    def mutate(d):
        d["ordinary"]["characters"][1][1] = "not a number"
    corrupt(mutate)


def test_reject_bad_flags():
    # the group facts are derived, so even a value the table agrees with,
    # such as S4's own {"is_solvable": true}, is refused
    for flags in ({}, {"is_solvable": True}, {"is_nilpotent": False},
                  {"p_solvable_for": [2, 3]}, {"is_solvable": "yes"}, [2]):
        data = json.loads(resolve_bundle_path("s4.json").read_text())
        data["flags"] = flags
        with pytest.raises(BundleError, match="^S4: flags is not read"):
            load_bundle(data)


def direct_product_json(a, n):
    """The bundle of A x C_n from A's bundle: classes,
    power maps and characters are the products of those of A and C_n."""
    t = a.ordinary
    pairs = [(i, j) for i in range(len(t.classes)) for j in range(n)]
    at = {pair: k for k, pair in enumerate(pairs)}
    order = t.group_order * n

    def power(i, p):
        # x^p = x^(p mod o(x)), which needs only the power maps of A
        return t.class_of_power(i, p % t.classes[i].element_order)

    return {
        "group": f"{t.group_name}xC{n}",
        "order": order,
        "ordinary": {
            "classes": [
                {
                    "name": f"{t.classes[i].name}_g{j}",
                    "order": lcm(t.classes[i].element_order, n // gcd(n, j)),
                    "size": t.classes[i].size,
                }
                for i, j in pairs
            ],
            "power_maps": {
                str(p): [at[power(i, p), j * p % n] for i, j in pairs]
                for p in prime_factors(order)
            },
            "characters": [
                [cyc_to_json(chi[i] * root_of_unity(n, k * j)) for i, j in pairs]
                for chi in t.characters
                for k in range(n)
            ],
        },
    }


@pytest.mark.parametrize("name", BUNDLED)
def test_solvability_flags_are_derived_from_the_chief_factors(name):
    # the chief factors need every irreducible; the class sizes alone still
    # decide nilpotency
    data = json.loads(resolve_bundle_path(name).read_text())
    assert facts(load_bundle(data)) == FACTS[name]
    del data["ordinary"]["characters"][-1]
    assert facts(load_bundle(data)) == (None, set(), FACTS[name][2])


def test_p_solvable_for_a_non_solvable_group():
    # A5 x C7: its chief factors are A5 and C7, so it is 7-solvable only
    bundle = load_bundle(direct_product_json(load_named("a5.json"), 7))
    assert bundle.is_solvable is False
    assert bundle.p_solvable_for == frozenset({7})
    # S3 x C5 is solvable, hence p-solvable for every prime
    bundle = load_bundle(direct_product_json(load_named("s3.json"), 5))
    assert bundle.is_solvable is True
    assert bundle.p_solvable_for == frozenset({2, 3, 5})


def elementary_abelian_2(r):
    """The table of C2^r: its classes and characters both indexed by the
    vectors of F_2^r, with chi_a(x) = (-1)^(a·x)."""
    n = 2**r
    classes = tuple(ClassInfo(f"x{a}", 2 if a else 1, 1) for a in range(n))
    characters = tuple(
        tuple(-ONE if bin(a & x).count("1") % 2 else ONE for x in range(n))
        for a in range(n)
    )
    return CharacterTable(f"C2^{r}", n, classes, {2: (0,) * n}, characters)


def lattice_solvability(table):
    """(is_solvable, p_solvable_for) from every cover in the lattice of
    kernel intersections, as many as 2^r normal subgroups for C2^r: an
    oracle for the one chief series that TableBundle walks."""
    one = table.identity_index
    normal = {frozenset(range(len(table.classes)))}
    for chi in table.characters:
        kernel = frozenset(x for x, v in enumerate(chi) if v == chi[one])
        normal |= {n & kernel for n in normal}
    order = {n: sum(table.classes[x].size for x in n) for n in normal}
    factors = [
        prime_factors(order[n] // order[m])
        for n in normal
        for m in normal
        if m < n and not any(m < mid < n for mid in normal)
    ]
    return all(len(ps) == 1 for ps in factors), frozenset(
        p
        for p in prime_factors(table.group_order)
        if all(ps == (p,) or p not in ps for ps in factors)
    )


def test_one_chief_series_decides_as_every_cover_does(bundles):
    tables = [b.ordinary for b in bundles.values()]
    tables += [elementary_abelian_2(r) for r in range(1, 5)]
    tables += [cyclic_table(n).ordinary for n in (1, 12, 30, 36, 60)]
    for a, n in (("a5.json", 7), ("s3.json", 5)):
        tables.append(load_bundle(direct_product_json(load_named(a), n)).ordinary)
    for t in tables:
        b = TableBundle(t)
        assert (b.is_solvable, b.p_solvable_for) == lattice_solvability(t), t.group_name


def test_c2_6_derives_its_facts_at_once():
    # C2^6 has 2825 normal subgroups, one per subspace of F_2^6, and the
    # chief series visits 7 of them
    start = time.perf_counter()
    b = TableBundle(elementary_abelian_2(6))
    assert time.perf_counter() - start < 1.0
    assert facts(b) == (True, frozenset({2}), True)


def test_incomplete_table_may_not_declare_solvability():
    data = bundle_to_json(cyclic_table(6))
    data["ordinary"]["characters"] = data["ordinary"]["characters"][:2]
    bundle = load_bundle(data)
    assert bundle.is_solvable is None and bundle.p_solvable_for == frozenset()
    assert bundle.is_nilpotent is True
    # nor may it declare what its missing rows would show
    for flags in ({"is_solvable": True}, {"is_solvable": False}, {"p_solvable_for": [3]}):
        data["flags"] = flags
        with pytest.raises(BundleError, match="flags is not read"):
            load_bundle(data)


@pytest.mark.parametrize(
    "base, path, value, message",
    [pytest.param(*case[1:], id=case[0]) for case in BUNDLE_CORRUPTIONS],
)
def test_malformed_bundle_is_a_bundle_error(base, path, value, message):
    with pytest.raises(BundleError) as error:
        load_bundle(corrupted_bundle(base, path, value))
    assert str(error.value).startswith(message)


def test_unreadable_or_malformed_bundle_file_is_a_bundle_error(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"group": "S3",')
    listed = tmp_path / "listed.json"
    listed.write_text("[]")
    for source, message in (
        (tmp_path / "missing.json", f"cannot read bundle {tmp_path / 'missing.json'}: "),
        (tmp_path, f"cannot read bundle {tmp_path}: "),
        (broken, f"bundle {broken} is not valid JSON: "),
        (listed, "bundle must be a JSON object"),
        ([], "bundle must be a JSON object"),
    ):
        with pytest.raises(BundleError) as error:
            load_bundle(source)
        assert str(error.value).startswith(message)


def test_error_names_the_table():
    data = m11_raw()
    data["brauer"][0]["classes"][4] = "7a"
    with pytest.raises(BundleError, match=r"M11 mod 5.*7a"):
        load_bundle(data)


# -- serialization and path resolution ------------------------------------


def test_bundle_roundtrip(bundles):
    # the facts a cyclic_table states in memory are derived again on load
    for bundle in [*bundles.values(), cyclic_table(12)]:
        again = load_bundle(bundle_to_json(bundle))
        assert again.ordinary.classes == bundle.ordinary.classes
        assert again.ordinary.power_maps == bundle.ordinary.power_maps
        assert again.ordinary.characters == bundle.ordinary.characters
        assert [t.characters for t in again.brauer] == [t.characters for t in bundle.brauer]
        assert facts(again) == facts(bundle)


def test_resolve_bundle_path(tmp_path, monkeypatch):
    assert resolve_bundle_path("a5.json").is_file()
    assert resolve_bundle_path("a5") == resolve_bundle_path("a5.json")
    assert resolve_bundle_path("data/a5.json").name == "a5.json"

    with pytest.raises(BundleError, match="no bundle"):
        resolve_bundle_path("nonexistent.json")

    other = tmp_path / "tables"
    other.mkdir()
    copy_path = other / "a5.json"
    copy_path.write_text(resolve_bundle_path("a5.json").read_text())
    monkeypatch.setenv("HELPZC_DATA", str(other))
    assert data_dir() == other
    assert resolve_bundle_path("a5.json") == copy_path


def test_copy_module_is_not_needed_for_immutability(bundles):
    # tables hand out copies/immutables; mutating a parsed dict later must
    # not affect a loaded bundle
    data = m11_raw()
    bundle = load_bundle(data)
    before = bundle.ordinary.characters[1][1]
    data["ordinary"]["characters"][1][1] = 99
    assert bundle.ordinary.characters[1][1] == before
    assert copy.deepcopy(before) == before
