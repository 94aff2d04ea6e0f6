"""The JSON bundle format: reading, validating and writing table bundles.

A bundle holds one ordinary character table and optionally Brauer (p-modular)
tables for some primes.  Every value is a cyclotomic integer, written as a
JSON integer or as integer coefficients over zeta_n.  Loading validates the
table hard.  Class sizes must sum to the group order, and power maps must
exist for every prime dividing the exponent and respect element orders;
these checks finish before any value is decoded.  A value psi(x) is a sum
of o(x)-th roots of unity, so its encoding must be over zeta_n with n
dividing lcm(2, o(x)), which is checked before the value is reduced; its
conductor then divides o(x).  psi(x^p) must be sigma_p(psi(x)) wherever p
does not divide o(x), and the ordinary rows must satisfy exact row
orthogonality.  Every integer in the file must be a JSON integer, every
name a JSON string, and every key one that is read: a misspelt key would
otherwise drop what it holds without a word.
A table that fails any check is rejected outright, since every downstream
constraint is only as trustworthy as the table it came from.

Group facts are derived, never declared: nilpotency from the class sizes,
solvability and p-solvability from the chief factors of a complete table
(unknown for an incomplete one).  A bundle that lists a flags node is
rejected.

Only irreducible rows are read; a bundle that lists extra character rows
is rejected.  A reducible character psi adds nothing a complete table lacks,
and only a complete table can prove a row to be a character at all: there
psi = sum_i m_i chi_i with every m_i >= 0, identity 1 of `constraints`
makes the traces and the constant terms linear, so C(psi, l) =
sum_i m_i C(chi_i, l) and a(psi, l) = sum_i m_i a(chi_i, l), and every eps
that satisfies the rows of the chi_i satisfies those of psi; and
psi(x^j) = sigma_j(psi(x)) leaves the Galois twists the same.  Only the
p-constant relaxation could use a p-constant psi whose constituents are
not, and it then skips a full system that has no solution anyway, so a
store could differ only where that system would exhaust its node budget.

`chartables.load_bundle` imports this module on its first call, so a
command over a generated table (`cyclic_table`) never compiles it.
"""

from __future__ import annotations

import json
from math import gcd, lcm
from pathlib import Path

from .arith import factorize, is_prime, prime_factors
from .chartables import BundleError, CharacterTable, ClassInfo, TableBundle
from .cyclotomics import Cyc, FieldError, cyc_from_json, cyc_to_json


# -- validation ---------------------------------------------------------------

def _check_classes(g: str, order: int, classes, power_maps) -> None:
    if order < 1:
        raise BundleError(f"{g}: group order must be positive")
    if not classes:
        raise BundleError(f"{g}: table has no classes")
    names = [cl.name for cl in classes]
    if len(set(names)) != len(names):
        raise BundleError(f"{g}: duplicate class names")
    identities = [cl for cl in classes if cl.element_order == 1]
    if len(identities) != 1 or identities[0].size != 1:
        raise BundleError(f"{g}: need exactly one identity class of size 1")
    for cl in classes:
        if cl.element_order < 1 or order % cl.element_order:
            raise BundleError(
                f"{g}: class {cl.name} order {cl.element_order} does not divide {order}"
            )
        if cl.size < 1:
            raise BundleError(f"{g}: class {cl.name} has nonpositive size")
    if sum(cl.size for cl in classes) != order:
        raise BundleError(f"{g}: class sizes do not sum to the group order")

    for p in prime_factors(lcm(*(cl.element_order for cl in classes))):
        if p not in power_maps:
            raise BundleError(f"{g}: power map for prime {p} is missing")
    for p, pm in power_maps.items():
        if len(pm) != len(classes):
            raise BundleError(f"{g}: power map for {p} has wrong length")
        for i, j in enumerate(pm):
            if not 0 <= j < len(classes):
                raise BundleError(f"{g}: power map for {p} has a bad class index {j}")
            o = classes[i].element_order
            if classes[j].element_order != o // gcd(o, p):
                raise BundleError(
                    f"{g}: power map for {p} sends {classes[i].name} to a class of wrong order"
                )


def _check_ordinary(table: CharacterTable) -> None:
    g = table.group_name
    if not table.characters:
        raise BundleError(f"{g}: table has no characters")
    for row in table.characters:
        table.degree(row)

    # exact row orthogonality over the ordinary irreducibles
    chars = [_row_terms(row) for row in table.characters]
    for i, chi in enumerate(chars):
        for j in range(i, len(chars)):
            if _weighted_sum(table, chi, chars[j]) != table.group_order * (i == j):
                raise BundleError(
                    f"{g}: row orthogonality fails for characters {i} and {j}"
                )
    _check_power_maps(g, table)


def _check_power_maps(g: str, table: CharacterTable) -> None:
    """psi(x^j) = sigma_j(psi(x)), zeta -> zeta^j, for every power map j
    coprime to o(x), as each eigenvalue of x is raised to the j-th power."""
    classes = table.classes
    images = {}  # few values are irrational, and they repeat
    for r, row in enumerate(table.characters):
        for j, pm in table.power_maps.items():
            for cl, v, y in zip(classes, row, pm):
                if v is None or gcd(j, cl.element_order) != 1:
                    continue
                image = v if v.conductor == 1 else images.get((v, j))
                if image is None:
                    image = images[v, j] = v.galois(j)
                if row[y] != image:
                    raise BundleError(
                        f"{g}: power map for {j} sends {cl.name} to"
                        f" {classes[y].name}, where character {r} is"
                        f" {row[y]}, not {image}"
                    )


def _row_terms(row):
    """A row over one field: (n, terms) with row[x] equal to
    sum(c * zeta_n^e for e, c in terms[x]), all integers."""
    n = lcm(*(v.conductor for v in row))
    terms = tuple(
        tuple((e * (n // v.conductor), c) for e, c in v.coeffs.items()) for v in row
    )
    return n, terms


def _weighted_sum(table: CharacterTable, a, b) -> Cyc:
    """|G| <a, b> = sum_x |x| a(x) conj(b(x)) for rows given by _row_terms.
    Every product is added unreduced over Q(zeta_N), N the lcm of the two
    conductors, conjugation negating exponents; the integer sum is reduced
    to canonical form once."""
    (na, ta), (nb, tb) = a, b
    n = lcm(na, nb)
    sa, sb = n // na, n // nb
    acc: dict[int, int] = {}
    for cl, xs, ys in zip(table.classes, ta, tb):
        for e, c in xs:
            c *= cl.size
            for f, d in ys:
                k = (e * sa - f * sb) % n
                acc[k] = acc.get(k, 0) + c * d
    return Cyc(n, acc)


def _check_brauer(table: CharacterTable) -> None:
    g = f"{table.group_name} mod {table.prime}"
    p = table.prime
    # Brauer: as many irreducible Brauer characters as p-regular classes
    regular = sum(cl.element_order % p != 0 for cl in table.classes)
    if len(table.characters) != regular:
        raise BundleError(
            f"{g}: {len(table.characters)} rows for {regular}"
            f" {p}-regular classes, which need one irreducible each"
        )
    for row in table.characters:
        table.degree(row)
    if len(set(table.characters)) != len(table.characters):
        raise BundleError(f"{g}: a character row is repeated")
    _check_power_maps(g, table)


# -- construction -------------------------------------------------------------

def _typed(where: str, what: str, value, kind):
    """`value`, which must be of type `kind`; an int must be a JSON integer,
    neither a float nor a boolean."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise BundleError(f"{where}: {what} must be of type {kind.__name__}, got {value!r}")
    return value


def _field(where: str, node: dict, key: str, kind, default=None):
    """node[key], of type `kind`; `default` when absent, if given."""
    value = node.get(key, default)
    if value is None:
        raise BundleError(f"{where}: missing field {key!r}")
    return _typed(where, key, value, kind)


def _known(where: str, node: dict, keys) -> None:
    """Refuse a key of `node` outside `keys`: nothing reads it, so a
    misspelt key would drop what it holds without a word."""
    for key in node:
        if key not in keys:
            raise BundleError(f"{where}: unknown field {key!r}")


def _decode_rows(where: str, node: dict, key: str, positions, classes):
    """The rows listed under `key` as tuples over the checked `classes`: a
    row's j-th value goes to class positions[j], and every other class gets
    None.  The value at x must be encoded over zeta_n, n | lcm(2, o(x)), as
    a sum of o(x)-th roots of unity can be; a larger n is refused before
    the value is reduced."""
    out = []
    for r, row in enumerate(_field(where, node, key, list)):
        if not isinstance(row, list) or len(row) != len(positions):
            raise BundleError(f"{where}: character row has wrong arity")
        values = [None] * len(classes)
        for x, v in zip(positions, row):
            cl = classes[x]
            try:
                values[x] = cyc_from_json(v, lcm(2, cl.element_order))
            except FieldError as exc:
                raise BundleError(
                    f"{where}: character {r} at class {cl.name} is {exc}"
                ) from None
            except ValueError as exc:
                raise BundleError(f"{where}: bad value in {key}: {exc}") from None
        out.append(tuple(values))
    return tuple(out)


def _parse_ordinary(group: str, order: int, node: dict) -> CharacterTable:
    classes = []
    for rc in _field(group, node, "classes", list):
        if not isinstance(rc, dict):
            raise BundleError(f"{group}: malformed class entry {rc!r}")
        name = _field(group, rc, "name", str)
        where = f"{group} class {name}"
        _known(where, rc, ("name", "order", "size"))
        classes.append(
            ClassInfo(name, _field(where, rc, "order", int), _field(where, rc, "size", int))
        )
    power_maps = {}
    for key, pm in _field(group, node, "power_maps", dict).items():
        if (
            not str(key).isdigit()
            or not isinstance(pm, list)
            or any(type(i) is not int for i in pm)
        ):
            raise BundleError(f"{group}: malformed power map for {key!r}")
        power_maps[int(key)] = tuple(pm)
    if "extra_characters" in node:
        raise BundleError(
            f"{group}: extra_characters is not read: every character is a"
            " non-negative sum of irreducibles, whose rows a complete table"
            " already holds"
        )
    _known(group, node, ("classes", "power_maps", "characters"))
    _check_classes(group, order, classes, power_maps)
    return CharacterTable(
        group,
        order,
        tuple(classes),
        power_maps,
        _decode_rows(group, node, "characters", range(len(classes)), classes),
    )


def _parse_brauer(group: str, ordinary: CharacterTable, node) -> CharacterTable:
    _typed(group, "Brauer table", node, dict)
    p = _field(f"{group} Brauer table", node, "p", int)
    g = f"{group} mod {p}"
    _known(g, node, ("p", "classes", "characters"))
    if not is_prime(p):
        raise BundleError(f"{g}: {p} is not a prime")
    if ordinary.group_order % p:
        raise BundleError(f"{g}: {p} does not divide the group order")
    positions = []
    for name in _field(g, node, "classes", list):
        if _typed(g, "class name", name, str) not in ordinary._by_name:
            raise BundleError(f"{g}: unresolved class reference {name!r}")
        positions.append(ordinary._by_name[name])
    regular = [x for x, cl in enumerate(ordinary.classes) if cl.element_order % p]
    if sorted(positions) != regular:
        raise BundleError(
            f"{g}: classes must be exactly the {p}-regular ordinary classes, each once"
        )
    return CharacterTable(
        group,
        ordinary.group_order,
        ordinary.classes,
        ordinary.power_maps,
        _decode_rows(g, node, "characters", positions, ordinary.classes),
        prime=p,
    )


def _sylows_normal(table: CharacterTable) -> bool:
    """Whether G is nilpotent: for each prime p | |G|, the classes of p-power
    element order (identity included) must have sizes summing to |G|_p.
    The p-elements contain every Sylow p-subgroup, so then they are a single
    Sylow p-subgroup, which is therefore normal; and in a nilpotent group
    the p-elements are exactly its normal Sylow p-subgroup."""
    return all(
        sum(
            cl.size
            for cl in table.classes
            if prime_factors(cl.element_order) in ((), (p,))
        )
        == p**e
        for p, e in factorize(table.group_order)
    )


def _solvability(table: CharacterTable) -> tuple[bool, frozenset[int]]:
    """(is_solvable, p_solvable_for) of G, from a complete ordinary table.

    Every normal subgroup, as a set of classes, is an intersection of
    kernels of irreducibles, and each cover M < N in the lattice of those
    intersections is a chief factor N/M, of order |N|/|M|.  G is solvable
    when every chief factor has prime-power order, and p-solvable when
    every chief factor is a p-group or a p'-group."""
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


def read_bundle(source: str | Path | dict) -> TableBundle:
    """Load and validate a table bundle from a JSON file or parsed dict."""
    if isinstance(source, (str, Path)):
        try:
            with open(source) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise BundleError(f"cannot read bundle {source}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise BundleError(f"bundle {source} is not valid JSON: {exc}") from None
    else:
        data = source
    if not isinstance(data, dict):
        raise BundleError("bundle must be a JSON object")
    group = _field("bundle", data, "group", str)
    if "flags" in data:
        raise BundleError(
            f"{group}: flags is not read: nilpotency comes from the class sizes,"
            " solvability and p-solvability from the chief factors of a"
            " complete table"
        )
    _known(group, data, ("group", "order", "ordinary", "brauer"))
    order = _field(group, data, "order", int)
    ordinary = _parse_ordinary(group, order, _field(group, data, "ordinary", dict))
    _check_ordinary(ordinary)

    brauer = []
    seen = set()
    for node in _field(group, data, "brauer", list, []):
        t = _parse_brauer(group, ordinary, node)
        if t.prime in seen:
            raise BundleError(f"{group}: duplicate Brauer table for p={t.prime}")
        seen.add(t.prime)
        _check_brauer(t)
        brauer.append(t)

    solvable, p_solvable = None, frozenset()
    if len(ordinary.characters) == len(ordinary.classes):
        solvable, p_solvable = _solvability(ordinary)

    return TableBundle(
        group,
        ordinary,
        tuple(brauer),
        is_solvable=solvable,
        is_nilpotent=_sylows_normal(ordinary),
        p_solvable_for=p_solvable,
    )


def bundle_to_json(bundle: TableBundle) -> dict:
    """Inverse of load_bundle, mainly for tests and tooling."""
    ordinary = bundle.ordinary
    node = {
        "group": bundle.group_name,
        "order": ordinary.group_order,
        "ordinary": {
            "classes": [
                {"name": cl.name, "order": cl.element_order, "size": cl.size}
                for cl in ordinary.classes
            ],
            "power_maps": {str(p): list(pm) for p, pm in sorted(ordinary.power_maps.items())},
            "characters": [[cyc_to_json(v) for v in row] for row in ordinary.characters],
        },
    }
    if bundle.brauer:
        node["brauer"] = [
            {
                "p": t.prime,
                "classes": [cl.name for cl in t.classes if cl.element_order % t.prime],
                "characters": [
                    [cyc_to_json(v) for v in row if v is not None] for row in t.characters
                ],
            }
            for t in bundle.brauer
        ]
    return node
