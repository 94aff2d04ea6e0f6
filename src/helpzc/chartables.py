"""Character table data model.

A bundle holds one ordinary character table and optionally Brauer (p-modular)
tables for some primes.  Every row is an irreducible character, ordinary or
Brauer, and all values are cyclotomic integers (`Cyc`).  A bundle
is built in memory (`cyclic_table`, or `TableBundle` by hand) or loaded
from a JSON file (`load_bundle`).  The file format and the checks that
every loaded table must pass live in `bundlefile`, which `load_bundle`
imports on its first call.  However a bundle is made, `TableBundle`
derives its group facts (`is_nilpotent`, `is_solvable`, `p_solvable_for`)
from its ordinary table; no caller declares them.
`resolve_bundle_path` finds the packaged bundles on disk.
"""

from __future__ import annotations

import os
from math import gcd, lcm
from pathlib import Path

from .arith import factorize, prime_factors
from .cyclotomics import Cyc, root_of_unity
from .records import Record


class BundleError(ValueError):
    """Raised when a table file violates the format or a table invariant."""


class ClassInfo(Record):
    __slots__ = ("name", "element_order", "size")


class CharacterTable:
    """One character table: ordinary (prime=None) or p-modular (prime=p).

    Every row is indexed by the ordinary classes.  A Brauer table shares
    the ordinary table's `classes` and `power_maps`, and each of its rows
    holds None at every p-singular class.
    """

    def __init__(
        self,
        group_name: str,
        group_order: int,
        classes: tuple[ClassInfo, ...],
        power_maps: dict[int, tuple[int, ...]],
        characters: tuple[tuple[Cyc | None, ...], ...],
        prime: int | None = None,
    ):
        self.group_name = group_name
        self.group_order = group_order
        self.classes = classes
        self.power_maps = power_maps
        self.characters = characters
        self.prime = prime
        self._by_name = {cl.name: i for i, cl in enumerate(classes)}
        self._identity = next(
            (i for i, cl in enumerate(classes) if cl.element_order == 1), None
        )
        self._exponent = lcm(*(cl.element_order for cl in classes))
        # k -> classes_of_order_dividing(k)
        self._dividing: dict[int, tuple[int, ...]] = {}
        # unit order m -> the integer trace block of these rows and its
        # numbered trace tuples (see constraints._traced), built on first use
        self.trace_blocks: dict = {}
        # a proper power's PAVector -> these rows' sums, and on an ordinary
        # table the order-k templates (constraints._level_sums, _template)
        self.level_sums: dict = {}
        self.templates: dict = {}
        # element order k -> the group elements' tuples (verify.trivial_solutions)
        self.group_elements: dict = {}
        # these rows as constraints.CharRows, built on first use
        self.char_rows = None

    @property
    def is_brauer(self) -> bool:
        return self.prime is not None

    @property
    def identity_index(self) -> int:
        if self._identity is None:
            raise BundleError(f"{self.group_name}: table has no identity class")
        return self._identity

    def index_of(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise BundleError(f"{self.group_name}: no class named {name!r}") from None

    def degree(self, row: tuple[Cyc, ...]) -> int:
        value = row[self.identity_index]
        d = value.coeffs.get(0, 0) if value.conductor == 1 else 0
        if d <= 0:
            r = self.characters.index(row)
            raise BundleError(
                f"{self.group_name}: character {r} has degree {value},"
                " which is not a positive integer"
            )
        return d

    def element_orders(self) -> tuple[int, ...]:
        return tuple(sorted({cl.element_order for cl in self.classes}))

    def exponent(self) -> int:
        return self._exponent

    def prime_graph_missing_pq(self) -> tuple[int, ...]:
        """Products p*q of distinct primes both occurring as element orders,
        with no element of order p*q."""
        orders = set(self.element_orders())
        primes = sorted({p for o in orders for p in prime_factors(o)})
        out = []
        for i, p in enumerate(primes):
            for q in primes[i + 1:]:
                if p * q not in orders:
                    out.append(p * q)
        return tuple(sorted(out))

    def class_of_power(self, c: int, d: int) -> int:
        """Index of the class of x^d for x in class c, composing power maps."""
        d %= self._exponent
        if d == 0:
            return self.identity_index
        for p, e in factorize(d):
            pm = self.power_maps.get(p)
            if pm is None:
                raise BundleError(
                    f"{self.group_name}: power map for prime {p} is missing"
                )
            for _ in range(e):
                c = pm[c]
        return c

    def classes_of_order_dividing(self, k: int) -> tuple[int, ...]:
        """Non-identity classes whose element order divides k (table order),
        found once per k."""
        got = self._dividing.get(k)
        if got is None:
            got = self._dividing[k] = tuple(
                i
                for i, cl in enumerate(self.classes)
                if cl.element_order > 1 and k % cl.element_order == 0
            )
        return got


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
    kernels of irreducibles.  So every normal subgroup properly inside a
    normal N lies in some N ∩ ker chi other than N, and a largest of those
    is a maximal normal subgroup M of G inside N: N/M is a chief factor.
    Stepping so from G down to 1 gives one chief series, and by Jordan–Hölder
    its factor orders are those of every chief series.  G is solvable when
    every chief factor has prime-power order, and p-solvable when every
    chief factor is a p-group or a p'-group."""
    one = table.identity_index
    kernels = [
        frozenset(x for x, v in enumerate(chi) if v == chi[one])
        for chi in table.characters
    ]

    def order(n):
        return sum(table.classes[x].size for x in n)

    factors = []
    n = frozenset(range(len(table.classes)))
    while below := [n & kernel for kernel in kernels if not n <= kernel]:
        m = max(below, key=order)
        factors.append(prime_factors(order(n) // order(m)))
        n = m
    return all(len(ps) == 1 for ps in factors), frozenset(
        p
        for p in prime_factors(table.group_order)
        if all(ps == (p,) or p not in ps for ps in factors)
    )


class TableBundle:
    """A group's ordinary table and its Brauer tables, named by the ordinary
    table.  Nilpotency comes from its class sizes; solvability and
    p-solvability from the chief factors of a complete table, else None
    and the empty set."""

    def __init__(self, ordinary: CharacterTable, brauer: tuple[CharacterTable, ...] = ()):
        self.group_name = ordinary.group_name
        self.ordinary = ordinary
        self.brauer = brauer
        # Brauer table -> its rows that restrict no ordinary irreducible, as
        # a table of their own (constraints.usable_tables), built on first
        # use: they depend on both tables, and the bundle holds both
        self.added_rows: dict = {}
        self.is_nilpotent = _sylows_normal(ordinary)
        self.is_solvable, self.p_solvable_for = None, frozenset()
        if len(ordinary.characters) == len(ordinary.classes):
            self.is_solvable, self.p_solvable_for = _solvability(ordinary)

    @property
    def brauer_primes(self) -> tuple[int, ...]:
        return tuple(t.prime for t in self.brauer)


def load_bundle(source: str | Path | dict) -> TableBundle:
    """Load and validate a table bundle from a JSON file or parsed dict.
    The format and its checks are `bundlefile`'s, imported on first use."""
    from .bundlefile import read_bundle

    return read_bundle(source)


# The largest n that cyclic_table builds: its n rows of n values hold about
# 8·n² bytes of references, and deriving its facts compares every value.
CYCLIC_LIMIT = 1000


def cyclic_table(n: int) -> TableBundle:
    """The full table bundle of the cyclic group of order n (generator g),
    n <= CYCLIC_LIMIT."""
    if n < 1:
        raise ValueError(f"cyclic group order must be positive, got {n}")
    if n > CYCLIC_LIMIT:
        raise ValueError(
            f"cyclic group order {n} is above the limit of {CYCLIC_LIMIT}:"
            f" its table would hold {n}² values"
        )
    classes = tuple(
        ClassInfo(f"g{a}", n // gcd(n, a) if a else 1, 1) for a in range(n)
    )
    power_maps = {p: tuple((a * p) % n for a in range(n)) for p in prime_factors(n)}
    roots = [root_of_unity(n, e) for e in range(n)]
    characters = tuple(tuple(roots[j * a % n] for a in range(n)) for j in range(n))
    return TableBundle(CharacterTable(f"C{n}", n, classes, power_maps, characters))


# -- bundled data on disk -----------------------------------------------------

DATA_ENV_VAR = "HELPZC_DATA"


def data_dir() -> Path:
    """Directory holding the packaged table bundles (env override honored)."""
    env = os.environ.get(DATA_ENV_VAR)
    if env:
        return Path(env)
    return Path(__file__).resolve().parent / "data"


def resolve_bundle_path(name: str) -> Path:
    """Resolve a bundle argument: a bare name (no directory part and no
    suffix) names data_dir()/name.json first, so that no file of that name
    elsewhere, a store say, shadows the bundle; else a real path, or a
    name in the data directory."""
    p = Path(name)
    base = data_dir()
    bare = base / f"{name}.json"
    if p.name == name and not p.suffix and bare.is_file():
        return bare
    if p.is_file():
        return p
    for candidate in (base / name, base / p.name, base / f"{p.name}.json"):
        if candidate.is_file():
            return candidate
    raise BundleError(f"no bundle found for {name!r} (searched {base})")

