"""Exact arithmetic in the rings of cyclotomic integers Z[zeta_n].

A character value is a sum of roots of unity, so every table value is an
element of some Z[zeta_n].  A value (n, coeffs) is
sum(c * zeta_n^e for e, c in coeffs), in a canonical form:

  * the coefficients are ints, reduced modulo the n-th cyclotomic
    polynomial, so exponents run over 0 .. phi(n)-1; zeros are dropped;
  * the conductor n is minimal (the value lies in no smaller cyclotomic
    field), and is never congruent to 2 mod 4, via
    zeta_{2m} = -zeta_m^{(m+1)/2} for odd m; zero itself is (1, {}).

Two values are equal iff their canonical forms are identical, so Cyc objects
are safely usable as dict keys.  Integers are the conductor-1 values, and
plain ints coerce in arithmetic.  Z[zeta_n] is closed under sums, products
and the Galois action, and Z[zeta_n] meets Q(zeta_d) in Z[zeta_d], so the
descent to a subfield divides exactly: every step is integer arithmetic,
and neither `fractions` nor floating point is used.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import index

from .arith import divisors, euler_phi, mobius, prime_factors


class GaloisError(ValueError):
    """Raised when zeta -> zeta^j is not a Galois automorphism."""


class FieldError(ValueError):
    """Raised when a value does not lie in the stated cyclotomic field."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise ValueError(f"no cyclotomic polynomial for n={n}")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n)[:-1]:
        poly = _polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials with monic divisor.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        if c:
            out[k] = c
            for i in range(dd + 1):
                num[k + i] -= c * den[i]
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^e mod Phi_n for e in 0..n-1, each as its nonzero (index, entry)
    pairs over the basis 1, x, .., x^(phi(n)-1)."""
    deg = euler_phi(n)
    phi_poly = cyclotomic_polynomial(n)
    rows = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(n):
        rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c - top * f for c, f in zip(cur, phi_poly)]
    return tuple(rows)


def _reduce_mod_phi(n: int, sparse: dict[int, int]) -> dict[int, int]:
    # Exponents must already be folded into 0..n-1.
    deg = euler_phi(n)
    table = _power_table(n)
    dense = [0] * deg
    for e, c in sparse.items():
        if e < deg:
            dense[e] += c
        else:
            for i, r in table[e]:
                dense[i] += c * r
    return {i: c for i, c in enumerate(dense) if c}


def _try_descend(n: int, p: int, coeffs: dict[int, int]):
    """The value sum c zeta_n^e in the maximal subfield Q(zeta_d) that
    drops p, as (d, its integer coefficients over zeta_d); None when the
    value does not lie there."""
    d = n // p
    if d % 4 == 2:
        d //= 2
    if d == 1:
        return (1, coeffs) if set(coeffs) <= {0} else None
    q = n // d
    if d % p == 0:
        # zeta_d = zeta_n^p, and phi(n) = p phi(d): the field's canonical
        # vectors are those over the exponents divisible by p
        if any(e % p for e in coeffs):
            return None
        return d, {e // p: c for e, c in coeffs.items()}
    # gcd(q, d) = 1: zeta_n^e = zeta_q^x zeta_d^y with e = x d + y q mod n,
    # and the trace to Q(zeta_d) takes zeta_q^x to its Ramanujan sum.  The
    # value lies in Q(zeta_d) iff phi(q) times it is that trace, and then
    # in Z[zeta_d], so phi(q) divides every coefficient of the trace.
    sums = ramanujan_sums(q)
    dq, qd = pow(d, -1, q), pow(q, -1, d)
    trace: dict[int, int] = {}
    for e, c in coeffs.items():
        y = e * qd % d
        trace[y] = trace.get(y, 0) + c * sums[e * dq % q]
    k = euler_phi(q)
    down = {}
    for y, c in _reduce_mod_phi(d, trace).items():
        if c % k:
            return None
        down[y] = c // k
    if _reduce_mod_phi(n, {y * q % n: c for y, c in down.items()}) != coeffs:
        return None
    return d, down


def _canonical(n: int, pairs) -> tuple[int, dict[int, int]]:
    # the value sum(c * zeta_n^e for e, c in pairs), all integers
    folded: dict[int, int] = {}
    for e, c in pairs:
        if c:
            e %= n
            folded[e] = folded.get(e, 0) + c
    # (a sum that folds to nothing needs no power table)
    coeffs = folded and _reduce_mod_phi(n, folded)
    if not coeffs:
        return 1, {}
    # descend to the minimal conductor, one maximal subfield step at a time;
    # n = 2 mod 4 descends to n/2 at once, Q(zeta_n) = Q(zeta_{n/2})
    while n > 1:
        for p in prime_factors(n):
            down = _try_descend(n, p, coeffs)
            if down is not None:
                n, coeffs = down
                break
        else:
            break
    return n, coeffs


class Cyc:
    """An element of some Z[zeta_n], always held in canonical form."""

    __slots__ = ("n", "_c", "_hash")

    def __new__(cls, n: int, coeffs: dict):
        """sum(c * zeta_n^e for e, c in coeffs.items()); every exponent and
        coefficient must be an int."""
        if n < 1:
            raise ValueError(f"conductor must be positive, got {n}")
        return Cyc._raw(*_canonical(n, [(index(e), index(c)) for e, c in coeffs.items()]))

    def __setattr__(self, name, value):
        raise AttributeError("Cyc values are immutable")

    def __copy__(self) -> "Cyc":
        return self

    def __deepcopy__(self, memo) -> "Cyc":
        return self

    def __reduce__(self):
        return (Cyc, (self.n, dict(self._c)))

    @classmethod
    def _raw(cls, n: int, coeffs: dict[int, int]) -> "Cyc":
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "_c", coeffs)
        object.__setattr__(obj, "_hash", None)
        return obj

    @property
    def conductor(self) -> int:
        return self.n

    @property
    def coeffs(self) -> dict[int, int]:
        """Canonical coefficients {exponent: int}; a fresh dict."""
        return dict(self._c)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Cyc | None":
        if isinstance(value, Cyc):
            return value
        if isinstance(value, int):
            return Cyc._raw(1, {0: int(value)} if value else {})
        return None

    def _embed(self, m: int) -> list[tuple[int, int]]:
        step = m // self.n
        return [(e * step, c) for e, c in self._c.items()]

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = lcm(self.n, o.n)
        return Cyc._raw(*_canonical(m, self._embed(m) + o._embed(m)))

    __radd__ = __add__

    def __neg__(self):
        return Cyc._raw(self.n, {e: -c for e, c in self._c.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.n == 1:
            k = o._c.get(0)
            return ZERO if k is None else Cyc._raw(self.n, {e: c * k for e, c in self._c.items()})
        if self.n == 1:
            return o * self
        m = lcm(self.n, o.n)
        a, b = self._embed(m), o._embed(m)
        return Cyc._raw(*_canonical(m, [(e1 + e2, c1 * c2) for e1, c1 in a for e2, c2 in b]))

    __rmul__ = __mul__

    # -- Galois action and traces ------------------------------------------

    def galois(self, j: int) -> "Cyc":
        """Apply the automorphism zeta_n -> zeta_n^j; j must be coprime to n.
        sigma_j maps Q(zeta_d) onto itself for every d | n, and Z[zeta_n]
        onto itself, so the image keeps the conductor."""
        n = self.n
        if gcd(j, n) != 1:
            raise GaloisError(
                f"zeta -> zeta^{j} is not a Galois automorphism of Q(zeta_{n})"
            )
        if n == 1:
            return self
        return Cyc._raw(n, _reduce_mod_phi(n, {e * j % n: c for e, c in self._c.items()}))

    def twisted_traces(self, m: int) -> tuple[int, ...]:
        """Tr_{Q(zeta_m)/Q}(self * zeta_m^-l) for l = 0 .. m-1, all ints; the
        value must lie in Q(zeta_m).

        With self = sum_a c_a zeta_n^a, each trace is
        sum_a c_a * Tr(zeta_m^(j_a - l)), j_a = a*m/n: per term, c_a times
        the Ramanujan sums read backwards from j_a, with no field
        multiplication.
        """
        step = self._step_into(m)
        sums = ramanujan_sums(m)
        terms = []
        for e, c in self._c.items():
            j = e * step
            # sums[j - ell] for ell = 0 .. m-1, the index wrapping below 0
            turned = sums[j::-1] + sums[:j:-1]
            terms.append(turned if c == 1 else tuple(c * s for s in turned))
        if len(terms) == 1:
            return terms[0]
        return tuple(map(sum, zip(*terms))) if terms else (0,) * m

    def _step_into(self, m: int) -> int:
        # zeta_n = zeta_m^(m/n) once the conductor n divides m
        if m < 1 or m % self.n:
            raise FieldError(
                f"value outside stated field: conductor {self.n} does not divide {m}"
            )
        return m // self.n

    # -- equality, hashing, display ----------------------------------------

    def __eq__(self, other):
        o = other if other.__class__ is Cyc else self._coerce(other)
        if o is None:
            return NotImplemented
        return self.n == o.n and self._c == o._c

    def __hash__(self):
        h = self._hash
        if h is None:
            c = self._c
            h = hash(c.get(0, 0)) if self.n == 1 else hash((self.n, tuple(sorted(c.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self._c)

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e, c in sorted(self._c.items()):
            if e == 0:
                parts.append(str(c))
            else:
                mono = f"z{self.n}" if e == 1 else f"z{self.n}^{e}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"Cyc({self})"


@lru_cache(maxsize=None)
def ramanujan_sums(m: int) -> tuple[int, ...]:
    """Tr_{Q(zeta_m)/Q}(zeta_m^j) for j = 0 .. m-1: the Ramanujan sum
    mu(r) * phi(m)/phi(r), with r = m/gcd(m, j) the order of zeta_m^j."""
    phim = euler_phi(m)
    return tuple(
        mobius(m // gcd(m, j)) * (phim // euler_phi(m // gcd(m, j)))
        for j in range(m)
    )


def root_of_unity(n: int, i: int = 1) -> Cyc:
    """zeta_n^i, a primitive n-th root of unity raised to the i-th power:
    a primitive m-th root, m = n / gcd(n, i), of conductor m (for m = 2 mod
    4, minus a primitive (m/2)-th root of conductor m/2)."""
    if n < 1:
        raise ValueError(f"root of unity needs a positive order, got {n}")
    g = gcd(n, i)
    m, e, sign = n // g, i // g, 1
    if m % 4 == 2:
        m //= 2
        e, sign = e * ((m + 1) // 2), -1
    return Cyc._raw(m, _reduce_mod_phi(m, {e % m: sign}))


ZERO = Cyc._raw(1, {})
ONE = Cyc._raw(1, {0: 1})


# -- JSON encoding used by the table file format ----------------------------

def cyc_to_json(a: Cyc):
    """Encode a value: a bare int for an integer, else {n, coeffs}."""
    if a.n == 1:
        return a._c.get(0, 0)
    return {"n": a.n, "coeffs": [[e, c] for e, c in sorted(a._c.items())]}


def cyc_from_json(obj, m: int) -> Cyc:
    """Decode the encoding produced by cyc_to_json (input need not be
    canonical) of a value in Q(zeta_m): a JSON integer, or {n, coeffs} and
    no other key, with integer [exponent, coefficient] pairs.  An encoding
    over zeta_n is refused with a FieldError unless n divides m, before any
    reduction, so the work is bounded by m, not by the input."""
    if type(obj) is int:
        return ONE * obj
    if not isinstance(obj, dict):
        raise ValueError(f"not a cyclotomic integer encoding: {obj!r}")
    if obj.keys() != {"n", "coeffs"}:
        raise ValueError(f"malformed cyclotomic value encoding: {obj!r}")
    n, pairs = obj["n"], obj["coeffs"]
    if type(n) is not int or n < 1:
        raise ValueError(f"bad conductor in encoding: {n!r}")
    if m % n:
        raise FieldError(f"encoded over zeta_{n}, outside Q(zeta_{m})")
    if not isinstance(pairs, list):
        raise ValueError(f"coefficients must be a list: {pairs!r}")
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"bad coefficient entry: {pair!r}")
        e, c = pair
        if type(e) is not int or not 0 <= e < n:
            raise ValueError(f"exponent {e!r} out of range for conductor {n}")
        if type(c) is not int:
            raise ValueError(f"coefficient {c!r} is not an integer")
    return Cyc._raw(*_canonical(n, pairs))
