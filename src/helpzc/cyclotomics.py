"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value (n, coeffs, den) is sum(c * zeta_n^e for e, c in coeffs) / den, in
a canonical form:

  * the coefficients are ints, reduced modulo the n-th cyclotomic
    polynomial, so exponents run over 0 .. phi(n)-1; zeros are dropped;
  * the conductor n is minimal (the value lies in no smaller cyclotomic
    field), and is never congruent to 2 mod 4, via
    zeta_{2m} = -zeta_m^{(m+1)/2} for odd m;
  * den >= 1 is in lowest terms, so the value is an algebraic integer
    exactly when den == 1; zero itself is (1, {}, 1).

Two values are equal iff their canonical forms are identical, so Cyc objects
are safely usable as dict keys.  Rationals are the conductor-1 values; plain
ints and fractions.Fraction coerce in arithmetic.  Every step is integer
arithmetic: reduction by the monic Phi_n, descent to a subfield by the
relative trace, the Galois action (which keeps the conductor), roots of
unity (built at their conductor) and traces.  So loading and checking a
table of algebraic integers never imports `fractions`: only `coeffs` (and
with it `as_rational`, `__hash__` and `__str__`) and `twisted_traces` of a
value with den > 1 do.  A Fraction operand exists only once `fractions` is
loaded, so operand checks read `sys.modules`.  No floating point is used.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from math import gcd, lcm

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
    drops p, as (d, integer coefficients over zeta_d, k) meaning those
    coefficients over k; None when the value does not lie there."""
    d = n // p
    if d % 4 == 2:
        d //= 2
    if d == 1:
        return (1, coeffs, 1) if set(coeffs) <= {0} else None
    q = n // d
    if d % p == 0:
        # zeta_d = zeta_n^p, and phi(n) = p phi(d): the field's canonical
        # vectors are those over the exponents divisible by p
        if any(e % p for e in coeffs):
            return None
        return d, {e // p: c for e, c in coeffs.items()}, 1
    # gcd(q, d) = 1: zeta_n^e = zeta_q^x zeta_d^y with e = x d + y q mod n,
    # and the trace to Q(zeta_d) takes zeta_q^x to its Ramanujan sum.  The
    # value lies in Q(zeta_d) iff phi(q) times it is that trace.
    sums = ramanujan_sums(q)
    dq, qd = pow(d, -1, q), pow(q, -1, d)
    trace: dict[int, int] = {}
    for e, c in coeffs.items():
        y = e * qd % d
        trace[y] = trace.get(y, 0) + c * sums[e * dq % q]
    trace = _reduce_mod_phi(d, trace)
    k = euler_phi(q)
    back = _reduce_mod_phi(n, {y * q % n: c for y, c in trace.items()})
    if back != {e: k * c for e, c in coeffs.items()}:
        return None
    return d, trace, k


def _canonical(n: int, pairs, den: int) -> tuple[int, dict[int, int], int]:
    # the value sum(c * zeta_n^e for e, c in pairs) / den, all integers
    folded: dict[int, int] = {}
    for e, c in pairs:
        if c:
            e %= n
            folded[e] = folded.get(e, 0) + c
    # (a sum that folds to nothing needs no power table)
    coeffs = folded and _reduce_mod_phi(n, folded)
    if not coeffs:
        return 1, {}, 1
    # descend to the minimal conductor, one maximal subfield step at a time;
    # n = 2 mod 4 descends to n/2 at once, Q(zeta_n) = Q(zeta_{n/2})
    while n > 1:
        for p in prime_factors(n):
            down = _try_descend(n, p, coeffs)
            if down is not None:
                n, coeffs, k = down
                den *= k
                break
        else:
            break
    g = gcd(den, *coeffs.values())
    if g > 1:
        den //= g
        coeffs = {e: c // g for e, c in coeffs.items()}
    return n, coeffs, den


def _is_fraction(value) -> bool:
    # a Fraction exists only once `fractions` is loaded: this imports nothing
    return isinstance(value, getattr(sys.modules.get("fractions"), "Fraction", ()))


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _as_ratio(value) -> tuple[int, int]:
    """(numerator, denominator > 0) of an int, a Fraction or a rational
    string as cyc_to_json writes it."""
    if isinstance(value, int):
        return int(value), 1
    if _is_fraction(value):
        return value.numerator, value.denominator
    if not isinstance(value, str):
        raise TypeError(f"cannot interpret {value!r} as an exact rational")
    num, _, den = value.partition("/")
    if _RATIONAL.fullmatch(value) and int(den or 1):
        return int(num), int(den or 1)
    raise ValueError(f"not an exact rational: {value!r}")


def _over_common(n: int, terms, den: int = 1) -> Cyc:
    # the value sum(c/q * zeta_n^e for e, c, q in terms) / den
    common = lcm(*(q for _, _, q in terms))
    pairs = [(e, c * (common // q)) for e, c, q in terms]
    return Cyc._raw(*_canonical(n, pairs, den * common))


class Cyc:
    """An element of some Q(zeta_n), always held in canonical form."""

    __slots__ = ("n", "_c", "den", "_hash")

    def __new__(cls, n: int, coeffs: dict, den: int = 1):
        if n < 1:
            raise ValueError(f"conductor must be positive, got {n}")
        if den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        return _over_common(n, [(int(e), *_as_ratio(c)) for e, c in coeffs.items()], den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyc values are immutable")

    def __copy__(self) -> "Cyc":
        return self

    def __deepcopy__(self, memo) -> "Cyc":
        return self

    def __reduce__(self):
        return (Cyc, (self.n, dict(self._c), self.den))

    # -- constructors -----------------------------------------------------

    @classmethod
    def _raw(cls, n: int, coeffs: dict[int, int], den: int = 1) -> "Cyc":
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "_c", coeffs)
        object.__setattr__(obj, "den", den)
        object.__setattr__(obj, "_hash", None)
        return obj

    @property
    def conductor(self) -> int:
        return self.n

    @property
    def coeffs(self) -> dict:
        """Canonical coefficients {exponent: rational}, ints when the value
        is integral and Fractions otherwise; a fresh dict."""
        if self.den == 1:
            return dict(self._c)
        from fractions import Fraction

        return {e: Fraction(c, self.den) for e, c in self._c.items()}

    # -- predicates and conversions ---------------------------------------

    def is_integral(self) -> bool:
        """True iff the value is an algebraic integer: Z[zeta_n] is the ring
        of integers of Q(zeta_n), with the power basis as an integral basis,
        so exactly when every canonical coefficient is an integer."""
        return self.den == 1

    def as_rational(self):
        """The value as an int or Fraction if it is rational, else None."""
        return self.coeffs.get(0, 0) if self.n == 1 else None

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Cyc | None":
        if isinstance(value, Cyc):
            return value
        if isinstance(value, int) or _is_fraction(value):
            return rational(value)
        return None

    def _embed(self, m: int, scale: int = 1) -> list[tuple[int, int]]:
        step = m // self.n
        return [(e * step, c * scale) for e, c in self._c.items()]

    def _scaled(self, num: int, den: int) -> "Cyc":
        # self * num / den, for den > 0
        coeffs = {e: c * num for e, c in self._c.items()}
        den *= self.den
        g = gcd(den, *coeffs.values())
        return Cyc._raw(self.n, {e: c // g for e, c in coeffs.items()}, den // g)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m, den = lcm(self.n, o.n), lcm(self.den, o.den)
        pairs = self._embed(m, den // self.den) + o._embed(m, den // o.den)
        return Cyc._raw(*_canonical(m, pairs, den))

    __radd__ = __add__

    def __neg__(self):
        return Cyc._raw(self.n, {e: -c for e, c in self._c.items()}, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.n == 1:
            q = o._c.get(0)
            return ZERO if q is None else self._scaled(q, o.den)
        if self.n == 1:
            return o * self
        m = lcm(self.n, o.n)
        a, b = self._embed(m), o._embed(m)
        prod = [(e1 + e2, c1 * c2) for e1, c1 in a for e2, c2 in b]
        return Cyc._raw(*_canonical(m, prod, self.den * o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not (isinstance(other, int) or _is_fraction(other)):
            return NotImplemented
        num, den = _as_ratio(other)
        if not num:
            raise ZeroDivisionError("division of a cyclotomic value by zero")
        return self._scaled(den, num) if num > 0 else self._scaled(-den, -num)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- Galois action and traces ------------------------------------------

    def galois(self, j: int) -> "Cyc":
        """Apply the automorphism zeta_n -> zeta_n^j; j must be coprime to n.
        sigma_j maps Q(zeta_d) onto itself for every d | n, and Z[zeta_n]
        onto itself, so the image keeps the conductor and the denominator."""
        n = self.n
        if gcd(j, n) != 1:
            raise GaloisError(
                f"zeta -> zeta^{j} is not a Galois automorphism of Q(zeta_{n})"
            )
        if n == 1:
            return self
        image = _reduce_mod_phi(n, {e * j % n: c for e, c in self._c.items()})
        return Cyc._raw(n, image, self.den)

    def twisted_traces(self, m: int) -> tuple:
        """Tr_{Q(zeta_m)/Q}(self * zeta_m^-l) for l = 0 .. m-1; the value
        must lie in Q(zeta_m).

        With self = sum_a c_a zeta_n^a / den, each trace is
        sum_a c_a * Tr(zeta_m^(j_a - l)) / den, j_a = a*m/n: per term, c_a
        times the Ramanujan sums read backwards from j_a, with no field
        multiplication.  The traces are ints when den == 1, else Fractions.
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
            out = terms[0]
        else:
            out = tuple(map(sum, zip(*terms))) if terms else (0,) * m
        if self.den == 1:
            return out
        from fractions import Fraction

        return tuple(Fraction(t, self.den) for t in out)

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
        return self.n == o.n and self.den == o.den and self._c == o._c

    def __hash__(self):
        h = self._hash
        if h is None:
            c = self.coeffs
            h = hash(c.get(0, 0)) if self.n == 1 else hash((self.n, tuple(sorted(c.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self._c)

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items()):
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


def rational(value) -> Cyc:
    """The rational number `value` (an int, a Fraction, or a string as
    cyc_to_json writes one) as a conductor-1 Cyc."""
    num, den = _as_ratio(value)
    if not num:
        return ZERO
    g = gcd(num, den)
    return Cyc._raw(1, {0: num // g}, den // g)


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


def from_coeffs(n: int, coeffs) -> Cyc:
    """Build a value from {exponent: rational} (or pair iterable) over zeta_n."""
    return Cyc(n, dict(coeffs))


ZERO = Cyc._raw(1, {})
ONE = Cyc._raw(1, {0: 1})


# -- JSON encoding used by the table file format ----------------------------

def _rat_to_json(c: int, den: int):
    g = gcd(c, den)
    return c // g if g == den else f"{c // g}/{den // g}"


def cyc_to_json(a: Cyc):
    """Encode a value: bare int / "num/den" for rationals, else {n, coeffs}."""
    if a.n == 1:
        return _rat_to_json(a._c.get(0, 0), a.den)
    return {"n": a.n, "coeffs": [[e, _rat_to_json(c, a.den)] for e, c in sorted(a._c.items())]}


def _json_rational(value) -> tuple[int, int]:
    """A rational from JSON as (numerator, denominator > 0): an integer (not
    a boolean), or a string "num" or "num/den" as cyc_to_json writes it."""
    if type(value) is int or isinstance(value, str):
        return _as_ratio(value)
    raise ValueError(f"not an exact rational: {value!r}")


def cyc_from_json(obj) -> Cyc:
    """Decode the encoding produced by cyc_to_json (input need not be canonical)."""
    if type(obj) is int or isinstance(obj, str):
        return rational(obj)
    if isinstance(obj, dict):
        try:
            n = obj["n"]
            pairs = obj["coeffs"]
        except KeyError as exc:
            raise ValueError(f"malformed cyclotomic value encoding: {obj!r}") from exc
        if type(n) is not int or n < 1:
            raise ValueError(f"bad conductor in encoding: {n!r}")
        if not isinstance(pairs, list):
            raise ValueError(f"coefficients must be a list: {pairs!r}")
        terms = []
        for pair in pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"bad coefficient entry: {pair!r}")
            e, c = pair
            if type(e) is not int or not 0 <= e < n:
                raise ValueError(f"exponent {e!r} out of range for conductor {n}")
            terms.append((e, *_json_rational(c)))
        return _over_common(n, terms)
    raise ValueError(f"not a cyclotomic value encoding: {obj!r}")
