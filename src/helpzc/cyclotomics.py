"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value is stored as a Q-linear combination of powers of a primitive n-th
root of unity, kept in a canonical form:

  * the coefficient vector is reduced modulo the n-th cyclotomic polynomial,
    so exponents run over 0 .. phi(n)-1;
  * the conductor n is minimal (the value lies in no smaller cyclotomic
    field), and is never congruent to 2 mod 4, via
    zeta_{2m} = -zeta_m^{(m+1)/2} for odd m;
  * zero coefficients are dropped; zero itself is (n=1, {}).

Two values are equal iff their canonical forms are identical, so Cyc objects
are safely usable as dict keys.  Rationals are the conductor-1 values; plain
ints and fractions.Fraction coerce in arithmetic.  No floating point is used
anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .arith import divisors, euler_phi, mobius, prime_factors

# Rationals are stdlib fractions; the alias documents intent in signatures.
Rat = Fraction


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
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """x^e mod Phi_n for e in 0..n-1, as dense integer vectors of length phi(n)."""
    deg = euler_phi(n)
    phi_poly = cyclotomic_polynomial(n)
    red = [-phi_poly[i] for i in range(deg)]  # x^deg == red
    rows = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(n):
        rows.append(tuple(cur))
        top = cur[deg - 1]
        nxt = [0] * deg
        for i in range(deg - 1):
            nxt[i + 1] = cur[i]
        if top:
            for i in range(deg):
                nxt[i] += top * red[i]
        cur = nxt
    return tuple(rows)


def _reduce_mod_phi(n: int, sparse: dict[int, Fraction]) -> dict[int, Fraction]:
    # Exponents must already be folded into 0..n-1.
    deg = euler_phi(n)
    table = _power_table(n)
    dense = [Fraction(0)] * deg
    for e, c in sparse.items():
        row = table[e]
        for i in range(deg):
            if row[i]:
                dense[i] += c * row[i]
    return {i: c for i, c in enumerate(dense) if c}


@lru_cache(maxsize=None)
def _descent_data(n: int, d: int):
    """Row-reduction data deciding membership of Q(zeta_n) values in Q(zeta_d).

    Returns (E, deg_d, deg_n) where E is the row transform of the matrix M
    whose columns are the canonical vectors of zeta_d^j (j < phi(d)) inside
    Q(zeta_n): E @ M is the identity stacked on zeros.  A vector v lies in the
    span iff (E @ v) vanishes beyond the first phi(d) entries, in which case
    the leading entries are the coordinates over the zeta_d power basis.
    """
    deg_n, deg_d = euler_phi(n), euler_phi(d)
    step = n // d
    table = _power_table(n)
    cols = [table[(step * j) % n] for j in range(deg_d)]
    M = [[Fraction(cols[j][i]) for j in range(deg_d)] for i in range(deg_n)]
    E = [[Fraction(1 if i == j else 0) for j in range(deg_n)] for i in range(deg_n)]
    r = 0
    for col in range(deg_d):
        piv = next(i for i in range(r, deg_n) if M[i][col])
        M[r], M[piv] = M[piv], M[r]
        E[r], E[piv] = E[piv], E[r]
        inv = 1 / M[r][col]
        M[r] = [x * inv for x in M[r]]
        E[r] = [x * inv for x in E[r]]
        for i in range(deg_n):
            if i != r and M[i][col]:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
                E[i] = [a - f * b for a, b in zip(E[i], E[r])]
        r += 1
    return tuple(tuple(row) for row in E), deg_d, deg_n


def _try_descend(n: int, d: int, coeffs: dict[int, Fraction]) -> dict[int, Fraction] | None:
    if d == 1:
        if set(coeffs) <= {0}:
            return dict(coeffs)
        return None
    E, deg_d, deg_n = _descent_data(n, d)
    y = [Fraction(0)] * deg_n
    for i, c in coeffs.items():
        for t in range(deg_n):
            if E[t][i]:
                y[t] += E[t][i] * c
    if any(y[t] for t in range(deg_d, deg_n)):
        return None
    return {j: y[j] for j in range(deg_d) if y[j]}


def _canonical(n: int, sparse: dict[int, Fraction]) -> tuple[int, dict[int, Fraction]]:
    folded: dict[int, Fraction] = {}
    for e, c in sparse.items():
        if c:
            e %= n
            folded[e] = folded.get(e, Fraction(0)) + c
    folded = {e: c for e, c in folded.items() if c}
    if not folded:
        return 1, {}
    if n % 4 == 2:
        m = n // 2
        half = (m + 1) // 2
        moved: dict[int, Fraction] = {}
        for e, c in folded.items():
            if e % 2:
                c = -c
            e2 = (e * half) % m
            moved[e2] = moved.get(e2, Fraction(0)) + c
        n, folded = m, {e: c for e, c in moved.items() if c}
        if not folded:
            return 1, {}
    coeffs = _reduce_mod_phi(n, folded)
    if not coeffs:
        return 1, {}
    # descend to the minimal conductor, one maximal subfield step at a time
    while n > 1:
        for p in prime_factors(n):
            d = n // p
            if d % 4 == 2:
                d //= 2
            down = _try_descend(n, d, coeffs)
            if down is not None:
                n, coeffs = d, down
                break
        else:
            break
    return n, coeffs


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class Cyc:
    """An element of some Q(zeta_n), always held in canonical form."""

    __slots__ = ("n", "_c", "_hash")

    def __init__(self, n: int, coeffs: dict[int, Fraction]):
        if n < 1:
            raise ValueError(f"conductor must be positive, got {n}")
        n, coeffs = _canonical(n, {int(e): _as_fraction(c) for e, c in coeffs.items()})
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_c", coeffs)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Cyc values are immutable")

    def __copy__(self) -> "Cyc":
        return self

    def __deepcopy__(self, memo) -> "Cyc":
        return self

    def __reduce__(self):
        return (Cyc, (self.n, dict(self._c)))

    # -- constructors -----------------------------------------------------

    @classmethod
    def _raw(cls, n: int, coeffs: dict[int, Fraction]) -> "Cyc":
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "_c", coeffs)
        object.__setattr__(obj, "_hash", None)
        return obj

    @property
    def conductor(self) -> int:
        return self.n

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """Canonical coefficients {exponent: rational}; treat as read-only."""
        return dict(self._c)

    # -- predicates and conversions ---------------------------------------

    def is_integral(self) -> bool:
        """True iff the value is an algebraic integer: Z[zeta_n] is the ring
        of integers of Q(zeta_n), with the power basis as an integral basis,
        so exactly when every canonical coefficient is an integer."""
        return all(c.denominator == 1 for c in self._c.values())

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction if it is rational, else None."""
        if self.n != 1:
            return None
        return self._c.get(0, Fraction(0))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Cyc | None":
        if isinstance(value, Cyc):
            return value
        if isinstance(value, (int, Fraction)):
            return rational(value)
        return None

    def _embed(self, m: int) -> dict[int, Fraction]:
        step = m // self.n
        return {e * step: c for e, c in self._c.items()}

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.n * o.n // gcd(self.n, o.n)
        a, b = self._embed(m), o._embed(m)
        for e, c in b.items():
            a[e] = a.get(e, Fraction(0)) + c
        return Cyc(m, a)

    __radd__ = __add__

    def __neg__(self):
        return Cyc._raw(self.n, {e: -c for e, c in self._c.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.n == 1:
            q = o._c.get(0)
            if q is None:
                return ZERO
            return Cyc._raw(self.n, {e: c * q for e, c in self._c.items()})
        if self.n == 1:
            return o * self
        m = self.n * o.n // gcd(self.n, o.n)
        a, b = self._embed(m), o._embed(m)
        prod: dict[int, Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = (e1 + e2) % m
                prod[e] = prod.get(e, Fraction(0)) + c1 * c2
        return Cyc(m, prod)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                raise ZeroDivisionError("division of a cyclotomic value by zero")
            return Cyc._raw(self.n, {e: c / q for e, c in self._c.items()})
        return NotImplemented

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
        """Apply the automorphism zeta_n -> zeta_n^j; j must be coprime to n."""
        if gcd(j, self.n) != 1:
            raise GaloisError(
                f"zeta -> zeta^{j} is not a Galois automorphism of Q(zeta_{self.n})"
            )
        if self.n == 1:
            return self
        return Cyc(self.n, {(e * j) % self.n: c for e, c in self._c.items()})

    def twisted_traces(self, m: int) -> tuple:
        """Tr_{Q(zeta_m)/Q}(self * zeta_m^-l) for l = 0 .. m-1; the value
        must lie in Q(zeta_m).

        With self = sum_a c_a zeta_n^a, each trace is
        sum_a c_a * Tr(zeta_m^(j_a - l)), j_a = a*m/n: per term, c_a times
        the Ramanujan sums read backwards from j_a, with no field
        multiplication.  The traces are ints when every c_a is an integer,
        else Fractions.
        """
        step = self._step_into(m)
        sums = ramanujan_sums(m)
        den = lcm(*(c.denominator for c in self._c.values()))
        terms = []
        for e, c in self._c.items():
            j = e * step
            # sums[j - ell] for ell = 0 .. m-1, the index wrapping below 0
            turned = sums[j::-1] + sums[:j:-1]
            c = c.numerator * (den // c.denominator)
            terms.append(turned if c == 1 else tuple(c * s for s in turned))
        if len(terms) == 1:
            out = terms[0]
        else:
            out = tuple(map(sum, zip(*terms))) if terms else (0,) * m
        if den == 1:
            return out
        return tuple(Fraction(t, den) for t in out)

    def _step_into(self, m: int) -> int:
        # zeta_n = zeta_m^(m/n) once the conductor n divides m
        if m < 1 or m % self.n:
            raise FieldError(
                f"value outside stated field: conductor {self.n} does not divide {m}"
            )
        return m // self.n

    # -- equality, hashing, display ----------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.n == o.n and self._c == o._c

    def __hash__(self):
        h = self._hash
        if h is None:
            if self.n == 1:
                h = hash(self._c.get(0, Fraction(0)))
            else:
                h = hash((self.n, tuple(sorted(self._c.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self._c)

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c):
            c = self._c[e]
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


def rational(value: int | str | Fraction) -> Cyc:
    """The rational number `value` as a conductor-1 Cyc."""
    q = _as_fraction(value)
    if not q:
        return ZERO
    return Cyc._raw(1, {0: q})


def root_of_unity(n: int, i: int = 1) -> Cyc:
    """zeta_n^i, a primitive n-th root of unity raised to the i-th power."""
    if n < 1:
        raise ValueError(f"root of unity needs a positive order, got {n}")
    return Cyc(n, {i % n: Fraction(1)})


def from_coeffs(n: int, coeffs) -> Cyc:
    """Build a value from {exponent: rational} (or pair iterable) over zeta_n."""
    if not isinstance(coeffs, dict):
        coeffs = dict(coeffs)
    return Cyc(n, coeffs)


ZERO = Cyc._raw(1, {})
ONE = Cyc._raw(1, {0: Fraction(1)})


# -- JSON encoding used by the table file format ----------------------------

def _rat_to_json(q: Fraction):
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def cyc_to_json(a: Cyc):
    """Encode a value: bare int / "num/den" for rationals, else {n, coeffs}."""
    q = a.as_rational()
    if q is not None:
        return _rat_to_json(q)
    return {"n": a.n, "coeffs": [[e, _rat_to_json(c)] for e, c in sorted(a._c.items())]}


def _json_rational(value) -> Fraction:
    """A rational from JSON: an integer (not a boolean) or a "num/den" string."""
    if type(value) is int or isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            pass
    raise ValueError(f"not an exact rational: {value!r}")


def cyc_from_json(obj) -> Cyc:
    """Decode the encoding produced by cyc_to_json (input need not be canonical)."""
    if type(obj) is int or isinstance(obj, str):
        return rational(_json_rational(obj))
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
        coeffs: dict[int, Fraction] = {}
        for pair in pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"bad coefficient entry: {pair!r}")
            e, c = pair
            if type(e) is not int or not 0 <= e < n:
                raise ValueError(f"exponent {e!r} out of range for conductor {n}")
            coeffs[e] = coeffs.get(e, Fraction(0)) + _json_rational(c)
        return Cyc(n, coeffs)
    raise ValueError(f"not a cyclotomic value encoding: {obj!r}")
