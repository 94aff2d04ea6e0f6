"""Exact cyclotomic arithmetic, cross-checked against independent oracles."""

import cmath
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_canonical, reference_str, trace_to_rational
from helpzc.arith import euler_phi
from helpzc.bundlefile import cyc_from_json, cyc_to_json
from helpzc.cyclotomics import (
    ONE,
    ZERO,
    Cyc,
    FieldError,
    GaloisError,
    cyclotomic_polynomial,
    root_of_unity,
)


def approx(a: Cyc) -> complex:
    """Float-evaluation oracle, deliberately independent of the package."""
    return sum(
        complex(c) * cmath.exp(2j * cmath.pi * e / a.n) for e, c in a.coeffs.items()
    )


def poly_mul_mod_xn(p: dict, q: dict, n: int) -> dict:
    """Multiplication oracle: convolution of exponent dicts modulo x^n - 1."""
    out: dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = (e1 + e2) % n
            out[e] = out.get(e, 0) + c1 * c2
    return out


def random_value(rng: random.Random, n: int) -> dict:
    return {rng.randrange(n): rng.randint(-4, 4) for _ in range(rng.randint(0, 4))}


# -- canonical form ----------------------------------------------------------

def test_basic_identities():
    z3 = root_of_unity(3)
    assert z3 + z3 * z3 == -1
    assert root_of_unity(2) == -1
    assert root_of_unity(8) * root_of_unity(8) == root_of_unity(4)
    assert root_of_unity(7, 0) == 1
    assert root_of_unity(5, 7) == root_of_unity(5, 2)
    assert not ZERO and ONE * 3 and Cyc(6, {0: 2, 3: 2}) == 0


def test_values_take_integer_coefficients_only():
    assert Cyc(12, {4: 1, 8: 1}) == -1
    for bad in (0.5, "1", None):
        with pytest.raises(TypeError):
            Cyc(3, {1: bad})
    with pytest.raises(TypeError):
        ONE + 0.5


def test_conductor_never_two_mod_four():
    for n in range(1, 40):
        for i in range(n):
            assert root_of_unity(n, i).conductor % 4 != 2


def test_conductor_is_minimal():
    # a has conductor n iff it is moved by some automorphism fixing each
    # maximal cyclotomic subfield; check via the public Galois action.
    rng = random.Random(7)
    for _ in range(60):
        n = rng.choice([3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24])
        a = Cyc(n, random_value(rng, n))
        m = a.conductor
        if m == 1:
            continue
        for p in {q for q in range(2, m + 1) if m % q == 0 and q > 1 and all(q % r for r in range(2, q))}:
            d = m // p
            fixed = all(
                a.galois(j) == a
                for j in range(1, m)
                if gcd(j, m) == 1 and j % max(d, 1) == 1 % max(d, 1)
            )
            assert not fixed or d % 4 == 2  # descent must be impossible


def test_exponents_below_phi():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.choice([5, 8, 9, 12, 16, 21, 24])
        a = Cyc(n, random_value(rng, n))
        assert all(0 <= e < euler_phi(a.conductor) or a.conductor == 1 for e in a.coeffs)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(105)[7] == -2  # first coefficient outside {0,+-1}


# -- ring operations against oracles ----------------------------------------

def test_add_mul_against_float_oracle():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.choice([3, 4, 5, 6, 8, 9, 12, 15, 24])
        m = rng.choice([3, 4, 5, 6, 8, 9, 12, 15, 24])
        a = Cyc(n, random_value(rng, n))
        b = Cyc(m, random_value(rng, m))
        assert cmath.isclose(approx(a + b), approx(a) + approx(b), abs_tol=1e-9)
        assert cmath.isclose(approx(a * b), approx(a) * approx(b), abs_tol=1e-9)
        assert cmath.isclose(approx(-b), -approx(b), abs_tol=1e-9)


def test_mul_against_polynomial_oracle():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.choice([4, 5, 6, 8, 9, 12, 16, 18, 20])
        p, q = random_value(rng, n), random_value(rng, n)
        direct = Cyc(n, p) * Cyc(n, q)
        via_poly = Cyc(n, poly_mul_mod_xn(p, q, n))
        assert direct == via_poly


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.lists(st.tuples(st.integers(0, 15), st.integers(-3, 3)), max_size=3),
    st.lists(st.tuples(st.integers(0, 15), st.integers(-3, 3)), max_size=3),
    st.lists(st.tuples(st.integers(0, 15), st.integers(-3, 3)), max_size=3),
)
def test_ring_axioms(n, xs, ys, zs):
    a = Cyc(n, {e % n: c for e, c in xs})
    b = Cyc(n, {e % n: c for e, c in ys})
    c = Cyc(n, {e % n: c for e, c in zs})
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + (-a) == 0


# -- Galois action and traces -------------------------------------------------

def test_galois_examples():
    golden = Cyc(5, {0: 1, 1: 1, 4: 1})  # (1+sqrt5)/2
    other = Cyc(5, {0: 1, 2: 1, 3: 1})   # (1-sqrt5)/2
    assert golden.galois(2) == other
    assert golden.galois(-1) == golden  # real value
    assert (ONE * 5).galois(9) == 5
    with pytest.raises(GaloisError):
        root_of_unity(4).galois(2)


def test_galois_is_field_automorphism():
    rng = random.Random(43)
    for _ in range(80):
        n = rng.choice([5, 8, 9, 12, 15])
        a = Cyc(n, random_value(rng, n))
        b = Cyc(n, random_value(rng, n))
        j = rng.choice([j for j in range(1, n) if gcd(j, n) == 1])
        # conductors of a, b, a+b, a*b all divide n, so sigma_j acts on each
        assert (a * b).galois(j) == a.galois(j) * b.galois(j)
        assert (a + b).galois(j) == a.galois(j) + b.galois(j)


def trace_by_galois_sum(a: Cyc, m: int) -> int:
    """Trace oracle: literal sum over the Galois group of Q(zeta_m)/Q."""
    total = ZERO
    for j in range(1, m + 1):
        if gcd(j, m) == 1:
            total = total + a.galois(j % a.conductor if a.conductor > 1 else 1)
    assert total.conductor == 1
    return total.coeffs.get(0, 0)


def test_trace_examples():
    assert trace_to_rational(root_of_unity(4), 4) == 0
    assert trace_to_rational(root_of_unity(5), 5) == -1
    assert trace_to_rational(ONE, 3) == 2
    with pytest.raises(FieldError):
        trace_to_rational(root_of_unity(5), 3)


def test_trace_against_galois_sum_oracle():
    rng = random.Random(59)
    for _ in range(80):
        n = rng.choice([3, 4, 5, 8, 9, 12])
        a = Cyc(n, random_value(rng, n))
        for mult in (1, 2, 3):
            m = a.conductor * mult
            if m % 4 == 2 and a.conductor % 2 == 0:
                continue
            if m % a.conductor:
                continue
            assert trace_to_rational(a, m) == trace_by_galois_sum(a, m)


def test_twisted_traces_against_galois_sum_oracle():
    # plain ints, a sum of rotated Ramanujan sums
    rng = random.Random(67)
    for _ in range(80):
        n = rng.choice([3, 4, 5, 8, 9, 12, 15, 36])
        a = Cyc(n, random_value(rng, n))
        m = a.conductor * rng.choice([1, 2, 3])
        got = a.twisted_traces(m)
        assert len(got) == m and all(type(t) is int for t in got)
        for ell in range(m):
            assert got[ell] == trace_by_galois_sum(a * root_of_unity(m, -ell), m)
    assert ZERO.twisted_traces(3) == (0, 0, 0)
    assert all(type(t) is int for t in ZERO.twisted_traces(3))
    with pytest.raises(FieldError):
        root_of_unity(5).twisted_traces(3)


def test_trace_of_rational_scales_by_phi():
    for q in (3, -7, 0):
        for m in (1, 2, 3, 4, 5, 6, 12):
            assert trace_to_rational(ONE * q, m) == q * euler_phi(m)


def test_trace_galois_invariance():
    rng = random.Random(61)
    for _ in range(50):
        n = rng.choice([5, 8, 12, 15])
        a = Cyc(n, random_value(rng, n))
        for j in range(1, n):
            if gcd(j, n) == 1 and gcd(j, a.conductor) == 1:
                assert trace_to_rational(a.galois(j), n) == trace_to_rational(a, n)


# -- JSON encoding -------------------------------------------------------------

def test_json_roundtrip():
    rng = random.Random(71)
    values = [ONE * 5, ONE * -7, ZERO]
    values += [Cyc(n, random_value(rng, n)) for n in (5, 8, 12, 24) for _ in range(10)]
    for a in values:
        assert cyc_from_json(cyc_to_json(a), a.conductor) == a


def test_json_shorthand_and_errors():
    assert cyc_from_json(3, 1) == 3
    assert cyc_from_json({"n": 3, "coeffs": [[1, 1], [2, 1]]}, 3) == -1
    for bad in (None, 1.5, True, "2", "2/4", {"n": 3}, {"n": 0, "coeffs": []},
                {"n": 3, "coeffs": [[3, 1]]}, {"n": 3, "coeffs": [[1]]},
                {"n": 3, "coeffs": [[1, "1"]]}, {"n": 3, "coeffs": [[1, 1.0]]}):
        with pytest.raises(ValueError):
            cyc_from_json(bad, 3)


def test_json_field_bound_is_checked_before_reduction():
    # zeta_6 = -zeta_3^2 lies in Q(zeta_6); an encoding over a field that
    # does not divide the bound is refused however large it is
    assert cyc_from_json({"n": 6, "coeffs": [[1, 1]]}, 6) == -root_of_unity(3, 2)
    assert cyc_from_json(7, 1) == 7
    for n in (3, 4, 2**70):
        with pytest.raises(FieldError, match=f"^encoded over zeta_{n}, outside Q\\(zeta_2\\)$"):
            cyc_from_json({"n": n, "coeffs": [[1, 1]]}, 2)


def test_hash_consistency():
    assert hash(ONE * 3) == hash(3) and hash(ZERO) == hash(0)
    seen = {root_of_unity(8): "a", ONE * -2: "b"}
    assert seen[root_of_unity(8, 9)] == "a"
    assert seen[-2] == "b"


# -- integer canonical form against the Fraction oracle --------------------------

@st.composite
def integer_values(draw):
    """(n, {exponent: int}) with n <= 60, n = 2 mod 4 included; half the
    time the value is taken from a subfield Q(zeta_d), d | n, so that the
    descent has something to find."""
    n = draw(st.integers(1, 60))
    step = n // draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    if draw(st.booleans()):
        step = 1
    terms = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-5, 5)), max_size=6))
    coeffs = {}
    for e, c in terms:
        e = e * step % n
        coeffs[e] = coeffs.get(e, 0) + c
    return n, coeffs


def oracle_hash(n, coeffs):
    return hash(coeffs.get(0, 0)) if n == 1 else hash((n, tuple(sorted(coeffs.items()))))


@settings(max_examples=300, deadline=None)
@given(integer_values(), integer_values())
def test_integer_canonical_form_matches_the_fraction_oracle(a, b):
    (n, coeffs), (m, other) = a, b
    value = Cyc(n, coeffs)
    want_n, want = reference_canonical(n, coeffs)
    assert value.conductor == want_n
    # Z[zeta_n] meets each subfield Q(zeta_d) in Z[zeta_d]
    assert all(c.denominator == 1 for c in want.values())
    assert value.coeffs == want and all(type(c) is int for c in value.coeffs.values())
    assert str(value) == reference_str(want_n, want)
    assert hash(value) == oracle_hash(want_n, want)
    # equal exactly when the canonical forms are
    assert value == Cyc(want_n, {e: int(c) for e, c in want.items()})
    assert (value == Cyc(m, other)) == ((want_n, want) == reference_canonical(m, other))
    for j in (-1, 2, 5, 7, 11, 13):
        if gcd(j, want_n) != 1:
            continue
        got = value.galois(j)
        image_n, image = reference_canonical(want_n, {e * j % want_n: c for e, c in want.items()})
        assert (got.conductor, got.coeffs) == (image_n, image)
        assert str(got) == reference_str(image_n, image)
