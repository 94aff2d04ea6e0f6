"""The norm bound of complete tables (identity 5 of the constraints module)
and its exact enumeration on an LLL-reduced basis, against the LP-bounded
search and the search on the unreduced Hermite basis as oracles."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from helpers import (
    box_solutions,
    built_calls,
    built_systems,
    bundle_of,
    proper,
    random_system,
    reference_ellipsoid,
    reference_ldl,
    reference_lll,
    solve_unreduced,
)
from helpzc import intsolve, verify
from helpzc.arith import prime_factors
from helpzc.constraints import (
    AggVar,
    ConstraintError,
    EpsVar,
    build_system,
    build_system_p_constant,
    eps_projection,
)
from helpzc.intsolve import Finite, Infinite, LinSystem, solve_all
from helpzc.verify import SolverOptions, check_pq, check_zc, trivial_solutions

BUNDLES = ["s3", "s4", "a5", "sl23", "m11"]


def without_norm(system):
    return LinSystem(
        system.variables, system.equalities, None, system.modulus, system.congruences
    )


# SL(2,3) has elements of order 6, so its pq builds no system
CASES = [(name, "zc") for name in BUNDLES]
CASES += [(name, "pq") for name in BUNDLES if name != "sl23"]
CASES += [(f"cyclic:{n}", "zc") for n in range(2, 19)]


@pytest.mark.parametrize("p_constant", [False, True], ids=["full", "p-constant"])
@pytest.mark.parametrize("name, checker", CASES)
def test_norm_search_matches_the_lp_search(monkeypatch, name, checker, p_constant):
    # the bound removes no solution of a full system, and from a
    # relaxation exactly the solutions outside it
    bundle = bundle_of(name)
    options = SolverOptions(shortcuts=False, p_constant=p_constant)
    check = check_zc if checker == "zc" else check_pq
    systems = built_systems(monkeypatch, bundle, check, options)
    assert systems
    for system in systems:
        assert system.norm is not None
        got = solve_all(system)
        assert isinstance(got, Finite)
        assert solve_unreduced(system) == got
        want = solve_all(without_norm(system))
        if any(isinstance(v, AggVar) for v in system.variables):
            if isinstance(want, Finite):
                kept = tuple(x for x in want.solutions if system.check_solution(x))
                assert got.solutions == kept
            else:
                assert isinstance(want, Infinite)
            continue
        assert got == want
        if name.startswith("cyclic:"):
            # Higman: on an abelian group eps is a unit vector
            lead = [i for i, v in enumerate(system.variables) if isinstance(v, EpsVar)]
            for x in got.solutions:
                assert sorted(x[i] for i in lead) == [0] * (len(lead) - 1) + [1]


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


# the groups with a full solution of order p*q under zc --no-shortcuts
@pytest.mark.parametrize("name", ["sl23", "m11", "cyclic:6", "cyclic:10", "cyclic:15"])
def test_p_constant_relaxation_keeps_every_full_solution(monkeypatch, name):
    # identities 4 and 5: each full solution of order p*q, its order-p eps
    # summed, satisfies the relaxation's rows and its Cauchy-Schwarz norm
    bundle = bundle_of(name)
    calls = count_calls(monkeypatch, verify, "build_system")
    check_zc(bundle, SolverOptions(shortcuts=False))
    checked = 0
    for b, k, proper, tables in calls:
        full = build_system(b, k, proper, tables)
        for p in prime_factors(k):
            try:
                relaxed = build_system_p_constant(b, k, p, proper, tables)
            except ConstraintError:
                continue
            for x in solve_all(full).solutions:
                eps = eps_projection(full, x)
                point = [
                    sum(
                        v
                        for c, v in eps.items()
                        if b.ordinary.classes[c].element_order == p
                    )
                    if isinstance(var, AggVar)
                    else eps[var.class_index]
                    for var in relaxed.variables
                ]
                assert relaxed.check_solution(point)
                checked += 1
    assert checked


def assert_ldl_is_the_reference(ldl, basis, weights):
    """The norm data intsolve._ldl read off the LLL equal, entry for entry,
    to those of the Gauss–Jordan elimination of `reference_ldl`, whose
    every division is checked exact; returns the reference."""
    want = reference_ldl(basis, weights)
    weighted, w, wcols, D, U, V, adj = ldl
    assert (weighted, w, wcols, D, U) == want[:5]
    # V[j] is held over t_0, ..., t_j; the reference's is 0 beyond t_j
    assert V == [v[: j + 1] for j, v in enumerate(want[5])]
    assert not any(any(v[j + 1:]) for j, v in enumerate(want[5]))
    assert adj == [row[j] for j, row in enumerate(want[6])]
    return want


def assert_ellipsoid_is_the_reference(par, radius, got, want_ldl):
    """_ellipsoid's box, constants and N at this origin, and the centre's
    numerators adj G·h summed from V, equal those of the full adj G."""
    box, consts, n, adj_h = reference_ellipsoid(want_ldl, par.origin, radius)
    if got is None:
        assert box is None
        return
    assert got == (box, consts, n)
    _, _, _, D, _, V, _ = par.lattice.gram
    terms = [[c * a for a in v] for c, v in zip(consts, V)]
    assert intsolve._adj_sum(D, terms) == adj_h


def test_norm_search_matches_box_on_random_systems(monkeypatch):
    # the LDL read off the LLL is the Gauss-Jordan elimination's, whose
    # every division must be exact
    real = intsolve._ldl

    def checked(basis, weights, D, lam):
        ldl = real(basis, weights, D, lam)
        assert_ldl_is_the_reference(ldl, basis, weights)
        return ldl

    monkeypatch.setattr(intsolve, "_ldl", checked)
    rng = random.Random(41)
    found = cut = 0
    for _ in range(1000):
        s = random_system(rng, max_vars=4, cmax=5)
        weights = tuple(rng.randint(1, 6) for _ in s.variables)
        radius = rng.randint(0, 12)
        bounded = LinSystem(
            s.variables, s.equalities, (weights, radius), congruences=s.congruences
        )
        got = solve_all(bounded)
        assert solve_unreduced(bounded) == got
        # w_i·x_i² <= R puts every coordinate within sqrt(R / min w)
        assert got == Finite(box_solutions(bounded, isqrt(radius // min(weights))))
        want = solve_all(s)
        if isinstance(want, Finite):
            kept = tuple(x for x in want.solutions if bounded.check_solution(x))
            assert got.solutions == kept
            cut += len(kept) < len(want.solutions)
        found += bool(got.solutions)
    assert found >= 120 and cut >= 30, (found, cut)


def gram_schmidt(basis, weights):
    """The Gram–Schmidt vectors' squared norms and the μ_kj of `basis`
    under Σ w_i·u_i·v_i, in Fractions."""
    def dot(u, v):
        return sum(Fraction(w) * a * b for w, a, b in zip(weights, u, v))

    stars, norms, mu = [], [], {}
    for k, b in enumerate(basis):
        v = [Fraction(a) for a in b]
        for j in range(k):
            mu[k, j] = dot(b, stars[j]) / norms[j]
            v = [a - mu[k, j] * c for a, c in zip(v, stars[j])]
        stars.append(v)
        norms.append(dot(v, v))
    return norms, mu


def test_lll_reduces_and_keeps_the_lattice():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(1, 7)
        weights = tuple(rng.randint(1, 5) for _ in range(rng.randint(n, 8)))
        basis = tuple(
            tuple(rng.randint(-60, 60) for _ in weights) for _ in range(n)
        )
        norms, _ = gram_schmidt(basis, weights)
        if not all(norms):
            continue
        reduced, d, lam = intsolve._lll(basis, weights)
        got, mu = gram_schmidt(reduced, weights)
        # the integral Gram–Schmidt data of the reduced basis
        for k in range(1, n + 1):
            assert d[k] == d[k - 1] * got[k - 1]
            for j in range(1, k):
                assert lam[k][j] == d[j] * mu[k - 1, j - 1]
        # size-reduced, and the Lovász condition with δ = 99/100
        assert all(abs(m) <= Fraction(1, 2) for m in mu.values())
        for k in range(1, n):
            assert got[k] >= (Fraction(99, 100) - mu[k, k - 1] ** 2) * got[k - 1]
        # a unimodular change of basis: the same covolume, and each old
        # vector an integer combination of the new ones (in the solutions
        # of the system x = Σ t_j·b_j, t integral)
        volume = 1
        for a, b in zip(norms, got):
            volume *= a / b
        assert volume == 1
        for b in basis:
            system = LinSystem(
                tuple(f"t{j}" for j in range(n)),
                tuple(
                    (tuple(r[i] for r in reduced), b[i]) for i in range(len(weights))
                ),
            )
            assert len(solve_all(system).solutions) == 1
    # a form that is not positive definite on the lattice leaves it as given
    assert intsolve._lll(((1, 0), (0, 1)), (1, 0)) == (((1, 0), (0, 1)), None, None)


def test_lll_gives_the_basis_of_the_reference():
    # _lll must stay the textbook algorithm: the same basis, vector for
    # vector, from any input
    rng = random.Random(47)
    for _ in range(300):
        n, big = rng.randint(1, 8), 10 ** rng.randint(1, 8)
        weights = tuple(rng.randint(0, 5) for _ in range(rng.randint(n, 9)))
        basis = tuple(tuple(rng.randint(-big, big) for _ in weights) for _ in range(n))
        assert intsolve._lll(basis, weights)[0] == reference_lll(basis, weights)


@pytest.mark.parametrize("n", [60, 72])
def test_lll_gives_the_basis_of_the_reference_on_top_systems(monkeypatch, n):
    calls = []
    real = intsolve._lll

    def recording(basis, weights):
        calls.append((basis, weights))
        return real(basis, weights)

    monkeypatch.setattr(intsolve, "_lll", recording)
    monkeypatch.setattr(intsolve, "_lattice", (None, None))
    check_zc(bundle_of(f"cyclic:{n}"), SolverOptions(shortcuts=False))
    top = max(len(basis) for basis, _ in calls)
    assert top >= n - 2
    for basis, weights in calls:
        if len(basis) == top:
            assert real(basis, weights)[0] == reference_lll(basis, weights)


def test_ldl_read_off_the_lll_is_the_reference_on_random_bases():
    # the bases of test_lll_gives_the_basis_of_the_reference: zero weights
    # and entries up to 1e8
    rng = random.Random(47)
    checked = 0
    for _ in range(300):
        n, big = rng.randint(1, 8), 10 ** rng.randint(1, 8)
        weights = tuple(rng.randint(0, 5) for _ in range(rng.randint(n, 9)))
        basis = tuple(tuple(rng.randint(-big, big) for _ in weights) for _ in range(n))
        reduced, d, lam = intsolve._lll(basis, weights)
        if d is None:
            with pytest.raises(AssertionError, match="positive definite"):
                reference_ldl(basis, weights)
            continue
        ldl = intsolve._ldl(reduced, weights, d, lam)
        want = assert_ldl_is_the_reference(ldl, reduced, weights)
        lat = intsolve._Lattice()
        lat.gram = ldl
        for _ in range(4):
            origin = tuple(rng.randint(-big, big) for _ in weights)
            c0 = sum(w * x * x for w, x in zip(weights, origin))
            radius = rng.randint(0, 2 * c0 + 10)
            par = intsolve.Parametrization(origin, reduced, (), lat)
            got = intsolve._ellipsoid(par, radius)
            assert_ellipsoid_is_the_reference(par, radius, got, want)
            checked += got is not None
    assert checked > 300, checked


def test_ldl_read_off_the_lll_is_the_reference_on_golden_lattices(monkeypatch):
    # every lattice that the golden commands reduce under a norm, and the
    # top lattice of zc --no-shortcuts cyclic:72 (dimension 70), with every
    # system's box and centre on it
    from test_golden import GOLDEN, run

    lattices, ellipsoids = {}, []
    reduce, ellipsoid = intsolve._reduce, intsolve._ellipsoid

    def reducing(modulus, n, equalities, congruences, weights):
        lat = reduce(modulus, n, equalities, congruences, weights)
        if lat.gram is not None:
            lattices[id(lat)] = lat, assert_ldl_is_the_reference(
                lat.gram, lat.basis, weights
            )
        return lat

    def bounding(par, radius):
        got = ellipsoid(par, radius)
        ellipsoids.append((par, radius, got))
        return got

    monkeypatch.setattr(intsolve, "_reduce", reducing)
    monkeypatch.setattr(intsolve, "_ellipsoid", bounding)
    for command in [*sorted(GOLDEN), "zc --no-shortcuts cyclic:72"]:
        monkeypatch.setattr(intsolve, "_lattice", (None, None))
        run(command)
        for par, radius, got in ellipsoids:
            lat, want = lattices[id(par.lattice)]
            assert lat is par.lattice
            assert_ellipsoid_is_the_reference(par, radius, got, want)
        ellipsoids.clear()
    assert max(len(lat.basis) for lat, _ in lattices.values()) == 70
    assert len(lattices) > 100, len(lattices)


class Captured(Exception):
    pass


def test_the_basis_before_the_lll_stays_below_n_times_k(monkeypatch):
    # the top systems of zc --no-shortcuts cyclic:105 share one lattice of
    # dimension 103 over 104 variables; the basis taken modulo k has every
    # entry below n·k, where the slack-column reduction left entries near
    # 2.6e16
    b = bundle_of("cyclic:105")
    system = build_system(b, 105, proper(trivial_solutions(b.ordinary, 105)[0]))

    def capture(basis, weights):
        raise Captured(basis)

    monkeypatch.setattr(intsolve, "_lll", capture)
    monkeypatch.setattr(intsolve, "_lattice", (None, None))
    with pytest.raises(Captured) as got:
        intsolve.diophantine_eliminate(system)
    (basis,) = got.value.args
    n, k = len(system.variables), system.modulus
    assert (n, k, len(basis)) == (104, 105, 103)
    assert max(abs(v) for vector in basis for v in vector) <= n * k


def test_large_lattice_searches_stay_small(monkeypatch):
    # the top systems of cyclic:72 have a lattice of dimension 70; one
    # search visits 71 nodes on the LLL-reduced basis and on the Hermite
    # normal form modulo k before it, against 3,303 on the basis that the
    # slack-column reduction left; the top search of cyclic:120 visits 119
    for n in (72, 120):
        options = SolverOptions(shortcuts=False)
        calls = built_calls(monkeypatch, bundle_of(f"cyclic:{n}"), check_zc, options)
        top = [system for _, args, system in calls if args[1] == n]
        assert top
        for system in top:
            assert isinstance(solve_all(system, max_nodes=200), Finite)


def test_norm_search_is_exact_far_from_the_origin():
    # x = K·y with |x| <= 3K - 1: y in [-2, 2], on a lattice whose
    # coordinates overflow a float's 53-bit mantissa
    k = 10**25 + 1
    for radius, count in ((9 * k * k - 1, 5), (9 * k * k, 7)):
        s = LinSystem(("x", "y"), (((1, -k), 0),), ((1, 0), radius))
        ys = [y for _, y in solve_all(s).solutions]
        assert ys == list(range(-(count // 2), count // 2 + 1))


def test_norm_must_bound_the_lattice():
    # y has weight 0 and is free: no ellipsoid, and no silent fallback
    s = LinSystem(("x", "y"), (((1, 0), 0),), ((1, 0), 4))
    with pytest.raises(AssertionError, match="positive definite"):
        solve_all(s)


@pytest.mark.parametrize(
    "command",
    ["zc m11", "zc --no-shortcuts cyclic:18", "zc --no-shortcuts cyclic:72"],
)
def test_complete_tables_make_no_bareiss_row_update(monkeypatch, command):
    # the norm's LDL is read off the LLL: no Gram matrix is eliminated
    # again, and the simplex's row update, the one Bareiss step left, is
    # never reached; wherever it is defined, it is counted
    from test_golden import run

    from helpzc import simplex

    updates = []
    for module in (intsolve, simplex):
        if "_bareiss_row" in vars(module):
            updates += [count_calls(monkeypatch, module, "_bareiss_row")]
    monkeypatch.setattr(intsolve, "_lattice", (None, None))
    run(command)
    assert updates and not any(updates)


@pytest.mark.parametrize(
    "bundle, checker, options",
    [
        ("m11", check_zc, SolverOptions()),
        ("m11", check_pq, SolverOptions(p_constant=True)),
        ("cyclic:18", check_zc, SolverOptions(shortcuts=False)),
    ],
    ids=["zc m11", "pq --p-constant m11", "zc --no-shortcuts cyclic:18"],
)
def test_complete_tables_never_reach_the_lp(monkeypatch, bundle, checker, options):
    bundle = bundle_of(bundle)
    lps = count_calls(monkeypatch, intsolve, "simplex_opt")
    solves = count_calls(monkeypatch, verify, "solve_all")
    assert not checker(bundle, options).store.obstructions
    assert solves and not lps
