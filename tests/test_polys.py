import random
from fractions import Fraction as Q

import pytest

from betafin import polys as P


def test_basic_ring_ops():
    a = P.poly((1, 2, 3))
    b = P.poly((0, -1))
    assert P.add(a, P.neg(a)) == ()
    assert P.mul(a, b) == P.poly((0, -1, -2, -3))
    quo, rem = P.divmod_poly(P.mul(a, b), a)
    assert quo == b and rem == ()


def test_gcd_and_squarefree():
    a = P.poly((-1, 1))
    b = P.poly((-2, 1))
    prod = P.mul(P.mul(a, a), b)
    assert P.gcd(prod, P.derivative(prod)) == a
    assert not P.is_squarefree(prod)
    assert P.is_squarefree(P.mul(a, b))


def test_eval_interval_encloses():
    rng = random.Random(7)
    for _ in range(50):
        p = P.poly([Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)])
        lo = Q(rng.randint(-8, 8), rng.randint(1, 5))
        hi = lo + Q(rng.randint(0, 6), rng.randint(1, 5))
        vlo, vhi = P.eval_interval(p, lo, hi)
        for t in range(5):
            x = lo + (hi - lo) * Q(t, 4)
            v = P.eval_at(p, x)
            assert vlo <= v <= vhi


def test_sturm_counts():
    p = P.poly((1, -3, 1))  # roots (3 +- sqrt(5))/2
    assert P.count_real_roots(p, 0, 1) == 1
    assert P.count_real_roots(p, 1, 3) == 1
    assert P.count_real_roots(p, 3, 10) == 0


def test_integer_roots():
    assert P.integer_roots(P.poly((0, -1, 0, 1))) == [-1, 0, 1]
    assert P.integer_roots(P.poly((-6, 11, -6, 1))) == [1, 2, 3]
    assert P.integer_roots(P.poly((1, 1, 1))) == []


@pytest.mark.parametrize(
    "coeffs,expect",
    [
        ((-1, -1, -1, 1), True),  # x^3-x^2-x-1
        ((2, -3, 1), False),  # (x-1)(x-2)
        ((1, 0, 0, 0, 1), True),  # x^4+1
        ((1, -1, -1, -1, 1), True),  # reciprocal quartic
        ((2, 0, -3, 0, 1), False),  # (x^2-x-1)(x^2+x-2)? built below instead
    ],
)
def test_irreducibility_quartic_cases(coeffs, expect):
    got = P.least_factor(coeffs) is None
    if coeffs == (2, 0, -3, 0, 1):
        # (x^2-2)(x^2-1) is not squarefree-free of rational roots; build a
        # genuine quadratic*quadratic case instead
        prod = P.mul(P.poly((-1, -1, 1)), P.poly((-2, 0, 1)))
        assert P.least_factor([int(c) for c in prod]) is not None
    else:
        assert got is expect


def _factor_of(g, p):
    return g is not None and g[-1] == 1 and P.rem(P.poly(p), P.poly(g)) == ()


@pytest.mark.parametrize(
    "factors",
    [
        ((-1, -1, 1), (1, 0, 1)),  # (x^2-x-1)(x^2+1)
        ((-1, -1, 0, 1), (-1, -1, -1, 1)),  # (x^3-x-1)(x^3-x^2-x-1): k = 3
        ((1, 0, 0, 0, 1), (-1, -1, 0, 0, 1)),  # (x^4+1)(x^4-x-1)
    ],
)
def test_least_factor_finds_a_factor_of_least_degree(factors):
    prod = tuple(int(c) for c in P.mul(P.poly(factors[0]), P.poly(factors[1])))
    g = P.least_factor(prod)
    assert g in factors and _factor_of(g, prod)
    for f in factors:
        assert P.least_factor(f) is None


def test_least_factor_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20261018)
    for i in range(120):
        d = rng.randint(2, 8)
        if i % 2:
            # a product, so that factors are found too
            k = rng.randint(1, d // 2)
            left = [rng.randint(-3, 3) for _ in range(k)] + [1]
            right = [rng.randint(-3, 3) for _ in range(d - k)] + [1]
            p = [int(c) for c in P.mul(P.poly(left), P.poly(right))]
        else:
            p = [rng.randint(-9, 9) for _ in range(d)] + [1]
        g = P.least_factor(p)
        factors = sympy.Poly(list(reversed(p)), x).factor_list()[1]
        if len(factors) == 1 and factors[0][1] == 1:
            assert g is None, p
        else:
            assert _factor_of(g, p), (p, g)
            assert sympy.Poly(list(reversed(g)), x).is_irreducible, (p, g)
            assert len(g) - 1 == min(f.degree() for f, _ in factors), (p, g)


def test_format_poly():
    assert P.format_poly((-1, -1, 0, 1)) == "x^3-x-1"
    assert P.format_poly((2, -4, 4, -2, 1)) == "x^4-2x^3+4x^2-4x+2"
    assert P.format_poly((-2, 1)) == "x-2"


def test_charpoly_and_inertia():
    M = [[Q(2), Q(1)], [Q(1), Q(2)]]
    assert P.charpoly(M) == P.poly((3, -4, 1))
    assert P.symmetric_sign_counts(M) == (2, 0, 0)
    M2 = [[Q(0), Q(1)], [Q(1), Q(0)]]
    assert P.symmetric_sign_counts(M2) == (1, 1, 0)
    M3 = [[Q(0), Q(0)], [Q(0), Q(-3)]]
    assert P.symmetric_sign_counts(M3) == (0, 1, 1)


def _random_disk_instance(rng):
    """Product of linear/quadratic rational factors with root moduli known
    exactly by construction: the oracle for the disk profile."""
    inside = on = outside = 0
    p = P.poly((1,))
    used_roots = set()
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("lin", "quad"))
        if kind == "lin":
            r = Q(rng.randint(-9, 9), rng.randint(1, 6))
            if r in used_roots:
                continue
            used_roots.add(r)
            p = P.mul(p, P.poly((-r, 1)))
            if abs(r) < 1:
                inside += 1
            elif abs(r) == 1:
                on += 1
            else:
                outside += 1
        else:
            # z^2 + u z + v with u^2 < 4v: conjugate pair of modulus sqrt(v)
            v = Q(rng.randint(1, 12), rng.randint(1, 6))
            ub = (4 * v).numerator // (4 * v).denominator
            u = Q(rng.randint(0, max(0, ub - 1)))
            if u * u >= 4 * v or (u, v) in used_roots:
                continue
            used_roots.add((u, v))
            p = P.mul(p, P.poly((v, u, 1)))
            if v < 1:
                inside += 2
            elif v == 1:
                on += 2
            else:
                outside += 2
    return p, (inside, on, outside)


def test_unit_disk_profile_constructed_battery():
    rng = random.Random(20260810)
    tested = 0
    while tested < 60:
        p, expect = _random_disk_instance(rng)
        if P.degree(p) == 0 or not P.is_squarefree(p):
            continue
        assert P.unit_disk_root_profile(p) == expect, (p, expect)
        tested += 1


def test_unit_disk_profile_known_cases():
    assert P.unit_disk_root_profile(P.poly((-1, -1, -1, 1))) == (2, 0, 1)
    assert P.unit_disk_root_profile(P.poly((-2, 4, -4, 1))) == (2, 0, 1)
    assert P.unit_disk_root_profile(P.poly((1, -3, 1))) == (1, 0, 1)
    # reciprocal quartic with two circle roots (Salem configuration)
    assert P.unit_disk_root_profile(P.poly((1, -1, -1, -1, 1))) == (1, 2, 1)
    # cyclotomic: all roots on the circle
    assert P.unit_disk_root_profile(P.poly((1, -1, 1))) == (0, 2, 0)
    # reciprocal real pair plus an inside root
    p = P.mul(P.mul(P.poly((-2, 1)), P.poly((Q(-1, 2), 1))), P.poly((Q(-1, 4), 1)))
    assert P.unit_disk_root_profile(p) == (2, 0, 1)
