import random
import time
from fractions import Fraction as Q

import pytest

from betafin import polys as P
from betafin.errors import BetaFinError, FactorBudgetExceeded
from betafin.field import make_field


def _mul(p, q):
    """The product of two polynomials, coefficients low to high."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _factor_of(g, p):
    """Whether g is a monic divisor of p: the quotient of long division
    times g gives p back."""
    if g is None or g[-1] != 1:
        return False
    r, q = list(p), [0] * (len(p) - len(g) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = r[i + len(g) - 1]
        for j, c in enumerate(g):
            r[i + j] -= q[i] * c
    return _mul(g, q) == tuple(p)


def test_eval_interval_encloses():
    rng = random.Random(7)
    for _ in range(50):
        p = [Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)]
        lo = Q(rng.randint(-8, 8), rng.randint(1, 5))
        hi = lo + Q(rng.randint(0, 6), rng.randint(1, 5))
        vlo, vhi = P.eval_interval(p, lo, hi)
        for t in range(5):
            x = lo + (hi - lo) * Q(t, 4)
            v = P.eval_at(p, x)
            assert vlo <= v <= vhi


def test_sturm_counts():
    p = (1, -3, 1)  # roots (3 +- sqrt(5))/2
    assert P.count_real_roots(p, 0, 1) == 1
    assert P.count_real_roots(p, 1, 3) == 1
    assert P.count_real_roots(p, 3, 10) == 0


def test_integer_roots():
    assert P.integer_roots((0, -1, 0, 1)) == [-1, 0, 1]
    assert P.integer_roots((-6, 11, -6, 1)) == [1, 2, 3]
    assert P.integer_roots((1, 1, 1)) == []


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
        prod = _mul((-1, -1, 1), (-2, 0, 1))
        assert P.least_factor(prod) is not None
    else:
        assert got is expect


@pytest.mark.parametrize(
    "factors",
    [
        ((-1, -1, 1), (1, 0, 1)),  # (x^2-x-1)(x^2+1)
        ((-1, -1, 0, 1), (-1, -1, -1, 1)),  # (x^3-x-1)(x^3-x^2-x-1): k = 3
        ((1, 0, 0, 0, 1), (-1, -1, 0, 0, 1)),  # (x^4+1)(x^4-x-1)
    ],
)
def test_least_factor_finds_a_factor_of_least_degree(factors):
    prod = _mul(*factors)
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
            p = _mul(left, right)
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


def test_least_factor_search_is_bounded():
    # x^10 + 720720: 240 divisors of the constant term make Kronecker's
    # search run for about a minute without a budget
    start = time.perf_counter()
    with pytest.raises(FactorBudgetExceeded):
        P.least_factor((720720,) + (0,) * 9 + (1,))
    assert time.perf_counter() - start < 5


def test_divisor_search_is_bounded():
    # trial division up to sqrt(a_0) would take 10^9 steps, about a minute
    start = time.perf_counter()
    with pytest.raises(FactorBudgetExceeded):
        make_field((10**18 + 1, 0, 0))
    assert time.perf_counter() - start < 1


def test_format_poly():
    assert P.format_poly((-1, -1, 0, 1)) == "x^3-x-1"
    assert P.format_poly((2, -4, 4, -2, 1)) == "x^4-2x^3+4x^2-4x+2"
    assert P.format_poly((-2, 1)) == "x-2"


def test_charpoly_and_inertia():
    M = [[Q(2), Q(1)], [Q(1), Q(2)]]
    assert P.charpoly(M) == (3, -4, 1)
    assert P.symmetric_sign_counts(M) == (2, 0, 0)
    M2 = [[Q(0), Q(1)], [Q(1), Q(0)]]
    assert P.symmetric_sign_counts(M2) == (1, 1, 0)
    M3 = [[Q(0), Q(0)], [Q(0), Q(-3)]]
    assert P.symmetric_sign_counts(M3) == (0, 1, 1)


def test_charpoly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20261018)
    for n in range(2, 8):
        for _ in range(6):
            M = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    M[i][j] = M[j][i] = rng.randint(-30, 30)
            expect = sympy.Matrix(M).charpoly(x).all_coeffs()[::-1]
            assert P.charpoly(M) == tuple(int(c) for c in expect), M


def _nroots_profile(p, sympy):
    """(inside, on, outside) from sympy's roots at 60 digits, a modulus
    within 1e-40 of 1 counting as on the circle: an oracle that shares no
    code with the exact profile."""
    x = sympy.Symbol("x")
    counts = [0, 0, 0]
    for z in sympy.Poly([int(c) for c in reversed(p)], x).nroots(n=60, maxsteps=200):
        m = abs(z) - 1
        counts[0 if m < -1e-40 else 2 if m > 1e-40 else 1] += 1
    return tuple(counts)


def test_unit_disk_profile_matches_nroots():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    tested = palindromic = 0
    while tested < 120 or palindromic < 20:
        d = rng.randint(2, 7)
        if rng.random() < 0.25:
            # x^d - a_{d-1} x^{d-1} - ... + 1 with a_i = a_{d-i}
            d -= d % 2
            half = [rng.randint(-5, 5) for _ in range(d // 2)]
            coeffs = [-1] + half + half[-2::-1]
        else:
            coeffs = [rng.randint(-5, 5) for _ in range(d)]
        try:
            p = make_field(coeffs).poly
        except BetaFinError:
            continue
        tested += 1
        palindromic += p == p[::-1]
        assert P.unit_disk_root_profile(p) == _nroots_profile(p, sympy), coeffs


def test_unit_disk_profile_known_cases():
    assert P.unit_disk_root_profile((-1, -1, -1, 1)) == (2, 0, 1)
    assert P.unit_disk_root_profile((-2, 4, -4, 1)) == (2, 0, 1)
    assert P.unit_disk_root_profile((1, -3, 1)) == (1, 0, 1)
    # reciprocal quartic with two circle roots (Salem configuration)
    assert P.unit_disk_root_profile((1, -1, -1, -1, 1)) == (1, 2, 1)
    # cyclotomic: all roots on the circle
    assert P.unit_disk_root_profile((1, -1, 1)) == (0, 2, 0)
    # (x-1)(x-2) is outside the precondition; its root 1 makes the
    # Schur-Cohn form singular, and the self-check raises
    with pytest.raises(ValueError):
        P.unit_disk_root_profile((2, -3, 1))
