import math
import pickle
import random
import sys
import threading
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betafin import polys as P
from betafin.errors import FieldMismatch, NoRootAboveOne, Reducible
from betafin.field import (
    FieldElement,
    cubic_pisot_criterion,
    is_pisot,
    make_field,
    unit_disk_profile,
)

TRIBONACCI = (1, 1, 1)
MINIMAL_PISOT = (1, 1, 0)


def family(t):
    return (t, -2 * t, 2 * t)


def schoolbook_coords(f, xc, yc):
    """The Fraction coordinates of x * y by the schoolbook product, reduced
    by its own loop with beta^d = a_{d-1} beta^{d-1} + ... + a_0: an oracle
    that shares no code with FieldElement.__mul__ or BetaField.times_beta."""
    d = f.degree
    prod = [Q(0)] * (2 * d - 1)
    for i, a in enumerate(xc):
        for j, b in enumerate(yc):
            prod[i + j] += a * b
    for k in range(2 * d - 2, d - 1, -1):
        c, prod[k] = prod[k], Q(0)
        for i in range(d):
            prod[k - d + i] += c * f.coeffs[i]
    return prod[:d]


def schoolbook_product(x, y):
    return x.field.from_coords(schoolbook_coords(x.field, x.coords, y.coords))


def bisect_oracle(p, lo, hi, width=Q(1, 1000)):
    """Independent root bracket by plain rational bisection on p."""
    lo, hi = Q(lo), Q(hi)
    assert P.eval_at(p, lo) * P.eval_at(p, hi) < 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        if P.eval_at(p, mid) == 0:
            return mid, mid
        if (P.eval_at(p, mid) > 0) == (P.eval_at(p, lo) > 0):
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_make_field_examples():
    trib = make_field(TRIBONACCI)
    lo, hi = bisect_oracle((-1, -1, -1, 1), 1, 2)
    # beta in (1.8, 1.9) per the bracket
    assert Q(18, 10) < lo and hi < Q(19, 10)
    assert trib.from_rational(Q(18, 10)) < trib.beta() < trib.from_rational(Q(19, 10))

    fam = make_field(family(2))
    assert fam.from_rational(2) < fam.beta() < fam.from_rational(3)

    minp = make_field(MINIMAL_PISOT)
    assert minp.from_rational(Q(13, 10)) < minp.beta() < minp.from_rational(Q(14, 10))


def test_make_field_errors():
    with pytest.raises(NoRootAboveOne):
        make_field((-1, -3))  # x^2+3x+1
    with pytest.raises(Reducible):
        make_field((-2, 3))  # (x-1)(x-2)
    with pytest.raises(Reducible):
        make_field((0, 1, 1))  # zero constant term
    # (x^2-x-1)(x^2-2) = x^4-x^3-3x^2+2x+2
    with pytest.raises(Reducible):
        make_field((-2, -2, 3, 1))


def test_reducible_quintic_names_its_factor():
    # x^5-x^4-2x^3+2x+1 = (x^2-x-1)(x^3-x-1) has no rational root; its
    # largest root is the golden ratio, a root of the quadratic factor
    with pytest.raises(Reducible, match=r"x\^2-x-1 divides it"):
        make_field((-1, -2, 0, 2, 1))


def test_defining_relation():
    trib = make_field(TRIBONACCI)
    b = trib.beta()
    assert b * b * b == b * b + b + 1
    assert (b - b).is_zero()


@pytest.mark.parametrize("t", [2, 3, 5])
def test_family_beta_inverse_identity(t):
    f = make_field(family(t))
    bi = f.beta_inverse()
    assert 2 * t * bi - 2 * t * bi**2 + t * bi**3 == f.one()


coords3 = st.tuples(*[st.fractions(min_value=-5, max_value=5) for _ in range(3)])


@settings(max_examples=40, deadline=None)
@given(coords3, coords3, coords3)
def test_ring_axioms(ca, cb, cc):
    f = make_field(TRIBONACCI)
    a, b, c = f.from_coords(ca), f.from_coords(cb), f.from_coords(cc)
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_sign_examples():
    for t in range(2, 21):
        f = make_field(family(t))
        assert (f.beta() - (2 * t - 2)).sign() == 1
        assert (f.beta() - (2 * t - 1)).sign() == -1
    assert make_field(TRIBONACCI).zero().sign() == 0


def test_sign_transitivity_random():
    rng = random.Random(11)
    f = make_field(TRIBONACCI)
    for _ in range(60):
        a, b, c = (
            f.from_coords([Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)])
            for _ in range(3)
        )
        if (a - b).sign() == 1 and (b - c).sign() == 1:
            assert (a - c).sign() == 1


def test_floor_examples():
    for t in range(2, 21):
        assert make_field(family(t)).floor_beta() == 2 * t - 2
    trib = make_field(TRIBONACCI)
    assert trib.from_rational(Q(7, 2)).floor() == 3
    assert trib.from_rational(Q(-7, 2)).floor() == -4
    # derived: bisection oracle puts tribonacci beta in (1.8, 1.9)
    assert trib.floor_beta() == 1
    assert make_field(MINIMAL_PISOT).floor_beta() == 1


def test_floor_bracketing_property():
    rng = random.Random(5)
    f = make_field(family(3))
    for _ in range(30):
        a = f.from_coords([Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)])
        n = a.floor()
        assert (a - n).sign() >= 0
        assert (a - (n + 1)).sign() < 0


def test_beta_power_matches_repeated_products():
    rng = random.Random(11)
    for coeffs in (TRIBONACCI, family(2), (2, 2, 0, 3)):
        f = make_field(coeffs)
        order = list(range(-9, 10))
        rng.shuffle(order)
        for n in order:
            expect = f.one()
            for _ in range(abs(n)):
                expect = expect * (f.beta() if n > 0 else f.one() / f.beta())
            assert f.beta_power(n) == expect, (coeffs, n)
            if n >= 0:
                assert (f.beta_row(n), 1) == (expect.nums, expect.den), (coeffs, n)
        with pytest.raises(ValueError):
            f.beta_row(-1)


def test_interval_refinement_halves():
    f = make_field(TRIBONACCI)
    lo, hi = f.interval
    width = hi - lo
    for k in range(1, 6):
        f.refine()
        lo, hi = f.interval
        assert hi - lo == width / 2**k


def test_field_mismatch():
    a = make_field(TRIBONACCI).one()
    b = make_field(MINIMAL_PISOT).one()
    with pytest.raises(FieldMismatch):
        a + b


def test_division_and_powers():
    f = make_field(family(2))
    b = f.beta()
    x = f.from_coords((Q(3, 7), Q(-1, 2), Q(5)))
    assert x / x == f.one()
    assert b ** (-3) == f.beta_inverse() ** 3
    assert b**4 * b ** (-4) == f.one()
    # random elements of degree 2-7 fields, x^5-x-1 and the palindromic
    # x^4-x^3-x^2-x+1 among them
    rng = random.Random(11)
    for coeffs in [*KERNEL_FIELDS, (-1, 1, 1, 1), (1, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0)]:
        f = make_field(coeffs)
        for _ in range(15):
            x = f.from_coords([Q(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(f.degree)])
            if not x.is_zero():
                assert x * x.inverse() == 1, (coeffs, x)
        q = f.from_rational(Q(-3, 7))
        assert q.inverse() == f.from_rational(Q(-7, 3)) and q * q.inverse() == 1
        with pytest.raises(ZeroDivisionError):
            f.zero().inverse()


def test_reflected_division_coerces_like_the_forward_operators():
    # ints and Fractions divide by an element; other types raise TypeError,
    # as in x / 1.5 and 1.5 * x, instead of passing through from_rational
    f = make_field(family(2))
    x = f.from_coords((Q(3, 7), Q(-1, 2), Q(5)))
    assert 3 / x == f.from_rational(3) * x.inverse()
    assert Q(1, 2) / x == schoolbook_product(f.from_rational(Q(1, 2)), x.inverse())
    for other in ("3", 1.5):
        for op in (lambda: other / x, lambda: x / other, lambda: other * x, lambda: other - x):
            with pytest.raises(TypeError):
                op()


def test_is_pisot_examples():
    assert is_pisot(make_field(family(2)))
    assert is_pisot(make_field(MINIMAL_PISOT))
    # derived oracle: x^2-3x+1 has roots in (0,1) and (2,3) by sign changes
    p = (1, -3, 1)
    assert P.eval_at(p, 0) > 0 > P.eval_at(p, 1)
    assert P.eval_at(p, 2) < 0 < P.eval_at(p, 3)
    assert is_pisot(make_field((-1, 3)))


def test_boundary_root_reported():
    # reciprocal quartic with a conjugate pair on the circle
    salem = make_field((-1, 1, 1, 1))
    assert unit_disk_profile(salem) == (1, 2, 1)
    assert not is_pisot(salem)


def test_pisot_grid_matches_cubic_criterion():
    # small sweep here; the acceptance suite runs the full |a|,|b|,|c| <= 6 grid
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                coeffs = (c, b, a)
                if P.least_factor((-c, -b, -a, 1)) is not None:
                    continue
                try:
                    f = make_field(coeffs)
                except (NoRootAboveOne, Reducible):
                    continue
                assert is_pisot(f) == cubic_pisot_criterion(a, b, c), (a, b, c)


def test_isolating_interval_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20261018)
    tested = 0
    while tested < 80:
        d = rng.randint(2, 7)
        try:
            f = make_field([rng.randint(-5, 5) for _ in range(d)])
        except (NoRootAboveOne, Reducible):
            continue
        tested += 1
        p = sympy.Poly(list(reversed(f.poly)), x)
        lo, hi = (sympy.Rational(q.numerator, q.denominator) for q in f.interval)
        # sympy's exact count: one root in [lo, hi], none above
        assert p.count_roots(lo, hi) == 1 and p.count_roots(hi, None) == 0, f
        real = [z for z in p.nroots(n=60, maxsteps=200) if z.is_real]
        assert lo < max(real) < hi, f


# -- the integer kernel against a Fraction oracle ------------------------------
#
# Each field comes with a hand bracket (lo, hi) holding its largest real
# root and no other root (beta to four places in the comment).  The oracle
# narrows it by its own bisection on P.eval_at and encloses an element's
# value by the Fraction interval Horner P.eval_interval, so it shares no
# code with the field's integer bracket or its integer Horner.

KERNEL_FIELDS = {
    (-1, 3): (Q(2), Q(3)),  # x^2-3x+1, beta 2.6180
    (-2, 4): (Q(3), Q(4)),  # x^2-4x+2, beta 3.4142
    TRIBONACCI: (Q(18, 10), Q(19, 10)),  # beta 1.8393
    MINIMAL_PISOT: (Q(13, 10), Q(14, 10)),  # x^3-x-1, beta 1.3247
    family(2): (Q(28, 10), Q(29, 10)),  # x^3-4x^2+4x-2, beta 2.8393
    (1, 1, 1, 1): (Q(19, 10), Q(2)),  # tetranacci, beta 1.9276
    (2, 2, 0, 3): (Q(32, 10), Q(33, 10)),  # x^4-3x^3-2x-2, beta 3.2480
    (1, 1, 0, 0, 0): (Q(11, 10), Q(12, 10)),  # x^5-x-1, beta 1.1673
}


def oracle_enclosure(field, coords, done):
    """The first Fraction enclosure of the element's value, over ever
    narrower oracle brackets of beta, for which done(vlo, vhi) holds."""
    p = field.poly
    lo, hi = KERNEL_FIELDS[field.coeffs]
    assert P.eval_at(p, lo) < 0 < P.eval_at(p, hi)
    while True:
        vlo, vhi = P.eval_interval(coords, lo, hi)
        if done(vlo, vhi):
            return vlo, vhi
        mid = (lo + hi) / 2
        if P.eval_at(p, mid) < 0:
            lo = mid
        else:
            hi = mid


def oracle_sign(field, coords):
    vlo, vhi = oracle_enclosure(
        field, coords, lambda a, b: a > 0 or b < 0 or a == b == 0
    )
    return 1 if vlo > 0 else -1 if vhi < 0 else 0


def oracle_floor(field, coords):
    vlo, _ = oracle_enclosure(field, coords, lambda a, b: math.floor(a) == math.floor(b))
    return math.floor(vlo)


def kernel_elements(f, rng, count):
    """Random elements plus near-integers k +- beta^{-20} and k +- beta^{-1}."""
    out = []
    for _ in range(count):
        out.append(f.from_coords(
            [Q(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(f.degree)]
        ))
    tiny = f.beta_power(-20)
    for k in (-2, 0, 1, 3):
        out += [k + tiny, k - tiny, k + f.beta_inverse(), k - f.beta_inverse()]
    out.append(f.beta() - f.floor_beta())
    return out


@pytest.mark.parametrize("coeffs", list(KERNEL_FIELDS))
def test_sign_and_floor_match_fraction_oracle(coeffs):
    rng = random.Random(sum(coeffs) * 31 + len(coeffs))
    f = make_field(coeffs)
    for x in kernel_elements(f, rng, 60):
        assert x.sign() == oracle_sign(f, x.coords), x
        assert x.floor() == oracle_floor(f, x.coords), x


@pytest.mark.parametrize("coeffs", list(KERNEL_FIELDS))
def test_sign_nums_matches_sign_and_oracle(coeffs, monkeypatch):
    rng = random.Random(sum(coeffs) * 17 + len(coeffs))
    f = make_field(coeffs)
    d = f.degree
    vectors = [[0] * d, [1] + [0] * (d - 1), [-7] + [0] * (d - 1)]
    vectors += [[rng.randint(-50, 50)] + [0] * (d - 1) for _ in range(10)]
    vectors += [[rng.randint(-50, 50) for _ in range(d)] for _ in range(60)]
    # beta^n - m for m next to beta^n: the powers big_l compares with
    for n in range(1, 8):
        row = f.beta_row(n)
        m = math.floor(oracle_enclosure(f, row, lambda a, b: math.floor(a) == math.floor(b))[0])
        vectors += [[row[0] - m] + list(row[1:]), [row[0] - m - 1] + list(row[1:])]
    for v in vectors:
        expect = oracle_sign(f, v)
        assert f.sign_nums(v) == expect == f.from_coords(v).sign(), v
    # a rational vector, zero above all, is decided without refinement
    def no_settle(nums, decide):
        raise AssertionError("a rational sign refined the bracket")

    monkeypatch.setattr(f, "_settle", no_settle)
    assert f.sign_nums([0] * d) == 0 == f.zero().sign()
    assert f.sign_nums([3] + [0] * (d - 1)) == 1
    assert f.sign_nums([-3] + [0] * (d - 1)) == -1


def over_beta(x):
    """x / beta: one zero digit of BetaField.horner_inverse_beta."""
    return x.field.horner_inverse_beta((0,), x.nums, x.den)


@pytest.mark.parametrize("coeffs", list(KERNEL_FIELDS))
def test_div_beta_inverts_mul_beta(coeffs):
    rng = random.Random(7)
    f = make_field(coeffs)
    for x in kernel_elements(f, rng, 20):
        assert f.from_coords(f.times_beta(over_beta(x).coords)) == x
        assert over_beta(x) == x * f.beta_inverse()


# x^2-x-1, x^2-4x+2, tribonacci, x^3-x-1, the family at t = 2 (a_0 = 2)
# and tetranacci
TIMES_BETA_FIELDS = [(1, 1), (-2, 4), TRIBONACCI, MINIMAL_PISOT, family(2), (1, 1, 1, 1)]


@pytest.mark.parametrize("coeffs", TIMES_BETA_FIELDS)
def test_times_beta_matches_schoolbook_product(coeffs):
    f = make_field(coeffs)
    d = f.degree
    rng = random.Random(sum(coeffs) * 13 + d)
    for _ in range(60):
        ints = [rng.randint(-50, 50) for _ in range(d)]
        fracs = [Q(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(d)]
        for v in (ints, fracs, ints[:-1] + [0], fracs[:-1] + [Q(0)]):
            got = f.times_beta(v)
            assert len(got) == d
            assert all(type(c) is type(v[0]) for c in got), (v, got)
            assert f.from_coords(got) == schoolbook_product(f.from_coords(v), f.beta()), (coeffs, v)
            # the element's Fraction coordinates take the same beta-shift
            assert f.from_coords(f.times_beta(f.from_coords(v).coords)) == f.from_coords(got)


@pytest.mark.parametrize("coeffs", TIMES_BETA_FIELDS)
def test_mul_and_div_beta_match_schoolbook(coeffs):
    f = make_field(coeffs)
    d = f.degree
    rng = random.Random(sum(coeffs) * 19 + d)
    xs = [f.zero(), f.one(), f.from_rational(Q(-7, 3)), f.beta(), f.beta_power(-3)]
    xs += [f.from_rational(Q(rng.randint(-50, 50), rng.randint(1, 9))) for _ in range(10)]
    xs += [
        f.from_coords([Q(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(d)])
        for _ in range(30)
    ]
    for x in xs:
        for y in rng.sample(xs, 8):
            assert x * y == schoolbook_product(x, y), (x, y)
        assert 3 * x == schoolbook_product(x, f.from_rational(3)) == x * 3
        # x / beta times beta, by the oracle product, gives back x
        assert schoolbook_product(over_beta(x), f.beta()) == x, x
    # a_0 = -2 and a_0 = 2 are on the list, so over_beta divides by a_0 of either sign
    assert {c[0] for c in TIMES_BETA_FIELDS} >= {-2, 2}


def fraction_div_beta(f, coords):
    """x / beta on Fraction coordinates: the shift and
    a_0 beta^{-1} = beta^{d-1} - a_{d-1} beta^{d-2} - ... - a_1."""
    low = coords[0]
    out = list(coords[1:]) + [Q(0)]
    if low:
        q = low / f.coeffs[0]
        for i in range(1, f.degree):
            out[i - 1] -= q * f.coeffs[i]
        out[-1] = q
    return out


def assert_canonical(x, coords):
    """x stores the canonical pair of the Fraction coordinates coords: the
    numerators over the lcm of the reduced denominators, and reads them
    back as Fractions."""
    coords = [Q(c) for c in coords]
    den = math.lcm(*(c.denominator for c in coords))
    assert x.den == den > 0 and math.gcd(x.den, *x.nums) == 1, x
    assert x.nums == tuple(int(c * den) for c in coords), x
    assert type(x.nums) is tuple and all(type(n) is int for n in x.nums) and type(x.den) is int
    assert x.coords == tuple(coords) and all(type(c) is Q for c in x.coords)
    assert x.field.from_numerators(x.nums, x.den) == x


@pytest.mark.parametrize("coeffs", TIMES_BETA_FIELDS)
def test_integer_storage_matches_fraction_oracle(coeffs):
    f = make_field(coeffs)
    d = f.degree
    rng = random.Random(sum(coeffs) * 23 + d)
    cs = [[Q(0)] * d, [Q(1)] + [Q(0)] * (d - 1), [Q(-7, 3)] + [Q(0)] * (d - 1)]
    cs += [[Q(rng.randint(-60, 60), rng.choice((1, 2, 3, 4, 6, 12))) for _ in range(d)]
           for _ in range(40)]
    xs = [f.from_coords(c) for c in cs]
    for x, c in zip(xs, cs):
        assert_canonical(x, c)
        assert_canonical(FieldElement(f, [str(q) for q in c]), c)
        assert_canonical(-x, [-q for q in c])
        assert_canonical(over_beta(x), fraction_div_beta(f, c))
        for j in rng.sample(range(len(xs)), 6):
            y, e = xs[j], cs[j]
            assert_canonical(x + y, [a + b for a, b in zip(c, e)])
            assert_canonical(x - y, [a - b for a, b in zip(c, e)])
            assert_canonical(x * y, schoolbook_coords(f, c, e))
        assert_canonical(x + 3, [c[0] + 3, *c[1:]])
        assert_canonical(x - Q(1, 2), [c[0] - Q(1, 2), *c[1:]])
        if any(c):
            inv = x.inverse()
            assert_canonical(inv, inv.coords)
            assert schoolbook_coords(f, c, inv.coords) == [1] + [0] * (d - 1), x
    # x - x cancels to the zero element over 1, whatever x's denominator
    assert_canonical(xs[-1] - xs[-1], [0] * d)
    assert (xs[-1] - xs[-1]).den == 1


# a_0 = 1, -1, 2, -2, 4, -6 and 12, over degrees 2 to 4: x^3-x^2-x-1,
# x^2-3x+1, the family at t = 2, x^2-4x+2, x^2-x-4, x^3-4x^2-x+6 and x^4-x^3-12
HORNER_FIELDS = [TRIBONACCI, (-1, 3), family(2), (-2, 4), (4, 1), (-6, 1, 4), (12, 0, 0, 1)]


@pytest.mark.parametrize("coeffs", HORNER_FIELDS)
def test_horner_inverse_beta_matches_fraction_oracle(coeffs):
    # sum_n digits[n-1] beta^{-n} + beta^{-m} x against fraction_div_beta
    # iterated in Fraction coordinates, for words of 1 to 300 digits from
    # starting pairs that need not be reduced
    f = make_field(coeffs)
    d = f.degree
    rng = random.Random(sum(coeffs) * 31 + d)
    lengths = [1, 2, 300] + [rng.randint(1, 300) for _ in range(9)]
    for i, m in enumerate(lengths):
        if i % 4 == 3:
            digits = [0] * m
        else:
            digits = [rng.choice((0, 0, 1, 2, 3, 9, -1, -4)) for _ in range(m)]
        den = rng.choice((1, 2, 3, 6, 12))
        nums = [rng.randint(-40, 40) * rng.choice((1, den)) for _ in range(d)]
        acc = [Q(n, den) for n in nums]
        for digit in reversed(digits):
            acc[0] += digit
            acc = fraction_div_beta(f, acc)
        assert_canonical(f.horner_inverse_beta(digits, nums, den), acc)
        if min(digits) >= 0:
            # Word stores greedy digits as bytes
            assert_canonical(f.horner_inverse_beta(bytes(digits), nums, den), acc)
    assert {c[0] for c in HORNER_FIELDS} == {1, -1, 2, -2, 4, -6, 12}


@pytest.mark.parametrize("coeffs", TIMES_BETA_FIELDS)
def test_from_numerators_reduces_any_denominator(coeffs):
    f = make_field(coeffs)
    d = f.degree
    rng = random.Random(sum(coeffs) * 29 + d)
    for _ in range(40):
        nums = [rng.randint(-40, 40) for _ in range(d)]
        den = rng.choice((1, 2, 3, 4, 6, 9, 12)) * rng.choice((1, -1))
        scale = rng.choice((1, 2, 5, -3))
        expect = [Q(n, den) for n in nums]
        # unreduced, negative and scaled denominators give one canonical pair
        for k in (1, scale):
            assert_canonical(f.from_numerators([k * n for n in nums], k * den), expect)
    assert_canonical(f.from_numerators([0] * d, -7), [0] * d)
    with pytest.raises(ZeroDivisionError):
        f.from_numerators([1] + [0] * (d - 1), 0)
    with pytest.raises(ZeroDivisionError):
        f.from_numerators([0] * d, 0)
    with pytest.raises(ValueError):
        f.from_numerators([1] * (d + 1), 1)


@pytest.mark.parametrize("coeffs", TIMES_BETA_FIELDS)
def test_equal_elements_hash_alike_across_routes(coeffs):
    f = make_field(coeffs)
    d = f.degree
    zeros = [0] * (d - 1)
    half = [
        f.from_coords([Q(1, 2), *zeros]),
        FieldElement(f, ["1/2", *zeros]),
        FieldElement(f, [0.5, *zeros]),
        f.from_rational(Q(1, 2)),
        f.from_rational("2/4"),
        f.from_numerators([3, *zeros], 6),
        f.from_numerators([-1, *zeros], -2),
        f.one() / 2,
        f.one() - f.from_rational(Q(1, 2)),
        over_beta(f.beta() * f.beta_inverse()) * f.beta() / 2,
        f.from_rational(Q(1, 2)).inverse().inverse(),
    ]
    beta_cubed = [
        f.beta() ** 3,
        f.beta_power(3),
        f.beta_power(5) * f.beta_power(-2),
        f.from_coords(f.beta_row(3)),
        f.from_numerators([2 * n for n in f.beta_row(3)], 2),
    ]
    for group in (half, beta_cubed):
        for x in group:
            assert x == group[0] and hash(x) == hash(group[0]), x
            assert (x.nums, x.den) == (group[0].nums, group[0].den)
        assert len(set(group)) == 1
    assert half[0] == Q(1, 2) and half[0] != 1 and half[0] != beta_cubed[0]


def test_sign_and_floor_under_threads():
    # every thread starts on a fresh field, so the decisions refine one
    # shared bracket while other threads read and refine it
    f0 = make_field(TRIBONACCI)
    rng = random.Random(3)
    elements = [c.coords for c in kernel_elements(f0, rng, 40)]
    expect = [(f0.from_coords(c).sign(), f0.from_coords(c).floor()) for c in elements]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            field = make_field(TRIBONACCI)
            results = []
            start = threading.Barrier(8)

            def worker():
                start.wait(timeout=60)
                got = [(field.from_coords(c).sign(), field.from_coords(c).floor()) for c in elements]
                results.append(got)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
            assert results == [expect] * 8
            # the bracket still isolates beta, and each refinement halves it
            p = field.poly
            lo, hi = field.interval
            assert P.eval_at(p, lo) < 0 < P.eval_at(p, hi)
            for _ in range(3):
                field.refine()
                nlo, nhi = field.interval
                assert lo <= nlo < nhi <= hi and nhi - nlo == (hi - lo) / 2
                assert P.eval_at(p, nlo) < 0 < P.eval_at(p, nhi)
                lo, hi = nlo, nhi
    finally:
        sys.setswitchinterval(old_interval)


def test_field_and_elements_pickle():
    f = make_field(TRIBONACCI)
    x = f.beta() - 1 + f.beta_power(-20)
    x.sign()  # refines the bracket, which the copy does not carry
    f2, x2 = pickle.loads(pickle.dumps((f, x)))
    assert f2 == f and x2 == x and x2.field is f2
    assert (x2.sign(), x2.floor()) == (x.sign(), x.floor())


def test_field_element_checks_coordinate_count():
    # a short vector used to lose coordinates in + and == without an error
    f = make_field(TRIBONACCI)
    for coords in ([2], [], [1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError):
            FieldElement(f, coords)
        with pytest.raises(ValueError):
            f.from_coords(coords)
    assert FieldElement(f, [2, 0, 0]) == f.from_rational(2)
