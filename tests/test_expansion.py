import math
import random
import sys
import threading
from fractions import Fraction as Q

import pytest

from betafin.classify import classify
from betafin.errors import OrbitBudgetExceeded, OutOfRange
from betafin.expansion import (
    DEFAULT_ORBIT_CAP,
    Expansion,
    _digit_orbit,
    beta_expand,
    big_l,
    d_beta,
    d_beta_one,
    d_beta_star,
    frac_part,
    is_admissible,
    is_finite_expansion,
    nu,
    t_map,
    t_orbit_of_one,
    xi,
    xi_t_power,
)
from betafin.field import FieldElement, make_field, unit_disk_profile
from betafin.words import Word, format_word, lex_cmp

TRIB = make_field((1, 1, 1))
MINP = make_field((1, 1, 0))


def family(t):
    return make_field((t, -2 * t, 2 * t))


def random_unit_interval_element(field, rng):
    while True:
        x = field.from_coords(
            [Q(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(field.degree)]
        )
        if x.sign() >= 0 and (x - 1).sign() < 0:
            return x


def test_t_map_examples():
    assert t_map(TRIB.zero()) == (0, TRIB.zero())
    digit, rest = t_map(TRIB.one())
    assert digit == 1 and rest == TRIB.beta() - 1
    for t in (2, 3, 4):
        f = family(t)
        digit, rest = t_map(f.one())
        assert digit == 2 * t - 2
        assert rest == f.beta() - (2 * t - 2)
    with pytest.raises(OutOfRange):
        t_map(TRIB.from_rational(2))


def two_sign_t_map(x):
    """t_map with the range decided by two sign tests, 0 <= x and x <= 1:
    the oracle for t_map's single floor decision."""
    if x.sign() < 0 or (x - 1).sign() > 0:
        raise OutOfRange("t_map needs 0 <= x <= 1")
    bx = x * x.field.beta()
    digit = bx.floor()
    return digit, bx - digit


def near_zero(field):
    """An irrational power beta^{-k} with 0 < beta^{-k} < 2^-30."""
    k = 1
    while (field.beta_power(-k) - Q(1, 2**30)).sign() >= 0:
        k += 1
    eps = field.beta_power(-k)
    assert not eps.is_rational()
    return eps


T_MAP_FIELDS = pytest.mark.parametrize(
    "coeffs",
    [(1, 1), (-2, 4), (1, 1, 1), (1, 1, 0), (2, -4, 4), (1, 1, 1, 1)],
    ids=["golden", "x2-4x+2", "tribonacci", "x3-x-1", "family-t2", "tetranacci"],
)


@T_MAP_FIELDS
def test_t_map_range_matches_two_sign_rule(coeffs):
    field = make_field(coeffs)
    eps = near_zero(field)
    xs = [field.from_rational(q) for q in (0, 1, Q(1, 2), Q(-1, 2), Q(3, 2), 2)]
    xs += [eps, -eps, 1 - eps, 1 + eps, Q(1, 2) + eps]
    outcomes = set()
    for x in xs:
        try:
            expect = two_sign_t_map(x)
        except OutOfRange:
            with pytest.raises(OutOfRange):
                t_map(x)
            outcomes.add("out")
            continue
        assert t_map(x) == expect, x
        outcomes.add("in")
    assert outcomes == {"in", "out"}


@T_MAP_FIELDS
def test_t_map_step_makes_no_sign_decision(coeffs, monkeypatch):
    field = make_field(coeffs)
    eps = near_zero(field)
    calls = []
    sign = FieldElement.sign
    monkeypatch.setattr(FieldElement, "sign", lambda x: calls.append(x) or sign(x))
    for x in (eps, 1 - eps, Q(1, 2) + eps):
        t_map(x)
    with pytest.raises(OutOfRange):
        t_map(1 + eps)
    assert calls == []


def test_d_beta_one_catalog():
    assert format_word(d_beta_one(TRIB)) == "1 1 1"
    assert format_word(d_beta_one(MINP)) == "1 0 0 0 1"
    for t in range(2, 11):
        assert d_beta_one(family(t)) == Word((2 * t - 2, 2 * t - 2, t - 1, 0, 0, t), ())


def test_d_beta_star_catalog():
    assert d_beta_star(TRIB) == Word((), (1, 1, 0))
    assert d_beta_star(MINP) == Word((), (1, 0, 0, 0, 0))
    for t in range(2, 11):
        assert d_beta_star(family(t)) == Word((), (2 * t - 2, 2 * t - 2, t - 1, 0, 0, t - 1))


def test_admissibility_examples():
    assert is_admissible(TRIB, Word((), ()))
    assert not is_admissible(TRIB, Word((1, 1, 1), ()))
    t = 2
    w = Word((1, 0, 0, 0, 0, t - 2, 2 * t - 2, t - 2), (t - 1,))
    assert is_admissible(family(t), w)
    # the quasi-greedy word itself is not admissible (equality at shift 0)
    assert not is_admissible(TRIB, d_beta_star(TRIB))


def test_d_beta_conjugation_and_value():
    rng = random.Random(3)
    for field in (TRIB, MINP, family(2)):
        for _ in range(8):
            x = random_unit_interval_element(field, rng)
            w = d_beta(x)
            assert nu(field, w) == x
            digit, tx = t_map(x)
            assert w.digit(0) == digit
            assert d_beta(tx) == w.shift(1)
            assert is_admissible(field, w)


def test_order_preservation_random():
    rng = random.Random(9)
    for _ in range(25):
        x = random_unit_interval_element(TRIB, rng)
        y = random_unit_interval_element(TRIB, rng)
        cmp_vals = (x - y).sign()
        cmp_words = lex_cmp(d_beta(x), d_beta(y))
        assert cmp_vals == cmp_words


def test_quasi_greedy_suffixes_dominated():
    # every suffix of the quasi-greedy word stays lexicographically at or
    # below the word itself, checked over a full period window
    for field in (TRIB, MINP, family(2), family(5)):
        ds = d_beta_star(field)
        for n in range(1, 2 * ds.period_len() + 2):
            assert lex_cmp(ds.shift(n), ds) <= 0


def test_big_l():
    assert big_l(TRIB.from_rational(Q(9, 10))) == 0
    assert big_l(TRIB.zero()) == 0
    assert big_l(TRIB.one()) == 1
    assert big_l(TRIB.from_rational(2)) == 2  # floor(beta)+1 with beta >= golden
    assert big_l(family(2).from_rational(2)) == 1


@pytest.mark.parametrize("coeffs", [(1, 1), (1, 1, 1), (2, -4, 4), (1, 1, 1, 1)])
def test_big_l_matches_plain_scan(coeffs):
    def scan(x):
        n = 0
        while not x * x.field.beta_power(-n) < 1:
            n += 1
        return n

    rng = random.Random(len(coeffs) * 7 + coeffs[-1])
    f = make_field(coeffs)
    top = f.beta_power(8)
    xs = [f.zero(), top] + [f.beta_power(n) for n in range(8)]
    while len(xs) < 220:
        coords = [Q(rng.randint(0, 40), rng.randint(1, 12)) for _ in range(f.degree)]
        x = f.from_coords(coords) * f.beta_power(rng.randint(-3, 6))
        if x <= top:
            xs.append(x)
    expect = [scan(x) for x in xs]
    # big_l on a fresh field builds its powers of beta, then reads them
    fresh = make_field(coeffs)
    for _ in range(2):
        assert [big_l(fresh.from_coords(x.coords)) for x in xs] == expect


def test_beta_expand_zero():
    e = beta_expand(TRIB.zero())
    assert e.exponent == 0 and e.word == Word((), ())
    assert e.is_finite() and e.value(TRIB).is_zero()


def test_beta_expand_reconstruction():
    rng = random.Random(21)
    for field in (TRIB, family(3)):
        for _ in range(10):
            x = field.from_coords([Q(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(3)])
            if x.sign() < 0:
                continue
            e = beta_expand(x)
            assert e.value(field) == x
            if (x - 1).sign() >= 0:
                assert e.word.digit(0) != 0


def test_beta_expand_floor_plus_one():
    # 10.d_beta(floor(beta)+1-beta) shape for beta at or above the golden ratio
    for field in (TRIB, family(2)):
        n = field.floor_beta() + 1
        e = beta_expand(field.from_rational(n))
        assert e.exponent == 2
        assert e.word.digits(2) == [1, 0]
        tail_value = nu(field, e.word.shift(2))
        assert tail_value == field.from_rational(n) - field.beta()


def test_family_nonfinite_example():
    for t in (2, 3, 5):
        f = family(t)
        bi = f.beta_inverse()
        x = (
            f.from_rational(2 * t - 2)
            + (2 * t - 2) * bi
            + (t - 1) * bi**2
            + (t - 1) * bi**4
            + (t - 1) * bi**5
            + (t - 1) * bi**6
        )
        e = beta_expand(x)
        assert e.exponent == 2
        assert e.word == Word((1, 0, 0, 0, 0, t - 2, 2 * t - 2, t - 2), (t - 1,))
        assert not is_finite_expansion(x)
        assert is_admissible(f, e.word)


def test_is_finite_expansion_naturals():
    f = family(2)
    for n in range(0, 40):
        assert is_finite_expansion(f.from_rational(n))


def test_xi_values():
    assert xi(TRIB, 1) == TRIB.one()
    assert xi(TRIB, 2) == TRIB.beta() - 1
    # derived check: 50-term partial sum brackets xi(2) within the tail bound
    ds = d_beta_star(TRIB).shift(1)
    partial = TRIB.zero()
    for n in range(1, 51):
        partial = partial + ds.digit(n - 1) * TRIB.beta_power(-n)
    diff = xi(TRIB, 2) - partial
    bound = TRIB.floor_beta() * TRIB.beta_power(-50) * (TRIB.beta() - 1).inverse()
    assert diff.sign() >= 0
    assert (bound - diff).sign() >= 0


def test_xi_set_is_t_orbit():
    for field in (TRIB, MINP, family(2)):
        orbit = t_orbit_of_one(field, 12)
        xis = {xi(field, n) for n in range(1, 13)}
        expect = {v for v in orbit if not v.is_zero()}
        assert xis == expect
        for n in range(1, 13):
            j = xi_t_power(field, n)
            assert xi(field, n) == orbit[j]


def test_frac_part():
    assert frac_part(TRIB.one()).is_zero()
    for field in (TRIB, family(2)):
        n = field.floor_beta() + 1
        assert frac_part(field.from_rational(n)) == field.from_rational(n) - field.beta()
    t = 2
    f = family(t)
    bi = f.beta_inverse()
    x = (
        f.from_rational(2 * t - 2)
        + (2 * t - 2) * bi
        + (t - 1) * bi**2
        + (t - 1) * bi**4
        + (t - 1) * bi**5
        + (t - 1) * bi**6
    )
    expect = nu(f, Word((0, 0, 0, t - 2, 2 * t - 2, t - 2), (t - 1,)))
    assert frac_part(x) == expect
    for q in (Q(-1, 2), -3):
        with pytest.raises(OutOfRange):
            frac_part(TRIB.from_rational(q))


def plain_frac_part(x):
    """frac_part's oracle: L(x) by a plain scan, then L(x) steps of
    two_sign_t_map from beta^{-L(x)} x."""
    ell = 0
    while not x * x.field.beta_power(-ell) < 1:
        ell += 1
    y = x * x.field.beta_power(-ell)
    for _ in range(ell):
        _, y = two_sign_t_map(y)
    return y


FRAC_PART_FIELDS = pytest.mark.parametrize(
    "coeffs",
    [(1, 1), (-2, 4), (1, 1, 1), (1, 1, 0), (2, -4, 4), (1, 1, 1, 1), (4, -4, 5), (-2, 0, 4)],
    ids=["golden", "x2-4x+2", "tribonacci", "x3-x-1", "family-t2", "tetranacci",
         "grid-5,-4,4", "grid-4,0,-2"],
)


@FRAC_PART_FIELDS
def test_frac_part_matches_plain_oracle(coeffs):
    field = make_field(coeffs)
    rng = random.Random(sum(coeffs) * 13 + len(coeffs))
    naturals = [field.from_rational(n) for n in range(201)]
    rationals = [field.from_rational(Q(rng.randint(0, 120), rng.randint(1, 5))) for _ in range(60)]
    for x in naturals + rationals:
        y = frac_part(x)
        assert y == plain_frac_part(x), x
        assert y.sign() >= 0 and (y - 1).sign() < 0, x
        if x.as_rational().denominator == 1:
            assert all(c.denominator == 1 for c in y.coords), x


def test_frac_part_and_the_sweep_take_no_t_map_step(monkeypatch):
    def no_t_map(x):
        raise AssertionError("t_map stepped")

    rng = random.Random(20)
    xs = []
    for field in (family(2), TRIB):
        units = [field.zero(), field.one()] + [random_unit_interval_element(field, rng) for _ in range(4)]
        xs += units + [field.from_rational(n) for n in (2, 7, 12)] + [units[-1] + 3, units[-2] + field.beta()]
    before = [is_finite_expansion(x) for x in xs]
    monkeypatch.setattr("betafin.expansion.t_map", no_t_map)
    assert [is_finite_expansion(x) for x in xs] == before
    f = family(2)
    n = f.from_rational(f.floor_beta() + 1)
    assert frac_part(n) == n - f.beta()
    rep = classify(make_field((2, 3, 1)))  # x^3-x^2-3x-2: the sweep refutes (F1) at N = 7
    assert any(e.rule == "natural-sweep" and "N = 7 " in e.claim for e in rep.evidence)


def test_orbit_budget():
    with pytest.raises(OrbitBudgetExceeded):
        d_beta(TRIB.from_coords((Q(1, 97), Q(1, 89), Q(1, 83))), cap=5)


def t_map_orbit(x, cap):
    """Digits, the index where the cycle starts, and the distinct states of
    the T-orbit of x, stepped by two_sign_t_map under d_beta's budget rule."""
    seen = {}
    digits = []
    while len(digits) <= cap:
        if x in seen:
            return digits, seen[x], list(seen)
        seen[x] = len(digits)
        digit, x = two_sign_t_map(x)
        digits.append(digit)
    raise OrbitBudgetExceeded(f"no cycle within {cap} states")


@pytest.mark.parametrize(
    "coeffs",
    [(1, 1), (-2, 4), (1, 1, 1), (1, 1, 0), (2, -4, 4), (3, -6, 6), (1, 1, 1, 1)],
    ids=["golden", "x2-4x+2", "tribonacci", "x3-x-1", "family-t2", "family-t3", "tetranacci"],
)
def test_digit_orbit_matches_t_map(coeffs):
    field = make_field(coeffs)
    rng = random.Random(sum(coeffs) * 31 + len(coeffs))
    xs = [field.zero(), field.one()]
    while len(xs) < 42:
        x = field.from_coords([Q(rng.randint(-4, 4), rng.randint(1, 4)) for _ in coeffs])
        if x.sign() >= 0 and (x - 1).sign() <= 0:
            xs.append(x)
    dens = set()
    for x in xs:
        digits, split, states = t_map_orbit(x, DEFAULT_ORBIT_CAP)
        den = math.lcm(*(c.denominator for c in x.coords))
        nums = [int(c * den) for c in x.coords]
        dens.add(den)
        word, got = _digit_orbit(field, nums, den, DEFAULT_ORBIT_CAP)
        assert word == Word(digits[:split], digits[split:]), x
        assert [field.from_coords(v) / den for v in got] == states, x
        n = len(states)
        assert _digit_orbit(field, nums, den, n)[0] == word
        with pytest.raises(OrbitBudgetExceeded):
            _digit_orbit(field, nums, den, n - 1)
        with pytest.raises(OrbitBudgetExceeded):
            t_map_orbit(x, n - 1)
        assert d_beta(x) == Word(digits[:split], digits[split:]), x
        assert d_beta(x, n) == word
        with pytest.raises(OrbitBudgetExceeded):
            d_beta(x, n - 1)
        with pytest.raises(OutOfRange):
            d_beta(x + 1 + field.beta_power(-3))
        for y in (x, x + 2):
            ell = big_l(y)
            y_digits, y_split, _ = t_map_orbit(y * field.beta_power(-ell), DEFAULT_ORBIT_CAP)
            y_word = Word(y_digits[:y_split], y_digits[y_split:])
            assert beta_expand(y) == Expansion(ell, y_word), y
            assert is_finite_expansion(y) == y_word.is_finite(), y
    assert len(dens) > 1
    with pytest.raises(OutOfRange):
        _digit_orbit(field, [3, 1], 2, DEFAULT_ORBIT_CAP)


@pytest.mark.parametrize("coeffs", [(1, 1, 1), (1, 1, 0), (2, -4, 4), (-2, 3, 5)])
def test_t_orbit_of_one_matches_iterated_t_map(coeffs):
    # the first three have a finite d_beta(1); x^3-5x^2-3x+2 has 5 (2 3)^inf
    field = make_field(coeffs)
    w = d_beta_one(field)
    n = len(w.pre) + w.period_len()
    expect = [field.one()]
    for _ in range(3 * n):
        expect.append(two_sign_t_map(expect[-1])[1])
    for upto in range(3 * n + 1):
        assert t_orbit_of_one(field, upto) == expect[: upto + 1]


def memo_answers(field):
    """One request for every memo entry of a field, as (key, value) pairs;
    a T-orbit list gives one pair per entry."""
    out = []
    for n in range(41):
        out += [(("orbit", n, j), x) for j, x in enumerate(t_orbit_of_one(field, n))]
        out += [(("power", n), field.beta_power(n)), (("power", -n), field.beta_power(-n))]
        if n:
            out.append((("xi", n), xi(field, n)))
    out += [
        ("d_beta_one", d_beta_one(field)),
        ("d_beta_star", d_beta_star(field)),
        ("floor_beta", field.floor_beta()),
        ("disk_profile", unit_disk_profile(field)),
    ]
    return out


def test_t_orbit_of_one_under_threads():
    # d_beta(1) is infinite here, so a duplicated orbit entry would shift
    # every later entry instead of hiding among trailing zeros; every
    # thread must get the single-thread answers, and every request for a
    # key the same object
    expect = memo_answers(make_field((-2, 3, 5)))
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            field = make_field((-2, 3, 5))
            results = []
            start = threading.Barrier(8)

            def worker():
                start.wait(timeout=60)
                results.append(memo_answers(field))

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
            assert len(results) == 8
            first = memo_answers(field)
            assert first == expect
            for got in results:
                assert got == expect
                assert all(x is y for (_, x), (_, y) in zip(got, first))
    finally:
        sys.setswitchinterval(old_interval)


def nu_power_sum(field, w):
    """sum_n w_n beta^{-n} as a power sum: each digit times its own power
    of 1/beta, and the period's block times 1 / (1 - beta^{-p})."""
    binv = field.beta_inverse()
    acc = field.zero()
    power = field.one()
    for d in w.pre:
        power = power * binv
        acc = acc + d * power
    if w.period:
        block = field.zero()
        for d in w.period:
            power = power * binv
            block = block + d * power
        acc = acc + block * (field.one() - binv ** len(w.period)).inverse()
    return acc


@pytest.mark.parametrize("coeffs", [(-1, 3), (1, 1, 1), (1, 1, 0), (2, -4, 4), (1, 1, 1, 1)])
def test_nu_matches_power_sum(coeffs):
    f = make_field(coeffs)
    rng = random.Random(len(coeffs) * 100 + coeffs[0])
    words = [Word(), Word((3,)), Word((), (1,)), Word((0, 0, 2), (1, 0))]
    for _ in range(40):
        pre = [rng.randint(-2, 3) for _ in range(rng.randint(0, 12))]
        period = [rng.randint(0, 3) for _ in range(rng.randint(0, 5))]
        words.append(Word(pre, period))
    for w in words:
        assert nu(f, w) == nu_power_sum(f, w), w
