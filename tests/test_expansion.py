import math
import random
import sys
import threading
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_field import schoolbook_product

from betafin import expansion
from betafin.classify import classify
from betafin.cli import parse_element
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
from betafin.field import BetaField, FieldElement, make_field, unit_disk_profile
from betafin.normalization import add_one
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
    the oracle for t_map's single floor decision.  beta x is the schoolbook
    product, so the oracle shares no beta-shift with t_map."""
    if x.sign() < 0 or (x - 1).sign() > 0:
        raise OutOfRange("t_map needs 0 <= x <= 1")
    bx = schoolbook_product(x, x.field.beta())
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
    # x^2-2: beta^2 = 2 and beta^4 = 4, so L(x) = n + 1 when x = beta^n
    sqrt2 = make_field((2, 0))
    assert [big_l(sqrt2.from_rational(q)) for q in (1, 2, 3, 4, 5)] == [1, 3, 4, 5, 5]
    assert big_l(sqrt2.beta()) == 2 and big_l(sqrt2.beta() * 2) == 4
    with pytest.raises(OutOfRange, match="big_l needs x >= 0"):
        big_l(sqrt2.from_rational(Q(-1, 3)))
    with pytest.raises(OutOfRange, match="big_l needs x >= 0"):
        big_l(sqrt2.beta() - 2)


@pytest.mark.parametrize("coeffs", [(1, 1), (1, 1, 1), (2, -4, 4), (1, 1, 1, 1), (2, 0)])
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


def test_big_l_frac_part_and_beta_expand_subtract_no_elements(monkeypatch):
    # L(x) is decided on integer numerators, so no FieldElement is subtracted
    cases = []
    for coeffs in ((-2, 4), (1, 1, 1), (2, -4, 4), (1, 1, 0)):
        f = make_field(coeffs)
        xs = [f.from_rational(n) for n in (0, 1, 2, 4, 7)]
        xs += [f.beta_power(3), f.beta() + Q(1, 3), f.beta_power(-2) * Q(5, 2)]
        cases += [(x, big_l(x), frac_part(x), beta_expand(x)) for x in xs]

    def no_subtraction(self, other):
        raise AssertionError("a FieldElement was subtracted")

    monkeypatch.setattr(FieldElement, "__sub__", no_subtraction)
    for x, ell, frac, expansion in cases:
        fresh = make_field(x.field.coeffs)
        y = fresh.from_coords(x.coords)
        assert big_l(y) == ell
        assert frac_part(y).coords == frac.coords
        assert beta_expand(y) == expansion


def test_big_l_under_threads():
    # 8 threads race on a fresh field, which refines its bracket under
    # them: each gets the single-thread answers and rows of beta^n
    f0 = make_field((2, -4, 4))
    rng = random.Random(5)
    coords = [
        [Q(rng.randint(0, 60), rng.randint(1, 6)) for _ in range(3)] for _ in range(30)
    ] + [[Q(n), 0, 0] for n in (0, 1, 2, 3, 100, 10**6)]
    expect = [big_l(f0.from_coords(c)) for c in coords]
    top = max(expect)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):
            field = make_field((2, -4, 4))
            results = []
            start = threading.Barrier(8)

            def worker():
                start.wait(timeout=60)
                got = [big_l(field.from_coords(c)) for c in coords]
                results.append((got, [field.beta_row(n) for n in range(top + 1)]))

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
            assert len(results) == 8
            rows = [field.beta_row(n) for n in range(top + 1)]
            assert rows == [f0.beta_row(n) for n in range(top + 1)]
            for got, got_rows in results:
                assert got == expect
                assert got_rows == rows
    finally:
        sys.setswitchinterval(old_interval)


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
    two_sign_t_map from beta^{-L(x)} x, every product the schoolbook one."""
    ell = 0
    while not schoolbook_product(x, x.field.beta_power(-ell)) < 1:
        ell += 1
    y = schoolbook_product(x, x.field.beta_power(-ell))
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
    units = [x for x in xs if x.floor() == 0 or x == 1]

    def answers():
        return (
            [is_finite_expansion(x) for x in xs],
            [d_beta(x) for x in units],
            [beta_expand(x) for x in xs],
            [add_one(x) for x in xs],
        )

    before = answers()
    monkeypatch.setattr("betafin.expansion.t_map", no_t_map)
    assert answers() == before
    f = family(2)
    n = f.from_rational(f.floor_beta() + 1)
    assert frac_part(n) == n - f.beta()
    rep = classify(make_field((2, 3, 1)))  # x^3-x^2-3x-2: the sweep refutes (F1) at N = 7
    assert any(e.rule == "natural-sweep" and "N = 7 " in e.claim for e in rep.evidence)


def test_orbit_budget():
    with pytest.raises(OrbitBudgetExceeded):
        d_beta(TRIB.from_coords((Q(1, 97), Q(1, 89), Q(1, 83))), cap=5)


MEMO_FIELDS = [make_field(c) for c in ((1, 1, 1), (2, -4, 4), (-2, 3, 5), (1, 1, 1, 1), (-1, 3))]
# the same bases with their own memos, read under a bound of 8 entries
SMALL_MEMO_FIELDS = [make_field(f.coeffs) for f in MEMO_FIELDS]


def _memo_oracle(field, nums, den, memo_first):
    """d_beta of x, |x| brought into [0, 1) by frac_part or 1 itself,
    before and after the fresh memo-free walk of x, which must agree.
    No entry of either memo changes while it stays published."""
    x = field.from_coords([Q(n, den) for n in nums[: field.degree]])
    if x.sign() < 0:
        x = -x
    x = field.one() if nums[-1] == 6 else frac_part(x)
    memos = [field.memo(name, dict) for name in ("orbits", "cycles")]
    before = [dict(memo) for memo in memos]
    if memo_first:
        first = d_beta(x)
        fresh, states = _digit_orbit(field, x.nums, x.den, DEFAULT_ORBIT_CAP)
    else:
        fresh, states = _digit_orbit(field, x.nums, x.den, DEFAULT_ORBIT_CAP)
        first = d_beta(x)
    # distinct states have distinct tails: the word counts the states
    assert len(states) == len(fresh.pre) + fresh.period_len(), x
    assert first == fresh == d_beta(x), x
    for memo, old in zip(memos, before):
        assert all(memo.get(key, entry) == entry for key, entry in old.items()), x


MEMO_EXAMPLES = (
    st.lists(st.integers(-6, 6), min_size=4, max_size=4),
    st.integers(1, 6),
    st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MEMO_FIELDS), *MEMO_EXAMPLES)
def test_memoized_d_beta_matches_a_fresh_walk(field, nums, den, memo_first):
    # the fields persist across examples, so later examples also read
    # entries and cycles that earlier ones stored
    _memo_oracle(field, nums, den, memo_first)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_MEMO_FIELDS), *MEMO_EXAMPLES)
def test_memoized_d_beta_matches_a_fresh_walk_across_clears(field, nums, den, memo_first):
    # under a bound of 8 the memo is cleared mid-stream, between the
    # cycles it publishes and the starts that walk into them, and cycles
    # of 8 or more states are not published
    with mock.patch.object(expansion, "ORBIT_MEMO_BOUND", 8):
        _memo_oracle(field, nums, den, memo_first)
        assert len(field.memo("orbits", dict)) <= 8 and len(field.memo("cycles", dict)) < 8


@pytest.mark.parametrize("miss_fails", [False, True], ids=["miss-passes", "miss-raises"])
def test_orbit_memo_keeps_the_budget_boundary(miss_fails):
    # n states pass at cap = n and raise at cap = n - 1, with the fresh
    # walk's text, whether the call hits the memo or walks afresh; on
    # x^3-4x^2+4x-2, once the walk of 1/7 (12 states, purely periodic)
    # has published its cycle, the walk of (3 + 2 beta - beta^2) / 7
    # (n = 16) stops after 4 states at a state on that cycle
    template = make_field((2, -4, 4))
    cases = [
        (None, template.one(), None),
        (None, template.from_coords([Q(1, 3), Q(1, 5), 0]), None),
        (None, template.from_rational(Q(5, 7)), None),
        (Q(1, 7), template.from_numerators((3, 2, -1), 7), 4),
    ]
    for warm, start, walked in cases:
        field = make_field((2, -4, 4))
        if warm is not None:
            assert d_beta(field.from_rational(warm)).period_len() == 12
        x = field.from_coords(start.coords)
        word, states = _digit_orbit(field, x.nums, x.den, DEFAULT_ORBIT_CAP)
        n = len(states)
        assert n > 1
        orbits, cycles = field.memo("orbits", dict), field.memo("cycles", dict)
        memo_walk = _digit_orbit(field, x.nums, x.den, DEFAULT_ORBIT_CAP, cycles)
        assert memo_walk[0] == word and len(memo_walk[1]) == (walked or n)
        with pytest.raises(OrbitBudgetExceeded) as fresh:
            _digit_orbit(field, x.nums, x.den, n - 1)
        if miss_fails:
            with pytest.raises(OrbitBudgetExceeded) as miss:
                d_beta(x, n - 1)
            assert str(miss.value) == str(fresh.value)
            assert (x.den, *x.nums) not in orbits
        assert d_beta(x, n) == word
        # a start stores its own word, and the word counts the orbit's states
        assert orbits[(x.den, *x.nums)] == word
        assert len(word.pre) + word.period_len() == n
        with pytest.raises(OrbitBudgetExceeded) as hit:
            d_beta(x, n - 1)
        assert str(hit.value) == str(fresh.value)
        assert d_beta(x, n) == word


def test_a_closed_cycle_is_published_with_its_rotations():
    # x^3-5x^2-3x+2: d_beta(1) = 5 (2 3)^inf; the walk of 1 publishes T(1)
    # and T^2(1) in "cycles" as the one periodic word (2 3)^inf at
    # rotations 0 and 1; a request for T^2(1) walks one step onto T(1) and
    # stores its own word (3 2)^inf in "orbits", leaving the cycle entry
    field = make_field((-2, 3, 5))
    one, t1, t2 = t_orbit_of_one(field, 2)
    orbits, cycles = field.memo("orbits", dict), field.memo("cycles", dict)
    w1 = d_beta(one)
    assert w1 == Word((5,), (2, 3))
    periodic = Word((), (2, 3))
    assert cycles == {(t1.den, *t1.nums): (periodic, 0), (t2.den, *t2.nums): (periodic, 1)}
    assert orbits == {(one.den, *one.nums): w1}
    entry = cycles[(t2.den, *t2.nums)]
    w2 = d_beta(t2)
    assert w2 == Word((), (3, 2)) and orbits[(t2.den, *t2.nums)] is w2
    assert cycles[(t2.den, *t2.nums)] is entry and len(cycles) == 2
    assert d_beta(t2) is w2
    w = d_beta(t1)
    assert w == periodic and d_beta(t1) is w
    # frac(6) = 6 - beta walks two states into that cycle and stops there
    x = frac_part(field.from_rational(6))
    assert x == 6 - field.beta()
    assert len(_digit_orbit(field, x.nums, x.den, DEFAULT_ORBIT_CAP, cycles)[1]) == 2
    assert d_beta(x) == Word((2, 4), (3, 2)) == _digit_orbit(field, x.nums, x.den, 4)[0]


def test_orbit_memo_stores_no_out_of_range_input():
    field = make_field((1, 1, 1))
    orbits = field.memo("orbits", dict)
    for x in (field.from_rational(2), field.beta(), -field.beta_power(-3), 1 + field.beta_power(-9)):
        for _ in range(2):
            with pytest.raises(OutOfRange, match="d_beta needs"):
                d_beta(x)
        assert (x.den, *x.nums) not in orbits
    assert not orbits and not field.memo("cycles", dict)


def test_orbit_memo_clears_at_its_bound(monkeypatch):
    # x^3-4x^2+4x-2: the sweep of N = 0..199 walks far more than 16
    # distinct starts; the bounded memo gives the same expansions and
    # certificates as a memo that never clears
    walks = []
    digit_orbit = expansion._digit_orbit

    def counted(*args):
        walks.append(args[1:3])
        return digit_orbit(*args)

    monkeypatch.setattr(expansion, "_digit_orbit", counted)
    free = make_field((2, -4, 4))
    expect = [add_one(free.from_rational(k)) for k in range(200)]
    free_walks, walks[:] = len(walks), []
    monkeypatch.setattr(expansion, "ORBIT_MEMO_BOUND", 16)
    field = make_field((2, -4, 4))
    got = [add_one(field.from_rational(k)) for k in range(200)]
    assert 0 < len(field.memo("orbits", dict)) <= 16
    assert 0 < len(field.memo("cycles", dict)) < 16
    assert len(walks) > 2 * 16
    assert [(e.exponent, e.word) for e, _ in got] == [(e.exponent, e.word) for e, _ in expect]
    assert [w.to_json_dict() for _, w in got] == [w.to_json_dict() for _, w in expect]
    # the unbounded memo walks each start once; the bounded one walks
    # starts again after its clears
    assert free_walks < len(walks)


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
        with pytest.raises(OrbitBudgetExceeded) as budget:
            d_beta(x, n - 1)
        assert repr(x) in str(budget.value), x
        with pytest.raises(OutOfRange, match="d_beta needs"):
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
        out.append((("d_beta", n), d_beta(t_orbit_of_one(field, n)[n])))
        # frac(n) for n = 6 ... 16 walks into the cycle of 1's orbit
        out.append((("d_beta_frac", n), d_beta(frac_part(field.from_rational(n)))))
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
    # memoized key the same object (powers of beta are built on each call),
    # also for the states T^n(1), n >= 1, which lie on the cycle of 1's
    # orbit at both rotations, and for frac(n), n = 6 ... 16, which walk
    # into that cycle
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
                assert all(x is y for (key, x), (_, y) in zip(got, first) if key[0] != "power")
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
    for _ in range(3):
        pre = [rng.randint(0, 3) for _ in range(rng.randint(0, 5))]
        words.append(Word(pre, [rng.randint(0, 3) for _ in range(rng.randint(100, 300))]))
    for w in words:
        assert nu(f, w) == nu_power_sum(f, w), w


def horner_geometric(field, w):
    """nu without memos: the period's block by Horner's rule, times
    1 + 1 / (beta^p - 1), then Horner's rule over the preperiod."""
    tail = field.zero()
    if w.period:
        block = field.horner_inverse_beta(w.period, tail.nums, tail.den)
        tail = block * (1 + (field.beta() ** len(w.period) - 1).inverse())
    return field.horner_inverse_beta(w.pre, tail.nums, tail.den)


@pytest.mark.parametrize("coeffs", [(1, 1, 1), (2, -4, 4), (-2, 3, 5)])
def test_nu_shares_period_values(coeffs):
    # words that share a period, behind different preperiods and at
    # different rotations, read each period's value from the one memo
    # entry nu filled, and still give the memo-free value
    f, g = make_field(coeffs), make_field(coeffs)
    rng = random.Random(36 + sum(coeffs))
    periods = [(1,), (2, 0, 1), (1, 0, 0, 1, 1), [rng.randint(0, 2) for _ in range(40)]]
    words = []
    for period in periods:
        for r in range(min(len(period), 4)):
            rotated = period[r:] + period[:r]
            for _ in range(4):
                pre = [rng.randint(-1, 3) for _ in range(rng.randint(0, 6))]
                words.append(Word(pre, rotated))
    rng.shuffle(words)
    for w in words + words:
        assert nu(f, w) == horner_geometric(g, w), w
    values = f.memo("period_values", dict)
    assert set(values) == {w.period for w in words}
    assert all(values[p] == horner_geometric(g, Word((), p)) for p in values)
    assert not g.memo("period_values", dict)


def test_nu_takes_no_negative_power(monkeypatch):
    # 1 / (1 - beta^{-p}) is built from beta^p, and beta_expand and
    # frac_part scale x by beta^{-L} in BetaField.horner_inverse_beta, so no
    # chain of negative powers is memoized on the way; they run on a fresh
    # field, whose memo the oracle nu_power_sum (on field g) has not filled
    w = Word((1, 0), [1, 2] + [0] * 238)
    assert w.period_len() == 240
    g = make_field((2, -4, 4))
    f = make_field((2, -4, 4))
    x = f.from_coords([Q(100, 3), Q(7, 2), 1])
    powers = []
    beta_power = BetaField.beta_power

    def recorded(field, n):
        powers.append(n)
        return beta_power(field, n)

    with monkeypatch.context() as m:
        m.setattr(BetaField, "beta_power", recorded)
        got = nu(f, w)
        expansion = beta_expand(x)
        frac = frac_part(x)
    assert not [n for n in powers if n < 0], powers
    assert got == nu_power_sum(g, w)
    ell = expansion.exponent
    assert ell > 0
    assert schoolbook_product(g.beta_power(ell), nu_power_sum(g, expansion.word)) == x
    assert frac == nu_power_sum(g, expansion.word.shift(ell))


def test_powers_of_beta_are_not_memoized(monkeypatch):
    # beta^n, its row, big_l and an "L:digits" literal build their powers
    # on each call: no memo key is requested on a fresh field; the oracle
    # is Cayley-Hamilton's 1 / beta and schoolbook products, on field g
    g = make_field((2, -4, 4))
    f = make_field((2, -4, 4))
    keys = []
    memo = BetaField.memo

    def recorded(field, key, build):
        keys.append(key)
        return memo(field, key, build)

    with monkeypatch.context() as m:
        m.setattr(BetaField, "memo", recorded)
        powers = {n: f.beta_power(n) for n in (0, 1, 2, 7, 40, -1, -2, -7, -40)}
        rows = {n: f.beta_row(n) for n in (0, 1, 7, 40)}
        ells = [big_l(f.beta_power(n)) for n in (0, 1, 7, 40)]
        ells += [big_l(f.beta_power(n) + 1) for n in (0, 1, 7, 40)]
        low = parse_element(f, "-3000:1")
        high = parse_element(f, "3000:1")
    assert keys == []
    beta, beta_inv = g.beta(), g.beta().inverse()
    expect = g.one()
    for n in range(41):
        if n in powers:
            assert powers[n] == expect, n
        if n in rows:
            assert (rows[n], 1) == (expect.nums, expect.den), n
        expect = schoolbook_product(expect, beta)
    expect = g.one()
    for n in range(1, 41):
        expect = schoolbook_product(expect, beta_inv)
        if -n in powers:
            assert powers[-n] == expect == beta_inv**n, -n
    # beta^n <= x < beta^(n+1) gives L = n + 1
    assert ells == [1, 2, 8, 41] * 2
    # "L:1" is beta^L * (1 / beta)
    assert low == beta_inv**3001
    assert high == beta**2999
