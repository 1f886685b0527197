import random
import sys
import threading
from fractions import Fraction as Q

import pytest

from test_acceptance import CATALOG, INFINITE_D1, _random_word, _spliced_word

from betafin import expansion, normalization
from betafin.classify import classify
from betafin.errors import InvariantViolation, NotAdmissible, OrbitBudgetExceeded, OutOfRange
from betafin.expansion import (
    big_l,
    is_admissible,
    is_finite_expansion,
    beta_expand,
    d_beta_one,
    d_beta_star,
    frac_part,
    nu,
    t_orbit_of_one,
    xi,
)
from betafin.field import BetaField, make_field
from betafin.normalization import (
    KeyWitness,
    add_one,
    carry_step,
    free_blocks,
    witness_for_natural,
)
from betafin.words import Word, compare_window, subtract, window_len

TRIB = make_field((1, 1, 1))
MINP = make_field((1, 1, 0))


def family(t):
    return make_field((t, -2 * t, 2 * t))


def test_free_blocks_examples():
    w = Word((1, 0, 1, 1, 0, 1, 1, 0, 1), ())
    fb = free_blocks(TRIB, w)
    assert fb.boundaries(6) == [2, 10, 11, 12, 13, 14]

    w2 = Word((0, 1, 0, 0, 0, 0, 0, 1), ())
    fb2 = free_blocks(MINP, w2)
    assert fb2.boundaries(5) == [1, 7, 13, 14, 15]

    fb3 = free_blocks(TRIB, Word((), ()))
    assert fb3.boundaries(4) == [1, 2, 3, 4]


def test_free_blocks_defining_property():
    # word[k_i+1 .. k_{i+1}-1] copies the quasi-greedy word; the block
    # closes strictly below it
    for field, w in (
        (TRIB, Word((1, 0, 1, 1, 0, 1, 1, 0, 1), ())),
        (MINP, Word((0, 1, 0, 0, 0, 0, 0, 1), ())),
        (family(2), Word((1, 0, 0, 0, 0, 0, 2, 0), (1,))),
    ):
        ds = d_beta_star(field)
        fb = free_blocks(field, w)
        ks = [0] + fb.boundaries(8)
        for a, b in zip(ks, ks[1:]):
            for j in range(1, b - a):
                assert w.digit(a + j - 1) == ds.digit(j - 1)
            assert w.digit(b - 1) < ds.digit(b - a - 1)


def test_free_blocks_rejects_inadmissible():
    with pytest.raises(NotAdmissible):
        free_blocks(TRIB, Word((1, 1, 1), ()))
    with pytest.raises(NotAdmissible):
        free_blocks(TRIB, d_beta_star(TRIB))


def _reference_free_blocks(field, w):
    """(head, cycle_gaps) by the scan that builds each shift at a block
    start as a Word and compares it with d* over compare_window digits;
    None where that scan finds w inadmissible."""
    dstar = d_beta_star(field)
    prelen = len(w.pre)
    plen = w.period_len()
    ks: list[int] = []
    seen: dict[int, int] = {}
    s = 0
    while len(ks) <= prelen + plen + 2:
        if s >= prelen:
            key = (s - prelen) % plen
            if key in seen:
                start = seen[key]
                bounds = [0] + ks
                gaps = (b - a for a, b in zip(bounds[start:], bounds[start + 1:]))
                return tuple(ks[:start]), tuple(gaps)
            seen[key] = len(ks)
        suffix = w.shift(s)
        for j in range(1, compare_window(suffix, dstar) + 2):
            a, b = suffix.digit(j - 1), dstar.digit(j - 1)
            if a > b:
                return None
            if a < b:
                break
        else:
            return None
        s += j
        ks.append(s)
    raise AssertionError("the reference scan failed to close a gap cycle")


def _long_spliced_word(rng, dstar):
    """Free blocks (a prefix of d*, then a smaller digit) back to back
    over a preperiod of 20-60 digits and a short period; in half of the
    words one digit is then moved by +-1."""
    longest = len(dstar.pre) + 2 * dstar.period_len()

    def blocks(length):
        digits: list[int] = []
        while len(digits) < length:
            m = rng.randint(0, longest)
            while not dstar.digit(m):
                m -= 1
            digits += dstar.digits(m) + [rng.randrange(dstar.digit(m))]
        return digits

    prelen = rng.randint(20, 60)
    digits = blocks(prelen)[:prelen] + blocks(rng.randint(0, longest))
    if rng.random() < 0.5:
        i = rng.randrange(len(digits))
        digits[i] += 1 if digits[i] == 0 else rng.choice((-1, 1))
    return Word(digits[:prelen], digits[prelen:])


def _decomposition(field, w):
    try:
        fb = free_blocks(field, w)
    except NotAdmissible:
        return None
    return fb.head, fb.cycle_gaps


def test_free_blocks_matches_reference_scan():
    rng = random.Random(20261019)
    fields = dict(CATALOG)
    fields.update((name, f) for name, (f, _) in INFINITE_D1.items())
    for name, f in fields.items():
        bound = f.floor_beta()
        dstar = d_beta_star(f)
        words = [_random_word(rng, bound) for _ in range(300)]
        words += [_random_word(rng, bound + 1) for _ in range(300)]
        words += [_spliced_word(rng, dstar) for _ in range(300)]
        long_words = [_long_spliced_word(rng, dstar) for _ in range(300)]
        # d* itself and behind one or two zeros: tails that coincide with d*
        words += [dstar, Word((0, *dstar.pre), dstar.period), Word((0, 0, *dstar.pre), dstar.period)]
        for w in words + long_words:
            assert _decomposition(f, w) == _reference_free_blocks(f, w), (name, w)
        # the long words decide both ways, and admissible ones close
        # blocks at starts s < len(pre) inside a preperiod of 20 or more
        got = [_decomposition(f, w) for w in long_words]
        assert 0 < sum(g is not None for g in got) < len(got), name
        assert any(g and len(w.pre) >= 20 and sum(k < len(w.pre) for k in g[0]) >= 3
                   for w, g in zip(long_words, got)), name


def _digit_read_free_blocks(field, w):
    """(head, cycle_gaps), or the NotAdmissible text, by the in-place scan
    over the same windows that reads every digit with Word.digit."""
    dstar = d_beta_star(field)
    prelen, plen = len(w.pre), w.period_len()
    ks: list[int] = []
    seen: dict[int, int] = {}
    s = 0
    while True:
        if s >= prelen:
            key = (s - prelen) % plen
            if key in seen:
                start = seen[key]
                bounds = [0] + ks
                return tuple(ks[:start]), tuple(b - a for a, b in zip(bounds[start:], bounds[start + 1:]))
            seen[key] = len(ks)
        window = window_len(max(prelen - s, 0), plen, len(dstar.pre), dstar.period_len())
        for j in range(1, window + 2):
            a, b = w.digit(s + j - 1), dstar.digit(j - 1)
            if a > b:
                return f"digit above the quasi-greedy bound at position {s + j}"
            if a < b:
                break
        else:
            return f"shift at position {s} coincides with the quasi-greedy word"
        s += j
        ks.append(s)


def test_free_blocks_reads_digit_storage(monkeypatch):
    # decompositions and NotAdmissible texts against the Word.digit scan;
    # the words cover bytes and tuple storage, finite and periodic tails,
    # and blocks that cross from the preperiod into the period
    rng = random.Random(20261020)
    fields = dict(CATALOG)
    fields.update((name, f) for name, (f, _) in INFINITE_D1.items())
    cases = []
    for f in fields.values():
        bound = f.floor_beta()
        dstar = d_beta_star(f)
        words = [_random_word(rng, bound) for _ in range(200)]
        words += [_random_word(rng, bound + 1) for _ in range(100)]
        words += [_spliced_word(rng, dstar) for _ in range(200)]
        words += [_long_spliced_word(rng, dstar) for _ in range(200)]
        words += [dstar, Word((0, *dstar.pre), dstar.period), Word((0, 0), dstar.period)]
        words += [Word((0, 300), ()), Word((0,), (0, 300)), Word((), (0, 0, 1)), Word()]
        cases += [(f, w) for w in words]
    expected = [_digit_read_free_blocks(f, w) for f, w in cases]
    assert any(isinstance(e, str) and "coincides" in e for e in expected)
    assert any(isinstance(e, str) and "above" in e for e in expected)
    assert sum(isinstance(e, tuple) for e in expected) > len(expected) // 4

    def no_digit(*args):
        raise AssertionError("the free-block scan called Word.digit")

    monkeypatch.setattr(Word, "digit", no_digit)
    for (f, w), e in zip(cases, expected):
        try:
            fb = free_blocks(f, w)
        except NotAdmissible as exc:
            assert str(exc) == e, w
        else:
            assert (fb.head, fb.cycle_gaps) == e, w


def test_free_blocks_builds_no_word(monkeypatch):
    dfam = d_beta_star(family(2))
    cases = [
        (TRIB, Word((1, 0, 1, 1, 0, 1, 1, 0, 1), ())),
        (MINP, Word((0, 1, 0, 0, 0, 0, 0, 1), ())),
        (family(2), Word((1, 0, 0, 0, 0, 0, 2, 0), (1,))),
        (TRIB, Word((1, 1, 1), ())),
        (family(2), Word((2, 3), (0,))),
        (TRIB, d_beta_star(TRIB)),
        (family(2), Word((0, 0, *dfam.pre), dfam.period)),
    ]
    # the reference run also fills each field's d_beta_star memo
    expected = [_reference_free_blocks(f, w) for f, w in cases]
    assert [e is None for e in expected] == [False] * 3 + [True] * 4

    def no_word(*args, **kwargs):
        raise AssertionError("the free-block scan built a Word")

    for name in ("shift", "prepend", "__init__"):
        monkeypatch.setattr(Word, name, no_word)
    for (f, w), e in zip(cases, expected):
        assert is_admissible(f, w) == (e is not None), w
        assert _decomposition(f, w) == e, w


def test_nu_basics():
    assert nu(TRIB, Word((), ())).is_zero()
    for field in (TRIB, MINP, family(2)):
        assert nu(field, d_beta_star(field)) == field.one()
    a = Word((1, 0), (1, 1, 0))
    b = Word((0, 1), (1, 0))
    assert nu(TRIB, subtract(a, b)) == nu(TRIB, a) - nu(TRIB, b)


def test_carry_step_worked_examples():
    # base x^3-x-1: c = 0 1 0^5 1 0^inf with blocks {1, 7, 13, 14, ...}
    c = Word((0, 1, 0, 0, 0, 0, 0, 1), ())
    fb = free_blocks(MINP, c)
    out = carry_step(MINP, c, fb, 9, Word((), ()), 2)
    expect = subtract(Word((), ()), d_beta_star(MINP).shift(2)).prepend(
        (0, 1, 0, 0, 0, 0, 1, 0, 1)
    )
    assert out == expect

    out2 = carry_step(MINP, c, fb, 7, Word((1,), ()), 1)
    expect2 = subtract(Word((1,), ()), d_beta_star(MINP).shift(6)).prepend(
        (1, 0, 0, 0, 0, 0, 0)
    )
    assert out2 == expect2

    # tribonacci: c = 10(110)^2 1 0^inf, increment at 9 inside block 2
    ct = Word((1, 0, 1, 1, 0, 1, 1, 0, 1), ())
    fbt = free_blocks(TRIB, ct)
    out3 = carry_step(TRIB, ct, fbt, 9, Word((), ()), 1)
    expect3 = subtract(Word((), ()), d_beta_star(TRIB).shift(7)).prepend(
        (1, 1, 0, 0, 0, 0, 0, 0, 1)
    )
    assert out3 == expect3


def test_carry_step_preserves_value():
    # the rewrite output and the incremented original agree in value
    c = Word((1, 0, 1, 1, 0, 1, 1, 0, 1), ())
    fb = free_blocks(TRIB, c)
    tail = c.shift(9)
    out = carry_step(TRIB, c, fb, 9, tail, 1)
    before = tail.prepend(list(c.digits(8)) + [c.digit(8) + 1])
    assert nu(TRIB, out) == nu(TRIB, before)


def test_add_one_zero():
    e, wit = add_one(TRIB.zero())
    assert e.exponent == 1 and e.word == Word((1,), ())
    assert wit.theta == 0 and wit.verified
    assert wit.lhs.is_zero()


def test_add_one_family_two():
    f = family(2)
    e, wit = add_one(f.from_rational(2))
    assert wit.verified
    # both sides computed independently
    lhs = frac_part(f.from_rational(3)) - frac_part(f.from_rational(2))
    orbit = t_orbit_of_one(f, len(wit.omegas))
    rhs = f.from_rational(wit.theta)
    for j, o in enumerate(wit.omegas):
        rhs = rhs - o * orbit[j]
    assert lhs == rhs
    assert e == beta_expand(f.from_rational(3))


def test_add_one_tribonacci_worked_chain():
    b = TRIB.beta()
    x = b**8 + b**6 + b**5 + b**3 + b**2 + 1
    e, wit = add_one(x)
    # one cascade round, so one subtracted xi value
    assert sum(wit.omegas) == 1
    # that round's rewrite: digit 9 of x's word, between k_1 and k_2, is incremented
    base = beta_expand(x)
    assert base.exponent == 9
    fb = free_blocks(TRIB, base.word)
    assert fb.locate(9) == 1
    rewrite = carry_step(TRIB, base.word, fb, 9, base.word.shift(9), 1)
    assert rewrite == subtract(Word((), ()), d_beta_star(TRIB).shift(7)).prepend(
        (1, 1, 0, 0, 0, 0, 0, 0, 1)
    )
    assert e.word.digits(9) == [1, 1, 0, 0, 0, 0, 0, 0, 0]
    assert e == beta_expand(x + 1)
    assert wit.theta == 1 and wit.omegas == (0, 1)
    # the subtracted value is xi(8) = T^1(1)
    assert xi(TRIB, 8) == t_orbit_of_one(TRIB, 1)[1]


@pytest.mark.parametrize("field", [TRIB, MINP, family(2), family(3)], ids=str)
def test_add_one_small_sweep(field):
    for n in range(0, 25):
        e, wit = add_one(field.from_rational(n))
        assert wit.verified
        assert e == beta_expand(field.from_rational(n + 1))


def test_add_one_random_elements():
    rng = random.Random(14)
    for field in (TRIB, family(2)):
        for _ in range(10):
            x = field.from_coords(
                [Q(rng.randint(0, 6), rng.randint(1, 2)) for _ in range(3)]
            )
            if x.sign() < 0:
                continue
            e, wit = add_one(x)
            assert wit.verified
            assert e == beta_expand(x + 1)


def test_add_one_rejects_negative():
    # big_l raises on x + 1 for -3; for -1 and -1/2 (x + 1 >= 0) d_beta's
    # range check raises on beta^{-L(x+1)} x
    for q in (-1, Q(-1, 2), -3):
        with pytest.raises(OutOfRange):
            add_one(TRIB.from_rational(q))
    # before the orbit of 1 (6 states on x^3-x^2-3x-2) meets the cap
    for q in (Q(-1, 2), -3):
        with pytest.raises(OutOfRange):
            add_one(make_field((2, 3, 1)).from_rational(q), cap=3)


def test_add_one_bounds_the_orbit_of_one_by_its_cap():
    # d_beta(1) of x^3-x^2-3x-2 has 6 orbit states; a cap of 3 must stop
    # add_one as it stops d_beta_one, on a fresh field and after a hit
    for warm in (False, True):
        f = make_field((2, 3, 1))
        if warm:
            assert d_beta_one(f) == d_beta_one(f, 6)
        with pytest.raises(OrbitBudgetExceeded):
            d_beta_one(f, 3)
        with pytest.raises(OrbitBudgetExceeded):
            add_one(f.from_rational(0), cap=3)
    expansion, witness = add_one(f.from_rational(0), cap=6)
    assert witness.verified and expansion == beta_expand(f.one())


def test_add_one_budget_counts_the_padded_walk():
    # on x^3-x-1, L(3/2) = 2 and L(5/2) = 4: the orbit of beta^{-4} (3/2)
    # has two more leading-zero states than that of beta^{-2} (3/2), and
    # cap bounds it, on a fresh field and after a memo hit
    x = Q(3, 2)
    f = make_field((1, 1, 0))
    assert (big_l(f.from_rational(x)), big_l(f.from_rational(x + 1))) == (2, 4)
    expansion, witness = add_one(f.from_rational(x), cap=28)
    assert witness.verified and expansion == beta_expand(f.from_rational(x + 1))
    for warm in (False, True):
        g = f if warm else make_field((1, 1, 0))
        with pytest.raises(OrbitBudgetExceeded):
            add_one(g.from_rational(x), cap=27)


def _exponent_jumps():
    """(field, x) pairs with L(x + 1) - L(x) = 0, 1 and 2: x = 0, integers N
    below 30 on three fields, and 1/2, 1 and 3/2 on x^3-x-1."""
    cases = [(f, f.from_rational(n)) for f in (TRIB, family(2), MINP) for n in range(30)]
    cases += [(MINP, MINP.from_rational(q)) for q in (Q(1, 2), 1, Q(3, 2))]
    return cases


def test_add_one_across_exponent_jumps():
    # add_one reads x's word at L(x + 1): check it where the exponent stays,
    # where N + 1 crosses a power of beta, and where L jumps by 2; both
    # oracles are computed outside add_one
    jumps = set()
    for f, x in _exponent_jumps():
        jumps.add(big_l(x + 1) - big_l(x))
        expansion, witness = add_one(x)
        assert expansion == beta_expand(x + 1), x
        assert witness.verified and witness.lhs == frac_part(x + 1) - frac_part(x), x
    assert jumps == {0, 1, 2}


def test_add_one_decides_the_exponent_once(monkeypatch):
    # one big_l call per add_one, on x + 1, and no beta_expand: x's word is
    # read at L(x + 1) and the frac(x + 1) walk reuses that exponent
    calls = []
    original = expansion.big_l

    def spy(x):
        calls.append(x)
        return original(x)

    def no_beta_expand(x, cap=None):
        raise AssertionError("add_one called beta_expand")

    cases = _exponent_jumps()
    expected = [add_one(x) for _, x in cases]
    for module in (expansion, normalization):
        monkeypatch.setattr(module, "big_l", spy)
        monkeypatch.setattr(module, "beta_expand", no_beta_expand, raising=False)
    for (_, x), answer in zip(cases, expected):
        calls.clear()
        assert add_one(x) == answer
        assert calls == [x + 1], x


def test_witness_sides_match_independent_recomputation():
    # AC5's catalog, every N below 400: the stored lhs is frac(N+1) - frac(N)
    # and the stored rhs is theta - sum_j omega_j T^j(1), rebuilt here from
    # the T-orbit of 1
    for name, f in CATALOG.items():
        frac_next = frac_part(f.zero())
        for n in range(400):
            frac_n, frac_next = frac_next, frac_part(f.from_rational(n + 1))
            _, wit = add_one(f.from_rational(n))
            assert wit.verified, (name, n)
            assert wit.lhs == frac_next - frac_n, (name, n)
            orbit = t_orbit_of_one(f, max(len(wit.omegas) - 1, 0))
            rhs = f.from_rational(wit.theta)
            for j, o in enumerate(wit.omegas):
                rhs = rhs - o * orbit[j]
            assert wit.rhs == rhs, (name, n)


def test_witness_rejects_a_wrong_lhs(monkeypatch):
    calls = []
    assemble = normalization._assemble_witness

    def spy(field, theta, xi_indices, lhs):
        calls.append((theta, list(xi_indices), lhs))
        return assemble(field, theta, xi_indices, lhs)

    f = family(2)
    monkeypatch.setattr(normalization, "_assemble_witness", spy)
    for n in range(40):
        add_one(f.from_rational(n))
    monkeypatch.undo()
    assert any(xi_indices for _, xi_indices, _ in calls)
    for theta, xi_indices, lhs in calls:
        good = assemble(f, theta, xi_indices, lhs)
        assert good.verified and good.lhs == lhs and good.lhs is good.rhs
        with pytest.raises(InvariantViolation, match="witness identity failed the exact check"):
            assemble(f, theta, xi_indices, lhs + f.beta_power(-30))
        # the mismatch leaves the memoized certificate as it was
        assert assemble(f, theta, xi_indices, lhs) is good and good.lhs == lhs


def test_add_one_raises_on_a_wrong_memoized_witness():
    # tribonacci at N = 5 gives theta 1 and omegas (0, 1); a right side
    # seeded under that key cannot equal frac(6) - frac(5), which lies in
    # (-1, 1), so add_one's exact check raises instead of returning it;
    # the shape is read on another field, so this field's memo is empty
    field = make_field((1, 1, 1))
    _, wit = add_one(make_field((1, 1, 1)).from_rational(5))
    assert (wit.theta, wit.omegas) == (1, (0, 1))
    two = field.from_rational(2)
    field.memo(("witness_rhs", 1, (0, 1)), lambda: KeyWitness(1, (0, 1), two, two, verified=True))
    with pytest.raises(InvariantViolation, match="witness identity failed the exact check"):
        add_one(field.from_rational(5))


def test_witness_for_natural():
    assert witness_for_natural(0, TRIB) == [0]
    for field in (TRIB, family(2)):
        for n in (1, 7, 23, 50):
            omegas = witness_for_natural(n, field)
            assert all(o >= 0 for o in omegas)
            assert omegas[0] == 0
            # re-verify the congruence here, independently of the helper
            orbit = t_orbit_of_one(field, len(omegas))
            total = frac_part(field.from_rational(n))
            for j, o in enumerate(omegas):
                total = total + o * orbit[j]
            assert total.is_rational() and total.as_rational().denominator == 1


def test_tribonacci_naturals_have_finite_fraction():
    # the descending-coefficient base keeps every natural number's
    # expansion finite, fractional part included
    for n in range(1, 30):
        assert is_finite_expansion(TRIB.from_rational(n))
        assert is_finite_expansion(frac_part(TRIB.from_rational(n)))


def test_witness_json_schema():
    _, wit = add_one(family(2).from_rational(5))
    d = wit.to_json_dict()
    assert set(d) == {"theta", "omegas", "lhs", "rhs", "verified"}
    assert d["verified"] is True
    assert isinstance(d["omegas"], list)
    assert all(isinstance(s, str) for s in d["lhs"])


# add_one's and carry_step's per-field memos of word values and free-block scans
MEMOS = ("word_values", "free_blocks")
CATALOG_COEFFS = [(1, 1, 1), (1, 1, 0), (2, -4, 4), (3, -6, 6)]


def _clear_memos(field):
    for name in MEMOS:
        field.memo(name, dict).clear()


def _certificates(field, xs, cold):
    """add_one(x) as (expansion, theta, omegas, lhs, rhs) for each x, an
    integer or a tuple of rational coordinates, with the two memos cleared
    before each call when cold."""
    out = []
    for x in xs:
        if cold:
            _clear_memos(field)
        x = field.from_coords(x) if isinstance(x, tuple) else field.from_rational(x)
        e, w = add_one(x)
        out.append((e, w.theta, w.omegas, w.lhs, w.rhs))
    return out


@pytest.mark.parametrize("coeffs", CATALOG_COEFFS, ids=str)
def test_warm_and_cold_memos_agree(coeffs, monkeypatch):
    # N = 0..399, then nonnegative elements with rational coordinates,
    # whose words have periodic tails
    rng = random.Random(sum(coeffs))
    xs = list(range(400)) + [
        tuple(Q(rng.randint(0, 6), rng.randint(1, 3)) for _ in coeffs) for _ in range(40)
    ]
    warm_field, cold_field = make_field(coeffs), make_field(coeffs)
    _certificates(warm_field, xs, cold=False)
    assert all(warm_field.memo(name, dict) for name in MEMOS)
    warm = _certificates(warm_field, xs, cold=False)
    assert warm == _certificates(cold_field, xs, cold=True)
    expect = witness_for_natural(60, warm_field)
    fresh_add_one = normalization.add_one

    def cold_add_one(x, cap):
        _clear_memos(x.field)
        return fresh_add_one(x, cap)

    monkeypatch.setattr(normalization, "add_one", cold_add_one)
    assert witness_for_natural(60, cold_field) == expect


def test_carry_checks_fire_with_warm_memos(monkeypatch):
    # the tribonacci worked chain: one carry round, whose rewrite is built
    # with subtract; a rewrite one digit off must fail the value check on
    # every call, however warm the memos are
    b = TRIB.beta()
    x = b**8 + b**6 + b**5 + b**3 + b**2 + 1
    c = beta_expand(x).word
    fb = free_blocks(TRIB, c)
    for _ in range(2):
        add_one(x)
        carry_step(TRIB, c, fb, 9, c.shift(9), 1)
    assert all(TRIB.memo(name, dict) for name in MEMOS)
    real = normalization.subtract

    def one_digit_off(a, b):
        w = real(a, b)
        return w.shift(1).prepend((w.digit(0) + 1,))

    monkeypatch.setattr(normalization, "subtract", one_digit_off)
    for _ in range(2):
        with pytest.raises(InvariantViolation, match="carry rewrite changed the value"):
            carry_step(TRIB, c, fb, 9, c.shift(9), 1)
        with pytest.raises(InvariantViolation, match="carry rewrite changed the value"):
            add_one(x)


def test_normalization_memos_clear_at_their_bound(monkeypatch):
    # x^3-4x^2+4x-2: N = 0..199 meet far more than 16 distinct words; the
    # bounded memos give the certificates of memos that never clear
    free = make_field((2, -4, 4))
    expect = _certificates(free, range(200), cold=False)
    assert all(len(free.memo(name, dict)) > 16 for name in MEMOS)
    monkeypatch.setattr(expansion, "ORBIT_MEMO_BOUND", 16)
    field = make_field((2, -4, 4))
    sizes = {name: [] for name in MEMOS}
    got = []
    for n in range(200):
        got += _certificates(field, [n], cold=False)
        for name in MEMOS:
            sizes[name].append(len(field.memo(name, dict)))
    assert got == expect
    for name, seen in sizes.items():
        assert 0 < min(seen) and max(seen) == 16, name
        assert any(after < before for before, after in zip(seen, seen[1:])), name


def test_expansion_and_classify_fill_no_normalization_memo(monkeypatch):
    # the two memos belong to add_one and carry_step: expansion, the value
    # of an expansion, admissibility and classify request neither key
    f = make_field((2, -4, 4))
    keys = []
    memo = BetaField.memo

    def recorded(field, key, build):
        keys.append(key)
        return memo(field, key, build)

    monkeypatch.setattr(BetaField, "memo", recorded)
    rng = random.Random(34)
    for _ in range(20):
        x = f.from_coords([Q(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(3)])
        e = beta_expand(x)
        assert e.value(f) == x
        assert is_admissible(f, e.word)
        free_blocks(f, e.word)
    classify(f)
    assert "orbits" in keys and not set(MEMOS) & set(keys)
    add_one(f.from_rational(5))
    assert set(MEMOS) <= set(keys)


def test_add_one_under_threads():
    # 8 threads race on one fresh field, filling and reading the orbit
    # memo and both normalization memos: each gets the single-thread answers
    ns = range(40)
    expect = _certificates(make_field((2, -4, 4)), ns, cold=False)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):
            field = make_field((2, -4, 4))
            results = []
            start = threading.Barrier(8)

            def worker():
                start.wait(timeout=60)
                results.append(_certificates(field, ns, cold=False))

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
            assert len(results) == 8
            first = results[0]
            for got in results:
                assert got == expect
                # a verified certificate's rhs is its one memoized object
                assert all(g[4] is f[4] for g, f in zip(got, first))
            for w, value in field.memo("word_values", dict).items():
                assert value == nu(field, w), w
            for w, blocks in field.memo("free_blocks", dict).items():
                assert blocks == (free_blocks(field, w) if is_admissible(field, w) else None), w
    finally:
        sys.setswitchinterval(old_interval)
