import random
from fractions import Fraction as Q

import pytest

from test_acceptance import CATALOG, INFINITE_D1, _random_word, _spliced_word

from betafin import normalization
from betafin.errors import NotAdmissible, OrbitBudgetExceeded, OutOfRange
from betafin.expansion import (
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
from betafin.field import make_field
from betafin.normalization import (
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
    # big_l raises: on x itself for -1/2 (x + 1 >= 0), on x + 1 for -1 and -3
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


def test_witness_keeps_a_wrong_lhs_unverified(monkeypatch):
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
        wrong = lhs + f.beta_power(-30)
        bad = assemble(f, theta, xi_indices, wrong)
        assert not bad.verified
        assert bad.lhs is wrong and bad.rhs == good.rhs
        assert (bad.theta, bad.omegas) == (good.theta, good.omegas)
        # the mismatch leaves the memoized certificate as it was
        assert assemble(f, theta, xi_indices, lhs) is good and good.lhs == lhs


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
