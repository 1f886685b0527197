import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betafin.expansion import beta_expand, d_beta_one, d_beta_star
from betafin.field import make_field
from betafin.words import Word, format_word, lex_cmp, parse_word, subtract


def test_canonical_trailing_zeros():
    assert Word((1, 1, 1, 0, 0), ()) == Word((1, 1, 1), ())
    assert Word((1, 0), (0, 0)) == Word((1,), ())
    assert Word((), (0,)).is_zero()


def test_canonical_primitive_period():
    assert Word((), (1, 1, 0, 1, 1, 0)) == Word((), (1, 1, 0))
    assert Word((), (2, 2)) == Word((), (2,))


def test_canonical_preperiod_rollback():
    assert Word((1, 1), (0, 1)) == Word((1,), (1, 0))
    assert Word((3, 1, 0), (1, 0)) == Word((3,), (1, 0))


def test_digit_access_and_shift():
    w = Word((1, 0), (1, 1, 0))
    assert w.digits(8) == [1, 0, 1, 1, 0, 1, 1, 0]
    assert w.shift(3) == Word((), (1, 0, 1))
    assert w.shift(100).period_len() == 3
    assert Word((5,), ()).shift(4).is_zero()
    # negative positions are errors, not Python's index-from-the-end
    w = Word((1, 2, 3), (4, 5))
    with pytest.raises(ValueError):
        w.shift(-1)
    with pytest.raises(ValueError):
        w.digit(-1)


words = st.builds(
    Word,
    st.lists(st.integers(min_value=0, max_value=3), max_size=6),
    st.lists(st.integers(min_value=0, max_value=3), max_size=4),
)


@settings(max_examples=80, deadline=None)
@given(words)
def test_parse_format_roundtrip(w):
    assert parse_word(format_word(w)) == w


@settings(max_examples=60, deadline=None)
@given(words, words)
def test_lex_cmp_matches_long_prefix(a, b):
    n = 4 * (len(a.pre) + len(b.pre) + a.period_len() * b.period_len()) + 8
    da, db = a.digits(n), b.digits(n)
    expect = -1 if da < db else (1 if da > db else 0)
    assert lex_cmp(a, b) == expect


@settings(max_examples=60, deadline=None)
@given(words, words)
def test_subtract_digitwise(a, b):
    d = subtract(a, b)
    for i in range(30):
        assert d.digit(i) == a.digit(i) - b.digit(i)


def test_format_examples():
    assert format_word(Word((2, 2, 1, 0, 0, 2), ())) == "2 2 1 0 0 2"
    assert format_word(Word((1, 0, 0, 0, 0, 0, 2, 0), (1,))) == "1 0 0 0 0 0 2 0 (1)"
    assert format_word(Word((), ())) == "0"
    assert format_word(Word((), (1, 1, 0))) == "(1 1 0)"
    assert parse_word("0").is_zero()


def test_greedy_words_are_stored_as_bytes():
    # x^2-3x+1, tribonacci and the family at t = 2: digits up to 2
    for coeffs in ((-1, 3), (1, 1, 1), (2, -4, 4)):
        f = make_field(coeffs)
        for w in (d_beta_one(f), d_beta_star(f)):
            assert type(w.pre) is bytes and type(w.period) is bytes, (coeffs, w)
        for k in range(1, 40):
            x = f.from_coords([k, 0, 1][: f.degree]) / (k % 5 + 1)
            w = beta_expand(x).word
            assert type(w.pre) is bytes and type(w.period) is bytes, (coeffs, x)


def test_words_with_digits_outside_a_byte_are_tuples():
    a, b = Word((1, 0, 2), (1,)), Word((2, 1), (0, 1))
    d = subtract(a, b)
    assert d.has_negative_digit()
    assert type(d.pre) is tuple and type(d.period) is tuple
    assert [d.digit(i) for i in range(12)] == [a.digit(i) - b.digit(i) for i in range(12)]
    # x^2-300x-1: beta = 300.0033..., so 1 = 300/beta + 1/beta^2
    f = make_field((1, 300))
    assert f.floor_beta() == 300
    assert d_beta_one(f) == Word((300, 1), ())
    assert type(d_beta_one(f).pre) is tuple
    w = beta_expand(f.from_rational(Q(1, 3))).word
    assert w.digit(0) == 100 and type(w.pre) is bytes
    # one digit above 255 in the period makes both parts tuples
    w = Word((1, 2), (256, 0))
    assert type(w.pre) is tuple and type(w.period) is tuple
    assert (w.pre, w.period) == ((1, 2), (256, 0))


def test_word_forms_agree_on_queries_and_equality():
    small = Word((1, 0, 2), (3, 1))
    big = Word((1, 0, 2), (300, 1))
    assert type(small.pre) is bytes and type(big.pre) is tuple
    # built from tuples, lists, bytes, generators and a range: one word
    same = [
        Word((1, 0, 2), (3, 1)),
        Word([1, 0, 2], [3, 1]),
        Word(b"\x01\x00\x02", b"\x03\x01"),
        Word(iter((1, 0, 2)), (d for d in (3, 1))),
        Word((1, 0, 2, 3, 1), (3, 1)),  # the preperiod rolls back
        Word((1, 0, 2), (3, 1, 3, 1)),  # the period is made primitive
        Word((9, 1, 0, 2), (3, 1)).shift(1),
        Word((0, 2), (3, 1)).prepend((1,)),
    ]
    for w in same:
        assert w == small and hash(w) == hash(small), w
        assert type(w.pre) is bytes and type(w.period) is bytes
    assert small != big and small.digits(8) != big.digits(8)
    # prepending a digit above 255 turns the word into tuples, and shifting
    # it off again gives back the byte word, equal and with equal hash
    up = small.prepend((256,))
    assert type(up.pre) is tuple and up.digits(4) == [256, 1, 0, 2]
    assert up.shift(1) == small and hash(up.shift(1)) == hash(small)
    assert type(up.shift(1).pre) is bytes
    down = big.shift(3)
    assert down == Word((), (300, 1)) and type(down.period) is tuple
    assert big.shift(4) == Word((), (1, 300))
    for w in (small, big, up, Word(), Word((), (0,)), Word((2,), ())):
        assert w.digits(9) == [w.digit(i) for i in range(9)]
        assert all(type(w.digit(i)) is int for i in range(9))
        assert parse_word(format_word(w)) == w
        assert hash(parse_word(format_word(w))) == hash(w)
    assert format_word(big) == "1 0 2 (300 1)"
    assert format_word(small.prepend((0, 7))) == "0 7 1 0 2 (3 1)"
    assert small.prepend([]) == small
    assert Word() == Word((), ()) == Word(b"", b"") == parse_word("0")


# digits in -3..3 with an occasional 300: finite and periodic words,
# negative digits, and both the bytes and the tuple storage
_digit_lists = st.lists(st.one_of(st.integers(-3, 3), st.just(300)), max_size=7)


@settings(max_examples=300, deadline=None)
@given(_digit_lists, _digit_lists, _digit_lists, _digit_lists, st.integers(-2, 40))
def test_slice_reads_match_digit_reads(pre_a, period_a, pre_b, period_b, n):
    # Word.digits and subtract read preperiod and period by slices; the
    # oracle reads one Word.digit per position
    a, b = Word(pre_a, period_a), Word(pre_b, period_b)
    for w in (a, b):
        assert w.digits(n) == [w.digit(i) for i in range(n)]
    pre = max(len(a.pre), len(b.pre))
    per = math.lcm(a.period_len(), b.period_len())
    expect = Word(
        [a.digit(i) - b.digit(i) for i in range(pre)],
        [a.digit(pre + i) - b.digit(pre + i) for i in range(per)],
    )
    diff = subtract(a, b)
    assert diff == expect
    assert [diff.digit(i) for i in range(pre + 2 * per)] == [
        a.digit(i) - b.digit(i) for i in range(pre + 2 * per)
    ]
