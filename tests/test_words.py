import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
