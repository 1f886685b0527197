"""Eventually periodic digit words.

A Word is a preperiod plus a repeating period; an empty period encodes a
finite word padded by zeros forever.  Words are canonicalized on
construction so that equality is structural: the period is primitive,
an all-zero period collapses to the empty one, and the preperiod is
minimal (its last digit never duplicates the aligned last period digit,
and finite words carry no trailing zeros).

Digits are plain integers.  Greedy expansion digits live in
[0, floor(beta)]; carry intermediates may leave that range (including
negative digits).  A word stores its preperiod and period as bytes, one
byte per digit, when every digit lies in 0..255, and as tuples of ints
otherwise; the form is decided from the canonical digits, so equal words
have the same form and compare and hash alike.  Indexing either form
gives an int.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable


def _primitive(period: list[int]) -> list[int]:
    n = len(period)
    for p in range(1, n + 1):
        if n % p == 0 and period == period[: p] * (n // p):
            return period[: p]
    return period


@dataclass(frozen=True, slots=True)
class Word:
    pre: bytes | tuple[int, ...]
    period: bytes | tuple[int, ...]

    def __init__(self, pre: Iterable[int] = (), period: Iterable[int] = ()):
        pre = [int(d) for d in pre]
        period = [int(d) for d in period]
        if period and not any(period):
            period = []
        if period:
            period = _primitive(period)
            while pre and pre[-1] == period[-1]:
                pre.pop()
                period = [period[-1]] + period[:-1]
        else:
            while pre and pre[-1] == 0:
                pre.pop()
        # one byte per digit when every digit fits; the form follows from
        # the canonical digits, so equal words have the same form
        try:
            pre, period = bytes(pre), bytes(period)
        except ValueError:
            pre, period = tuple(pre), tuple(period)
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "period", period)

    # -- basic queries ---------------------------------------------------

    def digit(self, i: int) -> int:
        """0-based digit access into the infinite sequence."""
        if i < 0:
            raise ValueError("digit position must be >= 0")
        if i < len(self.pre):
            return self.pre[i]
        if not self.period:
            return 0
        return self.period[(i - len(self.pre)) % len(self.period)]

    def digits(self, n: int) -> list[int]:
        """The first n digits, read by slices of the preperiod and period."""
        out = list(self.pre[: max(n, 0)])
        rest = n - len(out)
        if rest > 0:
            period = self.period or (0,)
            out += (period * (rest // len(period) + 1))[:rest]
        return out

    def is_finite(self) -> bool:
        """True when only finitely many digits are nonzero."""
        return not self.period

    def is_zero(self) -> bool:
        return not self.pre and not self.period

    def has_negative_digit(self) -> bool:
        return any(d < 0 for d in self.pre + self.period)

    def period_len(self) -> int:
        return max(1, len(self.period))

    def shift(self, n: int) -> "Word":
        """Drop the first n digits; a finite word's empty period stays empty."""
        if n < 0:
            raise ValueError("shift must be >= 0")
        if n <= len(self.pre):
            return Word(self.pre[n:], self.period)
        k = (n - len(self.pre)) % self.period_len()
        return Word((), self.period[k:] + self.period[: k])

    def prepend(self, head: Iterable[int]) -> "Word":
        return Word((*head, *self.pre), self.period)


def window_len(pre_a: int, period_a: int, pre_b: int, period_b: int) -> int:
    """Number of leading digits that decides equality of two words with
    these preperiod and period lengths."""
    return max(pre_a, pre_b) + 2 * math.lcm(period_a, period_b)


def compare_window(a: Word, b: Word) -> int:
    """Number of leading digits that decides equality of a and b."""
    return window_len(len(a.pre), a.period_len(), len(b.pre), b.period_len())


def lex_cmp(a: Word, b: Word) -> int:
    """-1, 0, +1 for lexicographic order on the infinite digit sequences."""
    for i in range(compare_window(a, b)):
        da, db = a.digit(i), b.digit(i)
        if da != db:
            return -1 if da < db else 1
    return 0


def subtract(a: Word, b: Word) -> Word:
    """Digitwise difference a - b, again eventually periodic."""
    pre = max(len(a.pre), len(b.pre))
    n = pre + math.lcm(a.period_len(), b.period_len())
    diff = [x - y for x, y in zip(a.digits(n), b.digits(n))]
    return Word(diff[:pre], diff[pre:])


# -- the shared text format -------------------------------------------------
#
# Digits space separated, the period parenthesized:  "2 2 1 0 0 2" is a
# finite word, "1 0 0 0 0 0 2 0 (1)" repeats the digit 1 forever.

_WORD_RE = re.compile(r"^\s*((?:-?\d+\s+)*-?\d+)?\s*(?:\(\s*((?:-?\d+\s*)+)\))?\s*$")


def format_word(w: Word) -> str:
    head = " ".join(str(d) for d in w.pre)
    if w.period:
        tail = "(" + " ".join(str(d) for d in w.period) + ")"
        return f"{head} {tail}" if head else tail
    return head if head else "0"


def parse_word(text: str) -> Word:
    m = _WORD_RE.match(text)
    if not m or (m.group(1) is None and m.group(2) is None):
        raise ValueError(f"cannot parse digit word {text!r}")
    pre = tuple(int(t) for t in m.group(1).split()) if m.group(1) else ()
    period = tuple(int(t) for t in m.group(2).split()) if m.group(2) else ()
    return Word(pre, period)
