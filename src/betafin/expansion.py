"""The beta-transformation and greedy digit expansions.

For x in [0, 1] the map T(x) = beta*x - floor(beta*x) generates the
greedy digit string d_beta(x).  Orbits of field elements are detected by
exact state hashing, so every expansion comes back as an eventually
periodic Word together with its preperiod and period.  The quasi-greedy
expansion of 1 is the yardstick for Parry's admissibility condition:
a word is realizable iff every shift stays lexicographically below it.

T maps Z[beta] into itself and keeps the denominator of x = n / den, so
_greedy_step, the package's one T-step, works on integer numerators: the
beta-shift BetaField.times_beta, one BetaField.floor_nums for the digit,
and digit * den off the constant numerator.  _digit_orbit is the one
digit-orbit loop: it walks _greedy_step on numerator tuples over one den
and hashes them, for the orbit of 1 and for d_beta (so beta_expand,
is_finite_expansion and add_one), which passes it the stored canonical
pair of x.  t_map is the public single step on an element; no walk calls
it.  Every division by beta^m runs in BetaField.horner_inverse_beta,
Horner's rule in beta^{-1} on integer numerators over one running
denominator, reduced once per call: nu sums each block of a word there,
and beta_expand and frac_part scale x by beta^{-L(x)} there, over L(x)
zero digits, so none of them builds a field element per digit or a
chain of negative powers of beta.  frac_part then takes its L(x) greedy
steps on the numerators of beta^{-L(x)} x.  _in_unit_interval decides
0 <= x <= 1 (x = 1 or floor(x) = 0) where a walk or a t_map step
starts.  big_l compares the numerators of x with the integer rows of
beta^n, which it walks itself with BetaField.times_beta and memoizes
nowhere, one BetaField.sign_nums per power.

The free-block scan decides that condition: it cuts an admissible word
into maximal prefixes of the quasi-greedy word, each closed by a
strictly smaller digit, and `is_admissible` is whether the scan
completes.  It reads digit s + j of the word against digit j of the
quasi-greedy word in place, over a comparison window computed from the
two words' preperiod and period lengths (words.window_len, which
compare_window shares), and builds no shifted word per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvariantViolation, NotAdmissible, OrbitBudgetExceeded, OutOfRange
from .field import BetaField, FieldElement
from .words import Word, format_word, window_len

# bounds digit orbits here and shift radix system walks (--budget-orbit)
DEFAULT_ORBIT_CAP = 100_000


def _in_unit_interval(field: BetaField, nums: Sequence[int], den: int) -> bool:
    """Whether x = (sum_i nums[i] beta^i) / den lies in [0, 1]: x = 1 or floor(x) = 0."""
    return (nums[0] == den and not any(nums[1:])) or field.floor_nums(nums, den) == 0


def _greedy_step(field: BetaField, nums: Sequence[int], den: int) -> tuple[int, tuple[int, ...]]:
    """floor(beta x) and the numerators of T(x) over den, for x = (sum_i nums[i] beta^i) / den."""
    bx = field.times_beta(nums)
    digit = field.floor_nums(bx, den)
    bx[0] -= digit * den
    return digit, tuple(bx)


def t_map(x: FieldElement) -> tuple[int, FieldElement]:
    """One greedy step (floor(beta x), T(x)) on the numerators of x in [0, 1]."""
    nums, den = x.nums, x.den
    if not _in_unit_interval(x.field, nums, den):
        raise OutOfRange("t_map needs 0 <= x <= 1")
    digit, nums = _greedy_step(x.field, nums, den)
    return digit, x.field.from_numerators(nums, den)


def d_beta(x: FieldElement, cap: int = DEFAULT_ORBIT_CAP) -> Word:
    """Greedy digit word of x in [0, 1], the digit orbit of x's integer
    numerators (_digit_orbit).

    Raises OrbitBudgetExceeded when the orbit does not close within cap
    states, which signals a non-Pisot base or a pathological input, and
    OutOfRange when x is not in [0, 1].
    """
    return _digit_orbit(x.field, x.nums, x.den, cap)[0]


def _digit_orbit(
    field: BetaField, nums: Sequence[int], den: int, cap: int
) -> tuple[Word, tuple[tuple[int, ...], ...]]:
    """Greedy word of x = (sum_i nums[i] beta^i) / den in [0, 1], d nums, den > 0,
    and its distinct states T^0(x), T^1(x), ... as numerator tuples over den,
    found by exact state hashing.  This is the package's one digit-orbit loop.

    The range is decided once, here: every later state is a T-image and
    lies in [0, 1).  OrbitBudgetExceeded, naming x, unless the orbit
    closes within cap states.
    """
    if not _in_unit_interval(field, nums, den):
        raise OutOfRange("d_beta needs 0 <= x <= 1")
    state = tuple(nums)
    seen: dict[tuple[int, ...], int] = {}
    digits: list[int] = []
    while len(digits) <= cap:
        if state in seen:
            split = seen[state]
            return Word(digits[:split], digits[split:]), tuple(seen)
        seen[state] = len(digits)
        digit, state = _greedy_step(field, state, den)
        digits.append(digit)
    raise OrbitBudgetExceeded(
        f"orbit of {field.from_numerators(nums, den)!r} did not close within {cap} states"
    )


def _orbit_of_one(field: BetaField, cap: int) -> tuple[Word, tuple[tuple[int, ...], ...]]:
    """d_beta(1) and the distinct states T^0(1), ..., T^{n-1}(1) as integer
    coordinate tuples, walked once per field and memoized; a memo hit
    raises OrbitBudgetExceeded exactly when a fresh walk would, that is
    when n > cap."""

    def build() -> tuple[Word, tuple[tuple[int, ...], ...]]:
        word, states = _digit_orbit(field, (1,) + (0,) * (field.degree - 1), 1, cap)
        # distinct states have distinct digit tails, so the states split
        # as the canonical word does; t_orbit_of_one reads the period there
        if len(states) != len(word.pre) + word.period_len():
            raise InvariantViolation("the orbit of 1 and its word disagree on the period")
        return word, states

    word, states = field.memo("orbit_of_one", build)
    if len(states) > cap:
        raise OrbitBudgetExceeded(f"orbit of {field.one()!r} did not close within {cap} states")
    return word, states


def d_beta_one(field: BetaField, cap: int = DEFAULT_ORBIT_CAP) -> Word:
    """d_beta(1), memoized with the T-orbit of 1."""
    return _orbit_of_one(field, cap)[0]


def d_beta_star(field: BetaField) -> Word:
    """Quasi-greedy expansion of 1.

    If d_beta(1) = d_1 ... d_q 0^inf (finite, q the last nonzero position)
    this is (d_1 ... d_{q-1} (d_q - 1))^inf; otherwise d_beta(1) itself.
    It walks the orbit of 1 under the default budget.
    """
    w = d_beta_one(field)
    if not w.is_finite():
        return w
    if w.is_zero():
        raise InvariantViolation("d_beta(1) cannot be the zero word")
    return field.memo("d_beta_star", lambda: Word((), (*w.pre[:-1], w.pre[-1] - 1)))


@dataclass(frozen=True, slots=True)
class FreeBlockDecomposition:
    """Block boundaries k_1 < k_2 < ... of an admissible word.

    Eventually the gaps repeat: head holds the explicit boundaries and
    cycle_gaps the gap cycle that continues forever after them.
    """

    head: tuple[int, ...]
    cycle_gaps: tuple[int, ...]

    def k(self, i: int) -> int:
        """The i-th boundary, 1-based; k(0) = 0."""
        if i < 0:
            raise ValueError("block index must be >= 0")
        if i == 0:
            return 0
        if i <= len(self.head):
            return self.head[i - 1]
        base = self.head[-1] if self.head else 0
        m = i - len(self.head)
        full, part = divmod(m, len(self.cycle_gaps))
        return base + full * sum(self.cycle_gaps) + sum(self.cycle_gaps[:part])

    def locate(self, ell: int) -> int:
        """The index i with k(i) < ell <= k(i+1)."""
        if ell < 1:
            raise ValueError("position must be >= 1")
        i = 0
        while self.k(i + 1) < ell:
            i += 1
        return i

    def boundaries(self, count: int) -> list[int]:
        return [self.k(i) for i in range(1, count + 1)]


def free_blocks(field: BetaField, w: Word) -> FreeBlockDecomposition:
    """Decompose an admissible word into its free blocks.

    The scan walks block by block: inside a block the word copies the
    quasi-greedy expansion d* of 1 and the block closes at the first
    strictly smaller digit.  An upward deviation, or a tail that never
    deviates, is exactly a failure of admissibility.

    Comparing the shifts at block starts with d* is enough: a shift that
    starts m digits into a block copies d* shifted by m and then drops
    below it, and every shift of d* is <= d*, so that shift is below d*
    as well.  Raises NotAdmissible when some shift is not below d*.

    The shift at block start s is read in place: its digit j is digit
    s + j of w.  Its window comes from lengths alone, since the shift has
    preperiod length max(len(w.pre) - s, 0) and w's period length, so no
    word is built per block.
    """
    dstar = d_beta_star(field)
    dprelen, dplen = len(dstar.pre), dstar.period_len()
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
                return FreeBlockDecomposition(tuple(ks[:start]), tuple(gaps))
            seen[key] = len(ks)
        window = window_len(max(prelen - s, 0), plen, dprelen, dplen)
        # the block is digits s+1 .. s+j: the first j-1 copy d*, digit s+j is smaller
        for j in range(1, window + 2):
            a, b = w.digit(s + j - 1), dstar.digit(j - 1)
            if a > b:
                raise NotAdmissible(f"digit above the quasi-greedy bound at position {s + j}")
            if a < b:
                break
        else:
            raise NotAdmissible(f"shift at position {s} coincides with the quasi-greedy word")
        s += j
        ks.append(s)
    raise InvariantViolation("free block scan failed to close a gap cycle")


def is_admissible(field: BetaField, w: Word) -> bool:
    """Parry's condition: every shift of w is lexicographically below
    the quasi-greedy expansion of 1, decided by the free-block scan."""
    if w.has_negative_digit():
        raise ValueError("admissibility is defined for nonnegative digit words")
    try:
        free_blocks(field, w)
    except NotAdmissible:
        return False
    return True


def nu(field: BetaField, w: Word) -> FieldElement:
    """Exact value sum_n w_n beta^{-n} in Q(beta).

    Each block is summed by Horner's rule in beta^{-1} on integer
    numerators (BetaField.horner_inverse_beta): for digits w_1 ... w_m
    the value (w_1 + (w_2 + ... (w_m) / beta ...) / beta) / beta takes one
    O(d) division by beta per digit.  The period's block value v gives the
    tail v / (1 - beta^{-p}) by geometric summation, with
    1 / (1 - beta^{-p}) = 1 + 1 / (beta^p - 1) memoized per period length
    p; it is built from beta^p alone, so no chain of negative powers is
    memoized.  Horner's rule over the m preperiod digits starts from that
    tail, which scales it by beta^{-m}.
    """
    tail = field.zero()
    if w.period:
        p = len(w.period)
        geom = field.memo(("geom_inverse", p), lambda: 1 + (field.beta() ** p - 1).inverse())
        tail = field.horner_inverse_beta(w.period, tail.nums, tail.den) * geom
    return field.horner_inverse_beta(w.pre, tail.nums, tail.den)


def big_l(x: FieldElement) -> int:
    """Least n >= 0 with x * beta^{-n} < 1, that is x < beta^n, decided on
    integer numerators: with x = (sum_i nums[i] beta^i) / den, the least n
    with nums - den * row < 0 for the row of beta^n, one sign decision per
    power; each row is times_beta of the row before."""
    field = x.field
    nums, den = x.nums, x.den
    if field.sign_nums(nums) < 0:
        raise OutOfRange("big_l needs x >= 0")
    n, row = 0, [1] + [0] * (field.degree - 1)
    while field.sign_nums([a - den * r for a, r in zip(nums, row)]) >= 0:
        n, row = n + 1, field.times_beta(row)
    return n


@dataclass(frozen=True, slots=True)
class Expansion:
    """A floating-point style expansion x = beta^exponent * nu(word)."""

    exponent: int
    word: Word

    def is_finite(self) -> bool:
        return self.word.is_finite()

    def value(self, field: BetaField) -> FieldElement:
        return field.beta_power(self.exponent) * nu(field, self.word)

    def __str__(self) -> str:
        return f"beta^{self.exponent} * 0.{format_word(self.word)}"


def beta_expand(x: FieldElement, cap: int = DEFAULT_ORBIT_CAP) -> Expansion:
    """Expansion of x >= 0: exponent L(x) and word d_beta(beta^{-L(x)} x)."""
    ell = big_l(x)
    scaled = x.field.horner_inverse_beta((0,) * ell, x.nums, x.den)
    return Expansion(ell, d_beta(scaled, cap))


def is_finite_expansion(x: FieldElement, cap: int = DEFAULT_ORBIT_CAP) -> bool:
    """Whether beta_expand(x) is finite: the digit orbit of beta^{-L(x)} x reaches 0."""
    return beta_expand(x, cap).is_finite()


def xi(field: BetaField, n: int) -> FieldElement:
    """Value of the (n-1)-shifted quasi-greedy expansion of 1."""
    if n < 1:
        raise ValueError("xi is defined for n >= 1")
    return field.memo(("xi", n), lambda: nu(field, d_beta_star(field).shift(n - 1)))


def t_orbit_of_one(field: BetaField, upto: int) -> list[FieldElement]:
    """[T^0(1), T^1(1), ..., T^upto(1)], read from the memoized orbit of 1:
    past its last distinct state the list cycles through the period, which
    is the single state 0 when d_beta(1) is finite.  Raises where
    d_beta_one(field) raises."""
    word, states = _orbit_of_one(field, DEFAULT_ORBIT_CAP)
    # built on first use: classify reads only the word, so the fields it
    # surveys keep no orbit elements in their memos
    orbit = field.memo("t_orbit_of_one", lambda: tuple(field.from_numerators(s, 1) for s in states))
    split = len(word.pre)
    period = len(orbit) - split
    return [orbit[j] if j < len(orbit) else orbit[split + (j - split) % period] for j in range(upto + 1)]


def xi_t_power(field: BetaField, n: int) -> int:
    """The exponent m with xi(n) = T^m(1).

    For an infinite d_beta(1) the shift lines up directly (m = n - 1);
    when d_beta(1) = d_1 ... d_q 0^inf the quasi-greedy word has period q
    and m is the representative of n - 1 modulo q.
    """
    if n < 1:
        raise ValueError("xi index must be >= 1")
    w1 = d_beta_one(field)
    if w1.is_finite():
        q = len(w1.pre)
        return (n - 1) % q
    return n - 1


def frac_part(x: FieldElement) -> FieldElement:
    """The beta-fractional part T^L(beta^{-L} x), L = L(x); big_l decides the range."""
    ell = big_l(x)
    scaled = x.field.horner_inverse_beta((0,) * ell, x.nums, x.den)
    nums, den = scaled.nums, scaled.den
    for _ in range(ell):
        _, nums = _greedy_step(x.field, nums, den)
    return x.field.from_numerators(nums, den)
