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
and hashes them, for t_orbit_of_one and for d_beta (so d_beta_one,
beta_expand, is_finite_expansion and add_one), which passes it the
stored canonical pair of x and the memo of cycle states below.  t_map
is the public single step; no walk calls it.  Every division by beta^m
runs in BetaField.horner_inverse_beta, Horner's rule in beta^{-1} on
integer numerators over one running denominator, reduced once per call: nu
sums each block of a word there, and beta_expand and frac_part scale x
by beta^{-L(x)} there, over L(x) zero digits (normalization.add_one
scales x and x + 1 by beta^{-L(x+1)}), so none of them builds a field
element per digit or a chain of negative powers of beta.  frac_part
then takes its L(x) greedy steps on the numerators of beta^{-L(x)} x,
in _frac_at, which add_one calls at its own exponent.
_in_unit_interval decides 0 <= x <= 1 (x = 1 or floor(x) = 0) where a
walk or a t_map step starts.  big_l compares the numerators of x with
the integer rows of beta^n, which it walks itself with
BetaField.times_beta and memoizes nowhere, one BetaField.sign_nums per
power.

The free-block scan decides that condition: it cuts an admissible word
into maximal prefixes of the quasi-greedy word, each closed by a
strictly smaller digit, and `is_admissible` is whether the scan
completes.  It reads digit s + j of the word against digit j of the
quasi-greedy word in place, over a comparison window computed from the
two words' preperiod and period lengths (words.window_len, which
compare_window shares), and builds no shifted word per block; both
words' digits are read by index into their preperiod and period storage.

Digit words are memoized per field behind BetaField.memo in two
bounded memos, one per kind of entry.  "orbits" maps a start's
canonical pair (den, *nums) to its word, through bounded_memo.
"cycles" maps each state of a cycle that a walk has closed, keyed
(den, *state) over that walk's den, to the cycle's one purely periodic
word and the state's rotation r within it (for a Pisot base the orbits
over one den stay in a finite set, so starts keep falling into the same
few cycles); only _publish_cycle fills it.  A walk stops at the first later state found
in "cycles" and takes its tail from that entry, and d_beta_one reads
d_beta(1) from "orbits" like every d_beta.  Every entry is published
once with dict.setdefault and never replaced; the dicts are only
cleared.  Distinct states have distinct digit tails, so the state count
of an orbit is len(word.pre) + word.period_len(), read from the word: a
hit raises OrbitBudgetExceeded exactly when a fresh walk would
(_check_orbit_budget), and neither a failed walk nor an input outside
[0, 1] is stored.  Unlike the values derived from the field alone, the
entries depend on the inputs, so each memo is cleared when it holds
ORBIT_MEMO_BOUND (4,096) entries, "cycles" also before a new cycle
would fill it; a cycle of that many states is not stored, and a start
walked again after a clear gets an equal entry, not the same object.  nu
keeps the value of each period, v / (1 - beta^{-p}), in a third
bounded memo, "period_values", keyed by the period's digits and filled
only from its own Horner and geometric sums, so Expansion.value stays
a check of a word that is independent of its orbit.
normalization.py keeps its word values and free-block scans in two
more bounded memos; free_blocks, is_admissible and beta_expand fill
none.  t_orbit_of_one walks the orbit of 1 in full, without the memos
above, and keeps its states as field elements in their own memo entry,
walked once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence, TypeVar

from .errors import InvariantViolation, NotAdmissible, OrbitBudgetExceeded, OutOfRange
from .field import BetaField, FieldElement
from .words import Word, format_word, window_len

# bounds digit orbits here and shift radix system walks (--budget-orbit)
DEFAULT_ORBIT_CAP = 100_000
# a per-field memo keyed by inputs (bounded_memo: d_beta's starts, and
# its cycle states in _publish_cycle; nu's period values; normalization's
# word values and free-block scans) is cleared when it holds this many
# entries
ORBIT_MEMO_BOUND = 4096

_V = TypeVar("_V")
_MISSING = object()


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
    numerators (_digit_orbit), read from and stored in two bounded memos
    of the field.

    The "orbits" memo maps a start's canonical pair (den, *nums) to its
    word, through bounded_memo.  The "cycles" memo maps each state
    (den, *state) of a cycle that some walk has closed, met over that
    walk's den, to the cycle's one purely periodic word and the state's
    rotation r within it; only _publish_cycle fills it.  The walk of x
    stops at the first later state found in "cycles" and takes its tail
    from that entry, so a start on a published cycle walks one step and
    gets its own rotated word.  Every entry is published once with
    dict.setdefault and never replaced, so every request gets one object
    between clears.

    Distinct states have distinct digit tails, so the orbit of x has
    len(word.pre) + word.period_len() states, and every call checks
    that count against cap (_check_orbit_budget): a memo hit raises
    exactly when a fresh walk would.  A failed walk is not stored.

    Raises OrbitBudgetExceeded when the orbit does not close within cap
    states, which signals a non-Pisot base or a pathological input, and
    OutOfRange when x is not in [0, 1].
    """
    field, nums, den = x.field, x.nums, x.den

    def walk() -> Word:
        cycles = field.memo("cycles", dict)
        word, states = _digit_orbit(field, nums, den, cap, cycles)
        n = _state_count(word)
        _check_orbit_budget(field, nums, den, n, cap)
        if len(states) == n:
            # the walk met no known state: states is the whole orbit, and
            # its last period_len() states form a new cycle
            _publish_cycle(cycles, den, word, states[len(word.pre):])
        return word

    word = bounded_memo(field, "orbits", (den, *nums), walk)
    _check_orbit_budget(field, nums, den, _state_count(word), cap)
    return word


def _state_count(word: Word) -> int:
    """The number of states of an orbit with this greedy word: distinct
    states have distinct digit tails, one per shift of the canonical word."""
    return len(word.pre) + word.period_len()


def _publish_cycle(
    cycles: dict, den: int, word: Word, cycle: Sequence[tuple[int, ...]]
) -> None:
    """Store each state of cycle, the numerators over den of the states
    whose tails are the rotations of word's period, in order, in d_beta's
    "cycles" memo as (the purely periodic word, rotation), with
    dict.setdefault so that no entry is replaced.  The memo is cleared
    first when the cycle would fill it, and a cycle as long as its bound
    is not stored."""
    if len(cycle) >= ORBIT_MEMO_BOUND:
        return
    if len(cycles) + len(cycle) >= ORBIT_MEMO_BOUND:
        cycles.clear()
    periodic = word if not word.pre else Word((), word.period)
    for r, state in enumerate(cycle):
        cycles.setdefault((den, *state), (periodic, r))


def bounded_memo(field: BetaField, name: str, key: Hashable, build: Callable[[], _V]) -> _V:
    """The entry for key in the field's memo dict name, from build() on a miss.

    For memos whose entries depend on the inputs: the dict is cleared
    when it holds ORBIT_MEMO_BOUND entries, and the new entry is then
    published with dict.setdefault, so racing threads all get the first
    value published.  A build that raises stores nothing.
    """
    table = field.memo(name, dict)
    hit = table.get(key, _MISSING)
    if hit is _MISSING:
        value = build()
        if len(table) >= ORBIT_MEMO_BOUND:
            table.clear()
        hit = table.setdefault(key, value)
    return hit


def _check_orbit_budget(field: BetaField, nums: Sequence[int], den: int, n: int, cap: int) -> None:
    """The orbit budget: OrbitBudgetExceeded, naming x = (sum_i nums[i] beta^i) / den,
    when its orbit has n > cap states.  A fresh walk raises here, and a
    memo hit on an orbit of n states raises exactly when a fresh walk would."""
    if n > cap:
        raise OrbitBudgetExceeded(
            f"orbit of {field.from_numerators(nums, den)!r} did not close within {cap} states"
        )


def _digit_orbit(
    field: BetaField,
    nums: Sequence[int],
    den: int,
    cap: int,
    cycles: dict | None = None,
) -> tuple[Word, tuple[tuple[int, ...], ...]]:
    """Greedy word of x = (sum_i nums[i] beta^i) / den in [0, 1], d nums, den > 0,
    and its distinct states T^0(x), T^1(x), ... as numerator tuples over den,
    found by exact state hashing.  This is the package's one digit-orbit loop.

    With cycles, d_beta's memo of published cycle states, the walk stops
    at the first later state whose key (den, *state) is there, and the
    word is the digits walked followed by that state's rotation of the
    cycle; the states are then those walked before it.  Without cycles
    the walk runs until the orbit closes.

    The range is decided once, here: every later state is a T-image and
    lies in [0, 1).  OrbitBudgetExceeded, naming x, unless the walk
    ends within cap states; it stops at cap + 1 states.
    """
    if not _in_unit_interval(field, nums, den):
        raise OutOfRange("d_beta needs 0 <= x <= 1")
    state = tuple(nums)
    seen: dict[tuple[int, ...], int] = {}
    digits: list[int] = []
    tail = None
    while len(seen) <= cap and state not in seen:
        seen[state] = len(digits)
        digit, state = _greedy_step(field, state, den)
        digits.append(digit)
        if cycles is not None and (tail := cycles.get((den, *state))) is not None:
            break
    _check_orbit_budget(field, nums, den, len(seen), cap)
    if tail is not None:
        # Word's constructor makes this canonical, also where the digits
        # walked already lie on the tail's cycle
        word, r = tail
        return Word([*digits, *word.pre], word.period[r:] + word.period[:r]), tuple(seen)
    split = seen[state]
    return Word(digits[:split], digits[split:]), tuple(seen)


def d_beta_one(field: BetaField, cap: int = DEFAULT_ORBIT_CAP) -> Word:
    """d_beta(1), read from the "orbits" memo like every d_beta."""
    return d_beta(field.one(), cap)


def d_beta_star(field: BetaField) -> Word:
    """Quasi-greedy expansion of 1.

    If d_beta(1) = d_1 ... d_q 0^inf (finite, q the last nonzero position)
    this is (d_1 ... d_{q-1} (d_q - 1))^inf; otherwise d_beta(1) itself.
    It reads d_beta(1) under the default budget, once per field.
    """

    def build() -> Word:
        w = d_beta_one(field)
        if not w.is_finite():
            return w
        if w.is_zero():
            raise InvariantViolation("d_beta(1) cannot be the zero word")
        return Word((), (*w.pre[:-1], w.pre[-1] - 1))

    return field.memo("d_beta_star", build)


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
    s + j of w, read by index into w's and d*'s preperiod and period
    storage.  Its window comes from lengths alone, since the shift has
    preperiod length max(len(w.pre) - s, 0) and w's period length, so no
    word is built per block.
    """
    dstar = d_beta_star(field)
    # d* is never finite, so its period is nonempty
    dpre, dper = dstar.pre, dstar.period
    dprelen, dplen = len(dpre), len(dper)
    pre, period = w.pre, w.period
    prelen = len(pre)
    plen = w.period_len()
    # each block's window is window_len(max(prelen - s, 0), plen, dprelen,
    # dplen); only its preperiod part changes, so the rest is taken once
    span = window_len(0, plen, 0, dplen)
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
        window = max(prelen - s, dprelen) + span
        # the block is digits s+1 .. s+j: the first j-1 copy d*, digit s+j is smaller
        for j in range(1, window + 2):
            i = s + j - 1
            if i < prelen:
                a = pre[i]
            else:
                a = period[(i - prelen) % plen] if period else 0
            b = dpre[j - 1] if j <= dprelen else dper[(j - 1 - dprelen) % dplen]
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
    memoized.  The tail is memoized per field under the period's digits
    in the bounded "period_values" memo (bounded_memo), which only this
    computation fills, so words that share a period share its tail.
    Horner's rule over the m preperiod digits starts from that tail,
    which scales it by beta^{-m}.
    """
    tail = field.zero()
    if w.period:
        period = w.period
        tail = bounded_memo(field, "period_values", period, lambda: _periodic_value(field, period))
    return field.horner_inverse_beta(w.pre, tail.nums, tail.den)


def _periodic_value(field: BetaField, period: Sequence[int]) -> FieldElement:
    """The value v / (1 - beta^{-p}) of the purely periodic word with this
    nonempty period of p digits, v the block's value by Horner's rule."""
    p = len(period)
    geom = field.memo(("geom_inverse", p), lambda: 1 + (field.beta() ** p - 1).inverse())
    return field.horner_inverse_beta(period, (0,) * field.degree, 1) * geom


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
    """[T^0(1), T^1(1), ..., T^upto(1)], read from the T-orbit of 1, walked
    once per field and memoized: past its last distinct state the list
    cycles through the period, which is the single state 0 when d_beta(1)
    is finite.  Raises where d_beta_one(field) raises."""

    def build() -> tuple[int, tuple[FieldElement, ...]]:
        word, states = _digit_orbit(field, (1,) + (0,) * (field.degree - 1), 1, DEFAULT_ORBIT_CAP)
        # distinct states have distinct digit tails, so the states split
        # as the canonical word does, and the period is read there
        if len(states) != _state_count(word):
            raise InvariantViolation("the orbit of 1 and its word disagree on the period")
        return len(word.pre), tuple(field.from_numerators(s, 1) for s in states)

    split, orbit = field.memo("t_orbit_of_one", build)
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
    return _frac_at(x, big_l(x))


def _frac_at(x: FieldElement, ell: int) -> FieldElement:
    """T^ell(beta^{-ell} x), ell greedy steps on the numerators of
    beta^{-ell} x, which is frac(x) for ell = L(x): frac_part passes
    big_l(x), and normalization.add_one the exponent it has decided."""
    scaled = x.field.horner_inverse_beta((0,) * ell, x.nums, x.den)
    nums, den = scaled.nums, scaled.den
    for _ in range(ell):
        _, nums = _greedy_step(x.field, nums, den)
    return x.field.from_numerators(nums, den)
