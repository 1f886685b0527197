"""Exact arithmetic in Q(beta) for an algebraic integer beta > 1.

A field is described by the monic integer polynomial
p(x) = x^d - a_{d-1} x^{d-1} - ... - a_1 x - a_0 together with a certified
isolating interval for its largest real root beta > 1.  An element is
(sum_i nums[i] beta^i) / den in the power basis 1, beta, ..., beta^{d-1},
stored as integer numerators over one denominator in canonical form:
den > 0 and gcd(den, *nums) = 1.  BetaField.from_numerators is the one
constructor that reduces a pair; FieldElement(field, coords) and
BetaField.from_coords take rational coordinates, and
FieldElement.coords builds the Fractions on each read.
Every comparison is decided exactly: rational shortcuts where possible,
otherwise interval refinement of the isolating interval, which terminates
because a nonzero element of the field is a nonzero polynomial of degree
below d evaluated at beta, and beta is no root of it: the constructor
proves p irreducible over Q at every degree (polys.least_factor) and
raises Reducible, naming a factor, when it is not.

The isolating interval is a dyadic bracket (lo, hi, k), meaning
[lo / 2^k, hi / 2^k] with integers lo < hi.  It is found by bisection on
dyadic points n / 2^k with a Sturm chain of integer polynomials
(polys.sturm_variations).  The unit-disk profile (Schur-Cohn) also runs
in integers, on p itself: BetaField.poly is p's integer coefficient
tuple.  Sign and floor run polys.horner, the package's one integer
Horner, on the bracket: on the stored numerators, after t Horner steps
the enclosure is a pair of integers over den times 2^(k t).  Since
beta > 1 both ends of the bracket are positive, so each step takes two
products.  BetaField._settle is the one loop that refines the bracket
until a decision holds on the enclosure.  Two decisions on integer
numerators run it: BetaField.sign_nums, the one sign decision, which
FieldElement.sign and expansion.py's big_l call, and
BetaField.floor_nums, the one floor decision, which FieldElement.floor,
expansion.py's greedy step and the shift radix system's preimages call.
BetaField.linear_floor gives the shift radix system's tau a first try:
it floors sum_j l_j R_j(beta) for integer rows R_j from a table of each
row's enclosure on the bracket it was built on, a dot product of l with
d - 1 enclosures, and falls back to floor_nums on the numerators where
the table leaves the floor open.
FieldElement.inverse runs Cayley-Hamilton on the integer matrix of
multiplication by the element's numerators.

Power-basis arithmetic lives here, and no other module imports fractions.
Addition and subtraction bring two pairs over the lcm of their
denominators.  BetaField.times_beta is the one beta * v (a shift, one
reduction by beta^d = sum_i a_i beta^i): it builds the rows of beta^n,
the integer columns n, n beta, ..., n beta^{d-1} (BetaField._columns)
that FieldElement.__mul__ and FieldElement.inverse read on the
numerators of their factors, and expansion.py's greedy step.
BetaField.horner_inverse_beta is the one division by beta: it solves the
same relation for n / beta and runs Horner's rule in beta^{-1} over a
digit word on integer numerators, reduced once per call; expansion.py's
nu, beta_expand and frac_part and the negative powers of beta call it.
A power of beta is built when asked for and
never memoized, since its numerators grow with its exponent:
BetaField.beta_row(n) is n times_beta shifts of the row of 1,
beta_power(n) is that row for n >= 0 and one horner_inverse_beta over
-n zero digits for n < 0, and expansion.py's big_l walks its own row.

Values derived from the field alone (floor(beta), the unit-disk
profile; in expansion.py d_beta(1) with the T-orbit of 1, the
quasi-greedy word of 1, the factors 1 / (1 - beta^{-p}) and xi; in
normalization.py the right sides of the carry certificates) live in one
per-field memo behind BetaField.memo, which publishes each
entry with dict.setdefault: every thread gets the first value built.
The same memo holds five dicts keyed by inputs: expansion.py's
"orbits", from d_beta's start states to their words, its "cycles", from
the states of the cycles its walks close to their periodic words and
rotations, and its period values, nu's value of each period; and
normalization.py's word values and free-block scans.  Each publishes
its entries with dict.setdefault as well (expansion.bounded_memo and
expansion._publish_cycle), so an entry never changes once published;
bounded dicts are only cleared, when they hold
expansion.ORBIT_MEMO_BOUND (4,096) entries, and an entry built again
after a clear is equal to the old one, not the same object.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import partial
from operator import mul
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

from . import polys
from .errors import (
    FieldMismatch,
    InvariantViolation,
    NoRootAboveOne,
    Reducible,
)
from .polys import horner

_REFINE_CAP = 10**6

_V = TypeVar("_V")
_C = TypeVar("_C", int, Fraction)


class BetaField:
    """The number field Q(beta), beta the largest real root > 1 of p.

    The isolating interval only ever shrinks; refinement swaps in a new
    dyadic bracket (lo, hi, k) with one assignment, under a lock, so
    concurrent readers always observe a valid bracket and concurrent
    refinements each halve it.  The memo only ever gains entries, and an
    entry never changes once published; bounded dicts are only cleared.
    A linear_floor callable keeps its own table of row enclosures, which
    it replaces with one assignment.  Everything else is immutable after
    construction.
    """

    def __init__(self, coeffs: Sequence[int]):
        coeffs = tuple(int(a) for a in coeffs)
        if len(coeffs) < 2:
            raise Reducible("degree must be at least 2")
        if coeffs[0] == 0:
            raise Reducible("constant term a_0 must be nonzero (x divides p)")
        self.coeffs = coeffs
        self.degree = len(coeffs)
        # p(x) = -a_0 - a_1 x - ... - a_{d-1} x^{d-1} + x^d, low to high
        self.poly = tuple(-a for a in coeffs) + (1,)
        factor = polys.least_factor(self.poly)
        if factor is not None:
            raise Reducible(
                f"{self.poly_str()} factors over Q: {polys.format_poly(factor)} divides it"
            )
        self._bracket = self._isolate_largest_root()
        self._refine_lock = threading.Lock()
        self._memo: dict = {}

    # -- construction helpers ------------------------------------------------

    def _isolate_largest_root(self) -> tuple[int, int, int]:
        """Bisect [1, 1 + max(1, |a_i|)] on dyadic points until it holds
        beta alone; returned as a reduced dyadic bracket."""
        p = self.poly
        # one Sturm chain of integer polynomials; the sign variations at lo
        # and hi carry over from step to step, and V(a) - V(b) counts the
        # roots in (a, b]
        chain = polys.sturm_chain(p)
        lo, hi, k = 1, 1 + max(1, max(abs(c) for c in p[:-1])), 0
        vlo = polys.sturm_variations(chain, lo, k)
        vhi = polys.sturm_variations(chain, hi, k)
        if vlo == vhi:
            raise NoRootAboveOne(f"{self.poly_str()} has no real root above 1")
        while True:
            mid = lo + hi  # the midpoint over 2^(k+1)
            lo, hi, k = lo << 1, hi << 1, k + 1
            vmid = polys.sturm_variations(chain, mid, k)
            if vmid > vhi:
                lo, vlo = mid, vmid
            else:
                hi, vhi = mid, vmid
            if lo > 1 << k and vlo - vhi == 1:
                break
        while k and not (lo | hi) & 1:
            lo, hi, k = lo >> 1, hi >> 1, k - 1
        # p is monic and beta its largest real root, so p < 0 at lo and
        # p > 0 at hi: refinement keeps the half where p changes sign
        if not horner(p, (lo, lo, k))[0] < 0 < horner(p, (hi, hi, k))[0]:
            raise InvariantViolation("isolating interval lost its sign change")
        return lo, hi, k

    # -- public surface ------------------------------------------------------

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        lo, hi, k = self._bracket
        return Fraction(lo, 1 << k), Fraction(hi, 1 << k)

    def refine(self) -> None:
        """Halve the isolating interval once."""
        with self._refine_lock:
            lo, hi, k = self._bracket
            mid = lo + hi  # the midpoint over 2^(k+1)
            v, _, _ = horner(self.poly, (mid, mid, k + 1))
            if v == 0:
                raise InvariantViolation("rational midpoint is a root of an irreducible p")
            if v < 0:
                self._bracket = (mid, hi << 1, k + 1)
            else:
                self._bracket = (lo << 1, mid, k + 1)

    def _settle(self, nums: Sequence[int], decide: Callable[[int, int, int], _V | None]) -> _V:
        """The first non-None decide(a, b, s), where [a / 2^s, b / 2^s]
        encloses sum_i nums[i] beta^i; the bracket is halved between tries.

        This is the package's one refinement loop: sign_nums and
        floor_nums run it.  The enclosure shrinks to the value, so the loop ends once
        decide settles every narrow enough enclosure.
        """
        for _ in range(_REFINE_CAP):
            verdict = decide(*horner(nums, self._bracket))
            if verdict is not None:
                return verdict
            self.refine()
        raise InvariantViolation("refinement exceeded the safety cap")

    def sign_nums(self, nums: Sequence[int]) -> int:
        """Exact sign in {-1, 0, +1} of sum_i nums[i] beta^i.

        This is the package's one sign decision: the sign of the constant
        when every higher coordinate is zero, otherwise settled once the
        enclosure no longer holds 0.
        """
        if not any(nums[1:]):
            return (nums[0] > 0) - (nums[0] < 0)
        return self._settle(nums, _enclosure_sign)

    def floor_nums(self, nums: Sequence[int], den: int) -> int:
        """Exact floor of (sum_i nums[i] beta^i) / den, den > 0.

        This is the package's one floor decision: a rational value at once,
        others once the enclosure no longer straddles an integer.
        """
        if not any(nums[1:]):
            return nums[0] // den

        def decide(vlo: int, vhi: int, s: int) -> int | None:
            scale = den << s
            k = vhi // scale
            return k if vlo // scale == k else None

        return self._settle(nums, decide)

    def linear_floor(self, rows: Sequence[Sequence[int]]) -> Callable[[Sequence[int]], int]:
        """The map l -> floor(sum_j l_j R_j(beta)) for integer rows R_j of
        power-basis numerators over den 1, len(l) == len(rows).

        Its first try reads a table of each row's enclosure on the bracket
        it was built on, kept as centre c_j = lo_j + hi_j and width
        w_j = hi_j - lo_j over 2^(s+1): sum_j l_j R_j(beta) lies in
        [m - r, m + r] / 2^(s+1) for m = sum_j l_j c_j and
        r = sum_j |l_j| w_j, and the floor is decided when both ends have
        the same one.  Otherwise floor_nums decides it on the numerators,
        and when that refined the bracket the rows are enclosed again and
        the new table swapped in with one assignment.  Every bracket the
        field has held contains beta, so an older table, as a thread may
        read it, still encloses the value and every floor stays exact.
        """
        rows = tuple(map(tuple, rows))
        if any(len(row) != self.degree for row in rows):
            raise ValueError(f"expected rows of {self.degree} numerators")
        cols = tuple(zip(*rows))
        table = None

        def enclose() -> None:
            nonlocal table
            bracket = self._bracket
            ends = [horner(row, bracket) for row in rows]
            centres = tuple(a + b for a, b, _ in ends)
            widths = tuple(b - a for a, b, _ in ends)
            table = (bracket, centres, widths, ends[0][2] + 1)

        def floor(vec: Sequence[int]) -> int:
            bracket, centres, widths, s = table
            m = sum(map(mul, vec, centres))
            r = sum(map(mul, map(abs, vec), widths))
            k = (m + r) >> s
            if (m - r) >> s == k:
                return k
            k = self.floor_nums([sum(map(mul, vec, col)) for col in cols], 1)
            if self._bracket is not bracket:
                enclose()
            return k

        enclose()
        return floor

    def times_beta(self, v: Sequence[_C]) -> list[_C]:
        """beta * v for power-basis coordinates v (ints or Fractions): a
        shift, and one reduction by beta^d = sum_i a_i beta^i when the top
        coordinate is nonzero.  This is the package's one beta-shift."""
        top = v[-1]
        if not top:
            return [top, *v[:-1]]
        a = self.coeffs
        return [top * a[0]] + [v[i - 1] + top * a[i] for i in range(1, self.degree)]

    def horner_inverse_beta(
        self, digits: Sequence[int], nums: Sequence[int], den: int
    ) -> "FieldElement":
        """sum_{n=1}^m digits[n-1] beta^{-n} + beta^{-m} (sum_i nums[i] beta^i) / den,
        den > 0, by Horner's rule in beta^{-1} on integer numerators over
        one running denominator.  This is the package's one division by
        beta.

        Each digit adds digit * den to the constant numerator n_0, then
        divides by beta: by beta^d = sum_i a_i beta^i,
        a_0 (n / beta) = a_0 (n_1, ..., n_{d-1}, 0) + n_0 (-a_1, ..., -a_{d-1}, 1)
        over a_0 den, with both sides divided by g = gcd(n_0, a_0), signed
        as a_0: the running denominator stays positive and does not grow
        by factors that n_0 cancels.  A plain shift when n_0 = 0.  The
        pair is reduced once, at the end (from_numerators).
        """
        a0 = self.coeffs[0]
        low = [-a for a in self.coeffs[1:]]
        nums = list(nums)
        for digit in reversed(digits):
            n0 = nums[0] + digit * den
            if not n0:
                nums = [*nums[1:], 0]
                continue
            g = math.gcd(n0, a0) if a0 > 0 else -math.gcd(n0, a0)
            q, r = a0 // g, n0 // g
            nums = [q * n + r * c for n, c in zip(nums[1:], low)]
            nums.append(r)
            den *= q
        return self.from_numerators(nums, den)

    def _columns(self, nums: Sequence[int]) -> list[list[int]]:
        """The columns n, n beta, ..., n beta^{d-1} of multiplication by
        n = sum_i nums[i] beta^i, each times_beta of the column before."""
        cols = [list(nums)]
        for _ in range(1, self.degree):
            cols.append(self.times_beta(cols[-1]))
        return cols

    def poly_str(self) -> str:
        return polys.format_poly(self.poly)

    def __repr__(self) -> str:
        return f"BetaField({self.poly_str()})"

    def __eq__(self, other) -> bool:
        return isinstance(other, BetaField) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __reduce__(self):
        # the lock cannot be pickled; a copy is rebuilt from p alone
        return BetaField, (self.coeffs,)

    def memo(self, key: Hashable, build: Callable[[], _V]) -> _V:
        """The value for key; on a miss build() runs, and dict.setdefault
        publishes the first result built, which every caller then gets
        (the keys hash in C, so setdefault is one atomic step)."""
        if key in self._memo:
            return self._memo[key]
        return self._memo.setdefault(key, build())

    def zero(self) -> "FieldElement":
        return FieldElement._new(self, (0,) * self.degree, 1)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def from_rational(self, q) -> "FieldElement":
        q = q if type(q) is int else Fraction(q)
        return FieldElement._new(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def from_coords(self, coords: Iterable) -> "FieldElement":
        return FieldElement(self, coords)

    def from_numerators(self, nums: Iterable[int], den: int) -> "FieldElement":
        """(sum_i nums[i] beta^i) / den for integers nums and den != 0, in
        canonical form: den > 0 and gcd(den, *nums) = 1.  This is the one
        constructor that reduces a pair; an element's nums and den read
        the pair back."""
        nums = tuple(nums)
        if len(nums) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(nums)}")
        if den <= 0:
            if den == 0:
                raise ZeroDivisionError(f"numerators {list(nums)} over the denominator 0")
            nums, den = tuple(-n for n in nums), -den
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = tuple(n // g for n in nums), den // g
        return FieldElement._new(self, nums, den)

    def beta(self) -> "FieldElement":
        return FieldElement._new(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def beta_inverse(self) -> "FieldElement":
        """1/beta."""
        return self.beta_power(-1)

    def beta_row(self, n: int) -> tuple[int, ...]:
        """The integer power-basis coordinates of beta^n, n >= 0: n
        BetaField.times_beta shifts of the row of 1, built on each call."""
        if n < 0:
            raise ValueError("beta_row needs n >= 0; beta^n is integral only there")
        row = [1] + [0] * (self.degree - 1)
        for _ in range(n):
            row = self.times_beta(row)
        return tuple(row)

    def beta_power(self, n: int) -> "FieldElement":
        """beta^n for any integer n, built on each call: beta_row for
        n >= 0, and for n < 0 one horner_inverse_beta over -n zero digits."""
        if n >= 0:
            return FieldElement._new(self, self.beta_row(n), 1)
        return self.horner_inverse_beta((0,) * -n, self.beta_row(0), 1)

    def floor_beta(self) -> int:
        return self.memo("floor_beta", lambda: self.beta().floor())


def make_field(coeffs: Sequence[int]) -> BetaField:
    """Construct Q(beta) from (a_0, ..., a_{d-1}).

    Raises Reducible when p factors over Q, naming the monic factor of
    least degree (decided exactly at every degree by polys.least_factor),
    and NoRootAboveOne when no real root exceeds 1.
    """
    return BetaField(coeffs)


def _enclosure_sign(vlo: int, vhi: int, s: int) -> int | None:
    """The sign of a value enclosed in [vlo, vhi] / 2^s, None while 0 is inside."""
    if vlo > 0:
        return 1
    if vhi < 0:
        return -1
    return None


class FieldElement:
    """An element of Q(beta): integer power-basis numerators over one
    denominator, (sum_i nums[i] beta^i) / den.

    The pair is canonical: den > 0 and gcd(den, *nums) = 1, so equal
    elements have equal (nums, den) and equality and hashing compare the
    integers.  BetaField.from_numerators is the one constructor that puts
    a pair into this form; FieldElement(field, coords) takes external
    rationals (ints, Fractions, strings) and stores the same form.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: BetaField, coords: Iterable):
        coords = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coords]
        if len(coords) != field.degree:
            raise ValueError(f"expected {field.degree} coordinates, got {len(coords)}")
        # the lcm of reduced denominators leaves no common factor with the
        # scaled numerators, so the pair is canonical as built
        den = math.lcm(*(c.denominator for c in coords))
        self.field = field
        self.nums = tuple(c.numerator * (den // c.denominator) for c in coords)
        self.den = den

    @classmethod
    def _new(cls, field: BetaField, nums: tuple[int, ...], den: int) -> "FieldElement":
        """An element from a pair that is canonical already."""
        x = object.__new__(cls)
        x.field, x.nums, x.den = field, nums, den
        return x

    # -- representation ------------------------------------------------------

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The rational power-basis coordinates, built on each read."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __repr__(self) -> str:
        return f"FieldElement({list(map(str, self.coords))})"

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is irrational")
        return Fraction(self.nums[0], self.den)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.field.coeffs, self.nums, self.den))

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch("elements belong to different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def _plus(self, other: "FieldElement", sign: int) -> "FieldElement":
        """self + sign * other, over the lcm of the two denominators."""
        den, oden = self.den, other.den
        g = math.gcd(den, oden)
        m, om = oden // g, sign * (den // g)
        nums = [a * m + b * om for a, b in zip(self.nums, other.nums)]
        den *= m
        return self.field.from_numerators(nums, den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement._new(self.field, tuple(-a for a in self.nums), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        """n m / (den den') for self = n / den, other = m / den': m weights n's columns."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        cols = self.field._columns(self.nums)
        prod = [sum(m * col[i] for m, col in zip(other.nums, cols)) for i in range(self.field.degree)]
        return self.field.from_numerators(prod, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse by Cayley-Hamilton in integers.

        Write self = n / den with n in Z[beta].  Multiplication by n has
        the integer matrix M whose columns are n, n beta, ...,
        n beta^{d-1}; with det(xI - M) = x^d + c_{d-1} x^{d-1} + ... + c_0,
        M annihilates it, so n (n^{d-1} + c_{d-1} n^{d-2} + ... + c_1)
        = -c_0.  c_0 = +-N(n) is nonzero because p is irreducible.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        d = self.field.degree
        nums, den = self.nums, self.den
        if self.is_rational():
            return self.field.from_numerators((den,) + (0,) * (d - 1), nums[0])
        M = list(zip(*self.field._columns(nums)))
        cs = polys.charpoly(M)
        if cs[0] == 0:
            raise InvariantViolation("an element of norm zero; field polynomial not irreducible")
        # Horner in n on integer vectors: v = n v + c for c = c_{d-1}, ..., c_1
        v = [1] + [0] * (d - 1)
        for c in cs[-2:0:-1]:
            v = [sum(m * x for m, x in zip(row, v)) for row in M]
            v[0] += c
        return self.field.from_numerators((-den * x for x in v), cs[0])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.field.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    # -- exact decisions -----------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        return self.field.sign_nums(self.nums)

    def floor(self) -> int:
        """Exact integer part."""
        return self.field.floor_nums(self.nums, self.den)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0


def unit_disk_profile(field: BetaField) -> tuple[int, int, int]:
    """(inside, on, outside) root counts of p relative to the unit circle."""
    return field.memo("disk_profile", partial(polys.unit_disk_root_profile, field.poly))


def is_pisot(field: BetaField) -> bool:
    """True iff beta is a Pisot number.

    Decided by exact root counting against the unit circle: beta is Pisot
    iff exactly one root (beta itself) lies outside and none lie on it.
    A root on the circle is reported through unit_disk_profile; the verdict
    is then False.  Cross-checked for cubics against the coefficient
    criterion |b-1| < a+c and c^2 - b < sgn(c)(1+ac).
    """
    inside, on, outside = unit_disk_profile(field)
    verdict = on == 0 and outside == 1
    if field.degree == 3:
        a, b, c = field.coeffs[2], field.coeffs[1], field.coeffs[0]
        if verdict != cubic_pisot_criterion(a, b, c):
            raise InvariantViolation(
                f"disk counting and the cubic coefficient criterion disagree on {field}"
            )
    return verdict


def cubic_pisot_criterion(a: int, b: int, c: int) -> bool:
    """Coefficient test for x^3 - ax^2 - bx - c to have a Pisot root."""
    sgn_c = (c > 0) - (c < 0)
    return abs(b - 1) < a + c and c * c - b < sgn_c * (1 + a * c)
