"""Exact univariate polynomial arithmetic in integers.

Polynomials are dense little-endian tuples of integers; the empty tuple
is the zero polynomial.  Sturm chains, the Schur-Cohn form, its
characteristic polynomial and their sign counts are built and evaluated
in integers: a Sturm chain member is scaled to a primitive integer
polynomial, and its sign at a dyadic point n / 2^k is that of one
integer Horner (horner).  Everything here is exact: no floating point.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import FactorBudgetExceeded, InvariantViolation

Poly = tuple[int, ...]


def eval_at(p: Sequence, x):
    """p(x) for a rational x; an int when p and x are integral."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def eval_interval(p: Sequence, lo, hi) -> tuple:
    """Enclosure of p([lo, hi]) for rational p, lo and hi, by interval
    Horner evaluation.

    The field kernel runs horner on its dyadic bracket in integers; this
    rational form is the tests' reference for it.
    """
    vlo = vhi = p[-1] if p else 0
    for c in reversed(p[:-1]):
        prods = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(prods) + c, max(prods) + c
    return vlo, vhi


def horner(nums: Sequence[int], bracket: tuple[int, int, int]) -> tuple[int, int, int]:
    """Interval Horner of sum_i nums[i] x^i over x in the bracket
    [lo / 2^k, hi / 2^k], 0 < lo <= hi, in integers.

    Returns (a, b, s) with the enclosure [a / 2^s, b / 2^s], s = k t for
    t = len(nums) - 1 Horner steps.  With both ends positive the low end
    of [a, b] * [lo, hi] is a * lo or a * hi by the sign of a, and the
    high end likewise, so each step takes two products.  A point bracket
    (n, n, k) is exact for any sign of n: a = b is the integer
    p(n / 2^k) 2^s.
    """
    lo, hi, k = bracket
    a = b = nums[-1]
    s = 0
    for n in nums[-2::-1]:
        s += k
        c = n << s
        a = (a * lo if a >= 0 else a * hi) + c
        b = (b * hi if b >= 0 else b * lo) + c
    return a, b, s


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm sequence p, p', -rem(...), ... of a squarefree integer
    polynomial of positive degree, built in integers: each member is a
    positive multiple of the rational one (_positive_rem, then division
    by the gcd of the coefficients), so every sign, and so every
    variation count, is unchanged."""
    chain = [_primitive(p), _primitive([i * c for i, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        r = _positive_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _primitive(p: Sequence[int]) -> Poly:
    """A nonzero integer polynomial divided by the gcd of its coefficients."""
    g = math.gcd(*p)
    return tuple(c // g for c in p)


def _positive_rem(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """|lc(b)|^e rem(a, b) for integer polynomials, e >= 0: each step
    scales the running remainder by |lc(b)| > 0 and then cancels its top
    coefficient against b."""
    r = list(a)
    db = len(b) - 1
    lead = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    for i in range(len(r) - 1, db - 1, -1):
        c = sign * r[i]
        if c:
            r = [lead * v for v in r]
            for j, bj in enumerate(b):
                r[i - db + j] -= c * bj
    while r and not r[-1]:
        r.pop()
    return tuple(r)


def sign_variations(values: Sequence) -> int:
    """Sign changes along a sequence of rationals, zeros skipped."""
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def sturm_variations(chain: list[Poly], n: int, k: int) -> int:
    """Sign variations of a Sturm chain at the dyadic point n / 2^k, each
    member's sign read off one integer horner; InvariantViolation when
    the point is a root of chain[0], which callers rule out."""
    values = [horner(c, (n, n, k))[0] for c in chain]
    if values[0] == 0:
        raise InvariantViolation(f"the Sturm point {n}/2^{k} is a root")
    return sign_variations(values)


def count_real_roots(p: Poly, lo: int, hi: int) -> int:
    """Number of distinct real roots of squarefree integer p in (lo, hi]
    for integers lo < hi.

    Requires p(lo) != 0 and p(hi) != 0 (callers arrange this).
    """
    chain = sturm_chain(p)
    return sturm_variations(chain, lo, 0) - sturm_variations(chain, hi, 0)


# divisor choices one least_factor call may try, about 1 s of search; the
# polynomials of the tests (at most 11,142 choices), demos, README and the
# cubic and quartic grids use far fewer
_KRONECKER_CAP = 100_000

# trial divisions one _divisors call may make, about 0.1 s, so |n| up to
# 10^12; the polynomials of the tests (at most 849, x^10+720720 at x = 2),
# demos, README and both grids need far fewer
_DIVISOR_CAP = 1_000_000


def _divisors(n: int) -> list[int]:
    """The positive and negative divisors of a nonzero integer, by trial
    division up to sqrt(|n|); FactorBudgetExceeded when that takes more
    than _DIVISOR_CAP steps."""
    n = abs(n)
    root = math.isqrt(n)
    if root > _DIVISOR_CAP:
        raise FactorBudgetExceeded(
            f"listing the divisors of {n} takes more than {_DIVISOR_CAP} trial divisions"
        )
    out: list[int] = []
    for a in range(1, root + 1):
        if n % a == 0:
            out += [a] if a * a == n else [a, n // a]
    return out + [-a for a in out]


def integer_roots(p: Poly) -> list[int]:
    """Integer roots of an integer polynomial (rational roots of a monic one)."""
    if not p:
        return []
    const = p[0]
    if const == 0:
        roots = integer_roots(p[1:])
        return sorted(set(roots) | {0})
    return sorted(r for r in _divisors(const) if eval_at(p, r) == 0)


def least_factor(p: Sequence[int]) -> tuple[int, ...] | None:
    """The monic factor of least positive degree of a monic integer
    polynomial p of degree >= 2 (coefficients low to high), or None when
    p is irreducible over Q.

    Kronecker's method.  By Gauss's lemma a reducible p has a monic
    integer factor g of degree k <= deg(p) / 2, and g(x) divides p(x) at
    every integer x.  Degree 1 is the rational root test.  For each
    k >= 2 in turn, g - x^k is fixed by its values at k integer points,
    so every choice of divisors of p at the points 0, 1, -1, 2, ... is
    interpolated in Newton form.  Divided differences of an integer
    polynomial at integer points are integers, so a non-integer one drops
    the choice made so far.  A candidate is kept only if it divides p
    exactly.  The first factor found has the least degree, so it is
    irreducible.  The search runs in integer arithmetic.

    The search is exponential in the degree and in the number of
    divisors, so it tries at most _KRONECKER_CAP divisor choices over all
    k and raises FactorBudgetExceeded past that.
    """
    p = tuple(int(c) for c in p)
    roots = integer_roots(p)
    if roots:
        return (-roots[0], 1)
    xs: list[int] = []
    divisors: list[list[int]] = []
    budget = [_KRONECKER_CAP]
    for k in range(2, (len(p) - 1) // 2 + 1):
        while len(xs) < k:
            i = len(xs)
            x = (i + 1) // 2 if i % 2 else -(i // 2)
            xs.append(x)
            divisors.append(_divisors(int(eval_at(p, x))))
        g = _kronecker(p, k, xs, divisors, [], budget)
        if g is not None:
            return g
    return None


def _kronecker(
    p: tuple[int, ...],
    k: int,
    xs: list[int],
    divisors: list[list[int]],
    diag: list[int],
    budget: list[int],
) -> tuple[int, ...] | None:
    """Depth-first over g(xs[m]) in divisors[m] for a monic degree-k
    factor g, where diag[j] is the divided difference h[xs[j], ..., xs[m-1]]
    of h = g - x^k: the Newton coefficients of h on the points in reverse.
    budget[0] counts down the divisor choices still allowed."""
    m = len(diag)
    if m == k:
        h = [diag[0]]
        for d, x in zip(diag[1:], xs[1:]):
            # h * (X - x) + d
            h = [d - x * h[0]] + [h[i - 1] - x * h[i] for i in range(1, len(h))] + [h[-1]]
        g = (*h, 1)
        return g if _divides(g, p) else None
    x = xs[m]
    for y in divisors[m]:
        budget[0] -= 1
        if budget[0] < 0:
            raise FactorBudgetExceeded(
                f"Kronecker's search tried {_KRONECKER_CAP} divisor choices "
                f"for {format_poly(p)} without deciding it"
            )
        new = [y - x**k]  # h[xs[m]], then h[xs[j], ..., xs[m]] for j = m-1 .. 0
        for j in range(m - 1, -1, -1):
            q, r = divmod(new[-1] - diag[j], x - xs[j])
            if r:
                break
            new.append(q)
        else:
            g = _kronecker(p, k, xs, divisors, new[::-1], budget)
            if g is not None:
                return g
    return None


def _divides(g: Sequence[int], p: Sequence[int]) -> bool:
    """Whether monic g divides p in Z[x]."""
    r = list(p)
    k = len(g) - 1
    for i in range(len(r) - 1, k - 1, -1):
        c = r[i]
        if c:
            for j in range(k + 1):
                r[i - k + j] -= c * g[j]
    return not any(r[:k])


def format_poly(p: Sequence[int]) -> str:
    """A monic integer polynomial, coefficients low to high, written as
    "x^3-x-1"."""
    terms = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        mono = "" if i == 0 else "x" if i == 1 else f"x^{i}"
        mag = "" if abs(c) == 1 and i > 0 else str(abs(c))
        terms.append(("-" if c < 0 else "+") + mag + mono)
    return "".join(terms).lstrip("+")


# ---------------------------------------------------------------------------
# Root counting relative to the unit circle (exact Schur-Cohn form)
# ---------------------------------------------------------------------------


def _integers(values: Iterable) -> list[int]:
    """The values as ints; ValueError unless every one is integral."""
    values = list(values)
    ints = [int(v) for v in values]
    if ints != values:
        raise ValueError("expected integer coefficients")
    return ints


def schur_cohn_matrix(p: Poly) -> list[list[int]]:
    """The symmetric Schur-Cohn form of an integer polynomial p.

    H[j][k] = sum_m (a_{j-m} a_{k-m} - a_{n-j+m} a_{n-k+m});  its signature
    is (#roots outside unit circle) - (#roots inside) when p and its
    reciprocal are coprime, and it is singular otherwise.
    """
    n = len(p) - 1
    a = _integers(p)

    def coef(i: int) -> int:
        return a[i] if 0 <= i <= n else 0

    H = [[0] * n for _ in range(n)]
    for j in range(n):
        for k in range(n):
            s = 0
            for m in range(min(j, k) + 1):
                s += coef(j - m) * coef(k - m) - coef(n - j + m) * coef(n - k + m)
            H[j][k] = s
    return H


def charpoly(M: list[list[int]]) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - M) of an integer matrix by
    Faddeev-LeVerrier, in integers.

    With M_0 = I, M_k = M M_{k-1} + c_{n-k+1} I, each coefficient is
    c_{n-k} = -tr(M M_{k-1}) / k.  The c_i of an integer matrix are
    integers, so by induction every M_k is integral and each division is
    exact; a remainder raises.
    """
    M = [_integers(row) for row in M]
    n = len(M)
    cs = [0] * (n + 1)
    cs[n] = 1
    Mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        Mk = _mat_mul(M, Mk)
        c, r = divmod(-sum(Mk[i][i] for i in range(n)), k)
        if r:
            raise InvariantViolation(f"Faddeev-LeVerrier trace not divisible by {k}")
        cs[n - k] = c
        for i in range(n):
            Mk[i][i] += c
    return tuple(cs)


def _mat_mul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    n = len(A)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if A[i][k]:
                aik = A[i][k]
                for j in range(n):
                    out[i][j] += aik * B[k][j]
    return out


def symmetric_sign_counts(M: list[list[int]]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric integer
    matrix.

    Descartes' rule of signs is exact on the characteristic polynomial
    because a symmetric matrix has a real spectrum.
    """
    cp = charpoly(M)
    zeros = 0
    cs = list(cp)
    while cs and cs[0] == 0:
        cs.pop(0)
        zeros += 1
    pos = sign_variations(cs)
    neg_cs = [c if i % 2 == 0 else -c for i, c in enumerate(cs)]
    neg = sign_variations(neg_cs)
    return pos, neg, zeros


def palindromic_u_transform(g: Poly) -> Poly:
    """Write a palindromic even-degree integer g as x^m * h(x + 1/x);
    return h.

    Uses the recursion C_0 = 2, C_1 = u, C_{k+1} = u C_k - C_{k-1} for
    x^k + x^{-k} = C_k(x + 1/x).  Each C_k is monic of degree k, so h has
    degree m and leading coefficient g[2m].
    """
    n = len(g) - 1
    if n % 2 != 0 or any(g[i] != g[n - i] for i in range(n + 1)):
        raise ValueError("not a palindromic polynomial of even degree")
    m = n // 2
    C = [[2], [0, 1]]
    for _ in range(2, m + 1):
        nxt = [0] + C[-1]
        for i, c in enumerate(C[-2]):
            nxt[i] -= c
        C.append(nxt)
    h = [g[m]] + [0] * m
    for k in range(1, m + 1):
        for i, c in enumerate(C[k]):
            h[i] += g[m + k] * c
    return tuple(h)


def unit_disk_root_profile(p: Poly) -> tuple[int, int, int]:
    """(inside, on, outside) root counts of p w.r.t. |z| = 1.

    p must be monic with integer coefficients, irreducible over Q and of
    degree at least 2, as every field polynomial is (make_field proves
    it).  Then p has neither 1 nor -1 as a root, and two cases cover
    every p:

    - p is palindromic.  Its roots come in pairs z, 1/z, its degree is
      even (a palindromic p of odd degree has the root -1), and p is
      x^m * h(x + 1/x).  A pair on the circle is a root of h in (-2, 2),
      counted by Sturm: h is irreducible too, so squarefree, and
      h(+-2) != 0.  The other roots split evenly inside and outside.
    - Any other p shares no root with its reciprocal: an irreducible p
      that does divides it, so equals it or its negative, and a p equal
      to minus its reciprocal has the root 1.  A root on the circle would
      be shared (its reciprocal is its conjugate), so none lies there,
      and the Schur-Cohn form is nonsingular with signature
      outside - inside.
    """
    n = len(p) - 1
    if p == p[::-1]:
        on = 2 * count_real_roots(palindromic_u_transform(p), -2, 2)
        return (n - on) // 2, on, (n - on) // 2
    pos, negk, zeros = symmetric_sign_counts(schur_cohn_matrix(p))
    if zeros != 0:
        raise ValueError("singular Schur-Cohn form: p shares a root with its reciprocal")
    outside = (n + pos - negk) // 2
    return n - outside, 0, outside
