"""Digit normalization: the carry rewrite and x -> x+1.

An admissible word factors uniquely into maximal prefixes of the
quasi-greedy expansion of 1, each closed by a strictly smaller digit
(its "free blocks"; the scan lives in expansion, beside the quasi-greedy
word it reads, and is re-exported here).  Incrementing a digit generally
breaks admissibility; the carry rewrite repairs it by bumping the digit at the
enclosing block boundary and subtracting the quasi-greedy word from the
tail, preserving the value exactly.  Iterating the rewrite from the
innermost block outward normalizes the expansion of x + 1 and, as a by
product, certifies the identity

    frac(x + 1) - frac(x) = theta - sum_j omega_j T^j(1)

with theta in {0, 1} and nonnegative integers omega_j.  Every step here
self-checks against exact field arithmetic.  add_one decides
L(x + 1) once: it reads x's word as the greedy word of beta^{-L(x+1)} x,
and its cross-check is the direct T-walk of x + 1 at that exponent
(expansion._frac_at), which is frac(x + 1) and shares nothing with the
cascade.

Normalization in a Pisot base is a finite transducer, so the cascade
keeps meeting the same digit words, across calls and within one pass
over consecutive x.  add_one and carry_step therefore read word values
(_value, over nu) and free-block scans (_blocks, over free_blocks, a
failed scan stored as None, "not admissible") from two per-field
memos keyed by the canonical Word, "word_values" and "free_blocks".
Both are expansion.bounded_memo dicts, cleared when they hold
ORBIT_MEMO_BOUND entries like d_beta's "orbits" memo of start words.
A hit is the value or decision for that exact word, and every check
still runs on every call.  nu, free_blocks, is_admissible and
beta_expand in expansion, and so classify, fill neither memo.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CascadeOverrun, InvariantViolation, NotAdmissible, OutOfRange
from .expansion import (
    DEFAULT_ORBIT_CAP,
    Expansion,
    FreeBlockDecomposition,
    _frac_at,
    big_l,
    bounded_memo,
    d_beta,
    d_beta_one,
    d_beta_star,
    free_blocks,
    frac_part,
    nu,
    t_orbit_of_one,
    xi,
    xi_t_power,
)
from .field import BetaField, FieldElement
from .words import Word, subtract


def _value(field: BetaField, w: Word) -> FieldElement:
    """nu(field, w), memoized per field under the canonical word w."""
    return bounded_memo(field, "word_values", w, lambda: nu(field, w))


def _blocks(field: BetaField, w: Word) -> FreeBlockDecomposition | None:
    """free_blocks(field, w), or None when w is not admissible, memoized
    per field under the canonical word w."""

    def scan() -> FreeBlockDecomposition | None:
        try:
            return free_blocks(field, w)
        except NotAdmissible:
            return None

    return bounded_memo(field, "free_blocks", w, scan)


def _raised_head(w: Word, k: int, n: int) -> list[int]:
    """The first k digits of w with digit k raised by one, then zeros up to n digits."""
    head = w.digits(k) + [0] * (n - k)
    head[k - 1] += 1
    return head


def carry_step(
    field: BetaField,
    w: Word,
    blocks: FreeBlockDecomposition,
    ell: int,
    tail: Word,
    block_index: int,
) -> Word:
    """One carry rewrite of the word with digit ell incremented and the
    given tail after position ell.

    Returns w[1, k_i - 1] (w_{k_i} + 1) 0^{ell-k_i-1} theta (tail minus the
    shifted quasi-greedy word), value-preserving by construction; the
    preservation and the nonnegativity inequality for the new tail value
    are both re-checked exactly.
    """
    i = block_index
    if i < 1:
        raise InvariantViolation("carry_step needs a block index >= 1")
    ki = blocks.k(i)
    kj = blocks.k(i + 1)
    if ell <= ki:
        raise InvariantViolation("increment position must lie beyond block k_i")
    dstar = d_beta_star(field)
    theta = 1 if ell < kj else 0

    # the incremented original: digit ell of w raised (theta = 1), or digit
    # k_{i+1} raised and zeros up to ell when ell lies past k_{i+1}
    incremented = _raised_head(w, ell if theta else kj, ell)
    if theta == 0:
        # the rewrite is only valid when positions k_i+1 .. ell copy the
        # quasi-greedy word; the cascade guarantees it, re-check anyway
        if incremented[ki:] != dstar.digits(ell - ki):
            raise InvariantViolation("carry fired outside the quasi-greedy prefix")

    new_tail = subtract(tail, dstar.shift(ell - ki))
    out = new_tail.prepend(_raised_head(w, ki, ell - 1) + [theta])

    # exact value preservation against the incremented original
    if _value(field, out) != _value(field, tail.prepend(incremented)):
        raise InvariantViolation("carry rewrite changed the value")
    gain = theta + _value(field, tail) - xi(field, ell - ki + 1)
    if gain.sign() < 0:
        raise InvariantViolation("carry tail value went negative")
    return out


@dataclass(frozen=True, slots=True)
class KeyWitness:
    """Certificate for frac(x+1) - frac(x) = theta - sum_j omega_j T^j(1)."""

    theta: int
    omegas: tuple[int, ...]
    lhs: FieldElement
    rhs: FieldElement
    verified: bool

    def to_json_dict(self) -> dict:
        return {
            "theta": self.theta,
            "omegas": list(self.omegas),
            "lhs": [str(c) for c in self.lhs.coords],
            "rhs": [str(c) for c in self.rhs.coords],
            "verified": self.verified,
        }


def _assemble_witness(
    field: BetaField, theta: int, xi_indices: list[int], lhs: FieldElement
) -> KeyWitness:
    """The certificate for lhs = frac(x+1) - frac(x) with the cascade's
    theta and xi indices, checked exactly.

    The right side theta - sum_j omega_j T^j(1) is memoized per field
    under ("witness_rhs", theta, omegas), inside the verified certificate
    that holds it as both sides: normalization in a Pisot base is a finite
    transducer, so a field's certificates take few shapes, and every call
    whose lhs equals the memoized right side returns that one object.  A
    mismatch raises InvariantViolation.
    """
    omegas: dict[int, int] = {}
    for m in xi_indices:
        j = xi_t_power(field, m)
        if xi(field, m) != t_orbit_of_one(field, j)[j]:
            raise InvariantViolation("xi value does not match its T-orbit representative")
        omegas[j] = omegas.get(j, 0) + 1
    top = max(omegas) if omegas else -1
    om = tuple(omegas.get(j, 0) for j in range(top + 1))

    def build() -> KeyWitness:
        orbit = t_orbit_of_one(field, top) if top >= 0 else []
        rhs = field.from_rational(theta)
        for j, o in enumerate(om):
            if o:
                rhs = rhs - o * orbit[j]
        return KeyWitness(theta, om, rhs, rhs, verified=True)

    held = field.memo(("witness_rhs", theta, om), build)
    if lhs != held.rhs:
        raise InvariantViolation("witness identity failed the exact check")
    return held


def add_one(x: FieldElement, cap: int = DEFAULT_ORBIT_CAP) -> tuple[Expansion, KeyWitness]:
    """Expansion of x + 1 computed from the expansion of x by carry
    propagation, together with the exact difference certificate.

    The cascade follows the innermost enclosing block of the incremented
    position outward; each round subtracts one xi value from the running
    tail and stops as soon as the candidate word is admissible.  The
    round count never exceeds the number of enclosing blocks.

    The exponent ell = L(x + 1) is decided once.  The word of x is the
    greedy word of beta^{-ell} x, which lies in [0, 1) since
    x < x + 1 < beta^ell: it is 0^{ell - L(x)} d_beta(beta^{-L(x)} x).
    cap bounds that orbit, ell - L(x) leading zero states included, and
    the orbit of 1.  The cascade's fractional part is checked against
    the direct T-walk T^ell(beta^{-ell} (x + 1)), which is frac(x + 1).
    """
    field = x.field
    x1 = x + 1
    ell = big_l(x1)
    # d_beta's range check rejects a negative x with x + 1 >= 0
    c = d_beta(field.horner_inverse_beta((0,) * ell, x.nums, x.den), cap)
    # free_blocks and xi read d_beta_star with the default budget; the
    # orbit of 1 counts against this call's cap first
    d_beta_one(field, cap)
    blocks = _blocks(field, c)
    if blocks is None:
        raise InvariantViolation("the greedy word of x is not admissible")
    i = blocks.locate(ell)
    theta = 1 if ell < blocks.k(i + 1) else 0

    tail = c.shift(ell)
    y = _value(field, tail)
    if tail != d_beta(y, cap):
        raise InvariantViolation("tail of the shifted word is not the greedy word of frac(x)")
    y0 = y

    cand = tail.prepend(_raised_head(c, ell, ell))
    xi_indices: list[int] = []
    n = 0
    while _blocks(field, cand) is None:
        if n >= i:
            raise CascadeOverrun("carry cascade exceeded its proven bound")
        cur = i - n
        m = ell - blocks.k(cur) + 1
        carry_step(field, c, blocks, ell, tail, cur)
        step_theta = theta if n == 0 else 0
        y = step_theta + y - xi(field, m)
        if y.floor() != 0:
            raise InvariantViolation("cascade tail value left [0, 1)")
        xi_indices.append(m)
        n += 1
        ki = blocks.k(cur)
        tail = d_beta(y, cap)
        cand = tail.prepend(_raised_head(c, ki, ell))

    if n == 0 and theta != 0:
        raise InvariantViolation("admissible zeroth candidate forces theta = 0")

    expansion = Expansion(ell, cand)
    lhs = y - y0
    if y != _frac_at(x1, ell):
        raise InvariantViolation("cascade fractional part disagrees with direct computation")
    return expansion, _assemble_witness(field, theta, xi_indices, lhs)


def witness_for_natural(N: int, field: BetaField, cap: int = DEFAULT_ORBIT_CAP) -> list[int]:
    """Nonnegative omega_n with frac(N) = -sum_{n>=1} omega_n T^n(1) mod Z.

    Built by accumulating the x -> x+1 certificates for 0, 1, ..., N-1;
    the constant terms theta and omega_0 drop modulo Z.  The congruence
    is verified exactly before returning.
    """
    if N < 0:
        raise OutOfRange("witness_for_natural needs N >= 0")
    acc: dict[int, int] = {}
    for k in range(N):
        _, wit = add_one(field.from_rational(k), cap)
        for j, o in enumerate(wit.omegas):
            if j >= 1 and o:
                acc[j] = acc.get(j, 0) + o
    top = max(acc) if acc else 0
    omegas = [acc.get(j, 0) for j in range(top + 1)]
    orbit = t_orbit_of_one(field, top)
    total = frac_part(field.from_rational(N))
    for j, o in enumerate(omegas):
        if o:
            total = total + o * orbit[j]
    if not (total.is_rational() and total.as_rational().denominator == 1):
        raise InvariantViolation("natural-number witness congruence failed")
    return omegas
