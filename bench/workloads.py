"""The benchmark's three workloads: inputs, tasks and output checks.

Each workload turns a seed into plain input data (coefficients, integers,
rational coordinates), builds its fields with ``make_field`` and runs one
library call sequence per task.  The library receives only the generated
inputs.  Output checks run after the timed loop and never inside it.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import betafin

# x^d - a_{d-1} x^{d-1} - ... - a_0 is given as (a_0, ..., a_{d-1}).
WITNESS_CATALOG = {
    "tribonacci": (1, 1, 1),
    "x^3-x-1": (1, 1, 0),
    "family-t2": (2, -4, 4),
    "family-t3": (3, -6, 6),
}
EXPAND_PANEL = {
    "x^2-3x+1": (-1, 3),
    "x^2-4x+2": (-2, 4),
    "tribonacci": (1, 1, 1),
    "x^3-x-1": (1, 1, 0),
    "tetranacci": (1, 1, 1, 1),
}

WITNESS_N_END = 400  # N ranges over 0 .. WITNESS_N_END - 1
WITNESS_BLOCK = 10  # consecutive N per block
GOLDEN = (5**0.5 - 1) / 2
EXPAND_MAX_DEN = 4
STREAM_LEN = 20_000


def word_key(expansion) -> str:
    """Exponent and digit word of an expansion as one exact string."""
    return f"{expansion.exponent}:{betafin.format_word(expansion.word)}"


def word_digest(expansion) -> str:
    return hashlib.sha256(word_key(expansion).encode()).hexdigest()[:16]


def cubic_grid() -> list[tuple[int, int, int]]:
    """(a, b, c) of every cubic Pisot x^3-ax^2-bx-c, 1<=a<=8, |b|,|c|<=5, c!=0.

    The Pisot test is the coefficient criterion |b-1| < a+c and
    c^2-b < sgn(c)(1+ac), evaluated here rather than by the library.
    """
    out = []
    for a in range(1, 9):
        for b in range(-5, 6):
            for c in range(-5, 6):
                sgn = (c > 0) - (c < 0)
                if c and abs(b - 1) < a + c and c * c - b < sgn * (1 + a * c):
                    out.append((a, b, c))
    return out


class Workload:
    """A seeded task stream over a fixed list of fields.

    ``specs`` holds the tasks as plain data; ``field_of(spec)`` names the
    field a task runs in.  With ``whole_passes`` the timed loop runs the
    whole list, in fresh fields each time, until the time is up; without
    it the list is a stream that the loop leaves when the time is up.
    """

    name = ""
    whole_passes = False
    trace_tasks = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def build_fields(self, keys=None) -> dict:
        keys = self.coeffs if keys is None else keys
        return {k: betafin.make_field(self.coeffs[k]) for k in keys}


class WitnessSweep(Workload):
    """add_one for runs of consecutive N over the carry-certificate catalog."""

    name = "witness_sweep"
    trace_tasks = 160

    def __init__(self, seed: int):
        super().__init__(seed)
        self.coeffs = dict(WITNESS_CATALOG)
        names = list(self.coeffs)
        # Block starts follow a Weyl sequence from a seeded offset per field,
        # so every prefix of the stream spreads evenly over 0 <= N < N_END;
        # task cost grows with N, and uniform random starts made throughput
        # depend on the seed.
        offsets = [self.rng.random() for _ in names]
        slots = WITNESS_N_END // WITNESS_BLOCK
        self.specs = []
        for block in range(STREAM_LEN // WITNESS_BLOCK):
            field, k = block % len(names), block // len(names)
            start = WITNESS_BLOCK * int(slots * ((offsets[field] + k * GOLDEN) % 1.0))
            self.specs.extend((names[field], n) for n in range(start, start + WITNESS_BLOCK))

    @staticmethod
    def field_of(spec):
        return spec[0]

    @staticmethod
    def run(field, spec):
        return betafin.add_one(field.from_rational(spec[1]))

    def check(self, fields, done, reference) -> list[bool]:
        """AC5's re-derivation: the witness is verified, frac(N+1) - frac(N)
        equals theta - sum omega_j T^j(1) over the T-orbit of 1, and the
        expansion of N+1 matches the stored greedy word."""
        ref = reference["witness_sweep"]
        frac_memo: dict = {}

        def frac(name, n):
            key = (name, n)
            if key not in frac_memo:
                frac_memo[key] = betafin.frac_part(fields[name].from_rational(n))
            return frac_memo[key]

        out = []
        for (name, n), (expansion, witness) in done:
            f = fields[name]
            lhs = frac(name, n + 1) - frac(name, n)
            orbit = betafin.t_orbit_of_one(f, max(len(witness.omegas) - 1, 0))
            rhs = f.from_rational(witness.theta)
            for j, o in enumerate(witness.omegas):
                if o:
                    rhs = rhs - o * orbit[j]
            out.append(
                witness.verified
                and lhs == rhs
                and word_key(expansion) == ref[name][n + 1]
            )
        return out


class ExpandRandom(Workload):
    """beta_expand, exact reconstruction and admissibility of random
    nonnegative elements with small-denominator rational coordinates."""

    name = "expand_random"
    trace_tasks = 240

    def __init__(self, seed: int):
        super().__init__(seed)
        self.coeffs = dict(EXPAND_PANEL)
        names = list(self.coeffs)
        # Task cost is set mostly by the coordinates' denominators (a 3 in
        # a degree-4 field costs 100 times a 1), so each field draws its
        # denominator tuples in seeded shuffled rounds of all of them, and
        # every run meets the costly ones about equally often; uniform draws
        # made the tail latency depend on the seed.
        rounds = {name: self._den_rounds(len(self.coeffs[name])) for name in names}
        self.specs = []
        for i in range(STREAM_LEN):
            name = names[i % len(names)]
            coords = tuple(Fraction(self.rng.randint(0, 4 * den), den) for den in next(rounds[name]))
            self.specs.append((name, coords))

    def _den_rounds(self, degree):
        tuples = list(itertools.product(range(1, EXPAND_MAX_DEN + 1), repeat=degree))
        while True:
            self.rng.shuffle(tuples)
            yield from tuples

    @staticmethod
    def field_of(spec):
        return spec[0]

    @staticmethod
    def run(field, spec):
        x = field.from_coords(spec[1])
        expansion = betafin.beta_expand(x)
        exact = expansion.value(field) == x
        admissible = betafin.is_admissible(field, expansion.word)
        return expansion, exact, admissible

    def check(self, fields, done, reference) -> list[bool]:
        """Exact reconstruction and admissibility for every task; for the
        seed the reference was made with, the words match it exactly."""
        ref = reference["expand_random"]
        words = ref["digests"] if self.seed == ref["seed"] else []
        out = []
        for i, (_, (expansion, exact, admissible)) in enumerate(done):
            ok = exact and admissible
            if i < len(words):
                ok = ok and word_digest(expansion) == words[i]
            out.append(ok)
        return out


class GridSurvey(Workload):
    """classify over the whole bounded cubic Pisot grid in seeded order."""

    name = "grid_survey"
    whole_passes = True
    trace_tasks = 100

    def __init__(self, seed: int):
        super().__init__(seed)
        grid = cubic_grid()
        self.coeffs = {abc: (abc[2], abc[1], abc[0]) for abc in grid}
        self.specs = list(grid)
        self.rng.shuffle(self.specs)

    @staticmethod
    def field_of(spec):
        return spec

    @staticmethod
    def run(field, spec):
        return betafin.classify(field)

    def check(self, fields, done, reference) -> list[bool]:
        """A verdict settled in the reference must come out the same; an
        unknown one may be settled either way."""
        ref = reference["grid_survey"]
        out = []
        for abc, report in done:
            got = [report.pisot, report.f, report.pf, report.f1]
            want = ref[",".join(map(str, abc))]
            out.append(all(w == "unknown" or g == w for g, w in zip(got, want)))
        return out


WORKLOADS = {w.name: w for w in (WitnessSweep, GridSurvey, ExpandRandom)}
