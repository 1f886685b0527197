"""Acceptance suite: one test per criterion, every tolerance exact.

Each test prints its own PASS line (run with -s or read the -v report);
derived expectations are recomputed here by independent oracles rather
than trusted from the library under test.
"""

import math
import random
import time

from family_data import FAMILY_EDGES, FAMILY_FIGURE_EDGES, FAMILY_Q

from betafin.classify import (
    PROVEN,
    REFUTED,
    classify,
    cubic_unit_classify,
)
from betafin.errors import NoRootAboveOne, Reducible
from betafin.expansion import (
    beta_expand,
    d_beta_one,
    d_beta_star,
    frac_part,
    is_admissible,
    is_finite_expansion,
    t_map,
    t_orbit_of_one,
)
from betafin.field import cubic_pisot_criterion, is_pisot, make_field
from betafin.normalization import add_one
from betafin.srs import (
    ShiftRadixSystem,
    f1_certificate,
    in_f_beta,
    q_set,
)
from betafin.words import Word, format_word

TRIB = make_field((1, 1, 1))
MINP = make_field((1, 1, 0))


def family(t):
    return make_field((t, -2 * t, 2 * t))


CATALOG = {
    "tribonacci": TRIB,
    "minimal-pisot": MINP,
    "family-t2": family(2),
    "family-t3": family(3),
}


def test_ac01_family_verification():
    start = time.time()
    for t in range(2, 11):
        f = family(t)
        srs = ShiftRadixSystem(f)
        graph = q_set(srs)
        assert set(graph.nodes) == FAMILY_Q, t
        assert graph.p_nodes == frozenset({(1, 1)}), t
        assert graph.edges == FAMILY_EDGES, t
        # the published diagram omits only the fixed point's self-loop
        figure = dict(FAMILY_FIGURE_EDGES)
        assert {k: v for k, v in graph.edges.items() if k != (0, 0)} == figure
        cert = f1_certificate(graph)
        assert cert.verdict == PROVEN, t
        report = classify(f)
        assert report.pf == REFUTED, t
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"AC1 PASS family t=2..10 verified exactly in {elapsed:.2f}s (target 5s)")


def test_ac02_q_cardinalities_and_chain():
    for (a, b, c), size in (((5, -5, 3), 43), ((6, -6, 4), 67), ((7, -8, 5), 117)):
        f = make_field((c, b, a))
        srs = ShiftRadixSystem(f)
        graph = q_set(srs)
        assert graph.node_count() == size, (a, b, c)
        assert graph.p_nodes == frozenset({(1, 1)}), (a, b, c)
        chain = [(0, -1)]
        while chain[-1] != (0, 0):
            chain.append(srs.tau(chain[-1]))
            assert len(chain) < 20
        assert chain == [(0, -1), (-1, -1), (-1, 0), (0, 1),
                         (1, 2), (2, 2), (2, 1), (1, 0), (0, 0)], (a, b, c)
    print("AC2 PASS #Q = 43/67/117 with P = {(1,1)} and the printed orbit chain")


def test_ac03_d_beta_one_regressions():
    assert format_word(d_beta_one(TRIB)) == "1 1 1"
    assert format_word(d_beta_star(TRIB)) == "(1 1 0)"
    assert format_word(d_beta_one(MINP)) == "1 0 0 0 1"
    assert format_word(d_beta_star(MINP)) == "(1 0 0 0 0)"
    for t in range(2, 11):
        f = family(t)
        expect = f"{2*t-2} {2*t-2} {t-1} 0 0 {t}"
        assert format_word(d_beta_one(f)) == expect, t
        expect_star = f"({2*t-2} {2*t-2} {t-1} 0 0 {t-1})"
        assert format_word(d_beta_star(f)) == expect_star, t
    print("AC3 PASS d_beta(1) and quasi-greedy words match exactly")


def test_ac04_family_example_expansion():
    for t in (2, 3, 5):
        f = family(t)
        bi = f.beta_inverse()
        x = (
            f.from_rational(2 * t - 2) + (2 * t - 2) * bi + (t - 1) * bi**2
            + (t - 1) * bi**4 + (t - 1) * bi**5 + (t - 1) * bi**6
        )
        e = beta_expand(x)
        assert e.exponent == 2, t
        assert e.word == Word((1, 0, 0, 0, 0, t - 2, 2 * t - 2, t - 2), (t - 1,)), t
        assert not is_finite_expansion(x), t
        assert is_admissible(f, e.word), t
        assert e.value(f) == x, t
    print("AC4 PASS the nonfinite example expands to 10.000(t-2)(2t-2)(t-2)(t-1)^inf")


def _check_witnesses(name, f, n_max):
    """add_one on N = 0..n_max: each certificate re-checked from scratch and
    each expansion compared with beta_expand(N + 1); returns how many
    cascades carried (a nonzero omega)."""
    carried = 0
    for n in range(0, n_max + 1):
        x = f.from_rational(n)
        exp, wit = add_one(x)
        assert wit.verified, (name, n)
        lhs = frac_part(f.from_rational(n + 1)) - frac_part(x)
        orbit = t_orbit_of_one(f, max(len(wit.omegas) - 1, 0))
        rhs = f.from_rational(wit.theta)
        for j, o in enumerate(wit.omegas):
            if o:
                rhs = rhs - o * orbit[j]
        assert lhs == rhs, (name, n)
        assert exp == beta_expand(f.from_rational(n + 1)), (name, n)
        carried += any(wit.omegas)
    return carried


def test_ac05_witness_sweep():
    start = time.time()
    for name, f in CATALOG.items():
        _check_witnesses(name, f, 200)
    print(f"AC5 PASS witness identities for N in 0..200 over the catalog "
          f"({time.time() - start:.1f}s)")


def test_ac05_witness_sweep_with_infinite_d_beta_one():
    # the catalog's d_beta(1) are all finite; here xi(n) = T^{n-1}(1)
    # runs, and every field carries into the orbit of 1
    for name, (f, _) in INFINITE_D1.items():
        assert _check_witnesses(name, f, 150) > 0, name


def _random_word(rng, bound):
    pre = [rng.randint(0, bound) for _ in range(rng.randint(0, 6))]
    period = [rng.randint(0, bound) for _ in range(rng.randint(0, 4))]
    return Word(pre, period)


def _admissible_oracle(field, w):
    """Brute-force window comparator over preperiod + 2*lcm symbols."""
    ds = d_beta_star(field)
    shifts = len(w.pre) + w.period_len()
    for n in range(shifts):
        s = w.shift(n)
        window = (
            max(len(s.pre), len(ds.pre))
            + 2 * math.lcm(s.period_len(), ds.period_len())
            + 1
        )
        a = s.digits(window)
        b = ds.digits(window)
        if not a < b:
            return False
    return True


# bases whose d_beta(1) is infinite, so d*_beta = d_beta(1), with that word
INFINITE_D1 = {
    "x^2-3x+1": (make_field((-1, 3)), "2 (1)"),
    "x^2-4x+2": (make_field((-2, 4)), "3 (1)"),
    "x^3-4x^2+2": (make_field((-2, 0, 4)), "3 3 (1)"),
}


def _spliced_word(rng, dstar):
    """Prefixes of d* back to back, then one digit moved by +-1."""
    longest = len(dstar.pre) + 2 * dstar.period_len()

    def prefixes(count):
        return [d for _ in range(count) for d in dstar.digits(rng.randint(0, longest))]

    pre, period = prefixes(rng.randint(0, 3)), prefixes(rng.randint(0, 2))
    digits = pre + period
    if digits:
        i = rng.randrange(len(digits))
        digits[i] += 1 if digits[i] == 0 else rng.choice((-1, 1))
    return Word(digits[: len(pre)], digits[len(pre):])


def test_ac06_admissibility_oracle_equivalence():
    rng = random.Random(20260810)
    fields = dict(CATALOG)
    for name, (f, dstar) in INFINITE_D1.items():
        assert not d_beta_one(f).is_finite(), name
        assert format_word(d_beta_star(f)) == dstar, name
        fields[name] = f
    total = admissible = 0
    for name, f in fields.items():
        bound = f.floor_beta()
        words = [_random_word(rng, bound) for _ in range(1000)]
        words += [_random_word(rng, bound + 1) for _ in range(1000)]
        words += [_spliced_word(rng, d_beta_star(f)) for _ in range(1000)]
        verdicts = [is_admissible(f, w) for w in words]
        for w, verdict in zip(words, verdicts):
            assert verdict == _admissible_oracle(f, w), (name, w)
        # the spliced words straddle the boundary: both verdicts occur
        assert 0 < sum(verdicts[2000:]) < 1000, name
        total += len(words)
        admissible += sum(verdicts)
    print(f"AC6 PASS admissibility agrees with the window comparator on {total} words "
          f"over {len(fields)} fields ({admissible} admissible)")


def test_ac07_pisot_grid():
    agree = 0
    for a in range(-6, 7):
        for b in range(-6, 7):
            for c in range(-6, 7):
                if c == 0:
                    continue
                poly = (-c, -b, -a, 1)
                from betafin.polys import least_factor

                if least_factor(poly) is not None:
                    continue
                try:
                    f = make_field((c, b, a))
                except (NoRootAboveOne, Reducible):
                    continue
                assert is_pisot(f) == cubic_pisot_criterion(a, b, c), (a, b, c)
                agree += 1
    assert agree > 400
    print(f"AC7 PASS disk counting matches the cubic criterion on {agree} grid points")


def test_ac08_floor_values():
    for t in range(2, 21):
        assert family(t).floor_beta() == 2 * t - 2, t
    # Bassino's cases I, II, III give floor(beta) = a, a-1, a-2
    witnesses = ((2, 1, -1, 2), (3, 0, -1, 2), (4, -2, 1, 3), (5, -5, 2, 3))
    for a, b, c, case_floor in witnesses:
        assert make_field((c, b, a)).floor_beta() == case_floor, (a, b, c)
    print("AC8 PASS floor(beta) = 2t-2 for t=2..20 and case floors match exact floors")


def _chain_holds(values):
    return all((b - a).sign() > 0 for a, b in zip(values, values[1:]))


def test_ac09_value_inequality_suites():
    for t in range(2, 21):
        f = family(t)
        s = ShiftRadixSystem(f)
        lam = s.value
        zero, one = f.zero(), f.one()
        two, three = f.from_rational(2), f.from_rational(3)
        assert _chain_holds([zero, lam((2, 1)), lam((1, 0)), lam((3, 1)), one]), t
        assert _chain_holds([zero, lam((-3, -2)), lam((-1, -1)), lam((-2, -2)), one]), t
        assert _chain_holds([one, lam((0, -1)), lam((2, 0)), lam((1, -1)), two]), t
        assert _chain_holds([one, lam((-3, -3)), lam((-1, -2)), two]), t
        assert _chain_holds([two, lam((-2, -3)), lam((0, -2)), three]), t
    # one witness per infinite-expansion case
    cases = {
        "I": (2, 1, -1),
        "II+": (4, -2, 1),
        "III": (5, -5, 2),
    }
    for label, (a, b, c) in cases.items():
        f = make_field((c, b, a))
        s = ShiftRadixSystem(f)
        lam = s.value
        li = s.initial_vector()
        zero, one = f.zero(), f.one()
        if label == "I":
            assert _chain_holds([zero, lam(li), lam((-1, 1)), one])
        elif label == "II+":
            assert _chain_holds([-one, lam(li), zero, lam((1, 0)), one])
        else:
            assert _chain_holds([-2 * one, lam(li), -one, lam((1, 1)), zero])
    print("AC9 PASS all value inequality chains hold under exact comparison")


def _random_cubic_pisot_fields(rng, count, golden_only):
    out = []
    tried = set()
    while len(out) < count:
        a = rng.randint(1, 8)
        b = rng.randint(-8, 8)
        c = rng.randint(-6, 6)
        if c == 0 or (a, b, c) in tried:
            continue
        tried.add((a, b, c))
        if not cubic_pisot_criterion(a, b, c):
            continue
        try:
            f = make_field((c, b, a))
        except (NoRootAboveOne, Reducible):
            continue
        b_el = f.beta()
        if golden_only and (b_el * b_el - b_el - 1).sign() < 0:
            continue
        out.append(f)
    return out


def test_ac10_floor_plus_one_biconditional():
    rng = random.Random(99)
    fields = list(CATALOG.values()) + _random_cubic_pisot_fields(rng, 20, True)
    for f in fields:
        b = f.beta()
        if (b * b - b - 1).sign() < 0:
            continue  # below the golden ratio the shortcut does not apply
        srs = ShiftRadixSystem(f)
        neg_li = tuple(-c for c in srs.initial_vector())
        vec_side = in_f_beta(srs, neg_li)
        digit_side = is_finite_expansion(f.from_rational(f.floor_beta() + 1))
        assert vec_side == digit_side, f.coeffs
    print("AC10 PASS floor(beta)+1 finiteness matches -l_I reaching zero on 20+ fields")


def test_ac11_cubic_unit_corollary():
    checked = 0
    for a in range(0, 9):
        for c in (1, -1):
            for b in range(-a - 3, a + 4):
                if not cubic_pisot_criterion(a, b, c):
                    continue
                try:
                    f = make_field((c, b, a))
                except (NoRootAboveOne, Reducible):
                    continue
                verdicts = cubic_unit_classify(a, b, c)
                # (F) verdict against the unit theorem's coefficient form
                thm_f = c == 1 and a >= 0 and -1 <= b <= a + 1
                assert (verdicts["f"] == PROVEN) == thm_f, (a, b, c)
                cert = f1_certificate(q_set(ShiftRadixSystem(f)))
                if cert.verdict == PROVEN:
                    assert verdicts["f1"] == PROVEN, (a, b, c)
                if verdicts["f1"] == REFUTED:
                    n = f.floor_beta() + 1
                    assert n <= 200
                    assert not is_finite_expansion(f.from_rational(n)), (a, b, c)
                checked += 1
    assert checked >= 20
    print(f"AC11 PASS cubic-unit verdicts consistent on {checked} Pisot units")


def test_ac12_conjugacy_properties():
    rng = random.Random(12)
    for name, f in CATALOG.items():
        srs = ShiftRadixSystem(f)
        for _ in range(500):
            vec = tuple(rng.randint(-30, 30) for _ in range(srs.dim))
            _, timg = t_map(srs.frac_value(vec))
            assert timg == srs.frac_value(srs.tau(vec)), (name, vec)
            if any(vec):
                expect = tuple(
                    x - y for x, y in zip(srs.tau(vec), srs.initial_vector())
                )
                assert srs.tau_star(vec) == expect, (name, vec)
    print("AC12 PASS conjugacy and dual-step identities on 4x500 random vectors")
