import importlib
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from betafin.classify import (
    DEFAULT_N_SWEEP,
    _find_infinite_natural,
    _propagate,
    CASE_I,
    CASE_II,
    CASE_III,
    FINITE,
    NOT_SPECIAL_FORM,
    PF_WITHOUT_F_PROVEN,
    PROVEN,
    REFUTED,
    UNKNOWN,
    PropertyReport,
    bassino_case,
    classify,
    cpcase_check,
    cubic_unit_classify,
    fs_type,
    hollander_type,
    pf_shape,
)
from betafin.errors import InvariantViolation, NotCubicPisot, NotUnit
from betafin.expansion import DEFAULT_ORBIT_CAP, d_beta, d_beta_one, frac_part, is_finite_expansion
from betafin.field import cubic_pisot_criterion, is_pisot, make_field
from betafin.errors import NoRootAboveOne, Reducible
from betafin.srs import ShiftRadixSystem, q_set

TRIB = make_field((1, 1, 1))


def family(t):
    return make_field((t, -2 * t, 2 * t))


def test_fs_type():
    assert fs_type((1, 1, 1))
    assert fs_type((1, 2, 2))
    assert not fs_type((2, -4, 4))
    assert not fs_type((0, 1, 1))  # a_0 = 0 < 1


def test_hollander_type():
    assert hollander_type((1, 2, 5))
    assert not hollander_type((1, 1, 1))
    assert not hollander_type((2, -4, 4))


def test_pf_shape():
    for t in range(2, 8):
        f = family(t)
        assert pf_shape(f.coeffs, f.floor_beta()) == NOT_SPECIAL_FORM
    # x^3-4x^2+2: matches with B = 4 = floor(beta)+1
    f = make_field((-2, 0, 4))
    assert f.floor_beta() == 3
    assert pf_shape(f.coeffs, f.floor_beta()) == PF_WITHOUT_F_PROVEN
    assert pf_shape(TRIB.coeffs, TRIB.floor_beta()) == NOT_SPECIAL_FORM


def test_bassino_cases():
    assert bassino_case(2, 1, -1) == CASE_I
    assert bassino_case(3, 0, -1) == CASE_II
    assert bassino_case(4, -2, 1) == CASE_II  # the c > 0 subcase
    assert bassino_case(5, -5, 2) == CASE_III
    for t in range(2, 8):
        assert bassino_case(2 * t, -2 * t, t) == FINITE
    assert bassino_case(1, 1, 1) == FINITE
    with pytest.raises(NotCubicPisot):
        bassino_case(3, -1, -1)  # fails the Pisot criterion


def test_bassino_case_iii_matches_rational_bounds():
    # the case III search in its published rational form, e_k = 1 - a + (a-2)/k
    def case_iii(a, b, c):
        def e(k):
            return 1 - a + Fraction(a - 2, k)

        for k in range(2, a - 1):
            if e(k) <= b + c < e(k - 1):
                return b * (k - 1) + c * (k - 2) > (k - 2) - (k - 1) * a
        return False

    checked = 0
    for a in range(1, 31):
        for b in range(-30, -a + 1):
            for c in range(-30, 31):
                if cubic_pisot_criterion(a, b, c):
                    expect = CASE_III if case_iii(a, b, c) else FINITE
                    assert bassino_case(a, b, c) == expect, (a, b, c)
                    checked += expect == CASE_III
    assert checked > 100


def test_bassino_matches_direct_digit_computation():
    checked = 0
    for a in range(0, 6):
        for b in range(-5, 6):
            for c in range(-4, 5):
                if c == 0 or not cubic_pisot_criterion(a, b, c):
                    continue
                try:
                    f = make_field((c, b, a))
                except (Reducible, NoRootAboveOne):
                    continue
                case = bassino_case(a, b, c)
                infinite = not d_beta_one(f).is_finite()
                assert infinite == (case != FINITE), (a, b, c, case)
                checked += 1
    assert checked > 40


def test_floor_beta_cubic():
    # floor(beta) of a cubic Pisot x^3 - ax^2 - bx - c with infinite
    # d_beta(1) is a, a-1 or a-2 in Bassino's cases I, II, III: an oracle
    # for the exact floor
    case_floor_drop = {CASE_I: 0, CASE_II: 1, CASE_III: 2}
    assert make_field((-1, 1, 2)).floor_beta() == 2  # case I
    assert make_field((-1, 0, 3)).floor_beta() == 2  # case II
    assert make_field((1, -2, 4)).floor_beta() == 3  # case II, c > 0
    assert make_field((2, -5, 5)).floor_beta() == 3  # case III
    assert bassino_case(4, -4, 2) == FINITE  # family t=2: no case floor
    checked = 0
    for a in range(1, 9):
        for b in range(-8, 9):
            for c in range(-8, 9):
                if c == 0 or not cubic_pisot_criterion(a, b, c):
                    continue
                case = bassino_case(a, b, c)
                if case == FINITE:
                    continue
                try:
                    f = make_field((c, b, a))
                except Reducible:
                    continue
                assert f.floor_beta() == a - case_floor_drop[case], (a, b, c, case)
                checked += 1
    assert checked > 100


def test_cubic_unit_classify():
    assert cubic_unit_classify(1, 1, 1) == {"f": PROVEN, "pf": PROVEN, "f1": PROVEN}
    assert cubic_unit_classify(0, 1, 1)["f"] == PROVEN  # x^3-x-1
    out = cubic_unit_classify(3, 1, -1)
    assert out == {"f": REFUTED, "pf": REFUTED, "f1": REFUTED}
    with pytest.raises(NotUnit):
        cubic_unit_classify(4, -8, 2)


def test_classify_family():
    for t in (2, 3, 7):
        rep = classify(family(t))
        assert rep.pisot == PROVEN
        assert rep.f == REFUTED
        assert rep.pf == REFUTED
        assert rep.f1 == PROVEN


def test_classify_tribonacci():
    rep = classify(TRIB)
    assert (rep.pisot, rep.f, rep.pf, rep.f1) == (PROVEN,) * 4
    rules = {e.rule for e in rep.evidence}
    assert "fs-type" in rules


def test_classify_quadratic():
    rep = classify(make_field((-1, 3)))
    assert rep.pisot == PROVEN
    assert rep.pf == PROVEN  # every quadratic Pisot base
    assert rep.f1 == PROVEN
    assert rep.f == REFUTED  # d_beta(1) is infinite under (PF)
    assert not d_beta_one(make_field((-1, 3))).is_finite()


def test_classify_f1_refuted_unit():
    rep = classify(make_field((-1, 1, 3)))  # x^3-3x^2-x+1
    assert rep.f1 == REFUTED and rep.pf == REFUTED and rep.f == REFUTED


def test_classify_pf_without_f():
    rep = classify(make_field((-2, 0, 4)))  # x^3-4x^2+2
    assert rep.pisot == PROVEN
    assert rep.f == REFUTED
    assert rep.pf == PROVEN
    assert rep.f1 == PROVEN
    assert not d_beta_one(make_field((-2, 0, 4))).is_finite()


def test_classify_non_pisot():
    rep = classify(make_field((-1, 1, 1, 1)))  # reciprocal quartic
    assert rep.pisot == REFUTED
    assert rep.f1 == REFUTED and rep.pf == REFUTED and rep.f == REFUTED


def test_classify_lattice_consistency_sweep():
    rng = random.Random(31)
    order = {PROVEN: 2, UNKNOWN: 1, REFUTED: 0}
    seen = 0
    while seen < 25:
        a = rng.randint(0, 5)
        b = rng.randint(-5, 5)
        c = rng.randint(-4, 4)
        if c == 0:
            continue
        try:
            f = make_field((c, b, a))
        except (Reducible, NoRootAboveOne):
            continue
        rep = classify(f, n_sweep=40)
        assert order[rep.f] <= order[rep.pf] <= order[rep.f1]
        if rep.pisot == REFUTED:
            assert rep.f1 == REFUTED
        seen += 1


def test_classify_report_json():
    rep = classify(family(2))
    data = json.loads(rep.to_json())
    assert set(data) == {"poly", "pisot", "F", "PF", "F1", "d_beta_1", "evidence"}
    assert data["d_beta_1"] == "2 2 1 0 0 2"
    assert all(set(e) == {"claim", "rule", "cite"} for e in data["evidence"])


def test_cpcase_examples():
    rep = cpcase_check(TRIB)
    assert rep.applicable and rep.holds and rep.pf_without_f is False

    rep = cpcase_check(make_field((-1, 0, 4)))  # x^3-4x^2+1: PF without F
    assert rep.applicable and rep.holds
    assert rep.pf_without_f is True and rep.d_beta_one_finite is False

    rep = cpcase_check(make_field((-1, 1, 3)))  # (a,b,c)=(3,1,-1): F1 refuted
    assert not rep.applicable

    with pytest.raises(NotCubicPisot):
        cpcase_check(make_field((-1, 3)))


def test_charapf_instance_checks():
    # whenever PF is proven, F holds iff d_beta(1) is finite
    for coeffs in ((1, 1, 1), (-2, 0, 4), (2, -4, 4), (-1, 3), (1, 1, 0)):
        f = make_field(coeffs)
        rep = classify(f)
        if rep.pf == PROVEN and rep.f != UNKNOWN:
            assert (rep.f == PROVEN) == d_beta_one(f).is_finite()


def test_cubic_pisot_constant_bounded_by_beta():
    # |c| < beta for every cubic Pisot in the sweep
    for a in range(0, 7):
        for b in range(-6, 7):
            for c in range(-6, 7):
                if c == 0 or not cubic_pisot_criterion(a, b, c):
                    continue
                try:
                    f = make_field((c, b, a))
                except (Reducible, NoRootAboveOne):
                    continue
                assert (f.beta() - abs(c)).sign() > 0, (a, b, c)


def test_infinite_cases_force_beta_at_least_two():
    # every witness in cases I, II, III has beta >= 2
    for a, b, c in ((2, 1, -1), (3, 0, -1), (4, -2, 1), (5, -5, 2)):
        f = make_field((c, b, a))
        assert bassino_case(a, b, c) != FINITE
        assert (f.beta() - 2).sign() >= 0, (a, b, c)


@pytest.mark.parametrize("abc", [(2, 1, -1), (4, -4, 2), (1, 1, 1), (5, -5, 2)])
def test_classify_cross_checks_bassino_case(monkeypatch, abc):
    # a case that contradicts the finiteness of d_beta(1) stops classify
    a, b, c = abc
    field = make_field((c, b, a))
    classify(field)
    wrong = CASE_I if d_beta_one(field).is_finite() else FINITE
    classify_module = importlib.import_module("betafin.classify")
    monkeypatch.setattr(classify_module, "bassino_case", lambda a, b, c: wrong)
    with pytest.raises(InvariantViolation, match="Bassino"):
        classify(field)


def test_classify_builds_q_once(monkeypatch):
    # the package exports a function named classify, so reach the modules
    # through importlib rather than attribute access
    classify_module = importlib.import_module("betafin.classify")
    srs_module = importlib.import_module("betafin.srs")
    calls = []
    original = srs_module.q_set

    def counting_q_set(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(srs_module, "q_set", counting_q_set)
    monkeypatch.setattr(classify_module, "q_set", counting_q_set)
    report = classify(family(3))
    # the certificate ran on the same closure graph
    assert any(ev.rule == "srs-certificate" for ev in report.evidence)
    assert len(calls) == 1


def _linear_scan(field, n_sweep):
    """Independent sweep: first N, floor(beta)+1 first, whose greedy
    expansion is infinite, each N expanded from scratch."""
    for n in [field.floor_beta() + 1] + list(range(1, n_sweep + 1)):
        if not is_finite_expansion(field.from_rational(n)):
            return n
    return None


def _q_graph(field):
    return q_set(ShiftRadixSystem(field))


# (a, b, c) of x^3 - ax^2 - bx - c with the first N <= 40 outside Fin, or
# None: grid fields with small and large refuters, and fields where no N up
# to 40 refutes, (F1) proven or open
@pytest.mark.parametrize(
    "abc, refuter",
    [
        ((1, 3, 2), 7), ((2, 5, 3), 24), ((3, 1, -2), 4),
        ((5, -4, 4), None), ((1, 1, 1), None), ((4, -4, 2), None),
        ((4, 7, 4), 11), ((4, 8, 5), 12), ((5, -3, 4), 10), ((5, 1, 5), 17),
        ((5, 7, 6), 32), ((6, -5, 5), 27), ((6, -4, 5), 11), ((6, -3, 5), 17),
        ((7, -6, 6), 31), ((7, -3, 6), 21), ((7, 2, 7), 23), ((8, -4, 7), 23),
        ((8, 2, 8), 26),
        ((4, 0, -2), None), ((3, 6, 4), None), ((7, 1, 7), None),
        ((8, -6, 7), None), ((7, -7, 4), None), ((7, 0, -1), None),
        ((8, 5, 2), None), ((7, -2, 3), None), ((6, 7, 3), None),
        ((5, 6, 2), None), ((4, 5, 2), None), ((2, 1, -1), 3),
        ((3, 0, -1), None),
    ],
)
def test_natural_sweep_matches_linear_scan(abc, refuter):
    a, b, c = abc
    f = make_field((c, b, a))
    assert _linear_scan(f, 40) == refuter
    # the sweep as classify runs it (seeded with Q's verdicts) and unseeded
    for graph in (_q_graph(f), None):
        report = PropertyReport(poly=f.poly_str())
        assert _find_infinite_natural(f, 40, 100_000, report, graph) == refuter
        assert report.evidence == []


def test_classify_refutes_f1_by_the_sweep():
    rep = classify(make_field((2, 3, 1)))  # (a,b,c) = (1,3,2)
    assert rep.f1 == REFUTED
    assert any(e.rule == "natural-sweep" and "N = 7 " in e.claim for e in rep.evidence)


def test_natural_sweep_makes_candidates_one_at_a_time():
    # x^3-x^2-3x-2 is refuted at N = 7: a sweep over 10^6 candidates must
    # not build them all before it tries the first
    f = make_field((2, 3, 1))
    report = PropertyReport(poly=f.poly_str())
    tracemalloc.start()
    try:
        refuter = _find_infinite_natural(f, 10**6, DEFAULT_ORBIT_CAP, report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refuter == 7
    assert peak < 4 * 2**20


def test_natural_sweep_tries_floor_beta_plus_one_first(monkeypatch):
    classify_module = importlib.import_module("betafin.classify")
    tried = []
    original = classify_module.frac_part
    monkeypatch.setattr(
        classify_module, "frac_part", lambda x: tried.append(x.as_rational()) or original(x)
    )
    f = make_field((1, 1, 1))  # tribonacci: floor(beta) + 1 = 2, no refuter
    for n_sweep, order in ((12, [2, 1, *range(3, 13)]), (1, [2, 1]), (0, [2])):
        tried.clear()
        report = PropertyReport(poly=f.poly_str())
        assert _find_infinite_natural(f, n_sweep, 100_000, report) is None
        assert tried == order


def test_natural_sweep_steps_each_state_once(monkeypatch):
    # the greedy steps the sweep takes itself, not the L(N) steps inside
    # frac_part, which calls expansion.py's binding
    classify_module = importlib.import_module("betafin.classify")
    args = []
    original = classify_module._greedy_step

    def counting_step(field, nums, den):
        args.append((tuple(nums), den))
        return original(field, nums, den)

    monkeypatch.setattr(classify_module, "_greedy_step", counting_step)
    f = make_field((4, -4, 5))  # (a,b,c) = (5,-4,4): no refuter, every N walked
    report = PropertyReport(poly=f.poly_str())
    assert _find_infinite_natural(f, 40, 100_000, report) is None
    assert args and len(args) == len(set(args))
    # walked one N at a time, the T-orbits of the frac(N) would step once
    # per nonzero state
    per_n = 0
    for n in range(1, 41):
        word = d_beta(frac_part(f.from_rational(n)))
        per_n += len(word.pre) + len(word.period)
    assert len(args) < per_n


def _q_seed(graph):
    """Q's verdicts keyed by the T-states frac_value(v), numerators over
    den 1, plus zero's.  frac_value floors r . v itself, independently of
    the tau-edges stored in the graph."""
    seed = {}
    for v in graph.nodes:
        y = graph.srs.frac_value(v)
        assert y.den == 1
        seed[y.nums] = graph.in_f[v]
    seed[(0,) * graph.srs.field.degree] = True
    return seed


def _recording_walk(monkeypatch):
    """Patch classify's walk to record each walk's verdict map on entry and
    its size on exit."""
    classify_module = importlib.import_module("betafin.classify")
    starts, held = [], []
    original = classify_module.walk

    def recording_walk(step, start, verdict, cycles, walk_cap):
        starts.append(dict(verdict))
        try:
            return original(step, start, verdict, cycles, walk_cap)
        finally:
            held.append(len(verdict))

    monkeypatch.setattr(classify_module, "walk", recording_walk)
    return starts, held


@pytest.mark.parametrize("abc, cap, refuter", [((2, 5, 3), 40, 24), ((4, -4, 2), 30, None)])
def test_natural_sweep_memory_stays_within_twice_the_cap(monkeypatch, abc, cap, refuter):
    # the sweep steps more than cap distinct states in all, yet no single N
    # walks more than cap new ones: the shared map, seeded with zero alone,
    # must start afresh
    _, held = _recording_walk(monkeypatch)
    a, b, c = abc
    f = make_field((c, b, a))
    report = PropertyReport(poly=f.poly_str())
    assert _find_infinite_natural(f, 40, cap, report) == refuter == _linear_scan(f, 40)
    assert report.evidence == []
    assert max(held) > cap
    assert max(held) <= 2 * cap + 1


def test_natural_sweep_resets_to_q_verdicts(monkeypatch):
    # seeded with Q's verdicts translated to T-states, the map goes back to
    # them once it holds more than cap entries beyond them, and Q's own map
    # is never written
    starts, held = _recording_walk(monkeypatch)
    f = make_field((2, -4, 4))  # (a,b,c) = (4,-4,2): Q holds 27 vectors, zero included
    graph = _q_graph(f)
    q_verdicts = dict(graph.in_f)
    q_seed = _q_seed(graph)
    assert len(q_seed) == len(q_verdicts) == 27
    cap = 20
    report = PropertyReport(poly=f.poly_str())
    assert _find_infinite_natural(f, 40, cap, report, graph) is None
    assert report.evidence == []
    assert graph.in_f == q_verdicts
    assert starts[0] == q_seed
    assert max(held) > len(q_seed) + cap
    assert max(held) <= len(q_seed) + 2 * cap
    resets = [v for v, prev in zip(starts[1:], held) if len(v) < prev]
    assert resets and all(v == q_seed for v in resets)


@pytest.mark.parametrize("coeffs", [(3, -6, 6), (2, 3, 1)], ids=["family-t3", "abc-1-3-2"])
def test_natural_sweep_seed_is_q_translated(monkeypatch, coeffs):
    # both Q hold tau-cycles, so the seed carries verdicts of both kinds
    starts, _ = _recording_walk(monkeypatch)
    f = make_field(coeffs)
    graph = _q_graph(f)
    q_seed = _q_seed(graph)
    assert graph.p_nodes and set(q_seed.values()) == {True, False}
    translated = graph.frac_verdicts()
    assert set(translated) == {graph.srs.frac_value(v).nums for v in graph.nodes}
    assert {**translated, (0,) * f.degree: True} == q_seed
    report = PropertyReport(poly=f.poly_str())
    _find_infinite_natural(f, 40, DEFAULT_ORBIT_CAP, report, graph)
    assert starts and starts[0] == q_seed


@pytest.mark.parametrize(
    "bad_frac, message",
    [
        # not in Z[beta]
        (lambda y: y + Fraction(1, 2), r"outside Z\[beta\]"),
        # in Z[beta] but not in [0, 1)
        (lambda y: y + 1, r"outside \[0, 1\)"),
    ],
    ids=["outside-z-beta", "outside-unit-interval"],
)
def test_natural_sweep_checks_frac_in_z_beta_and_unit_interval(monkeypatch, bad_frac, message):
    classify_module = importlib.import_module("betafin.classify")
    original = classify_module.frac_part
    monkeypatch.setattr(classify_module, "frac_part", lambda x: bad_frac(original(x)))
    f = make_field((4, -4, 5))
    with pytest.raises(InvariantViolation, match=message):
        _find_infinite_natural(f, 40, 100_000, PropertyReport(poly=f.poly_str()))


def test_natural_sweep_skip_is_recorded_not_refuted():
    # at full budget N = 7 refutes (F1).  With Q over its closure budget the
    # sweep starts from zero's verdict alone, and 5 new states per N are
    # too few for N = 7, so it is skipped
    rep = classify(make_field((2, 3, 1)), orbit_cap=5, closure_cap=5)
    assert rep.f1 == UNKNOWN
    skips = [e for e in rep.evidence if e.rule == "orbit-budget" and "skipped" in e.claim]
    assert len(skips) == 1
    assert " 7," in skips[0].claim and "T-orbit of frac(N) exceeded 5 new states" in skips[0].claim
    assert not any(e.rule == "natural-sweep" for e in rep.evidence)


def test_small_orbit_cap_leaves_tau_cycle_check_unknown():
    # at orbit_cap 3 the digit orbit of the tau-cycle witness does not
    # close, so the check that would refute (F) cannot run
    f = make_field((2, 3, 1))
    full = classify(f)
    assert full.f == REFUTED
    for n_sweep, f_verdict in ((6, UNKNOWN), (200, REFUTED)):
        small = classify(f, orbit_cap=3, n_sweep=n_sweep)
        checks = [e for e in small.evidence
                  if e.rule == "orbit-budget" and "tau-cycle check" in e.claim]
        assert len(checks) == 1 and "exceeded 3 states" in checks[0].claim
        assert not any(e.rule == "tau-cycle-witness" for e in small.evidence)
        # N = 7 refutes (F1) through the vectors Q settled; (F) then
        # follows by the inclusion chain alone
        assert small.f == f_verdict
        if f_verdict == REFUTED:
            chain = [e for e in small.evidence if e.claim == "not f from not pf"]
            assert chain and chain[0].rule == "inclusion-chain"
        for prop in ("pisot", "f", "pf", "f1"):
            got = getattr(small, prop)
            assert got == UNKNOWN or got == getattr(full, prop), prop


def test_pf_proven_fields_have_no_sweep_refuter():
    # (PF) gives (F1), so a refuting N would contradict the (PF) proof,
    # whichever rule gave it; the full sweep finds none
    checked = 0
    for a in range(1, 9):
        for b in range(-8, 9):
            for c in range(-8, 9):
                if c == 0 or not cubic_pisot_criterion(a, b, c):
                    continue
                try:
                    f = make_field((c, b, a))
                except (Reducible, NoRootAboveOne):
                    continue
                if classify(f, n_sweep=0).pf != PROVEN:
                    continue
                report = PropertyReport(poly=f.poly_str())
                found = _find_infinite_natural(
                    f, DEFAULT_N_SWEEP, DEFAULT_ORBIT_CAP, report, _q_graph(f)
                )
                assert found is None and report.evidence == [], (a, b, c)
                checked += 1
    assert checked == 241


def test_two_parameter_f1_family():
    # x^3 - a x^2 + a x - c: Pisot iff 2 <= c <= a - 2, with (F) and (PF)
    # refuted; (F1) holds iff 2c >= a, by the certificate with P = {(1,1)}
    # and delta = 1, and otherwise N = a - 1 refutes it
    pisot = 0
    for a in range(4, 31):
        for c in range(-a - 3, a + 4):
            if c == 0:
                continue
            try:
                f = make_field((c, -a, a))
            except (Reducible, NoRootAboveOne):
                assert not 2 <= c <= a - 2, (a, c)
                continue
            if not is_pisot(f):
                assert not 2 <= c <= a - 2, (a, c)
                continue
            assert 2 <= c <= a - 2, (a, c)
            rep = classify(f)
            assert (rep.f, rep.pf) == (REFUTED, REFUTED), (a, c)
            if 2 * c >= a:
                assert rep.f1 == PROVEN, (a, c)
                assert any(
                    e.rule == "srs-certificate" and e.claim.startswith("certificate: P=[(1, 1)], delta=1,")
                    for e in rep.evidence
                ), (a, c)
            else:
                assert rep.f1 == REFUTED, (a, c)
                assert any(
                    e.rule == "natural-sweep" and e.claim == f"N = {a - 1} has an infinite expansion"
                    for e in rep.evidence
                ), (a, c)
            pisot += 1
    assert pisot == 378


@pytest.mark.parametrize(
    "start, end, claims",
    [
        ((PROVEN, UNKNOWN, UNKNOWN), (PROVEN,) * 3, ["pf from f", "f1 from pf"]),
        ((UNKNOWN, UNKNOWN, REFUTED), (REFUTED,) * 3, ["not pf from not f1", "not f from not pf"]),
        ((UNKNOWN, REFUTED, UNKNOWN), (REFUTED, REFUTED, UNKNOWN), ["not f from not pf"]),
        ((REFUTED, PROVEN, UNKNOWN), (REFUTED, PROVEN, PROVEN), ["f1 from pf"]),
    ],
)
def test_propagate_moves_proofs_up_and_refutations_down(start, end, claims):
    report = PropertyReport(poly="p", f=start[0], pf=start[1], f1=start[2])
    _propagate(report)
    assert (report.f, report.pf, report.f1) == end
    assert [e.claim for e in report.evidence] == claims


def test_propagate_raises_on_a_conflict():
    with pytest.raises(InvariantViolation, match="pf proven but f1 refuted"):
        _propagate(PropertyReport(poly="p", f=PROVEN, f1=REFUTED))


def test_quintic_gets_its_refutations():
    # x^5-x-1 is irreducible with two roots outside the unit disk
    rep = classify(make_field((1, 1, 0, 0, 0)))
    assert (rep.pisot, rep.f, rep.pf, rep.f1) == (REFUTED,) * 4
    assert not any(
        e.rule in ("withheld-refutation", "irreducibility-flag") for e in rep.evidence
    )


def test_verified_field_report_keeps_its_refutations():
    rep = classify(make_field((-1, 1, 1, 1)))  # reciprocal quartic
    assert [e.rule for e in rep.evidence] == [
        "schur-cohn", "pisot-necessity", "inclusion-chain", "inclusion-chain",
    ]
    assert (rep.pisot, rep.f, rep.pf, rep.f1) == (REFUTED,) * 4


def test_budget_records_name_their_cap():
    small = classify(make_field((2, 3, 1)), orbit_cap=3)
    orbit = [e.claim for e in small.evidence if e.rule == "orbit-budget"]
    assert "digit orbit of 1 did not close within 3 states" in orbit
    closure = classify(make_field((2, 3, 1)), closure_cap=5)
    assert [e.claim for e in closure.evidence if e.rule == "closure-budget"] == [
        "vector closure exceeded 5 nodes"
    ]


def test_report_does_not_depend_on_earlier_calls():
    # d_beta(1) is memoized per field; a memo hit must still honour the
    # caller's orbit budget, whichever budget built the entry
    fresh_small = classify(make_field((2, 3, 1)), orbit_cap=3).to_json()
    fresh_full = classify(make_field((2, 3, 1))).to_json()
    assert '"d_beta_1": ""' in fresh_small
    assert '"d_beta_1": "2 1 0 1 2"' in fresh_full
    f = make_field((2, 3, 1))
    assert classify(f).to_json() == fresh_full
    assert classify(f, orbit_cap=3).to_json() == fresh_small
    g = make_field((2, 3, 1))
    assert classify(g, orbit_cap=3).to_json() == fresh_small
    assert classify(g).to_json() == fresh_full
