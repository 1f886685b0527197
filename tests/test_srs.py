import hashlib
import itertools
import json
import math
import pickle
import random
import sys
import threading
from collections import Counter, deque
from fractions import Fraction as Q

import pytest

from betafin import polys as P
from betafin.errors import (
    BetaFinError,
    ClosureBudgetExceeded,
    InvariantViolation,
    OrbitBudgetExceeded,
)
from betafin.expansion import is_finite_expansion, t_map, t_orbit_of_one
from betafin.field import make_field
from betafin.srs import (
    ShiftRadixSystem,
    delta,
    export_graph,
    f1_certificate,
    in_f_beta,
    q_set,
    tau_preimages,
    v_box_set,
)

TRIB = make_field((1, 1, 1))


def family(t):
    return make_field((t, -2 * t, 2 * t))


def srs_for(field):
    return ShiftRadixSystem(field)


from family_data import FAMILY_EDGES, FAMILY_Q, survey_grid_fields


def orbit_vectors(s):
    """Distinct nonzero vectors of the initial vector's tau-orbit, by
    plain iteration of tau."""
    out = []
    cur = s.initial_vector()
    while any(cur) and cur not in out:
        out.append(cur)
        cur = s.tau(cur)
    return out


def test_radix_vector():
    s = srs_for(family(2))
    f = s.field
    assert s.r[0] == f.coeffs[0] * f.beta_inverse()
    # r_2 = a_1/beta + a_0/beta^2
    assert s.r[1] == f.coeffs[1] * f.beta_inverse() + f.coeffs[0] * f.beta_inverse() ** 2


def test_value_examples():
    for field in (TRIB, family(2), family(7)):
        s = srs_for(field)
        assert s.value((0,) * (s.dim)).is_zero()
        li = s.initial_vector()
        assert s.value(li) == field.beta() - field.coeffs[-1]
    # family closed form t(l1 - 2 l2)/beta + t l2/beta^2
    for t in (2, 4):
        f = family(t)
        s = srs_for(f)
        bi = f.beta_inverse()
        rng = random.Random(t)
        for _ in range(10):
            l1, l2 = rng.randint(-6, 6), rng.randint(-6, 6)
            assert s.value((l1, l2)) == t * (l1 - 2 * l2) * bi + t * l2 * bi**2


def test_tau_examples():
    s = srs_for(family(2))
    assert s.tau((0, 0)) == (0, 0)
    assert s.tau((0, 1)) == (1, 2)
    assert s.tau((1, 0)) == (0, 0)


def test_tau_star_identity():
    rng = random.Random(2)
    for field in (TRIB, family(2), make_field((-1, 3))):
        s = srs_for(field)
        assert s.tau_star((0,) * s.dim) == (0,) * s.dim
        for _ in range(50):
            vec = tuple(rng.randint(-20, 20) for _ in range(s.dim))
            if not any(vec):
                continue
            expect = tuple(a - b for a, b in zip(s.tau(vec), s.initial_vector()))
            assert s.tau_star(vec) == expect


def test_tau_sum_property():
    # tau(l + l') is tau(l) + tau(l') or tau(l) + tau_star(l')
    rng = random.Random(8)
    for field in (TRIB, family(3)):
        s = srs_for(field)
        for _ in range(60):
            a = tuple(rng.randint(-10, 10) for _ in range(s.dim))
            b = tuple(rng.randint(-10, 10) for _ in range(s.dim))
            tot = s.tau(tuple(x + y for x, y in zip(a, b)))
            opts = {
                tuple(x + y for x, y in zip(s.tau(a), s.tau(b))),
                tuple(x + y for x, y in zip(s.tau(a), s.tau_star(b))),
            }
            assert tot in opts


def test_conjugacy():
    rng = random.Random(4)
    for field in (TRIB, family(2), make_field((-1, 3))):
        s = srs_for(field)
        for _ in range(40):
            vec = tuple(rng.randint(-15, 15) for _ in range(s.dim))
            _, t_image = t_map(s.frac_value(vec))
            assert t_image == s.frac_value(s.tau(vec))


def test_t_orbit_of_one_matches_vectors():
    for field in (TRIB, family(2)):
        s = srs_for(field)
        orbit = t_orbit_of_one(field, 8)
        vec = s.initial_vector()
        for n in range(1, 9):
            assert orbit[n] == s.frac_value(vec)
            vec = s.tau(vec)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_family_q_set(t):
    assert set(FAMILY_EDGES) == FAMILY_Q
    g = q_set(srs_for(family(t)))
    assert set(g.nodes) == FAMILY_Q
    assert g.edges == FAMILY_EDGES
    assert g.p_nodes == frozenset({(1, 1)})


def test_family_orbit_chain():
    s = srs_for(family(2))
    chain = [(0, 1)]
    while chain[-1] != (0, 0):
        chain.append(s.tau(chain[-1]))
    assert chain == [(0, 1), (1, 2), (2, 2), (2, 1), (1, 0), (0, 0)]


def test_q_set_cardinalities():
    for (a, b, c), size in (((5, -5, 3), 43), ((6, -6, 4), 67), ((7, -8, 5), 117)):
        g = q_set(srs_for(make_field((c, b, a))))
        assert g.node_count() == size
        assert g.p_nodes == frozenset({(1, 1)})


def test_tribonacci_q_set_regression():
    g = q_set(srs_for(TRIB))
    assert (0, 1) in g.nodes
    assert g.node_count() == 7  # frozen from the first verified run
    assert g.p_nodes == frozenset()
    assert all(g.in_f[v] for v in g.nodes)


@pytest.mark.parametrize("coeffs, size", [((8, 8, 7), 9287), ((7, 7, 6), 6079)])
def test_large_q_set_regression(coeffs, size):
    # (a, b, c) = (7, 8, 8) and (6, 7, 7); frozen from the Fraction tau
    g = q_set(srs_for(make_field(coeffs)))
    assert g.node_count() == size
    assert g.p_nodes == frozenset()


# -- tau against a Fraction oracle --------------------------------------------
#
# From the definition r_j = sum_{i=1}^{j} a_{j-i} beta^{-i}, the product
# beta^{d-1} (r . l) is an integer polynomial G(beta) of degree below d-1.
# The oracle encloses G(beta) by P.eval_interval on a hand bracket of beta
# (beta to four places in the comment), narrowed by its own bisection on
# P.eval_at, divides by the enclosure of beta^{d-1}, and floors.  It shares
# no code with the SRS rows or the field's floor kernel.

TAU_ORACLE_FIELDS = {
    (1, 1, 1): (Q(18, 10), Q(19, 10)),  # tribonacci, beta 1.8393
    (2, -4, 4): (Q(28, 10), Q(29, 10)),  # family(2), beta 2.8393
    (8, 8, 7): (Q(81, 10), Q(82, 10)),  # x^3-7x^2-8x-8, beta 8.1083
    (2, 3, 1): (Q(25, 10), Q(26, 10)),  # x^3-x^2-3x-2, beta 2.5115
    (-3, 3, -2, 4): (Q(36, 10), Q(37, 10)),  # x^4-4x^3+2x^2-3x+3, beta 3.6126
}


def oracle_tau(field, vec):
    a, d = field.coeffs, field.degree
    g = [0] * d
    for j, lj in enumerate(vec, start=1):
        for i in range(1, j + 1):
            g[d - 1 - i] += lj * a[j - i]
    p = field.poly
    lo, hi = TAU_ORACLE_FIELDS[field.coeffs]
    assert P.eval_at(p, lo) < 0 < P.eval_at(p, hi)
    while True:
        glo, ghi = P.eval_interval(g, lo, hi)
        # beta^{d-1} lies in [lo^{d-1}, hi^{d-1}], both ends positive
        ends = [x / y ** (d - 1) for x in (glo, ghi) for y in (lo, hi)]
        if math.floor(min(ends)) == math.floor(max(ends)):
            return vec[1:] + (-math.floor(min(ends)),)
        mid = (lo + hi) / 2
        if P.eval_at(p, mid) < 0:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("coeffs", list(TAU_ORACLE_FIELDS))
def test_tau_and_tau_star_match_fraction_oracle(coeffs):
    rng = random.Random(sum(coeffs) * 17 + len(coeffs))
    s = srs_for(make_field(coeffs))
    vecs = [s.initial_vector(), (0,) * s.dim]
    vecs += [tuple(rng.randint(-50, 50) for _ in range(s.dim)) for _ in range(60)]
    for vec in vecs:
        assert s.tau(vec) == oracle_tau(s.field, vec), vec
        neg = tuple(-c for c in vec)
        assert s.tau_star(vec) == tuple(-c for c in oracle_tau(s.field, neg)), vec


def test_tau_star_and_q_set_check_the_identity():
    # one floor of -l off by one, on the negated initial vector: tau_star
    # and q_set's first step both see tau*(l) != tau(l) - l_I and raise
    s = srs_for(TRIB)
    plain = s._floor
    bad = tuple(-c for c in s.initial_vector())
    s._floor = lambda vec: plain(vec) + (vec == bad)
    with pytest.raises(InvariantViolation, match="tau_star identity"):
        s.tau_star(s.initial_vector())
    with pytest.raises(InvariantViolation, match="tau_star identity"):
        q_set(s)
    # at l = 0 both images are zero, so the identity fails there and is
    # not checked, even on the closure of a zero-reaching initial vector
    zero = (0,) * s.dim
    t = srs_for(TRIB)
    assert t._tau_pair(zero) == (zero, zero)
    assert t.tau_star(zero) == zero
    assert zero in q_set(t).nodes


# -- the first try of tau's floor: enclosed radix rows ----------------------
#
# tau floors r . l from a table of the rows' enclosures and falls back to
# BetaField.floor_nums on the numerators when the table leaves the floor
# open.  floor_nums on ShiftRadixSystem._numerators is the oracle here.


def _floor_nums_tau(s, vec):
    return vec[1:] + (-s.field.floor_nums(s._numerators(vec), 1),)


def _counting_floor_nums(field):
    """Count the floor_nums calls on field, the fallbacks of its tables."""
    calls = [0]
    plain = field.floor_nums

    def floor_nums(nums, den):
        calls[0] += 1
        return plain(nums, den)

    field.floor_nums = floor_nums
    return calls


@pytest.mark.parametrize(
    "name, sha256",
    [
        ("cubic", "38f82c85d309c7cd315a5298ede639d49ff8ff2a44f881e86ae533925e96adde"),
        ("quartic", "7b46546deb98d45b304bb0b737f4ceb4be9de75ca051fc987730e62f47dbfb6f"),
    ],
    ids=["cubic", "quartic"],
)
def test_survey_grid_q_graphs_are_pinned(name, sha256):
    # nodes, tau-edges, P and F flags of every Q on the survey grid, in
    # grid order, pinned: a change to any floor tau decides shows here.
    # Each tau-edge and tau_star image also matches floor_nums
    h = hashlib.sha256()
    for field in survey_grid_fields(name):
        s = srs_for(field)
        g = q_set(s)
        for v in g.nodes:
            assert g.edges[v] == _floor_nums_tau(s, v), (field, v)
            neg = tuple(-c for c in v)
            assert s.tau_star(v) == tuple(-c for c in _floor_nums_tau(s, neg)), (field, v)
        h.update(
            repr(
                (field.coeffs, g.nodes, sorted(g.edges.items()), sorted(g.p_nodes), sorted(g.in_f.items()))
            ).encode()
        )
    assert h.hexdigest() == sha256


@pytest.mark.parametrize("coeffs", [(5, 5, 4), (8, 8, 7), (-2, 1, 1, 4), (1, 1, 1)])
def test_tau_falls_back_and_encloses_again_on_a_fresh_field(coeffs):
    # a fresh field's coarse bracket leaves some enclosure across an
    # integer: floor_nums refines it, the rows are enclosed again, and a
    # second pass over Q is decided at the first try
    field = make_field(coeffs)
    lo, hi = field.interval
    s = srs_for(field)
    calls = _counting_floor_nums(field)
    graph = q_set(s)
    nlo, nhi = field.interval
    assert lo <= nlo < nhi <= hi and nhi - nlo < hi - lo
    assert 0 < calls[0] < len(graph.nodes)
    calls[0] = 0
    oracle = srs_for(make_field(coeffs))
    for v in graph.nodes:
        assert s.tau(v) == _floor_nums_tau(oracle, v), v
        assert s.tau_star(v) == oracle.tau_star(v), v
    assert calls[0] == 0


def test_a_stale_table_stays_exact():
    # a table built on one bracket still encloses every value after the
    # field refines further: it decides floors at the first try until one
    # falls back, and that fallback encloses the rows again on the refined
    # bracket, so no later call falls back
    rng = random.Random(39)
    for coeffs, built_after in (((5, 5, 4), 16), ((-3, 3, -2, 4), 16), ((-1, 3), 10)):
        field = make_field(coeffs)
        s = srs_for(field)
        for _ in range(built_after):
            field.refine()
        floor = field.linear_floor(s._rows)
        for _ in range(30):
            field.refine()
        calls = _counting_floor_nums(field)
        oracle = srs_for(make_field(coeffs))
        vecs = [tuple(rng.randint(-60, 60) for _ in range(s.dim)) for _ in range(300)]
        first_tries = 0
        for _ in range(2):
            for v in vecs:
                assert floor(v) == oracle.field.floor_nums(oracle._numerators(v), 1), (coeffs, v)
                first_tries += not calls[0]
        assert calls[0] == 1 and first_tries > 0, coeffs


def test_a_coarse_table_decides_exactly():
    # each call on its own fresh field, so the table is the one enclosed
    # on the bracket isolation left; mixed signs in l make the enclosure
    # the sum of |l_j| times each row's width
    rng = random.Random(7)
    for coeffs in ((5, 5, 4), (-3, 3, -2, 4), (1, 1, 1), (8, 8, 7)):
        oracle = srs_for(make_field(coeffs))
        for _ in range(40):
            v = tuple(rng.randint(-30, 30) for _ in range(oracle.dim))
            field = make_field(coeffs)
            floor = field.linear_floor(oracle._rows)
            assert floor(v) == oracle.field.floor_nums(oracle._numerators(v), 1), (coeffs, v)


def test_linear_floor_takes_rows_of_the_field_degree():
    with pytest.raises(ValueError):
        TRIB.linear_floor([(1, 2)])


def test_q_set_under_threads():
    # eight threads close Q on one fresh field and one SRS, so they refine
    # one bracket and read and replace one row table while others use it
    coeffs = (5, 5, 4)
    expect = q_set(srs_for(make_field(coeffs)))
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            s = srs_for(make_field(coeffs))
            results = []
            start = threading.Barrier(8)

            def worker():
                start.wait(timeout=60)
                results.append(q_set(s))

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
                assert not th.is_alive()
            assert len(results) == 8
            for g in results:
                assert (g.nodes, g.edges, g.in_f, g.p_nodes) == (
                    expect.nodes, expect.edges, expect.in_f, expect.p_nodes
                )
    finally:
        sys.setswitchinterval(old_interval)


def test_q_graph_pickles_with_its_srs():
    # tau's floor is a closure over its table; a copy builds its own
    g = q_set(srs_for(make_field((5, 5, 4))))
    copy = pickle.loads(pickle.dumps(g))
    assert copy.edges == g.edges
    assert all(copy.srs.tau(v) == w for v, w in g.edges.items())


def test_q_set_against_plain_closure_oracle():
    # independent closure: dictionary-free breadth first walk recomputing
    # tau and tau_star from raw field arithmetic
    field = family(2)
    s = srs_for(field)

    def tau_raw(vec):
        val = field.zero()
        for rj, lj in zip(s.r, vec):
            val = val + lj * rj
        return vec[1:] + (-val.floor(),)

    seen = {(0, 1)}
    stack = [(0, 1)]
    while stack:
        v = stack.pop()
        neg = tuple(-c for c in v)
        for img in (tau_raw(v), tuple(-c for c in tau_raw(neg))):
            if img not in seen:
                seen.add(img)
                stack.append(img)
    assert seen == set(q_set(s).nodes)


def test_q_set_nodes_against_fixed_point_oracle():
    # grow the set by every tau and tau_star image until it stops changing
    for field in (family(2), TRIB, make_field((2, 3, 1))):
        s = srs_for(field)
        q = {s.initial_vector()}
        while True:
            grown = q | {s.tau(v) for v in q} | {s.tau_star(v) for v in q}
            if grown == q:
                break
            q = grown
        assert set(q_set(s).nodes) == q
        assert len(q_set(s).nodes) == len(q)


def test_q_set_flags_against_stepwise_oracle():
    # the definitions spelled out: v is in F when |Q| tau steps from v hit
    # zero, and a nonzero v is in P when tau returns to v within |Q| steps
    for field in (make_field((4, -4, 5)), make_field((-1, 1, 2)), family(2), TRIB):
        s = srs_for(field)
        g = q_set(s)
        zero = (0,) * s.dim
        expect_f = {}
        expect_p = set()
        for v in g.nodes:
            cur = v
            hits_zero = cur == zero
            for _ in range(len(g.nodes)):
                cur = s.tau(cur)
                hits_zero = hits_zero or cur == zero
                if cur == v and v != zero:
                    expect_p.add(v)
            expect_f[v] = hits_zero
        assert g.in_f == expect_f
        assert g.p_nodes == expect_p
    assert len(q_set(srs_for(make_field((4, -4, 5)))).p_nodes) == 5


def test_orbit_vectors_follow_q_edges():
    # v_box_set reads the orbit vectors off Q's tau-edges: the plain tau
    # iteration of the initial vector stays in Q and steps along its edges
    for field in (make_field((4, -4, 5)), make_field((-1, 1, 2)), family(2), TRIB):
        g = q_set(srs_for(field))
        S = orbit_vectors(g.srs)
        assert S and set(S) <= set(g.nodes)
        assert all(g.edges[v] == g.srs.tau(v) for v in S)


def test_in_f_beta():
    s = srs_for(family(2))
    assert in_f_beta(s, (0, 0))
    assert in_f_beta(s, (0, 1))
    assert not in_f_beta(s, (1, 1))


def test_out_degree_and_closure():
    g = q_set(srs_for(family(3)))
    assert set(g.edges) == set(g.nodes)
    assert all(img in set(g.nodes) for img in g.edges.values())


def test_frac_value_injective_on_q():
    for field in (TRIB, family(2)):
        g = q_set(srs_for(field))
        values = {g.srs.frac_value(v).coords for v in g.nodes}
        assert len(values) == len(g.nodes)


def test_q_symmetry_under_preimage_closure():
    # when every preimage of P stays in P the closure is symmetric
    for field in (family(2), make_field((3, -5, 5))):
        s = srs_for(field)
        g = q_set(s)
        P = g.p_nodes
        if all(tau_preimages(s, p) <= P for p in P):
            assert {tuple(-c for c in v) for v in g.nodes} == set(g.nodes)


def test_q_minus_f_subset_p():
    for field in (family(2), make_field((3, -5, 5)), TRIB):
        s = srs_for(field)
        g = q_set(s)
        P = g.p_nodes
        if all(tau_preimages(s, p) <= P for p in P):
            outside_f = {v for v in g.nodes if not g.in_f[v]}
            assert outside_f <= P


def test_tau_preimages():
    s = srs_for(family(2))
    assert tau_preimages(s, (1, 1)) == {(1, 1)}
    assert (1, 0) in tau_preimages(s, (0, 0))
    rng = random.Random(6)
    for field in (TRIB, family(3)):
        ss = srs_for(field)
        for _ in range(25):
            m = tuple(rng.randint(-4, 4) for _ in range(ss.dim))
            pre = tau_preimages(ss, m)
            assert all(ss.tau(v) == m for v in pre)
            # no preimage just outside the computed interval
            if pre:
                xs = sorted(v[0] for v in pre)
                below = (xs[0] - 1,) + m[:-1]
                above = (xs[-1] + 1,) + m[:-1]
                assert ss.tau(below) != m and ss.tau(above) != m


def _preimage_window(field, vec):
    """W with |x| <= W for every preimage (x, vec_1, ..., vec_{d-2}) of
    vec: x r_1 + c lies in [t, t + 1) for t = -vec_{d-1} and
    c = sum_{j>=2} vec_{j-1} r_j, where |r_1| = |a_0| / beta and
    |r_j| <= sum_i |a_{j-i}| beta^{-i}; the field's bracket [lo, hi]
    bounds beta."""
    a = field.coeffs
    lo, hi = field.interval
    r = [sum(abs(a[j - i]) / lo**i for i in range(1, j + 1)) for j in range(1, len(a))]
    c = sum(abs(v) * rj for v, rj in zip(vec[:-1], r[1:]))
    return math.ceil((abs(vec[-1]) + 1 + c) * hi / abs(a[0])) + 1


def test_tau_preimages_match_brute_force():
    rng = random.Random(20261018)
    fields = {1: 0, -1: 0}
    while min(fields.values()) < 15:
        d = rng.randint(2, 5)
        coeffs = [rng.choice((-1, 1)) * rng.randint(1, 4)] + [rng.randint(-4, 4) for _ in range(d - 1)]
        try:
            s = srs_for(make_field(coeffs))
        except BetaFinError:
            continue
        fields[1 if coeffs[0] > 0 else -1] += 1
        for i in range(4):
            vec = tuple(rng.randint(-3, 3) for _ in range(s.dim))
            if i % 2:
                vec = s.tau(vec)  # one with a preimage
            w = _preimage_window(s.field, vec)
            brute = {(x,) + vec[:-1] for x in range(-w, w + 1)}
            assert tau_preimages(s, vec) == {v for v in brute if s.tau(v) == vec}, (coeffs, vec)


def test_delta():
    assert delta(frozenset()) == 0
    assert delta(frozenset({(1, 1)})) == 1
    assert delta({(0, -3), (2, 1)}) == 3


def test_v_box_family():
    s = srs_for(family(2))
    S = orbit_vectors(s)
    assert set(S) == {(0, 1), (1, 2), (2, 2), (2, 1), (1, 0)}
    assert v_box_set(q_set(s), 1) == {(0, 0), (0, -1), (-1, 0), (-1, -1)}


def test_v_box_against_bounded_combination_oracle():
    # brute force: all combinations -sum w_n s_n with coefficients up to 20,
    # pruned coordinatewise (sound because the family orbit is nonnegative)
    s = srs_for(family(2))
    S = orbit_vectors(s)
    box = 1
    found = set()

    def rec(idx, acc):
        if any(c < -box for c in acc):
            return
        if all(abs(c) <= box for c in acc):
            found.add(acc)
        if idx == len(S):
            return
        for w in range(0, 21):
            vec = tuple(a - w * b for a, b in zip(acc, S[idx]))
            if w > 0 and any(c < -box for c in vec):
                break
            rec(idx + 1, vec)

    rec(0, (0, 0))
    assert found == v_box_set(q_set(s), box)


def test_v_box_zero_delta():
    assert v_box_set(q_set(srs_for(TRIB)), 0) == {(0, 0)}


def test_mixed_sign_box_against_bounded_sums_oracle():
    # x^3-3x^2-6x-4: V is the half-plane x + y <= 0, and each of its points
    # in the 3-box is a sum of at most K = 6 vectors of -S ((-3, -3) needs
    # six); no seventh vector adds a box point
    s = srs_for(make_field((4, 6, 3)))
    S = orbit_vectors(s)
    assert S == [(0, 1), (1, -1), (-1, 1), (1, 0)]
    box = 3

    def box_sums(k):
        out = set()
        for n in range(k + 1):
            for terms in itertools.combinations_with_replacement(S, n):
                v = tuple(-sum(col) for col in zip((0, 0), *terms))
                if max(map(abs, v)) <= box:
                    out.add(v)
        return out

    found = box_sums(6)
    assert found == box_sums(7)
    half_plane = {(x, y) for x in range(-box, box + 1) for y in range(-box, box + 1) if x + y <= 0}
    assert found == half_plane and len(found) == 28
    graph = q_set(s)
    assert v_box_set(graph, box) == found
    # the closure steps through 190 nodes of its wider box
    v_box_set(graph, box, cap=190)
    with pytest.raises(ClosureBudgetExceeded):
        v_box_set(graph, box, cap=189)


def test_mixed_sign_orbit_certificates():
    # orbit vectors of both signs and delta 3: x^3-x^2-3x-2 and
    # x^3-2x^2-5x-3 fail the preimage check, so R0 is not enumerated;
    # x^3-3x^2-6x-4 passes it, and two of its 28 box vectors miss F
    for coeffs, r0_size, diag in (
        ((2, 3, 1), 0, "preimage closure fails"),
        ((3, 5, 2), 0, "preimage closure fails"),
        ((4, 6, 3), 28, "a box vector misses F: (-2, 1), (1, -2)"),
    ):
        s = srs_for(make_field(coeffs))
        S = orbit_vectors(s)
        assert any(x < 0 for v in S for x in v) and any(x > 0 for v in S for x in v)
        cert = f1_certificate(q_set(s))
        assert cert.delta == 3
        assert (cert.verdict, cert.diagnostic) == ("unknown", diag)
        assert cert.preimage_closure_ok == bool(r0_size) and not cert.r0_in_f
        assert len(cert.r0) == r0_size
    assert not in_f_beta(s, (-2, 1)) and not in_f_beta(s, (1, -2))


def test_mixed_sign_orbit_with_zero_delta_is_proven():
    s = srs_for(make_field((5, 5, 4)))  # x^3-4x^2-5x-5
    S = orbit_vectors(s)
    assert any(x < 0 for v in S for x in v) and any(x > 0 for v in S for x in v)
    cert = f1_certificate(q_set(s))
    assert cert.delta == 0
    assert cert.verdict == "proven"
    assert cert.r0 == frozenset({(0, 0)})


def _monotone_box(s, bound):
    """The slice as the closure of zero under v -> v - s_n inside the
    delta-box alone, breadth first: exact when every orbit vector has one
    coordinate sign, since partial sums are then monotone."""
    S = orbit_vectors(s)
    seen = {(0,) * s.dim}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for step in S:
            w = tuple(a - b for a, b in zip(v, step))
            if w not in seen and max(map(abs, w)) <= bound:
                seen.add(w)
                queue.append(w)
    return seen


@pytest.mark.parametrize(
    "name, same_sign, outcomes",
    [
        ("cubic", 242, {"proven": 372, "preimage closure fails": 234, "a box vector misses F": 5}),
        ("quartic", 170, {"proven": 72, "preimage closure fails": 177}),
    ],
)
def test_survey_grid_box_slices_and_certificates(name, same_sign, outcomes):
    # where every orbit vector has one sign, the slice and the closure's
    # node count (the budget it spends) are the monotone closure's.  The
    # certificate walks R0 over a copy of Q's F flags; a fresh walk of each
    # box vector (in_f_beta) finds the same box vectors missing F, and Q's
    # own flags are left as they were
    checked = 0
    counts = Counter()
    for field in survey_grid_fields(name):
        graph = q_set(srs_for(field))
        s = graph.srs
        bound = delta(graph.p_nodes)
        S = orbit_vectors(s)
        if bound and (all(c >= 0 for v in S for c in v) or all(c <= 0 for v in S for c in v)):
            slice_ = _monotone_box(s, bound)
            assert v_box_set(graph, bound, cap=len(slice_)) == slice_, field
            with pytest.raises(ClosureBudgetExceeded):
                v_box_set(graph, bound, cap=len(slice_) - 1)
            checked += 1
        in_f = dict(graph.in_f)
        cert = f1_certificate(graph)
        assert graph.in_f == in_f, field
        missing = sorted(v for v in cert.r0 if not in_f_beta(s, v))
        assert cert.r0_in_f == (cert.preimage_closure_ok and not missing), field
        if missing:
            assert cert.diagnostic == f"a box vector misses F: {', '.join(map(str, missing))}"
        counts[cert.diagnostic.split(":")[0] or cert.verdict] += 1
    assert checked == same_sign
    assert counts == outcomes


def test_f1_certificate_family():
    for t in (2, 5, 9):
        cert = f1_certificate(q_set(srs_for(family(t))))
        assert cert.verdict == "proven"
        assert cert.p_set == frozenset({(1, 1)})
        assert cert.delta == 1
        assert cert.preimage_closure_ok and cert.r0_in_f


def test_f1_certificate_examples():
    for a, b, c in ((5, -5, 3), (6, -6, 4), (7, -8, 5)):
        cert = f1_certificate(q_set(srs_for(make_field((c, b, a)))))
        assert cert.verdict == "proven"
    cert = f1_certificate(q_set(srs_for(TRIB)))
    assert cert.verdict == "proven"
    assert cert.p_set == frozenset() and cert.delta == 0
    assert cert.r0 == frozenset({(0, 0)})


def test_f1_certificate_unknown_is_not_refuted():
    # quadratic with a tau self-loop: the sufficient condition fails but
    # the verdict must stay unknown (here (F1) actually holds)
    cert = f1_certificate(q_set(srs_for(make_field((-1, 3)))))
    assert cert.verdict == "unknown"
    assert cert.p_set == frozenset({(1,)})


def test_f1_certificate_spent_walk_budget_is_unknown():
    # x^3-3x^2-6x-4: (-3, -3) is the one box vector outside Q, and its
    # walk steps two new states before it meets Q's flags.  One state
    # spends the orbit budget: unknown, and the diagnostic says why; two
    # let every walk finish, and the two box vectors that miss F are named.
    # The spent budget keeps P, delta, the passed preimage check and the
    # 28 box vectors enumerated before the walks
    graph = q_set(srs_for(make_field((4, 6, 3))))
    assert (-3, -3) not in graph.in_f
    cert = f1_certificate(graph, 1)
    assert cert.verdict == "unknown" and not cert.r0_in_f
    assert cert.diagnostic == "budget: walk exceeded 1 new states"
    assert (cert.p_set, cert.delta) == (graph.p_nodes, 3) and cert.preimage_closure_ok
    spent_r0 = cert.r0
    cert = f1_certificate(graph, 2)
    assert cert.verdict == "unknown" and len(cert.r0) == 28 and cert.r0 == spent_r0
    assert cert.diagnostic == "a box vector misses F: (-2, 1), (1, -2)"
    # the orbit vectors and the box vectors of the family at t = 2 and of
    # x^3-x^2-2x-1 all have Q's verdicts: one state is budget enough
    for coeffs in ((2, -4, 4), (1, 2, 1)):
        assert f1_certificate(q_set(srs_for(make_field(coeffs))), 1).verdict == "proven"


def test_f1_certificate_spent_closure_budget_is_unknown():
    # family t=2: delta 1 and a box slice of 4 vectors.  The spent box
    # closure leaves R0 empty but keeps P, delta and the passed preimage check
    graph = q_set(srs_for(family(2)))
    assert len(v_box_set(graph, delta(graph.p_nodes))) == 4
    cert = f1_certificate(graph, closure_cap=1)
    assert cert.verdict == "unknown"
    assert cert.diagnostic.startswith("budget: ")
    assert "1 nodes" in cert.diagnostic
    assert (cert.p_set, cert.delta) == (frozenset({(1, 1)}), 1)
    assert cert.preimage_closure_ok and not cert.r0 and not cert.r0_in_f
    assert f1_certificate(graph, closure_cap=4).verdict == "proven"


def test_floor_beta_plus_one():
    # x^3-2x^2-x+1: -l_I = (0, -1) falls into the 3-cycle below, so
    # floor(beta) + 1 = 3 has an infinite expansion
    s21 = srs_for(make_field((-1, 1, 2)))
    assert s21.tau((0, -1)) == (-1, 1)
    assert s21.tau((-1, 1)) == (1, 0)
    assert s21.tau((1, 0)) == (0, 1)
    assert not in_f_beta(s21, (0, -1))
    assert not is_finite_expansion(s21.field.from_rational(3))
    # the digit orbit of 2 in the tribonacci base does not close within 3 states
    assert is_finite_expansion(TRIB.from_rational(2))
    with pytest.raises(OrbitBudgetExceeded):
        is_finite_expansion(TRIB.from_rational(2), 3)


def test_budget_errors():
    with pytest.raises(ClosureBudgetExceeded):
        q_set(srs_for(family(2)), cap=3)
    with pytest.raises(OrbitBudgetExceeded):
        in_f_beta(srs_for(family(2)), (0, 1), cap=2)
    with pytest.raises(ClosureBudgetExceeded):
        v_box_set(q_set(srs_for(family(2))), 1, cap=2)


def test_export_graph_dot_and_json():
    g = q_set(srs_for(family(2)))
    dot = export_graph(g, "dot")
    assert dot.startswith("digraph srs {")
    assert '"1,1" [shape=doublecircle];' in dot
    assert '"1,1" -> "1,1";' in dot
    assert '"0,1" [style=filled];' in dot
    assert dot == export_graph(g, "dot")  # deterministic
    data = json.loads(export_graph(g, "json"))
    assert set(data) == {"nodes", "edges", "p_set", "f_flags"}
    assert len(data["nodes"]) == 27
    assert data["p_set"] == [[1, 1]]
    edges = {tuple(map(tuple, e)) for e in data["edges"]}
    assert edges == {(k, v) for k, v in FAMILY_EDGES.items()}
