"""The shift radix system attached to Q(beta).

Integer vectors l in Z^{d-1} evolve by tau(l) = (l_2, ..., l_{d-1},
-floor(r . l)) where r is the radix vector built from the defining
coefficients.  Every r_j lies in Z[beta], so r . l is the integer
combination sum_j l_j R_j of integer rows, floored by
BetaField.linear_floor: a dot product of l with the rows' enclosures
decides most floors, and the field's integer floor kernel
BetaField.floor_nums the rest.  The fractional value map, a bijection onto
Z[beta] intersected with [0, 1), conjugates tau to the
beta-transformation there, which turns digit finiteness questions into
reachability questions on integer vectors: F collects the vectors whose
tau-orbit hits zero, Q the closure of the initial vector under tau and
its dual, and P the nonzero tau-periodic points of Q.  The finiteness
certificate checks the two conditions (preimage closure of P, and the
delta-box slice of V landing in F) whose conjunction is sufficient for
every natural number to have a finite expansion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import mul

from .errors import (
    ClosureBudgetExceeded,
    InvariantViolation,
    OrbitBudgetExceeded,
)
from .expansion import DEFAULT_ORBIT_CAP
from .field import BetaField, FieldElement
from .walk import closure, walk

SrsVector = tuple[int, ...]

DEFAULT_CLOSURE_CAP = 1_000_000


class ShiftRadixSystem:
    """tau, its dual, and the conjugacy data for one field.

    The radix coordinates r_j = sum_{i=1}^{j} a_{j-i} beta^{-i} lie in
    Z[beta]: with beta^d = sum_i a_i beta^i,
    r_j = beta^{d-j} - sum_{i=j}^{d-1} a_i beta^{i-j}.  Each r_j is kept
    once, as the integer row R_j of its power-basis coordinates, so r . l
    is sum_j l_j R_j.  tau floors it with the callable that
    BetaField.linear_floor builds on the rows: its first try is a dot
    product of l with each row's enclosure on the field's bracket, and
    where that leaves the floor open it falls back to floor_nums, the
    field's integer floor kernel, which FieldElement.floor runs.  The dual
    tau*(l) = -tau(-l) = l[1:] + (floor(-r . l),) takes the same callable
    on -l, and one step, _tau_pair, gives both images and checks the
    identity tau*(l) = tau(l) - l_I that holds for l != 0.
    """

    def __init__(self, field: BetaField):
        self.field = field
        d = field.degree
        self.dim = d - 1
        a = field.coeffs
        # row j - 1 holds R_j
        self._rows = [
            [-a[m + j] for m in range(d - j)] + [1] + [0] * (j - 1)
            for j in range(1, d)
        ]
        # column m holds the beta^m coordinates of every row
        self._cols = tuple(zip(*self._rows))
        self._floor = field.linear_floor(self._rows)

    def __reduce__(self):
        # tau's floor is a closure; a copy builds its own from the field
        return ShiftRadixSystem, (self.field,)

    @property
    def r(self) -> list[FieldElement]:
        """The radix vector, one field element per coordinate."""
        return [self.field.from_numerators(row, 1) for row in self._rows]

    def initial_vector(self) -> SrsVector:
        return (0,) * (self.dim - 1) + (1,)

    def _numerators(self, vec: SrsVector) -> list[int]:
        """Power-basis coordinates of r . vec, all integers."""
        self._check(vec)
        return [sum(map(mul, vec, col)) for col in self._cols]

    def value(self, vec: SrsVector) -> FieldElement:
        """The inner product r . vec, exact in Q(beta)."""
        return self.field.from_numerators(self._numerators(vec), 1)

    def frac_value(self, vec: SrsVector) -> FieldElement:
        v = self.value(vec)
        return v - v.floor()

    def tau(self, vec: SrsVector) -> SrsVector:
        self._check(vec)
        return vec[1:] + (-self._floor(vec),)

    def tau_star(self, vec: SrsVector) -> SrsVector:
        """-tau(-l); checked to equal tau(l) - initial_vector for l != 0."""
        return self._tau_pair(vec)[1]

    def _tau_pair(self, vec: SrsVector) -> tuple[SrsVector, SrsVector]:
        """tau(l) and tau*(l) from one step.  r . l is irrational for
        l != 0, so floor(-r . l) = -floor(r . l) - 1 and the two last
        coordinates differ by exactly one; anything else raises."""
        image = self.tau(vec)
        star = vec[1:] + (self._floor(tuple(-c for c in vec)),)
        if any(vec) and image[-1] - star[-1] != 1:
            raise InvariantViolation("tau_star identity tau(l) - l_I failed")
        return image, star

    def _check(self, vec: SrsVector) -> None:
        if len(vec) != self.dim:
            raise ValueError(f"vector length {len(vec)} != {self.dim}")


@dataclass
class OrbitGraph:
    """Q as a functional tau-graph with F and P membership flags."""

    srs: ShiftRadixSystem
    nodes: tuple[SrsVector, ...]
    edges: dict[SrsVector, SrsVector]
    in_f: dict[SrsVector, bool]
    p_nodes: frozenset[SrsVector]

    def node_count(self) -> int:
        return len(self.nodes)

    def frac_verdicts(self) -> dict[tuple[int, ...], bool]:
        """The F flags of Q keyed by the T-states frac_value(v), each as its
        numerators over den 1.  tau(v) ends in -floor(r . v), so
        frac_value(v) is r . v with that last coordinate added to the
        constant numerator, and no floor is decided again."""
        out = {}
        for v, reach in self.in_f.items():
            nums = self.srs._numerators(v)
            nums[0] += self.edges[v][-1]
            out[tuple(nums)] = reach
        return out


def q_set(srs: ShiftRadixSystem, cap: int = DEFAULT_CLOSURE_CAP) -> OrbitGraph:
    """Closure of the initial vector under tau and its dual, with the
    tau-edge relation and membership annotations.  Each node takes one
    ShiftRadixSystem._tau_pair step, which gives both images and checks
    the identity tau*(l) = tau(l) - l_I."""
    edges: dict[SrsVector, SrsVector] = {}

    def successors(v: SrsVector) -> tuple[SrsVector, SrsVector]:
        pair = srs._tau_pair(v)
        edges[v] = pair[0]
        return pair

    seen = closure(srs.initial_vector(), successors, cap)
    if any(t not in seen for t in edges.values()):
        raise InvariantViolation("closure is not tau-closed")

    # F membership and P (nonzero nodes on tau-cycles) in one linear pass
    zero = (0,) * srs.dim
    in_f = {zero: True}
    p_nodes: set[SrsVector] = set()
    for v in seen:
        walk(edges.__getitem__, v, in_f, p_nodes, len(seen))
    if zero not in seen:
        del in_f[zero]
    nodes = tuple(sorted(seen))
    return OrbitGraph(srs, nodes, edges, in_f, frozenset(p_nodes))


def in_f_beta(srs: ShiftRadixSystem, vec: SrsVector, cap: int = DEFAULT_ORBIT_CAP) -> bool:
    """Does the tau-orbit of vec reach the zero vector?"""
    verdict = {(0,) * srs.dim: True}
    walk(srs.tau, vec, verdict, set(), cap)
    return verdict[vec]


def tau_preimages(srs: ShiftRadixSystem, vec: SrsVector) -> set[SrsVector]:
    """All integer vectors l with tau(l) = vec.

    A preimage is l = (x, v_1, ..., v_{d-2}) for vec = (v_1, ..., v_{d-1}),
    and x solves -v_{d-1} <= r . l < 1 - v_{d-1}.  Since beta r_1 = a_0
    and beta r_j = a_{j-1} + r_{j-1}, multiplying by beta gives
    -w <= x a_0 < beta - w for w = v_{d-1} beta + sum_m v_m a_m
    + r . (v_1, ..., v_{d-2}, 0) in Z[beta].  So x ranges over an integer
    interval whose ends are floors of w and w - beta over |a_0|, decided
    on integer numerators.
    """
    srs._check(vec)
    field = srs.field
    a = field.coeffs
    fixed = vec[:-1]
    w = srs._numerators(fixed + (0,))
    w[0] += sum(map(mul, fixed, a[1:]))
    w[1] += vec[-1]
    w_minus_beta = w.copy()
    w_minus_beta[1] -= 1
    if a[0] > 0:
        lo_int = -field.floor_nums(w, a[0])
        hi_int = -field.floor_nums(w_minus_beta, a[0]) - 1
    else:
        # w - beta < x |a_0| <= w
        lo_int = field.floor_nums(w_minus_beta, -a[0]) + 1
        hi_int = field.floor_nums(w, -a[0])
    out: set[SrsVector] = set()
    for x in range(lo_int, hi_int + 1):
        cand = (x,) + fixed
        if srs.tau(cand) != vec:
            raise InvariantViolation("preimage interval produced a non-preimage")
        out.add(cand)
    return out


def delta(p_nodes: frozenset[SrsVector] | set[SrsVector]) -> int:
    """Largest coordinate magnitude over P; 0 for an empty P."""
    return max((abs(c) for v in p_nodes for c in v), default=0)


def v_box_set(graph: OrbitGraph, delta_bound: int, cap: int = DEFAULT_CLOSURE_CAP) -> set[SrsVector]:
    """Members of V inside the delta-box; cap bounds the box closure.

    V is the set of finite sums -sum omega_n s_n over the orbit vectors
    s_n, the distinct nonzero vectors of the initial vector's tau-orbit,
    read off the tau-edges of Q.  The slice is the closure of zero under
    v -> v - s_n inside a per-coordinate box, cut down to the delta-box.
    Where every s_n has one sign, partial sums are monotone between 0 and
    v, so the radius is delta.  Elsewhere it is n max(M, delta) + delta,
    n = dim and M = max |s_n|: by the Steinitz lemma (constant n in any
    norm; Grinberg and Sevast'yanov 1980) the terms of v and -v, which
    sum to zero, have an order whose partial sums stay within
    n max(M, delta), and leaving out -v moves them by at most delta.
    """
    if delta_bound < 0:
        raise ValueError("delta must be >= 0")
    srs = graph.srs
    zero = (0,) * srs.dim
    S = walk(graph.edges.__getitem__, srs.initial_vector(), {zero: True}, set(), len(graph.edges))
    if delta_bound == 0 or not S:
        # the box holds only the zero vector, which is always a member
        return {zero}
    wide = srs.dim * max(delta_bound, *(abs(c) for s in S for c in s)) + delta_bound
    radius = [delta_bound if min(col) >= 0 or max(col) <= 0 else wide for col in zip(*S)]

    def successors(v: SrsVector):
        for s in S:
            w = tuple(x - y for x, y in zip(v, s))
            if all(abs(c) <= r for c, r in zip(w, radius)):
                yield w

    return {v for v in closure(zero, successors, cap) if max(map(abs, v)) <= delta_bound}


@dataclass(frozen=True)
class F1Certificate:
    """Machine-checkable certificate for the natural-number finiteness
    property; the verdict is proven or unknown, never refuted, because
    the two conditions are only sufficient."""

    verdict: str
    p_set: frozenset[SrsVector]
    delta: int
    r0: frozenset[SrsVector]
    preimage_closure_ok: bool
    r0_in_f: bool
    diagnostic: str = ""


def f1_certificate(
    graph: OrbitGraph,
    walk_cap: int = DEFAULT_ORBIT_CAP,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> F1Certificate:
    """Check the sufficient condition on the closure graph, one condition
    at a time: every preimage of a P vector stays in P, then the delta-box
    slice R0 of V reaches zero under tau.  When preimage closure fails, R0
    is not enumerated and stays empty; when some box vectors miss F, the
    diagnostic names them all.  The box vectors are walked in sorted order
    over a copy of Q's F flags, so walk_cap bounds the new states each walk
    steps beyond Q and the walks before it; closure_cap bounds the box
    closure.  A spent budget gives "unknown" and keeps what was decided
    before it: P, delta, the preimage check, and R0 once enumerated."""
    srs = graph.srs
    P = graph.p_nodes
    d = delta(P)
    verdict = {**graph.in_f, (0,) * srs.dim: True}
    closure_ok = all(tau_preimages(srs, p) <= P for p in P)
    r0: set[SrsVector] = set()
    try:
        if closure_ok:
            r0 = v_box_set(graph, d, closure_cap)
        for v in sorted(r0):
            walk(srs.tau, v, verdict, set(), walk_cap)
    except (ClosureBudgetExceeded, OrbitBudgetExceeded) as exc:
        return F1Certificate("unknown", P, d, frozenset(r0), closure_ok, False, f"budget: {exc}")
    missing = sorted(v for v in r0 if not verdict[v])
    if not closure_ok:
        diag = "preimage closure fails"
    elif missing:
        diag = f"a box vector misses F: {', '.join(map(str, missing))}"
    else:
        diag = ""
    proven = closure_ok and not missing
    return F1Certificate(
        "proven" if proven else "unknown", P, d, frozenset(r0), closure_ok, proven, diag
    )


def export_graph(graph: OrbitGraph, fmt: str = "dot") -> str:
    """Deterministic DOT or JSON rendering of the orbit graph.

    DOT marks P nodes with shape=doublecircle and F nodes with
    style=filled; nodes are ordered lexicographically.
    """
    nodes = sorted(graph.nodes)

    def name(v: SrsVector) -> str:
        return ",".join(str(c) for c in v)

    if fmt == "dot":
        lines = ["digraph srs {"]
        for v in nodes:
            attrs = []
            if v in graph.p_nodes:
                attrs.append("shape=doublecircle")
            if graph.in_f.get(v, False):
                attrs.append("style=filled")
            suffix = f" [{', '.join(attrs)}]" if attrs else ""
            lines.append(f'  "{name(v)}"{suffix};')
        for v in nodes:
            lines.append(f'  "{name(v)}" -> "{name(graph.edges[v])}";')
        lines.append("}")
        return "\n".join(lines)
    if fmt == "json":
        return json.dumps(
            {
                "nodes": [list(v) for v in nodes],
                "edges": [[list(v), list(graph.edges[v])] for v in nodes],
                "p_set": sorted(list(v) for v in graph.p_nodes),
                "f_flags": [graph.in_f.get(v, False) for v in nodes],
            }
        )
    raise ValueError(f"unknown format {fmt!r}")
