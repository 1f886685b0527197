"""Finiteness-property classification for Q(beta).

Verdicts for Pisot, (F), (PF) and (F1) are three-valued: proven, refuted
or unknown, because most of the usable conditions for (F1) are
sufficient rather than characterizations (cubic units being the notable
complete case), and every decision runs under a budget.  Every applied
rule leaves an evidence record naming the rule and the mathematical
condition it checked, and verdicts are propagated through the inclusion
chain (F) => (PF) => (F1) with a consistency guard.

(F) is decided on a Pisot base from Q, the closure of the initial SRS
vector under tau and l -> -tau(-l):
  * a nonzero tau-periodic vector v of Q gives frac(value(v)) in
    Z[1/beta] with an infinite expansion, refuting (F) outright (the
    conjugacy is a bijection, so a vector that never reaches zero is an
    element whose digit orbit never terminates);
  * (F) holds iff every vector of the closure W of +-e_1, ..., +-e_{d-1}
    under the same two maps reaches zero (Brunotte 2001; Akiyama,
    Borbely, Brunotte, Petho and Thuswaldner 2005); when every +-e_i
    lies in Q, so does W, and Q without a nonzero tau-cycle proves (F).

Further refutation routes:
  * (PF) forces either (F) or a specific coefficient shape, so failing
    both refutes (PF);
  * any natural number with an infinite expansion refutes (F1); the
    first candidate tried is floor(beta) + 1.  N has a finite expansion
    iff the T-orbit of its fractional part frac(N) reaches 0.  frac(N)
    lies in Z[beta] and in [0, 1), so it is an integer numerator tuple
    over den 1; frac_part computes it, and the sweep over N walks its
    T-orbit, with expansion.py's integer greedy step, on the same
    shared-verdict reach-zero walk as the SRS closure.  The verdict map
    is seeded with Q's, translated to T-states (tau is conjugate to T),
    so a state reached from several N is stepped once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import chain

from .errors import (
    ClosureBudgetExceeded,
    F1Unknown,
    InvariantViolation,
    NotCubicPisot,
    NotUnit,
    OrbitBudgetExceeded,
)
from .expansion import DEFAULT_ORBIT_CAP, _greedy_step, d_beta_one, frac_part, is_finite_expansion
from .field import BetaField, cubic_pisot_criterion, is_pisot, unit_disk_profile
from .srs import (
    DEFAULT_CLOSURE_CAP,
    F1Certificate,
    OrbitGraph,
    ShiftRadixSystem,
    f1_certificate,
    q_set,
)
from .walk import walk
from .words import Word, format_word

PROVEN = "proven"
REFUTED = "refuted"
UNKNOWN = "unknown"

DEFAULT_N_SWEEP = 200


PF_WITHOUT_F_PROVEN = "pf_without_f_proven"
NOT_SPECIAL_FORM = "not_special_form"


def pf_shape(coeffs: tuple[int, ...], floor_beta: int) -> str:
    """Match against the shape x^d - B x^{d-1} + c_2 x^{d-2} + ... + c_d
    with c_i >= 0, c_d > 0 and B > 1 + sum c_i.

    A match proves (PF) without (F).  A beta with (PF) but not (F) must
    match with B = floor(beta) + 1, so a non-match plus a refuted (F)
    refutes (PF).
    """
    # c_i = -a_{d-i}: the shape needs a_j <= 0 for j <= d-2 and a_0 < 0
    if any(a > 0 for a in coeffs[:-1]) or coeffs[0] == 0:
        return NOT_SPECIAL_FORM
    B = coeffs[-1]
    total = -sum(coeffs[:-1])
    if B > 1 + total:
        if B != floor_beta + 1:
            raise InvariantViolation("matched shape must have B = floor(beta) + 1")
        return PF_WITHOUT_F_PROVEN
    return NOT_SPECIAL_FORM


CASE_I = "case_I"
CASE_II = "case_II"
CASE_III = "case_III"
FINITE = "finite"


def bassino_case(a: int, b: int, c: int) -> str:
    """Classify whether d_beta(1) of a cubic Pisot x^3 - ax^2 - bx - c is
    infinite (cases I, II, III) or finite.

    Case III searches k in [2, a-2] with e_k <= b+c < e_{k-1} for
    e_k = 1 - a + (a-2)/k, then tests the defining inequality, all in
    integers: the bounds on b+c are multiplied through by k and k-1.
    """
    if not cubic_pisot_criterion(a, b, c):
        raise NotCubicPisot(f"(a,b,c)=({a},{b},{c}) fails the Pisot criterion")
    if 0 < b <= a and c < 0:
        return CASE_I
    if -a < b <= 0 and b + c < 0:
        return CASE_II
    if b <= -a:
        bc = b + c
        for k in range(2, a - 1):
            # j * e_j = j (1 - a) + a - 2, scaled by j = k and j = k - 1
            if k * (1 - a) + a - 2 <= k * bc and (k - 1) * bc < (k - 1) * (1 - a) + a - 2:
                if b * (k - 1) + c * (k - 2) > (k - 2) - (k - 1) * a:
                    return CASE_III
                break
    return FINITE


@dataclass(frozen=True, slots=True)
class Evidence:
    claim: str
    rule: str
    cite: str

    def to_json_dict(self) -> dict:
        return {"claim": self.claim, "rule": self.rule, "cite": self.cite}


@lru_cache(maxsize=4096)
def _shared_evidence(claim: str, rule: str, cite: str) -> Evidence:
    """One Evidence per distinct (claim, rule, cite), up to the cache size:
    the reports of different fields repeat most of their records, so a
    report holds a pointer per record.  Evidence is frozen, so sharing it
    is safe."""
    return Evidence(claim, rule, cite)


@dataclass(slots=True)
class PropertyReport:
    poly: str
    pisot: str = UNKNOWN
    f: str = UNKNOWN
    pf: str = UNKNOWN
    f1: str = UNKNOWN
    d_beta_one: Word | None = None
    evidence: list[Evidence] = dc_field(default_factory=list)

    def add(self, claim: str, rule: str, cite: str) -> None:
        self.evidence.append(_shared_evidence(claim, rule, cite))

    def to_json_dict(self) -> dict:
        return {
            "poly": self.poly,
            "pisot": self.pisot,
            "F": self.f,
            "PF": self.pf,
            "F1": self.f1,
            "d_beta_1": format_word(self.d_beta_one) if self.d_beta_one else "",
            "evidence": [e.to_json_dict() for e in self.evidence],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


# the inclusion chain (F) => (PF) => (F1), one (lower, upper) pair per link
_CHAIN = (("f", "pf"), ("pf", "f1"))


def _set_verdict(report: PropertyReport, prop: str, verdict: str, claim: str, rule: str, cite: str) -> None:
    cur = getattr(report, prop)
    if cur == verdict:
        return
    if cur != UNKNOWN:
        raise InvariantViolation(
            f"conflicting verdicts for {prop}: {cur} vs {verdict} (rule {rule})"
        )
    setattr(report, prop, verdict)
    report.add(claim, rule, cite)


def _propagate(report: PropertyReport) -> None:
    # proofs move up the chain and refutations down; both fire on one report
    # only on a conflict, which the final check raises
    for lo, hi in _CHAIN:
        if getattr(report, lo) == PROVEN and getattr(report, hi) == UNKNOWN:
            setattr(report, hi, PROVEN)
            report.add(f"{hi} from {lo}", "inclusion-chain", "(F) implies (PF) implies (F1)")
    for lo, hi in reversed(_CHAIN):
        if getattr(report, hi) == REFUTED and getattr(report, lo) == UNKNOWN:
            setattr(report, lo, REFUTED)
            report.add(f"not {lo} from not {hi}", "inclusion-chain", "(F) implies (PF) implies (F1)")
    for lo, hi in _CHAIN:
        a, b = getattr(report, lo), getattr(report, hi)
        if a == PROVEN and b == REFUTED:
            raise InvariantViolation(f"inclusion chain violated: {lo} proven but {hi} refuted")


def cubic_unit_classify(a: int, b: int, c: int) -> dict[str, str]:
    """Complete verdicts for a cubic Pisot unit x^3 - ax^2 - bx - c.

    (F) holds iff c = 1 and b + c >= 0; (PF) and (F1) are equivalent and
    hold iff (b+c)c >= 0 and (b,c) != (1,-1).
    """
    if abs(c) != 1:
        raise NotUnit(f"|c| = {abs(c)} != 1")
    if not cubic_pisot_criterion(a, b, c):
        raise NotCubicPisot(f"(a,b,c)=({a},{b},{c}) fails the Pisot criterion")
    f_holds = c == 1 and b + c >= 0
    pf_holds = (b + c) * c >= 0 and (b, c) != (1, -1)
    return {
        "f": PROVEN if f_holds else REFUTED,
        "pf": PROVEN if pf_holds else REFUTED,
        "f1": PROVEN if pf_holds else REFUTED,
    }


def classify(
    field: BetaField,
    orbit_cap: int = DEFAULT_ORBIT_CAP,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
    n_sweep: int = DEFAULT_N_SWEEP,
) -> PropertyReport:
    """Full three-valued classification of the field's base.

    The rules read the coefficients and conjugates of p, which is beta's
    minimal polynomial: make_field proves p irreducible.
    """
    return _classify(field, orbit_cap, closure_cap, n_sweep)[0]


def _classify(
    field: BetaField, orbit_cap: int, closure_cap: int, n_sweep: int
) -> tuple[PropertyReport, OrbitGraph | None, F1Certificate | None]:
    """classify's report with the Q graph and the (F1) certificate it
    built, each None where classify did not build it (a non-Pisot base,
    a spent closure budget, or (F1) settled before the certificate)."""
    report = PropertyReport(poly=field.poly_str())

    pisot = is_pisot(field)
    report.pisot = PROVEN if pisot else REFUTED
    inside, on, outside = unit_disk_profile(field)
    report.add(
        f"unit-disk root profile inside={inside} on={on} outside={outside}",
        "schur-cohn",
        "Pisot iff exactly one root outside the closed unit disk",
    )

    if not pisot:
        # digit orbits need not close off the Pisot case; skip them
        _set_verdict(
            report, "f1", REFUTED,
            "a base with the natural-number finiteness property must be Pisot",
            "pisot-necessity", "not Pisot refutes (F1)",
        )
        _propagate(report)
        return report, None, None

    try:
        report.d_beta_one = d_beta_one(field, orbit_cap)
    except OrbitBudgetExceeded:
        report.d_beta_one = None
        report.add(
            f"digit orbit of 1 did not close within {orbit_cap} states",
            "orbit-budget", "budget exceeded",
        )

    d1 = report.d_beta_one
    d1_finite = d1.is_finite() if d1 is not None else None

    if field.degree == 3:
        a, b, c = field.coeffs[2], field.coeffs[1], field.coeffs[0]
        # Bassino's cases decide the finiteness of d_beta(1) from the coefficients
        if d1 is not None and (bassino_case(a, b, c) == FINITE) != d1_finite:
            raise InvariantViolation(
                f"d_beta(1) and Bassino's case disagree on finiteness for {field}"
            )
        # cubic units are completely classified
        if abs(c) == 1:
            unit = cubic_unit_classify(a, b, c)
            for prop in ("f", "pf", "f1"):
                _set_verdict(
                    report, prop, unit[prop],
                    f"cubic unit rule for {prop}", "cubic-unit",
                    "(F) iff c=1 and b+c>=0; (PF) iff (F1) iff (b+c)c>=0 and (b,c)!=(1,-1)",
                )

    # ---- SRS data: decides (F) by P and the witness set, certifies (F1) --
    try:
        graph = q_set(ShiftRadixSystem(field), closure_cap)
    except ClosureBudgetExceeded:
        graph = None
        report.add(
            f"vector closure exceeded {closure_cap} nodes", "closure-budget", "budget exceeded"
        )
    if graph is not None and graph.p_nodes and report.f != REFUTED:
        wit = min(graph.p_nodes)
        x0 = graph.srs.frac_value(wit)
        try:
            finite = is_finite_expansion(x0, orbit_cap)
        except OrbitBudgetExceeded:
            # the tau-cycle self-check did not run, so (F) is not refuted here
            report.add(
                f"tau-cycle check: the digit orbit of frac(value({wit})) "
                f"exceeded {orbit_cap} states",
                "orbit-budget", "budget exceeded",
            )
        else:
            if finite:
                raise InvariantViolation("tau-periodic vector mapped to a finite expansion")
            _set_verdict(
                report, "f", REFUTED,
                f"frac(value({wit})) has an infinite expansion",
                "tau-cycle-witness",
                "a nonzero tau-periodic vector yields an element of Z[1/beta] outside Fin",
            )
    # Q is closed under both maps that close W, so +-e_i in Q (in_f is keyed
    # by Q's nodes) puts W inside Q, and with P empty every node reaches zero
    if graph is not None and not graph.p_nodes and _units(graph.srs.dim) <= graph.in_f.keys():
        # (F) implies a finite d_beta(1) (Frougny and Solomyak 1992)
        if d1_finite is False:
            raise InvariantViolation(f"(F) proven but d_beta(1) is infinite for {field}")
        _set_verdict(
            report, "f", PROVEN,
            "P is empty and every +-e_i lies in Q", "brunotte-witness",
            "Brunotte 2001, Akiyama-Borbely-Brunotte-Petho-Thuswaldner 2005: for Pisot beta, "
            "(F) iff every vector of the closure of +-e_i under tau and -tau(-l) reaches zero",
        )

    # ---- (PF) -------------------------------------------------------------
    if field.degree == 2:
        _set_verdict(
            report, "pf", PROVEN,
            "quadratic Pisot base", "quadratic-pf",
            "every degree-2 Pisot number has (PF)",
        )
    shape = pf_shape(field.coeffs, field.floor_beta())
    if shape == PF_WITHOUT_F_PROVEN:
        _set_verdict(
            report, "pf", PROVEN,
            "coefficient shape with dominant B", "pf-shape",
            "x^d - B x^{d-1} + sum c_i x^{d-i}, c_i >= 0, c_d > 0, B > 1 + sum c_i gives (PF) without (F)",
        )
        _set_verdict(
            report, "f", REFUTED,
            "coefficient shape with dominant B", "pf-shape",
            "the matched shape excludes (F)",
        )
    elif report.f == REFUTED and report.pf == UNKNOWN:
        _set_verdict(
            report, "pf", REFUTED,
            "no (F) and not of the special shape", "pf-necessity",
            "(PF) forces (F) or the shape x^d - (floor(beta)+1) x^{d-1} + ...",
        )

    # charaPF: under (PF), (F) iff d_beta(1) finite
    if report.pf == PROVEN and d1_finite is not None:
        _set_verdict(
            report, "f", PROVEN if d1_finite else REFUTED,
            f"d_beta(1) is {'finite' if d1_finite else 'infinite'} under (PF)",
            "chara-pf", "with (PF), (F) holds iff d_beta(1) is finite",
        )

    # ---- (F1) --------------------------------------------------------------
    cert: F1Certificate | None = None
    if graph is not None and report.f1 == UNKNOWN:
        cert = f1_certificate(graph, orbit_cap, closure_cap)
        if cert.verdict == PROVEN:
            _set_verdict(
                report, "f1", PROVEN,
                f"certificate: P={sorted(cert.p_set)}, delta={cert.delta}, "
                f"R0={sorted(cert.r0)} all reach zero",
                "srs-certificate",
                "preimage-closed P and delta-box slice of V inside F give (F1)",
            )
        elif cert.diagnostic.startswith("budget: "):
            spent = cert.diagnostic.removeprefix("budget: ")
            rule = "closure-budget" if spent.startswith("closure") else "orbit-budget"
            report.add(f"(F1) certificate: {spent}", rule, "budget exceeded")
    if report.f1 == UNKNOWN:
        refuter, skipped = _find_infinite_natural(field, n_sweep, orbit_cap, graph)
        if skipped:
            report.add(
                f"N = {', '.join(map(str, skipped))} skipped: each T-orbit of "
                f"frac(N) exceeded {orbit_cap} new states",
                "orbit-budget", "budget exceeded",
            )
        if refuter is not None:
            _set_verdict(
                report, "f1", REFUTED,
                f"N = {refuter} has an infinite expansion", "natural-sweep",
                "one natural number outside Fin refutes (F1)",
            )

    _propagate(report)
    return report, graph, cert


def _units(dim: int) -> set[tuple[int, ...]]:
    """The vectors +-e_1, ..., +-e_dim of Z^dim."""
    return {tuple(sign * (j == i) for j in range(dim)) for i in range(dim) for sign in (1, -1)}


def _find_infinite_natural(
    field: BetaField,
    n_sweep: int,
    orbit_cap: int,
    graph: OrbitGraph | None = None,
) -> tuple[int | None, list[int]]:
    """The first N with an infinite expansion, or None, among floor(beta) + 1
    then the other N in 1..n_sweep, made one at a time; and the skipped N.

    N has a finite expansion iff the T-orbit of its fractional part
    frac(N) = T^{L(N)}(beta^{-L(N)} N), an element of Z[beta] in [0, 1),
    reaches 0.  frac_part takes its L(N) greedy steps on integer
    numerators, and the sweep checks that frac(N) has den 1 and floor 0,
    then walks its numerator tuple with the same greedy step to zero or a
    cycle.  All N share one verdict map, seeded when graph is given with
    Q's verdicts, translated to T-states (OrbitGraph.frac_verdicts; tau
    is conjugate to T there), so each state is stepped once, the states
    of Q not at all; the graph itself is not changed.

    orbit_cap bounds the new states one N walks (the L(N) steps inside
    frac_part are not counted); an N over it is skipped, never decided,
    and returned in the skipped list, in the order tried.  The map goes
    back to the seed once it holds more than orbit_cap entries beyond
    it, so the sweep never holds more than the seed plus about twice
    orbit_cap; states dropped then are stepped again.
    """

    def step(nums: tuple[int, ...]) -> tuple[int, ...]:
        return _greedy_step(field, nums, 1)[1]

    zero = (0,) * field.degree
    seed = {**graph.frac_verdicts(), zero: True} if graph is not None else {zero: True}
    reaches_zero = dict(seed)
    skipped: list[int] = []
    first = field.floor_beta() + 1
    for n in chain((first,), filter(first.__ne__, range(1, n_sweep + 1))):
        if len(reaches_zero) > len(seed) + orbit_cap:
            reaches_zero = dict(seed)
        y = frac_part(field.from_rational(n))
        if y.den != 1:
            raise InvariantViolation(f"frac({n}) = {y!r} lies outside Z[beta]")
        if field.floor_nums(y.nums, 1) != 0:
            raise InvariantViolation(f"frac({n}) = {y!r} lies outside [0, 1)")
        try:
            walk(step, y.nums, reaches_zero, set(), orbit_cap)
        except OrbitBudgetExceeded:
            skipped.append(n)
            continue
        if not reaches_zero[y.nums]:
            return n, skipped
    return None, skipped


@dataclass(frozen=True)
class CpCaseReport:
    applicable: bool
    f1: str
    pf_without_f: bool | None
    d_beta_one_finite: bool | None
    holds: bool | None
    note: str


def cpcase_check(field: BetaField, **classify_kwargs) -> CpCaseReport:
    """Instance check of: for a cubic Pisot with (F1), (PF) without (F)
    holds iff d_beta(1) is infinite.

    Raises F1Unknown when the (F1) verdict cannot be settled; reports
    inapplicability when (F1) is refuted.
    """
    if field.degree != 3:
        raise NotCubicPisot("the biconditional is about cubic Pisot numbers")
    report = classify(field, **classify_kwargs)
    if report.pisot != PROVEN:
        raise NotCubicPisot("base is not Pisot")
    if report.f1 == UNKNOWN:
        raise F1Unknown("the (F1) verdict is unknown; the biconditional needs it")
    if report.f1 == REFUTED:
        return CpCaseReport(False, report.f1, None, None, None,
                            "(F1) refuted: the biconditional presupposes (F1)")
    if report.pf == UNKNOWN or report.f == UNKNOWN:
        raise F1Unknown("(PF)/(F) verdicts unsettled; cannot evaluate the biconditional")
    pf_wo_f = report.pf == PROVEN and report.f == REFUTED
    d1 = report.d_beta_one
    if d1 is None:
        raise F1Unknown("d_beta(1) unavailable")
    holds = pf_wo_f == (not d1.is_finite())
    if not holds:
        raise InvariantViolation("the (PF)-without-(F) biconditional failed on an instance")
    return CpCaseReport(True, report.f1, pf_wo_f, d1.is_finite(), holds, "")
