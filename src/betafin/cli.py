"""Command line front end.

Subcommands: expand (beta-expansion of a field element), srs with one
action each for the orbit graph (graph), the Q and P sets (qset, pset) and
F membership (fcheck), classify (property report), and verify-family
(batch checks of the cubic family x^3 - 2tx^2 + 2tx - t).  Each leaf
command (a subcommand, or srs and its action) takes only the flags it
reads, and they follow it.  A JSON config file can supply defaults for the
leaf command's flags; explicit flags win, and a key the leaf command does
not take is rejected like an unknown flag.  Exit status 0 means every
requested assertion passed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .classify import DEFAULT_N_SWEEP, PROVEN, REFUTED, _classify, classify
from .errors import BetaFinError, InvariantViolation, OrbitBudgetExceeded
from .expansion import DEFAULT_ORBIT_CAP, Expansion, beta_expand, d_beta_one, is_admissible
from .field import BetaField, FieldElement, make_field
from .srs import (
    DEFAULT_CLOSURE_CAP,
    ShiftRadixSystem,
    export_graph,
    in_f_beta,
    q_set,
    tau_preimages,
)
from .words import Word, format_word, parse_word

# one signed term [c][x[^n]], not empty, whitespace allowed between tokens
_TERM_RE = re.compile(r"\s*([+-]?)\s*(?=[0-9x])([0-9]*)\s*(x(?:\s*\^\s*([0-9]+))?)?\s*")


def parse_poly(text: str) -> BetaField:
    """Accept "x^3-4x^2+4x-2" or comma-separated low-to-high coefficients.

    The symbolic form is a sequence of terms, each after the first joined
    by + or -; anything else raises ValueError.
    """
    text = text.strip()
    if "," in text:
        coeffs = [int(t) for t in text.split(",")]
        if coeffs[-1] != 1:
            raise ValueError("polynomial must be monic (last coefficient 1)")
        return make_field([-c for c in coeffs[:-1]])
    degree = pos = 0
    terms: dict[int, int] = {}
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or (pos and not m.group(1)):
            raise ValueError(f"cannot parse monic polynomial from {text!r}")
        pos = m.end()
        sign_s, coef_s, xpart, exp_s = m.groups()
        coef = int(coef_s) if coef_s else 1
        if sign_s == "-":
            coef = -coef
        exp = 0 if not xpart else (int(exp_s) if exp_s else 1)
        terms[exp] = terms.get(exp, 0) + coef
        degree = max(degree, exp)
    if degree < 2 or terms.get(degree) != 1:
        raise ValueError(f"cannot parse monic polynomial from {text!r}")
    return make_field([-terms.get(i, 0) for i in range(degree)])


def parse_element(field: BetaField, text: str, cap: int = DEFAULT_ORBIT_CAP) -> FieldElement:
    """Rational coordinates "q0,q1,..." (short lists are zero padded) or a
    digit-word literal "L:digits" in the shared word format, |L| <= cap."""
    text = text.strip()
    if ":" in text:
        exp_s, word_s = text.split(":", 1)
        w = parse_word(word_s)
        exp = int(exp_s)
        if abs(exp) > cap:
            raise OrbitBudgetExceeded(f"|L| = {abs(exp)} exceeds the orbit budget {cap}")
        return Expansion(exp, w).value(field)
    coords = text.split(",")
    if len(coords) > field.degree:
        raise ValueError(f"too many coordinates for degree {field.degree}")
    try:
        return field.from_coords(coords + ["0"] * (field.degree - len(coords)))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_vec(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def _int_at_least(low: int):
    """An argparse type: an integer >= low, so a bad budget is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def cmd_expand(args) -> int:
    field = parse_poly(args.poly)
    x = parse_element(field, args.x, args.budget_orbit)
    # is_admissible reads d_beta_star with the default budget; the orbit of 1
    # counts against --budget-orbit first
    d1 = d_beta_one(field, args.budget_orbit)
    exp = beta_expand(x, cap=args.budget_orbit)
    reconstructed = exp.value(field)
    ok = reconstructed == x
    payload = {
        "poly": field.poly_str(),
        "L": exp.exponent,
        "word": format_word(exp.word),
        "finite": exp.is_finite(),
        "admissible": is_admissible(field, exp.word),
        "d_beta_1": format_word(d1),
        "reconstruction_ok": ok,
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(f"poly          {payload['poly']}")
        print(f"L(x)          {payload['L']}")
        print(f"digits        {payload['word']}")
        print(f"finite        {payload['finite']}")
        print(f"d_beta(1)     {payload['d_beta_1']}")
        print(f"reconstructed {'exactly' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _q_graph(args):
    return q_set(ShiftRadixSystem(parse_poly(args.poly)), cap=args.budget_closure)


def cmd_srs_graph(args) -> int:
    print(export_graph(_q_graph(args), args.format))
    return 0


def _print_vectors(name: str, vectors) -> None:
    print(f"#{name} = {len(vectors)}")
    for v in vectors:
        print(" ", ",".join(map(str, v)))


def cmd_srs_qset(args) -> int:
    nodes = _q_graph(args).nodes
    if args.format == "json":
        print(json.dumps({"count": len(nodes), "nodes": [list(v) for v in nodes]}))
    else:
        _print_vectors("Q", nodes)
    return 0


def cmd_srs_pset(args) -> int:
    P = sorted(_q_graph(args).p_nodes)
    if args.format == "json":
        print(json.dumps({"p_set": [list(v) for v in P]}))
    else:
        _print_vectors("P", P)
    return 0


def cmd_srs_fcheck(args) -> int:
    srs = ShiftRadixSystem(parse_poly(args.poly))
    member = in_f_beta(srs, args.vec, cap=args.budget_orbit)
    print(f"{args.vec} {'in F_beta (reaches zero)' if member else 'not in F_beta (cycle)'}")
    return 0


def cmd_classify(args) -> int:
    field = parse_poly(args.poly)
    report = classify(
        field,
        orbit_cap=args.budget_orbit,
        closure_cap=args.budget_closure,
        n_sweep=args.n_sweep,
    )
    if args.format == "json":
        print(report.to_json())
    else:
        print(f"poly   {report.poly}")
        print(f"pisot  {report.pisot}")
        print(f"F      {report.f}")
        print(f"PF     {report.pf}")
        print(f"F1     {report.f1}")
        if report.d_beta_one:
            d1 = format_word(report.d_beta_one)
        elif report.pisot != PROVEN:
            # classify walks no digit orbit off the Pisot case
            d1 = "(not computed: the base is not Pisot)"
        else:
            d1 = "(orbit budget exceeded)"
        print(f"d_beta(1) = {d1}")
        for ev in report.evidence:
            print(f"  [{ev.rule}] {ev.claim} :: {ev.cite}")
    return 0


# Q of x^3 - 2tx^2 + 2tx - t for every t >= 2: zero and 13 vectors with
# their negatives
FAMILY_Q = {(0, 0)} | {
    w
    for v in [(3, 2), (1, 1), (2, 2), (2, 1), (1, 0), (3, 1), (0, 1),
              (2, 0), (1, -1), (3, 3), (1, 2), (2, 3), (0, 2)]
    for w in (v, (-v[0], -v[1]))
}


def _family_checks(t: int, args) -> list[tuple[str, bool]]:
    """The family's checks on the Q graph and (F1) certificate that
    classify builds, so each is built once per t."""
    field = make_field((t, -2 * t, 2 * t))
    report, graph, cert = _classify(field, args.budget_orbit, args.budget_closure, args.n_sweep)
    if graph is None:
        # classify caught a spent closure budget; building Q again raises it
        graph = q_set(ShiftRadixSystem(field), args.budget_closure)
    if cert is None:
        # no rule settles (F1) on this family before the certificate
        raise InvariantViolation(f"classify built Q but no (F1) certificate for t = {t}")
    srs = graph.srs
    checks: list[tuple[str, bool]] = []
    checks.append(("pisot", report.pisot == PROVEN))
    checks.append(("Q is the 27-vector set", set(graph.nodes) == FAMILY_Q))
    checks.append(("P = {(1,1)}", graph.p_nodes == frozenset({(1, 1)})))
    checks.append(("tau-preimage closure of (1,1)", tau_preimages(srs, (1, 1)) == {(1, 1)}))
    checks.append(("R0 inside F", cert.r0_in_f))
    checks.append(("F1 certificate proven", cert.verdict == "proven"))
    checks.append(("PF refuted", report.pf == REFUTED))
    expected_d1 = Word((2 * t - 2, 2 * t - 2, t - 1, 0, 0, t), ())
    d1 = d_beta_one(field, args.budget_orbit)
    checks.append(("d_beta(1) = (2t-2)(2t-2)(t-1)00t", d1 == expected_d1))
    checks.append(("floor(beta) = 2t-2", field.floor_beta() == 2 * t - 2))

    lam = srs.value
    one, two, three = field.one(), field.from_rational(2), field.from_rational(3)
    zero = field.zero()
    chains = [
        (zero, lam((2, 1)), lam((1, 0)), lam((3, 1)), one),
        (zero, lam((-3, -2)), lam((-1, -1)), lam((-2, -2)), one),
        (one, lam((0, -1)), lam((2, 0)), lam((1, -1)), two),
        (one, lam((-3, -3)), lam((-1, -2)), two),
        (two, lam((-2, -3)), lam((0, -2)), three),
    ]
    ok = all(
        all((b - a).sign() > 0 for a, b in zip(chain, chain[1:])) for chain in chains
    )
    checks.append(("value inequality chains", ok))
    return checks


def cmd_verify_family(args) -> int:
    if args.t_min < 2 or args.t_min > args.t_max:
        print("verify-family needs 2 <= t-min <= t-max", file=sys.stderr)
        return 2
    rows = []
    for t in range(args.t_min, args.t_max + 1):
        checks = _family_checks(t, args)
        rows.append((t, checks, all(flag for _, flag in checks)))
    if args.format == "json":
        print(json.dumps([
            {"t": t, "pass": ok, "checks": {name: flag for name, flag in checks}}
            for t, checks, ok in rows
        ]))
    else:
        for t, checks, ok in rows:
            print(f"t={t}: {'PASS' if ok else 'FAIL'}")
            if not ok:
                for name, flag in checks:
                    if not flag:
                        print(f"    failed: {name}")
    return 0 if all(ok for _, _, ok in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="betafin", description=__doc__)
    parser.add_argument("--config", help="JSON file of default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--poly": dict(required=True, help="polynomial: symbolic or comma separated low-to-high"),
        "--budget-orbit": dict(type=_int_at_least(1), default=DEFAULT_ORBIT_CAP),
        "--budget-closure": dict(type=_int_at_least(1), default=DEFAULT_CLOSURE_CAP),
        "--n-sweep": dict(type=_int_at_least(0), default=DEFAULT_N_SWEEP),
    }

    def add(subs, name, func, summary, *names, formats=("text", "json")):
        """A leaf command taking exactly the named shared flags and, unless
        formats is empty, --format (defaulting to the first format)."""
        p = subs.add_parser(name, help=summary)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(func=func)
        return p

    p = add(sub, "expand", cmd_expand, "beta-expansion of a field element", "--poly", "--budget-orbit")
    p.add_argument(
        "--x", required=True,
        help="rational coordinates q0,q1,... or 'L:digits' literal; "
        "write a value that starts with '-' as --x=VALUE",
    )

    srs = sub.add_parser("srs", help="shift radix system queries")
    actions = srs.add_subparsers(dest="action", required=True)
    add(
        actions, "graph", cmd_srs_graph, "tau-graph of Q",
        "--poly", "--budget-closure", formats=("dot", "json"),
    )
    add(actions, "qset", cmd_srs_qset, "the closure set Q", "--poly", "--budget-closure")
    add(actions, "pset", cmd_srs_pset, "the tau-periodic set P", "--poly", "--budget-closure")
    p = add(
        actions, "fcheck", cmd_srs_fcheck, "membership in F_beta",
        "--poly", "--budget-orbit", formats=(),
    )
    p.add_argument("--vec", required=True, type=_parse_vec, help="integer vector l1,l2,...")

    add(
        sub, "classify", cmd_classify, "finiteness property report",
        "--poly", "--budget-orbit", "--budget-closure", "--n-sweep",
    )

    p = add(
        sub, "verify-family", cmd_verify_family, "batch checks for x^3-2tx^2+2tx-t",
        "--budget-orbit", "--budget-closure", "--n-sweep",
    )
    p.add_argument("--t-min", type=int, default=2)
    p.add_argument("--t-max", type=int, default=10)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # --config=FILE is the same flag as --config FILE
    argv = [p for a in argv for p in (a.split("=", 1) if a.startswith("--config=") else [a])]
    if "--config" in argv:
        # lift config values into argv right after the leaf command, so any
        # explicit flags (parsed later) win
        idx = argv.index("--config")
        try:
            if idx + 1 == len(argv):
                raise ValueError("no file given")
            with open(argv[idx + 1]) as fh:
                defaults = json.load(fh)  # JSONDecodeError is a ValueError
            if not isinstance(defaults, dict):
                raise ValueError(f"{argv[idx + 1]!r} must hold a JSON object")
        except (OSError, ValueError) as exc:
            print(f"error: --config: {exc}", file=sys.stderr)
            return 2
        del argv[idx : idx + 2]
        # the leaf command is the subcommand, or "srs <action>"
        leaf = next((i for i, a in enumerate(argv) if not a.startswith("-")), 0) + 1
        if argv[leaf - 1 : leaf] == ["srs"]:
            leaf += 1
        # one token per key, so a key the leaf command does not take is
        # reported by name and a value may start with "-"
        injected = [f"--{key}={value}" for key, value in defaults.items()]
        argv = argv[:leaf] + injected + argv[leaf:]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BetaFinError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`); send the output still
        # buffered to devnull so the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
