import argparse
import importlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from betafin.cli import FAMILY_Q, build_parser, main, parse_element, parse_poly
from betafin.errors import OrbitBudgetExceeded
from betafin.field import make_field

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_poly_symbolic():
    f = parse_poly("x^3-4x^2+4x-2")
    assert f.coeffs == (2, -4, 4)
    assert parse_poly("x^3-x^2-x-1").coeffs == (1, 1, 1)
    assert parse_poly("x^3-x-1").coeffs == (1, 1, 0)
    assert parse_poly("x^2-3x+1").coeffs == (-1, 3)
    # whitespace may separate any two tokens, as in the README forms
    assert parse_poly("x^3 - 4x^2 + 4x - 2").coeffs == (2, -4, 4)
    assert parse_poly("x^3 - 4 x^2 + 4 x - 2").coeffs == (2, -4, 4)
    assert parse_poly("  x ^ 3 -4x^2+ 4x -2 ").coeffs == (2, -4, 4)


@pytest.mark.parametrize(
    "text",
    [
        "x^3\u22124x^2+4x\u22122",  # U+2212 minus signs
        "x^3-4x^2+4x-2=0",
        "x^3-4x^2+4x-2abc",
        "x^3-4x^2+4x-2)",
        "x^3-4x^2+4x-2-",
        "x^3-4x^2*4x-2",
        "x^3 4x^2+4x-2",
    ],
)
def test_parse_poly_rejects_malformed(capsys, text):
    with pytest.raises(ValueError, match="cannot parse"):
        parse_poly(text)
    code, out, err = run(capsys, "expand", "--poly", text, "--x", "1")
    assert code == 2 and out == ""
    assert "cannot parse monic polynomial" in err


def test_parse_poly_comma_form():
    # low-to-high coefficients of the monic polynomial itself
    f = parse_poly("-2,4,-4,1")
    assert f.coeffs == (2, -4, 4)
    with pytest.raises(ValueError):
        parse_poly("-2,4,-4,2")


def test_parse_element_forms():
    f = make_field((2, -4, 4))
    assert parse_element(f, "1") == f.one()
    assert parse_element(f, "1/2,3") == f.from_coords(("1/2", 3, 0))
    # digit-word literal with exponent: beta^2 * nu(1 0 (1))
    x = parse_element(f, "2: 1 0 (1)")
    from betafin.expansion import nu
    from betafin.words import parse_word

    assert x == f.beta_power(2) * nu(f, parse_word("1 0 (1)"))


def test_word_literal_exponent_counts_against_the_orbit_budget(capsys):
    # |L| is checked before beta^L is built, so a huge L fails at once
    f = make_field((2, -4, 4))
    for text in ("99999999999999999999:1", "-99999999999999999999:1", "100001:1"):
        with pytest.raises(OrbitBudgetExceeded):
            parse_element(f, text)
    for text in ("6:1", "-6:1"):
        with pytest.raises(OrbitBudgetExceeded):
            parse_element(f, text, 5)
    assert parse_element(f, "5:1", 5) == f.beta_power(4)
    assert parse_element(f, "-5:1", 5) == f.beta_power(-6)
    for text in ("99999999999999999999:1", "-99999999999999999999:1"):
        code, out, err = run(
            capsys, "expand", "--poly", "x^2-x-1", f"--x={text}", "--budget-orbit", "5"
        )
        assert code == 1 and out == "" and err.startswith("error: OrbitBudgetExceeded")


def test_negative_x_value_needs_the_equals_form(capsys):
    # argparse reads "--x -3:1" as a flag, so a value starting with "-"
    # is written --x=VALUE, as the README and the --x help say
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--poly", "x^2-x-1", "--x", "-3:1"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    # beta^-3 * nu(1 0 (2)) = 3 beta^-4 = beta^-2 + beta^-6 for the golden ratio
    code, out, _ = run(capsys, "expand", "--poly", "x^2-x-1", "--x=-3:1 0 (2)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["L"], data["word"], data["reconstruction_ok"]) == (0, "0 1 0 0 0 1", True)


def test_expand_command(capsys):
    code, out, _ = run(capsys, "expand", "--poly", "x^3-4x^2+4x-2", "--x", "1")
    assert code == 0
    assert "L(x)          1" in out
    assert "digits        1" in out
    assert "finite        True" in out

    code, out, _ = run(capsys, "expand", "--poly", "x^3-x^2-x-1", "--x", "1")
    assert code == 0
    assert "d_beta(1)     1 1 1" in out


def test_expand_family_example(capsys):
    # the nonfinite element of the t=2 family member, given by coordinates
    t = 2
    f = parse_poly("x^3-4x^2+4x-2")
    bi = f.beta_inverse()
    x = (
        f.from_rational(2 * t - 2) + (2 * t - 2) * bi + (t - 1) * bi**2
        + (t - 1) * bi**4 + (t - 1) * bi**5 + (t - 1) * bi**6
    )
    coords = ",".join(str(c) for c in x.coords)
    code, out, _ = run(
        capsys, "expand", "--poly", "x^3-4x^2+4x-2", "--x=" + coords,
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["L"] == 2
    assert data["word"] == "1 0 0 0 0 0 2 0 (1)"
    assert data["finite"] is False
    assert data["admissible"] is True
    assert data["reconstruction_ok"] is True


def test_srs_commands(capsys):
    code, out, _ = run(capsys, "srs", "qset", "--poly", "x^3-5x^2+5x-3")
    assert code == 0 and out.startswith("#Q = 43")

    code, out, _ = run(capsys, "srs", "qset", "--poly", "x^3-4x^2+4x-2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"count": 27, "nodes": [list(v) for v in sorted(FAMILY_Q)]}

    code, out, _ = run(capsys, "srs", "pset", "--poly", "x^3-4x^2+4x-2", "--format", "json")
    assert code == 0 and json.loads(out) == {"p_set": [[1, 1]]}
    code, out, _ = run(capsys, "srs", "pset", "--poly", "x^3-4x^2+4x-2")
    assert code == 0 and out == "#P = 1\n  1,1\n"

    code, out, _ = run(capsys, "srs", "fcheck", "--poly", "x^3-4x^2+4x-2", "--vec", "1,1")
    assert code == 0 and "not in F_beta (cycle)" in out
    code, out, _ = run(capsys, "srs", "fcheck", "--poly", "x^3-4x^2+4x-2", "--vec", "0,1")
    assert code == 0 and "in F_beta" in out

    code, out, _ = run(capsys, "srs", "graph", "--poly", "x^3-4x^2+4x-2", "--format", "dot")
    assert code == 0 and out.startswith("digraph srs {")
    assert '"1,1" -> "1,1";' in out

    code, out, _ = run(capsys, "srs", "graph", "--poly", "x^3-4x^2+4x-2", "--format", "json")
    data = json.loads(out)
    assert len(data["nodes"]) == 27


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "--poly", "x^3-6x^2+6x-3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["F1"] == "proven" and data["PF"] == "refuted"

    code, out, _ = run(capsys, "classify", "--poly", "x^3-x^2-x-1")
    assert code == 0 and "F      proven" in out

    code, out, _ = run(capsys, "classify", "--poly", "x^3-3x^2-x+1", "--format", "json")
    assert json.loads(out)["F1"] == "refuted"


def test_classify_says_why_d_beta_one_is_missing(capsys):
    # off the Pisot case classify walks no orbit, so no budget was spent
    code, out, _ = run(capsys, "classify", "--poly", "x^2-2")
    assert code == 0 and "pisot  refuted" in out
    assert "d_beta(1) = (not computed: the base is not Pisot)" in out.splitlines()
    assert "budget" not in out
    code, out, _ = run(capsys, "classify", "--poly", "x^2-2", "--format", "json")
    assert json.loads(out)["d_beta_1"] == ""


def test_classify_reports_a_spent_orbit_of_one(capsys):
    # tribonacci's orbit of 1 needs 4 states for d_beta(1) = 1 1 1
    code, out, _ = run(capsys, "classify", "--poly", "x^3-x^2-x-1", "--budget-orbit", "2")
    assert code == 0 and "pisot  proven" in out
    assert "d_beta(1) = (orbit budget exceeded)" in out.splitlines()
    assert "  [orbit-budget] digit orbit of 1 did not close within 2 states :: budget exceeded" in out
    code, out, _ = run(capsys, "classify", "--poly", "x^3-x^2-x-1")
    assert "d_beta(1) = 1 1 1" in out.splitlines()


def test_classify_records_a_spent_box_closure(capsys):
    # README's budget bullet: Q of x^3-3x^2-6x-4 has 171 nodes and its
    # mixed-sign box closure 190, so 180 is spent by the box closure alone
    code, out, _ = run(capsys, "classify", "--poly", "x^3-3x^2-6x-4", "--budget-closure", "180")
    assert code == 0
    assert "  [closure-budget] (F1) certificate: closure exceeded 180 nodes :: budget exceeded" in out
    code, out, _ = run(capsys, "classify", "--poly", "x^3-3x^2-6x-4")
    assert code == 0 and "closure-budget" not in out


def test_verify_family(capsys):
    code, out, _ = run(capsys, "verify-family", "--t-min", "2", "--t-max", "3")
    assert code == 0
    assert "t=2: PASS" in out and "t=3: PASS" in out

    code, out, _ = run(
        capsys, "verify-family", "--t-min", "2", "--t-max", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data[0]["pass"] is True
    assert data[0]["checks"]["Q is the 27-vector set"] is True


def test_verify_family_r0_row_reads_the_certificate(monkeypatch, capsys):
    # 7 states let d_beta(1) close, and the certificate's walks start on
    # Q's verdicts, so every row passes
    code, out, _ = run(capsys, *FAMILY, "--budget-orbit", "7", "--format", "json")
    checks = json.loads(out)[0]["checks"]
    assert code == 0 and all(checks.values())
    # with one node for its box closure the certificate's R0 is empty, and
    # the row reports the undecided R0 as failed
    classify_module = importlib.import_module("betafin.classify")
    original = classify_module.f1_certificate
    monkeypatch.setattr(
        classify_module, "f1_certificate", lambda graph, walk_cap, cap: original(graph, walk_cap, 1)
    )
    code, out, _ = run(capsys, *FAMILY, "--format", "json")
    checks = json.loads(out)[0]["checks"]
    assert code == 1
    assert checks["R0 inside F"] is False and checks["F1 certificate proven"] is False
    assert checks["d_beta(1) = (2t-2)(2t-2)(t-1)00t"] is True


def test_verify_family_builds_q_and_the_certificate_once_per_t(monkeypatch, capsys):
    # _family_checks reads the graph and certificate that classify built;
    # every binding of either builder in the two modules is counted
    calls = {"q_set": 0, "f1_certificate": 0}
    for module in ("betafin.cli", "betafin.classify"):
        target = importlib.import_module(module)
        for name in calls:
            original = getattr(target, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(target, name, counted)
    code, out, _ = run(capsys, "verify-family", "--t-min", "2", "--t-max", "3")
    assert code == 0 and out == "t=2: PASS\nt=3: PASS\n"
    assert calls == {"q_set": 2, "f1_certificate": 2}


def test_verify_family_names_a_spent_closure_budget(capsys):
    # classify records the spent budget; the family checks raise it
    code, out, err = run(capsys, *FAMILY, "--budget-closure", "5")
    assert code == 1 and out == ""
    assert err == "error: ClosureBudgetExceeded: closure exceeded 5 nodes\n"


def test_verify_family_names_each_failed_check(monkeypatch, capsys):
    monkeypatch.setattr("betafin.cli.FAMILY_Q", frozenset())
    code, out, _ = run(capsys, *FAMILY)
    assert code == 1
    assert out == "t=2: FAIL\n    failed: Q is the 27-vector set\n"


def test_verify_family_rejects_t1(capsys):
    code, _, err = run(capsys, "verify-family", "--t-min", "1", "--t-max", "3")
    assert code == 2
    assert "t-min" in err


def test_error_exit_codes(capsys):
    code, _, err = run(capsys, "classify", "--poly", "x^2-3x+2")
    assert code == 1 and "Reducible" in err
    # a required flag left out is argparse's usage error, exit 2
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--poly", "x^3-4x^2+4x-2"])
    assert exc.value.code == 2
    assert "--x" in capsys.readouterr().err
    # srs flags follow the action
    with pytest.raises(SystemExit) as exc:
        main(["srs", "--poly", "x^3-4x^2+4x-2", "qset"])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    # --budget-orbit bounds the orbit of 1 (d_beta(1) = 2 1 0 1 2), not
    # only the orbit of x = 0
    code, out, err = run(
        capsys, "expand", "--poly", "x^3-x^2-3x-2", "--x", "0", "--budget-orbit", "3"
    )
    assert code == 1 and out == "" and err.startswith("error: OrbitBudgetExceeded")
    # fcheck's walk spends the orbit budget, and names it
    code, out, err = run(
        capsys, "srs", "fcheck", "--poly", "x^3-4x^2+4x-2", "--vec", "0,1", "--budget-orbit", "2"
    )
    assert code == 1 and out == "" and err.startswith("error: OrbitBudgetExceeded")
    # Kronecker's factor search has a fixed budget of divisor choices
    code, out, err = run(capsys, "classify", "--poly", "x^10+720720")
    assert code == 1 and out == "" and err.startswith("error: FactorBudgetExceeded")
    # and so does the trial division that lists the divisors of a_0
    code, out, err = run(capsys, "classify", "--poly", "x^3-1000000000000000001")
    assert code == 1 and out == "" and err.startswith("error: FactorBudgetExceeded")


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"poly": "x^3-x^2-x-1", "format": "json"}))
    for argv in (("--config", str(cfg), "classify"), ("--config=" + str(cfg), "classify")):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["F"] == "proven"
    # explicit flags win over the config file
    code, out, _ = run(capsys, "--config", str(cfg), "classify", "--poly", "x^3-4x^2+4x-2")
    assert json.loads(out)["PF"] == "refuted"
    # for srs the keys go after the action
    cfg.write_text(json.dumps({"poly": "x^3-4x^2+4x-2", "vec": "1,1"}))
    code, out, _ = run(capsys, "--config", str(cfg), "srs", "fcheck")
    assert code == 0 and out == "(1, 1) not in F_beta (cycle)\n"


def test_config_value_may_start_with_minus(tmp_path, capsys):
    # the comma form of a polynomial starts with "-"; it must not read as a flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"poly": "-2,4,-4,1", "format": "json"}))
    code, out, _ = run(capsys, "--config", str(cfg), "classify")
    assert code == 0 and json.loads(out)["poly"] == "x^3-4x^2+4x-2"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--poly", "x^2-x-1", "--config"),
        ("--config", "{dir}/missing.json", "classify", "--poly", "x^2-x-1"),
        ("--config", "{dir}", "classify", "--poly", "x^2-x-1"),
        ("--config", "{dir}/malformed.json", "classify", "--poly", "x^2-x-1"),
        ("--config", "{dir}/list.json", "classify", "--poly", "x^2-x-1"),
        ("expand", "--poly", "x^2-x-1", "--x", "1/0"),
        ("expand", "--poly", "x^2-x-1", "--x=1/0"),
    ],
)
def test_bad_input_exits_2_without_traceback(argv, tmp_path, capsys):
    (tmp_path / "malformed.json").write_text("{poly")
    (tmp_path / "list.json").write_text(json.dumps(["poly", "x^2-x-1"]))
    code, _, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_removed_box_pad_option_is_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--poly", "x^3-x^2-x-1", "--box-pad", "8"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"poly": "x^3-x^2-x-1", "box-pad": 8}))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "classify"])
    assert exc.value.code == 2
    assert "--box-pad" in capsys.readouterr().err


EXPAND = ("expand", "--poly", "x^3-4x^2+4x-2", "--x", "1")
CLASSIFY = ("classify", "--poly", "x^3-4x^2+4x-2")
SRS = ("srs", "qset", "--poly", "x^3-4x^2+4x-2")
PSET = ("srs", "pset", "--poly", "x^3-4x^2+4x-2")
GRAPH = ("srs", "graph", "--poly", "x^3-4x^2+4x-2")
FCHECK = ("srs", "fcheck", "--poly", "x^3-4x^2+4x-2", "--vec", "1,1")
FAMILY = ("verify-family", "--t-min", "2", "--t-max", "2")


@pytest.mark.parametrize("via_config", [False, True], ids=["argv", "config"])
@pytest.mark.parametrize(
    "argv, key, value",
    [
        (EXPAND, "x-coords", "1"),
        (EXPAND, "n-sweep", "7"),
        (EXPAND, "budget-closure", "3"),
        (SRS, "n-sweep", "7"),
        (FAMILY, "poly", "nonsense"),
        (EXPAND, "format", "dot"),
        (CLASSIFY, "format", "dot"),
        (FAMILY, "format", "dot"),
        (SRS, "vec", "9,9"),
        (SRS, "budget-orbit", "1"),
        (PSET, "format", "dot"),
        (GRAPH, "format", "text"),
        (FCHECK, "budget-closure", "1"),
        (FCHECK, "format", "json"),
    ],
    ids=lambda a: a[0] if isinstance(a, tuple) else a,
)
def test_subcommand_rejects_flags_it_does_not_read(argv, key, value, via_config, tmp_path, capsys):
    _assert_usage_error(argv, key, value, via_config, tmp_path, capsys)


@pytest.mark.parametrize("via_config", [False, True], ids=["argv", "config"])
@pytest.mark.parametrize(
    "argv, key, value",
    [
        (SRS, "budget-closure", "-1"),
        (SRS, "budget-closure", "0"),
        (FCHECK, "budget-orbit", "0"),
        (CLASSIFY, "budget-orbit", "-3"),
        (CLASSIFY, "n-sweep", "-1"),
        (CLASSIFY, "n-sweep", "many"),
    ],
    ids=lambda a: a[0] if isinstance(a, tuple) else a,
)
def test_bad_budget_is_a_usage_error(argv, key, value, via_config, tmp_path, capsys):
    # budgets are integers >= 1 and --n-sweep an integer >= 0, checked when
    # the arguments are parsed
    _assert_usage_error(argv, key, value, via_config, tmp_path, capsys)


def _assert_usage_error(argv, key, value, via_config, tmp_path, capsys):
    """argv with --key value, from the command line or from --config,
    exits 2 with a usage message naming the flag."""
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv = ("--config", str(cfg)) + argv
    else:
        argv += (f"--{key}", value)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--{key}" in err and "Traceback" not in err


def _leaf_parsers(parser, prefix=()):
    """(command words, parser) for every leaf command of the CLI."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(prefix), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, prefix + (name,))


def test_readme_flag_bullets_match_the_parsers():
    bullets = README.read_text().split("takes only the flags it reads", 1)[1].split("\n* ", 1)[0]
    documented = {}
    for leaf, flags in re.findall(r"^  \* `([a-z -]+)`: (.*(?:\n    .*)*)", bullets, re.M):
        documented[leaf] = {
            opt: tuple(choices.split(",")) if choices else None
            for opt, choices in re.findall(r"`(--[a-z-]+)(?: \{([a-z,]+)\})?`", flags)
        }
    accepted = {
        leaf: {
            opt: tuple(action.choices) if action.choices else None
            for action in p._actions
            for opt in action.option_strings
            if opt not in ("-h", "--help")
        }
        for leaf, p in _leaf_parsers(build_parser())
    }
    assert documented == accepted


def _readme_command_lines():
    """The `betafin ...` lines of README's first code block under "## Command line"."""
    block = README.read_text().split("\n## Command line\n", 1)[1].split("\n```\n", 1)[0]
    return [line for line in block.splitlines() if line.startswith("betafin ")]


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_line_exits_0(capsys, line):
    assert main(shlex.split(line)[1:]) == 0


def test_expand_determinism(capsys):
    args = ("expand", "--poly", "x^3-4x^2+4x-2", "--x", "3", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_closed_pipe_exits_without_traceback(monkeypatch, tmp_path):
    # a reader such as `head` that stops early makes every write raise
    class ClosedPipe(io.StringIO):
        def __init__(self, fd):
            super().__init__()
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(target.fileno()))
        code = main(["srs", "qset", "--poly", "x^3-4x^2+4x-2"])
    assert code == 1
