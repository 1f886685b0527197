"""The design rules that keep every exact decision on one integer kernel,
checked on the source.

Each test pins one rule, and its assertion message says how to mend a
violation.  Line rules read every line of the .py files they name, as
grep does, comments and strings included; this module is not scanned,
since it names what the rules forbid.  The other rules read the syntax
tree of one function, method or module.
"""

import ast
import importlib
import inspect
import re
import textwrap
from pathlib import Path

from betafin.classify import _find_infinite_natural
from betafin.field import BetaField, FieldElement
from betafin.srs import ShiftRadixSystem

# betafin.classify names the function the package re-exports, so the
# module is read from the import system
expansion = importlib.import_module("betafin.expansion")

ROOT = Path(__file__).resolve().parents[1]
REPO = ("src", "tests", "demos", "bench")
SRC = ("src/betafin",)


def _lines(pattern: str, paths: tuple[str, ...], allowed: tuple[str, ...] = ()) -> list[str]:
    """'path:line: text' for each line that matches pattern in the .py
    files under paths (directories or files), outside the allowed files."""
    found = []
    for top in paths:
        top = ROOT / top
        for path in sorted(top.rglob("*.py")) if top.is_dir() else [top]:
            rel = path.relative_to(ROOT).as_posix()
            if rel in allowed or path == Path(__file__).resolve():
                continue
            for n, text in enumerate(path.read_text().splitlines(), 1):
                if re.search(pattern, text):
                    found.append(f"{rel}:{n}: {text.strip()}")
    return found


def _tree(obj) -> ast.AST:
    """The syntax tree of a function, class or module."""
    return ast.parse(textwrap.dedent(inspect.getsource(obj)))


def _names(tree: ast.AST) -> set[str]:
    """Every name and attribute that the tree mentions."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
    }


def _called(tree: ast.AST) -> set[str]:
    """The bare names that the tree calls."""
    return {
        n.func.id for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    }


def _fail(hint: str, found: list[str]) -> str:
    return "\n".join([hint, *found])


def test_only_field_py_names_the_memo_dict():
    found = _lines(r"\b_memo\b", REPO, allowed=("src/betafin/field.py",))
    assert not found, _fail(
        "the per-field memo is private to src/betafin/field.py; use BetaField.memo", found
    )


def test_only_field_py_imports_fractions():
    found = _lines(r"^\s*(from|import)\s+fractions", SRC, allowed=("src/betafin/field.py",))
    assert not found, _fail(
        "only src/betafin/field.py may import fractions, and src/betafin/polys.py is the "
        "integer polynomial kernel; pass coordinate strings to BetaField.from_coords",
        found,
    )


def test_only_field_py_refines_the_isolating_interval():
    found = _lines(r"_settle\(|\.refine\(\)|_enclosure_sign", SRC, allowed=("src/betafin/field.py",))
    assert not found, _fail(
        "only src/betafin/field.py may refine the bracket; decide on integer numerators "
        "with BetaField.sign_nums or BetaField.floor_nums",
        found,
    )


def test_only_expansion_py_steps_t_map():
    # __init__.py only re-exports t_map as public API
    found = _lines(
        r"\bt_map\b", SRC, allowed=("src/betafin/expansion.py", "src/betafin/__init__.py")
    )
    assert not found, _fail(
        "only src/betafin/expansion.py may step t_map; walk digit orbits on integer "
        "numerators (_digit_orbit) or SRS vectors (ShiftRadixSystem.tau)",
        found,
    )
    # t_map is public API only: no library code calls it or passes it on
    uses = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / SRC[0]).glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == "t_map"
    ]
    assert not uses, _fail(
        "no library code may step t_map; walk T-orbits with _digit_orbit and single "
        "steps with _greedy_step",
        uses,
    )
    found = _lines(r"\b_t_step\b", REPO)
    assert not found, _fail("_t_step is gone; read the T-orbit of 1 with t_orbit_of_one", found)


def test_the_greedy_step_is_written_once():
    # _greedy_step is the one T-step; t_map, frac_part, _digit_orbit and the
    # (F1) sweep call it.  big_l's walk over the rows of beta^n is
    # expansion.py's only other beta-shift
    found = _lines("mul_beta", ("src/betafin/expansion.py",))
    assert not found, _fail(
        "src/betafin/expansion.py must never call mul_beta; step T with _greedy_step", found
    )
    callers = sorted(
        fn.name
        for fn in ast.walk(_tree(expansion))
        if isinstance(fn, ast.FunctionDef)
        for n in ast.walk(fn)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "times_beta"
    )
    assert callers == ["_greedy_step", "big_l"], (
        f"times_beta calls in src/betafin/expansion.py sit in {callers}; call times_beta "
        "once in _greedy_step (step T with it) and once in big_l (the rows of beta^n)"
    )


def test_floor_nums_is_the_one_floor_decision():
    for fn in (FieldElement.floor, expansion._greedy_step):
        divisions = [
            n
            for n in ast.walk(_tree(fn))
            if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.FloorDiv)
        ]
        assert not divisions, (
            f"{fn.__qualname__} does a // of its own; BetaField.floor_nums decides "
            "every floor, a rational value included"
        )


def test_powers_of_beta_are_built_on_each_call():
    for fn in (BetaField.beta_row, BetaField.beta_power, expansion.big_l):
        assert not {"memo", "_memo"} & _names(_tree(fn)), (
            f"{fn.__qualname__} reads the per-field memo; build powers of beta on each call"
        )
    assert not hasattr(BetaField, "_memo_chain"), (
        "BetaField._memo_chain is gone; the memo holds no chain of powers of beta"
    )


def test_the_f1_sweep_walks_frac_n_with_the_greedy_step():
    tree = _tree(_find_infinite_natural)
    assert "_greedy_step" in _called(tree), (
        "_find_infinite_natural must walk frac(N)'s integer numerators with _greedy_step"
    )
    found = sorted({"frac_vector", "tau"} & _names(tree))
    assert not found, (
        f"_find_infinite_natural names {found}; step T-states with _greedy_step, "
        "seeded by OrbitGraph.frac_verdicts"
    )
    assert not hasattr(ShiftRadixSystem, "frac_vector"), (
        "ShiftRadixSystem.frac_vector is gone; the (F1) sweep walks T-states, not SRS vectors"
    )


def test_field_element_reduces_through_times_beta():
    found = [s for s in ("coeffs", "Fraction") if s in inspect.getsource(FieldElement.__mul__)]
    assert not found, (
        f"FieldElement.__mul__ names {found}; weight the integer columns of "
        "BetaField._columns by the other factor's numerators"
    )
    tree = _tree(expansion.d_beta)
    loops = [n for n in ast.walk(tree) if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    assert not loops and "_digit_orbit" in _called(tree), (
        "d_beta must be one call of _digit_orbit, the one digit-orbit loop, with no loop of its own"
    )
    assert not hasattr(expansion, "_walk"), (
        "expansion._walk is gone; _digit_orbit holds the one digit-orbit loop"
    )


def test_field_element_stores_integer_numerators():
    assert "coords" not in FieldElement.__slots__, (
        "FieldElement.__slots__ holds coords; store the canonical (nums, den) pair "
        "and build coords on demand"
    )
    assert "_numerators" not in vars(FieldElement), (
        "FieldElement._numerators is gone; read the stored pair as .nums and .den"
    )
    names = ("__add__", "_plus", "__sub__", "__neg__", "__eq__", "__hash__", "floor", "sign",
             "is_zero", "is_rational", "inverse", "div_beta")
    methods = {f"FieldElement.{n}": getattr(FieldElement, n, None) for n in names}
    methods["BetaField.from_numerators"] = BetaField.from_numerators
    for name, fn in methods.items():
        assert fn is not None, f"{name} is missing"
        found = [s for s in ("Fraction", ".coords") if s in inspect.getsource(fn)]
        assert not found, f"{name} names {found}; work on the integer numerators nums over den"


def test_division_by_beta_runs_in_horner_inverse_beta():
    for fn in (expansion.nu, expansion.beta_expand, expansion.frac_part):
        found = sorted({"beta_power", "div_beta"} & _names(_tree(fn)))
        assert not found, (
            f"{fn.__name__} names {found}; divide by beta^m with BetaField.horner_inverse_beta"
        )
    assert not hasattr(expansion, "_horner_inverse_beta"), (
        "expansion._horner_inverse_beta is gone; BetaField.horner_inverse_beta is the one "
        "division by beta"
    )


def test_the_free_block_scan_reads_digits_in_place():
    source = inspect.getsource(expansion.free_blocks)
    found = [s for s in (".shift(", "Word(") if s in source]
    assert not found, (
        f"free_blocks contains {found}; read digit s + j of w in place and size the "
        "window with words.window_len"
    )
