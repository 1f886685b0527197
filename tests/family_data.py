"""Shared expected data for the tests.

The cubic family x^3 - 2tx^2 + 2tx - t: the 27-vector closure set (kept
once, in betafin.cli, which checks it in verify-family) and its tau-edge
relation, transcribed from the published orbit diagram (self-loop on
(1,1) included; the fixed point (0,0) maps to itself).  The two
transcriptions are checked against each other in test_family_q_set.

The fields of the two survey grids, in grid order."""

import functools
import itertools

from betafin.cli import FAMILY_Q  # noqa: F401  (re-exported for the tests)
from betafin.errors import BetaFinError
from betafin.field import cubic_pisot_criterion, is_pisot, make_field

FAMILY_FIGURE_EDGES = {
    (1, 0): (0, 0), (2, 1): (1, 0), (2, 2): (2, 1), (1, 2): (2, 2),
    (0, 1): (1, 2), (-1, 0): (0, 1), (-1, -1): (-1, 0), (0, -1): (-1, -1),
    (2, 0): (0, -1), (3, 1): (1, 0), (3, 2): (2, 1), (3, 3): (3, 2),
    (2, 3): (3, 3), (0, 2): (2, 3), (-2, 0): (0, 2), (-3, -2): (-2, 0),
    (-2, -3): (-3, -2), (-1, 1): (1, 2), (-2, -1): (-1, 1), (-1, -2): (-2, -1),
    (-3, -1): (-1, 1), (-3, -3): (-3, -1), (-2, -2): (-2, 0), (0, -2): (-2, -2),
    (1, -1): (-1, -1), (1, 1): (1, 1),
}

# the full tau relation adds the omitted self-loop at the origin
FAMILY_EDGES = dict(FAMILY_FIGURE_EDGES)
FAMILY_EDGES[(0, 0)] = (0, 0)


@functools.lru_cache(maxsize=None)
def survey_grid_fields(name):
    """"cubic" holds the cubic Pisot x^3 - ax^2 - bx - c with 1 <= a <= 8
    and |b|, |c| <= 8, "quartic" the quartic Pisot bases with
    1 <= a_3 <= 4 and |a_2|, |a_1|, |a_0| <= 3.  Built once per run."""
    if name == "cubic":
        return tuple(
            make_field((c, b, a))
            for a in range(1, 9) for b in range(-8, 9) for c in range(-8, 9)
            if c != 0 and cubic_pisot_criterion(a, b, c)
        )
    fields = []
    for a3 in range(1, 5):
        for a2, a1, a0 in itertools.product(range(-3, 4), repeat=3):
            if a0 == 0:
                continue
            try:
                f = make_field((a0, a1, a2, a3))
            except BetaFinError:
                continue
            if is_pisot(f):
                fields.append(f)
    return tuple(fields)
