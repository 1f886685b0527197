"""Shared expected data for the cubic family x^3 - 2tx^2 + 2tx - t.

The 27-vector closure set (kept once, in betafin.cli, which checks it in
verify-family) and its tau-edge relation, transcribed from the published
orbit diagram (self-loop on (1,1) included; the fixed point (0,0) maps to
itself).  The two transcriptions are checked against each other in
test_family_q_set."""

from betafin.cli import FAMILY_Q  # noqa: F401  (re-exported for the tests)

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
