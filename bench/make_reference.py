"""Regenerate bench/reference.json, the stored outputs the benchmark checks.

    python3 bench/make_reference.py

Run from the root of a source checkout.  The reference holds, computed
by the greedy expansion rather than by the carry cascade under test:
the expansion of every N+1 the witness sweep can reach, the (F)/(PF)/(F1)
and Pisot verdicts of every grid field, and digests of the first
EXPAND_REFERENCE expansions of the expand_random stream for seed 0.
Regenerate it only when a verdict is settled that was unknown before,
and say so in the change that does it.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import REFERENCE, import_betafin  # noqa: E402

EXPAND_REFERENCE = 3000


def main() -> int:
    betafin = import_betafin()
    from workloads import EXPAND_PANEL, WITNESS_CATALOG, WITNESS_N_END, ExpandRandom, cubic_grid, word_digest, word_key

    witness = {}
    for name, coeffs in WITNESS_CATALOG.items():
        f = betafin.make_field(coeffs)
        witness[name] = [word_key(betafin.beta_expand(f.from_rational(k))) for k in range(WITNESS_N_END + 1)]

    grid = {}
    for a, b, c in cubic_grid():
        r = betafin.classify(betafin.make_field((c, b, a)))
        grid[f"{a},{b},{c}"] = [r.pisot, r.f, r.pf, r.f1]

    wl = ExpandRandom(0)
    fields = {k: betafin.make_field(v) for k, v in EXPAND_PANEL.items()}
    digests = [
        word_digest(betafin.beta_expand(fields[name].from_coords(coords)))
        for name, coords in wl.specs[:EXPAND_REFERENCE]
    ]

    with open(REFERENCE, "w") as fh:
        json.dump(
            {
                "witness_sweep": witness,
                "grid_survey": grid,
                "expand_random": {"seed": 0, "digests": digests},
            },
            fh,
            indent=1,
        )
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
