"""Every script under demos/ runs to the end."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(capsys, demo):
    runpy.run_path(str(demo), run_name="__main__")
