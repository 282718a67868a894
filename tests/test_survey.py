"""The random survey script end to end, once per kind of arithmetic."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("field", ["2", "32003", "rationals"])
def test_random_survey_exits_zero(field):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "random_survey.py"),
         "--count", "5", "--seed", "1", "--field", field],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
