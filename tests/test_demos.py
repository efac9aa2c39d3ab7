"""The quick demos run to completion in a fresh interpreter.

Demos 04-06 train models for several seconds each and are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = sorted((ROOT / "demos").glob("0[1-3]_*.py"))


def test_the_three_quick_demos_are_found():
    assert [demo.name[:2] for demo in QUICK_DEMOS] == ["01", "02", "03"]


@pytest.mark.parametrize("demo", QUICK_DEMOS, ids=lambda demo: demo.stem)
def test_quick_demo_exits_0(demo, tmp_path):
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
