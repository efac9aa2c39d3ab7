"""The quick demos run to completion in a fresh interpreter, and every
demo and the README's python blocks import only names the package has.

Demos 04-06 train models for several seconds each and are not run.
"""

import ast
import importlib
import os
import re
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


def _sources():
    for demo in sorted((ROOT / "demos").glob("*.py")):
        yield pytest.param(demo.name, demo.read_text(encoding="utf-8"), id=demo.stem)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield pytest.param("README.md", block, id=f"README-python-block-{i}")


@pytest.mark.parametrize("name, source", list(_sources()))
def test_every_name_imported_from_fairweigh_resolves(name, source):
    """Parsed, not run: each ``from fairweigh... import`` names an attribute
    of its module."""
    missing = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(source, name))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fairweigh"
        for alias in node.names
        if not hasattr(importlib.import_module(node.module), alias.name)
    ]
    assert missing == [], f"{name} imports names fairweigh lacks: {missing}"
