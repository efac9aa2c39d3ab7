"""Self-check of ``tools/byte_identity.py``: this checkout against itself
writes the same outputs, on a tiny config."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_this_checkout_is_byte_identical_to_itself(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "byte_identity.py"), str(ROOT), str(ROOT),
         "--rows", "600", "--epochs", "1", "--steps", "20", "--oracle-samples", "5000",
         "--work", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "identical", done.stdout
    assert lines[-2].startswith("20 commands"), done.stdout
