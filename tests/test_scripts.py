"""The experiment scripts, run end to end with the library on PYTHONPATH.

Each stdout is compared with a recorded sha256 digest, so any change in what
the scripts print shows up here.  census_report.py also prints its own
runtime, which is dropped before hashing.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    # four normal forms of twisted braids, closures and slope lifts
    "surgery_walkthrough": (
        ["scripts/surgery_walkthrough.py"],
        "91e1b829a244ee8447ee4c82b80a1dadcf4f57b922937555f719ff5d1658eddf",
    ),
    "census_report": (
        ["scripts/census_report.py", "--max", "200", "--show-families"],
        "c1bccf333b4289def0a14ddd55de18d30875794569c7fde9829c1a8c2663e654",
    ),
}


def _stdout(argv: list[str]) -> str:
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


@pytest.mark.parametrize("name", list(SCRIPTS))
def test_script_output_digest(name):
    argv, digest = SCRIPTS[name]
    lines = _stdout(argv).splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith("  runtime: "))
    assert hashlib.sha256(kept.encode()).hexdigest() == digest
