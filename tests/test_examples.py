"""Smoke tests for the documented entry points outside the test suite.

The README's "Library" example is executed as written, and each script
under ``scripts/`` runs at its smallest size in a child process and must
exit 0.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library\s+```python\n(.*?)```", readme, re.S)
    assert block, "README has no Library code block"
    scope: dict = {}
    exec(compile(block.group(1), "README.md", "exec"), scope)
    assert scope["char"] == "1"


#: Every script under ``scripts/`` with the arguments of its smallest run.
SCRIPT_RUNS = [
    ["access_bench.py", "--exp", "8", "--queries", "200"],
    ["expand_bench.py", "--quick", "--calls", "1"],
    ["flatness_report.py", "--exps", "8", "--samples", "50"],
    ["rebalance_stages.py", "--exps", "8", "--reps", "1"],
    ["separation.py", "--exps", "8"],
    ["spiral_sizes.py", "--exps", "8", "9"],
]


def test_every_script_is_smoke_run():
    scripts = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))
    assert sorted(argv[0] for argv in SCRIPT_RUNS) == scripts


@pytest.mark.parametrize("argv", SCRIPT_RUNS, ids=lambda argv: argv[0])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
