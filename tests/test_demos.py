"""Every script in demos/, and every python block of README.md, runs to completion.

Each runs in its own interpreter with the working directory set to a
temporary directory, since some demos write files (torus_balls.py writes
torus_ball.svg).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def test_demos_are_found():
    assert len(DEMOS) >= 6


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    _run([str(demo)], tmp_path)


def test_readme_python_blocks_run(tmp_path):
    # the library example must keep up with the public API
    assert README_BLOCKS
    for block in README_BLOCKS:
        _run(["-c", block], tmp_path)
