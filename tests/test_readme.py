"""The README's library example runs as printed and gives what it claims."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_library_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.DOTALL)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert 1e-4 <= float(proc.stdout.split()[-1]) <= 1e-3  # "~3e-4 infidelity"
