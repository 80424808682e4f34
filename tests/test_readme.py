"""The README's library example runs as printed and gives what it claims, and
its config paragraph lists the keys the parser accepts."""

import os
import re
import subprocess
import sys

from aqtomo.experiments import config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _readme() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", _readme(), re.DOTALL)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert 1e-4 <= float(proc.stdout.split()[-1]) <= 1e-3  # "~3e-4 infidelity"


def test_config_keys_match_parser():
    paragraph = re.search(r"Keys: (.*?)Unknown keys are rejected", _readme(), re.DOTALL)
    assert paragraph is not None
    assert tuple(re.findall(r"`(\w+)`", paragraph.group(1))) == config._KEYS
