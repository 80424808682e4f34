"""The README's library example runs as printed and gives what it claims, its
config paragraph lists the keys the parser accepts, and its protocol
signatures are those of the estimators."""

import dataclasses
import inspect
import os
import re
import subprocess
import sys

from aqtomo import estimators
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
    names = tuple(f.name for f in dataclasses.fields(config.ExperimentConfig))
    assert tuple(re.findall(r"`(\w+)`", paragraph.group(1))) == names


def _signature_line(name: str) -> str:
    params = [
        p.name if p.default is p.empty else f"{p.name}={p.default!r}"
        for p in inspect.signature(getattr(estimators, name)).parameters.values()
    ]
    return f"{name}({', '.join(params)})"


def test_protocol_signatures_match_estimators():
    block = re.search(r"from\nthe oracle:\n\n```\n(.*?)```", _readme(), re.DOTALL)
    assert block is not None
    lines = block.group(1).splitlines()
    protocols = [
        name
        for name, fn in vars(estimators).items()
        if inspect.isfunction(fn)
        and fn.__module__ == estimators.__name__
        and name.startswith(("adaptive_", "static_", "nonadaptive_"))
    ]
    assert sorted(line.split("(")[0] for line in lines) == sorted(protocols)
    assert lines == [_signature_line(line.split("(")[0]) for line in lines]
