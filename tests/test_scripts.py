import ast
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fockforge

ROOT = Path(__file__).resolve().parents[1]


def _examples():
    # every "python3 scripts/..." line of each script's docstring
    for script in sorted((ROOT / "scripts").glob("*.py")):
        doc = ast.get_docstring(ast.parse(script.read_text(encoding="utf-8")))
        for line in doc.splitlines():
            if line.strip().startswith("python3 scripts/"):
                yield pytest.param(shlex.split(line)[1:], id=line.strip()[len("python3 scripts/") :])


@pytest.mark.parametrize("argv", list(_examples()))
def test_documented_script_example_prints_a_table(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(fockforge.__file__).parents[1]))
    run = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    header, *rows = [line.split("\t") for line in run.stdout.splitlines()]
    assert len(header) > 1 and all(name.isidentifier() for name in header)
    assert rows and all(len(row) == len(header) for row in rows)
