import ast
import importlib.util
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


def test_loss_sweep_stops_where_the_branch_weights_miss_the_trace(monkeypatch, capsys):
    # a report whose three branch weights do not sum to the output's trace
    # ends the sweep at that grid point, with exit code 1 and the point named
    spec = importlib.util.spec_from_file_location("sigma_z_loss_sweep", ROOT / "scripts" / "sigma_z_loss_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    experiment = sweep.noisy_sigma_z_experiment

    def leaky(abs_a, eta, c0, c1):
        rep = experiment(abs_a, eta, c0, c1)
        if abs_a > 0 and eta == 1.0:
            rep.wanted_weight += 1e-9
        return rep

    monkeypatch.setattr(sweep, "noisy_sigma_z_experiment", leaky)
    assert sweep.main(["--a-steps", "2", "--eta-steps", "2"]) == 1
    out, err = capsys.readouterr()
    assert "abs_a 0.6, eta 1" in err
    assert len(out.splitlines()) == 4  # the header and the three points before it
