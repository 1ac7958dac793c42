"""Checks on the package from outside: its declared dependencies, its
size constants and the names that README's limits table cites, cli's
documented circuit grammar against the table it parses by, the modules
that read a basis's occupation table, the one module that defines the
lossy element's dilation, the package's functions against the parameters
they read, and the names the benchmark's tracer wraps and what its hooks
read.

A wrapped name that disappears is skipped at run time, so renaming or
deleting one silently drops the metrics it feeds.  Resolving every name
here catches that without running the benchmark.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fockforge import cli, optimizer
from fockforge.conditioning import AncillaSpec, DetectionSpec, lift_unitary
from fockforge.fock import FockBasis, TotalPhotonCutoff
from fockforge.interferometer import random_unitary

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def test_imports_are_the_declared_dependencies():
    # every import in the package, at any depth, that is neither the
    # standard library nor the package itself must be a declared
    # dependency, and every dependency must be imported
    imported = set()
    for path in (ROOT / "src" / "fockforge").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"fockforge"}
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[<>=!~;\[ ]", dep, maxsplit=1)[0] for dep in project["dependencies"]}
    assert third_party == declared


def test_cli_import_loads_no_scipy():
    # nor the process-pool modules: the search runs its restarts in one process
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    roots = "('scipy', 'multiprocessing', 'concurrent')"
    code = f"import sys, fockforge.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in {roots}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_runs_load_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call (numpy 2.4), about 18 ms
    # and 1.2 MB of peak RSS in a process that otherwise never needs it
    lossy = tmp_path / "lossy.circuit"
    lossy.write_text("modes 3\ninput fock 0 1\ninput fock 2 1\nlossybs 0 1 0.7 0.3 1.1 0.4\nbs 1 2 0.5 0 0\n")
    runs = [
        ["condition", str(ROOT / "circuits" / "nss_klm.circuit")],
        ["gate", "--name", "nss"],
        ["simulate", "--cutoff", "3", str(lossy)],
    ]
    code = (
        "import contextlib, io, sys\nfrom fockforge import cli\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_docstring_lists_the_grammar():
    # the directive lines at the top of cli are the table the parser reads
    documented = [line[4:] for line in cli.__doc__.splitlines() if line.startswith("    ")]
    assert documented == [f"{k} {v}" for k, v in cli.GRAMMAR.items()]


def _limits_table_rows():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n### Limits\n", 1)[1].split("\n#", 1)[0]
    return [line for line in section.splitlines() if line.startswith("| `")]


def test_size_constants_are_the_readme_limits_table():
    # every module-level MAX_* name under src/fockforge, and nothing else,
    # heads a row of README's limits table
    defined = set()
    for path in (ROOT / "src" / "fockforge").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
            defined.update(f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name) and t.id.startswith("MAX_"))
    rows = [line.split("|")[1] for line in _limits_table_rows()]
    tabled = {m.group(1) for row in rows for m in [re.fullmatch(r" `(\w+\.MAX_\w+)`.*", row)] if m}
    assert len(tabled) == len(rows)
    assert defined == tabled


def test_readme_limits_table_names_only_code_that_exists():
    # every backticked span of the table that is not a command line is a
    # Python name: module.name under fockforge, or a name some module defines
    table = "\n".join(_limits_table_rows())
    commands = {name[len("_cmd_") :] for name in dir(cli) if name.startswith("_cmd_")}
    modules = [importlib.import_module(f"fockforge.{path.stem}") for path in (ROOT / "src" / "fockforge").glob("*.py")]
    names = [span.split(" = ")[0] for span in re.findall(r"`([^`]+)`", table) if span.split()[0] not in commands]
    assert names
    for name in names:
        assert re.fullmatch(r"\w+(\.\w+)?", name), name
        owner, _, attr = name.rpartition(".")
        found = [hasattr(importlib.import_module(f"fockforge.{owner}"), attr)] if owner else [hasattr(m, attr) for m in modules]
        assert any(found), f"README's limits table names {name}, which fockforge does not define"


def test_only_fock_reads_the_occupation_format():
    # a basis's occupations are one uint8 table that only fock.py converts
    # or looks states up in: no other module wraps it in np.array or
    # np.asarray, or reads a basis's `index` (a list's index() is a call)
    found = []
    for path in sorted((ROOT / "src" / "fockforge").glob("*.py")):
        if path.name == "fock.py":
            continue
        tree = ast.parse(path.read_text())
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.array", "np.asarray") and node.args:
                if any(isinstance(n, ast.Attribute) and n.attr == "occupations" for n in ast.walk(node.args[0])):
                    found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Attribute) and node.attr == "index" and id(node) not in called:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"the occupation format is read outside fock.py at {found}"


def test_no_route_uses_the_dilation():
    # the four-mode dilation is the tests' reference channel: the package
    # only defines it, and cli imports it for the benchmark's tracer
    found = []
    for path in sorted((ROOT / "src" / "fockforge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "dilation_unitary":
                found.append((path.name, "def"))
            elif isinstance(node, ast.alias) and node.name == "dilation_unitary":
                found.append((path.name, "import"))
            elif "dilation_unitary" in (getattr(node, "id", None), getattr(node, "attr", None)):
                found.append((path.name, f"use at line {node.lineno}"))
    assert found == [("cli.py", "import"), ("lossy.py", "def")]


def test_every_parameter_is_read():
    # a parameter its body never reads changes nothing a caller can see: every
    # function and lambda under src/fockforge reads each of its parameters
    # (self included) somewhere in its body, nested functions counted
    found = []
    for path in sorted((ROOT / "src" / "fockforge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
                body = node.body if isinstance(node.body, list) else [node.body]
                read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found += [f"{path.name}:{getattr(node, 'name', 'lambda')}({p})" for p in params if p not in read]
    assert not found, f"parameters no body reads: {found}"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in tracing.WRAPPED])
def test_traced_name_resolves(module, attr):
    owner, _, fn = tracing._resolve(module, attr)
    assert owner is not None and callable(fn), f"{module}.{attr} is gone"


def test_run_restart_returns_what_the_restart_hook_reads():
    # Tracer._after_restart unpacks (x, residual, probability, index,
    # evaluations) from every optimizer._run_restart call
    e = np.eye(3)
    objective = optimizer.Objective(
        mode_count=2,
        signal_modes=(0,),
        ancilla=AncillaSpec((1,)),
        detection=DetectionSpec((1,)),
        signal_cutoff=2,
        constraints=((e[0], e[0]), (e[1], e[1])),
    )
    result = optimizer._run_restart((objective, 1, 2))
    assert isinstance(result, tuple) and len(result) == 5
    x, residual, probability, index, evaluations = result
    assert isinstance(x, np.ndarray) and x.shape == (4,)
    assert isinstance(residual, float) and isinstance(probability, float)
    assert index == 2 and isinstance(evaluations, int) and evaluations > 0
    tracer = tracing.Tracer()
    tracer._after_restart((objective, 1, 2), result, 0.0)
    assert tracer.counts["optimizer.restarts"] == 1
    assert tracer.counts["optimizer.evaluations"] == evaluations


def test_lift_hook_reads_the_basis():
    # Tracer._after_lift sums the squares of a lift's photon-number sectors
    # from its basis's occupations: 3 modes at cutoff 4 have sectors of 1,
    # 3, 6, 10 and 15 states
    basis = FockBasis(3, TotalPhotonCutoff(4))
    u = random_unitary(3, 1)
    tracer = tracing.Tracer()
    tracer._after_lift((u, basis), lift_unitary(u, basis), 0.0)
    assert tracer.counts["conditioning.lift.amplitudes"] == 1 + 9 + 36 + 100 + 225
    assert tracer.counts["conditioning.lift.max_dim"] == 35
