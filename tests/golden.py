"""The golden record: what each covered invocation prints, in tests/golden.tsv.

Each line of the record names an invocation and holds its argv (a
trailing `-` reads the circuit or matrix the name describes from stdin),
its exit code, its stdout's line count and its stdout's sha256.  The
cases run in child processes with one BLAS thread, numpy's dispatch held
at X86_V2 and one OpenBLAS kernel, so the bytes do not depend on this
CPU's vector extensions; the header states those settings and the numpy
and OpenBLAS versions.  The `gate` and `optimize` searches share one
child, since a search's result does not depend on what ran before it,
and the other commands share another; each runs through cli.main in
turn.  Each script runs in a child of its own.

    PYTHONPATH=src python3 tests/golden.py --record   # rewrite the record

A change that moves printed bytes re-records them and names each moved
invocation in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).with_name("golden.tsv")
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
X86_V2 = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}
ENV = {**ONE_THREAD, **X86_V2, "OPENBLAS_CORETYPE": "Haswell"}
SCRIPTS = (
    ("scripts/cphase_phi_sweep.py", "--points", "5", "--restarts", "12"),
    ("scripts/engineer_catalogue.py",),
    ("scripts/engineer_catalogue.py", "--coeffs", "1,0,0.5"),
    ("scripts/sigma_z_loss_sweep.py", "--a-steps", "6", "--eta-steps", "5"),
)


def versions() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__} {blas['name']} {blas.get('version')}"


def header() -> list:
    return [
        "# fockforge golden record: name, argv, exit code, stdout lines, stdout sha256",
        "# env " + " ".join(f"{k}={v!r}" for k, v in ENV.items()),
        "# " + versions(),
    ]


def _cli(name, *argv, stdin=None):
    return {"name": name, "argv": list(argv), "stdin": stdin}


def _matrix(seed: int, n: int) -> str:
    import numpy as np

    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return "".join(" ".join(f"{z.real!r}{z.imag:+.17g}j" for z in row.tolist()) + "\n" for row in m)


def _benchmark_circuits(seed: int):
    """The simulate workload's circuits for `seed`, drawn as
    perfbench/workloads.py's operations() draws them, with the command
    each runs."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    rng = np.random.default_rng([seed, workloads.WORKLOADS.index("simulate")])
    bundled = (ROOT / workloads.BUNDLED_CIRCUIT).read_text(encoding="utf-8")
    yield from (("simulate", c) for c in workloads.lossless_circuits(rng))
    yield "simulate", workloads.lossy_circuit(rng)
    yield from (("condition", c) for c in workloads.condition_circuits(rng, bundled))


def cases() -> list:
    """(group, case) pairs: cases of one group run in one child, in order."""
    import test_simulate as ts
    from fockforge.cli import GATES

    searches = [_cli(f"gate/{g}", "gate", "--name", g) for g in GATES]
    searches.append(_cli("gate/cphase-vacuum-detector", "gate", "--name", "cphase", "--variant", "vacuum-detector"))
    searches.append(_cli("optimize/nss", "optimize", "--objective", "nss", "--seed", "7", "--restarts", "3"))
    searches.append(_cli("optimize/su3", "optimize", "--objective", "su3"))
    scripts = [{"name": "script/" + " ".join(s)[len("scripts/") :], "argv": list(s), "script": True} for s in SCRIPTS]

    shared = [_cli("condition/nss_klm", "condition", "circuits/nss_klm.circuit")]
    shared += [_cli(f"condition/nss_klm-cutoff{c}", "condition", "--cutoff", str(c), "circuits/nss_klm.circuit") for c in (10, 20)]
    shared += [
        _cli(f"loss/a{a}-eta{eta}", "loss", "--absorption", str(a), "--eta", str(eta))
        for a in (0.0, 0.3, 0.6)
        for eta in (0.7, 1.0)
    ]
    shared += [_cli(f"verify/prop{p}", "verify", "--prop", str(p)) for p in (1, 2, 3)]
    shared.append(_cli("verify/prop2-aux2-seed5", "verify", "--prop", "2", "--aux", "2", "--seed", "5"))
    shared.append(_cli("verify/appendix", "verify", "--appendix"))
    shared.append(_cli("verify/appendix-dim7-samples500", "verify", "--appendix", "--dim", "7", "--samples", "500"))
    shared.append(_cli("perm/readme-2x2", "perm", "-", stdin="0.5 0.5\n0.5 -0.5\n"))
    shared.append(_cli("perm/both-7x7-seed1", "perm", "--method", "both", "-", stdin=_matrix(1, 7)))
    shared.append(_cli("perm/naive-8x8-seed2", "perm", "--method", "naive", "-", stdin=_matrix(2, 8)))
    shared.append(_cli("perm/ryser-16x16-seed3", "perm", "--method", "ryser", "-", stdin=_matrix(3, 16)))

    def simulate(name, text, cutoff):
        return _cli(f"simulate/{name}", "simulate", "--cutoff", str(cutoff), "-", stdin=text)

    shared += [simulate(f"random-s{s}-m{m}", *ts.random_circuit(s, m)) for s in range(40) for m in range(1, 7)]
    shared += [simulate(f"lossy-{k.replace(' ', '-')}", *ts.LOSSY[k]) for k in ts.LOSSY]
    shared.append(simulate("lossy-tripwire", ts.LOSSY_TRIPWIRE, 5))
    shared.append(simulate("wide-lossy", ts.WIDE_LOSSY, 6))
    shared.append(simulate("rounded-stretch", ts.ROUNDED_STRETCH, 1))
    shared.append(simulate("wide-chain", ts.WIDE_CHAIN, 1))
    for seed in range(1, 6):
        for k, (command, c) in enumerate(_benchmark_circuits(seed)):
            shared.append(_cli(f"bench/s{seed}-{k}-{command}-{c.modes}m", command, "--cutoff", str(c.cutoff), "-", stdin=c.text()))
    return [(0, c) for c in searches] + [(1 + i, c) for i, c in enumerate(scripts)] + [(1 + len(scripts), c) for c in shared]


def _run_one(case) -> tuple:
    """(exit code, stdout) of one case, in this process."""
    from fockforge import cli

    out, saved = io.StringIO(), (sys.argv, sys.stdin)
    sys.stdin = io.StringIO(case.get("stdin") or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if case.get("script"):
                sys.argv = case["argv"]
                try:
                    runpy.run_path(str(ROOT / case["argv"][0]), run_name="__main__")
                    code = 0
                except SystemExit as exc:
                    code = exc.code or 0
            else:
                code = cli.main(case["argv"])
    finally:
        sys.argv, sys.stdin = saved
    return code, out.getvalue()


def _child() -> None:
    results = []
    for case in json.load(sys.stdin):
        code, out = _run_one(case)
        results.append((code, len(out.splitlines()), hashlib.sha256(out.encode()).hexdigest()))
    json.dump(results, sys.stdout)


def _run_group(group: list, settings: dict = ENV) -> list:
    """The results of one child that runs `group` under `settings`, which
    replace any of ENV's variables this process has."""
    env = {k: v for k, v in os.environ.items() if k not in ENV} | settings
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, __file__, "--child"],
        input=json.dumps(group), cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(run.stdout)


def run() -> list:
    """The record's lines, name first, for every case; two children at a time."""
    groups: dict = {}
    for g, case in cases():
        groups.setdefault(g, []).append(case)
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_run_group, groups.values()))
    return [
        "\t".join([case["name"], " ".join(case["argv"]), str(code), str(lines), digest])
        for group, got in zip(groups.values(), results)
        for case, (code, lines, digest) in zip(group, got)
    ]


def read() -> tuple:
    """(header lines, record lines) of the committed record."""
    lines = RECORD.read_text(encoding="utf-8").splitlines()
    return [l for l in lines if l.startswith("#")], [l for l in lines if not l.startswith("#")]


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        _child()
    elif sys.argv[1:] == ["--record"]:
        RECORD.write_text("\n".join(header() + run()) + "\n", encoding="utf-8")
    else:
        sys.exit(f"usage: {sys.argv[0]} --record")
