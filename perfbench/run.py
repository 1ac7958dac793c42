"""fockforge benchmark: search, simulate and permanent workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

Each round of a workload runs in a fresh interpreter (worker.py) against
the checkout's src/, with one search worker (FOCKFORGE_THREADS=1) and
one BLAS thread, so the process-level solve caches start cold as they do
for a CLI user.
Rounds repeat until --seconds have passed (at least one), and each
metric is the median over the rounds.  Set-up is also timed in extra
interpreters that stop before the first operation, so every run has at
least MIN_SETUPS set-up samples.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds and prints the per-layer metrics from the traced ones,
plus trace.overhead_s, the traced minus the untraced wall time.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 1 means a round could not be
run (the program is missing, or a worker died); no result is printed
then.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_SETUPS = 5
# a run must end within 180 s; a worker still busy at this point is killed
RUN_DEADLINE_S = 175
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class RoundError(RuntimeError):
    pass


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker(root: Path, workload: str, seed: int, *flags: str, deadline: float | None = None) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # one search worker and one BLAS thread: on two shared cores a second
    # BLAS thread made the lossy simulate both slower and noisier
    env["FOCKFORGE_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += list(flags)
    cmd += ["--spawned-at", repr(_clock())]
    timeout = None if deadline is None else max(deadline - _clock(), 1.0)
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"{workload} worker still running at the {RUN_DEADLINE_S} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RoundError(f"{workload} worker exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fockforge" / "__init__.py").is_file():
        print(f"no fockforge sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 1
    trace_dir = HERE / "out"

    start = _clock()
    deadline = start + RUN_DEADLINE_S
    plain: list = []
    traced: list = []
    try:
        while True:
            plain.append(_worker(root, args.workload, args.seed, deadline=deadline))
            if args.trace:
                trace_dir.mkdir(exist_ok=True)
                trace_file = trace_dir / f"trace-{args.workload}-seed{args.seed}-round{len(traced)}.npz"
                traced.append(
                    _worker(
                        root, args.workload, args.seed, "--trace", "--trace-file", str(trace_file),
                        deadline=deadline,
                    )
                )
            if _clock() - start >= args.seconds:
                break
        setups = [r["setup_s"] for r in plain]
        if not args.trace:
            while len(setups) < MIN_SETUPS:
                setups.append(
                    _worker(root, args.workload, args.seed, "--setup-only", deadline=deadline)["setup_s"]
                )
    except RoundError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    rounds = plain + traced
    correct = all(r["correct"] for r in rounds)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for r in rounds:
        for problem in r["problems"]:
            print(f"problem: {problem}", file=sys.stderr)

    def med(key, rs=plain):
        return statistics.median(r[key] for r in rs)

    if args.trace:
        metrics = {}
        for key, (_, unit) in traced[0]["layers"].items():
            metrics[key] = _metric(statistics.median(r["layers"][key][0] for r in traced), unit)
        metrics["trace.overhead_s"] = _metric(med("wall_s", traced) - med("wall_s"), "s")
        for name in traced[0]["missing_wrappers"]:
            print(f"not traced (name not found): {name}", file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": med("wall_s"),
            "peak_rss_mb": med("peak_rss_mb"),
        }
        metrics = {k: _metric(values[k], u) for k, u in END_TO_END_UNITS.items()}

    print(
        f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
        f"{len(traced)} traced rounds, {attempted} operations attempted, {failed} failed, "
        f"outputs {'correct' if correct else 'WRONG'}"
    )
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    for part in plain[0]["parts"]:
        # too noisy on their own to carry a bound; reported for diagnosis
        print(f"  part {part} = {statistics.median(r['parts'][part] for r in plain):.6g} s")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
