"""One round of one workload in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src/,
FOCKFORGE_THREADS=1 and one BLAS thread, so fockforge's process-level
solve caches start cold and the search runs its restarts in this
process.  Prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload W --seed N --spawned-at T
        [--trace] [--setup-only] [--trace-file PATH]

--spawned-at is the CLOCK_MONOTONIC reading taken by the parent just
before it started this process; set-up time runs from there to the
first timed operation.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-file", default=None)
    args = p.parse_args(argv)

    import fockforge  # noqa: F401  (the import is part of set-up)

    import tracing
    import workloads

    ops = workloads.operations(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    setup_s = _clock() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    times: list = [[] for _ in ops]
    outputs: list = [None] * len(ops)
    attempted = 0
    failures: list = []
    problems: list = []
    for rep in range(max(op.repeat for op in ops)):
        for i, op in enumerate(ops):
            if rep >= op.repeat:
                continue
            if tracer is not None:
                tracer.op = i
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                times[i].append(time.perf_counter() - t0)
                failures.append(f"{op.name} failed: {exc!r}")
                traceback.print_exc(file=sys.stderr)
                continue
            times[i].append(time.perf_counter() - t0)
            if outputs[i] is None:
                outputs[i] = out
            elif out != outputs[i]:
                problems.append(f"{op.name}: output changed between repetitions")
            if tracer is not None and isinstance(out, str):
                tracer.counts["cli.stdout_bytes"] += len(out.encode())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        if args.trace_file:
            tracer.write(args.trace_file)
        result["layers"] = tracer.metrics(workloads.TRACED_PERMANENT_SIZES)
        result["missing_wrappers"] = tracer.missing

    for op, out in zip(ops, outputs):
        if out is None:
            continue
        try:
            found = op.check(out)
        except Exception as exc:  # noqa: BLE001 - unreadable output fails the check
            found = [f"output could not be checked: {exc!r}"]
        problems += [f"{op.name}: {x}" for x in found]

    parts: dict = {}
    for op, t in zip(ops, times):
        parts[op.part] = parts.get(op.part, 0.0) + statistics.median(t)
    result.update(
        correct=not problems,
        attempted=attempted,
        failed=len(failures),
        problems=failures + problems,
        parts=parts,
        wall_s=sum(parts.values()),
        peak_rss_mb=peak_rss_mb,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
