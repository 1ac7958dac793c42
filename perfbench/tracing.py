"""Spans and counts at fockforge's module boundaries, recorded from outside.

The benchmark installs wrappers around module-level names (and a few
class methods) of the installed package; the program itself carries no
instrumentation.  A wrapper records one span per call: name, start,
end, parent span and operation id.  Spans are kept in memory in flat
arrays and written out once, when the run ends.  Wrappers are installed
only in traced runs.

A wrapped name that no longer exists is skipped, and every metric that
only it would feed is left out of the report instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# TRIVIAL_PROBABILITY in fockforge.optimizer: at or below it a restart has
# landed on the all-zero operator, which satisfies every constraint.
ZERO_LANDING_PROBABILITY = 1e-8
FEASIBLE_RESIDUAL = 1e-6

# (module, attribute, span name, hook).  Several bindings of one function
# share a span name: `from x import f` copies the name into the caller's
# module, so each caller's binding is wrapped where that caller looks it up.
WRAPPED = (
    ("fockforge.conditioning", "_per_flat", "permanent.per_flat", "per_flat"),
    ("fockforge.permanent", "_per_flat", "permanent.per_flat", "per_flat"),
    ("fockforge.optimizer", "compose", "interferometer.compose", None),
    ("fockforge.gates", "compose", "interferometer.compose", None),
    ("fockforge.cli", "compose", "interferometer.compose", None),
    ("fockforge.cli", "element_matrix", "interferometer.element_matrix", None),
    ("fockforge.cli", "bs_matrix", "interferometer.bs_matrix", None),
    ("fockforge.gates", "bs_matrix", "interferometer.bs_matrix", None),
    ("fockforge.conditioning", "ConditionalExtractor.__init__", "conditioning.extractor_build", None),
    ("fockforge.conditioning", "ConditionalExtractor.extract_matrix", "conditioning.extract", None),
    ("fockforge.gates", "extract_conditional_operator", "conditioning.extract_conditional_operator", None),
    ("fockforge.cli", "extract_conditional_operator", "conditioning.extract_conditional_operator", None),
    ("fockforge.gates", "extract_with_ancilla_state", "conditioning.extract_with_ancilla_state", None),
    ("fockforge.gates", "lift_unitary", "conditioning.lift", "lift"),
    ("fockforge.cli", "lift_unitary", "conditioning.lift", "lift"),
    ("fockforge.gates", "optimize_gate", "optimizer.optimize_gate", None),
    ("fockforge.optimizer", "_run_restart", "optimizer.run_restart", "restart"),
    ("fockforge.gates", "nss_gate_klm", "gates.nss_gate_klm", None),
    ("fockforge.gates", "cphase_gate", "gates.cphase_gate", None),
    ("fockforge.gates", "pauli_xy_gate", "gates.pauli_xy_gate", None),
    ("fockforge.cli", "dilation_unitary", "lossy.dilation_unitary", None),
    ("fockforge.fock", "MixedState.__post_init__", "fock.mixed_state", None),
    ("fockforge.cli", "partial_trace", "fock.partial_trace", None),
    ("fockforge.cli", "main", "cli.main", None),
)

LAYERS = ("permanent", "interferometer", "conditioning", "optimizer", "gates", "lossy", "fock", "cli")

# (metric, span, unit, scale): span calls when scale is None, otherwise
# the span's mean duration in seconds times scale
SPAN_METRICS = (
    ("interferometer.compose.calls", "interferometer.compose", "count", None),
    ("interferometer.compose.us_per_call", "interferometer.compose", "us", 1e6),
    ("conditioning.extractions", "conditioning.extract", "count", None),
    ("conditioning.extract.us_per_call", "conditioning.extract", "us", 1e6),
    ("conditioning.extractor_builds", "conditioning.extractor_build", "count", None),
    ("conditioning.extractor_build.ms_per_call", "conditioning.extractor_build", "ms", 1e3),
    ("conditioning.lift.calls", "conditioning.lift", "count", None),
    ("lossy.dilations", "lossy.dilation_unitary", "count", None),
    ("fock.mixed_states", "fock.mixed_state", "count", None),
    ("fock.mixed_state.ms_per_call", "fock.mixed_state", "ms", 1e3),
    ("fock.partial_traces", "fock.partial_trace", "count", None),
    ("cli.calls", "cli.main", "count", None),
)

# counts kept by the hooks, and the hook that keeps each
HOOK_COUNTS = {
    "conditioning.lift.amplitudes": "lift",
    "conditioning.lift.max_dim": "lift",
    "optimizer.restarts": "restart",
    "optimizer.feasible_restarts": "restart",
    "optimizer.zero_landing_restarts": "restart",
    "optimizer.evaluations": "restart",
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, parts[-1], None
    return owner, parts[-1], getattr(owner, parts[-1], None)


def _sector_squares(basis) -> int:
    """Amplitudes a dense lift evaluates on a total-photon basis: the sum
    over photon-number sectors of the sector dimension squared."""
    sizes = Counter(sum(occ) for occ in basis.occupations)
    return sum(d * d for d in sizes.values())


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []
        self.op = -1
        self.counts: Counter = Counter()
        self.size_seconds: Counter = Counter()
        self.hooks_installed: set = set()
        self.spans_installed: set = set()
        self.missing: list = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str, hook):
        nid = self._name_id(name)
        after = getattr(self, f"_after_{hook}") if hook else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
            if after is not None:
                after(args, result, t1 - t0)
            return result

        return wrapper

    def _after_per_flat(self, args, result, seconds):
        n = int(args[1])
        self.counts[f"permanent.calls.n{n}"] += 1
        self.size_seconds[n] += seconds

    def _after_lift(self, args, result, seconds):
        basis = args[1]
        self.counts["conditioning.lift.amplitudes"] += _sector_squares(basis)
        self.counts["conditioning.lift.max_dim"] = max(
            self.counts["conditioning.lift.max_dim"], basis.dimension
        )

    def _after_restart(self, args, result, seconds):
        _, residual, prob, _, evals = result
        self.counts["optimizer.restarts"] += 1
        self.counts["optimizer.evaluations"] += int(evals)
        if prob <= ZERO_LANDING_PROBABILITY:
            self.counts["optimizer.zero_landing_restarts"] += 1
        elif residual < FEASIBLE_RESIDUAL:
            self.counts["optimizer.feasible_restarts"] += 1

    def install(self):
        """Wrap every name of WRAPPED that exists; remember the rest."""
        for module, attr, name, hook in WRAPPED:
            owner, leaf, fn = _resolve(module, attr)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._restore.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(fn, name, hook))
            self.spans_installed.add(name)
            if hook:
                self.hooks_installed.add(hook)

    def uninstall(self):
        for owner, leaf, fn in reversed(self._restore):
            setattr(owner, leaf, fn)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Write every span as flat arrays plus the name table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    def metrics(self, sizes) -> dict:
        """Per-layer metrics; ``sizes`` are the permanent sizes reported."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        own = np.bincount(name, weights=self_time, minlength=n_names)

        out: dict = {}

        def put(key, value, unit, source):
            if source in self.spans_installed or source in self.hooks_installed:
                out[key] = (value, unit)

        for n in sizes:
            c = self.counts[f"permanent.calls.n{n}"]
            put(f"permanent.calls.n{n}", c, "count", "per_flat")
            put(f"permanent.us_per_call.n{n}", self.size_seconds[n] * 1e6 / c if c else 0.0, "us", "per_flat")
        for key, span, unit, scale in SPAN_METRICS:
            c = int(calls[self._name_ids[span]]) if span in self._name_ids else 0
            if scale is None:
                put(key, c, unit, span)
            else:
                put(key, float(total[self._name_ids[span]]) * scale / c if c else 0.0, unit, span)
        for key in HOOK_COUNTS:
            put(key, self.counts[key], "count", HOOK_COUNTS[key])
        evals = self.counts["optimizer.evaluations"]
        restart = self._name_ids.get("optimizer.run_restart")
        restart_s = float(total[restart]) if restart is not None else 0.0
        put("optimizer.us_per_eval", restart_s * 1e6 / evals if evals else 0.0, "us", "restart")
        put("cli.stdout_bytes", self.counts["cli.stdout_bytes"], "bytes", "cli.main")

        for layer in LAYERS:
            spans = [s for s in self.spans_installed if s.split(".")[0] == layer]
            if spans:
                seconds = sum(float(own[self._name_ids[s]]) for s in spans if s in self._name_ids)
                out[f"{layer}.self_s"] = (seconds, "s")
        return out

