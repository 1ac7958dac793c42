"""Seeded parameter search over triangular-mesh networks.

A template for N modes is a diagonal phase layer followed by N(N-1)/2
adjacent-pair beam splitters, each carrying one angle and one internal
phase: N*N real parameters in all, enough to reach every U(N) exactly
(the elimination construction in the interferometer module produces
networks of exactly this shape).

The search itself is two-phase Nelder-Mead under multistart: first drive
the constraint residual to zero, then maximize success probability with
the residual multiplied into the objective at weight 1e8, followed by a
short feasibility re-polish.  Everything is deterministic for a fixed
(objective, seed, restarts) triple, including under parallel restarts:
restart seeds are spawned from the master seed by counter, and results
are merged by a fixed ordering rule.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .conditioning import ConditionalExtractor, DetectionSpec
from .interferometer import (
    BeamSplitterParams,
    NetworkDescription,
    PhaseShifterParams,
    compose,
)

FEASIBLE_RESIDUAL = 1e-6
# With the overall scale free, the all-zero operator satisfies every
# constraint list exactly. Solutions below this success probability are
# treated as that degenerate point, not as feasible gates.
TRIVIAL_PROBABILITY = 1e-8
PENALTY_WEIGHT = 1e8
# Nelder-Mead evaluation budget of each feasibility and penalty run
MAX_EVALUATIONS = 20000
THREADS_ENV = "FOCKFORGE_THREADS"


class InfeasibleAtBudgetError(RuntimeError):
    """No restart reached the feasibility threshold.

    This reports exhaustion of the search budget, not a proof that no
    solution exists; the best result found is attached as .result.
    """

    def __init__(self, result):
        super().__init__(
            f"no restart reached residual < {FEASIBLE_RESIDUAL:g} "
            f"with success probability > {TRIVIAL_PROBABILITY:g} "
            f"(best residual {result.residual:.3e}, probability "
            f"{result.probability:.3e}, restart {result.restart_index})"
        )
        self.result = result


def network_from_params(params, mode_count: int) -> NetworkDescription:
    """Decode a parameter vector into the template network.

    Layout: K=N(N-1)/2 angles, then K internal phases, then N diagonal
    phases.  Angles are wrapped into range by the beam-splitter
    canonicalization rather than clamped, so the search space has no
    hard walls.
    """
    k = mode_count * (mode_count - 1) // 2
    p = np.asarray(params, dtype=float)
    if p.shape != (2 * k + mode_count,):
        raise ValueError(f"expected {2 * k + mode_count} parameters for {mode_count} modes")
    thetas = p[:k]
    phases = p[k : 2 * k]
    diag = p[2 * k :]
    elements = [PhaseShifterParams(i, float(diag[i])) for i in range(mode_count)]
    pairs = [
        (row - 1, row)
        for col in range(mode_count - 1)
        for row in range(mode_count - 1, col, -1)
    ]
    for idx in range(k - 1, -1, -1):
        a, b = pairs[idx]
        elements.append(
            BeamSplitterParams(a, b, float(thetas[idx]), float(phases[idx]), math.pi)
        )
    return NetworkDescription(mode_count, tuple(elements))


@dataclass(frozen=True)
class Objective:
    """Constraint pattern for a conditional gate.

    Each constraint is (input amplitudes, target amplitudes, phase_free)
    over the signal basis implied by signal_modes and signal_cutoff, with
    an optional fourth element of non-negative row weights (zero marks a
    row a later pipeline stage discards, so the search ignores it).  The
    extracted operator Y must satisfy Y x_k = s y_k with one common
    complex scale s across all constraints; a tuple with phase_free set
    is additionally allowed its own phase on y_k.  |s|^2 is the gate's
    success amplitude, maximized in the second phase; with weights it is
    a search proxy, not the physical probability.

    The ancilla may be an AncillaSpec (Fock occupation) or a PureState on
    the auxiliary modes; conditioning.ConditionalExtractor takes either.
    The extractor is built once, at construction, so a pattern that does
    not fit the modes or the cutoff, or an ancilla of another type,
    raises there.
    """

    mode_count: int
    signal_modes: tuple
    ancilla: object
    detection: DetectionSpec
    signal_cutoff: int
    constraints: tuple

    def __post_init__(self):
        cons = []
        if len(self.constraints) == 0:
            raise ValueError("objective needs at least one constraint")
        any_target = False
        for item in self.constraints:
            if len(item) == 3:
                x, y, free = item
                w = None
            else:
                x, y, free, w = item
            x = np.asarray(x, dtype=complex)
            y = np.asarray(y, dtype=complex)
            if x.shape != y.shape or x.ndim != 1:
                raise ValueError("constraint vectors must be 1-d and equal length")
            if float(np.linalg.norm(x)) < 1e-12:
                raise ValueError("constraint input is zero")
            if w is None:
                w = np.ones(x.shape)
            else:
                w = np.asarray(w, dtype=float)
                if w.shape != x.shape:
                    raise ValueError("weights must match the constraint vectors")
                if np.any(w < 0) or not np.any(w > 0):
                    raise ValueError("weights must be non-negative with at least one positive")
            if float(np.linalg.norm(w * y)) > 1e-12:
                any_target = True
            cons.append((x, y, bool(free), w))
        if not any_target:
            raise ValueError("all constraint targets are zero")
        object.__setattr__(self, "constraints", tuple(cons))
        # constant terms of _fit_scale and _evaluate, with their exact arithmetic
        norms = tuple(float(np.vdot(w * y, w * y).real) for _, y, _, w in cons)
        object.__setattr__(self, "_weighted_targets", tuple((1.0 + 0j) * w * y for _, y, _, w in cons))
        object.__setattr__(self, "_target_norms", norms)
        object.__setattr__(self, "_scale_denominator", sum(norms))
        object.__setattr__(self, "_phase_free", any(free for _, _, free, _ in cons))
        object.__setattr__(
            self,
            "_extractor",
            ConditionalExtractor(self.mode_count, self.signal_modes, self.ancilla, self.detection, self.signal_cutoff),
        )

    def extractor(self):
        return self._extractor


def _fit_scale(outputs, objective):
    """Common scale s (and per-tuple phases where allowed) minimizing
    sum_k ||w_k (o_k - s e^{i chi_k} y_k)||^2 by coordinate descent.
    Without phase_free tuples the first pass is already exact."""
    cons = objective.constraints
    phases = [1.0 + 0j] * len(cons)
    targets = list(objective._weighted_targets)
    weighted = [w * o for (_, _, _, w), o in zip(cons, outputs)]
    s = 0j
    for _ in range(20 if objective._phase_free else 1):
        num = 0j
        for wy, wo in zip(targets, weighted):
            num += np.vdot(wy, wo)
        s_new = num / objective._scale_denominator
        changed = abs(s_new - s)
        s = s_new
        if abs(s) > 0:
            for i, (x, y, free, w) in enumerate(cons):
                if free:
                    ip = np.vdot(s * w * y, weighted[i])
                    if abs(ip) > 0:
                        phases[i] = ip / abs(ip)
                        targets[i] = phases[i] * w * y
        if changed < 1e-15:
            break
    return s, phases


def _evaluate(params, objective):
    """(residual, probability) of the template network for a parameter vector.

    Both are computed in the weighted norm, so with non-unit weights the
    probability is a ranking proxy for the search; report the physical
    number from the finished gate, not from here."""
    lam = compose(network_from_params(params, objective.mode_count))
    y_op = objective.extractor().extract_matrix(lam.matrix)
    outputs = [y_op @ x for x, _, _, _ in objective.constraints]
    s, phases = _fit_scale(outputs, objective)
    residual = 0.0
    prob = math.inf
    for (x, y, free, w), o, ph, ny in zip(objective.constraints, outputs, phases, objective._target_norms):
        residual += float(np.sum(np.abs(w * (o - s * ph * y)) ** 2))
        if ny > 1e-24:
            prob = min(prob, float(np.vdot(w * o, w * o).real) / ny)
    if not math.isfinite(prob):
        prob = 0.0
    return residual, prob


def constraint_residual(params, objective: Objective) -> float:
    """Sum of squared scale- and phase-invariant deviations of the
    extracted conditional operator from the target pattern."""
    return _evaluate(params, objective)[0]


@dataclass(frozen=True)
class OptimizationResult:
    params: np.ndarray
    residual: float
    probability: float
    restart_index: int
    evaluations: int
    feasible: bool

    def network(self, mode_count: int) -> NetworkDescription:
        return network_from_params(self.params, mode_count)


class _EarlyStop(Exception):
    pass


def _nelder_mead(fun, x0, maxfev, stop_when=None):
    n = len(x0)
    simplex = np.empty((n + 1, n))
    simplex[0] = x0
    for i in range(n):
        simplex[i + 1] = x0
        simplex[i + 1, i] += 0.1
    count = [0]

    def wrapped(x):
        count[0] += 1
        v = fun(x)
        if stop_when is not None and stop_when(v):
            raise _EarlyStop(x, v)
        return v

    try:
        res = minimize(
            wrapped,
            x0,
            method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                "xatol": 1e-12,
                "fatol": 1e-15,
                "maxfev": maxfev,
                "adaptive": False,
            },
        )
        return np.asarray(res.x, dtype=float), float(res.fun), count[0]
    except _EarlyStop as stop:
        x, v = stop.args
        return np.asarray(x, dtype=float), float(v), count[0]


def _run_restart(args):
    objective, seed, index = args
    n_modes = objective.mode_count
    k = n_modes * (n_modes - 1) // 2
    rng = np.random.default_rng([seed, index])

    def draw():
        return np.concatenate(
            [
                rng.uniform(0.0, math.pi / 2.0, k),
                rng.uniform(0.0, 2.0 * math.pi, k),
                rng.uniform(0.0, 2.0 * math.pi, n_modes),
            ]
        )

    last_prob = [0.0]

    def residual_of(x):
        residual, prob = _evaluate(x, objective)
        last_prob[0] = prob
        return residual

    def stop_feasible(v):
        return v < 1e-13 and last_prob[0] > TRIVIAL_PROBABILITY

    # Feasibility phase. A landing on the zero operator (perfect residual,
    # no success) wastes the start, so redraw a few times before giving up.
    evals = 0
    best = None
    for _ in range(4):
        x1, r1, used = _nelder_mead(residual_of, draw(), MAX_EVALUATIONS, stop_when=stop_feasible)
        evals += used
        r1, p1 = _evaluate(x1, objective)
        if p1 > TRIVIAL_PROBABILITY and (best is None or r1 < best[1]):
            best = (x1, r1, p1)
            if r1 < 1e-10:
                break
    if best is None:
        return x1, r1, p1, index, evals
    x1, r1, p1 = best
    if r1 > 1e-10:
        return x1, r1, p1, index, evals

    def combined(x):
        residual, prob = _evaluate(x, objective)
        return PENALTY_WEIGHT * residual - prob

    x2, _, used = _nelder_mead(combined, x1, MAX_EVALUATIONS)
    evals += used
    # the penalty phase trades a sliver of feasibility for probability;
    # polish it back without giving the probability up
    x3, r3, used = _nelder_mead(residual_of, x2, 600, stop_when=stop_feasible)
    evals += used
    r_final, p_final = _evaluate(x3, objective)
    if r_final > r1 + 1e-12 and p_final <= p1:
        return x1, r1, p1, index, evals
    return x3, r_final, p_final, index, evals


def _worker_count(restarts: int) -> int:
    """Search processes for a run: FOCKFORGE_THREADS, where unset or 0
    means every core, capped by the restart count and at 16."""
    raw = os.environ.get(THREADS_ENV, "0")
    try:
        requested = int(raw)
    except ValueError:
        requested = -1
    if requested < 0:
        raise ValueError(f"{THREADS_ENV} must be a non-negative integer, got {raw!r}")
    return max(1, min(requested or os.cpu_count() or 1, restarts, 16))


def optimize_gate(objective: Objective, seed: int, restarts: int) -> OptimizationResult:
    """Multistart search for network parameters realizing the objective.

    Deterministic for fixed inputs: restart k draws its starts from
    default_rng([seed, k]) regardless of worker count, and the winner is
    chosen by a fixed rule - feasible restarts (residual < 1e-6 at
    nontrivial success) ranked by probability then restart index,
    infeasible ones by residual with zero-operator landings last.
    Raises InfeasibleAtBudgetError when nothing feasible was found; the
    best attempt rides along on the exception.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    jobs = [(objective, seed, r) for r in range(restarts)]
    workers = _worker_count(restarts)
    if workers == 1 or restarts == 1:
        raw = [_run_restart(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_run_restart, jobs, chunksize=max(1, restarts // (4 * workers))))

    def rank(item):
        _, residual, prob, index, _ = item
        if residual < FEASIBLE_RESIDUAL and prob > TRIVIAL_PROBABILITY:
            return (0, -prob, index)
        if prob > TRIVIAL_PROBABILITY:
            return (1, residual, index)
        return (2, residual, index)

    best = min(raw, key=rank)
    x, residual, prob, index, evals = best
    total_evals = sum(item[4] for item in raw)
    result = OptimizationResult(
        params=np.asarray(x, dtype=float),
        residual=float(residual),
        probability=float(prob),
        restart_index=int(index),
        evaluations=int(total_evals),
        feasible=bool(residual < FEASIBLE_RESIDUAL and prob > TRIVIAL_PROBABILITY),
    )
    if not result.feasible:
        raise InfeasibleAtBudgetError(result)
    return result
