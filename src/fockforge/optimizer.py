"""Seeded parameter search over triangular-mesh networks.

A template for N modes is a diagonal phase layer followed by N(N-1)/2
adjacent-pair beam splitters, each carrying one angle and one internal
phase: N*N real parameters in all, enough to reach every U(N) exactly
(the elimination construction in the interferometer module produces
networks of exactly this shape).

Each restart runs three bounded phases: Levenberg-Marquardt drives the
deviation from the constraint pattern to zero, sequential quadratic
programming maximizes the success |s|^2 with the deviation held at zero,
and a short second Levenberg-Marquardt pass polishes the feasibility
back.  Both solvers are numpy loops, so nothing depends on the BLAS
thread count, and everything is deterministic for a fixed (objective,
seed, restarts) triple, also under parallel restarts: restart seeds are
spawned from the master seed by counter, and results are merged by a
fixed ordering rule.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .conditioning import ConditionalExtractor, DetectionSpec
from .interferometer import BeamSplitterParams, NetworkDescription, PhaseShifterParams, compose

FEASIBLE_RESIDUAL = 1e-6
# With the overall scale free, the all-zero operator satisfies every
# constraint list exactly. Solutions below this success probability are
# treated as that degenerate point, not as feasible gates.
TRIVIAL_PROBABILITY = 1e-8
# Per restart: up to FEASIBILITY_DRAWS starts of FEASIBILITY_BUDGET
# evaluations, then at most 50 probability steps and a 200-evaluation polish.
FEASIBILITY_DRAWS = 4
FEASIBILITY_BUDGET = 400
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
    thetas, phases, diag = p[:k], p[k : 2 * k], p[2 * k :]
    elements = [PhaseShifterParams(i, float(diag[i])) for i in range(mode_count)]
    pairs = [(row - 1, row) for col in range(mode_count - 1) for row in range(mode_count - 1, col, -1)]
    for idx in range(k - 1, -1, -1):
        elements.append(BeamSplitterParams(*pairs[idx], float(thetas[idx]), float(phases[idx]), math.pi))
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
        for item in self.constraints:
            x, y, free, w = item if len(item) == 4 else (*item, None)
            x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
            if x.shape != y.shape or x.ndim != 1:
                raise ValueError("constraint vectors must be 1-d and equal length")
            if float(np.linalg.norm(x)) < 1e-12:
                raise ValueError("constraint input is zero")
            w = np.ones(x.shape) if w is None else np.asarray(w, dtype=float)
            if w.shape != x.shape:
                raise ValueError("weights must match the constraint vectors")
            if np.any(w < 0) or not np.any(w > 0):
                raise ValueError("weights must be non-negative with at least one positive")
            cons.append((x, y, bool(free), w))
        object.__setattr__(self, "constraints", tuple(cons))
        # constant terms of _fit_scale and _evaluate, with their exact arithmetic
        norms = tuple(float(np.vdot(w * y, w * y).real) for _, y, _, w in cons)
        if max(norms) <= 1e-24:
            raise ValueError("all constraint targets are zero")
        object.__setattr__(self, "_weighted_targets", tuple((1.0 + 0j) * w * y for _, y, _, w in cons))
        object.__setattr__(self, "_target_norms", norms)
        object.__setattr__(self, "_scale_denominator", sum(norms))
        object.__setattr__(self, "_phase_free", any(free for _, _, free, _ in cons))
        extractor = ConditionalExtractor(self.mode_count, self.signal_modes, self.ancilla, self.detection, self.signal_cutoff)
        object.__setattr__(self, "_extractor", extractor)

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
        s_new = sum((np.vdot(wy, wo) for wy, wo in zip(targets, weighted)), 0j) / objective._scale_denominator
        changed, s = abs(s_new - s), s_new
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


def _fit(params, objective):
    """Weighted output norms ||w_k o_k||^2 of the template network, the
    fitted scale s, and the weighted deviation w_k (o_k - s e^{i chi_k} y_k)
    stacked over the constraints, real parts then imaginary parts."""
    lam = compose(network_from_params(params, objective.mode_count))
    y_op = objective.extractor().extract_matrix(lam.matrix)
    outputs = [y_op @ x for x, _, _, _ in objective.constraints]
    s, phases = _fit_scale(outputs, objective)
    weighted = [w * o for (_, _, _, w), o in zip(objective.constraints, outputs)]
    deviation = np.concatenate([wo - s * ph * wy for wo, ph, wy in zip(weighted, phases, objective._weighted_targets)])
    norms = np.array([np.vdot(wo, wo).real for wo in weighted])
    return norms, s, np.concatenate([deviation.real, deviation.imag])


def _evaluate(params, objective):
    """(residual, probability) of the template network for a parameter vector.

    Both are computed in the weighted norm, so with non-unit weights the
    probability is a ranking proxy for the search; report the physical
    number from the finished gate, not from here."""
    norms, _, deviation = _fit(params, objective)
    targets = np.array(objective._target_norms)
    live = targets > 1e-24  # Objective holds at least one such target
    return float(deviation @ deviation), float(np.min(norms[live] / targets[live]))


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


def _jacobian(fun, x, value):
    """Forward differences of fun at x, where fun(x) is value."""
    steps = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(x))
    return np.column_stack([(fun(x + h * e) - value) / h for h, e in zip(steps, np.eye(len(x)))])


def _feasibility(objective, x, budget):
    """Levenberg-Marquardt on the deviation relative to the output norm:
    (x, evaluations).  Blind to the overall scale, it is not drawn to the
    zero operator.  A draw ends when it collapses there anyway, stalls, or
    would overrun its budget with the next Jacobian.  It is numpy, not
    MINPACK, whose step rounds with the alignment of its work arrays."""
    floor = TRIVIAL_PROBABILITY * objective._scale_denominator
    count = 0

    def relative(x):
        nonlocal count
        count += 1
        norms, _, deviation = _fit(x, objective)
        return deviation / math.sqrt(max(norms.sum(), floor)), norms.sum() <= floor

    r, done = relative(x)
    damping = 1e-3
    while not done and r @ r > 1e-28 and damping < 1e12 and count + len(x) < budget:
        jac = _jacobian(lambda x: relative(x)[0], x, r)
        grad, normal = jac.T @ r, jac.T @ jac
        while damping < 1e12 and count < budget:
            trial = x - np.linalg.lstsq(normal + damping * np.eye(len(x)), grad)[0]
            r_trial, collapsed = relative(trial)
            if r_trial @ r_trial < r @ r:
                # a step that gains less than 0.1% marks a local minimum
                done = collapsed or r @ r - r_trial @ r_trial <= 1e-3 * (r @ r)
                x, r, damping = trial, r_trial, damping / 10.0
                break
            damping *= 10.0
    return x, count


def _raise_probability(objective, x0):
    """Sequential quadratic programming on -|s|^2 with the deviation held
    at zero, as in SLSQP: (x, evaluations).  The deviation's equations are
    far from independent (rank 2 at a feasible Pauli-x network), and a
    singular constraint matrix stalls the step, so the held constraints
    are the deviation on the left singular vectors of its Jacobian at the
    start.  It is numpy, not SLSQP, whose step rounds with the BLAS
    thread count."""
    count = 0

    def f(x):
        nonlocal count
        count += 1
        _, s, deviation = _fit(x, objective)
        return np.append(deviation, abs(s) ** 2)

    value = f(x0)
    jac = _jacobian(f, x0, value)
    u, sigma, _ = np.linalg.svd(jac[:-1], full_matrices=False)
    # rows from here on: the held deviation, then -|s|^2
    basis = u[:, sigma > 1e-3 * sigma[0]].T
    project = np.zeros((len(basis) + 1, len(value)))
    project[:-1, :-1], project[-1, -1] = basis, -1.0
    x, value, jac = x0, project @ value, project @ jac
    held = len(value) - 1
    hessian, weight = np.eye(len(x)), 0.0
    for _ in range(50):
        kkt = np.block([[hessian, jac[:-1].T], [jac[:-1], np.zeros((held, held))]])
        solution = np.linalg.lstsq(kkt, -np.append(jac[-1], value[:-1]))[0]
        step, lagrange = solution[: len(x)], np.append(solution[len(x) :], 1.0)
        largest = np.abs(lagrange[:-1]).max(initial=0.0)
        weight = max(largest, 0.5 * (weight + largest))  # of the L1 merit
        violation = weight * np.abs(value[:-1]).sum()
        merit, slope = value[-1] + violation, jac[-1] @ step - violation
        for _ in range(10):
            trial = project @ f(x + step)
            if trial[-1] + weight * np.abs(trial[:-1]).sum() <= merit + 0.1 * min(slope, 0.0):
                break
            step = 0.5 * step
        else:
            break
        trial_jac = _jacobian(lambda x: project @ f(x), x + step, trial)
        change, curved = (trial_jac - jac).T @ lagrange, step @ hessian @ step
        if step @ change < 0.2 * curved:  # Powell's damping keeps the model positive definite
            mix = 0.8 * curved / (curved - step @ change)
            change = mix * change + (1.0 - mix) * (hessian @ step)
        hessian += np.outer(change, change) / (step @ change) - np.outer(hessian @ step, hessian @ step) / curved
        done = abs(trial[-1] - value[-1]) < 1e-8 and np.abs(trial[:-1]).sum() < 1e-8
        x, value, jac = x + step, trial, trial_jac
        if done:
            break
    return x, count


def _run_restart(args):
    objective, seed, index = args
    k = objective.mode_count * (objective.mode_count - 1) // 2
    rng = np.random.default_rng([seed, index])
    # starts: angles in [0, pi/2), internal and diagonal phases in [0, 2 pi)
    high = np.repeat([math.pi / 2.0, 2.0 * math.pi], [k, k + objective.mode_count])

    # Feasibility phase: redraw a few times before giving a restart up.
    evals = 0
    best = None
    for _ in range(FEASIBILITY_DRAWS):
        x1, used = _feasibility(objective, rng.uniform(0.0, high), FEASIBILITY_BUDGET)
        evals += used
        r1, p1 = _evaluate(x1, objective)
        if p1 > TRIVIAL_PROBABILITY and (best is None or r1 < best[1]):
            best = (x1, r1, p1)
            if r1 < 1e-10:
                break
    if best is None or best[1] > 1e-10:
        return (*(best or (x1, r1, p1)), index, evals)
    x1, r1, p1 = best

    x2, raised = _raise_probability(objective, x1)
    # the last step meets the held deviation only to 1e-8; polish it back
    # without giving the probability up
    x3, polished = _feasibility(objective, x2, 200)
    evals += raised + polished
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

    x, residual, prob, index, _ = min(raw, key=rank)
    result = OptimizationResult(
        params=np.asarray(x, dtype=float),
        residual=float(residual),
        probability=float(prob),
        restart_index=int(index),
        evaluations=sum(int(item[4]) for item in raw),
        feasible=bool(residual < FEASIBLE_RESIDUAL and prob > TRIVIAL_PROBABILITY),
    )
    if not result.feasible:
        raise InfeasibleAtBudgetError(result)
    return result
