"""Seeded parameter search over triangular-mesh networks.

A template for N modes is a diagonal phase layer followed by N(N-1)/2
adjacent-pair beam splitters, each carrying one angle and one internal
phase: N*N real parameters in all, enough to reach every U(N) exactly
(Reck, Zeilinger, Bernstein & Bertani, PRL 73, 58 (1994) factor any
U(N) into a mesh of exactly this shape).

Each restart runs three bounded phases: Levenberg-Marquardt drives the
deviation from the constraint pattern to zero, sequential quadratic
programming maximizes the success |s|^2 with the deviation held at zero,
and a short second Levenberg-Marquardt pass polishes the feasibility
back.  Both solvers are numpy loops, so nothing depends on the BLAS
thread count, and everything is deterministic for a fixed (objective,
seed, restarts) triple: restart seeds are spawned from the master seed
by counter, and results are merged by a fixed ordering rule.

Every evaluation runs on a stack of parameter vectors, decoded straight
into mode matrices (mesh_matrices) and extracted together.  Each phase
is a generator that yields the stack it needs next and receives its _fit
rows; the restarts run in lockstep, one _fit call per step on the stacks
of every live restart.  A point evaluated alone (a start, a trial) rides
with its Jacobian's forward-difference points, which a phase that moves
there uses without another step, and each phase hands its final rows on.
Levenberg-Marquardt's damping oscillates, so after an iteration that
needed more than one trial, the next sends its trials at d and 10 d in
one step and reads them in order; a trial after the accepted one goes
unread.  A point's row counts against its restart's budgets when read,
its Jacobian rows when used, and every reduction runs in a fixed order,
so a row has the same bits in any stack: the counts, the trajectory and
the result are those of each restart run alone, one trial per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditioning import ConditionalExtractor, DetectionSpec
from .interferometer import BeamSplitterParams, NetworkDescription, PhaseShifterParams
from .permanent import _ordered_sum

# unused here: imported only so that perfbench/tracing.py's WRAPPED names resolve
from .interferometer import compose  # noqa: F401

FEASIBLE_RESIDUAL = 1e-6
# With the overall scale free, the all-zero operator satisfies every
# constraint list exactly. Solutions below this success probability are
# treated as that degenerate point, not as feasible gates.
TRIVIAL_PROBABILITY = 1e-8
# Feasible restarts within this of the best probability tie, and the
# lowest index wins: their last bits must not pick the network.
TIED_PROBABILITY = 1e-9
# Per restart: up to FEASIBILITY_DRAWS starts of FEASIBILITY_BUDGET
# evaluations, then at most 50 probability steps and a 200-evaluation polish.
FEASIBILITY_DRAWS = 4
FEASIBILITY_BUDGET = 400
_STEP = np.sqrt(np.finfo(float).eps)  # of the forward differences, relative to max(1, |x|)
_FORMS = "a constraint is (x, y) or (x, y, weights), the weights shaped as x"


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
    pairs = _mesh_pairs(mode_count)
    for idx in range(k - 1, -1, -1):
        elements.append(BeamSplitterParams(*pairs[idx], float(thetas[idx]), float(phases[idx]), math.pi))
    return NetworkDescription(mode_count, tuple(elements))


def _mesh_pairs(mode_count: int) -> list:
    """Adjacent mode pairs of the template's splitters, in parameter order;
    the splitters act last parameter first."""
    return [(row - 1, row) for col in range(mode_count - 1) for row in range(mode_count - 1, col, -1)]


def mesh_matrices(stack, mode_count: int) -> np.ndarray:
    """Mode matrices (B, N, N) of a (B, N*N) stack of parameter vectors.

    Row b is compose(network_from_params(stack[b])), decoded without
    element objects: the diagonal phases, then one vectorised 2x2 row
    update per splitter.  A splitter of angle theta and internal phase
    phi is [[T, R], [-R*, T*]] with T = cos(theta) e^{i phi} and R =
    -sin(theta), equal to the element the canonicalization folds any
    angle into.  Raises ValueError on a non-finite parameter, which would
    give a non-finite entry, and, as ModeUnitary does, on a matrix not
    unitary to 1e-10.
    """
    n = mode_count
    k = n * (n - 1) // 2
    p = np.asarray(stack, dtype=float)
    if p.ndim != 2 or p.shape[1] != 2 * k + n:
        raise ValueError(f"expected a stack of {2 * k + n} parameters for {n} modes")
    if not np.isfinite(p).all():
        raise ValueError("non-finite parameter")
    # m[i] holds row i of every matrix, and each splitter's coefficients are
    # repeated along the rows they multiply, so every update is between
    # complex arrays of one shape
    t = np.repeat((np.cos(p[:, :k]) * np.exp(1j * p[:, k : 2 * k])).T[:, :, None], n, axis=2)
    r = np.repeat(np.sin(p[:, :k]).T[:, :, None] + 0j, n, axis=2)
    m = np.zeros((n, len(p), n), dtype=complex)
    for i, phase in enumerate(np.exp(1j * p[:, 2 * k :]).T):
        m[i, :, i] = phase
    for idx, (a, b) in reversed(list(enumerate(_mesh_pairs(n)))):
        row_a, row_b = m[a], m[b]
        m[a], m[b] = t[idx] * row_a - r[idx] * row_b, r[idx] * row_a + t[idx].conj() * row_b
    m = m.transpose(1, 0, 2)
    dev = float(np.max(np.abs(np.einsum("bij,bkj->bik", m, m.conj()) - np.eye(n)), initial=0.0))
    if dev > 1e-10:
        raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
    return m


@dataclass(frozen=True)
class Objective:
    """Constraint pattern for a conditional gate.

    Each constraint is (input amplitudes, target amplitudes) or (input
    amplitudes, target amplitudes, row weights) over the signal basis
    implied by signal_modes and signal_cutoff; the weights are
    non-negative, and zero marks a row a later pipeline stage discards,
    so the search ignores it.  The extracted operator Y must satisfy
    Y x_k = s y_k with one common complex scale s across all constraints,
    so every target's phase is fixed relative to the others.  |s|^2 is
    the gate's success amplitude, maximized in the second phase; with
    weights it is a search proxy, not the physical probability.

    The ancilla may be an AncillaSpec (Fock occupation) or a PureState on
    the auxiliary modes; conditioning.ConditionalExtractor takes either.
    The extractor is built once, at construction, so a pattern that does
    not fit the modes or the cutoff, or an ancilla of another type,
    raises there; a constraint of another form or with a non-finite
    entry raises before it is built.
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
            if len(item) not in (2, 3):
                raise ValueError(_FORMS)
            x, y, w = (*item, None)[:3]
            x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
            if x.shape != y.shape or x.ndim != 1:
                raise ValueError("constraint vectors must be 1-d and equal length")
            w = np.ones(x.shape) if w is None else np.asarray(w, dtype=float)
            if w.shape != x.shape:
                raise ValueError(_FORMS)
            if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(w).all()):
                raise ValueError("constraint entries must be finite")
            if float(np.linalg.norm(x)) < 1e-12:
                raise ValueError("constraint input is zero")
            if np.any(w < 0) or not np.any(w > 0):
                raise ValueError("weights must be non-negative with at least one positive")
            cons.append((x, y, w))
        object.__setattr__(self, "constraints", tuple(cons))
        # constant terms of _fit and _score
        norms = tuple(float(np.vdot(w * y, w * y).real) for _, y, w in cons)
        if max(norms) <= 1e-24:
            raise ValueError("all constraint targets are zero")
        object.__setattr__(self, "_target_norms", norms)
        object.__setattr__(self, "_scale_denominator", sum(norms))
        extractor = ConditionalExtractor(self.mode_count, self.signal_modes, self.ancilla, self.detection, self.signal_cutoff)
        object.__setattr__(self, "_extractor", extractor)
        dim = extractor.signal_basis.dimension
        if any(len(x) != dim for x, _, _ in cons):
            raise ValueError(f"constraint vectors must have the signal basis dimension {dim}")
        # the constraints as (K, d) arrays
        object.__setattr__(self, "_inputs", np.array([x for x, _, _ in cons]))
        object.__setattr__(self, "_weights", np.array([w for _, _, w in cons]))
        object.__setattr__(self, "_weighted_targets", np.array([(1.0 + 0j) * w * y for _, y, w in cons]))

    def extractor(self):
        return self._extractor


def _fit(stack, objective):
    """For each row of a (B, N*N) parameter stack: the weighted output
    norms ||w_k o_k||^2 (B, K), the common scale s (B,) and the weighted
    deviation w_k (o_k - s y_k) stacked over the constraints, real parts
    then imaginary parts (B, 2 K d).  s minimizes the deviation in closed
    form, sum_k <w_k y_k, w_k o_k> / sum_k ||w_k y_k||^2, each dot product
    an elementwise product summed in index order, so a row gets the bits
    it would get alone."""
    y_ops = objective.extractor().extract_stack(mesh_matrices(stack, objective.mode_count))
    weighted = objective._weights * _ordered_sum(y_ops[:, None] * objective._inputs[:, None, :])
    wy = objective._weighted_targets
    s = _ordered_sum(_ordered_sum(wy.conj() * weighted)) / objective._scale_denominator
    deviation = (weighted - s[:, None, None] * wy).reshape(len(weighted), -1)
    norms = _ordered_sum(weighted.real**2 + weighted.imag**2)
    return norms, s, np.concatenate([deviation.real, deviation.imag], axis=1)


def _score(rows, objective):
    """(residual, probability) from the first of a stack's _fit rows.

    Both are computed in the weighted norm, so with non-unit weights the
    probability is a ranking proxy for the search; report the physical
    number from the finished gate, not from here."""
    norms, _, deviation = (part[0] for part in rows)
    targets = np.array(objective._target_norms)
    live = targets > 1e-24  # Objective holds at least one such target
    return float(deviation @ deviation), float(np.min(norms[live] / targets[live]))


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


def _look_ahead(x):
    """x's look-ahead: the stack of x and its forward-difference points
    x + diag(steps), whose rows give a phase its value at x and, if it
    moves there, its Jacobian."""
    return np.vstack([x, x + np.diag(_STEP * np.maximum(1.0, np.abs(x)))])


def _jacobian(values, x):
    """Forward differences at x from a phase's values on _look_ahead(x)."""
    return ((values[1:] - values[0]) / (_STEP * np.maximum(1.0, np.abs(x)))[:, None]).T


def _feasibility(objective, x, budget, rows=None):
    """Levenberg-Marquardt on the deviation relative to the output norm:
    (x, the _fit rows of its look-ahead, evaluations), from x and, if
    known, those rows.  Blind to the overall scale, it is not drawn to the
    zero operator.  A draw ends when it collapses there anyway, stalls, or
    would overrun its budget with the next Jacobian.  After an iteration of
    more than one damping trial, the next sends its trials two to a step.
    It is numpy, not MINPACK, whose step rounds with the alignment of its
    work arrays."""
    floor = TRIVIAL_PROBABILITY * objective._scale_denominator

    def relative(rows):
        norms, _, deviation = rows
        total = _ordered_sum(norms)
        return deviation / np.sqrt(np.maximum(total, floor))[:, None], total[0] <= floor

    if rows is None:
        rows = yield _look_ahead(x)
    values, done = relative(rows)
    r, count, damping, depth, size = values[0], 1, 1e-3, 1, len(x) + 1
    while not done and r @ r > 1e-28 and damping < 1e12 and count + len(x) < budget:
        jac, count = _jacobian(values, x), count + len(x)
        grad, normal = jac.T @ r, jac.T @ jac
        charged, accepted = count, False
        while not accepted and damping < 1e12 and count < budget:
            # the trials the loop would make next, at damping, 10 damping, ...
            trials, level = [], damping
            while len(trials) < depth and level < 1e12 and count + len(trials) < budget:
                trial = x - np.linalg.lstsq(normal + level * np.eye(len(x)), grad)[0]
                level *= 10.0
                if np.isfinite(trial).all():
                    trials.append(trial)
                elif trials:
                    break  # a speculative trial must not make the step raise
                else:
                    damping = level  # a non-finite trial is rejected unsent
            if not trials:
                break
            stack = yield np.vstack([_look_ahead(trial) for trial in trials])
            for i, trial in enumerate(trials):
                trial_rows = tuple(part[i * size : (i + 1) * size] for part in stack)
                trial_values, collapsed = relative(trial_rows)
                r_trial, count = trial_values[0], count + 1
                if r_trial @ r_trial < r @ r:
                    # a step that gains less than 0.1% marks a local minimum
                    done = collapsed or r @ r - r_trial @ r_trial <= 1e-3 * (r @ r)
                    x, rows, values, r, damping = trial, trial_rows, trial_values, r_trial, damping / 10.0
                    accepted = True
                    break
                damping *= 10.0
        # the damping oscillates: an iteration that took more than one trial
        # predicts another, whose second trial then rides in the first's step
        depth = 2 if count - charged > 1 else 1
    return x, rows, count


def _raise_probability(x0, rows):
    """Sequential quadratic programming on -|s|^2 with the deviation held
    at zero, as in SLSQP: (x, the _fit rows of its look-ahead,
    evaluations), from x0 and those rows.  The deviation's equations are
    far from independent (rank 2 at a feasible Pauli-x network), and a
    singular constraint matrix stalls the step, so the held constraints
    are the deviation on the left singular vectors of its Jacobian at the
    start.  It is numpy, not SLSQP, whose step rounds with the BLAS
    thread count."""

    def f(rows):
        _, s, deviation = rows
        return np.concatenate([deviation, np.abs(s)[:, None] ** 2], axis=1)

    values = f(rows)
    value, jac, count = values[0], _jacobian(values, x0), 1 + len(x0)
    u, sigma, _ = np.linalg.svd(jac[:-1], full_matrices=False)
    # rows from here on: the held deviation, then -|s|^2
    basis = u[:, sigma > 1e-3 * sigma[0]].T
    project = np.zeros((len(basis) + 1, len(value)))
    project[:-1, :-1], project[-1, -1] = basis, -1.0

    def projected(rows):
        return _ordered_sum(f(rows)[:, None, :] * project)  # project @ f(x) for each row

    x, value, jac = x0, project @ value, project @ jac
    held = len(value) - 1
    hessian, weight = np.eye(len(x)), 0.0
    for _ in range(50):
        kkt = np.block([[hessian, jac[:-1].T], [jac[:-1], np.zeros((held, held))]])
        solution = np.linalg.lstsq(kkt, -np.append(jac[-1], value[:-1]))[0]
        step, lagrange = solution[: len(x)], np.append(solution[len(x) :], 1.0)
        if not np.isfinite(x + step).all():
            break  # as a failed line search does
        largest = np.abs(lagrange[:-1]).max(initial=0.0)
        weight = max(largest, 0.5 * (weight + largest))  # of the L1 merit
        violation = weight * np.abs(value[:-1]).sum()
        merit, slope = value[-1] + violation, jac[-1] @ step - violation
        for _ in range(10):
            trial_rows = yield _look_ahead(x + step)
            values, count = projected(trial_rows), count + 1
            if values[0, -1] + weight * np.abs(values[0, :-1]).sum() <= merit + 0.1 * min(slope, 0.0):
                break
            step = 0.5 * step
        else:
            break
        trial, trial_jac, count = values[0], _jacobian(values, x + step), count + len(x)
        change, curved = (trial_jac - jac).T @ lagrange, step @ hessian @ step
        if step @ change < 0.2 * curved:  # Powell's damping keeps the model positive definite
            mix = 0.8 * curved / (curved - step @ change)
            change = mix * change + (1.0 - mix) * (hessian @ step)
        hessian += np.outer(change, change) / (step @ change) - np.outer(hessian @ step, hessian @ step) / curved
        done = abs(trial[-1] - value[-1]) < 1e-8 and np.abs(trial[:-1]).sum() < 1e-8
        x, value, jac, rows = x + step, trial, trial_jac, trial_rows
        if done:
            break
    return x, rows, count


def _restart(objective, seed, index):
    k = objective.mode_count * (objective.mode_count - 1) // 2
    rng = np.random.default_rng([seed, index])
    # starts: angles in [0, pi/2), internal and diagonal phases in [0, 2 pi)
    high = np.repeat([math.pi / 2.0, 2.0 * math.pi], [k, k + objective.mode_count])

    # Feasibility phase: redraw a few times before giving a restart up.
    evals, best = 0, None
    for _ in range(FEASIBILITY_DRAWS):
        x1, rows1, used = yield from _feasibility(objective, rng.uniform(0.0, high), FEASIBILITY_BUDGET)
        evals += used
        r1, p1 = _score(rows1, objective)
        if p1 > TRIVIAL_PROBABILITY and (best is None or r1 < best[1]):
            best = (x1, r1, p1, rows1)
            if r1 < 1e-10:
                break
    if best is None or best[1] > 1e-10:
        return (*(best or (x1, r1, p1))[:3], index, evals)
    x1, r1, p1, rows1 = best

    x2, rows2, raised = yield from _raise_probability(x1, rows1)
    # the last step meets the held deviation only to 1e-8; polish it back
    # without giving the probability up
    x3, rows3, polished = yield from _feasibility(objective, x2, 200, rows2)
    evals += raised + polished
    r_final, p_final = _score(rows3, objective)
    if r_final > r1 + 1e-12 and p_final <= p1:
        return x1, r1, p1, index, evals
    return x3, r_final, p_final, index, evals


def _run_restarts(objective, seed, indices):
    """(x, residual, probability, index, evaluations) of each restart
    index of the search for objective from seed, run in lockstep: each
    step is one _fit call on every pending stack."""
    phases = [_restart(objective, seed, index) for index in indices]
    results = [None] * len(phases)
    pending = {i: next(phase) for i, phase in enumerate(phases)}
    while pending:
        stacks = list(pending.items())
        rows = _fit(np.concatenate([stack for _, stack in stacks]), objective)
        for (i, stack), end in zip(stacks, np.cumsum([len(stack) for _, stack in stacks])):
            try:
                pending[i] = phases[i].send(tuple(part[end - len(stack) : end] for part in rows))
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
    return results


def _run_restart(job):
    objective, seed, index = job
    return _run_restarts(objective, seed, [index])[0]


def optimize_gate(objective: Objective, seed: int = 0, restarts: int = 24) -> OptimizationResult:
    """Multistart search for network parameters realizing the objective.

    The restarts run in lockstep in this process.  Deterministic for
    fixed inputs: restart k draws its starts from default_rng([seed, k]),
    its result does not depend on the restarts evaluated beside it, and
    the winner is chosen by a fixed rule - among feasible restarts
    (residual < 1e-6 at nontrivial success), the lowest restart index
    whose probability is within TIED_PROBABILITY of the best; failing
    those, the lowest residual, zero-operator landings last.
    Raises InfeasibleAtBudgetError when nothing feasible was found; the
    best attempt rides along on the exception.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    raw = _run_restarts(objective, seed, range(restarts))
    feasible = [item for item in raw if item[1] < FEASIBLE_RESIDUAL and item[2] > TRIVIAL_PROBABILITY]
    if feasible:
        top = max(item[2] for item in feasible)
        x, residual, prob, index, _ = next(item for item in feasible if item[2] >= top - TIED_PROBABILITY)
    else:
        x, residual, prob, index, _ = min(raw, key=lambda item: (item[2] <= TRIVIAL_PROBABILITY, item[1], item[3]))
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
