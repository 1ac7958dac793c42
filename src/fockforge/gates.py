"""Conditional-gate recipes on the truncated Fock simulator.

Each public function returns an executable description (network, ancilla
pattern, detection pattern) together with a report comparing the
extracted conditional operator against the ideal target.  Construction
strategies vary by gate: some are closed-form (swap, the vacuum-detector
controlled-phase, KILL), some run the seeded network search (nonlinear
sign shift, SU(3) phase synthesis, Pauli X/Y), and the CNOT entry is a
deliberate failure report - numerical evidence that no beam-splitter
sandwich of product number operators reproduces it.

Two builders assemble the recurring parts: `_sandwich` puts conditional
arms between the balanced splitter pair SPLIT ... RECOMBINE on six modes
and reports the two-qubit slab (both controlled-phase variants), and
`_searched_recipe` turns a search result into the recipe and report
(sign shift, SU(3) phase, Pauli X/Y).

Success probabilities are amplitude-squared scales of the extracted
operator and multiply across independent interferometer arms.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .conditioning import (
    AncillaSpec,
    DetectionSpec,
    extract_conditional_operator,
    extract_with_ancilla_state,
    lift_unitary,
)
from .fock import (
    CutoffTooSmallError,
    FockBasis,
    FockOperator,
    PerModeCutoff,
    PureState,
    TotalPhotonCutoff,
    _cmul,
    _lookup,
    coherent_state,
    displacement_operator_for,
    number_polynomial,
    tmsv_ladder,
)
from .interferometer import (
    BeamSplitterParams,
    NetworkDescription,
    PhaseShifterParams,
    bs_matrix,
    compose,
)
from .optimizer import Objective, optimize_gate
from .permanent import subpermanent

FOUR_PHOTON = "four-photon"
VACUUM_DETECTOR = "vacuum-detector"
# the balanced splitter and its inverse around every Mach-Zehnder sandwich
SPLIT = BeamSplitterParams(0, 1, math.pi / 4.0, 0.0, 0.0)
RECOMBINE = BeamSplitterParams(0, 1, math.pi / 4.0, 0.0, math.pi)


# ---------------------------------------------------------------------------
# report plumbing


def phase_aligned_residual(achieved, target):
    """Max-entry distance between two matrices after removing one global
    phase, the phase taken in closed form from tr(target^dag achieved).

    Returns (residual, phase) with achieved ~ phase * target at optimum.
    """
    a = np.asarray(achieved, dtype=complex)
    b = np.asarray(target, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    ip = complex(np.sum(b.conj() * a))
    z = ip / abs(ip) if abs(ip) > 0 else 1.0 + 0j
    return float(np.max(np.abs(a - z * b))), z


@dataclass(frozen=True)
class GateRecipe:
    """Executable circuit description.

    aux and det are None for deterministic gates (nothing injected,
    nothing detected); aux holds a PureState when the ancilla is a
    superposition rather than a Fock pattern.  Mode bookkeeping:
    signal_modes plus the ancilla modes partition range(network.mode_count).
    """

    network: NetworkDescription
    signal_modes: tuple
    aux: object
    det: object
    target: str


@dataclass
class GateReport:
    """Comparison of the realized operator block against the ideal.

    achieved is stored magnitude-normalized (Frobenius norm matched to
    the target) so the residual isolates shape errors; the raw scale is
    the square root of success_probability.  residual is the max-entry
    deviation after one global phase is removed in closed form.
    """

    achieved: np.ndarray
    target: np.ndarray
    residual: float
    success_probability: float
    extras: dict = field(default_factory=dict)


def _make_report(achieved, target, success, **extras) -> GateReport:
    a = np.asarray(achieved, dtype=complex)
    t = np.asarray(target, dtype=complex)
    na = float(np.linalg.norm(a))
    nt = float(np.linalg.norm(t))
    if na > 0:
        a = a * (nt / na)
        residual, phase = phase_aligned_residual(a, t)
    else:
        residual, phase = float(np.max(np.abs(t))), 1.0 + 0j
    extras.setdefault("global_phase", phase)
    return GateReport(a, t, residual, float(success), extras)


def _embed_network(network: NetworkDescription, mapping: dict) -> list:
    """Re-address a small network's elements inside a larger circuit."""
    return [
        BeamSplitterParams(mapping[e.mode_a], mapping[e.mode_b], e.theta, e.phase_t, e.phase_r)
        if isinstance(e, BeamSplitterParams)
        else PhaseShifterParams(mapping[e.mode], e.angle)
        for e in network.elements
    ]


# ---------------------------------------------------------------------------
# SU(3) phase synthesis and the nonlinear sign shift

def nss_objective() -> Objective:
    """Sign shift diag(1, 1, -1) on layers 0..2: one photon and one vacuum
    ancilla, detection of the same |1,0> pattern."""
    e = np.eye(3)
    return Objective(
        mode_count=3,
        signal_modes=(0,),
        ancilla=AncillaSpec((1, 0)),
        detection=DetectionSpec((1, 0)),
        signal_cutoff=2,
        constraints=((e[0], e[0]), (e[1], e[1]), (e[2], -e[2])),
    )


def su3_objective(phi1: float = 0.0, phi2: float = math.pi) -> Objective:
    """Layer phases diag(1, e^{i phi1}, e^{i phi2}) on layers 0..2: single
    photons in both auxiliary modes, single-photon detection on both."""
    e = np.eye(3)
    return Objective(
        mode_count=3,
        signal_modes=(0,),
        ancilla=AncillaSpec((1, 1)),
        detection=DetectionSpec((1, 1)),
        signal_cutoff=2,
        constraints=((e[0], e[0]), (e[1], cmath.exp(1j * phi1) * e[1]), (e[2], cmath.exp(1j * phi2) * e[2])),
    )


def _solve(objective: Objective, seed: int, restarts: int):
    """(OptimizationResult, composed mode matrix) of the search for
    objective.  Recipes that impose one constraint family (the sign shift
    and the controlled-z arm check, the SU(3) element and the four-photon
    controlled phase) each run it, and reach the same network from the
    same seed and restarts.  Each recipe takes its signal modes, ancilla
    and detection from the objective it searched, so it cannot report
    another gate's operator."""
    result = optimize_gate(objective, seed=seed, restarts=restarts)
    return result, compose(result.network(objective.mode_count))


def _searched_recipe(objective: Objective, result, ancilla, text: str, achieved, target, success, **extras):
    """(GateRecipe, GateReport) of the network a search for objective
    found: the report carries the search's residual and restart index
    after extras, and the recipe the objective's signal modes and
    detection with the given ancilla."""
    report = _make_report(
        achieved,
        target,
        success,
        **extras,
        optimizer_residual=result.residual,
        restart_index=result.restart_index,
    )
    recipe = GateRecipe(
        result.network(objective.mode_count), objective.signal_modes, ancilla, objective.detection, text
    )
    return recipe, report


def phase_condition_residual(lam, phi1: float, phi2: float) -> float:
    """Deviation from the SU(3) solvability condition
    per L(1|1) [e^{i phi2} + L11^2 - 2 L11 e^{i phi1}] = 2 L12 L21 L13 L31."""
    m = np.asarray(lam.matrix if hasattr(lam, "matrix") else lam, dtype=complex)
    per11 = subpermanent(m, [0], [0])
    lhs = per11 * (cmath.exp(1j * phi2) + m[0, 0] ** 2 - 2.0 * m[0, 0] * cmath.exp(1j * phi1))
    rhs = 2.0 * m[0, 1] * m[1, 0] * m[0, 2] * m[2, 0]
    return float(abs(lhs - rhs))


def su3_phase_gate(phi1: float = 0.0, phi2: float = math.pi, seed: int = 0, restarts: int = 40):
    """Layer-phase gate diag(1, e^{i phi1}, e^{i phi2}) from one 3-mode
    network with single photons in both auxiliary modes and single-photon
    detection on both.

    The returned report's success probability is |per L(1|1)|^2, the
    squared vacuum-layer amplitude; because the three layer amplitudes
    are constrained to a common magnitude, it is the success on any
    normalized input of the qutrit layer.
    """
    objective = su3_objective(phi1, phi2)
    result, lam = _solve(objective, seed, restarts)
    return _searched_recipe(
        objective,
        result,
        objective.ancilla,
        f"diag(1, exp(i*{phi1:g}), exp(i*{phi2:g})) on photon layers 0..2",
        objective.extractor().extract_matrix(lam),
        np.diag([1.0, cmath.exp(1j * phi1), cmath.exp(1j * phi2)]),
        abs(subpermanent(lam.matrix, [0], [0])) ** 2,
        lambda11=complex(lam.matrix[0, 0]),
        phase_condition_residual=phase_condition_residual(lam, phi1, phi2),
    )


def nss_gate_klm(seed: int = 7, restarts: int = 24):
    """Nonlinear sign shift c0|0> + c1|1> + c2|2> -> c0|0> + c1|1> - c2|2>.

    One photon and one vacuum ancilla, three beam splitters, detection of
    the same |1,0> pattern.  The search lands on the known optimum: the
    signal-signal matrix element comes out at 1 - sqrt(2) and the success
    probability at 1/4.
    """
    objective = nss_objective()
    result, lam = _solve(objective, seed, restarts)
    return _searched_recipe(
        objective,
        result,
        objective.ancilla,
        "sign flip on the two-photon layer",
        objective.extractor().extract_matrix(lam),
        np.diag([1.0, 1.0, -1.0]),
        result.probability,
        lambda11=complex(lam.matrix[0, 0]),
    )


@dataclass(frozen=True)
class RalphCzReport:
    """Outcome of the constrained controlled-z arm analysis."""

    lambda11_analytic: complex
    lambda11_optimized: complex
    quadratic_roots: tuple
    max_success: float
    constraint_residuals: tuple


def ralph_cz_check(seed: int = 7, restarts: int = 24) -> RalphCzReport:
    """Confirms the constrained arm of the dual-rail controlled-z.

    The two layer constraints per L(3|3) = L22 and
    2 L12 L21 L11 + L22 L11^2 = -L22 eliminate to the quadratic
    x^2 - 2x - 1 = 0 in x = L11, whose only sub-unit-modulus root is
    1 - sqrt(2); the optimizer (run on the sign-shift objective, which
    imposes the identical constraint family) must land there and reach
    |L22|^2 = 1/4.
    """
    roots = (1.0 + math.sqrt(2.0), 1.0 - math.sqrt(2.0))
    analytic = complex(roots[1])
    result, lam = _solve(nss_objective(), seed, restarts)
    m = lam.matrix
    # Y(n) coefficients of the aux |1,0>, detect |1,0> arm
    y0 = m[1, 1]
    y1 = subpermanent(m, [2], [2])
    y2 = m[0, 0] ** 2 * m[1, 1] + 2.0 * m[0, 0] * m[0, 1] * m[1, 0]
    residuals = (abs(y1 - y0), abs(y2 + y0))
    return RalphCzReport(
        lambda11_analytic=analytic,
        lambda11_optimized=complex(m[0, 0]),
        quadratic_roots=roots,
        max_success=float(abs(y0) ** 2),
        constraint_residuals=(float(residuals[0]), float(residuals[1])),
    )


# ---------------------------------------------------------------------------
# controlled-phase networks


def _sandwich(arms, aux, det, phi: float, text: str, success, **extras):
    """(GateRecipe, GateReport, extracted FockOperator) of the six-mode
    network SPLIT, arms, RECOMBINE with signal modes (0, 1): the report's
    achieved block is the operator's slab over the qubit columns, held to
    the two-rail phase gate exp(i phi) on |1,1>."""
    network = NetworkDescription(6, (SPLIT, *arms, RECOMBINE))
    cond = extract_conditional_operator(compose(network), (0, 1), aux, det, 2)
    basis = cond.operator.basis
    cols = [basis.index_of(o) for o in ((0, 0), (0, 1), (1, 0), (1, 1))]
    target = np.zeros((basis.dimension, len(cols)), dtype=complex)
    target[cols, range(len(cols))] = [1.0, 1.0, 1.0, cmath.exp(1j * phi)]
    report = _make_report(cond.operator.matrix[:, cols], target, success, **extras, basis=basis)
    return GateRecipe(network, (0, 1), aux, det, text), report, cond.operator


def cphase_gate(phi: float = math.pi, variant: str = FOUR_PHOTON, seed: int = 11, restarts: int = 24):
    """Controlled-phase 1 - (1 - e^{i phi}) n1 n2 on the two-qubit subspace.

    Both variants are Mach-Zehnder sandwiches: a balanced splitter, one
    conditional layer-phase element per arm, and the inverse splitter.
    "four-photon" realizes the arm operator diag(1, 1, e^{i phi}) through
    the searched SU(3) element with two single-photon ancillas per arm
    (any phi).  "vacuum-detector" replaces it with two fixed beam
    splitters per arm - a single-photon catalysis stage and a
    vacuum-heralded stage - plus a pi phase plate; real transmissions
    make only phi = 0 and phi = pi reachable, which is the point of that
    construction (it is a controlled sign flip, not a general phase).

    The report's achieved matrix is the 6 x 4 slab of the extracted
    two-mode operator over the qubit columns; rows outside the qubit
    subspace are leakage and belong to the residual.
    """
    phi = float(phi)
    if variant == FOUR_PHOTON:
        return _cphase_four_photon(phi, seed, restarts)
    if variant == VACUUM_DETECTOR:
        return _cphase_vacuum_detector(phi)
    raise ValueError(f"unknown variant {variant!r}; use {FOUR_PHOTON!r} or {VACUUM_DETECTOR!r}")


def _cphase_four_photon(phi: float, seed: int, restarts: int):
    arm_objective = su3_objective(0.0, phi)
    result, lam3 = _solve(arm_objective, seed, restarts)
    arm_net = result.network(3)
    recipe, report, operator = _sandwich(
        _embed_network(arm_net, {0: 0, 1: 2, 2: 3}) + _embed_network(arm_net, {0: 1, 1: 4, 2: 5}),
        # each arm's auxiliary modes carry its objective's ancilla and detection
        AncillaSpec(arm_objective.ancilla.counts * 2),
        DetectionSpec(arm_objective.detection.counts * 2),
        phi,
        f"two-qubit phase exp(i*{phi:g}) on the |1,1> component",
        result.probability**2,
        arm_probability=result.probability,
        optimizer_residual=result.residual,
    )

    # second route: lift the splitter pair exactly and tensor the two
    # independently extracted arm operators between them
    arm = arm_objective.extractor().extract_matrix(lam3)
    n1, n2 = operator.basis.occupations.T
    mid = _cmul(arm[np.ix_(n1, n1)], arm[np.ix_(n2, n2)])
    split, recomb = (lift_unitary(bs_matrix(p, 2), operator.basis).matrix for p in (SPLIT, RECOMBINE))
    report.extras["route_deviation"] = float(np.max(np.abs(operator.matrix - recomb @ mid @ split)))
    return recipe, report


def vacuum_detector_transmissions() -> tuple:
    """(|T| of the catalysis stage, |T| of the vacuum stage) for the
    sign-flip arm: the physical root of 7 t^4 - 6 t^2 + 1 = 0 and the
    matching vacuum transmission t0 = t1/(1 - 2 t1^2)."""
    t1_sq = (3.0 - math.sqrt(2.0)) / 7.0
    t1 = math.sqrt(t1_sq)
    t0 = t1 / (1.0 - 2.0 * t1_sq)
    return t1, t0


def _cphase_vacuum_detector(phi: float):
    reduced = math.remainder(phi, 2.0 * math.pi) if math.isfinite(phi) else math.nan
    if abs(reduced) < 1e-12:
        t1, t0 = 1.0, 1.0
        plates = False
    elif abs(abs(reduced) - math.pi) < 1e-12:
        t1, t0 = vacuum_detector_transmissions()
        plates = True
    else:
        raise ValueError(
            "the vacuum-detector variant reaches only phi = 0 and phi = pi: "
            "its arm amplitudes t1^{n-1}(t1^2 - n r1^2) t0^n are real, so "
            f"layer phases other than a sign are unreachable (got phi = {phi:g}); "
            "use the four-photon variant for general phases"
        )
    th1 = math.acos(min(1.0, t1))
    th0 = math.acos(min(1.0, t0))
    arms = [
        BeamSplitterParams(0, 2, th1, 0.0, 0.0),
        BeamSplitterParams(0, 3, th0, 0.0, 0.0),
        BeamSplitterParams(1, 4, th1, 0.0, 0.0),
        BeamSplitterParams(1, 5, th0, 0.0, 0.0),
    ]
    if plates:
        arms += [PhaseShifterParams(0, math.pi), PhaseShifterParams(1, math.pi)]
    per_arm = t1 * t1
    recipe, report, _ = _sandwich(
        arms,
        AncillaSpec((1, 0, 1, 0)),
        DetectionSpec((1, 0, 1, 0)),
        math.pi if plates else 0.0,
        "two-qubit sign flip with one photon and one vacuum detector per arm",
        per_arm**2,
        t1=t1,
        t0=t0,
        per_arm_success=per_arm,
        quartic_residual=abs(7.0 * t1**4 - 6.0 * t1**2 + 1.0) if plates else 0.0,
    )
    return recipe, report


# ---------------------------------------------------------------------------
# deterministic elements


def swap_gate():
    """Mode swap from two balanced beam splitters around a pi plate.

    The composed mode matrix is the exact permutation [[0,1],[1,0]], so
    the lift is a permutation of occupation vectors on the whole
    two-mode space and the gate needs no ancillas: success is 1.
    """
    network = NetworkDescription(2, (SPLIT, PhaseShifterParams(1, math.pi), RECOMBINE))
    u = compose(network)
    basis = FockBasis(2, TotalPhotonCutoff(2))
    lift = lift_unitary(u, basis)
    target = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    target[_lookup(basis.occupations, basis.occupations[:, ::-1]), np.arange(basis.dimension)] = 1.0
    mode_dev = float(np.max(np.abs(u.matrix - np.array([[0.0, 1.0], [1.0, 0.0]]))))
    report = _make_report(
        lift.matrix, target, 1.0, mode_matrix_deviation=mode_dev, basis=basis
    )
    recipe = GateRecipe(network, (0, 1), None, None, "|a,b> -> |b,a|")
    return recipe, report


def kill_operator(cutoff: int) -> FockOperator:
    """Diagonal 1 - n(n-1)/2: identity on layers 0 and 1, zero on layer 2.

    Not a conditional-network output (its layer-3 weight is -2, beyond
    any contraction); it is the idealized cleanup element that discards
    the two-photon component a preceding stage parked there.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2 to show the kill at layer 2")
    basis = FockBasis(1, TotalPhotonCutoff(cutoff))
    return number_polynomial((1.0, 0.5, -0.5), 0, basis)


# ---------------------------------------------------------------------------
# state engineering by photon additions and displacements


@dataclass(frozen=True)
class EngineeringReport:
    roots: tuple
    condition_number: float
    condition_warning: bool
    single_photon_additions: int
    coherent_sources: int
    element_count: int
    working_cutoff: int
    tail_mass: float


def _addition_pipeline(alphas, work: int) -> np.ndarray:
    """Amplitudes of D(a_N) prod_j [a^dag shifted by a_j] |0> simulated on
    levels <= work.  alphas are the conjugated polynomial roots; the
    telescoped displacement after factor j is D(a_j - a_{j+1}) with
    a_{N+1} = 0, and the initial preparation is the coherent state |-a_1>.
    """
    amps = coherent_state(-alphas[0], work).amplitudes.copy()
    n = len(alphas)
    sqrt_n = np.sqrt(np.arange(1, work + 1))
    for j in range(n):
        shifted = np.zeros_like(amps)
        shifted[1:] = sqrt_n * amps[:-1]
        amps = shifted
        delta = alphas[j] - (alphas[j + 1] if j + 1 < n else 0.0)
        if abs(delta) > 1e-14:
            d = displacement_operator_for(delta, work).matrix
            amps = d[: work + 1, : work + 1] @ amps
    return amps


def engineer_state(coeffs):
    """Build sum_k d_k (a^dag)^k |0> by single-photon additions and
    coherent displacements.

    The polynomial is factored over its roots (companion-matrix
    eigenvalues), each linear factor a^dag - r becomes a displaced
    photon addition, and the interleaved displacements telescope so the
    element count stays linear in the degree.  The simulation runs at a
    guarded cutoff and is accepted only when a re-run 8 levels higher
    reproduces the kept block to 1e-10; the returned state is cropped to
    the exact degree-n support and normalized (global phase fixed by
    making the top-level amplitude real positive).
    """
    d = np.asarray(coeffs, dtype=complex).ravel()
    if d.size < 1:
        raise ValueError("need at least one coefficient")
    if d.size > 7:
        raise ValueError("degree above 6 is out of scope")
    if abs(d[-1]) <= 1e-12:
        raise ValueError("leading coefficient is (numerically) zero")
    degree = d.size - 1

    if degree == 0:
        basis = FockBasis(1, PerModeCutoff(0))
        state = PureState(basis, np.array([1.0 + 0j]))
        report = EngineeringReport((), 1.0, False, 0, 0, 0, 0, 0.0)
        return state, report

    monic = d / d[-1]
    comp = np.polynomial.polynomial.polycompanion(monic)
    evals, evecs = np.linalg.eig(comp)
    cond = float(np.linalg.cond(evecs))
    warn = cond > 1e8
    if warn:
        warnings.warn(
            f"root finding is ill-conditioned (condition number {cond:.3e}); "
            "the engineered state may be inaccurate",
            stacklevel=2,
        )
    order = np.lexsort((evals.imag, evals.real))
    roots = evals[order]
    alphas = [complex(r).conjugate() for r in roots]

    # intermediate displaced states hold coherent cores around |alpha|^2,
    # so the working band must scale with the largest root, not the degree
    m = max(abs(a) for a in alphas)
    work = degree + 16 + int(math.ceil(m * (m + 6.0)))
    prev = None
    final = None
    for _ in range(5):
        try:
            amps = _addition_pipeline(alphas, work)
        except CutoffTooSmallError:
            work += 8
            continue
        low = amps[: degree + 1]
        nrm = float(np.linalg.norm(low))
        if nrm < 1e-280:
            raise ArithmeticError("engineered state collapsed to numerical zero")
        low = low / nrm
        if prev is not None:
            ip = complex(np.vdot(prev, low))
            ph = ip / abs(ip) if abs(ip) > 0 else 1.0
            if float(np.max(np.abs(low - ph * prev))) < 1e-10:
                final = (amps, low, work)
                break
        prev = low
        work += 8
    if final is None:
        raise CutoffTooSmallError(
            f"addition pipeline did not converge by working cutoff {work}"
        )
    amps, low, used = final
    tail = float(np.linalg.norm(amps[degree + 1 :]) / np.linalg.norm(amps))
    # genuine support above the degree (wrong roots) shows up at O(1);
    # truncation noise from the displacement products sits below 1e-7
    if tail > 1e-6:
        raise CutoffTooSmallError(
            f"unexpected support above the polynomial degree (tail {tail:.3e})"
        )
    top_phase = low[degree] / abs(low[degree]) if abs(low[degree]) > 0 else 1.0
    low = low / top_phase
    basis = FockBasis(1, PerModeCutoff(degree))
    state = PureState(basis, low)

    deltas = [alphas[j] - (alphas[j + 1] if j + 1 < degree else 0.0) for j in range(degree)]
    shifts = sum(1 for x in deltas if abs(x) > 1e-14)
    prep = 1 if abs(alphas[0]) > 1e-14 else 0
    report = EngineeringReport(
        roots=tuple(complex(r) for r in roots),
        condition_number=cond,
        condition_warning=warn,
        single_photon_additions=degree,
        coherent_sources=shifts + prep,
        element_count=degree + shifts,
        working_cutoff=used,
        tail_mass=tail,
    )
    return state, report


def creation_polynomial_operator(coeffs, signal_cutoff: int):
    """Conditional operator sum_k (d_k/N) R^k (a^dag)^k T^{n}, N^2 = sum |d_k|^2 k!.

    The engineered state for the coefficients enters one port of the
    balanced splitter SPLIT, with transmission T = reflection R =
    1/sqrt(2); heralding vacuum on that port leaves the polynomial acting
    on the signal, rescaled order by order.  Returns (ConditionalOperator,
    rescale dict); the caller divides d_k by R^k and pre-compensates T^{n}
    to hit a bare target polynomial.
    """
    d = np.asarray(coeffs, dtype=complex).ravel()
    state, eng = engineer_state(d)
    # the pipeline fixes the global phase by its own convention; restore
    # the phase the coefficient list implies for the leading term
    lead = d[-1] / abs(d[-1])
    anc = PureState(state.basis, state.amplitudes * lead)
    cond = extract_with_ancilla_state(bs_matrix(SPLIT, 2), (0,), anc, DetectionSpec((0,)), signal_cutoff)
    norm = math.sqrt(
        sum(abs(d[k]) ** 2 * math.factorial(k) for k in range(d.size))
    )
    rescale = {
        "transmission": SPLIT.transmission,
        "reflection": SPLIT.reflection,
        "normalization": norm,
        "engineering": eng,
    }
    return cond, rescale


# ---------------------------------------------------------------------------
# two-mode squeezing, filtering, and the Pauli pipeline


@dataclass(frozen=True)
class BellLadderState:
    """(|0,0> + lam|1,1>)/sqrt(1+|lam|^2) with the state vector attached."""

    lam: complex
    state: PureState

    def __post_init__(self):
        if abs(self.state.norm() - 1.0) > 1e-10:
            raise ValueError("ladder state must be normalized")

    @staticmethod
    def ideal(lam: complex, cutoff: int = 1) -> "BellLadderState":
        basis = FockBasis(2, PerModeCutoff(cutoff))
        amps = np.zeros(basis.dimension, dtype=complex)
        amps[basis.index_of((0, 0))] = 1.0
        amps[basis.index_of((1, 1))] = lam
        amps = amps / np.linalg.norm(amps)
        return BellLadderState(complex(lam), PureState(basis, amps))


def tmsv_state(q: float, cutoff: int) -> PureState:
    """Two-mode squeezed vacuum sqrt(1-q^2) sum q^n |n,n>, truncated."""
    q = float(q)
    if not 0.0 <= q < 1.0:
        raise ValueError("q must lie in [0, 1)")
    if q > 0 and q ** (cutoff + 1) >= 1e-12:
        raise ValueError(
            f"q^(cutoff+1) = {q ** (cutoff + 1):.3e} violates the 1e-12 tail bound; "
            "raise the cutoff"
        )
    basis = FockBasis(2, PerModeCutoff(cutoff))
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[[basis.index_of((n, n)) for n in range(cutoff + 1)]] = tmsv_ladder(q, cutoff)
    return PureState(basis, amps)


@dataclass(frozen=True)
class ProcrusteanReport:
    ladder: BellLadderState
    filtered: PureState
    achieved_lambda: complex
    theta: float
    phase_t: float
    success_probability: float
    trace_norm_distance: float


def procrustean_filter(tmsv: PureState, lambda_target: complex, q: float) -> ProcrusteanReport:
    """Distill the two-layer ladder from squeezed vacuum by catalysis.

    One arm of the pair meets a single ancilla photon at a beam splitter
    and the same detector pattern is heralded back; the diagonal layer
    amplitudes Y(n) = L11^{n-1}(L11 L22 + n L12 L21) then reweight the
    q^n ladder.  The splitter angle is solved so the 0- and 1-layer
    ratio equals lambda exactly: with c = cos(theta),
    lambda = q (2c^2 - 1) e^{i phase_t} / c, which always has a root -
    above 1/sqrt(2) when |lambda| <= q, below otherwise with the
    transmission phase advanced by pi.  Layers n >= 2 survive at O(q^2)
    relative weight, which is the reported trace-norm distance.
    """
    lam_t = complex(lambda_target)
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    mag = abs(lam_t)
    root = math.sqrt(mag * mag + 8.0 * q * q)
    c_pos = (mag + root) / (4.0 * q)
    if c_pos <= 1.0 + 1e-12:
        c = min(c_pos, 1.0)
        phase_t = cmath.phase(lam_t) if mag > 0 else 0.0
    else:
        c = (-mag + root) / (4.0 * q)
        phase_t = cmath.phase(lam_t) + math.pi
    theta = math.acos(c)
    params = BeamSplitterParams(0, 1, theta, phase_t, 0.0)

    cutoff = tmsv.basis.policy.max_per_mode
    cond = extract_conditional_operator(
        bs_matrix(params, 2), (0,), AncillaSpec((1,)), DetectionSpec((1,)), cutoff
    )
    y = np.diag(cond.operator.matrix)
    amps = _cmul(tmsv.amplitudes, y[tmsv.basis.occupations[:, 0]])
    success = float(np.vdot(amps, amps).real)
    filtered = PureState(tmsv.basis, amps / math.sqrt(success))

    a0 = filtered.amplitudes[tmsv.basis.index_of((0, 0))]
    a1 = filtered.amplitudes[tmsv.basis.index_of((1, 1))]
    achieved = a1 / a0 if abs(a0) > 0 else complex("nan")
    ladder = BellLadderState.ideal(lam_t, cutoff)
    overlap = abs(complex(np.vdot(ladder.state.amplitudes, filtered.amplitudes)))
    distance = 2.0 * math.sqrt(max(0.0, 1.0 - overlap * overlap))
    return ProcrusteanReport(
        ladder=ladder,
        filtered=filtered,
        achieved_lambda=complex(achieved),
        theta=theta,
        phase_t=phase_t,
        success_probability=success,
        trace_norm_distance=distance,
    )


def _crop_pair_state(state: PureState, top: int) -> PureState:
    basis = FockBasis(2, PerModeCutoff(top))
    amps = np.zeros(basis.dimension, dtype=complex)
    kept = (state.basis.occupations <= top).all(axis=1)
    amps[_lookup(basis.occupations, state.basis.occupations[kept])] = state.amplitudes[kept]
    return PureState(basis, amps / np.linalg.norm(amps))


def _pauli_objective(which: str, ladder: tuple) -> Objective:
    """Sigma-x or sigma-y on the 0/1 qubit behind the two-mode ancilla
    with amplitudes ladder on the per-mode-cutoff-2 basis, detecting
    |1,0>.  The second tuple ignores the two-photon row, which the kill
    element erases downstream."""
    e = np.eye(5)
    mask = np.array([1.0, 1.0, 0.0, 1.0, 1.0])
    if which == "x":
        cons = ((e[0], e[1]), (e[1], e[0], mask))
    else:
        cons = ((e[0], 1j * e[1]), (e[1], -1j * e[0], mask))
    return Objective(
        mode_count=3,
        signal_modes=(0,),
        ancilla=PureState(FockBasis(2, PerModeCutoff(2)), np.array(ladder)),
        detection=DetectionSpec((1, 0)),
        signal_cutoff=4,
        constraints=cons,
    )


def pauli_xy_gate(which: str, q: float = 0.01, seed: int = 3, restarts: int = 6):
    """Pauli X or Y on the 0/1 photon-number qubit of a single mode.

    The ancilla is the filtered lambda = 1 ladder held in two auxiliary
    modes; detecting |1,0> behind a searched 3-mode network routes the
    qubit through the off-diagonal amplitudes L21 and lam per L(3|1),
    whose magnitudes the search equalizes with the sigma-x or sigma-y
    phase relation.  The kill element then erases the two-photon layer
    the ladder's top rung parks on the signal.  Residuals are limited by
    the q-dependent filter quality, not the search.
    """
    if which not in ("x", "y"):
        raise ValueError("which must be 'x' or 'y'")
    q = float(q)
    if not 0.0 < q <= 0.1:
        raise ValueError("q must lie in (0, 0.1]")
    cutoff = 3
    while q ** (cutoff + 1) >= 1e-12:
        cutoff += 1
    filt = procrustean_filter(tmsv_state(q, cutoff), 1.0, q)

    ladder = tuple(_crop_pair_state(filt.filtered, 2).amplitudes)
    objective = _pauli_objective(which, ladder)
    result, lam = _solve(objective, seed, restarts)
    if which == "x":
        target = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    else:
        target = np.array([[0.0, -1.0j], [1.0j, 0.0]])

    anc_full = _crop_pair_state(filt.filtered, min(3, cutoff))
    cond = extract_with_ancilla_state(lam, objective.signal_modes, anc_full, objective.detection, 6)
    kill = kill_operator(6)
    ky = kill.matrix @ cond.operator.matrix
    slab = ky[:, :2]
    full_target = np.zeros((slab.shape[0], 2), dtype=complex)
    full_target[:2, :] = target
    success = float(np.linalg.norm(slab) ** 2 / np.linalg.norm(full_target) ** 2)

    m = lam.matrix
    per31 = m[0, 1] * m[1, 2] + m[0, 2] * m[1, 1]
    return _searched_recipe(
        objective,
        result,
        anc_full,
        f"sigma_{which} on the 0/1 photon-number qubit",
        slab,
        full_target,
        success,
        lambda21=complex(m[1, 0]),
        ladder_weighted_per31=complex(per31),
        magnitude_relation_residual=abs(abs(m[1, 0]) - abs(per31)),
        filter_distance=filt.trace_norm_distance,
    )


# ---------------------------------------------------------------------------
# Hadamard from controlled-z plus one creation polynomial


def hadamard_gate():
    """Hadamard on a photon-number qubit, output on the former ancilla.

    Stages: engineer (|0> + |1>)/sqrt(2); ideal controlled-z between
    signal and ancilla; the heralded operator 1 + T a^dag (a first-order
    creation polynomial) on the signal; projection of the signal onto
    |1>.  Since <1|(1 + T a^dag) T^{n}|0> = <1|(1 + T a^dag) T^{n}|1> = T,
    the projection transfers the Hadamard image onto the ancilla with
    amplitude T/N for every input, so the comparison against H is exact
    up to the engineering tolerance.  The controlled-z here is the bare
    diagonal 1 - 2 n1 n2, valid on the reachable at-most-one-photon-per-
    mode inputs; realizing it conditionally is the cphase recipes' job.
    """
    stage = "ancilla engineering"
    try:
        inv = 1.0 / math.sqrt(2.0)
        anc, eng = engineer_state((inv, inv))

        stage = "creation polynomial"
        cond, rescale = creation_polynomial_operator((1.0, 1.0), 2)
        e_mat = cond.operator.matrix

        stage = "controlled-z sandwich"
        # qubit input |c> and ancilla |n> pick up the sign 1 - 2 c n; the
        # signal's projection onto |1> leaves E[1, c] (1 - 2 c n) anc[n]
        # on the ancilla, entry (n, c) of the achieved block
        signs = np.array([[1.0, 1.0], [1.0, -1.0]])
        achieved = _cmul(e_mat[1, :2], signs * anc.amplitudes[:, None])
        stage_norms = {
            f"projection_probability_col{c}": float(np.vdot(col, col).real) for c, col in enumerate(achieved.T)
        }
    except Exception as exc:
        raise RuntimeError(f"hadamard {stage} stage failed: {exc}") from exc

    target = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    success = float(np.linalg.norm(achieved) ** 2 / np.linalg.norm(target) ** 2)
    report = _make_report(
        achieved,
        target,
        success,
        cz_success=1.0,
        rescale=rescale,
        engineering=eng,
        **stage_norms,
    )
    recipe = GateRecipe(
        NetworkDescription(2, (SPLIT,)),
        (0,),
        anc,
        DetectionSpec((0,)),
        "Hadamard on the 0/1 photon-number qubit, output on the ancilla mode",
    )
    return recipe, report


# ---------------------------------------------------------------------------
# the CNOT obstruction


_CNOT_BASIS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2))


def cnot_basis_matrix(transmission: complex, reflection: complex) -> np.ndarray:
    """Beam splitter on the six-dimensional two-qubit-plus-leakage basis
    ((0,0),(1,0),(0,1),(1,1),(2,0),(0,2)), written out explicitly."""
    t, r = complex(transmission), complex(reflection)
    tc, rc = t.conjugate(), r.conjugate()
    s2 = math.sqrt(2.0)
    out = np.zeros((6, 6), dtype=complex)
    out[0, 0] = 1.0
    out[1, 1], out[1, 2] = t, r
    out[2, 1], out[2, 2] = -rc, tc
    out[3, 3] = abs(t) ** 2 - abs(r) ** 2
    out[3, 4], out[3, 5] = -s2 * rc * t, s2 * r * tc
    out[4, 3], out[4, 4], out[4, 5] = s2 * r * t, t * t, r * r
    out[5, 3], out[5, 4], out[5, 5] = -s2 * rc * tc, rc * rc, tc * tc
    return out


def cnot_basis_lift(transmission: complex, reflection: complex) -> np.ndarray:
    """Same matrix through the Fock lift, as a cross-check."""
    u = np.array(
        [
            [transmission, reflection],
            [-np.conj(reflection), np.conj(transmission)],
        ],
        dtype=complex,
    )
    basis = FockBasis(2, TotalPhotonCutoff(2))
    idx = [basis.index_of(occ) for occ in _CNOT_BASIS]
    return lift_unitary(u, basis).matrix[np.ix_(idx, idx)]


@dataclass(frozen=True)
class CnotSearchReport:
    min_residual: float
    best_angles: tuple
    control_residual: float
    lift_deviation: float
    contradiction_found: bool
    evaluations: int


def _slab_residuals(target, angles, starts):
    """Best scale-invariant residual of U(phi') (N1 x N2) U(phi) on the
    qubit columns against the target slab, per angle pair (phi, phi') of
    `angles` (P, 2), N1 and N2 free diagonal single-mode operators,
    optimized by alternating least squares from each N2 start of
    `starts` (P, S, 3), all at once."""
    left = np.array([cnot_basis_matrix(math.cos(pp), math.sin(pp)) for _, pp in angles])
    right = np.array([cnot_basis_matrix(math.cos(p), math.sin(p)) for p, _ in angles])[:, :, :4]
    # the middle operator weights basis element k by z_k = n1[a_k] n2[b_k],
    # so the slab is sum_k z_k outer(L[:,k], R[k,:4]); L is unitary, so the
    # six slabs are orthogonal: <T, A> = c.z and |A|^2 = sum_k g_k |z_k|^2
    c = np.einsum("ij,pik,pkj->pk", target.conj(), left, right)[:, None, :]
    g = np.einsum("pkj,pkj->pk", right, right.conj()).real[:, None, :]
    a, b = np.array(_CNOT_BASIS).T

    def solve_factor(fixed_other, fixed_levels, levels):
        # the Gram matrix of the free factor is diagonal: x_l = conj(u_l) / h_l,
        # with levels of negligible weight left at zero as a pseudo-inverse would
        w = fixed_other[..., fixed_levels]
        u = np.einsum("psk,kl->psl", c * w, np.eye(3)[levels])
        h = np.einsum("psk,kl->psl", g * np.abs(w) ** 2, np.eye(3)[levels])
        x = np.zeros_like(u)
        np.divide(u.conj(), h, out=x, where=h > 1e-12 * h.max(axis=2, keepdims=True))
        nx = np.linalg.norm(x, axis=2, keepdims=True)
        return np.divide(x, nx, out=np.ones_like(x), where=nx > 0)

    n2 = starts
    for _ in range(40):
        n1 = solve_factor(n2, b, a)
        n2 = solve_factor(n1, a, b)
    z = n1[..., a] * n2[..., b]
    overlap = np.abs(np.sum(c * z, axis=2)) ** 2
    na2 = np.sum(g * np.abs(z) ** 2, axis=2)
    cosine = np.divide(overlap, na2, out=np.zeros_like(na2), where=na2 >= 1e-24)
    tnorm2 = float(np.linalg.norm(target) ** 2)
    return np.sqrt(np.maximum(0.0, 1.0 - cosine.max(axis=1) / tnorm2))


def _slab_search(target, grid_size, restarts, seed):
    """Lowest residual over the angle grid, then over seeded random angle
    pairs, three random starts each: ((residual, (phi, phi')), evaluations)."""
    rng = np.random.default_rng(seed)
    axis = np.linspace(0.0, math.pi, grid_size)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    angles = np.concatenate([grid, rng.uniform(0.0, math.pi, (restarts, 2))])
    starts = rng.normal(size=(len(angles), 3, 3)) + 1j * rng.normal(size=(len(angles), 3, 3))
    res = _slab_residuals(target, angles, starts)
    best = int(np.argmin(res))
    return (res[best], tuple(angles[best])), len(angles)


def cnot_obstruction_search(grid_size: int = 13, restarts: int = 200, seed: int = 0) -> CnotSearchReport:
    """Numerical evidence that no beam-splitter sandwich of product
    diagonal operators is a CNOT.

    The search space is the sandwich U(phi') (N1 x N2) U(phi) on the
    six-dimensional basis ((0,0),(1,0),(0,1),(1,1),(2,0),(0,2)) with
    real splitter angles on [0, pi] and free complex diagonal N's (the
    splitters' internal phases decompose into product-diagonal factors
    the N's absorb).  The middle operator weights basis element k by
    z_k = N1[a_k] N2[b_k], and since U(phi') is unitary the six rank-one
    slabs it weights are mutually orthogonal: the sandwich's overlap
    with the target is c.z and its squared norm sum_k g_k |z_k|^2, two
    6-vectors per angle pair.  So the N's are solved by alternating least
    squares with diagonal Gram matrices, each factor update in closed
    form, for every angle pair and random start at once; the angle grid
    plus seeded random angle pairs then bound the landscape.
    The residual is scale-invariant, so the controlled-z target - which
    the same sandwich family does reach - must come out at machine zero,
    and it does, while the CNOT floor stays above 1e-2.  A CNOT residual
    below 1e-6 would contradict the obstruction and is flagged.
    """
    dev = 0.0
    rng = np.random.default_rng([seed, 991])
    for _ in range(10):
        th = rng.uniform(0.0, math.pi / 2.0)
        pt, pr = rng.uniform(0.0, 2.0 * math.pi, 2)
        t = math.cos(th) * cmath.exp(1j * pt)
        r = math.sin(th) * cmath.exp(1j * pr)
        dev = max(
            dev,
            float(np.max(np.abs(cnot_basis_matrix(t, r) - cnot_basis_lift(t, r)))),
        )

    cnot = np.zeros((6, 4), dtype=complex)
    for j, i in enumerate((0, 1, 3, 2)):
        cnot[i, j] = 1.0
    (res, angles), evals = _slab_search(cnot, grid_size, restarts, seed)

    cz = np.zeros((6, 4), dtype=complex)
    for j, s in enumerate((1.0, 1.0, 1.0, -1.0)):
        cz[j, j] = s
    (res_cz, _), evals_cz = _slab_search(cz, grid_size, 20, seed + 1)

    return CnotSearchReport(
        min_residual=float(res),
        best_angles=tuple(float(a) for a in angles),
        control_residual=float(res_cz),
        lift_deviation=float(dev),
        contradiction_found=bool(res < 1e-6),
        evaluations=evals + evals_cz,
    )
