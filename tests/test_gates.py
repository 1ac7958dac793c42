import cmath
import math

import numpy as np
import pytest

from fockforge import gates
from fockforge.conditioning import lift_unitary
from fockforge.fock import FockBasis, TotalPhotonCutoff
from fockforge.gates import (
    FOUR_PHOTON,
    VACUUM_DETECTOR,
    BellLadderState,
    cnot_basis_lift,
    cnot_basis_matrix,
    cnot_obstruction_search,
    cphase_gate,
    creation_polynomial_operator,
    engineer_state,
    hadamard_gate,
    kill_operator,
    nss_gate_klm,
    pauli_xy_gate,
    phase_aligned_residual,
    phase_condition_residual,
    procrustean_filter,
    ralph_cz_check,
    su3_phase_gate,
    swap_gate,
    tmsv_state,
    vacuum_detector_transmissions,
)
from fockforge.interferometer import BeamSplitterParams, PhaseShifterParams, compose
from fockforge.optimizer import optimize_gate
from oracles import _product_slab_residual, hadamard_cz_projection, ladder_matrix

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# deterministic pieces


def test_swap_gate_is_exact():
    recipe, report = swap_gate()
    assert report.residual < 1e-12
    assert report.success_probability == 1.0
    n_bs = sum(1 for e in recipe.network.elements if isinstance(e, BeamSplitterParams))
    assert n_bs == 2
    assert len(recipe.network.elements) == 3


def test_swap_gate_swaps_occupations():
    recipe, _ = swap_gate()
    u = compose(recipe.network)
    basis = FockBasis(2, TotalPhotonCutoff(3))
    lift = lift_unitary(u, basis).matrix
    rng = np.random.default_rng(12)
    amps = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    amps /= np.linalg.norm(amps)
    out = lift @ amps
    swapped = np.zeros_like(amps)
    for i, (n1, n2) in enumerate(basis.occupations.tolist()):
        swapped[basis.index_of((n2, n1))] = amps[i]
    dev, _ = phase_aligned_residual(
        out.reshape(-1, 1), swapped.reshape(-1, 1)
    )
    assert dev < 1e-12


def test_kill_operator_diagonal():
    op = kill_operator(4)
    diag = np.diag(op.matrix).real
    assert np.max(np.abs(diag - np.array([1.0, 1.0, 0.0, -2.0, -5.0]))) < 1e-12
    with pytest.raises(ValueError):
        kill_operator(1)


def test_phase_aligned_residual_ignores_global_phase():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rotated = np.exp(0.77j) * m
    dev, phase = phase_aligned_residual(rotated, m)
    assert dev < 1e-12
    assert abs(phase - np.exp(0.77j)) < 1e-12


# ---------------------------------------------------------------------------
# state engineering and the creation polynomial


def test_engineer_state_matches_polynomial_amplitudes():
    coeffs = np.array([1.0, -0.4 + 0.3j, 0.8, 0.25j])
    state, report = engineer_state(coeffs)
    expect = np.array(
        [coeffs[k] * math.sqrt(math.factorial(k)) for k in range(4)], dtype=complex
    )
    expect /= np.linalg.norm(expect)
    # canonical phase: top amplitude real positive
    expect *= np.conj(expect[-1]) / abs(expect[-1])
    assert state.amplitudes.size == 4
    assert np.max(np.abs(state.amplitudes - expect)) < 1e-10
    assert report.single_photon_additions == 3
    assert report.coherent_sources <= 4
    assert len(report.roots) == 3


def test_engineer_state_degree_cap():
    with pytest.raises(ValueError):
        engineer_state(np.ones(8))


def test_creation_polynomial_operator_matches_ladder_oracle():
    coeffs = np.array([0.7, -0.2 + 0.1j, 0.5])
    cutoff = 6
    cond, rescale = creation_polynomial_operator(coeffs, cutoff)
    t = rescale["transmission"]
    r = rescale["reflection"]
    n_norm = rescale["normalization"]
    basis = cond.operator.basis
    ad = ladder_matrix(basis, 0, "create").matrix
    n_diag = np.diag([t ** sum(occ) for occ in basis.occupations.tolist()])
    expect = np.zeros_like(cond.operator.matrix)
    power = np.eye(basis.dimension, dtype=complex)
    for k, d in enumerate(coeffs):
        if k:
            power = ad @ power
        expect += (d / n_norm) * (r ** k) * power
    expect = expect @ n_diag
    faithful = cond.faithful_input_levels
    got = cond.operator.matrix[:, : faithful + 1]
    assert np.max(np.abs(got - expect[:, : faithful + 1])) < 1e-9


# ---------------------------------------------------------------------------
# squeezing and filtering


def test_tmsv_state_shape():
    state = tmsv_state(0.05, 9)
    basis = state.basis
    a11 = state.amplitudes[basis.index_of((1, 1))]
    a00 = state.amplitudes[basis.index_of((0, 0))]
    assert abs(a11 / a00 - 0.05) < 1e-12
    assert abs(state.norm() - 1.0) < 1e-10
    off = state.amplitudes[basis.index_of((1, 0))]
    assert off == 0


def test_tmsv_tail_bound_enforced():
    with pytest.raises(ValueError):
        tmsv_state(0.05, 3)


def test_bell_ladder_ideal():
    ladder = BellLadderState.ideal(0.5)
    amps = ladder.state.amplitudes
    basis = ladder.state.basis
    ratio = amps[basis.index_of((1, 1))] / amps[basis.index_of((0, 0))]
    assert abs(ratio - 0.5) < 1e-12


def test_procrustean_filter_hits_target_lambda():
    q = 0.05
    rep = procrustean_filter(tmsv_state(q, 9), 1.0, q)
    assert abs(rep.achieved_lambda - 1.0) < 1e-10
    assert rep.trace_norm_distance < 1e-2
    assert 0.0 < rep.success_probability <= 1.0


def test_procrustean_filter_distance_scales_with_q():
    d_large = procrustean_filter(tmsv_state(0.05, 9), 1.0, 0.05).trace_norm_distance
    d_small = procrustean_filter(tmsv_state(0.005, 5), 1.0, 0.005).trace_norm_distance
    assert d_small < d_large / 50.0


def test_procrustean_filter_negative_branch():
    q = 0.05
    lam = -0.3 + 0.1j
    rep = procrustean_filter(tmsv_state(q, 9), lam, q)
    assert abs(rep.achieved_lambda - lam) < 1e-10


# ---------------------------------------------------------------------------
# vacuum-detector controlled phase (cheap, closed form)


def test_vacuum_detector_transmissions_solve_the_quartic():
    t1, t0 = vacuum_detector_transmissions()
    assert abs(7.0 * t1**4 - 6.0 * t1**2 + 1.0) < 1e-12
    assert abs(t0 - t1 / (1.0 - 2.0 * t1**2)) < 1e-12
    assert abs(t1 - 0.476) < 1e-3
    assert abs(t0 - 0.87) < 1e-2


def test_cphase_vacuum_detector_pi():
    recipe, report = cphase_gate(math.pi, variant=VACUUM_DETECTOR)
    assert report.residual < 1e-12
    assert abs(report.extras["per_arm_success"] - 0.2265409) < 1e-6
    assert abs(report.success_probability - 0.0513208) < 1e-6


def test_cphase_vacuum_detector_zero_is_identity():
    _, report = cphase_gate(0.0, variant=VACUUM_DETECTOR)
    assert report.residual < 1e-12
    assert abs(report.success_probability - 1.0) < 1e-12


def test_cphase_vacuum_detector_rejects_general_phase():
    with pytest.raises(ValueError):
        cphase_gate(1.0, variant=VACUUM_DETECTOR)


# ---------------------------------------------------------------------------
# searched gates (each recipe call runs its own search)


def test_recipes_of_one_constraint_family_reach_one_network(monkeypatch):
    # nothing is shared between recipes: each runs its own search, and one
    # seed and restart count give both recipes of a family the same network
    found = []

    def recording(objective, seed, restarts):
        result = optimize_gate(objective, seed, restarts)
        found.append(result.params.tobytes())
        return result

    monkeypatch.setattr(gates, "optimize_gate", recording)
    recipe, _ = nss_gate_klm(7, 2)
    cz = ralph_cz_check(7, 2)
    assert len(found) == 2 and found[0] == found[1]
    assert cz.lambda11_optimized == complex(compose(recipe.network).matrix[0, 0])
    arm, _ = su3_phase_gate(0.0, math.pi, 11, 2)
    sandwich, _ = cphase_gate(math.pi, FOUR_PHOTON, 11, 2)
    assert len(found) == 4 and found[2] == found[3]
    embedded = gates._embed_network(arm.network, {0: 0, 1: 2, 2: 3})
    assert list(sandwich.network.elements[1 : 1 + len(embedded)]) == embedded
    # both controlled-phase variants sit between the one splitter pair
    vacuum, _ = cphase_gate(math.pi, VACUUM_DETECTOR)
    for recipe in (sandwich, vacuum):
        assert recipe.network.mode_count == 6
        assert recipe.network.elements[0] == gates.SPLIT
        assert recipe.network.elements[-1] == gates.RECOMBINE
    th1, th0 = (math.acos(t) for t in vacuum_detector_transmissions())
    assert vacuum.network.elements == (
        BeamSplitterParams(0, 1, math.pi / 4.0, 0.0, 0.0),
        BeamSplitterParams(0, 2, th1, 0.0, 0.0),
        BeamSplitterParams(0, 3, th0, 0.0, 0.0),
        BeamSplitterParams(1, 4, th1, 0.0, 0.0),
        BeamSplitterParams(1, 5, th0, 0.0, 0.0),
        PhaseShifterParams(0, math.pi),
        PhaseShifterParams(1, math.pi),
        BeamSplitterParams(0, 1, math.pi / 4.0, 0.0, math.pi),
    )


def test_nss_gate():
    recipe, report = nss_gate_klm()
    assert report.residual < 1e-6
    assert abs(report.success_probability - 0.25) < 1e-3
    assert abs(report.extras["lambda11"] - (1.0 - SQRT2)) < 1e-5


def test_nss_involution():
    # applying the sign flip twice restores the identity pattern
    _, report = nss_gate_klm()
    twice = report.achieved @ report.achieved
    dev, _ = phase_aligned_residual(twice, np.eye(3))
    assert dev < 1e-5


def test_ralph_cz_analysis():
    rep = ralph_cz_check()
    assert abs(rep.lambda11_analytic - (1.0 - SQRT2)) < 1e-9
    roots = sorted(r.real for r in rep.quadratic_roots)
    assert abs(roots[0] - (1.0 - SQRT2)) < 1e-9
    assert abs(roots[1] - (1.0 + SQRT2)) < 1e-9
    assert abs(rep.lambda11_optimized - (1.0 - SQRT2)) < 1e-6
    assert abs(rep.max_success - 0.25) < 1e-3
    assert max(rep.constraint_residuals) < 1e-9


def test_su3_phase_gate_on_shared_solve():
    recipe, report = su3_phase_gate(0.0, math.pi, seed=11, restarts=24)
    assert report.residual < 1e-6
    assert report.extras["phase_condition_residual"] < 1e-6
    assert report.success_probability > 0.235


def test_phase_condition_discriminates():
    # the solved network satisfies the permanent identity at its own
    # phases and visibly fails it elsewhere
    recipe, report = su3_phase_gate(0.0, math.pi, seed=11, restarts=24)
    lam = compose(recipe.network)
    assert phase_condition_residual(lam, 0.0, math.pi) < 1e-6
    rng = np.random.default_rng(8)
    for phi in rng.uniform(-3.0, 3.0, 20):
        if abs(phi - math.pi) < 0.2 or abs(phi + math.pi) < 0.2:
            continue
        assert phase_condition_residual(lam, 0.0, float(phi)) > 1e-3


def test_cphase_four_photon_pi():
    recipe, report = cphase_gate(math.pi, variant=FOUR_PHOTON)
    assert report.residual < 1e-6
    assert report.extras["route_deviation"] < 1e-10
    assert report.extras["arm_probability"] >= 0.235
    assert abs(report.success_probability - report.extras["arm_probability"] ** 2) < 1e-12


def test_cphase_four_photon_target_column():
    _, report = cphase_gate(math.pi, variant=FOUR_PHOTON)
    basis = report.extras["basis"]
    # qubit columns are ordered (0,0),(0,1),(1,0),(1,1); only the last
    # acquires the phase, and every target column is a single entry
    target = report.target
    row_11 = basis.index_of((1, 1))
    assert abs(target[row_11, 3] - cmath.exp(1j * math.pi)) < 1e-12
    assert np.max(np.abs(np.abs(target).sum(axis=0) - 1.0)) < 1e-12


def test_pauli_x_gate():
    recipe, report = pauli_xy_gate("x")
    assert report.residual < 1e-4
    assert abs(report.success_probability - 0.25) < 1e-3
    dev, _ = phase_aligned_residual(
        report.achieved[:2, :], np.array([[0, 1], [1, 0]], dtype=complex)
    )
    assert dev < 1e-3
    assert report.extras["filter_distance"] < 1e-3
    assert report.extras["magnitude_relation_residual"] < 1e-4


def test_pauli_y_gate():
    recipe, report = pauli_xy_gate("y")
    assert report.residual < 1e-4
    dev, _ = phase_aligned_residual(
        report.achieved[:2, :], np.array([[0, -1j], [1j, 0]], dtype=complex)
    )
    assert dev < 1e-3


def test_pauli_involution():
    _, report = pauli_xy_gate("x")
    block = report.achieved[:2, :]
    dev, _ = phase_aligned_residual(block @ block, np.eye(2))
    assert dev < 1e-3


def test_hadamard_gate():
    recipe, report = hadamard_gate()
    assert report.residual < 1e-6
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2
    dev, _ = phase_aligned_residual(report.achieved, h)
    assert dev < 1e-6
    assert abs(report.success_probability - 0.25) < 1e-12


def test_hadamard_controlled_z_stage_is_the_per_state_loop():
    # one product per entry gives the loop's block and column norms to the bit
    recipe, report = hadamard_gate()
    cond, _ = creation_polynomial_operator((1.0, 1.0), 2)
    block, norms = hadamard_cz_projection(cond.operator.matrix, recipe.aux.amplitudes)
    expect = gates._make_report(block, report.target, report.success_probability).achieved
    assert np.array_equal(report.achieved, expect)
    for key, value in norms.items():
        assert report.extras[key] == value
    assert sorted(norms) == sorted(k for k in report.extras if k.startswith("projection_probability_col"))


# ---------------------------------------------------------------------------
# CNOT obstruction


def test_cnot_basis_routes_agree():
    rng = np.random.default_rng(4)
    for _ in range(5):
        t = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * math.cos(rng.uniform(0, math.pi / 2))
        r = cmath.sqrt(1.0 - abs(t) ** 2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        a = cnot_basis_matrix(t, r)
        b = cnot_basis_lift(t, r)
        assert np.max(np.abs(a - b)) < 1e-10


def _slab_target(pairs):
    t = np.zeros((6, 4), dtype=complex)
    for j, (i, v) in enumerate(pairs):
        t[i, j] = v
    return t


@pytest.mark.parametrize(
    "target, tolerance",
    [
        # CNOT: the sub-grid holds phi = pi/4, where one slab weight vanishes
        (_slab_target([(0, 1), (1, 1), (3, 1), (2, 1)]), 1e-12),
        # controlled-z: at phi = pi/2 the zero-weight cut must match the
        # reference's pinv cut; the reference stops early, which leaves
        # about 1e-8 on slowly converging pairs
        (_slab_target([(0, 1), (1, 1), (2, 1), (3, -1)]), 1e-6),
    ],
    ids=["cnot", "cz"],
)
def test_slab_residuals_match_dense_reference(target, tolerance):
    # the batched closed-form scan against the per-pair dense alternating
    # least squares it replaced, from the same N2 starts
    rng = np.random.default_rng(1)
    axis = np.linspace(0.0, math.pi, 5)
    grid = [(p, pp) for p in axis for pp in axis]
    angles = np.concatenate([grid, rng.uniform(0.0, math.pi, (10, 2))])
    state = rng.bit_generator.state
    reference = [_product_slab_residual(p, pp, target, rng) for p, pp in angles]
    # the reference draws N1 then N2 per start, real parts before imaginary
    rng.bit_generator.state = state
    draws = rng.normal(size=(len(angles), 3, 4, 3))
    batched = gates._slab_residuals(target, angles, draws[:, :, 2] + 1j * draws[:, :, 3])
    assert np.max(np.abs(batched - reference)) < tolerance


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cnot_search_reports_floor(seed):
    rep = cnot_obstruction_search(seed=seed)
    assert rep.control_residual < 1e-8
    assert rep.min_residual > 0.01
    assert not rep.contradiction_found
    assert rep.lift_deviation < 1e-10
    assert rep.min_residual > 0.7  # observed floor is 1/sqrt(2)
