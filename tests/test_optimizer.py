import os

import numpy as np
import pytest

from fockforge.conditioning import AncillaSpec, DetectionSpec, extract_with_ancilla_state
from fockforge.fock import FockBasis, PerModeCutoff, PureState, TotalPhotonCutoff
from fockforge.optimizer import (
    THREADS_ENV,
    InfeasibleAtBudgetError,
    Objective,
    OptimizationResult,
    _fit_scale,
    _worker_count,
    constraint_residual,
    network_from_params,
    optimize_gate,
)
from fockforge.interferometer import compose


E2 = np.eye(3)


def _identity_objective(weight=1.0):
    # pass-through on levels 0 and 1: trivially satisfiable by theta=0
    return Objective(
        mode_count=2,
        signal_modes=(0,),
        ancilla=AncillaSpec((1,)),
        detection=DetectionSpec((1,)),
        signal_cutoff=2,
        constraints=(
            (E2[0], E2[0], False),
            (E2[1], E2[1], False),
        ),
        probability_weight=weight,
    )


def _result_tuple(r: OptimizationResult):
    return (
        r.params.tobytes(),
        r.residual,
        r.probability,
        r.restart_index,
        r.evaluations,
    )


def test_objective_rejects_an_ancilla_short_of_the_non_signal_modes():
    # the extractor is built with the objective, so the mismatch raises here
    with pytest.raises(ValueError, match="non-signal modes"):
        Objective(
            mode_count=3,
            signal_modes=(0,),
            ancilla=AncillaSpec((1,)),
            detection=DetectionSpec((1,)),
            signal_cutoff=2,
            constraints=((E2[0], E2[0], False),),
        )


@pytest.mark.parametrize("raw", ["abc", "-3"])
def test_bad_thread_count_raises(monkeypatch, raw):
    monkeypatch.setenv(THREADS_ENV, raw)
    with pytest.raises(ValueError, match=THREADS_ENV):
        _worker_count(8)


@pytest.mark.parametrize("raw", [None, "0"])
def test_unset_or_zero_thread_count_uses_every_core(monkeypatch, raw):
    if raw is None:
        monkeypatch.delenv(THREADS_ENV, raising=False)
    else:
        monkeypatch.setenv(THREADS_ENV, raw)
    assert _worker_count(8) == max(1, min(os.cpu_count() or 1, 8))


def test_identity_objective_is_feasible():
    result = optimize_gate(_identity_objective(), 2, seed=1, restarts=4)
    assert result.feasible
    assert result.residual < 1e-6
    assert result.probability > 0.9


def test_determinism_across_worker_counts():
    old = os.environ.get(THREADS_ENV)
    try:
        os.environ[THREADS_ENV] = "1"
        serial = optimize_gate(_identity_objective(), 2, seed=3, restarts=4)
        os.environ[THREADS_ENV] = "4"
        parallel = optimize_gate(_identity_objective(), 2, seed=3, restarts=4)
    finally:
        if old is None:
            os.environ.pop(THREADS_ENV, None)
        else:
            os.environ[THREADS_ENV] = old
    assert _result_tuple(serial) == _result_tuple(parallel)


def test_repeat_run_is_bitwise_identical():
    a = optimize_gate(_identity_objective(), 2, seed=9, restarts=3)
    b = optimize_gate(_identity_objective(), 2, seed=9, restarts=3)
    assert _result_tuple(a) == _result_tuple(b)


def test_search_trajectory_is_pinned():
    # pinned evaluation count and winning restart: any change to the
    # arithmetic of one objective evaluation would move them
    result = optimize_gate(_identity_objective(), 2, seed=9, restarts=3)
    assert result.evaluations == 1776
    assert result.restart_index == 0


def test_unit_weight_matches_unweighted_bitwise():
    cons_plain = (
        (E2[0], E2[0], False),
        (E2[1], E2[1], False),
    )
    cons_weighted = (
        (E2[0], E2[0], False, np.ones(3)),
        (E2[1], E2[1], False, np.ones(3)),
    )
    base = dict(
        mode_count=2,
        signal_modes=(0,),
        ancilla=AncillaSpec((1,)),
        detection=DetectionSpec((1,)),
        signal_cutoff=2,
    )
    a = optimize_gate(Objective(constraints=cons_plain, **base), 2, seed=5, restarts=3)
    b = optimize_gate(Objective(constraints=cons_weighted, **base), 2, seed=5, restarts=3)
    assert _result_tuple(a) == _result_tuple(b)


def test_zero_weight_rows_are_ignored():
    # demand an impossible value on level 2 but mask that row out; the
    # masked problem reduces to the feasible pass-through
    mask = np.array([1.0, 1.0, 0.0])
    cons = (
        (E2[0], E2[0], False),
        (E2[1], E2[1] + 5.0 * E2[2], False, mask),
    )
    result = optimize_gate(
        Objective(
            mode_count=2,
            signal_modes=(0,),
            ancilla=AncillaSpec((1,)),
            detection=DetectionSpec((1,)),
            signal_cutoff=2,
            constraints=cons,
        ),
        2,
        seed=2,
        restarts=4,
    )
    assert result.feasible


def test_trivial_zero_operator_is_not_a_winner():
    # target pattern reachable only at zero success: demanding that one
    # photon maps to two is photon-non-conserving, so every candidate has
    # residual bounded away from zero; the search must raise rather than
    # return the zero operator as a fake win
    cons = ((E2[1], E2[2], False),)
    with pytest.raises(InfeasibleAtBudgetError) as err:
        optimize_gate(
            Objective(
                mode_count=2,
                signal_modes=(0,),
                ancilla=AncillaSpec((0,)),
                detection=DetectionSpec((0,)),
                signal_cutoff=2,
                constraints=cons,
            ),
            2,
            seed=0,
            restarts=2,
        )
    best = err.value.result
    assert isinstance(best, OptimizationResult)
    assert not best.feasible
    # the guard rejected a perfect-residual zero operator, not a bad fit
    assert best.probability < 1e-8


def test_pure_state_ancilla_route():
    aux_basis = FockBasis(1, TotalPhotonCutoff(1))
    anc = PureState(aux_basis, np.array([1.0, 0.0], dtype=complex))
    result = optimize_gate(
        Objective(
            mode_count=2,
            signal_modes=(0,),
            ancilla=anc,
            detection=DetectionSpec((0,)),
            signal_cutoff=2,
            constraints=((E2[0], E2[0], False), (E2[1], E2[1], False)),
        ),
        2,
        seed=4,
        restarts=3,
    )
    assert result.feasible


def _superposed_objective(ancilla, signal=0, cutoff=4):
    e = np.eye(cutoff + 1)
    return Objective(
        mode_count=3,
        signal_modes=(signal,),
        ancilla=ancilla,
        detection=DetectionSpec((1, 0)),
        signal_cutoff=cutoff,
        constraints=((e[0], e[0], False),),
    )


@pytest.mark.parametrize("seed", range(6))
def test_superposed_ancilla_search_and_direct_routes_agree(seed):
    # one extractor serves the search and extract_with_ancilla_state:
    # the same matrix bit for bit; exact zeros are left out and a
    # 1e-15 component is kept
    rng = np.random.default_rng(seed)
    m = compose(network_from_params(rng.uniform(0.0, 2.0 * np.pi, 9), 3)).matrix
    basis = FockBasis(2, PerModeCutoff(2))
    amps = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    amps[rng.choice(basis.dimension, 3, replace=False)] = 0.0
    amps[rng.integers(basis.dimension)] *= 1e-15
    anc = PureState(basis, amps / np.linalg.norm(amps))
    signal = seed % 3
    via_search = _superposed_objective(anc, signal).extractor().extract_matrix(m)
    direct = extract_with_ancilla_state(m, (signal,), anc, DetectionSpec((1, 0)), 4)
    assert np.array_equal(via_search, direct.operator.matrix)


def _superposed_errors():
    two_mode = FockBasis(2, PerModeCutoff(2))
    surplus = np.zeros(two_mode.dimension, dtype=complex)
    surplus[two_mode.index_of((0, 0))] = 0.6
    surplus[two_mode.index_of((2, 2))] = 0.8
    return {
        "zero": (PureState(two_mode, np.zeros(two_mode.dimension)), 4, "zero"),
        "mode count": (
            PureState(FockBasis(1, TotalPhotonCutoff(1)), np.array([1.0, 0.0])),
            4,
            "modes",
        ),
        # |2,2> injects three photons more than the detection removes
        "above cutoff": (PureState(two_mode, surplus), 2, "cannot hold"),
    }


@pytest.mark.parametrize("case", ["zero", "mode count", "above cutoff"])
def test_superposed_ancilla_errors_on_both_routes(case):
    anc, cutoff, fragment = _superposed_errors()[case]
    m = compose(network_from_params(np.linspace(0.1, 0.9, 9), 3)).matrix
    with pytest.raises(ValueError, match=fragment):
        _superposed_objective(anc, cutoff=cutoff).extractor()
    with pytest.raises(ValueError, match=fragment):
        extract_with_ancilla_state(m, (0,), anc, DetectionSpec((1, 0)), cutoff)


def test_superposed_ancilla_rejects_a_non_unitary_matrix():
    basis = FockBasis(2, PerModeCutoff(1))
    anc = PureState(basis, np.full(basis.dimension, 0.5, dtype=complex))
    m = compose(network_from_params(np.linspace(0.1, 0.9, 9), 3)).matrix
    with pytest.raises(ValueError, match="exceeds one"):
        extract_with_ancilla_state(3.0 * m, (0,), anc, DetectionSpec((1, 0)), 4)


def test_network_from_params_round_trip():
    result = optimize_gate(_identity_objective(), 2, seed=1, restarts=2)
    net = result.network(2)
    assert net.mode_count == 2
    res = constraint_residual(result.params, _identity_objective())
    assert abs(res - result.residual) < 1e-12
    compose(network_from_params(result.params, 2))  # parseable and unitary


def test_mode_count_mismatch_rejected():
    with pytest.raises(ValueError):
        optimize_gate(_identity_objective(), 3, seed=0, restarts=1)


def test_network_from_params_rejects_nan_and_bad_length():
    x = np.zeros(9)
    x[1] = np.nan
    with pytest.raises(ValueError):
        compose(network_from_params(x, 3))
    with pytest.raises(ValueError):
        network_from_params(np.zeros(8), 3)


def _fit_scale_reference(outputs, objective):
    # reference: the plain coordinate-descent loop, which recomputes the
    # objective's constant terms on every pass
    cons = objective.constraints
    phases = [1.0 + 0j] * len(cons)
    denom = sum(float(np.vdot(w * y, w * y).real) for _, y, _, w in cons)
    s = 0j
    for _ in range(20):
        num = 0j
        for (x, y, free, w), o, ph in zip(cons, outputs, phases):
            num += np.vdot(ph * w * y, w * o)
        s_new = num / denom
        changed = abs(s_new - s)
        s = s_new
        if abs(s) > 0:
            for i, (x, y, free, w) in enumerate(cons):
                if free:
                    ip = np.vdot(s * w * y, w * outputs[i])
                    if abs(ip) > 0:
                        phases[i] = ip / abs(ip)
        if changed < 1e-15:
            break
    return s, phases


@pytest.mark.parametrize("free", [(False, False, False), (False, True, False), (True, True, True)])
def test_fit_scale_matches_coordinate_descent(free):
    rng = np.random.default_rng(sum(free))
    weights = np.array([1.0, 0.5, 2.0])
    objective = Objective(
        mode_count=2,
        signal_modes=(0,),
        ancilla=AncillaSpec((1,)),
        detection=DetectionSpec((1,)),
        signal_cutoff=2,
        constraints=(
            (E2[0], E2[0], free[0]),
            (E2[1], np.exp(0.3j) * E2[1], free[1], weights),
            (E2[2], -E2[2] + 0.2 * E2[1], free[2]),
        ),
    )
    for _ in range(25):
        outputs = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(3)]
        s, phases = _fit_scale(outputs, objective)
        s_ref, phases_ref = _fit_scale_reference(outputs, objective)
        assert s == s_ref
        assert phases == phases_ref
