import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fockforge.conditioning import (
    AncillaSpec,
    DetectionSpec,
    extract_conditional_operator,
    extract_with_ancilla_state,
)
from fockforge.fock import FockBasis, PerModeCutoff, PureState, TotalPhotonCutoff
from fockforge import gates, optimizer
from fockforge.gates import nss_objective, su3_objective
from fockforge.optimizer import (
    FEASIBILITY_BUDGET,
    FEASIBILITY_DRAWS,
    FEASIBLE_RESIDUAL,
    TRIVIAL_PROBABILITY,
    InfeasibleAtBudgetError,
    Objective,
    OptimizationResult,
    _fit,
    _run_restart,
    _run_restarts,
    _score,
    mesh_matrices,
    network_from_params,
    optimize_gate,
)
from fockforge.interferometer import compose
from oracles import one_trial_feasibility


E2 = np.eye(3)


def _identity_objective():
    # pass-through on levels 0 and 1: trivially satisfiable by theta=0
    return Objective(
        mode_count=2,
        signal_modes=(0,),
        ancilla=AncillaSpec((1,)),
        detection=DetectionSpec((1,)),
        signal_cutoff=2,
        constraints=(
            (E2[0], E2[0]),
            (E2[1], E2[1]),
        ),
    )


def _one_photon_as_two_objective():
    # photon-non-conserving, so no network meets it
    return Objective(
        mode_count=2,
        signal_modes=(0,),
        ancilla=AncillaSpec((0,)),
        detection=DetectionSpec((0,)),
        signal_cutoff=2,
        constraints=((E2[1], E2[2]),),
    )


def _restart_key(result):
    x, residual, probability, index, evaluations = result
    return x.tobytes(), residual, probability, index, evaluations


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
            constraints=((E2[0], E2[0]),),
        )


@pytest.mark.parametrize(
    "constraint",
    [(E2[0], E2[0], False), (E2[0], E2[0], np.ones(3), np.ones(3)), (E2[0],), (E2[0], E2[0], np.ones(2))],
    ids=["phase-flag", "four", "one", "short-weights"],
)
def test_objective_names_both_constraint_forms(constraint):
    with pytest.raises(ValueError, match=r"\(x, y\) or \(x, y, weights\)"):
        Objective(
            mode_count=2,
            signal_modes=(0,),
            ancilla=AncillaSpec((1,)),
            detection=DetectionSpec((1,)),
            signal_cutoff=2,
            constraints=((E2[1], E2[1]), constraint),
        )


@pytest.mark.parametrize(
    "constraint",
    [
        (np.array([1.0, np.nan, 0.0]), E2[0]),
        (E2[0], np.array([0.0, 0.0, np.inf])),
        (E2[0], E2[0], np.array([1.0, np.inf, 1.0])),
    ],
    ids=["input", "target", "weights"],
)
def test_objective_refuses_non_finite_constraints_before_building(monkeypatch, constraint):
    def built(*args):
        raise AssertionError("the extractor was built")

    monkeypatch.setattr(optimizer, "ConditionalExtractor", built)
    with pytest.raises(ValueError, match="finite"):
        Objective(
            mode_count=2,
            signal_modes=(0,),
            ancilla=AncillaSpec((1,)),
            detection=DetectionSpec((1,)),
            signal_cutoff=2,
            constraints=(constraint,),
        )


def test_identity_objective_is_feasible():
    result = optimize_gate(_identity_objective(), seed=1, restarts=4)
    assert result.feasible
    assert result.residual < 1e-6
    assert result.probability > 0.9


def test_repeat_run_is_bitwise_identical():
    a = optimize_gate(_identity_objective(), seed=9, restarts=3)
    b = optimize_gate(_identity_objective(), seed=9, restarts=3)
    assert _result_tuple(a) == _result_tuple(b)


def test_search_is_bitwise_identical_across_blas_thread_counts():
    # the printed parameters must not depend on the machine's core count,
    # which sets the default BLAS thread count
    import fockforge

    codes = (
        "from fockforge import gates, optimizer\n"
        "r = optimizer.optimize_gate(gates.su3_objective(0.0, 3.141592653589793), 7, 4)\n"
        "print(r.params.tobytes().hex(), r.evaluations)",
        "from fockforge import gates\nprint(repr(gates.cnot_obstruction_search()))",
    )
    for code in codes:
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = str(Path(fockforge.__file__).parents[1])
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]


def test_search_trajectory_is_pinned():
    # pinned evaluation count and winning restart: any change to the
    # arithmetic of one objective evaluation would move them
    result = optimize_gate(_identity_objective(), seed=9, restarts=3)
    assert result.evaluations == 260
    assert result.restart_index == 2


def _searched(monkeypatch, recipe, *args):
    """(objective, seed, restarts) of the search a gate recipe runs."""

    class Found(Exception):
        pass

    def record(objective, seed, restarts):
        raise Found(objective, seed, restarts)

    with monkeypatch.context() as patch:
        patch.setattr(gates, "optimize_gate", record)
        with pytest.raises(Found) as found:
            recipe(*args)
    return found.value.args


def _counted_search(monkeypatch, objective, seed, restarts):
    """(lockstep _fit calls, result) of a search."""
    calls = [0]
    fit = optimizer._fit

    def counting(stack, objective):
        calls[0] += 1
        return fit(stack, objective)

    monkeypatch.setattr(optimizer, "_fit", counting)
    result = optimize_gate(objective, seed, restarts)
    return calls[0], result


def test_benchmark_nss_search_step_count_is_pinned(monkeypatch):
    # the benchmark's nss search: a trial's Jacobian rows ride in its own
    # stack, and each phase hands its final rows on, so the lockstep steps
    # fell from 170 to 105; an iteration that follows one of several
    # damping trials sends its trials two to a stack, so they fell to 74,
    # while every evaluation charged stayed the same
    steps, result = _counted_search(monkeypatch, nss_objective(), 7, 4)
    assert steps == 74
    assert result.evaluations == 1215


def test_benchmark_pauli_x_search_step_count_is_pinned(monkeypatch):
    # the benchmark's lone Pauli-x restart: 89 steps with one damping trial
    # per step, 58 with the speculative second trial
    steps, result = _counted_search(monkeypatch, *_searched(monkeypatch, gates.pauli_xy_gate, "x", 0.01, 3, 1))
    assert steps == 58
    assert result.evaluations == 586


def test_unit_weight_matches_unweighted_bitwise():
    cons_plain = (
        (E2[0], E2[0]),
        (E2[1], E2[1]),
    )
    cons_weighted = (
        (E2[0], E2[0], np.ones(3)),
        (E2[1], E2[1], np.ones(3)),
    )
    base = dict(
        mode_count=2,
        signal_modes=(0,),
        ancilla=AncillaSpec((1,)),
        detection=DetectionSpec((1,)),
        signal_cutoff=2,
    )
    a = optimize_gate(Objective(constraints=cons_plain, **base), seed=5, restarts=3)
    b = optimize_gate(Objective(constraints=cons_weighted, **base), seed=5, restarts=3)
    assert _result_tuple(a) == _result_tuple(b)


def test_zero_weight_rows_are_ignored():
    # demand an impossible value on level 2 but mask that row out; the
    # masked problem reduces to the feasible pass-through
    mask = np.array([1.0, 1.0, 0.0])
    cons = (
        (E2[0], E2[0]),
        (E2[1], E2[1] + 5.0 * E2[2], mask),
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
        seed=2,
        restarts=4,
    )
    assert result.feasible


def test_trivial_zero_operator_is_not_a_winner():
    # target pattern reachable only at zero success: demanding that one
    # photon maps to two is photon-non-conserving, so every candidate has
    # residual bounded away from zero; the search must raise rather than
    # return the zero operator as a fake win
    cons = ((E2[1], E2[2]),)
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
            seed=0,
            restarts=2,
        )
    best = err.value.result
    assert isinstance(best, OptimizationResult)
    assert not best.feasible
    # the reported best is a bad fit, not a zero-operator landing
    assert best.residual >= FEASIBLE_RESIDUAL


@pytest.mark.parametrize(
    "objective, seed, restarts",
    [(nss_objective(), 7, 4), (su3_objective(0.0, np.pi), 11, 6)],
    ids=["nss", "su3"],
)
def test_no_restart_lands_on_the_zero_operator(objective, seed, restarts):
    for index in range(restarts):
        _, _, probability, _, _ = _run_restart((objective, seed, index))
        assert probability > TRIVIAL_PROBABILITY


def test_infeasible_restarts_keep_their_draw_budgets(monkeypatch):
    # one photon demanded as two is never met, so each restart spends only
    # feasibility draws; every network evaluation counts against the
    # budget, the finite-difference ones included
    rows, pairs = [0], [0]
    fit, speculative = optimizer._fit, optimizer._feasibility

    def counting(stack, objective):
        # one stacked call evaluates every row: a point's look-ahead, or the
        # look-aheads of one or two damping trials
        rows[0] += len(stack)
        pairs[0] += len(stack) == 2 * (n + 1)
        return fit(stack, objective)

    monkeypatch.setattr(optimizer, "_fit", counting)
    objective = _one_photon_as_two_objective()
    n = objective.mode_count**2
    for index in range(3):
        counted = []
        for route in (one_trial_feasibility, speculative):
            monkeypatch.setattr(optimizer, "_feasibility", route)
            rows[0] = pairs[0] = 0
            _, residual, _, _, evaluations = _run_restart((objective, 0, index))
            assert residual >= FEASIBLE_RESIDUAL
            assert 0 < evaluations <= FEASIBILITY_DRAWS * FEASIBILITY_BUDGET
            counted.append((rows[0], evaluations))
        (one_trial_rows, charged), (speculative_rows, evaluations) = counted
        assert evaluations == charged
        # a speculative trial left unread, its first trial accepted, adds
        # its whole look-ahead, at most one per pair of trials sent
        unread, spare = divmod(speculative_rows - one_trial_rows, n + 1)
        assert spare == 0 and 0 <= unread <= pairs[0]
        # the rest is whole look-aheads (a point's forward-difference rows)
        # of rejected trials and final points: computed, never used, never
        # charged
        assert (speculative_rows - (n + 1) * unread - evaluations) % n == 0


@pytest.mark.parametrize(
    "objective, seed, restarts",
    [(nss_objective(), 7, 6), (_one_photon_as_two_objective(), 0, 3)],
    ids=["nss", "infeasible"],
)
def test_lockstep_restarts_equal_restarts_run_alone(objective, seed, restarts):
    # nss restarts end after different numbers of steps, and the infeasible
    # ones exhaust their draw budgets; a restart's rows must not depend on
    # the restarts evaluated beside it
    together = _run_restarts(objective, seed, range(restarts))
    alone = [_run_restart((objective, seed, index)) for index in range(restarts)]
    assert [_restart_key(r) for r in together] == [_restart_key(r) for r in alone]
    assert len({r[4] for r in together}) > 1


@pytest.mark.parametrize(
    "search",
    [
        lambda _: (nss_objective(), 7, 4),
        lambda _: (su3_objective(0.0, np.pi), 11, 6),
        lambda patch: _searched(patch, gates.pauli_xy_gate, "x", 0.01, 3, 1),
        lambda _: (_one_photon_as_two_objective(), 0, 3),
    ],
    ids=["nss", "cphase", "pauli-x", "infeasible"],
)
def test_speculative_trials_match_the_one_trial_loop(monkeypatch, search):
    # the benchmark's searches and an infeasible one: every restart reaches
    # the bits, residual, probability and charges of one trial per step,
    # and the speculative route computes whole look-aheads more
    objective, seed, restarts = search(monkeypatch)
    rows = [0]
    fit = optimizer._fit

    def counting(stack, objective):
        rows[0] += len(stack)
        return fit(stack, objective)

    monkeypatch.setattr(optimizer, "_fit", counting)
    speculative = [_restart_key(r) for r in _run_restarts(objective, seed, range(restarts))]
    speculative_rows, rows[0] = rows[0], 0
    monkeypatch.setattr(optimizer, "_feasibility", one_trial_feasibility)
    assert speculative == [_restart_key(r) for r in _run_restarts(objective, seed, range(restarts))]
    assert speculative_rows >= rows[0]
    assert (speculative_rows - rows[0]) % (objective.mode_count**2 + 1) == 0


def test_non_finite_speculative_trial_stays_out_of_the_step(monkeypatch):
    # mesh_matrices raises on a non-finite row anywhere in a lockstep stack,
    # which would end every live restart; here every solve after the first
    # in one step, which only a speculative trial makes, returns inf, and
    # each restart run alone keeps the one-trial loop's bits
    objective, restarts = nss_objective(), 4
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_feasibility", one_trial_feasibility)
        expected = [_restart_key(_run_restart((objective, 7, index))) for index in range(restarts)]
    solves, spoiled = [0], [0]
    fit, lstsq = optimizer._fit, np.linalg.lstsq

    def stepping(stack, objective):
        solves[0] = 0
        return fit(stack, objective)

    def spoiling(a, b, *args, **kwargs):
        x, *rest = lstsq(a, b, *args, **kwargs)
        solves[0] += 1
        if solves[0] > 1:
            spoiled[0] += 1
            x = np.full_like(x, np.inf)
        return (x, *rest)

    monkeypatch.setattr(optimizer, "_fit", stepping)
    monkeypatch.setattr(np.linalg, "lstsq", spoiling)
    got = []
    for index in range(restarts):
        solves[0] = 0
        got.append(_restart_key(_run_restart((objective, 7, index))))
    assert got == expected
    assert spoiled[0] > 0


def test_pauli_x_search_reaches_its_optimum(monkeypatch):
    # the Pauli-x deviation has rank 2 at a feasible network, which the
    # probability phase must handle to climb to the optimum |s|^2 = 1/4
    found = []

    def recording(objective, seed, restarts):
        found.append(optimize_gate(objective, seed, restarts))
        return found[-1]

    monkeypatch.setattr(gates, "optimize_gate", recording)
    gates.pauli_xy_gate("x", 0.01, 3, 1)
    assert found[0].residual < 1e-12
    assert abs(found[0].probability - 0.25) < 1e-6


def test_objective_with_fewer_residuals_than_parameters():
    # one three-level constraint gives 6 real residuals for 9 parameters
    e = np.eye(3)
    result = optimize_gate(
        Objective(
            mode_count=3,
            signal_modes=(0,),
            ancilla=AncillaSpec((1, 0)),
            detection=DetectionSpec((1, 0)),
            signal_cutoff=2,
            constraints=((e[2], -e[2]),),
        ),
        seed=0,
        restarts=1,
    )
    assert result.feasible


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
            constraints=((E2[0], E2[0]), (E2[1], E2[1])),
        ),
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
        constraints=((e[0], e[0]),),
    )


@pytest.mark.parametrize("seed", range(6))
def test_superposed_ancilla_search_and_direct_routes_agree(seed):
    # one extractor serves the search and extract_with_ancilla_state, and
    # both equal the amplitude-weighted sum of Fock-ancilla extractions
    # taken one component at a time, bit for bit; exact zeros are left
    # out and a 1e-15 component is kept
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
    per_component = None
    for occ, amp in zip(basis.occupations.tolist(), anc.amplitudes):
        if amp == 0:
            continue
        part = complex(amp) * extract_conditional_operator(
            m, (signal,), AncillaSpec(occ), DetectionSpec((1, 0)), 4
        ).operator.matrix
        if per_component is None:
            per_component = part
        else:
            per_component += part
    assert np.array_equal(via_search, direct.operator.matrix)
    assert np.array_equal(via_search, per_component)


@pytest.mark.parametrize("occ", [(0, 0), (1, 0), (2, 1)])
def test_fock_ket_ancilla_equals_its_spec(occ):
    # a one-component ket |k> and AncillaSpec(k) are the same ancilla
    m = compose(network_from_params(np.linspace(0.2, 1.8, 9), 3)).matrix
    basis = FockBasis(2, PerModeCutoff(2))
    ket = np.zeros(basis.dimension, dtype=complex)
    ket[basis.index_of(occ)] = 1.0
    det = DetectionSpec((1, 0))
    as_ket = extract_conditional_operator(m, (1,), PureState(basis, ket), det, 4)
    as_spec = extract_conditional_operator(m, (1,), AncillaSpec(occ), det, 4)
    assert np.array_equal(as_ket.operator.matrix, as_spec.operator.matrix)
    assert as_ket.faithful_input_levels == as_spec.faithful_input_levels
    with pytest.raises(TypeError, match="AncillaSpec or a PureState"):
        extract_conditional_operator(m, (1,), occ, det, 4)
    with pytest.raises(TypeError, match="AncillaSpec or a PureState"):
        _superposed_objective(occ)


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
    result = optimize_gate(_identity_objective(), seed=1, restarts=2)
    net = result.network(2)
    assert net.mode_count == 2
    objective = _identity_objective()
    res = _score(_fit(result.params[None], objective), objective)[0]
    assert abs(res - result.residual) < 1e-12
    compose(network_from_params(result.params, 2))  # parseable and unitary


def test_network_from_params_rejects_nan_and_bad_length():
    x = np.zeros(9)
    x[1] = np.nan
    with pytest.raises(ValueError):
        compose(network_from_params(x, 3))
    with pytest.raises(ValueError):
        network_from_params(np.zeros(8), 3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mesh_matrices_match_composed_networks(n):
    # angles on both sides of [0, pi/2] exercise the splitter's
    # canonicalization folds, which the stacked decoding never runs
    rng = np.random.default_rng(n)
    k = n * (n - 1) // 2
    stack = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, (12, n * n))
    stack[0, :k] = -0.3
    stack[1, :k] = 2.5
    folds = stack[:, :k]
    assert (folds < 0).any() and (folds > np.pi / 2).any() and ((folds > 0) & (folds < np.pi / 2)).any()
    got = mesh_matrices(stack, n)
    for row, m in zip(stack, got):
        assert np.max(np.abs(m - compose(network_from_params(row, n)).matrix)) < 1e-14


def test_mesh_matrices_reject_nan_and_bad_shape():
    stack = np.zeros((3, 9))
    stack[2, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        mesh_matrices(stack, 3)
    with pytest.raises(ValueError):
        mesh_matrices(np.zeros(9), 3)
    with pytest.raises(ValueError):
        mesh_matrices(np.zeros((2, 8)), 3)


@pytest.mark.parametrize("objective", [nss_objective(), su3_objective(0.0, np.pi)], ids=["nss", "su3"])
def test_stacked_fit_rows_equal_single_row_fits(objective):
    # a Jacobian's columns are one stacked call and a line-search trial is
    # a stack of one: both must give a point the same bits
    stack = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, (10, 9))
    together = _fit(stack, objective)
    for row in range(len(stack)):
        alone = _fit(stack[row : row + 1], objective)
        for a, b in zip(together, alone):
            assert np.array_equal(a[row], b[0])


def _dot(a, b):
    # <a, b> as the search takes every dot product: elementwise, then summed
    # in index order (np.vdot's BLAS sum rounds in its own order)
    return np.cumsum(np.conj(a) * b)[-1]


def _fit_reference(params, objective):
    # one parameter vector by plain loops: the weighted outputs w_k Y x_k,
    # the closed-form scale s = sum_k <w_k y_k, w_k o_k> / sum_k ||w_k y_k||^2
    # with the objective's constant terms recomputed, and the deviation
    y_op = objective.extractor().extract_matrix(mesh_matrices(params[None], objective.mode_count)[0])
    cons = objective.constraints
    outputs = [w * np.array([_dot(row.conj(), x) for row in y_op]) for x, _, w in cons]
    num = 0j
    for (_, y, w), out in zip(cons, outputs):
        num += _dot(w * y, out)
    s = num / sum(float(np.vdot(w * y, w * y).real) for _, y, w in cons)
    deviation = np.concatenate([out - s * (w * y) for (_, y, w), out in zip(cons, outputs)])
    norms = [np.cumsum(out.real**2 + out.imag**2)[-1] for out in outputs]
    return norms, s, np.concatenate([deviation.real, deviation.imag])


def _weighted_objective():
    return Objective(
        mode_count=2,
        signal_modes=(0,),
        ancilla=AncillaSpec((1,)),
        detection=DetectionSpec((1,)),
        signal_cutoff=2,
        constraints=(
            (E2[0], E2[0]),
            (E2[1], np.exp(0.3j) * E2[1], np.array([1.0, 0.5, 2.0])),
            (E2[2], -E2[2] + 0.2 * E2[1]),
        ),
    )


@pytest.mark.parametrize("objective", [_weighted_objective(), su3_objective(0.7, 2.0)], ids=["weighted", "su3"])
def test_fit_matches_closed_form_scale(objective):
    # 25 random networks as one stack: every row must equal the plain
    # closed form, and itself fitted alone, bit for bit
    n = objective.mode_count
    stack = np.random.default_rng(n).uniform(0.0, 2.0 * np.pi, (25, n * n))
    together = _fit(stack, objective)
    for row, params in enumerate(stack):
        alone = _fit(stack[row : row + 1], objective)
        for got, alone_part, want in zip(together, alone, _fit_reference(params, objective)):
            assert np.array_equal(got[row], alone_part[0])
            assert np.array_equal(got[row], want)
