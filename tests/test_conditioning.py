import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockforge.conditioning import (
    MAX_LIFT_DIMENSION,
    AncillaSpec,
    ConditionalExtractor,
    ConditionalOperator,
    DetectionSpec,
    extract_conditional_operator,
    extract_with_ancilla_state,
    fock_lift_amplitude,
    lift_unitary,
    success_probability,
    verify_proposition,
)
from fockforge.fock import (
    FockBasis,
    PerModeCutoff,
    PolicyMismatchError,
    PureState,
    TotalPhotonCutoff,
    fock_state,
)
from fockforge.interferometer import (
    BeamSplitterParams,
    bs_matrix,
    random_unitary,
)

from fockforge.gates import _pauli_objective, nss_objective, su3_objective
from fockforge.optimizer import mesh_matrices

from oracles import lift_oracle


def test_lift_of_identity_is_identity():
    basis = FockBasis(3, TotalPhotonCutoff(3))
    lift = lift_unitary(np.eye(3, dtype=complex), basis)
    assert np.max(np.abs(lift.matrix - np.eye(basis.dimension))) < 1e-12


def test_lift_is_unitary():
    basis = FockBasis(3, TotalPhotonCutoff(4))
    u = random_unitary(3, 2)
    lift = lift_unitary(u, basis).matrix
    assert np.max(np.abs(lift.conj().T @ lift - np.eye(basis.dimension))) < 1e-10


def test_lift_conserves_photon_number():
    basis = FockBasis(2, TotalPhotonCutoff(4))
    u = random_unitary(2, 3)
    lift = lift_unitary(u, basis).matrix
    for i, occ_out in enumerate(basis.occupations):
        for j, occ_in in enumerate(basis.occupations):
            if sum(occ_out) != sum(occ_in):
                assert lift[i, j] == 0


def test_lift_matches_polynomial_oracle_small():
    basis = FockBasis(3, TotalPhotonCutoff(3))
    u = random_unitary(3, 17).matrix
    lift = lift_unitary(u, basis).matrix
    oracle = lift_oracle(u, basis)
    assert np.max(np.abs(lift - oracle)) < 1e-12


def test_fock_lift_amplitude_entry():
    u = random_unitary(2, 5).matrix
    basis = FockBasis(2, TotalPhotonCutoff(3))
    lift = lift_unitary(u, basis).matrix
    occ_out = (2, 1)
    occ_in = (1, 2)
    amp = fock_lift_amplitude(u, occ_in, occ_out)
    assert abs(amp - lift[basis.index_of(occ_out), basis.index_of(occ_in)]) < 1e-12


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda u: lift_unitary(u, FockBasis(2, PerModeCutoff(2))), PolicyMismatchError),
        (lambda u: lift_unitary(u, FockBasis(3, TotalPhotonCutoff(2))), ValueError),
        (lambda u: lift_unitary(u, FockBasis(2, TotalPhotonCutoff(0))).matrix, np.ones((1, 1))),
        (lambda u: fock_lift_amplitude(u, (1,), (1, 0)), ValueError),
        (lambda u: fock_lift_amplitude(u, (1, 0), (1, 0, 0)), ValueError),
        (lambda u: fock_lift_amplitude(u, (1, -1), (0, 0)), ValueError),
        (lambda u: fock_lift_amplitude(u, (2, 1), (1, 1)), 0j),
    ],
    ids=[
        "lift-per-mode-cutoff",
        "lift-mode-count",
        "lift-cutoff-0",
        "amplitude-input-length",
        "amplitude-output-length",
        "amplitude-negative",
        "amplitude-unequal-totals",
    ],
)
def test_guards_before_the_shared_amplitude_expansion(call, expected):
    u = random_unitary(2, 4).matrix
    if isinstance(expected, type):
        with pytest.raises(expected) as info:
            call(u)
        assert info.type is expected
    else:
        got = call(u)
        assert np.array_equal(got, expected)
        assert type(got) is type(expected)


def test_catalysis_closed_form_single_bs():
    # one ancilla photon in, one detected, same beam splitter: the signal
    # operator is diagonal with Y(n) = T^(n-1) (|T|^2 - n |R|^2)
    p = BeamSplitterParams(0, 1, 0.6, 0.8, -0.4)
    u = bs_matrix(p, 2).matrix
    y = extract_conditional_operator(
        u, (0,), AncillaSpec((1,)), DetectionSpec((1,)), 5
    )
    t, r = u[0, 0], u[0, 1]
    mat = y.operator.matrix
    off = mat - np.diag(np.diag(mat))
    assert np.max(np.abs(off)) == 0
    for n in range(6):
        closed = t ** (n - 1) * (abs(t) ** 2 - n * abs(r) ** 2) if n else np.conj(t)
        assert abs(mat[n, n] - closed) < 1e-12


def test_conditional_operator_norm_is_bounded():
    u = random_unitary(3, 8)
    y = extract_conditional_operator(
        u, (0,), AncillaSpec((1, 0)), DetectionSpec((0, 1)), 4
    )
    assert np.linalg.norm(y.operator.matrix, 2) <= 1.0 + 1e-9


def test_norm_check_rejects_non_unitary_network():
    with pytest.raises(ValueError):
        extract_conditional_operator(
            1.7 * np.eye(2, dtype=complex),
            (0,),
            AncillaSpec((1,)),
            DetectionSpec((1,)),
            3,
        )


def test_faithful_levels_track_photon_surplus():
    u = random_unitary(2, 4)
    y = extract_conditional_operator(
        u, (0,), AncillaSpec((2,)), DetectionSpec((0,)), 5
    )
    assert y.faithful_input_levels == 3


def test_ancilla_state_extraction_is_linear():
    u = random_unitary(2, 21)
    aux_basis = FockBasis(1, TotalPhotonCutoff(2))
    amps = np.array([0.6, 0.0, 0.8], dtype=complex)
    anc = PureState(aux_basis, amps)
    combined = extract_with_ancilla_state(u, (0,), anc, DetectionSpec((1,)), 4)
    part0 = extract_conditional_operator(u, (0,), AncillaSpec((0,)), DetectionSpec((1,)), 4)
    part2 = extract_conditional_operator(u, (0,), AncillaSpec((2,)), DetectionSpec((1,)), 4)
    expect = 0.6 * part0.operator.matrix + 0.8 * part2.operator.matrix
    assert np.max(np.abs(combined.operator.matrix - expect)) < 1e-12


def test_success_probability_requires_normalized_input():
    u = random_unitary(2, 6)
    y = extract_conditional_operator(u, (0,), AncillaSpec((1,)), DetectionSpec((1,)), 3)
    basis = y.operator.basis
    good = fock_state(basis, (1,))
    p = success_probability(y, good)
    assert 0.0 <= p <= 1.0
    bad = PureState(basis, 0.5 * good.amplitudes)
    with pytest.raises(ValueError):
        success_probability(y, bad)


@pytest.mark.parametrize("which", [1, 2, 3])
@pytest.mark.parametrize("n_aux", [1, 2, 3])
def test_propositions_hold_on_spot_seeds(which, n_aux):
    rep = verify_proposition(which, n_aux, 5)
    assert rep.deviation < 1e-9
    if rep.leading_coefficient_deviation is not None:
        assert rep.leading_coefficient_deviation < 1e-9


def test_proposition_reseeds_away_from_degeneracy():
    # scanning seeds for an almost-vanishing corner entry would take ages;
    # instead trust the reporting fields on a normal seed
    rep = verify_proposition(1, 2, 0)
    assert rep.used_seed >= rep.requested_seed
    assert rep.reseed_count == rep.used_seed - rep.requested_seed


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=25, deadline=None)
def test_lift_oracle_agreement_random_two_mode(seed):
    basis = FockBasis(2, TotalPhotonCutoff(4))
    u = random_unitary(2, seed).matrix
    lift = lift_unitary(u, basis).matrix
    oracle = lift_oracle(u, basis)
    assert np.max(np.abs(lift - oracle)) < 1e-10


def _extractors():
    ladder = np.random.default_rng(5).standard_normal(9)
    return {
        "nss": nss_objective().extractor(),
        "su3": su3_objective(0.0, np.pi).extractor(),
        # nine superposed components, permanents of size 1 to 5
        "pauli": _pauli_objective("x", tuple(ladder / np.linalg.norm(ladder))).extractor(),
        # permanents of size 5 to 8: the all-at-once Glynn sum and the
        # one-matrix kernel above it
        "large": ConditionalExtractor(3, (0,), AncillaSpec((3, 2)), DetectionSpec((2, 1)), 5),
    }


@pytest.mark.parametrize("name", ["nss", "su3", "pauli", "large"])
def test_extract_stack_matches_extract_matrix(name):
    ex = _extractors()[name]
    sizes = {k for _, entries in ex._parts for _, _, _, k, _ in entries}
    if name == "large":
        assert min(sizes) == 5 and max(sizes) == 8
    stack = mesh_matrices(np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, (7, 9)), 3)
    got = ex.extract_stack(stack)
    assert got.shape == (7, ex.signal_basis.dimension, ex.signal_basis.dimension)
    for m, y in zip(stack, got):
        assert np.max(np.abs(y - ex.extract_matrix(m))) < 1e-14
    with pytest.raises(ValueError, match="dimension mismatch"):
        ex.extract_stack(stack[0])


def test_one_shot_extractions_build_no_stacked_tables():
    ex = _extractors()["nss"]
    ex.extract_matrix(np.eye(3))
    assert ex._stack_tables is None
    ex.extract_stack(np.eye(3)[None])
    assert ex._stack_tables is not None


def test_lift_above_its_dimension_limit_allocates_nothing():
    import tracemalloc

    basis = FockBasis(10, TotalPhotonCutoff(4))
    assert basis.dimension == MAX_LIFT_DIMENSION + 1
    u = np.eye(10, dtype=complex)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="limit of 1000"):
            lift_unitary(u, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense lift alone would be dimension^2 complex amplitudes, 16 MB
    assert peak < 1e6
