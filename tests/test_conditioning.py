import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockforge.conditioning import (
    _CHUNK,
    MAX_DENSE_DIMENSION,
    MAX_PHOTONS,
    MAX_RECURRENCE_WORK,
    AncillaSpec,
    ConditionalExtractor,
    ConditionalOperator,
    DetectionSpec,
    extract_conditional_operator,
    extract_with_ancilla_state,
    lift_unitary,
    recurrence_work,
    success_probability,
    verify_proposition,
)
from fockforge.fock import (
    FockBasis,
    FockOperator,
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

from oracles import fock_lift_amplitude, lift_oracle, per_entry_extraction


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


@pytest.mark.parametrize("modes, photons", [(2, 30), (3, 12), (4, 8)])
def test_lift_is_unitary_on_its_top_sector(modes, photons):
    # photon numbers where per-entry permanents are out of reach (two modes
    # at twenty photons took that route 25 s); the recurrence's rounding
    # must not grow with them
    basis = FockBasis(modes, TotalPhotonCutoff(photons))
    top = [i for i, occ in enumerate(basis.occupations) if sum(occ) == photons]
    for seed in range(5):
        block = lift_unitary(random_unitary(modes, seed), basis).matrix[np.ix_(top, top)]
        assert np.linalg.norm(block @ block.conj().T - np.eye(len(top)), 2) <= 1e-11


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


def test_norm_check_finds_a_violation_in_one_small_off_diagonal_block():
    # a contraction on the sectors of two photons and more, and one 2 x 1
    # block, from the vacuum into the two one-photon states, of norm 1.5
    basis = FockBasis(2, TotalPhotonCutoff(15))
    assert basis.dimension > 120  # above which the check factors block by block
    m = 0.9 * np.eye(basis.dimension, dtype=complex)
    m[:3, :3] = 0.0
    ConditionalOperator(FockOperator(basis, m.copy()), 15)
    m[1:3, 0] = [1.2, 0.9j]
    with pytest.raises(ValueError, match="norm 1.5"):
        ConditionalOperator(FockOperator(basis, m), 15)
    # one-photon inputs sent into two sectors at once, as by a superposed
    # ancilla: each block alone is a contraction, the two joined are not
    m = np.zeros((basis.dimension,) * 2, dtype=complex)
    m[3:6, 1:3] = m[6:10, 1:3] = 0.3
    assert np.linalg.norm(m[3:6, 1:3], 2) < np.linalg.norm(m[6:10, 1:3], 2) < 1.0
    with pytest.raises(ValueError, match=f"norm {np.linalg.norm(m, 2):.6f}"):
        ConditionalOperator(FockOperator(basis, m), 15)


def test_norm_check_factors_nothing_larger_than_a_coupled_block(monkeypatch):
    # three signal modes at cutoff 15 beside two one-photon detectors: 816
    # states, and the largest coupled block is the 15-photon sector's 136
    ex = ConditionalExtractor(5, (0, 1, 2), AncillaSpec((1, 1)), DetectionSpec((1, 1)), 15)
    basis = ex.signal_basis
    m = ex.extract_matrix(random_unitary(5, 3).matrix)
    assert basis.dimension == 816 and math.comb(17, 2) == 136
    shapes = []
    for name in dir(np.linalg):
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, lambda a, *args, _fn=fn, **kw: shapes.append(np.shape(a)) or _fn(a, *args, **kw))
    ConditionalOperator(FockOperator(basis, m), ex.faithful_input_levels)
    factored = [shape for shape in shapes if len(shape) >= 2]
    assert factored and max(max(shape[-2:]) for shape in factored) == 136


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


def _specs():
    """(mode count, signal modes, ancilla, detection, cutoff) per table."""
    ladder = np.random.default_rng(5).standard_normal(9)
    searched = {
        "nss": nss_objective(),
        "su3": su3_objective(0.0, np.pi),
        # nine superposed components, permanents of size 1 to 5
        "pauli": _pauli_objective("x", tuple(ladder / np.linalg.norm(ladder))),
    }
    specs = {
        name: (o.mode_count, o.signal_modes, o.ancilla, o.detection, o.signal_cutoff)
        for name, o in searched.items()
    }
    # five-photon ancilla chains beside detection patterns of three and
    # five photons: entries are permanents of size 5 to 8 and 5 to 10
    specs["large"] = (3, (0,), AncillaSpec((3, 2)), DetectionSpec((2, 1)), 5)
    specs["ten"] = (3, (0,), AncillaSpec((3, 2)), DetectionSpec((3, 2)), 5)
    return specs


@pytest.mark.parametrize("name", ["nss", "su3", "pauli", "large", "ten"])
def test_extract_stack_matches_extract_matrix(name):
    # both hold to the per-entry loop of tests/oracles.py, an independent
    # route through the flat permanent kernel
    spec = _specs()[name]
    ex = ConditionalExtractor(*spec)
    stack = mesh_matrices(np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, (7, 9)), 3)
    got = ex.extract_stack(stack)
    assert got.shape == (7, ex.signal_basis.dimension, ex.signal_basis.dimension)
    for m, y in zip(stack, got):
        assert np.max(np.abs(y - per_entry_extraction(*spec, m))) < 1e-14
        assert np.array_equal(y, ex.extract_matrix(m))
    with pytest.raises(ValueError, match="dimension mismatch"):
        ex.extract_stack(stack[0])


@pytest.mark.parametrize("name", ["sizes", "pauli"])
def test_stacked_rows_equal_single_row_extractions(name):
    # each row must get the bits it gets alone, which the search's
    # determinism needs.  "sizes" is a stack long enough that its photon
    # levels, up to twelve photons, run their nodes in more than one chunk;
    # "pauli" weights and sums nine ancilla components
    if name == "sizes":
        spec = (3, (0, 1), AncillaSpec((3,)), DetectionSpec((3,)), 9)
        stack = np.array([random_unitary(3, seed).matrix for seed in range(500)])
    else:
        spec = _specs()["pauli"]
        stack = mesh_matrices(np.random.default_rng(2).uniform(0.0, 2.0 * np.pi, (40, 9)), 3)
    ex = ConditionalExtractor(*spec)
    if name == "sizes":
        assert max(len(stack) * len(level[0]) * level[3].size for level in ex._levels) > _CHUNK
    together = ex.extract_stack(stack)
    for m, y in zip(stack, together):
        assert np.array_equal(y, ex.extract_stack(m[None])[0])
    for m, y in zip(stack[:2], together):
        assert np.max(np.abs(y - per_entry_extraction(*spec, m))) < 1e-14


def test_extractor_tables_stay_small_on_924_states():
    # six signal modes at cutoff 6: 296,438 entries.  With one gather list
    # per entry, `condition` on this shape peaked at 209 MB; the tables
    # now hold only each size's expanded occupations
    import tracemalloc

    tracemalloc.start()
    try:
        ex = ConditionalExtractor(7, range(6), AncillaSpec((0,)), DetectionSpec((0,)), 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ex.signal_basis.dimension == 924
    assert peak < 2e6


def test_lift_above_its_dimension_limit_allocates_nothing():
    import tracemalloc

    basis = FockBasis(1024, TotalPhotonCutoff(1))
    assert basis.dimension == MAX_DENSE_DIMENSION + 1
    u = np.eye(1024, dtype=complex)
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError, match="dimension 1025 .* dense limit of 1024"):
            lift_unitary(u, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense lift alone would be dimension^2 complex amplitudes, 16 MB
    assert peak < 1e6


def test_extractor_refuses_an_entry_above_the_photon_cap():
    # one signal mode at cutoff MAX_PHOTONS plus one ancilla photon,
    # detected again: the top entry holds MAX_PHOTONS + 1 photons
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(OverflowError, match=f"{MAX_PHOTONS + 1} photons .* photon cap of {MAX_PHOTONS}"):
            ConditionalExtractor(2, (0,), AncillaSpec((1,)), DetectionSpec((1,)), MAX_PHOTONS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    ConditionalExtractor(2, (0,), AncillaSpec((1,)), DetectionSpec((1,)), MAX_PHOTONS - 1)
    # the top entry holds cutoff + min(ancilla, detected) photons, and
    # none past the cutoff when no input reaches the detection
    with pytest.raises(OverflowError, match=f"{MAX_PHOTONS + 1} photons"):
        ConditionalExtractor(2, (0,), AncillaSpec((3,)), DetectionSpec((3,)), MAX_PHOTONS - 2)
    ConditionalExtractor(2, (0,), AncillaSpec((3,)), DetectionSpec((1,)), MAX_PHOTONS - 1)
    ConditionalExtractor(2, (0,), AncillaSpec((1,)), DetectionSpec((MAX_PHOTONS + 2,)), MAX_PHOTONS)


def test_recurrence_holds_exact_identities_at_the_photon_cap():
    # the 1e-10 that ConditionalExtractor states for entries of up to
    # MAX_PHOTONS photons; measured, the 2-mode top sector stays within
    # 7.6e-12 at seeds 1 to 50 and reaches 1.3e-10 at 48 photons
    tol = 1e-10
    basis = FockBasis(2, TotalPhotonCutoff(MAX_PHOTONS))
    top = [i for i, occ in enumerate(basis.occupations) if sum(occ) == MAX_PHOTONS]
    for seed in range(1, 6):
        block = lift_unitary(random_unitary(2, seed), basis).matrix[np.ix_(top, top)]
        assert np.max(np.abs(block @ block.conj().T - np.eye(len(top)))) < tol
    # completeness: sum_d Y_d^dag Y_d = I over the detector outcomes d of
    # one ancilla mode, on the faithful columns.  The ancilla superposes
    # 0, 1 and 2 photons, so columns of a sector mix; at signal cutoff
    # MAX_PHOTONS - 2 the top entries hold exactly MAX_PHOTONS photons
    cutoff = MAX_PHOTONS - 2
    ancilla = PureState(FockBasis(1, TotalPhotonCutoff(2)), np.array([0.6, 0.48j, 0.64], dtype=complex))
    u = random_unitary(2, 3)
    total = sum(
        y.conj().T @ y
        for y in (extract_with_ancilla_state(u, (0,), ancilla, DetectionSpec((d,)), cutoff).operator.matrix
                  for d in range(cutoff + 1))
    )
    faithful = slice(0, cutoff - 1)
    assert np.max(np.abs(total[faithful, faithful] - np.eye(cutoff - 1))) < tol
    # the closed forms of propositions 1 to 3 with two ancillas, each at
    # the cutoff whose top entries hold MAX_PHOTONS photons
    for which, cutoff in ((1, MAX_PHOTONS), (2, MAX_PHOTONS), (3, MAX_PHOTONS - 2)):
        for seed in range(1, 6):
            rep = verify_proposition(which, 2, seed, cutoff)
            assert rep.deviation < tol and (rep.leading_coefficient_deviation or 0.0) < tol
        with pytest.raises(OverflowError, match="photon cap"):
            verify_proposition(which, 2, 1, cutoff + 1)


@pytest.mark.parametrize("which", [1, 2, 3])
def test_proposition_far_above_the_photon_cap_allocates_nothing(which):
    # the refusal comes before any array sized by the cutoff
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(OverflowError, match="photon cap"):
            verify_proposition(which, 2, 1, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_extractor_above_its_work_limit_allocates_nothing():
    # nine modes, two of them signal, beside seven two-photon detectors at
    # cutoff 16: built, its tables peaked at 210 MB
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(OverflowError, match="1.61e\\+07"):
            ConditionalExtractor(9, (0, 1), AncillaSpec((2,) * 7), DetectionSpec((2,) * 7), 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_every_lift_within_its_dimension_limit_is_within_the_work_limit():
    # the work limit must refuse no lift that the dense and photon limits
    # admit (a cutoff of 0 does no work), nor the absorbing splitter's
    # channel, whose closed sector on four modes admits cutoff 10
    lifts = []
    for cutoff in range(1, MAX_PHOTONS + 1):
        modes = 1
        while math.comb(modes + cutoff, cutoff) <= MAX_DENSE_DIMENSION:
            lifts.append((recurrence_work(modes, cutoff, [0], ()), modes, cutoff))
            modes += 1
    assert max(lifts) == (2196250, 10, 4) and 2196250 < MAX_RECURRENCE_WORK
    assert (734368, 4, 10) in lifts and (4, 11) not in {lift[1:] for lift in lifts}
