import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockforge.fock import (
    FockBasis,
    MixedState,
    PerModeCutoff,
    PureState,
    TotalPhotonCutoff,
    coherent_state,
    coupled_blocks,
    displacement_operator,
    displacement_operator_for,
    number_polynomial,
    partial_trace,
)

from oracles import ladder_matrix


def test_total_cutoff_dimension_is_binomial():
    for modes in range(1, 5):
        for cut in range(5):
            basis = FockBasis(modes, TotalPhotonCutoff(cut))
            assert basis.dimension == math.comb(modes + cut, modes)


def test_per_mode_cutoff_dimension_is_power():
    basis = FockBasis(3, PerModeCutoff(2))
    assert basis.dimension == 27


@pytest.mark.parametrize("modes", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "policy", [TotalPhotonCutoff(0), TotalPhotonCutoff(3), PerModeCutoff(0), PerModeCutoff(2)], ids=repr
)
def test_basis_orders_by_total_then_lexicographically(modes, policy):
    total = isinstance(policy, TotalPhotonCutoff)
    bound = policy.max_total if total else policy.max_per_mode
    # a per-mode cutoff admits the whole grid, a total one its simplex
    grid = (occ for occ in itertools.product(range(bound + 1), repeat=modes) if not total or sum(occ) <= bound)
    expected = tuple(sorted(grid, key=lambda occ: (sum(occ), occ)))
    basis = FockBasis(modes, policy)
    occupations = basis.occupations
    assert occupations.tolist() == [list(occ) for occ in expected]
    assert occupations.dtype == np.uint8 and occupations.flags.c_contiguous and not occupations.flags.writeable
    assert [basis.index_of(occ) for occ in expected] == list(range(len(expected)))


def test_basis_of_999_modes_builds():
    # 1,000 states, inside simulate's dimension limit; a recursion per mode
    # would overflow the interpreter's stack here
    basis = FockBasis(999, TotalPhotonCutoff(1))
    assert basis.dimension == 1000
    assert basis.occupations[:2].tolist() == [[0] * 999, [0] * 998 + [1]]
    assert basis.occupations[-1].tolist() == [1] + [0] * 998


def test_basis_holds_at_most_255_photons_in_a_mode():
    # the occupations are uint8: a mode of 256 photons would wrap to 0
    assert FockBasis(1, PerModeCutoff(255)).occupations[-1].tolist() == [255]
    for policy in (PerModeCutoff(256), TotalPhotonCutoff(256)):
        with pytest.raises(ValueError, match="uint8"):
            FockBasis(2, policy)


def test_index_of_round_trips():
    basis = FockBasis(3, TotalPhotonCutoff(4))
    for i, occ in enumerate(basis.occupations.tolist()):
        assert basis.index_of(occ) == i and occ in basis
    # above the cutoff, past a uint8 (256 would wrap to 0), negative, and
    # of the wrong length
    for occ in [(5, 0, 0), (256, 0, 0), (-1, 1, 0), (1, 0), (0, 0, 0, 0)]:
        with pytest.raises(KeyError):
            basis.index_of(occ)
        assert occ not in basis


def test_pure_state_rejects_norm_above_one():
    basis = FockBasis(1, TotalPhotonCutoff(1))
    with pytest.raises(ValueError):
        PureState(basis, np.array([1.0, 1.0]))
    PureState(basis, np.array([1.0, 1.0]), unchecked=True)


def test_creation_commutator_is_identity():
    basis = FockBasis(1, TotalPhotonCutoff(6))
    a = ladder_matrix(basis, 0, "annihilate").matrix
    ad = ladder_matrix(basis, 0, "create").matrix
    comm = a @ ad - ad @ a
    # the commutator is the identity away from the truncation edge
    assert np.max(np.abs(comm[:6, :6] - np.eye(7)[:6, :6])) < 1e-12


def test_coherent_state_moments():
    alpha = 0.6 - 0.3j
    state = coherent_state(alpha, 24)
    n = np.arange(25)
    mean = float(np.sum(n * np.abs(state.amplitudes) ** 2))
    assert abs(mean - abs(alpha) ** 2) < 1e-10
    assert abs(state.norm() - 1.0) < 1e-10


def test_displacement_displaces_vacuum():
    alpha = 0.4 + 0.2j
    op = displacement_operator_for(alpha, 6)
    u = op.matrix
    moved = u[:, 0]
    target = coherent_state(alpha, u.shape[0] - 1).amplitudes
    # the guarded block is exact; the very top rows may carry truncation
    assert np.max(np.abs(moved[:7] - target[:7])) < 1e-9


def displacement_entry(alpha: complex, m: int, n: int) -> complex:
    """<m|D(alpha)|n> of the untruncated displacement, in closed form:
    sqrt(n!/m!) alpha^(m-n) e^(-|alpha|^2/2) L_n^(m-n)(|alpha|^2) for m >= n,
    and the same with m, n swapped and alpha -> -alpha^* for m < n."""
    if m < n:
        alpha, m, n = -alpha.conjugate(), n, m
    x = abs(alpha) ** 2
    laguerre = sum((-1) ** i * math.comb(m, n - i) * x**i / math.factorial(i) for i in range(n + 1))
    return math.sqrt(math.factorial(n) / math.factorial(m)) * alpha ** (m - n) * math.exp(-x / 2) * laguerre


@pytest.mark.parametrize("alpha", [0.7, -0.7, 2.5, -1.9])
def test_displacement_at_real_alpha_is_real(alpha):
    d = displacement_operator_for(alpha, 10).matrix
    assert np.all(d.imag == 0)


@pytest.mark.parametrize("alpha", [0.3, -1.2, 0.5j, 0.6 - 0.8j, -1.1 + 1.4j])
def test_displacement_guarded_block_matches_the_closed_form(alpha):
    top = 8
    d = displacement_operator_for(alpha, top).matrix
    for m in range(top + 1):
        for n in range(top + 1):
            assert abs(d[m, n] - displacement_entry(complex(alpha), m, n)) < 1e-10, (m, n)


@pytest.mark.parametrize("alpha", [0.4, -0.9j, 0.8 + 0.3j, -1.5 - 2.0j])
def test_displacement_composes_with_its_inverse_to_the_identity(alpha):
    cutoff, guard = 30, 22
    d = displacement_operator(alpha, cutoff, guard).matrix @ displacement_operator(-alpha, cutoff, guard).matrix
    assert np.max(np.abs(d - np.eye(cutoff + 1))) < 1e-13


def test_displacement_for_top_level_guards_growth():
    op = displacement_operator_for(0.5, 3)
    assert op.basis.policy.max_per_mode >= 3


def test_number_polynomial_diagonal():
    basis = FockBasis(1, TotalPhotonCutoff(4))
    op = number_polynomial((1.0, 0.5, -0.5), 0, basis)
    diag = np.diag(op.matrix).real
    expect = [1.0 + 0.5 * n - 0.5 * n * n for n in range(5)]
    assert np.max(np.abs(diag - expect)) < 1e-12


def test_partial_trace_of_product_state_is_pure():
    # |alpha> on mode 0 beside |1> on mode 1, on the joint basis
    a = coherent_state(0.3, 3)
    basis = FockBasis(2, PerModeCutoff(3))
    amps = np.zeros(basis.dimension, dtype=complex)
    for n, amp in enumerate(a.amplitudes):
        amps[basis.index_of((n, 1))] = amp
    joint = PureState(basis, amps)
    reduced = partial_trace(joint, (0,))
    pure = np.outer(a.amplitudes, a.amplitudes.conj())
    assert np.max(np.abs(reduced.matrix - pure)) < 1e-12


def test_partial_trace_keeps_trace():
    basis = FockBasis(2, TotalPhotonCutoff(3))
    rng = np.random.default_rng(0)
    m = rng.standard_normal((basis.dimension, basis.dimension))
    rho = m @ m.T
    rho /= np.trace(rho)
    state = MixedState(basis, rho.astype(complex))
    red = partial_trace(state, (1,))
    assert abs(red.trace() - 1.0) < 1e-12


def test_mixed_state_rejects_non_hermitian():
    basis = FockBasis(1, TotalPhotonCutoff(1))
    with pytest.raises(ValueError):
        MixedState(basis, np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex))


def test_positivity_check_finds_a_negative_block_between_distant_sectors():
    # a coherence between the vacuum (left empty) and one two-photon state
    # joins sectors 0 and 2; the others stay blocks of their own
    basis = FockBasis(2, TotalPhotonCutoff(15))
    assert basis.dimension > 120  # above which the check factors block by block
    rho = np.diag(np.r_[0.0, np.full(basis.dimension - 1, 0.005)]).astype(complex)
    MixedState(basis, rho.copy())
    rho[0, 4] = rho[4, 0] = 0.05
    with pytest.raises(ValueError, match="negative eigenvalue"):
        MixedState(basis, rho)


def rotated(values, rng) -> np.ndarray:
    """Hermitian matrix with eigenvalues `values`, in a random basis."""
    q = np.linalg.qr(rng.normal(size=(len(values),) * 2) + 1j * rng.normal(size=(len(values),) * 2))[0]
    a = (q * values) @ q.conj().T
    return (a + a.conj().T) / 2


def sectors_of(basis, blocks):
    totals = basis.occupations.sum(axis=1)
    return sorted(sorted(set(totals[b].tolist())) for b in blocks)


@pytest.mark.parametrize("least, accepted", [(-2e-10, False), (-5e-11, True)])
def test_positivity_threshold_on_coupled_sectors(least, accepted):
    # rotations within sectors 2 and 4, and within 1 and 3, join each pair;
    # the check factors rho + 1e-10 I, which has a factor exactly when no
    # eigenvalue of rho lies below -1e-10
    basis = FockBasis(3, TotalPhotonCutoff(8))
    assert basis.dimension > 120  # above which the check factors block by block
    totals, rng = basis.occupations.sum(axis=1), np.random.default_rng(5)
    rho = np.diag(np.full(basis.dimension, 0.004)).astype(complex)
    even, odd = np.flatnonzero((totals == 2) | (totals == 4)), np.flatnonzero((totals == 1) | (totals == 3))
    rho[np.ix_(even, even)] = rotated(np.r_[least, np.full(len(even) - 1, 0.004)], rng)
    rho[np.ix_(odd, odd)] = rotated(np.linspace(0.002, 0.006, len(odd)), rng)
    blocks = coupled_blocks(basis, rho)
    assert sectors_of(basis, blocks) == [[0], [1, 3], [2, 4], [5], [6], [7], [8]]
    if accepted:
        MixedState(basis, rho)
    else:
        with pytest.raises(ValueError, match=r"negative eigenvalue -[12]\.\d+e-10"):
            MixedState(basis, rho)


@given(
    st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=25, deadline=None)
def test_coherent_overlap_closed_form(alpha, beta):
    sa = coherent_state(alpha, 30)
    sb = coherent_state(beta, 30)
    expect = np.exp(
        -0.5 * abs(alpha) ** 2 - 0.5 * abs(beta) ** 2 + np.conj(alpha) * beta
    )
    assert abs(np.vdot(sa.amplitudes, sb.amplitudes) - expect) < 1e-9
