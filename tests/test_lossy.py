import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockforge.conditioning import (
    AncillaSpec,
    DetectionSpec,
    extract_conditional_operator,
    lift_unitary,
)
from fockforge.fock import FockBasis, MixedState, TotalPhotonCutoff
from fockforge.interferometer import BeamSplitterParams, ModeUnitary, bs_matrix
from fockforge.lossy import choose_T_for_sigma_z, dilation_unitary, noisy_sigma_z_experiment, pure_loss
from oracles import ChannelOperator, channel_sigma_z_branches, lossy_bs_channel, symmetric_slab


def random_density(basis, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((basis.dimension, basis.dimension))
    m = m + 1j * rng.standard_normal(m.shape)
    rho = m @ m.conj().T
    return MixedState(basis, rho / np.trace(rho))


# ---------------------------------------------------------------------------
# the absorbing element and its dilation


def test_slab_closure_rejection():
    # the dilation takes a 2x2 transmission block, and one that transmits
    # more than it receives has no unitary completion
    with pytest.raises(ValueError, match="must be 2x2"):
        dilation_unitary(np.eye(3))
    with pytest.raises(ValueError, match="not unitary"):
        dilation_unitary(1.1 * np.eye(2))


def test_dilation_unitary():
    t = symmetric_slab(0.45, 0.25)
    u = dilation_unitary(t).matrix
    assert u.shape == (4, 4)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
    assert np.max(np.abs(u[:2, :2] - t)) < 1e-12


def closed_pairs():
    """(T, A) pairs that close: the top blocks of random unitaries, and a
    splitter scaled to almost total and to no absorption."""
    for seed in range(4):
        rng = np.random.default_rng(seed)
        w, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        yield pytest.param(w[:2, :2], w[:2, 2:], id=f"random-{seed}")
    block = bs_matrix(BeamSplitterParams(0, 1, 1.1, 0.2, -0.4), 2).matrix
    for scale in (1e-3, 1.0):
        yield pytest.param(scale * block, math.sqrt(1.0 - scale**2) * np.eye(2), id=f"transmission-{scale}")


@pytest.mark.parametrize("t, a", closed_pairs())
def test_dilation_unitary_completes_any_closed_pair(t, a):
    # the completion absorbs what T does not transmit, as A does
    u = dilation_unitary(t).matrix
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
    assert np.max(np.abs(u[:2, :2] - t)) < 1e-12
    assert np.max(np.abs(u[:2, 2:] @ u[:2, 2:].conj().T - a @ a.conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# the dilation channel, the reference route in tests/oracles.py


def test_channel_trace_preservation():
    ch = lossy_bs_channel(symmetric_slab(0.5, 0.3), 2)
    rho = random_density(ch.basis, 7)
    out = ch.apply(rho)
    assert abs(out.trace() - 1.0) < 1e-12


def test_channel_kraus_completeness():
    ch = lossy_bs_channel(symmetric_slab(0.4, 0.35), 2)
    total = sum(k.conj().T @ k for k in ch.kraus)
    assert np.max(np.abs(total - np.eye(ch.basis.dimension))) < 1e-10
    assert len(ch.kraus) >= 3


def test_channel_rejects_broken_kraus_family():
    ch = lossy_bs_channel(symmetric_slab(0.5, 0.3), 1)
    with pytest.raises(ValueError):
        ChannelOperator(ch.basis, ch.devices[:1], ch.kraus[:1])


def test_lossless_channel_is_the_unitary_lift():
    t = 0.6
    block = symmetric_slab(t, 0.0)
    ch = lossy_bs_channel(block, 3)
    assert len(ch.kraus) == 1
    direct = lift_unitary(ModeUnitary(2, block), ch.basis).matrix
    assert np.max(np.abs(ch.kraus[0] - direct)) < 1e-12


def full_lift_kraus(t, cutoff):
    """Kraus blocks read off the lift of the whole four-mode dilation of
    transmission block t, and the device occupation of each."""
    basis = FockBasis(2, TotalPhotonCutoff(cutoff))
    big = FockBasis(4, TotalPhotonCutoff(cutoff))
    lift = lift_unitary(dilation_unitary(t), big).matrix
    col = [big.index_of((*occ, 0, 0)) for occ in basis.occupations.tolist()]
    blocks, devices = [], []
    for dev in sorted({(occ[2], occ[3]) for occ in big.occupations.tolist()}):
        block = np.zeros((basis.dimension, basis.dimension), dtype=complex)
        for i, occ in enumerate(basis.occupations.tolist()):
            if (*occ, *dev) in big:
                block[i, :] = lift[big.index_of((*occ, *dev)), col]
        if np.max(np.abs(block)) > 1e-14:
            blocks.append(block)
            devices.append(dev)
    return blocks, devices


@pytest.mark.parametrize("cutoff", [2, 4])
def test_channel_lifts_only_the_vacuum_device_columns(cutoff):
    t = 0.8 * np.array([[0.6, 0.8j], [0.8j, 0.6]]) @ np.diag([1.0, np.exp(0.7j)])
    channel = lossy_bs_channel(t, cutoff)
    got = channel.kraus
    want, devices = full_lift_kraus(t, cutoff)
    assert list(channel.devices) == devices
    assert len(got) == len(want)
    for k, w in zip(got, want):
        assert np.max(np.abs(k - w)) <= 1e-15


@pytest.mark.parametrize("cutoff", range(6))
@pytest.mark.parametrize("absorption", [0.0, 0.3, 0.95])
def test_loss_map_then_splitter_is_the_dilation_channel(cutoff, absorption):
    # T = sqrt(eta) B: equal pure loss eta = 1 - a^2 on both modes, then
    # the lift of B, is the Stinespring route's channel of T
    rng = np.random.default_rng([cutoff, int(100 * absorption)])
    basis = FockBasis(2, TotalPhotonCutoff(cutoff))
    eta = 1.0 - absorption**2
    for seed in range(3):
        b = bs_matrix(BeamSplitterParams(0, 1, *rng.uniform(-math.pi, math.pi, 3)), 2).matrix
        rho = random_density(basis, [cutoff, seed]).matrix
        lift = lift_unitary(ModeUnitary(2, b), basis).matrix
        got = lift @ pure_loss(pure_loss(rho, basis, 0, eta), basis, 1, eta) @ lift.conj().T
        want = lossy_bs_channel(math.sqrt(eta) * b, cutoff).apply(rho)
        assert np.max(np.abs(got - want.matrix)) < 1e-12


def test_vacuum_sector_channel_is_trivial():
    ch = lossy_bs_channel(symmetric_slab(0.5, 0.3), 0)
    assert len(ch.kraus) == 1
    assert abs(ch.kraus[0][0, 0] - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# the noisy sign-flip experiment


def test_chosen_transmission_endpoints():
    assert abs(choose_T_for_sigma_z(0.0) - (math.sqrt(3.0) - 1.0) / 2.0) < 1e-12
    assert abs(choose_T_for_sigma_z(1.0)) < 1e-12
    with pytest.raises(ValueError):
        choose_T_for_sigma_z(1.5)


def test_chosen_transmission_satisfies_the_doubled_relation():
    # the operating point solves per T = -2 T22, a factor two off the
    # exact sign-flip condition, so the residual against per T = -T22
    # equals the transmission itself
    rep = noisy_sigma_z_experiment(0.3, 0.8, 0.6, 0.8)
    per = rep.extras["per_t"]
    assert abs(per + 2.0 * rep.transmission) < 1e-12
    assert abs(rep.sign_flip_condition_residual - rep.transmission) < 1e-12


def test_branch_weights_sum_to_trace():
    rep = noisy_sigma_z_experiment(0.25, 0.65, 0.8, 0.6)
    total = rep.wanted_weight + rep.detector_weight + rep.absorption_weight
    assert abs(total - rep.output.trace()) < 1e-12


def test_wanted_branch_is_the_conditioned_pure_state():
    c0, c1 = 0.6, 0.8
    rep = noisy_sigma_z_experiment(0.2, 0.75, c0, c1)
    t = rep.transmission
    per = rep.extras["per_t"]
    expect = 0.75 * (c0**2 * t**2 + c1**2 * abs(per) ** 2)
    assert abs(rep.wanted_weight - expect) < 1e-12
    evals = np.linalg.eigvalsh(rep.wanted_matrix)
    assert evals[-1] > 0
    assert np.max(np.abs(evals[:-1])) < 1e-12 * evals[-1]


def test_detector_coefficient_matches_closed_form():
    for a, eta in ((0.0, 0.5), (0.3, 0.7), (0.55, 0.2)):
        rep = noisy_sigma_z_experiment(a, eta, 1.0 / math.sqrt(3.0), math.sqrt(2.0 / 3.0))
        s = math.sqrt(3.0 - 2.0 * a * a)
        assert abs(rep.detector_closed_form - (a**4 - 3.0 + 2.0 * s)) < 1e-12
        assert abs(rep.detector_coefficient - rep.detector_closed_form) < 1e-9
        assert abs(rep.absorption_coefficient - rep.absorption_closed_form) < 1e-9
        assert abs(rep.absorption_closed_form - a * a * (1.0 - a * a)) < 1e-12


def test_detector_coefficient_at_zero_absorption():
    rep = noisy_sigma_z_experiment(0.0, 0.5, 0.0, 1.0)
    assert abs(rep.detector_coefficient - (2.0 * math.sqrt(3.0) - 3.0)) < 1e-9
    assert rep.absorption_weight < 1e-14


def test_unit_efficiency_has_no_detector_branch():
    rep = noisy_sigma_z_experiment(0.4, 1.0, 0.6, 0.8)
    assert rep.detector_weight == 0.0
    # the coefficient falls back to the closed form rather than 0/0
    assert abs(rep.detector_coefficient - rep.detector_closed_form) < 1e-12


def test_perfect_limit_matches_the_ideal_pipeline():
    c0, c1 = 0.6, 0.8
    rep = noisy_sigma_z_experiment(0.0, 1.0, c0, c1)
    t = choose_T_for_sigma_z(0.0)
    r = math.sqrt(1.0 - t * t)
    tm = np.array([[t, 1j * r], [1j * r, t]])
    cond = extract_conditional_operator(
        ModeUnitary(2, tm), (0,), AncillaSpec((1,)), DetectionSpec((1,)), 2
    )
    psi = np.array([c0, c1, 0.0], dtype=complex)
    v = cond.operator.matrix @ psi
    assert np.max(np.abs(rep.output.matrix - np.outer(v, v.conj()))) < 1e-10


def test_experiment_validation():
    with pytest.raises(ValueError):
        noisy_sigma_z_experiment(1.0, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        noisy_sigma_z_experiment(0.2, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        noisy_sigma_z_experiment(0.2, 0.5, 1.0, 1.0)
    # a non-finite amplitude fails the normalization check too
    for c0 in (float("nan"), complex("nan+0.6j"), float("inf")):
        with pytest.raises(ValueError, match="must equal 1"):
            noisy_sigma_z_experiment(0.2, 0.5, c0, 0.8)


def dense_dilation_experiment(abs_a, eta, c0, c1):
    """The experiment's former route, kept as the reference: the whole
    four-mode dilation lifted densely, the ancilla detected, the device
    modes traced.  Returns the conditioned state, its wanted branch and
    the three branch weights."""
    t = symmetric_slab(choose_T_for_sigma_z(abs_a), abs_a)
    big = FockBasis(4, TotalPhotonCutoff(2))
    amps = np.zeros(big.dimension, dtype=complex)
    amps[big.index_of((0, 1, 0, 0))] = c0
    amps[big.index_of((1, 1, 0, 0))] = c1
    evolved = lift_unitary(dilation_unitary(t), big).matrix @ amps
    out = np.zeros((3, 3), dtype=complex)
    wanted = np.zeros((3, 3), dtype=complex)
    weights = {"wanted": 0.0, "detector": 0.0, "absorption": 0.0}
    branches = {}
    for amp, (n_sig, k, l3, l4) in zip(evolved, big.occupations.tolist()):
        if k >= 1:
            by_dev = branches.setdefault((k, l3 + l4), {})
            by_dev.setdefault((l3, l4), np.zeros(3, dtype=complex))[n_sig] += amp
    for (k, l), by_dev in branches.items():
        block = sum(np.outer(v, v.conj()) for v in by_dev.values())
        block = block * k * eta * (1.0 - eta) ** (k - 1)
        out += block
        label = "absorption" if l >= 1 else ("wanted" if k == 1 else "detector")
        weights[label] += float(np.trace(block).real)
        if label == "wanted":
            wanted += block
    return out, wanted, weights


def test_experiment_matches_the_dense_dilation_route():
    rng = np.random.default_rng(13)
    grid = [(0.0, 1.0), (0.0, 0.5), (0.4, 1.0)]
    grid += [(rng.uniform(0.0, 0.95), rng.uniform(0.05, 1.0)) for _ in range(9)]
    for a, eta in grid:
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c0, c1 = c / np.linalg.norm(c)
        rep = noisy_sigma_z_experiment(a, eta, c0, c1)
        out, wanted, weights = dense_dilation_experiment(a, eta, c0, c1)
        assert np.max(np.abs(rep.output.matrix - out)) < 1e-14
        assert np.max(np.abs(rep.wanted_matrix - wanted)) < 1e-14
        assert abs(rep.wanted_weight - weights["wanted"]) < 1e-14
        assert abs(rep.detector_weight - weights["detector"]) < 1e-14
        assert abs(rep.absorption_weight - weights["absorption"]) < 1e-14


@pytest.mark.parametrize("c0, c1", [(0.6, 0.8), (1.0, 0.0), (0.28, 0.96j), (0.0, 1.0)])
@pytest.mark.parametrize("eta", [0.3, 1.0])
@pytest.mark.parametrize("a", [0.0, 0.25, 0.6, 0.9])
def test_experiment_matches_the_dilation_channel_branches(a, eta, c0, c1):
    # pure loss then the lift of B against the dilation's Kraus blocks,
    # each filed under its device total
    rep = noisy_sigma_z_experiment(a, eta, c0, c1)
    out, wanted, weights = channel_sigma_z_branches(a, eta, c0, c1)
    assert np.max(np.abs(rep.output.matrix - out)) <= 1e-15
    assert np.max(np.abs(rep.wanted_matrix - wanted)) <= 1e-15
    assert abs(rep.wanted_weight - weights["wanted"]) <= 1e-15
    assert abs(rep.detector_weight - weights["detector"]) <= 1e-15
    assert abs(rep.absorption_weight - weights["absorption"]) <= 1e-15
    # with the signal empty only one photon enters, so no term both loses
    # a photon and leaves one for the detector: the absorption branch is
    # summed from its own terms, not as the total less the others, and
    # reads exactly zero
    assert (rep.absorption_weight == 0.0) == (c1 == 0 or a == 0.0)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=0.8),
    eta=st.floats(min_value=0.05, max_value=0.99),
)
def test_coefficients_track_closed_forms_everywhere(a, eta):
    rep = noisy_sigma_z_experiment(a, eta, 0.6, 0.8)
    assert abs(rep.detector_coefficient - rep.detector_closed_form) < 1e-8
    assert abs(rep.absorption_coefficient - rep.absorption_closed_form) < 1e-8
    total = rep.wanted_weight + rep.detector_weight + rep.absorption_weight
    assert abs(total - rep.output.trace()) < 1e-10


@settings(max_examples=20, deadline=None)
@given(
    t=st.floats(min_value=0.05, max_value=0.9),
    frac=st.floats(min_value=0.0, max_value=0.95),
)
def test_channel_preserves_trace_everywhere(t, frac):
    a = frac * math.sqrt(1.0 - t * t)
    ch = lossy_bs_channel(symmetric_slab(t, a), 2)
    out = ch.apply(random_density(ch.basis, 3))
    assert abs(out.trace() - 1.0) < 1e-10
