import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockforge.interferometer import (
    BeamSplitterParams,
    ModeUnitary,
    NetworkDescription,
    PhaseShifterParams,
    bs_matrix,
    compose,
    element_matrix,
    phase_matrix,
    random_unitary,
)

angle = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)


@given(angle, angle, angle)
@settings(max_examples=40, deadline=None)
def test_bs_block_is_unitary(theta, pt, pr):
    u = bs_matrix(BeamSplitterParams(0, 1, theta, pt, pr), 2).matrix
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


def test_bs_block_structure():
    p = BeamSplitterParams(0, 1, 0.3, 0.7, -0.2)
    u = bs_matrix(p, 2).matrix
    t = math.cos(0.3) * np.exp(0.7j)
    r = math.sin(0.3) * np.exp(-0.2j)
    assert abs(u[0, 0] - t) < 1e-12
    assert abs(u[0, 1] - r) < 1e-12
    assert abs(u[1, 0] + np.conj(r)) < 1e-12
    assert abs(u[1, 1] - np.conj(t)) < 1e-12


def test_bs_embedding_leaves_other_modes_alone():
    p = BeamSplitterParams(1, 3, 0.5, 0.0, 0.0)
    u = bs_matrix(p, 4).matrix
    for m in (0, 2):
        assert abs(u[m, m] - 1.0) < 1e-12
        assert np.max(np.abs(np.delete(u[m], m))) < 1e-12


def test_compose_applies_left_to_right():
    a = BeamSplitterParams(0, 1, 0.3, 0.0, 0.0)
    b = PhaseShifterParams(0, 1.2)
    net = NetworkDescription(2, (a, b))
    u = compose(net).matrix
    expect = phase_matrix(b, 2).matrix @ bs_matrix(a, 2).matrix
    assert np.max(np.abs(u - expect)) < 1e-12


def test_element_matrix_dispatch():
    b = PhaseShifterParams(1, 0.4)
    assert np.max(np.abs(element_matrix(b, 3).matrix - phase_matrix(b, 3).matrix)) == 0


def test_mode_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        ModeUnitary(2, np.array([[1.0, 0.0], [0.0, 1.1]], dtype=complex))


def test_random_unitary_is_unitary_and_seeded():
    u1 = random_unitary(5, 9).matrix
    u2 = random_unitary(5, 9).matrix
    assert np.array_equal(u1, u2)
    assert np.max(np.abs(u1.conj().T @ u1 - np.eye(5))) < 1e-10


def _dense_product(network):
    # reference route: one dense N x N element matrix per element
    total = np.eye(network.mode_count, dtype=complex)
    for e in network.elements:
        total = element_matrix(e, network.mode_count).matrix @ total
    return total


def _random_network(rng, n):
    elements = []
    for _ in range(int(rng.integers(1, 12))):
        if n > 1 and rng.random() < 0.6:
            a, b = (int(m) for m in rng.choice(n, 2, replace=False))
            elements.append(BeamSplitterParams(a, b, *rng.uniform(-7.0, 7.0, 3)))
        else:
            elements.append(PhaseShifterParams(int(rng.integers(0, n)), rng.uniform(-7.0, 7.0)))
    return NetworkDescription(n, tuple(elements))


def test_compose_matches_dense_element_product():
    rng = np.random.default_rng(21)
    reversed_splitters = 0
    for _ in range(300):
        net = _random_network(rng, int(rng.integers(1, 7)))
        reversed_splitters += sum(
            1 for e in net.elements if isinstance(e, BeamSplitterParams) and e.mode_a > e.mode_b
        )
        # exact: the dense product only adds exact zeros to the touched rows
        assert np.array_equal(compose(net).matrix, _dense_product(net))
    assert reversed_splitters > 0


@pytest.mark.parametrize(
    "element",
    [BeamSplitterParams(0, 1, math.nan, 0.0, 0.0), PhaseShifterParams(1, math.nan)],
)
def test_compose_rejects_nan_angle(element):
    with pytest.raises(ValueError):
        compose(NetworkDescription(2, (element,)))
