import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockforge.interferometer import random_unitary
from fockforge.permanent import (
    MAX_DIMENSION,
    PermanentSizeError,
    check_appendix_bounds,
    permanent_naive,
    permanent_ryser,
    repeated_index_permanent,
    subpermanent,
)
from fockforge.conditioning import fock_lift_amplitude

from oracles import permanent_expansion


def _random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def ryser_gray(m) -> complex:
    """Reference route: Ryser's formula over column subsets in Gray-code
    order, per(A) = (-1)^n sum_{S != 0} (-1)^|S| prod_i sum_{j in S} a_ij.
    It shares no code with the package's Glynn kernel."""
    a = np.asarray(m, dtype=complex)
    n = a.shape[0]
    row_sums = [0j] * n
    total = 0j
    size = 0
    for k in range(1, 1 << n):
        bit = k & -k
        j = bit.bit_length() - 1
        step = 1 if (k ^ (k >> 1)) & bit else -1
        size += step
        for i in range(n):
            row_sums[i] += step * a[i, j]
        prod = 1 + 0j
        for i in range(n):
            prod *= row_sums[i]
        total += -prod if size & 1 else prod
    return -total if n & 1 else total


def test_known_small_values():
    assert permanent_ryser(np.array([[3.0 + 0j]])) == 3.0
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert abs(permanent_ryser(m) - 10.0) < 1e-12
    ones = np.ones((4, 4), dtype=complex)
    assert abs(permanent_ryser(ones) - math.factorial(4)) < 1e-10


def test_ryser_matches_naive_up_to_nine():
    for n in range(1, 10):
        for seed in range(3):
            m = _random_complex(n, 100 * n + seed)
            a = permanent_ryser(m)
            b = permanent_naive(m)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


@pytest.mark.parametrize("n", range(10, 17))
def test_kernel_matches_gray_code_ryser(n):
    # n = 12 is the first size with rows left over for the kernel's Gray walk
    m = _random_complex(n, 900 + n) / math.sqrt(2.0)
    ref = ryser_gray(m)
    assert abs(permanent_ryser(m) - ref) <= 1e-10 * abs(ref)


def test_kernel_closed_forms_at_twenty():
    n = 20
    ones = np.ones((n, n), dtype=complex)
    assert abs(permanent_ryser(ones) - math.factorial(n)) <= 1e-12 * math.factorial(n)
    rng = np.random.default_rng(20)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rank_one = math.factorial(n) * np.prod(u) * np.prod(v)
    assert abs(permanent_ryser(np.outer(u, v)) - rank_one) <= 1e-10 * abs(rank_one)
    blocks = [_random_complex(k, 40 + k) for k in (9, 6, 5)]
    diag = np.zeros((n, n), dtype=complex)
    start = 0
    for b in blocks:
        diag[start:start + len(b), start:start + len(b)] = b
        start += len(b)
    product = math.prod(permanent_naive(b) for b in blocks)
    assert abs(permanent_ryser(diag) - product) <= 1e-10 * abs(product)
    haar = random_unitary(n, 5).matrix
    assert abs(permanent_ryser(haar)) <= 1.0


def test_ryser_matches_polynomial_expansion_oracle():
    for n in range(1, 5):
        u = random_unitary(n, n).matrix
        assert abs(permanent_ryser(u) - permanent_expansion(u)) < 1e-10


def test_size_limits():
    with pytest.raises(PermanentSizeError):
        permanent_naive(np.eye(10, dtype=complex))
    with pytest.raises(PermanentSizeError):
        permanent_ryser(np.eye(31, dtype=complex))


def test_lift_amplitude_refuses_a_permanent_above_the_maximum():
    # the per-entry permanent route; the extractor's photon cap is its own
    u = random_unitary(2, 1)
    with pytest.raises(PermanentSizeError, match=str(MAX_DIMENSION)):
        fock_lift_amplitude(u, (MAX_DIMENSION + 1, 0), (0, MAX_DIMENSION + 1))


def test_subpermanent_expands_by_minors():
    m = _random_complex(4, 7)
    # Laplace-style expansion of the permanent along the first row
    total = sum(m[0, j] * subpermanent(m, [0], [j]) for j in range(4))
    assert abs(total - permanent_ryser(m)) < 1e-10


def test_repeated_index_permanent_matches_explicit_expansion():
    m = _random_complex(3, 11)
    big = m[np.ix_([0, 0, 1, 2], [0, 1, 1, 2])]
    direct = permanent_ryser(big)
    packed = repeated_index_permanent(m, (2, 1, 1), (1, 2, 1))
    assert abs(direct - packed) < 1e-10


def test_repeated_index_rejects_mismatched_totals():
    m = _random_complex(3, 1)
    with pytest.raises(ValueError):
        repeated_index_permanent(m, (2, 0, 0), (1, 0, 0))


def test_appendix_bounds_clean_on_defaults():
    rep = check_appendix_bounds(7, 300, 0)
    assert rep.unitary_bound_violations == 0
    assert rep.marcus_newman_violations == 0
    assert rep.su3_bound_violations == 0
    assert rep.max_abs_permanent <= 1.0 + 1e-12
    assert rep.max_abs_subpermanent <= 1.0 + 1e-12
    assert rep.max_marcus_newman_ratio <= 1.0 + 1e-9
    assert rep.max_su3_phase_ratio <= 1.0 + 1e-10


def test_appendix_bounds_rejects_large_dimension():
    with pytest.raises(ValueError):
        check_appendix_bounds(8, 10, 0)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_permanent_is_permutation_invariant(n, seed):
    m = _random_complex(n, seed)
    rng = np.random.default_rng(seed + 1)
    pr = rng.permutation(n)
    pc = rng.permutation(n)
    a = permanent_ryser(m)
    b = permanent_ryser(m[np.ix_(pr, pc)])
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=1000),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=30, deadline=None)
def test_permanent_is_linear_in_one_row(n, seed, scale):
    m = _random_complex(n, seed)
    scaled = m.copy()
    scaled[0] *= scale
    a = permanent_ryser(m)
    b = permanent_ryser(scaled)
    assert abs(b - scale * a) <= 1e-9 * max(1.0, abs(scale) * abs(a))


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_transpose_invariance(n, seed):
    m = _random_complex(n, seed)
    a = permanent_ryser(m)
    b = permanent_ryser(m.T)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_kernel_reaches_the_double_range():
    # the kernel's sums hold per * 2^(n-1); rows scaled by powers of two
    # keep them finite wherever the permanent itself is a double
    with np.errstate(over="raise", invalid="raise"):
        v = permanent_ryser(np.eye(12) * 2.610157215682544e25)
        assert abs(v - 1e305) <= 1e-12 * 1e305
        # one row near the top of the range and the rest small: every
        # unscaled term would overflow, the permanent does not
        m = _random_complex(7, 3)
        m[0] *= 1e300
        m[1:] *= 1e-10
        assert abs(permanent_ryser(m) - permanent_naive(m)) <= 1e-12 * abs(permanent_naive(m))
        # a first run that is finite stands: scaling this matrix's rows by
        # their largest entries would flush 1e-300 to zero
        assert permanent_ryser([[1e300, 1e-300], [1e300, 0.0]]) == 1.0
        # an entry near the top of the range, whose modulus overflows
        assert permanent_ryser([[1.7e308 + 1.7e308j]]) == 1.7e308 + 1.7e308j
    with pytest.raises(OverflowError, match="beyond the double range"):
        permanent_ryser(np.eye(12) * 1e30)
