"""Matrix permanents and the bounds they obey on unitary blocks.

Every conditional amplitude in this package equals a permanent of a
submatrix of the mode transformation, with rows and columns repeated
according to the output and input occupations; tests/oracles.py holds
conditioning.ConditionalExtractor's recurrence to them.  Two independent
code paths are kept on purpose: a kernel on Glynn's formula (Glynn, Eur.
J. Combin. 31, 1887 (2010)) used everywhere, and a brute-force expansion
over permutations that serves as the oracle in the test suite.  Do not
merge them.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

MAX_DIMENSION = 30
MAX_NAIVE_DIMENSION = 9

# Glynn's sign vectors: entry (i, k) is the sign of matrix row i in sign
# vector k.  Rows 1..10 hold the bits of k; row 0 and the rows the
# kernel's Gray walk flips start at +1.  A block of 2^10 sign vectors
# keeps the kernel's working set under a megabyte at dimension 30.
_BLOCK_ROWS = 10
_SIGNS = np.ones((MAX_DIMENSION, 1 << _BLOCK_ROWS), dtype=complex)
_SIGNS[1:1 + _BLOCK_ROWS] -= 2.0 * ((np.arange(1 << _BLOCK_ROWS) >> np.arange(_BLOCK_ROWS)[:, None]) & 1)
_SIGN_PRODUCTS = _SIGNS.prod(axis=0)


class PermanentSizeError(ValueError):
    """Matrix dimension outside the supported range."""


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PermanentSizeError(f"expected a square matrix, got shape {a.shape}")
    return a


def _per_flat(a: list[complex], n: int) -> complex:
    """Permanent of an n x n matrix stored row-major in a flat list."""
    return 1.0 + 0.0j if n == 0 else _glynn(a, n)


def _glynn(a: list[complex], n: int) -> complex:
    # per(A) = 2^(1-n) sum_{d, d_0 = +1} (prod_i d_i) prod_j sum_i d_i a_ij.
    # Column k of the block is sum_i d_i a_ij for the k-th sign pattern of
    # rows 1..b; the rows after them are flipped in Gray order, one per
    # step, so their prod_i d_i alternates with the step.
    m = np.array(a, dtype=complex).reshape(n, n)
    b = min(n - 1, _BLOCK_ROWS)
    size = 1 << b
    weights = _SIGN_PRODUCTS[:size]
    block = m.T @ _SIGNS[:n, :size]
    flips = 2.0 * m[1 + b:, :, None]
    # Neumaier-compensated sums of the steps' terms, by component
    s_re = s_im = c_re = c_im = 0.0
    for k in range(1 << (n - 1 - b)):
        if k:
            # step k flips row j; bit j of k's Gray code is set when d_j = -1
            j = (k & -k).bit_length() - 1
            block += -flips[j] if (k ^ k >> 1) >> j & 1 else flips[j]
        term = complex(np.prod(block, axis=0) @ weights) * (-1.0 if k & 1 else 1.0)
        t = s_re + term.real
        c_re += (s_re - t) + term.real if abs(s_re) >= abs(term.real) else (term.real - t) + s_re
        s_re = t
        t = s_im + term.imag
        c_im += (s_im - t) + term.imag if abs(s_im) >= abs(term.imag) else (term.imag - t) + s_im
        s_im = t
    return complex(s_re + c_re, s_im + c_im) / (1 << (n - 1))


def _ordered_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis in index order.

    numpy's sum and prod reductions pick their loop, and with it the
    association order and whether a complex product is fused, from the
    array's shape, so a row's result could change with the stack around
    it.  A cumulative sum is sequential by definition, and elementwise
    operations act on every element alike.
    """
    return a.cumsum(axis=-1)[..., -1]


def permanent_ryser(m) -> complex:
    """Permanent by the package's fast kernel.

    The name is kept from the Ryser evaluator this kernel replaced; it
    evaluates Glynn's formula over 2^(n-1) sign vectors, a dense block of
    2^10 at a time, with compensated (Neumaier) accumulation of the
    blocks' sums.  On a 2-core x86 machine with one BLAS thread a complex
    Gaussian matrix took 0.03 s at n = 20, 2.5 s at n = 26, 11 s at
    n = 28 and 49 s at n = 30, with peak memory flat across those sizes.
    Dimensions above 30 are rejected.

    The kernel's sums hold per(A) 2^(n-1).  When they overflow, the
    kernel runs again with each row scaled by an exact power of two to a
    largest real or imaginary part in [1/2, 1), and the exponents are
    restored at the end, so the result is finite whenever per(A) is a
    double; one beyond that range raises OverflowError.  A matrix whose
    first run is finite is never scaled.
    """
    a = _as_square(m)
    n = a.shape[0]
    if n > MAX_DIMENSION:
        raise PermanentSizeError(f"dimension {n} exceeds the supported maximum {MAX_DIMENSION}")
    with np.errstate(over="ignore", invalid="ignore"):
        value = _per_flat(list(a.ravel()), n)
    if cmath.isfinite(value) or not np.isfinite(a).all():
        return value
    top = np.maximum(np.abs(a.real), np.abs(a.imag)).max(axis=1)
    exponents = np.frexp(top)[1][:, None]
    scaled = np.ldexp(a.real, -exponents) + 1j * np.ldexp(a.imag, -exponents)
    value, shift = _per_flat(list(scaled.ravel()), n), int(exponents.sum())
    try:
        return complex(math.ldexp(value.real, shift), math.ldexp(value.imag, shift))
    except OverflowError:
        raise OverflowError("permanent is beyond the double range") from None


def permanent_naive(m) -> complex:
    """Permanent by explicit expansion over all permutations.

    Oracle path, O(n * n!).  Refuses dimensions above 9.
    """
    a = _as_square(m)
    n = a.shape[0]
    if n > MAX_NAIVE_DIMENSION:
        raise PermanentSizeError(f"naive expansion limited to dimension {MAX_NAIVE_DIMENSION}, got {n}")
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    rows = range(n)
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for i in rows:
            prod *= a[i, perm[i]]
        total += prod
    return total


def subpermanent(m, drop_rows, drop_cols) -> complex:
    """Permanent of the matrix with the given rows and columns deleted.

    ``per L(i|j)`` in the conditional-operator formulas is
    ``subpermanent(L, [i], [j])`` with zero-based indices.
    """
    a = _as_square(m)
    n = a.shape[0]
    drop_rows = sorted(set(int(i) for i in drop_rows))
    drop_cols = sorted(set(int(j) for j in drop_cols))
    for i in drop_rows:
        if not 0 <= i < n:
            raise IndexError(f"row {i} out of range for dimension {n}")
    for j in drop_cols:
        if not 0 <= j < n:
            raise IndexError(f"column {j} out of range for dimension {n}")
    if len(drop_rows) != len(drop_cols):
        raise ValueError("must delete as many rows as columns")
    keep_r = [i for i in range(n) if i not in drop_rows]
    keep_c = [j for j in range(n) if j not in drop_cols]
    sub = a[np.ix_(keep_r, keep_c)]
    return permanent_ryser(sub)


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    # QR of a complex Ginibre matrix with the phase convention fixed so
    # the distribution is Haar, not merely unitary.
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@dataclass(frozen=True)
class PermanentBoundsReport:
    """Worst margins observed while sampling the appendix inequalities."""

    dimension: int
    samples: int
    max_abs_permanent: float
    max_abs_subpermanent: float
    max_marcus_newman_ratio: float
    max_su3_phase_ratio: float
    unitary_bound_violations: int
    marcus_newman_violations: int
    su3_bound_violations: int


def check_appendix_bounds(dimension: int = 7, samples: int = 200, seed: int = 0) -> PermanentBoundsReport:
    """Sample Haar unitaries and random factor pairs against the known bounds.

    Checks, per sample:

    * |per U| <= 1 for Haar U of the requested dimension,
    * |per U(1|1)| <= 1 for the principal subpermanent,
    * |per AB|^2 <= per(AA*) per(B*B) for Gaussian A (m x n), B (n x m),
    * |2 L12 L21 L13 L31| <= 8 / (27 |L11|^2) on 3 x 3 Haar unitaries.

    Returns worst ratios and violation counts.
    """
    if not 1 <= dimension <= 7:
        raise ValueError("bounds check supports dimensions 1..7")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    tol = 1e-10
    max_per = 0.0
    max_sub = 0.0
    max_mn = 0.0
    max_su3 = 0.0
    viol_unitary = 0
    viol_mn = 0
    viol_su3 = 0
    for _ in range(samples):
        u = _haar_unitary(dimension, rng)
        p = abs(permanent_ryser(u))
        max_per = max(max_per, p)
        if p > 1.0 + tol:
            viol_unitary += 1
        if dimension >= 2:
            s = abs(subpermanent(u, [0], [0]))
            max_sub = max(max_sub, s)
            if s > 1.0 + tol:
                viol_unitary += 1

        m = int(rng.integers(1, dimension + 1))
        n = int(rng.integers(1, dimension + 1))
        a = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / math.sqrt(2.0)
        b = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / math.sqrt(2.0)
        lhs = abs(permanent_ryser(a @ b)) ** 2
        # Gram matrices on the m-side for both factors; the n x n form
        # B B* fails the inequality whenever m < n
        rhs = permanent_ryser(a @ a.conj().T).real * permanent_ryser(b.conj().T @ b).real
        ratio = lhs / rhs if rhs > 0 else math.inf
        max_mn = max(max_mn, ratio)
        if lhs > rhs * (1.0 + 1e-9) + 1e-12:
            viol_mn += 1

        v = _haar_unitary(3, rng)
        lam11 = abs(v[0, 0])
        if lam11 > 1e-6:
            lhs3 = abs(2.0 * v[0, 1] * v[1, 0] * v[0, 2] * v[2, 0])
            bound3 = 8.0 / (27.0 * lam11 ** 2)
            ratio3 = lhs3 / bound3
            max_su3 = max(max_su3, ratio3)
            if lhs3 > bound3 + 1e-10:
                viol_su3 += 1
    return PermanentBoundsReport(
        dimension=dimension,
        samples=samples,
        max_abs_permanent=max_per,
        max_abs_subpermanent=max_sub,
        max_marcus_newman_ratio=max_mn,
        max_su3_phase_ratio=max_su3,
        unitary_bound_violations=viol_unitary,
        marcus_newman_violations=viol_mn,
        su3_bound_violations=viol_su3,
    )
