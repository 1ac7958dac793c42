"""Truncated multimode Fock spaces: bases, states, operators.

Two truncation policies are supported.  For photon-number-conserving
circuits the total-photon cutoff is exact: a basis containing every
occupation with total photon number up to N is closed under any passive
network, so no amplitude is ever lost.  Elements that do not conserve
photon number (displacements, squeezed inputs) need the per-mode cutoff
together with a guard band of levels that are allowed to be inaccurate.

Basis order is ascending total photon number, lexicographic within each
total.  All index arithmetic in the package relies on this order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass

import numpy as np

DEFAULT_GUARD_BAND = 4


class CutoffTooSmallError(ValueError):
    """The requested truncation cannot deliver the accuracy contract."""


class PolicyMismatchError(TypeError):
    """Binary operation between states on incompatible bases."""


@dataclass(frozen=True)
class TotalPhotonCutoff:
    """Keep every occupation with total photon number <= max_total."""

    max_total: int

    def __post_init__(self):
        if self.max_total < 0:
            raise ValueError("max_total must be non-negative")


@dataclass(frozen=True)
class PerModeCutoff:
    """Keep every occupation with each mode at most max_per_mode."""

    max_per_mode: int

    def __post_init__(self):
        if self.max_per_mode < 0:
            raise ValueError("max_per_mode must be non-negative")


def _lookup(rows: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index in `rows` (occupations, the first of equal ones) of each
    occupation in `queries` (..., modes), entries below 256; arbitrary
    for one not there."""
    def keys(a):
        return np.ascontiguousarray(a, dtype=np.uint8).reshape(-1, rows.shape[1]).view(f"V{rows.shape[1]}").ravel()

    order = np.argsort(keys(rows), kind="stable")
    found = np.searchsorted(keys(rows)[order], keys(queries))
    return order[np.minimum(found, len(order) - 1)].reshape(queries.shape[:-1])


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise for complex (or real) arrays, each part rounded as
    a scalar product rounds it.  numpy's vector loop for complex products
    fuses their multiply-adds on FMA machines, which moves last bits."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


class FockBasis:
    """Ordered occupation-vector basis for a truncated Fock space.

    `occupations` is one read-only, C-contiguous uint8 array of shape
    (dimension, mode_count), a row per state in basis order; no mode holds
    more than 255 photons.  uint8 arithmetic wraps, so widen it (or read
    `.tolist()`) before computing with it.  `_lookup` finds rows in it;
    index_of and `in` take a sequence of ints."""

    def __init__(self, mode_count: int, policy):
        if mode_count < 1:
            raise ValueError("need at least one mode")
        if not isinstance(policy, (TotalPhotonCutoff, PerModeCutoff)):
            raise TypeError(f"unknown cutoff policy {policy!r}")
        self.mode_count = mode_count
        self.policy = policy
        total = isinstance(policy, TotalPhotonCutoff)
        bound = policy.max_total if total else policy.max_per_mode
        if bound > 255:
            raise ValueError(f"a mode holding {bound} photons does not fit the uint8 occupations")
        if total:
            # each state as its photons' modes, sorted: reversed, each total's
            # combinations come in lexicographic order of the counts per mode
            picks = [
                p for n in range(bound + 1)
                for p in reversed(list(itertools.combinations_with_replacement(range(mode_count), n)))
            ]
            sizes = np.fromiter(map(len, picks), dtype=np.intp, count=len(picks))
            cells = np.repeat(np.arange(len(picks)) * mode_count, sizes)
            cells += np.fromiter(itertools.chain.from_iterable(picks), dtype=np.intp, count=len(cells))
            occ = np.bincount(cells, minlength=len(picks) * mode_count).reshape(len(picks), mode_count)
        else:
            # the grid's rows in lexicographic order, stably sorted by total
            levels = bound + 1
            occ = np.arange(levels**mode_count)[:, None] // levels ** np.arange(mode_count - 1, -1, -1) % levels
            occ = occ[np.argsort(occ.sum(axis=1), kind="stable")]
        self.occupations = occ.astype(np.uint8)
        self.occupations.setflags(write=False)
        self.dimension = len(self.occupations)

    def index_of(self, occ) -> int:
        key = [int(n) for n in occ]
        if len(key) == self.mode_count and all(0 <= n < 256 for n in key):
            i = int(_lookup(self.occupations, np.array(key, dtype=np.uint8)))
            if self.occupations[i].tolist() == key:
                return i
        raise KeyError(f"occupation {tuple(key)} not in basis")

    def __contains__(self, occ) -> bool:
        try:
            return self.index_of(occ) >= 0
        except KeyError:
            return False

    def __eq__(self, other):
        return (
            isinstance(other, FockBasis)
            and self.mode_count == other.mode_count
            and self.policy == other.policy
        )

    def __hash__(self):
        return hash((self.mode_count, self.policy))

    def __repr__(self):
        return f"FockBasis(mode_count={self.mode_count}, policy={self.policy}, dimension={self.dimension})"


def block_spectrum(basis: FockBasis, matrix: np.ndarray, hermitian: bool) -> np.ndarray:
    """0 and the singular values (eigenvalues if `hermitian`) of a matrix on
    `basis`, one factorization per shape of its coupled blocks: rows and
    columns grouped by photon number, two groups joined by a nonzero block
    between them and, if `hermitian`, a number's row and column groups.
    Permuted (alike if `hermitian`), the matrix is their direct sum and 0.
    Up to 120 states one factorization of the whole costs less."""
    stacks = {matrix.shape: [matrix]}
    if basis.dimension > 120:
        totals = basis.occupations.sum(axis=1, dtype=np.intp)
        starts = np.flatnonzero(np.diff(totals, prepend=-1))  # every photon number from 0 up, in order
        s, eye = len(starts), np.eye(len(starts), dtype=bool)
        nz = np.logical_or.reduceat(np.logical_or.reduceat(matrix != 0, starts, axis=0), starts, axis=1) | (eye & hermitian)
        reach = np.linalg.matrix_power(np.block([[eye, nz], [nz.T, eye]]), 2 * s)  # row groups, then column groups
        label, stacks = reach.argmax(axis=1), {}
        for c in np.flatnonzero(label == np.arange(2 * s)):
            rows, cols = np.flatnonzero(label[totals] == c), np.flatnonzero(label[s + totals] == c)
            if len(rows) and len(cols):
                stacks.setdefault((len(rows), len(cols)), []).append(matrix[np.ix_(rows, cols)])
    values = (np.linalg.eigvalsh(b) if hermitian else np.linalg.svd(b, compute_uv=False) for b in map(np.stack, stacks.values()))
    return np.concatenate([np.zeros(1), *(v.ravel() for v in values)])


@dataclass
class PureState:
    """State vector over a FockBasis.

    Norm may be below one (conditioned states carry their success
    amplitude) but never above.  Operator application can produce vectors
    of larger norm (a number operator triples the norm of |3>); those are
    built with unchecked=True and are vectors rather than preparations.
    """

    basis: FockBasis
    amplitudes: np.ndarray
    unchecked: InitVar[bool] = False

    def __post_init__(self, unchecked):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.dimension,):
            raise ValueError(f"amplitude vector shape {amps.shape} does not match basis dimension {self.basis.dimension}")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("non-finite amplitude")
        if not unchecked:
            nrm = float(np.linalg.norm(amps))
            if nrm > 1.0 + 1e-12:
                raise ValueError(f"state norm {nrm} exceeds one")
        self.amplitudes = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "PureState":
        nrm = self.norm()
        if nrm < 1e-300:
            raise ValueError("cannot normalize a null state")
        return PureState(self.basis, self.amplitudes / nrm)


@dataclass
class MixedState:
    """Density matrix over a FockBasis.  Trace may be below one for
    conditioned states."""

    basis: FockBasis
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.basis.dimension
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match basis dimension {d}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("non-finite entry")
        if np.max(np.abs(m - m.conj().T)) > 1e-12 * max(1.0, float(np.max(np.abs(m)))):
            raise ValueError("density matrix is not hermitian")
        tr = float(np.trace(m).real)
        if tr > 1.0 + 1e-12:
            raise ValueError(f"trace {tr} exceeds one")
        w = float(block_spectrum(self.basis, (m + m.conj().T) / 2.0, hermitian=True).min())
        if w < -1e-10:
            raise ValueError(f"negative eigenvalue {w}")
        self.matrix = m

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclass
class FockOperator:
    """Matrix over a FockBasis.  Entries outside the basis are dropped by
    construction."""

    basis: FockBasis
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.basis.dimension
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match basis dimension {d}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("non-finite entry")
        self.matrix = m


def coherent_state(alpha: complex, cutoff: int) -> PureState:
    """Truncated coherent state on a single mode.

    Amplitudes are the exact closed-form entries; the truncated tail mass
    is simply missing, so the norm is below one.  Choose the cutoff with
    a guard band above the photon numbers you care about.  An amplitude
    whose ladder leaves the double range raises OverflowError.
    """
    basis = FockBasis(1, PerModeCutoff(cutoff))
    n = np.arange(cutoff + 1)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, cutoff + 1))))) if cutoff else np.zeros(1)
    try:  # |alpha|^2 overflows a Python float, alpha^n numpy's
        with np.errstate(over="raise", invalid="raise"):
            amps = np.exp(-abs(alpha) ** 2 / 2.0) * np.power(complex(alpha), n) / np.exp(log_fact / 2.0)
    except (OverflowError, FloatingPointError):
        raise OverflowError(f"coherent amplitude {complex(alpha)} at cutoff {cutoff} is beyond the double range") from None
    return PureState(basis, amps)


def tmsv_ladder(q: float, cutoff: int) -> list:
    """Amplitudes sqrt(1 - q^2) q^n, n = 0..cutoff, of the two-mode squeezed
    vacuum on |n, n>; the truncated tail is simply missing."""
    scale = math.sqrt(1.0 - q * q)
    return [scale * q**n for n in range(cutoff + 1)]


def number_polynomial(coeffs, mode: int, basis: FockBasis) -> FockOperator:
    """Diagonal operator sum_k coeffs[k] * n_mode^k."""
    if not 0 <= mode < basis.mode_count:
        raise IndexError(f"mode {mode} out of range for {basis.mode_count} modes")
    diag = [sum(complex(c) * n**k for k, c in enumerate(coeffs)) for n in basis.occupations[:, mode].tolist()]
    return FockOperator(basis, np.diag(np.array(diag, dtype=complex)))


def _displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """exp(alpha a^dag - alpha^* a) on levels < dim, as R D(|alpha|) R^dag.

    R = diag((alpha/|alpha|)^n) carries the phase; its cumulative product
    keeps +-1 and +-i exact.  D(|alpha|) is real: with S = diag(i^n),
    a^dag - a = -i S (a + a^dag) S^dag, so it is S V e^{-i|alpha|L} V^T S^dag
    for the eigendecomposition V L V^T of the real symmetric a + a^dag.
    """
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)
    lam, v = np.linalg.eigh(a + a.T)
    sv = np.cumprod(np.r_[1.0, np.full(dim - 1, 1j)])[:, None] * v
    real = ((sv * np.exp(-1j * abs(alpha) * lam)) @ sv.conj().T).real
    r = np.cumprod(np.r_[1.0, np.full(dim - 1, complex(alpha) / abs(alpha))])
    return real * np.outer(r, r.conj())


def displacement_operator(alpha: complex, cutoff: int, guard: int = DEFAULT_GUARD_BAND) -> FockOperator:
    """Displacement exp(alpha a^dag - alpha^* a) on the truncated mode.

    Built as the exponential of the truncated generator, so the matrix is
    exactly unitary on the truncated space and D(a) D(-a) composes to the
    identity at machine precision.  Entries inside the guarded block
    (occupations <= cutoff - guard) are checked against a recomputation on
    an enlarged space; if they deviate by more than 1e-10 the truncation
    is too tight for this alpha and CutoffTooSmallError is raised.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least one")
    if guard < 0:
        raise ValueError("guard must be non-negative")
    basis = FockBasis(1, PerModeCutoff(cutoff))
    if alpha == 0:
        return FockOperator(basis, np.eye(cutoff + 1, dtype=complex))
    dim = cutoff + 1
    d = _displacement_matrix(alpha, dim)
    g = cutoff - guard + 1
    if g <= 0:
        raise CutoffTooSmallError(
            f"cutoff {cutoff} leaves no guarded block below guard band {guard}"
        )
    pad = max(12, guard + 8)
    ref = _displacement_matrix(alpha, dim + pad)[:g, :g]
    dev = float(np.max(np.abs(d[:g, :g] - ref)))
    if dev > 1e-10:
        raise CutoffTooSmallError(
            f"guarded block of D({alpha}) at cutoff {cutoff} is off by {dev:.3e}; "
            "enlarge the guard band (the corruption depth grows with |alpha| "
            "and with the boundary occupation, so raising the cutoff alone "
            "does not help)"
        )
    return FockOperator(basis, d)


def displacement_operator_for(alpha: complex, top_level: int, guard: int = DEFAULT_GUARD_BAND) -> FockOperator:
    """Displacement certified accurate (1e-10) on occupations <= top_level.

    Grows the guard band until the construction self-check passes, so the
    caller never has to know how deep the boundary corruption reaches for
    this alpha.  The returned operator lives on cutoff = top_level + guard
    for the guard that was finally accepted.
    """
    g = max(1, guard)
    while top_level + g <= 255:  # the most photons a basis holds in a mode
        try:
            return displacement_operator(alpha, top_level + g, guard=g)
        except CutoffTooSmallError:
            g += 2
    raise CutoffTooSmallError(
        f"no guard band up to {255 - top_level} certifies D({alpha}) through level {top_level}"
    )


def partial_trace(state, keep_modes) -> MixedState:
    """Trace out every mode not listed in keep_modes.

    Accepts a MixedState or a PureState (promoted first).  The reduced
    basis keeps the same policy: both cutoff families are closed under
    dropping modes.
    """
    if isinstance(state, PureState):
        state = MixedState(state.basis, np.outer(state.amplitudes, state.amplitudes.conj()))
    if not isinstance(state, MixedState):
        raise TypeError("partial_trace expects a MixedState or PureState")
    basis = state.basis
    keep = sorted(set(int(k) for k in keep_modes))
    if not keep:
        raise ValueError("must keep at least one mode")
    for k in keep:
        if not 0 <= k < basis.mode_count:
            raise IndexError(f"mode {k} out of range for {basis.mode_count} modes")
    if len(keep) == basis.mode_count:
        return state
    reduced = FockBasis(len(keep), basis.policy)
    traced = [m for m in range(basis.mode_count) if m not in keep]
    subs = _lookup(reduced.occupations, basis.occupations[:, keep]).tolist()
    # group full-basis indices by the occupation pattern on the traced modes
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i, env in enumerate(basis.occupations[:, traced].tolist()):
        groups.setdefault(tuple(env), []).append((subs[i], i))
    out = np.zeros((reduced.dimension, reduced.dimension), dtype=complex)
    for members in groups.values():
        for ra, ia in members:
            row = state.matrix[ia]
            for rb, ib in members:
                out[ra, rb] += row[ib]
    return MixedState(reduced, out)
