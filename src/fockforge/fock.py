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

import math
from dataclasses import InitVar, dataclass

import numpy as np
from scipy.linalg import expm

DEFAULT_GUARD_BAND = 4


class CutoffOverflowError(ValueError):
    """A ladder operation tried to move amplitude outside the basis."""


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

    def admits(self, occ) -> bool:
        return sum(occ) <= self.max_total


@dataclass(frozen=True)
class PerModeCutoff:
    """Keep every occupation with each mode at most max_per_mode."""

    max_per_mode: int

    def __post_init__(self):
        if self.max_per_mode < 0:
            raise ValueError("max_per_mode must be non-negative")

    def admits(self, occ) -> bool:
        return all(n <= self.max_per_mode for n in occ)


def _compositions(total, parts, bound):
    if parts == 1:
        if total <= bound:
            yield (total,)
        return
    for first in range(min(total, bound) + 1):
        for rest in _compositions(total - first, parts - 1, bound):
            yield (first,) + rest


class FockBasis:
    """Ordered occupation-vector basis for a truncated Fock space."""

    def __init__(self, mode_count: int, policy):
        if mode_count < 1:
            raise ValueError("need at least one mode")
        if not isinstance(policy, (TotalPhotonCutoff, PerModeCutoff)):
            raise TypeError(f"unknown cutoff policy {policy!r}")
        self.mode_count = mode_count
        self.policy = policy
        if isinstance(policy, TotalPhotonCutoff):
            max_total = policy.max_total
            bound = policy.max_total
        else:
            max_total = policy.max_per_mode * mode_count
            bound = policy.max_per_mode
        occs = []
        for total in range(max_total + 1):
            occs.extend(_compositions(total, mode_count, bound))
        self.occupations: tuple[tuple[int, ...], ...] = tuple(occs)
        self.index: dict[tuple[int, ...], int] = {o: i for i, o in enumerate(occs)}
        self.dimension = len(occs)

    def index_of(self, occ) -> int:
        key = tuple(int(n) for n in occ)
        try:
            return self.index[key]
        except KeyError:
            raise KeyError(f"occupation {key} not in basis") from None

    def __contains__(self, occ) -> bool:
        return tuple(int(n) for n in occ) in self.index

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


def _check_same_basis(a, b):
    if a.basis != b.basis:
        raise PolicyMismatchError(f"bases differ: {a.basis} vs {b.basis}")


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

    def overlap(self, other: "PureState") -> complex:
        _check_same_basis(self, other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def to_mixed(self) -> "MixedState":
        return MixedState(self.basis, np.outer(self.amplitudes, self.amplitudes.conj()))


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
        w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        if w[0] < -1e-10:
            raise ValueError(f"negative eigenvalue {w[0]}")
        self.matrix = m

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclass
class FockOperator:
    """Matrix over a FockBasis.  Entries outside the basis are dropped by
    construction; anything that must not drop amplitude should go through
    the ladder application functions, which raise instead."""

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

    def apply(self, state: PureState) -> PureState:
        _check_same_basis(self, state)
        return PureState(self.basis, self.matrix @ state.amplitudes, unchecked=True)

    def compose(self, other: "FockOperator") -> "FockOperator":
        """self after other: (self.compose(other)).apply(s) = self(other(s))."""
        _check_same_basis(self, other)
        return FockOperator(self.basis, self.matrix @ other.matrix)


def vacuum_state(basis: FockBasis) -> PureState:
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[basis.index_of((0,) * basis.mode_count)] = 1.0
    return PureState(basis, amps)


def fock_state(basis: FockBasis, occupation) -> PureState:
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[basis.index_of(occupation)] = 1.0
    return PureState(basis, amps)


def coherent_state(alpha: complex, cutoff: int) -> PureState:
    """Truncated coherent state on a single mode.

    Amplitudes are the exact closed-form entries; the truncated tail mass
    is simply missing, so the norm is below one.  Choose the cutoff with
    a guard band above the photon numbers you care about.
    """
    basis = FockBasis(1, PerModeCutoff(cutoff))
    n = np.arange(cutoff + 1)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, cutoff + 1))))) if cutoff else np.zeros(1)
    amps = np.exp(-abs(alpha) ** 2 / 2.0) * np.power(complex(alpha), n) / np.exp(log_fact / 2.0)
    return PureState(basis, amps)


def tmsv_ladder(q: float, cutoff: int) -> list:
    """Amplitudes sqrt(1 - q^2) q^n, n = 0..cutoff, of the two-mode squeezed
    vacuum on |n, n>; the truncated tail is simply missing."""
    scale = math.sqrt(1.0 - q * q)
    return [scale * q**n for n in range(cutoff + 1)]


def _occ_step(occ, mode, delta):
    lst = list(occ)
    lst[mode] += delta
    return tuple(lst)


def apply_ladder(kind: str, mode: int, state: PureState) -> PureState:
    """Apply a single ladder operator to a state.

    kind is 'create' or 'annihilate'.  Creation raises
    CutoffOverflowError if any nonzero amplitude would leave the basis;
    truncation never silently eats photons.  Results are returned as
    unchecked vectors since ladder action rescales norms.
    """
    basis = state.basis
    if not 0 <= mode < basis.mode_count:
        raise IndexError(f"mode {mode} out of range for {basis.mode_count} modes")
    out = np.zeros(basis.dimension, dtype=complex)
    if kind == "create":
        for i, occ in enumerate(basis.occupations):
            amp = state.amplitudes[i]
            if amp == 0:
                continue
            target = _occ_step(occ, mode, +1)
            j = basis.index.get(target)
            if j is None:
                raise CutoffOverflowError(
                    f"creation on mode {mode} pushes occupation {occ} outside the basis"
                )
            out[j] += amp * math.sqrt(occ[mode] + 1)
    elif kind == "annihilate":
        for i, occ in enumerate(basis.occupations):
            amp = state.amplitudes[i]
            if amp == 0 or occ[mode] == 0:
                continue
            out[basis.index_of(_occ_step(occ, mode, -1))] += amp * math.sqrt(occ[mode])
    else:
        raise ValueError("kind must be 'create' or 'annihilate'")
    return PureState(basis, out, unchecked=True)


def apply_creation(state: PureState, mode: int) -> PureState:
    return apply_ladder("create", mode, state)


def apply_annihilation(state: PureState, mode: int) -> PureState:
    return apply_ladder("annihilate", mode, state)


def ladder_matrix(basis: FockBasis, mode: int, kind: str) -> FockOperator:
    """Matrix of a_mode (kind='annihilate') or a_mode^dagger ('create')
    restricted to the basis.  Rows that would leave the basis are dropped,
    matching the usual truncated-operator convention; use apply_creation
    when dropped amplitude must be an error instead."""
    if not 0 <= mode < basis.mode_count:
        raise IndexError(f"mode {mode} out of range for {basis.mode_count} modes")
    if kind not in ("create", "annihilate"):
        raise ValueError("kind must be 'create' or 'annihilate'")
    m = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for i, occ in enumerate(basis.occupations):
        if kind == "create":
            target = _occ_step(occ, mode, +1)
            j = basis.index.get(target)
            if j is not None:
                m[j, i] = math.sqrt(occ[mode] + 1)
        else:
            if occ[mode] > 0:
                j = basis.index_of(_occ_step(occ, mode, -1))
                m[j, i] = math.sqrt(occ[mode])
    return FockOperator(basis, m)


def number_polynomial(coeffs, mode: int, basis: FockBasis) -> FockOperator:
    """Diagonal operator sum_k coeffs[k] * n_mode^k."""
    if not 0 <= mode < basis.mode_count:
        raise IndexError(f"mode {mode} out of range for {basis.mode_count} modes")
    diag = np.zeros(basis.dimension, dtype=complex)
    for i, occ in enumerate(basis.occupations):
        n = occ[mode]
        diag[i] = sum(complex(c) * n**k for k, c in enumerate(coeffs))
    return FockOperator(basis, np.diag(diag))


def _generator(alpha: complex, dim: int) -> np.ndarray:
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)
    return alpha * a.conj().T - np.conjugate(alpha) * a


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
    d = expm(_generator(alpha, dim))
    g = cutoff - guard + 1
    if g <= 0:
        raise CutoffTooSmallError(
            f"cutoff {cutoff} leaves no guarded block below guard band {guard}"
        )
    pad = max(12, guard + 8)
    ref = expm(_generator(alpha, dim + pad))[:g, :g]
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
    while g <= 256:
        try:
            return displacement_operator(alpha, top_level + g, guard=g)
        except CutoffTooSmallError:
            g += 2
    raise CutoffTooSmallError(
        f"no guard band up to 256 certifies D({alpha}) through level {top_level}"
    )


def _tensor_basis(a: FockBasis, b: FockBasis) -> FockBasis:
    if not (isinstance(a.policy, PerModeCutoff) and isinstance(b.policy, PerModeCutoff)):
        raise PolicyMismatchError(
            "tensor products are defined for per-mode cutoffs; total-photon "
            "sectors are not closed under redistribution across the factors"
        )
    if a.policy.max_per_mode != b.policy.max_per_mode:
        raise PolicyMismatchError("per-mode cutoffs differ between the factors")
    return FockBasis(a.mode_count + b.mode_count, a.policy)


def tensor_product(a, b):
    """Tensor product of two states or two operators on per-mode bases.

    The result lives on the canonical combined FockBasis, so amplitudes
    are scattered to the (total, lex) order rather than Kronecker order.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        basis = _tensor_basis(a.basis, b.basis)
        out = np.zeros(basis.dimension, dtype=complex)
        for i, occ_a in enumerate(a.basis.occupations):
            amp_a = a.amplitudes[i]
            if amp_a == 0:
                continue
            for j, occ_b in enumerate(b.basis.occupations):
                amp_b = b.amplitudes[j]
                if amp_b == 0:
                    continue
                out[basis.index_of(occ_a + occ_b)] = amp_a * amp_b
        return PureState(basis, out)
    if isinstance(a, FockOperator) and isinstance(b, FockOperator):
        basis = _tensor_basis(a.basis, b.basis)
        out = np.zeros((basis.dimension, basis.dimension), dtype=complex)
        occs_a = a.basis.occupations
        occs_b = b.basis.occupations
        idx = basis.index_of
        for ra, occ_ra in enumerate(occs_a):
            for ca, occ_ca in enumerate(occs_a):
                va = a.matrix[ra, ca]
                if va == 0:
                    continue
                for rb, occ_rb in enumerate(occs_b):
                    for cb, occ_cb in enumerate(occs_b):
                        vb = b.matrix[rb, cb]
                        if vb == 0:
                            continue
                        out[idx(occ_ra + occ_rb), idx(occ_ca + occ_cb)] = va * vb
        return FockOperator(basis, out)
    if isinstance(a, MixedState) and isinstance(b, MixedState):
        op = tensor_product(FockOperator(a.basis, a.matrix), FockOperator(b.basis, b.matrix))
        return MixedState(op.basis, op.matrix)
    raise PolicyMismatchError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def partial_trace(state, keep_modes) -> MixedState:
    """Trace out every mode not listed in keep_modes.

    Accepts a MixedState or a PureState (promoted first).  The reduced
    basis keeps the same policy: both cutoff families are closed under
    dropping modes.
    """
    if isinstance(state, PureState):
        state = state.to_mixed()
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
    # group full-basis indices by the occupation pattern on the traced modes
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i, occ in enumerate(basis.occupations):
        env = tuple(occ[m] for m in traced)
        sub = tuple(occ[m] for m in keep)
        groups.setdefault(env, []).append((reduced.index_of(sub), i))
    out = np.zeros((reduced.dimension, reduced.dimension), dtype=complex)
    for members in groups.values():
        for ra, ia in members:
            row = state.matrix[ia]
            for rb, ib in members:
                out[ra, rb] += row[ib]
    return MixedState(reduced, out)
