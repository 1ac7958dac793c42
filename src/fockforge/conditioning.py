"""Conditional operators from post-selected linear networks.

A passive network with mode matrix L sends a_j^dag to sum_l L_lj a_l^dag.
Injecting an ancilla on the auxiliary modes and projecting them on
detector outcomes leaves a non-unitary operator Y on the signal modes:

    Y[out, in] = <out, det| U(L) |in, aux>

computed exactly in each photon-number sector by a creation recurrence
(ConditionalExtractor).  Y is linear in the ancilla ket, so one extractor
serves a Fock ancilla (AncillaSpec) and a superposed one (PureState),
the amplitude-weighted sum of its Fock components.  Every Fock operator
the package uses is such an extraction: the unitary lift is the
extraction with no ancilla, and an absorbing splitter's Kraus blocks are
slices of its dilation's lift (see lossy).  The tests cross-check them
against tests/oracles.py, which expands them as polynomials in creation
operators, and which also keeps a per-entry loop of permanents with
repeated indices, through the flat kernel, as a second route.

Y is stored exactly as projected, sub-normalized.  Success probabilities
then compose across interferometer arms by plain multiplication.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    FockBasis,
    FockOperator,
    PolicyMismatchError,
    PureState,
    TotalPhotonCutoff,
    block_spectrum,
)
from .interferometer import ModeUnitary, random_unitary
from .permanent import _ordered_sum

# unused here: imported only so that perfbench/tracing.py's WRAPPED names resolve
from .permanent import _per_flat  # noqa: F401

# The size model (README, "Limits"), checked before anything is built.
# Largest output basis: a dense square of 2^20 amplitudes, 16 MiB.
MAX_DENSE_DIMENSION = 1024
# Most photons in any entry: up to here the recurrence holds a lift's
# top-sector unitarity within 1e-10.
MAX_PHOTONS = 40
# A recurrence level gathers (B, nodes, states, slots) terms for at most
# this many at a time, 256 kB of complex values.
_CHUNK = 1 << 14
# Most multiply-adds an extractor's recurrence may do on one mode matrix
# (recurrence_work); the largest lift within MAX_DENSE_DIMENSION does
# 2.20e6 (10 modes, cutoff 4).
MAX_RECURRENCE_WORK = 5 * 10**6


@dataclass(frozen=True)
class AncillaSpec:
    """Photon count injected into each auxiliary mode."""

    counts: tuple

    def __post_init__(self):
        c = tuple(int(n) for n in self.counts)
        if any(n < 0 for n in c):
            raise ValueError("ancilla counts must be non-negative")
        object.__setattr__(self, "counts", c)


@dataclass(frozen=True)
class DetectionSpec:
    """Photon count required on each auxiliary-mode detector."""

    counts: tuple

    def __post_init__(self):
        c = tuple(int(n) for n in self.counts)
        if any(n < 0 for n in c):
            raise ValueError("detection counts must be non-negative")
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return sum(self.counts)


def _as_matrix(u) -> np.ndarray:
    if isinstance(u, ModeUnitary):
        return u.matrix
    m = np.asarray(u, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square mode matrix")
    return m


def _lookup(rows: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index in `rows` (occupations, the first of equal ones) of each
    occupation in `queries` (..., modes), entries below 256; arbitrary
    for one not there."""
    def keys(a):
        return np.ascontiguousarray(a, dtype=np.uint8).reshape(-1, rows.shape[1]).view(f"V{rows.shape[1]}").ravel()

    order = np.argsort(keys(rows), kind="stable")
    found = np.searchsorted(keys(rows)[order], keys(queries))
    return order[np.minimum(found, len(order) - 1)].reshape(queries.shape[:-1])


def recurrence_work(signal_modes: int, cutoff: int, ancilla_photons, detection) -> int:
    """Multiply-adds of ConditionalExtractor's recurrence on one mode
    matrix, from sector sizes alone: on each photon level k, its column
    nodes (each ancilla component's chain, then its signal columns) times
    its states (signal occupations beside auxiliary ones at or below
    `detection`) times min(modes, k).  `ancilla_photons` holds each
    component's photon total.  OverflowError above MAX_RECURRENCE_WORK."""
    sector = [math.comb(n + signal_modes - 1, n) for n in range(cutoff + 1)]
    states = sector  # by photon level; each detector of n photons spreads them over n + 1 levels
    for n in detection:
        states = [sum(states[max(0, k - n) : k + 1]) for k in range(len(states) + n)]
    nodes = [0] * len(states)  # column nodes by photon level
    for a in ancilla_photons:
        top = min(cutoff, cutoff + sum(detection) - a)  # signal columns up to `top` photons
        if top >= sum(detection) - a:  # else no output row: the component has no nodes
            for k in range(a + top + 1):
                nodes[k] += sector[k - a] if k >= a else 1
    work = sum(n * s * min(signal_modes + len(detection), k) for k, (n, s) in enumerate(zip(nodes, states)))
    if work > MAX_RECURRENCE_WORK:
        raise OverflowError(
            f"recurrence work {work:.3g} ({signal_modes} signal modes, cutoff {cutoff}) is above "
            f"the extractor's limit of {MAX_RECURRENCE_WORK:.3g}"
        )
    return work


def check_size(modes: int, cutoff: int, photons: int) -> None:
    """OverflowError for entries of more than MAX_PHOTONS photons, or for a
    total-photon basis of `modes` modes at `cutoff` of more than
    MAX_DENSE_DIMENSION states."""
    if photons > MAX_PHOTONS:
        raise OverflowError(f"{photons} photons ({modes} modes, cutoff {cutoff}) are above the photon cap of {MAX_PHOTONS}")
    dim = math.comb(modes + cutoff, cutoff)
    if dim > MAX_DENSE_DIMENSION:
        raise OverflowError(f"basis dimension {dim} ({modes} modes, cutoff {cutoff}) is above the dense limit of {MAX_DENSE_DIMENSION}")


class ConditionalExtractor:
    """Extraction tables for one (network shape, ancilla, detection,
    cutoff) combination.

    The ancilla is an AncillaSpec (one Fock component of amplitude 1) or a
    PureState on the auxiliary modes (its nonzero components extracted
    together, weighted and summed).  Only exactly-zero components are
    left out; one whose photon surplus cannot fit under the cutoff is
    rejected rather than silently dropped, so crop the state first if its
    tail may go.

    The entries come from the creation recurrence (Miatto & Quesada,
    Quantum 4, 366 (2020)): <t|U|n> = sum_m L_mj sqrt(t_m) <t - e_m|U|n -
    e_j> / sqrt(n_j).  Each input column is built from its parent, first
    the ancilla photons one at a time, then the signal basis, which is
    closed under lowering, on the states an output row can pass through:
    each signal occupation within the cutoff beside each auxiliary one at
    or below the detection pattern.

    Before anything is built, OverflowError refuses a signal basis of more
    than MAX_DENSE_DIMENSION states, an entry of more than MAX_PHOTONS
    photons (check_size) and a recurrence above MAX_RECURRENCE_WORK
    (recurrence_work).  Within the photon cap the entries keep exact
    identities, such as a lift's top-sector unitarity and the completeness
    sum over detector outcomes, within 1e-10.
    """

    def __init__(self, mode_count: int, signal_modes, ancilla, det: DetectionSpec, signal_cutoff: int):
        signal = tuple(int(s) for s in signal_modes)
        if len(set(signal)) != len(signal):
            raise ValueError("signal modes repeat")
        if any(not 0 <= s < mode_count for s in signal):
            raise IndexError("signal mode out of range")
        aux_modes = tuple(m for m in range(mode_count) if m not in signal)
        if isinstance(ancilla, AncillaSpec):
            components = [(1, ancilla.counts)]
        elif isinstance(ancilla, PureState):
            if ancilla.basis.mode_count != len(aux_modes):
                raise ValueError(f"ancilla state has {ancilla.basis.mode_count} modes, need {len(aux_modes)}")
            components = [(complex(a), occ) for occ, a in zip(ancilla.basis.occupations, ancilla.amplitudes) if a != 0]
            if not components:
                raise ValueError("ancilla state is identically zero")
        else:
            raise TypeError("ancilla must be an AncillaSpec or a PureState")
        if len(components[0][1]) != len(aux_modes) or len(det.counts) != len(aux_modes):
            raise ValueError(
                f"ancilla/detection specs must cover the {len(aux_modes)} non-signal modes"
            )
        if signal_cutoff < 0:
            raise ValueError("signal cutoff must be non-negative")
        imbalance = max(sum(counts) for _, counts in components) - det.total
        self.faithful_input_levels = signal_cutoff - max(imbalance, 0)
        if self.faithful_input_levels < 0:
            raise ValueError(
                f"signal cutoff {signal_cutoff} cannot hold the {imbalance} photons "
                "added by the ancilla/detection imbalance"
            )
        # the top entry holds cutoff + min(a, detected) photons, over the
        # components of a photons with an output row
        totals = [sum(counts) for _, counts in components]
        surplus = max((min(a, det.total) for a in totals if signal_cutoff + a >= det.total), default=0)
        check_size(len(signal), signal_cutoff, signal_cutoff + surplus)
        recurrence_work(len(signal), signal_cutoff, totals, det.counts)
        self.mode_count = mode_count
        self.signal_modes = signal
        self.aux_modes = aux_modes
        self.signal_basis = FockBasis(len(signal), TotalPhotonCutoff(signal_cutoff))
        self._amplitudes = [amp for amp, _ in components]
        dim = self.signal_basis.dimension
        occs = np.array(self.signal_basis.occupations, dtype=np.intp).reshape(dim, len(signal))
        totals = occs.sum(axis=1)
        # the tables number the modes signal first, then auxiliary
        self._local = np.array(signal + aux_modes, dtype=np.intp)

        # nodes: each component's input columns, then its ancilla chain
        # (component -1), the auxiliary modes filled in order from vacuum
        nodes, comps, cols = [], [], []
        for c, (_, counts) in enumerate(components):
            top = min(signal_cutoff, signal_cutoff + det.total - sum(counts))
            if top < det.total - sum(counts):
                continue  # no output row in any sector: the part stays zero
            n = int(np.searchsorted(totals, top, side="right"))
            chain = np.zeros((sum(counts), mode_count), dtype=np.intp)
            chain[np.arange(1, sum(counts)), len(signal) + np.repeat(np.arange(len(aux_modes)), counts)[:-1]] = 1
            nodes += [np.hstack([occs[:n], np.tile(np.array(counts, dtype=np.intp), (n, 1))]), chain.cumsum(axis=0)]
            comps += [np.full(n, c), np.full(len(chain), -1)]
            cols += [np.arange(n), np.zeros(len(chain), dtype=np.intp)]
        self._levels = []
        if not nodes:
            return
        nodes, comps, cols = (np.concatenate(a) for a in (nodes, comps, cols))
        # nodes by photon level, each level's output columns first
        node_levels = nodes.sum(axis=1)
        by_level = np.argsort(2 * node_levels + (comps < 0), kind="stable")
        nodes, comps, cols, node_levels = nodes[by_level], comps[by_level], cols[by_level], node_levels[by_level]
        top = int(node_levels[-1])
        # each node's parent lowers its last occupied mode in the order
        # (auxiliary, signal): signal photons go before ancilla photons
        order = np.roll(np.arange(mode_count), len(aux_modes))[::-1]
        lowered = order[np.argmax(nodes[:, order] > 0, axis=1)]
        parents = _lookup(nodes, nodes.astype(np.uint8) - (lowered[:, None] == np.arange(mode_count)))
        inv = 1.0 / np.sqrt(np.maximum(nodes[np.arange(len(nodes)), lowered], 1))

        # states: every signal occupation beside every auxiliary occupation
        # at or below the detection pattern, up to the top node level, by
        # level with each level's output rows first
        aux = list(itertools.product(*(range(n + 1) for n in det.counts)))
        aux = np.array(aux, dtype=np.intp).reshape(len(aux), len(aux_modes))
        states = np.hstack([np.repeat(occs, len(aux), axis=0), np.tile(aux, (dim, 1))])
        outputs = (states[:, len(signal) :] == det.counts).all(axis=1)
        state_levels = states.sum(axis=1)
        keep = np.flatnonzero(state_levels <= top)
        keep = keep[np.argsort(2 * state_levels[keep] + ~outputs[keep], kind="stable")]
        states, outputs, state_levels, rows = states[keep], outputs[keep], state_levels[keep], keep // len(aux)
        # slot i of a state: its i-th occupied mode, the sqrt weight, and
        # the state one photon lower there; a slot past the occupied modes
        # has weight 0
        slots = np.argsort(states == 0, axis=1, kind="stable")[:, : min(mode_count, top)]
        weights = np.sqrt(np.take_along_axis(states, slots, axis=1))
        below = _lookup(states, states.astype(np.uint8)[:, None, :] - (slots[:, :, None] == np.arange(mode_count)))

        # parents and lowered states as indices into the level below
        node_starts = np.searchsorted(node_levels, np.arange(top + 2))
        state_starts = np.searchsorted(state_levels, np.arange(top + 2))
        parents -= node_starts[np.maximum(node_levels - 1, 0)]
        below = np.where(weights > 0, below - state_starts[np.maximum(state_levels - 1, 0), None], 0)
        out_nodes = np.concatenate([[0], np.cumsum(comps >= 0)])[node_starts]
        out_states = np.concatenate([[0], np.cumsum(outputs)])[state_starts]
        # flat offsets into the (component, row, column) parts: an output
        # column's component and column, an output state's row
        cols = comps * dim * dim + cols
        rows *= dim
        # per level: the parents, lowered modes and 1/sqrt(n_j) of its
        # nodes, the gathers, slot modes and weights of its states, and the
        # offsets of its output columns (c, 1) and rows (r,)
        for k in range(top + 1):
            (n0, n1), (t0, t1), w = node_starts[k : k + 2], state_starts[k : k + 2], min(mode_count, k)
            self._levels.append((
                parents[n0:n1], lowered[n0:n1], inv[n0:n1],
                below[t0:t1, :w], slots[t0:t1, :w], weights[t0:t1, :w],
                cols[n0 : n0 + out_nodes[k + 1] - out_nodes[k], None], rows[t0 : t0 + out_states[k + 1] - out_states[k]],
            ))

    def extract_matrix(self, mode_matrix) -> np.ndarray:
        return self.extract_stack(_as_matrix(mode_matrix)[None])[0]

    def extract_stack(self, mode_matrices) -> np.ndarray:
        """extract_matrix of each matrix in a (B, N, N) stack: (B, d, d).

        The levels run on the whole stack with elementwise products and
        sums in slot order, so each matrix gets the bits it gets alone.
        Each component's part is weighted by its amplitude; the parts are
        summed in component order.
        """
        m = np.asarray(mode_matrices, dtype=complex)
        if m.ndim != 3 or m.shape[1:] != (self.mode_count, self.mode_count):
            raise ValueError("mode matrix dimension mismatch")
        m = m[:, self._local[:, None], self._local]
        dim = self.signal_basis.dimension
        parts = np.zeros((len(m), len(self._amplitudes), dim, dim), dtype=complex)
        entries = parts.reshape(len(m), -1)
        # the vacuum column on the vacuum state
        values = np.ones((len(m), 1, 1), dtype=complex)
        for k, (parents, lowered, inv, gather, slots, weights, out_cols, out_rows) in enumerate(self._levels):
            if k:
                coef = m[:, :, lowered] * inv  # L_mj / sqrt(n_j), (B, N, nodes)
                nodes = np.arange(len(parents))[:, None, None]
                step = max(1, _CHUNK // max(len(m) * gather.size, 1))
                new = np.empty((len(m), len(parents), len(gather)), dtype=complex)
                for lo in range(0, len(parents), step):
                    at = slice(lo, lo + step)
                    terms = values[:, parents[at, None, None], gather] * coef[:, slots, nodes[at]] * weights
                    new[:, at] = _ordered_sum(terms)
                values = new
            entries[:, out_cols + out_rows] = values[:, : len(out_cols), : len(out_rows)]
        # a unit amplitude leaves its part as filled
        out = parts[:, 0] if self._amplitudes[0] == 1 else self._amplitudes[0] * parts[:, 0]
        for c, amp in enumerate(self._amplitudes[1:], 1):
            out += parts[:, c] if amp == 1 else amp * parts[:, c]
        return out


def lift_unitary(u, basis: FockBasis) -> FockOperator:
    """Full Fock-space matrix of a lifted mode unitary: the conditional
    extraction with every mode a signal mode and no ancilla.

    Exact on a total-photon basis: the lift is block diagonal in total
    photon number and such a basis holds every state of each sector it
    admits.  A per-mode cutoff would chop sectors open (|2,1> evolves
    partly into |3,0>) and the result would not be unitary, so those
    bases are rejected instead of silently truncated.  The extractor
    refuses a basis above its size limits before anything is allocated.
    """
    m = _as_matrix(u)
    n = m.shape[0]
    if basis.mode_count != n:
        raise ValueError(f"basis has {basis.mode_count} modes, matrix has {n}")
    if not isinstance(basis.policy, TotalPhotonCutoff):
        raise PolicyMismatchError(
            "unitary lift needs a total-photon basis; per-mode cutoffs "
            "truncate photon-number sectors"
        )
    ex = ConditionalExtractor(n, range(n), AncillaSpec(()), DetectionSpec(()), basis.policy.max_total)
    return FockOperator(basis, ex.extract_matrix(m))


@dataclass
class ConditionalOperator:
    """Signal-space operator left after ancilla injection and detection.

    operator is sub-normalized exactly as projected.  When the imbalance
    between injected and detected photons is positive, input layers above
    faithful_input_levels map partly outside the stored cutoff and those
    columns are truncated; everything at or below is exact.
    """

    operator: FockOperator
    faithful_input_levels: int

    def __post_init__(self):
        top = float(block_spectrum(self.operator.basis, self.operator.matrix, hermitian=False).max())
        if top > 1.0 + 1e-9:
            raise ValueError(
                f"conditional operator norm {top} exceeds one; "
                "the network is not unitary or the detection is not a projector"
            )


def extract_conditional_operator(u, signal_modes, ancilla, det: DetectionSpec, signal_cutoff: int) -> ConditionalOperator:
    """Project the lifted network on the detection outcome.

    Matrix entries are <out, det| U |in, aux> over signal occupations up
    to signal_cutoff, exact in each conserving sector.  Signal modes may
    sit anywhere in the network; the auxiliary modes are the others in
    ascending order.  The ancilla is an AncillaSpec or a PureState on the
    auxiliary modes, as for ConditionalExtractor.
    """
    m = _as_matrix(u)
    ex = ConditionalExtractor(m.shape[0], signal_modes, ancilla, det, signal_cutoff)
    return ConditionalOperator(
        operator=FockOperator(ex.signal_basis, ex.extract_matrix(m)),
        faithful_input_levels=ex.faithful_input_levels,
    )


# the superposed-ancilla name of the same entry point
extract_with_ancilla_state = extract_conditional_operator


def success_probability(y: ConditionalOperator, state: PureState) -> float:
    """||Y|psi>||^2 for a normalized input."""
    if state.basis != y.operator.basis:
        raise ValueError("input state lives on a different basis than the operator")
    nrm = state.norm()
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"input must be normalized, got norm {nrm}")
    return float(np.linalg.norm(y.operator.matrix @ state.amplitudes) ** 2)


@dataclass(frozen=True)
class PropositionReport:
    proposition: int
    n_aux: int
    requested_seed: int
    used_seed: int
    reseed_count: int
    cutoff: int
    deviation: float
    leading_coefficient_deviation: float | None = None


def verify_proposition(which: int, n_aux: int = 2, seed: int = 0, cutoff: int = 6) -> PropositionReport:
    """Check one of the three closed forms on a seeded random network.

    1: ancilla all |1>, detect all |0>  ->  (prod_j L_1j) (a^dag)^N L_11^n
    2: ancilla all |0>, detect all |1>  ->  (prod_i L_i1) L_11^n a^N
    3: ancilla = detect = all |1>       ->  degree-N polynomial in n times
       L_11^n, leading coefficient (prod_j L_1j)(prod_i L_i1) / L_11^N

    Seeds whose |L_11| is below 1e-2 are nearly degenerate (the closed
    forms divide by powers of L_11) and are re-seeded deterministically;
    the report records how many steps that took.
    """
    if which not in (1, 2, 3):
        raise ValueError("proposition must be 1, 2 or 3")
    if not 1 <= n_aux <= 4:
        raise ValueError("n_aux must be between 1 and 4")
    if cutoff < n_aux + 1:
        raise ValueError("cutoff too small to see the polynomial degree")
    dim = n_aux + 1
    used = seed
    reseeds = 0
    while True:
        lam = random_unitary(dim, used).matrix
        if abs(lam[0, 0]) >= 1e-2:
            break
        used += 1
        reseeds += 1
        if reseeds > 100:
            raise RuntimeError("could not find a non-degenerate seed nearby")
    l11 = lam[0, 0]
    if which == 1:
        aux = AncillaSpec((1,) * n_aux)
        det = DetectionSpec((0,) * n_aux)
        y = extract_conditional_operator(lam, (0,), aux, det, cutoff)
        pref = math.prod(lam[0, j] for j in range(1, dim))
        target = np.zeros_like(y.operator.matrix)
        for n in range(cutoff - n_aux + 1):
            target[n + n_aux, n] = pref * l11**n * math.sqrt(
                math.factorial(n + n_aux) / math.factorial(n)
            )
        cols = cutoff - n_aux + 1
        dev = float(np.max(np.abs(y.operator.matrix[:, :cols] - target[:, :cols])))
        return PropositionReport(1, n_aux, seed, used, reseeds, cutoff, dev)
    if which == 2:
        aux = AncillaSpec((0,) * n_aux)
        det = DetectionSpec((1,) * n_aux)
        y = extract_conditional_operator(lam, (0,), aux, det, cutoff)
        pref = math.prod(lam[i, 0] for i in range(1, dim))
        target = np.zeros_like(y.operator.matrix)
        for n in range(n_aux, cutoff + 1):
            target[n - n_aux, n] = pref * l11 ** (n - n_aux) * math.sqrt(
                math.factorial(n) / math.factorial(n - n_aux)
            )
        dev = float(np.max(np.abs(y.operator.matrix - target)))
        return PropositionReport(2, n_aux, seed, used, reseeds, cutoff, dev)
    aux = AncillaSpec((1,) * n_aux)
    det = DetectionSpec((1,) * n_aux)
    y = extract_conditional_operator(lam, (0,), aux, det, cutoff)
    mat = y.operator.matrix
    off = mat - np.diag(np.diag(mat))
    off_dev = float(np.max(np.abs(off)))
    n_levels = np.arange(cutoff + 1)
    q = np.diag(mat) / l11**n_levels
    vander = np.vander(n_levels.astype(float), n_aux + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(vander, q, rcond=None)
    fit_dev = float(np.max(np.abs(vander @ coef - q)))
    pref = math.prod(lam[0, j] for j in range(1, dim)) * math.prod(
        lam[i, 0] for i in range(1, dim)
    )
    lead_dev = float(abs(coef[n_aux] - pref / l11**n_aux))
    return PropositionReport(
        3, n_aux, seed, used, reseeds, cutoff, max(off_dev, fit_dev), lead_dev
    )
