"""Conditional operators from post-selected linear networks.

A passive network with mode matrix L sends a_j^dag to sum_l L_lj a_l^dag.
Injecting an ancilla on the auxiliary modes and projecting them on
detector outcomes leaves a non-unitary operator Y on the signal modes:

    Y[out, in] = <out, det| U(L) |in, aux>

computed exactly in each photon-number sector through permanents with
repeated indices.  Y is linear in the ancilla ket, so one extractor
serves a Fock ancilla (AncillaSpec) and a superposed one (PureState),
the amplitude-weighted sum of its Fock components.  Every Fock amplitude
the package uses is such an entry: the unitary lift is the extraction
with no ancilla, and an absorbing splitter's Kraus blocks are
extractions from its dilation (see lossy).  ConditionalExtractor's
gather tables are the one place that walks occupation pairs to fill
them.  The tests cross-check these amplitudes against an independent
oracle in tests/oracles.py, which expands them as multivariate
polynomials in creation operators and never touches the permanent code.

Y is stored exactly as projected, sub-normalized.  Success probabilities
then compose across interferometer arms by plain multiplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    FockBasis,
    FockOperator,
    PolicyMismatchError,
    PureState,
    TotalPhotonCutoff,
)
from .interferometer import ModeUnitary, random_unitary
from .permanent import MAX_DIMENSION, PermanentSizeError, _gather, _per_flat, _per_stack

# Largest basis lift_unitary lifts: the dense lift holds dimension^2
# amplitudes (16 MB at 1,000 states) and its tables walk as many pairs.
MAX_LIFT_DIMENSION = 1000


@dataclass(frozen=True)
class AncillaSpec:
    """Photon count injected into each auxiliary mode."""

    counts: tuple

    def __post_init__(self):
        c = tuple(int(n) for n in self.counts)
        if any(n < 0 for n in c):
            raise ValueError("ancilla counts must be non-negative")
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return sum(self.counts)


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


def fock_lift_amplitude(u, input_occ, output_occ) -> complex:
    """<output| U |input> for the Fock lift of a mode matrix.

    Equals per(L with row i repeated output[i] times and column j repeated
    input[j] times) / sqrt(prod(input!) prod(output!)).  Exactly zero when
    the photon totals differ: the lift is block diagonal in total photon
    number.
    """
    m = _as_matrix(u)
    n_in = tuple(int(x) for x in input_occ)
    n_out = tuple(int(x) for x in output_occ)
    if len(n_in) != m.shape[0] or len(n_out) != m.shape[0]:
        raise ValueError("occupation length does not match matrix dimension")
    if any(x < 0 for x in n_in + n_out):
        raise ValueError("occupations must be non-negative")
    if sum(n_in) != sum(n_out):
        return 0j
    gather, k, norm = _amplitude_entry(n_in, n_out, m.shape[0])
    flat = m.ravel().tolist()
    return complex(_per_flat([flat[g] for g in gather], k)) / norm


def _amplitude_entry(occ_in, occ_out, n: int):
    """Gather indices into a row-major n-mode matrix, permanent size and
    factorial norm of <occ_out| U |occ_in>, for equal photon totals."""
    size = sum(occ_out)
    if size > MAX_DIMENSION:
        raise PermanentSizeError(
            f"{size} photons need a permanent of dimension {size}, above the supported maximum {MAX_DIMENSION}"
        )
    norm = math.sqrt(
        math.prod(math.factorial(x) for x in occ_in)
        * math.prod(math.factorial(x) for x in occ_out)
    )
    return _gather(occ_out, occ_in, n), size, norm


class ConditionalExtractor:
    """Precomputed gather tables for one (network shape, ancilla, detection,
    cutoff) combination.

    The ancilla is an AncillaSpec (one Fock component of amplitude 1) or a
    PureState on the auxiliary modes (one table per nonzero amplitude,
    weighted and summed).  Only exactly-zero components are left out; one
    whose photon surplus cannot fit under the cutoff is rejected rather
    than silently dropped, so crop the state first if its tail may go.
    So is any entry whose permanent would exceed permanent.MAX_DIMENSION
    (PermanentSizeError).

    Building the tables costs a basis walk; each subsequent extraction per
    candidate mode matrix is just entry gathering plus small permanents.
    extract_stack extracts a whole stack of mode matrices at once, which is
    what makes optimizer loops over thousands of candidate networks
    affordable; the index arrays it needs are built on its first call, so
    one-shot extractions never pay for them.
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
        self.mode_count = mode_count
        self.signal_modes = signal
        self.aux_modes = aux_modes
        self.signal_basis = FockBasis(len(signal), TotalPhotonCutoff(signal_cutoff))
        imbalance = max(sum(counts) for _, counts in components) - det.total
        self.faithful_input_levels = signal_cutoff - max(imbalance, 0)
        if self.faithful_input_levels < 0:
            raise ValueError(
                f"signal cutoff {signal_cutoff} cannot hold the {imbalance} photons "
                "added by the ancilla/detection imbalance"
            )
        occs = self.signal_basis.occupations
        # (amplitude, one gather table per matrix entry in the conserving sector)
        self._parts = []
        for amp, counts in components:
            entries = []
            for col, occ_in in enumerate(occs):
                in_total = sum(occ_in) + sum(counts)
                full_in = self._scatter(occ_in, counts)
                for row, occ_out in enumerate(occs):
                    if sum(occ_out) + det.total == in_total:
                        full_out = self._scatter(occ_out, det.counts)
                        entries.append((row, col) + _amplitude_entry(full_in, full_out, mode_count))
            self._parts.append((amp, entries))
        self._stack_tables = None

    def _scatter(self, signal_occ, aux_occ):
        full = [0] * self.mode_count
        for s, n in zip(self.signal_modes, signal_occ):
            full[s] = n
        for a, n in zip(self.aux_modes, aux_occ):
            full[a] = n
        return tuple(full)

    def extract_matrix(self, mode_matrix) -> np.ndarray:
        m = _as_matrix(mode_matrix)
        if m.shape[0] != self.mode_count:
            raise ValueError("mode matrix dimension mismatch")
        flat = m.ravel().tolist()
        dim = self.signal_basis.dimension
        out = None
        # one partial matrix per component; a unit amplitude leaves it as filled
        for amp, entries in self._parts:
            part = np.zeros((dim, dim), dtype=complex)
            for row, col, gather, k, norm in entries:
                part[row, col] = _per_flat([flat[g] for g in gather], k) / norm
            if amp != 1:
                part = amp * part
            if out is None:
                out = part
            else:
                out += part
        return out

    def extract_stack(self, mode_matrices) -> np.ndarray:
        """extract_matrix of each matrix in a (B, N, N) stack: (B, d, d).

        Entries are grouped by permanent size across the ancilla
        components, and each group is one stacked permanent evaluation.
        """
        m = np.asarray(mode_matrices, dtype=complex)
        if m.ndim != 3 or m.shape[1:] != (self.mode_count, self.mode_count):
            raise ValueError("mode matrix stack dimension mismatch")
        if self._stack_tables is None:
            self._stack_tables = self._group_by_size()
        flat = m.reshape(len(m), -1)
        dim = self.signal_basis.dimension
        out = np.zeros((len(m), dim * dim), dtype=complex)
        for k, gather, weight, target in self._stack_tables:
            np.add.at(out, (slice(None), target), _per_stack(flat[:, gather], k) * weight)
        return out.reshape(len(m), dim, dim)

    def _group_by_size(self):
        """(size, gather indices (E, size^2), amplitude / norm (E,), flat
        destination (E,)) for each permanent size among the entries."""
        dim = self.signal_basis.dimension
        groups = {}
        for amp, entries in self._parts:
            for row, col, gather, k, norm in entries:
                groups.setdefault(k, []).append((gather, amp / norm, row * dim + col))
        tables = []
        for k, items in sorted(groups.items()):
            gathers, weights, targets = zip(*items)
            gathers = np.array(gathers, dtype=np.intp).reshape(len(items), k * k)
            tables.append((k, gathers, np.array(weights, dtype=complex), np.array(targets)))
        return tables


def lift_unitary(u, basis: FockBasis) -> FockOperator:
    """Full Fock-space matrix of a lifted mode unitary: the conditional
    extraction with every mode a signal mode and no ancilla.

    Exact on a total-photon basis: the lift is block diagonal in total
    photon number and such a basis holds every state of each sector it
    admits.  A per-mode cutoff would chop sectors open (|2,1> evolves
    partly into |3,0>) and the result would not be unitary, so those
    bases are rejected instead of silently truncated.  So is a basis of
    more than MAX_LIFT_DIMENSION states, before anything is allocated.
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
    if basis.dimension > MAX_LIFT_DIMENSION:
        raise ValueError(f"basis dimension {basis.dimension} is above the lift's limit of {MAX_LIFT_DIMENSION}")
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
        top = float(np.linalg.norm(self.operator.matrix, 2))
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


def verify_proposition(which: int, n_aux: int, seed: int, cutoff: int = 6) -> PropositionReport:
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
    n_levels = np.arange(cutoff + 1)
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
