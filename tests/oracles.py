"""Independent reference routes used to cross-check the package.

The lift oracle never touches the permanent code: it expands
creation-operator polynomials monomial by monomial, which is slow but
follows the definition directly.  The ladder matrices are the truncated
a and a^dagger written out entry by entry.  The per-entry extraction is
the definition the recurrence of ConditionalExtractor replaced: one
gather list and one flat-kernel (compensated Glynn) permanent per
operator entry, with rows and columns repeated by the occupations; a
single lift amplitude and a single repeated-index permanent go the same
way.  The CNOT slab residual is alternating least squares over dense 6x4
slabs with pseudo-inverted Gram matrices, one angle pair at a time, the
route the batched closed-form scan replaced.  The absorbing element's
channel is its four-mode Stinespring dilation, each Kraus block sliced
from one lift of the closed sector and labelled by its device
occupation.  Closed-form pure loss replaced it in simulate and in the
noisy sign-flip experiment, and the tests hold both to it.  The
Hadamard's controlled-z stage is a loop over the joint two-mode basis,
one input state at a time, the route one product per entry replaced.
The one-trial feasibility loop is Levenberg-Marquardt sending each
damping trial in a step of its own, the route the speculative second
trial replaced; a search must reach the same bits on either.
"""

import math
from dataclasses import dataclass

import numpy as np

from fockforge.conditioning import AncillaSpec, ConditionalExtractor, DetectionSpec, _as_matrix
from fockforge.fock import FockBasis, FockOperator, MixedState, TotalPhotonCutoff, _lookup
from fockforge.gates import _CNOT_BASIS, cnot_basis_matrix
from fockforge.lossy import DetectorModel, LossyBSParams, choose_T_for_sigma_z, dilation_unitary, povm_element
from fockforge.optimizer import TRIVIAL_PROBABILITY, _jacobian, _look_ahead
from fockforge.permanent import MAX_DIMENSION, PermanentSizeError, _as_square, _ordered_sum, _per_flat


def lift_oracle(mode_matrix, basis: FockBasis) -> np.ndarray:
    """Fock-space lift of a mode unitary by polynomial expansion.

    Column |n> is built by applying prod_j (sum_i u_ij a_i^dag)^{n_j}
    to vacuum and normalizing by sqrt(prod n_j!), tracking monomial
    coefficients in a dict keyed by occupation tuple.  The sqrt(k+1)
    ladder factors accumulate the sqrt(m!) of the output kets, so the
    dict holds Fock amplitudes directly.
    """
    u = np.asarray(mode_matrix, dtype=complex)
    modes = basis.mode_count
    if u.shape != (modes, modes):
        raise ValueError("matrix dimension does not match the basis")
    dim = basis.dimension
    out = np.zeros((dim, dim), dtype=complex)
    for col, occ_in in enumerate(basis.occupations.tolist()):
        poly = {tuple([0] * modes): 1.0 + 0.0j}
        for j, nj in enumerate(occ_in):
            for _ in range(nj):
                nxt: dict = {}
                for occ, coef in poly.items():
                    for i in range(modes):
                        if u[i, j] == 0:
                            continue
                        stepped = list(occ)
                        stepped[i] += 1
                        key = tuple(stepped)
                        nxt[key] = nxt.get(key, 0.0 + 0.0j) + coef * u[i, j] * math.sqrt(
                            stepped[i]
                        )
                poly = nxt
        norm = math.sqrt(math.prod(math.factorial(n) for n in occ_in))
        for occ, coef in poly.items():
            if occ in basis:
                out[basis.index_of(occ), col] = coef / norm
    return out


def _occ_step(occ, mode, delta):
    lst = list(occ)
    lst[mode] += delta
    return tuple(lst)


def ladder_matrix(basis: FockBasis, mode: int, kind: str) -> FockOperator:
    """Matrix of a_mode (kind='annihilate') or a_mode^dagger ('create')
    restricted to the basis.  Rows that would leave the basis are dropped,
    the usual truncated-operator convention."""
    if not 0 <= mode < basis.mode_count:
        raise IndexError(f"mode {mode} out of range for {basis.mode_count} modes")
    if kind not in ("create", "annihilate"):
        raise ValueError("kind must be 'create' or 'annihilate'")
    m = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for i, occ in enumerate(basis.occupations.tolist()):
        if kind == "create":
            target = _occ_step(occ, mode, +1)
            if target in basis:
                m[basis.index_of(target), i] = math.sqrt(occ[mode] + 1)
        else:
            if occ[mode] > 0:
                j = basis.index_of(_occ_step(occ, mode, -1))
                m[j, i] = math.sqrt(occ[mode])
    return FockOperator(basis, m)


def _gather(row_mult, col_mult, n: int) -> list[int]:
    """Row-major indices into an n x n matrix of the matrix with row i
    repeated row_mult[i] times and column j repeated col_mult[j] times."""
    rows = [i for i, c in enumerate(row_mult) for _ in range(c)]
    cols = [j for j, c in enumerate(col_mult) for _ in range(c)]
    return [i * n + j for i in rows for j in cols]


def repeated_index_permanent(m, row_mult, col_mult) -> complex:
    """Permanent of the matrix with row i repeated row_mult[i] times and
    column j repeated col_mult[j] times.

    This is the combinatorial core of the Fock lift: row multiplicities
    are output occupations, column multiplicities input occupations.
    Raises if the multiplicity totals disagree (photon-number mismatch)
    or the expanded matrix would exceed dimension 30.
    """
    a = _as_square(m)
    n = a.shape[0]
    row_mult = [int(x) for x in row_mult]
    col_mult = [int(x) for x in col_mult]
    if len(row_mult) != n or len(col_mult) != n:
        raise ValueError("multiplicity vectors must match the matrix dimension")
    if any(x < 0 for x in row_mult) or any(x < 0 for x in col_mult):
        raise ValueError("multiplicities must be non-negative")
    total = sum(row_mult)
    if total != sum(col_mult):
        raise ValueError(
            f"photon-number mismatch: row multiplicities sum to {total}, "
            f"column multiplicities to {sum(col_mult)}"
        )
    if total > MAX_DIMENSION:
        raise PermanentSizeError(f"expanded dimension {total} exceeds the supported maximum {MAX_DIMENSION}")
    flat = a.ravel().tolist()
    return _per_flat([flat[g] for g in _gather(row_mult, col_mult, n)], total)


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
    size = sum(n_out)
    if size > MAX_DIMENSION:
        raise PermanentSizeError(f"{size} photons need a permanent of dimension {size}, above the supported maximum {MAX_DIMENSION}")
    norm = math.sqrt(math.prod(math.factorial(x) for x in n_in + n_out))
    flat = m.ravel().tolist()
    return complex(_per_flat([flat[g] for g in _gather(n_out, n_in, m.shape[0])], size)) / norm


def per_entry_extraction(mode_count, signal_modes, ancilla, det, signal_cutoff, mode_matrix) -> np.ndarray:
    """Conditional operator of ConditionalExtractor(mode_count, signal_modes,
    ancilla, det, signal_cutoff) at one mode matrix, entry by entry."""
    signal = tuple(signal_modes)
    aux_modes = tuple(m for m in range(mode_count) if m not in signal)
    if isinstance(ancilla, AncillaSpec):
        components = [(1, ancilla.counts)]
    else:
        components = [(complex(a), occ) for occ, a in zip(ancilla.basis.occupations.tolist(), ancilla.amplitudes) if a != 0]
    occs = FockBasis(len(signal), TotalPhotonCutoff(signal_cutoff)).occupations.tolist()

    def scatter(signal_occ, aux_occ):
        full = [0] * mode_count
        for s, n in zip(signal, signal_occ):
            full[s] = n
        for a, n in zip(aux_modes, aux_occ):
            full[a] = n
        return tuple(full)

    # (amplitude, (row, col, gather, size, norm) per entry in the conserving sector)
    parts = []
    for amp, counts in components:
        entries = []
        for col, occ_in in enumerate(occs):
            in_total = sum(occ_in) + sum(counts)
            full_in = scatter(occ_in, counts)
            for row, occ_out in enumerate(occs):
                if sum(occ_out) + det.total == in_total:
                    full_out = scatter(occ_out, det.counts)
                    norm = math.sqrt(
                        math.prod(math.factorial(x) for x in full_in)
                        * math.prod(math.factorial(x) for x in full_out)
                    )
                    entries.append((row, col, _gather(full_out, full_in, mode_count), in_total, norm))
        parts.append((amp, entries))
    flat = np.asarray(mode_matrix, dtype=complex).ravel().tolist()
    dim = len(occs)
    out = None
    for amp, entries in parts:
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


def one_trial_feasibility(objective, x, budget, rows=None):
    """optimizer._feasibility with one damping trial per step: the same
    generator protocol, charges and result."""
    floor = TRIVIAL_PROBABILITY * objective._scale_denominator

    def relative(rows):
        norms, _, deviation = rows
        total = _ordered_sum(norms)
        return deviation / np.sqrt(np.maximum(total, floor))[:, None], total[0] <= floor

    if rows is None:
        rows = yield _look_ahead(x)
    values, done = relative(rows)
    r, count, damping = values[0], 1, 1e-3
    while not done and r @ r > 1e-28 and damping < 1e12 and count + len(x) < budget:
        jac, count = _jacobian(values, x), count + len(x)
        grad, normal = jac.T @ r, jac.T @ jac
        while damping < 1e12 and count < budget:
            trial = x - np.linalg.lstsq(normal + damping * np.eye(len(x)), grad)[0]
            trial_rows = yield _look_ahead(trial)
            trial_values, collapsed = relative(trial_rows)
            r_trial, count = trial_values[0], count + 1
            if r_trial @ r_trial < r @ r:
                done = collapsed or r @ r - r_trial @ r_trial <= 1e-3 * (r @ r)
                x, rows, values, r, damping = trial, trial_rows, trial_values, r_trial, damping / 10.0
                break
            damping *= 10.0
    return x, rows, count


def permanent_expansion(m) -> complex:
    """Permanent via the lift-at-single-occupation route: per(U) is the
    all-ones-to-all-ones transition amplitude of the n-mode lift."""
    a = np.asarray(m, dtype=complex)
    n = a.shape[0]
    basis = FockBasis(n, TotalPhotonCutoff(n))
    ones = tuple([1] * n)
    col = lift_oracle(a, basis)
    return complex(col[basis.index_of(ones), basis.index_of(ones)])


def _product_slab_residual(phi, phi_prime, target, rng):
    """Best scale-invariant residual of U(phi') (N1 x N2) U(phi) on the
    qubit columns against the target slab, N1 and N2 free diagonal
    single-mode operators, optimized by alternating least squares."""
    left = cnot_basis_matrix(math.cos(phi_prime), math.sin(phi_prime))
    right = cnot_basis_matrix(math.cos(phi), math.sin(phi))
    # rank-one slabs: the middle operator weights basis element k by
    # n1[a_k] * n2[b_k], so the slab is sum_k n1[a] n2[b] outer(L[:,k], R[k,:4])
    slabs = [np.outer(left[:, k], right[k, :4]) for k in range(6)]
    tnorm2 = float(np.linalg.norm(target) ** 2)

    def cosine(n1, n2):
        a = np.zeros((6, 4), dtype=complex)
        for k, (ak, bk) in enumerate(_CNOT_BASIS):
            a += n1[ak] * n2[bk] * slabs[k]
        na2 = float(np.linalg.norm(a) ** 2)
        if na2 < 1e-24:
            return 0.0
        return abs(complex(np.sum(target.conj() * a))) ** 2 / na2

    def solve_factor(fixed_other, axis):
        # residual is linear in this factor; maximize |c.x|^2 / x*G x
        qs = []
        for level in range(3):
            qa = np.zeros((6, 4), dtype=complex)
            for k, (ak, bk) in enumerate(_CNOT_BASIS):
                idx = ak if axis == 0 else bk
                other = bk if axis == 0 else ak
                if idx == level:
                    qa += fixed_other[other] * slabs[k]
            qs.append(qa)
        c = np.array([complex(np.sum(target.conj() * qa)) for qa in qs])
        g = np.array(
            [[complex(np.sum(qa.conj() * qb)) for qb in qs] for qa in qs]
        )
        x = np.linalg.pinv(g, rcond=1e-12) @ c.conj()
        nx = np.linalg.norm(x)
        return x / nx if nx > 0 else np.array([1.0, 1.0, 1.0], dtype=complex)

    best = 0.0
    for _ in range(3):
        n1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        n2 = rng.normal(size=3) + 1j * rng.normal(size=3)
        rho_prev = -1.0
        for _ in range(40):
            n1 = solve_factor(n2, 0)
            n2 = solve_factor(n1, 1)
            rho = cosine(n1, n2)
            if rho - rho_prev < 1e-14:
                break
            rho_prev = rho
        best = max(best, cosine(n1, n2))
    return math.sqrt(max(0.0, 1.0 - best / tnorm2))


@dataclass
class ChannelOperator:
    """Completely positive trace-preserving map from the four-mode dilation.

    kraus holds the blocks <d|W|0,0> and devices the device occupation d
    of each, in the same order; blocks that vanish on the sector are left
    out.  The completeness sum is checked at construction, which on a
    closed photon sector is exact rather than truncated.
    """

    basis: FockBasis
    devices: tuple
    kraus: tuple

    def __post_init__(self):
        dim = self.basis.dimension
        total = np.zeros((dim, dim), dtype=complex)
        for k in self.kraus:
            total += k.conj().T @ k
        dev = float(np.max(np.abs(total - np.eye(dim))))
        if dev > 1e-10:
            raise ValueError(f"channel is not trace preserving: sum K^dag K off by {dev:.3e}")

    def apply(self, state) -> MixedState:
        rho = state.matrix if isinstance(state, MixedState) else np.asarray(state, dtype=complex)
        return MixedState(self.basis, sum(k @ rho @ k.conj().T for k in self.kraus))


def lossy_bs_channel(params: LossyBSParams, cutoff: int) -> ChannelOperator:
    """Quantum channel of the absorbing element on states of at most
    cutoff photons.

    Kraus block d is the four-mode dilation conditioned on vacuum device
    inputs and device outcome d, sliced from one lift of the dilation.
    The photon sector is closed under the dilation (the device modes soak
    up exactly what the field loses), so the family indexed by device
    occupations is finite and complete.
    """
    # the dilation's lift on its closed sector, and a zero row last for
    # the rows (out, d) above it; block d is rows (out, d) x columns (in, 0, 0)
    closed = ConditionalExtractor(4, range(4), AncillaSpec(()), DetectionSpec(()), cutoff)
    basis = FockBasis(2, TotalPhotonCutoff(cutoff))
    lift = np.vstack([closed.extract_matrix(dilation_unitary(params)), np.zeros(closed.signal_basis.dimension)])
    closed_occ, occ = closed.signal_basis.occupations, basis.occupations
    cols = _lookup(closed_occ, np.hstack([occ, np.zeros_like(occ)]))
    devices, kraus = [], []
    for dev in sorted(occ.tolist()):
        rows = _lookup(closed_occ, np.hstack([occ, np.tile(np.array(dev, dtype=np.uint8), (len(occ), 1))]))
        rows[occ.sum(axis=1, dtype=np.intp) + sum(dev) > cutoff] = -1
        block = lift[np.ix_(rows, cols)]
        if np.max(np.abs(block)) > 1e-14:
            devices.append(tuple(dev))
            kraus.append(block)
    return ChannelOperator(basis, tuple(devices), tuple(kraus))


def channel_sigma_z_branches(abs_a, eta, c0, c1):
    """noisy_sigma_z_experiment through the dilation channel: each Kraus
    block applied to the (signal, ancilla) vector, the ancilla detected,
    and the result filed under (detector count k, device total |d|).
    Returns the conditioned state, its wanted branch and the three branch
    weights."""
    params = LossyBSParams.symmetric_slab(choose_T_for_sigma_z(abs_a), abs_a)
    channel = lossy_bs_channel(params, 2)
    pair = channel.basis
    psi = np.zeros(pair.dimension, dtype=complex)
    psi[pair.index_of((0, 1))] = c0
    psi[pair.index_of((1, 1))] = c1
    seen_one = np.diag(povm_element(1, DetectorModel(eta, 2)).matrix).real
    branches: dict = {}
    for dev, kraus in zip(channel.devices, channel.kraus):
        evolved = kraus @ psi
        for k in (1, 2):
            v = np.array([evolved[pair.index_of((n, k))] if n + k <= 2 else 0j for n in range(3)])
            branches.setdefault((k, sum(dev)), []).append(np.outer(v, v.conj()))
    out = np.zeros((3, 3), dtype=complex)
    wanted = np.zeros_like(out)
    weights = {"wanted": 0.0, "detector": 0.0, "absorption": 0.0}
    for (k, l), projectors in branches.items():
        block = seen_one[k] * sum(projectors)
        out += block
        label = "absorption" if l >= 1 else ("wanted" if k == 1 else "detector")
        weights[label] += float(np.trace(block).real)
        if label == "wanted":
            wanted += block
    return out, wanted, weights


def hadamard_cz_projection(e_mat, anc_amplitudes):
    """The Hadamard's controlled-z stage state by state: each qubit basis
    input beside the ancilla anc_amplitudes on the joint total-photon-3
    basis, the diagonal 1 - 2 n1 n2, the creation polynomial e_mat on the
    signal entry by entry, and the signal's projection onto |1>.  Returns
    the achieved 2 x 2 block (column c for input |c>) and each column's
    projection probability, keyed as the gate's report keys them."""
    joint = FockBasis(2, TotalPhotonCutoff(3))
    cz_diag = (1.0 - 2.0 * joint.occupations.prod(axis=1, dtype=float)).astype(complex)
    achieved = np.zeros((2, 2), dtype=complex)
    stage_norms = {}
    for col, qubit in enumerate((np.array([1.0, 0.0]), np.array([0.0, 1.0]))):
        amps = np.zeros(joint.dimension, dtype=complex)
        for n1 in range(2):
            for n2 in range(2):
                amps[joint.index_of((n1, n2))] = qubit[n1] * anc_amplitudes[n2]
        amps = cz_diag * amps
        out = np.zeros(joint.dimension, dtype=complex)
        for j, (n1, n2) in enumerate(joint.occupations.tolist()):
            if amps[j] == 0:
                continue
            for m1 in range(3):
                if e_mat[m1, n1] != 0 and (m1, n2) in joint:
                    out[joint.index_of((m1, n2))] += e_mat[m1, n1] * amps[j]
        projected = np.array([out[joint.index_of((1, 0))], out[joint.index_of((1, 1))]])
        achieved[:, col] = projected
        stage_norms[f"projection_probability_col{col}"] = float(np.vdot(projected, projected).real)
    return achieved, stage_norms
