"""Absorbing beam splitters, inefficient detectors, and the noisy
sign-flip experiment.

An absorbing element is described by a transmission block T and an
absorption block A closing to T T^dag + A A^dag = I.  The channel it
generates is computed exactly in Stinespring form: a four-mode unitary
whose field-field block is T acts on the physical pair plus two vacuum
device modes, and the device pair is traced out.  On a finite photon
sector this dilation is exact, so no Kraus-integral sampling is needed;
the textbook M = S C^{-1} T coupling matrix is still derived and checked
against the closure identity M M^dag = I - T T^dag.

Inefficient detectors are the binomial POVM
Pi(n) = sum_k C(k, n) eta^n (1 - eta)^{k - n} |k><k|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .conditioning import fock_lift_amplitude, lift_unitary
from .fock import (
    FockBasis,
    FockOperator,
    MixedState,
    PureState,
    TotalPhotonCutoff,
    partial_trace,
)
from .interferometer import ModeUnitary


@dataclass(frozen=True)
class LossyBSParams:
    """Transmission and absorption blocks of an absorbing two-mode element.

    Closure T T^dag + A A^dag = I is enforced to 1e-12: whatever the slab
    does not transmit it must absorb.
    """

    t_matrix: np.ndarray
    a_matrix: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_matrix, dtype=complex)
        a = np.asarray(self.a_matrix, dtype=complex)
        if t.shape != (2, 2) or a.shape != (2, 2):
            raise ValueError("t_matrix and a_matrix must be 2x2")
        closure = t @ t.conj().T + a @ a.conj().T
        dev = float(np.max(np.abs(closure - np.eye(2))))
        if dev > 1e-12:
            raise ValueError(f"closure T T^dag + A A^dag = I violated by {dev:.3e}")
        object.__setattr__(self, "t_matrix", t)
        object.__setattr__(self, "a_matrix", a)

    def c_matrix(self) -> np.ndarray:
        return scipy.linalg.sqrtm(self.t_matrix @ self.t_matrix.conj().T).astype(complex)

    def s_matrix(self) -> np.ndarray:
        return scipy.linalg.sqrtm(self.a_matrix @ self.a_matrix.conj().T).astype(complex)

    def m_matrix(self) -> np.ndarray:
        """Device coupling M = S C^{-1} T; raises when T is too close to
        singular for the inverse (total absorption)."""
        c = self.c_matrix()
        sv = np.linalg.svd(c, compute_uv=False)
        if sv[-1] < 1e-10 * max(1.0, sv[0]):
            raise ArithmeticError(
                "transmission block is numerically singular; the M-matrix "
                "form breaks down near total absorption"
            )
        return self.s_matrix() @ np.linalg.inv(c) @ self.t_matrix

    @staticmethod
    def symmetric_slab(transmission: float, abs_a: float) -> "LossyBSParams":
        """Single-slab reciprocity convention: equal diagonal transmission,
        reflection at phase pi/2, isotropic absorption."""
        t = float(transmission)
        a = float(abs_a)
        r_sq = 1.0 - t * t - a * a
        if r_sq < -1e-12:
            raise ValueError("transmission and absorption exceed unity together")
        r = math.sqrt(max(0.0, r_sq))
        tm = np.array([[t, 1j * r], [1j * r, t]])
        return LossyBSParams(tm, a * np.eye(2))


@dataclass
class ChannelOperator:
    """Completely positive trace-preserving map from the four-mode dilation.

    kraus holds the device-occupation-labelled blocks <d|W|0,0>; their
    completeness sum is checked at construction, which on a closed photon
    sector is exact rather than truncated.
    """

    basis: FockBasis
    extended_unitary: ModeUnitary
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
        if isinstance(state, PureState):
            state = state.to_mixed()
        if isinstance(state, MixedState):
            rho = state.matrix
        else:
            rho = np.asarray(state, dtype=complex)
        out = np.zeros_like(rho)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return MixedState(self.basis, out)


def dilation_unitary(params: LossyBSParams) -> ModeUnitary:
    """Four-mode unitary with field-field block T: modes 0-1 physical,
    modes 2-3 the absorbing degrees of freedom."""
    t = params.t_matrix
    gram = np.eye(2) - t.conj().T @ t
    # hermitian square root; gram can dip epsilon-negative at closure edge,
    # and ULP-level residues would blow up to sqrt-size phantom couplings
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    w[w < 1e-13] = 0.0
    k = v @ np.diag(np.sqrt(w)) @ v.conj().T
    left = np.vstack([t, k])
    comp = scipy.linalg.null_space(left.conj().T)
    if comp.shape != (4, 2):
        raise ArithmeticError("unitary completion failed; closure is degenerate")
    u = np.hstack([left, comp])
    return ModeUnitary(4, u)


def lossy_bs_channel(params: LossyBSParams, cutoff: int) -> ChannelOperator:
    """Quantum channel of the absorbing element on states of at most
    cutoff photons.

    The photon sector is closed under the dilation (the device modes
    soak up exactly what the field loses), so the Kraus family indexed
    by device occupations is finite and complete.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    ext = dilation_unitary(params)
    basis = FockBasis(2, TotalPhotonCutoff(cutoff))
    big = FockBasis(4, TotalPhotonCutoff(cutoff))
    # the blocks read only the columns where both device modes are vacuum,
    # so only those are lifted; the lift vanishes between photon sectors
    lift = np.zeros((big.dimension, basis.dimension), dtype=complex)
    for col, occ_in in enumerate(basis.occupations):
        for row, occ_out in enumerate(big.occupations):
            if sum(occ_out) == sum(occ_in):
                lift[row, col] = fock_lift_amplitude(ext, occ_in + (0, 0), occ_out)
    device = sorted({(occ[2], occ[3]) for occ in big.occupations})
    kraus = []
    for dev in device:
        block = np.zeros((basis.dimension, basis.dimension), dtype=complex)
        for i, occ in enumerate(basis.occupations):
            full = occ + dev
            if full in big:
                block[i, :] = lift[big.index_of(full)]
        if np.max(np.abs(block)) > 1e-14:
            kraus.append(block)
    return ChannelOperator(basis, ext, tuple(kraus))


@dataclass(frozen=True)
class DetectorModel:
    """Finite-efficiency photon counter on a truncated single mode."""

    eta: float
    cutoff: int

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")


def povm_element(n: int, detector: DetectorModel) -> FockOperator:
    """Pi(n) = sum_k C(k, n) eta^n (1-eta)^{k-n} |k><k| on one mode.

    eta = 1 collapses to the sharp projector |n><n|; the family sums to
    the identity up to the (1-eta)^(cutoff+1) truncation tail.
    """
    if n < 0 or n > detector.cutoff:
        raise ValueError("n must lie within the detector cutoff")
    eta = detector.eta
    basis = FockBasis(1, TotalPhotonCutoff(detector.cutoff))
    diag = np.zeros(basis.dimension)
    for k in range(n, detector.cutoff + 1):
        diag[basis.index_of((k,))] = (
            math.comb(k, n) * eta**n * (1.0 - eta) ** (k - n)
        )
    return FockOperator(basis, np.diag(diag).astype(complex))


def choose_T_for_sigma_z(abs_a: float) -> float:
    """Transmission (sqrt(3 - 2|A|^2) - 1)/2 of the sign-flip slab.

    This is the published operating point for the single-element
    sign-flip attempt with isotropic absorption abs_a; with it the
    off-diagonal layer relation reads per T = -2 T22, a factor two away
    from the exact sign-flip condition per T = -T22, so the wanted
    branch is diag(1, -2)-shaped rather than a clean sign flip.  The
    detector and absorption branch coefficients quoted for this point
    are exact, and the acceptance checks target those.
    """
    a = float(abs_a)
    if not 0.0 <= a <= 1.0:
        raise ValueError("abs_a must lie in [0, 1]")
    return (math.sqrt(3.0 - 2.0 * a * a) - 1.0) / 2.0


@dataclass
class NoisySigmaZReport:
    """Three-branch decomposition of the conditioned single-BS output.

    Weights are honest traces of the photon-bookkeeping branches
    (detector saw k, device modes hold l): wanted is (k=1, l=0),
    detector is (k=2, l=0) folded through the POVM, absorption collects
    every l >= 1 branch.  Coefficients divide the eta and |c1|^2 factors
    back out; closed_form fields carry the two-parameter expressions
    they must reproduce.
    """

    output: MixedState
    wanted_matrix: np.ndarray
    wanted_weight: float
    detector_weight: float
    absorption_weight: float
    detector_coefficient: float
    absorption_coefficient: float
    detector_closed_form: float
    absorption_closed_form: float
    transmission: float
    reflection: float
    sign_flip_condition_residual: float
    extras: dict = field(default_factory=dict)


def noisy_sigma_z_experiment(abs_a: float, eta: float, c0: complex, c1: complex) -> NoisySigmaZReport:
    """Single absorbing beam splitter driven as a sign flip on the 0/1
    photon qubit, with a single-photon ancilla and an efficiency-eta
    one-photon detection.

    The full four-mode dilation is evolved exactly, the detector POVM is
    applied to the ancilla output, and the device modes are traced; the
    returned report splits the unnormalized conditioned state into the
    transmitted branch, the detector-confusion branch (two photons
    arrived, one was missed), and the absorption branch, and compares
    the latter two against their closed forms
    |A|^4 - 3 + 2 sqrt(3 - 2|A|^2)   and   |A|^2 (1 - |A|^2).
    """
    a = float(abs_a)
    eta = float(eta)
    if not 0.0 <= a < 1.0:
        raise ValueError("abs_a must lie in [0, 1)")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    c0 = complex(c0)
    c1 = complex(c1)
    if abs(abs(c0) ** 2 + abs(c1) ** 2 - 1.0) > 1e-10:
        raise ValueError("|c0|^2 + |c1|^2 must equal 1")

    t = choose_T_for_sigma_z(a)
    params = LossyBSParams.symmetric_slab(t, a)
    r = float(params.t_matrix[0, 1].imag)
    ext = dilation_unitary(params)

    big = FockBasis(4, TotalPhotonCutoff(2))
    lift = lift_unitary(ext, big).matrix
    amps = np.zeros(big.dimension, dtype=complex)
    amps[big.index_of((0, 1, 0, 0))] = c0
    amps[big.index_of((1, 1, 0, 0))] = c1
    evolved = lift @ amps

    sig = FockBasis(1, TotalPhotonCutoff(2))
    out = np.zeros((sig.dimension, sig.dimension), dtype=complex)
    weights = {"wanted": 0.0, "detector": 0.0, "absorption": 0.0}
    wanted_matrix = np.zeros((sig.dimension, sig.dimension), dtype=complex)
    # branch label: (detector count k, device total l); POVM weight for
    # registering one photon out of k is C(k,1) eta (1-eta)^(k-1)
    branches: dict = {}
    for i, occ in enumerate(big.occupations):
        if abs(evolved[i]) == 0:
            continue
        n_sig, k, l3, l4 = occ
        if k < 1:
            continue
        key = (k, l3 + l4)
        vec = branches.setdefault(key, {})
        vec.setdefault((n_sig, l3, l4), 0j)
        vec[(n_sig, l3, l4)] += evolved[i]
    for (k, l), vec in branches.items():
        pov = math.comb(k, 1) * eta * (1.0 - eta) ** (k - 1)
        if pov == 0.0:
            continue
        block = np.zeros((sig.dimension, sig.dimension), dtype=complex)
        # device occupations stay distinguishable: sum projectors
        by_dev: dict = {}
        for (n_sig, l3, l4), amp in vec.items():
            by_dev.setdefault((l3, l4), np.zeros(sig.dimension, dtype=complex))
            by_dev[(l3, l4)][sig.index_of((n_sig,))] += amp
        for v in by_dev.values():
            block += np.outer(v, v.conj())
        block *= pov
        out += block
        label = "absorption" if l >= 1 else ("wanted" if k == 1 else "detector")
        weights[label] += float(np.trace(block).real)
        if label == "wanted":
            wanted_matrix += block

    s = math.sqrt(3.0 - 2.0 * a * a)
    det_cf = a**4 - 3.0 + 2.0 * s
    abs_cf = a * a * (1.0 - a * a)
    c1sq = abs(c1) ** 2
    det_co = (
        weights["detector"] / (eta * (1.0 - eta) * c1sq)
        if eta < 1.0 and c1sq > 1e-14
        else det_cf
    )
    abs_co = weights["absorption"] / (eta * c1sq) if c1sq > 1e-14 else abs_cf
    per_t = complex(params.t_matrix[0, 0] * params.t_matrix[1, 1]
                    + params.t_matrix[0, 1] * params.t_matrix[1, 0])
    return NoisySigmaZReport(
        output=MixedState(sig, out),
        wanted_matrix=wanted_matrix,
        wanted_weight=weights["wanted"],
        detector_weight=weights["detector"],
        absorption_weight=weights["absorption"],
        detector_coefficient=float(det_co),
        absorption_coefficient=float(abs_co),
        detector_closed_form=float(det_cf),
        absorption_closed_form=float(abs_cf),
        transmission=t,
        reflection=r,
        sign_flip_condition_residual=float(abs(per_t + params.t_matrix[1, 1])),
        extras={
            "eta": eta,
            "abs_a": a,
            "wanted_closed_form": eta * (2.0 - a * a - s),
            "per_t": per_t,
        },
    )
