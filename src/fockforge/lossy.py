"""Absorbing beam splitters, inefficient detectors, and the noisy
sign-flip experiment.

An absorbing element has the transfer matrix T = sqrt(1 - a^2) B, B a
unitary splitter and a its isotropic absorption; the circuit grammar's
absorber and the sign-flip slab are both of this form.  Every lossy
route runs through the transfer matrix alone: simulate splits it as
T = U diag(s) V^dag and applies the lift of V^dag, pure loss s_i^2 on
each mode, then the lift of U; the sign-flip experiment applies equal
pure loss 1 - a^2 on both modes, then the lift of B.  Pure loss is
closed form (Chuang, Leung & Yamamoto, PRA 56, 1114, 1997), and
_loss_terms writes its Kraus operators once for both.
dilation_unitary, the four-mode Stinespring unitary of a transmission
block, is kept for reference; the tests hold both routes to the channel
it generates.

The noisy sign-flip experiment is the slab on (signal, ancilla)
followed by an efficiency-eta detector on the ancilla, which registers
one photon of k with the binomial weight k eta (1 - eta)^(k - 1); the
photons each product of loss terms takes tell the absorbed branches
apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conditioning import lift_unitary
from .fock import FockBasis, MixedState, TotalPhotonCutoff, _lookup
from .interferometer import ModeUnitary


def _psd_sqrt(gram: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.  gram can
    dip epsilon-negative at the closure edge, and ULP-level residues would
    blow up to sqrt-size phantom couplings, so eigenvalues below 1e-13 are
    taken as zero."""
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    w[w < 1e-13] = 0.0
    return v @ np.diag(np.sqrt(w)) @ v.conj().T


def dilation_unitary(t) -> ModeUnitary:
    """Four-mode unitary with field-field block t, an absorbing element's
    2x2 transmission block: modes 0-1 physical, modes 2-3 the absorbing
    degrees of freedom.  A t that is not a contraction fails
    ModeUnitary's unitarity check."""
    t = np.asarray(t, dtype=complex)
    if t.shape != (2, 2):
        raise ValueError("the transmission block must be 2x2")
    left = np.vstack([t, _psd_sqrt(np.eye(2) - t.conj().T @ t)])
    # the last two right-singular vectors of left^dag span its null space
    _, sigma, vh = np.linalg.svd(left.conj().T)
    if sigma[1] <= 4 * np.finfo(float).eps * sigma[0]:
        raise ArithmeticError("unitary completion failed; closure is degenerate")
    u = np.hstack([left, vh[2:].conj().T])
    return ModeUnitary(4, u)


def _loss_terms(basis: FockBasis, mode: int, eta: float):
    """The Kraus operators K_k |n> = sqrt(C(n, k) eta^(n-k) (1-eta)^k) |n-k>
    of pure loss of transmissivity eta on `mode`, for k = 0, 1, ..., as
    (src, dst, w): K_k sends state src[i] to state dst[i] with weight w[i].
    basis must hold every state with photons taken from `mode`, as both
    cutoff policies do.  K_0 keeps every state where it is."""
    occ = basis.occupations
    n = occ[:, mode]
    top = int(n.max())
    for k in range(top + 1):
        src = np.flatnonzero(n >= k)
        lowered = occ[src]
        lowered[:, mode] -= k
        dst = _lookup(occ, lowered) if k else src
        w = np.sqrt([math.comb(m, k) * eta ** (m - k) * (1.0 - eta) ** k for m in range(k, top + 1)])
        yield src, dst, w[n[src] - k]


def pure_loss(rho: np.ndarray, basis: FockBasis, mode: int, eta: float) -> np.ndarray:
    """rho -> sum_k K_k rho K_k^dag, pure loss of transmissivity eta on
    `mode` (see _loss_terms); rho is a matrix on `basis`.  K_0 only scales
    rho; each further K_k is one gather, scale and scatter-add, from the
    states with at least k photons there."""
    terms = _loss_terms(basis, mode, eta)
    _, _, w = next(terms)
    out = w[:, None] * rho * w
    for src, dst, w in terms:
        out[np.ix_(dst, dst)] += w[:, None] * rho[np.ix_(src, src)] * w
    return out


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
    detector is (k=2, l=0) weighted by a missed photon, absorption collects
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

    The slab T = sqrt(1 - a^2) B acts on the (signal, ancilla) vector as
    equal pure loss 1 - a^2 on both modes, then the lift of B, and the
    detector weights the ancilla output; each product Kraus term
    K_k0 K_k1 is filed under the photons it takes, l = k0 + k1, and no
    density matrix is built before the branches.  The returned report
    splits the unnormalized conditioned state into the transmitted
    branch, the detector-confusion branch (two photons arrived, one was
    missed), and the absorption branch, and compares the latter two
    against their closed forms
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
    if not abs(abs(c0) ** 2 + abs(c1) ** 2 - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError("|c0|^2 + |c1|^2 must equal 1")

    t = choose_T_for_sigma_z(a)
    r = math.sqrt(max(0.0, 1.0 - t * t - a * a))
    slab = np.array([[t, 1j * r], [1j * r, t]])
    pair = FockBasis(2, TotalPhotonCutoff(2))  # (signal, ancilla), at most two photons
    psi = np.zeros(pair.dimension, dtype=complex)
    psi[pair.index_of((0, 1))] = c0
    psi[pair.index_of((1, 1))] = c1
    lift = lift_unitary(ModeUnitary(2, slab / math.sqrt(1.0 - a * a)), pair).matrix
    terms = [list(_loss_terms(pair, mode, 1.0 - a * a)) for mode in (0, 1)]
    # C(k, 1) eta (1 - eta)^(k - 1), the weight of registering one photon when k arrived
    seen_one = [0.0, eta, 2.0 * eta * (1.0 - eta)]

    def lose(x, term):  # one loss term (src, dst, w) applied to the vector x
        src, dst, w = term
        y = np.zeros_like(x)
        y[dst] = w * x[src]
        return y

    sig = FockBasis(1, TotalPhotonCutoff(2))
    # branch label: (detector count k, photons lost l = k0 + k1); v holds
    # the signal amplitudes beside k ancilla photons, and the loss patterns
    # stay distinguishable, so each adds its own projector to the branch
    branches: dict = {}
    for k0, term0 in enumerate(terms[0]):
        for k1, term1 in enumerate(terms[1][: 3 - k0]):  # at most two photons are lost
            evolved = lift @ lose(lose(psi, term0), term1)
            for k in (1, 2):
                v = np.array([evolved[pair.index_of((n, k))] if n + k <= 2 else 0j for n in range(3)])
                branches.setdefault((k, k0 + k1), []).append(np.outer(v, v.conj()))
    out = np.zeros((sig.dimension, sig.dimension), dtype=complex)
    wanted_matrix = np.zeros_like(out)
    weights = {"wanted": 0.0, "detector": 0.0, "absorption": 0.0}
    for (k, l), projectors in branches.items():
        block = seen_one[k] * sum(projectors)
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
    per_t = complex(slab[0, 0] * slab[1, 1] + slab[0, 1] * slab[1, 0])
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
        sign_flip_condition_residual=float(abs(per_t + slab[1, 1])),
        extras={
            "eta": eta,
            "abs_a": a,
            "wanted_closed_form": eta * (2.0 - a * a - s),
            "per_t": per_t,
        },
    )
