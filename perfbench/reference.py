"""Reference routes that share no numerics with fockforge.

Nothing here evaluates a permanent through the package or calls
``interferometer.compose``:

* mode matrices are built from a network's elements with this module's
  own 2 x 2 blocks, applied as row updates;
* evolved states and conditional operators come from expanding products
  of creation operators monomial by monomial; a superposed ancilla is
  the amplitude-weighted sum of its Fock components;
* permanents come from Glynn's formula, vectorised over chunks of sign
  vectors.

The benchmark checks the program's outputs against these routes, and
``test_perfbench.py`` checks the routes against closed forms.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def bs_block(theta: float, phase_t: float, phase_r: float) -> np.ndarray:
    """[[T, R], [-R*, T*]] with T = cos(theta) e^{i phase_t} and
    R = sin(theta) e^{i phase_r}."""
    t = math.cos(theta) * cmath.exp(1j * phase_t)
    r = math.sin(theta) * cmath.exp(1j * phase_r)
    return np.array([[t, r], [-r.conjugate(), t.conjugate()]])


def mode_matrix(mode_count: int, elements) -> np.ndarray:
    """Mode matrix L (b = L a) of a list of element tuples, first element
    applied first: ("bs", a, b, theta, phase_t, phase_r) or
    ("phase", mode, angle)."""
    m = np.eye(mode_count, dtype=complex)
    for e in elements:
        if e[0] == "bs":
            _, a, b, theta, pt, pr = e
            m[[a, b], :] = bs_block(theta, pt, pr) @ m[[a, b], :]
        elif e[0] == "phase":
            m[e[1], :] *= cmath.exp(1j * e[2])
        else:
            raise ValueError(f"not a unitary element: {e[0]!r}")
    return m


def element_tuples(network) -> list:
    """Element tuples of a fockforge NetworkDescription, read from the
    attributes of its beam splitters and phase shifters."""
    out = []
    for e in network.elements:
        if hasattr(e, "mode_a"):
            out.append(("bs", e.mode_a, e.mode_b, e.theta, e.phase_t, e.phase_r))
        else:
            out.append(("phase", e.mode, e.angle))
    return out


def occupations(mode_count: int, cutoff: int) -> list:
    """Every occupation tuple of at most ``cutoff`` photons in total."""
    if mode_count == 1:
        return [(n,) for n in range(cutoff + 1)]
    out = []
    for first in range(cutoff + 1):
        out.extend((first,) + rest for rest in occupations(mode_count - 1, cutoff - first))
    return out


def _create(col: np.ndarray, poly: dict, caps=None) -> dict:
    """Apply sum_i col_i a_i^dag to a polynomial of Fock amplitudes.

    Monomials with more photons in a mode than ``caps`` allows are
    dropped: creation operators only add photons, so they can never
    come back under the cap."""
    nxt: dict = {}
    for mono, coef in poly.items():
        for i, w in enumerate(col):
            if w == 0:
                continue
            k = mono[i] + 1
            if caps is not None and k > caps[i]:
                continue
            key = mono[:i] + (k,) + mono[i + 1 :]
            nxt[key] = nxt.get(key, 0j) + coef * w * math.sqrt(k)
    return nxt


def evolve_fock(u: np.ndarray, occ, caps=None) -> dict:
    """Amplitudes of U(L)|occ>, keyed by output occupation.

    Expands prod_j (sum_i L_ij a_i^dag)^{n_j} |0> / sqrt(prod n_j!); the
    sqrt(k) ladder factors are applied at each step, so the dictionary
    holds Fock amplitudes directly.  ``caps`` bounds the occupation kept
    per mode (see _create).
    """
    poly = {(0,) * u.shape[0]: 1.0 + 0.0j}
    for j, nj in enumerate(occ):
        for _ in range(nj):
            poly = _create(u[:, j], poly, caps)
    norm = math.sqrt(math.prod(math.factorial(k) for k in occ))
    return {k: v / norm for k, v in poly.items()}


def conditional_operator(u: np.ndarray, signal_modes, ancilla: dict, detection, cutoff: int):
    """(signal occupations, Y) with Y[out, in] = <out, det| U |in, aux>.

    ``ancilla`` maps auxiliary occupations to amplitudes; a Fock ancilla
    is a one-entry dictionary.  Rows and columns run over the signal
    occupations of at most ``cutoff`` photons, in this module's order.
    Each column reuses the evolved state of the column with one signal
    photon fewer: U|s> = (sum_l L_lk a_l^dag) U|s - e_k> / sqrt(s_k).
    """
    n = u.shape[0]
    signal = tuple(signal_modes)
    aux_modes = tuple(m for m in range(n) if m not in signal)
    detection = tuple(detection)
    caps = [cutoff] * n
    for m, k in zip(aux_modes, detection):
        caps[m] = k
    occs = occupations(len(signal), cutoff)
    index = {o: i for i, o in enumerate(occs)}
    y = np.zeros((len(occs), len(occs)), dtype=complex)
    for a_occ, amp in ancilla.items():
        full = [0] * n
        for m, k in zip(aux_modes, a_occ):
            full[m] = k
        evolved = {occs[0]: evolve_fock(u, full, caps)}
        for col, s_in in enumerate(occs):
            if col:
                k = next(i for i, c in enumerate(s_in) if c)
                prev = s_in[:k] + (s_in[k] - 1,) + s_in[k + 1 :]
                poly = _create(u[:, signal[k]], evolved[prev], caps)
                evolved[s_in] = {key: v / math.sqrt(s_in[k]) for key, v in poly.items()}
            for out, v in evolved[s_in].items():
                if tuple(out[m] for m in aux_modes) != detection:
                    continue
                row = index.get(tuple(out[m] for m in signal))
                if row is not None:
                    y[row, col] += amp * v
    return occs, y


def permanent_glynn(a, chunk: int = 1 << 14) -> complex:
    """Permanent by Glynn's formula,

        per(A) = 2^{1-n} sum_d (prod_k d_k) prod_j sum_i d_i a_ij,

    over sign vectors d with d_0 = +1, evaluated a chunk of sign vectors
    at a time.  Chunk sums are accumulated with math.fsum per component.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    count = 1 << (n - 1)
    shifts = np.arange(n - 1)
    re_parts = []
    im_parts = []
    for start in range(0, count, chunk):
        k = np.arange(start, min(start + chunk, count))
        signs = 1.0 - 2.0 * ((k[:, None] >> shifts) & 1)
        delta = np.hstack([np.ones((k.size, 1)), signs])
        terms = np.prod(delta @ a, axis=1) * np.prod(signs, axis=1)
        s = terms.sum()
        re_parts.append(s.real)
        im_parts.append(s.imag)
    return complex(math.fsum(re_parts), math.fsum(im_parts)) / count


def proportional_residual(achieved, target) -> float:
    """Max-entry distance between ``achieved``, rescaled to the Frobenius
    norm of ``target``, and ``target`` times the best global phase."""
    a = np.asarray(achieved, dtype=complex)
    t = np.asarray(target, dtype=complex)
    na = float(np.linalg.norm(a))
    if na == 0.0:
        return float(np.max(np.abs(t)))
    a = a * (float(np.linalg.norm(t)) / na)
    ip = complex(np.vdot(t, a))
    phase = ip / abs(ip) if ip != 0 else 1.0
    return float(np.max(np.abs(a - phase * t)))
