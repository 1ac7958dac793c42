"""Mode-level linear optics: beam splitters, phase shifters, networks.

Convention, used everywhere in the package: a mode unitary L acts on the
column vector of annihilation operators, b = L a.  Creation operators on
states therefore transform with L^T; the Fock lift in the conditioning
module is written against that rule.

A network composes as L_total = L_last ... L_first: the first element in
the list is applied to the modes first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .permanent import _haar_unitary

TAU = 2.0 * math.pi


def _wrap_phase(angle: float) -> float:
    return math.remainder(float(angle), TAU)


# a circuit element's or input's mode fields come first, in the order of its `modes`
class _Element:
    def onto(self, position):
        """The same element on mode position[m] in place of each of its modes m."""
        return replace(self, **{f.name: position[m] for f, m in zip(fields(self), self.modes)})


class _OneMode(_Element):
    @property
    def modes(self) -> tuple:
        return (self.mode,)


class _TwoModes(_Element):
    @property
    def modes(self) -> tuple:
        return (self.mode_a, self.mode_b)


@dataclass(frozen=True)
class BeamSplitterParams(_TwoModes):
    """Two-mode element with T = cos(theta) e^{i phase_t} and
    R = sin(theta) e^{i phase_r}.

    Any real theta is accepted and canonicalized into [0, pi/2] by folding
    signs of cos/sin into the two phases, so BS(-theta) is the same element
    as BS(theta) with the reflection phase advanced by pi.  Mode order is
    significant: the block sits at rows and columns (mode_a, mode_b).
    """

    mode_a: int
    mode_b: int
    theta: float
    phase_t: float = 0.0
    phase_r: float = 0.0

    def __post_init__(self):
        if self.mode_a == self.mode_b:
            raise ValueError("beam splitter needs two distinct modes")
        if self.mode_a < 0 or self.mode_b < 0:
            raise ValueError("mode indices must be non-negative")
        th = math.remainder(float(self.theta), TAU)
        pt = float(self.phase_t)
        pr = float(self.phase_r)
        if th < 0.0:
            th = -th
            pr += math.pi
        if th > math.pi / 2.0:
            th = math.pi - th
            pt += math.pi
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "phase_t", _wrap_phase(pt))
        object.__setattr__(self, "phase_r", _wrap_phase(pr))

    @property
    def transmission(self) -> complex:
        return math.cos(self.theta) * complex(math.cos(self.phase_t), math.sin(self.phase_t))

    @property
    def reflection(self) -> complex:
        return math.sin(self.theta) * complex(math.cos(self.phase_r), math.sin(self.phase_r))


@dataclass(frozen=True)
class PhaseShifterParams(_OneMode):
    mode: int
    angle: float

    def __post_init__(self):
        if self.mode < 0:
            raise ValueError("mode index must be non-negative")


@dataclass(frozen=True)
class NetworkDescription:
    mode_count: int
    elements: tuple

    def __post_init__(self):
        if self.mode_count < 1:
            raise ValueError("need at least one mode")
        elems = tuple(self.elements)
        for e in elems:
            # exact types: a lossy subclass of a splitter is no unitary element
            if type(e) not in (BeamSplitterParams, PhaseShifterParams):
                raise TypeError(f"unknown network element {e!r}")
            if max(e.modes) >= self.mode_count:
                raise IndexError(f"element {e} addresses mode {max(e.modes)} of {self.mode_count}")
        object.__setattr__(self, "elements", elems)


@dataclass(frozen=True)
class ModeUnitary:
    """N x N unitary on the modes (the paper-level Lambda, not a Fock
    operator).  Construction accepts matrices unitary to 1e-10; everything
    this module builds itself is tight to 1e-12."""

    dimension: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dimension, self.dimension):
            raise ValueError(f"matrix shape {m.shape} does not match dimension {self.dimension}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("non-finite entry")
        dev = float(np.max(np.abs(m @ m.conj().T - np.eye(self.dimension))))
        if dev > 1e-10:
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
        object.__setattr__(self, "matrix", m)


def _element_block(element, total_modes: int) -> tuple:
    """(rows, block): the element's action on the rows it touches, rows an
    ascending slice.  A splitter gives bs_matrix's [[T, R], [-R*, T*]]; a
    phase shifter gives diag(e^{i angle}, 1) on its mode and a neighbour."""
    if isinstance(element, PhaseShifterParams):
        e = complex(math.cos(element.angle), math.sin(element.angle))
        mode = element.mode
        if mode + 1 < total_modes:
            return slice(mode, mode + 2), np.array([[e, 0j], [0j, 1 + 0j]])
        if mode > 0:
            return slice(mode - 1, mode + 1), np.array([[1 + 0j, 0j], [0j, e]])
        return slice(mode, mode + 1), np.array([[e]])
    t = element.transmission
    r = element.reflection
    blk = np.array([[t, r], [-r.conjugate(), t.conjugate()]])
    a, b = element.mode_a, element.mode_b
    if a > b:  # same block with the two modes listed the other way round
        a, b, blk = b, a, blk[::-1, ::-1].copy()
    return slice(a, b + 1, b - a), blk


def bs_matrix(params: BeamSplitterParams, total_modes: int) -> ModeUnitary:
    """Identity except the block [[T, R], [-R*, T*]] on (mode_a, mode_b)."""
    if type(params) is not BeamSplitterParams:  # as NetworkDescription: an absorber is no unitary
        raise TypeError(f"unknown network element {params!r}")
    if max(params.mode_a, params.mode_b) >= total_modes:
        raise IndexError("beam splitter modes exceed total_modes")
    t = params.transmission
    r = params.reflection
    m = np.eye(total_modes, dtype=complex)
    a, b = params.mode_a, params.mode_b
    m[a, a] = t
    m[a, b] = r
    m[b, a] = -np.conjugate(r)
    m[b, b] = np.conjugate(t)
    return ModeUnitary(total_modes, m)


def phase_matrix(params: PhaseShifterParams, total_modes: int) -> ModeUnitary:
    if params.mode >= total_modes:
        raise IndexError("phase shifter mode exceeds total_modes")
    m = np.eye(total_modes, dtype=complex)
    m[params.mode, params.mode] = complex(math.cos(params.angle), math.sin(params.angle))
    return ModeUnitary(total_modes, m)


def element_matrix(element, total_modes: int) -> ModeUnitary:
    if type(element) is PhaseShifterParams:
        return phase_matrix(element, total_modes)
    return bs_matrix(element, total_modes)  # which refuses any other type


def compose(network: NetworkDescription) -> ModeUnitary:
    """Total mode unitary, first listed element applied first.

    Each element updates only the rows it touches.  The dense product
    would add exact zeros to those rows and leave the others as they are,
    so the result is the same bit for bit; only the total is validated."""
    n = network.mode_count
    return ModeUnitary(n, _apply_blocks(np.eye(n, dtype=complex), (_element_block(e, n) for e in network.elements)))


def _apply_blocks(total: np.ndarray, blocks) -> np.ndarray:
    """total after each (rows, block) of `blocks` in turn, rows an index of
    the rows the block touches: total[rows] = block @ total[rows]."""
    for rows, blk in blocks:
        total[rows] = blk @ total[rows]
    return total


def random_unitary(dimension: int, seed: int) -> ModeUnitary:
    """Haar-distributed unitary, deterministic per seed."""
    if dimension < 1:
        raise ValueError("dimension must be at least one")
    rng = np.random.default_rng(seed)
    return ModeUnitary(dimension, _haar_unitary(dimension, rng))

