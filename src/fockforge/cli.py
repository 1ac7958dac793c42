"""Command line front end.

Circuit files are line oriented, one directive per line, `#` to end of
line as comment, decimal numbers only; the table GRAMMAR holds these lines:

    modes N
    input fock M K
    input coherent M RE IM
    input tmsv M1 M2 Q
    bs I J THETA PHASE_T PHASE_R
    phase I ANGLE
    lossybs I J THETA PHASE_T PHASE_R ABS
    detect fock M K
    detect vacuum M

Subcommands: simulate (amplitudes per occupation), condition (conditional
operator + success probability), gate (named recipes), optimize (seeded
network search), loss (noisy sign-flip experiment), verify (proposition
and permanent-bound suites), perm (permanent of a matrix file).

All output is TSV with 12-significant-digit numbers and LF line endings,
byte-stable for a fixed seed.  Exit codes: 0 success, 2 parse or usage
error, 3 infeasible optimization, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from .conditioning import (
    AncillaSpec,
    DetectionSpec,
    check_size,
    extract_conditional_operator,
    lift_unitary,
    success_probability,
    verify_proposition,
)
from .fock import (
    CutoffTooSmallError,
    FockBasis,
    MixedState,
    PureState,
    TotalPhotonCutoff,
    _cmul,
    _lookup,
    coherent_state,
    tmsv_ladder,
)
from .interferometer import BeamSplitterParams, NetworkDescription, PhaseShifterParams, _apply_blocks, _element_block, _OneMode, _TwoModes, compose
from .lossy import noisy_sigma_z_experiment, pure_loss
from .optimizer import InfeasibleAtBudgetError, optimize_gate
from .permanent import PermanentSizeError, check_appendix_bounds, permanent_naive, permanent_ryser
from . import gates

# unused here: imported only so that perfbench/tracing.py's WRAPPED names resolve
from .fock import partial_trace  # noqa: F401
from .interferometer import bs_matrix, element_matrix  # noqa: F401
from .lossy import dilation_unitary  # noqa: F401


class CircuitError(ValueError):
    """Parse or validation failure with source position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line} column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass(frozen=True)
class Absorber(BeamSplitterParams):
    """An absorbing splitter: its transmission block is its lossless
    splitter's times sqrt(1 - absorption^2), absorption in [0, 1)."""

    absorption: float = 0.0


@dataclass(frozen=True)
class FockInput(_OneMode):
    mode: int
    photons: int


@dataclass(frozen=True)
class CoherentInput(_OneMode):
    mode: int
    re: float
    im: float


@dataclass(frozen=True)
class TmsvInput(_TwoModes):
    mode_a: int
    mode_b: int
    q: float


@dataclass(frozen=True)
class CircuitFile:
    """Inputs and elements as TYPES objects, detections as (mode, photons)."""

    mode_count: int
    inputs: tuple
    elements: tuple
    detections: tuple


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _floats([x])[0]


def _rows_to_tsv(rows) -> str:
    return "".join("\t".join(map(str, row)) + "\n" for row in rows)


def _floats(values) -> list:
    return [f"{v:.12g}" if v else "0" for v in (np.asarray(values, dtype=float) + 0.0).tolist()]


def _amplitude_rows(out_labels, in_labels, matrix) -> str:
    """TSV rows (out, in, re, im) of a matrix's entries.  Here and in _floats numbers take
    _fmt's bytes without a call each: adding 0.0 collapses negative zeros as _fmt does,
    and an exact zero (most of a conditional operator's entries) is written as is."""
    z = np.asarray(matrix, dtype=complex) + 0.0
    return "".join(
        f"{o}\t{i}\t{re:.12g}\t{im:.12g}\n" if re or im else f"{o}\t{i}\t0\t0\n"
        for o, row_re, row_im in zip(out_labels, z.real.tolist(), z.imag.tolist())
        for i, re, im in zip(in_labels, row_re, row_im)
    )


# ---------------------------------------------------------------------------
# circuit grammar

# each directive and its arguments, as the module docstring writes them
GRAMMAR = {
    "modes": "N",
    "input fock": "M K",
    "input coherent": "M RE IM",
    "input tmsv": "M1 M2 Q",
    "bs": "I J THETA PHASE_T PHASE_R",
    "phase": "I ANGLE",
    "lossybs": "I J THETA PHASE_T PHASE_R ABS",
    "detect fock": "M K",
    "detect vacuum": "M",
}
# the type of each input and element directive: its fields are the
# directive's arguments, in GRAMMAR's order
TYPES = {
    "input fock": FockInput, "input coherent": CoherentInput, "input tmsv": TmsvInput,
    "bs": BeamSplitterParams, "phase": PhaseShifterParams, "lossybs": Absorber,
}

def _token_columns(raw: str):
    # \s matches exactly the characters for which str.isspace is true
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", raw)]


def _parse_number(tok: str, line: int, col: int, kind: str = "number", parse=float):
    # float() and complex() also read digit-group underscores and non-ASCII
    # digits, which the decimal grammar does not have
    try:
        if not tok.isascii() or "_" in tok:
            raise ValueError
        v = parse(tok)
    except ValueError:
        raise CircuitError(line, col, f"expected {kind}, got {tok!r}") from None
    if not cmath.isfinite(v):
        raise CircuitError(line, col, f"{kind} must be finite")
    return v


def _parse_count(tok: str, line: int, col: int, kind: str) -> int:
    if not (tok.isascii() and tok.isdigit()):
        raise CircuitError(line, col, f"expected {kind}, got {tok!r}")
    return int(tok)


def _parse_fraction(tok: str, line: int, col: int, kind: str) -> float:
    v = _parse_number(tok, line, col, kind)
    if not 0.0 <= v < 1.0:
        raise CircuitError(line, col, f"{kind} must lie in [0, 1)")
    return v


_MODE_INDEX = "mode index"

# how each argument name is read, and what its faults call it
_ARGUMENTS = {
    "N": (_parse_count, "mode count"),
    "K": (_parse_count, "photon count"),
    **dict.fromkeys(["M", "M1", "M2", "I", "J"], (_parse_count, _MODE_INDEX)),
    **dict.fromkeys(["RE", "IM"], (_parse_number, "number")),
    "Q": (_parse_fraction, "squeezing q"),
    **dict.fromkeys(["THETA", "PHASE_T", "PHASE_R", "ANGLE"], (_parse_number, "angle")),
    "ABS": (_parse_fraction, "absorption"),
}


def _shape(directive: str, arguments: str) -> tuple:
    """A GRAMMAR entry as (its first word, its word count, its argument readers)."""
    words = directive.split()
    return words[0], len(words), tuple(_ARGUMENTS[n] for n in arguments.split())


_SHAPES = {d: _shape(d, args) for d, args in GRAMMAR.items()}
# input | detect: the kinds each takes
_KINDS = {w: " | ".join(d.split()[1] for d in GRAMMAR if d.startswith(w + " ")) for w in ("input", "detect")}


def parse_circuit(text: str) -> CircuitFile:
    """Parse the line grammar GRAMMAR, documented at module top.

    Hard errors on unknown directives, undeclared modes, duplicate
    input or detection claims; positions are 1-based.  A line's faults
    are found in the order its arguments are read, except that a second
    modes line is refused before its count is read.
    """
    mode_count = None
    inputs: list = []
    elements: list = []
    detections: list = []
    claimed_inputs: set = set()
    claimed_detects: set = set()

    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = _token_columns(raw.split("#", 1)[0])
        if not toks:
            continue
        (word, col0) = toks[0]
        directive = word.lower()
        if directive in _KINDS:
            if len(toks) < 2:
                raise CircuitError(ln, col0, f"{directive} needs a kind: {_KINDS[directive]}")
            kind = toks[1][0].lower()
            if f"{directive} {kind}" not in GRAMMAR:
                raise CircuitError(ln, toks[1][1], f"unknown {directive} kind {kind!r}")
            directive = f"{directive} {kind}"
        elif directive not in GRAMMAR:
            raise CircuitError(ln, col0, f"unknown directive {directive!r}")
        head, skip, readers = _SHAPES[directive]
        if len(toks) != skip + len(readers):
            raise CircuitError(ln, col0, f"usage: {directive} {GRAMMAR[directive]}")
        if directive == "modes" and mode_count is not None:
            raise CircuitError(ln, col0, "modes declared twice")

        args = []
        for (read, label), (tok, col) in zip(readers, toks[skip:]):
            v = read(tok, ln, col, label)
            if label is _MODE_INDEX:
                if mode_count is None:
                    raise CircuitError(ln, col, "modes must be declared first")
                if v >= mode_count:
                    raise CircuitError(ln, col, f"mode {v} undeclared (modes {mode_count})")
                if v in args:  # the modes lead their directive's arguments
                    what = "tmsv" if head == "input" else "beam splitter"
                    raise CircuitError(ln, col, f"{what} needs two distinct modes")
            args.append(v)

        if head == "modes":
            if args[0] < 1:
                raise CircuitError(ln, toks[1][1], "need at least one mode")
            mode_count = args[0]
        elif head == "detect":
            if args[0] in claimed_detects:
                raise CircuitError(ln, col0, f"mode {args[0]} already detected")
            claimed_detects.add(args[0])
            detections.append((args[0], args[1] if directive == "detect fock" else 0))
        elif head == "input":
            spec = TYPES[directive](*args)
            for m in spec.modes:
                if m in claimed_inputs:
                    raise CircuitError(ln, col0, f"mode {m} already has an input")
                claimed_inputs.add(m)
            inputs.append(spec)
        else:
            elements.append(TYPES[directive](*args))

    if mode_count is None:
        raise CircuitError(1, 1, "missing modes declaration")
    return CircuitFile(mode_count, tuple(inputs), tuple(elements), tuple(detections))


def serialize_circuit(cf: CircuitFile) -> str:
    """Canonical text form, one space between words.  Each input's and
    element's fields are written in GRAMMAR's order exactly (repr), so the
    circuit parses back to itself.  A splitter holds its angles canonical;
    a phase keeps its angle as given, so `phase 0 7` is written back as
    `phase 0 7.0`."""
    directive = {kind: d for d, kind in TYPES.items()}
    lines = [f"modes {cf.mode_count}"]
    lines += [" ".join([directive[type(e)], *(repr(getattr(e, f.name)) for f in fields(e))]) for e in cf.inputs + cf.elements]
    lines += [f"detect fock {m} {k}" if k else f"detect vacuum {m}" for m, k in cf.detections]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# circuit execution


def _mode_amplitudes(spec, cutoff: int) -> np.ndarray:
    """Single-mode amplitude ladder of a Fock or coherent input."""
    if type(spec) is CoherentInput:
        return coherent_state(complex(spec.re, spec.im), cutoff).amplitudes
    if spec.photons > cutoff:
        raise CutoffTooSmallError(f"input photon count {spec.photons} above cutoff {cutoff}")
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[spec.photons] = 1.0
    return amps


def _inputs_by_mode(cf: CircuitFile) -> dict:
    """The input of each mode, in mode order: a tmsv pair sits under both
    of its modes, and a mode without an input holds FockInput(m, 0)."""
    return {m: FockInput(m, 0) for m in range(cf.mode_count)} | {m: spec for spec in cf.inputs for m in spec.modes}


def _joint_input_state(cf: CircuitFile, cutoff: int) -> PureState:
    """Each amplitude is the product of its tmsv pairs' ladder amplitudes,
    then of every other mode's, in mode order."""
    basis = FockBasis(cf.mode_count, TotalPhotonCutoff(cutoff))
    occ, amps = basis.occupations, np.ones(basis.dimension, dtype=complex)
    for spec in cf.inputs:
        if type(spec) is TmsvInput:
            n = occ[:, spec.mode_a]
            amps = _cmul(amps, np.where(n == occ[:, spec.mode_b], np.asarray(tmsv_ladder(spec.q, cutoff))[n], 0.0))
    for m, spec in _inputs_by_mode(cf).items():
        if type(spec) is not TmsvInput:
            amps = _cmul(amps, _mode_amplitudes(spec, cutoff)[occ[:, m]])
    nrm = float(np.linalg.norm(amps))
    if nrm < 1e-12:
        raise CutoffTooSmallError("declared input state has no weight below the cutoff")
    return PureState(basis, amps, unchecked=True)


# the most terms _ordered_dot sums at once, and the most modes a stretch's
# decomposition spans: OpenBLAS 0.3.31 gave the same bits on 1 and 2 threads
_REPRODUCIBLE_SIZE = 48


def _transfer(elements, before=(), after=()) -> tuple:
    """(modes, T): the sorted modes touched, and the mode matrix on them of
    the (modes, matrix) pairs `before`, each element, then `after`, by
    compose's row updates.  An absorber of absorption a acts through its
    splitter's block times sqrt(1 - a^2), its transmission block."""
    modes = sorted(set().union(*(m for m, _ in (*before, *after)), *(e.modes for e in elements)))
    at = {m: i for i, m in enumerate(modes)}
    blocks = [([at[m] for m in pair], matrix) for pair, matrix in before]
    for e in elements:
        rows, blk = _element_block(e.onto(at), len(modes))
        blocks.append((rows, blk * math.sqrt(1.0 - e.absorption * e.absorption) if isinstance(e, Absorber) else blk))
    blocks += [([at[m] for m in pair], matrix) for pair, matrix in after]
    return modes, _apply_blocks(np.eye(len(modes), dtype=complex), blocks)


def _lifts(elements):
    """The circuit as (modes, matrix, losses): a mode matrix on the sorted
    `modes` to lift, then pure loss on each (mode, eta) of `losses`.  A
    stretch runs from an absorber through the next ones while it touches at
    most _REPRODUCIBLE_SIZE modes.  Its device modes start in vacuum and are
    traced out, so it acts through its transfer matrix T = U diag(s) V^dag
    alone: V^dag, loss s_i^2 on mode i, then U (Garcia-Patron et al.,
    Quantum 3, 169, 2019).  Its A absorbers lower the rank of 1 - T^dag T
    by at most 2A, so only its 2A smallest s_i can lie below one.  Each
    lossless run is lifted once, with the U before it and the V^dag after."""
    absorbers = [k for k, e in enumerate(elements) if isinstance(e, Absorber)]
    before, start, i = [], 0, 0
    while i < len(absorbers):
        touched, j = set(elements[absorbers[i]].modes), i
        while j + 1 < len(absorbers):
            grown = touched.union(*(e.modes for e in elements[absorbers[j] + 1 : absorbers[j + 1] + 1]))
            if len(grown) > _REPRODUCIBLE_SIZE:
                break
            touched, j = grown, j + 1
        stretch, t = _transfer(elements[absorbers[i] : absorbers[j] + 1])
        u, s, vh = np.linalg.svd(t)
        lossy = 2 * (j - i + 1)
        losses = list(zip(stretch[-lossy:], np.minimum(s[-lossy:] ** 2, 1.0).tolist()))
        yield *_transfer(elements[start : absorbers[i]], before, [(stretch, vh)]), losses
        before, start, i = [(stretch, u)], absorbers[j] + 1, j + 1
    modes, t = _transfer(elements[start:], before)
    if modes:
        yield modes, t, []


def _embed(op, modes, basis: FockBasis):
    """x -> U x for a vector or matrix x on `basis`, where U is `op`, the
    FockOperator of a lifted unitary on a total-photon basis of `modes`.
    U keeps the photon count j on its modes, so each local j-photon state
    beside every configuration of the other modes with room for it sees
    U's j-block alone: one gather, product and scatter per j, and U is
    never written out on `basis`."""
    occ = basis.occupations
    at = _lookup(op.basis.occupations, occ[:, modes])
    vacated = occ.copy()
    vacated[:, modes] = 0
    group, photons = _lookup(occ, vacated), occ[:, modes].sum(axis=1, dtype=np.intp)
    # one (local state, group) array of basis indices per sector; a group
    # is named by its state with `modes` empty
    order = np.lexsort((group, at, photons))
    sectors = [
        states.reshape(-1, np.count_nonzero(at[states] == at[states[0]]))
        for states in np.split(order, np.flatnonzero(np.diff(photons[order])) + 1)
    ]
    return functools.partial(_apply_embedded, [(op.matrix[np.ix_(at[idx[:, 0]], at[idx[:, 0]])], idx) for idx in sectors])


def _apply_embedded(parts, x):
    out = np.empty_like(x)  # the sectors cover every basis state once
    for block, idx in parts:
        out[idx] = _ordered_dot(block, x[idx].reshape(len(idx), -1)).reshape(idx.shape + x.shape[1:])
    return out


def _ordered_dot(a, b):
    """a @ b summed over the inner dimension _REPRODUCIBLE_SIZE terms at a
    time, slice after slice, so its bits do not depend on the BLAS thread
    count.  OpenBLAS 0.3.31 rounds a sum of 462 terms differently on one
    and two threads; sums of 48 terms came out the same on one to four."""
    out = a[:, :_REPRODUCIBLE_SIZE] @ b[:_REPRODUCIBLE_SIZE]
    for s in range(_REPRODUCIBLE_SIZE, a.shape[1], _REPRODUCIBLE_SIZE):
        out += a[:, s : s + _REPRODUCIBLE_SIZE] @ b[s : s + _REPRODUCIBLE_SIZE]
    return out


def _simulate(cf: CircuitFile, cutoff: int):
    """The output state: the state vector until the first loss, then the
    density matrix, which a lift maps to U rho U^dag and a loss by
    lossy.pure_loss.  Both keep rho positive, so only the final state is
    validated."""
    state = _joint_input_state(cf, cutoff)
    x = state.amplitudes
    for modes, matrix, losses in _lifts(cf.elements):
        u = _embed(lift_unitary(matrix, FockBasis(len(modes), TotalPhotonCutoff(cutoff))), modes, state.basis)
        x = u(x) if x.ndim == 1 else u(u(x).conj().T).conj().T
        for mode, eta in losses:
            x = pure_loss(np.outer(x, x.conj()) if x.ndim == 1 else x, state.basis, mode, eta)
    return PureState(state.basis, x, unchecked=True) if x.ndim == 1 else MixedState(state.basis, x)


def _cmd_simulate(args) -> int:
    cf = parse_circuit(_read_text(args.circuit))
    if cf.detections:
        raise ValueError("simulate takes no detect lines; use the condition subcommand")
    cutoff = _pick_cutoff(args, cf)
    # conditioning's size model (README, "Limits"), before the input state
    # is built; condition's extractor checks its own shape
    check_size(cf.mode_count, cutoff, cutoff)
    state = _simulate(cf, cutoff)
    if isinstance(state, MixedState):
        columns, values = ("population",), zip(_floats(np.diag(state.matrix).real))
    else:
        columns, values = ("re", "im"), zip(_floats(state.amplitudes.real), _floats(state.amplitudes.imag))
    out = [tuple(f"n{m}" for m in range(cf.mode_count)) + columns]
    out += [[*occ, *v] for occ, v in zip(state.basis.occupations.tolist(), values)]
    sys.stdout.write(_rows_to_tsv(out))
    return 0


def _cmd_condition(args) -> int:
    cf = parse_circuit(_read_text(args.circuit))
    if not cf.detections:
        raise ValueError("condition needs at least one detect line")
    if any(isinstance(e, Absorber) for e in cf.elements):
        raise ValueError("condition needs a unitary network; use loss tooling")
    cutoff = _pick_cutoff(args, cf)
    detected = dict(cf.detections)
    signal = tuple(m for m in range(cf.mode_count) if m not in detected)
    if not signal:
        raise ValueError("every mode is detected; nothing remains as signal")
    by_mode = _inputs_by_mode(cf)
    aux_modes = sorted(detected)
    for m in aux_modes:
        if type(by_mode[m]) is not FockInput:
            raise ValueError(f"detected mode {m} needs a Fock input, not {by_mode[m]}")
    cond = extract_conditional_operator(
        compose(NetworkDescription(cf.mode_count, cf.elements)),
        signal,
        AncillaSpec(tuple(by_mode[m].photons for m in aux_modes)),
        DetectionSpec(tuple(detected[m] for m in aux_modes)),
        cutoff,
    )
    # the reference input lives on the signal modes, renumbered from 0; a
    # detected mode holds a Fock input, so a tmsv pair is all signal
    position = {m: i for i, m in enumerate(signal)}
    inputs = tuple(spec.onto(position) for spec in cf.inputs if spec.modes[0] in position)
    ref = _joint_input_state(CircuitFile(len(signal), inputs, (), ()), cutoff).normalized()
    prob = success_probability(cond, ref)
    rows = [
        ("success_probability", _fmt(prob)),
        ("faithful_input_levels", str(cond.faithful_input_levels)),
        ("signal_modes", ",".join(map(str, signal))),
        ("out", "in", "re", "im"),
    ]
    sys.stdout.write(_rows_to_tsv(rows))
    # one write per block of output states, at most 2^14 entries formatted at once
    labels = [",".join(map(str, occ)) for occ in cond.operator.basis.occupations.tolist()]
    step = max(1, (1 << 14) // len(labels))
    for s in range(0, len(labels), step):
        sys.stdout.write(_amplitude_rows(labels[s : s + step], labels, cond.operator.matrix[s : s + step]))
    return 0


# ---------------------------------------------------------------------------
# non-circuit subcommands


def _report_rows(name: str, report) -> str:
    rows = [("gate", name)]
    rows.append(("residual", _fmt(report.residual)))
    rows.append(("success_probability", _fmt(report.success_probability)))
    for key in sorted(report.extras):
        val = report.extras[key]
        if isinstance(val, complex):
            rows.append((key + "_re", _fmt(val.real)))
            rows.append((key + "_im", _fmt(val.imag)))
        elif isinstance(val, (int, float, np.floating, np.integer, bool)):
            rows.append((key, _fmt(val)))
    rows.append(("row", "col", "re", "im"))
    a = report.achieved
    return _rows_to_tsv(rows) + _amplitude_rows(range(a.shape[0]), range(a.shape[1]), a)


SEARCH_FLAGS = ("seed", "restarts")
GATE_FLAGS = ("phi", "phi1", "phi2", "q", "variant") + SEARCH_FLAGS
VERIFY_FLAGS = ("aux", "dim", "samples", "cutoff", "seed", "tolerance")
# verify flags that their function's signature names otherwise
_PARAMETERS = {"aux": "n_aux", "dim": "dimension"}


def _flags_read(args, label: str, flags, reads) -> dict:
    """The flags among `flags` given on the command line, by name; one that
    `reads` does not name is a usage error of the run `label` names.  A
    flag not given is left out, so its default is the one in the signature
    of the function that reads it."""
    given = {f: getattr(args, f) for f in flags if getattr(args, f) is not None}
    unread = [f"--{f}" for f in given if f not in reads]
    if unread:
        raise ValueError(f"unrecognized arguments for {label}: {' '.join(unread)}")
    if given.get("restarts", 1) < 1:
        raise ValueError(f"--restarts must be at least 1, got {given['restarts']}")
    return given

# gate --name: the flags each recipe reads, and the recipe.  A recipe gets
# only the flags given, so its defaults are the ones in its gates
# signature; any other flag given is a usage error.
GATES = {
    "swap": ((), gates.swap_gate),
    "nss": (SEARCH_FLAGS, gates.nss_gate_klm),
    "cphase": (("phi", "variant") + SEARCH_FLAGS, gates.cphase_gate),
    "su3": (("phi1", "phi2") + SEARCH_FLAGS, gates.su3_phase_gate),
    "hadamard": ((), gates.hadamard_gate),
    "pauli-x": (("q",) + SEARCH_FLAGS, functools.partial(gates.pauli_xy_gate, "x")),
    "pauli-y": (("q",) + SEARCH_FLAGS, functools.partial(gates.pauli_xy_gate, "y")),
    "ralph-cz": (SEARCH_FLAGS, gates.ralph_cz_check),
    "cnot-search": (SEARCH_FLAGS, gates.cnot_obstruction_search),
}


def _gate_rows(name: str, out) -> str:
    if isinstance(out, gates.RalphCzReport):
        return _rows_to_tsv([
            ("gate", name),
            ("lambda11_analytic_re", _fmt(out.lambda11_analytic.real)),
            ("lambda11_optimized_re", _fmt(out.lambda11_optimized.real)),
            ("lambda11_optimized_im", _fmt(out.lambda11_optimized.imag)),
            ("max_success", _fmt(out.max_success)),
            ("constraint_residual_1", _fmt(out.constraint_residuals[0])),
            ("constraint_residual_2", _fmt(out.constraint_residuals[1])),
        ])
    if isinstance(out, gates.CnotSearchReport):
        return _rows_to_tsv([
            ("gate", name),
            ("min_residual", _fmt(out.min_residual)),
            ("control_residual", _fmt(out.control_residual)),
            ("lift_deviation", _fmt(out.lift_deviation)),
            ("contradiction_found", _fmt(out.contradiction_found)),
            ("best_phi", _fmt(out.best_angles[0])),
            ("best_phi_prime", _fmt(out.best_angles[1])),
            ("evaluations", str(out.evaluations)),
        ])
    _, report = out
    return _report_rows(name, report)


def _cmd_gate(args) -> int:
    reads, recipe = GATES[args.name]
    label = f"gate --name {args.name}"
    if args.name == "cphase" and args.variant == gates.VACUUM_DETECTOR:
        reads, label = ("phi", "variant"), f"{label} --variant {args.variant}"  # searches nothing
    out = recipe(**_flags_read(args, label, GATE_FLAGS, reads))
    sys.stdout.write(_gate_rows(args.name, out))
    return 0


def _cmd_optimize(args) -> int:
    phases = () if args.objective == "nss" else ("phi1", "phi2")
    label = f"optimize --objective {args.objective}"
    given = _flags_read(args, label, ("phi1", "phi2") + SEARCH_FLAGS, phases + SEARCH_FLAGS)
    target = {f: given.pop(f) for f in phases if f in given}
    objective = gates.su3_objective(**target) if phases else gates.nss_objective()
    result = optimize_gate(objective, **given)
    rows = [
        ("objective", args.objective),
        ("residual", _fmt(result.residual)),
        ("probability", _fmt(result.probability)),
        ("restart_index", str(result.restart_index)),
        ("feasible", _fmt(result.feasible)),
        ("evaluations", str(result.evaluations)),
    ]
    for k, v in enumerate(result.params):
        rows.append((f"param_{k}", _fmt(v)))
    sys.stdout.write(_rows_to_tsv(rows))
    return 0


def _cmd_loss(args) -> int:
    c0 = complex(args.c0) if args.c0 is not None else 1.0 / math.sqrt(2.0)
    c1 = complex(args.c1) if args.c1 is not None else 1.0 / math.sqrt(2.0)
    rep = noisy_sigma_z_experiment(args.absorption, args.eta, c0, c1)
    eta = args.eta
    # the three coefficient columns carry the closed forms with the
    # detector efficiency folded in (the (1-eta) and |c1|^2 factors are
    # the branch bookkeeping, reported separately as weights)
    rows = [
        ("coefficient", "value"),
        ("wanted", _fmt(rep.extras["wanted_closed_form"])),
        ("detector", _fmt(eta * rep.detector_closed_form)),
        ("absorption", _fmt(eta * rep.absorption_closed_form)),
        ("wanted_weight", _fmt(rep.wanted_weight)),
        ("detector_weight", _fmt(rep.detector_weight)),
        ("absorption_weight", _fmt(rep.absorption_weight)),
        ("transmission", _fmt(rep.transmission)),
        ("reflection", _fmt(rep.reflection)),
        ("trace", _fmt(rep.output.trace())),
        ("row", "col", "re", "im"),
    ]
    m = rep.output.matrix
    sys.stdout.write(_rows_to_tsv(rows) + _amplitude_rows(range(m.shape[0]), range(m.shape[1]), m))
    return 0


def _cmd_verify(args) -> int:
    if args.prop is not None:
        label, reads = f"verify --prop {args.prop}", ("cutoff", "seed", "tolerance", "aux")
    else:
        label, reads = "verify --appendix", ("seed", "dim", "samples")
    given = {_PARAMETERS.get(f, f): v for f, v in _flags_read(args, label, VERIFY_FLAGS, reads).items()}
    if args.prop is not None:
        tol = given.pop("tolerance", 1e-9)
        if not tol > 0:
            raise ValueError(f"--tolerance must be positive, got {tol}")
        rep = verify_proposition(args.prop, **given)
        # the report's fields but the cutoff it was given, and a deviation only if measured
        rows = [(f.name, _fmt(v)) for f in fields(rep) if f.name != "cutoff" and (v := getattr(rep, f.name)) is not None]
        passed = rep.deviation < tol and (
            rep.leading_coefficient_deviation is None
            or rep.leading_coefficient_deviation < tol
        )
        rows.append(("pass", _fmt(passed)))
        sys.stdout.write(_rows_to_tsv(rows))
        return 0 if passed else 4
    rep = check_appendix_bounds(**given)
    rows = [(f.name, _fmt(getattr(rep, f.name))) for f in fields(rep)]
    violations = rep.unitary_bound_violations + rep.marcus_newman_violations + rep.su3_bound_violations
    rows.append(("pass", _fmt(violations == 0)))
    sys.stdout.write(_rows_to_tsv(rows))
    return 0 if violations == 0 else 4


def _cmd_perm(args) -> int:
    text = _read_text(args.matrix)
    rows = []  # (file line, entries)
    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = _token_columns(raw.split("#", 1)[0])
        if toks:
            rows.append((ln, [_parse_number(t, ln, c, "complex number", complex) for (t, c) in toks]))
    if not rows:
        raise ValueError("matrix file is empty")
    width = len(rows[0][1])
    for ln, r in rows:
        if len(r) != width:
            raise CircuitError(ln, 1, f"ragged matrix row (expected {width} entries)")
    if len(rows) != width:
        raise ValueError(f"matrix must be square, got {len(rows)}x{width}")
    m = np.array([r for _, r in rows], dtype=complex)
    out = []
    method = args.method
    # a permanent too large for a double is a numeric failure (exit 4)
    with np.errstate(over="raise", invalid="raise"):
        if method in ("ryser", "both"):
            v = permanent_ryser(m)
            out += [("ryser_re", v.real), ("ryser_im", v.imag)]
        if method in ("naive", "both"):
            v2 = permanent_naive(m)
            out += [("naive_re", v2.real), ("naive_im", v2.imag)]
        if method == "both":
            out.append(("difference", abs(v - v2)))
    # the Glynn sums are Python floats, which overflow to inf silently
    if not all(math.isfinite(x) for _, x in out):
        raise ArithmeticError("permanent is not finite")
    sys.stdout.write(_rows_to_tsv((key, _fmt(x)) for key, x in out))
    return 0


# ---------------------------------------------------------------------------
# wiring


def _read_text(path) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _pick_cutoff(args, cf: CircuitFile) -> int:
    declared = sum(spec.photons for spec in cf.inputs if type(spec) is FockInput)
    cutoff = args.cutoff if args.cutoff is not None else max(declared, 4)
    if cutoff < declared:
        raise ValueError(f"--cutoff {cutoff} below declared input photon total {declared}")
    return cutoff


def _seed(text: str) -> int:
    """--seed: a non-negative integer, refused at parse time otherwise."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


@functools.cache  # built on the first main() call, not at import
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fockforge",
        description="Fock-space simulation and conditional-gate toolbox",
    )
    sub = p.add_subparsers(dest="command", required=True)

    # each subcommand takes only the shared flags it reads
    def cutoff(sp):
        sp.add_argument("--cutoff", type=int, default=None, help="total photon cutoff")

    def search(sp):
        sp.add_argument("--seed", type=_seed, default=None)
        sp.add_argument("--restarts", type=int, default=None)

    def circuit(sp):
        cutoff(sp)
        sp.add_argument(
            "circuit", nargs="?", default=None, help="circuit file ('-' or absent: stdin)"
        )

    sp = sub.add_parser("simulate", help="amplitudes after the network")
    circuit(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("condition", help="conditional operator from detect lines")
    circuit(sp)
    sp.set_defaults(func=_cmd_condition)

    sp = sub.add_parser("gate", help="named gate recipes")
    search(sp)
    sp.add_argument("--name", required=True, choices=list(GATES))
    sp.add_argument("--phi", type=float, default=None)
    sp.add_argument("--phi1", type=float, default=None)
    sp.add_argument("--phi2", type=float, default=None)
    sp.add_argument("--variant", choices=[gates.FOUR_PHOTON, gates.VACUUM_DETECTOR], default=None)
    sp.add_argument("--q", type=float, default=None)
    sp.set_defaults(func=_cmd_gate)

    sp = sub.add_parser("optimize", help="seeded multistart network search")
    search(sp)
    sp.add_argument("--objective", required=True, choices=["nss", "su3"])
    sp.add_argument("--phi1", type=float, default=None)
    sp.add_argument("--phi2", type=float, default=None)
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("loss", help="noisy sign-flip experiment")
    sp.add_argument("--absorption", type=float, required=True)
    sp.add_argument("--eta", type=float, required=True)
    sp.add_argument("--c0", default=None, help="complex amplitude, e.g. 0.6 or 0.6+0.2j")
    sp.add_argument("--c1", default=None)
    sp.set_defaults(func=_cmd_loss)

    sp = sub.add_parser("verify", help="proposition and permanent-bound suites")
    cutoff(sp)
    sp.add_argument("--seed", type=_seed, default=None)
    sp.add_argument("--tolerance", type=float, default=None)
    suite = sp.add_mutually_exclusive_group(required=True)
    suite.add_argument("--prop", type=int, choices=[1, 2, 3], default=None)
    suite.add_argument("--appendix", action="store_true")
    sp.add_argument("--aux", type=int, default=None)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("perm", help="permanent of a matrix file")
    sp.add_argument("matrix", nargs="?", default=None)
    sp.add_argument("--method", choices=["ryser", "naive", "both"], default="both", help=(
        "ryser: the fast Glynn kernel up to dimension 30, named, as are its ryser_* keys, for "
        "the Ryser evaluator it replaced; naive: expansion over permutations up to dimension 9"))
    sp.set_defaults(func=_cmd_perm)

    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CircuitError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleAtBudgetError as exc:
        print(f"infeasible at budget: {exc}", file=sys.stderr)
        return 3
    except (
        CutoffTooSmallError,
        ArithmeticError,  # OverflowError: every size refusal but a permanent's
        PermanentSizeError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
