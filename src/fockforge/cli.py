"""Command line front end.

Circuit files are line oriented, one directive per line, `#` to end of
line as comment, decimal numbers only:

    modes N
    input fock M K
    input coherent M RE IM
    input tmsv M1 M2 Q
    bs I J THETA PHASE_T PHASE_R
    phase I ANGLE
    lossybs I J THETA PHASE_T PHASE_R ABS
    detect fock M K [ETA]
    detect vacuum M [ETA]

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
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .conditioning import (
    AncillaSpec,
    DetectionSpec,
    extract_conditional_operator,
    lift_unitary,
    success_probability,
    verify_proposition,
)
from .fock import (
    CutoffOverflowError,
    CutoffTooSmallError,
    FockBasis,
    MixedState,
    PureState,
    TotalPhotonCutoff,
    coherent_state,
    tmsv_ladder,
)
from .interferometer import (
    BeamSplitterParams,
    NetworkDescription,
    PhaseShifterParams,
    bs_matrix,
    compose,
    element_matrix,
)
from .lossy import LossyBSParams, apply_kraus, lossy_bs_channel, noisy_sigma_z_experiment
from .optimizer import InfeasibleAtBudgetError, optimize_gate
from .permanent import check_appendix_bounds, permanent_naive, permanent_ryser
from . import gates

# unused here: imported only so that perfbench/tracing.py's WRAPPED names resolve
from .fock import partial_trace  # noqa: F401
from .lossy import dilation_unitary  # noqa: F401

# simulate's size limits, checked before it builds anything (README,
# "simulate"): a lossy circuit carries a dense dim x dim density matrix and
# checks its eigenvalues once, on the final state, and an element's lift
# evaluates permanents as large as the cutoff, so an absorbing splitter
# costs about 1.5 s at cutoff 8 but 17 s at cutoff 10
MAX_SIMULATE_DIMENSION = 1000
MAX_SIMULATE_CUTOFF = 8


class CircuitError(ValueError):
    """Parse or validation failure with source position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line} column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass(frozen=True)
class CircuitFile:
    mode_count: int
    inputs: tuple
    elements: tuple
    detections: tuple


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if v == 0.0:
        v = 0.0  # collapse negative zero
    return format(v, ".12g")


def _rows_to_tsv(rows) -> str:
    return "".join("\t".join(str(c) for c in row) + "\n" for row in rows)


def _occ_str(occ) -> str:
    return ",".join(str(n) for n in occ)


# ---------------------------------------------------------------------------
# circuit grammar


def _token_columns(raw: str):
    cols = []
    i = 0
    while i < len(raw):
        if raw[i].isspace():
            i += 1
            continue
        start = i
        while i < len(raw) and not raw[i].isspace():
            i += 1
        cols.append((raw[start:i], start + 1))
    return cols


def _parse_number(tok: str, line: int, col: int, kind: str = "number") -> float:
    try:
        v = float(tok)
    except ValueError:
        raise CircuitError(line, col, f"expected {kind}, got {tok!r}") from None
    if not math.isfinite(v):
        raise CircuitError(line, col, f"{kind} must be finite")
    return v


def _parse_count(tok: str, line: int, col: int, kind: str) -> int:
    if not tok.isdigit():
        raise CircuitError(line, col, f"expected {kind}, got {tok!r}")
    return int(tok)


def parse_circuit(text: str) -> CircuitFile:
    """Parse the line grammar documented at module top.

    Hard errors on unknown directives, undeclared modes, duplicate
    input or detection claims; positions are 1-based.
    """
    mode_count = None
    inputs: list = []
    elements: list = []
    detections: list = []
    claimed_inputs: dict = {}
    claimed_detects: dict = {}

    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        toks = _token_columns(stripped)
        if not toks:
            continue
        (word, col0) = toks[0]
        word = word.lower()

        def need(n, usage):
            if len(toks) != n:
                raise CircuitError(ln, col0, f"usage: {usage}")

        def mode_ref(pos):
            tok, c = toks[pos]
            m = _parse_count(tok, ln, c, "mode index")
            if mode_count is None:
                raise CircuitError(ln, c, "modes must be declared first")
            if m >= mode_count:
                raise CircuitError(ln, c, f"mode {m} undeclared (modes {mode_count})")
            return m

        if word == "modes":
            need(2, "modes N")
            if mode_count is not None:
                raise CircuitError(ln, col0, "modes declared twice")
            n = _parse_count(toks[1][0], ln, toks[1][1], "mode count")
            if n < 1:
                raise CircuitError(ln, toks[1][1], "need at least one mode")
            mode_count = n
        elif word == "input":
            if len(toks) < 2:
                raise CircuitError(ln, col0, "input needs a kind: fock | coherent | tmsv")
            kind = toks[1][0].lower()
            if kind == "fock":
                need(4, "input fock M K")
                m = mode_ref(2)
                k = _parse_count(toks[3][0], ln, toks[3][1], "photon count")
                spec = ("fock", m, k)
            elif kind == "coherent":
                need(5, "input coherent M RE IM")
                m = mode_ref(2)
                re = _parse_number(toks[3][0], ln, toks[3][1])
                im = _parse_number(toks[4][0], ln, toks[4][1])
                spec = ("coherent", m, re, im)
            elif kind == "tmsv":
                need(5, "input tmsv M1 M2 Q")
                m1 = mode_ref(2)
                m2 = mode_ref(3)
                if m1 == m2:
                    raise CircuitError(ln, toks[3][1], "tmsv needs two distinct modes")
                q = _parse_number(toks[4][0], ln, toks[4][1], "squeezing q")
                if not 0.0 <= q < 1.0:
                    raise CircuitError(ln, toks[4][1], "q must lie in [0, 1)")
                spec = ("tmsv", m1, m2, q)
            else:
                raise CircuitError(ln, toks[1][1], f"unknown input kind {kind!r}")
            for m in spec[1 : 3 if kind == "tmsv" else 2]:
                if m in claimed_inputs:
                    raise CircuitError(ln, col0, f"mode {m} already has an input")
                claimed_inputs[m] = spec
            inputs.append(spec)
        elif word == "bs" or word == "lossybs":
            n_args = 6 if word == "bs" else 7
            need(n_args, f"{word} I J THETA PHASE_T PHASE_R{' ABS' if word == 'lossybs' else ''}")
            i = mode_ref(1)
            j = mode_ref(2)
            if i == j:
                raise CircuitError(ln, toks[2][1], "beam splitter needs two distinct modes")
            theta = _parse_number(toks[3][0], ln, toks[3][1], "angle")
            pt = _parse_number(toks[4][0], ln, toks[4][1], "angle")
            pr = _parse_number(toks[5][0], ln, toks[5][1], "angle")
            if word == "bs":
                elements.append(("bs", i, j, theta, pt, pr))
            else:
                ab = _parse_number(toks[6][0], ln, toks[6][1], "absorption")
                if not 0.0 <= ab < 1.0:
                    raise CircuitError(ln, toks[6][1], "absorption must lie in [0, 1)")
                elements.append(("lossybs", i, j, theta, pt, pr, ab))
        elif word == "phase":
            need(3, "phase I ANGLE")
            i = mode_ref(1)
            angle = _parse_number(toks[2][0], ln, toks[2][1], "angle")
            elements.append(("phase", i, angle))
        elif word == "detect":
            if len(toks) < 2:
                raise CircuitError(ln, col0, "detect needs a kind: fock | vacuum")
            kind = toks[1][0].lower()
            if kind == "fock":
                if len(toks) not in (4, 5):
                    raise CircuitError(ln, col0, "usage: detect fock M K [ETA]")
                m = mode_ref(2)
                k = _parse_count(toks[3][0], ln, toks[3][1], "photon count")
                eta = (
                    _parse_number(toks[4][0], ln, toks[4][1], "efficiency")
                    if len(toks) == 5
                    else 1.0
                )
            elif kind == "vacuum":
                if len(toks) not in (3, 4):
                    raise CircuitError(ln, col0, "usage: detect vacuum M [ETA]")
                m = mode_ref(2)
                k = 0
                eta = (
                    _parse_number(toks[3][0], ln, toks[3][1], "efficiency")
                    if len(toks) == 4
                    else 1.0
                )
            else:
                raise CircuitError(ln, toks[1][1], f"unknown detect kind {kind!r}")
            if not 0.0 < eta <= 1.0:
                raise CircuitError(ln, col0, "efficiency must lie in (0, 1]")
            if m in claimed_detects:
                raise CircuitError(ln, col0, f"mode {m} already detected")
            claimed_detects[m] = True
            detections.append((m, k, eta))
        else:
            raise CircuitError(ln, col0, f"unknown directive {word!r}")

    if mode_count is None:
        raise CircuitError(1, 1, "missing modes declaration")
    return CircuitFile(mode_count, tuple(inputs), tuple(elements), tuple(detections))


def serialize_circuit(cf: CircuitFile) -> str:
    """Canonical text form; parse-serialize is idempotent from the first
    normalization on (numbers re-rendered at 12 digits, one space)."""
    lines = [f"modes {cf.mode_count}"]
    for spec in cf.inputs:
        if spec[0] == "fock":
            lines.append(f"input fock {spec[1]} {spec[2]}")
        elif spec[0] == "coherent":
            lines.append(f"input coherent {spec[1]} {_fmt(spec[2])} {_fmt(spec[3])}")
        else:
            lines.append(f"input tmsv {spec[1]} {spec[2]} {_fmt(spec[3])}")
    for e in cf.elements:
        if e[0] == "bs":
            lines.append(f"bs {e[1]} {e[2]} {_fmt(e[3])} {_fmt(e[4])} {_fmt(e[5])}")
        elif e[0] == "lossybs":
            lines.append(
                f"lossybs {e[1]} {e[2]} {_fmt(e[3])} {_fmt(e[4])} {_fmt(e[5])} {_fmt(e[6])}"
            )
        else:
            lines.append(f"phase {e[1]} {_fmt(e[2])}")
    for (m, k, eta) in cf.detections:
        body = f"detect vacuum {m}" if k == 0 else f"detect fock {m} {k}"
        if eta != 1.0:
            body += f" {_fmt(eta)}"
        lines.append(body)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# circuit execution


def _declared_fock_total(cf: CircuitFile) -> int:
    return sum(spec[2] for spec in cf.inputs if spec[0] == "fock")


def _mode_amplitudes(spec, cutoff: int) -> np.ndarray:
    """Single-mode amplitude ladder for an input directive."""
    amps = np.zeros(cutoff + 1, dtype=complex)
    if spec is None:
        amps[0] = 1.0
        return amps
    if spec[0] == "fock":
        k = spec[2]
        if k > cutoff:
            raise CutoffTooSmallError(f"input photon count {k} above cutoff {cutoff}")
        amps[k] = 1.0
        return amps
    if spec[0] == "coherent":
        # an amplitude too large for the ladder is a numeric failure (exit 4)
        with np.errstate(over="raise", invalid="raise"):
            return coherent_state(complex(spec[2], spec[3]), cutoff).amplitudes
    raise ValueError(f"not a single-mode input: {spec[0]}")


def _inputs_by_mode(cf: CircuitFile) -> dict:
    """The input directive of each mode that has one; a tmsv pair sits
    under both of its modes."""
    return {m: spec for spec in cf.inputs for m in spec[1 : 3 if spec[0] == "tmsv" else 2]}


def _joint_input_state(cf: CircuitFile, cutoff: int) -> PureState:
    basis = FockBasis(cf.mode_count, TotalPhotonCutoff(cutoff))
    by_mode = _inputs_by_mode(cf)
    tmsv_pairs = [
        (spec[1], spec[2], tmsv_ladder(spec[3], cutoff)) for spec in cf.inputs if spec[0] == "tmsv"
    ]
    ladders = {}
    for m in range(cf.mode_count):
        spec = by_mode.get(m)
        if spec is not None and spec[0] == "tmsv":
            continue
        ladders[m] = _mode_amplitudes(spec, cutoff)
    amps = np.zeros(basis.dimension, dtype=complex)
    for i, occ in enumerate(basis.occupations):
        a = 1.0 + 0j
        for m1, m2, ladder in tmsv_pairs:
            if occ[m1] != occ[m2]:
                a = 0.0
                break
            a *= ladder[occ[m1]]
        if a == 0.0:
            continue
        for m, lad in ladders.items():
            a *= lad[occ[m]]
            if a == 0.0:
                break
        amps[i] = a
    nrm = float(np.linalg.norm(amps))
    if nrm < 1e-12:
        raise CutoffTooSmallError("declared input state has no weight below the cutoff")
    return PureState(basis, amps, unchecked=True)


def _element(e):
    """Network element of a lossless element tuple."""
    if e[0] == "bs":
        return BeamSplitterParams(*e[1:])
    if e[0] == "phase":
        return PhaseShifterParams(*e[1:])
    raise ValueError("lossy elements need the density-matrix path")


def _network_of(cf: CircuitFile) -> NetworkDescription:
    return NetworkDescription(cf.mode_count, tuple(_element(e) for e in cf.elements))


def _local_operators(e, cutoff: int):
    """The modes an element touches, in its listed order, and its operators
    on a total-photon basis of just those modes: the lifted unitary of a
    phase or splitter, or the Kraus family of an absorbing splitter."""
    if e[0] == "phase":
        u = element_matrix(PhaseShifterParams(0, e[2]), 1)
        return e[1:2], (lift_unitary(u, FockBasis(1, TotalPhotonCutoff(cutoff))).matrix,)
    block = bs_matrix(BeamSplitterParams(0, 1, *e[3:6]), 2)
    if e[0] == "bs":
        return e[1:3], (lift_unitary(block, FockBasis(2, TotalPhotonCutoff(cutoff))).matrix,)
    ab = e[6]
    params = LossyBSParams(math.sqrt(1.0 - ab * ab) * block.matrix, ab * np.eye(2))
    return e[1:3], lossy_bs_channel(params, cutoff).kraus


def _embed(ops, modes, basis: FockBasis) -> list:
    """Operators on a total-photon basis of `modes` alone, as sparse
    matrices on `basis`: each basis state is paired with its occupation on
    `modes`, and only entries between states whose other modes agree are
    kept.

    Nothing is lost when an operator never raises the photon count on its
    modes (a passive element keeps it, an absorber lowers it): every entry
    it can reach then lies inside `basis`."""
    local = FockBasis(len(modes), basis.policy)
    by_rest: dict = {}
    for b, occ in enumerate(basis.occupations):
        by_rest.setdefault(tuple(n for m, n in enumerate(occ) if m not in modes), []).append(b)
    loc = np.array([local.index[tuple(occ[m] for m in modes)] for occ in basis.occupations])
    groups = [np.array(states) for states in by_rest.values()]
    rows = np.concatenate([np.repeat(g, len(g)) for g in groups])
    cols = np.concatenate([np.tile(g, len(g)) for g in groups])
    out = []
    for op in ops:
        vals = op[loc[rows], loc[cols]]
        keep = vals != 0
        out.append(
            scipy.sparse.csr_array(
                (vals[keep], (rows[keep], cols[keep])), shape=(basis.dimension, basis.dimension)
            )
        )
    return out


def _simulate_pure(cf: CircuitFile, cutoff: int) -> PureState:
    """State-vector evolution, one element at a time."""
    state = _joint_input_state(cf, cutoff)
    amps = state.amplitudes
    for e in cf.elements:
        modes, ops = _local_operators(e, cutoff)
        (op,) = _embed(ops, modes, state.basis)
        amps = op @ amps
    return PureState(state.basis, amps, unchecked=True)


def _simulate_lossy(cf: CircuitFile, cutoff: int) -> MixedState:
    """Density-matrix evolution for circuits containing lossybs elements:
    rho -> sum_K K rho K^dag, one element at a time.  Each Kraus map keeps
    rho positive, so only the final state is validated."""
    state = _joint_input_state(cf, cutoff)
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    for e in cf.elements:
        modes, ops = _local_operators(e, cutoff)
        rho = apply_kraus(_embed(ops, modes, state.basis), rho)
    return MixedState(state.basis, rho)


def _cmd_simulate(args) -> int:
    cf = parse_circuit(_read_text(args.circuit))
    if cf.detections:
        raise CircuitError(1, 1, "simulate takes no detect lines; use the condition subcommand")
    cutoff = _pick_cutoff(args, cf)
    if cutoff > MAX_SIMULATE_CUTOFF:
        raise OverflowError(f"cutoff {cutoff} is above simulate's limit of {MAX_SIMULATE_CUTOFF}")
    dim = math.comb(cf.mode_count + cutoff, cutoff)
    if dim > MAX_SIMULATE_DIMENSION:
        raise OverflowError(
            f"basis dimension {dim} ({cf.mode_count} modes, cutoff {cutoff}) is above "
            f"simulate's limit of {MAX_SIMULATE_DIMENSION}"
        )
    out = []
    if any(e[0] == "lossybs" for e in cf.elements):
        rho = _simulate_lossy(cf, cutoff)
        out.append(tuple(f"n{m}" for m in range(cf.mode_count)) + ("population",))
        for i, occ in enumerate(rho.basis.occupations):
            out.append(tuple(str(n) for n in occ) + (_fmt(rho.matrix[i, i].real),))
    else:
        state = _simulate_pure(cf, cutoff)
        final = state.amplitudes
        out.append(tuple(f"n{m}" for m in range(cf.mode_count)) + ("re", "im"))
        for i, occ in enumerate(state.basis.occupations):
            out.append(
                tuple(str(n) for n in occ) + (_fmt(final[i].real), _fmt(final[i].imag))
            )
    sys.stdout.write(_rows_to_tsv(out))
    return 0


def _cmd_condition(args) -> int:
    cf = parse_circuit(_read_text(args.circuit))
    if not cf.detections:
        raise CircuitError(1, 1, "condition needs at least one detect line")
    for (m, k, eta) in cf.detections:
        if eta != 1.0:
            raise CircuitError(
                1, 1, "condition works with ideal detectors; model efficiency via loss"
            )
    if any(e[0] == "lossybs" for e in cf.elements):
        raise CircuitError(1, 1, "condition needs a unitary network; use loss tooling")
    cutoff = _pick_cutoff(args, cf)
    detected = {m: k for (m, k, _) in cf.detections}
    signal = tuple(m for m in range(cf.mode_count) if m not in detected)
    if not signal:
        raise CircuitError(1, 1, "every mode is detected; nothing remains as signal")
    by_mode = _inputs_by_mode(cf)
    aux_modes = sorted(detected)
    aux_counts = []
    for m in aux_modes:
        spec = by_mode.get(m)
        if spec is None:
            aux_counts.append(0)
        elif spec[0] == "fock":
            aux_counts.append(spec[2])
        else:
            raise CircuitError(1, 1, f"detected mode {m} needs a Fock input, not {spec[0]}")
    cond = extract_conditional_operator(
        compose(_network_of(cf)),
        signal,
        AncillaSpec(tuple(aux_counts)),
        DetectionSpec(tuple(detected[m] for m in aux_modes)),
        cutoff,
    )
    # the reference input lives on the signal modes, renumbered from 0
    position = {m: i for i, m in enumerate(signal)}
    sig_cf = CircuitFile(
        len(signal),
        tuple(
            _remap_input(spec, position)
            for spec in cf.inputs
            if _input_on_signal(spec, detected)
        ),
        (),
        (),
    )
    ref = _joint_input_state(sig_cf, cutoff).normalized()
    prob = success_probability(cond, ref)
    rows = [
        ("success_probability", _fmt(prob)),
        ("faithful_input_levels", str(cond.faithful_input_levels)),
        ("signal_modes", _occ_str(signal)),
    ]
    basis = cond.operator.basis
    rows.append(("out", "in", "re", "im"))
    mat = cond.operator.matrix
    for i, oo in enumerate(basis.occupations):
        for j, oi in enumerate(basis.occupations):
            rows.append((_occ_str(oo), _occ_str(oi), _fmt(mat[i, j].real), _fmt(mat[i, j].imag)))
    sys.stdout.write(_rows_to_tsv(rows))
    return 0


def _input_on_signal(spec, detected) -> bool:
    if spec[0] == "tmsv":
        on = (spec[1] not in detected, spec[2] not in detected)
        if on[0] != on[1]:
            raise CircuitError(1, 1, "tmsv pair split across signal and detection")
        return on[0]
    return spec[1] not in detected


def _remap_input(spec, position):
    if spec[0] == "tmsv":
        return ("tmsv", position[spec[1]], position[spec[2]], spec[3])
    if spec[0] == "fock":
        return ("fock", position[spec[1]], spec[2])
    return ("coherent", position[spec[1]], spec[2], spec[3])


# ---------------------------------------------------------------------------
# non-circuit subcommands


def _report_rows(name: str, report) -> list:
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
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            rows.append((str(i), str(j), _fmt(a[i, j].real), _fmt(a[i, j].imag)))
    return rows


def _restarts(args, default: int) -> int:
    if args.restarts is not None and args.restarts < 1:
        raise ValueError(f"--restarts must be at least 1, got {args.restarts}")
    return default if args.restarts is None else args.restarts


SEARCH_FLAGS = ("seed", "restarts")
GATE_FLAGS = ("phi", "phi1", "phi2", "q", "variant") + SEARCH_FLAGS

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


def _gate_rows(name: str, out) -> list:
    if isinstance(out, gates.RalphCzReport):
        return [
            ("gate", name),
            ("lambda11_analytic_re", _fmt(out.lambda11_analytic.real)),
            ("lambda11_optimized_re", _fmt(out.lambda11_optimized.real)),
            ("lambda11_optimized_im", _fmt(out.lambda11_optimized.imag)),
            ("max_success", _fmt(out.max_success)),
            ("constraint_residual_1", _fmt(out.constraint_residuals[0])),
            ("constraint_residual_2", _fmt(out.constraint_residuals[1])),
        ]
    if isinstance(out, gates.CnotSearchReport):
        return [
            ("gate", name),
            ("min_residual", _fmt(out.min_residual)),
            ("control_residual", _fmt(out.control_residual)),
            ("lift_deviation", _fmt(out.lift_deviation)),
            ("contradiction_found", _fmt(out.contradiction_found)),
            ("best_phi", _fmt(out.best_angles[0])),
            ("best_phi_prime", _fmt(out.best_angles[1])),
            ("evaluations", str(out.evaluations)),
        ]
    _, report = out
    return _report_rows(name, report)


def _cmd_gate(args) -> int:
    reads, recipe = GATES[args.name]
    label = f"--name {args.name}"
    if args.name == "cphase" and args.variant == gates.VACUUM_DETECTOR:
        reads, label = ("phi", "variant"), f"{label} --variant {args.variant}"  # searches nothing
    given = {f: getattr(args, f) for f in GATE_FLAGS if getattr(args, f) is not None}
    unread = [f"--{f}" for f in given if f not in reads]
    if unread:
        raise ValueError(f"unrecognized arguments for gate {label}: {' '.join(unread)}")
    _restarts(args, None)
    out = recipe(**given)
    sys.stdout.write(_rows_to_tsv(_gate_rows(args.name, out)))
    return 0


def _cmd_optimize(args) -> int:
    if args.objective == "nss":
        objective = gates.nss_objective()
    else:
        objective = gates.su3_objective(args.phi1, args.phi2)
    result = optimize_gate(objective, seed=args.seed or 0, restarts=_restarts(args, 24))
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
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            rows.append((str(i), str(j), _fmt(m[i, j].real), _fmt(m[i, j].imag)))
    sys.stdout.write(_rows_to_tsv(rows))
    return 0


def _cmd_verify(args) -> int:
    tol = 1e-9 if args.tolerance is None else args.tolerance
    if not tol > 0:
        raise ValueError(f"--tolerance must be positive, got {tol}")
    if args.prop is not None:
        rep = verify_proposition(args.prop, args.aux, args.seed or 0, 6 if args.cutoff is None else args.cutoff)
        rows = [
            ("proposition", str(rep.proposition)),
            ("n_aux", str(rep.n_aux)),
            ("requested_seed", str(rep.requested_seed)),
            ("used_seed", str(rep.used_seed)),
            ("reseed_count", str(rep.reseed_count)),
            ("deviation", _fmt(rep.deviation)),
        ]
        if rep.leading_coefficient_deviation is not None:
            rows.append(("leading_coefficient_deviation", _fmt(rep.leading_coefficient_deviation)))
        passed = rep.deviation < tol and (
            rep.leading_coefficient_deviation is None
            or rep.leading_coefficient_deviation < tol
        )
        rows.append(("pass", _fmt(passed)))
        sys.stdout.write(_rows_to_tsv(rows))
        return 0 if passed else 4
    if args.appendix:
        rep = check_appendix_bounds(args.dim, args.samples, args.seed or 0)
        rows = [
            ("dimension", str(rep.dimension)),
            ("samples", str(rep.samples)),
            ("max_abs_permanent", _fmt(rep.max_abs_permanent)),
            ("max_abs_subpermanent", _fmt(rep.max_abs_subpermanent)),
            ("max_marcus_newman_ratio", _fmt(rep.max_marcus_newman_ratio)),
            ("max_su3_phase_ratio", _fmt(rep.max_su3_phase_ratio)),
            ("unitary_bound_violations", str(rep.unitary_bound_violations)),
            ("marcus_newman_violations", str(rep.marcus_newman_violations)),
            ("su3_bound_violations", str(rep.su3_bound_violations)),
        ]
        violations = (
            rep.unitary_bound_violations
            + rep.marcus_newman_violations
            + rep.su3_bound_violations
        )
        rows.append(("pass", _fmt(violations == 0)))
        sys.stdout.write(_rows_to_tsv(rows))
        return 0 if violations == 0 else 4
    raise ValueError("verify needs --prop or --appendix")


def _parse_complex_token(tok: str, line: int, col: int) -> complex:
    try:
        return complex(tok)
    except ValueError:
        raise CircuitError(line, col, f"expected a complex number, got {tok!r}") from None


def _cmd_perm(args) -> int:
    text = _read_text(args.matrix)
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        toks = _token_columns(stripped)
        if not toks:
            continue
        rows.append([_parse_complex_token(t, ln, c) for (t, c) in toks])
    if not rows:
        raise CircuitError(1, 1, "matrix file is empty")
    width = len(rows[0])
    for ln, r in enumerate(rows, start=1):
        if len(r) != width:
            raise CircuitError(ln, 1, f"ragged matrix row (expected {width} entries)")
    if len(rows) != width:
        raise CircuitError(1, 1, f"matrix must be square, got {len(rows)}x{width}")
    m = np.array(rows, dtype=complex)
    out = []
    method = args.method
    if method in ("ryser", "both"):
        v = permanent_ryser(m)
        out.append(("ryser_re", _fmt(v.real)))
        out.append(("ryser_im", _fmt(v.imag)))
    if method in ("naive", "both"):
        v2 = permanent_naive(m)
        out.append(("naive_re", _fmt(v2.real)))
        out.append(("naive_im", _fmt(v2.imag)))
    if method == "both":
        out.append(("difference", _fmt(abs(v - v2))))
    sys.stdout.write(_rows_to_tsv(out))
    return 0


# ---------------------------------------------------------------------------
# wiring


def _read_text(path) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _pick_cutoff(args, cf: CircuitFile) -> int:
    declared = _declared_fock_total(cf)
    cutoff = args.cutoff if args.cutoff is not None else max(declared, 4)
    if cutoff < declared:
        raise CircuitError(
            1, 1, f"cutoff {cutoff} below declared input photon total {declared}"
        )
    return cutoff


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
        sp.add_argument("--seed", type=int, default=None)
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
    sp.add_argument("--phi1", type=float, default=0.0)
    sp.add_argument("--phi2", type=float, default=math.pi)
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("loss", help="noisy sign-flip experiment")
    sp.add_argument("--absorption", type=float, required=True)
    sp.add_argument("--eta", type=float, required=True)
    sp.add_argument("--c0", default=None, help="complex amplitude, e.g. 0.6 or 0.6+0.2j")
    sp.add_argument("--c1", default=None)
    sp.set_defaults(func=_cmd_loss)

    sp = sub.add_parser("verify", help="proposition and permanent-bound suites")
    cutoff(sp)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--tolerance", type=float, default=None)
    sp.add_argument("--prop", type=int, choices=[1, 2, 3], default=None)
    sp.add_argument("--aux", type=int, default=2)
    sp.add_argument("--appendix", action="store_true")
    sp.add_argument("--dim", type=int, default=7)
    sp.add_argument("--samples", type=int, default=200)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("perm", help="permanent of a matrix file")
    sp.add_argument("matrix", nargs="?", default=None)
    sp.add_argument("--method", choices=["ryser", "naive", "both"], default="both")
    sp.set_defaults(func=_cmd_perm)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
        CutoffOverflowError,
        ArithmeticError,
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
