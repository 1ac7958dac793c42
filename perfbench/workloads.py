"""Workload inputs and operations.

Every circuit and matrix is generated from the run's seed; the program
sees only the generated text (circuits and matrices go in on stdin, as a
CLI user would pipe them) or the recipe arguments.  Each operation
belongs to a named part of its workload; the run prints each part's
time next to its metrics (see README.md).

The searched recipes keep their pinned search seeds whatever the run
seed is: the restart counts below are chosen so that each search
reaches a feasible network from its seed, and another seed can change
which restart is feasible, or whether any is.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from dataclasses import dataclass, field

import numpy as np

import checks

NSS = dict(seed=7, restarts=4)
CPHASE = dict(phi=math.pi, variant="four-photon", seed=11, restarts=6)
PAULI = dict(which="x", q=0.01, seed=3, restarts=1)

PERMANENT_SIZES = {"perm_16_to_18_s": (16, 17, 18), "perm_19_s": (19,), "perm_20_s": (20,)}
# Repetitions per round, so that machine noise averages out over samples
# taken through the round.  The searches are never repeated in one
# process: a repeat would hit the solve caches.
SHORT_REPEAT = 3
LOSSY_REPEAT = 2
PERMANENT_REPEAT = {16: 2, 17: 2, 18: 2}
BUNDLED_CIRCUIT = "circuits/nss_klm.circuit"

WORKLOADS = ("search", "simulate", "permanent")
# every permanent size some workload evaluates; per-size metrics cover these
TRACED_PERMANENT_SIZES = tuple(range(12)) + tuple(range(16, 21))


@dataclass
class Circuit:
    """A circuit in the CLI's line grammar, kept as data so the reference
    routes can rebuild it: elements are ("bs", i, j, theta, phase_t,
    phase_r), ("phase", i, angle) or ("lossybs", i, j, theta, phase_t,
    phase_r, absorption); inputs and detections are (mode, photons)."""

    modes: int
    cutoff: int
    inputs: list
    elements: list
    detections: list = field(default_factory=list)

    def text(self) -> str:
        lines = [f"modes {self.modes}"]
        lines += [f"input fock {m} {k}" for m, k in self.inputs]
        for e in self.elements:
            lines.append(" ".join([e[0]] + [repr(x) for x in e[1:]]))
        for m, k in self.detections:
            lines.append(f"detect fock {m} {k}" if k else f"detect vacuum {m}")
        return "\n".join(lines) + "\n"


@dataclass
class Operation:
    """One timed call into the program.  ``run`` returns the output that
    ``check`` inspects; ``check`` returns a list of problems.  A round
    calls ``run`` ``repeat`` times; the operation's time is the median,
    and ``part`` names the group of operations it is added to."""

    name: str
    part: str
    run: object
    check: object
    repeat: int = 1


# -- input generation ---------------------------------------------------------


def _angles(rng, count):
    return [float(x) for x in rng.uniform(0.0, 2.0 * math.pi, count)]


def random_mesh(rng, modes: int) -> list:
    """Triangular mesh of adjacent-pair splitters, then a phase layer."""
    out = []
    for col in range(modes - 1):
        for row in range(modes - 1, col, -1):
            theta = float(rng.uniform(0.1, math.pi / 2 - 0.1))
            out.append(("bs", row - 1, row, theta, *_angles(rng, 2)))
    out += [("phase", m, a) for m, a in enumerate(_angles(rng, modes))]
    return out


def fock_inputs(rng, modes: int, photons: int) -> list:
    """Spread ``photons`` over the modes at random, one (mode, k) per
    occupied mode."""
    counts = np.bincount(rng.integers(0, modes, photons), minlength=modes)
    return [(m, int(k)) for m, k in enumerate(counts) if k]


def lossless_circuits(rng) -> list:
    """Two dense lifts of basis dimension 210 each."""
    return [
        Circuit(4, 6, fock_inputs(rng, 4, 6), random_mesh(rng, 4)),
        Circuit(6, 4, fock_inputs(rng, 6, 4), random_mesh(rng, 6)),
    ]


def lossy_circuit(rng, cutoff: int = 5) -> Circuit:
    """Four modes, three photons, one absorbing layer over every mode.

    Both absorbing splitters share one absorption, so each photon crosses
    exactly one of them and the photon-number distribution at the output
    is Binomial(3, 1 - absorption^2)."""
    absorption = float(rng.uniform(0.2, 0.6))
    empty = int(rng.integers(0, 4))
    inputs = [(m, 1) for m in range(4) if m != empty]

    def splitter(i, j):
        return (i, j, float(rng.uniform(0.2, 1.3)), *_angles(rng, 2))

    elements = [
        ("bs", *splitter(1, 2)),
        ("lossybs", *splitter(0, 1), absorption),
        ("lossybs", *splitter(2, 3), absorption),
        ("bs", *splitter(0, 2)),
        ("phase", 3, _angles(rng, 1)[0]),
    ]
    return Circuit(4, cutoff, inputs, elements)


def _heralded(rng, modes, aux_in, aux_det, signal_in, cutoff) -> Circuit:
    """Random network with Fock inputs and detectors on ``len(aux_in)``
    randomly placed modes; the other modes are signal modes."""
    aux_modes = sorted(int(m) for m in rng.choice(modes, len(aux_in), replace=False))
    signal_modes = [m for m in range(modes) if m not in aux_modes]
    inputs = [(m, k) for m, k in zip(aux_modes, aux_in) if k]
    inputs += [(m, k) for m, k in zip(signal_modes, signal_in) if k]
    detections = list(zip(aux_modes, aux_det))
    return Circuit(modes, cutoff, sorted(inputs), random_mesh(rng, modes), detections)


def condition_circuits(rng, bundled_text: str) -> list:
    """Photon-counting and vacuum detectors on 2- to 6-mode networks, with
    one to three signal modes."""
    out = []
    for _ in range(2):
        # single-splitter catalysis: one photon in, one photon heralded
        theta = float(rng.uniform(0.2, 1.3))
        out.append(Circuit(2, 8, [(1, 1)], [("bs", 0, 1, theta, *_angles(rng, 2))], [(1, 1)]))
    for _ in range(2):
        out.append(_heralded(rng, 3, (1, 0), (1, 0), (0,), 10))
        out.append(_heralded(rng, 4, (1, 1), (1, 0), (1, 0), 8))
        out.append(_heralded(rng, 5, (1, 1), (1, 1), (1, 0, 0), 5))
        out.append(_heralded(rng, 6, (1, 1, 1), (1, 0, 1), (1, 0, 0), 5))
        out.append(_heralded(rng, 6, (1, 1, 1, 1), (1, 1, 1, 1), (1, 0), 6))
    out.append(parse_bundled(bundled_text))
    return out


def parse_bundled(text: str) -> Circuit:
    """The bundled circuit file, read with the few directives it uses."""
    modes, inputs, elements, detections = 0, [], [], []
    for raw in text.splitlines():
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] == "modes":
            modes = int(tok[1])
        elif tok[:2] == ["input", "fock"]:
            inputs.append((int(tok[2]), int(tok[3])))
        elif tok[0] == "bs":
            elements.append(("bs", int(tok[1]), int(tok[2]), *map(float, tok[3:6])))
        elif tok[0] == "phase":
            elements.append(("phase", int(tok[1]), float(tok[2])))
        elif tok[:2] == ["detect", "fock"]:
            detections.append((int(tok[2]), int(tok[3])))
        elif tok[:2] == ["detect", "vacuum"]:
            detections.append((int(tok[2]), 0))
        else:
            raise ValueError(f"unexpected directive in the bundled circuit: {raw!r}")
    return Circuit(modes, 4, inputs, elements, detections)


def random_matrix(rng, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)


def matrix_text(m: np.ndarray) -> str:
    return "".join(
        " ".join(f"{float(z.real)!r}{float(z.imag):+.17g}j" for z in row) + "\n" for row in m
    )


# -- operations ------------------------------------------------------------------


def run_cli(cli, argv, stdin_text) -> str:
    """fockforge.cli.main in-process, stdin fed from a string and stdout
    captured.  Returns the stdout text; a non-zero exit code raises."""
    buf = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    if code != 0:
        raise RuntimeError(f"fockforge {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def operations(workload: str, seed: int) -> list:
    """The operations of one round, inputs drawn from ``seed``."""
    from fockforge import cli, gates

    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "search":
        return [
            Operation("nss", "nss_solve_s", lambda: gates.nss_gate_klm(**NSS), checks.nss),
            Operation(
                "cphase",
                "cphase_solve_s",
                lambda: gates.cphase_gate(CPHASE["phi"], CPHASE["variant"], CPHASE["seed"], CPHASE["restarts"]),
                lambda out: checks.cphase(out, CPHASE["phi"]),
            ),
            Operation(
                "pauli-x",
                "pauli_solve_s",
                lambda: gates.pauli_xy_gate(PAULI["which"], PAULI["q"], PAULI["seed"], PAULI["restarts"]),
                checks.pauli_x,
            ),
        ]
    if workload == "simulate":
        ops = []
        for c in lossless_circuits(rng):
            ops.append(_cli_op(cli, "simulate", "simulate_s", c, checks.simulate, SHORT_REPEAT))
        ops.append(_cli_op(cli, "simulate", "lossy_simulate_s", lossy_circuit(rng), checks.lossy_simulate, LOSSY_REPEAT))
        with open(BUNDLED_CIRCUIT, encoding="utf-8") as fh:
            bundled = fh.read()
        for c in condition_circuits(rng, bundled):
            ops.append(_cli_op(cli, "condition", "condition_s", c, checks.condition, SHORT_REPEAT))
        return ops
    if workload == "permanent":
        ops = []
        for part, sizes in PERMANENT_SIZES.items():
            for n in sizes:
                m = random_matrix(rng, n)
                text = matrix_text(m)
                ops.append(
                    Operation(
                        f"perm-{n}",
                        part,
                        lambda text=text: run_cli(cli, ["perm", "--method", "ryser", "-"], text),
                        lambda out, m=m: checks.permanent(out, m),
                        PERMANENT_REPEAT.get(n, 1),
                    )
                )
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _cli_op(cli, command, part, circuit, check, repeat):
    text = circuit.text()
    return Operation(
        f"{command}-{circuit.modes}m",
        part,
        lambda: run_cli(cli, [command, "--cutoff", str(circuit.cutoff), "-"], text),
        lambda out: check(out, circuit),
        repeat,
    )
