"""Output checks.  Each returns a list of problems; an empty list passes.

Every check recomputes the answer through ``reference`` (never through
fockforge's numerics) or tests a property the method must have.  The
CLI prints numbers to 12 significant digits, so agreement bounds on
printed values sit well above that rounding.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from reference import (
    bs_block,
    conditional_operator,
    element_tuples,
    evolve_fock,
    mode_matrix,
    occupations,
    permanent_glynn,
    proportional_residual,
)

AMPLITUDE_TOL = 1e-10
PERMANENT_RTOL = 1e-8
NSS_SHAPE_TOL = 1e-6
NSS_PROBABILITY_TOL = 1e-3
NSS_L11_TOL = 1e-6
CPHASE_SHAPE_TOL = 1e-6
SU3_CONDITION_TOL = 1e-6
CPHASE_ARM_FLOOR = 0.235
PAULI_SHAPE_TOL = 1e-4
NEGATIVE_POPULATION_TOL = 1e-12


def _rows(text: str) -> list:
    return [line.split("\t") for line in text.splitlines()]


def _within(errors: list, what: str, value, bound) -> None:
    # written as `not value <= bound` so that NaN fails
    if not value <= bound:
        errors.append(f"{what}: {value:.3e} exceeds {bound:.1e}")


# -- searched recipes ------------------------------------------------------------


def nss(out) -> list:
    """Sign shift: diag(c, c, -c) with |c|^2 = 1/4 and L11 = 1 - sqrt(2)."""
    recipe, _ = out
    lam = mode_matrix(3, element_tuples(recipe.network))
    _, y = conditional_operator(lam, (0,), {(1, 0): 1.0}, (1, 0), 2)
    errors: list = []
    _within(errors, "nss shape residual", proportional_residual(y, np.diag([1.0, 1.0, -1.0])), NSS_SHAPE_TOL)
    _within(errors, "nss |c|^2 - 1/4", abs(abs(y[0, 0]) ** 2 - 0.25), NSS_PROBABILITY_TOL)
    _within(errors, "nss L11 - (1 - sqrt 2)", abs(lam[0, 0] - (1.0 - math.sqrt(2.0))), NSS_L11_TOL)
    return errors


def _qubit_target(occs, phi):
    qubit = ((0, 0), (0, 1), (1, 0), (1, 1))
    index = {o: i for i, o in enumerate(occs)}
    target = np.zeros((len(occs), 4), dtype=complex)
    for j, o in enumerate(qubit):
        target[index[o], j] = cmath.exp(1j * phi) if o == (1, 1) else 1.0
    return [index[o] for o in qubit], target


def cphase(out, phi: float) -> list:
    """Four-photon controlled phase: the qubit slab of the whole 6-mode
    network, and the 3-mode arm between the balanced splitters.

    The recipe is a Mach-Zehnder sandwich: a balanced splitter on modes
    (0, 1), one arm on modes (0, 2, 3) and one on (1, 4, 5), and the
    inverse splitter.  Undoing the two splitters leaves the arms."""
    recipe, _ = out
    lam = mode_matrix(6, element_tuples(recipe.network))
    occs, y = conditional_operator(lam, (0, 1), {(1, 1, 1, 1): 1.0}, (1, 1, 1, 1), 2)
    cols, target = _qubit_target(occs, phi)
    errors: list = []
    _within(errors, "cphase slab residual", proportional_residual(y[:, cols], target), CPHASE_SHAPE_TOL)

    def splitter(phase_r):
        m = np.eye(6, dtype=complex)
        m[:2, :2] = bs_block(math.pi / 4.0, 0.0, phase_r)
        return m

    middle = splitter(math.pi).conj().T @ lam @ splitter(0.0).conj().T
    arm_modes, other = (0, 2, 3), (1, 4, 5)
    _within(errors, "cphase arm coupling", float(np.max(np.abs(middle[np.ix_(arm_modes, other)]))), 1e-10)
    arm = middle[np.ix_(arm_modes, arm_modes)]
    per11 = arm[1, 1] * arm[2, 2] + arm[1, 2] * arm[2, 1]
    l11 = arm[0, 0]
    lhs = per11 * (cmath.exp(1j * phi) + l11 * l11 - 2.0 * l11)
    rhs = 2.0 * arm[0, 1] * arm[1, 0] * arm[0, 2] * arm[2, 0]
    _within(errors, "cphase SU(3) condition", abs(lhs - rhs), SU3_CONDITION_TOL)
    if not abs(per11) ** 2 >= CPHASE_ARM_FLOOR:
        errors.append(f"cphase arm probability {abs(per11) ** 2:.4f} below {CPHASE_ARM_FLOOR}")
    return errors


def pauli_x(out) -> list:
    """Pauli X: KILL after the heralded operator leaves sigma_x on the
    0/1 qubit, nothing else in its columns."""
    recipe, _ = out
    lam = mode_matrix(3, element_tuples(recipe.network))
    ancilla = {
        tuple(o): complex(a)
        for o, a in zip(recipe.aux.basis.occupations, recipe.aux.amplitudes)
        if a != 0
    }
    occs, y = conditional_operator(lam, (0,), ancilla, (1, 0), 6)
    n = np.array([o[0] for o in occs], dtype=float)
    kill = np.diag(1.0 - n * (n - 1.0) / 2.0)
    slab = (kill @ y)[:, :2]
    target = np.zeros_like(slab)
    target[:2, :] = [[0.0, 1.0], [1.0, 0.0]]
    errors: list = []
    _within(errors, "pauli-x slab residual", proportional_residual(slab, target), PAULI_SHAPE_TOL)
    return errors


# -- CLI subcommands ---------------------------------------------------------------


def _table(text: str, modes: int, columns: tuple) -> dict:
    rows = _rows(text)
    header = tuple(f"n{m}" for m in range(modes)) + columns
    if not rows or tuple(rows[0]) != header:
        raise ValueError(f"unexpected header {rows[:1]}")
    return {tuple(int(x) for x in r[:modes]): [float(x) for x in r[modes:]] for r in rows[1:]}


def _basis_errors(table: dict, modes: int, cutoff: int, rows: int) -> list:
    expected = set(occupations(modes, cutoff))
    if set(table) != expected or rows != len(expected):
        return [f"printed occupations differ from the {len(expected)} of the basis"]
    return []


def simulate(text: str, circuit) -> list:
    """Lossless simulate: amplitudes against the polynomial route."""
    table = _table(text, circuit.modes, ("re", "im"))
    errors = _basis_errors(table, circuit.modes, circuit.cutoff, len(_rows(text)) - 1)
    occ_in = [0] * circuit.modes
    for m, k in circuit.inputs:
        occ_in[m] = k
    ref = evolve_fock(mode_matrix(circuit.modes, circuit.elements), occ_in)
    worst = max(abs(complex(*v) - ref.get(occ, 0.0)) for occ, v in table.items())
    _within(errors, "simulate amplitude deviation", worst, AMPLITUDE_TOL)
    return errors


def lossy_simulate(text: str, circuit) -> list:
    """Lossy simulate: a probability distribution whose total photon
    number is Binomial(photons, 1 - absorption^2)."""
    table = _table(text, circuit.modes, ("population",))
    errors = _basis_errors(table, circuit.modes, circuit.cutoff, len(_rows(text)) - 1)
    pops = {occ: v[0] for occ, v in table.items()}
    lowest = min(pops.values())
    if not lowest >= -NEGATIVE_POPULATION_TOL:
        errors.append(f"negative population {lowest:.3e}")
    _within(errors, "population sum - 1", abs(math.fsum(pops.values()) - 1.0), AMPLITUDE_TOL)
    (absorption,) = {e[-1] for e in circuit.elements if e[0] == "lossybs"}
    keep = 1.0 - absorption * absorption
    photons = sum(k for _, k in circuit.inputs)
    worst = 0.0
    for total in range(circuit.cutoff + 1):
        got = math.fsum(p for occ, p in pops.items() if sum(occ) == total)
        want = math.comb(photons, total) * keep**total * (1.0 - keep) ** (photons - total) if total <= photons else 0.0
        worst = max(worst, abs(got - want))
    _within(errors, "photon-number distribution vs binomial", worst, AMPLITUDE_TOL)
    return errors


def condition(text: str, circuit) -> list:
    """condition: every operator entry and the success probability against
    the polynomial route; single-splitter catalysis also against
    Y(n) = T^{n-1} (|T|^2 - n |R|^2)."""
    rows = _rows(text)
    head = {r[0]: r[1] for r in rows[:3]}
    if tuple(rows[3]) != ("out", "in", "re", "im"):
        raise ValueError(f"unexpected header {rows[3]}")
    got = {(r[0], r[1]): complex(float(r[2]), float(r[3])) for r in rows[4:]}

    detected = dict(circuit.detections)
    inputs = dict(circuit.inputs)
    aux = sorted(detected)
    signal = tuple(m for m in range(circuit.modes) if m not in detected)
    ancilla = tuple(inputs.get(m, 0) for m in aux)
    det = tuple(detected[m] for m in aux)
    lam = mode_matrix(circuit.modes, circuit.elements)
    occs, y = conditional_operator(lam, signal, {ancilla: 1.0}, det, circuit.cutoff)

    def label(o):
        return ",".join(str(k) for k in o)

    errors: list = []
    want = {(label(a), label(b)): y[i, j] for i, a in enumerate(occs) for j, b in enumerate(occs)}
    if set(got) != set(want) or len(rows) - 4 != len(want):
        return [f"printed entries differ from the {len(want)} of the signal basis"]
    _within(errors, "condition entry deviation", max(abs(got[k] - want[k]) for k in want), AMPLITUDE_TOL)

    col = occs.index(tuple(inputs.get(m, 0) for m in signal))
    prob = float(np.sum(np.abs(y[:, col]) ** 2))
    _within(errors, "condition success probability", abs(float(head["success_probability"]) - prob), AMPLITUDE_TOL)
    faithful = circuit.cutoff - max(sum(ancilla) - sum(det), 0)
    if head["faithful_input_levels"] != str(faithful) or head["signal_modes"] != label(signal):
        errors.append(f"condition header {head} (expected faithful {faithful}, signal {label(signal)})")

    if circuit.modes == 2 and circuit.inputs == [(1, 1)] and circuit.detections == [(1, 1)]:
        (_, _, _, theta, pt, pr), = circuit.elements
        t = math.cos(theta) * cmath.exp(1j * pt)
        r = math.sin(theta) * cmath.exp(1j * pr)
        worst = max(
            abs(got[(str(n), str(n))] - t ** (n - 1) * (abs(t) ** 2 - n * abs(r) ** 2))
            for n in range(circuit.cutoff + 1)
        )
        _within(errors, "catalysis closed form", worst, AMPLITUDE_TOL)
    return errors


def permanent(text: str, matrix) -> list:
    """perm --method ryser against the Glynn route, relative to |per|."""
    head = {r[0]: float(r[1]) for r in _rows(text)}
    value = complex(head["ryser_re"], head["ryser_im"])
    ref = permanent_glynn(matrix)
    errors: list = []
    _within(errors, f"ryser vs glynn (n={len(matrix)}) relative", abs(value - ref) / abs(ref), PERMANENT_RTOL)
    return errors
