"""Self-tests of the benchmark: reference routes against closed forms,
output checks against deliberately perturbed answers, and count metrics
that repeat exactly between two traced rounds.

    PYTHONPATH=src python3 -m pytest perfbench -q

Takes a few minutes: the recipe fixtures run the searches once, and the
trace test runs each workload twice.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from reference import (
    bs_block,
    conditional_operator,
    evolve_fock,
    mode_matrix,
    permanent_glynn,
    proportional_residual,
)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def brute_permanent(a) -> complex:
    n = len(a)
    return sum(math.prod(a[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n)))


# -- reference routes ------------------------------------------------------------


def test_mode_matrix_applies_first_element_first():
    b1 = bs_block(0.3, 0.1, 0.2)
    b2 = bs_block(0.7, -0.4, 1.1)
    m = mode_matrix(2, [("bs", 0, 1, 0.3, 0.1, 0.2), ("bs", 0, 1, 0.7, -0.4, 1.1)])
    assert np.allclose(m, b2 @ b1, atol=1e-15)
    m3 = mode_matrix(3, [("bs", 2, 0, 0.3, 0.1, 0.2), ("phase", 1, 0.5)])
    assert np.allclose(m3[np.ix_((2, 0), (2, 0))], b1, atol=1e-15)
    assert abs(m3[1, 1] - cmath.exp(0.5j)) < 1e-15
    assert np.allclose(m3 @ m3.conj().T, np.eye(3), atol=1e-14)


def test_hong_ou_mandel_dip():
    out = evolve_fock(bs_block(math.pi / 4, 0.0, 0.0), (1, 1))
    assert abs(out.get((1, 1), 0.0)) < 1e-15
    assert abs(abs(out[(2, 0)]) - 1 / math.sqrt(2)) < 1e-15
    assert abs(sum(abs(v) ** 2 for v in out.values()) - 1.0) < 1e-14


def test_catalysis_closed_form():
    theta, pt, pr = 0.6, 0.4, -1.3
    t = math.cos(theta) * cmath.exp(1j * pt)
    r = math.sin(theta) * cmath.exp(1j * pr)
    occs, y = conditional_operator(bs_block(theta, pt, pr), (0,), {(1,): 1.0}, (1,), 6)
    want = np.diag([t ** (n - 1) * (abs(t) ** 2 - n * abs(r) ** 2) for (n,) in occs])
    assert np.max(np.abs(y - want)) < 1e-14


def test_superposed_ancilla_is_the_sum_of_its_components():
    u = mode_matrix(3, workloads.random_mesh(np.random.default_rng(4), 3))
    parts = {(1, 0): 0.6, (0, 1): 0.8j}
    _, y = conditional_operator(u, (0,), parts, (1, 0), 3)
    total = sum(a * conditional_operator(u, (0,), {o: 1.0}, (1, 0), 3)[1] for o, a in parts.items())
    assert np.max(np.abs(y - total)) < 1e-15


def test_glynn_closed_forms_and_brute_force():
    assert abs(permanent_glynn(np.ones((7, 7))) - math.factorial(7)) < 1e-9
    d = np.array([1.5, -2.0, 0.5j, 3.0])
    assert abs(permanent_glynn(np.diag(d)) - np.prod(d)) < 1e-13
    a = workloads.random_matrix(np.random.default_rng(2), 6)
    assert abs(permanent_glynn(a, chunk=5) - brute_permanent(a)) < 1e-12


def test_proportional_residual_ignores_scale_and_phase():
    t = np.array([[1.0, 0.0], [0.0, -1.0]])
    assert proportional_residual(0.3 * cmath.exp(0.7j) * t, t) < 1e-15
    assert proportional_residual(np.diag([1.0, 1.0]), t) > 0.5


# -- output checks reject perturbed answers ------------------------------------------


def _cli(argv, text):
    from fockforge import cli

    return workloads.run_cli(cli, argv, text)


def _perturb_entry(text: str, row: int, column: int, fn) -> str:
    lines = text.splitlines()
    cells = lines[row].split("\t")
    cells[column] = repr(fn(float(cells[column])))
    lines[row] = "\t".join(cells)
    return "\n".join(lines) + "\n"


def _largest_row(text: str, column: int, skip: int) -> int:
    rows = text.splitlines()
    return max(range(skip, len(rows)), key=lambda i: abs(float(rows[i].split("\t")[column])))


def test_simulate_check_rejects_flipped_sign_and_scaled_amplitude():
    rng = np.random.default_rng(5)
    c = workloads.Circuit(3, 3, workloads.fock_inputs(rng, 3, 3), workloads.random_mesh(rng, 3))
    out = _cli(["simulate", "--cutoff", "3", "-"], c.text())
    assert checks.simulate(out, c) == []
    row = _largest_row(out, 3, 1)
    assert checks.simulate(_perturb_entry(out, row, 3, lambda x: -x), c)
    assert checks.simulate(_perturb_entry(out, row, 3, lambda x: x * (1 + 1e-6)), c)


def test_lossy_check_rejects_perturbed_populations():
    c = workloads.lossy_circuit(np.random.default_rng(6), cutoff=3)
    out = _cli(["simulate", "--cutoff", "3", "-"], c.text())
    assert checks.lossy_simulate(out, c) == []
    row = _largest_row(out, 4, 1)
    assert checks.lossy_simulate(_perturb_entry(out, row, 4, lambda x: x * (1 + 1e-6)), c)
    assert checks.lossy_simulate(_perturb_entry(out, row, 4, lambda x: -x), c)
    moved = _perturb_entry(out, 1, 4, lambda x: x + 1e-6)
    assert checks.lossy_simulate(_perturb_entry(moved, row, 4, lambda x: x - 1e-6), c)


@pytest.mark.parametrize("index", range(4))
def test_condition_check_rejects_flipped_sign(index):
    rng = np.random.default_rng(7)
    circuits = workloads.condition_circuits(rng, (ROOT / workloads.BUNDLED_CIRCUIT).read_text())
    c = [circuits[0], circuits[3], circuits[5], circuits[-1]][index]
    out = _cli(["condition", "--cutoff", str(c.cutoff), "-"], c.text())
    assert checks.condition(out, c) == []
    row = _largest_row(out, 2, 4)
    assert checks.condition(_perturb_entry(out, row, 2, lambda x: -x), c)
    assert checks.condition(_perturb_entry(out, 0, 1, lambda x: x * (1 + 1e-6)), c)


def test_catalysis_check_rejects_output_of_another_splitter():
    c = workloads.condition_circuits(np.random.default_rng(8), "modes 1\n")[0]
    out = _cli(["condition", "--cutoff", str(c.cutoff), "-"], c.text())
    assert checks.condition(out, c) == []
    (_, i, j, theta, pt, pr), = c.elements
    assert checks.condition(out, replace(c, elements=[("bs", i, j, theta + 1e-6, pt, pr)]))


def test_permanent_check_rejects_flipped_sign_and_scaled_entry():
    m = workloads.random_matrix(np.random.default_rng(9), 8)
    out = _cli(["perm", "--method", "ryser", "-"], workloads.matrix_text(m))
    assert checks.permanent(out, m) == []
    assert checks.permanent(_perturb_entry(out, 1, 1, lambda x: -x), m)
    scaled = m.copy()
    scaled[3, 4] *= 1 + 1e-6
    assert checks.permanent(out, scaled)


# -- searched recipes ------------------------------------------------------------------


def _with_element(recipe, index, **changes):
    from fockforge.interferometer import NetworkDescription

    elements = list(recipe.network.elements)
    elements[index] = replace(elements[index], **changes)
    return replace(recipe, network=NetworkDescription(recipe.network.mode_count, tuple(elements)))


def _first_splitter(recipe, skip=0):
    return [i for i, e in enumerate(recipe.network.elements) if hasattr(e, "mode_a")][skip]


@pytest.fixture(scope="module")
def nss_out():
    from fockforge import gates

    return gates.nss_gate_klm(**workloads.NSS)


@pytest.fixture(scope="module")
def cphase_out():
    from fockforge import gates

    c = workloads.CPHASE
    return gates.cphase_gate(c["phi"], c["variant"], c["seed"], c["restarts"])


@pytest.fixture(scope="module")
def pauli_out():
    from fockforge import gates

    p = workloads.PAULI
    return gates.pauli_xy_gate(p["which"], p["q"], p["seed"], p["restarts"])


def test_nss_check_rejects_perturbed_network(nss_out):
    recipe, report = nss_out
    assert checks.nss(nss_out) == []
    i = _first_splitter(recipe)
    theta = recipe.network.elements[i].theta
    assert checks.nss((_with_element(recipe, i, theta=theta + 1e-4), report))


def test_cphase_check_rejects_perturbed_network(cphase_out):
    recipe, report = cphase_out
    assert checks.cphase(cphase_out, math.pi) == []
    assert checks.cphase(cphase_out, math.pi / 2)
    i = _first_splitter(recipe, skip=1)
    theta = recipe.network.elements[i].theta
    assert checks.cphase((_with_element(recipe, i, theta=theta + 1e-4), report), math.pi)


def test_pauli_check_rejects_perturbed_network_and_ancilla(pauli_out):
    recipe, report = pauli_out
    assert checks.pauli_x(pauli_out) == []
    i = _first_splitter(recipe)
    theta = recipe.network.elements[i].theta
    assert checks.pauli_x((_with_element(recipe, i, theta=theta + 1e-3), report))
    amps = recipe.aux.amplitudes.copy()
    amps[np.argmax(np.abs(amps))] *= -1
    flipped = replace(recipe, aux=type(recipe.aux)(recipe.aux.basis, amps))
    assert checks.pauli_x((flipped, report))


# -- tracing ----------------------------------------------------------------------------


def test_benchmark_json_names_what_the_run_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


def test_missing_wrapped_name_leaves_its_metrics_out(monkeypatch):
    import tracing
    from fockforge import optimizer

    monkeypatch.delattr(optimizer, "_run_restart")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        layers = tracer.metrics(workloads.TRACED_PERMANENT_SIZES)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["fockforge.optimizer._run_restart"]
    assert "optimizer.evaluations" not in layers and "optimizer.us_per_eval" not in layers
    assert "optimizer.self_s" in layers and "permanent.calls.n3" in layers


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_traced_rounds_give_identical_counts(workload):
    a, b = (run._worker(ROOT, workload, 3, "--trace") for _ in range(2))
    assert a["correct"] and b["correct"]
    assert a["missing_wrappers"] == []
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: unit for k, (_, unit) in a["layers"].items()} == {
        k: u for k, u in declared.items() if k != "trace.overhead_s"
    }
    counts_a = {k: v for k, (v, unit) in a["layers"].items() if unit in ("count", "bytes")}
    counts_b = {k: v for k, (v, unit) in b["layers"].items() if unit in ("count", "bytes")}
    assert counts_a == counts_b
    assert any(counts_a.values())
