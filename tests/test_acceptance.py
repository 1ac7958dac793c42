"""Acceptance gate: every release-blocking numeric claim in one place.

Each criterion prints one `ACCEPTANCE NN <name>: PASS` line when it holds
and fails its assert otherwise.  The file doubles as a standalone runner
(`python3 tests/test_acceptance.py`) that prints FAIL lines instead of
tracebacks and exits nonzero on any miss.  Budgeted to finish well under
five minutes; nothing caches a search, so every searched gate here runs
its own search, as a CLI user's would.
"""

import contextlib
import io
import math
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracles import lift_oracle, lossy_bs_channel

from fockforge.cli import main as cli_main
from fockforge.conditioning import (
    AncillaSpec,
    DetectionSpec,
    extract_conditional_operator,
    lift_unitary,
    verify_proposition,
)
from fockforge.fock import FockBasis, MixedState, TotalPhotonCutoff
from fockforge.gates import (
    FOUR_PHOTON,
    VACUUM_DETECTOR,
    cnot_obstruction_search,
    cphase_gate,
    hadamard_gate,
    nss_gate_klm,
    pauli_xy_gate,
    procrustean_filter,
    ralph_cz_check,
    swap_gate,
    tmsv_state,
)
from fockforge.interferometer import (
    BeamSplitterParams,
    ModeUnitary,
    bs_matrix,
    random_unitary,
)
from fockforge.lossy import LossyBSParams, noisy_sigma_z_experiment
from fockforge.permanent import check_appendix_bounds, permanent_naive, permanent_ryser

SQRT2 = math.sqrt(2.0)


def _line(num: int, name: str):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


# ---------------------------------------------------------------------------
# 1. single-splitter catalysis closed form


def test_acceptance_01_catalysis_closed_form():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng([seed, 17])
        theta = rng.uniform(0.05, math.pi / 2.0 - 0.05)
        pt, pr = rng.uniform(0.0, 2.0 * math.pi, 2)
        params = BeamSplitterParams(0, 1, theta, pt, pr)
        u = bs_matrix(params, 2)
        cond = extract_conditional_operator(
            u, (0,), AncillaSpec((1,)), DetectionSpec((1,)), 5
        )
        t = params.transmission
        r = params.reflection
        diag = np.diag(cond.operator.matrix)
        for n in range(6):
            closed = t ** (n - 1) * (abs(t) ** 2 - n * abs(r) ** 2)
            dev = abs(diag[n] - closed)
            if abs(closed) >= 1e-8:
                dev /= abs(closed)
            worst = max(worst, dev)
    assert worst < 1e-10, f"max relative deviation {worst:.3e}"
    _line(1, "catalysis closed form")


# ---------------------------------------------------------------------------
# 2. layer-amplitude propositions


def test_acceptance_02_layer_propositions():
    worst = 0.0
    for which in (1, 2, 3):
        for n_aux in (1, 2, 3):
            for seed in range(20):
                rep = verify_proposition(which, n_aux, seed)
                worst = max(worst, rep.deviation)
                if rep.leading_coefficient_deviation is not None:
                    worst = max(worst, rep.leading_coefficient_deviation)
    assert worst < 1e-9, f"worst proposition deviation {worst:.3e}"
    _line(2, "layer propositions 1-3")


# ---------------------------------------------------------------------------
# 3. permanent lift against the polynomial-expansion oracle


def test_acceptance_03_lift_oracle_equivalence():
    worst = 0.0
    for modes in (1, 2, 3, 4):
        basis = FockBasis(modes, TotalPhotonCutoff(4))
        for seed in (0, 1, 2):
            u = random_unitary(modes, seed)
            lift = lift_unitary(u, basis).matrix
            ref = lift_oracle(u.matrix, basis)
            worst = max(worst, float(np.max(np.abs(lift - ref))))
    assert worst < 1e-10, f"worst entrywise deviation {worst:.3e}"
    _line(3, "lift oracle equivalence")


# ---------------------------------------------------------------------------
# 4. permanent suite


def test_acceptance_04_permanent_suite():
    for n in range(1, 8):
        for seed in (0, 1):
            rng = np.random.default_rng([n, seed])
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = permanent_ryser(m)
            b = permanent_naive(m)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), f"ryser/naive split at n={n}"
    rep = check_appendix_bounds(7, 5000, 0)
    assert rep.unitary_bound_violations == 0
    assert rep.marcus_newman_violations == 0
    assert rep.su3_bound_violations == 0
    assert rep.max_abs_permanent <= 1.0 + 1e-12
    assert rep.max_abs_subpermanent <= 1.0 + 1e-12
    _line(4, "permanent suite incl. product and phase bounds")


# ---------------------------------------------------------------------------
# 5. nonlinear sign shift


def test_acceptance_05_sign_shift():
    _, report = nss_gate_klm(seed=7, restarts=24)
    assert report.residual < 1e-6, f"residual {report.residual:.3e}"
    assert abs(report.success_probability - 0.25) <= 1e-3
    _line(5, "sign-shift gate at quarter success")


# ---------------------------------------------------------------------------
# 6. constrained controlled-z arm


def test_acceptance_06_constrained_cz_arm():
    rep = ralph_cz_check(seed=7, restarts=24)
    assert abs(rep.lambda11_analytic - (1.0 - SQRT2)) < 1e-9
    assert abs(rep.lambda11_optimized - (1.0 - SQRT2)) < 1e-6
    assert abs(rep.max_success - 0.25) <= 1e-3
    _line(6, "constrained controlled-z arm")


# ---------------------------------------------------------------------------
# 7. four-photon controlled phase


def test_acceptance_07_four_photon_cphase():
    # budgeted to at most 500 restarts; 24 already clear the floor
    _, report = cphase_gate(math.pi, variant=FOUR_PHOTON, seed=11, restarts=24)
    assert report.extras["arm_probability"] >= 0.235
    assert report.residual < 1e-6
    assert report.extras["route_deviation"] < 1e-10
    _line(7, "four-photon controlled phase per-arm floor")


# ---------------------------------------------------------------------------
# 8. vacuum-detector controlled phase


def test_acceptance_08_vacuum_detector_cphase():
    _, report = cphase_gate(math.pi, variant=VACUUM_DETECTOR)
    assert abs(report.extras["t1"] - 0.476) < 5e-4
    assert abs(report.extras["t0"] - 0.87) < 5e-3
    assert abs(report.extras["per_arm_success"] - 0.23) <= 0.01
    assert abs(report.success_probability - 0.053) <= 0.005
    _line(8, "vacuum-detector controlled phase")


# ---------------------------------------------------------------------------
# 9. mode swap


def test_acceptance_09_swap():
    _, report = swap_gate()
    assert report.success_probability == 1.0
    assert report.residual < 1e-12
    _line(9, "deterministic mode swap")


# ---------------------------------------------------------------------------
# 10. CNOT product obstruction


def test_acceptance_10_cnot_obstruction():
    rep = cnot_obstruction_search(grid_size=13, restarts=200, seed=0)
    assert rep.control_residual < 1e-8, f"control residual {rep.control_residual:.3e}"
    assert rep.min_residual > 0.01, f"floor {rep.min_residual:.3e}"
    assert not rep.contradiction_found
    _line(10, "cnot product obstruction floor")


# ---------------------------------------------------------------------------
# 11. Hadamard composition


def test_acceptance_11_hadamard():
    _, report = hadamard_gate()
    assert report.residual < 1e-6, f"residual {report.residual:.3e}"
    _line(11, "hadamard from controlled-z and creation polynomial")


# ---------------------------------------------------------------------------
# 12. Pauli gates from the filtered ladder


def test_acceptance_12_pauli_gates():
    _, rx = pauli_xy_gate("x", q=0.01, seed=3, restarts=6)
    _, ry = pauli_xy_gate("y", q=0.01, seed=3, restarts=6)
    assert rx.residual < 1e-4, f"x residual {rx.residual:.3e}"
    assert ry.residual < 1e-4, f"y residual {ry.residual:.3e}"
    d_mid = rx.extras["filter_distance"]
    d_large = procrustean_filter(tmsv_state(0.05, 9), 1.0, 0.05).trace_norm_distance
    d_small = procrustean_filter(tmsv_state(0.005, 5), 1.0, 0.005).trace_norm_distance
    assert d_small < d_mid < d_large
    ratio = d_large / d_small
    assert 80.0 < ratio < 120.0, f"quadratic scaling broken: ratio {ratio:.1f}"
    _line(12, "pauli gates and filter-distance scaling")


# ---------------------------------------------------------------------------
# 13. absorbing sign flip


def test_acceptance_13_absorbing_sign_flip():
    rep0 = noisy_sigma_z_experiment(0.0, 0.5, 0.6, 0.8)
    assert abs(rep0.detector_coefficient - (2.0 * math.sqrt(3.0) - 3.0)) < 1e-9

    for a in (0.3, 0.4):
        rep = noisy_sigma_z_experiment(a, 1.0, 0.6, 0.8)
        assert abs(rep.absorption_coefficient - a * a * (1.0 - a * a)) < 1e-9

    ch = lossy_bs_channel(LossyBSParams.symmetric_slab(0.5, 0.3), 2)
    rng = np.random.default_rng(5)
    m = rng.standard_normal((ch.basis.dimension,) * 2) + 1j * rng.standard_normal(
        (ch.basis.dimension,) * 2
    )
    rho = m @ m.conj().T
    out = ch.apply(MixedState(ch.basis, rho / np.trace(rho)))
    assert abs(out.trace() - 1.0) < 1e-10

    mid = noisy_sigma_z_experiment(0.25, 0.65, 0.6, 0.8)
    total = mid.wanted_weight + mid.detector_weight + mid.absorption_weight
    assert abs(total - mid.output.trace()) < 1e-10

    # lossless element: the single Kraus operator is the unitary lift
    p0 = LossyBSParams.symmetric_slab(0.6, 0.0)
    ch0 = lossy_bs_channel(p0, 2)
    direct = lift_unitary(ModeUnitary(2, p0.t_matrix), ch0.basis).matrix
    assert len(ch0.kraus) == 1
    assert float(np.max(np.abs(ch0.kraus[0] - direct))) < 1e-10

    # perfect limit: the experiment collapses to the ideal conditioning path
    c0, c1 = 0.6, 0.8
    rep = noisy_sigma_z_experiment(0.0, 1.0, c0, c1)
    t = rep.transmission
    r = math.sqrt(1.0 - t * t)
    tm = np.array([[t, 1j * r], [1j * r, t]])
    cond = extract_conditional_operator(
        ModeUnitary(2, tm), (0,), AncillaSpec((1,)), DetectionSpec((1,)), 2
    )
    v = cond.operator.matrix @ np.array([c0, c1, 0.0], dtype=complex)
    assert float(np.max(np.abs(rep.output.matrix - np.outer(v, v.conj())))) < 1e-10
    _line(13, "absorbing sign flip closed forms and limits")


# ---------------------------------------------------------------------------
# 14. deterministic TSV output


def _run_cli_suite(hom_path: str, mat_path: str) -> str:
    fixture = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "circuits",
        "nss_klm.circuit",
    )
    invocations = [
        ["simulate", hom_path],
        ["condition", fixture],
        ["gate", "--name", "swap"],
        ["gate", "--name", "cphase", "--variant", "vacuum-detector"],
        ["optimize", "--objective", "nss", "--seed", "7", "--restarts", "3"],
        ["loss", "--absorption", "0.3", "--eta", "0.7"],
        ["verify", "--prop", "1", "--aux", "2", "--seed", "5"],
        ["verify", "--prop", "2", "--aux", "1", "--seed", "3"],
        ["verify", "--prop", "3", "--aux", "2", "--seed", "8"],
        ["verify", "--appendix", "--dim", "4", "--samples", "40"],
        ["perm", mat_path],
    ]
    chunks = []
    for argv in invocations:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(argv)
        assert rc == 0, f"{argv} exited {rc}"
        chunks.append(buf.getvalue())
    return "".join(chunks)


def test_acceptance_14_deterministic_tsv():
    hom = "modes 2\ninput fock 0 1\ninput fock 1 1\nbs 0 1 0.7853981633974483 0 0\n"
    mat = "0.5 0.5\n0.5 -0.5\n"
    fd, hom_path = tempfile.mkstemp(suffix=".circuit")
    with os.fdopen(fd, "w") as fh:
        fh.write(hom)
    fd, mat_path = tempfile.mkstemp(suffix=".txt")
    with os.fdopen(fd, "w") as fh:
        fh.write(mat)
    try:
        first = _run_cli_suite(hom_path, mat_path)
        second = _run_cli_suite(hom_path, mat_path)
    finally:
        os.unlink(hom_path)
        os.unlink(mat_path)
    assert first.encode() == second.encode(), "reruns differ"
    assert first.count("\n") > 100
    _line(14, "byte-identical reruns")


ALL = [
    test_acceptance_01_catalysis_closed_form,
    test_acceptance_02_layer_propositions,
    test_acceptance_03_lift_oracle_equivalence,
    test_acceptance_04_permanent_suite,
    test_acceptance_05_sign_shift,
    test_acceptance_06_constrained_cz_arm,
    test_acceptance_07_four_photon_cphase,
    test_acceptance_08_vacuum_detector_cphase,
    test_acceptance_09_swap,
    test_acceptance_10_cnot_obstruction,
    test_acceptance_11_hadamard,
    test_acceptance_12_pauli_gates,
    test_acceptance_13_absorbing_sign_flip,
    test_acceptance_14_deterministic_tsv,
]


if __name__ == "__main__":
    failed = 0
    for i, fn in enumerate(ALL, start=1):
        name = fn.__name__.split("_", 3)[-1].replace("_", " ")
        try:
            fn()
        except AssertionError as exc:
            print(f"ACCEPTANCE {i:02d} {name}: FAIL ({exc})")
            failed += 1
        except Exception as exc:  # noqa: BLE001 - standalone report, not a library
            print(f"ACCEPTANCE {i:02d} {name}: FAIL ({type(exc).__name__}: {exc})")
            failed += 1
    sys.exit(1 if failed else 0)
