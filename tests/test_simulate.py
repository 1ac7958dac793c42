"""simulate evolves every circuit by a few lifts and pure loss.  A
stretch of absorbers, with the lossless elements between them, acts
through its transfer matrix T = U diag(s) V^dag alone: V^dag, pure loss
s_i^2 on mode i, then U.  Each lossless run is lifted once, on just the
modes it touches, together with the U of the stretch before it and the
V^dag of the stretch after it.  These tests hold it to whole-basis
routes.

Lossless circuits are checked against the lift of the composed network on
the whole basis and against the polynomial oracle.  Lossy circuits are
checked against the (n+2)-mode dilation route, kept here only as the
reference: every element lifted on the whole basis, each absorbing
splitter embedded with two vacuum device modes that are traced out
afterwards.
"""

import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fockforge
from fockforge import cli
from fockforge.conditioning import MAX_DENSE_DIMENSION, MAX_PHOTONS, ConditionalExtractor, lift_unitary
from fockforge.fock import FockBasis, FockOperator, MixedState, TotalPhotonCutoff, partial_trace, tmsv_ladder
from fockforge.interferometer import BeamSplitterParams, ModeUnitary, bs_matrix, compose, element_matrix
from fockforge.lossy import LossyBSParams, dilation_unitary

from oracles import lift_oracle


def dilation_reference(cf, cutoff: int) -> MixedState:
    state = cli._joint_input_state(cf, cutoff)
    rho = MixedState(state.basis, np.outer(state.amplitudes, state.amplitudes.conj()))
    n = cf.mode_count
    for e in cf.elements:
        if e[0] != "lossybs":
            u = element_matrix(cli._element(e), n)
            lift = lift_unitary(u, rho.basis).matrix
            rho = MixedState(rho.basis, lift @ rho.matrix @ lift.conj().T)
        else:
            _, i, j, theta, pt, pr, ab = e
            scale = math.sqrt(1.0 - ab * ab)
            block = bs_matrix(BeamSplitterParams(0, 1, theta, pt, pr), 2).matrix
            four = dilation_unitary(LossyBSParams(scale * block, ab * np.eye(2))).matrix
            big_mat = np.eye(n + 2, dtype=complex)
            order = [i, j, n, n + 1]
            big_mat[np.ix_(order, order)] = four
            big_basis = FockBasis(n + 2, TotalPhotonCutoff(cutoff))
            lift = lift_unitary(ModeUnitary(n + 2, big_mat), big_basis).matrix
            wide = np.zeros((big_basis.dimension, big_basis.dimension), dtype=complex)
            idx = [big_basis.index_of((*occ, 0, 0)) for occ in rho.basis.occupations.tolist()]
            for a, ia in enumerate(idx):
                wide[ia, idx] = rho.matrix[a]
            wide = lift @ wide @ lift.conj().T
            rho = partial_trace(MixedState(big_basis, wide), range(n))
    return rho


def random_circuit(seed: int, modes: int) -> tuple:
    """Circuit text with Fock, coherent and (from two modes) tmsv inputs,
    phases, splitters on random ordered pairs of modes and a last one on
    (modes - 1, 0), and its cutoff, one or two above the declared Fock
    photon total (at most three)."""
    rng = np.random.default_rng([seed, modes])
    lines = [f"modes {modes}"]
    free = list(rng.permutation(modes))
    if modes >= 2:
        a, b = free.pop(), free.pop()
        lines.append(f"input tmsv {a} {b} {rng.uniform(0.1, 0.5)!r}")
    fock_total = 0
    for m in free:
        if rng.random() < 0.5:
            k = min(int(rng.integers(0, 3)), 3 - fock_total)
            fock_total += k
            lines.append(f"input fock {m} {k}")
        else:
            lines.append(f"input coherent {m} {rng.normal(0, 0.6)!r} {rng.normal(0, 0.6)!r}")
    for _ in range(2 * modes + 2):
        if modes >= 2 and rng.random() < 0.7:
            i, j = (int(x) for x in rng.choice(modes, 2, replace=False))
            angles = " ".join(repr(x) for x in rng.uniform(-math.pi, math.pi, 3).tolist())
            lines.append(f"bs {i} {j} {angles}")
        else:
            lines.append(f"phase {int(rng.integers(modes))} {rng.uniform(-math.pi, math.pi)!r}")
    if modes >= 2:  # reversed, and non-adjacent from three modes on
        angles = " ".join(repr(x) for x in rng.uniform(-math.pi, math.pi, 3).tolist())
        lines.append(f"bs {modes - 1} 0 {angles}")
    cutoff = max(fock_total, 2) + int(rng.integers(1, 3))
    return "\n".join(lines) + "\n", cutoff


def input_by_loop(cf, cutoff: int) -> np.ndarray:
    """The input state entry by entry in Python's complex arithmetic: the
    product of each tmsv pair's ladder amplitude, then of every other
    mode's, in mode order."""
    by_mode = cli._inputs_by_mode(cf)
    amps = []
    for occ in FockBasis(cf.mode_count, TotalPhotonCutoff(cutoff)).occupations.tolist():
        a = 1 + 0j
        for spec in cf.inputs:
            if spec[0] == "tmsv":
                a *= tmsv_ladder(spec[3], cutoff)[occ[spec[1]]] if occ[spec[1]] == occ[spec[2]] else 0.0
        for m in range(cf.mode_count):
            spec = by_mode.get(m)
            if spec is None or spec[0] != "tmsv":
                a *= complex(cli._mode_amplitudes(spec, cutoff)[occ[m]])
        amps.append(a)
    return np.array(amps)


@pytest.mark.parametrize("modes", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pure_evolution_matches_the_whole_basis_lift(seed, modes):
    text, cutoff = random_circuit(seed, modes)
    cf = cli.parse_circuit(text)
    psi = cli._joint_input_state(cf, cutoff)
    # the same products, rounded alike: numpy's vector loop for complex
    # products fuses multiply-adds on FMA machines (seed 2 at 4 and 5 modes
    # moved there in the last bit)
    assert np.array_equal(psi.amplitudes, input_by_loop(cf, cutoff))
    got = cli._simulate(cf, cutoff).amplitudes
    u = compose(cli._network_of(cf))
    assert np.max(np.abs(got - lift_unitary(u, psi.basis).matrix @ psi.amplitudes)) < 1e-12
    assert np.max(np.abs(got - lift_oracle(u.matrix, psi.basis) @ psi.amplitudes)) < 1e-12


def dense_embedding(op, modes, basis):
    """The local operator op on `modes`, written out on the whole basis
    entry by entry: <a|E|b> = <a_modes|op|b_modes> where a and b agree on
    every other mode, and zero elsewhere."""
    local = FockBasis(len(modes), basis.policy)
    rest = [m for m in range(basis.mode_count) if m not in modes]
    dense = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for a, occ_a in enumerate(basis.occupations.tolist()):
        for b, occ_b in enumerate(basis.occupations.tolist()):
            if all(occ_a[m] == occ_b[m] for m in rest):
                dense[a, b] = op[local.index_of(tuple(occ_a[m] for m in modes)), local.index_of(tuple(occ_b[m] for m in modes))]
    return dense


@pytest.mark.parametrize(
    "line", ["bs 3 1 0.7 0.4 -1.2", "bs 0 2 1.1 -0.3 2.0", "lossybs 2 0 0.6 1.0 0.1 0.7", "lossybs 1 3 0.9 -0.5 0.4 0.3"]
)
def test_embedded_operators_match_the_dense_embedding(line):
    # every lift simulate makes of one element: a splitter's, or an
    # absorber's V^dag and U around equal loss on its two modes
    cutoff = 5
    basis = FockBasis(4, TotalPhotonCutoff(cutoff))
    word, i, j, *angles = line.split()
    lifts = list(cli._lifts(cli.parse_circuit(f"modes 4\n{line}\n").elements))
    assert len(lifts) == (2 if word == "lossybs" else 1)
    if word == "lossybs":
        eta = 1.0 - float(angles[3]) ** 2
        assert [m for m, _ in lifts[0][2]] == sorted((int(i), int(j)))
        assert all(abs(e - eta) < 1e-15 for _, e in lifts[0][2])
    rng = np.random.default_rng(3)
    vec = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    rho = np.outer(vec, vec.conj()) + rng.normal(size=(basis.dimension,) * 2)
    for modes, matrix, _ in lifts:
        assert modes == sorted((int(i), int(j)))
        op = lift_unitary(matrix, FockBasis(2, TotalPhotonCutoff(cutoff)))
        apply = cli._embed(op, modes, basis)
        dense = dense_embedding(op.matrix, modes, basis)
        assert np.max(np.abs(apply(vec) - dense @ vec)) < 1e-13
        assert np.max(np.abs(apply(rho) - dense @ rho)) < 1e-13
        assert np.max(np.abs(apply(apply(rho).conj().T).conj().T - dense @ rho @ dense.conj().T)) < 1e-12


def grouped_by_loop(modes, basis):
    """(local states, basis indices) of each photon-number sector on
    `modes`, by a loop over the basis: the sector's local states in order,
    and an array with a row per local state and a column per configuration
    of the other modes, ordered by the index of that configuration's state
    with `modes` empty."""
    local = FockBasis(len(modes), basis.policy)
    sectors: dict = {}
    for b, occ in enumerate(basis.occupations.tolist()):
        here = tuple(occ[m] for m in modes)
        vacated = basis.index_of(tuple(0 if m in modes else n for m, n in enumerate(occ)))
        sectors.setdefault(sum(here), {}).setdefault(local.index_of(here), {})[vacated] = b
    return [
        (sorted(rows), np.array([[row[g] for g in sorted(row)] for _, row in sorted(rows.items())]))
        for _, rows in sorted(sectors.items())
    ]


def test_embedding_groups_the_basis_as_the_loop_did():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n, cutoff = int(rng.integers(1, 7)), int(rng.integers(0, 5))
        modes = [int(m) for m in rng.permutation(n)[: rng.integers(1, min(n, 3) + 1)]]
        basis = FockBasis(n, TotalPhotonCutoff(cutoff))
        local = FockBasis(len(modes), basis.policy)
        op = FockOperator(local, rng.normal(size=(local.dimension,) * 2))
        (parts,) = cli._embed(op, modes, basis).args
        sectors = grouped_by_loop(modes, basis)
        assert len(parts) == len(sectors)
        for (block, idx), (local, expected) in zip(parts, sectors):
            assert idx.shape == expected.shape and (idx == expected).all()
            assert (block == op.matrix[np.ix_(local, local)]).all()
        assert (np.sort(np.concatenate([idx.ravel() for _, idx in parts])) == np.arange(basis.dimension)).all()


LOSSY = {
    "no absorption": (
        "modes 3\ninput fock 0 1\ninput fock 1 2\n"
        "bs 0 2 0.4 0.3 -1.1\nlossybs 1 2 0.9 0.2 0.5 0.0\nphase 2 0.7\nbs 1 0 1.2 0 2.0\n",
        4,
    ),
    "strong absorption": (
        "modes 3\ninput fock 0 2\ninput coherent 2 0.3 -0.2\n"
        "lossybs 0 1 0.6 1.0 0.1 0.9\nbs 1 2 0.3 -0.4 0.8\n",
        4,
    ),
    "reversed absorber": (
        "modes 4\ninput fock 0 1\ninput fock 3 2\ninput tmsv 1 2 0.3\n"
        "lossybs 3 1 0.8 0.5 -0.6 0.4\nbs 2 0 0.5 0 1.0\n",
        4,
    ),
    "absorbers sharing a mode": (
        "modes 3\ninput fock 0 1\ninput fock 1 1\ninput fock 2 1\n"
        "lossybs 0 1 0.7 0.2 0.3 0.5\nlossybs 1 2 1.1 -0.3 0.9 0.35\nphase 1 2.2\n",
        3,
    ),
    # the lossless run touches modes 3 and 1 only, listed in reverse
    "restricted run": (
        "modes 4\ninput fock 0 1\ninput fock 1 1\ninput coherent 3 0.4 0.2\n"
        "lossybs 0 2 0.7 0.3 -0.2 0.6\nbs 3 1 0.9 0.4 -1.3\nphase 1 0.8\nlossybs 2 3 0.5 1.1 0.6 0.3\n",
        4,
    ),
    # the absorber's splitter joins a run on the disjoint pair 2, 3
    "absorber then a disjoint run": (
        "modes 4\ninput fock 0 2\ninput fock 1 1\ninput coherent 3 -0.3 0.5\n"
        "lossybs 1 0 0.8 -0.7 1.3 0.55\nbs 2 3 1.0 0.6 -0.4\nphase 3 1.9\n",
        4,
    ),
}


@pytest.mark.parametrize("name", list(LOSSY))
def test_lossy_evolution_matches_the_dilation_route(name):
    text, cutoff = LOSSY[name]
    cf = cli.parse_circuit(text)
    got = cli._simulate(cf, cutoff).matrix
    assert np.max(np.abs(got - dilation_reference(cf, cutoff).matrix)) < 1e-12


def test_zero_absorption_gives_the_lossless_populations():
    text, cutoff = LOSSY["no absorption"]
    rho = cli._simulate(cli.parse_circuit(text), cutoff)
    lossless = cli.parse_circuit(text.replace("lossybs 1 2 0.9 0.2 0.5 0.0", "bs 1 2 0.9 0.2 0.5"))
    amps = cli._simulate(lossless, cutoff).amplitudes
    assert np.max(np.abs(np.diag(rho.matrix).real - np.abs(amps) ** 2)) < 1e-12


def test_broken_kraus_family_fails_the_final_state_check(monkeypatch):
    # the intermediate states are not validated, so a loss map that gains
    # weight must still fail at the end
    inner = cli.pure_loss

    def inflated(rho, basis, mode, eta):
        return 1.01 * inner(rho, basis, mode, eta)

    monkeypatch.setattr(cli, "pure_loss", inflated)
    text, cutoff = LOSSY["strong absorption"]
    with pytest.raises(ValueError, match="exceeds one"):
        cli._simulate(cli.parse_circuit(text), cutoff)


# ---------------------------------------------------------------------------
# cost tripwires, independent of the machine: extractor builds in one
# simulate call and the amplitudes their recurrences fill, and loss maps.
# Each lift is one build on a total-photon basis of its modes, which fills
# sum_k (sector size)^2 amplitudes; a loss map builds nothing.  One stage
# per absorber built 3 extractors here (994 amplitudes) and ran two loss
# maps per absorber; the Kraus route built one more extractor per absorber
# on its four-mode dilation (4,878 amplitudes each here).


def count_extractions(monkeypatch, capsys, text, cutoff) -> tuple:
    builds, filled = [], []
    init, extract = ConditionalExtractor.__init__, ConditionalExtractor.extract_stack

    def counting_init(self, *args):
        builds.append(args)
        init(self, *args)

    def counting_extract(self, mode_matrices):
        filled.append(len(mode_matrices) * sum(len(level[0]) * len(level[3]) for level in self._levels))
        return extract(self, mode_matrices)

    monkeypatch.setattr(ConditionalExtractor, "__init__", counting_init)
    monkeypatch.setattr(ConditionalExtractor, "extract_stack", counting_extract)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.main(["simulate", "--cutoff", str(cutoff), "-"]) == 0
    capsys.readouterr()
    return len(builds), sum(filled)


def lift_amplitudes(modes: int, cutoff: int) -> int:
    return sum(math.comb(k + modes - 1, k) ** 2 for k in range(cutoff + 1))


LOSSY_TRIPWIRE = (
    "modes 4\ninput fock 0 1\ninput fock 1 1\ninput fock 3 1\n"
    "bs 1 2 0.8 1.0 2.0\nlossybs 0 1 0.5 0.3 4.0 0.4\nlossybs 2 3 1.1 5.0 0.2 0.4\n"
    "bs 0 2 0.3 2.5 1.5\nphase 3 0.9\n"
)


def test_lossy_simulate_extraction_count(monkeypatch, capsys):
    # lifts: the run on modes 1, 2 with the V^dag of the stretch of both
    # absorbers, on modes 0 to 3; then its U with the run after it, on the
    # same four modes
    expected = 2 * lift_amplitudes(4, 5)
    assert count_extractions(monkeypatch, capsys, LOSSY_TRIPWIRE, 5) == (2, expected) == (2, 9756)


def test_lossless_simulate_extraction_count(monkeypatch, capsys):
    # one run of ten elements on all four modes
    mesh = "".join(
        f"bs {row - 1} {row} {0.3 + 0.1 * row + 0.05 * col} {col} {row}\n"
        for col in range(3)
        for row in range(3, col, -1)
    )
    text = "modes 4\ninput fock 0 2\ninput fock 1 1\ninput fock 3 3\n" + mesh
    text += "".join(f"phase {m} {0.4 * m}\n" for m in range(4))
    assert count_extractions(monkeypatch, capsys, text, 6) == (1, lift_amplitudes(4, 6)) == (1, 11934)


def test_each_run_is_composed_on_its_own_modes(monkeypatch, capsys):
    # a run on modes 4, 1 of six, an absorber on 1, 2, then a run on modes
    # 5, 0, 3: each lift covers just the modes its matrix touches, the
    # first run with the absorber's V^dag, its U with the last run
    seen = []
    embed = cli._embed

    def recording(op, modes, basis):
        seen.append((modes, op.basis.dimension))
        return embed(op, modes, basis)

    monkeypatch.setattr(cli, "_embed", recording)
    text = (
        "modes 6\ninput fock 4 1\ninput fock 5 1\nbs 4 1 0.8 1.0 2.0\nphase 1 0.3\n"
        "lossybs 1 2 0.5 0.3 4.0 0.4\nbs 5 0 0.3 2.5 1.5\nphase 3 0.9\n"
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.main(["simulate", "--cutoff", "2", "-"]) == 0
    capsys.readouterr()
    assert seen == [([1, 2, 4], math.comb(5, 3)), ([0, 1, 2, 3, 5], math.comb(7, 5))]


def count_loss_maps(monkeypatch, capsys, text, cutoff) -> int:
    calls = []
    inner = cli.pure_loss

    def counting(rho, basis, mode, eta):
        calls.append(mode)
        return inner(rho, basis, mode, eta)

    monkeypatch.setattr(cli, "pure_loss", counting)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.main(["simulate", "--cutoff", str(cutoff), "-"]) == 0
    capsys.readouterr()
    return len(calls)


def test_ten_absorbers_on_two_modes_run_two_loss_maps(monkeypatch, capsys):
    # one stretch on both modes, one loss map per mode (two per absorber
    # before)
    text = "modes 2\ninput fock 0 3\n" + "".join(f"lossybs 0 1 0.3 {k} 0 0.2\nphase 1 {0.1 * k}\n" for k in range(10))
    assert count_loss_maps(monkeypatch, capsys, text, 3) == 2


# two absorbers 13 splitters apart on 16 modes: 11 of the stretch's
# singular values round below one, where only 4 can lie below it
ROUNDED_STRETCH = (
    "modes 16\ninput fock 0 1\nlossybs 0 1 0.7 0.2 -0.4 0.3\n"
    + "".join(
        f"bs {i} {i + 1} {th!r} {pt!r} {pr!r}\n"
        for i, (th, pt, pr) in enumerate(np.random.default_rng(0).uniform((0.1, -3, -3), (1.4, 3, 3), (13, 3)).tolist(), 1)
    )
    + "lossybs 14 15 0.5 1.1 0.6 0.4\n"
)


def test_only_the_smallest_singular_values_get_loss(monkeypatch, capsys):
    cf = cli.parse_circuit(ROUNDED_STRETCH)
    s = np.linalg.svd(cli._transfer(cf.elements)[1], compute_uv=False)
    assert np.count_nonzero(s < 1.0) > 4
    assert count_loss_maps(monkeypatch, capsys, ROUNDED_STRETCH, 1) == 4
    rho = cli._simulate(cf, 1).matrix
    assert np.max(np.abs(rho - dilation_reference(cf, 1).matrix)) < 1e-12


# five modes at cutoff 6 (462 states): a lossless run spans all of them,
# a product long enough for BLAS to sum differently on two threads
WIDE_LOSSY = """modes 5
input fock 0 3
input fock 1 3
bs 0 1 0.154 0.901 -0.712
bs 1 2 0.285 -0.376 -0.153
bs 2 3 0.248 -0.182 0.099
bs 3 4 0.008 0.507 0.076
bs 0 1 0.099 0.577 -0.394
bs 1 2 0.136 -0.732 -0.194
bs 2 3 0.061 -0.475 0.501
bs 3 4 0.084 -0.030 0.961
lossybs 0 1 0.7 0.1 0.2 0.5
bs 0 1 0.288 0.450 0.082
bs 1 2 0.083 -0.679 0.940
bs 2 3 0.155 -0.768 0.247
bs 3 4 0.233 0.226 0.835
bs 0 1 0.012 0.057 -0.081
bs 1 2 0.019 0.283 0.705
bs 2 3 0.178 -0.480 0.680
bs 3 4 0.153 0.022 0.506
"""


# 90 modes at cutoff 1 (91 states), an absorber on every tenth splitter
# of a chain: its absorbers span all 90 modes, so it splits into stretches
# of at most 48 modes, whose decompositions keep their bits on two threads
WIDE_CHAIN = "modes 90\ninput fock 0 1\n" + "".join(
    f"bs {i} {i + 1} {0.3 + 0.01 * i!r} {0.02 * i!r} {-0.03 * i!r}\n"
    if i % 10
    else f"lossybs {i} {i + 1} {0.3 + 0.01 * i!r} {0.02 * i!r} {-0.03 * i!r} 0.3\n"
    for i in range(89)
)


def test_wide_lossy_circuit_splits_into_stretches(monkeypatch):
    sizes = []
    svd = np.linalg.svd

    def recording(t, *args, **kwargs):
        sizes.append(len(t))
        return svd(t, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    cf = cli.parse_circuit(WIDE_CHAIN)
    lifts = list(cli._lifts(cf.elements))
    # the stretches: absorbers on 0 to 40 (modes 0 to 41), on 50 to 80
    # (modes 50 to 81) and the last lift, the second U with its run
    assert sizes == [42, 32] and len(lifts) == 3
    assert [len(losses) for _, _, losses in lifts] == [10, 8, 0]
    rho = cli._simulate(cf, 1).matrix
    assert np.max(np.abs(rho - dilation_reference(cf, 1).matrix)) < 1e-12


def test_simulate_is_bytewise_identical_across_blas_thread_counts():
    # the printed populations and amplitudes must not depend on the
    # machine's core count, which sets the default BLAS thread count
    lossless = LOSSY_TRIPWIRE.replace("lossybs 0 1 0.5 0.3 4.0 0.4", "bs 0 1 0.5 0.3 4.0").replace(
        "lossybs 2 3 1.1 5.0 0.2 0.4", "bs 2 3 1.1 5.0 0.2"
    )
    cases = ((LOSSY_TRIPWIRE, 5, 127), (lossless, 5, 127), (WIDE_LOSSY, 6, 463), (WIDE_CHAIN, 1, 92))
    for text, cutoff, lines in cases:
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = str(Path(fockforge.__file__).parents[1])
            argv = [sys.executable, "-m", "fockforge.cli", "simulate", "--cutoff", str(cutoff), "-"]
            outputs.append(subprocess.run(argv, input=text, env=env, capture_output=True, text=True, check=True).stdout)
        # compared as one flag: pytest's diff of two long outputs can run for minutes
        same = outputs[0] == outputs[1]
        assert same and len(outputs[0].splitlines()) == lines


def test_simulate_on_999_modes_at_cutoff_1(monkeypatch, capsys):
    # 1,000 basis states, inside the dimension limit
    text = "modes 999\ninput fock 0 1\nbs 0 998 0.3 0.1 0.2\nphase 500 0.4\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.main(["simulate", "--cutoff", "1", "-"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 1001 and len(rows[0]) == 1001
    # the photon's mode on each row but the vacuum's, and its amplitude
    lit = {r.index("1"): complex(float(r[-2]), float(r[-1])) for r in rows[2:]}
    lit = {mode: a for mode, a in lit.items() if a != 0}
    assert sorted(lit) == [0, 998]
    assert abs(abs(lit[0]) - math.cos(0.3)) < 1e-11
    assert abs(abs(lit[0]) ** 2 + abs(lit[998]) ** 2 - 1.0) < 1e-11


# ---------------------------------------------------------------------------
# size limits


def refuse_to_build(*args):
    raise AssertionError("simulate built a state past its size limit")


# two modes at cutoff 43 (990 states, within the dense limit) and ten
# absorbing splitters: past the photon cap, it must be refused before its
# loss maps run
TEN_ABSORBERS = "modes 2\ninput fock 0 1\n" + "lossybs 0 1 0.3 0 0 0.2\n" * 10


@pytest.mark.parametrize(
    "text, cutoff, named",
    [
        # 1024 modes at cutoff 1: 1025 basis states, one above the limit
        ("modes 1024\ninput fock 0 1\nbs 0 1023 0.3 0 0\n", 1, ("1025", str(MAX_DENSE_DIMENSION))),
        ("modes 1\ninput fock 0 1\nphase 0 0.3\n", MAX_PHOTONS + 1, (str(MAX_PHOTONS + 1), str(MAX_PHOTONS))),
        (TEN_ABSORBERS, 43, ("43 photons", str(MAX_PHOTONS))),
    ],
    ids=["dimension", "cutoff", "photons-lossy"],
)
def test_simulate_above_its_size_limit_is_exit_4(monkeypatch, capsys, text, cutoff, named):
    assert math.comb(1024 + 1, 1) == MAX_DENSE_DIMENSION + 1 and math.comb(2 + 43, 2) <= MAX_DENSE_DIMENSION
    monkeypatch.setattr(cli, "_joint_input_state", refuse_to_build)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc = cli.main(["simulate", "--cutoff", str(cutoff), "-"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err.startswith("numeric failure:")
    for word in named:
        assert word in captured.err


def test_simulate_at_the_photon_cap_runs(monkeypatch, capsys):
    # MAX_PHOTONS photons in two modes (861 states), split and phased: the
    # output keeps the norm and the photon number
    text = f"modes 2\ninput fock 0 {MAX_PHOTONS}\nbs 0 1 0.7 0.2 1.1\nphase 1 0.4\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.main(["simulate", "--cutoff", str(MAX_PHOTONS), "-"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == math.comb(MAX_PHOTONS + 2, 2)
    weights = {(int(r[0]), int(r[1])): float(r[2]) ** 2 + float(r[3]) ** 2 for r in rows}
    assert abs(sum(weights.values()) - 1.0) < 1e-10
    assert sum(w for (a, b), w in weights.items() if a + b != MAX_PHOTONS) < 1e-20
