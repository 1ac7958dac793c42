"""simulate evolves one element at a time; these tests hold it to the
whole-basis routes it replaced.

Lossless circuits are checked against the permanent lift of the composed
network and against the polynomial oracle.  Lossy circuits are checked
against the (n+2)-mode dilation route, kept here only as the reference:
every element lifted on the whole basis, each absorbing splitter embedded
with two vacuum device modes that are traced out afterwards.
"""

import io
import math

import numpy as np
import pytest

from fockforge import cli, conditioning
from fockforge.conditioning import lift_unitary
from fockforge.fock import FockBasis, MixedState, TotalPhotonCutoff, partial_trace
from fockforge.interferometer import BeamSplitterParams, ModeUnitary, bs_matrix, compose, element_matrix
from fockforge.lossy import LossyBSParams, dilation_unitary

from oracles import lift_oracle


def dilation_reference(cf, cutoff: int) -> MixedState:
    state = cli._joint_input_state(cf, cutoff)
    rho = state.to_mixed()
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
            idx = [big_basis.index_of(occ + (0, 0)) for occ in rho.basis.occupations]
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


@pytest.mark.parametrize("modes", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pure_evolution_matches_the_whole_basis_lift(seed, modes):
    text, cutoff = random_circuit(seed, modes)
    cf = cli.parse_circuit(text)
    psi = cli._joint_input_state(cf, cutoff)
    got = cli._simulate_pure(cf, cutoff).amplitudes
    u = compose(cli._network_of(cf))
    assert np.max(np.abs(got - lift_unitary(u, psi.basis).matrix @ psi.amplitudes)) < 1e-12
    assert np.max(np.abs(got - lift_oracle(u.matrix, psi.basis) @ psi.amplitudes)) < 1e-12


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
}


@pytest.mark.parametrize("name", list(LOSSY))
def test_lossy_evolution_matches_the_dilation_route(name):
    text, cutoff = LOSSY[name]
    cf = cli.parse_circuit(text)
    got = cli._simulate_lossy(cf, cutoff).matrix
    assert np.max(np.abs(got - dilation_reference(cf, cutoff).matrix)) < 1e-12


def test_zero_absorption_gives_the_lossless_populations():
    text, cutoff = LOSSY["no absorption"]
    rho = cli._simulate_lossy(cli.parse_circuit(text), cutoff)
    lossless = cli.parse_circuit(text.replace("lossybs 1 2 0.9 0.2 0.5 0.0", "bs 1 2 0.9 0.2 0.5"))
    amps = cli._simulate_pure(lossless, cutoff).amplitudes
    assert np.max(np.abs(np.diag(rho.matrix).real - np.abs(amps) ** 2)) < 1e-12


# ---------------------------------------------------------------------------
# cost tripwires: permanents one simulate call evaluates, independent of
# the machine (the whole-basis routes took 180,622 and 11,934)


def count_permanents(monkeypatch, capsys, text, cutoff) -> int:
    calls = []
    inner = conditioning._per_flat

    def counting(a, n):
        calls.append(n)
        return inner(a, n)

    monkeypatch.setattr(conditioning, "_per_flat", counting)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert cli.main(["simulate", "--cutoff", str(cutoff), "-"]) == 0
    capsys.readouterr()
    return len(calls)


def test_lossy_simulate_permanent_count(monkeypatch, capsys):
    text = (
        "modes 4\ninput fock 0 1\ninput fock 1 1\ninput fock 3 1\n"
        "bs 1 2 0.8 1.0 2.0\nlossybs 0 1 0.5 0.3 4.0 0.4\nlossybs 2 3 1.1 5.0 0.2 0.4\n"
        "bs 0 2 0.3 2.5 1.5\nphase 3 0.9\n"
    )
    assert count_permanents(monkeypatch, capsys, text, 5) <= 2000


def test_lossless_simulate_permanent_count(monkeypatch, capsys):
    mesh = "".join(
        f"bs {row - 1} {row} {0.3 + 0.1 * row + 0.05 * col} {col} {row}\n"
        for col in range(3)
        for row in range(3, col, -1)
    )
    text = "modes 4\ninput fock 0 2\ninput fock 1 1\ninput fock 3 3\n" + mesh
    text += "".join(f"phase {m} {0.4 * m}\n" for m in range(4))
    assert count_permanents(monkeypatch, capsys, text, 6) <= 1000


# ---------------------------------------------------------------------------
# size limits


def refuse_to_build(*args):
    raise AssertionError("simulate built a state past its size limit")


@pytest.mark.parametrize(
    "text, cutoff, named",
    [
        # 10 modes at cutoff 4: C(14, 4) = 1001 basis states, one above the limit
        ("modes 10\ninput fock 0 1\nbs 0 9 0.3 0 0\n", 4, ("1001", str(cli.MAX_SIMULATE_DIMENSION))),
        ("modes 1\ninput fock 0 1\nphase 0 0.3\n", cli.MAX_SIMULATE_CUTOFF + 1,
         (str(cli.MAX_SIMULATE_CUTOFF + 1), str(cli.MAX_SIMULATE_CUTOFF))),
    ],
    ids=["dimension", "cutoff"],
)
def test_simulate_above_its_size_limit_is_exit_4(monkeypatch, capsys, text, cutoff, named):
    assert math.comb(10 + 4, 4) == cli.MAX_SIMULATE_DIMENSION + 1
    monkeypatch.setattr(cli, "_joint_input_state", refuse_to_build)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc = cli.main(["simulate", "--cutoff", str(cutoff), "-"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err.startswith("numeric failure:")
    for word in named:
        assert word in captured.err
