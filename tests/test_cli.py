import io
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockforge import cli, conditioning, gates
from fockforge.cli import (
    GATES,
    CircuitError,
    CircuitFile,
    CoherentInput,
    FockInput,
    TmsvInput,
    _fmt,
    _rows_to_tsv,
    main,
    parse_circuit,
    serialize_circuit,
)
from fockforge.conditioning import AncillaSpec, ConditionalExtractor, DetectionSpec
from fockforge.fock import FockBasis, PureState, TotalPhotonCutoff
from fockforge.interferometer import (
    BeamSplitterParams,
    NetworkDescription,
    PhaseShifterParams,
    compose,
)

from oracles import lift_oracle

HOM = """\
modes 2
input fock 0 1
input fock 1 1
bs 0 1 0.7853981633974483 0 0
"""

# three-splitter sign-flip network, frozen with the detection pattern
NSS_FIXTURE = str(Path(__file__).resolve().parent.parent / "circuits" / "nss_klm.circuit")


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


def tsv_rows(text):
    return [tuple(line.split("\t")) for line in text.splitlines()]


def kv(text):
    out = {}
    for row in tsv_rows(text):
        if len(row) == 2:
            out[row[0]] = row[1]
    return out


# ---------------------------------------------------------------------------
# formatting and grammar


def test_fmt():
    assert _fmt(True) == "true"
    assert _fmt(False) == "false"
    assert _fmt(3) == "3"
    assert _fmt(-0.0) == "0"
    assert _fmt(0.25) == "0.25"
    assert _fmt(1.0 / 3.0) == "0.333333333333"
    assert _fmt(np.float64(0.5)) == "0.5"


def test_amplitude_rows_match_fmt_bytes():
    rng = np.random.default_rng(4)
    special = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 3.0, -2.0, 1e15, 0.5]
    # both parts zero in all four sign combinations, and zeros beside the
    # smallest subnormal
    zeros = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (5e-324, 0.0), (-0.0, -5e-324), (0.0, 5e-324)]
    re = np.concatenate([special, rng.standard_normal(40) * 10.0 ** rng.integers(-20, 20, 40), [z[0] for z in zeros]])
    im = np.concatenate([special[::-1], rng.standard_normal(40), [z[1] for z in zeros]])
    re, im = np.append(re, np.zeros(3)), np.append(im, -np.zeros(3))
    matrix = np.empty(len(re), dtype=complex)
    matrix.real, matrix.imag = re, im
    assert np.signbit(matrix.real[0]) and np.signbit(matrix.imag[9]) and np.signbit(matrix.imag[-1])
    matrix = matrix.reshape(6, 10)
    outs, ins = [f"{i},{i % 3}" for i in range(6)], [f"{j % 4},{j}" for j in range(10)]
    expected = _rows_to_tsv((o, i, _fmt(v.real), _fmt(v.imag)) for o, row in zip(outs, matrix) for i, v in zip(ins, row))
    assert "\t0\t0\n" in expected and "\t4.94065645841e-324\t0\n" in expected and "\t0\t-4.94065645841e-324\n" in expected
    assert cli._amplitude_rows(outs, ins, matrix) == expected
    assert cli._amplitude_rows(outs[:1], ins, matrix[:1]) == expected[: expected.index("\n" + outs[1]) + 1]
    assert cli._floats(matrix.real.ravel()) == [_fmt(v) for v in matrix.real.ravel()]
    assert cli._floats(matrix.imag.ravel()) == [_fmt(v) for v in matrix.imag.ravel()]


def test_condition_blocks_print_the_operator_in_fmt_bytes(capsys, tmp_path, monkeypatch):
    # 136 output states, 120 to a block of at most 2^14 entries: the last
    # block holds the 16 rows left over
    text = "modes 3\ninput fock 0 1\ninput fock 2 1\nbs 0 2 0.7 0.1 0.2\nbs 1 2 0.4 0.3 -0.5\ndetect fock 2 1\n"
    path = tmp_path / "c.circuit"
    path.write_text(text)
    blocks, inner = [], cli._amplitude_rows
    monkeypatch.setattr(cli, "_amplitude_rows", lambda o, i, m: blocks.append(len(o) * len(i)) or inner(o, i, m))
    rc, out = run(capsys, ["condition", "--cutoff", "15", str(path)])
    assert rc == 0 and blocks == [120 * 136, 16 * 136]
    cond = conditioning.extract_conditional_operator(
        compose(NetworkDescription(3, parse_circuit(text).elements)), (0, 1), AncillaSpec((1,)), DetectionSpec((1,)), 15
    )
    labels = [",".join(map(str, occ)) for occ in cond.operator.basis.occupations.tolist()]
    entries = [(o, i, _fmt(v.real), _fmt(v.imag)) for o, row in zip(labels, cond.operator.matrix) for i, v in zip(labels, row)]
    assert out.endswith("out\tin\tre\tim\n" + _rows_to_tsv(entries))
    assert sum(e[2:] == ("0", "0") for e in entries) > len(entries) // 2


def _scanned_token_columns(raw):
    """The per-character scan that _token_columns replaced."""
    cols, i = [], 0
    while i < len(raw):
        if raw[i].isspace():
            i += 1
            continue
        start = i
        while i < len(raw) and not raw[i].isspace():
            i += 1
        cols.append((raw[start:i], start + 1))
    return cols


def test_token_columns_match_the_isspace_scan():
    every = "".join(map(chr, range(0x110000)))
    spaces = [c for c in every if c.isspace()]
    assert re.findall(r"\s", every) == spaces and "\x1c" in spaces and "\u3000" in spaces
    rng = np.random.default_rng(8)
    words = ["modes", "3", "-0.25e-3", "bs", "é", "x\u200b", "１", "#", "a_b", "\x00"]
    for _ in range(300):
        parts = [rng.choice(words) if k % 2 else "".join(rng.choice(spaces, rng.integers(0, 4))) for k in range(rng.integers(0, 9))]
        line = "".join(parts)
        assert cli._token_columns(line) == _scanned_token_columns(line)
    line = "".join(spaces) + "x" + "".join(spaces) + "yz" + "".join(spaces)
    assert cli._token_columns(line) == _scanned_token_columns(line) == [("x", len(spaces) + 1), ("yz", 2 * len(spaces) + 2)]


def test_parse_canonical_circuit():
    cf = parse_circuit(HOM)
    assert cf.mode_count == 2
    assert cf.inputs == (FockInput(0, 1), FockInput(1, 1))
    assert cf.elements == (BeamSplitterParams(0, 1, 0.7853981633974483),)
    assert cf.detections == ()


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nmodes 1  # trailing\n\ninput fock 0 1\n"
    cf = parse_circuit(text)
    assert cf.mode_count == 1
    assert cf.inputs == (FockInput(0, 1),)


def test_serialize_parse_fixed_point():
    text = serialize_circuit(parse_circuit(HOM))
    again = serialize_circuit(parse_circuit(text))
    assert text == again
    # an element's angles are written exactly
    assert "bs 0 1 0.7853981633974483 0.0 0.0\n" in text
    # a splitter's angles are canonical; a phase keeps its angle as written
    assert serialize_circuit(parse_circuit("modes 1\nphase 0 7\n")) == "modes 1\nphase 0 7.0\n"


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("bs 0 1 0 0 0\n", "modes must be declared first", 1),
        ("modes 2\nmodes 3\n", "declared twice", 2),
        ("modes 2\ninput fock 0 1\ninput fock 0 1\n", "already has an input", 3),
        ("modes 2\ndetect vacuum 0\ndetect fock 0 1\n", "already detected", 3),
        ("modes 2\ninput tmsv 0 0 0.1\n", "distinct modes", 2),
        ("modes 2\ninput tmsv 0 1 1.0\n", "q must lie", 2),
        ("modes 2\nbs 0 0 1 0 0\n", "distinct modes", 2),
        ("modes 2\nbs 0 5 1 0 0\n", "undeclared", 2),
        ("modes 2\nlossybs 0 1 1 0 0 1.0\n", "absorption must lie", 2),
        ("modes 2\ndetect vacuum 0 0\n", "usage: detect vacuum M", 2),
        ("modes 2\n# ok\nwiggle 0\n", "unknown directive", 3),
        ("modes 2\ninput squeezed 0 1\n", "unknown input kind", 2),
        ("modes 2\nphase 0\n", "usage", 2),
        ("modes 2 3\n", "usage: modes N", 1),
        ("modes 2\ninput fock 0\n", "usage: input fock M K", 2),
        ("modes 2\ninput coherent 0 1\n", "usage: input coherent M RE IM", 2),
        ("modes 2\ninput tmsv 0 1\n", "usage: input tmsv M1 M2 Q", 2),
        ("modes 2\nbs 0 1 0 0\n", "usage: bs I J THETA PHASE_T PHASE_R", 2),
        ("modes 2\nlossybs 0 1 0 0 0\n", "usage: lossybs I J THETA PHASE_T PHASE_R ABS", 2),
        ("modes 2\ndetect fock 0\n", "usage: detect fock M K", 2),
        ("modes 2\ndetect vacuum 0 1 1\n", "usage: detect vacuum M", 2),
        ("modes 2\ninput\n", "input needs a kind: fock | coherent | tmsv", 2),
        ("modes 2\ndetect\n", "detect needs a kind: fock | vacuum", 2),
        # two faults on one line: the one found first is reported
        ("modes 2\nmodes x\n", "modes declared twice", 2),
        ("modes 2\nbs 0 0 abc 0 0\n", "beam splitter needs two distinct modes", 2),
        ("modes 2\ninput tmsv 0 0 abc\n", "tmsv needs two distinct modes", 2),
        ("modes 2\nbs 0 1 abc 0 0\n", "expected angle", 2),
        ("modes ²\n", "expected mode count", 1),
        ("modes 2\nbs 0 1 1_0 0 0\n", "expected angle", 2),
        ("", "missing modes", 1),
    ],
)
def test_parse_errors(text, fragment, line):
    with pytest.raises(CircuitError) as err:
        parse_circuit(text)
    assert fragment in err.value.message
    assert err.value.line == line


def test_readme_circuit_example_parses():
    # the example under README's "Circuit files" uses every directive
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("\n### Circuit files\n", 1)[1].split("```\n", 2)[1]
    cf = parse_circuit(example)
    directive = {kind: d for d, kind in cli.TYPES.items()}
    used = {"modes"} | {directive[type(e)] for e in cf.inputs + cf.elements}
    used |= {"detect fock" if k else "detect vacuum" for _, k in cf.detections}
    assert used == set(cli.GRAMMAR)


@st.composite
def circuit_files(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    inputs = []
    free = list(range(n))
    if draw(st.booleans()):
        inputs.append(TmsvInput(free[0], free[1], draw(st.floats(min_value=0.0, max_value=0.8))))
        free = free[2:]
    for m in free:
        kind = draw(st.sampled_from(["none", "fock", "coherent"]))
        if kind == "fock":
            inputs.append(FockInput(m, draw(st.integers(min_value=0, max_value=2))))
        elif kind == "coherent":
            inputs.append(CoherentInput(m, draw(st.floats(min_value=-1, max_value=1)), draw(st.floats(min_value=-1, max_value=1))))
    # raw angles, outside the canonical ranges: an element keeps its
    # canonical form; serialization writes every field exactly
    elements = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["bs", "phase", "lossybs"]))
        if kind == "phase":
            mode = draw(st.integers(min_value=0, max_value=n - 1))
            elements.append(PhaseShifterParams(mode, draw(st.floats(-7, 7))))
        else:
            i = draw(st.integers(min_value=0, max_value=n - 1))
            j = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x, i=i: x != i))
            angles = [draw(st.floats(-7, 7)) for _ in range(3)]
            if kind == "bs":
                elements.append(BeamSplitterParams(i, j, *angles))
            else:
                elements.append(cli.Absorber(i, j, *angles, draw(st.floats(min_value=0.0, max_value=0.9))))
    detections = []
    for m in sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n - 1))):
        detections.append((m, draw(st.integers(min_value=0, max_value=2))))
    return CircuitFile(n, tuple(inputs), tuple(elements), tuple(detections))


@settings(max_examples=60, deadline=None)
@given(circuit_files())
def test_serialize_round_trip(cf):
    text = serialize_circuit(cf)
    assert parse_circuit(text) == cf
    assert serialize_circuit(parse_circuit(text)) == text


# ---------------------------------------------------------------------------
# simulate


def test_simulate_hom_dip(tmp_path, capsys):
    path = tmp_path / "hom.circuit"
    path.write_text(HOM)
    rc, out = run(capsys, ["simulate", str(path)])
    assert rc == 0
    rows = tsv_rows(out)
    assert rows[0] == ("n0", "n1", "re", "im")
    amps = {(r[0], r[1]): complex(float(r[2]), float(r[3])) for r in rows[1:]}
    assert abs(amps[("1", "1")]) < 1e-12
    assert abs(abs(amps[("2", "0")]) - 1.0 / math.sqrt(2.0)) < 1e-12
    assert abs(abs(amps[("0", "2")]) - 1.0 / math.sqrt(2.0)) < 1e-12


def test_simulate_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(HOM))
    rc, out = run(capsys, ["simulate"])
    assert rc == 0
    assert out.startswith("n0\tn1\t")


def test_simulate_lossy_populations(tmp_path, capsys):
    path = tmp_path / "lossy.circuit"
    path.write_text("modes 2\ninput fock 0 1\nlossybs 0 1 0.5 0 0 0.3\n")
    rc, out = run(capsys, ["simulate", str(path)])
    assert rc == 0
    rows = tsv_rows(out)
    assert rows[0] == ("n0", "n1", "population")
    pops = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
    assert abs(pops[("0", "0")] - 0.09) < 1e-12
    assert abs(pops[("1", "0")] - 0.91 * math.cos(0.5) ** 2) < 1e-12
    assert abs(pops[("0", "1")] - 0.91 * math.sin(0.5) ** 2) < 1e-12
    assert abs(sum(pops.values()) - 1.0) < 1e-12


def test_simulate_rejects_detections(tmp_path, capsys):
    path = tmp_path / "bad.circuit"
    path.write_text(HOM + "detect vacuum 0\n")
    rc, _ = run(capsys, ["simulate", str(path)])
    assert rc == 2


def test_cutoff_below_declared_input(tmp_path, capsys):
    path = tmp_path / "deep.circuit"
    path.write_text("modes 1\ninput fock 0 3\n")
    rc, _ = run(capsys, ["simulate", str(path), "--cutoff", "2"])
    assert rc == 2


def test_coherent_amplitude_past_float_range_is_exit_4(tmp_path, capsys):
    # alpha^8 overflows numpy at 1e40, |alpha|^2 a Python float at 1e200;
    # both must be reported as the amplitude and cutoff, not print NaNs
    path = tmp_path / "bright.circuit"
    for amplitude in ("1e40", "1e200"):
        path.write_text(f"modes 1\ninput coherent 0 {amplitude} 0\nphase 0 0.3\n")
        rc = main(["simulate", str(path), "--cutoff", "8"])
        out, err = capsys.readouterr()
        assert rc == 4
        assert out == ""
        assert err == f"numeric failure: coherent amplitude ({float(amplitude)}+0j) at cutoff 8 is beyond the double range\n"


def test_missing_file(capsys):
    rc, _ = run(capsys, ["simulate", "/nonexistent/path.circuit"])
    assert rc == 2


# ---------------------------------------------------------------------------
# condition


def test_condition_sign_flip_fixture(capsys):
    rc, out = run(capsys, ["condition", NSS_FIXTURE])
    assert rc == 0
    head = kv(out)
    assert abs(float(head["success_probability"]) - 0.25) < 1e-9
    rows = tsv_rows(out)
    start = rows.index(("out", "in", "re", "im")) + 1
    mat = {}
    for r in rows[start:]:
        mat[(r[0], r[1])] = complex(float(r[2]), float(r[3]))
    # the extracted operator carries the network's global phase; only the
    # magnitude and the layer pattern are pinned
    c = mat[("0", "0")]
    assert abs(abs(c) - 0.5) < 1e-6
    assert abs(mat[("1", "1")] - c) < 1e-9
    assert abs(mat[("2", "2")] + c) < 1e-9
    assert abs(mat[("0", "1")]) < 1e-9
    assert abs(mat[("2", "1")]) < 1e-9


def test_condition_two_photon_interference(tmp_path, capsys):
    # heralding one photon behind a balanced splitter: the single-photon
    # level is transparent while the two-photon level is suppressed
    path = tmp_path / "cond.circuit"
    path.write_text(
        "modes 2\ninput fock 1 1\nbs 0 1 0.7853981633974483 0 0\ndetect fock 1 1\n"
    )
    rc, out = run(capsys, ["condition", str(path), "--cutoff", "2"])
    assert rc == 0
    rows = tsv_rows(out)
    start = rows.index(("out", "in", "re", "im")) + 1
    mat = {(r[0], r[1]): complex(float(r[2]), float(r[3])) for r in rows[start:]}
    # Y(1) = |T|^2 - |R|^2 = 0 at theta = pi/4, Y(0) = |T|^2 / T
    assert abs(mat[("1", "1")]) < 1e-12
    assert abs(abs(mat[("0", "0")]) - 1.0 / math.sqrt(2.0)) < 1e-12


def test_condition_detector_below_the_signal_modes(tmp_path, capsys):
    # the detected mode 0 sits below the signal modes 1 and 2; every
    # printed entry must match <out, 1| U |in, 1> from the polynomial oracle
    path = tmp_path / "low_detector.circuit"
    path.write_text(
        "modes 3\n"
        "input fock 0 1\n"
        "input fock 1 1\n"
        "bs 0 1 0.6 0.3 1.1\n"
        "bs 1 2 0.9 -0.4 0.2\n"
        "bs 0 1 1.2 0.7 -0.5\n"
        "phase 2 0.8\n"
        "detect fock 0 1\n"
    )
    network = NetworkDescription(
        3,
        (
            BeamSplitterParams(0, 1, 0.6, 0.3, 1.1),
            BeamSplitterParams(1, 2, 0.9, -0.4, 0.2),
            BeamSplitterParams(0, 1, 1.2, 0.7, -0.5),
            PhaseShifterParams(2, 0.8),
        ),
    )
    cutoff = 3
    full = FockBasis(3, TotalPhotonCutoff(cutoff + 1))
    lift = lift_oracle(compose(network).matrix, full)
    signal = FockBasis(2, TotalPhotonCutoff(cutoff))

    def entry(out_occ, in_occ):
        return lift[full.index_of((1, *out_occ)), full.index_of((1, *in_occ))]

    rc, out = run(capsys, ["condition", str(path), "--cutoff", str(cutoff)])
    assert rc == 0
    head = kv(out)
    assert head["signal_modes"] == "1,2"
    # the reference input is the signal photon on mode 1, now position 0
    column = [entry(occ, (1, 0)) for occ in signal.occupations.tolist()]
    expect_p = sum(abs(a) ** 2 for a in column)
    assert abs(float(head["success_probability"]) - expect_p) < 1e-10
    rows = tsv_rows(out)
    start = rows.index(("out", "in", "re", "im")) + 1
    printed = rows[start:]
    assert len(printed) == signal.dimension**2
    for r in printed:
        occ_out = tuple(int(n) for n in r[0].split(","))
        occ_in = tuple(int(n) for n in r[1].split(","))
        got = complex(float(r[2]), float(r[3]))
        assert abs(got - entry(occ_out, occ_in)) < 1e-10, r


def test_condition_requires_detection(tmp_path, capsys):
    path = tmp_path / "nodet.circuit"
    path.write_text(HOM)
    rc, _ = run(capsys, ["condition", str(path)])
    assert rc == 2


def test_condition_rejects_inefficient_detectors(tmp_path, capsys):
    # a detector has no efficiency argument: a trailing one is a usage error
    path = tmp_path / "eta.circuit"
    path.write_text(HOM + "detect vacuum 1 0.5\n")
    rc, _ = run(capsys, ["condition", str(path)])
    assert rc == 2


def test_condition_rejects_lossy_elements(tmp_path, capsys):
    path = tmp_path / "lossycond.circuit"
    path.write_text("modes 2\nlossybs 0 1 0.5 0 0 0.2\ndetect vacuum 1\n")
    rc, _ = run(capsys, ["condition", str(path)])
    assert rc == 2


def test_condition_needs_a_signal_mode(tmp_path, capsys):
    path = tmp_path / "alldet.circuit"
    path.write_text("modes 1\ninput fock 0 1\ndetect fock 0 1\n")
    rc, _ = run(capsys, ["condition", str(path)])
    assert rc == 2


def test_condition_detected_mode_needs_fock_input(tmp_path, capsys):
    path = tmp_path / "cohdet.circuit"
    path.write_text("modes 2\ninput coherent 1 0.3 0\ndetect vacuum 1\n")
    rc, _ = run(capsys, ["condition", str(path)])
    assert rc == 2


@pytest.mark.parametrize(
    "modes, signal, ancilla, detection, cutoff",
    [
        (4, (0, 1), (1, 0), (1, 0), 6),
        (5, (0, 2, 4), (2, 1), (1, 0), 4),
        (3, (1,), (0, 2), (1, 1), 7),
        # ancilla- and detector-heavy: a five-photon chain, 3 x 2 x 4 x 2
        # detection patterns per signal occupation
        (6, (1, 4), (2, 0, 3, 0), (2, 1, 3, 1), 5),
        # a superposed ancilla: a chain and signal columns per component,
        # except the vacuum one, which has no output row at cutoff 1
        (5, (0, 3), ((1, 0, 2), (0, 0, 0), (3, 1, 0), (0, 2, 0)), (1, 2, 0), 1),
    ],
)
def test_condition_work_counts_the_extractor_entries(modes, signal, ancilla, detection, cutoff):
    # the limit's figure comes from sector sizes alone; it must be the
    # multiply-adds of the recurrence tables the extractor builds: nodes x
    # states x slots on each photon level
    if isinstance(ancilla[0], tuple):  # one Fock component per tuple
        basis = FockBasis(len(detection), TotalPhotonCutoff(max(map(sum, ancilla))))
        amplitudes = np.zeros(basis.dimension, dtype=complex)
        amplitudes[[basis.index_of(c) for c in ancilla]] = 0.5
        spec, photons = PureState(basis, amplitudes), [sum(c) for c in ancilla]
    else:
        spec, photons = AncillaSpec(ancilla), [sum(ancilla)]
    extractor = ConditionalExtractor(modes, signal, spec, DetectionSpec(detection), cutoff)
    built = sum(len(parents) * gather.size for parents, _, _, gather, *_ in extractor._levels)
    assert conditioning.recurrence_work(len(signal), cutoff, photons, detection) == built > 0


def test_condition_at_its_cutoff_limit_runs(capsys):
    # one ancilla photon detected again: the top entry holds cutoff + 1
    rc, out = run(capsys, ["condition", NSS_FIXTURE, "--cutoff", str(conditioning.MAX_PHOTONS - 1)])
    assert rc == 0
    assert abs(float(kv(out)["success_probability"]) - 0.25) < 1e-9


# detector-heavy networks: one photon in, and three or two detected, on
# each auxiliary mode (HEAVY_TWO also sends six photons into signal mode 0)
HEAVY_THREE = "modes 6\n" + "".join(f"input fock {m} 1\ndetect fock {m} 3\n" for m in (3, 4, 5))
HEAVY_THREE += "bs 0 3 0.3 0 0\nbs 1 4 0.5 0 0\nbs 2 5 0.7 0 0\nbs 3 4 0.4 0 0\n"
HEAVY_TWO = "modes 8\ninput fock 0 6\n" + "".join(f"input fock {m} 1\ndetect fock {m} 2\n" for m in range(2, 8))
HEAVY_TWO += "".join(f"bs {m} {m + 1} 0.{m + 2} 0 0\n" for m in range(7))


@pytest.mark.parametrize(
    "text, cutoff",
    [
        # rejected when the work counted 2^size per entry: three signal
        # modes at cutoff 16 (969 states), two at cutoff 20
        ("modes 5\ninput fock 3 1\nbs 0 3 0.3 0 0\nbs 2 4 0.5 0 0\ndetect fock 3 1\ndetect fock 4 0\n", 16),
        ("modes 4\ninput fock 2 1\nbs 0 2 0.3 0 0\nbs 1 3 0.5 0 0\ndetect fock 2 1\ndetect fock 3 0\n", 20),
        # a cutoff below HEAVY_TWO's rejected one
        (HEAVY_TWO, 13),
    ],
    ids=["three-signal-modes", "two-signal-modes", "detector-heavy"],
)
def test_condition_inside_its_work_limit_runs(monkeypatch, capsys, text, cutoff):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["condition", "--cutoff", str(cutoff), "-"]) == 0
    out = capsys.readouterr().out
    assert 0.0 < float(kv(out)["success_probability"]) <= 1.0


@pytest.mark.parametrize(
    "text, cutoff, named",
    [
        # 44 signal modes at cutoff 2: C(46, 2) = 1035 basis states
        ("modes 45\ninput fock 44 1\nbs 0 44 0.3 0 0\ndetect fock 44 1\n", 2,
         ("1035", str(conditioning.MAX_DENSE_DIMENSION))),
        # one ancilla photon detected again: entries of cutoff + 1 photons
        (Path(NSS_FIXTURE).read_text(), conditioning.MAX_PHOTONS,
         (f"{conditioning.MAX_PHOTONS + 1} photons", str(conditioning.MAX_PHOTONS))),
        # three ancilla photons, all detected, beside a cutoff below the cap
        ("modes 2\ninput fock 1 3\nbs 0 1 0.3 0 0\ndetect fock 1 3\n", conditioning.MAX_PHOTONS - 2,
         (f"{conditioning.MAX_PHOTONS + 1} photons", str(conditioning.MAX_PHOTONS))),
        # inside both limits, but the recurrence's nodes times states grow
        # with the detection patterns beside the signal basis: three signal
        # modes beside 4^3 patterns at cutoff 12, two beside 3^6 at cutoff 14
        (HEAVY_THREE, 12, ("7.15e+06", f"{conditioning.MAX_RECURRENCE_WORK:.3g}")),
        (HEAVY_TWO, 14, ("6.14e+06", f"{conditioning.MAX_RECURRENCE_WORK:.3g}")),
    ],
    ids=["dimension", "cutoff", "photons-ancilla", "work-three-signal-modes", "work-two-signal-modes"],
)
def test_condition_above_its_size_limit_is_exit_4(monkeypatch, capsys, text, cutoff, named):
    # the extractor refuses before it builds anything
    import tracemalloc

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    tracemalloc.start()
    try:
        rc = main(["condition", "--cutoff", str(cutoff), "-"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err.startswith("numeric failure:")
    for word in named:
        assert word in captured.err


# ---------------------------------------------------------------------------
# gate, optimize, loss, verify, perm


def test_gate_swap(capsys):
    rc, out = run(capsys, ["gate", "--name", "swap"])
    assert rc == 0
    head = kv(out)
    assert head["gate"] == "swap"
    assert float(head["residual"]) < 1e-12
    assert head["success_probability"] == "1"


def test_gate_cphase_vacuum_detector(capsys):
    rc, out = run(capsys, ["gate", "--name", "cphase", "--variant", "vacuum-detector"])
    assert rc == 0
    head = kv(out)
    t1_sq = (3.0 - math.sqrt(2.0)) / 7.0
    assert abs(float(head["per_arm_success"]) - t1_sq) < 1e-12
    assert abs(float(head["t1"]) - math.sqrt(t1_sq)) < 1e-12


def test_gate_cphase_unreachable_phase(capsys):
    rc, _ = run(
        capsys,
        ["gate", "--name", "cphase", "--variant", "vacuum-detector", "--phi", "1.0"],
    )
    assert rc == 2


@pytest.mark.parametrize("phi", ["inf", "nan", "-inf"])
def test_gate_cphase_non_finite_phase_names_the_reachable_phases(capsys, phi):
    rc = main(["gate", "--name", "cphase", "--variant", "vacuum-detector", f"--phi={phi}"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "reaches only phi = 0 and phi = pi" in captured.err


def test_gate_unknown_name(capsys):
    assert main(["gate", "--name", "frobnicate"]) == 2


def test_optimize_feasible(capsys):
    rc, out = run(capsys, ["optimize", "--objective", "nss", "--seed", "7", "--restarts", "3"])
    assert rc == 0
    head = kv(out)
    assert head["feasible"] == "true"
    assert abs(float(head["probability"]) - 0.25) < 1e-3
    assert float(head["residual"]) < 1e-6
    assert head["evaluations"] == "965"
    # restarts 0, 1 and 2 all reach p = 1/4 within 1e-14: tied, so the
    # lowest index wins whatever the last bits of the evaluation
    assert head["restart_index"] == "0"


def test_optimize_starved_budget_is_exit_3(capsys):
    # the one restart of seed 21 ends its four draws short of feasibility
    rc, _ = run(capsys, ["optimize", "--objective", "nss", "--seed", "21", "--restarts", "1"])
    assert rc == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--objective", "nss", "--restarts", "0"],
        ["optimize", "--objective", "nss", "--restarts", "-1"],
        ["gate", "--name", "nss", "--restarts", "0"],
        ["gate", "--name", "swap", "--restarts", "0"],
        ["gate", "--name", "hadamard", "--restarts", "-2"],
        ["gate", "--name", "pauli-x", "--restarts", "0"],
        ["gate", "--name", "cnot-search", "--restarts", "0"],
    ],
)
def test_restarts_below_one_is_exit_2(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "--restarts" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["gate", "--name", "nss", "--seed", "-1"],
        ["gate", "--name", "swap", "--seed", "-1"],
        ["optimize", "--objective", "nss", "--seed", "-3"],
        ["verify", "--prop", "1", "--aux", "1", "--seed", "-1"],
        ["verify", "--appendix", "--seed", "-2"],
    ],
)
def test_negative_seed_is_refused_at_parse_time(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "argument --seed: expected a non-negative integer" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["gate", "--name", "su3", "--phi1", "inf"],
        ["gate", "--name", "cphase", "--phi", "nan"],
        ["optimize", "--objective", "su3", "--phi1", "nan"],
    ],
)
def test_non_finite_target_phase_is_exit_2_before_any_search(monkeypatch, capsys, argv):
    def searched(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(gates, "optimize_gate", searched)
    monkeypatch.setattr(cli, "optimize_gate", searched)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: constraint entries must be finite\n"


@pytest.mark.parametrize(
    "flags, forwarded",
    [
        ([], {}),
        (["--seed", "0"], {"seed": 0}),
        (["--restarts", "3"], {"restarts": 3}),
        (["--seed", "4", "--restarts", "2"], {"seed": 4, "restarts": 2}),
        (["--phi", "1.5"], {"phi": 1.5}),
        (["--q", "0.2", "--seed", "1"], {"q": 0.2, "seed": 1}),
    ],
)
def test_gate_forwards_only_the_search_flags_given(monkeypatch, capsys, flags, forwarded):
    seen = {}

    def recorder(name):
        def recipe(**given):
            seen[name] = given
            return gates.swap_gate()

        return recipe

    for name, (reads, _) in list(GATES.items()):
        monkeypatch.setitem(GATES, name, (reads, recorder(name)))
    reading = [name for name, (reads, _) in GATES.items() if set(forwarded) <= set(reads)]
    for name in GATES:
        assert main(["gate", "--name", name] + flags) == (0 if name in reading else 2)
    capsys.readouterr()
    assert seen == {name: forwarded for name in reading}


@pytest.mark.parametrize(
    "argv",
    [
        ["perm", "--tolerance", "-1", "--restarts", "0", "--cutoff", "-3"],
        ["perm", "--seed", "1"],
        ["loss", "--absorption", "0", "--eta", "0.5", "--restarts", "0"],
        ["loss", "--absorption", "0", "--eta", "0.5", "--cutoff", "3"],
        ["simulate", "--seed", "1"],
        ["condition", "--tolerance", "1e-9"],
        ["gate", "--name", "swap", "--cutoff", "3"],
        ["optimize", "--objective", "nss", "--tolerance", "1e-9"],
        ["verify", "--prop", "1", "--restarts", "2"],
        # gate: a flag the chosen recipe does not read
        ["gate", "--name", "swap", "--seed", "3"],
        ["gate", "--name", "hadamard", "--seed", "9"],
        ["gate", "--name", "swap", "--phi", "1.0"],
        ["gate", "--name", "cphase", "--variant", "vacuum-detector", "--seed", "1"],
        ["gate", "--name", "cphase", "--variant", "vacuum-detector", "--restarts", "2"],
        ["gate", "--name", "nss", "--q", "0.1"],
        ["gate", "--name", "su3", "--phi", "1.0"],
        ["gate", "--name", "pauli-x", "--variant", "four-photon"],
        ["gate", "--name", "ralph-cz", "--phi2", "0.5"],
        # verify runs one suite, and refuses the other suite's flags
        ["verify", "--prop", "1", "--appendix"],
        ["verify", "--appendix", "--aux", "3", "--cutoff", "9"],
        ["verify", "--appendix", "--dim", "3", "--samples", "5", "--tolerance", "1e-30"],
        ["verify", "--prop", "2", "--dim", "3", "--samples", "5"],
        ["optimize", "--objective", "nss", "--phi1", "1"],
    ],
)
def test_flag_the_subcommand_does_not_read_is_exit_2(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    flag = [a for a in argv if a.startswith("--")][-1]  # one the run does not read
    if argv[:2] == ["verify", "--prop"] and flag == "--appendix":
        assert "argument --appendix: not allowed with argument --prop" in captured.err
    else:
        assert "unrecognized arguments" in captured.err and flag in captured.err


def test_loss_closed_forms(capsys):
    rc, out = run(capsys, ["loss", "--absorption", "0", "--eta", "0.5"])
    assert rc == 0
    head = kv(out)
    assert head["detector"] == "0.232050807569"
    assert abs(float(head["wanted"]) - 0.5 * (2.0 - math.sqrt(3.0))) < 1e-12
    assert head["absorption"] == "0"
    assert abs(float(head["trace"]) - (
        float(head["wanted_weight"])
        + float(head["detector_weight"])
        + float(head["absorption_weight"])
    )) < 1e-12


@pytest.mark.parametrize("c0", ["nan", "inf", "nan+0.6j"])
def test_loss_non_finite_amplitude_is_exit_2(capsys, c0):
    rc = main(["loss", "--absorption", "0.3", "--eta", "0.7", "--c0", c0, "--c1", "0.8"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: |c0|^2 + |c1|^2 must equal 1\n"


def test_verify_proposition(capsys):
    rc, out = run(capsys, ["verify", "--prop", "1", "--aux", "1", "--seed", "5"])
    assert rc == 0
    head = kv(out)
    assert head["pass"] == "true"
    assert float(head["deviation"]) < 1e-9


def test_verify_proposition_strict_tolerance(capsys):
    rc, out = run(
        capsys,
        ["verify", "--prop", "1", "--aux", "1", "--seed", "5", "--tolerance", "1e-30"],
    )
    assert rc == 4
    assert kv(out)["pass"] == "false"


@pytest.mark.parametrize("tolerance", ["0", "-1e-9", "nan"])
def test_verify_non_positive_tolerance_is_exit_2(capsys, tolerance):
    rc = main(["verify", "--prop", "1", "--aux", "1", "--seed", "5", f"--tolerance={tolerance}"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "--tolerance" in captured.err


def test_verify_prop_above_the_photon_cap_is_exit_4(capsys):
    # proposition 1's top entry holds cutoff photons
    cap = conditioning.MAX_PHOTONS
    rc, out = run(capsys, ["verify", "--prop", "1", "--seed", "5", "--cutoff", str(cap)])
    assert rc == 0 and kv(out)["pass"] == "true"
    rc = main(["verify", "--prop", "1", "--seed", "5", "--cutoff", str(cap + 1)])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err.startswith("numeric failure:")
    assert f"{cap + 1} photons" in captured.err and f"photon cap of {cap}" in captured.err


def test_verify_cutoff_zero_is_not_replaced_by_default(capsys):
    # cutoff 0 cannot show the polynomial degree; it must be rejected,
    # not silently run at the default cutoff 6
    rc = main(["verify", "--prop", "1", "--aux", "1", "--seed", "5", "--cutoff", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_verify_appendix(capsys):
    rc, out = run(capsys, ["verify", "--appendix", "--dim", "4", "--samples", "40"])
    assert rc == 0
    head = kv(out)
    assert head["pass"] == "true"
    assert head["marcus_newman_violations"] == "0"


def test_perm_dual_route(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("1 2\n3 4\n")
    rc, out = run(capsys, ["perm", str(path)])
    assert rc == 0
    head = kv(out)
    assert head["ryser_re"] == "10"
    assert head["naive_re"] == "10"
    assert head["difference"] == "0"


def test_perm_complex_entries(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("1j 0\n0 1j\n")
    rc, out = run(capsys, ["perm", str(path), "--method", "ryser"])
    assert rc == 0
    assert kv(out)["ryser_re"] == "-1"


@pytest.mark.parametrize(
    "argv, text, position",
    [
        (["perm"], "# header\n\n1 2\n3\n", "line 4 column 1: ragged matrix row"),
        (["perm"], "# header only\n", None),
        (["perm"], "1 2 3\n4 5 6\n", None),
        (["simulate"], "modes 2\ninput fock 0 1\ndetect vacuum 1\n", None),
        (["simulate", "--cutoff", "1"], "modes 2\ninput fock 0 1\ninput fock 1 1\n", None),
        (["condition"], "modes 2\ninput fock 0 1\n", None),
        (["condition"], "modes 2\ninput fock 0 1\ndetect vacuum 1 0.5\n", "line 3 column 1: usage: detect vacuum M"),
        (["condition"], "modes 2\nlossybs 0 1 0.5 0 0 0.1\ndetect vacuum 1\n", None),
        (["condition"], "modes 1\ninput fock 0 1\ndetect fock 0 1\n", None),
        (["condition"], "modes 3\ninput tmsv 1 2 0.1\ndetect vacuum 2\n", None),
    ],
)
def test_faults_name_a_file_position_only_where_they_have_one(tmp_path, capsys, argv, text, position):
    path = tmp_path / "input.txt"
    path.write_text(text)
    rc = main(argv + [str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    if position:
        assert err.startswith(f"parse error: {position}")
    else:
        assert err.startswith("error:") and "line 1 column 1" not in err


def test_perm_rejects_ragged_matrix(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("1 2\n3\n")
    rc, _ = run(capsys, ["perm", str(path)])
    assert rc == 2


def test_perm_rejects_non_square(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("1 2 3\n4 5 6\n")
    rc, _ = run(capsys, ["perm", str(path)])
    assert rc == 2


@pytest.mark.parametrize("entry", ["nan", "inf", "-infj", "1e400", "1_0"])
@pytest.mark.parametrize("method", ["ryser", "naive", "both"])
def test_perm_rejects_non_finite_or_non_decimal_entry(tmp_path, capsys, entry, method):
    path = tmp_path / "m.txt"
    path.write_text(f"1 1\n1 {entry}\n")
    rc = main(["perm", str(path), "--method", method])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("parse error: line 2 column 3:")


@pytest.mark.parametrize(
    "text, method",
    [
        ("1e200 1e200\n1e200 1e200\n", "ryser"),
        ("1e200 1e200\n1e200 1e200\n", "naive"),
        ("1e200 1e200\n1e200 1e200\n", "both"),
    ],
)
def test_perm_overflow_is_exit_4(tmp_path, capsys, text, method):
    path = tmp_path / "m.txt"
    path.write_text(text)
    rc = main(["perm", str(path), "--method", method])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err.startswith("numeric failure:")


@pytest.mark.parametrize("method, n, limit", [("naive", 10, 9), ("both", 10, 9), ("ryser", 31, 30)])
def test_perm_above_its_dimension_limit_is_exit_4(tmp_path, capsys, method, n, limit):
    path = tmp_path / "m.txt"
    path.write_text("".join(" ".join("1" if i == j else "0" for j in range(n)) + "\n" for i in range(n)))
    rc = main(["perm", str(path), "--method", method])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err.startswith("numeric failure:")
    assert str(n) in captured.err and str(limit) in captured.err


def test_perm_near_the_double_range_is_printed(tmp_path, capsys):
    # per = 1e305 is a double, though the kernel's sums hold per * 2^11
    path = tmp_path / "m.txt"
    path.write_text("".join(" ".join("2.610157215682544e+25" if i == j else "0" for j in range(12)) + "\n" for i in range(12)))
    rc, out = run(capsys, ["perm", str(path), "--method", "ryser"])
    assert rc == 0
    head = kv(out)
    assert abs(float(head["ryser_re"]) - 1e305) <= 1e-12 * 1e305
    assert head["ryser_im"] == "0"


# ---------------------------------------------------------------------------
# determinism


def test_byte_identical_reruns(capsys):
    fixed = [
        ["gate", "--name", "swap"],
        ["gate", "--name", "cphase", "--variant", "vacuum-detector"],
        ["loss", "--absorption", "0.3", "--eta", "0.7"],
        ["verify", "--prop", "2", "--aux", "1", "--seed", "3"],
        ["condition", NSS_FIXTURE],
    ]
    first = []
    for argv in fixed:
        rc, out = run(capsys, argv)
        assert rc == 0
        first.append(out)
    for argv, before in zip(fixed, first):
        rc, out = run(capsys, argv)
        assert rc == 0
        assert out == before
