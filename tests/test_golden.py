"""Every invocation in the golden record prints the bytes it recorded
(see tests/golden.py for what the record covers and how to rewrite it)."""

import functools
from concurrent.futures import ThreadPoolExecutor

import golden


def test_outputs_match_the_golden_record():
    recorded_header, recorded = golden.read()
    here = golden.header()
    assert recorded_header[2] == here[2], f"record made under {recorded_header[2][2:]}, this run has {here[2][2:]}"
    assert recorded_header == here, "the record's settings differ from golden.ENV: re-record"
    got = golden.run()
    assert [line.split("\t")[0] for line in got] == [line.split("\t")[0] for line in recorded], "the covered cases changed"
    moved = [new.split("\t")[0] for new, old in zip(got, recorded) if new != old]
    assert not moved, f"{len(moved)} invocations print other bytes: {moved}"


def test_loss_and_appendix_print_the_same_bytes_under_every_dispatch():
    # the part of the record that is portable today (README, "Tests"):
    # default dispatch, numpy held at X86_V2, and OpenBLAS's Nehalem kernel
    portable = [case for _, case in golden.cases() if case["name"].startswith(("loss/", "verify/appendix"))]
    assert len(portable) == 8
    settings = [golden.ONE_THREAD, golden.ONE_THREAD | golden.X86_V2, golden.ONE_THREAD | {"OPENBLAS_CORETYPE": "Nehalem"}]
    with ThreadPoolExecutor(max_workers=2) as pool:  # two children at a time, as golden.run
        default, *others = pool.map(functools.partial(golden._run_group, portable), settings)
    assert all(got == default for got in others)
