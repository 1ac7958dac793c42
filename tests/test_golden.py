"""Every invocation in the golden record prints the bytes it recorded
(see tests/golden.py for what the record covers and how to rewrite it)."""

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
