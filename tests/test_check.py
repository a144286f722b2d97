"""The ``python -m repro check`` gate: exit 0 when every row matches,
exit 1 as soon as one row does not."""

from repro.__main__ import main
from repro.harness import check


def test_multicore_family_passes():
    assert main(["check", "--only", "multicore", "--transactions", "4"]) == 0


def test_one_mismatched_row_fails_the_command(monkeypatch, capsys):
    monkeypatch.setitem(
        check.CHECKS, "multicore",
        lambda opts: {"forced": {"match": False, "fast": "a",
                                 "reference": "b"}},
    )
    assert main(["check", "--only", "multicore"]) == 1
    out = capsys.readouterr().out
    assert "[check] multicore/forced: MISMATCH" in out

