"""The ``python -m repro check`` gate: exit 0 when every row matches,
exit 1 as soon as one row does not."""

from repro.__main__ import main
from repro.harness import check
from repro.sim.engine import fast_paths_enabled


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


def test_parity_fast_leg_runs_fast_under_reference_env(monkeypatch):
    # With the reference engine selected for the whole process, the fast
    # leg must still run fast, or every family compares reference
    # against reference and cannot fail.
    monkeypatch.setenv("REPRO_SLOW_ENGINE", "1")
    row = check._parity(fast_paths_enabled)
    assert row["fast"] is True
    assert row["reference"] is False
    assert not row["match"]
