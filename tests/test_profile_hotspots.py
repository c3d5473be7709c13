"""Smoke test of ``benchmarks/profile_hotspots.py``: both profiling modes
run at toy size and print the frames they are meant to expose."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "profile_hotspots", ROOT / "benchmarks" / "profile_hotspots.py"
)
profile_hotspots = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(profile_hotspots)


def test_write_path_profile_shows_view_maintenance(capsys):
    assert profile_hotspots.main(["--writes", "200", "--top", "25"]) == 0
    output = capsys.readouterr().out
    assert "hr_facts(200) writes" in output
    assert "_propagate" in output


def test_fixpoint_profile_still_runs(capsys):
    assert profile_hotspots.main(["--chains", "20", "--length", "5", "--top", "5"]) == 0
    assert "transitive_closure(chains=20, length=5)" in capsys.readouterr().out
