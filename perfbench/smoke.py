"""Smoke test for the benchmark itself, at toy size (seconds, not minutes).

    python3 perfbench/smoke.py          # or: python3 -m pytest perfbench/smoke.py

Checks that every workload runs without a failed operation, that each run
emits exactly the metrics ``BENCHMARK.json`` names, with their units, that a
deliberately wrong oracle expectation is counted as a failed operation, and
that the benchmark refuses to run without the program's source.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(name, trace):
    return run.run(name, seed=3, seconds=0.3, trace=trace, size="toy", out=lambda line: None)


def test_every_metric_is_emitted_with_its_unit():
    for workload in SPEC["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload["name"], trace)
            assert result["correct"], (workload["name"], trace, result)
            assert result["failed"] == 0 and result["attempted"] >= 1
            expected = {entry["name"]: entry["unit"] for entry in SPEC[section]}
            emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert emitted == expected, (workload["name"], trace)


def test_wrong_expectation_counts_as_failed_operation():
    original = workloads.UnivAsk.__init__

    def with_wrong_expectation(self, seed, size="full"):
        original(self, seed, size)
        text, expected = self.queries[0]
        self.queries[0] = (text, "no" if expected != "no" else "yes")

    workloads.UnivAsk.__init__ = with_wrong_expectation
    try:
        result = _run("univ_ask", 0)
    finally:
        workloads.UnivAsk.__init__ = original
    assert result["failed"] >= 1
    assert not result["correct"]


def test_refuses_to_run_without_the_program():
    with tempfile.TemporaryDirectory() as directory:
        shutil.copy(ROOT / "BENCHMARK.json", directory)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(directory) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            SPEC["command"] + ["--workload", "univ_ask", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=directory, capture_output=True, text=True, timeout=180,
        )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


if __name__ == "__main__":
    for test in (
        test_every_metric_is_emitted_with_its_unit,
        test_wrong_expectation_counts_as_failed_operation,
        test_refuses_to_run_without_the_program,
    ):
        test()
        print(f"ok {test.__name__}")
