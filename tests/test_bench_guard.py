"""Wire ``benchmarks/check_bench.py`` into the tier-1 verify flow.

The committed ``BENCH_datalog.json`` is the perf trajectory future PRs diff
against; these tests fail when it goes stale (a strategy, the incremental
mode, the magic-set query section, the sharded parallel section, the
columnar-vs-objects storage section, the static-analysis section, the
violation-view constraints section or the belief-revision section is
missing, model/answer/verdict/result
agreement was not verified, the no-op tracing overhead of the observability
section rose above its 5% cap, the incremental speedup slipped below its 10x target or a
one-fact apply on a 10x larger EDB cost more than 2x as much, the
magic point-query speedup below its 5x target, the columnar fixpoint
speedup / peak-memory advantage below its 3x / <1x targets or the
incremental constraint-checking or belief-revision speedups below their 5x
targets, or cells were
timed with fewer than 3 repeats) or when indexed evaluation, magic-set
querying, the parallel scheduler, columnar storage, incremental
constraint checking or belief revision regresses more than 2x against the
committed ratios on a quick re-measurement.
"""

import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_bench", ROOT / "benchmarks" / "check_bench.py"
)
check_bench = importlib.util.module_from_spec(_SPEC)
sys.modules["check_bench"] = check_bench
_SPEC.loader.exec_module(check_bench)


@pytest.fixture(scope="module")
def report():
    path = ROOT / "BENCH_datalog.json"
    if not path.exists():
        pytest.fail("BENCH_datalog.json is missing — run benchmarks/run_bench.py")
    return check_bench.load_report(path)


def test_bench_file_is_fresh(report):
    problems = check_bench.structure_problems(report)
    assert not problems, "; ".join(problems)


def test_structure_check_catches_missing_incremental(report):
    stale = dict(report)
    stale.pop("incremental", None)
    assert any("incremental" in p for p in check_bench.structure_problems(stale))


def test_structure_check_catches_non_flat_apply(report):
    flatness = {**report["incremental"]["flatness"], "ratio_large_vs_small": 9.5}
    stale = {**report, "incremental": {**report["incremental"], "flatness": flatness}}
    assert any("not flat" in p for p in check_bench.structure_problems(stale))
    missing = {k: v for k, v in report["incremental"].items() if k != "flatness"}
    stale = {**report, "incremental": missing}
    assert any("not flat" in p for p in check_bench.structure_problems(stale))


def test_structure_check_catches_missing_strategy(report):
    stale = dict(report)
    stale["rows"] = [
        {**row, "strategies": {k: v for k, v in row["strategies"].items() if k != "indexed"}}
        for row in report["rows"]
    ]
    assert any("indexed" in p for p in check_bench.structure_problems(stale))


def test_structure_check_catches_missing_query_section(report):
    stale = dict(report)
    stale.pop("query", None)
    assert any("query" in p for p in check_bench.structure_problems(stale))


def test_structure_check_catches_unverified_query_answers(report):
    stale = dict(report)
    stale["query"] = [{**row, "answers_match": False} for row in report["query"]]
    assert any("answer agreement" in p for p in check_bench.structure_problems(stale))


def test_structure_check_catches_query_speedup_below_target(report):
    stale = dict(report)
    stale["query"] = [
        {
            **row,
            "patterns": {
                pattern: (
                    {**cell, "speedup_magic_vs_full": 1.2} if cell else None
                )
                for pattern, cell in row["patterns"].items()
            },
        }
        for row in report["query"]
    ]
    assert any("5.0x target" in p for p in check_bench.structure_problems(stale))


def test_structure_check_catches_missing_parallel_section(report):
    stale = dict(report)
    stale.pop("parallel", None)
    assert any("parallel" in p for p in check_bench.structure_problems(stale))


def test_structure_check_catches_unverified_parallel_models(report):
    stale = dict(report)
    stale["parallel"] = [
        {**row, "models_identical": False} for row in report["parallel"]
    ]
    assert any(
        "model agreement with indexed" in p
        for p in check_bench.structure_problems(stale)
    )


def test_structure_check_catches_missing_parallel_ratio(report):
    stale = dict(report)
    stale["parallel"] = [
        {
            **row,
            "shards": {
                shards: {**cell, "speedup_parallel_vs_indexed": None}
                for shards, cell in row["shards"].items()
            },
        }
        for row in report["parallel"]
    ]
    assert any(
        "parallel-vs-indexed ratio" in p for p in check_bench.structure_problems(stale)
    )


def test_structure_check_catches_single_repeat_timing(report):
    stale = {**report, "repeats": 1}
    assert any("best-of-3" in p for p in check_bench.structure_problems(stale))


def test_structure_check_catches_missing_storage_section(report):
    stale = dict(report)
    stale.pop("storage", None)
    assert any("storage section" in p for p in check_bench.structure_problems(stale))


def test_structure_check_catches_unverified_storage_fixpoints(report):
    stale = dict(report)
    stale["storage"] = [
        {**row, "models_identical": False} for row in report["storage"]
    ]
    assert any(
        "fixpoint agreement" in p for p in check_bench.structure_problems(stale)
    )


def test_structure_check_catches_storage_speedup_below_target(report):
    stale = dict(report)
    stale["storage"] = [
        {**row, "speedup_columnar_vs_objects": 1.4} for row in report["storage"]
    ]
    assert any("3.0x target" in p for p in check_bench.structure_problems(stale))


def test_structure_check_catches_storage_memory_regression(report):
    stale = dict(report)
    stale["storage"] = [
        {**row, "memory_ratio_objects_vs_columnar": 0.8}
        for row in report["storage"]
    ]
    assert any(
        "peak memory is not below" in p for p in check_bench.structure_problems(stale)
    )


def test_structure_check_catches_missing_analysis_section(report):
    stale = dict(report)
    stale.pop("analysis", None)
    assert any(
        "static-analysis section" in p for p in check_bench.structure_problems(stale)
    )


def test_structure_check_catches_dirty_lint_rows(report):
    stale = dict(report)
    stale["analysis"] = {
        **report["analysis"],
        "lint": [{**row, "findings": 2} for row in report["analysis"]["lint"]],
    }
    assert any("lint clean" in p for p in check_bench.structure_problems(stale))


def test_structure_check_catches_unverified_pruning(report):
    stale = dict(report)
    stale["analysis"] = {
        **report["analysis"],
        "pruning": {**report["analysis"]["pruning"], "models_identical": False},
    }
    assert any(
        "check='off' and check='warn'" in p
        for p in check_bench.structure_problems(stale)
    )


def test_structure_check_catches_missing_violations_section(report):
    stale = dict(report)
    stale.pop("violations", None)
    assert any(
        "violation-view constraint-checking section" in p
        for p in check_bench.structure_problems(stale)
    )


def test_structure_check_catches_unverified_violation_verdicts(report):
    stale = dict(report)
    stale["violations"] = {
        **report["violations"],
        "comparison": {
            **report["violations"]["comparison"],
            "verdicts_identical": False,
        },
    }
    assert any(
        "verdict/witness agreement" in p
        for p in check_bench.structure_problems(stale)
    )


def test_structure_check_catches_violation_speedup_below_target(report):
    stale = dict(report)
    stale["violations"] = {
        **report["violations"],
        "comparison": {
            **report["violations"]["comparison"],
            "speedup_incremental_vs_scratch": 2.5,
        },
    }
    assert any("5.0x target" in p for p in check_bench.structure_problems(stale))


def test_structure_check_catches_missing_violation_scale_rows(report):
    stale = dict(report)
    stale["violations"] = {**report["violations"], "scale": []}
    assert any("scale rows" in p for p in check_bench.structure_problems(stale))


def test_structure_check_catches_unsatisfied_violation_scale_row(report):
    stale = dict(report)
    stale["violations"] = {
        **report["violations"],
        "scale": [
            {**row, "satisfied": False} for row in report["violations"]["scale"]
        ],
    }
    assert any(
        "always-satisfiable" in p for p in check_bench.structure_problems(stale)
    )


def test_structure_check_catches_missing_revision_section(report):
    stale = dict(report)
    stale.pop("revision", None)
    assert any(
        "belief-revision section" in p for p in check_bench.structure_problems(stale)
    )


def test_structure_check_catches_unverified_revision_results(report):
    stale = dict(report)
    stale["revision"] = {
        **report["revision"],
        "comparison": {
            **report["revision"]["comparison"],
            "results_identical": False,
        },
    }
    assert any(
        "result agreement" in p for p in check_bench.structure_problems(stale)
    )


def test_structure_check_catches_revision_speedup_below_target(report):
    stale = dict(report)
    stale["revision"] = {
        **report["revision"],
        "comparison": {
            **report["revision"]["comparison"],
            "speedup_revision_vs_naive": 2.5,
        },
    }
    assert any(
        "belief-revision speedup" in p for p in check_bench.structure_problems(stale)
    )


def test_structure_check_catches_missing_revision_scale_rows(report):
    stale = dict(report)
    stale["revision"] = {**report["revision"], "scale": []}
    assert any(
        "operator-only scale rows" in p
        for p in check_bench.structure_problems(stale)
    )


def test_structure_check_catches_unexpected_revision_retraction(report):
    stale = dict(report)
    stale["revision"] = {
        **report["revision"],
        "scale": [
            {**row, "retractions_as_expected": False}
            for row in report["revision"]["scale"]
        ],
    }
    assert any(
        "did not expect" in p for p in check_bench.structure_problems(stale)
    )


def test_structure_check_catches_missing_observability_section(report):
    stale = dict(report)
    stale.pop("observability", None)
    assert any("observability" in p for p in check_bench.structure_problems(stale))


def test_structure_check_catches_unverified_observability_models(report):
    stale = dict(report)
    stale["observability"] = {**report["observability"], "models_identical": False}
    assert any(
        "noop/traced/provenance" in p for p in check_bench.structure_problems(stale)
    )


def test_structure_check_catches_noop_overhead_above_cap(report):
    stale = dict(report)
    stale["observability"] = {**report["observability"], "noop_overhead_pct": 7.5}
    assert any(
        "no-op tracing overhead" in p for p in check_bench.structure_problems(stale)
    )


def test_structure_check_catches_missing_observability_fields(report):
    stale = dict(report)
    section = dict(report["observability"])
    section.pop("traced_overhead_pct", None)
    stale["observability"] = section
    assert any(
        "traced_overhead_pct" in p for p in check_bench.structure_problems(stale)
    )


def test_structure_check_catches_spanless_observability_run(report):
    stale = dict(report)
    stale["observability"] = {**report["observability"], "spans_recorded": 0}
    assert any("recorded no spans" in p for p in check_bench.structure_problems(stale))


@pytest.mark.slow
def test_indexed_speedup_has_not_regressed(report):
    problems = check_bench.regression_problems(report)
    assert not problems, "; ".join(problems)


@pytest.mark.slow
def test_parallel_ratio_has_not_regressed(report):
    problems = check_bench.parallel_regression_problems(report)
    assert not problems, "; ".join(problems)


@pytest.mark.slow
def test_magic_query_speedup_has_not_regressed(report):
    problems = check_bench.query_regression_problems(report)
    assert not problems, "; ".join(problems)


@pytest.mark.slow
def test_columnar_storage_speedup_has_not_regressed(report):
    problems = check_bench.storage_regression_problems(report)
    assert not problems, "; ".join(problems)


@pytest.mark.slow
def test_incremental_constraint_checking_has_not_regressed(report):
    problems = check_bench.violations_regression_problems(report)
    assert not problems, "; ".join(problems)


@pytest.mark.slow
def test_belief_revision_speedup_has_not_regressed(report):
    problems = check_bench.revision_regression_problems(report)
    assert not problems, "; ".join(problems)
