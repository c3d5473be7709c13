"""Wire ``benchmarks/check_bench.py`` into the tier-1 verify flow.

The committed ``BENCH_datalog.json`` is the perf trajectory future PRs diff
against.  ``check_bench.GATES`` is the one table of what it must hold —
every strategy on every matrix row, agreement verified in every section,
each headline ratio at its target (indexed >= 5x semi-naive, incremental
apply >= 10x recomputation and flat within 2x on a 10x EDB, magic point
queries >= 5x full materialization, view-backed constraint checking and
belief revision >= 5x their from-scratch baselines, no-op tracing <= 5%),
the fields each section records, best-of-3 timing.  These tests fail when
the file breaks a gate, check that every gate fails on a report perturbed
just past it, run every section runner of ``benchmarks/run_bench.py`` at
toy size to show the producer still writes every field the committed file
has, and (``slow``) re-measure the committed comparison ratios, failing on
a regression of more than 2x.
"""

import copy
import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


check_bench = _load("check_bench")
run_bench = _load("run_bench")  # imports check_bench, registered above


@pytest.fixture(scope="module")
def report():
    path = ROOT / "BENCH_datalog.json"
    if not path.exists():
        pytest.fail("BENCH_datalog.json is missing — run benchmarks/run_bench.py")
    return check_bench.load_report(path)


def test_bench_file_is_fresh(report):
    problems = check_bench.structure_problems(report)
    assert not problems, "; ".join(problems)


def _last_place(node, path):
    """``(label, container, key)`` of the last place *path* selects — walked
    here, not by ``check_bench.select``, so a selector that skips rows fails."""
    label = ""
    segments = path.split(".")
    for depth, segment in enumerate(segments):
        name, _, index = segment.partition("[")
        label = f"{label}.{name}" if label else name
        container, key = node, name
        if index:
            rows = node[name]
            if index == "max]":
                at = max(range(len(rows)), key=lambda i: rows[i]["facts"])
            else:
                at = len(rows) - 1
            container, key, label = rows, at, f"{label}[{at}]"
        if depth < len(segments) - 1:
            node = container[key]
    return label, container, key


def _perturbed(report, gate):
    """A copy of *report* moved just past *gate* at the last place it
    selects, and that place's label."""
    stale = copy.deepcopy(report)
    label, container, key = _last_place(stale, gate.path)
    if gate.kind == "present":
        del container[key]
    elif gate.kind == "not-null":
        container[key] = None
    elif gate.kind in ("truthy", "non-empty"):
        container[key] = type(container[key])()
    elif gate.kind == ">=":
        container[key] = gate.value - 0.01
    elif gate.kind == "<=":
        container[key] = gate.value + 0.01
    else:
        container[key] = gate.value + 1
    return stale, label


@pytest.mark.parametrize(
    "gate", check_bench.GATES, ids=[f"{g.path} {g.kind}" for g in check_bench.GATES]
)
def test_every_gate_fails_just_past_its_value(report, gate):
    stale, label = _perturbed(report, gate)
    message = gate.message.format(value=gate.value)
    assert any(
        problem.startswith(f"{label} is ") and problem.endswith(message)
        for problem in check_bench.structure_problems(stale)
    )


def test_run_bench_check_exits_nonzero_on_a_stale_report(report, monkeypatch, tmp_path):
    output = tmp_path / "bench.json"
    monkeypatch.setattr(run_bench, "collect", lambda sizes: {**report, "repeats": 1})
    assert run_bench.main(["--check", "--output", str(output)]) == 1
    assert check_bench.load_report(output)["repeats"] == 1
    monkeypatch.setattr(run_bench, "collect", lambda sizes: report)
    assert run_bench.main(["--check", "--output", str(output)]) == 0


def _key_paths(node, prefix=""):
    paths = {prefix}
    if isinstance(node, dict):
        for key, value in node.items():
            paths |= _key_paths(value, f"{prefix}.{key}")
    elif isinstance(node, list):
        for value in node:
            paths |= _key_paths(value, f"{prefix}[]")
    return paths


TOY_SIZES = {
    "matrix": [
        ("transitive_closure", run_bench.transitive_closure_program,
         [dict(chains=5, length=3)]),
        ("same_generation", run_bench.same_generation_program,
         [dict(depth=3, branching=2)]),
        ("join_chain", run_bench.join_chain_program, [dict(relations=2, rows=10)]),
    ],
    "incremental": dict(chains=10, length=3, batches=2),
    "flatness": dict(chains=10, applies=4),
    "query": [dict(depth=3, branching=2)],
    "analysis": dict(
        lint_grid=[
            ("transitive_closure", run_bench.transitive_closure_program,
             dict(chains=5, length=3)),
            ("same_generation", run_bench.same_generation_program,
             dict(depth=3, branching=2)),
        ],
        dead_rules=2,
        pruning_params=dict(chains=5, length=3),
    ),
    "violations": dict(
        comparison=dict(employees=3, batches=2, churn=0.01),
        scale_grid=[dict(employees=20, batches=2, churn=0.01)],
    ),
    "revision": dict(
        comparison=dict(employees=3, steps=2, conflict_ratio=1.0),
        scale_grid=[dict(employees=20, steps=2, conflict_ratio=0.8)],
    ),
    "observability": dict(chains=3, length=3),
}


def test_every_section_runner_writes_the_committed_layout(report):
    toy = run_bench.collect(TOY_SIZES)
    for gate, label, actual, ok in check_bench.evaluate(toy):
        # toy sizes may miss a target, but never a field
        assert ok or (gate.kind in (">=", "<=") and isinstance(actual, (int, float))), (
            f"{label} is {actual!r}: {gate.message}"
        )
    assert _key_paths(report) <= _key_paths(toy)


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


def test_structure_check_catches_single_repeat_timing(report):
    stale = {**report, "repeats": 1}
    assert any("best-of-3" in p for p in check_bench.structure_problems(stale))


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
    problems = check_bench.regression_problems(report, "indexed")
    assert not problems, "; ".join(problems)


@pytest.mark.slow
def test_magic_query_speedup_has_not_regressed(report):
    problems = check_bench.regression_problems(report, "query")
    assert not problems, "; ".join(problems)


@pytest.mark.slow
def test_incremental_constraint_checking_has_not_regressed(report):
    problems = check_bench.regression_problems(report, "violations")
    assert not problems, "; ".join(problems)


@pytest.mark.slow
def test_belief_revision_speedup_has_not_regressed(report):
    problems = check_bench.regression_problems(report, "revision")
    assert not problems, "; ".join(problems)
