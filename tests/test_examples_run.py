"""Smoke tests that the shipped example applications run end to end.

Each example's ``main()`` is executed and its stdout checked for the
headline facts it is supposed to demonstrate.  These tests double as
executable documentation: if the examples rot, the suite fails.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_quickstart_example(capsys):
    _load("quickstart").main()
    output = capsys.readouterr().out
    assert "Mary or Sue" in output
    assert output.count("yes") >= 4 and "unknown" in output


def test_hr_integrity_example(capsys):
    _load("hr_integrity").main()
    output = capsys.readouterr().out
    assert "VIOLATED" in output
    assert "witnesses: Mary" in output
    assert "trigger asked HR for: ['Zoe']" in output


def test_violation_views_example(capsys):
    _load("violation_views").main()
    output = capsys.readouterr().out
    assert "Compiled 4 of 4 constraints" in output
    assert "fallback[negated-equality]" in output
    assert "REJECTED" in output and "ACCEPTED" in output
    assert "trigger asked HR for: ['Ann'] (fired 1 time(s)" in output


def test_warehouse_example(capsys):
    _load("warehouse_closed_world").main()
    output = capsys.readouterr().out
    assert "available(i12, Turin)" in output
    assert "GCWA entails ~K delivered(i11, acme): True" in output
    assert "GCWA entails ~delivered(i11, acme) : False" in output


def test_query_optimization_example(capsys):
    _load("query_optimization").main()
    output = capsys.readouterr().out
    assert "⊨_KFOPCE equivalent: True" in output
    assert "dropped redundant conjunct" in output
    assert "speedup" in output


def test_goal_directed_queries_example(capsys):
    _load("goal_directed_queries").main()
    output = capsys.readouterr().out
    assert "magic and full answers agree: True" in output
    assert "query speedup" in output
    assert "fewer under magic" in output
    assert "non-rewritable goal answered via mode='full' (fell back: True)" in output


def test_incremental_updates_example(capsys):
    _load("incremental_updates").main()
    output = capsys.readouterr().out
    assert "incremental and recompute agree: True" in output
    assert "stream speedup" in output
    assert "preview without edge(b, d): path(a, d) holds: False" in output
    assert "rollback left the view untouched: True" in output


def test_columnar_storage_example(capsys):
    _load("columnar_storage").main()
    output = capsys.readouterr().out
    assert "model identical to the semi-naive oracle: True" in output
    assert "statistics identical: True" in output
    assert "query answers identical: True" in output
    assert "decodes back: True" in output
    assert "columnar MaterializedModel after an insert: True" in output


def test_belief_revision_example(capsys):
    _load("belief_revision").main()
    output = capsys.readouterr().out
    assert "retracted ['male(E0)'] (epoch" in output
    assert "repaired the expansion: retracted ['male(E0)']" in output
    assert "cascade retracted ['works_in(E0, D0)']" in output
    assert "recency (default): retracted ['female(A)']" in output
    assert "FactPriorityPolicy(female outranks male): retracted ['male(A)']" in output
    assert "REJECTED" in output and "database untouched: True" in output
    assert "epochs strictly increasing: True" in output


def test_program_analysis_example(capsys):
    _load("program_analysis").main()
    output = capsys.readouterr().out
    assert "error[DL001]" in output and "warning[DL008]" in output
    assert "strict mode rejected the program: 6 findings" in output
    assert "warn mode pruned 1 dead rule(s) of 3 before evaluation" in output
    assert "least model unchanged by analysis and pruning: True" in output
    assert "p/1 -not-> q/1 -> p/1" in output


def test_explain_derivations_example(capsys):
    _load("explain_derivations").main()
    output = capsys.readouterr().out
    assert "why does the engine believe path(a, d)?" in output
    assert "path(a, d)" in output and "edge(c, d)  [fact]" in output
    assert "fixpoint.round" in output and "p50" in output and "p99" in output
    assert "'engine.iterations': 41" in output
    assert "REJECTED" in output
    assert "retraction candidates (least entrenched first):" in output
    assert "'db.tells': 1" in output
