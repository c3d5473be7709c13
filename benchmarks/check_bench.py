#!/usr/bin/env python
"""Guard ``BENCH_datalog.json`` against staleness and perf regressions.

Two checks, both importable (``tests/test_bench_guard.py`` runs them in the
tier-1 suite, and ``benchmarks/run_bench.py --check`` applies the first to
the report it has just written) and runnable as a CLI::

    python benchmarks/check_bench.py                # structure + quick regression
    python benchmarks/check_bench.py --no-measure   # structure only
    python benchmarks/check_bench.py --full         # regression on the headline
                                                    # rows (~20 s: it re-times
                                                    # semi-naive at 2000 facts)

*Staleness* (``structure_problems``): every entry of :data:`GATES` must hold
on the report.  A gate names a selector (a dotted path into the report, in
which ``rows[]`` stands for every element of the ``rows`` list and
``query[max]`` for its element with the most ``facts``), a kind of
condition, a value and the problem it reports.  Together they require every
engine strategy on every matrix row, agreement verified in every section
(models, answers, verdicts, revision results), each section's headline ratio
at its target, the fields each section records, and best-of-3 timing — a PR
that adds a mode or strategy without re-running ``run_bench.py`` fails here.

*Regression* (``regression_problems``): each entry of :data:`REMEASURES`
re-times one committed comparison row — both sides with :func:`best_of`,
the timer ``run_bench.py`` records its cells with — and fails when the
measured speedup falls below the committed one divided by
``REGRESSION_TOLERANCE``.  Comparing *ratios* keeps the check
machine-independent; the 2x tolerance absorbs scheduler noise.  By default
only rows whose committed slow side is under the entry's cap are re-timed,
so every test run stays quick (``--full`` lifts the caps).
"""

import argparse
import gc
import json
import pathlib
import sys
import time
from collections import namedtuple
from functools import partial

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.datalog.engine import STRATEGIES, DatalogEngine  # noqa: E402
from repro.db.database import EpistemicDatabase  # noqa: E402
from repro.revision import naive_revise  # noqa: E402
from repro.workloads.constraints import (  # noqa: E402
    constraint_update_stream,
    hr_constraints,
    hr_facts,
    iterated_revision_stream,
)
from repro.workloads.generators import (  # noqa: E402
    point_query,
    same_generation_program,
    transitive_closure_program,
)

BENCH_PATH = ROOT / "BENCH_datalog.json"
#: measured speedup may be at most this factor below the committed one
REGRESSION_TOLERANCE = 2.0
#: timed runs per cell; every recorded ``seconds`` is the best of this many
REPEATS = 3


def best_of(prepare, repeats=REPEATS):
    """``(seconds, result)`` of the fastest of *repeats* runs.  Each run calls
    ``prepare()`` untimed (so a fresh program, engine or index is built for
    every run) and times the call it returns; the cyclic collector runs
    before each timed call so one run's garbage is never charged to the
    next."""
    best = result = None
    for _ in range(repeats):
        call = prepare()
        gc.collect()
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


class _Missing:
    """The value of a field the report does not have."""

    def __bool__(self):
        return False

    def __repr__(self):
        return "missing"


_MISSING = _Missing()

#: kind -> condition(actual, value); every kind fails on a missing field
KINDS = {
    "present": lambda actual, _: actual is not _MISSING,
    "not-null": lambda actual, _: actual is not _MISSING and actual is not None,
    "truthy": lambda actual, _: bool(actual),
    "non-empty": lambda actual, _: isinstance(actual, (list, dict)) and len(actual) > 0,
    ">=": lambda actual, value: isinstance(actual, (int, float)) and actual >= value,
    "<=": lambda actual, value: isinstance(actual, (int, float)) and actual <= value,
    "==": lambda actual, value: actual == value,
}

#: one staleness gate; ``{value}`` in the message renders the gate's value
Gate = namedtuple("Gate", "path kind value message")

RERUN = " — re-run benchmarks/run_bench.py"

GATES = (
    Gate("repeats", ">=", 3, "every cell must be best-of-{value} or better" + RERUN),
    # strategy matrix: a naive cell skipped above the size cap is null, not absent
    Gate("rows", "non-empty", None, "no benchmark rows" + RERUN),
    *(
        Gate(f"rows[].strategies.{strategy}", "present", None,
             f"row lacks the {strategy} strategy" + RERUN)
        for strategy in STRATEGIES
    ),
    Gate("rows[].models_identical", "truthy", None,
         "row did not verify model agreement across strategies"),
    Gate("headline", "present", None, "missing indexed-vs-semi-naive headline" + RERUN),
    Gate("headline.speedup_indexed_vs_semi_naive", ">=", 5.0,
         "indexed evaluation is below its {value}x-vs-semi-naive target on the "
         "largest transitive-closure row"),
    # incremental view maintenance
    Gate("incremental.models_identical", "truthy", None,
         "incremental section did not verify model agreement with recomputation"),
    Gate("incremental.speedup_incremental_vs_recompute", ">=", 10.0,
         "incremental apply speedup is below the {value}x target"),
    Gate("incremental.flatness.ratio_large_vs_small", "<=", 2.0,
         "incremental one-fact apply is not flat: 10x the EDB may cost at most "
         "{value}x" + RERUN),
    # magic-set point queries
    Gate("query", "non-empty", None, "missing magic-set query section" + RERUN),
    Gate("query[].answers_match", "truthy", None,
         "query row did not verify magic-vs-full answer agreement"),
    Gate("query[].patterns", "non-empty", None, "query row has no binding patterns"),
    Gate("query[max].patterns.bf.speedup_magic_vs_full", ">=", 5.0,
         "magic point-query speedup is below the {value}x target on the largest "
         "query row"),
    # constraint checking through the maintained violation view
    Gate("violations.comparison", "truthy", None,
         "violation-view constraint-checking section has no comparison row" + RERUN),
    Gate("violations.comparison.verdicts_identical", "truthy", None,
         "violations comparison row did not verify verdict/witness agreement "
         "between the view and the from-scratch checker"),
    Gate("violations.comparison.speedup_incremental_vs_scratch", ">=", 5.0,
         "incremental violation-check speedup is below the {value}x target on the "
         "HR comparison row"),
    Gate("violations.comparison.compiled_constraints", "truthy", None,
         "violations comparison row compiled no constraints — the view answered "
         "nothing incrementally"),
    Gate("violations.scale", "non-empty", None,
         "violations section has no view-only scale rows — the view must be "
         "exercised at sizes the from-scratch checker cannot reach"),
    Gate("violations.scale[].satisfied", "truthy", None,
         "violations scale row ended with violations on the always-satisfiable "
         "HR stream"),
    *(
        Gate(f"violations.scale[].{field}", "not-null", None,
             f"violations scale row lacks {field}")
        for field in ("build_seconds", "check_mean_seconds", "commit_mean_seconds")
    ),
    # belief revision against the naive baseline
    Gate("revision.comparison", "truthy", None,
         "belief-revision section has no comparison row" + RERUN),
    Gate("revision.comparison.results_identical", "truthy", None,
         "revision comparison row did not verify result agreement between the "
         "operator and the naive baseline"),
    Gate("revision.comparison.speedup_revision_vs_naive", ">=", 5.0,
         "belief-revision speedup is below the {value}x target on the HR "
         "revision comparison row"),
    Gate("revision.scale", "non-empty", None,
         "revision section has no operator-only scale rows — the operator must "
         "be exercised at sizes the naive baseline cannot reach"),
    Gate("revision.scale[].retractions_as_expected", "truthy", None,
         "revision scale row retracted something the stream did not expect"),
    *(
        Gate(f"revision.scale[].{field}", "not-null", None,
             f"revision scale row lacks {field}")
        for field in ("build_seconds", "revise_mean_seconds")
    ),
    # tracing overhead
    Gate("observability.models_identical", "truthy", None,
         "observability section did not verify model agreement across the "
         "noop/traced/provenance cells"),
    *(
        Gate(f"observability.{field}", "not-null", None,
             f"observability section lacks {field}")
        for field in (
            "noop_seconds", "traced_seconds", "provenance_seconds",
            "traced_overhead_pct", "provenance_overhead_pct", "spans_recorded",
            "noop_span_cost_ns", "noop_overhead_pct",
        )
    ),
    Gate("observability.noop_overhead_pct", "<=", 5.0,
         "no-op tracing overhead exceeds the {value}% cap — the default must "
         "stay free"),
    Gate("observability.spans_recorded", "truthy", None,
         "observability section recorded no spans — the traced cell must "
         "exercise the instrumentation points"),
    # static analysis
    Gate("analysis.lint", "non-empty", None, "static-analysis section has no lint rows"),
    Gate("analysis.lint[].analysis_seconds", "not-null", None,
         "analysis lint row lacks a timing"),
    Gate("analysis.lint[].findings", "==", 0,
         "analysis lint row has findings — the shipped generators must lint clean"),
    Gate("analysis.pruning", "truthy", None, "analysis section has no pruning cell"),
    Gate("analysis.pruning.models_identical", "truthy", None,
         "analysis pruning cell did not verify model agreement between "
         "check='off' and check='warn'"),
    Gate("analysis.pruning.dead_rules", "truthy", None,
         "analysis pruning cell seeded no dead rules"),
    *(
        Gate(f"analysis.pruning.{field}", "not-null", None,
             f"analysis pruning cell lacks {field}")
        for field in ("seconds_unpruned", "seconds_pruned", "analysis_seconds")
    ),
)


def _get(container, key):
    try:
        return container[key]
    except (KeyError, IndexError, TypeError):
        return _MISSING


def select(node, path, label=""):
    """Yield ``(label, container, key)`` for every place *path* selects in
    *node* (``container[key]`` is the selected value, when it exists)."""
    head, _, rest = path.partition(".")
    name, _, index = head.partition("[")
    label = f"{label}.{name}" if label else name
    if not index:
        places = [(label, node, name)]
    else:
        rows = _get(node, name)
        rows = rows if isinstance(rows, list) else []
        picks = range(len(rows))
        if index == "max]" and rows:
            picks = [max(picks, key=lambda i: rows[i].get("facts", 0))]
        places = [(f"{label}[{i}]", rows, i) for i in picks]
    for place_label, container, key in places:
        if rest:
            yield from select(_get(container, key), rest, place_label)
        else:
            yield place_label, container, key


def value_at(node, path):
    """The value at a list-free *path* in *node* (``_MISSING`` when absent)."""
    ((_, container, key),) = select(node, path)
    return _get(container, key)


def evaluate(report, gates=GATES):
    """Yield ``(gate, label, actual, ok)`` for every place each gate selects."""
    for gate in gates:
        for label, container, key in select(report, gate.path):
            actual = _get(container, key)
            yield gate, label, actual, KINDS[gate.kind](actual, gate.value)


def load_report(path=BENCH_PATH):
    """Load the committed benchmark report."""
    return json.loads(pathlib.Path(path).read_text())


def structure_problems(report):
    """Return a list of staleness problems (empty when the file is fresh)."""
    return [
        f"{label} is {actual!r}: {gate.message.format(value=gate.value)}"
        for gate, label, actual, ok in evaluate(report)
        if not ok
    ]


def _tc_pair(row):
    def run(strategy):
        engine = DatalogEngine(transitive_closure_program(**row["params"]), strategy=strategy)
        return engine.least_model

    return lambda: run("semi-naive"), lambda: run("indexed")


def _query_pair(row):
    goal = point_query(same_generation_program(**row["params"]), "sg")

    def run(mode):
        engine = DatalogEngine(same_generation_program(**row["params"]))
        return partial(engine.query, goal, mode=mode)

    return lambda: run("full"), lambda: run("magic")


def _hr_database(employees):
    facts = hr_facts(employees=employees)
    database = EpistemicDatabase(
        facts, constraints=hr_constraints(), constraint_checking="incremental"
    )
    return facts, database, database.violation_view()


def _violations_pair(row):
    params = row["params"]
    _, database, view = _hr_database(params["employees"])
    insertions, deletions = next(iter(constraint_update_stream(
        entities=params["employees"], batches=1, churn=params["churn"]
    )))
    scratch = partial(
        database._checker.check_update, database.sentences(), added=insertions,
        removed=deletions, constraints=database.constraints(),
    )
    return lambda: scratch, lambda: partial(view.preview_report, insertions, deletions)


def _revision_pair(row):
    params = row["params"]
    facts, database, _ = _hr_database(params["employees"])
    revisor = database.revision()
    # One *distinct* conflicting step per timed run: re-revising one
    # sentence is a vacuous no-op and would flatter the operator.  Each flip
    # is the same work — one conflict, one retraction.  The naive side
    # (seconds per from-scratch probe) revises the first step on the
    # pristine facts.
    steps = [sentence for sentence, _ in iterated_revision_stream(
        entities=params["employees"], steps=REPEATS, conflict_ratio=1.0
    )]
    naive = partial(naive_revise, facts, database.constraints(), steps[0])
    return lambda: naive, iter([partial(revisor.revise, step) for step in steps]).__next__


#: one regression re-measure: the committed comparison rows, the slow and
#: fast timing fields of a row, the cap on the committed slow field (seconds)
#: and ``pair(row) -> (slow, fast)``, two :func:`best_of` *prepare*
#: callables that set up untimed and return the call to time
Remeasure = namedtuple("Remeasure", "name rows workload slow fast cap pair")

REMEASURES = {
    "indexed": Remeasure(
        "indexed evaluation", "rows[]", "transitive_closure",
        "strategies.semi-naive.seconds", "strategies.indexed.seconds", 2.0, _tc_pair,
    ),
    "query": Remeasure(
        "magic-set queries", "query[]", None,
        "full_seconds", "patterns.bf.magic_seconds", 1.0, _query_pair,
    ),
    "violations": Remeasure(
        "incremental constraint checking", "violations.comparison", None,
        "scratch_check_mean_seconds", "incremental_check_mean_seconds", 5.0,
        _violations_pair,
    ),
    "revision": Remeasure(
        "belief revision", "revision.comparison", None,
        "naive_mean_seconds", "operator_mean_seconds", 5.0, _revision_pair,
    ),
}


def regression_problems(report, *names, full=False):
    """Re-measure the committed comparison rows of the :data:`REMEASURES`
    entries *names* (all by default); return a problem for each whose
    measured speedup regressed more than ``REGRESSION_TOLERANCE``x against
    the committed one.  The row is the entry's largest one whose committed
    slow side is under its cap (``full`` lifts the cap)."""
    problems = []
    for name in names or REMEASURES:
        entry = REMEASURES[name]
        rows = []
        for _, container, key in select(report, entry.rows):
            row = _get(container, key)
            slow, fast = value_at(row, entry.slow), value_at(row, entry.fast)
            if entry.workload is not None and _get(row, "workload") != entry.workload:
                continue
            timed = isinstance(slow, (int, float)) and isinstance(fast, (int, float))
            if timed and (full or slow <= entry.cap):
                rows.append(row)
        if not rows:
            problems.append(
                f"no committed {entry.rows} row suitable for re-measuring {entry.name} "
                f"(committed {entry.slow} must be at most {entry.cap} s)"
            )
            continue
        row = max(rows, key=lambda r: r.get("facts", 0))
        committed = value_at(row, entry.slow) / max(value_at(row, entry.fast), 1e-9)
        slow, fast = entry.pair(row)
        measured = best_of(slow)[0] / max(best_of(fast)[0], 1e-9)
        if measured < committed / REGRESSION_TOLERANCE:
            problems.append(
                f"{entry.name} regressed: measured speedup {measured:.1f}x vs "
                f"committed {committed:.1f}x on {row.get('facts')} facts "
                f"(tolerance {REGRESSION_TOLERANCE}x)"
            )
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", type=pathlib.Path, default=BENCH_PATH)
    parser.add_argument("--full", action="store_true",
                        help="re-measure the true headline rows (slow)")
    parser.add_argument("--no-measure", action="store_true",
                        help="structure/staleness checks only")
    args = parser.parse_args(argv)
    try:
        report = load_report(args.bench)
    except FileNotFoundError:
        print(f"FAIL: {args.bench} does not exist — run benchmarks/run_bench.py")
        return 1
    problems = structure_problems(report)
    if not args.no_measure:
        problems += regression_problems(report, full=args.full)
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        print("BENCH_datalog.json is fresh and the committed headlines hold")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
