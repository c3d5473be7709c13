#!/usr/bin/env python
"""Guard ``BENCH_datalog.json`` against staleness and perf regressions.

Two checks, both importable (``tests/test_bench_guard.py`` wires them into
the tier-1 verify flow) and runnable as a CLI::

    python benchmarks/check_bench.py            # structure + quick regression
    python benchmarks/check_bench.py --no-measure   # structure only
    python benchmarks/check_bench.py --full     # regression vs the true
                                                # headline row (~20 s: it
                                                # re-times semi-naive at
                                                # 2000 facts)

*Staleness* (``structure_problems``): the committed file must cover every
sequential engine strategy on every row, verify model agreement, carry the
indexed-vs-semi-naive headline, include the incremental view-maintenance
section with its >= 10x apply-vs-recompute speedup and a one-fact apply
that costs at most 2x as much on a 10x larger EDB (the flatness cell),
include the magic-set
``query`` section with answers verified and the headline ``bf`` point-query
speedup at or above its 5x target, include the static-analysis section (analyzer timings with
zero findings on the shipped generators, and the dead-rule pruning cell
with ``check="off"``-vs-``check="warn"`` model agreement verified),
include the ``violations`` section (incremental commit-time constraint
checking through the maintained violation view against the from-scratch
checker: verdict/witness agreement verified, the >= 5x speedup holding on
the HR comparison row, and view-only scale rows ending satisfied), include
the ``revision`` section (view-backed belief revision against the naive
retract-until-consistent baseline: per-step result agreement verified, the
>= 5x speedup holding on the HR comparison row, and operator-only scale
rows with every retraction as expected), and
have been timed best-of-3 or better (``repeats``) — a PR that adds a mode
or strategy without re-running ``run_bench.py`` fails here.

*Regression* (``regression_problems``): re-times the indexed strategy
against unindexed semi-naive on a committed transitive-closure row and fails
when the measured speedup falls below half the committed one; likewise
(``query_regression_problems``) re-times a magic-set point query against
full materialization on the committed quick query row, and
(``violations_regression_problems``) one incremental
view check against one from-scratch constraint check on the committed HR
comparison row, and (``revision_regression_problems``) one view-backed
revision against one naive retract-until-consistent revision on the
committed HR revision row, with the same tolerance.  Comparing *ratios*
keeps the checks machine-independent; the 2x tolerance absorbs scheduler
noise.  By default the rows re-measured are the largest ones cheap enough
for every test run (committed semi-naive cell under ~2 s, committed
full-materialization / indexed cells under ~1 s).
"""

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.datalog.engine import STRATEGIES, DatalogEngine  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    point_query,
    same_generation_program,
    transitive_closure_program,
)

BENCH_PATH = ROOT / "BENCH_datalog.json"
#: measured speedup may be at most this factor below the committed one
REGRESSION_TOLERANCE = 2.0
#: default regression row: skip rows whose committed semi-naive cell is slower
QUICK_SECONDS_CAP = 2.0
#: query regression row: skip rows whose committed full cell is slower
QUERY_SECONDS_CAP = 1.0
#: the committed headline bf point-query speedup must stay at or above this
QUERY_SPEEDUP_TARGET = 5.0
#: the committed incremental-vs-scratch constraint-checking speedup must
#: stay at or above this on the HR comparison row
VIOLATION_SPEEDUP_TARGET = 5.0
#: violations regression row: skip when the committed scratch check mean is
#: slower (the from-scratch checker is super-quadratic in the EDB, so the
#: re-measured row must stay tiny)
VIOLATIONS_SECONDS_CAP = 5.0
#: the committed revision-vs-naive speedup must stay at or above this on
#: the HR revision comparison row
REVISION_SPEEDUP_TARGET = 5.0
#: revision regression row: skip when the committed naive revision mean is
#: slower (each naive planning probe is a from-scratch check)
REVISION_SECONDS_CAP = 5.0
#: the estimated share of an untraced fixpoint spent in no-op
#: instrumentation points must stay at or below this
NOOP_OVERHEAD_CAP_PCT = 5.0
#: a one-fact apply on a 10x larger EDB may cost at most this many times
#: the apply on the smaller one (delta cost is flat in the database size)
FLATNESS_RATIO_CAP = 2.0
#: every recorded ``seconds`` must be the best of at least this many runs
MIN_REPEATS = 3


def load_report(path=BENCH_PATH):
    """Load the committed benchmark report."""
    return json.loads(pathlib.Path(path).read_text())


def structure_problems(report):
    """Return a list of staleness problems (empty when the file is fresh)."""
    problems = []
    repeats = report.get("repeats", 1)
    if repeats < MIN_REPEATS:
        problems.append(
            f"report was timed with repeats={repeats}; every cell must be "
            f"best-of-{MIN_REPEATS} or better — re-run benchmarks/run_bench.py"
        )
    rows = report.get("rows", [])
    if not rows:
        problems.append("no benchmark rows")
    for row in rows:
        strategies = row.get("strategies", {})
        missing = [s for s in STRATEGIES if s not in strategies]
        if missing:
            problems.append(
                f"row {row.get('workload')} {row.get('params')} lacks "
                f"strategies: {', '.join(missing)} — re-run benchmarks/run_bench.py"
            )
        if not row.get("models_identical", False):
            problems.append(
                f"row {row.get('workload')} {row.get('params')} did not verify "
                "model agreement"
            )
    if "headline" not in report:
        problems.append("missing indexed-vs-semi-naive headline")
    incremental = report.get("incremental")
    if incremental is None:
        problems.append(
            "missing incremental view-maintenance section — "
            "re-run benchmarks/run_bench.py"
        )
    else:
        if not incremental.get("models_identical", False):
            problems.append("incremental section did not verify model agreement")
        speedup = incremental.get("speedup_incremental_vs_recompute")
        if speedup is None or speedup < 10.0:
            problems.append(
                f"incremental apply speedup {speedup} is below the 10x target"
            )
        ratio = incremental.get("flatness", {}).get("ratio_large_vs_small")
        if ratio is None or ratio > FLATNESS_RATIO_CAP:
            problems.append(
                f"incremental one-fact apply is not flat: 10x the EDB costs "
                f"{ratio}x (cap {FLATNESS_RATIO_CAP}x) — re-run benchmarks/run_bench.py"
            )
    query_rows = report.get("query")
    if not query_rows:
        problems.append(
            "missing magic-set query section — re-run benchmarks/run_bench.py"
        )
    else:
        for row in query_rows:
            if not row.get("answers_match", False):
                problems.append(
                    f"query row {row.get('params')} did not verify magic-vs-full "
                    "answer agreement"
                )
            if not row.get("patterns"):
                problems.append(f"query row {row.get('params')} has no binding patterns")
        largest = max(query_rows, key=lambda r: r.get("facts", 0))
        headline = (largest.get("patterns") or {}).get("bf") or {}
        speedup = headline.get("speedup_magic_vs_full")
        if speedup is None or speedup < QUERY_SPEEDUP_TARGET:
            problems.append(
                f"magic point-query speedup {speedup} is below the "
                f"{QUERY_SPEEDUP_TARGET}x target on the largest query row"
            )
    violations = report.get("violations")
    if violations is None:
        problems.append(
            "missing violation-view constraint-checking section — "
            "re-run benchmarks/run_bench.py"
        )
    else:
        comparison = violations.get("comparison")
        if not comparison:
            problems.append("violations section has no comparison row")
        else:
            if not comparison.get("verdicts_identical", False):
                problems.append(
                    "violations comparison row did not verify verdict/witness "
                    "agreement between the view and the from-scratch checker"
                )
            speedup = comparison.get("speedup_incremental_vs_scratch")
            if speedup is None or speedup < VIOLATION_SPEEDUP_TARGET:
                problems.append(
                    f"incremental violation-check speedup {speedup} is below "
                    f"the {VIOLATION_SPEEDUP_TARGET}x target on the HR "
                    "comparison row"
                )
            if not comparison.get("compiled_constraints"):
                problems.append(
                    "violations comparison row compiled no constraints — the "
                    "view answered nothing incrementally"
                )
        scale_rows = violations.get("scale") or []
        if not scale_rows:
            problems.append(
                "violations section has no view-only scale rows — the view "
                "must be exercised at sizes the from-scratch checker cannot "
                "reach"
            )
        for row in scale_rows:
            if not row.get("satisfied", False):
                problems.append(
                    f"violations scale row {row.get('params')} ended with "
                    "violations on the always-satisfiable HR stream"
                )
            for field in ("build_seconds", "check_mean_seconds", "commit_mean_seconds"):
                if row.get(field) is None:
                    problems.append(
                        f"violations scale row {row.get('params')} lacks {field}"
                    )
    revision = report.get("revision")
    if revision is None:
        problems.append(
            "missing belief-revision section — re-run benchmarks/run_bench.py"
        )
    else:
        comparison = revision.get("comparison")
        if not comparison:
            problems.append("revision section has no comparison row")
        else:
            if not comparison.get("results_identical", False):
                problems.append(
                    "revision comparison row did not verify result agreement "
                    "between the operator and the naive baseline"
                )
            speedup = comparison.get("speedup_revision_vs_naive")
            if speedup is None or speedup < REVISION_SPEEDUP_TARGET:
                problems.append(
                    f"belief-revision speedup {speedup} is below the "
                    f"{REVISION_SPEEDUP_TARGET}x target on the HR revision "
                    "comparison row"
                )
        scale_rows = revision.get("scale") or []
        if not scale_rows:
            problems.append(
                "revision section has no operator-only scale rows — the "
                "operator must be exercised at sizes the naive baseline "
                "cannot reach"
            )
        for row in scale_rows:
            if not row.get("retractions_as_expected", False):
                problems.append(
                    f"revision scale row {row.get('params')} retracted "
                    "something the stream did not expect"
                )
            for field in ("build_seconds", "revise_mean_seconds"):
                if row.get(field) is None:
                    problems.append(
                        f"revision scale row {row.get('params')} lacks {field}"
                    )
    observability = report.get("observability")
    if observability is None:
        problems.append(
            "missing observability (tracing-overhead) section — "
            "re-run benchmarks/run_bench.py"
        )
    else:
        if not observability.get("models_identical", False):
            problems.append(
                "observability section did not verify model agreement "
                "across the noop/traced/provenance cells"
            )
        for field in (
            "noop_seconds",
            "traced_seconds",
            "provenance_seconds",
            "traced_overhead_pct",
            "provenance_overhead_pct",
            "spans_recorded",
            "noop_span_cost_ns",
            "noop_overhead_pct",
        ):
            if observability.get(field) is None:
                problems.append(f"observability section lacks {field}")
        noop_overhead = observability.get("noop_overhead_pct")
        if noop_overhead is not None and noop_overhead > NOOP_OVERHEAD_CAP_PCT:
            problems.append(
                f"no-op tracing overhead {noop_overhead}% exceeds the "
                f"{NOOP_OVERHEAD_CAP_PCT}% cap — the default must stay free"
            )
        if not observability.get("spans_recorded"):
            problems.append(
                "observability section recorded no spans — the traced cell "
                "must exercise the instrumentation points"
            )
    analysis = report.get("analysis")
    if analysis is None:
        problems.append(
            "missing static-analysis section — re-run benchmarks/run_bench.py"
        )
    else:
        lint_rows = analysis.get("lint") or []
        if not lint_rows:
            problems.append("analysis section has no lint rows")
        for row in lint_rows:
            if row.get("analysis_seconds") is None:
                problems.append(
                    f"analysis lint row {row.get('workload')} "
                    f"{row.get('params')} lacks a timing"
                )
            if row.get("findings", 0) != 0:
                problems.append(
                    f"analysis lint row {row.get('workload')} "
                    f"{row.get('params')} has {row.get('findings')} findings — "
                    "the shipped generators must lint clean"
                )
        pruning = analysis.get("pruning")
        if not pruning:
            problems.append("analysis section has no pruning cell")
        else:
            if not pruning.get("models_identical", False):
                problems.append(
                    "analysis pruning cell did not verify model agreement "
                    "between check='off' and check='warn'"
                )
            if not pruning.get("dead_rules"):
                problems.append("analysis pruning cell seeded no dead rules")
            for field in ("seconds_unpruned", "seconds_pruned", "analysis_seconds"):
                if pruning.get(field) is None:
                    problems.append(f"analysis pruning cell lacks {field}")
    return problems


def regression_row(report, full=False):
    """Pick the committed transitive-closure row the regression check
    re-measures: the largest one (the headline row with ``full=True``,
    otherwise the largest whose semi-naive cell is quick enough to re-time
    on every test run)."""
    candidates = []
    for row in report.get("rows", []):
        if row.get("workload") != "transitive_closure":
            continue
        semi = (row.get("strategies") or {}).get("semi-naive")
        indexed = (row.get("strategies") or {}).get("indexed")
        if not semi or not indexed:
            continue
        if not full and semi["seconds"] > QUICK_SECONDS_CAP:
            continue
        candidates.append(row)
    if not candidates:
        return None
    return max(candidates, key=lambda r: r["facts"])


def regression_problems(report, full=False):
    """Re-measure indexed vs semi-naive on a committed row; return problems
    when the measured speedup regressed more than ``REGRESSION_TOLERANCE``x
    against the committed one."""
    row = regression_row(report, full=full)
    if row is None:
        return ["no committed transitive-closure row suitable for re-measurement"]
    committed = row["strategies"]["semi-naive"]["seconds"] / max(
        row["strategies"]["indexed"]["seconds"], 1e-9
    )
    timings = {}
    # The indexed cell is tiny (tens of ms), so a scheduler hiccup can skew
    # the ratio badly; best-of-3 keeps the check stable.  The semi-naive
    # cell is long enough that one run suffices.
    for strategy, repeats in (("semi-naive", 1), ("indexed", 3)):
        best = None
        for _ in range(repeats):
            program = transitive_closure_program(**row["params"])
            engine = DatalogEngine(program, strategy=strategy)
            start = time.perf_counter()
            engine.least_model()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None or elapsed < best else best
        timings[strategy] = best
    measured = timings["semi-naive"] / max(timings["indexed"], 1e-9)
    if measured < committed / REGRESSION_TOLERANCE:
        return [
            f"indexed evaluation regressed: measured speedup {measured:.1f}x vs "
            f"committed {committed:.1f}x on {row['facts']} TC facts "
            f"(tolerance {REGRESSION_TOLERANCE}x)"
        ]
    return []


def query_regression_row(report, full=False):
    """Pick the committed query row the regression check re-measures: the
    largest one (the headline row with ``full=True``, otherwise the largest
    whose committed full-materialization cell is quick enough to re-time on
    every test run) — it must carry a ``bf`` pattern cell."""
    candidates = []
    for row in report.get("query", []) or []:
        if not (row.get("patterns") or {}).get("bf"):
            continue
        if not full and row.get("full_seconds", 0.0) > QUERY_SECONDS_CAP:
            continue
        candidates.append(row)
    if not candidates:
        return None
    return max(candidates, key=lambda r: r.get("facts", 0))


def query_regression_problems(report, full=False):
    """Re-measure magic vs full on a committed query row; return problems
    when the measured speedup regressed more than ``REGRESSION_TOLERANCE``x
    against the committed one."""
    row = query_regression_row(report, full=full)
    if row is None:
        return ["no committed query row suitable for re-measurement"]
    cell = row["patterns"]["bf"]
    committed = row["full_seconds"] / max(cell["magic_seconds"], 1e-9)
    goal = point_query(same_generation_program(**row["params"]), "sg")
    # Magic cells are small (tens of ms), so best-of-3 keeps the ratio
    # stable against scheduler hiccups; the full cell is longer — one run.
    magic_best = None
    for _ in range(3):
        engine = DatalogEngine(same_generation_program(**row["params"]))
        start = time.perf_counter()
        engine.query(goal, mode="magic")
        elapsed = time.perf_counter() - start
        magic_best = elapsed if magic_best is None or elapsed < magic_best else magic_best
    engine = DatalogEngine(same_generation_program(**row["params"]))
    start = time.perf_counter()
    engine.query(goal, mode="full")
    full_seconds = time.perf_counter() - start
    measured = full_seconds / max(magic_best, 1e-9)
    if measured < committed / REGRESSION_TOLERANCE:
        return [
            f"magic-set queries regressed: measured speedup {measured:.1f}x vs "
            f"committed {committed:.1f}x on {row['facts']} same-generation facts "
            f"(tolerance {REGRESSION_TOLERANCE}x)"
        ]
    return []


def violations_regression_problems(report, full=False):
    """Re-measure one incremental-vs-scratch constraint check on the
    committed HR comparison row; return problems when the measured speedup
    regressed more than ``REGRESSION_TOLERANCE``x against the committed
    one.  The row is skipped (with a problem) only when the committed
    scratch mean exceeds ``VIOLATIONS_SECONDS_CAP`` — the from-scratch
    checker is super-quadratic in the EDB, so only a tiny row is cheap
    enough to re-time on every test run (``full`` re-times it regardless)."""
    comparison = (report.get("violations") or {}).get("comparison")
    if not comparison:
        return ["no committed violations comparison row suitable for re-measurement"]
    scratch_committed = comparison["scratch_check_mean_seconds"]
    if not full and scratch_committed > VIOLATIONS_SECONDS_CAP:
        return [
            f"committed violations comparison row is too slow to re-measure "
            f"(scratch mean {scratch_committed}s > {VIOLATIONS_SECONDS_CAP}s cap)"
        ]
    committed = scratch_committed / max(
        comparison["incremental_check_mean_seconds"], 1e-9
    )
    from repro.db.database import EpistemicDatabase
    from repro.workloads.constraints import (
        constraint_update_stream,
        hr_constraints,
        hr_facts,
    )

    params = comparison["params"]
    database = EpistemicDatabase(
        hr_facts(employees=params["employees"]),
        constraints=hr_constraints(),
        constraint_checking="incremental",
    )
    view = database.violation_view()
    insertions, deletions = next(
        iter(constraint_update_stream(entities=params["employees"], batches=1,
                                      churn=params["churn"]))
    )
    # The incremental check is tiny (~1 ms), so best-of-3 keeps the ratio
    # stable; the scratch check is seconds — one run suffices.
    incremental_best = None
    for _ in range(3):
        start = time.perf_counter()
        view.preview_report(insertions, deletions)
        elapsed = time.perf_counter() - start
        if incremental_best is None or elapsed < incremental_best:
            incremental_best = elapsed
    start = time.perf_counter()
    database._checker.check_update(
        database.sentences(), added=insertions, removed=deletions,
        constraints=database.constraints(),
    )
    scratch_seconds = time.perf_counter() - start
    measured = scratch_seconds / max(incremental_best, 1e-9)
    if measured < committed / REGRESSION_TOLERANCE:
        return [
            f"incremental constraint checking regressed: measured speedup "
            f"{measured:.0f}x vs committed {committed:.0f}x on "
            f"{comparison['facts']} HR facts (tolerance {REGRESSION_TOLERANCE}x)"
        ]
    return []


def revision_regression_problems(report, full=False):
    """Re-measure one view-backed revision against one naive
    retract-until-consistent revision on the committed HR revision row;
    return problems when the measured speedup regressed more than
    ``REGRESSION_TOLERANCE``x against the committed one.  The row is
    skipped (with a problem) only when the committed naive mean exceeds
    ``REVISION_SECONDS_CAP`` — each naive planning probe is a from-scratch
    constraint check, so only a tiny row is cheap enough to re-time on
    every test run (``full`` re-times it regardless)."""
    comparison = (report.get("revision") or {}).get("comparison")
    if not comparison:
        return ["no committed revision comparison row suitable for re-measurement"]
    naive_committed = comparison["naive_mean_seconds"]
    if not full and naive_committed > REVISION_SECONDS_CAP:
        return [
            f"committed revision comparison row is too slow to re-measure "
            f"(naive mean {naive_committed}s > {REVISION_SECONDS_CAP}s cap)"
        ]
    committed = naive_committed / max(comparison["operator_mean_seconds"], 1e-9)
    from repro.db.database import EpistemicDatabase
    from repro.revision import naive_revise
    from repro.workloads.constraints import (
        hr_constraints,
        hr_facts,
        iterated_revision_stream,
    )

    params = comparison["params"]
    facts = hr_facts(employees=params["employees"])
    database = EpistemicDatabase(
        facts, constraints=hr_constraints(), constraint_checking="incremental"
    )
    database.violation_view()
    revisor = database.revision()
    # The operator cell is tiny (~1 ms), so best-of-3 keeps the ratio
    # stable — over three *distinct* conflicting steps, because re-revising
    # the same sentence is a vacuous no-op and would flatter the operator.
    # Each flip is the same amount of work: one conflict, one retraction.
    steps = list(
        iterated_revision_stream(
            entities=params["employees"], steps=3, conflict_ratio=1.0
        )
    )
    operator_best = None
    for sentence, _ in steps:
        start = time.perf_counter()
        revisor.revise(sentence)
        elapsed = time.perf_counter() - start
        if operator_best is None or elapsed < operator_best:
            operator_best = elapsed
    # The naive side's probes are from-scratch checks (seconds each) — one
    # run on the first step against the pristine fact list suffices.
    start = time.perf_counter()
    naive_revise(facts, database.constraints(), steps[0][0])
    naive_seconds = time.perf_counter() - start
    measured = naive_seconds / max(operator_best, 1e-9)
    if measured < committed / REGRESSION_TOLERANCE:
        return [
            f"belief revision regressed: measured speedup {measured:.0f}x vs "
            f"committed {committed:.0f}x on {comparison['facts']} HR facts "
            f"(tolerance {REGRESSION_TOLERANCE}x)"
        ]
    return []


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
        problems += query_regression_problems(report, full=args.full)
        problems += violations_regression_problems(report, full=args.full)
        problems += revision_regression_problems(report, full=args.full)
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        print("BENCH_datalog.json is fresh and the committed headlines hold")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
