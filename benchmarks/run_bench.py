#!/usr/bin/env python
"""Run the Datalog evaluation benchmark matrix and emit ``BENCH_datalog.json``.

Times every evaluation strategy (naive, semi-naive, indexed) across a grid of
workload sizes — transitive closure, same-generation and join-heavy chains —
verifying along the way that every strategy computes the identical least
model.  Then, one section each:

* ``incremental`` — a tell/retract stream through
  ``MaterializedModel.apply`` against full recomputation, and one-fact
  applies at two EDB sizes 10x apart (the ``flatness`` cell: delta cost must
  not grow with the database);
* ``query`` — goal-directed (magic-set) point queries against full
  materialization at several binding patterns;
* ``analysis`` — the static analyzer's cost, and dead-rule pruning;
* ``violations`` — commit-time constraint checking through the maintained
  violation view against the from-scratch ``IntegrityChecker`` on 1%-churn
  HR streams, verdicts and witnesses verified per batch, plus view-only rows
  at sizes the from-scratch baseline cannot reach;
* ``revision`` — ``BeliefRevisor`` (O(delta) view peeks) against the naive
  retract-until-consistent baseline on deliberately conflicting streams,
  results verified per step, plus operator-only scale rows;
* ``observability`` — the fixpoint with no-op, recording and provenance
  tracing, timed in alternating rounds (medians with quartiles).

Timed cells are best-of-3 (``check_bench.best_of``, the timer the
regression re-measures share), except the observability cell; peak memory is measured with
tracemalloc in a separate pass (``peak_kb``).  The JSON it writes is the
perf trajectory future PRs diff against; ``benchmarks/check_bench.py`` holds
the gates it must pass.

Usage::

    python benchmarks/run_bench.py            # full sizes -> BENCH_datalog.json
    python benchmarks/run_bench.py --quick    # small sizes -> BENCH_datalog_quick.json
    python benchmarks/run_bench.py --check    # exit non-zero unless the report
                                              # passes every check_bench.py gate
    python benchmarks/run_bench.py --output PATH

The naive strategy is only run on workloads up to ``NAIVE_CAP`` facts (its
nested-loop joins are the quadratic-and-worse baseline the ablation exists to
show); skipped cells are recorded as ``null``.
"""

import argparse
import gc
import json
import pathlib
import platform
import statistics
import sys
import time
import tracemalloc
from functools import partial

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from check_bench import REPEATS, best_of, evaluate, structure_problems  # noqa: E402

from repro.datalog.analyze import analyze_program  # noqa: E402
from repro.datalog.engine import STRATEGIES, DatalogEngine  # noqa: E402
from repro.datalog.incremental import MaterializedModel  # noqa: E402
from repro.logic.terms import Parameter, Variable  # noqa: E402
from repro.logic.syntax import Atom  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    join_chain_program,
    point_query,
    same_generation_program,
    transitive_closure_program,
    update_stream,
)

#: skip the naive strategy above this many facts
NAIVE_CAP = 600


def peak_kb(run):
    """Peak traced memory (KB) over one ``run()``.

    Runs as its *own* pass, never inside the timed repeats: tracemalloc
    instruments every allocation and slows evaluation several-fold, so a
    shared pass would poison the ``seconds`` numbers.  What *run* builds is
    charged; what the caller built before is not.
    """
    gc.collect()
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return round(peak / 1024, 1)


def run_matrix(matrix):
    rows = []
    for workload, builder, parameter_grid in matrix:
        for params in parameter_grid:
            facts = len(builder(**params).facts)
            cell = {
                "workload": workload,
                "params": params,
                "facts": facts,
                "strategies": {},
            }
            models = {}
            for strategy in STRATEGIES:
                if strategy == "naive" and facts > NAIVE_CAP:
                    cell["strategies"][strategy] = None
                    continue

                def prepare():
                    engine = DatalogEngine(builder(**params), strategy=strategy)
                    return lambda: (engine.least_model(), engine.statistics)

                seconds, (model, statistics) = best_of(prepare)
                models[strategy] = model
                program = builder(**params)  # untraced: the peak charges the engine
                cell["strategies"][strategy] = {
                    "seconds": round(seconds, 6),
                    "peak_kb": peak_kb(
                        lambda: DatalogEngine(program, strategy=strategy).least_model()
                    ),
                    "model_size": len(model),
                    "iterations": statistics.iterations,
                    "rule_applications": statistics.rule_applications,
                    "facts_derived": statistics.facts_derived,
                }
            cell["models_identical"] = len(set(models.values())) == 1
            if not cell["models_identical"]:
                raise SystemExit(
                    f"strategies disagree on {workload} {params}: "
                    + ", ".join(f"{s}={len(m)}" for s, m in models.items())
                )
            semi = cell["strategies"].get("semi-naive")
            indexed = cell["strategies"].get("indexed")
            if semi and indexed and indexed["seconds"] > 0:
                cell["speedup_indexed_vs_semi_naive"] = round(
                    semi["seconds"] / indexed["seconds"], 2
                )
            rows.append(cell)
            printable = {
                s: (f"{v['seconds'] * 1000:.1f} ms" if v else "-")
                for s, v in cell["strategies"].items()
            }
            print(f"{workload} {params} ({facts} facts): {printable}")
    return rows


def run_incremental(chains=400, length=5, batches=20, churn=0.01, seed=0):
    """Replay a tell/retract stream against a materialized transitive-closure
    model, timing ``MaterializedModel.apply`` against a full (indexed)
    recomputation of the same state after every batch.

    The per-batch recompute runs on the already-mutated program with a fresh
    engine — exactly what a non-incremental caller would have to do — and
    every batch's maintained model is checked fact-for-fact against it.
    """
    program = transitive_closure_program(chains=chains, length=length)
    facts = len(program.facts)
    start = time.perf_counter()
    materialized = MaterializedModel(program)
    build_seconds = time.perf_counter() - start
    batch_stream = list(update_stream(program, batches=batches, churn=churn, seed=seed))
    apply_seconds = []
    recompute_seconds = []
    identical = True
    for insertions, deletions in batch_stream:
        start = time.perf_counter()
        materialized.apply(insertions, deletions)
        apply_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        recomputed = DatalogEngine(program).least_model()
        recompute_seconds.append(time.perf_counter() - start)
        identical = identical and materialized.model() == recomputed
    apply_mean = sum(apply_seconds) / len(apply_seconds)
    recompute_mean = sum(recompute_seconds) / len(recompute_seconds)
    # Peak maintenance memory: a fresh model replays the same stream.  The
    # model is built before the stream is listed, exactly as in the timed
    # path — ``update_stream`` mutates the program as it yields.
    replay_program = transitive_closure_program(chains=chains, length=length)
    replay = MaterializedModel(replay_program)
    replay_stream = list(
        update_stream(replay_program, batches=batches, churn=churn, seed=seed)
    )

    def replay_all():
        for insertions, deletions in replay_stream:
            replay.apply(insertions, deletions)

    cell = {
        "workload": "transitive_closure",
        "params": dict(chains=chains, length=length),
        "facts": facts,
        "batches": len(batch_stream),
        "churn": churn,
        "build_seconds": round(build_seconds, 6),
        "apply_mean_seconds": round(apply_mean, 6),
        "apply_total_seconds": round(sum(apply_seconds), 6),
        "apply_peak_kb": peak_kb(replay_all),
        "recompute_mean_seconds": round(recompute_mean, 6),
        "speedup_incremental_vs_recompute": round(recompute_mean / apply_mean, 2)
        if apply_mean > 0
        else None,
        "models_identical": identical,
    }
    if not identical:
        raise SystemExit(
            f"incremental maintenance disagrees with recomputation on "
            f"{cell['workload']} {cell['params']}"
        )
    print(
        f"incremental {cell['params']} ({facts} facts, {len(batch_stream)} batches of "
        f"{max(1, int(facts * churn))}): apply {apply_mean * 1000:.2f} ms vs recompute "
        f"{recompute_mean * 1000:.1f} ms -> {cell['speedup_incremental_vs_recompute']}x"
    )
    return cell


def run_incremental_flatness(chains=1000, length=5, scale=10, applies=200, repeats=5):
    """Time one-fact applies on transitive-closure models whose EDB differs
    by a factor of *scale* (``chains * length`` and ``scale`` times as many
    edges): delta cost means the per-apply time stays flat as the database
    grows.

    Each apply deletes or re-inserts the middle edge of one chain (the same
    chains at both sizes), so every batch does the same DRed work; the cell
    records the best-of-*repeats* mean over *applies* such batches per size
    and their ratio, and checks each model against a fresh engine.  As in
    ``timeit``, the garbage collector is paused while timing: a full
    collection walks every live object, so it would charge the size of the
    heap, not of the update, to whichever apply it interrupts.
    """
    sizes = []
    for factor in (1, scale):
        program = transitive_closure_program(chains=chains * factor, length=length)
        materialized = MaterializedModel(program)
        middle = length // 2
        edges = [
            Atom("edge", (Parameter(f"c{chain}_n{middle}"),
                          Parameter(f"c{chain}_n{middle + 1}")))
            for chain in range(applies // 2)
        ]
        best = None
        for _ in range(repeats):
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                for edge in edges:
                    materialized.apply(deletions=[edge])
                    materialized.apply(insertions=[edge])
                elapsed = (time.perf_counter() - start) / (2 * len(edges))
            finally:
                gc.enable()
            best = elapsed if best is None else min(best, elapsed)
        identical = materialized.model() == DatalogEngine(program).least_model()
        if not identical:
            raise SystemExit(
                f"incremental maintenance disagrees with recomputation on "
                f"transitive_closure chains={chains * factor}"
            )
        sizes.append({
            "edb_facts": len(program.facts),
            "model_facts": len(materialized),
            "apply_mean_seconds": round(best, 7),
        })
        del program, materialized
        gc.collect()
    small, large = sizes
    cell = {
        "workload": "transitive_closure",
        "length": length,
        "applies": 2 * (applies // 2),
        "small": small,
        "large": large,
        "ratio_large_vs_small": round(
            large["apply_mean_seconds"] / small["apply_mean_seconds"], 3
        ),
    }
    print(
        f"incremental flatness: one-fact apply {small['apply_mean_seconds'] * 1000:.3f} ms "
        f"at {small['edb_facts']} edges vs {large['apply_mean_seconds'] * 1000:.3f} ms "
        f"at {large['edb_facts']} edges -> {cell['ratio_large_vs_small']}x"
    )
    return cell


def run_query_bench(grid):
    """Time goal-directed (magic-set) evaluation against full
    materialization on same-generation point queries.

    Per workload size, each binding pattern (``bf``: "which z shares a
    generation with this leaf?", ``bb``: a ground membership check, ``ff``:
    all pairs) gets its own fresh-engine magic measurement *first* — while
    the heap is small; materializing the headline full model leaves
    millions of live atoms resident, and Python's cyclic GC then taxes
    every subsequent allocation-heavy measurement by an order of magnitude,
    which would be charged to magic unfairly.  The full-materialization
    cost is then measured once — a fresh engine answering the ``bf`` point
    goal with ``mode="full"``; the fixpoint dominates and is identical for
    every binding pattern — and every pattern's answers are verified
    against that full model before any timing is trusted.
    """
    rows = []
    for params in grid:
        program = same_generation_program(**params)
        facts = len(program.facts)
        bf_goal = point_query(program, "sg")
        leaf = bf_goal.args[0]
        goals = {
            "bf": bf_goal,
            "bb": Atom("sg", (leaf, leaf)),
            "ff": Atom("sg", (Variable("y"), Variable("z"))),
        }
        row = {
            "workload": "same_generation",
            "params": params,
            "facts": facts,
            "goal": str(bf_goal),
            "patterns": {},
            "answers_match": True,
        }

        def fresh_query(goal, mode):
            engine = DatalogEngine(same_generation_program(**params))
            return partial(engine.query, goal, mode=mode)

        magic_results = {}
        for pattern, goal in goals.items():
            if pattern == "ff" and facts > 1500:
                # ff magic evaluates the whole relation — measured on the
                # quick row; at headline scale it would double the bench
                # runtime to show a ratio of ~1.
                row["patterns"][pattern] = None
                continue
            magic_seconds, magic_result = best_of(partial(fresh_query, goal, "magic"))
            magic_results[pattern] = magic_result
            row["patterns"][pattern] = {
                "goal": str(goal),
                "answers": len(magic_result),
                "magic_seconds": round(magic_seconds, 6),
                "magic_peak_kb": peak_kb(lambda: fresh_query(goal, "magic")()),
                "magic_facts_derived": magic_result.facts_derived,
                "magic_join_passes": magic_result.join_passes,
            }
        # The full-materialization cell is long enough (the fixpoint
        # dominates) that a single timed run suffices.
        full_engine = DatalogEngine(same_generation_program(**params))
        full_seconds, full_result = best_of(
            lambda: partial(full_engine.query, bf_goal, mode="full"), repeats=1
        )
        row["full_seconds"] = round(full_seconds, 6)
        row["full_peak_kb"] = peak_kb(lambda: fresh_query(bf_goal, "full")())
        row["full_facts_derived"] = full_result.facts_derived
        canonical = lambda result: sorted(
            sorted((v.name, p.name) for v, p in b.items()) for b in result
        )
        for pattern, goal in goals.items():
            cell = row["patterns"].get(pattern)
            if cell is None:
                continue
            reference = full_engine.query(goal, mode="full")  # cached model
            if canonical(magic_results[pattern]) != canonical(reference):
                row["answers_match"] = False
            cell["speedup_magic_vs_full"] = (
                round(full_seconds / cell["magic_seconds"], 2)
                if cell["magic_seconds"] > 0
                else None
            )
        if not row["answers_match"]:
            raise SystemExit(
                f"magic-set answers disagree with full materialization on "
                f"{row['workload']} {params}"
            )
        rows.append(row)
        rendered = {
            pattern: (f"{cell['speedup_magic_vs_full']}x" if cell else "-")
            for pattern, cell in row["patterns"].items()
        }
        print(
            f"query {params} ({facts} facts): full {full_seconds * 1000:.0f} ms, "
            f"magic speedups {rendered}"
        )
    return rows


def run_analysis_bench(lint_grid, dead_rules, pruning_params):
    """Time the static analyzer (`repro.datalog.analyze`) two ways.

    *lint*: ``analyze_program`` wall time on the largest generated
    workloads — the full pass (safety, signatures, condensation,
    duplicates/subsumption, dead code), which must come back with zero
    findings on the shipped generators.  Analysis is a front-end pass over
    rules and fact counts, so its cost is independent of the model the
    fixpoint then derives.

    *pruning*: the same transitive-closure program with ``dead_rules``
    seeded never-fire rules (each reads an empty ``ghost_i`` relation),
    evaluated under ``check="off"`` (unpruned, no analysis) and under the
    default ``check="warn"`` (analysis runs and the dead rules are pruned
    before stratification).  The models are verified identical — pruning
    is semantics-preserving by construction — and the recorded pruned
    time *includes* the analysis pass, so the ratio is the honest cost of
    leaving the default on.
    """
    section = {"lint": [], "pruning": None}
    for workload, builder, params in lint_grid:
        program = builder(**params)
        best, analysis = best_of(lambda: partial(analyze_program, program))
        if analysis.diagnostics:
            raise SystemExit(
                f"analysis found {len(analysis.diagnostics)} issue(s) in the "
                f"{workload} generator output: {analysis.report()}"
            )
        row = {
            "workload": workload,
            "params": params,
            "facts": len(program.facts),
            "rules": len(program.rules),
            "findings": len(analysis.diagnostics),
            "analysis_seconds": round(best, 6),
        }
        section["lint"].append(row)
        print(
            f"analysis lint {workload} {params} ({row['facts']} facts, "
            f"{row['rules']} rules): {best * 1000:.1f} ms, "
            f"{row['findings']} findings"
        )

    def seeded_program():
        program = transitive_closure_program(**pruning_params)
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        for i in range(dead_rules):
            program.rule(
                Atom("path", (x, z)),
                Atom(f"ghost_{i}", (x, y)), Atom("path", (y, z)),
            )
        return program

    base_rules = len(transitive_closure_program(**pruning_params).rules)
    timings = {}
    models = {}
    for check in ("off", "warn"):
        timings[check], models[check] = best_of(
            lambda: DatalogEngine(seeded_program(), check=check).least_model
        )
    if models["off"] != models["warn"]:
        raise SystemExit(
            "analysis pruning changed the least model: "
            f"off={len(models['off'])} warn={len(models['warn'])} atoms"
        )
    analysis_best, _ = best_of(lambda: partial(analyze_program, seeded_program()))
    pruning = {
        "workload": "transitive_closure",
        "params": pruning_params,
        "facts": len(seeded_program().facts),
        "base_rules": base_rules,
        "dead_rules": dead_rules,
        "seconds_unpruned": round(timings["off"], 6),
        "seconds_pruned": round(timings["warn"], 6),
        "analysis_seconds": round(analysis_best, 6),
        "speedup_pruned_vs_unpruned": round(
            timings["off"] / max(timings["warn"], 1e-9), 2
        ),
        "models_identical": True,
    }
    section["pruning"] = pruning
    print(
        f"analysis pruning {pruning_params} ({pruning['facts']} facts, "
        f"{dead_rules} dead rules seeded): unpruned "
        f"{timings['off'] * 1000:.1f} ms, pruned {timings['warn'] * 1000:.1f} ms "
        f"(analysis itself {analysis_best * 1000:.1f} ms) -> "
        f"{pruning['speedup_pruned_vs_unpruned']}x"
    )
    return section


def run_violations_bench(comparison, scale_grid):
    """Time commit-time constraint checking through the maintained
    :class:`~repro.constraints.views.ViolationView` against the from-scratch
    :class:`~repro.constraints.checker.IntegrityChecker` on the scaled HR
    workload.

    *comparison*: per update batch of the 1%-churn stream, the same check is
    run both ways — ``view.preview_report`` (the O(delta) peek commits use)
    and ``checker.check_update`` without a view (relevance filter over a
    from-scratch re-check) — verifying the verdicts agree before any timing
    is trusted; a violating probe (an employee told without a social
    security number) additionally verifies both sides reject with identical
    witnesses.  The batch is then committed so the stream advances and the
    view is maintained.

    *scale*: view-only rows at the sizes the from-scratch baseline cannot
    reach, recording the one-time view build, the per-batch O(delta) check
    and the full commit (check + apply + view maintenance).
    """
    from repro.db.database import EpistemicDatabase
    from repro.logic.builders import atom, param
    from repro.workloads.constraints import (
        constraint_update_stream,
        hr_constraints,
        hr_facts,
    )

    def build_database(employees):
        facts = hr_facts(employees=employees)
        database = EpistemicDatabase(facts, constraints=hr_constraints())
        start = time.perf_counter()
        view = database.violation_view()
        build_seconds = time.perf_counter() - start
        return database, view, len(facts), build_seconds

    def commit_batch(database, insertions, deletions):
        transaction = database.transaction()
        for sentence in insertions:
            transaction.tell(sentence)
        for sentence in deletions:
            transaction.retract(sentence)
        start = time.perf_counter()
        transaction.commit()
        return time.perf_counter() - start

    def witness_sets(report):
        return sorted(
            (str(violation.constraint), sorted(violation.witnesses))
            for violation in report.violations
        )

    params = comparison
    database, view, facts, build_seconds = build_database(params["employees"])
    stream = list(
        constraint_update_stream(
            entities=params["employees"],
            batches=params["batches"],
            churn=params["churn"],
        )
    )
    incremental_seconds = []
    scratch_seconds = []
    verdicts_identical = True
    for insertions, deletions in stream:
        gc.collect()
        start = time.perf_counter()
        incremental_report = view.preview_report(insertions, deletions)
        incremental_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        scratch_report, _ = database._checker.check_update(
            database.sentences(),
            added=insertions,
            removed=deletions,
            constraints=database.constraints(),
        )
        scratch_seconds.append(time.perf_counter() - start)
        if incremental_report.satisfied != scratch_report.satisfied:
            verdicts_identical = False
        if witness_sets(incremental_report) != witness_sets(scratch_report):
            verdicts_identical = False
        commit_batch(database, insertions, deletions)
    # A violating probe — an employee with no known ss number — must be
    # rejected by both sides with identical witnesses (untimed: correctness
    # evidence, not a perf cell).
    probe = [atom("emp", param("Eprobe"))]
    probe_incremental = view.preview_report(probe, [])
    probe_scratch, _ = database._checker.check_update(
        database.sentences(), added=probe, removed=[],
        constraints=database.constraints(),
    )
    if probe_incremental.satisfied or probe_scratch.satisfied:
        verdicts_identical = False
    if witness_sets(probe_incremental) != witness_sets(probe_scratch):
        verdicts_identical = False
    if not verdicts_identical:
        raise SystemExit(
            f"violation view disagrees with the from-scratch checker on the "
            f"HR comparison row {params}"
        )
    incremental_mean = sum(incremental_seconds) / len(incremental_seconds)
    scratch_mean = sum(scratch_seconds) / len(scratch_seconds)
    section = {
        "comparison": {
            "workload": "hr",
            "params": params,
            "facts": facts,
            "constraints": len(database.constraints()),
            "compiled_constraints": len(view.compiled.compiled),
            "fallback_constraints": len(view.compiled.fallbacks),
            "batches": len(stream),
            "build_seconds": round(build_seconds, 6),
            "incremental_check_mean_seconds": round(incremental_mean, 6),
            "scratch_check_mean_seconds": round(scratch_mean, 6),
            "speedup_incremental_vs_scratch": round(
                scratch_mean / max(incremental_mean, 1e-9), 2
            ),
            "verdicts_identical": verdicts_identical,
        },
        "scale": [],
    }
    cell = section["comparison"]
    print(
        f"violations comparison {params} ({facts} facts): incremental check "
        f"{incremental_mean * 1000:.2f} ms vs scratch {scratch_mean * 1000:.0f} ms "
        f"-> {cell['speedup_incremental_vs_scratch']}x, verdicts identical"
    )

    for params in scale_grid:
        database, view, facts, build_seconds = build_database(params["employees"])
        stream = list(
            constraint_update_stream(
                entities=params["employees"],
                batches=params["batches"],
                churn=params["churn"],
            )
        )
        check_seconds = []
        commit_seconds = []
        batch_facts = 0
        for insertions, deletions in stream:
            batch_facts = max(batch_facts, len(insertions) + len(deletions))
            gc.collect()
            start = time.perf_counter()
            view.preview_report(insertions, deletions)
            check_seconds.append(time.perf_counter() - start)
            commit_seconds.append(commit_batch(database, insertions, deletions))
        satisfied = view.check(with_witnesses=False).satisfied
        row = {
            "workload": "hr",
            "params": params,
            "facts": facts,
            "batch_facts": batch_facts,
            "batches": len(stream),
            "build_seconds": round(build_seconds, 6),
            "check_mean_seconds": round(sum(check_seconds) / len(check_seconds), 6),
            "commit_mean_seconds": round(sum(commit_seconds) / len(commit_seconds), 6),
            "satisfied": satisfied,
        }
        if not satisfied:
            raise SystemExit(
                f"violation view reports violations after replaying the "
                f"always-satisfiable HR stream at {params}"
            )
        section["scale"].append(row)
        print(
            f"violations scale {params} ({facts} facts, batches of "
            f"{batch_facts}): build {build_seconds:.1f} s, check "
            f"{row['check_mean_seconds'] * 1000:.0f} ms, commit "
            f"{row['commit_mean_seconds'] * 1000:.0f} ms"
        )
    return section


def run_revision_bench(comparison, scale_grid):
    """Time belief revision through :class:`~repro.revision.BeliefRevisor`
    (violation-view peeks, one transaction per operation) against the naive
    retract-until-consistent baseline (:func:`~repro.revision.naive_revise`,
    from-scratch recompute per planning probe) on the scaled HR workload.

    *comparison*: both stacks replay the same
    :func:`~repro.workloads.iterated_revision_stream` of deliberately
    conflicting tells; per step the operator's ``RevisionResult`` and the
    naive baseline's decomposition are verified identical — and identical to
    the stream's own ``expected_retractions`` — before any timing is
    trusted.  The planning logic is shared, so the ratio isolates exactly
    the cost of from-scratch consistency probes vs O(delta) view peeks.

    *scale*: operator-only rows at sizes where a single naive probe would
    take minutes, recording the one-time view build and the per-revision
    mean; every step's retractions are still checked against the stream's
    expectations.
    """
    from repro.db.database import EpistemicDatabase
    from repro.revision import naive_revise
    from repro.workloads.constraints import (
        hr_constraints,
        hr_facts,
        iterated_revision_stream,
    )

    def build_database(employees):
        facts = hr_facts(employees=employees)
        database = EpistemicDatabase(facts, constraints=hr_constraints())
        start = time.perf_counter()
        database.violation_view()
        build_seconds = time.perf_counter() - start
        return database, database.revision(), facts, build_seconds

    params = comparison
    database, revisor, facts, build_seconds = build_database(params["employees"])
    constraints = database.constraints()
    stream = list(
        iterated_revision_stream(
            entities=params["employees"],
            steps=params["steps"],
            conflict_ratio=params["conflict_ratio"],
        )
    )
    shadow = list(facts)
    operator_seconds = []
    naive_seconds = []
    results_identical = True
    for sentence, expected in stream:
        gc.collect()
        start = time.perf_counter()
        result = revisor.revise(sentence)
        operator_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        shadow, _, _, naive_retracted = naive_revise(shadow, constraints, sentence)
        naive_seconds.append(time.perf_counter() - start)
        if result.retracted != naive_retracted or result.retracted != expected:
            results_identical = False
        if database.sentences() != shadow:
            results_identical = False
    if not results_identical:
        raise SystemExit(
            f"belief revision disagrees with the naive baseline on the HR "
            f"comparison row {params}"
        )
    operator_mean = sum(operator_seconds) / len(operator_seconds)
    naive_mean = sum(naive_seconds) / len(naive_seconds)
    section = {
        "comparison": {
            "workload": "hr",
            "params": params,
            "facts": len(facts),
            "constraints": len(constraints),
            "steps": len(stream),
            "build_seconds": round(build_seconds, 6),
            "operator_mean_seconds": round(operator_mean, 6),
            "naive_mean_seconds": round(naive_mean, 6),
            "speedup_revision_vs_naive": round(
                naive_mean / max(operator_mean, 1e-9), 2
            ),
            "results_identical": results_identical,
        },
        "scale": [],
    }
    cell = section["comparison"]
    print(
        f"revision comparison {params} ({len(facts)} facts): operator "
        f"{operator_mean * 1000:.2f} ms vs naive {naive_mean * 1000:.0f} ms "
        f"-> {cell['speedup_revision_vs_naive']}x, results identical"
    )

    for params in scale_grid:
        database, revisor, facts, build_seconds = build_database(params["employees"])
        stream = list(
            iterated_revision_stream(
                entities=params["employees"],
                steps=params["steps"],
                conflict_ratio=params["conflict_ratio"],
            )
        )
        revise_seconds = []
        retracted_total = 0
        as_expected = True
        for sentence, expected in stream:
            gc.collect()
            start = time.perf_counter()
            result = revisor.revise(sentence)
            revise_seconds.append(time.perf_counter() - start)
            retracted_total += len(result.retracted)
            if result.retracted != expected:
                as_expected = False
        if not as_expected:
            raise SystemExit(
                f"belief revision retracted something unexpected on the HR "
                f"scale row {params}"
            )
        row = {
            "workload": "hr",
            "params": params,
            "facts": len(facts),
            "steps": len(stream),
            "build_seconds": round(build_seconds, 6),
            "revise_mean_seconds": round(
                sum(revise_seconds) / len(revise_seconds), 6
            ),
            "retracted_total": retracted_total,
            "retractions_as_expected": as_expected,
        }
        section["scale"].append(row)
        print(
            f"revision scale {params} ({len(facts)} facts): view build "
            f"{build_seconds:.1f} s, revise {row['revise_mean_seconds'] * 1000:.0f} ms "
            f"mean, {retracted_total} retractions over {len(stream)} steps"
        )
    return section


#: Rounds of the observability cell.  Each round times the no-op, traced
#: and provenance fixpoints back to back, so machine drift hits all three
#: alike; the report keeps the medians and their quartiles.
OBSERVABILITY_ROUNDS = 7


def run_observability_bench(params):
    """Time the indexed fixpoint on a transitive closure with observability
    off (the no-op tracer default), with a recording tracer, and with
    provenance recording — same workload, same strategy, models verified
    identical across the three cells.

    The three cells run alternately, :data:`OBSERVABILITY_ROUNDS` rounds
    of one each, on a fixpoint long enough (>= 0.3 s at the full size) for
    a few percent to be resolvable.  As in ``timeit``, the collector is
    paused while a cell runs: a full collection walks every live object,
    so it would charge the models the other cells left behind, not the
    recording, to whichever cell it interrupts.  Each ``*_seconds`` is the median over
    the rounds and ``*_seconds_quartiles`` its first and third quartile;
    ``traced_overhead_pct`` / ``provenance_overhead_pct`` are the medians
    of the per-round overheads against that round's no-op cell, with their
    quartiles next to them.  They record honestly what recording costs.
    The *guarded* number is ``noop_overhead_pct``: the estimated share of
    the untraced fixpoint spent in the no-op instrumentation points (spans
    the traced run recorded x the micro-timed per-call cost of
    ``NOOP_TRACER.span``).
    """
    from repro.obs.tracing import NOOP_TRACER, Tracer

    def prepare(name):
        options = {}
        if name == "traced":
            options["tracer"] = Tracer()
        elif name == "provenance":
            options["provenance"] = True
        engine = DatalogEngine(transitive_closure_program(**params), **options)
        return lambda: (engine.least_model(), engine)

    names = ("noop", "traced", "provenance")
    cells = {name: [] for name in names}
    models = {}
    for round_ in range(OBSERVABILITY_ROUNDS):
        # Each round starts with a different cell, and each cell runs with
        # its own previous model and the last engine freed, so no cell
        # inherits another's position or garbage.
        for name in names[round_ % 3:] + names[:round_ % 3]:
            models.pop(name, None)
            engine = None
            call = prepare(name)
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                models[name], engine = call()
                cells[name].append(time.perf_counter() - start)
            finally:
                gc.enable()
            if name == "traced":
                spans_recorded = len(engine.tracer.entries)
    if len(set(models.values())) != 1:
        raise SystemExit(
            "observability cells disagree on the model: "
            + ", ".join(f"{n}={len(m)}" for n, m in models.items())
        )

    # Micro-time the no-op span: one call per instrumentation point is the
    # whole cost tracing-off adds to a fixpoint.
    calls = 200_000
    span = NOOP_TRACER.span
    gc.collect()
    start = time.perf_counter()
    for _ in range(calls):
        with span("bench.noop", iteration=0):
            pass
    per_call_seconds = (time.perf_counter() - start) / calls

    def spread(values, digits):
        """``(median, [first quartile, third quartile])``, rounded."""
        first, median, third = statistics.quantiles(values, n=4, method="inclusive")
        return round(median, digits), [round(first, digits), round(third, digits)]

    section = {
        "workload": "transitive_closure",
        "params": params,
        "model_size": len(models["noop"]),
        "rounds": OBSERVABILITY_ROUNDS,
    }
    for name in names:
        section[f"{name}_seconds"], section[f"{name}_seconds_quartiles"] = spread(
            cells[name], 6
        )
    for name in ("traced", "provenance"):
        overheads = [
            (seconds - noop) / noop * 100
            for seconds, noop in zip(cells[name], cells["noop"])
        ]
        section[f"{name}_overhead_pct"], section[f"{name}_overhead_pct_quartiles"] = (
            spread(overheads, 1)
        )
    noop_seconds = section["noop_seconds"]
    section.update(
        spans_recorded=spans_recorded,
        noop_span_cost_ns=round(per_call_seconds * 1e9, 1),
        noop_overhead_pct=round(spans_recorded * per_call_seconds / noop_seconds * 100, 2),
        models_identical=True,
    )
    print(
        f"observability {params} ({section['model_size']} facts, median of "
        f"{OBSERVABILITY_ROUNDS} rounds): noop {noop_seconds * 1000:.1f} ms, "
        f"traced {section['traced_seconds'] * 1000:.1f} ms "
        f"({section['traced_overhead_pct']:+}%, quartiles "
        f"{section['traced_overhead_pct_quartiles']}), provenance "
        f"{section['provenance_seconds'] * 1000:.1f} ms "
        f"({section['provenance_overhead_pct']:+}%, quartiles "
        f"{section['provenance_overhead_pct_quartiles']}), no-op instrumentation "
        f"~{section['noop_overhead_pct']}% over {spans_recorded} span points"
    )
    return section


#: The sizes of every section.  ``violations`` and ``revision`` each get one
#: comparison row and view-only (operator-only) scale rows.  The comparison
#: rows are small on purpose: the from-scratch checker — and so each naive
#: revision probe — grounds the epistemic reduction over the whole EDB
#: (super-quadratic in practice: ~0.5 s at 85 HR facts, ~2 s at 135, ~18 s
#: at 310), so the head-to-head must run where scratch is still feasible;
#: the scale rows are the regime the view exists for (where one
#: from-scratch check would take hours).  Every revision comparison step is
#: a deliberate conflict (a gender flip), so both stacks must plan and
#: retract, not coast on the vacuity fast path.
FULL = {
    "matrix": [
        ("transitive_closure", transitive_closure_program,
         [dict(chains=50, length=5), dict(chains=100, length=5),
          dict(chains=200, length=5), dict(chains=400, length=5)]),
        ("same_generation", same_generation_program,
         [dict(depth=4, branching=2), dict(depth=5, branching=2),
          dict(depth=6, branching=2)]),
        ("join_chain", join_chain_program,
         [dict(relations=3, rows=100), dict(relations=3, rows=200),
          dict(relations=3, rows=400)]),
    ],
    # Large base, small absolute churn (20-fact batches): the regime
    # incremental maintenance exists for, and a base big enough for the
    # full recompute it is compared with to hurt.
    "incremental": dict(chains=1600, length=5, batches=20, churn=0.0025),
    "flatness": dict(chains=1000),
    # the first row is the one check_bench.py re-measures; the second is the
    # headline row
    "query": [dict(depth=5, branching=3), dict(depth=7, branching=3)],
    "analysis": dict(
        lint_grid=[
            ("transitive_closure", transitive_closure_program, dict(chains=400, length=5)),
            ("same_generation", same_generation_program, dict(depth=6, branching=2)),
        ],
        dead_rules=24,
        pruning_params=dict(chains=200, length=5),
    ),
    "violations": dict(
        comparison=dict(employees=25, batches=3, churn=0.01),
        scale_grid=[dict(employees=20000, batches=5, churn=0.01),
                    dict(employees=40000, batches=5, churn=0.01)],
    ),
    "revision": dict(
        comparison=dict(employees=12, steps=4, conflict_ratio=1.0),
        scale_grid=[dict(employees=20000, steps=10, conflict_ratio=0.8)],
    ),
    "observability": dict(chains=100, length=35),
}

QUICK = {
    "matrix": [
        ("transitive_closure", transitive_closure_program,
         [dict(chains=50, length=5), dict(chains=100, length=5)]),
        ("same_generation", same_generation_program, [dict(depth=4, branching=2)]),
        ("join_chain", join_chain_program, [dict(relations=3, rows=100)]),
    ],
    "incremental": dict(chains=100, length=5, batches=10),
    "flatness": dict(chains=200),
    "query": [dict(depth=5, branching=3)],
    "analysis": dict(
        lint_grid=[
            ("transitive_closure", transitive_closure_program, dict(chains=100, length=5)),
            ("same_generation", same_generation_program, dict(depth=4, branching=2)),
        ],
        dead_rules=8,
        pruning_params=dict(chains=200, length=5),
    ),
    "violations": dict(
        comparison=dict(employees=15, batches=2, churn=0.01),
        scale_grid=[dict(employees=2000, batches=3, churn=0.01)],
    ),
    "revision": dict(
        comparison=dict(employees=8, steps=3, conflict_ratio=1.0),
        scale_grid=[dict(employees=2000, steps=5, conflict_ratio=0.8)],
    ),
    "observability": dict(chains=20, length=10),
}


def collect(sizes):
    """Run every section at *sizes* (:data:`FULL`, :data:`QUICK` or the
    same shape) and return the report."""
    rows = run_matrix(sizes["matrix"])
    report = {
        "generated_by": "benchmarks/run_bench.py",
        "python": platform.python_version(),
        "repeats": REPEATS,
        "rows": rows,
    }
    report["incremental"] = run_incremental(**sizes["incremental"])
    report["incremental"]["flatness"] = run_incremental_flatness(**sizes["flatness"])
    report["query"] = run_query_bench(sizes["query"])
    report["analysis"] = run_analysis_bench(**sizes["analysis"])
    report["violations"] = run_violations_bench(**sizes["violations"])
    report["revision"] = run_revision_bench(**sizes["revision"])
    report["observability"] = run_observability_bench(sizes["observability"])
    tc_rows = [row for row in rows if row["workload"] == "transitive_closure"
               and "speedup_indexed_vs_semi_naive" in row]
    if tc_rows:
        largest = max(tc_rows, key=lambda row: row["facts"])
        report["headline"] = {
            "workload": "transitive_closure",
            "facts": largest["facts"],
            "speedup_indexed_vs_semi_naive": largest["speedup_indexed_vs_semi_naive"],
        }
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=pathlib.Path, default=None,
                        help="defaults to BENCH_datalog.json at the repo root "
                             "(BENCH_datalog_quick.json for --quick runs, so a "
                             "quick iteration never overwrites the committed "
                             "trajectory with small-size numbers)")
    parser.add_argument("--quick", action="store_true", help="small sizes only")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless the report passes every gate "
                             "of benchmarks/check_bench.py")
    args = parser.parse_args(argv)
    output = args.output or ROOT / (
        "BENCH_datalog_quick.json" if args.quick else "BENCH_datalog.json"
    )
    report = collect(QUICK if args.quick else FULL)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    for gate, label, actual, ok in evaluate(report):
        if gate.kind in (">=", "<=", "=="):
            print(f"{label} = {actual!r} (gate {gate.kind} {gate.value})"
                  + ("" if ok else " FAILS"))
    problems = structure_problems(report) if args.check else []
    for problem in problems:
        print(f"--check failed: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
