#!/usr/bin/env python
"""Run the Datalog evaluation benchmark matrix and emit ``BENCH_datalog.json``.

Times every sequential evaluation strategy (naive, semi-naive, indexed)
across a grid of workload sizes — transitive closure, same-generation and
join-heavy chains — verifying along the way that every strategy computes the
identical least model, then replays a tell/retract update stream to measure
incremental view maintenance (``MaterializedModel.apply``) against full
recomputation and times one-fact applies at two EDB sizes 10x apart (the
``incremental.flatness`` cell: delta cost must not grow with the database), times goal-directed (magic-set) point queries against full
materialization at several binding patterns (the ``query`` section), and
times the sharded parallel strategy against indexed across shard counts (the
``parallel`` section — model agreement verified per cell, the recorded
``speedup_parallel_vs_indexed`` is honest about the host: on a single-core
GIL build it hovers around 1x and the section mostly guards overhead), and
races the columnar interned storage backend against object-graph storage on
the indexed fixpoint (the ``storage`` section — ``least_index()`` seconds
and peak memory per backend, fact-for-fact equivalence verified), and
replays 1%-churn constraint-update streams against the scaled HR workload
(the ``violations`` section — commit-time checking through the maintained
violation view against the from-scratch ``IntegrityChecker``, verdict and
witness agreement verified per batch, plus view-only rows at sizes the
from-scratch baseline cannot reach), and replays deliberately conflicting
revision streams through the belief-change layer (the ``revision`` section
— ``BeliefRevisor`` planning repairs off O(delta) view peeks against the
naive retract-until-consistent baseline that recomputes from scratch per
probe, results verified identical per step, plus operator-only scale rows
the baseline cannot reach).  Every
timed cell is the best of ``--repeats`` runs (default 3) and carries a
tracemalloc peak-memory figure measured in a separate traced pass.  The
JSON it writes is the perf trajectory future PRs diff against
(``benchmarks/check_bench.py`` guards it).

Usage::

    python benchmarks/run_bench.py                 # full matrix + incremental
    python benchmarks/run_bench.py --quick         # small sizes only
    python benchmarks/run_bench.py --check         # fail unless indexed is
                                                   # >= 5x faster than
                                                   # semi-naive on the largest
                                                   # TC workload AND apply()
                                                   # is >= 10x faster than
                                                   # recomputation
    python benchmarks/run_bench.py --experiments   # also run the E7/E9 pytest
                                                   # benchmarks and record
                                                   # their outcome
    python benchmarks/run_bench.py --no-incremental  # skip the update stream
    python benchmarks/run_bench.py --no-query      # skip the magic-set
                                                   # query section
    python benchmarks/run_bench.py --no-parallel   # skip the sharded
                                                   # parallel section
    python benchmarks/run_bench.py --no-storage    # skip the columnar-vs-
                                                   # objects storage section
    python benchmarks/run_bench.py --no-violations # skip the violation-view
                                                   # constraint-checking
                                                   # section
    python benchmarks/run_bench.py --no-revision   # skip the belief-revision
                                                   # section
    python benchmarks/run_bench.py --no-observability  # skip the tracing-
                                                   # overhead section

The naive strategy is only run on workloads up to ``--naive-cap`` facts (its
nested-loop joins are the quadratic-and-worse baseline the ablation exists to
show); skipped cells are recorded as ``null``.
"""

import argparse
import gc
import json
import pathlib
import platform
import subprocess
import sys
import time
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.datalog.analyze import analyze_program  # noqa: E402
from repro.datalog.engine import STRATEGIES, DatalogEngine  # noqa: E402
from repro.datalog.incremental import MaterializedModel  # noqa: E402
from repro.logic.terms import Parameter, Variable  # noqa: E402
from repro.logic.syntax import Atom  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    independent_components_program,
    join_chain_program,
    point_query,
    same_generation_program,
    transitive_closure_program,
    update_stream,
)

#: the matrix compares the sequential strategies; the parallel strategy has
#: its own section (shards x workload, against indexed).
MATRIX_STRATEGIES = tuple(s for s in STRATEGIES if s != "parallel")

FULL_MATRIX = [
    ("transitive_closure", transitive_closure_program,
     [dict(chains=50, length=5), dict(chains=100, length=5),
      dict(chains=200, length=5), dict(chains=400, length=5)]),
    ("same_generation", same_generation_program,
     [dict(depth=4, branching=2), dict(depth=5, branching=2),
      dict(depth=6, branching=2)]),
    ("join_chain", join_chain_program,
     [dict(relations=3, rows=100), dict(relations=3, rows=200),
      dict(relations=3, rows=400)]),
]

QUICK_MATRIX = [
    ("transitive_closure", transitive_closure_program,
     [dict(chains=50, length=5), dict(chains=100, length=5)]),
    ("same_generation", same_generation_program, [dict(depth=4, branching=2)]),
    ("join_chain", join_chain_program, [dict(relations=3, rows=100)]),
]


def measure(builder, params, strategy, repeats, engine_kwargs=None):
    """Time ``least_model()`` for one cell (best of ``repeats`` runs); the
    program (and so the index) is rebuilt for every repeat so index
    construction is always included, and the cyclic collector runs between
    repeats so one run's garbage is never charged to the next."""
    best = None
    model = None
    statistics = None
    engine = None
    for _ in range(repeats):
        program = builder(**params)
        engine = DatalogEngine(program, strategy=strategy, **(engine_kwargs or {}))
        gc.collect()
        start = time.perf_counter()
        model = engine.least_model()
        elapsed = time.perf_counter() - start
        statistics = engine.statistics
        if best is None or elapsed < best:
            best = elapsed
    return best, model, statistics, engine


def measure_peak(builder, params, strategy, engine_kwargs=None,
                 method="least_model"):
    """Peak traced memory (bytes) over one evaluation.

    Runs as its *own* pass, never inside the timed repeats: tracemalloc
    instruments every allocation and slows evaluation several-fold, so a
    shared pass would poison the ``seconds`` numbers.  The program is built
    before tracing starts — the peak charges the engine (index construction
    plus fixpoint), not the workload generator.
    """
    program = builder(**params)
    gc.collect()
    tracemalloc.start()
    engine = DatalogEngine(program, strategy=strategy, **(engine_kwargs or {}))
    getattr(engine, method)()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def run_matrix(matrix, naive_cap, repeats):
    rows = []
    for workload, builder, parameter_grid in matrix:
        for params in parameter_grid:
            program = builder(**params)
            facts = len(program.facts)
            cell = {
                "workload": workload,
                "params": params,
                "facts": facts,
                "strategies": {},
            }
            models = {}
            for strategy in MATRIX_STRATEGIES:
                if strategy == "naive" and facts > naive_cap:
                    cell["strategies"][strategy] = None
                    continue
                seconds, model, statistics, _ = measure(builder, params, strategy, repeats)
                models[strategy] = model
                peak = measure_peak(builder, params, strategy)
                cell["strategies"][strategy] = {
                    "seconds": round(seconds, 6),
                    "peak_kb": round(peak / 1024, 1),
                    "model_size": len(model),
                    "iterations": statistics.iterations,
                    "rule_applications": statistics.rule_applications,
                    "facts_derived": statistics.facts_derived,
                }
            distinct = {m for m in models.values()}
            cell["models_identical"] = len(distinct) == 1
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
    # Peak maintenance memory: a fresh model replays the same stream under
    # tracemalloc in its own pass (instrumentation would poison the means
    # above).  The model is built before the stream is listed, exactly as in
    # the timed path — ``update_stream`` mutates the program as it yields.
    replay_program = transitive_closure_program(chains=chains, length=length)
    replay = MaterializedModel(replay_program)
    replay_stream = list(
        update_stream(replay_program, batches=batches, churn=churn, seed=seed)
    )
    gc.collect()
    tracemalloc.start()
    for insertions, deletions in replay_stream:
        replay.apply(insertions, deletions)
    _, apply_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    cell = {
        "workload": "transitive_closure",
        "params": dict(chains=chains, length=length),
        "facts": facts,
        "batches": len(batch_stream),
        "churn": churn,
        "build_seconds": round(build_seconds, 6),
        "apply_mean_seconds": round(apply_mean, 6),
        "apply_total_seconds": round(sum(apply_seconds), 6),
        "apply_peak_kb": round(apply_peak / 1024, 1),
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
        materialized = MaterializedModel(program, storage="columnar")
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


QUERY_GRID = [
    dict(depth=5, branching=3),   # quick row — re-measured by check_bench
    dict(depth=7, branching=3),   # headline row (~2000+ facts)
]

QUICK_QUERY_GRID = [dict(depth=5, branching=3)]

#: (workload, builder, params, shard counts) — the parallel section's grid.
#: The transitive-closure row is the acceptance row: the largest TC workload
#: of the matrix, with the parallel-vs-indexed ratio recorded per shard
#: count.  The independent-components row exercises wave-level concurrency
#: (four recursive SCCs evaluated concurrently) rather than shard fan-out.
PARALLEL_GRID = [
    ("transitive_closure", transitive_closure_program,
     dict(chains=400, length=5), (1, 2, 4)),
    ("independent_components", independent_components_program,
     dict(components=4, chains=100, length=5), (4,)),
]

QUICK_PARALLEL_GRID = [
    ("transitive_closure", transitive_closure_program,
     dict(chains=100, length=5), (1, 4)),
]


def run_parallel_bench(grid=None, repeats=1):
    """Time ``strategy="parallel"`` against ``indexed`` across shard counts,
    verifying per cell that both compute the identical least model.

    The recorded ``speedup_parallel_vs_indexed`` is the honest wall-time
    ratio on this host (``workers`` and ``cpu_count`` are recorded next to
    it): >1 needs real cores, while on a single-core GIL build the section
    pins down the sharding/scheduling overhead instead.
    """
    import os

    rows = []
    for workload, builder, params, shard_grid in grid or PARALLEL_GRID:
        program = builder(**params)
        facts = len(program.facts)
        indexed_seconds, indexed_model, _, _ = measure(builder, params, "indexed", repeats)
        row = {
            "workload": workload,
            "params": params,
            "facts": facts,
            "cpu_count": os.cpu_count(),
            "indexed_seconds": round(indexed_seconds, 6),
            "indexed_peak_kb": round(measure_peak(builder, params, "indexed") / 1024, 1),
            "shards": {},
            "models_identical": True,
        }
        for shards in shard_grid:
            seconds, model, _, engine = measure(
                builder, params, "parallel", repeats, engine_kwargs=dict(shards=shards)
            )
            if model != indexed_model:
                row["models_identical"] = False
            parallel_statistics = engine.parallel_statistics
            peak = measure_peak(
                builder, params, "parallel", engine_kwargs=dict(shards=shards)
            )
            row["shards"][str(shards)] = {
                "seconds": round(seconds, 6),
                "peak_kb": round(peak / 1024, 1),
                "workers": parallel_statistics.workers,
                "waves": parallel_statistics.waves,
                "max_wave_width": parallel_statistics.max_wave_width,
                "shard_tasks": parallel_statistics.shard_tasks,
                "speedup_parallel_vs_indexed": round(indexed_seconds / seconds, 2)
                if seconds > 0
                else None,
            }
        if not row["models_identical"]:
            raise SystemExit(
                f"parallel evaluation disagrees with indexed on {workload} {params}"
            )
        rows.append(row)
        rendered = {
            shards: f"{cell['speedup_parallel_vs_indexed']}x"
            for shards, cell in row["shards"].items()
        }
        print(
            f"parallel {workload} {params} ({facts} facts): indexed "
            f"{indexed_seconds * 1000:.1f} ms, speedups by shard count {rendered}"
        )
    return rows


def run_query_bench(grid=None, repeats=1):
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
    for params in grid or QUERY_GRID:
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
        magic_results = {}
        for pattern, goal in goals.items():
            if pattern == "ff" and facts > 1500:
                # ff magic evaluates the whole relation — measured on the
                # quick row; at headline scale it would double the bench
                # runtime to show a ratio of ~1.
                row["patterns"][pattern] = None
                continue
            magic_seconds = None
            magic_result = None
            for _ in range(repeats):
                engine = DatalogEngine(same_generation_program(**params))
                gc.collect()
                start = time.perf_counter()
                magic_result = engine.query(goal, mode="magic")
                elapsed = time.perf_counter() - start
                if magic_seconds is None or elapsed < magic_seconds:
                    magic_seconds = elapsed
            magic_results[pattern] = magic_result
            gc.collect()
            tracemalloc.start()
            DatalogEngine(same_generation_program(**params)).query(goal, mode="magic")
            _, magic_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            row["patterns"][pattern] = {
                "goal": str(goal),
                "answers": len(magic_result),
                "magic_seconds": round(magic_seconds, 6),
                "magic_peak_kb": round(magic_peak / 1024, 1),
                "magic_facts_derived": magic_result.facts_derived,
                "magic_join_passes": magic_result.join_passes,
            }
        # The full-materialization cell is long enough (the fixpoint
        # dominates) that a single timed run suffices; its peak is taken in
        # a separate traced pass like every other cell.
        full_engine = DatalogEngine(same_generation_program(**params))
        gc.collect()
        start = time.perf_counter()
        full_result = full_engine.query(bf_goal, mode="full")
        full_seconds = time.perf_counter() - start
        gc.collect()
        tracemalloc.start()
        DatalogEngine(same_generation_program(**params)).query(bf_goal, mode="full")
        _, full_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        row["full_seconds"] = round(full_seconds, 6)
        row["full_peak_kb"] = round(full_peak / 1024, 1)
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


#: the storage section's grid: transitive closure deep enough that join and
#: membership costs dominate.  The small row is the one
#: ``check_bench.storage_regression_problems`` re-times on every test run;
#: the large row is the acceptance row the >= 3x columnar-vs-objects
#: fixpoint gate is read from.
STORAGE_GRID = [dict(chains=100, length=10), dict(chains=400, length=25)]

QUICK_STORAGE_GRID = [dict(chains=100, length=10)]


def run_storage_bench(grid=None, repeats=3):
    """Time object-graph storage against columnar interned storage on the
    indexed strategy, per transitive-closure workload.

    Two numbers per storage backend, each best-of-``repeats``:
    ``fixpoint_seconds`` times ``least_index()`` — the storage-level
    fixpoint, which is what the backends actually compete on — and
    ``model_seconds`` times ``least_model()``, the end-to-end figure
    including the columnar path's decode of every derived id-row back into
    ``Atom`` objects.  Peak memory over the fixpoint is taken in a separate
    traced pass.  Before any timing is trusted the two backends' fixpoints
    are verified fact-for-fact identical.
    """
    rows = []
    for params in grid or STORAGE_GRID:
        program = transitive_closure_program(**params)
        facts = len(program.facts)
        row = {
            "workload": "transitive_closure",
            "params": params,
            "facts": facts,
            "storages": {},
        }
        fixpoints = {}
        for storage in ("objects", "columnar"):
            fixpoint_best = None
            index = None
            for _ in range(repeats):
                engine = DatalogEngine(
                    transitive_closure_program(**params), storage=storage
                )
                gc.collect()
                start = time.perf_counter()
                index = engine.least_index()
                elapsed = time.perf_counter() - start
                if fixpoint_best is None or elapsed < fixpoint_best:
                    fixpoint_best = elapsed
            fixpoints[storage] = set(index)
            index = None
            model_best, model, _, _ = measure(
                transitive_closure_program, params, "indexed", repeats,
                engine_kwargs=dict(storage=storage),
            )
            peak = measure_peak(
                transitive_closure_program, params, "indexed",
                engine_kwargs=dict(storage=storage), method="least_index",
            )
            row["storages"][storage] = {
                "fixpoint_seconds": round(fixpoint_best, 6),
                "model_seconds": round(model_best, 6),
                "fixpoint_peak_kb": round(peak / 1024, 1),
                "model_size": len(model),
            }
        row["models_identical"] = fixpoints["objects"] == fixpoints["columnar"]
        if not row["models_identical"]:
            raise SystemExit(
                f"storage backends disagree on {row['workload']} {params}: "
                + ", ".join(f"{s}={len(f)}" for s, f in fixpoints.items())
            )
        objects_cell = row["storages"]["objects"]
        columnar_cell = row["storages"]["columnar"]
        row["speedup_columnar_vs_objects"] = round(
            objects_cell["fixpoint_seconds"]
            / max(columnar_cell["fixpoint_seconds"], 1e-9),
            2,
        )
        row["memory_ratio_objects_vs_columnar"] = round(
            objects_cell["fixpoint_peak_kb"]
            / max(columnar_cell["fixpoint_peak_kb"], 1e-9),
            2,
        )
        rows.append(row)
        print(
            f"storage {params} ({facts} facts): objects fixpoint "
            f"{objects_cell['fixpoint_seconds'] * 1000:.1f} ms / "
            f"{objects_cell['fixpoint_peak_kb'] / 1024:.1f} MB peak, columnar "
            f"{columnar_cell['fixpoint_seconds'] * 1000:.1f} ms / "
            f"{columnar_cell['fixpoint_peak_kb'] / 1024:.1f} MB peak -> "
            f"{row['speedup_columnar_vs_objects']}x faster, "
            f"{row['memory_ratio_objects_vs_columnar']}x less memory"
        )
    return rows


ANALYSIS_LINT_GRID = [
    ("transitive_closure", transitive_closure_program, dict(chains=400, length=5)),
    ("same_generation", same_generation_program, dict(depth=6, branching=2)),
]

QUICK_ANALYSIS_LINT_GRID = [
    ("transitive_closure", transitive_closure_program, dict(chains=100, length=5)),
    ("same_generation", same_generation_program, dict(depth=4, branching=2)),
]

ANALYSIS_PRUNING_PARAMS = dict(chains=200, length=5)


def run_analysis_bench(lint_grid=None, repeats=3, dead_rules=24,
                       pruning_params=None):
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
    for workload, builder, params in lint_grid or ANALYSIS_LINT_GRID:
        program = builder(**params)
        best = None
        for _ in range(repeats):
            gc.collect()
            start = time.perf_counter()
            analysis = analyze_program(program)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
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

    pruning_params = pruning_params or ANALYSIS_PRUNING_PARAMS

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
        best = None
        for _ in range(repeats):
            engine = DatalogEngine(seeded_program(), check=check)
            gc.collect()
            start = time.perf_counter()
            model = engine.least_model()
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        timings[check] = best
        models[check] = model
    if models["off"] != models["warn"]:
        raise SystemExit(
            "analysis pruning changed the least model: "
            f"off={len(models['off'])} warn={len(models['warn'])} atoms"
        )
    analysis_best = None
    for _ in range(repeats):
        program = seeded_program()
        gc.collect()
        start = time.perf_counter()
        analyze_program(program)
        elapsed = time.perf_counter() - start
        if analysis_best is None or elapsed < analysis_best:
            analysis_best = elapsed
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


#: the violations section's comparison row: small on purpose — the
#: from-scratch checker grounds the epistemic reduction over the whole EDB
#: (super-quadratic in practice: ~0.5 s at 85 HR facts, ~2 s at 135, ~18 s
#: at 310), so the honest head-to-head must run where scratch is still
#: feasible.  The incremental view answers the same checks in ~1 ms
#: regardless, which is the point of the section.
VIOLATIONS_COMPARISON = dict(employees=25, batches=3, churn=0.01)
#: view-only scale rows: the regime the view exists for (hundreds of
#: thousands of facts, where a single from-scratch check would take hours).
VIOLATIONS_SCALE_GRID = [
    dict(employees=20000, batches=5, churn=0.01),
    dict(employees=40000, batches=5, churn=0.01),
]

QUICK_VIOLATIONS_COMPARISON = dict(employees=15, batches=2, churn=0.01)
QUICK_VIOLATIONS_SCALE_GRID = [dict(employees=2000, batches=3, churn=0.01)]


def run_violations_bench(comparison=None, scale_grid=None):
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
        database = EpistemicDatabase(
            facts, constraints=hr_constraints(), constraint_checking="incremental"
        )
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

    params = comparison or VIOLATIONS_COMPARISON
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

    for params in scale_grid or VIOLATIONS_SCALE_GRID:
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


#: the revision section's comparison row: small on purpose, like the
#: violations comparison — the naive baseline re-runs the from-scratch
#: checker per planning probe (super-quadratic in the EDB), so the honest
#: operator-vs-naive head-to-head must run where scratch is still feasible.
#: Every step is a deliberate conflict (a gender flip), so both stacks must
#: actually plan and retract, not coast on the vacuity fast path.
REVISION_COMPARISON = dict(employees=12, steps=4, conflict_ratio=1.0)
#: operator-only scale rows: iterated revision against an EDB the naive
#: baseline cannot touch (one scratch probe would take minutes).
REVISION_SCALE_GRID = [dict(employees=20000, steps=10, conflict_ratio=0.8)]

QUICK_REVISION_COMPARISON = dict(employees=8, steps=3, conflict_ratio=1.0)
QUICK_REVISION_SCALE_GRID = [dict(employees=2000, steps=5, conflict_ratio=0.8)]


def run_revision_bench(comparison=None, scale_grid=None):
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
        database = EpistemicDatabase(
            facts, constraints=hr_constraints(), constraint_checking="incremental"
        )
        start = time.perf_counter()
        database.violation_view()
        build_seconds = time.perf_counter() - start
        return database, database.revision(), facts, build_seconds

    params = comparison or REVISION_COMPARISON
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

    for params in scale_grid or REVISION_SCALE_GRID:
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


OBSERVABILITY_PARAMS = dict(chains=80, length=15)
QUICK_OBSERVABILITY_PARAMS = dict(chains=20, length=10)


def run_observability_bench(params=None, repeats=3):
    """Time the indexed fixpoint on a ~10k-fact transitive closure with
    observability off (the no-op tracer default), with a recording tracer,
    and with provenance recording — same workload, same strategy, models
    verified identical across the three cells.

    ``traced_overhead_pct`` / ``provenance_overhead_pct`` record honestly
    what recording costs.  The *guarded* number is ``noop_overhead_pct``:
    the estimated share of the untraced fixpoint spent in the no-op
    instrumentation points (spans the traced run recorded x the
    micro-timed per-call cost of ``NOOP_TRACER.span``), which
    ``check_bench.py`` holds at <= 5%.
    """
    from repro.obs.tracing import NOOP_TRACER, Tracer

    params = params or OBSERVABILITY_PARAMS
    cells = {}
    models = {}
    spans_recorded = 0
    for name in ("noop", "traced", "provenance"):
        best = None
        model = None
        for _ in range(repeats):
            program = transitive_closure_program(**params)
            engine_kwargs = {"storage": "columnar"}
            if name == "traced":
                engine_kwargs["tracer"] = Tracer()
            elif name == "provenance":
                engine_kwargs["provenance"] = True
            engine = DatalogEngine(program, **engine_kwargs)
            gc.collect()
            start = time.perf_counter()
            model = engine.least_model()
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
            if name == "traced":
                spans_recorded = len(engine.tracer.entries)
        cells[name] = best
        models[name] = model

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

    noop_seconds = cells["noop"]
    section = {
        "workload": "transitive_closure",
        "params": params,
        "model_size": len(models["noop"]),
        "repeats": repeats,
        "noop_seconds": round(noop_seconds, 6),
        "traced_seconds": round(cells["traced"], 6),
        "provenance_seconds": round(cells["provenance"], 6),
        "traced_overhead_pct": round(
            (cells["traced"] - noop_seconds) / noop_seconds * 100, 1
        ),
        "provenance_overhead_pct": round(
            (cells["provenance"] - noop_seconds) / noop_seconds * 100, 1
        ),
        "spans_recorded": spans_recorded,
        "noop_span_cost_ns": round(per_call_seconds * 1e9, 1),
        "noop_overhead_pct": round(
            spans_recorded * per_call_seconds / noop_seconds * 100, 2
        ),
        "models_identical": True,
    }
    print(
        f"observability {params} ({section['model_size']} facts): noop "
        f"{noop_seconds * 1000:.1f} ms, traced {cells['traced'] * 1000:.1f} ms "
        f"(+{section['traced_overhead_pct']}%), provenance "
        f"{cells['provenance'] * 1000:.1f} ms "
        f"(+{section['provenance_overhead_pct']}%), no-op instrumentation "
        f"~{section['noop_overhead_pct']}% over {spans_recorded} span points"
    )
    return section


def run_experiments():
    """Run the E7/E9 pytest benchmarks and record their outcome."""
    results = {}
    for experiment, module in (
        ("e7_closed_world", "bench_e7_closed_world.py"),
        ("e9_ablations", "bench_e9_ablations.py"),
    ):
        start = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", str(ROOT / "benchmarks" / module)],
            env={**__import__("os").environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
        )
        results[experiment] = {
            "passed": completed.returncode == 0,
            "seconds": round(time.perf_counter() - start, 2),
            "tail": completed.stdout.strip().splitlines()[-1:]
        }
        print(f"{experiment}: {'ok' if completed.returncode == 0 else 'FAILED'}")
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=pathlib.Path, default=None,
                        help="defaults to BENCH_datalog.json at the repo root "
                             "(BENCH_datalog_quick.json for --quick runs, so a "
                             "quick iteration never overwrites the committed "
                             "trajectory with small-size numbers)")
    parser.add_argument("--quick", action="store_true", help="small sizes only")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed runs per cell; every recorded ``seconds`` "
                             "is the best of this many (default 3)")
    parser.add_argument("--naive-cap", type=int, default=600,
                        help="skip the naive strategy above this many facts")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless indexed is >= 5x faster than "
                             "semi-naive on the largest transitive-closure workload, "
                             "incremental apply is >= 10x faster than recompute, "
                             "magic-set point queries are >= 5x faster than full "
                             "materialization on the largest query row, and "
                             "incremental commit-time constraint checking is "
                             ">= 5x faster than the from-scratch checker on the "
                             "HR comparison row, and view-backed belief revision "
                             "is >= 5x faster than the naive "
                             "retract-until-consistent baseline")
    parser.add_argument("--experiments", action="store_true",
                        help="also run the E7/E9 pytest benchmarks")
    parser.add_argument("--no-incremental", action="store_true",
                        help="skip the incremental view-maintenance stream")
    parser.add_argument("--no-query", action="store_true",
                        help="skip the magic-set query section")
    parser.add_argument("--no-parallel", action="store_true",
                        help="skip the sharded parallel section")
    parser.add_argument("--no-storage", action="store_true",
                        help="skip the columnar-vs-objects storage section")
    parser.add_argument("--no-analysis", action="store_true",
                        help="skip the static-analyzer section")
    parser.add_argument("--no-violations", action="store_true",
                        help="skip the incremental constraint-checking "
                             "(violation view) section")
    parser.add_argument("--no-revision", action="store_true",
                        help="skip the belief-revision (operator vs naive) "
                             "section")
    parser.add_argument("--no-observability", action="store_true",
                        help="skip the tracing-overhead (observability) "
                             "section")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.output is None:
        args.output = ROOT / (
            "BENCH_datalog_quick.json" if args.quick else "BENCH_datalog.json"
        )

    matrix = QUICK_MATRIX if args.quick else FULL_MATRIX
    rows = run_matrix(matrix, args.naive_cap, args.repeats)
    report = {
        "generated_by": "benchmarks/run_bench.py",
        "python": platform.python_version(),
        "repeats": args.repeats,
        "rows": rows,
    }
    if not args.no_incremental:
        if args.quick:
            report["incremental"] = run_incremental(chains=100, length=5, batches=10)
        else:
            # Large base, small absolute churn (20-fact batches): the regime
            # incremental maintenance exists for.  Columnar storage made the
            # full-recompute baseline ~2x faster, so the >= 10x apply gate is
            # read off a base big enough for recomputation to hurt.
            report["incremental"] = run_incremental(
                chains=1600, length=5, batches=20, churn=0.0025
            )
        report["incremental"]["flatness"] = run_incremental_flatness(
            chains=200 if args.quick else 1000
        )
    if not args.no_query:
        report["query"] = run_query_bench(
            QUICK_QUERY_GRID if args.quick else QUERY_GRID,
            repeats=args.repeats,
        )
    if not args.no_parallel:
        report["parallel"] = run_parallel_bench(
            QUICK_PARALLEL_GRID if args.quick else PARALLEL_GRID,
            repeats=args.repeats,
        )
    if not args.no_storage:
        report["storage"] = run_storage_bench(
            QUICK_STORAGE_GRID if args.quick else STORAGE_GRID,
            repeats=args.repeats,
        )
    if not args.no_analysis:
        report["analysis"] = run_analysis_bench(
            QUICK_ANALYSIS_LINT_GRID if args.quick else ANALYSIS_LINT_GRID,
            repeats=args.repeats,
            dead_rules=8 if args.quick else 24,
        )
    if not args.no_violations:
        report["violations"] = run_violations_bench(
            comparison=QUICK_VIOLATIONS_COMPARISON if args.quick
            else VIOLATIONS_COMPARISON,
            scale_grid=QUICK_VIOLATIONS_SCALE_GRID if args.quick
            else VIOLATIONS_SCALE_GRID,
        )
    if not args.no_revision:
        report["revision"] = run_revision_bench(
            comparison=QUICK_REVISION_COMPARISON if args.quick
            else REVISION_COMPARISON,
            scale_grid=QUICK_REVISION_SCALE_GRID if args.quick
            else REVISION_SCALE_GRID,
        )
    if not args.no_observability:
        report["observability"] = run_observability_bench(
            QUICK_OBSERVABILITY_PARAMS if args.quick else OBSERVABILITY_PARAMS,
            repeats=args.repeats,
        )
    if args.experiments:
        report["experiments"] = run_experiments()

    tc_rows = [r for r in rows if r["workload"] == "transitive_closure"
               and "speedup_indexed_vs_semi_naive" in r]
    if tc_rows:
        largest = max(tc_rows, key=lambda r: r["facts"])
        speedup = largest["speedup_indexed_vs_semi_naive"]
        report["headline"] = {
            "workload": "transitive_closure",
            "facts": largest["facts"],
            "speedup_indexed_vs_semi_naive": speedup,
        }
        print(f"headline: indexed is {speedup}x faster than semi-naive "
              f"on {largest['facts']} TC facts")
        if args.check and speedup < 5.0:
            raise SystemExit(f"--check failed: speedup {speedup} < 5.0")
    if args.check and "incremental" in report:
        incremental_speedup = report["incremental"]["speedup_incremental_vs_recompute"]
        if incremental_speedup is None or incremental_speedup < 10.0:
            raise SystemExit(
                f"--check failed: incremental speedup {incremental_speedup} < 10.0"
            )
        flatness = report["incremental"]["flatness"]["ratio_large_vs_small"]
        if flatness > 2.0:
            raise SystemExit(
                f"--check failed: one-fact apply on a 10x EDB costs {flatness}x > 2.0x"
            )
    if "parallel" in report and report["parallel"]:
        tc_parallel = [
            r for r in report["parallel"] if r["workload"] == "transitive_closure"
        ]
        if tc_parallel:
            largest = max(tc_parallel, key=lambda r: r["facts"])
            best = max(
                cell["speedup_parallel_vs_indexed"] or 0.0
                for cell in largest["shards"].values()
            )
            print(
                f"parallel headline: best parallel-vs-indexed ratio {best}x "
                f"on {largest['facts']} TC facts "
                f"({largest['cpu_count']} CPU core(s) available)"
            )
    if "query" in report and report["query"]:
        largest = max(report["query"], key=lambda r: r["facts"])
        query_speedup = (largest["patterns"].get("bf") or {}).get(
            "speedup_magic_vs_full"
        )
        print(
            f"query headline: magic is {query_speedup}x faster than full "
            f"materialization on {largest['facts']} same-generation facts (bf)"
        )
        if args.check and (query_speedup is None or query_speedup < 5.0):
            raise SystemExit(
                f"--check failed: magic query speedup {query_speedup} < 5.0"
            )
    if "storage" in report and report["storage"]:
        largest = max(report["storage"], key=lambda r: r["facts"])
        storage_speedup = largest["speedup_columnar_vs_objects"]
        memory_ratio = largest["memory_ratio_objects_vs_columnar"]
        print(
            f"storage headline: columnar fixpoint is {storage_speedup}x faster "
            f"and uses {memory_ratio}x less peak memory than object storage "
            f"on {largest['facts']} TC facts"
        )
        if args.check and storage_speedup < 3.0:
            raise SystemExit(
                f"--check failed: columnar storage speedup {storage_speedup} < 3.0"
            )
        if args.check and memory_ratio <= 1.0:
            raise SystemExit(
                f"--check failed: columnar peak memory is not below object "
                f"storage (ratio {memory_ratio})"
            )
    if "violations" in report and report["violations"].get("comparison"):
        comparison = report["violations"]["comparison"]
        violations_speedup = comparison["speedup_incremental_vs_scratch"]
        scale_rows = report["violations"].get("scale") or []
        scale_note = ""
        if scale_rows:
            largest = max(scale_rows, key=lambda r: r["facts"])
            scale_note = (
                f"; at {largest['facts']} facts the view still checks a commit "
                f"in {largest['check_mean_seconds'] * 1000:.0f} ms"
            )
        print(
            f"violations headline: incremental commit-time checking is "
            f"{violations_speedup}x faster than the from-scratch checker on "
            f"{comparison['facts']} HR facts at {comparison['params']['churn']:.0%} "
            f"churn{scale_note}"
        )
        if args.check and (violations_speedup is None or violations_speedup < 5.0):
            raise SystemExit(
                f"--check failed: incremental violation-check speedup "
                f"{violations_speedup} < 5.0"
            )
    if "revision" in report and report["revision"].get("comparison"):
        comparison = report["revision"]["comparison"]
        revision_speedup = comparison["speedup_revision_vs_naive"]
        scale_rows = report["revision"].get("scale") or []
        scale_note = ""
        if scale_rows:
            largest = max(scale_rows, key=lambda r: r["facts"])
            scale_note = (
                f"; at {largest['facts']} facts the operator still revises in "
                f"{largest['revise_mean_seconds'] * 1000:.0f} ms"
            )
        print(
            f"revision headline: view-backed belief revision is "
            f"{revision_speedup}x faster than the naive retract-until-consistent "
            f"baseline on {comparison['facts']} HR facts{scale_note}"
        )
        if args.check and (revision_speedup is None or revision_speedup < 5.0):
            raise SystemExit(
                f"--check failed: belief-revision speedup "
                f"{revision_speedup} < 5.0"
            )
    if "observability" in report and report["observability"]:
        obs = report["observability"]
        print(
            f"observability headline: no-op instrumentation costs "
            f"~{obs['noop_overhead_pct']}% of a {obs['model_size']}-fact "
            f"fixpoint; recording traces costs +{obs['traced_overhead_pct']}%, "
            f"provenance +{obs['provenance_overhead_pct']}%"
        )
        if args.check and obs["noop_overhead_pct"] > 5.0:
            raise SystemExit(
                f"--check failed: no-op tracing overhead "
                f"{obs['noop_overhead_pct']}% > 5%"
            )
    if "analysis" in report and report["analysis"].get("lint"):
        largest = max(report["analysis"]["lint"], key=lambda r: r["facts"])
        print(
            f"analysis headline: linting {largest['facts']} "
            f"{largest['workload']} facts takes "
            f"{largest['analysis_seconds'] * 1000:.1f} ms, 0 findings"
        )

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
