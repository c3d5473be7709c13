"""Layer attribution for the traced run.

The program already opens spans of its own (``txn.*``, ``violations.*``,
``maintenance.batch``, ``fixpoint.round``, ``join.pass``, ``revision.*``)
on the tracer passed as ``EpistemicDatabase(tracer=...)``.  The public entry
points that have no span are wrapped here, from outside the program, in
timing spans on the same :class:`repro.obs.Tracer`.  The wrappers are
installed only while a traced cycle runs, so untraced cycles execute the
unmodified program.

A span's *self time* is its duration minus the durations of its child spans
(the run is single-threaded, so children never overlap).  Every span name
maps to one layer metric; the self time of the harness's own ``op.<kind>``
root span is the operation's unattributed time.
"""

import functools
from collections import defaultdict

import repro.db.database
import repro.prover.prove
from repro.constraints.checker import IntegrityChecker
from repro.datalog.incremental import MaterializedModel
from repro.datalog.stats import JoinStatistics
from repro.obs import Tracer
from repro.prover.prove import FirstOrderProver
from repro.semantics.reduction import EpistemicReducer

#: Span name → the per-layer metric its self time is charged to.
SPAN_LAYER = {
    "db.tell": "db.self_ms",
    "db.retract": "db.self_ms",
    "db.ask": "db.self_ms",
    "txn.commit": "db.self_ms",
    "txn.check": "db.self_ms",
    "txn.apply": "db.self_ms",
    "constraints.check_update": "constraints.check_update_ms",
    "violations.preview": "constraints.preview_ms",
    "violations.check": "constraints.preview_ms",
    "datalog.planner_refresh": "datalog.planner_refresh_ms",
    "datalog.apply": "datalog.apply_ms",
    "datalog.peek": "datalog.peek_ms",
    "datalog.query": "datalog.query_ms",
    "datalog.rebuild": "datalog.maintenance_batch_ms",
    "maintenance.batch": "datalog.maintenance_batch_ms",
    "fixpoint.round": "datalog.maintenance_batch_ms",
    "join.pass": "datalog.maintenance_batch_ms",
    "revision.plan": "revision.plan_ms",
    "revision.apply": "revision.apply_ms",
    "semantics.reducer_build": "semantics.reducer_build_ms",
    "semantics.ask": "semantics.ask_ms",
    "prover.ground": "prover.ground_ms",
    "prover.entails": "prover.entails_ms",
    "logic.parse": "logic.parse_ms",
}

#: Span-name prefixes of the engine's own spans (fixpoints, magic sets),
#: charged, like full rebuilds, with the maintenance machinery they share.
ENGINE_PREFIXES = ("engine.", "magic.")

LAYER_MS = tuple(dict.fromkeys(SPAN_LAYER.values()))


def layer_of(name):
    """The layer metric a span's self time is charged to (``None`` for the
    harness's root span)."""
    layer = SPAN_LAYER.get(name)
    if layer is None and name.startswith(ENGINE_PREFIXES):
        return "datalog.maintenance_batch_ms"
    return layer


def _annotate_check_update(span, result):
    span.annotate(fallbacks=len(result[0].fallbacks))


def _annotate_query(span, result):
    span.annotate(touched=result.facts_touched, answers=len(result))


class Instrumentation:
    """The timing wrappers around the public entry points, on one tracer."""

    def __init__(self):
        self.tracer = Tracer()
        targets = [
            (repro.db.database.EpistemicDatabase, "tell", "db.tell", None),
            (repro.db.database.EpistemicDatabase, "retract", "db.retract", None),
            (repro.db.database.EpistemicDatabase, "ask", "db.ask", None),
            (IntegrityChecker, "check_update", "constraints.check_update",
             _annotate_check_update),
            (JoinStatistics, "refresh", "datalog.planner_refresh", None),
            (MaterializedModel, "apply", "datalog.apply", None),
            (MaterializedModel, "peek", "datalog.peek", None),
            (MaterializedModel, "query", "datalog.query", _annotate_query),
            (MaterializedModel, "refresh", "datalog.rebuild", None),
            (EpistemicReducer, "__init__", "semantics.reducer_build", None),
            (EpistemicReducer, "ask", "semantics.ask", None),
            (repro.prover.prove, "ground_theory", "prover.ground", None),
            (repro.prover.prove, "ground_sentence", "prover.ground", None),
            (FirstOrderProver, "entails", "prover.entails", None),
            # Strings reach the parser through the database's formula
            # coercion (``tell``, ``ask``, view queries).
            (repro.db.database, "parse", "logic.parse", None),
        ]
        self._patches = [
            (owner, attribute, getattr(owner, attribute),
             self._wrap(getattr(owner, attribute), name, annotate))
            for owner, attribute, name, annotate in targets
        ]

    def _wrap(self, original, name, annotate):
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(span, result)
                return result

        return wrapper

    def install(self):
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def uninstall(self):
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)


class LayerTotals:
    """Self time and counts per layer, accumulated per operation kind."""

    def __init__(self):
        self.ops = defaultdict(int)
        self.root_ms = defaultdict(float)
        self.self_ms = defaultdict(lambda: defaultdict(float))
        self.counts = defaultdict(lambda: defaultdict(int))

    def fold(self, kind, entries):
        """Charge the finished spans of one traced operation."""
        covered = defaultdict(float)
        for entry in entries:
            if entry["parent"] is not None:
                covered[entry["parent"]] += entry["duration"]
        self.ops[kind] += 1
        counts = self.counts[kind]
        for entry in entries:
            name = entry["name"]
            own = (entry["duration"] - covered[entry["id"]]) * 1000.0
            if entry["parent"] is None:
                self.root_ms[kind] += entry["duration"] * 1000.0
                self.self_ms[kind]["unattributed"] += own
                continue
            self.self_ms[kind][layer_of(name) or "unattributed"] += own
            counts[name] += 1
            attrs = entry["attrs"]
            for key in ("fallbacks", "touched", "answers"):
                if key in attrs:
                    counts[key] += attrs[key]

    def total_count(self, key):
        return sum(counts[key] for counts in self.counts.values())

    def unattributed_pct(self, kind=None):
        kinds = [kind] if kind is not None else list(self.ops)
        root = sum(self.root_ms[k] for k in kinds)
        if not root:
            return 0.0
        return 100.0 * sum(self.self_ms[k]["unattributed"] for k in kinds) / root

    def total_ms(self, layer):
        """A layer's self time summed over every kind."""
        return sum(times[layer] for times in self.self_ms.values())

    def per_op_ms(self, layer):
        """A layer's self time per traced operation, over every kind."""
        ops = sum(self.ops.values())
        return self.total_ms(layer) / ops if ops else 0.0
