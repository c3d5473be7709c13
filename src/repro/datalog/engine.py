"""Bottom-up evaluation of Datalog programs.

The engine computes the stratified minimal model of a program by iterating
its rules to a fixpoint, one stratum at a time.  Three fixpoint strategies
are provided, forming the ablation ladder the E9 benchmark measures:

* **naive** — every rule is re-joined against the entire database on every
  iteration, with nested-loop scans; the O(|DB|^k)-per-rule baseline;
* **semi-naive** — rules are joined against the *delta* (facts new in the
  previous round) using the textbook non-duplicating decomposition: for a
  rule with positive body literals ``p1 … pk``, one join pass per delta
  position *i* evaluates ``p1 … p(i-1)`` against the pre-round database,
  ``pi`` against the delta and the rest against the full database, so each
  new derivation is produced by exactly one pass.  Passes whose delta
  position holds a predicate absent from the delta are skipped entirely;
* **indexed** (the default) — semi-naive evaluation over columnar
  interned storage (:mod:`repro.datalog.columnar`): constants become dense
  integer ids, facts become id rows hashed per ``(predicate, arity)``
  relation and per argument position, body literals are reordered greedily
  by estimated selectivity (delta literal first, then whichever remaining
  literal has bound argument positions and the smallest observed-histogram
  estimate), and each scheduled body runs as a generated id-space join
  function that probes the buckets of the currently bound prefix instead
  of scanning the fact set.  The planner (:meth:`DatalogEngine._schedule`)
  and the generated joins are also the incremental maintainer's: there is
  one of each.

In every strategy, negated body literals are deferred until the join prefix
has bound all of their variables, so range-restricted rules evaluate
correctly regardless of the textual order of their body (rules that cannot
be made ground this way are rejected with
:class:`~repro.exceptions.UnsafeRuleError` — normally already at
:class:`~repro.datalog.program.DatalogRule` construction).

Negation is interpreted as stratified negation-as-failure.  Stratification
is exact: the predicate dependency graph is condensed into strongly
connected components and a program is rejected with
:class:`~repro.exceptions.StratificationError` precisely when some negative
edge lies inside a component (negation through recursion); stratum numbers
are then assigned in one dependencies-first pass over the condensation.
For definite programs the result is the least Herbrand model; for stratified
programs it is the standard perfect model, which coincides with the
completion/closed-world readings the paper discusses for "Prolog-like"
databases.

``least_model()`` is computed once and cached (keyed on the fact list's
version stamp and the rules), so ``query()`` and ``holds()`` do not recompute the
fixpoint on every call.  For update-heavy callers,
:class:`~repro.datalog.incremental.MaterializedModel` maintains the model
under EDB insertions and deletions at delta cost and pushes it back into
this cache via :meth:`DatalogEngine.install_model`.

``query()`` is *goal-directed* by default: when no model is cached (or
maintained), a single goal is answered by magic-set rewriting
(:mod:`repro.datalog.magic`) — the fixpoint then only derives the
goal-relevant subprogram, O(relevant facts) instead of O(least model).
Magic work is cached per program content: the rewrite template per
``(predicate, adornment)`` and the evaluated goal-relevant model per
``(predicate, adornment, bound constants)``, so repeated point queries
share their sub-goal work (``result.cached`` says a cache answered).
The join planner of the indexed strategy reads the statistics each
relation of the store keeps live (:meth:`RowStore.selectivity
<repro.datalog.columnar.RowStore.selectivity>`, the sums of squared bucket
sizes of :mod:`repro.datalog.stats`), and only for a pass with a choice of
order.
"""

import warnings
from collections import defaultdict
from dataclasses import asdict, dataclass

from repro.datalog.analyze import (
    analyze_program,
    condensation_of,
    format_cycle,
    negative_cycle,
)
from repro.datalog.columnar import ColumnarFactIndex, columnar_fixpoint, decode_world
from repro.exceptions import (
    MagicRewriteError,
    ProgramAnalysisError,
    ProgramAnalysisWarning,
    StratificationError,
    UnsafeRuleError,
)
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter, Variable
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceError, ProvenanceRecorder, derivation_tree
from repro.obs.tracing import NOOP_TRACER
from repro.semantics.worlds import World

STRATEGIES = ("naive", "semi-naive", "indexed")
QUERY_MODES = ("auto", "magic", "full")
CHECK_MODES = ("off", "warn", "strict")

#: how many evaluated goal-relevant models ``query()`` keeps per engine
#: (templates are unbounded — one per reachable adornment, a small set).
MAGIC_MODEL_CACHE_SIZE = 32


@dataclass
class EvaluationStatistics:
    """Counters describing one fixpoint computation.

    ``rule_applications`` counts actual join passes executed: one per rule
    per round for naive (and first-round semi-naive) evaluation, and one per
    *delta position actually evaluated* for semi-naive rounds.  Delta passes
    skipped because the delta holds no fact of the pass's predicate are
    tallied separately in ``delta_passes_skipped``.

    :meth:`DatalogEngine.metrics` reports the fields as ``engine.<field>``.
    """

    iterations: int = 0
    rule_applications: int = 0
    facts_derived: int = 0
    strata: int = 0
    delta_passes_skipped: int = 0


class QueryResult(list):
    """The answer to one :meth:`DatalogEngine.query` call.

    Behaves as a plain list of ``{Variable: Parameter}`` binding dicts (one
    per matching fact), so existing callers keep working, and additionally
    carries how the answer was computed:

    * ``goal`` — the query atom; ``adornment`` — its binding pattern
      (``"bf"``-style, see :func:`repro.datalog.magic.adornment_of`);
    * ``mode`` — ``"magic"`` (goal-directed rewrite), ``"full"`` (answered
      from the full least model), ``"edb"`` (direct probe of an extensional
      predicate) or ``"materialized"`` (probe of an incrementally
      maintained model);
    * ``facts_touched`` — how many facts the evaluation materialized or
      scanned to produce the bindings; ``join_passes`` / ``iterations`` /
      ``facts_derived`` — the fixpoint counters of the evaluation run
      performed *for this query* (all zero when a cached or maintained
      model answered it);
    * ``fallback_reason`` — why an ``"auto"`` query fell back from magic to
      full evaluation (``None`` when it did not);
    * ``cached`` — True when a ``"magic"`` answer was served from the
      engine's per-program magic cache (no fixpoint ran for this query).
    """

    def __init__(self, bindings=(), *, goal=None, mode="full", adornment=None,
                 facts_touched=0, join_passes=0, iterations=0,
                 facts_derived=0, fallback_reason=None, cached=False):
        super().__init__(bindings)
        self.goal = goal
        self.mode = mode
        self.adornment = adornment
        self.facts_touched = facts_touched
        self.join_passes = join_passes
        self.iterations = iterations
        self.facts_derived = facts_derived
        self.fallback_reason = fallback_reason
        self.cached = cached

    @property
    def bindings(self):
        """The binding dicts as a plain list (the result itself is also a
        list; this property exists for readable call sites)."""
        return list(self)

    def __repr__(self):
        return (
            f"QueryResult({list.__repr__(self)}, mode={self.mode!r}, "
            f"adornment={self.adornment!r}, facts_touched={self.facts_touched}, "
            f"join_passes={self.join_passes})"
        )


class DatalogEngine:
    """Evaluates a :class:`~repro.datalog.program.DatalogProgram`.

    ``strategy`` selects the fixpoint machinery (one of
    :data:`STRATEGIES`).  ``"indexed"`` (the default) stores facts as
    interned id rows (:mod:`repro.datalog.columnar`), plans joins from
    observed bucket-size histograms (:mod:`repro.datalog.stats`) and runs
    them as generated id-space loops; ``"naive"`` and ``"semi-naive"``
    are the set-based reference oracles it is tested against.

    ``check`` selects the static-analysis mode (one of :data:`CHECK_MODES`,
    see :mod:`repro.datalog.analyze`): ``"warn"`` (the default) runs the
    analyzer once per program content at ``least_model()`` /
    ``least_index()`` / ``query()`` entry, records its findings on
    ``engine.diagnostics``, surfaces error-severity ones through
    :class:`~repro.exceptions.ProgramAnalysisWarning` and prunes rules the
    analyzer proves can never fire (a semantics-preserving rewrite applied
    before stratification and magic rewriting, so every
    strategy inherits it); ``"strict"`` runs the analysis eagerly at
    construction and raises :class:`~repro.exceptions.ProgramAnalysisError`
    on *any* non-informational finding, before evaluation starts;
    ``"off"`` skips the analyzer entirely (``engine.diagnostics`` stays
    empty and nothing is pruned).

    ``tracer`` attaches a :class:`~repro.obs.tracing.Tracer` — fixpoint
    rounds, join passes and magic rewrites then record spans (the default
    is the shared no-op tracer, whose cost the observability benchmark
    bounds at ≤5% of a fixpoint).  ``provenance=True`` (indexed strategy
    only) records one rule-level derivation edge per derived fact during
    evaluation, enabling :meth:`explain`; it is off by default because the
    edge store is O(derived facts).  :meth:`metrics` snapshots the
    ``statistics`` of the last evaluation and the engine's cumulative
    ``query.*`` counters.
    """

    def __init__(self, program, strategy="indexed", check="warn",
                 tracer=None, provenance=False):
        if strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {', '.join(STRATEGIES)}")
        if check not in CHECK_MODES:
            raise ValueError(f"check must be one of {', '.join(CHECK_MODES)}")
        if provenance and strategy != "indexed":
            raise ValueError("provenance recording requires the indexed strategy")
        self.program = program
        self.strategy = strategy
        self.tracer = NOOP_TRACER if tracer is None else tracer
        # The compiled-join cache: kernels embed interned constants, so it
        # holds for one symbol table, the one it was filled on.
        self._compiled_cache = {}
        self._compiled_interner = program.facts.interner
        self._metrics = MetricsRegistry()
        self.statistics = EvaluationStatistics()
        # Provenance: one derivation edge per derived fact, recorded only
        # while _provenance_sink is armed (the engine's own fixpoints).
        self.provenance = bool(provenance)
        self._provenance = ProvenanceRecorder() if provenance else None
        self._provenance_key = None
        self._provenance_sink = None
        # query()'s magic cache: rewrite templates per (predicate, arity,
        # adornment) and evaluated goal-relevant models per (..., bound
        # constants), both valid for exactly one program content key.
        self._magic_templates = {}
        self._magic_models = {}
        self._magic_key = None
        # Static analysis state (see ensure_checked): the cached
        # ProgramAnalysis, the program content it was computed for, and the
        # effective (never-fire-pruned) program every consumer of the rule
        # set reads through _effective_program().
        self.check = check
        self.diagnostics = ()
        self._analysis = None
        self._analysis_key = None
        self._effective = None
        self._strata_rules = None
        if check == "strict":
            # Reject defective programs before any stratification work —
            # raises ProgramAnalysisError, carrying the diagnostics.
            self.ensure_checked()
        self._refresh_strata(self._program_key())
        self._model = None
        self._model_key = None
        # Set by MaterializedModel: a zero-argument callable that refreshes
        # the cache (via install_model) from incrementally maintained state,
        # so a cache miss costs O(delta) instead of a fixpoint.
        self._model_provider = None

    @property
    def interner(self):
        """The symbol table the engine evaluates on: its program's
        (``program.facts.interner``), append-only, so ids stay stable
        across evaluations."""
        return self.program.facts.interner

    # -- static analysis ----------------------------------------------------
    def ensure_checked(self):
        """Run (or reuse) the static analysis of
        :mod:`repro.datalog.analyze` according to ``self.check``; returns
        the :class:`~repro.datalog.analyze.ProgramAnalysis` (``None`` under
        ``check="off"``).

        The analysis is cached per program content (plus declared outputs)
        and re-run only when either changes.  Under ``"strict"`` any
        non-informational diagnostic raises
        :class:`~repro.exceptions.ProgramAnalysisError`; under ``"warn"``
        error-severity diagnostics are surfaced as
        :class:`~repro.exceptions.ProgramAnalysisWarning` and evaluation
        proceeds.  Either way the analyzer's never-fire rules are pruned
        from the *effective* program that stratification and magic planning
        read (a semantics-preserving rewrite —
        only rules with a provably empty positive body predicate go).
        """
        if self.check == "off":
            return None
        key = (self._program_key(), frozenset(getattr(self.program, "outputs", ())))
        if self._analysis is not None and self._analysis_key == key:
            return self._analysis
        analysis = analyze_program(self.program)
        self._analysis = analysis
        self._analysis_key = key
        self.diagnostics = analysis.diagnostics
        if self.check == "strict":
            violations = analysis.strict_violations()
            if violations:
                raise ProgramAnalysisError(
                    f"program rejected by static analysis ({len(violations)} "
                    "finding(s)): " + "; ".join(str(d) for d in violations[:3])
                    + ("; ..." if len(violations) > 3 else ""),
                    diagnostics=violations,
                )
        else:
            for diagnostic in analysis.errors():
                warnings.warn(str(diagnostic), ProgramAnalysisWarning, stacklevel=3)
        self._effective = analysis.pruned_program()
        if (self._strata_rules is not None
                and tuple(self._effective.rules) != self._strata_rules):
            # Pruning changed the rule set the current strata were built
            # from — rebuild them now so counters stay consistent.
            self._refresh_strata(self._program_key())
        return analysis

    def _effective_program(self):
        """The program evaluation actually runs: the analyzer's pruned copy
        when a check found never-fire rules, the original otherwise (they
        share the fact list either way)."""
        return self._effective if self._effective is not None else self.program

    def _refresh_strata(self, key):
        self._strata = self._stratify()
        self._strata_key = key
        self._strata_rules = tuple(self._effective_program().rules)

    # -- public API ---------------------------------------------------------
    def least_model(self):
        """Compute the (stratified) minimal model and return it as a
        :class:`~repro.semantics.worlds.World`.

        The model is cached: repeated calls (and therefore ``query()`` /
        ``holds()``) re-run the fixpoint only when the program has gained
        facts or rules since the last computation.
        """
        # A cached model was checked when it was computed, or — installed
        # by an incremental maintainer — when the maintainer last rebuilt.
        key = self._program_key()
        if self._model is not None and self._model_key == key:
            return self._model
        self.ensure_checked()
        if self._model_provider is not None:
            # An incremental maintainer owns the model: let it bring the
            # cache up to date (O(delta)); fall through to a full fixpoint
            # only if it could not.
            self._model_provider()
            key = self._program_key()
            if self._model is not None and self._model_key == key:
                return self._model
        if self._strata_key != key:
            self._refresh_strata(key)
        self._begin_evaluation()
        with self.tracer.span("engine.least_model", strategy=self.strategy):
            try:
                if self.strategy == "indexed":
                    model = decode_world(self._columnar_fixpoint(), self.interner)
                else:
                    model = self._evaluate_scanning()
            finally:
                self._provenance_sink = None
        self._provenance_key = key if self.provenance else None
        self._model = model
        self._model_key = key
        return model

    def least_index(self):
        """Evaluate the fixpoint and return the final fact storage — a
        :class:`~repro.datalog.columnar.ColumnarFactIndex` read face over the
        id-space :class:`~repro.datalog.columnar.RowStore` of the least
        model, on the engine's interner — *without* materialising a
        :class:`~repro.semantics.worlds.World`.

        This is the fixpoint product for index-consuming pipelines: a
        :class:`~repro.datalog.incremental.MaterializedModel` builds from it
        (and owns its derived relations from then on), and skipping the World's frozen atom-set
        construction avoids decoding every atom at the API edge, which for
        large models costs more than the fixpoint itself.  Only the
        ``indexed`` strategy materialises an index; the scanning strategies
        raise ``ValueError``.  The result is freshly evaluated (never
        cached).
        """
        if self.strategy != "indexed":
            raise ValueError("least_index requires the indexed strategy")
        self.ensure_checked()
        key = self._program_key()
        if self._strata_key != key:
            self._refresh_strata(key)
        self._begin_evaluation()
        with self.tracer.span("engine.least_index", strategy=self.strategy):
            try:
                result = ColumnarFactIndex.from_store(
                    self._columnar_fixpoint(), self.interner
                )
            finally:
                self._provenance_sink = None
        self._provenance_key = key if self.provenance else None
        return result

    def query(self, atom, mode="auto"):
        """Answer a single goal *atom* (which may mix constants and
        variables); returns a :class:`QueryResult` — a list of
        ``{Variable: Parameter}`` binding dicts plus evaluation counters.

        ``mode`` selects the evaluation path (one of :data:`QUERY_MODES`):

        * ``"full"`` — materialize (or reuse) the full least model and
          match the goal against it;
        * ``"magic"`` — goal-directed: magic-set rewrite
          (:mod:`repro.datalog.magic`) and evaluate only the goal-relevant
          subprogram (extensional goals skip the rewrite and probe the
          facts directly); raises
          :class:`~repro.exceptions.MagicRewriteError` when the rewrite
          loses stratifiability;
        * ``"auto"`` (default) — use the cached/maintained model when one
          is available (O(answers)), probe extensional goals directly,
          otherwise try magic and fall back to full evaluation on
          :class:`~repro.exceptions.MagicRewriteError`
          (``result.fallback_reason`` says why).
        """
        if mode not in QUERY_MODES:
            raise ValueError(f"mode must be one of {', '.join(QUERY_MODES)}")
        self.ensure_checked()
        from repro.datalog import magic

        adornment = magic.adornment_of(atom)
        fallback_reason = None
        if mode != "full":
            cached = self._model is not None and self._model_key == self._program_key()
            maintained = self._model_provider is not None
            extensional = (
                (atom.predicate, len(atom.args)) not in self.program.idb_predicates()
            )
            if extensional and (mode == "magic" or not (cached or maintained)):
                # Extensional goal, no model at hand: the least model holds
                # exactly the EDB facts for it, read without materializing
                # anything.
                bindings, touched = self._match_facts(atom)
                return self._note_query(QueryResult(
                    bindings, goal=atom, mode="edb", adornment=adornment,
                    facts_touched=touched,
                ))
            if not extensional and (mode == "magic" or not (cached or maintained)):
                try:
                    return self._magic_query(atom, adornment)
                except MagicRewriteError as error:
                    if mode == "magic":
                        raise
                    fallback_reason = str(error)
        statistics_before = self.statistics
        model = self.least_model()
        evaluated = self.statistics is not statistics_before
        bindings, touched = _match_goal(atom, model.atoms_for(atom.predicate))
        return self._note_query(QueryResult(
            bindings, goal=atom, mode="full", adornment=adornment,
            facts_touched=len(model) if evaluated else touched,
            join_passes=self.statistics.rule_applications if evaluated else 0,
            iterations=self.statistics.iterations if evaluated else 0,
            facts_derived=self.statistics.facts_derived if evaluated else 0,
            fallback_reason=fallback_reason,
        ))

    def _match_facts(self, atom):
        """Match an extensional goal against ``program.facts``; return
        ``(bindings, touched)``.  The store is probed on the goal's bound
        positions, so only the smallest matching bucket is decoded."""
        facts = self.program.facts
        bound = [
            (position, arg)
            for position, arg in enumerate(atom.args)
            if isinstance(arg, Parameter)
        ]
        index = ColumnarFactIndex.from_store(facts.rows, facts.interner)
        return _match_goal(atom, index.candidates(atom.predicate, len(atom.args), bound))

    def _note_query(self, result):
        """Tally one :meth:`query` answer into the cumulative ``query.*``
        registry counters — the single bookkeeping the per-result
        :class:`QueryResult` numbers and :meth:`metrics` now share."""
        metrics = self._metrics
        metrics.counter("query.calls").inc()
        metrics.counter(f"query.mode.{result.mode}").inc()
        metrics.counter("query.answers").inc(len(result))
        metrics.counter("query.facts_touched").inc(result.facts_touched)
        metrics.counter("query.join_passes").inc(result.join_passes)
        if result.cached:
            metrics.counter("query.cache_hits").inc()
        return result

    def _magic_query(self, atom, adornment):
        """Answer an intensional goal by magic sets, through the engine's
        two-level magic cache.

        Both levels key on the program's content (any fact or rule change
        clears them):

        * **templates** — the adornment/SIP/magic rule set of
          :func:`repro.datalog.magic.plan` per ``(predicate, arity,
          adornment)``; a repeated binding *shape* (same query, different
          constants) skips the rewrite;
        * **models** — the goal-relevant *answer atoms* (the adorned answer
          predicate's slice of the evaluated model; the rest of the inner
          model is never read on a hit and is not retained) per
          ``(predicate, arity, adornment, bound constants)``; a repeated
          point query skips the fixpoint entirely and re-matches the goal
          (``result.cached`` is True, the evaluation counters are zero).
          At most :data:`MAGIC_MODEL_CACHE_SIZE` entries are kept (oldest
          evicted first).

        Raises :class:`~repro.exceptions.MagicRewriteError` exactly when the
        rewrite does; nothing is cached for unrewritable goals.
        """
        from repro.datalog import magic

        key = self._program_key()
        if self._magic_key != key:
            self._magic_templates.clear()
            self._magic_models.clear()
            self._magic_key = key
        arity = len(atom.args)
        seed_args = tuple(arg for arg in atom.args if not isinstance(arg, Variable))
        model_key = (atom.predicate, arity, adornment, seed_args)
        answer_atoms = self._magic_models.get(model_key)
        if answer_atoms is not None:
            bindings, touched = _match_goal(atom, answer_atoms)
            return self._note_query(QueryResult(
                bindings, goal=atom, mode="magic", adornment=adornment,
                facts_touched=touched, cached=True,
            ))
        template_key = (atom.predicate, arity, adornment)
        template = self._magic_templates.get(template_key)
        if template is None:
            # Plan against the effective (never-fire-pruned) program so the
            # rewrite never specializes provably dead rules.
            with self.tracer.span(
                "magic.rewrite", goal=atom.predicate, adornment=adornment
            ):
                template = magic.plan(self._effective_program(), atom)
            self._magic_templates[template_key] = template
        magic_program = magic.instantiate(template, self.program, atom)
        # The rewrite output is generated code — full of benign duplicates
        # by construction — so the inner engine skips the static analyzer.
        inner = DatalogEngine(
            magic_program.program, strategy=self.strategy, check="off",
            tracer=self.tracer,
        )
        if inner._compiled_interner is self._compiled_interner:
            # Same symbol table: the goals of one template share kernels.
            inner._compiled_cache = self._compiled_cache
        with self.tracer.span(
            "magic.evaluate", goal=atom.predicate, adornment=adornment
        ):
            # The indexed fixpoint's store is read, not decoded: only the
            # answer relation becomes atoms, never the shared EDB.
            model = (
                inner.least_index() if self.strategy == "indexed"
                else inner.least_model()
            )
        answer_atoms = tuple(model.atoms_for(magic_program.answer_predicate))
        while len(self._magic_models) >= MAGIC_MODEL_CACHE_SIZE:
            self._magic_models.pop(next(iter(self._magic_models)))
        self._magic_models[model_key] = answer_atoms
        return self._note_query(QueryResult(
            _match_goal(atom, answer_atoms)[0], goal=atom, mode="magic",
            adornment=adornment,
            facts_touched=len(model),
            join_passes=inner.statistics.rule_applications,
            iterations=inner.statistics.iterations,
            facts_derived=inner.statistics.facts_derived,
        ))

    def holds(self, atom):
        """Return True when the ground *atom* is in the least model
        (computes or reuses the cached model; for a one-off ground check on
        an uncached engine, ``query(atom, mode="auto")`` is the
        goal-directed alternative)."""
        return self.least_model().holds(atom)

    def install_model(self, model):
        """Install an externally maintained least model into the cache.

        Used by :class:`~repro.datalog.incremental.MaterializedModel` after
        an incremental update so that ``least_model()`` (and therefore
        ``query()`` / ``holds()``) return the maintained model without
        re-running the fixpoint.  The caller guarantees *model* is the least
        model of the program's current content; strata are refreshed here so
        a later genuine re-evaluation starts from a consistent state.
        """
        key = self._program_key()
        if self._strata_key != key:
            self._refresh_strata(key)
        if self._magic_key != key:
            # The magic caches answer for a different program content —
            # drop them now rather than trusting the next query's check.
            self._magic_templates.clear()
            self._magic_models.clear()
            self._magic_key = None
        self._model = model
        self._model_key = key
        return model

    # -- observability ------------------------------------------------------
    def _begin_evaluation(self):
        """Reset the per-evaluation state: a *fresh* statistics object
        (callers detect "a fixpoint ran" by object identity) and — with
        provenance on — a fresh edge store with the recording sink armed
        (the caller disarms it when the fixpoint ends, so joins run on
        behalf of other machinery never record)."""
        self.statistics = EvaluationStatistics()
        if self.provenance:
            self._provenance = ProvenanceRecorder()
            self._provenance_sink = self._provenance.record
            self._provenance_key = None

    def metrics(self):
        """One flat snapshot of every instrument of this engine's
        :class:`~repro.obs.metrics.MetricsRegistry` (the cumulative query
        counters, ``query.*``) merged with the fields of
        ``engine.statistics`` (``engine.*``), in name order."""
        snapshot = self._metrics.snapshot()
        for field, value in asdict(self.statistics).items():
            snapshot[f"engine.{field}"] = value
        return dict(sorted(snapshot.items()))

    def explain(self, atom):
        """The derivation tree of a ground *atom* of the least model — a
        :class:`~repro.obs.provenance.Derivation` whose leaves are EDB facts
        and whose inner nodes name the rule and the ground body atoms that
        produced each derived fact.

        Requires the engine to have been built with ``provenance=True``.
        When no provenance-recorded evaluation matches the current program
        content (nothing evaluated yet, the program changed, or the cached
        model was installed by an incremental maintainer), the fixpoint is
        re-run here — bypassing the model provider — to collect edges.
        Raises :class:`~repro.obs.provenance.ProvenanceError` for atoms
        outside the least model."""
        if self._provenance is None:
            raise ProvenanceError(
                "provenance recording is off; build the engine with "
                "provenance=True to use explain()"
            )
        key = self._program_key()
        if (
            self._provenance_key != key
            or self._model is None
            or self._model_key != key
        ):
            provider = self._model_provider
            self._model_provider = None
            self._model = None
            self._model_key = None
            try:
                model = self.least_model()
            finally:
                self._model_provider = provider
        else:
            model = self._model
        if atom not in model:
            raise ProvenanceError(
                f"{atom} is not in the least model; there is nothing to explain"
            )
        return derivation_tree(self._provenance, atom, known=model)

    def _program_key(self):
        # The fact list's version stamp moves on every mutation and is never
        # shared between lists, so it catches in-place changes and
        # replacement alike without reading the facts: O(rules) per call.
        return (self.program.facts.version, tuple(self.program.rules))

    def _stratum_rules(self, stratum):
        rules = self._effective_program().rules
        return [r for r in rules if (r.head.predicate, r.head.arity) in stratum]

    def _evaluate_scanning(self):
        database = set(self.program.facts.atoms())
        for stratum_index, stratum in enumerate(self._strata):
            self.statistics.strata = stratum_index + 1
            rules = self._stratum_rules(stratum)
            if not rules:
                continue
            if self.strategy == "naive":
                database = self._naive_fixpoint(rules, database)
            else:
                database = self._semi_naive_fixpoint(rules, database)
        return World(database)

    def _columnar_fixpoint(self):
        """Run the full stratified fixpoint in id space and return the
        resulting :class:`~repro.datalog.columnar.RowStore` (the engine's
        interner decodes it).  The result shares the fact store's relations
        for every predicate no rule derives
        (:meth:`~repro.datalog.columnar.EdbStore.overlay`)."""
        interner = self.interner
        if interner is not self._compiled_interner:
            # The facts were replaced by a store on another symbol table:
            # kernels compiled against the old ids do not hold on it.
            self._compiled_cache.clear()
            self._compiled_interner = interner
        if self._analysis is not None:
            # Pre-validate the columnar layout against the analyzer's
            # inferred signatures: one arity per predicate name, or the
            # fixed-width id columns would fork (raises with the DL003
            # diagnostics attached).
            self._analysis.validate_columns(interner)
        store = self.program.facts.overlay(self.program.idb_predicates())
        for stratum_index, stratum in enumerate(self._strata):
            self.statistics.strata = stratum_index + 1
            rules = self._stratum_rules(stratum)
            if rules:
                columnar_fixpoint(self, rules, store, interner, self._compiled_cache)
        return store

    # -- stratification -----------------------------------------------------
    def _stratify(self):
        """Split the intensional predicates into strata; extensional
        predicates live in stratum 0 implicitly.

        Strata are levels of the predicate dependency condensation (Tarjan
        components of the IDB dependency graph, emitted dependencies-first
        by :func:`~repro.datalog.analyze.condensation_of`).  The
        stratifiability check is exact: the program is rejected precisely
        when a negative edge lies inside a component — the error spells out
        the offending cycle as a predicate path (computed by the static
        analyzer's :func:`~repro.datalog.analyze.negative_cycle`), e.g.
        ``p/1 -not-> q/1 -> p/1``.
        """
        components, component_of, positive_edges, negative_edges = condensation_of(
            self._effective_program().rules
        )
        for head, dependencies in negative_edges.items():
            for dependency in dependencies:
                if component_of[head] == component_of[dependency]:
                    cycle = negative_cycle(
                        head, dependency,
                        components[component_of[head]],
                        positive_edges, negative_edges,
                    )
                    raise StratificationError(
                        "program is not stratifiable: negation inside a "
                        f"recursive component — {format_cycle(cycle)}"
                    )
        if not components:
            return [set()]
        # Components are emitted dependencies-first, so one pass suffices.
        component_stratum = [0] * len(components)
        for position, component in enumerate(components):
            level = 0
            for head in component:
                for dependency in positive_edges[head]:
                    if component_of[dependency] != position:
                        level = max(level, component_stratum[component_of[dependency]])
                for dependency in negative_edges[head]:
                    level = max(level, component_stratum[component_of[dependency]] + 1)
            component_stratum[position] = level
        ordered = defaultdict(set)
        for position, component in enumerate(components):
            ordered[component_stratum[position]].update(component)
        return [ordered[i] for i in sorted(ordered)]

    # -- join planning -------------------------------------------------------
    def _schedule(self, rule, delta_position=None, stats=None):
        """Order the body of *rule* for evaluation — the one join planner,
        shared by the fixpoints and the incremental maintainer.

        Returns a list of ``(literal, tag)`` pairs.  Every literal carries
        the tag of its *textual* position: ``"delta"`` for the delta
        position itself (the literal whose support changed — positive or
        negated — scheduled first), ``"old"`` before it and ``"full"``
        after it (or everywhere, without a delta position), per the
        non-duplicating decomposition
        (:func:`~repro.datalog.columnar.compile_schedule` says how each tag
        reads the database and the deltas).
        Negative non-delta literals are deferred until every variable they
        mention is bound by the prefix.  When *stats* is given — the
        :class:`~repro.datalog.columnar.RowStore` the pass runs over, or a
        :class:`~repro.datalog.stats.JoinStatistics` snapshot, anything
        with their ``selectivity`` — positive literals are greedily
        reordered by its selectivity estimate; without it (the scanning
        oracles) their program order is preserved.  Only a choice between
        two or more positive literals reads *stats*, so a pass reads the
        statistics of its :func:`~repro.datalog.stats.planned_reads` and of
        nothing else.
        The fixpoints only ever pass positive delta positions.
        """
        def tag_for(position):
            if delta_position is None or position > delta_position:
                return "full"
            return "delta" if position == delta_position else "old"

        pending_negative = [
            (i, l) for i, l in enumerate(rule.body) if not l.positive and i != delta_position
        ]
        positives = [
            (i, l) for i, l in enumerate(rule.body) if l.positive and i != delta_position
        ]
        bound = set()
        schedule = []

        def emit_ready_negatives():
            for entry in list(pending_negative):
                position, literal = entry
                if literal.variables() <= bound:
                    schedule.append((literal, tag_for(position)))
                    pending_negative.remove(entry)

        if delta_position is not None:
            literal = rule.body[delta_position]
            schedule.append((literal, "delta"))
            bound |= literal.variables()
        emit_ready_negatives()

        while positives:
            choice = 0
            if stats is not None and len(positives) > 1:
                best_score = None
                for slot, (_, literal) in enumerate(positives):
                    atom = literal.atom
                    bound_positions = [
                        p
                        for p, arg in enumerate(atom.args)
                        if isinstance(arg, Parameter) or arg in bound
                    ]
                    estimate = stats.selectivity(
                        atom.predicate, len(atom.args), bound_positions
                    )
                    score = (0 if bound_positions else 1, estimate)
                    if best_score is None or score < best_score:
                        best_score, choice = score, slot
            position, literal = positives.pop(choice)
            schedule.append((literal, tag_for(position)))
            bound |= literal.variables()
            emit_ready_negatives()

        if pending_negative:
            raise UnsafeRuleError(
                f"rule {rule} is not range-restricted: negated literal(s) "
                f"{', '.join(str(l) for _, l in pending_negative)} can never become ground"
            )
        return schedule

    # -- fixpoints -----------------------------------------------------------
    def _naive_fixpoint(self, rules, database):
        database = set(database)
        schedules = {rule: self._schedule(rule) for rule in rules}
        while True:
            self.statistics.iterations += 1
            with self.tracer.span(
                "fixpoint.round", iteration=self.statistics.iterations
            ):
                new_facts = set()
                for rule in rules:
                    self.statistics.rule_applications += 1
                    for derived in self._scan_join(
                        rule, schedules[rule], database, None, {}, 0
                    ):
                        if derived not in database:
                            new_facts.add(derived)
            if not new_facts:
                return database
            self.statistics.facts_derived += len(new_facts)
            database |= new_facts

    def _semi_naive_fixpoint(self, rules, database):
        database = set(database)
        full_schedules = {rule: self._schedule(rule) for rule in rules}
        delta_schedules = {}
        delta = None
        first_round = True
        while True:
            self.statistics.iterations += 1
            with self.tracer.span(
                "fixpoint.round", iteration=self.statistics.iterations
            ):
                new_facts = set()
                if not first_round:
                    delta_relations = {(a.predicate, len(a.args)) for a in delta}
                for rule in rules:
                    if first_round:
                        self.statistics.rule_applications += 1
                        produced = self._scan_join(
                            rule, full_schedules[rule], database, None, {}, 0
                        )
                        for derived in produced:
                            if derived not in database:
                                new_facts.add(derived)
                        continue
                    produced_this_rule = set()
                    for delta_position, literal in enumerate(rule.body):
                        if not literal.positive:
                            continue
                        if (literal.atom.predicate, len(literal.atom.args)) not in delta_relations:
                            self.statistics.delta_passes_skipped += 1
                            continue
                        self.statistics.rule_applications += 1
                        schedule = delta_schedules.get((rule, delta_position))
                        if schedule is None:
                            schedule = self._schedule(rule, delta_position=delta_position)
                            delta_schedules[(rule, delta_position)] = schedule
                        for derived in self._scan_join(
                            rule, schedule, database, delta, {}, 0
                        ):
                            if derived not in database:
                                produced_this_rule.add(derived)
                    new_facts |= produced_this_rule
            if not new_facts:
                return database
            self.statistics.facts_derived += len(new_facts)
            database |= new_facts
            delta = new_facts
            first_round = False

    # -- join execution --------------------------------------------------------
    def _scan_join(self, rule, schedule, database, delta, binding, position):
        """Evaluate a scheduled body by scanning Python sets (the unindexed
        baseline): yield the ground heads derivable under *binding*."""
        if position == len(schedule):
            yield _head_atom(rule, binding)
            return
        literal, source = schedule[position]
        if literal.positive:
            facts = delta if source == "delta" else database
            predicate = literal.atom.predicate
            arity = len(literal.atom.args)
            for fact in facts:
                if fact.predicate != predicate or len(fact.args) != arity:
                    continue
                if source == "old" and fact in delta:
                    continue
                extended = _match(literal.atom.args, fact.args, binding)
                if extended is not None:
                    yield from self._scan_join(
                        rule, schedule, database, delta, extended, position + 1
                    )
        else:
            candidate = _ground_negative(literal, binding)
            if candidate not in database:
                yield from self._scan_join(
                    rule, schedule, database, delta, binding, position + 1
                )


def _match_goal(goal, facts):
    """Match *goal* against an iterable of ground facts; return
    ``(bindings, touched)`` — the binding dicts and how many facts were
    scanned."""
    bindings = []
    touched = 0
    arity = len(goal.args)
    for fact in facts:
        touched += 1
        if len(fact.args) != arity:
            continue
        binding = _match(goal.args, fact.args, {})
        if binding is not None:
            bindings.append(binding)
    return bindings, touched


def _head_atom(rule, binding):
    return Atom(
        rule.head.predicate,
        tuple(binding[a] if isinstance(a, Variable) else a for a in rule.head.args),
    )


def _ground_negative(literal, binding):
    """Instantiate a negated literal under *binding*; scheduling guarantees
    groundness for range-restricted rules."""
    args = []
    for arg in literal.atom.args:
        if isinstance(arg, Variable):
            value = binding.get(arg)
            if value is None:
                raise UnsafeRuleError(
                    f"negated literal {literal} not ground at evaluation time"
                )
            args.append(value)
        else:
            args.append(arg)
    return Atom(literal.atom.predicate, tuple(args))


def _match(pattern_args, fact_args, binding):
    """Match a literal's argument pattern against a ground fact, extending
    *binding*; return the extended binding or ``None``."""
    result = dict(binding)
    for pattern, value in zip(pattern_args, fact_args):
        if isinstance(pattern, Parameter):
            if pattern != value:
                return None
        else:
            bound = result.get(pattern)
            if bound is None:
                result[pattern] = value
            elif bound != value:
                return None
    return result
