"""Tests for the static program analyzer (`repro.datalog.analyze`).

The seeded-defect tests plant exactly one defect class on a clean
transitive-closure base and assert that precisely the matching diagnostic
code fires (with its location), that ``check="strict"`` rejects the
program before evaluation, and that ``check="warn"`` never changes the
computed model.  The hypothesis properties check the two ends of the
contract at scale: every shipped workload generator lints clean under
strict, and warn-mode evaluation agrees with analysis-off evaluation on
random programs.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.analyze import (
    ARITY_CONFLICT,
    DEAD_PREDICATE,
    DEAD_RULE,
    DUPLICATE_RULE,
    KIND_CONFLICT,
    NEGATIVE_CYCLE,
    SUBSUMED_RULE,
    UNBOUND_UNDER_NEGATION,
    UNKNOWN_OUTPUT,
    UNSAFE_HEAD_VARIABLE,
    Diagnostic,
    analyze_program,
    condensation_of,
    format_cycle,
    main,
    negative_cycle,
    parse_program,
    rule_safety,
    subsumes,
    unchecked_rule,
)
from repro.datalog.engine import CHECK_MODES, DatalogEngine
from repro.datalog.program import DatalogLiteral, DatalogProgram, DatalogRule
from repro.exceptions import (
    ParseError,
    ProgramAnalysisError,
    ProgramAnalysisWarning,
    UnsafeRuleError,
)
from repro.logic.builders import atom
from repro.logic.syntax import Atom
from repro.logic.terms import Parameter, Variable
from repro.workloads import WORKLOAD_PROGRAMS

x, y, z, u, v = (Variable(n) for n in "xyzuv")


def tc_base():
    """A clean transitive-closure program: two edges, two path rules."""
    program = DatalogProgram()
    program.add_fact(atom("edge", "n0", "n1"))
    program.add_fact(atom("edge", "n1", "n2"))
    program.rule(Atom("path", (x, y)), Atom("edge", (x, y)))
    program.rule(Atom("path", (x, z)), Atom("edge", (x, y)), Atom("path", (y, z)))
    return program


def codes_of(analysis):
    return {d.code for d in analysis.diagnostics}


def assert_strict_rejects(program, code):
    with pytest.raises(ProgramAnalysisError) as info:
        DatalogEngine(program, check="strict")
    assert any(d.code == code for d in info.value.diagnostics)


# ---------------------------------------------------------------------------
# The clean base
# ---------------------------------------------------------------------------


class TestCleanBase:
    def test_base_is_clean(self):
        analysis = analyze_program(tc_base())
        assert analysis.diagnostics == ()
        assert analysis.ok

    def test_strict_engine_accepts_clean_program(self):
        engine = DatalogEngine(tc_base(), check="strict")
        assert atom("path", "n0", "n2") in engine.least_model()
        assert engine.diagnostics == ()

    def test_signatures_inferred(self):
        analysis = analyze_program(tc_base())
        edge = analysis.signature_of("edge", 2)
        assert edge.facts == 2 and edge.rule_heads == 0
        assert edge.column_kinds == (frozenset({"symbol"}), frozenset({"symbol"}))
        path = analysis.signature_of("path", 2)
        assert path.facts == 0 and path.rule_heads == 2
        assert analysis.signature_of("ghost", 1) is None


# ---------------------------------------------------------------------------
# Seeded defects: one planted defect, exactly one code fires
# ---------------------------------------------------------------------------


class TestSeededDefects:
    def test_dl001_unsafe_head_variable(self):
        program = tc_base()
        program.rules.append(
            unchecked_rule(Atom("path", (x, z)), (DatalogLiteral(Atom("edge", (x, y))),))
        )
        analysis = analyze_program(program)
        assert codes_of(analysis) == {UNSAFE_HEAD_VARIABLE}
        (diagnostic,) = analysis.by_code(UNSAFE_HEAD_VARIABLE)
        assert diagnostic.severity == "error"
        assert diagnostic.rule_index == 2 and diagnostic.variable == "z"
        assert "head variable 'z'" in diagnostic.message
        assert_strict_rejects(program, UNSAFE_HEAD_VARIABLE)

    def test_dl002_unbound_under_negation(self):
        program = tc_base()
        program.rules.append(
            unchecked_rule(
                Atom("blocked", (x,)),
                (
                    DatalogLiteral(Atom("edge", (x, y))),
                    DatalogLiteral(Atom("path", (x, z)), False),
                ),
            )
        )
        analysis = analyze_program(program)
        assert codes_of(analysis) == {UNBOUND_UNDER_NEGATION}
        (diagnostic,) = analysis.by_code(UNBOUND_UNDER_NEGATION)
        assert diagnostic.severity == "error"
        assert diagnostic.rule_index == 2 and diagnostic.variable == "z"
        assert_strict_rejects(program, UNBOUND_UNDER_NEGATION)

    def test_dl003_arity_conflict(self):
        program = tc_base()
        program.add_fact(atom("edge", "a", "b", "c"))
        analysis = analyze_program(program)
        assert codes_of(analysis) == {ARITY_CONFLICT}
        (diagnostic,) = analysis.by_code(ARITY_CONFLICT)
        assert diagnostic.severity == "error"
        assert "'edge'" in diagnostic.message
        assert "arity 2" in diagnostic.message and "arity 3" in diagnostic.message
        # Fact witnesses are formatted only when cited, but exactly as before.
        assert diagnostic.message == (
            "predicate 'edge' is used with conflicting arities: "
            "arity 2 in fact edge(n0, n1).; arity 3 in fact edge(a, b, c)."
        )
        assert_strict_rejects(program, ARITY_CONFLICT)

    def test_dl003_rejected_by_columnar_validation(self):
        program = tc_base()
        program.add_fact(atom("edge", "a", "b", "c"))
        with pytest.raises(ProgramAnalysisError) as info:
            analyze_program(program).validate_columns()
        assert any(d.code == ARITY_CONFLICT for d in info.value.diagnostics)

    def test_dl004_kind_conflict(self):
        program = tc_base()
        program.add_fact(atom("edge", "1", "n3"))
        analysis = analyze_program(program)
        assert codes_of(analysis) == {KIND_CONFLICT}
        (diagnostic,) = analysis.by_code(KIND_CONFLICT)
        assert diagnostic.severity == "warning"
        assert "column 0 of edge/2" in diagnostic.message
        assert diagnostic.message == (
            "column 0 of edge/2 mixes constant kinds: "
            "int in fact edge(1, n3).; symbol in fact edge(n0, n1)."
        )
        assert_strict_rejects(program, KIND_CONFLICT)

    def test_dl005_negative_cycle(self):
        program = tc_base()
        program.rule(Atom("p", (x,)), Atom("edge", (x, y)), (Atom("q", (x,)), False))
        program.rule(Atom("q", (x,)), Atom("edge", (x, y)), Atom("p", (x,)))
        analysis = analyze_program(program)
        assert codes_of(analysis) == {NEGATIVE_CYCLE}
        (diagnostic,) = analysis.by_code(NEGATIVE_CYCLE)
        assert diagnostic.severity == "error"
        assert "p/1 -not-> q/1" in diagnostic.message
        assert "-> p/1" in diagnostic.message
        assert_strict_rejects(program, NEGATIVE_CYCLE)

    def test_dl006_duplicate_rule(self):
        program = tc_base()
        program.rule(Atom("path", (u, v)), Atom("edge", (u, v)))
        analysis = analyze_program(program)
        assert codes_of(analysis) == {DUPLICATE_RULE}
        (diagnostic,) = analysis.by_code(DUPLICATE_RULE)
        assert diagnostic.severity == "warning"
        assert diagnostic.rule_index == 2
        assert "duplicates rule #0" in diagnostic.message
        assert_strict_rejects(program, DUPLICATE_RULE)

    def test_dl007_subsumed_rule(self):
        program = tc_base()
        program.rule(Atom("path", (x, y)), Atom("edge", (x, y)), Atom("edge", (x, y)))
        analysis = analyze_program(program)
        assert codes_of(analysis) == {SUBSUMED_RULE}
        (diagnostic,) = analysis.by_code(SUBSUMED_RULE)
        assert diagnostic.severity == "warning"
        assert diagnostic.rule_index == 2
        assert "subsumed by rule #0" in diagnostic.message
        assert_strict_rejects(program, SUBSUMED_RULE)

    def test_dl008_never_fire_rule(self):
        program = tc_base()
        program.rule(Atom("path", (x, y)), Atom("ghost", (x, y)))
        analysis = analyze_program(program)
        assert codes_of(analysis) == {DEAD_RULE}
        (diagnostic,) = analysis.by_code(DEAD_RULE)
        assert diagnostic.severity == "warning"
        assert diagnostic.rule_index == 2
        assert "ghost/2 has no facts" in diagnostic.message
        assert analysis.never_fire == frozenset({2})
        assert len(analysis.pruned_program().rules) == 2
        assert_strict_rejects(program, DEAD_RULE)

    def test_dl009_dead_predicate(self):
        program = tc_base()
        program.rule(Atom("orphan", (x,)), Atom("ghost", (x,)))
        analysis = analyze_program(program)
        assert codes_of(analysis) == {DEAD_RULE, DEAD_PREDICATE}
        (diagnostic,) = analysis.by_code(DEAD_PREDICATE)
        assert diagnostic.severity == "warning"
        assert diagnostic.predicate == "orphan/1"
        assert_strict_rejects(program, DEAD_PREDICATE)

    def test_dl008_dl009_output_unreachable(self):
        program = tc_base()
        program.rule(Atom("aux", (x,)), Atom("edge", (x, y)))
        program.declare_output("path", 2)
        analysis = analyze_program(program)
        assert codes_of(analysis) == {DEAD_RULE, DEAD_PREDICATE}
        (diagnostic,) = analysis.by_code(DEAD_RULE)
        assert "does not contribute to any declared output" in diagnostic.message
        assert diagnostic.rule_index == 2
        # Output-unreachability is diagnosed but never pruned.
        assert analysis.never_fire == frozenset()
        assert analysis.pruned_program() is program
        assert analysis.dead_rules == frozenset({2})

    def test_dl010_unknown_output(self):
        program = tc_base()
        program.declare_output("path", 2).declare_output("result", 1)
        analysis = analyze_program(program)
        assert codes_of(analysis) == {UNKNOWN_OUTPUT}
        (diagnostic,) = analysis.by_code(UNKNOWN_OUTPUT)
        assert diagnostic.severity == "warning"
        assert diagnostic.predicate == "result/1"
        assert_strict_rejects(program, UNKNOWN_OUTPUT)

    def test_diagnostics_sorted_errors_first(self):
        program = tc_base()
        program.rule(Atom("path", (x, y)), Atom("ghost", (x, y)))  # DL008 warning
        program.add_fact(atom("edge", "a", "b", "c"))              # DL003 error
        analysis = analyze_program(program)
        severities = [d.severity for d in analysis.diagnostics]
        assert severities == sorted(severities, key=("error", "warning", "info").index)


# ---------------------------------------------------------------------------
# Diagnostic formatting
# ---------------------------------------------------------------------------


class TestDiagnostic:
    def test_str_carries_location_code_and_hint(self):
        diagnostic = Diagnostic(
            code=DEAD_RULE, severity="warning", message="rule #3 never fires",
            rule_index=3, line=7, suggestion="remove it",
        )
        text = str(diagnostic)
        assert "line 7" in text and "[DL008]" in text
        assert "rule #3 never fires" in text and "(hint: remove it)" in text

    def test_report_lists_every_diagnostic(self):
        program = tc_base()
        program.rule(Atom("path", (x, y)), Atom("ghost", (x, y)))
        report = analyze_program(program).report()
        assert "DL008" in report and "ghost/2" in report
        assert analyze_program(tc_base()).report() == ""


# ---------------------------------------------------------------------------
# Shared safety path: DatalogRule construction raises through the analyzer
# ---------------------------------------------------------------------------


class TestSafetySharedWithConstruction:
    def test_unsafe_rule_error_carries_diagnostics(self):
        with pytest.raises(UnsafeRuleError) as info:
            DatalogRule(Atom("p", (x, y)), (DatalogLiteral(Atom("q", (x,))),))
        (diagnostic,) = info.value.diagnostics
        assert diagnostic.code == UNSAFE_HEAD_VARIABLE
        assert diagnostic.variable == "y"
        assert "head variable 'y'" in str(info.value)

    def test_rule_safety_on_safe_rule_is_empty(self):
        rule = DatalogRule(Atom("p", (x,)), (DatalogLiteral(Atom("q", (x,))),))
        assert rule_safety(rule) == ()

    def test_rule_safety_reports_each_variable_once(self):
        rule = unchecked_rule(
            Atom("p", (x, y, z)), (DatalogLiteral(Atom("q", (x,))),)
        )
        found = rule_safety(rule, rule_index=5, line=12)
        assert [d.variable for d in found] == ["y", "z"]
        assert all(d.rule_index == 5 and d.line == 12 for d in found)


# ---------------------------------------------------------------------------
# Engine integration: check modes, pruning, caching
# ---------------------------------------------------------------------------


class TestEngineCheckModes:
    def test_check_modes_constant(self):
        assert CHECK_MODES == ("off", "warn", "strict")

    def test_invalid_check_mode_rejected(self):
        with pytest.raises(ValueError):
            DatalogEngine(tc_base(), check="pedantic")

    def test_warn_is_the_default_and_records_diagnostics(self):
        program = tc_base()
        program.rule(Atom("path", (x, y)), Atom("ghost", (x, y)))
        engine = DatalogEngine(program)
        assert engine.check == "warn"
        engine.least_model()
        assert [d.code for d in engine.diagnostics] == [DEAD_RULE]

    def test_warn_mode_emits_warning_only_for_errors(self):
        program = tc_base()
        program.rules.append(
            unchecked_rule(Atom("path", (x, z)), (DatalogLiteral(Atom("edge", (x, y))),))
        )
        engine = DatalogEngine(program)
        with pytest.warns(ProgramAnalysisWarning, match="DL001"):
            engine.ensure_checked()
        # Warning-severity findings stay silent (recorded, not warned).
        dead = tc_base()
        dead.rule(Atom("path", (x, y)), Atom("ghost", (x, y)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            DatalogEngine(dead).least_model()

    def test_warn_prunes_never_fire_rules_before_evaluation(self):
        program = tc_base()
        program.rule(Atom("path", (x, y)), Atom("ghost", (x, y)))
        engine = DatalogEngine(program)
        engine.least_model()
        assert len(engine._effective_program().rules) == 2
        assert len(program.rules) == 3  # the program object is untouched

    def test_warn_and_off_compute_the_same_model(self):
        program = tc_base()
        program.rule(Atom("path", (x, y)), Atom("ghost", (x, y)))
        warn = DatalogEngine(program, check="warn").least_model()
        off = DatalogEngine(program, check="off").least_model()
        assert warn == off

    def test_off_mode_skips_analysis(self):
        program = tc_base()
        program.rule(Atom("path", (x, y)), Atom("ghost", (x, y)))
        engine = DatalogEngine(program, check="off")
        engine.least_model()
        assert engine.diagnostics == ()
        assert engine._effective_program() is program

    def test_strict_rejects_at_construction(self):
        program = tc_base()
        program.rule(Atom("path", (x, y)), Atom("ghost", (x, y)))
        with pytest.raises(ProgramAnalysisError):
            DatalogEngine(program, check="strict")

    def test_analysis_tracks_program_growth(self):
        program = tc_base()
        engine = DatalogEngine(program)
        engine.least_model()
        assert engine.diagnostics == ()
        program.rule(Atom("path", (x, y)), Atom("ghost", (x, y)))
        engine.least_model()
        assert [d.code for d in engine.diagnostics] == [DEAD_RULE]
        assert len(engine._effective_program().rules) == 2

    def test_query_runs_under_warn_with_pruning(self):
        program = tc_base()
        program.rule(Atom("path", (x, y)), Atom("ghost", (x, y)))
        result = DatalogEngine(program).query(Atom("path", (Parameter("n0"), z)))
        assert sorted(s[z].name for s in result) == ["n1", "n2"]

    def test_magic_fallback_reason_cites_the_negative_cycle(self):
        # Stratified program whose magic rewriting is unstratifiable (the
        # SIP schedules q both after the negation and inside r's magic
        # sub-computation); auto mode falls back, citing the actual cycle.
        w = Variable("w")
        program = DatalogProgram()
        program.add_fact(atom("a", "n1", "n2"))
        program.add_fact(atom("b", "n2", "n3"))
        program.add_fact(atom("c", "n2", "n3"))
        program.add_fact(atom("d", "n3"))
        program.rule(
            Atom("p", (x,)),
            Atom("a", (x, y)),
            (Atom("r", (y,)), False),
            Atom("b", (y, z)),
            Atom("q", (z,)),
        )
        program.rule(Atom("r", (y,)), Atom("c", (y, w)), Atom("q", (w,)))
        program.rule(Atom("q", (z,)), Atom("d", (z,)))
        result = DatalogEngine(program).query(Atom("p", (Parameter("n1"),)))
        assert result.mode == "full"
        assert "-not->" in result.fallback_reason


# ---------------------------------------------------------------------------
# Graph helpers
# ---------------------------------------------------------------------------


class TestCycleExplanation:
    def test_negative_cycle_spells_out_the_path(self):
        program = tc_base()
        program.rule(Atom("p", (x,)), Atom("edge", (x, y)), (Atom("q", (x,)), False))
        program.rule(Atom("q", (x,)), Atom("edge", (x, y)), Atom("p", (x,)))
        components, component_of, positive, negative = condensation_of(program.rules)
        p, q = ("p", 1), ("q", 1)
        assert component_of[p] == component_of[q]
        cycle = negative_cycle(p, q, components[component_of[p]], positive, negative)
        assert cycle[0] == (p, "not", q)
        assert cycle[-1][2] == p
        assert format_cycle(cycle) == "p/1 -not-> q/1 -> p/1"

    def test_self_negation_cycle(self):
        program = DatalogProgram()
        program.add_fact(atom("e", "a"))
        program.rule(Atom("p", (x,)), Atom("e", (x,)), (Atom("p", (x,)), False))
        (diagnostic,) = analyze_program(program).by_code(NEGATIVE_CYCLE)
        assert "p/1 -not-> p/1" in diagnostic.message

    def test_condensation_orders_dependencies_first(self):
        program = tc_base()
        program.rule(Atom("reach", (x,)), Atom("path", (x, y)))
        components, component_of, _, _ = condensation_of(program.rules)
        assert component_of[("path", 2)] < component_of[("reach", 1)]
        # The graph is IDB-only: EDB predicates are not nodes.
        assert ("edge", 2) not in component_of


class TestSubsumption:
    def test_renamed_rule_subsumes_both_ways(self):
        a = DatalogRule(Atom("p", (x, y)), (DatalogLiteral(Atom("e", (x, y))),))
        b = DatalogRule(Atom("p", (u, v)), (DatalogLiteral(Atom("e", (u, v))),))
        assert subsumes(a, b) and subsumes(b, a)

    def test_general_rule_subsumes_specialisation(self):
        general = DatalogRule(Atom("p", (x, y)), (DatalogLiteral(Atom("e", (x, y))),))
        specific = DatalogRule(Atom("p", (x, x)), (DatalogLiteral(Atom("e", (x, x))),))
        assert subsumes(general, specific)
        assert not subsumes(specific, general)

    def test_negation_must_match_sign(self):
        w_pos = DatalogRule(
            Atom("p", (x,)),
            (DatalogLiteral(Atom("e", (x,))), DatalogLiteral(Atom("q", (x,)))),
        )
        w_neg = DatalogRule(
            Atom("p", (x,)),
            (DatalogLiteral(Atom("e", (x,))), DatalogLiteral(Atom("q", (x,)), False)),
        )
        assert not subsumes(w_pos, w_neg)
        assert not subsumes(w_neg, w_pos)


# ---------------------------------------------------------------------------
# The textual front end + CLI
# ---------------------------------------------------------------------------

GOOD_SOURCE = """\
% transitive closure
edge(n0, n1).
edge(n1, n2).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
.output path/2
"""

BAD_SOURCE = """\
e(a).
p(X) :- e(X), not q(X).
q(X) :- e(X), p(X).
"""


class TestParser:
    def test_parse_clean_program(self):
        program, rule_lines = parse_program(GOOD_SOURCE)
        assert len(program.facts) == 2 and len(program.rules) == 2
        assert program.outputs == {("path", 2)}
        assert rule_lines == {0: 4, 1: 5}
        assert analyze_program(program, rule_lines=rule_lines).ok

    def test_parse_negation_spellings(self):
        for negation in ("not q(X)", "!q(X)"):
            program, _ = parse_program(f"e(a).\np(X) :- e(X), {negation}.\n")
            literal = program.rules[0].body[1]
            assert literal.atom.predicate == "q" and not literal.positive

    def test_unsafe_rule_is_kept_for_diagnosis(self):
        program, rule_lines = parse_program("e(a).\np(X, Y) :- e(X).\n")
        analysis = analyze_program(program, rule_lines=rule_lines)
        (diagnostic,) = analysis.by_code(UNSAFE_HEAD_VARIABLE)
        assert diagnostic.line == 2

    def test_missing_terminator_is_a_parse_error(self):
        with pytest.raises(ParseError, match="missing its final"):
            parse_program("e(a)")

    def test_garbage_atom_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_program("p(X :- q(X).\n")


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "tc.dl"
        path.write_text(GOOD_SOURCE)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_bad_file_exits_one_and_prints_the_cycle(self, tmp_path, capsys):
        path = tmp_path / "bad.dl"
        path.write_text(BAD_SOURCE)
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "DL005" in out and "-not->" in out

    def test_strict_turns_warnings_into_failure(self, tmp_path, capsys):
        # A never-fire rule is warning-severity: exit 0 normally, 1 under
        # --strict (the engine's check="strict" contract).
        path = tmp_path / "dead.dl"
        path.write_text("e(a).\np(X) :- e(X).\nq(X) :- ghost(X).\n")
        assert main([str(path)]) == 0
        capsys.readouterr()
        assert main(["--strict", str(path)]) == 1
        assert "DL008" in capsys.readouterr().out

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.dl"
        path.write_text("e(a)\n")
        assert main([str(path)]) == 2
        assert "parse error" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.dl")]) == 2
        assert "cannot read" in capsys.readouterr().out

    def test_workload_lints_clean(self, capsys):
        assert main(["--workload", "chain", "--param", "length=10"]) == 0
        out = capsys.readouterr().out
        assert "workload:chain" in out and "0 error(s)" in out

    def test_unknown_workload_exits_two(self, capsys):
        assert main(["--workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().out

    def test_bad_param_exits_two(self, capsys):
        assert main(["--workload", "chain", "--param", "length=ten"]) == 2
        capsys.readouterr()
        assert main(["--workload", "chain", "--param", "bogus=3"]) == 2

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        assert main([]) == 2
        capsys.readouterr()
        path = tmp_path / "a.dl"
        path.write_text("e(a).\n")
        assert main(["--workload", "chain", str(path)]) == 2

    def test_codes_table(self, capsys):
        assert main(["--codes"]) == 0
        out = capsys.readouterr().out
        for code in ("DL001", "DL005", "DL010"):
            assert code in out


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------

WORKLOAD_PARAMS = {
    "chain": {
        "length": st.integers(2, 30),
        "fanout": st.integers(1, 3),
        "seed": st.integers(0, 3),
    },
    "transitive-closure": {
        "chains": st.integers(1, 5),
        "length": st.integers(2, 8),
        "extra_edges": st.integers(0, 5),
        "seed": st.integers(0, 3),
    },
    "independent-components": {
        "components": st.integers(1, 4),
        "chains": st.integers(1, 4),
        "length": st.integers(2, 5),
        "seed": st.integers(0, 3),
    },
    "same-generation": {
        "depth": st.integers(1, 4),
        "branching": st.integers(1, 3),
        "seed": st.integers(0, 3),
    },
    "join-chain": {
        "relations": st.integers(2, 4),
        "rows": st.integers(5, 50),
        "distinct_values": st.integers(2, 10),
        "seed": st.integers(0, 3),
    },
}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_workload_generator_lints_clean_under_strict(data):
    """Every shipped workload builder produces a program the strict checker
    accepts — the analyzer's false-positive guard."""
    name = data.draw(st.sampled_from(sorted(WORKLOAD_PROGRAMS)))
    parameters = {
        key: data.draw(strategy, label=f"{name}.{key}")
        for key, strategy in WORKLOAD_PARAMS[name].items()
    }
    program = WORKLOAD_PROGRAMS[name](**parameters)
    engine = DatalogEngine(program, check="strict")
    assert engine.diagnostics == ()


assert set(WORKLOAD_PARAMS) == set(WORKLOAD_PROGRAMS)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=10),
    st.booleans(),
)
def test_warn_mode_never_changes_the_model(edges, seed_dead_rule):
    """`check="warn"` (the default) computes the identical least model to
    `check="off"` — analysis and pruning are observationally invisible."""

    def build():
        program = DatalogProgram()
        for source, target in edges:
            program.add_fact(atom("edge", f"n{source}", f"n{target}"))
        program.rule(Atom("path", (x, y)), Atom("edge", (x, y)))
        program.rule(Atom("path", (x, z)), Atom("edge", (x, y)), Atom("path", (y, z)))
        if seed_dead_rule:
            program.rule(Atom("path", (x, y)), Atom("ghost", (x, y)))
        return program

    warn = DatalogEngine(build(), check="warn").least_model()
    off = DatalogEngine(build(), check="off").least_model()
    assert warn == off
