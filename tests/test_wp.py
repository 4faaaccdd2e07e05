"""Deterministic weakest preconditions and semantic triple checking."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phl.core import (
    EMPTY_INTERP, TRUE, And, Implies, Not, Or, UnboundVariable, log_vars,
    memo_scoped, point_dist, simplify_formula, to_source,
)
from phl.assertions import StateWindow, check_valid_det, interpretations
from phl.parser import parse_command, parse_det_formula, parse_triple
from phl.semantics import execute, sat_det, sat_det_dist
from phl.wp import check_triple_det, window_equivalent, wp
from reference import (
    iterate_cmd, window_equivalent_by_validity, wp_conjunction,
)

import strategies as sts

QW = sts.QWINDOW


def wp_matches_run(c, post, window, qwindow=QW, loop_bound=24):
    """The computed precondition holds at s exactly when running from s
    lands every output state in post."""
    f, traces = wp(c, post, unroll=16, window=window, qwindow=qwindow)
    assert all(t.converged for t in traces)
    for interp in interpretations(log_vars(post) | log_vars(f),
                                  qwindow):
        for s in window.states():
            out = execute(c, point_dist(s.as_dict()), loop_bound=loop_bound)
            assert out.exact
            want = sat_det_dist(post, out.output, interp, qwindow)
            got = sat_det(f, s, interp, qwindow)
            assert got == want, (to_source(f), str(s), interp)


class TestClauses:
    def test_skip(self):
        post = parse_det_formula("X = 1")
        assert wp(parse_command("skip"), post)[0] is post

    def test_assign_substitutes(self):
        f, _ = wp(parse_command("X := X + 1"), parse_det_formula("X = 2"))
        assert f == parse_det_formula("X + 1 = 2")

    def test_random_assign_conjoins_all_values(self):
        f, _ = wp(parse_command("X :=$ {1/2:0, 1/2:1}"), parse_det_formula("X <= Y"))
        assert f == And(parse_det_formula("0 <= Y"), parse_det_formula("1 <= Y"))

    def test_seq_composes(self):
        f, _ = wp(parse_command("X := Y; Y := X + 1"), parse_det_formula("Y = 3"))
        assert f == parse_det_formula("Y + 1 = 3")

    def test_if_splits_on_guard(self):
        f, _ = wp(parse_command("if X = 0 then { Y := 1 } else { Y := 2 }"),
                  parse_det_formula("Y = 1"))
        want = Or(And(parse_det_formula("X = 0"), parse_det_formula("1 = 1")),
                  And(Not(parse_det_formula("X = 0")), parse_det_formula("2 = 1")))
        # simplification may tighten the formula but not its meaning
        w = StateWindow.make(("X", "Y"), -2, 2)
        from phl.wp import window_equivalent
        assert window_equivalent(f, want, w)

    def test_loop_trace(self):
        # one unrolling settles this loop: enter once or not at all
        f, traces = wp(parse_command("while X = 0 do { X := 1 }"),
                       parse_det_formula("X = 1"))
        (t,) = traces
        assert t.converged and t.fixpoint_index == 2
        w = StateWindow.make(("X",), -2, 2)
        for s in w.states():
            want = s["X"] in (0, 1)
            assert sat_det(f, s, EMPTY_INTERP) == want

    def test_divergent_loop_precondition_is_trivial(self):
        # a loop that never exits satisfies every postcondition vacuously
        f, traces = wp(parse_command("while true do { skip }"),
                       parse_det_formula("X = 99"))
        assert traces[0].converged
        w = StateWindow.make(("X",), -2, 2)
        assert all(sat_det(f, s, EMPTY_INTERP) for s in w.states())

    def test_unroll_exhaustion_reported(self):
        # exit value depends on parity, so approximants keep separating
        # window states for five rounds; a three-round budget must report
        # non-convergence rather than pretend a fixpoint
        c = parse_command("while X > 0 do { X := X - 2 }")
        w = StateWindow.make(("X",), -8, 8)
        f, traces = wp(c, parse_det_formula("X = 0"), unroll=3, window=w)
        assert not traces[0].converged and traces[0].fixpoint_index is None
        f2, traces2 = wp(c, parse_det_formula("X = 0"), unroll=16, window=w)
        assert traces2[0].converged and traces2[0].fixpoint_index == 6
        for s in w.states():
            assert sat_det(f2, s, EMPTY_INTERP) == (s["X"] in (0, 2, 4, 6, 8))


class TestIterate:
    def test_zero_is_skip(self):
        from phl.core import Skip
        assert iterate_cmd(parse_command("X := X + 1"), 0) == Skip()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            iterate_cmd(parse_command("skip"), -1)

    def test_runs_n_times(self):
        c = iterate_cmd(parse_command("X := X + 1"), 5)
        out = execute(c, point_dist({"X": 0})).output
        assert out == point_dist({"X": 5})


class TestCharacterization:
    @given(sts.loopfree_commands(), sts.det_formulas(lv=("k",)))
    @settings(deadline=None, max_examples=60)
    def test_loopfree(self, c, post):
        wp_matches_run(c, post, sts.WINDOW)

    @given(sts.safe_loops(), sts.det_formulas())
    @settings(deadline=None, max_examples=40)
    def test_safe_loops(self, c, post):
        wp_matches_run(c, post, sts.WINDOW)


class TestCheckTriple:
    def test_holds(self):
        t = parse_triple("{ X >= 0 } X := X + 1 { X >= 1 }")
        assert check_triple_det(t.pre, t.command, t.post).holds

    def test_fails_with_counterexample(self):
        t = parse_triple("{ true } X := X + 1 { X >= 1 }")
        v = check_triple_det(t.pre, t.command, t.post,
                             window=StateWindow.make(("X",), -4, 4))
        assert not v.holds
        state, _ = v.counterexample
        assert state["X"] < 0

    def test_random_assign_needs_all_outcomes(self):
        t = parse_triple("{ true } X :=$ {1/2:0, 1/2:1} { X = 0 }")
        assert not check_triple_det(t.pre, t.command, t.post).holds

    def test_divergence_satisfies_anything(self):
        # possibility semantics: the empty output distribution satisfies
        # every postcondition, so total divergence validates this triple;
        # the bounded interpreter cannot rule out late termination, so the
        # verdict carries the full input mass as residual
        t = parse_triple("{ true } while true do { skip } { false }")
        v = check_triple_det(t.pre, t.command, t.post,
                             window=StateWindow.make(("X",), -2, 2))
        assert v.holds and v.inexact and v.max_residual == 1

    def test_truncation_reported(self):
        # geometric loop: the checker cannot exhaust the loop, so it reports
        # the residual it ran out on
        c = parse_command("while X = 0 do { X :=$ {1/2:0, 1/2:1} }")
        v = check_triple_det(TRUE, c, parse_det_formula("X = 1"),
                             window=StateWindow.make(("X",), 0, 1),
                             loop_bound=12)
        assert v.holds and v.inexact
        assert v.max_residual == Fraction(1, 2) ** 12

    def test_logical_vars_universal(self):
        t = parse_triple("{ X = k } X := X + 1 { X = k + 1 }")
        assert check_triple_det(t.pre, t.command, t.post,
                                window=StateWindow.make(("X",), -3, 3),
                                qwindow=(-3, 3)).holds

    @given(sts.loopfree_commands(), sts.det_formulas())
    @settings(deadline=None, max_examples=40)
    def test_wp_gives_valid_triples(self, c, post):
        pre, _ = wp(c, post, window=sts.WINDOW, qwindow=QW)
        assert check_triple_det(pre, c, post, window=sts.WINDOW, qwindow=QW).holds


class TestLastApproximant:
    """A loop's precondition is the last approximant of its chain, where it
    was the conjunction of the chain; the two agree beyond the window the
    fixpoint is tested on."""

    WIDE = StateWindow.make(sts.PV, -9, 9)
    X_ONLY = StateWindow.make(("X",), -2, 2)

    def agrees_with_conjunction(self, c, post):
        f, traces = wp(c, post, unroll=8, window=sts.WINDOW, qwindow=QW)
        g, _ = wp_conjunction(c, post, unroll=8, window=sts.WINDOW, qwindow=QW)
        for window in (sts.WINDOW, self.WIDE):
            assert window_equivalent_by_validity(f, g, window, QW), (str(f), str(g))
        return f, traces

    def descends(self, c, post):
        """Loop-free bodies: each approximant implies the one before it, so
        the result is the trace's last approximant and equals the old one."""
        f, traces = self.agrees_with_conjunction(c, post)
        assert f is traces[-1].approximants[-1]
        for t in traces:
            for before, after in zip(t.approximants, t.approximants[1:]):
                assert check_valid_det(Implies(after, before), self.WIDE, QW).valid

    @given(sts.safe_loops(), sts.det_formulas(lv=("k",)))
    @settings(deadline=None, max_examples=30)
    def test_safe_loops(self, c, post):
        self.descends(c, post)

    @given(sts.general_loops(), sts.det_formulas(lv=("k",)))
    @settings(deadline=None, max_examples=30)
    def test_general_loops(self, c, post):
        self.descends(c, post)

    @given(sts.nested_loops(), sts.det_formulas(lv=("k",)))
    @settings(deadline=None, max_examples=30)
    def test_nested_loops(self, c, post):
        self.agrees_with_conjunction(c, post)

    @given(sts.det_formulas(lv=("k",)), sts.det_formulas(lv=("k",)), st.integers(0, 3),
           st.sampled_from((sts.WINDOW, X_ONLY)), st.booleans())
    @settings(deadline=None, max_examples=150)
    def test_columns_decide_as_validity(self, f, g, how, window, scoped):
        """Same answer, or the same unbound read, as the validity of
        (f && g) || (!f && !g), inside a memo scope or not."""
        g = (g, Not(Not(f)), simplify_formula(f), Or(f, And(f, g)))[how]

        def outcome(check):
            try:
                return check(f, g, window, QW)
            except UnboundVariable as err:
                return "unbound", err.args[0]

        if scoped:
            outcome = memo_scoped(outcome)
        assert outcome(window_equivalent) == outcome(window_equivalent_by_validity)

    def test_shared_unbound_read_raises(self):
        """In a memo scope both columns hold the same unbound value of Y = 0;
        list equality would skip it and call the two equivalent."""
        f, g = parse_det_formula("Y = 0 && X = 1"), parse_det_formula("Y = 0")
        with pytest.raises(UnboundVariable):
            memo_scoped(window_equivalent)(f, g, self.X_ONLY)
