"""Weakest preterms, conditional terms, and probabilistic triple checking."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

import gen
from phl import core
from phl.core import EMPTY_INTERP, PRel, RatConst, RBin, point_dist, to_source
from phl.assertions import DistFamily, StateWindow, eval_real, sat_prob
from phl.parser import (
    parse_command, parse_det_formula, parse_prob_formula, parse_real_expr,
    parse_triple,
)
from phl.semantics import execute, restrict
from phl.preterm import check_triple_prob, cond_term, pas_preterm_linear, pt, wp_prob
from phl.wp import wp
from reference import (
    pas_preterm_subset_sum, pt_semantic_oracle, wp_prob_per_relation,
)

import strategies as sts

HALF = Fraction(1, 2)
DIVERGE = "while true do { skip }"
CSTAR = ("X :=$ {1/3:0, 2/3:1}; "
         "if X = 0 then { while true do { skip } } else { skip }")
COIN = "while X > 0 do { X := X - 1 [1/2] skip }"


def family(names=("X",), lo=-2, hi=2, seed=0, mixtures=12):
    return DistFamily.build(StateWindow.make(names, lo, hi), seed=seed,
                            mixtures=mixtures)


class TestCondTerm:
    def test_prob_atom_conjoins(self):
        r = cond_term(parse_real_expr("P(X = 0)"), parse_det_formula("Y > 0"))
        assert to_source(r) == "P(X = 0 && (Y > 0))"

    def test_constants_unchanged(self):
        b = parse_det_formula("X = 0")
        assert cond_term(parse_real_expr("1/2"), b) == RatConst(HALF)
        assert cond_term(parse_real_expr("@eps"), b) == parse_real_expr("@eps")

    def test_distributes_over_operators(self):
        r = cond_term(parse_real_expr("P(X = 0) + 2 * P(Y = 0)"),
                      parse_det_formula("X > 0"))
        assert to_source(r) == \
            "P(X = 0 && (X > 0)) + 2 * P(Y = 0 && (X > 0))"

    @given(sts.real_exprs(), sts.guards(), sts.subdists())
    def test_restriction_lemma(self, r, b, mu):
        lhs = eval_real(cond_term(r, b), mu, sts.RINTERP)
        rhs = eval_real(r, restrict(mu, b), sts.RINTERP)
        assert lhs == rhs


class TestPasForms:
    def test_subset_sum_shape(self):
        c = parse_command("X :=$ {1/3:0, 2/3:1}")
        r = pas_preterm_subset_sum(c.dist, "X", parse_det_formula("X = 0"))
        # three nonempty subsets of a two-value support, full subset first
        assert to_source(r) == ("1 * P(0 = 0 && (1 = 0)) + "
                                     "1/3 * P(0 = 0 && !(1 = 0)) + "
                                     "2/3 * P(!(0 = 0) && (1 = 0))")

    def test_linear_shape(self):
        c = parse_command("X :=$ {1/3:0, 2/3:1}")
        r = pas_preterm_linear(c.dist, "X", parse_det_formula("X = 0"))
        assert to_source(r) == "1/3 * P(0 = 0) + 2/3 * P(1 = 0)"

    def test_subset_sum_refuses_wide_support(self):
        pairs = ", ".join(f"1/16:{k}" for k in range(16))
        c = parse_command("X :=$ {%s}" % pairs)
        with pytest.raises(ValueError, match="limit"):
            pas_preterm_subset_sum(c.dist, "X", parse_det_formula("X = 0"))

    def test_pt_of_wide_pas_matches_oracle(self):
        pairs = ", ".join(f"1/10:{k}" for k in range(10))
        c = parse_command("X :=$ {%s}; Y := X + Y" % pairs)
        r = parse_real_expr("P(Y >= 2)")
        term, _ = pt(c, r)
        for _, mu in family(("X", "Y"), -1, 1):
            assert eval_real(term, mu, EMPTY_INTERP) == pt_semantic_oracle(c, r, mu)

    @given(sts.dist_specs(), sts.det_formulas(), sts.subdists())
    @settings(max_examples=60)
    def test_forms_agree(self, dist, phi, mu):
        a = pas_preterm_subset_sum(dist, "X", phi)
        b = pas_preterm_linear(dist, "X", phi)
        assert eval_real(a, mu, EMPTY_INTERP) == eval_real(b, mu, EMPTY_INTERP)


class TestPtExamples:
    def test_diverging_loop(self):
        r, (ex,) = pt(parse_command(DIVERGE), parse_real_expr("P(true)"))
        assert eval_real(r, point_dist({"X": 0}), EMPTY_INTERP) == 0
        assert not ex.exhaustive
        # no run terminates, so every termination class is empty
        assert ex.sum_term == RatConst(Fraction(0))

    def test_choice_then_conditional_divergence(self):
        r, _ = pt(parse_command(CSTAR), parse_real_expr("P(true)"))
        for _, mu in family():
            got = eval_real(r, mu, EMPTY_INTERP)
            assert got == Fraction(2, 3) * mu.mass

    def test_assign(self):
        r, _ = pt(parse_command("X := X + 1"), parse_real_expr("P(X = 2)"))
        assert to_source(r) == "P(X + 1 = 2)"

    def test_if_conditions_both_arms(self):
        r, _ = pt(parse_command("if X = 0 then { X := 1 } else { skip }"),
                  parse_real_expr("P(X = 1)"))
        assert eval_real(r, point_dist({"X": 0}), EMPTY_INTERP) == 1
        mu = point_dist({"X": 0}).scale(HALF) + point_dist({"X": 5}).scale(HALF)
        assert eval_real(r, mu, EMPTY_INTERP) == HALF

    def test_terminating_loop_exhaustive_on_window(self):
        c = parse_command("while X > 0 do { X := X - 1 }")
        r, (ex,) = pt(c, parse_real_expr("P(X = 0)"),
                      window=StateWindow.make(("X",), -2, 2))
        assert ex.exhaustive
        mu = point_dist({"X": 2}).scale(HALF) + point_dist({"X": -1}).scale(HALF)
        assert eval_real(r, mu, EMPTY_INTERP) == HALF

    def test_mixed_mass_through_partial_divergence(self):
        # mass on X=0 diverges, mass elsewhere passes through: the preterm
        # must weight states independently, not multiply scalar factors
        c = parse_command("while X = 0 do { skip }")
        r, _ = pt(c, parse_real_expr("P(true)"))
        mu = point_dist({"X": 0}).scale(HALF) + point_dist({"X": 5}).scale(Fraction(1, 4))
        assert eval_real(r, mu, EMPTY_INTERP) == Fraction(1, 4)

    def test_loop_with_escape_matches_oracle_per_member(self):
        c = parse_command("while X = 0 do { X := 1 }")
        r, _ = pt(c, parse_real_expr("P(true)"))
        for _, mu in family():
            assert eval_real(r, mu, EMPTY_INTERP) \
                == pt_semantic_oracle(c, parse_real_expr("P(true)"), mu, EMPTY_INTERP)


class TestCharacterization:
    @given(sts.loopfree_commands(), sts.real_exprs(), sts.subdists())
    @settings(deadline=None, max_examples=60)
    def test_loopfree(self, c, r, mu):
        term, _ = pt(c, r, window=sts.WINDOW, qwindow=sts.QWINDOW)
        got = eval_real(term, mu, sts.RINTERP, sts.QWINDOW)
        want = pt_semantic_oracle(c, r, mu, sts.RINTERP, qwindow=sts.QWINDOW)
        assert got == want

    @given(sts.safe_loops(), sts.real_exprs(), sts.subdists())
    @settings(deadline=None, max_examples=40)
    def test_safe_loops(self, c, r, mu):
        term, expansions = pt(c, r, window=sts.WINDOW, qwindow=sts.QWINDOW)
        assert all(ex.exhaustive for ex in expansions)
        got = eval_real(term, mu, sts.RINTERP, sts.QWINDOW)
        want = pt_semantic_oracle(c, r, mu, sts.RINTERP, qwindow=sts.QWINDOW)
        assert got == want


class TestWpProb:
    def test_applies_to_both_sides(self):
        f, _ = wp_prob(parse_command("X := X + 1"),
                       parse_prob_formula("P(X = 2) <= 1/2"))
        assert to_source(f) == "P(X + 1 = 2) <= 1/2"

    def test_distributes_over_connectives(self):
        # the substituted atoms fold: 0 = 0 to true, and P(0 = 1) to the
        # constant 0, whose relation to 0 becomes the trivial 0 = 0
        f, _ = wp_prob(parse_command("X := 0"),
                       parse_prob_formula("P(X = 0) = 1 -> P(X = 1) = 0"))
        assert to_source(f) == "P(true) = 1 -> 0 = 0"

    @given(sts.loopfree_commands(), sts.real_exprs(), sts.real_exprs(),
           sts.subdists())
    @settings(deadline=None, max_examples=40)
    def test_satisfaction_transfers(self, c, a, b, mu):
        phi = PRel("<=", a, b)
        f, _ = wp_prob(c, phi, window=sts.WINDOW, qwindow=sts.QWINDOW)
        pre = sat_prob(f, mu, sts.RINTERP, sts.QWINDOW)
        post = sat_prob(phi, execute(c, mu).output, sts.RINTERP, sts.QWINDOW)
        assert pre == post


    def test_is_pt(self):
        # the paper's WP(C, Phi) is Phi with each real expression r replaced
        # by pt(C, r): one function serves both
        assert wp_prob is pt

    def test_rejects_deterministic_formula(self):
        c, phi = parse_command("X := X + 1"), parse_det_formula("X = 0")
        for transform in (pt, wp_prob):
            with pytest.raises(TypeError, match="not a real expression or probabilistic"):
                transform(c, phi)

    def test_repeated_prob_term_expands_once(self):
        # P(X = 0) occurs in both atoms: one walk expands the loop for it
        # once, where one pt call per side expands it twice
        c = parse_command(COIN)
        phi = parse_prob_formula("P(X = 0) >= 1/2 && P(X = 0) <= 1")
        opts = dict(unroll=4, depth=2, window=StateWindow.make(("X", "_F0"), 0, 3))
        f, expansions = wp_prob(c, phi, **opts)
        want, oracle = wp_prob_per_relation(c, phi, **opts)
        assert f is want
        assert len(expansions) == 1 and len(oracle) == 2
        assert set(expansions) == set(oracle)

    def test_terms_that_meet_before_a_loop_expand_it_once(self):
        # P(Y = 1) and P(Y >= 1) both become P(true) before the loop
        c = parse_command(COIN + "; Y := 1")
        r = parse_real_expr("P(Y = 1) + P(Y >= 1)")
        opts = dict(unroll=4, depth=2, window=StateWindow.make(("X", "Y", "_F0"), 0, 3))
        term, expansions = pt(c, r, **opts)
        alone = [pt(c, parse_real_expr(t), **opts)
                 for t in ("P(Y = 1)", "P(Y >= 1)", "P(true)")]
        assert len(expansions) == 1
        assert [ex for _, exs in alone for ex in exs] == expansions * 3
        assert term is core.normalize_real(RBin("+", alone[0][0], alone[1][0]))
        assert alone[0][0] is alone[1][0]

    @given(sts.commands(loops=True), sts.shared_prob_formulas())
    @settings(deadline=None, max_examples=40)
    def test_one_walk_matches_per_relation_oracle(self, c, phi):
        opts = dict(unroll=8, depth=4, window=sts.WINDOW, qwindow=sts.QWINDOW)
        f, expansions = wp_prob(c, phi, **opts)
        want, oracle = wp_prob_per_relation(c, phi, **opts)
        assert f is want
        assert set(expansions) == set(oracle)
        assert len(expansions) <= len(oracle)


class TestCheckTripleProb:
    def test_paper_triples(self):
        t1 = parse_triple("{ true } %s { P(true) = 0 }" % DIVERGE)
        v1 = check_triple_prob(t1.pre, t1.command, t1.post, family())
        assert v1.holds and v1.inexact
        t2 = parse_triple("{ true } %s { P(true) <= 2/3 }" % CSTAR)
        v2 = check_triple_prob(t2.pre, t2.command, t2.post, family())
        assert v2.holds and v2.inexact

    def test_rejects_false_triple(self):
        t = parse_triple("{ true } X :=$ {1/2:0, 1/2:1} { P(X = 0) = 1 }")
        v = check_triple_prob(t.pre, t.command, t.post, family())
        assert not v.holds and v.counterexample is not None

    def test_exact_when_no_truncation(self):
        t = parse_triple("{ P(X = 0) = 1 } X := X + 1 { P(X = 1) = 1 }")
        v = check_triple_prob(t.pre, t.command, t.post, family())
        assert v.holds and not v.inexact and v.max_residual == 0

    def test_precondition_filters_members(self):
        t = parse_triple("{ P(true) = 1 } skip { P(true) = 1 }")
        # zero and half-mass members fail the precondition and are skipped
        assert check_triple_prob(t.pre, t.command, t.post, family()).holds

    def test_failing_inexact_verdict_names_residual(self):
        # the coin countdown terminates almost surely, but 64 unrollings
        # leave mass 2^-64 live at X = 1: the failure is the truncation's,
        # and the verdict says so as a holding one would
        t = parse_triple("{ P(X >= 0) = 1 } while X > 0 do { X := X - 1 [1/2] skip } "
                         "{ P(X = 0) = 1 }")
        names = ("X", "_F0")
        v = check_triple_prob(t.pre, t.command, t.post, family(names, 0, 8, mixtures=32))
        assert not v.holds and v.inexact and v.max_residual == HALF ** 64
        assert str(v).startswith("fails on ")
        assert str(v).endswith(
            ": counterexample point{X=1, _F0=0} under [] (loop truncation left "
            "residual mass up to 1/18446744073709551616; verdict is up to that "
            "residual)")


class TestMemoScope:
    """One memo scope per public transformer call: the term transforms share
    their tables across every call made inside it, and the scope closes when
    the outermost call ends."""

    LOOPS = {
        "coin": (parse_command(COIN), StateWindow.make(("X", "_F0"), -3, 3)),
        "generated": (gen.gen_safe_loop(random.Random(3), ("X", "Y")),
                      StateWindow.make(("X", "Y"), -2, 2)),
    }
    CALLS = {
        "pt": lambda c, w: pt(c, parse_real_expr("P(X = 0)"), unroll=8, depth=4,
                              window=w),
        "wp": lambda c, w: wp(c, parse_det_formula("X = 0"), unroll=8, window=w),
        "wp_prob": lambda c, w: wp_prob(c, parse_prob_formula("P(X = 0) >= 1/2"),
                                        unroll=8, depth=4, window=w),
    }

    @pytest.mark.parametrize("loop", sorted(LOOPS))
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_each_node_simplified_once_per_call(self, monkeypatch, loop, call):
        seen = {}
        for name in ("_simplify_step", "_normalize_step"):
            counter = seen[name] = Counter()

            def counted(n, go, step=getattr(core, name), counter=counter):
                counter[n] += 1
                return step(n, go)
            monkeypatch.setattr(core, name, counted)
        self.CALLS[call](*self.LOOPS[loop])
        assert seen["_simplify_step"]
        for name, counter in seen.items():
            assert max(counter.values(), default=0) <= 1, name

    def test_scope_closes_on_return_and_on_raise(self, monkeypatch):
        c, r = parse_command(COIN), parse_real_expr("P(X = 0)")
        assert core._SCOPE.get() is None
        pt(c, r, unroll=8, depth=4)
        assert core._SCOPE.get() is None
        scopes = []

        def failing(n, go):
            scopes.append(core._SCOPE.get())
            raise RuntimeError("step failed")
        monkeypatch.setattr(core, "_simplify_step", failing)
        with pytest.raises(RuntimeError, match="step failed"):
            pt(c, r, unroll=8, depth=4)
        assert scopes and scopes[0] is not None
        assert core._SCOPE.get() is None

    def test_no_table_is_shared_outside_a_scope(self):
        assert core.memo_table("simplify") is not core.memo_table("simplify")
