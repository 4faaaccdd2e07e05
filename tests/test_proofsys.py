"""Derivation checking for both proof systems and rule soundness."""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import gen
from phl import core, proofsys, semantics
from phl.assertions import StateWindow
from phl.core import (
    TRUE, And, Assign, If, Not, RandAssign, Seq, Skip, While, subst_prog_var,
)
from phl.parser import (
    SourceTriple, parse_command, parse_det_formula, parse_prob_formula,
    parse_triple,
)
from phl.proofsys import (
    DET_RULES, PROB_RULES, WP_AXIOMS, Derivation, build_wp_derivation,
    check_derivation, conseq_over, derivation_from_json, derivation_to_json,
    load_derivation,
)
from phl.wp import pas_precondition, wp
from reference import check_derivation_unshared, rule_soundness_suite

import strategies as sts

DIVERGE = "while true do { skip }"
CSTAR = ("X :=$ {1/3:0, 2/3:1}; "
         "if X = 0 then { while true do { skip } } else { skip }")

DIVERGE_DERIV = {
    "rule": "CONS",
    "conclusion": "{ true } while true do { skip } { P(true) = 0 }",
    "premises": [{
        "rule": "WHILE",
        "conclusion": "{ 0 = 0 } while true do { skip } { P(true) = 0 }",
    }],
}

CSTAR_DERIV = {
    "rule": "CONS",
    "conclusion": "{ true } %s { P(true) <= 2/3 }" % CSTAR,
    "premises": [{
        "rule": "SEQ",
        "conclusion": "{ 2/3 * P(true) <= 2/3 } %s { P(true) <= 2/3 }" % CSTAR,
        "premises": [
            {"rule": "PAS",
             "conclusion": "{ 2/3 * P(true) <= 2/3 } X :=$ {1/3:0, 2/3:1} "
                           "{ P(!(X = 0)) <= 2/3 }"},
            {"rule": "IF",
             "conclusion": "{ P(!(X = 0)) <= 2/3 } if X = 0 then "
                           "{ while true do { skip } } else { skip } "
                           "{ P(true) <= 2/3 }"},
        ],
    }],
}

COUNTDOWN_DERIV = {
    "rule": "WHILE",
    "conclusion": "{ X >= 0 } while X > 0 do { X := X - 1 } "
                  "{ X >= 0 && !(X > 0) }",
    "premises": [{
        "rule": "CONS",
        "conclusion": "{ X >= 0 && X > 0 } X := X - 1 { X >= 0 }",
        "premises": [{
            "rule": "AS",
            "conclusion": "{ X - 1 >= 0 } X := X - 1 { X >= 0 }",
        }],
    }],
}


class TestJson:
    def test_round_trip(self):
        d = derivation_from_json(CSTAR_DERIV)
        again = derivation_from_json(json.loads(json.dumps(derivation_to_json(d))))
        assert again == d

    def test_load(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text(json.dumps(DIVERGE_DERIV))
        assert load_derivation(str(p)) == derivation_from_json(DIVERGE_DERIV)

    def test_missing_rule_rejected(self):
        with pytest.raises(ValueError):
            derivation_from_json({"conclusion": "{ true } skip { true }"})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            derivation_from_json(["CONS"])

    def test_deep_derivation_within_the_recursion_limit(self):
        """A SEQ chain 400 levels deep is read and checked at the default
        recursion limit: reading costs few frames per level."""
        def skips(n):
            return "{ X = 0 } " + "; ".join(["skip"] * n) + " { X = 0 }"
        data = {"rule": "SKIP", "conclusion": skips(1)}
        for n in range(2, 401):
            data = {"rule": "SEQ", "conclusion": skips(n),
                    "premises": [{"rule": "SKIP", "conclusion": skips(1)}, data]}
        assert check_derivation(derivation_from_json(data)).accepted


class TestAcceptedDet:
    def test_skip_axiom(self):
        d = derivation_from_json(
            {"rule": "SKIP", "conclusion": "{ X = 0 } skip { X = 0 }"})
        assert check_derivation(d).accepted

    def test_assignment_axiom(self):
        d = derivation_from_json(
            {"rule": "AS", "conclusion": "{ X + 1 = 2 } X := X + 1 { X = 2 }"})
        assert check_derivation(d).accepted

    def test_random_assignment_axiom(self):
        d = derivation_from_json({
            "rule": "PAS",
            "conclusion": "{ 0 <= Y && (1 <= Y) } X :=$ {1/2:0, 1/2:1} "
                          "{ X <= Y }"})
        assert check_derivation(d).accepted

    def test_countdown_loop(self):
        v = check_derivation(derivation_from_json(COUNTDOWN_DERIV))
        assert v.accepted, v.failures

    def test_conjunction_rule(self):
        d = derivation_from_json({
            "rule": "AND",
            "conclusion": "{ X + 1 = 2 && (X + 1 > 0) } X := X + 1 "
                          "{ X = 2 && (X > 0) }",
            "premises": [
                {"rule": "AS", "conclusion": "{ X + 1 = 2 } X := X + 1 { X = 2 }"},
                {"rule": "AS", "conclusion": "{ X + 1 > 0 } X := X + 1 { X > 0 }"},
            ]})
        v = check_derivation(d)
        assert v.accepted, v.failures

    def test_cons_with_side_conditions(self):
        d = derivation_from_json({
            "rule": "CONS",
            "conclusion": "{ X = 1 } X := X + 1 { X > 0 }",
            "premises": [
                {"rule": "AS", "conclusion": "{ X + 1 > 0 } X := X + 1 { X > 0 }"}],
            "side": ["X = 1 -> X + 1 > 0"]})
        assert check_derivation(d).accepted


class TestAcceptedProb:
    def test_divergence_derivation(self):
        v = check_derivation(derivation_from_json(DIVERGE_DERIV))
        assert v.accepted, v.failures

    def test_choice_derivation(self):
        v = check_derivation(derivation_from_json(CSTAR_DERIV))
        assert v.accepted, v.failures

    def test_wp_axioms_accept_equivalent_preconditions(self):
        # the stated precondition only has to agree with the computed one on
        # the family, not match it verbatim
        d = derivation_from_json({
            "rule": "AS",
            "conclusion": "{ P(X = 1) = P(X = 0) } X := X + 1 "
                          "{ P(X = 2) = P(X = 1) }"})
        assert check_derivation(d).accepted


class TestConsIdenticalSides:
    @pytest.mark.parametrize("data", [
        {"rule": "CONS",
         "conclusion": "{ Z > 0 } skip { Z > 0 }",
         "premises": [{"rule": "SKIP", "conclusion": "{ Z > 0 } skip { Z > 0 }"}]},
        {"rule": "CONS",
         "conclusion": "{ P(Z > 0) = 1 } skip { P(Z > 0) = 1 }",
         "premises": [{"rule": "SKIP",
                       "conclusion": "{ P(Z > 0) = 1 } skip { P(Z > 0) = 1 }"}]},
    ], ids=["det", "prob"])
    def test_skips_implication_of_a_formula_by_itself(self, data):
        # the window lacks Z, so checking either implication would read an
        # unbound variable; a formula implies itself without a check
        window = StateWindow.make(("X",), -1, 1)
        v = check_derivation(derivation_from_json(data), window)
        assert v.accepted, v.failures


class TestRejected:
    def test_wrong_as_precondition(self):
        d = derivation_from_json(
            {"rule": "AS", "conclusion": "{ X = 2 } X := X + 1 { X = 2 }"})
        v = check_derivation(d)
        assert not v.accepted and "AS precondition" in v.failures[0]

    @pytest.mark.parametrize("data", [
        {"rule": "CONS",
         "conclusion": "{ true } X := X + 1 { X > 0 }",
         "premises": [
             {"rule": "AS", "conclusion": "{ X + 1 > 0 } X := X + 1 { X > 0 }"}]},
        {"rule": "CONS",
         "conclusion": "{ true } X := X + 1 { P(X > 0) = 1 }",
         "premises": [
             {"rule": "AS",
              "conclusion": "{ P(X + 1 > 0) = 1 } X := X + 1 { P(X > 0) = 1 }"}]},
    ], ids=["det", "prob"])
    def test_bad_cons_side(self, data):
        v = check_derivation(derivation_from_json(data))
        assert not v.accepted and "precondition implication fails" in v.failures[0]

    @pytest.mark.parametrize("data", [
        {"rule": "CONS",
         "conclusion": "{ X = 1 } X := X + 1 { X > 0 }",
         "premises": [
             {"rule": "AS", "conclusion": "{ X + 1 > 0 } X := X + 1 { X > 0 }"}],
         "side": ["X > 0"]},
        {"rule": "CONS",
         "conclusion": "{ P(X = 1) = 1 } X := X + 1 { P(X > 0) = 1 }",
         "premises": [
             {"rule": "AS",
              "conclusion": "{ P(X + 1 > 0) = 1 } X := X + 1 { P(X > 0) = 1 }"}],
         "side": ["P(X = 0) = 1"]},
    ], ids=["det", "prob"])
    def test_invalid_stated_side(self, data):
        # both implications hold; only the stated side formula is invalid
        v = check_derivation(derivation_from_json(data))
        assert not v.accepted
        assert v.failures[0].startswith("root: stated side condition")

    def test_and_not_in_probabilistic_system(self):
        d = derivation_from_json({
            "rule": "AND",
            "conclusion": "{ P(true) = 1 && P(true) = 1 } skip "
                          "{ P(true) = 1 && P(true) = 1 }",
            "premises": [
                {"rule": "SKIP", "conclusion": "{ P(true) = 1 } skip { P(true) = 1 }"},
                {"rule": "SKIP", "conclusion": "{ P(true) = 1 } skip { P(true) = 1 }"},
            ]})
        v = check_derivation(d)
        assert not v.accepted
        assert "not in the probabilistic system" in v.failures[0]

    def test_wrong_arity(self):
        d = derivation_from_json({
            "rule": "SKIP",
            "conclusion": "{ X = 0 } skip { X = 0 }",
            "premises": [
                {"rule": "SKIP", "conclusion": "{ X = 0 } skip { X = 0 }"}]})
        assert not check_derivation(d).accepted

    @pytest.mark.parametrize("conclusion", [
        "{ X = 0 } X := 0 { X = 0 }",
        "{ P(X = 0) = 1 } X := 0 { P(X = 0) = 1 }",
    ], ids=["det", "prob"])
    def test_rule_command_mismatch(self, conclusion):
        d = derivation_from_json({"rule": "SKIP", "conclusion": conclusion})
        v = check_derivation(d)
        assert not v.accepted and "skip only" in v.failures[0]

    def test_unknown_rule(self):
        d = derivation_from_json(
            {"rule": "FROBNICATE", "conclusion": "{ true } skip { true }"})
        assert not check_derivation(d).accepted

    @pytest.mark.parametrize("phi", ["true", "P(true) = 1"], ids=["det", "prob"])
    def test_failure_paths_name_nodes(self, phi):
        d = derivation_from_json({
            "rule": "SEQ",
            "conclusion": "{ %s } skip; skip { %s }" % (phi, phi),
            "premises": [
                {"rule": "SKIP", "conclusion": "{ %s } skip { %s }" % (phi, phi)},
                {"rule": "AS", "conclusion": "{ %s } skip { %s }" % (phi, phi)},
            ]})
        v = check_derivation(d)
        assert not v.accepted
        assert any(f.startswith("root.premises[1]") for f in v.failures)


# one command of each shape, and the noun each shape message uses
SHAPED = {
    "SKIP": ("skip", "skip"),
    "AS": ("X := 0", "assignments"),
    "PAS": ("X :=$ {1/2:0, 1/2:1}", "random assignments"),
    "SEQ": ("skip; skip", "sequential compositions"),
    "IF": ("if X = 0 then { skip } else { skip }", "conditionals"),
    "WHILE": ("while X = 0 do { skip }", "loops"),
}
SYSTEM_RULES = [("det", r) for r in DET_RULES] + [("prob", r) for r in PROB_RULES]


def _node(system, rule, command, premises=0):
    """A node of `rule` over `command` with `premises` SKIP premises."""
    prob = system == "prob"
    phi = parse_prob_formula("P(X = 0) = 1") if prob else parse_det_formula("X = 0")
    skip = Derivation("SKIP", SourceTriple(phi, Skip(), phi, prob))
    return Derivation(rule, SourceTriple(phi, parse_command(command), phi, prob),
                      (skip,) * premises)


class TestRuleTables:
    def test_rule_order(self):
        assert list(DET_RULES) == ["SKIP", "AS", "PAS", "SEQ", "IF", "WHILE",
                                   "CONS", "AND", "OR"]
        assert list(PROB_RULES) == ["SKIP", "AS", "PAS", "SEQ", "IF", "WHILE", "CONS"]

    def test_probabilistic_axioms_take_no_premises(self):
        for shape, rule in WP_AXIOMS.items():
            assert PROB_RULES[rule] == (shape, 0)
            assert DET_RULES[rule][0] is shape

    @pytest.mark.parametrize("system, rule", [
        (s, r) for s, r in SYSTEM_RULES
        if (DET_RULES if s == "det" else PROB_RULES)[r][0] is not None])
    def test_wrong_shape(self, system, rule):
        shape, count = (DET_RULES if system == "det" else PROB_RULES)[rule]
        other = "X := 0" if shape is Skip else "skip"
        noun = SHAPED[rule][1]
        v = check_derivation(_node(system, rule, other, count))
        assert v.failures == (f"root: {rule} applies to {noun} only",)

    @pytest.mark.parametrize("system, rule", SYSTEM_RULES)
    def test_wrong_premise_count(self, system, rule):
        shape, count = (DET_RULES if system == "det" else PROB_RULES)[rule]
        command = SHAPED["SKIP" if shape is None else rule][0]
        v = check_derivation(_node(system, rule, command, count + 1))
        assert v.failures[0] == (
            f"root: rule {rule} expects {count} premises, found {count + 1}")

    def test_wp_derivation_labels_axioms_by_the_table(self):
        c = parse_command("X := 1; X :=$ {1/2:0, 1/2:1}; "
                          "if X = 0 then { skip } else { X := 2 }; "
                          "while X > 1 do { X := X - 1 }")
        d = build_wp_derivation(c, parse_prob_formula("P(X = 0) >= 1/2"))
        seen, stack = [], [d]
        while stack:
            node = stack.pop()
            command = node.conclusion.command
            if not isinstance(command, (Seq, Skip)):
                assert node.rule == WP_AXIOMS[type(command)]
                assert PROB_RULES[node.rule] == (type(command), 0)
                seen.append(node.rule)
            stack.extend(node.premises)
        assert sorted(seen) == ["AS", "IF", "PAS", "WHILE"]
        v = check_derivation(d)
        assert v.accepted, v.failures


class TestBuilders:
    def test_wp_derivation_for_choice_program(self):
        t = parse_triple("{ true } %s { P(true) <= 2/3 }" % CSTAR)
        base = build_wp_derivation(t.command, t.post)
        full = conseq_over(base, t.pre)
        v = check_derivation(full)
        assert v.accepted, v.failures
        assert full.conclusion.pre == t.pre and full.conclusion.post == t.post

    def test_wp_derivation_rules_match_structure(self):
        t = parse_triple("{ true } %s { P(true) <= 2/3 }" % CSTAR)
        d = build_wp_derivation(t.command, t.post)
        assert d.rule == "SEQ"
        assert tuple(p.rule for p in d.premises) == ("PAS", "IF")


class TestSoundnessSuite:
    def test_small_run_is_clean(self):
        report = rule_soundness_suite(count=45, seed=3)
        assert report.ok, report.failures
        assert report.instances >= 45
        assert set(report.per_rule) == set(DET_RULES)
        assert all(n >= 5 for n in report.per_rule.values())


# ---------------------------------------------------------------------------
# One memo scope per derivation check


def det_derivation(c, post):
    """A deterministic derivation of {wp(C, post)} C {post}: the schema at
    each head, and CONS where an IF or WHILE premise restates its
    precondition or a loop's conclusion restates its postcondition.  Its
    WHILE nodes take the invariant true, so their CONS may fail."""
    if isinstance(c, Skip):
        return Derivation("SKIP", SourceTriple(post, c, post, False))
    if isinstance(c, Assign):
        pre = subst_prog_var(post, c.var, c.expr)
        return Derivation("AS", SourceTriple(pre, c, post, False))
    if isinstance(c, RandAssign):
        return Derivation("PAS", SourceTriple(pas_precondition(c, post), c, post, False))
    if isinstance(c, Seq):
        second = det_derivation(c.second, post)
        first = det_derivation(c.first, second.conclusion.pre)
        return Derivation("SEQ", SourceTriple(first.conclusion.pre, c, post, False),
                          (first, second))
    if isinstance(c, If):
        pre = wp(c, post, window=sts.WINDOW, qwindow=sts.QWINDOW)[0]
        then_d = conseq_over(det_derivation(c.then_branch, post), And(pre, c.guard))
        else_d = conseq_over(det_derivation(c.else_branch, post),
                             And(pre, Not(c.guard)))
        return Derivation("IF", SourceTriple(pre, c, post, False), (then_d, else_d))
    if isinstance(c, While):
        body = conseq_over(det_derivation(c.body, TRUE), And(TRUE, c.guard))
        loop = Derivation("WHILE", SourceTriple(TRUE, c, And(TRUE, Not(c.guard)), False),
                          (body,))
        return Derivation("CONS", SourceTriple(TRUE, c, post, False), (loop,))
    raise TypeError(f"not a command: {c!r}")


def tampered(d, rng, formula):
    """d, or d under a CONS whose precondition or stated side formula is
    drawn from formula(rng), and so often fails with a counterexample."""
    t = d.conclusion
    pick = rng.randrange(3)
    if pick == 0:
        return d
    if pick == 1:
        return conseq_over(d, formula(rng))
    return Derivation("CONS", SourceTriple(t.pre, t.command, t.post, t.prob), (d,),
                      (formula(rng),))


def both_verdicts(d):
    kwargs = dict(window=sts.WINDOW, qwindow=sts.QWINDOW, unroll=8, depth=4)
    return str(check_derivation(d, **kwargs)), str(check_derivation_unshared(d, **kwargs))


class TestSharedScope:
    """`check_derivation` opens one memo scope for the whole derivation and
    reads the window's kept states; its verdict text is the one of checking
    each node on its own with the states rebuilt."""

    @settings(max_examples=60, deadline=None)
    @given(sts.commands(loops=True), sts.seeds, st.booleans())
    def test_det_verdict_matches_per_node_checks(self, c, seed, logical):
        rng = random.Random(seed)
        lv = ("k",) if logical else ()
        post = gen.gen_formula(rng, sts.PV, 2, lv=lv)
        d = tampered(det_derivation(c, post), rng,
                     lambda r: gen.gen_formula(r, sts.PV, 2, lv=lv))
        shared, alone = both_verdicts(d)
        assert shared == alone

    @settings(max_examples=30, deadline=None)
    @given(sts.commands(loops=True), sts.prob_formulas(), sts.seeds)
    def test_prob_verdict_matches_per_node_checks(self, c, post, seed):
        rng = random.Random(seed)
        d = build_wp_derivation(c, post, sts.WINDOW, sts.QWINDOW, unroll=8, depth=4)
        d = tampered(d, rng, lambda r: sts.gen_prob_formula(r, 1))
        shared, alone = both_verdicts(d)
        assert shared == alone

    def test_tampered_cons_prints_its_counterexample(self):
        c = parse_command("if X > 0 then { X := X - 1 } else { Y := 1 }; X := X + Y")
        d = conseq_over(det_derivation(c, parse_det_formula("X >= 0")),
                        parse_det_formula("true"))
        shared, alone = both_verdicts(d)
        assert shared == alone
        assert "precondition implication fails" in shared
        assert "falsified at {X=" in shared

    def test_each_window_column_decided_once_per_call(self, monkeypatch):
        c = parse_command("if X > 0 then { X := X - 1 } else { Y := 1 }; "
                          "if Y > 0 then { Y := Y - 1 } else { X := X + Y }")
        d = conseq_over(det_derivation(c, parse_det_formula("X + Y >= 0")),
                        parse_det_formula("X >= 0 && Y >= 0"))
        rows = sts.WINDOW.states()
        seen = Counter()
        for cls, column in list(semantics._COLUMN.items()):
            def counted(b, n, column=column):
                if b.rows is rows:
                    seen[n, tuple(sorted(b.values.items())), b.qwindow] += 1
                return column(b, n)
            monkeypatch.setitem(semantics._COLUMN, cls, counted)
        v = check_derivation(d, sts.WINDOW, qwindow=sts.QWINDOW)
        assert v.accepted, v.failures
        assert seen and max(seen.values()) == 1

    def test_scope_closes_on_return_and_on_raise(self, monkeypatch):
        d = derivation_from_json(COUNTDOWN_DERIV)
        assert core._SCOPE.get() is None
        assert check_derivation(d).accepted
        assert core._SCOPE.get() is None
        scopes = []

        def failing(f, window, qwindow):
            scopes.append(core._SCOPE.get())
            raise RuntimeError("check failed")
        monkeypatch.setattr(proofsys, "check_valid_det", failing)
        with pytest.raises(RuntimeError, match="check failed"):
            check_derivation(d)
        assert scopes and scopes[0] is not None
        assert core._SCOPE.get() is None
