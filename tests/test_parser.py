"""Concrete syntax: grammar coverage, desugaring, errors, round trips, the
recursive-descent reference, nesting depth."""

import os
import random
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from phl.core import (
    ABin, And, ArithExpr, Assign, Command, DistSpec, Forall, Formula, If,
    IntConst, LogVar, Not, Or, Implies, PAnd, PImplies, PNot, POr, PRel, Prob,
    ProbFormula, ProgVar, RandAssign, RatConst, RBin, RealExpr, RealVar, Rel,
    Seq, State, SubDistribution, While, memo_scoped, to_source,
)
from phl.parser import (
    FlavorMixError, ParseError, ParserWarning, SourceTriple, _Parser, parse_arith,
    parse_command, Token, parse_det_formula, parse_prob_formula,
    parse_real_expr, parse_state, parse_triple, tokenize,
)
from phl.proofsys import build_wp_derivation, derivation_from_json, derivation_to_json
from phl.semantics import execute

import strategies as sts
from reference import reference_parse

SRC = Path(__file__).resolve().parent.parent / "src"


class TestArithAndFormulas:
    def test_precedence(self):
        assert parse_det_formula("X + 1 * Y = 2") == Rel(
            "=", ABin("+", ProgVar("X"), ABin("*", IntConst(1), ProgVar("Y"))),
            IntConst(2))

    def test_unary_minus(self):
        assert parse_det_formula("X = -1") == Rel("=", ProgVar("X"), IntConst(-1))
        assert parse_det_formula("-X < 0") == Rel(
            "<", ABin("-", IntConst(0), ProgVar("X")), IntConst(0))
        assert parse_real_expr("-1/2") == RatConst(Fraction(-1, 2))
        assert parse_real_expr("--1/2") == RatConst(Fraction(1, 2))
        assert parse_real_expr("-P(X = 0)") == RBin(
            "-", RatConst(Fraction(0)), Prob(Rel("=", ProgVar("X"), IntConst(0))))
        assert parse_real_expr("2 * -@eps") == RBin(
            "*", RatConst(Fraction(2)),
            RBin("-", RatConst(Fraction(0)), RealVar("eps")))

    def test_connective_precedence(self):
        f = parse_det_formula("!X = 0 && Y = 1 || X = 2")
        inner = Or(And(Not(Rel("=", ProgVar("X"), IntConst(0))),
                       Rel("=", ProgVar("Y"), IntConst(1))),
                   Rel("=", ProgVar("X"), IntConst(2)))
        assert f == inner
        a, b, c = (PRel(">=", Prob(Rel("=", ProgVar("X"), IntConst(i))),
                        RatConst(Fraction(1, 2))) for i in range(3))
        g = parse_prob_formula(
            "!P(X = 0) >= 1/2 && P(X = 1) >= 1/2 || P(X = 2) >= 1/2")
        assert g == POr(PAnd(PNot(a), b), c)
        h = parse_prob_formula(
            "P(X = 0) >= 1/2 || P(X = 1) >= 1/2 && !P(X = 2) >= 1/2")
        assert h == POr(a, PAnd(b, PNot(c)))

    def test_implication_right_assoc(self):
        f = parse_det_formula("X = 0 -> Y = 0 -> X = Y")
        assert isinstance(f, Implies) and isinstance(f.right, Implies)
        g = parse_prob_formula("P(X = 0) = 1 -> P(Y = 0) = 1 -> 0 < 1 || 1 < 0")
        assert isinstance(g, PImplies) and isinstance(g.right, PImplies)
        assert isinstance(g.right.right, POr)

    def test_forall(self):
        f = parse_det_formula("forall x. x * X = 0 -> X = 0")
        assert isinstance(f, Forall) and f.var == "x"
        assert isinstance(f.body, Implies)

    def test_parenthesized_relation_operand(self):
        assert parse_det_formula("(X + 1) * 2 = 4") == Rel(
            "=", ABin("*", ABin("+", ProgVar("X"), IntConst(1)), IntConst(2)),
            IntConst(4))

    def test_logical_vars_are_lowercase(self):
        f = parse_det_formula("x < X")
        assert f == Rel("<", LogVar("x"), ProgVar("X"))

    def test_decimal_rejected(self):
        with pytest.raises(ParseError, match="decimal"):
            parse_det_formula("X = 0.5")

    def test_p_reserved(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_command("P := 1")


# Malformed inputs and the exact error each one gives: the message, and the
# line and column it points at (0:0 for an error without a position).
PINNED_ERRORS = [
    (parse_det_formula, "(X = 0", "1:7: expected ')', found 'end of input'"),
    (parse_det_formula, "((X = 0) || (Y = 1)", "1:20: expected ')', found 'end of input'"),
    (parse_det_formula, "(X + 1)", "1:2: expected a formula, found 'X'"),
    (parse_det_formula, "!(X + 1)", "1:3: expected a formula, found 'X'"),
    (parse_det_formula, "((X + 1) * 2)", "1:3: expected a formula, found 'X'"),
    (parse_det_formula, "(X = 0) + 1", "1:9: unexpected trailing input '+'"),
    (parse_det_formula, "((X = 1) * 2 = 2)", "1:10: expected ')', found '*'"),
    (parse_det_formula, "!X + 1", "1:2: expected a formula, found 'X'"),
    (parse_det_formula, "!X", "1:2: expected a formula, found 'X'"),
    (parse_det_formula, "", "1:1: expected a formula, found 'end of input'"),
    (parse_det_formula, "X = 0 X", "1:7: unexpected trailing input 'X'"),
    (parse_det_formula, "X = 0.5", "1:5: decimal literals are rejected; write an exact fraction like 1/2"),
    (parse_det_formula, "P = 0", "1:1: expected a formula, found 'P'"),
    (parse_det_formula, "X = 0 &&", "1:9: expected a formula, found 'end of input'"),
    (parse_det_formula, "X < Y < Z", "1:7: unexpected trailing input '<'"),
    (parse_det_formula, "X = (Y = 1)", "1:1: expected a formula, found 'X'"),
    (parse_det_formula, "-(X = 0)", "1:1: expected a formula, found '-'"),
    (parse_det_formula, "forall X. X = 0", "1:8: expected 'LIDENT', found 'X'"),
    (parse_det_formula, "X = 0 &&\n  (Y + 1 = 2", "2:13: expected ')', found 'end of input'"),
    (parse_arith, "(X + 1", "1:7: expected ')', found 'end of input'"),
    (parse_arith, "X +", "1:4: expected an arithmetic expression, found 'end of input'"),
    (parse_arith, "X = 0", "1:3: unexpected trailing input '='"),
    (parse_arith, "P + 1", "1:1: 'P' is reserved for the probability operator"),
    (parse_real_expr, "P(X = 0", "1:8: expected ')', found 'end of input'"),
    (parse_real_expr, "P(X + 1)", "1:3: expected a formula, found 'X'"),
    (parse_real_expr, "1/0", "1:3: zero denominator"),
    (parse_real_expr, "(P(true) = 1)", "1:10: expected ')', found '='"),
    (parse_real_expr, "@X", "1:2: expected 'LIDENT', found 'X'"),
    (parse_prob_formula, "P(X = 0", "1:1: expected a probabilistic formula, found 'P'"),
    (parse_prob_formula, "(P(X = 0) + 1)", "1:2: expected a probabilistic formula, found 'P'"),
    (parse_prob_formula, "(P(X = 0) = 1) + 1 = 2", "1:16: unexpected trailing input '+'"),
    (parse_prob_formula, "!P(X = 0)", "1:2: expected a probabilistic formula, found 'P'"),
    (parse_prob_formula, "X = 0", "1:1: expected a probabilistic formula, found 'X'"),
    (parse_prob_formula, "forall x. P(true) = 1", "1:1: expected a probabilistic formula, found 'forall'"),
    (parse_command, "while x = 0 do { skip }", "1:1: guard must be quantifier- and logical-var-free: x = 0"),
    (parse_command, "if X = 0 then { skip }", "1:23: expected 'else', found 'end of input'"),
    (parse_command, "X := 1;", "1:8: expected a command, found 'end of input'"),
    (parse_command, "X = 1", "1:3: expected ':=' or ':=$' after variable"),
    (parse_command, "X :=$ {1/2:0}", "1:7: distribution weights sum to 1/2, expected 1"),
    (parse_command, "skip [3/2] skip", "1:10: choice probability 3/2 outside [0, 1]"),
    (parse_command, "while (X > 0 do { skip }", "1:14: expected ')', found 'do'"),
    (parse_triple, "{ forall x. x = x } skip { P(X = 0) = 1 }",
     "triple mixes assertion flavors: precondition is deterministic but the other side is not"),
    (parse_triple, "{ X = 0 skip { X = 0 }", "1:1: unterminated assertion"),
    (parse_triple, "{ X = 0 } skip { X = 0 } skip", "1:26: unexpected trailing input 'skip'"),
    (parse_triple, "{ (X = 0 } skip { X = 0 }", "1:10: expected ')', found '}'"),
    (parse_triple, "{ X = 0 }\n  skip { (X + 1) }", "2:11: expected a formula, found 'X'"),
    (parse_triple, "{ P(X = 0) = 1 } skip { P(X = 0 }",
     "1:25: expected a probabilistic formula, found 'P'"),
]


class TestErrorMessages:
    @pytest.mark.parametrize("parse, text, message", PINNED_ERRORS,
                             ids=[f"{p.__name__}:{t!r}" for p, t, _ in PINNED_ERRORS])
    def test_pinned(self, parse, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message
        want = message.split(":", 2)
        if want[0].isdigit():
            assert (err.value.line, err.value.col) == (int(want[0]), int(want[1]))
        else:
            assert (err.value.line, err.value.col) == (0, 0)


class TestCommands:
    def test_assign_and_seq(self):
        c = parse_command("X := X + 1; Y := 0")
        assert c == Seq(Assign("X", ABin("+", ProgVar("X"), IntConst(1))),
                        Assign("Y", IntConst(0)))

    def test_long_seq_chain(self):
        c = parse_command("; ".join(["X := X + 1"] * 3000))
        for _ in range(2999):
            assert isinstance(c, Seq)
            c = c.second
        assert c == Assign("X", ABin("+", ProgVar("X"), IntConst(1)))

    def test_random_assign(self):
        c = parse_command("X :=$ {1/2:0, 1/2:1}")
        assert c == RandAssign("X", DistSpec.make(
            [(Fraction(1, 2), 0), (Fraction(1, 2), 1)]))

    def test_negative_values_in_dist(self):
        c = parse_command("X :=$ {1/3:-1, 2/3:2}")
        assert c.dist.values() == (-1, 2)

    def test_if_while(self):
        c = parse_command("while X = 0 do { if Y > 0 then { skip } else { X := 1 } }")
        assert isinstance(c, While) and isinstance(c.body, If)

    def test_weight_sum_checked(self):
        with pytest.raises(ParseError, match="sum"):
            parse_command("X :=$ {1/2:0, 1/3:1}")

    def test_duplicate_values_merge_with_warning(self):
        with pytest.warns(ParserWarning):
            c = parse_command("X :=$ {1/2:0, 1/4:1, 1/4:0}")
        assert c.dist.pairs == ((Fraction(3, 4), 0), (Fraction(1, 4), 1))

    @pytest.mark.parametrize("parse, text", [
        (parse_command, "X :=$ {1/2:0, 1/2:0}"),
        (parse_command, "if X = 0 then { X :=$ {1/2:0, 1/2:0} } else { skip }"),
        (parse_triple, "{ X = 0 } skip; X :=$ {1/2:0, 1/2:0} { X = 0 }"),
    ], ids=["top level", "inside an if", "inside a triple"])
    def test_duplicate_values_warning_names_the_caller(self, parse, text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parse(text)
        assert [w.category for w in caught] == [ParserWarning]
        assert caught[0].filename == __file__

    def test_guard_must_be_program_level(self):
        with pytest.raises(ParseError, match="guard"):
            parse_command("while x = 0 do { skip }")
        with pytest.raises(ParseError, match="guard"):
            parse_command("if forall x. x = x then { skip } else { skip }")

    def test_guard_error_points_at_keyword(self):
        with pytest.raises(ParseError) as err:
            parse_command("skip;\n  while X = 0 && x = 0 do { skip }")
        assert (err.value.line, err.value.col) == (2, 3)

    def test_choice_desugars(self):
        c = parse_command("X := 1 [1/3] X := 2")
        want = Seq(
            RandAssign("_F0", DistSpec.make([(Fraction(1, 3), 0), (Fraction(2, 3), 1)])),
            If(Rel("=", ProgVar("_F0"), IntConst(0)),
               Assign("X", IntConst(1)), Assign("X", IntConst(2))))
        assert c == want

    def test_choice_fresh_var_avoids_source_names(self):
        c = parse_command("_F0 := 0 [1/2] _F0 := 1")
        assert isinstance(c.first, RandAssign) and c.first.var == "_F1"

    def test_choice_semantics_matches_mixture(self):
        # desugared choice equals the weighted mixture after dropping the flag
        c1 = parse_command("X := 1")
        c2 = parse_command("X := 2")
        sugar = parse_command("X := 1 [1/3] X := 2")
        mu = SubDistribution.point(State.make({"X": 0}))
        got = execute(sugar, mu).output.project(["X"])
        want = (execute(c1, mu).output.scale(Fraction(1, 3))
                + execute(c2, mu).output.scale(Fraction(2, 3)))
        assert got == want


class TestRealAndProb:
    def test_real_expr(self):
        r = parse_real_expr("1/2 * P(X = 0) + @eps")
        assert r == RBin("+", RBin("*", RatConst(Fraction(1, 2)),
                                   Prob(Rel("=", ProgVar("X"), IntConst(0)))),
                         RealVar("eps"))

    def test_prob_formula(self):
        f = parse_prob_formula("P(X = 0) <= 1/2 && !(P(true) < 1)")
        assert isinstance(f.left, PRel) and f.left.op == "<="

    def test_true_desugars_to_trivial_relation(self):
        f = parse_prob_formula("true")
        assert f == PRel("=", RatConst(Fraction(0)), RatConst(Fraction(0)))


class TestTriples:
    def test_det_triple(self):
        t = parse_triple("{ X = 0 } X := X + 1 { X = 1 }")
        assert not t.prob
        assert t.pre == Rel("=", ProgVar("X"), IntConst(0))

    def test_prob_triple(self):
        t = parse_triple("{ true } while true do { skip } { P(true) = 0 }")
        assert t.prob
        assert t.pre == PRel("=", RatConst(Fraction(0)), RatConst(Fraction(0)))
        assert isinstance(t.command, While)

    def test_fraction_marks_probabilistic(self):
        t = parse_triple("{ 0 = 0 } skip { P(X = 0) <= 1/2 }")
        assert t.prob and isinstance(t.pre, PRel)

    def test_flavor_mixing_rejected(self):
        with pytest.raises(FlavorMixError):
            parse_triple("{ forall x. x = x } skip { P(X = 0) = 1 }")

    def test_braces_inside_command(self):
        t = parse_triple("{ true } X :=$ {1/2:0, 1/2:1} { X >= 0 }")
        assert isinstance(t.command, RandAssign) and not t.prob


class TestStateLiterals:
    def test_parse(self):
        assert parse_state("X=0, Y=-3") == State.make({"X": 0, "Y": -3})
        assert parse_state("") == State.make({})

    def test_trailing_junk(self):
        with pytest.raises(ParseError):
            parse_state("X=0,")

    def test_repeated_variable(self):
        # the error points at the second binding's name
        with pytest.raises(ParseError, match="X is bound twice") as err:
            parse_state("X=1, Y=0,\n  X=2")
        assert (err.value.line, err.value.col) == (2, 3)

    def test_reserved_name_points_at_the_name(self):
        with pytest.raises(ParseError, match="'P' is reserved") as err:
            parse_state("X=0, P=1")
        assert (err.value.line, err.value.col) == (1, 6)


class TestRoundTrips:
    @settings(max_examples=400)
    @given(sts.aexprs(lv=("k",)))
    def test_arith(self, e):
        assert parse_arith(to_source(e)) == e

    @settings(max_examples=400)
    @given(sts.det_formulas(lv=("k",)))
    def test_det_formula(self, f):
        assert parse_det_formula(to_source(f)) == f

    def test_det_formula_with_quantifier(self):
        f = Forall("x", Or(Rel("=", LogVar("x"), IntConst(0)),
                           Not(Rel("<", LogVar("x"), ProgVar("X")))))
        assert parse_det_formula(to_source(f)) == f

    @settings(max_examples=400)
    @given(sts.commands(loops=True))
    def test_command(self, c):
        assert parse_command(to_source(c)) == c

    @settings(max_examples=400)
    @given(sts.real_exprs())
    def test_real_expr(self, r):
        assert parse_real_expr(to_source(r)) == r

    @settings(max_examples=400)
    @given(sts.real_exprs(), sts.real_exprs())
    def test_prob_formula(self, a, b):
        f = PRel("<=", a, b)
        assert parse_prob_formula(to_source(f)) == f

    @settings(max_examples=400)
    @given(sts.prob_formulas())
    def test_prob_connectives(self, f):
        assert parse_prob_formula(to_source(f)) == f

    @settings(max_examples=400)
    @given(sts.det_formulas(), sts.commands(loops=True), sts.real_exprs())
    def test_triple(self, pre, c, r):
        t = SourceTriple(PRel("<", Prob(pre), r), c, PRel("=", r, r), True)
        assert parse_triple(str(t)) == t


_GAPS = st.text(alphabet=" \t\n", min_size=1, max_size=3)


@st.composite
def spaced_sources(draw):
    """A printed term whose spaces are redrawn as runs of spaces, tabs and
    newlines, with more of them around it."""
    source = draw(st.one_of(
        sts.det_formulas(lv=("k",)).map(to_source),
        sts.commands(loops=True).map(to_source),
        sts.real_exprs().map(to_source),
        sts.prob_formulas().map(to_source)))
    words = source.split(" ")
    out = [draw(st.text(alphabet=" \t\n", max_size=3)), words[0]]
    for word in words[1:]:
        out += [draw(_GAPS), word]
    out.append(draw(st.text(alphabet=" \t\n", max_size=3)))
    return "".join(out)


class TestLexer:
    @given(spaced_sources())
    def test_tokens_sit_at_their_positions(self, text):
        toks = tokenize(text)
        lines = text.split("\n")
        for t in toks[:-1]:
            assert lines[t.line - 1][t.col - 1:t.col - 1 + len(t.text)] == t.text
        assert "".join(t.text for t in toks) == "".join(text.split())
        eof = toks[-1]
        assert (eof.kind, eof.line, eof.col) == ("EOF", len(lines), len(lines[-1]) + 1)
        assert [(t.kind, t.text) for t in toks] \
            == [(t.kind, t.text) for t in tokenize(" ".join(text.split()))]

    def test_kinds(self):
        toks = tokenize("while x do { X_1 :=$ {1/2: -3} }; _F0 := 12")
        assert [t.kind for t in toks] == [
            "while", "LIDENT", "do", "{", "IDENT", ":=$", "{", "INT", "/", "INT",
            ":", "-", "INT", "}", "}", ";", "IDENT", ":=", "INT", "EOF"]
        assert toks[4] == Token("IDENT", "X_1", 1, 14)
        assert tokenize("X\n\t<=  2")[1:] == [
            Token("<=", "<=", 2, 2), Token("INT", "2", 2, 6), Token("EOF", "", 2, 7)]

    def test_non_ascii_is_unexpected(self):
        """Numerals and identifiers are ASCII; other letters and digits are
        rejected where they stand."""
        for text, char, col in (("X := é", "é", 6), ("Äpfel := 1", "Ä", 1),
                                ("Xé := 1", "é", 2), ("X := ٣", "٣", 6),
                                ("X := 1²", "²", 7)):
            with pytest.raises(ParseError) as err:
                tokenize(text)
            assert str(err.value) == f"1:{col}: unexpected character {char!r}"
        assert [t.kind for t in tokenize("X := 1")] == ["IDENT", ":=", "INT", "EOF"]


# ---------------------------------------------------------------------------
# The recursive-descent parser of reference.py against phl.parser

PRODUCTIONS = [(ArithExpr, "aexp", parse_arith), (Formula, "detf", parse_det_formula),
               (Command, "cmd", parse_command), (RealExpr, "rexp", parse_real_expr),
               (ProbFormula, "probf", parse_prob_formula)]
# what a mutation may put in place of a token
MUTANTS = ["(", ")", "!", "-", "+", "*", "=", "<=", "&&", "||", "->", "X", "k", "0",
           "2", "P", "true", "forall", ".", "@", "/", ";", "skip", "{", "}", ":="]


def noisy_source(draw, node) -> str:
    """`node` printed with redundant parentheses around its subterms, some
    left in the printer's shape, and with chains of `!` and unary `-`
    before some of them (a chain makes another node)."""
    if draw(st.integers(0, 3)) == 0:
        text = to_source(node)
    else:
        def sub(child, bare=False):
            """The child in parentheses, or bare where associativity allows."""
            text = noisy_source(draw, child)
            return text if bare and draw(st.booleans()) else f"({text})"
        if isinstance(node, (ABin, RBin)):
            power = {"+": 1, "-": 1, "*": 2}
            left_bare = type(node.left) is type(node) and power[node.left.op] == power[node.op]
            text = f"{sub(node.left, left_bare)} {node.op} {sub(node.right)}"
        elif isinstance(node, (Rel, PRel)):
            text = f"{sub(node.left)} {node.op} {sub(node.right)}"
        elif isinstance(node, (And, Or, Implies, PAnd, POr, PImplies)):
            op = {And: "&&", PAnd: "&&", Or: "||", POr: "||"}.get(type(node), "->")
            same = type(node.right if op == "->" else node.left) is type(node)
            text = (f"{sub(node.left, same and op != '->')} {op} "
                    f"{sub(node.right, same and op == '->')}")
        elif isinstance(node, (Not, PNot)):
            text = f"!{sub(node.body)}"
        elif isinstance(node, Forall):
            text = f"forall {node.var}. {sub(node.body)}"
        elif isinstance(node, Prob):
            text = f"P({noisy_source(draw, node.formula)})"
        elif isinstance(node, Seq):
            text = f"{sub(node.first)}; {sub(node.second)}"
        elif isinstance(node, If):
            text = (f"if {sub(node.guard)} then {{ {noisy_source(draw, node.then_branch)} }} "
                    f"else {{ {noisy_source(draw, node.else_branch)} }}")
        elif isinstance(node, While):
            text = f"while {sub(node.guard)} do {{ {noisy_source(draw, node.body)} }}"
        elif isinstance(node, Assign):
            text = f"{node.var} := {sub(node.expr)}"
        else:
            text = to_source(node)
    if isinstance(node, (Formula, ProbFormula)) and draw(st.integers(0, 4)) == 0:
        text = "!" * draw(st.integers(1, 3)) + f"({text})"
    elif isinstance(node, (ArithExpr, RealExpr)) and draw(st.integers(0, 4)) == 0:
        text = "-" * draw(st.integers(1, 3)) + f"({text})"
    wraps = draw(st.integers(0, 2))
    return "(" * wraps + text + ")" * wraps


def respaced(draw, text: str) -> str:
    """The text with each gap between two tokens kept or redrawn."""
    toks = tokenize(text)
    out = [toks[0].text]
    for before, tok in zip(toks, toks[1:-1]):
        gap = text[before.col - 1 + len(before.text):tok.col - 1]
        out += [draw(st.sampled_from([gap, " ", "  ", "\t", "\n "])), tok.text]
    return "".join(out)


def mutated(draw, text: str) -> str:
    """The text cut short, or with one token deleted, replaced or added."""
    words = [t.text for t in tokenize(text)[:-1]]
    at = draw(st.integers(0, len(words)))
    how = draw(st.sampled_from(["cut", "delete", "replace", "insert"]))
    if how == "cut":
        words = words[:at]
    elif how == "insert":
        words.insert(at, draw(st.sampled_from(MUTANTS)))
    elif words:
        at = min(at, len(words) - 1)
        words[at:at + 1] = [] if how == "delete" else [draw(st.sampled_from(MUTANTS))]
    return " ".join(words)


def outcome(parse, text: str):
    """The node or the error, then the message of each warning given."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = "node", parse(text)
        except ValueError as err:  # a ParseError, or a node's own check
            got = (type(err).__name__, str(err), getattr(err, "line", None),
                   getattr(err, "col", None))
    return (*got, *(str(w.message) for w in caught))


class TestAgainstRecursiveDescent:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_same_node_and_same_errors(self, data):
        node = data.draw(sts.ANY_TERM)
        name, parse = next((name, parse) for family, name, parse in PRODUCTIONS
                           if isinstance(node, family))
        text = respaced(data.draw, noisy_source(data.draw, node))
        got = parse(text)
        assert got is reference_parse(text, name)
        if text == to_source(node):
            assert got is node
        bad = mutated(data.draw, text)
        assert outcome(parse, bad) == outcome(lambda t: reference_parse(t, name), bad)


class TestSharedMemo:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_same_triples_and_errors_as_alone(self, data):
        """Triples read in one memo scope, as `derivation_from_json` reads a
        derivation's, are the triples and errors each gives alone."""
        rng = random.Random(data.draw(sts.seeds))
        prob = rng.random() < 0.5
        pool = [sts.gen_prob_formula(rng, 1) if prob else gen.gen_formula(rng, sts.PV, 1)
                for _ in range(3)]
        blocks = [gen.gen_command(rng, sts.PV, 1) for _ in range(3)]
        conj = PAnd if prob else And
        texts = []
        for _ in range(6):
            pre, post = (conj(rng.choice(pool), rng.choice(pool)) for _ in range(2))
            c = If(gen.gen_guard(rng, sts.PV), rng.choice(blocks),
                   Seq(rng.choice(blocks), rng.choice(blocks)))
            text = str(SourceTriple(pre, c, post, prob))
            texts.append(mutated(data.draw, text) if data.draw(st.booleans()) else text)
        # the second time, the scope has seen each text
        assert shared_outcomes(texts + texts) == [outcome(parse_triple, t) for t in texts + texts]

    def test_a_group_is_kept_per_flavor(self):
        # each group reads as a deterministic formula inside P(...) and as a
        # probabilistic one outside
        texts = ["{ P((true)) = 1 } skip { (true) }",
                 "{ P((0 = 0)) = 1 } skip { (0 = 0) && (0 = 0) }"]
        assert shared_outcomes(texts) == [outcome(parse_triple, t) for t in texts]

    @staticmethod
    def reads(monkeypatch) -> Counter:
        """Counts each text the parser reads as a command or an expression."""
        seen = Counter()
        for name in ("cmd", "expression"):
            def counted(self, *args, read=getattr(_Parser, name)):
                start = self.pos
                node = read(self, *args)
                seen[" ".join(self.words[start:self.pos])] += 1
                return node
            monkeypatch.setattr(_Parser, name, counted)
        return seen

    def test_a_derivation_reads_each_distinct_text_once(self, monkeypatch):
        node = {"rule": "CONS", "conclusion": "{ X >= 0 } X := X + 1 { X >= 0 }"}
        data = node
        for _ in range(4):
            data = {**node, "premises": [data]}
        seen = self.reads(monkeypatch)
        derivation_from_json(data)
        assert set(seen) == {"X >= 0", "X := X + 1", "X + 1"}
        assert set(seen.values()) == {1}

    def test_only_a_scope_shares_reads(self, monkeypatch):
        text = "{ X >= 0 } X := X + 1 { X >= 0 }"
        seen = self.reads(monkeypatch)
        parse_triple(text)
        parse_triple(text)
        assert seen["X := X + 1"] == 2
        seen.clear()
        memo_scoped(lambda: (parse_triple(text), parse_triple(text)))()
        assert seen["X := X + 1"] == 1 and set(seen.values()) == {1}

    def test_no_warning_is_swallowed(self):
        """A command read with a warning is read again where it recurs, so
        each triple that has it warns.  (The derivation is read, not checked.)"""
        toss = "X :=$ {1/2: 0, 1/2: 0}"
        data = {"rule": "PAS", "conclusion": f"{{ true }} {toss} {{ true }}", "premises": [
            {"rule": "IF", "conclusion":
             f"{{ true }} if X = 0 then {{ {toss} }} else {{ skip }} {{ true }}"}]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            derivation_from_json(data)
        assert [w.category for w in caught] == [ParserWarning] * 2


@memo_scoped
def shared_outcomes(texts: list) -> list:
    """`outcome(parse_triple, text)` of each text, in one memo scope."""
    return [outcome(parse_triple, t) for t in texts]


class TestNoParseErrorOnValidText:
    def test_count_is_zero(self, monkeypatch):
        raised = []
        init = ParseError.__init__

        def counting(self, *args):
            raised.append(args)
            init(self, *args)

        rng = random.Random(7)
        texts, derivations = [], []
        for _ in range(60):
            c = gen.gen_command(rng, sts.PV, depth=2, loops=rng.random() < 0.3)
            det = [gen.gen_formula(rng, sts.PV, depth=2, lv=("k",)) for _ in range(2)]
            prob = [sts.gen_prob_formula(rng, 2) for _ in range(2)]
            texts += [(parse_det_formula, to_source(det[0])),
                      (parse_prob_formula, to_source(prob[0])),
                      (parse_triple, str(SourceTriple(det[0], c, det[1], False))),
                      (parse_triple, str(SourceTriple(prob[0], c, prob[1], True)))]
            derivations.append(derivation_to_json(build_wp_derivation(
                gen.gen_command(rng, sts.PV, depth=2), prob[1], sts.WINDOW, sts.QWINDOW,
                unroll=4, depth=3)))
        monkeypatch.setattr(ParseError, "__init__", counting)
        for parse, text in texts:
            parse(text)
        for data in derivations:
            derivation_from_json(data)
        assert raised == []


# ---------------------------------------------------------------------------
# Nesting depth, in a fresh process at the default recursion limit

DEPTH = 10_000
DEPTH_SETUP = f"""
import sys
from fractions import Fraction
from phl.core import *
from phl.parser import *
assert sys.getrecursionlimit() == 1000
n = {DEPTH}
x = ProgVar("X")
x0 = Rel("=", x, IntConst(0))
"""
DEPTH_CASES = {
    "parse_arith of nested parentheses": 'parse_arith("(" * n + "X" + ")" * n) is x',
    "parse_det_formula of nested parentheses":
        'parse_det_formula("(" * n + "X = 0" + ")" * n) is x0',
    "parse_real_expr of nested parentheses":
        'parse_real_expr("(" * n + "P(X = 0)" + ")" * n) is Prob(x0)',
    "parse_prob_formula of nested parentheses":
        'parse_prob_formula("(" * n + "P(X = 0) = 1" + ")" * n)'
        ' is PRel("=", Prob(x0), RatConst(Fraction(1)))',
    "a right-nested && chain": """
want = Rel("=", x, IntConst(n - 1))
for i in reversed(range(n - 1)):
    want = And(Rel("=", x, IntConst(i)), want)
text = "".join(f"X = {i} && (" for i in range(n - 1)) + f"X = {n - 1}" + ")" * (n - 1)
parse_det_formula(text) is want""",
    "a chain of !": """
want = x0
for _ in range(n):
    want = Not(want)
parse_det_formula("!" * n + "X = 0") is want""",
    "a chain of unary -": """
want = x
for _ in range(n):
    want = ABin("-", IntConst(0), want)
parse_arith("-" * n + "X") is want""",
    "a chain of unary - before a constant":
        'parse_arith("-" * n + "1") is IntConst(1) is parse_arith("-" * (n - 1) + "(-1)")',
    "the printed 200-relation chain": """
want = x0
for i in range(1, 200):
    want = And(Rel("=", x, IntConst(i)), want)
text = to_source(want)
text.startswith("X = 199 && (X = 198 && (") and parse_det_formula(text) is want""",
}


@pytest.mark.parametrize("case", DEPTH_CASES)
def test_depth_is_bounded_by_memory(case):
    *lines, check = DEPTH_CASES[case].strip().split("\n")
    script = DEPTH_SETUP + "\n".join(lines) + f"\nassert {check}\nprint('ok')\n"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout == "ok\n"
