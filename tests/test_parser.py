"""Concrete syntax: grammar coverage, desugaring, errors, round trips."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from phl.core import (
    ABin, And, Assign, DistSpec, Forall, If, IntConst, LogVar, Not, Or,
    Implies, PAnd, PImplies, PNot, POr, PRel, Prob, ProgVar, RandAssign,
    RatConst, RBin, RealVar, Rel, Seq, State, SubDistribution, While,
    to_source,
)
from phl.parser import (
    FlavorMixError, ParseError, ParserWarning, parse_command,
    Token, parse_det_formula, parse_prob_formula, parse_real_expr, parse_state,
    parse_triple, tokenize,
)
from phl.semantics import execute

import strategies as sts


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
    @given(sts.aexprs(lv=("k",)))
    def test_arith(self, e):
        from phl.parser import parse_arith
        assert parse_arith(to_source(e)) == e

    @given(sts.det_formulas(lv=("k",)))
    def test_det_formula(self, f):
        assert parse_det_formula(to_source(f)) == f

    def test_det_formula_with_quantifier(self):
        f = Forall("x", Or(Rel("=", LogVar("x"), IntConst(0)),
                           Not(Rel("<", LogVar("x"), ProgVar("X")))))
        assert parse_det_formula(to_source(f)) == f

    @given(sts.commands(loops=True))
    def test_command(self, c):
        assert parse_command(to_source(c)) == c

    @given(sts.real_exprs())
    def test_real_expr(self, r):
        assert parse_real_expr(to_source(r)) == r

    @given(sts.real_exprs(), sts.real_exprs())
    def test_prob_formula(self, a, b):
        f = PRel("<=", a, b)
        assert parse_prob_formula(to_source(f)) == f

    @given(sts.prob_formulas())
    def test_prob_connectives(self, f):
        assert parse_prob_formula(to_source(f)) == f

    @given(sts.det_formulas(), sts.commands(loops=True), sts.real_exprs())
    def test_triple(self, pre, c, r):
        from phl.parser import SourceTriple
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
