"""The one printer: exact text against the per-family printers it replaced,
shared subterms, aliases and nesting depth."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import phl.core as core
from phl.core import (
    ABin, And, ArithExpr, Assign, BoolLit, Command, Forall, Formula, If,
    Implies, IntConst, LogVar, Node, Not, Or, PAnd, PImplies, PNot, POr, PRel,
    Prob, ProbFormula, ProgVar, RandAssign, RatConst, RBin, RealExpr, RealVar,
    Rel, Seq, Skip, While, normalize_real, to_source,
)
from phl.parser import parse_command, parse_real_expr
from phl.preterm import pt, wp_prob
from phl.wp import wp

import strategies as sts

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# Reference: the five tree-recursive printers, one per node family, that
# `to_source` replaced.  Their output is the contract, quirks included.

_APREC = {"+": 1, "-": 1, "*": 2}


def ref_arith(e, prec=0):
    if isinstance(e, IntConst):
        return str(e.value)
    if isinstance(e, (ProgVar, LogVar)):
        return e.name
    if isinstance(e, ABin):
        p = _APREC[e.op]
        s = f"{ref_arith(e.left, p)} {e.op} {ref_arith(e.right, p + 1)}"
        return f"({s})" if p < prec else s
    raise TypeError(f"not an arithmetic expression: {e!r}")


# precedence levels: -> 1 (right assoc), || 2, && 3, ! 4, atoms 5
def ref_formula(f, prec=0):
    if isinstance(f, BoolLit):
        return "true" if f.value else "false"
    if isinstance(f, Rel):
        s = f"{ref_arith(f.left)} {f.op} {ref_arith(f.right)}"
        return f"({s})" if prec >= 4 else s
    if isinstance(f, Not):
        return f"!{ref_formula(f.body, 4)}"
    if isinstance(f, And):
        s = f"{ref_formula(f.left, 3)} && {ref_formula(f.right, 4)}"
        return f"({s})" if prec > 3 else s
    if isinstance(f, Or):
        s = f"{ref_formula(f.left, 2)} || {ref_formula(f.right, 3)}"
        return f"({s})" if prec > 2 else s
    if isinstance(f, Implies):
        s = f"{ref_formula(f.left, 2)} -> {ref_formula(f.right, 1)}"
        return f"({s})" if prec > 1 else s
    if isinstance(f, Forall):
        s = f"forall {f.var}. {ref_formula(f.body, 0)}"
        return f"({s})" if prec > 0 else s
    raise TypeError(f"not a formula: {f!r}")


def ref_command(c, prec=0):
    if isinstance(c, Skip):
        return "skip"
    if isinstance(c, Assign):
        return f"{c.var} := {ref_arith(c.expr)}"
    if isinstance(c, RandAssign):
        body = ", ".join(f"{w}:{v}" for w, v in c.dist.pairs)
        return f"{c.var} :=$ {{{body}}}"
    if isinstance(c, Seq):
        s = f"{ref_command(c.first, 1)}; {ref_command(c.second, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(c, If):
        return (f"if {ref_formula(c.guard)} "
                f"then {{ {ref_command(c.then_branch)} }} "
                f"else {{ {ref_command(c.else_branch)} }}")
    if isinstance(c, While):
        return f"while {ref_formula(c.guard)} do {{ {ref_command(c.body)} }}"
    raise TypeError(f"not a command: {c!r}")


def ref_real(r, prec=0):
    if isinstance(r, RatConst):
        return str(r.value)
    if isinstance(r, RealVar):
        return f"@{r.name}"
    if isinstance(r, Prob):
        return f"P({ref_formula(r.formula)})"
    if isinstance(r, RBin):
        p = _APREC[r.op]
        s = f"{ref_real(r.left, p)} {r.op} {ref_real(r.right, p + 1)}"
        return f"({s})" if p < prec else s
    raise TypeError(f"not a real expression: {r!r}")


def ref_prob(f, prec=0):
    if isinstance(f, PRel):
        s = f"{ref_real(f.left)} {f.op} {ref_real(f.right)}"
        return f"({s})" if prec >= 4 else s
    if isinstance(f, PNot):
        return f"!{ref_prob(f.body, 4)}"
    if isinstance(f, PAnd):
        s = f"{ref_prob(f.left, 3)} && {ref_prob(f.right, 4)}"
        return f"({s})" if prec > 3 else s
    if isinstance(f, POr):
        s = f"{ref_prob(f.left, 2)} || {ref_prob(f.right, 3)}"
        return f"({s})" if prec > 2 else s
    if isinstance(f, PImplies):
        s = f"{ref_prob(f.left, 2)} -> {ref_prob(f.right, 1)}"
        return f"({s})" if prec > 1 else s
    raise TypeError(f"not a probabilistic formula: {f!r}")


REFERENCE = {ArithExpr: ref_arith, Formula: ref_formula, Command: ref_command,
             RealExpr: ref_real, ProbFormula: ref_prob}


def reference(node):
    return next(ref for family, ref in REFERENCE.items() if isinstance(node, family))(node)


def assert_prints_as_reference(node):
    want = reference(node)
    for got in (to_source(node), str(node)):
        if got != want:  # an excerpt: pytest's diff of two long texts takes minutes
            at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y),
                      min(len(got), len(want)))
            lo = max(at - 40, 0)
            pytest.fail(f"differs at {at}: {got[lo:at + 40]!r} != {want[lo:at + 40]!r}")


# ---------------------------------------------------------------------------

class TestAgainstReference:
    @given(sts.ANY_TERM)
    @settings(max_examples=400)
    def test_generated_terms(self, node):
        assert_prints_as_reference(node)

    @given(sts.commands(loops=True), sts.real_exprs())
    @settings(deadline=None, max_examples=60)
    def test_preterms(self, c, r):
        # transformer results share subterms, which the printer prints once
        term, _ = pt(c, r, unroll=4, depth=3, window=sts.WINDOW, qwindow=sts.QWINDOW)
        assert_prints_as_reference(term)

    @given(sts.commands(loops=True), sts.det_formulas(), sts.prob_formulas())
    @settings(deadline=None, max_examples=40)
    def test_wp_results(self, c, post, prob_post):
        pre, _ = wp(c, post, unroll=4, window=sts.WINDOW, qwindow=sts.QWINDOW)
        assert_prints_as_reference(pre)
        pre, _ = wp_prob(c, prob_post, unroll=4, depth=3, window=sts.WINDOW,
                         qwindow=sts.QWINDOW)
        assert_prints_as_reference(pre)

    def test_countdown_preterm(self):
        c = parse_command("while X > 0 do { X := X - 1; Y := Y + X }")
        term, _ = pt(c, parse_real_expr("P(Y >= 2)"), unroll=6, depth=4)
        assert len(to_source(term)) > 10_000
        assert_prints_as_reference(term)


class TestPinnedText:
    X0 = Rel("=", ProgVar("X"), IntConst(0))
    X1 = Rel("=", ProgVar("X"), IntConst(1))

    def test_relation_right_of_and_is_wrapped(self):
        assert str(And(self.X0, self.X1)) == "X = 0 && (X = 1)"
        assert str(And(And(self.X0, self.X1), self.X0)) == "X = 0 && (X = 1) && (X = 0)"
        p0, p1 = Prob(self.X0), Prob(self.X1)
        assert str(PAnd(PRel("<", p0, p1), PRel("=", p1, p0))) == \
            "P(X = 0) < P(X = 1) && (P(X = 1) = P(X = 0))"

    def test_connective_associativity(self):
        a, b, c = self.X0, self.X1, Not(self.X0)
        assert str(Implies(Implies(a, b), c)) == "(X = 0 -> X = 1) -> !(X = 0)"
        assert str(Implies(a, Implies(b, c))) == "X = 0 -> X = 1 -> !(X = 0)"
        assert str(Or(a, Or(b, c))) == "X = 0 || (X = 1 || !(X = 0))"
        assert str(And(Or(a, b), c)) == "(X = 0 || X = 1) && !(X = 0)"
        assert str(Forall("k", Or(a, b))) == "forall k. X = 0 || X = 1"
        assert str(And(a, Forall("k", b))) == "X = 0 && (forall k. X = 1)"

    def test_arithmetic(self):
        x, y, one = ProgVar("X"), ProgVar("Y"), IntConst(1)
        assert str(ABin("-", x, ABin("-", y, one))) == "X - (Y - 1)"
        assert str(ABin("*", ABin("+", x, y), one)) == "(X + Y) * 1"
        assert str(ABin("+", ABin("*", x, y), one)) == "X * Y + 1"
        assert str(RBin("*", RatConst(Fraction(1, 2)),
                        RBin("+", RealVar("eps"), Prob(self.X0)))) == \
            "1/2 * (@eps + P(X = 0))"

    def test_commands(self):
        a = Assign("X", ABin("+", ProgVar("X"), IntConst(1)))
        assert str(Seq(Seq(a, Skip()), a)) == "(X := X + 1; skip); X := X + 1"
        assert str(Seq(a, Seq(Skip(), a))) == "X := X + 1; skip; X := X + 1"
        assert str(While(self.X0, Seq(a, a))) == \
            "while X = 0 do { X := X + 1; X := X + 1 }"
        assert str(If(And(self.X0, self.X1), a, Skip())) == \
            "if X = 0 && (X = 1) then { X := X + 1 } else { skip }"

    def test_shared_subterm_in_different_slots(self):
        # one node, printed once, is wrapped in one slot and bare in another
        s = Or(self.X0, self.X1)
        assert str(And(s, s)) == "(X = 0 || X = 1) && (X = 0 || X = 1)"
        assert str(Or(s, s)) == "X = 0 || X = 1 || (X = 0 || X = 1)"


class TestOnePrinter:
    def test_one_str_method(self):
        classes = [c for c in vars(core).values()
                   if isinstance(c, type) and issubclass(c, Node)]
        assert len(classes) > 25
        assert [c for c in classes if "__str__" in vars(c)] == [Node]

    def test_normalize_simplifies_bodies_in_its_own_walk(self, monkeypatch):
        def forbidden(f):
            raise AssertionError("normalize_real called simplify_formula")
        monkeypatch.setattr(core, "simplify_formula", forbidden)
        x0 = Rel("=", ProgVar("X"), IntConst(0))
        body = And(core.TRUE, Or(x0, Rel("<", IntConst(1), IntConst(0))))
        r = RBin("+", Prob(body), RBin("*", RatConst(Fraction(2)),
                                      Prob(And(x0, Not(x0)))))
        assert normalize_real(r) is Prob(x0)
        assert normalize_real(Prob(Not(Not(x0)))) is Prob(x0)

    def test_deep_terms_print(self):
        # one frame per nesting level: 980 levels print under the default
        # recursion limit, as with the per-family printers
        script = (
            "from phl.core import *\n"
            "from phl.parser import parse_command\n"
            "x = Rel('=', ProgVar('X'), IntConst(0))\n"
            "s = str(real_sum([Prob(x)] * 980))\n"
            "assert s == ' + '.join(['P(X = 0)'] * 980), s[:80]\n"
            "c = str(parse_command('; '.join(['X := X + 1'] * 980)))\n"
            "assert c == '; '.join(['X := X + 1'] * 980), c[:80]\n"
            "f = str(and_all([x] * 980))\n"
            "assert f == ' && '.join(['X = 0'] + ['(X = 0)'] * 979), f[:80]\n"
            "print('ok')\n")
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                             timeout=120)
        assert out.returncode == 0, out.stderr[-2000:]
        assert out.stdout == "ok\n"
