"""Concrete syntax: lexer and recursive-descent parsers.

Grammar sketch (precedence is encoded by rule nesting; seq binds loosest in
commands, `->` loosest in formulas, `!` tightest, `*` over `+`/`-`):

    triple := "{" pre "}" cmd "{" post "}"
    cmd    := choice (";" cmd)?
    choice := prim ("[" frac "]" prim)*
    prim   := "skip" | IDENT ":=" aexp | IDENT ":=$" "{" wpair,+ "}"
            | "if" bexp "then" "{" cmd "}" "else" "{" cmd "}"
            | "while" bexp "do" "{" cmd "}" | "(" cmd ")"
    wpair  := frac ":" int
    detf   := implication over || over && over ! over
              (true | false | forall lident "." detf | aexp rop aexp | "(" detf ")")
    rexp   := sums/products over (frac | "@" lident | "P" "(" detf ")" | "(" rexp ")")
    probf  := same connective tower over (rexp rop rexp)

Program variables are uppercase-initial identifiers (`P` is reserved for the
probability operator, leading `_` for generated names); logical variables are
lowercase.  `C1 [p] C2` desugars to a fresh-flag coin toss followed by a
conditional.  Probability literals are exact fractions; decimals are rejected
outright.

A triple is probabilistic iff either assertion mentions `P(...)` or an `@`
variable; both sides are then parsed in that flavor, and a side that only
parses in the other flavor raises the flavor-mixing error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .core import (
    ABin, And, Assign, BoolLit, Command, DistSpec, Forall, Formula, If,
    IntConst, LogVar, Not, Or, Implies, PAnd, PImplies, PNot, POr, PRel,
    PFALSE, PTRUE, Prob, ProbFormula, ProgVar, RandAssign, RatConst, RealExpr,
    RealVar, RBin, Rel, ROPS, Seq, Skip, State, TRUE, FALSE, While,
    log_vars, _has_quantifier,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


class FlavorMixError(ParseError):
    """A triple mixes deterministic and probabilistic assertions."""


class ParserWarning(UserWarning):
    pass


KEYWORDS = {"skip", "if", "then", "else", "while", "do", "true", "false", "forall"}

_SYMBOLS = [
    ":=$", ":=", "->", "<=", ">=", "&&", "||",
    "<", ">", "=", "!", "+", "-", "*", "/",
    "(", ")", "{", "}", "[", "]", ",", ":", ";", ".", "@",
]


@dataclass(frozen=True)
class Token:
    kind: str  # "INT", "IDENT", "LIDENT", a keyword, a symbol, or "EOF"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                raise ParseError(
                    "decimal literals are rejected; write an exact fraction like 1/2",
                    line, col)
            toks.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in KEYWORDS:
                kind = word
            elif word[0].isupper() or word[0] == "_":
                kind = "IDENT"
            else:
                kind = "LIDENT"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token(sym, sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        used = {t.text for t in tokens if t.kind == "IDENT"}
        self._fresh_iter = (f"_F{i}" for i in range(len(used) + len(tokens) + 1))
        self._used = used

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.next()

    def at_end(self) -> bool:
        return self.peek().kind == "EOF"

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def _fresh_var(self) -> str:
        for name in self._fresh_iter:
            if name not in self._used:
                self._used.add(name)
                return name
        raise AssertionError("fresh variable pool exhausted")

    # -- numbers

    def frac(self) -> Fraction:
        num = int(self.expect("INT").text)
        if self.peek().kind == "/":
            self.next()
            den_tok = self.expect("INT")
            den = int(den_tok.text)
            if den == 0:
                raise ParseError("zero denominator", den_tok.line, den_tok.col)
            return Fraction(num, den)
        return Fraction(num)

    def signed_int(self) -> int:
        if self.peek().kind == "-":
            self.next()
            return -int(self.expect("INT").text)
        return int(self.expect("INT").text)

    # -- arithmetic over integers

    def aexp(self) -> "ABin | IntConst | ProgVar | LogVar":
        left = self.amul()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            left = ABin(op, left, self.amul())
        return left

    def amul(self):
        left = self.aneg()
        while self.peek().kind == "*":
            self.next()
            left = ABin("*", left, self.aneg())
        return left

    def aneg(self):
        if self.peek().kind == "-":
            self.next()
            body = self.aneg()
            if isinstance(body, IntConst):
                return IntConst(-body.value)
            return ABin("-", IntConst(0), body)
        return self.aprim()

    def aprim(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return IntConst(int(tok.text))
        if tok.kind == "IDENT":
            if tok.text == "P":
                self.fail("'P' is reserved for the probability operator")
            self.next()
            return ProgVar(tok.text)
        if tok.kind == "LIDENT":
            self.next()
            return LogVar(tok.text)
        if tok.kind == "(":
            self.next()
            e = self.aexp()
            self.expect(")")
            return e
        self.fail(f"expected an arithmetic expression, found {tok.text or 'end of input'!r}")

    # -- deterministic formulas

    def detf(self) -> Formula:
        left = self.dor()
        if self.peek().kind == "->":
            self.next()
            return Implies(left, self.detf())
        return left

    def dor(self) -> Formula:
        left = self.dand()
        while self.peek().kind == "||":
            self.next()
            left = Or(left, self.dand())
        return left

    def dand(self) -> Formula:
        left = self.dneg()
        while self.peek().kind == "&&":
            self.next()
            left = And(left, self.dneg())
        return left

    def dneg(self) -> Formula:
        if self.peek().kind == "!":
            self.next()
            return Not(self.dneg())
        return self.datom()

    def datom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "true":
            self.next()
            return TRUE
        if tok.kind == "false":
            self.next()
            return FALSE
        if tok.kind == "forall":
            self.next()
            name = self.expect("LIDENT").text
            self.expect(".")
            return Forall(name, self.detf())
        save = self.pos
        try:
            left = self.aexp()
            op = self.peek().kind
            if op not in ROPS:
                self.fail("expected a relation")
            self.next()
            return Rel(op, left, self.aexp())
        except ParseError:
            self.pos = save
        if tok.kind == "(":
            self.next()
            f = self.detf()
            self.expect(")")
            return f
        self.fail(f"expected a formula, found {tok.text or 'end of input'!r}")

    def guard(self) -> Formula:
        tok = self.peek()
        f = self.detf()
        if log_vars(f) or _has_quantifier(f):
            raise ParseError("guards must not use quantifiers or logical variables",
                             tok.line, tok.col)
        return f

    # -- commands

    def cmd(self) -> Command:
        # a `;` chain is read in a loop and folded to the right, so its
        # length is not bounded by the recursion limit
        parts = [self.choice()]
        while self.peek().kind == ";":
            self.next()
            parts.append(self.choice())
        out = parts.pop()
        while parts:
            out = Seq(parts.pop(), out)
        return out

    def choice(self) -> Command:
        left = self.prim_cmd()
        while self.peek().kind == "[":
            self.next()
            p = self.frac()
            if not (0 <= p <= 1):
                self.fail(f"choice probability {p} outside [0, 1]")
            self.expect("]")
            right = self.prim_cmd()
            left = self._desugar_choice(left, p, right)
        return left

    def _desugar_choice(self, c1: Command, p: Fraction, c2: Command) -> Command:
        flag = self._fresh_var()
        dist = DistSpec.make([(p, 0), (1 - p, 1)])
        toss = RandAssign(flag, dist)
        branch = If(Rel("=", ProgVar(flag), IntConst(0)), c1, c2)
        return Seq(toss, branch)

    def prim_cmd(self) -> Command:
        tok = self.peek()
        if tok.kind == "skip":
            self.next()
            return Skip()
        if tok.kind == "if":
            self.next()
            g = self.guard()
            self.expect("then")
            self.expect("{")
            then_branch = self.cmd()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            else_branch = self.cmd()
            self.expect("}")
            return If(g, then_branch, else_branch)
        if tok.kind == "while":
            self.next()
            g = self.guard()
            self.expect("do")
            self.expect("{")
            body = self.cmd()
            self.expect("}")
            return While(g, body)
        if tok.kind == "(":
            self.next()
            c = self.cmd()
            self.expect(")")
            return c
        if tok.kind == "IDENT":
            if tok.text == "P":
                self.fail("'P' is reserved for the probability operator")
            self.next()
            op = self.peek()
            if op.kind == ":=":
                self.next()
                return Assign(tok.text, self.aexp())
            if op.kind == ":=$":
                self.next()
                return RandAssign(tok.text, self.dist_literal())
            self.fail("expected ':=' or ':=$' after variable")
        self.fail(f"expected a command, found {tok.text or 'end of input'!r}")

    def dist_literal(self) -> DistSpec:
        open_tok = self.expect("{")
        pairs: list[tuple[Fraction, int]] = []
        while True:
            w = self.frac()
            self.expect(":")
            pairs.append((w, self.signed_int()))
            if self.peek().kind != ",":
                break
            self.next()
        self.expect("}")
        values = [v for _, v in pairs]
        if len(set(values)) != len(values):
            warnings.warn("duplicate values in distribution literal merged",
                          ParserWarning, stacklevel=4)
        total = sum(w for w, _ in pairs)
        if total != 1:
            raise ParseError(f"distribution weights sum to {total}, expected 1",
                             open_tok.line, open_tok.col)
        for w, _ in pairs:
            if w < 0 or w > 1:
                raise ParseError(f"weight {w} outside [0, 1]",
                                 open_tok.line, open_tok.col)
        return DistSpec.make(pairs)

    # -- real expressions and probabilistic formulas

    def rexp(self) -> RealExpr:
        left = self.rmul()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            left = RBin(op, left, self.rmul())
        return left

    def rmul(self) -> RealExpr:
        left = self.rneg()
        while self.peek().kind == "*":
            self.next()
            left = RBin("*", left, self.rneg())
        return left

    def rneg(self) -> RealExpr:
        if self.peek().kind == "-":
            self.next()
            body = self.rneg()
            if isinstance(body, RatConst):
                return RatConst(-body.value)
            return RBin("-", RatConst(Fraction(0)), body)
        return self.rprim()

    def rprim(self) -> RealExpr:
        tok = self.peek()
        if tok.kind == "INT":
            return RatConst(self.frac())
        if tok.kind == "@":
            self.next()
            return RealVar(self.expect("LIDENT").text)
        if tok.kind == "IDENT" and tok.text == "P":
            self.next()
            self.expect("(")
            f = self.detf()
            self.expect(")")
            return Prob(f)
        if tok.kind == "(":
            self.next()
            r = self.rexp()
            self.expect(")")
            return r
        self.fail(f"expected a real expression, found {tok.text or 'end of input'!r}")

    def probf(self) -> ProbFormula:
        left = self.por()
        if self.peek().kind == "->":
            self.next()
            return PImplies(left, self.probf())
        return left

    def por(self) -> ProbFormula:
        left = self.pand()
        while self.peek().kind == "||":
            self.next()
            left = POr(left, self.pand())
        return left

    def pand(self) -> ProbFormula:
        left = self.pneg()
        while self.peek().kind == "&&":
            self.next()
            left = PAnd(left, self.pneg())
        return left

    def pneg(self) -> ProbFormula:
        if self.peek().kind == "!":
            self.next()
            return PNot(self.pneg())
        return self.patom()

    def patom(self) -> ProbFormula:
        tok = self.peek()
        if tok.kind == "true":
            self.next()
            return PTRUE
        if tok.kind == "false":
            self.next()
            return PFALSE
        save = self.pos
        try:
            left = self.rexp()
            op = self.peek().kind
            if op not in ROPS:
                self.fail("expected a relation")
            self.next()
            return PRel(op, left, self.rexp())
        except ParseError:
            self.pos = save
        if tok.kind == "(":
            self.next()
            f = self.probf()
            self.expect(")")
            return f
        self.fail(f"expected a probabilistic formula, found {tok.text or 'end of input'!r}")


# ---------------------------------------------------------------------------
# Public entry points


def _run(text: str, production: str):
    p = _Parser(tokenize(text))
    result = getattr(p, production)()
    if not p.at_end():
        p.fail(f"unexpected trailing input {p.peek().text!r}")
    return result


def parse_command(text: str) -> Command:
    return _run(text, "cmd")


def parse_arith(text: str):
    return _run(text, "aexp")


def parse_det_formula(text: str) -> Formula:
    return _run(text, "detf")


def parse_real_expr(text: str) -> RealExpr:
    return _run(text, "rexp")


def parse_prob_formula(text: str) -> ProbFormula:
    return _run(text, "probf")


def parse_state(text: str) -> State:
    """Parse a store literal like 'X=0, Y=-3' (empty text gives the empty store)."""
    p = _Parser(tokenize(text))
    out: dict[str, int] = {}
    if not p.at_end():
        while True:
            name = p.expect("IDENT").text
            if name == "P":
                p.fail("'P' is reserved for the probability operator")
            p.expect("=")
            out[name] = p.signed_int()
            if p.peek().kind != ",":
                break
            p.next()
        if not p.at_end():
            p.fail(f"unexpected trailing input {p.peek().text!r}")
    return State.make(out)


@dataclass(frozen=True)
class SourceTriple:
    """A parsed Hoare triple; `prob` selects the assertion flavor."""

    pre: Union[Formula, ProbFormula]
    command: Command
    post: Union[Formula, ProbFormula]
    prob: bool

    def __str__(self) -> str:
        return f"{{ {self.pre} }} {self.command} {{ {self.post} }}"


def _formula_region(tokens: list[Token], start: int) -> int:
    """Index of the '}' closing a formula region (formulas contain no braces)."""
    for i in range(start, len(tokens)):
        if tokens[i].kind == "}":
            return i
        if tokens[i].kind in ("{", "EOF"):
            break
    tok = tokens[start - 1]
    raise ParseError("unterminated assertion", tok.line, tok.col)


def _looks_probabilistic(tokens: list[Token]) -> bool:
    """Textual flavor cue: P(...), an @-variable, or a fraction literal."""
    for i, t in enumerate(tokens):
        if t.kind in ("@", "/"):
            return True
        if (t.kind == "IDENT" and t.text == "P"
                and i + 1 < len(tokens) and tokens[i + 1].kind == "("):
            return True
    return False


def _parse_assertion(tokens: list[Token], prob: bool, side: str):
    p = _Parser(tokens + [Token("EOF", "", 0, 0)])
    production = "probf" if prob else "detf"
    try:
        result = getattr(p, production)()
        if not p.at_end():
            p.fail(f"unexpected trailing input {p.peek().text!r}")
        return result
    except ParseError as err:
        other = _Parser(tokens + [Token("EOF", "", 0, 0)])
        try:
            getattr(other, "detf" if prob else "probf")()
            parses_other = other.at_end()
        except ParseError:
            parses_other = False
        if parses_other:
            raise FlavorMixError(
                f"triple mixes assertion flavors: {side}condition is "
                f"{'deterministic' if prob else 'probabilistic'} "
                f"but the other side is not") from None
        raise err


def parse_triple(text: str) -> SourceTriple:
    tokens = tokenize(text)
    if tokens[0].kind != "{":
        raise ParseError("a triple starts with '{'", tokens[0].line, tokens[0].col)
    close_pre = _formula_region(tokens, 1)
    pre_toks = tokens[1:close_pre]

    body = _Parser(tokens)
    body.pos = close_pre + 1
    command = body.cmd()
    open_post = body.expect("{")
    close_post = _formula_region(tokens, body.pos)
    post_toks = tokens[body.pos:close_post]
    body.pos = close_post
    body.expect("}")
    if not body.at_end():
        body.fail(f"unexpected trailing input {body.peek().text!r}")

    prob = _looks_probabilistic(pre_toks) or _looks_probabilistic(post_toks)
    pre = _parse_assertion(pre_toks, prob, "pre")
    post = _parse_assertion(post_toks, prob, "post")
    return SourceTriple(pre, command, post, prob)
