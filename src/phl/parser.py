"""Concrete syntax: lexer and recursive-descent parsers.

Grammar sketch (precedence is encoded by rule nesting; seq binds loosest in
commands, `->` loosest in formulas, `!` tightest, `*` over `+`/`-`):

    triple := "{" pre "}" cmd "{" post "}"
    cmd    := choice (";" choice)*
    choice := prim ("[" frac "]" prim)*
    prim   := "skip" | IDENT ":=" aexp | IDENT ":=$" "{" wpair,+ "}"
            | "if" detf "then" "{" cmd "}" "else" "{" cmd "}"
            | "while" detf "do" "{" cmd "}" | "(" cmd ")"
    wpair  := frac ":" int

    SUMS(x)   := left-assoc "+"/"-" over left-assoc "*" over unary "-" over x
    CONN(x)   := right-assoc "->" over "||" over "&&" over "!" over x
    REL(e, f) := e rop e | "(" f ")"

    aexp   := SUMS(int | IDENT | lident | "(" aexp ")")
    detf   := CONN(true | false | forall lident "." detf | REL(aexp, detf))
    rexp   := SUMS(frac | "@" lident | "P" "(" detf ")" | "(" rexp ")")
    probf  := CONN(true | false | REL(rexp, probf))

Both flavors share the SUMS, CONN and REL levels, written once and handed
each flavor's constructors; a unary minus before a constant folds into it.
The If and While constructors check guards (no quantifiers or logical
variables); the parser reports their error at the keyword.

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

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .core import (
    ABin, And, Assign, Command, DistSpec, Forall, Formula, If,
    IntConst, LogVar, Not, Or, Implies, PAnd, PImplies, PNot, POr, PRel,
    PFALSE, PTRUE, Prob, ProbFormula, ProgVar, RandAssign, RatConst, RealExpr,
    RealVar, RBin, Rel, ROPS, Seq, Skip, State, TRUE, FALSE, While,
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


# the constructors each flavor hands to the shared towers of _Parser
_INT_SUMS = (ABin, IntConst, 0)
_REAL_SUMS = (RBin, RatConst, Fraction(0))
_DET_CONNECTIVES = (Not, And, Or, Implies)
_PROB_CONNECTIVES = (PNot, PAnd, POr, PImplies)


class Token(NamedTuple):
    kind: str  # "INT", "IDENT", "LIDENT", a keyword, a symbol, or "EOF"
    text: str
    line: int
    col: int


# one named group per token class, tried in order; symbols longest-first.
# Numerals and identifiers are ASCII: any other character is unexpected.
_TOKEN_RE = re.compile("|".join((
    r"(?P<NEWLINE>\n)",
    r"(?P<SPACE>[^\S\n]+)",
    r"(?P<DECIMAL>[0-9]+\.[0-9])",
    r"(?P<INT>[0-9]+)",
    r"(?P<IDENT>[A-Z_][A-Za-z0-9_]*)",
    r"(?P<LIDENT>[a-z][A-Za-z0-9_]*)",
    "(?P<SYMBOL>%s)" % "|".join(map(re.escape, sorted(_SYMBOLS, key=len, reverse=True))),
    r"(?P<OTHER>.)",
)))


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, start = 1, 0  # start: offset of the current line's first character
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "SPACE":
            continue
        if kind == "NEWLINE":
            line += 1
            start = m.end()
            continue
        word = m.group()
        col = m.start() - start + 1
        if kind == "SYMBOL" or (kind == "LIDENT" and word in KEYWORDS):
            kind = word
        elif kind == "DECIMAL":
            raise ParseError(
                "decimal literals are rejected; write an exact fraction like 1/2",
                line, col)
        elif kind == "OTHER":
            raise ParseError(f"unexpected character {word!r}", line, col)
        toks.append(Token(kind, word, line, col))
    toks.append(Token("EOF", "", line, len(text) - start + 1))
    return toks


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        used = {t.text for t in tokens if t.kind == "IDENT"}
        self._fresh_iter = (f"_F{i}" for i in range(len(used) + len(tokens) + 1))
        self._used = used

    # -- token plumbing

    def peek(self) -> Token:
        return self.toks[self.pos]  # next() never moves past the final EOF

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

    # -- SUMS, CONN and REL: the levels both flavors share

    def sums(self, ctors, prim):
        """`+`/`-` over `*` over unary `-` over prim, all left-associative."""
        left = self._product(ctors, prim)
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            left = ctors[0](op, left, self._product(ctors, prim))
        return left

    def _product(self, ctors, prim):
        left = self._minus(ctors, prim)
        while self.peek().kind == "*":
            self.next()
            left = ctors[0]("*", left, self._minus(ctors, prim))
        return left

    def _minus(self, ctors, prim):
        if self.peek().kind == "-":
            self.next()
            body = self._minus(ctors, prim)
            binop, const, zero = ctors
            if isinstance(body, const):  # a negated constant folds into it
                return const(-body.value)
            return binop("-", const(zero), body)
        return prim()

    def connectives(self, ctors, atom):
        """`->` (right-associative) over `||` over `&&` over `!` over atom."""
        left = self._disjunction(ctors, atom)
        if self.peek().kind == "->":
            self.next()
            return ctors[3](left, self.connectives(ctors, atom))
        return left

    def _disjunction(self, ctors, atom):
        left = self._conjunction(ctors, atom)
        while self.peek().kind == "||":
            self.next()
            left = ctors[2](left, self._conjunction(ctors, atom))
        return left

    def _conjunction(self, ctors, atom):
        left = self._negation(ctors, atom)
        while self.peek().kind == "&&":
            self.next()
            left = ctors[1](left, self._negation(ctors, atom))
        return left

    def _negation(self, ctors, atom):
        if self.peek().kind == "!":
            self.next()
            return ctors[0](self._negation(ctors, atom))
        return atom()

    def relation_or_group(self, operand, rel, formula, what: str):
        """`operand rop operand` (backtracking on failure), else `(formula)`."""
        tok = self.peek()
        save = self.pos
        try:
            left = operand()
            op = self.peek().kind
            if op not in ROPS:
                self.fail("expected a relation")
            self.next()
            return rel(op, left, operand())
        except ParseError:
            self.pos = save
        if tok.kind == "(":
            self.next()
            f = formula()
            self.expect(")")
            return f
        self.fail(f"expected a {what}, found {tok.text or 'end of input'!r}")

    # -- arithmetic over integers

    def aexp(self) -> "ABin | IntConst | ProgVar | LogVar":
        return self.sums(_INT_SUMS, self.aprim)

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
        return self.connectives(_DET_CONNECTIVES, self.datom)

    def datom(self) -> Formula:
        tok = self.peek()
        if tok.kind in ("true", "false"):
            self.next()
            return TRUE if tok.kind == "true" else FALSE
        if tok.kind == "forall":
            self.next()
            name = self.expect("LIDENT").text
            self.expect(".")
            return Forall(name, self.detf())
        return self.relation_or_group(self.aexp, Rel, self.detf, "formula")

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
            g = self.detf()
            self.expect("then")
            self.expect("{")
            then_branch = self.cmd()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            else_branch = self.cmd()
            self.expect("}")
            return self._guarded(tok, If, g, then_branch, else_branch)
        if tok.kind == "while":
            self.next()
            g = self.detf()
            self.expect("do")
            self.expect("{")
            body = self.cmd()
            self.expect("}")
            return self._guarded(tok, While, g, body)
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

    @staticmethod
    def _guarded(tok: Token, ctor, *fields) -> Command:
        """An If or While; the node's own guard check is reported at tok."""
        try:
            return ctor(*fields)
        except ValueError as err:
            raise ParseError(str(err), tok.line, tok.col) from None

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
        if total != 1:  # frac() is never negative, so no weight exceeds 1
            raise ParseError(f"distribution weights sum to {total}, expected 1",
                             open_tok.line, open_tok.col)
        return DistSpec.make(pairs)

    # -- real expressions and probabilistic formulas

    def rexp(self) -> RealExpr:
        return self.sums(_REAL_SUMS, self.rprim)

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
        return self.connectives(_PROB_CONNECTIVES, self.patom)

    def patom(self) -> ProbFormula:
        tok = self.peek()
        if tok.kind in ("true", "false"):
            self.next()
            return PTRUE if tok.kind == "true" else PFALSE
        return self.relation_or_group(self.rexp, PRel, self.probf,
                                      "probabilistic formula")


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
            tok = p.expect("IDENT")
            name = tok.text
            if name == "P":
                raise ParseError("'P' is reserved for the probability operator",
                                 tok.line, tok.col)
            if name in out:
                raise ParseError(f"variable {name} is bound twice", tok.line, tok.col)
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
    body.expect("{")
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
