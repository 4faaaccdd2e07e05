"""Concrete syntax: a lexer, one operator-precedence loop for expressions,
and recursive descent for commands.

    triple := "{" pre "}" cmd "{" post "}"
    cmd    := choice (";" choice)*
    choice := prim ("[" frac "]" prim)*
    prim   := "skip" | IDENT ":=" aexp | IDENT ":=$" "{" (frac ":" int),+ "}"
            | "if" detf "then" "{" cmd "}" "else" "{" cmd "}"
            | "while" detf "do" "{" cmd "}" | "(" cmd ")"

Expressions of both flavors are read by one loop over one table,
`OPERATORS`, with the flavor as a column; a higher power binds tighter:

    power  operator          assoc  deterministic  probabilistic
      0    forall k. (prefix)       Forall         -
      1    ->                right  Implies        PImplies
      2    ||                left   Or             POr
      3    &&                left   And            PAnd
      4    ! (prefix)               Not            PNot
      5    < <= = >= >       none   Rel            PRel
      6    + -               left   ABin           RBin
      7    *                 left   ABin           RBin
      8    - (prefix)               0 - e, or a negated constant

The atoms are int, IDENT and lident in an aexp; true, false and aexp
relations in a detf; frac, "@" lident and "P" "(" detf ")" in an rexp; true,
false and rexp relations in a probf; and "(" e ")" in each.  The loop keeps
pending operators and open parentheses on explicit stacks, so nesting depth
is bounded by memory, not by the recursion limit.  A "(" where a formula may
start is read once: a relation operator after it makes it an operand,
anything else a formula.  An error inside a relation is reported at the
relation's first token, as "expected a formula" (or "a probabilistic
formula").  The If and While constructors check guards (no quantifiers or
logical variables); the parser reports their error at the keyword.

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
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Callable, NamedTuple, Optional, Union

from .core import (
    ABin, And, Assign, Command, DistSpec, Forall, Formula, If,
    IntConst, LogVar, Not, Or, Implies, PAnd, PImplies, PNot, POr, PRel,
    PFALSE, PTRUE, Prob, ProbFormula, ProgVar, RandAssign, RatConst, RealExpr,
    RealVar, RBin, Rel, ROPS, Seq, Skip, State, TRUE, FALSE, While, memo_table,
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


class Token(NamedTuple):
    kind: str  # "INT", "IDENT", "LIDENT", a keyword, a symbol, or "EOF"
    text: str
    line: int
    col: int


# one token after any whitespace; symbols longest-first.  Numerals and
# identifiers are ASCII: any other character is unexpected.
_TOKEN_RE = re.compile(r"\s*(%s)" % "|".join((
    r"[0-9]+\.[0-9]",  # a decimal, rejected
    r"[0-9]+",
    r"[A-Za-z_][A-Za-z0-9_]*",
    *map(re.escape, sorted(_SYMBOLS, key=len, reverse=True)),
    r"\S",  # any other character, rejected
)))
# a token's kind is the token for a symbol or keyword, else set by its first
# character; None marks an unexpected character
_KINDS = {word: word for word in [*_SYMBOLS, *KEYWORDS]}
_FIRST = {**dict.fromkeys("0123456789", "INT"),
          **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ_", "IDENT"),
          **dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "LIDENT")}


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, start, at = 1, 0, 0  # start: offset of the current line's first character
    for word in _TOKEN_RE.findall(text):
        found = text.find(word, at)  # only whitespace lies between two tokens
        newlines = text.count("\n", at, found)
        if newlines:
            line += newlines
            start = text.rfind("\n", at, found) + 1
        kind = _KINDS.get(word) or _FIRST.get(word[0])
        if kind is None:
            raise ParseError(f"unexpected character {word!r}", line, found - start + 1)
        if kind == "INT" and "." in word:
            raise ParseError("decimal literals are rejected; write an exact fraction like 1/2",
                             line, found - start + 1)
        toks.append(Token(kind, word, line, found - start + 1))
        at = found + len(word)
    toks.append(Token("EOF", "", text.count("\n") + 1, len(text) - text.rfind("\n")))
    return toks


# ---------------------------------------------------------------------------
# The operator table: each row builds one kind of node from its operands

CONNECTIVE, RELATION, ARITHMETIC, NOT, NEGATE, FORALL, GROUP = range(7)

# token: (power, category, deterministic node, probabilistic node)
OPERATORS = {
    "forall": (0, FORALL, Forall, None),
    "->": (1, CONNECTIVE, Implies, PImplies),
    "||": (2, CONNECTIVE, Or, POr),
    "&&": (3, CONNECTIVE, And, PAnd),
    "!": (4, NOT, Not, PNot),
    **{op: (5, RELATION, Rel, PRel) for op in ROPS},
    "+": (6, ARITHMETIC, ABin, RBin),
    "-": (6, ARITHMETIC, ABin, RBin),
    "*": (7, ARITHMETIC, ABin, RBin),
    "negate": (8, NEGATE, IntConst, RatConst),  # a unary minus
}
RIGHT_ASSOCIATIVE = {"->"}


class _Flavor(NamedTuple):
    formula: type   # the sort of its formulas
    what: str       # the noun of its formula errors
    zero: object    # unary minus builds `zero - e`, unless e is a constant
    bools: dict     # "true" and "false" -> node
    table: dict     # token -> pending-operator entry (power, token, node class, category)


def _flavor(column: int, formula: type, what: str, zero, bools: dict) -> _Flavor:
    return _Flavor(formula, what, zero, bools,
                   {tok: (power, tok, row[column], cat)
                    for tok, (power, cat, *row) in OPERATORS.items() if row[column]})


_DET = _flavor(0, Formula, "formula", IntConst(0), {"true": TRUE, "false": FALSE})
_PROB = _flavor(1, ProbFormula, "probabilistic formula", RatConst(Fraction(0)),
                {"true": PTRUE, "false": PFALSE})
_GROUP = (-1, None, None, GROUP)   # an open "(": its tag is where it starts, if memoized
_BOTTOM = (-2, None, None, GROUP)  # below every entry, so the stack is never empty
# per opening bracket, how each token changes the depth of nesting
_NESTING = {"(": {"(": 1, ")": -1}, "{": {"{": 1, "}": -1}}
# a group nested deeper is not memoized: the texts of the memoized groups,
# each a memo key, then add up to at most this many times the whole text
_MEMO_NESTING = 8


class _Parser:
    """Reads token kinds and texts, ending in EOF; `where` gives a token's
    (line, column), to report an error.  Inside a memo scope the parses
    share `memo`, the scope's table of the texts they read; outside one it
    is None, and a parse keys nothing it reads."""

    def __init__(self, kinds: list[str], words: list[str], where: Callable):
        self.kinds, self.words, self.where = kinds, words, where
        self.memo = memo = memo_table("parse")
        self.atoms = {} if memo is None else memo  # text of a number or variable -> node
        self.nesting: dict[str, list[int]] = {}    # "(" or "{" -> depth after each token
        self.pos = 0
        # the first token of the outermost relation being read, and its noun:
        # an error inside that relation is reported there
        self.relation: Optional[tuple[int, str]] = None
        self._used: Optional[set[str]] = None  # names a `[p]` flag must avoid
        self.warned = False

    # -- token plumbing

    def kind(self) -> str:
        return self.kinds[self.pos]

    def next(self) -> int:
        at = self.pos
        if self.kinds[at] != "EOF":  # never moves past the final EOF
            self.pos += 1
        return at

    def expect(self, kind: str) -> str:
        if self.kinds[self.pos] != kind:
            self.fail(f"expected {kind!r}, found {self.found(self.pos)}")
        return self.words[self.next()]

    def at_end(self) -> bool:
        return self.kinds[self.pos] == "EOF"

    def found(self, at: int) -> str:
        return repr(self.words[at] or "end of input")

    def fail(self, message: str, at: Optional[int] = None):
        if self.relation is not None:
            at, what = self.relation
            message = f"expected a {what}, found {self.found(at)}"
        elif at is None:
            at = self.pos
        raise ParseError(message, *self.where(at))

    def closing(self, at: int) -> Optional[int]:
        """Index of the bracket that closes the '(' or '{' at `at`, if the
        group is closed and at most _MEMO_NESTING deep."""
        opening = self.kinds[at]
        nesting = self.nesting.get(opening)
        if nesting is None:
            nesting = self.nesting[opening] = list(
                accumulate(map(_NESTING[opening].get, self.kinds, repeat(0))))
        level = nesting[at]
        if level > _MEMO_NESTING:
            return None
        try:
            return nesting.index(level - 1, at)
        except ValueError:  # not closed
            return None

    def _fresh_var(self) -> str:
        if self._used is None:
            self._used = {w for k, w in zip(self.kinds, self.words) if k == "IDENT"}
            self._fresh_iter = (f"_F{i}" for i in range(len(self._used) + len(self.kinds) + 1))
        for name in self._fresh_iter:
            if name not in self._used:
                self._used.add(name)
                return name
        raise AssertionError("fresh variable pool exhausted")

    # -- numbers

    def frac(self) -> Fraction:
        num = int(self.expect("INT"))
        if self.kind() == "/":
            self.next()
            den = int(self.expect("INT"))
            if den == 0:
                self.fail("zero denominator", self.pos - 1)
            return Fraction(num, den)
        return Fraction(num)

    def signed_int(self) -> int:
        if self.kind() == "-":
            self.next()
            return -int(self.expect("INT"))
        return int(self.expect("INT"))

    # -- expressions: one loop over the operator table

    def expression(self, flavor: _Flavor, formula: bool):
        """A formula (`formula`) or an operand of the flavor, read up to the
        first token that cannot continue it.  With a memo, a parenthesized
        formula whose text was read before is not read again."""
        kinds, words, atoms, memo, pos = self.kinds, self.words, self.atoms, self.memo, self.pos
        sort, table, bools = flavor.formula, flavor.table, flavor.bools
        det = flavor is _DET
        vals: list = []        # operands, innermost last
        ops: list = [_BOTTOM]  # pending operator entries and open groups
        wide = [formula]       # per open group, and for the whole: may it be a formula
        owner = False          # this call opened self.relation
        may_start_formula = formula

        def reduce(entry) -> None:
            nonlocal owner
            _, tag, node, cat = entry
            if cat <= ARITHMETIC:  # a binary row
                right = vals.pop()
                left = vals[-1]
                if cat != CONNECTIVE:
                    vals[-1] = node(tag, left, right)
                    if owner and cat == RELATION:
                        self.relation, owner = None, False
                elif isinstance(left, sort) and isinstance(right, sort):
                    vals[-1] = node(left, right)
                else:
                    self.fail_sort(flavor, pos)
            elif cat == NEGATE:
                body = vals[-1]
                vals[-1] = (node(-body.value) if isinstance(body, node)
                            else table["-"][2]("-", flavor.zero, body))
            elif isinstance(vals[-1], sort):
                vals[-1] = node(vals[-1]) if cat == NOT else node(tag, vals[-1])
            else:
                self.fail_sort(flavor, pos)

        while True:
            # prefix operators, then one atom
            kind = kinds[pos]
            if may_start_formula:
                may_start_formula = False
                if kind == "(":
                    end = None if memo is None else self.closing(pos)
                    node = None if end is None else memo.get((not det, " ".join(words[pos + 1:end])))
                    if node is None:
                        ops.append(_GROUP if end is None else (-1, pos, None, GROUP))
                        wide.append(True)
                        pos += 1
                        may_start_formula = True
                        continue
                    vals.append(node)
                    pos = end + 1
                    kind = None
                elif kind == "!" or (kind == "forall" and det):
                    self.pos = pos + 1
                    if kind == "!":
                        ops.append(table["!"])
                    else:
                        ops.append((0, self.expect("LIDENT"), Forall, FORALL))
                        self.expect(".")
                    pos = self.pos
                    may_start_formula = True
                    continue
                elif kind in bools:
                    vals.append(bools[kind])
                    pos += 1
                    kind = None
                elif self.relation is None:  # a relation starts here
                    self.relation, owner = (pos, flavor.what), True
            if kind is None:
                pass
            elif det and words[pos] in atoms:
                vals.append(atoms[words[pos]])
                pos += 1
            elif kind == "-" or kind == "(":
                ops.append(table["negate"] if kind == "-" else _GROUP)
                if kind == "(":
                    wide.append(False)
                pos += 1
                continue
            else:
                self.pos = pos
                vals.append(self.arith_atom() if det else self.real_atom())
                pos = self.pos

            # binary operators and closing parentheses, up to the next operand
            operand_next = False
            while not operand_next:
                kind = kinds[pos]
                if kind == ")" and len(wide) > 1:
                    while ops[-1][0] >= 0:
                        reduce(ops.pop())
                    start = ops.pop()[1]
                    wide.pop()
                    if start is not None and isinstance(vals[-1], sort):
                        memo[(not det, " ".join(words[start + 1:pos]))] = vals[-1]
                    pos += 1
                    continue
                entry = table.get(kind)
                if entry is None or entry[3] > ARITHMETIC or not (
                        wide[-1] or entry[3] == ARITHMETIC):
                    break
                power, _, _, cat = entry
                while ops[-1][0] >= power + (kind in RIGHT_ASSOCIATIVE):
                    reduce(ops.pop())
                if cat == CONNECTIVE and not isinstance(vals[-1], sort):
                    self.fail_sort(flavor, pos)
                if cat != CONNECTIVE and isinstance(vals[-1], sort):
                    break  # a formula is no operand: the expression ends here
                ops.append(entry)
                pos += 1
                may_start_formula = cat == CONNECTIVE
                operand_next = True
            if not operand_next:
                break

        while ops[-1][0] >= 0:
            reduce(ops.pop())
        self.pos = pos
        if len(ops) > 1:
            self.expect(")")
        if formula and not isinstance(vals[0], sort):
            self.fail_sort(flavor, pos)
        return vals[0]

    def fail_sort(self, flavor: _Flavor, at: int):
        """An operand where a formula must be: always inside a relation."""
        self.fail(f"expected a {flavor.what}, found {self.found(at)}", at)

    def arith_atom(self):
        kind, word = self.kinds[self.pos], self.words[self.pos]
        if word == "P":
            self.fail("'P' is reserved for the probability operator")
        if kind not in ("INT", "IDENT", "LIDENT"):
            self.fail(f"expected an arithmetic expression, found {self.found(self.pos)}")
        self.pos += 1
        node = self.atoms[word] = (IntConst(int(word)) if kind == "INT" else
                                   ProgVar(word) if kind == "IDENT" else LogVar(word))
        return node

    def real_atom(self) -> RealExpr:
        kind = self.kind()
        if kind == "INT":
            return RatConst(self.frac())
        if kind == "@":
            self.next()
            return RealVar(self.expect("LIDENT"))
        if kind != "IDENT" or self.words[self.pos] != "P":
            self.fail(f"expected a real expression, found {self.found(self.pos)}")
        self.next()
        self.expect("(")
        f = self.expression(_DET, True)
        self.expect(")")
        return Prob(f)

    # -- commands

    def cmd_until(self, end: Optional[int]) -> Command:
        """`cmd()` of a command that should end right before token `end`.
        With an `end`, a command text read before is not read again.  One with
        a `[p]` choice is not kept, as its flag's name depends on the whole
        text; nor is one read after a warning, which must not go unrepeated."""
        start = self.pos
        if end is None or "[" in self.kinds[start:end]:
            return self.cmd()
        key = (None, " ".join(self.words[start:end]))
        c = self.memo.get(key)
        if c is not None:
            self.pos = end
            return c
        c = self.cmd()
        if self.pos == end and not self.warned:
            self.memo[key] = c
        return c

    def block(self) -> Command:
        self.expect("{")
        c = self.cmd_until(None if self.memo is None else self.closing(self.pos - 1))
        self.expect("}")
        return c

    def cmd(self) -> Command:
        # a `;` chain is read in a loop and folded to the right, so its
        # length is not bounded by the recursion limit
        parts = [self.choice()]
        while self.kind() == ";":
            self.next()
            parts.append(self.choice())
        out = parts.pop()
        while parts:
            out = Seq(parts.pop(), out)
        return out

    def choice(self) -> Command:
        left = self.prim_cmd()
        while self.kind() == "[":
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
        at = self.pos
        kind = self.kinds[at]
        if kind == "skip":
            self.next()
            return Skip()
        if kind == "if":
            self.next()
            g = self.expression(_DET, True)
            self.expect("then")
            then_branch = self.block()
            self.expect("else")
            return self._guarded(at, If, g, then_branch, self.block())
        if kind == "while":
            self.next()
            g = self.expression(_DET, True)
            self.expect("do")
            return self._guarded(at, While, g, self.block())
        if kind == "(":
            self.next()
            c = self.cmd()
            self.expect(")")
            return c
        if kind == "IDENT":
            name = self.words[at]
            if name == "P":
                self.fail("'P' is reserved for the probability operator")
            self.next()
            if self.kind() == ":=":
                self.next()
                return Assign(name, self.expression(_DET, False))
            if self.kind() == ":=$":
                self.next()
                return RandAssign(name, self.dist_literal())
            self.fail("expected ':=' or ':=$' after variable")
        self.fail(f"expected a command, found {self.found(at)}")

    def _guarded(self, at: int, ctor, *fields) -> Command:
        """An If or While; the node's own guard check is reported at its keyword."""
        try:
            return ctor(*fields)
        except ValueError as err:
            raise ParseError(str(err), *self.where(at)) from None

    def dist_literal(self) -> DistSpec:
        open_at = self.pos
        self.expect("{")
        pairs: list[tuple[Fraction, int]] = []
        while True:
            w = self.frac()
            self.expect(":")
            pairs.append((w, self.signed_int()))
            if self.kind() != ",":
                break
            self.next()
        self.expect("}")
        values = [v for _, v in pairs]
        if len(set(values)) != len(values):
            self.warned = True
            warnings.warn("duplicate values in distribution literal merged",
                          ParserWarning, stacklevel=_caller_level())
        total = sum(w for w, _ in pairs)
        if total != 1:  # frac() is never negative, so no weight exceeds 1
            raise ParseError(f"distribution weights sum to {total}, expected 1",
                             *self.where(open_at))
        return DistSpec.make(pairs)


def _caller_level() -> int:
    """The `stacklevel` that names the first frame outside this module, as
    seen from the function that calls this one."""
    frame, level = sys._getframe(2), 2
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


# ---------------------------------------------------------------------------
# Public entry points


def _parser(text: str) -> _Parser:
    """A parser of the kinds and the texts of the tokens of `text`; the
    tokens' positions are worked out only to report an error."""
    words = _TOKEN_RE.findall(text)
    kinds = [_KINDS.get(word) or _FIRST.get(word[0]) for word in words]
    if None in kinds or ("." in text and any(len(w) > 1 and "." in w for w in words)):
        tokenize(text)  # raises the first error, at its position
    return _Parser(kinds + ["EOF"], words + [""], lambda at: tokenize(text)[at][2:])


def _run(text: str, read: Callable, *args):
    p = _parser(text)
    result = read(p, *args)
    if not p.at_end():
        p.fail(f"unexpected trailing input {p.found(p.pos)}")
    return result


def parse_command(text: str) -> Command:
    return _run(text, _Parser.cmd)


def parse_arith(text: str):
    return _run(text, _Parser.expression, _DET, False)


def parse_det_formula(text: str) -> Formula:
    return _run(text, _Parser.expression, _DET, True)


def parse_real_expr(text: str) -> RealExpr:
    return _run(text, _Parser.expression, _PROB, False)


def parse_prob_formula(text: str) -> ProbFormula:
    return _run(text, _Parser.expression, _PROB, True)


def parse_state(text: str) -> State:
    """Parse a store literal like 'X=0, Y=-3' (empty text gives the empty store)."""
    p = _parser(text)
    out: dict[str, int] = {}
    if not p.at_end():
        while True:
            at = p.pos
            name = p.expect("IDENT")
            if name == "P":
                raise ParseError("'P' is reserved for the probability operator",
                                 *p.where(at))
            if name in out:
                raise ParseError(f"variable {name} is bound twice", *p.where(at))
            p.expect("=")
            out[name] = p.signed_int()
            if p.kind() != ",":
                break
            p.next()
        if not p.at_end():
            p.fail(f"unexpected trailing input {p.found(p.pos)}")
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


def _formula_region(p: _Parser, start: int) -> int:
    """Index of the '}' closing a formula region (formulas contain no braces)."""
    kinds = p.kinds
    end = kinds.index("}", start) if "}" in kinds[start:] else len(kinds)
    if end == len(kinds) or "{" in kinds[start:end]:
        raise ParseError("unterminated assertion", *p.where(start - 1))
    return end


def _looks_probabilistic(p: _Parser, lo: int, hi: int) -> bool:
    """Textual flavor cue: P(...), an @-variable, or a fraction literal."""
    kinds, words = p.kinds[lo:hi], p.words[lo:hi]
    return ("@" in kinds or "/" in kinds or "P" in words and any(
        w == "P" and p.kinds[lo + i + 1] == "(" for i, w in enumerate(words)))


def _parse_assertion(p: _Parser, lo: int, hi: int, prob: bool, side: str):
    """Tokens lo:hi of the triple that `p` reads, as an assertion of a flavor."""
    def read(in_prob: bool):
        # read in place: the expression stops at the '}' that closes it
        p.pos, p.relation = lo, None  # a failed read may leave a relation open
        result = p.expression(_PROB if in_prob else _DET, True)
        if p.pos != hi:
            p.fail(f"unexpected trailing input {p.found(p.pos)}")
        return result

    key = (prob, " ".join(p.words[lo:hi]))
    if p.memo is not None and key in p.memo:
        return p.memo[key]
    try:
        result = read(prob)
    except ParseError as err:
        try:
            read(not prob)
            parses_other = True
        except ParseError:
            parses_other = False
        if parses_other:
            raise FlavorMixError(
                f"triple mixes assertion flavors: {side}condition is "
                f"{'deterministic' if prob else 'probabilistic'} "
                f"but the other side is not") from None
        raise err
    if p.memo is not None:
        p.memo[key] = result
    return result


def parse_triple(text: str) -> SourceTriple:
    """Parse `{ pre } C { post }`.  Calls inside one memo scope share their
    work (see `_Parser`); `derivation_from_json` opens one per derivation."""
    p = _parser(text)
    kinds = p.kinds
    if kinds[0] != "{":
        raise ParseError("a triple starts with '{'", *p.where(0))
    close_pre = _formula_region(p, 1)
    p.pos = close_pre + 1
    # a well-formed triple's command ends at its last '{'
    command = p.cmd_until(None if p.memo is None else len(kinds) - 1 - kinds[::-1].index("{"))
    open_post = p.pos
    p.expect("{")
    close_post = _formula_region(p, p.pos)
    p.pos = close_post
    p.expect("}")
    if not p.at_end():
        p.fail(f"unexpected trailing input {p.found(p.pos)}")

    prob = (_looks_probabilistic(p, 1, close_pre)
            or _looks_probabilistic(p, open_post + 1, close_post))
    pre = _parse_assertion(p, 1, close_pre, prob, "pre")
    post = _parse_assertion(p, open_post + 1, close_post, prob, "post")
    return SourceTriple(pre, command, post, prob)
