"""Core value and syntax types for a probabilistic imperative language.

Programs act on integer stores; running a program turns a sub-distribution
over stores into another one.  Total mass may drop below 1: the missing mass
is the probability of non-termination.  Weights are integer numerators over
one denominator, read out as exact `fractions.Fraction`s; floats never appear.

Naming conventions shared with the concrete syntax: program variables start
with an uppercase letter (leading underscores are reserved for generated
names), logical variables are lowercase, and real-valued assertion variables
carry an `@` prefix.  The identifier `P` is reserved for the probability
operator.

AST nodes are hash-consed: structurally equal nodes are one object, so `==`
is `is` and terms built by the transformers share every common subterm.
Nodes are immutable.  Each node class gets one constructor and one `map`,
generated when the class is declared; the unique table holds one keyed weak
reference per node.
Only `forall` binds, and only logical variables: `prog_vars`, `real_vars`,
the DAG size `node_size` and the guard and assignment checks each read one
scan of a node's distinct nodes, and `log_vars`, the free logical
variables, is the one bottom-up walk.  One printer, `to_source`, serves
every node class: it gives `str()` of every node and prints each distinct
node once per call.  The term transforms (substitution, simplification,
normalization) and the formula columns over a state window memoize per
distinct node; inside a public transformer or checker call (`memo_scoped`)
their memos are shared by every call it makes and dropped when it ends.
"""

from __future__ import annotations

import operator
import re
import weakref
from bisect import bisect_left
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from itertools import chain
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, Optional

AOPS = ("+", "-", "*")
ROPS = ("<", "<=", "=", ">=", ">")

ROP_FUN = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
           ">=": operator.ge, ">": operator.gt}
AOP_FUN = {"+": operator.add, "-": operator.sub, "*": operator.mul}


_FRACTION = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_fraction(text: str) -> Fraction:
    """Parse 'n' or 'n/d' (an optional '-' and ASCII digits) into an exact
    Fraction; decimals are rejected."""
    s = text.strip()
    if not s:
        raise ValueError("empty fraction literal")
    if any(c in s for c in ".eE"):
        raise ValueError(f"not an exact fraction (decimals are rejected): {text!r}")
    m = _FRACTION.fullmatch(s)
    if m is None:
        raise ValueError(f"not a fraction literal (n or n/d in ASCII digits): {text!r}")
    num, den = m.groups()
    if den is not None and int(den) == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(num), int(den or 1))


# ---------------------------------------------------------------------------
# Hash-consing.  Every AST node is built through one weak unique table keyed
# on its class and field values, so structurally equal nodes are one object:
# `==` and `hash` are identity, and each node's checks run once, when it is
# first built.  Child nodes compare by identity inside the key; scalar
# fields that compare equal across types (1 == True == Fraction(1)) also
# key on their type.  The table holds its nodes weakly: a node no one else
# refers to is dropped, and so is its entry.  Each entry is one weak
# reference that carries its own key, so the callback drops that entry.
# `_node` generates each class's constructor and `map` once, when the
# class is declared: straight-line code over the class's own fields.

_TABLE: dict[tuple, "_Ref"] = {}
_NODE_FAMILIES = ("ArithExpr", "Formula", "Command", "RealExpr", "ProbFormula")


class _Ref(weakref.ref):
    """The table's weak reference to a node; `key` is its entry's key."""

    __slots__ = ("key",)


def _evict(ref: _Ref) -> None:
    if _TABLE.get(ref.key) is ref:
        del _TABLE[ref.key]


class Node:
    """Base of every AST node: construction returns the interned node.
    Nodes are immutable; each field is set once, when the node is built."""

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()   # constructor arguments, in order
    _kids: tuple[str, ...] = ()     # the fields that hold child nodes
    _typed = False                  # key on the type of the first field too

    def _validate(self) -> None:
        """Raise ValueError for an ill-formed node; runs before interning."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __str__(self) -> str:
        return to_source(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({to_source(self)!r})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def map(self, fn: Callable[["Node"], "Node"]) -> "Node":
        """This node with fn applied to each child, in field order: `_node`
        generates it for each class with children; a leaf is itself."""
        return self


# The generated functions' source: `_NEW` and `_MAP` are the bodies, and
# `_make` wraps one in a function whose parameters become its closure.  The
# bodies' own names start with `_`, which no field name does.
_NEW = """\
    def __new__({params}):
        _key = ({key},)
        _ref = _get(_key)
        if _ref is not None:
            _self = _ref()
            if _self is not None:
                return _self
        _self = _object_new(cls)
{sets}{validate}        _ref = _Ref(_self, _evict)
        _ref.key = _key
        _TABLE[_key] = _ref
        return _self
"""
_MAP = """\
    def map(self, fn):
        return _cls({args})
"""


def _make(name: str, qualname: str, body: str, env: dict) -> Callable:
    source = f"def _outer({', '.join(env)}):\n{body}    return {name}\n"
    scope: dict = {}
    # a file name per function keeps the classes apart in profiles
    exec(compile(source, f"<{qualname}>", "exec"), globals(), scope)
    fn = scope["_outer"](**env)
    fn.__qualname__ = qualname
    return fn


def _node(cls):
    """Declare an AST node class from its annotated fields.  The class is
    rebuilt with one slot per field and gets one generated constructor,
    `__new__(cls, <fields>)`, which returns the live node on a hit and on a
    miss sets the slots, runs `_validate` if the class has one and enters
    one keyed weak reference in the table; a class with children also gets
    one generated `map`."""
    notes = cls.__dict__.get("__annotations__", {})
    names = tuple(notes)
    body = dict(cls.__dict__, __slots__=names)
    del body["__dict__"]  # Node's slots already hold the weak reference
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    cls._fields = names
    cls._kids = tuple(n for n in names if notes[n] in _NODE_FAMILIES)
    setters = {f"_set_{n}": cls.__dict__[n].__set__ for n in names}
    key = ("cls", f"type({names[0]})") if cls._typed else ("cls",)
    new = _NEW.format(
        params=", ".join(("cls",) + names),
        key=", ".join(key + names),
        sets="".join(f"        _set_{n}(_self, {n})\n" for n in names),
        validate="        _self._validate()\n" if cls._validate is not Node._validate else "")
    cls.__new__ = staticmethod(_make(
        "__new__", f"{cls.__name__}.__new__", new,
        dict(setters, _get=_TABLE.get, _object_new=object.__new__, _Ref=_Ref,
             _evict=_evict, _TABLE=_TABLE)))
    if cls._kids:
        args = ", ".join(f"fn(self.{n})" if n in cls._kids else f"self.{n}" for n in names)
        cls.map = _make("map", f"{cls.__name__}.map", _MAP.format(args=args), {"_cls": cls})
    return cls


# ---------------------------------------------------------------------------
# Arithmetic expressions


class ArithExpr(Node):
    """Integer-valued expression over program and logical variables."""

    __slots__ = ()


@_node
class IntConst(ArithExpr):
    value: int
    _typed = True


@_node
class ProgVar(ArithExpr):
    name: str


@_node
class LogVar(ArithExpr):
    name: str


@_node
class ABin(ArithExpr):
    op: str
    left: ArithExpr
    right: ArithExpr

    def _validate(self):
        if self.op not in AOPS:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")


# ---------------------------------------------------------------------------
# Deterministic formulas (guards are the quantifier- and logical-var-free
# subset)


class Formula(Node):
    """First-order assertion over integer expressions."""

    __slots__ = ()


@_node
class BoolLit(Formula):
    value: bool
    _typed = True


@_node
class Rel(Formula):
    op: str
    left: ArithExpr
    right: ArithExpr

    def _validate(self):
        if self.op not in ROPS:
            raise ValueError(f"unknown relation {self.op!r}")


@_node
class Not(Formula):
    body: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Forall(Formula):
    var: str
    body: Formula


TRUE = BoolLit(True)
FALSE = BoolLit(False)


def and_all(formulas: Iterable[Formula]) -> Formula:
    """Left-folded conjunction; TRUE for the empty list."""
    acc: Optional[Formula] = None
    for f in formulas:
        acc = f if acc is None else And(acc, f)
    return TRUE if acc is None else acc


# ---------------------------------------------------------------------------
# Commands


class Command(Node):
    __slots__ = ()


@dataclass(frozen=True)
class DistSpec:
    """Finite rational distribution literal: weights in (0,1] summing to 1.

    `den` is the lcm of the weights' denominators and `scaled` lists each
    (weight * den, value) pair, the value as a store holds it (a bool
    constant as 0 or 1), so the interpreter draws in integers.  The weights'
    sum is checked in those integers."""

    pairs: tuple[tuple[Fraction, int], ...]
    den: int = field(init=False, compare=False, repr=False)
    scaled: tuple[tuple[int, int], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("empty distribution literal")
        seen = set()
        for weight, value in self.pairs:
            if not isinstance(weight, Fraction):
                raise ValueError("distribution weights must be exact fractions")
            if not 0 < weight.numerator <= weight.denominator:
                raise ValueError(f"weight {weight} outside (0, 1]")
            if value in seen:
                raise ValueError(f"duplicate value {value} in distribution")
            seen.add(value)
        den = lcm(*(w.denominator for w, _ in self.pairs))
        scaled = tuple((w.numerator * (den // w.denominator), int(v))
                       for w, v in self.pairs)
        total = sum(n for n, _ in scaled)
        if total != den:
            raise ValueError(f"distribution weights sum to {Fraction(total, den)}, expected 1")
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "scaled", scaled)

    @staticmethod
    def make(pairs: Iterable[tuple[Fraction, int]]) -> "DistSpec":
        """Build a DistSpec, merging duplicate values and dropping zero
        weights in integers over the lcm of the weights' denominators."""
        pairs = list(pairs)
        if not all(isinstance(w, (int, Fraction)) for w, _ in pairs):
            raise ValueError("distribution weights must be exact fractions")
        den = lcm(*(w.denominator for w, _ in pairs))
        merged: dict[int, int] = {}
        for weight, value in pairs:
            merged[value] = merged.get(value, 0) + weight.numerator * (den // weight.denominator)
        return DistSpec(tuple((Fraction(n, den), v) for v, n in merged.items() if n != 0))

    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.pairs)


@_node
class Skip(Command):
    pass


@_node
class Assign(Command):
    var: str
    expr: ArithExpr

    def _validate(self):
        # arithmetic has no binder: every logical variable in it is free
        bad = {n.name for n in _nodes(self.expr) if type(n) is LogVar}
        if bad:
            raise ValueError(
                f"assignment right-hand side uses logical variables {sorted(bad)}"
            )


@_node
class RandAssign(Command):
    var: str
    dist: DistSpec


@_node
class Seq(Command):
    first: Command
    second: Command


def _check_guard(guard: Formula) -> None:
    if any(type(n) is LogVar or type(n) is Forall for n in _nodes(guard)):
        raise ValueError(f"guard must be quantifier- and logical-var-free: {guard}")


@_node
class If(Command):
    guard: Formula
    then_branch: Command
    else_branch: Command

    def _validate(self):
        _check_guard(self.guard)


@_node
class While(Command):
    guard: Formula
    body: Command

    def _validate(self):
        _check_guard(self.guard)


# ---------------------------------------------------------------------------
# Real-valued assertion expressions and probabilistic formulas


class RealExpr(Node):
    """Rational-valued expression; P(phi) reads off probability mass."""

    __slots__ = ()


@_node
class RatConst(RealExpr):
    value: Fraction
    _typed = True


@_node
class RealVar(RealExpr):
    name: str


@_node
class Prob(RealExpr):
    formula: Formula


@_node
class RBin(RealExpr):
    op: str
    left: RealExpr
    right: RealExpr

    def _validate(self):
        if self.op not in AOPS:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")


class ProbFormula(Node):
    __slots__ = ()


@_node
class PRel(ProbFormula):
    op: str
    left: RealExpr
    right: RealExpr

    def _validate(self):
        if self.op not in ROPS:
            raise ValueError(f"unknown relation {self.op!r}")


@_node
class PNot(ProbFormula):
    body: ProbFormula


@_node
class PAnd(ProbFormula):
    left: ProbFormula
    right: ProbFormula


@_node
class POr(ProbFormula):
    left: ProbFormula
    right: ProbFormula


@_node
class PImplies(ProbFormula):
    left: ProbFormula
    right: ProbFormula


# `true`/`false` written in probabilistic assertion position
PTRUE = PRel("=", RatConst(Fraction(0)), RatConst(Fraction(0)))
PFALSE = PRel("<", RatConst(Fraction(0)), RatConst(Fraction(0)))


# ---------------------------------------------------------------------------
# Stores, sub-distributions, interpretations


class State(tuple):
    """Immutable integer store: the tuple of its (name, value) pairs, sorted
    by name.  Hashing, equality and order are the tuple's own C code, so a
    store equals, and hashes like, the plain tuple of its pairs.  `s[name]`
    reads a variable; iterating gives the pairs."""

    __slots__ = ()

    @property
    def items(self) -> tuple[tuple[str, int], ...]:
        """The pairs, as a plain tuple."""
        return tuple(self)

    @staticmethod
    def make(mapping: Mapping[str, int]) -> "State":
        return State(sorted((str(k), int(v)) for k, v in mapping.items()))

    def __getitem__(self, name: str) -> int:
        for k, v in self:
            if k == name:
                return v
        raise UnboundVariable(name)

    def __contains__(self, name: str) -> bool:
        return any(k == name for k, _ in self)

    def set(self, name: str, value: int) -> "State":
        """This store with name bound to value: one insertion into the
        sorted pairs, or one replacement."""
        items = tuple(self)  # a plain tuple: a State's [] reads a variable
        i = bisect_left(items, (name,))  # (name,) sorts before (name, v)
        j = i + 1 if i < len(items) and items[i][0] == name else i
        return State(items[:i] + ((name, int(value)),) + items[j:])

    def vars(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self)

    def as_dict(self) -> dict[str, int]:
        return dict(self)

    def __repr__(self) -> str:
        return f"State(items={tuple(self)!r})"

    def __str__(self) -> str:
        return "{" + ", ".join(f"{k}={v}" for k, v in self) + "}"


class UnboundVariable(KeyError):
    """A variable was read without a value in scope."""

    def __str__(self) -> str:
        return f"unbound variable {self.args[0]}" if self.args else "unbound variable"


class SubDistribution:
    """Finite-support sub-distribution over states (total mass <= 1).

    Integer numerators `nums` over one denominator `den`, the lcm of the
    reduced weights' denominators (1 when empty): the interpreter's own form,
    which equality and hash read.  Weights go in and come out as `Fraction`s.
    """

    __slots__ = ("nums", "den")

    def __init__(self, entries: Mapping[State, Fraction] | Iterable[tuple[State, Fraction]] = ()):
        weights: dict[State, Fraction] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for state, p in items:
            if not isinstance(p, Fraction):
                p = Fraction(p)
            if p.numerator < 0:
                raise ValueError(f"negative probability {p} at {state}")
            if p.numerator:  # most states come once: add only on a repeat
                weights[state] = weights[state] + p if state in weights else p
        # over the lcm of the reduced denominators, no prime divides den and
        # every numerator: the form is already reduced
        den = lcm(*(p.denominator for p in weights.values()))
        nums = {s: p.numerator * (den // p.denominator) for s, p in weights.items()}
        total = sum(nums.values())
        if total > den:
            raise ValueError(f"total mass {Fraction(total, den)} exceeds 1")
        self.nums, self.den = nums, den

    @staticmethod
    def of_weights(nums: dict[State, int], den: int) -> "SubDistribution":
        """The distribution of positive numerators over den, unchecked: the
        interpreter's maps, already reduced and of mass at most 1."""
        d = object.__new__(SubDistribution)
        d.nums, d.den = nums, den
        return d

    @staticmethod
    def point(state: State) -> "SubDistribution":
        return SubDistribution.of_weights({state: 1}, 1)

    @staticmethod
    def zero() -> "SubDistribution":
        return SubDistribution.of_weights({}, 1)

    @property
    def mass(self) -> Fraction:
        return Fraction(sum(self.nums.values()), self.den)

    def support(self) -> frozenset[State]:
        return frozenset(self.nums)

    def get(self, state: State) -> Fraction:
        return Fraction(self.nums.get(state, 0), self.den)

    def items(self) -> Iterator[tuple[State, Fraction]]:
        den = self.den
        return ((s, Fraction(n, den)) for s, n in self.nums.items())

    def scale(self, factor: Fraction) -> "SubDistribution":
        if factor < 0:
            raise ValueError("negative scale factor")
        return SubDistribution((s, p * factor) for s, p in self.items())

    def __add__(self, other: "SubDistribution") -> "SubDistribution":
        return SubDistribution(chain(self.items(), other.items()))

    def project(self, names: Iterable[str]) -> "SubDistribution":
        """Marginalize onto the given variables."""
        keep = set(names)
        return SubDistribution((State.make({k: v for k, v in s if k in keep}), p)
                               for s, p in self.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubDistribution):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    def __len__(self) -> int:
        return len(self.nums)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __repr__(self) -> str:
        return " + ".join(f"{p}*{s}" for s, p in sorted(self.items())) or "0"


def point_dist(state: State | Mapping[str, int]) -> SubDistribution:
    if not isinstance(state, State):
        state = State.make(state)
    return SubDistribution.point(state)


class Interpretation:
    """Values for free logical variables (ints) and real variables (rationals)."""

    __slots__ = ("log", "real")

    def __init__(self, log: Mapping[str, int] | None = None,
                 real: Mapping[str, Fraction] | None = None):
        self.log = dict(log or {})
        self.real = dict(real or {})

    def log_value(self, name: str) -> int:
        try:
            return self.log[name]
        except KeyError:
            raise UnboundVariable(name) from None

    def real_value(self, name: str) -> Fraction:
        try:
            return self.real[name]
        except KeyError:
            raise UnboundVariable(name) from None

    def __repr__(self) -> str:
        parts = [f"{k}={v}" for k, v in sorted(self.log.items())]
        parts += [f"@{k}={v}" for k, v in sorted(self.real.items())]
        return "[" + ", ".join(parts) + "]"


EMPTY_INTERP = Interpretation()


# ---------------------------------------------------------------------------
# DAG walks.  The loop transformers build terms whose tree size is
# exponential but whose DAG is small, so every traversal visits each
# distinct node once.  The term transforms (substitution, simplification,
# normalization and r/B) also share their memo across calls: pt, wp,
# wp_prob, build_wp_derivation and check_derivation call them thousands of
# times on terms that share almost every subterm.  So do the formula
# columns over a state window (`StateWindow.truth`), one table per window,
# interpretation and quantifier window: the validity checks, fixpoint tests
# and class tests decide the same subformulas again and again; the parser
# reads each distinct text in `derivation_from_json` once.  The outermost
# of those public calls opens one memo scope, a dict of tables keyed by
# transform and arguments, and drops it when it returns or raises; nested
# public calls reuse it.  Each memoized result is a pure function of its
# interned node or text and its table's key, so a shared table changes no
# result.  Outside a scope there is no table and so no cache.

_SCOPE: ContextVar[Optional[dict]] = ContextVar("phl_memo_scope", default=None)


def memo_scoped(fn: Callable) -> Callable:
    """fn opens the memo scope for the transforms it calls, unless a caller
    already has; the scope closes when that outermost call ends."""
    @wraps(fn)
    def scoped(*args, **kwargs):
        if _SCOPE.get() is not None:
            return fn(*args, **kwargs)
        token = _SCOPE.set({})
        try:
            return fn(*args, **kwargs)
        finally:
            _SCOPE.reset(token)
    return scoped


def memo_table(*key) -> Optional[dict]:
    """The open scope's table for key, or None outside any scope."""
    scope = _SCOPE.get()
    if scope is None:
        return None
    table = scope.get(key)
    if table is None:
        table = scope[key] = {}
    return table


def dag_walk(root: Node, step: Callable, memo: Optional[dict] = None) -> object:
    """step(node, go) once per distinct node under root, bottom-up: step
    reads a child's result through go(child).  Returns root's result.
    memo maps nodes to results already known (a fresh dict by default)."""
    if memo is None:
        memo = {}

    def go(n: Node):
        got = memo.get(n)
        if got is None:
            got = memo[n] = step(n, go)
        return got

    try:
        return go(root)
    finally:  # go refers to itself: break the cycle
        del go


def _nodes(root: Node) -> set[Node]:
    """Every distinct node under root, root included, found with an
    explicit stack: no recursion, whatever the depth."""
    seen = {root}
    stack = [root]
    while stack:
        n = stack.pop()
        for k in n._kids:
            child = getattr(n, k)
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def node_size(node: Node) -> int:
    """Number of AST nodes counted with sharing (DAG size)."""
    return len(_nodes(node))


# ---------------------------------------------------------------------------
# Variable collection; each collector accepts any node.  Only `forall`
# binds, and it binds logical variables only: the program and real
# variables of a node are those occurring in it, read off one scan of its
# nodes.  Free logical variables take the one bottom-up walk.


_NO_VARS: frozenset[str] = frozenset()


def prog_vars(node: Node) -> frozenset[str]:
    """Program variables read or assigned anywhere in node."""
    nodes = _nodes(node)
    return frozenset({n.name for n in nodes if type(n) is ProgVar}
                     | {n.var for n in nodes if type(n) is Assign or type(n) is RandAssign})


_SUBCOMMANDS = {Seq: ("first", "second"), If: ("then_branch", "else_branch"),
                While: ("body",)}


def assigned_vars(c: Command) -> frozenset[str]:
    """Program variables assigned anywhere in c: a scan of its commands
    alone, which skips every guard and expression."""
    seen = {c}
    stack = [c]
    out = set()
    while stack:
        n = stack.pop()
        if type(n) is Assign or type(n) is RandAssign:
            out.add(n.var)
        for k in _SUBCOMMANDS.get(type(n), ()):
            child = getattr(n, k)
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return frozenset(out)


def log_vars(node: Node) -> frozenset[str]:
    """Free logical variables; Forall binds its variable."""
    def step(n, go):
        if type(n) is LogVar:
            return frozenset((n.name,))
        out = _NO_VARS
        for k in n._kids:
            out |= go(getattr(n, k))
        if type(n) is Forall:
            out -= {n.var}
        return out
    return dag_walk(node, step)


def real_vars(node: Node) -> frozenset[str]:
    return frozenset(n.name for n in _nodes(node) if type(n) is RealVar)


# ---------------------------------------------------------------------------
# Substitution of program variables.  Quantifiers bind logical variables
# only, so no capture is possible; untouched subterms come back as the same
# nodes.


def _subst(node: Node, name: str, repl: ArithExpr) -> Node:
    def step(n, go):
        if type(n) is ProgVar and n.name == name:
            return repl
        return n.map(go)
    return dag_walk(node, step, memo_table("subst", name, repl))


def subst_arith(e: ArithExpr, name: str, repl: ArithExpr) -> ArithExpr:
    return _subst(e, name, repl)


def subst_prog_var(f: Formula, name: str, repl: ArithExpr) -> Formula:
    """phi[name/repl]: replace a program variable in a formula."""
    return _subst(f, name, repl)


def subst_real(r: RealExpr, name: str, repl: ArithExpr) -> RealExpr:
    return _subst(r, name, repl)


# ---------------------------------------------------------------------------
# Simplification.  A terminating bottom-up rewrite: constant folding, boolean
# absorption, double negation, idempotence.  Equal operands are one node, so
# idempotence and complement checks are identity tests.


def _complementary(a: Formula, b: Formula) -> bool:
    """One operand is the negation of the other."""
    return (isinstance(a, Not) and a.body is b) or (isinstance(b, Not) and b.body is a)


def _simplify_step(n: Formula, go) -> Formula:
    if isinstance(n, Rel):
        if isinstance(n.left, IntConst) and isinstance(n.right, IntConst):
            return BoolLit(ROP_FUN[n.op](n.left.value, n.right.value))
        return n
    if isinstance(n, Not):
        body = go(n.body)
        if isinstance(body, BoolLit):
            return BoolLit(not body.value)
        if isinstance(body, Not):
            return body.body
        return Not(body)
    if isinstance(n, And):
        left, right = go(n.left), go(n.right)
        if isinstance(left, BoolLit):
            return right if left.value else FALSE
        if isinstance(right, BoolLit):
            return left if right.value else FALSE
        if left is right:
            return left
        if _complementary(left, right):
            return FALSE
        return And(left, right)
    if isinstance(n, Or):
        left, right = go(n.left), go(n.right)
        if isinstance(left, BoolLit):
            return TRUE if left.value else right
        if isinstance(right, BoolLit):
            return TRUE if right.value else left
        if left is right:
            return left
        if _complementary(left, right):
            return TRUE
        return Or(left, right)
    if isinstance(n, Implies):
        left, right = go(n.left), go(n.right)
        if isinstance(left, BoolLit):
            return right if left.value else TRUE
        if right is TRUE or left is right:
            return TRUE
        return Implies(left, right)
    if isinstance(n, Forall):
        body = go(n.body)
        if isinstance(body, BoolLit) or n.var not in log_vars(body):
            return body
        return Forall(n.var, body)
    return n


def simplify_formula(f: Formula) -> Formula:
    # shares normalize_real's table: _normalize_step hands every formula
    # node to _simplify_step, so the two agree on every formula node
    return dag_walk(f, _simplify_step, memo_table("simplify"))


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _normalize_step(n: Node, go) -> Node:
    if isinstance(n, Prob):
        body = go(n.formula)
        return RatConst(_ZERO) if body is FALSE else Prob(body)
    if not isinstance(n, RBin):
        if isinstance(n, ProbFormula):
            return n.map(go)  # a relation or connective: its real sides normalized
        return _simplify_step(n, go)
    left, right = go(n.left), go(n.right)
    lc = left.value if isinstance(left, RatConst) else None
    rc = right.value if isinstance(right, RatConst) else None
    if lc is None and rc is None:
        return RBin(n.op, left, right)
    if lc is not None and rc is not None:
        return RatConst(AOP_FUN[n.op](lc, rc))
    # one constant operand: 0 + x, x + 0 and x - 0 are x, a factor 0 gives
    # 0, a factor 1 is dropped, and 0 - x stays
    op = n.op
    if rc is None:
        if op == "+" and lc == _ZERO:
            return right
        if op == "*":
            if lc == _ZERO:
                return RatConst(_ZERO)
            if lc == _ONE:
                return right
    elif rc == _ZERO:
        return RatConst(_ZERO) if op == "*" else left
    elif op == "*" and rc == _ONE:
        return left
    return RBin(op, left, right)


def normalize_real(r: RealExpr) -> RealExpr:
    """Constant folding plus dropping of zero summands and unit factors; the
    body of each P(phi) is simplified in the same walk.  A probabilistic
    formula is mapped: each real side of its relations is normalized, and
    the relations and connectives stay."""
    return dag_walk(r, _normalize_step, memo_table("simplify"))


def real_sum(terms: Iterable[RealExpr]) -> RealExpr:
    acc: Optional[RealExpr] = None
    for t in terms:
        acc = t if acc is None else RBin("+", acc, t)
    return RatConst(Fraction(0)) if acc is None else acc


# ---------------------------------------------------------------------------
# Concrete syntax output: one printer for every node class.  A child is
# parenthesized exactly when its level is below the level its slot needs.
# The levels follow the parser's rule nesting, so parse(to_source(ast))
# returns an equal AST: `;` and forall 0, `->` 1, `||` 2, `&&` and relations
# 3; arithmetic has its own scale, `+`/`-` 1 and `*` 2.

_ATOM = 5  # atoms, `!`, P(...), assignments, if and while: never wrapped
# connective: (separator, level, left slot, right slot)
_INFIX = {And: (" && ", 3, 3, 4), PAnd: (" && ", 3, 3, 4),
          Or: (" || ", 2, 2, 3), POr: (" || ", 2, 2, 3),
          Implies: (" -> ", 1, 2, 1), PImplies: (" -> ", 1, 2, 1)}
_APREC = {"+": 1, "-": 1, "*": 2}


def _show(n: Node, memo: dict, need: int) -> str:
    """n's text in a slot that needs level `need`; memo maps each node
    printed so far to (text, level).  One frame per nesting level."""
    cls = type(n)
    if cls is ProgVar or cls is LogVar:
        return n.name
    if cls is IntConst or cls is RatConst:
        return str(n.value)
    if cls is RealVar:
        return "@" + n.name
    if cls is BoolLit:
        return "true" if n.value else "false"
    got = memo.get(n)
    if got is None:
        infix = _INFIX.get(cls)
        if infix is not None:
            sep, level, left, right = infix
            got = (_show(n.left, memo, left) + sep + _show(n.right, memo, right), level)
        elif cls is ABin or cls is RBin:
            p = _APREC[n.op]
            got = (f"{_show(n.left, memo, p)} {n.op} {_show(n.right, memo, p + 1)}", p)
        elif cls is Rel or cls is PRel:
            got = (f"{_show(n.left, memo, 0)} {n.op} {_show(n.right, memo, 0)}", 3)
        elif cls is Not or cls is PNot:
            got = ("!" + _show(n.body, memo, 4), _ATOM)
        elif cls is Prob:
            got = (f"P({_show(n.formula, memo, 0)})", _ATOM)
        elif cls is Forall:
            got = (f"forall {n.var}. {_show(n.body, memo, 0)}", 0)
        elif cls is Seq:
            got = (f"{_show(n.first, memo, 1)}; {_show(n.second, memo, 0)}", 0)
        elif cls is Skip:
            got = ("skip", _ATOM)
        elif cls is Assign:
            got = (f"{n.var} := {_show(n.expr, memo, 0)}", _ATOM)
        elif cls is RandAssign:
            body = ", ".join(f"{w}:{v}" for w, v in n.dist.pairs)
            got = (f"{n.var} :=$ {{{body}}}", _ATOM)
        elif cls is If:
            got = (f"if {_show(n.guard, memo, 0)} "
                   f"then {{ {_show(n.then_branch, memo, 0)} }} "
                   f"else {{ {_show(n.else_branch, memo, 0)} }}", _ATOM)
        elif cls is While:
            got = (f"while {_show(n.guard, memo, 0)} "
                   f"do {{ {_show(n.body, memo, 0)} }}", _ATOM)
        else:
            raise TypeError(f"not an AST node: {n!r}")
        memo[n] = got
    text, level = got
    return f"({text})" if level < need else text


def to_source(node: Node) -> str:
    """Concrete syntax of any AST node; each distinct node is printed once."""
    return _show(node, {}, 0)
