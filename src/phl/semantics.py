"""Exact denotational semantics over sub-distributions.

A command maps a sub-distribution on stores to another one.  Assignment and
conditionals preserve total mass; only loop truncation can lose mass, and the
lost mass is exactly the probability of running past the iteration bound.
Satisfaction is possibility-style: a distribution satisfies a formula when
every support state does, so the zero distribution satisfies everything.

One engine evaluates every expression level set-at-a-time: a batch decides
each distinct DAG node once for a whole sequence of states (integer terms,
deterministic formulas) or of sub-distributions (real expressions,
probabilistic formulas, whose P(phi) bodies are decided once over the union
of the supports).  `sat_det_batch` and `eval_batch` are its entry points;
`eval_arith`, `sat_det`, the interpreter's assignments and guards and every
checker run one batch over their domain.  The answers, the first failing
state or distribution and the `UnboundVariable` raised are those of
evaluating one at a time, left to right with short-circuit connectives.
The interpreter passes plain `{State: int}` weight maps between steps:
integer numerators over one shared denominator, reduced after every step.
`execute` converts its input to them once and makes the output's
`Fraction`s once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import and_, is_, or_, xor
from typing import Optional, Sequence

from .core import (
    AOP_FUN, ROP_FUN, ABin, And, Assign, BoolLit, Command, EMPTY_INTERP,
    Forall, Formula, If, IntConst, Interpretation, LogVar, Not, Or, Implies,
    PAnd, PImplies, PNot, POr, PRel, Prob, ProbFormula, ProgVar, RandAssign,
    RatConst, RBin, RealExpr, RealVar, Rel, Seq, Skip, State, SubDistribution,
    UnboundVariable, While,
)

DEFAULT_QWINDOW = (-8, 8)
DEFAULT_LOOP_BOUND = 64

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Set-at-a-time evaluation.  Each distinct DAG node gets one column, one
# value per state or distribution, built by C-level `map` over its
# children's columns with the `operator` functions; negation is `x ^ True`
# and an implication `(a ^ True) | b`.  Reading a variable that is not bound
# gives an `_Unbound` value instead of raising.  It absorbs every operation
# it is the left operand of, and every one whose left operand does not
# already decide the result (`False & u` is False, `True | u` is True), so
# it ends up exactly where the one-at-a-time, left-to-right, short-circuit
# evaluation would have raised; reading it as a truth value or an integer
# raises `UnboundVariable` there.


class _Unbound:
    """The value of a read of an unbound variable."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __bool__(self):
        raise UnboundVariable(self.name)

    __int__ = __bool__

    def _absorb(self, other):
        return self

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _absorb
    __lt__ = __le__ = __eq__ = __ge__ = __gt__ = _absorb
    __and__ = __or__ = __xor__ = _absorb
    __hash__ = object.__hash__

    def __rand__(self, other):
        return False if other is False else self

    def __ror__(self, other):
        return True if other is True else self


class _Batch:
    """One evaluation: its rows, the values of the variables the rows do
    not bind, the quantifier window and a column per distinct node.  Rows
    are states, with logical variables' values, or distributions, with real
    variables' values; a distribution is a list of (state's index in
    `union`, weight) pairs, and `union` is the batch over the union of the
    supports that decides the bodies of P(phi).  Program-variable columns do
    not depend on the logical values, so the batches of a quantifier's body
    share them with the enclosing one."""

    __slots__ = ("rows", "values", "qwindow", "prog", "union", "memo")

    def __init__(self, rows, values, qwindow, prog, union=None):
        self.rows = rows
        self.values = values
        self.qwindow = qwindow
        self.prog = prog
        self.union = union
        self.memo = {}


def _column(b: _Batch, n) -> list:
    got = b.memo.get(n)
    if got is None:
        got = b.memo[n] = _COLUMN.get(type(n), _not_an_expression)(b, n)
    return got


def _not_an_expression(b: _Batch, n):
    raise TypeError(f"not an expression or formula: {n!r}")


def _const(b: _Batch, n) -> list:
    return [n.value] * len(b.rows)


def _prog_var(b: _Batch, n: ProgVar) -> list:
    name = n.name
    out = b.prog.get(name)
    if out is None:
        out = b.prog[name] = []
        for s in b.rows:
            for k, v in s.items:
                if k == name:
                    out.append(v)
                    break
            else:
                out.append(_Unbound(name))
    return out


def _var(b: _Batch, n: LogVar | RealVar) -> list:
    value = b.values.get(n.name)
    return [_Unbound(n.name) if value is None else value] * len(b.rows)


def _abin(b: _Batch, n: ABin | RBin) -> list:
    return [*map(AOP_FUN[n.op], _column(b, n.left), _column(b, n.right))]


def _rel(b: _Batch, n: Rel | PRel) -> list:
    return [*map(ROP_FUN[n.op], _column(b, n.left), _column(b, n.right))]


def _not(b: _Batch, n: Not | PNot) -> list:
    return [*map(xor, _column(b, n.body), repeat(True))]


def _conj(b: _Batch, n: And | PAnd) -> list:
    return [*map(and_, _column(b, n.left), _column(b, n.right))]


def _disj(b: _Batch, n: Or | POr) -> list:
    return [*map(or_, _column(b, n.left), _column(b, n.right))]


def _implies(b: _Batch, n: Implies | PImplies) -> list:
    return [*map(or_, map(xor, _column(b, n.left), repeat(True)),
                 _column(b, n.right))]


def _forall(b: _Batch, n: Forall) -> list:
    lo, hi = b.qwindow
    out = [True] * len(b.rows)
    for value in range(lo, hi + 1):
        body = _Batch(b.rows, {**b.values, n.var: value}, b.qwindow, b.prog)
        out = [*map(and_, out, _column(body, n.body))]
        if not any(map(is_, out, repeat(True))):
            break  # every state is decided: false, or unbound from here on
    return out


def _prob(b: _Batch, n: Prob) -> list:
    """Each distribution's mass on the states where the body holds; the
    first of its support states to read an unbound variable stops its sum."""
    truth = _column(b.union, n.formula)
    out = []
    for weights in b.rows:
        try:
            held = [p for i, p in weights if truth[i]]
        except UnboundVariable as unbound:
            out.append(_Unbound(unbound.args[0]))
            continue
        out.append(sum(held[1:], held[0]) if held else _ZERO)  # one addition fewer
    return out


_COLUMN = {
    IntConst: _const, BoolLit: _const, ProgVar: _prog_var, LogVar: _var,
    ABin: _abin, Rel: _rel, Not: _not, And: _conj, Or: _disj,
    Implies: _implies, Forall: _forall,
    RatConst: _const, RealVar: _var, Prob: _prob, RBin: _abin, PRel: _rel,
    PNot: _not, PAnd: _conj, POr: _disj, PImplies: _implies,
}


def sat_det_batch(f: Formula, states: Sequence[State],
                  interp: Interpretation = EMPTY_INTERP,
                  qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                  memo: Optional[dict] = None) -> list:
    """The truth of f at each state, in order, each distinct node decided
    once for the whole batch.  Where `sat_det` would raise
    `UnboundVariable`, the entry raises it when read as a truth value, so
    scanning the result in order fails at the same state as scanning the
    states one by one.  memo maps nodes to their columns over these
    states, interp and qwindow already known (a fresh dict by default);
    the columns are shared, and the caller must not change them."""
    b = _Batch(states, interp.log, qwindow, {})
    if memo is not None:
        b.memo = memo
    return _column(b, f)


def eval_batch(n: RealExpr | ProbFormula, dists: Sequence[SubDistribution],
               interp: Interpretation = EMPTY_INTERP,
               qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> list:
    """The exact rational value of a real expression, or the truth of a
    probabilistic formula, on each distribution, in order.  Each distinct
    node is read once for the whole batch and each P(phi) body decided once
    over the union of the supports.  Where evaluating one distribution at a
    time would raise `UnboundVariable`, the entry raises it when read as a
    truth value."""
    index: dict[State, int] = {}  # the union of the supports, in first-seen order
    rows = [[(index.setdefault(s, len(index)), p) for s, p in dist.items()]
            for dist in dists]
    union = _Batch(list(index), interp.log, qwindow, {})
    return _column(_Batch(rows, interp.real, qwindow, None, union), n)


def eval_arith(e, state: State, interp: Interpretation = EMPTY_INTERP) -> int:
    """The value of an integer term at a state: a batch of one state."""
    return int(_column(_Batch((state,), interp.log, DEFAULT_QWINDOW, {}), e)[0])


def sat_det(f: Formula, state: State, interp: Interpretation = EMPTY_INTERP,
            qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> bool:
    """Bounded-model satisfaction: forall ranges over the inclusive qwindow.

    Results involving quantifiers are therefore window-relative; callers
    surface the window in their verdicts.  This is a batch of one state.
    """
    return bool(sat_det_batch(f, (state,), interp, qwindow)[0])


def sat_det_dist(f: Formula, dist: SubDistribution,
                 interp: Interpretation = EMPTY_INTERP,
                 qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> bool:
    """Every support state satisfies f, tested in insertion order."""
    return all(sat_det_batch(f, [s for s, _ in dist.items()], interp, qwindow))


def restrict(dist: SubDistribution, f: Formula,
             qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> SubDistribution:
    """Keep only the mass sitting on states that satisfy f."""
    return SubDistribution(_split(dict(dist.items()), f, qwindow)[0])


def _split(dist: dict, f: Formula,
           qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> tuple[dict, dict]:
    """The weights on states that satisfy f, and the rest, from one batch."""
    truth = sat_det_batch(f, list(dist), EMPTY_INTERP, qwindow)
    yes = {}
    no = {}
    for (s, p), ok in zip(dist.items(), truth):
        (yes if ok else no)[s] = p
    return yes, no


@dataclass(frozen=True)
class ExecResult:
    output: SubDistribution
    residual_mass: Fraction     # input mass minus output mass
    iterations_used: int        # deepest loop unrolling performed
    exact: bool                 # no mass was lost to loop truncation

    def __str__(self) -> str:
        tag = "exact" if self.exact else f"residual {self.residual_mass}"
        return f"<{self.output!r} | {tag}, {self.iterations_used} iterations>"


def execute(c: Command, dist: SubDistribution,
            loop_bound: int = DEFAULT_LOOP_BOUND) -> ExecResult:
    """Run a command on an input sub-distribution.

    Loops are unrolled up to loop_bound body executions per activation; any
    mass still live at the bound is dropped and reported as residual.
    """
    if loop_bound < 0:
        raise ValueError(f"loop bound must be non-negative, got {loop_bound}")
    items = list(dist.items())
    den = lcm(*(p.denominator for _, p in items))
    weights = {s: p.numerator * (den // p.denominator) for s, p in items}
    out, out_den, iters = _run(c, weights, den, loop_bound)
    output = SubDistribution({s: Fraction(n, out_den) for s, n in out.items()})
    residual = Fraction(sum(weights.values()) * out_den - sum(out.values()) * den,
                        den * out_den)
    return ExecResult(output, residual, iters, residual == 0)


# The interpreter's weight maps hold integer numerators over one shared
# denominator, which travels beside the map.  Every map a step makes is
# reduced by the gcd of its denominator and numerators, so its integers are
# never larger than those of the reduced fractions.

Weights = dict[State, int]


def _reduced(weights: Weights, den: int) -> tuple[Weights, int]:
    g = gcd(den, *weights.values())
    if g == 1:
        return weights, den
    return {s: n // g for s, n in weights.items()}, den // g


def _merged(acc: Weights, acc_den: int, weights: Weights,
            den: int) -> tuple[Weights, int]:
    """acc plus weights over the lcm of their denominators, reduced; acc
    is a map made by the caller and may be updated in place."""
    if not weights:
        return acc, acc_den
    if not acc:
        return weights, den
    common = lcm(acc_den, den)
    if common != acc_den:
        k = common // acc_den
        acc = {s: n * k for s, n in acc.items()}
    k = common // den
    get = acc.get
    for s, n in weights.items():
        n *= k
        q = get(s)
        acc[s] = n if q is None else q + n
    return _reduced(acc, common)


def _run(c: Command, dist: Weights, den: int,
         loop_bound: int) -> tuple[Weights, int, int]:
    """The output weights, their denominator and the deepest unrolling.
    The input is never changed; the output is the input itself or a map
    made here."""
    if not dist:
        return dist, den, 0
    if isinstance(c, Skip):
        return dist, den, 0
    if isinstance(c, Assign):
        values = _column(_Batch(list(dist), {}, DEFAULT_QWINDOW, {}), c.expr)
        acc: Weights = {}
        get = acc.get
        for (s, n), v in zip(dist.items(), values):
            t = s.set(c.var, v)  # reads v with int(): an unbound read raises
            q = get(t)
            acc[t] = n if q is None else q + n
        return (*_reduced(acc, den), 0)
    if isinstance(c, RandAssign):
        acc = {}
        get = acc.get
        var, scaled = c.var, c.dist.scaled
        for s, n in dist.items():
            for m, value in scaled:
                t = s.set(var, value)
                q = get(t)
                acc[t] = n * m if q is None else q + n * m
        return (*_reduced(acc, den * c.dist.den), 0)
    if isinstance(c, Seq):
        mid, mid_den, i1 = _run(c.first, dist, den, loop_bound)
        out, out_den, i2 = _run(c.second, mid, mid_den, loop_bound)
        return out, out_den, max(i1, i2)
    if isinstance(c, If):
        then_in, else_in = _split(dist, c.guard)
        then_out, then_den, i1 = _run(c.then_branch, *_reduced(then_in, den), loop_bound)
        else_out, else_den, i2 = _run(c.else_branch, *_reduced(else_in, den), loop_bound)
        # then_out is made here: _split made then_in
        return (*_merged(then_out, then_den, else_out, else_den), max(i1, i2))
    if isinstance(c, While):
        # output = sum over i of the mass that exits after exactly i bodies
        exited: Weights = {}
        exited_den = 1
        inner = 0
        for i in range(loop_bound + 1):
            live, done = _split(dist, c.guard)
            exited, exited_den = _merged(exited, exited_den, *_reduced(done, den))
            if not live or i == loop_bound:
                return exited, exited_den, max(i, inner)
            dist, den, used = _run(c.body, *_reduced(live, den), loop_bound)
            inner = max(inner, used)
    raise TypeError(f"not a command: {c!r}")
