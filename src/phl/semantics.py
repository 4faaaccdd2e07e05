"""Exact denotational semantics over sub-distributions.

A command maps a sub-distribution on stores to another one.  Assignment and
conditionals preserve total mass; only loop truncation can lose mass, and the
lost mass is exactly the probability of running past the iteration bound.
Satisfaction is possibility-style: a distribution satisfies a formula when
every support state does, so the zero distribution satisfies everything.

Formulas are decided set-at-a-time.  `sat_det_batch` evaluates a formula over
a whole sequence of states and decides each distinct DAG node once for the
batch; `sat_det` is a batch of one state, and `sat_det_dist`, `restrict`, the
interpreter's guards and the checkers in `assertions`, `wp` and `preterm`
each run one batch over their domain.  The answers, the first failing state
and the `UnboundVariable` raised are those of evaluating state by state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import and_, is_, or_, xor
from typing import Sequence

from .core import (
    ABin, And, Assign, BoolLit, Command, EMPTY_INTERP, Forall, Formula, If,
    IntConst, Interpretation, LogVar, Not, Or, Implies, ProgVar, RandAssign,
    Rel, Seq, Skip, State, SubDistribution, UnboundVariable, While,
    _AOP_FUN, _ROP_FUN,
)

DEFAULT_QWINDOW = (-8, 8)
DEFAULT_LOOP_BOUND = 64


def eval_arith(e, state: State, interp: Interpretation = EMPTY_INTERP) -> int:
    if isinstance(e, IntConst):
        return e.value
    if isinstance(e, ProgVar):
        return state[e.name]
    if isinstance(e, LogVar):
        return interp.log_value(e.name)
    if isinstance(e, ABin):
        return _AOP_FUN[e.op](eval_arith(e.left, state, interp),
                              eval_arith(e.right, state, interp))
    raise TypeError(f"not an arithmetic expression: {e!r}")


# ---------------------------------------------------------------------------
# Set-at-a-time satisfaction.  Each distinct DAG node gets one column, one
# value per state, built by C-level `map` over its children's columns with
# the `operator` functions; negation is `x ^ True` and an implication
# `(a ^ True) | b`.  Reading a variable that is not bound gives an `_Unbound`
# value instead of raising.  It absorbs every operation it is the left
# operand of, and every one whose left operand does not already decide the
# result (`False & u` is False, `True | u` is True), so it ends up exactly
# where the per-state, left-to-right, short-circuit evaluation would have
# raised; reading it as a truth value raises `UnboundVariable` there.


class _Unbound:
    """The value of a read of an unbound variable."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __bool__(self):
        raise UnboundVariable(self.name)

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
    """One evaluation: the states, the logical variables' values, the
    quantifier window and a column per distinct node.  Program-variable
    columns do not depend on the logical values, so the batches of a
    quantifier's body share them with the enclosing one."""

    __slots__ = ("states", "log", "qwindow", "prog", "memo")

    def __init__(self, states, log, qwindow, prog):
        self.states = states
        self.log = log
        self.qwindow = qwindow
        self.prog = prog
        self.memo = {}


def _column(b: _Batch, n) -> list:
    got = b.memo.get(n)
    if got is None:
        got = b.memo[n] = _COLUMN.get(type(n), _not_a_formula)(b, n)
    return got


def _not_a_formula(b: _Batch, n):
    raise TypeError(f"not a formula: {n!r}")


def _const(b: _Batch, n) -> list:
    return [n.value] * len(b.states)


def _prog_var(b: _Batch, n: ProgVar) -> list:
    name = n.name
    out = b.prog.get(name)
    if out is None:
        out = b.prog[name] = []
        for s in b.states:
            for k, v in s.items:
                if k == name:
                    out.append(v)
                    break
            else:
                out.append(_Unbound(name))
    return out


def _log_var(b: _Batch, n: LogVar) -> list:
    value = b.log.get(n.name)
    return [_Unbound(n.name) if value is None else value] * len(b.states)


def _abin(b: _Batch, n: ABin) -> list:
    return [*map(_AOP_FUN[n.op], _column(b, n.left), _column(b, n.right))]


def _rel(b: _Batch, n: Rel) -> list:
    return [*map(_ROP_FUN[n.op], _column(b, n.left), _column(b, n.right))]


def _not(b: _Batch, n: Not) -> list:
    return [*map(xor, _column(b, n.body), repeat(True))]


def _conj(b: _Batch, n: And) -> list:
    return [*map(and_, _column(b, n.left), _column(b, n.right))]


def _disj(b: _Batch, n: Or) -> list:
    return [*map(or_, _column(b, n.left), _column(b, n.right))]


def _implies(b: _Batch, n: Implies) -> list:
    return [*map(or_, map(xor, _column(b, n.left), repeat(True)),
                 _column(b, n.right))]


def _forall(b: _Batch, n: Forall) -> list:
    lo, hi = b.qwindow
    out = [True] * len(b.states)
    for value in range(lo, hi + 1):
        body = _Batch(b.states, {**b.log, n.var: value}, b.qwindow, b.prog)
        out = [*map(and_, out, _column(body, n.body))]
        if not any(map(is_, out, repeat(True))):
            break  # every state is decided: false, or unbound from here on
    return out


_COLUMN = {
    IntConst: _const, BoolLit: _const, ProgVar: _prog_var, LogVar: _log_var,
    ABin: _abin, Rel: _rel, Not: _not, And: _conj, Or: _disj,
    Implies: _implies, Forall: _forall,
}


def sat_det_batch(f: Formula, states: Sequence[State],
                  interp: Interpretation = EMPTY_INTERP,
                  qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> list:
    """The truth of f at each state, in order, each distinct node decided
    once for the whole batch.  Where `sat_det` would raise
    `UnboundVariable`, the entry raises it when read as a truth value, so
    scanning the result in order fails at the same state as scanning the
    states one by one."""
    return _column(_Batch(states, interp.log, qwindow, {}), f)


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
    """Every support state satisfies f (vacuously true for the zero dist)."""
    return all(sat_det_batch(f, tuple(dist.support()), interp, qwindow))


def restrict(dist: SubDistribution, f: Formula,
             qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> SubDistribution:
    """Keep only the mass sitting on states that satisfy f."""
    return _split(dist, f, qwindow)[0]


def _split(dist: SubDistribution, f: Formula,
           qwindow: tuple[int, int] = DEFAULT_QWINDOW,
           ) -> tuple[SubDistribution, SubDistribution]:
    """The mass on states that satisfy f, and the rest, from one batch."""
    entries = list(dist.items())
    truth = sat_det_batch(f, [s for s, _ in entries], EMPTY_INTERP, qwindow)
    yes: dict[State, Fraction] = {}
    no: dict[State, Fraction] = {}
    for (s, p), ok in zip(entries, truth):
        (yes if ok else no)[s] = p
    return SubDistribution(yes), SubDistribution(no)


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
    out, iters = _run(c, dist, loop_bound)
    residual = dist.mass - out.mass
    return ExecResult(out, residual, iters, residual == 0)


def _run(c: Command, dist: SubDistribution, loop_bound: int) -> tuple[SubDistribution, int]:
    if not dist:
        return dist, 0
    if isinstance(c, Skip):
        return dist, 0
    if isinstance(c, Assign):
        acc: dict[State, Fraction] = {}
        for s, p in dist.items():
            t = s.set(c.var, eval_arith(c.expr, s))
            acc[t] = acc.get(t, Fraction(0)) + p
        return SubDistribution(acc), 0
    if isinstance(c, RandAssign):
        acc = {}
        for s, p in dist.items():
            for weight, value in c.dist.pairs:
                t = s.set(c.var, value)
                acc[t] = acc.get(t, Fraction(0)) + p * weight
        return SubDistribution(acc), 0
    if isinstance(c, Seq):
        mid, i1 = _run(c.first, dist, loop_bound)
        out, i2 = _run(c.second, mid, loop_bound)
        return out, max(i1, i2)
    if isinstance(c, If):
        then_in, else_in = _split(dist, c.guard)
        then_out, i1 = _run(c.then_branch, then_in, loop_bound)
        else_out, i2 = _run(c.else_branch, else_in, loop_bound)
        return then_out + else_out, max(i1, i2)
    if isinstance(c, While):
        # output = sum over i of the mass that exits after exactly i bodies
        exited = SubDistribution.zero()
        cur = dist
        inner = 0
        for i in range(loop_bound + 1):
            live, done = _split(cur, c.guard)
            exited = exited + done
            if not live:
                return exited, max(i, inner)
            if i == loop_bound:
                return exited, max(i, inner)
            cur, used = _run(c.body, live, loop_bound)
            inner = max(inner, used)
        raise AssertionError("unreachable")
    raise TypeError(f"not a command: {c!r}")
