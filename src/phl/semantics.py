"""Exact denotational semantics over sub-distributions.

A command maps a sub-distribution on stores to another one.  Assignment and
conditionals preserve total mass; only loop truncation can lose mass, and the
lost mass is exactly the probability of running past the iteration bound.
Satisfaction is possibility-style: a distribution satisfies a formula when
every support state does, so the zero distribution satisfies everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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


def sat_det(f: Formula, state: State, interp: Interpretation = EMPTY_INTERP,
            qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> bool:
    """Bounded-model satisfaction: forall ranges over the inclusive qwindow.

    Results involving quantifiers are therefore window-relative; callers
    surface the window in their verdicts.
    """
    memo: dict[tuple[int, int], bool] = {}
    generation = 0

    def go(n: Formula, itp: Interpretation) -> bool:
        key = (id(n), generation)
        got = memo.get(key)
        if got is not None:
            return got
        out = step(n, itp)
        memo[key] = out
        return out

    def step(n: Formula, itp: Interpretation) -> bool:
        nonlocal generation
        if isinstance(n, BoolLit):
            return n.value
        if isinstance(n, Rel):
            return _ROP_FUN[n.op](eval_arith(n.left, state, itp),
                                  eval_arith(n.right, state, itp))
        if isinstance(n, Not):
            return not go(n.body, itp)
        if isinstance(n, And):
            return go(n.left, itp) and go(n.right, itp)
        if isinstance(n, Or):
            return go(n.left, itp) or go(n.right, itp)
        if isinstance(n, Implies):
            return (not go(n.left, itp)) or go(n.right, itp)
        if isinstance(n, Forall):
            lo, hi = qwindow
            for value in range(lo, hi + 1):
                generation += 1  # memo entries under the old binding are stale
                if not go(n.body, itp.with_log(n.var, value)):
                    generation += 1
                    return False
            generation += 1
            return True
        raise TypeError(f"not a formula: {n!r}")

    return go(f, interp)


def sat_det_dist(f: Formula, dist: SubDistribution,
                 interp: Interpretation = EMPTY_INTERP,
                 qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> bool:
    """Every support state satisfies f (vacuously true for the zero dist)."""
    return all(sat_det(f, s, interp, qwindow) for s in dist.support())


def restrict(dist: SubDistribution, f: Formula,
             qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> SubDistribution:
    """Keep only the mass sitting on states that satisfy f."""
    return SubDistribution(
        {s: p for s, p in dist.items() if sat_det(f, s, EMPTY_INTERP, qwindow)})


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
        then_out, i1 = _run(c.then_branch, restrict(dist, c.guard), loop_bound)
        else_out, i2 = _run(c.else_branch, restrict(dist, Not(c.guard)), loop_bound)
        return then_out + else_out, max(i1, i2)
    if isinstance(c, While):
        # output = sum over i of the mass that exits after exactly i bodies
        exited = SubDistribution.zero()
        cur = dist
        inner = 0
        not_guard = Not(c.guard)
        for i in range(loop_bound + 1):
            exited = exited + restrict(cur, not_guard)
            live = restrict(cur, c.guard)
            if not live:
                return exited, max(i, inner)
            if i == loop_bound:
                return exited, max(i, inner)
            cur, used = _run(c.body, live, loop_bound)
            inner = max(inner, used)
        raise AssertionError("unreachable")
    raise TypeError(f"not a command: {c!r}")
