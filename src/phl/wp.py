"""Weakest preconditions for deterministic assertions.

The loop clause builds the approximant chain psi_0 = true,
psi_{i+1} = (B && wp(body, psi_i)) || (!B && post) until two successive
approximants have equal truth columns on the fixpoint window or the unroll
budget runs out, and returns the last: for a monotone step, as with every
loop-free body, the chain descends, so its last member is its conjunction.
Quantifier-free inputs stay quantifier-free, so every approximant can be
decided exactly on a finite window.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ne
from typing import Optional

from .core import (
    And, Assign, Command, Formula, If, IntConst, Node, Not, Or, RandAssign, Seq,
    Skip, TRUE, While, and_all, memo_scoped, prog_vars, simplify_formula, subst_prog_var,
)
from .semantics import DEFAULT_LOOP_BOUND, DEFAULT_QWINDOW
from .assertions import (  # TripleVerdict is also read from here
    DEFAULT_INT_WINDOW, StateWindow, TripleVerdict, check_triple,
)

DEFAULT_UNROLL = 32


@dataclass(frozen=True)
class WpLoopTrace:
    """Approximant chain for one while loop encountered during wp."""

    loop: While
    approximants: tuple[Formula, ...]
    converged: bool
    fixpoint_index: Optional[int]


def window_equivalent(f: Formula, g: Formula, window: StateWindow,
                      qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> bool:
    """Same truth value at every window state under every interpretation:
    equal columns, compared with `ne` (list equality skips a shared unbound
    value).  One formula (terms are hash-consed) is equivalent to itself."""
    return f is g or not any(
        any(map(ne, window.truth(f, i, qwindow), window.truth(g, i, qwindow)))
        for i in window.interpretations((f, g), qwindow))


def default_window(*nodes: Node, lo: int = DEFAULT_INT_WINDOW[0],
                   hi: int = DEFAULT_INT_WINDOW[1]) -> StateWindow:
    """The lo..hi window over every program variable of the given nodes."""
    return StateWindow.make(frozenset().union(*map(prog_vars, nodes)), lo, hi)


def pas_precondition(c: RandAssign, post: Formula) -> Formula:
    """The PAS schema's precondition: post[var/v] for each value v of the
    literal, conjoined left-folded and not simplified."""
    return and_all(subst_prog_var(post, c.var, IntConst(v)) for v in c.dist.values())


@memo_scoped
def wp(c: Command, post: Formula, unroll: int = DEFAULT_UNROLL,
       window: Optional[StateWindow] = None,
       qwindow: tuple[int, int] = DEFAULT_QWINDOW,
       ) -> tuple[Formula, list[WpLoopTrace]]:
    """Weakest precondition with loop traces for every while encountered."""
    if window is None:
        window = default_window(c, post)
    traces: list[WpLoopTrace] = []

    def go(c: Command, post: Formula) -> Formula:
        if isinstance(c, Skip):
            return post
        if isinstance(c, Assign):
            return subst_prog_var(post, c.var, c.expr)
        if isinstance(c, RandAssign):
            return simplify_formula(pas_precondition(c, post))
        if isinstance(c, Seq):
            return go(c.first, go(c.second, post))
        if isinstance(c, If):
            return simplify_formula(Or(
                And(c.guard, go(c.then_branch, post)),
                And(Not(c.guard), go(c.else_branch, post))))
        if isinstance(c, While):
            psis = [TRUE]
            converged = False
            fixpoint = None
            for i in range(unroll):
                nxt = simplify_formula(Or(
                    And(c.guard, go(c.body, psis[-1])),
                    And(Not(c.guard), post)))
                psis.append(nxt)
                if window_equivalent(nxt, psis[-2], window, qwindow):
                    converged = True
                    fixpoint = i + 1
                    break
            traces.append(WpLoopTrace(c, tuple(psis), converged, fixpoint))
            return psis[-1]
        raise TypeError(f"not a command: {c!r}")

    try:
        return go(c, post), traces
    finally:  # go refers to itself: break the cycle
        del go


def check_triple_det(pre: Formula, c: Command, post: Formula,
                     window: Optional[StateWindow] = None,
                     qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                     loop_bound: int = DEFAULT_LOOP_BOUND) -> TripleVerdict:
    """Semantic triple check: run from every window state satisfying pre and
    demand every output support state satisfies post."""
    return check_triple(pre, c, post, default_window(pre, c, post) if window is None
                        else window, qwindow, loop_bound)
