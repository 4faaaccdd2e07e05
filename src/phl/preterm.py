"""Weakest preterms and preconditions for probabilistic assertions.

pt(C, r) is a real expression whose value on mu equals the value of r on the
output distribution of C.  On a probabilistic formula pt replaces each real
expression by its preterm and keeps the relations and connectives, which is
WP(C, Phi); `wp_prob` is the same function.
The conditional term r/B relativizes every probability to B, and satisfies
[[r/B]]_mu = [[r]]_{mu restricted to B}.

Loops expand through the termination classes wp(i) = "the loop exits after
exactly i bodies":

    wp(i)   = !wp(C^0, !B) && ... && !wp(C^{i-1}, !B) && wp(C^i, !B)
    wp(inf) = the conjunction of all !wp(C^i, !B) up to the unroll bound
    SUM     = sum over i of pt((if B then C else skip)^i, P(phi)) / wp(i)
    T_j     = f^j(SUM)  where  f(r) = pt(C, r) / wp(inf)

and pt(while B do C, P(phi)) is the series sum of the T_j.  The classes
partition the stores, restriction is linear, and on each class the loop
agrees with its i-fold guarded unrolling, which gives the characterization
[[pt(C, r)]]_mu = [[r]]_{[[C]]mu}; the f-iteration replays the same argument
on the not-yet-terminated remainder.  When wp(inf) is unsatisfiable on the
window, every window store lands in some class i <= unroll, all tail terms
vanish on window-supported inputs, and the truncated series is exact there;
otherwise the expansion is flagged non-exhaustive and evaluates to an
underapproximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

from .core import (
    And, Assign, Command, EMPTY_INTERP, Formula, If, IntConst, Not, Prob,
    ProbFormula, RandAssign, RatConst, RealExpr, RBin, Seq, Skip, TRUE, While,
    dag_walk, memo_scoped, memo_table, node_size, normalize_real, real_sum,
    simplify_formula, subst_prog_var,
)
from .semantics import DEFAULT_LOOP_BOUND, DEFAULT_QWINDOW
from .assertions import DistFamily, StateWindow, TripleVerdict, check_triple
from .wp import DEFAULT_UNROLL, default_window, wp

DEFAULT_DEPTH = 16
TAIL_NODE_BUDGET = 20000


def cond_term(r: RealExpr, b: Formula) -> RealExpr:
    """r/B: relativize every probability inside r to B."""
    def step(n: RealExpr, go) -> RealExpr:
        if isinstance(n, Prob):
            return Prob(And(n.formula, b))
        return n.map(go)  # constants and real variables carry no probability

    return dag_walk(r, step, memo_table("cond", b))


def pas_preterm_linear(dist, var: str, phi: Formula) -> RealExpr:
    """Random-assignment preterm: sum of weight_i * P(phi[var/value_i])."""
    return real_sum(
        RBin("*", RatConst(w), Prob(subst_prog_var(phi, var, IntConst(v))))
        for w, v in dist.pairs)


@dataclass(frozen=True)
class WhileExpansion:
    """Metadata for one loop expansion performed by pt."""

    loop: While
    unroll: int                       # K: termination classes examined
    depth: int                        # D: tail terms kept
    sum_term: RealExpr
    tail_terms: tuple[RealExpr, ...]  # T_0..T_D
    exhaustive: bool                  # wp(inf) unsatisfiable on the window
    window: StateWindow


@memo_scoped
def pt(c: Command, r: RealExpr | ProbFormula, unroll: int = DEFAULT_UNROLL,
       depth: int = DEFAULT_DEPTH, window: Optional[StateWindow] = None,
       qwindow: tuple[int, int] = DEFAULT_QWINDOW,
       ) -> tuple[RealExpr | ProbFormula, list[WhileExpansion]]:
    """Weakest preterm of a real expression r under c, or WP(c, r) of a
    probabilistic formula r, with one expansion record per loop."""
    if not isinstance(r, (RealExpr, ProbFormula)):
        raise TypeError(f"not a real expression or probabilistic formula: {r!r}")
    if window is None:
        window = default_window(c, r)
    expansions: list[WhileExpansion] = []

    def go(c: Command, r: RealExpr) -> RealExpr:
        def step(n: RealExpr, walk) -> RealExpr:
            if isinstance(n, Prob):
                return prob_case(c, n.formula)
            return n.map(walk)  # rebuilt around the preterms of its P terms

        return dag_walk(r, step)

    def prob_case(c: Command, phi: Formula) -> RealExpr:
        if isinstance(c, Skip):
            return Prob(phi)
        if isinstance(c, Assign):
            return Prob(simplify_formula(subst_prog_var(phi, c.var, c.expr)))
        if isinstance(c, RandAssign):
            return normalize_real(pas_preterm_linear(c.dist, c.var, phi))
        if isinstance(c, Seq):
            return go(c.first, go(c.second, Prob(phi)))
        if isinstance(c, If):
            return normalize_real(RBin(
                "+",
                cond_term(go(c.then_branch, Prob(phi)), c.guard),
                cond_term(go(c.else_branch, Prob(phi)), Not(c.guard))))
        if isinstance(c, While):
            return while_case(c, phi)
        raise TypeError(f"not a command: {c!r}")

    @cache  # P terms that become one term before a loop share its expansion
    def while_case(loop: While, phi: Formula) -> RealExpr:
        guard, body = loop.guard, loop.body

        def window_sat(f: Formula) -> bool:
            return any(window.truth(f, EMPTY_INTERP, qwindow))

        # termination classes wp(i), with the exit formulas w_i = wp(body^i,
        # !B) built on demand; once no window store can still be live, later
        # classes are window-empty and the chain stops early
        w = [simplify_formula(Not(guard))]
        classes: list[Formula] = []
        prefix: Formula = TRUE
        exhaustive = False
        for i in range(unroll + 1):
            if i > 0:
                nxt, _tr = wp(body, w[-1], unroll=unroll, window=window,
                              qwindow=qwindow)
                w.append(nxt)
            classes.append(simplify_formula(And(prefix, w[i])))
            prefix = simplify_formula(And(prefix, Not(w[i])))
            if not window_sat(prefix):
                exhaustive = True
                break
        wp_inf = prefix

        # q = pt(guarded^i, P(phi)), advanced only as far as some
        # window-satisfiable class still consumes it
        live = [i for i, cl in enumerate(classes) if window_sat(cl)]
        guarded = If(guard, body, Skip())
        q: RealExpr = Prob(phi)
        pos = 0
        sum_terms: list[RealExpr] = []
        for i in live:
            while pos < i:
                q = normalize_real(go(guarded, q))
                pos += 1
            sum_terms.append(normalize_real(cond_term(q, classes[i])))
        sum_term = normalize_real(real_sum(sum_terms))

        # tail terms carry mass still live after the examined classes; an
        # exhaustive expansion has none on window-supported inputs, and a
        # non-exhaustive chain stops once terms outgrow the node budget
        tails: list[RealExpr] = [sum_term]
        if not exhaustive:
            for _ in range(depth):
                nxt_tail = normalize_real(cond_term(go(body, tails[-1]), wp_inf))
                tails.append(nxt_tail)
                if node_size(nxt_tail) > TAIL_NODE_BUDGET:
                    break

        expansions.append(WhileExpansion(
            loop, len(classes) - 1, len(tails) - 1, sum_term, tuple(tails),
            exhaustive, window))
        return normalize_real(real_sum(tails))

    try:
        return normalize_real(go(c, r)), expansions
    finally:  # the closures refer to each other: break the cycle
        del go, prob_case, while_case


# The paper defines WP(C, Phi) as Phi with each real expression r replaced by
# pt(C, r), so the weakest precondition of a probabilistic formula is pt's
# walk over that formula.
wp_prob = pt


def check_triple_prob(pre: ProbFormula, c: Command, post: ProbFormula,
                      family: DistFamily,
                      qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                      loop_bound: int = DEFAULT_LOOP_BOUND) -> TripleVerdict:
    """Semantic triple check over a distribution family: every member
    satisfying pre must, after running c, satisfy post."""
    return check_triple(pre, c, post, family, qwindow, loop_bound)
