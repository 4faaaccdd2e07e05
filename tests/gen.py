"""Seeded random generators for programs, assertions, and distributions.

Everything draws from a caller-supplied `random.Random`, so suites are
reproducible from a seed.  Loop generation sticks to progress templates whose
dynamics stay inside the sampled window (decrementing counters, guards that
every sampled constant escapes), which keeps wp fixpoints and preterm
expansions exhaustive on that window.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from phl.core import (
    ABin, And, Assign, Command, DistSpec, Formula, If, IntConst, LogVar, Not,
    Or, Implies, Prob, ProgVar, RandAssign, RatConst, RealExpr, RBin, Rel,
    Seq, Skip, State, SubDistribution, While, TRUE, FALSE,
)

AOP_CHOICES = ("+", "-", "*")
ROP_CHOICES = ("<", "<=", "=", ">=", ">")


def gen_aexp(rng: random.Random, pv: Sequence[str], depth: int = 2,
             lv: Sequence[str] = ()) -> "ABin | IntConst | ProgVar | LogVar":
    if depth <= 0 or rng.random() < 0.4:
        kind = rng.randrange(3 if lv else 2)
        if kind == 0:
            return IntConst(rng.randint(-2, 2))
        if kind == 1 and pv:
            return ProgVar(rng.choice(list(pv)))
        if kind == 2:
            return LogVar(rng.choice(list(lv)))
        return IntConst(rng.randint(-2, 2))
    op = rng.choice(AOP_CHOICES)
    return ABin(op, gen_aexp(rng, pv, depth - 1, lv), gen_aexp(rng, pv, depth - 1, lv))


def gen_guard(rng: random.Random, pv: Sequence[str], depth: int = 1) -> Formula:
    """Program-level formula: no quantifiers, no logical variables."""
    if depth <= 0 or rng.random() < 0.6:
        return Rel(rng.choice(ROP_CHOICES),
                   gen_aexp(rng, pv, 1), gen_aexp(rng, pv, 1))
    pick = rng.randrange(3)
    if pick == 0:
        return Not(gen_guard(rng, pv, depth - 1))
    ctor = And if pick == 1 else Or
    return ctor(gen_guard(rng, pv, depth - 1), gen_guard(rng, pv, depth - 1))


def gen_formula(rng: random.Random, pv: Sequence[str], depth: int = 2,
                lv: Sequence[str] = ()) -> Formula:
    """Assertion-level formula; may use logical variables and connectives."""
    if depth <= 0 or rng.random() < 0.45:
        roll = rng.random()
        if roll < 0.05:
            return TRUE
        if roll < 0.1:
            return FALSE
        return Rel(rng.choice(ROP_CHOICES),
                   gen_aexp(rng, pv, 1, lv), gen_aexp(rng, pv, 1, lv))
    pick = rng.randrange(4)
    if pick == 0:
        return Not(gen_formula(rng, pv, depth - 1, lv))
    ctor = (And, Or, Implies)[pick - 1]
    return ctor(gen_formula(rng, pv, depth - 1, lv),
                gen_formula(rng, pv, depth - 1, lv))


def gen_dist_spec(rng: random.Random, values: Sequence[int],
                  max_n: int = 3) -> DistSpec:
    n = rng.randint(1, min(max_n, len(values)))
    chosen = rng.sample(list(values), n)
    den = rng.choice((2, 3, 4, 6, 8))
    cuts = sorted(rng.randint(1, den - 1) for _ in range(n - 1))
    bounds = [0] + cuts + [den]
    weights = [Fraction(bounds[i + 1] - bounds[i], den) for i in range(n)]
    pairs = [(w, v) for w, v in zip(weights, chosen) if w > 0]
    return DistSpec.make(pairs)


def gen_loopfree(rng: random.Random, pv: Sequence[str], depth: int = 2,
                 values: Sequence[int] = (-2, -1, 0, 1, 2)) -> Command:
    if depth <= 0 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.15:
            return Skip()
        var = rng.choice(list(pv))
        if roll < 0.6:
            return Assign(var, gen_aexp(rng, pv, 1))
        return RandAssign(var, gen_dist_spec(rng, values))
    if rng.random() < 0.6:
        return Seq(gen_loopfree(rng, pv, depth - 1, values),
                   gen_loopfree(rng, pv, depth - 1, values))
    return If(gen_guard(rng, pv),
              gen_loopfree(rng, pv, depth - 1, values),
              gen_loopfree(rng, pv, depth - 1, values))


def gen_safe_loop(rng: random.Random, pv: Sequence[str],
                  lo: int = -2, hi: int = 2) -> While:
    """A loop that terminates from every store with values in [lo, hi] and
    whose reachable stores stay there: a counter walks to a bound, or one
    random assignment jumps straight out of the guard."""
    counter = rng.choice(list(pv))
    others = [v for v in pv if v != counter]
    window_values = list(range(lo, hi + 1))

    def side_effect() -> Command:
        if not others or rng.random() < 0.4:
            return Skip()
        var = rng.choice(others)
        if rng.random() < 0.5:
            return Assign(var, IntConst(rng.choice(window_values)))
        return RandAssign(var, gen_dist_spec(rng, window_values))

    template = rng.randrange(3)
    if template == 0:
        bound = rng.randint(lo, hi - 1)
        guard = Rel(">", ProgVar(counter), IntConst(bound))
        step = Assign(counter, ABin("-", ProgVar(counter), IntConst(1)))
    elif template == 1:
        bound = rng.randint(lo + 1, hi)
        guard = Rel("<", ProgVar(counter), IntConst(bound))
        step = Assign(counter, ABin("+", ProgVar(counter), IntConst(1)))
    else:
        stay = rng.choice(window_values)
        guard = Rel("=", ProgVar(counter), IntConst(stay))
        escapes = [v for v in window_values if v != stay]
        step = RandAssign(counter, gen_dist_spec(rng, escapes))
    body = step if isinstance(se := side_effect(), Skip) else Seq(step, se)
    return While(guard, body)


def gen_command(rng: random.Random, pv: Sequence[str], depth: int = 2,
                loops: bool = False, lo: int = -2, hi: int = 2) -> Command:
    if loops and rng.random() < 0.4:
        loop = gen_safe_loop(rng, pv, lo, hi)
        if rng.random() < 0.5:
            return Seq(gen_loopfree(rng, pv, 1, tuple(range(lo, hi + 1))), loop)
        return loop
    return gen_loopfree(rng, pv, depth, tuple(range(lo, hi + 1)))


def gen_real_expr(rng: random.Random, pv: Sequence[str], depth: int = 2) -> RealExpr:
    if depth <= 0 or rng.random() < 0.5:
        if rng.random() < 0.35:
            return RatConst(Fraction(rng.randint(-2, 4), rng.choice((1, 2, 3, 4))))
        return Prob(gen_formula(rng, pv, 1))
    op = rng.choice(AOP_CHOICES)
    return RBin(op, gen_real_expr(rng, pv, depth - 1),
                gen_real_expr(rng, pv, depth - 1))


def gen_subdist(rng: random.Random, states: Sequence[State],
                max_support: int = 3) -> SubDistribution:
    k = rng.randint(1, min(max_support, len(states)))
    support = rng.sample(list(states), k)
    den = rng.choice((2, 3, 4, 6, 8, 12))
    entries = {}
    budget = den
    for s in support:
        top = max(1, budget // 2) if s is not support[-1] else budget
        n = rng.randint(1, max(1, top))
        budget -= n
        entries[s] = Fraction(n, den)
        if budget <= 0:
            break
    return SubDistribution(entries)
