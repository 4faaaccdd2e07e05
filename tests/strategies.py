"""Hypothesis strategies: draw a seed, then drive the test-side generators.

Shrinking works on the seed, which is coarse but keeps the random-object
logic in one place (`gen`, beside this module) for the property tests and
the generated suites alike.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from fractions import Fraction

import gen
from phl.assertions import StateWindow
from phl.core import (
    AOPS, ROPS, And, DistSpec, Forall, Implies, Interpretation, Not, Or, PAnd,
    PImplies, PNot, POr, PRel, Prob, RandAssign, RatConst, RBin, RealVar, Seq,
    State, SubDistribution, While,
)

PV = ("X", "Y")
WINDOW = StateWindow.make(PV, -2, 2)
QWINDOW = (-3, 3)
RINTERP = Interpretation({"k": 1}, {"eps": Fraction(1, 2)})


def _rng(seed: int) -> random.Random:
    return random.Random(seed)


seeds = st.integers(0, 2 ** 48)


@st.composite
def aexprs(draw, lv=()):
    return gen.gen_aexp(_rng(draw(seeds)), PV, depth=draw(st.integers(0, 3)), lv=lv)


@st.composite
def guards(draw):
    return gen.gen_guard(_rng(draw(seeds)), PV, depth=draw(st.integers(0, 2)))


@st.composite
def det_formulas(draw, lv=()):
    return gen.gen_formula(_rng(draw(seeds)), PV, depth=draw(st.integers(0, 3)), lv=lv)


@st.composite
def dist_specs(draw, values=(-2, -1, 0, 1, 2)):
    return gen.gen_dist_spec(_rng(draw(seeds)), values)


COPRIME = (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))


@st.composite
def coprime_dist_specs(draw, values=(-2, -1, 0, 1, 2)):
    """Literals weighting values 1/3, 1/5 and 1/7, the rest on one more."""
    weights = list(COPRIME[:draw(st.integers(0, 3))])
    weights.append(1 - sum(weights))
    return DistSpec.make(zip(weights, draw(st.permutations(values))))


@st.composite
def coprime_commands(draw):
    """A co-prime random assignment before a command, or a loop whose body
    is one; such a loop may run past any bound."""
    rng = _rng(draw(seeds))
    step = RandAssign(rng.choice(PV), draw(coprime_dist_specs()))
    if draw(st.booleans()):
        return Seq(step, gen.gen_command(rng, PV, depth=2, loops=True))
    return While(gen.gen_guard(rng, PV), step)


@st.composite
def loopfree_commands(draw):
    return gen.gen_loopfree(_rng(draw(seeds)), PV, depth=draw(st.integers(0, 3)))


@st.composite
def safe_loops(draw):
    return gen.gen_safe_loop(_rng(draw(seeds)), PV, -2, 2)


@st.composite
def general_loops(draw):
    """A generated guard over a generated loop-free body."""
    rng = _rng(draw(seeds))
    return While(gen.gen_guard(rng, PV), gen.gen_loopfree(rng, PV))


@st.composite
def nested_loops(draw):
    """A generated guard over a loop-free command and a safe loop, in
    either order."""
    rng = _rng(draw(seeds))
    guard, step = gen.gen_guard(rng, PV), gen.gen_loopfree(rng, PV, 1)
    inner = gen.gen_safe_loop(rng, PV, -2, 2)
    return While(guard, Seq(step, inner) if rng.random() < 0.5 else Seq(inner, step))


@st.composite
def commands(draw, loops=False):
    return gen.gen_command(_rng(draw(seeds)), PV, depth=draw(st.integers(0, 3)),
                           loops=loops)


@st.composite
def real_exprs(draw):
    return gen.gen_real_expr(_rng(draw(seeds)), PV, depth=draw(st.integers(0, 2)))


def _closed_real_expr(rng: random.Random):
    return gen.gen_real_expr(rng, PV, rng.randint(0, 2))


def gen_open_real_expr(rng: random.Random, depth: int = 2):
    """Real expressions over the real variable @eps and P(phi) terms whose
    bodies read X, Y, Z, j and k, any of which may be left unbound."""
    if depth <= 0 or rng.random() < 0.5:
        pick = rng.random()
        if pick < 0.2:
            return RealVar("eps")
        if pick < 0.4:
            return RatConst(Fraction(rng.randint(-2, 4), rng.choice((1, 2, 4))))
        return Prob(gen_quantified_formula(rng, rng.randint(0, 2)))
    return RBin(rng.choice(AOPS), gen_open_real_expr(rng, depth - 1),
                gen_open_real_expr(rng, depth - 1))


def gen_prob_formula(rng: random.Random, depth: int, real=_closed_real_expr):
    """Probabilistic connectives over relations between real expressions."""
    if depth <= 0 or rng.random() < 0.3:
        return PRel(rng.choice(ROPS), real(rng), real(rng))
    ctor = rng.choice((PNot, PAnd, POr, PImplies))
    if ctor is PNot:
        return PNot(gen_prob_formula(rng, depth - 1, real))
    return ctor(gen_prob_formula(rng, depth - 1, real),
                gen_prob_formula(rng, depth - 1, real))


@st.composite
def open_real_exprs(draw):
    return gen_open_real_expr(_rng(draw(seeds)), draw(st.integers(0, 2)))


@st.composite
def prob_formulas(draw, free=False):
    """With free, the relations compare `gen_open_real_expr` terms."""
    real = gen_open_real_expr if free else _closed_real_expr
    return gen_prob_formula(_rng(draw(seeds)), draw(st.integers(0, 4)), real)


@st.composite
def shared_prob_formulas(draw):
    """Relations whose sides are drawn from a pool of two real expressions,
    so that one P(phi) often occurs in several atoms."""
    rng = _rng(draw(seeds))
    pool = [_closed_real_expr(rng) for _ in range(2)]
    return gen_prob_formula(rng, draw(st.integers(1, 3)), lambda r: r.choice(pool))


def gen_quantified_formula(rng: random.Random, depth: int, pv=PV + ("Z",),
                           lv=("j", "k")):
    """Deterministic formulas with forall, over program variables a state
    may lack and logical variables that may be left free."""
    if depth <= 0 or rng.random() < 0.3:
        return gen.gen_formula(rng, pv, 0, lv)
    pick = rng.randrange(5)
    if pick == 0:
        return Forall(rng.choice(lv), gen_quantified_formula(rng, depth - 1, pv, lv))
    if pick == 1:
        return Not(gen_quantified_formula(rng, depth - 1, pv, lv))
    ctor = (And, Or, Implies)[pick - 2]
    return ctor(gen_quantified_formula(rng, depth - 1, pv, lv),
                gen_quantified_formula(rng, depth - 1, pv, lv))


@st.composite
def quantified_formulas(draw):
    return gen_quantified_formula(_rng(draw(seeds)), draw(st.integers(0, 4)))


# a term of any of the five families, in all the shapes the generators draw
ANY_TERM = st.one_of(
    aexprs(lv=("k",)), det_formulas(lv=("k",)), quantified_formulas(),
    commands(loops=True), real_exprs(), open_real_exprs(),
    prob_formulas(), prob_formulas(free=True))


@st.composite
def states(draw):
    items = {v: draw(st.integers(-2, 2)) for v in PV}
    return State.make(items)


@st.composite
def partial_states(draw):
    """States over any subset of X, Y and Z."""
    return State.make(draw(st.dictionaries(st.sampled_from(PV + ("Z",)),
                                           st.integers(-2, 2))))


@st.composite
def subdists(draw):
    return gen.gen_subdist(_rng(draw(seeds)), WINDOW.states())


@st.composite
def coprime_subdists(draw):
    """Up to three states over any subset of X, Y and Z, weighted 1/3, 1/5
    and 1/7."""
    support = draw(st.lists(partial_states(), min_size=1, max_size=3, unique=True))
    return SubDistribution(zip(support, COPRIME))
