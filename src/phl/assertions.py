"""Assertion semantics and bounded validity checking.

P(phi) evaluates to the exact probability mass of the states satisfying phi.
Validity is never decided symbolically; it is checked over explicit finite
test domains: a window of integer stores, a quantifier window, a family of
sub-distributions, and a small grid of rational values for free real
variables.  Verdicts carry their scope so "valid" always reads as "valid on
this domain".

Each check decides a formula one node per domain, not one state at a time:
under each interpretation, a deterministic formula is one batch over the
window's states, and each P(phi) body one batch over the union of the
family members' supports, from which every member's P(phi) is summed.  A
real expression or probabilistic formula is then one walk per member,
reading each of its distinct nodes once.  The first counterexample is the
one of the state-by-state loops (interpretation outer, state or member
inner).  Equivalence of real terms is the validity of a = b.  Terms are
hash-consed, so identical operands are one object, and they are equivalent
without being evaluated.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import not_
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    Formula, Interpretation, EMPTY_INTERP, PAnd, PImplies, PNot, POr, PRel,
    PTRUE, Prob, ProbFormula, RatConst, RealExpr, RealVar, RBin, State,
    SubDistribution, dag_walk, format_fraction, log_vars, parse_fraction,
    real_vars, _AOP_FUN, _ROP_FUN,
)
from .semantics import DEFAULT_QWINDOW, sat_det_batch

DEFAULT_INT_WINDOW = (-8, 8)

REAL_GRID: tuple[Fraction, ...] = (
    Fraction(-1), Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1),
)


class ProbEvaluator:
    """Evaluates probabilistic assertions on distributions over a known set
    of states.  Each body phi of a P(phi) is decided in one batch over
    those states, under one interpretation's logical values at a time;
    P(phi) on a distribution is then its weight on the states where phi
    holds.  States met outside the set are decided in a further batch.
    Nothing is kept beyond the evaluator, which lives for one call."""

    __slots__ = ("states", "qwindow", "log", "truth")

    def __init__(self, states: Sequence[State],
                 qwindow: tuple[int, int] = DEFAULT_QWINDOW):
        self.states = states
        self.qwindow = qwindow
        self.log = None
        self.truth: dict[Formula, dict[State, bool]] = {}

    def prob(self, phi: Formula, dist: SubDistribution,
             interp: Interpretation) -> Fraction:
        if interp.log != self.log:
            self.log = interp.log
            self.truth = {}
        truth = self.truth.get(phi)
        if truth is None:
            truth = self.truth[phi] = dict(zip(
                self.states, sat_det_batch(phi, self.states, interp, self.qwindow)))
        new = [s for s, _ in dist.items() if s not in truth]
        if new:
            truth.update(zip(new, sat_det_batch(phi, new, interp, self.qwindow)))
        return sum((p for s, p in dist.items() if truth[s]), _ZERO)

    def value(self, n: RealExpr | ProbFormula, dist: SubDistribution,
              interp: Interpretation) -> Fraction | bool:
        """The exact rational value of a real expression, or the truth of a
        probabilistic formula, against dist: one walk, each distinct node
        read once, `&&` and `||` short-circuiting left to right."""
        def step(n, go):
            if isinstance(n, RatConst):
                return n.value
            if isinstance(n, RealVar):
                return interp.real_value(n.name)
            if isinstance(n, Prob):
                return self.prob(n.formula, dist, interp)
            if isinstance(n, RBin):
                return _AOP_FUN[n.op](go(n.left), go(n.right))
            if isinstance(n, PRel):
                return _ROP_FUN[n.op](go(n.left), go(n.right))
            if isinstance(n, PNot):
                return not go(n.body)
            if isinstance(n, PAnd):
                return go(n.left) and go(n.right)
            if isinstance(n, POr):
                return go(n.left) or go(n.right)
            if isinstance(n, PImplies):
                return not go(n.left) or go(n.right)
            raise TypeError(f"not a real expression or probabilistic formula: {n!r}")

        return dag_walk(n, step)


_ZERO = Fraction(0)


def _support(dist: SubDistribution) -> list[State]:
    return [s for s, _ in dist.items()]


def eval_real(r: RealExpr, dist: SubDistribution,
              interp: Interpretation = EMPTY_INTERP,
              qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> Fraction:
    """Exact rational value of a real expression against a sub-distribution."""
    return ProbEvaluator(_support(dist), qwindow).value(r, dist, interp)


def sat_prob(f: ProbFormula, dist: SubDistribution,
             interp: Interpretation = EMPTY_INTERP,
             qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> bool:
    return ProbEvaluator(_support(dist), qwindow).value(f, dist, interp)


# ---------------------------------------------------------------------------
# Test domains


@dataclass(frozen=True)
class StateWindow:
    """Finite grid of stores: each variable ranges over an inclusive interval."""

    bounds: tuple[tuple[str, int, int], ...]  # sorted by variable name

    @staticmethod
    def make(names: Iterable[str], lo: int = DEFAULT_INT_WINDOW[0],
             hi: int = DEFAULT_INT_WINDOW[1]) -> "StateWindow":
        names = sorted(set(names))
        if names and lo > hi:
            raise ValueError(f"empty interval for {names[0]}: [{lo}, {hi}]")
        return StateWindow(tuple((name, lo, hi) for name in names))

    def vars(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.bounds)

    def states(self) -> list[State]:
        ranges = [range(a, b + 1) for _, a, b in self.bounds]
        names = self.vars()
        return [State(tuple(zip(names, values)))
                for values in itertools.product(*ranges)]

    def __str__(self) -> str:
        if not self.bounds:
            return "window {}"
        parts = ", ".join(f"{n} in [{a}, {b}]" for n, a, b in self.bounds)
        return f"window {{{parts}}}"


def interpretations(log_vars: Iterable[str],
                    qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                    real_vars: Iterable[str] = (),
                    ) -> Iterator[Interpretation]:
    """All interpretations with logical vars on the quantifier window and
    real vars on REAL_GRID, in deterministic order."""
    lnames = sorted(set(log_vars))
    rnames = sorted(set(real_vars))
    lo, hi = qwindow
    lranges = [range(lo, hi + 1)] * len(lnames)
    rranges = [REAL_GRID] * len(rnames)
    for lvals in itertools.product(*lranges):
        log = dict(zip(lnames, lvals))
        for rvals in itertools.product(*rranges):
            yield Interpretation(log, dict(zip(rnames, rvals)))


class DistFamily:
    """Reproducible finite family of sub-distributions over a state window.

    Contains every point distribution on the window, the zero distribution,
    one half-mass point, and seeded random mixtures of support size <= 4
    (exact rational weights, sometimes with mass below 1).  User-supplied
    distributions can be appended.
    """

    def __init__(self, members: Iterable[tuple[str, SubDistribution]],
                 description: str = "explicit family"):
        self.members = tuple(members)
        self.description = description

    @staticmethod
    def build(window: StateWindow, seed: int = 0, mixtures: int = 32,
              extra: Iterable[SubDistribution] = ()) -> "DistFamily":
        states = window.states()
        members: list[tuple[str, SubDistribution]] = []
        for s in states:
            members.append((f"point{s}", SubDistribution.point(s)))
        members.append(("zero", SubDistribution.zero()))
        if states:
            members.append(
                (f"half{states[0]}", SubDistribution.point(states[0]).scale(Fraction(1, 2))))
        rng = random.Random(seed)
        for i in range(mixtures if states else 0):
            k = rng.randint(1, min(4, len(states)))
            support = rng.sample(states, k)
            den = rng.randint(max(k, 2), 64)
            entries = {}
            for s in support:
                entries[s] = Fraction(rng.randint(1, max(1, den // k)), den)
            members.append((f"mix{i}", SubDistribution(entries)))
        for j, d in enumerate(extra):
            members.append((f"user{j}", d))
        return DistFamily(members, f"family(seed={seed}, size={len(members)}) on {window}")

    def __iter__(self) -> Iterator[tuple[str, SubDistribution]]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def dists(self) -> list[SubDistribution]:
        return [d for _, d in self.members]

    def states(self) -> list[State]:
        """Every state in some member's support, in first-seen order."""
        return list(dict.fromkeys(s for _, d in self.members for s, _ in d.items()))


# ---------------------------------------------------------------------------
# Bounded validity


@dataclass(frozen=True)
class ValidityVerdict:
    valid: bool
    scope: str
    counterexample: Optional[tuple] = None  # (witness, Interpretation)

    def __str__(self) -> str:
        if self.valid:
            return f"valid on {self.scope}"
        witness, interp = self.counterexample
        return f"invalid on {self.scope}: falsified at {witness} under {interp}"


def check_valid_det(f: Formula, window: StateWindow,
                    qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> ValidityVerdict:
    """Truth at every window state under every interpretation of free vars."""
    scope = f"{window}, quantifiers over {list(qwindow)}"
    states = window.states()
    for interp in interpretations(log_vars(f), qwindow):
        truth = sat_det_batch(f, states, interp, qwindow)
        witness = next(itertools.compress(states, map(not_, truth)), None)
        if witness is not None:
            return ValidityVerdict(False, scope, (witness, interp))
    return ValidityVerdict(True, scope)


def check_valid_prob(f: ProbFormula, family: DistFamily,
                     qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> ValidityVerdict:
    """Truth on every family member under every interpretation."""
    scope = f"{family.description}, quantifiers over {list(qwindow)}"
    ev = ProbEvaluator(family.states(), qwindow)
    for interp in interpretations(log_vars(f), qwindow, real_vars(f)):
        for label, dist in family:
            if not ev.value(f, dist, interp):
                return ValidityVerdict(False, scope, (label, interp))
    return ValidityVerdict(True, scope)


def prob_equivalent_on_family(f: ProbFormula, g: ProbFormula, family: DistFamily,
                              qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                              ) -> ValidityVerdict:
    """Same truth value on every family member (used for WP-schema matching).
    One formula (terms are hash-consed) is equivalent to itself."""
    scope = f"{family.description}, quantifiers over {list(qwindow)}"
    if f is g:
        return ValidityVerdict(True, scope)
    lvars = log_vars(f) | log_vars(g)
    rvars = real_vars(f) | real_vars(g)
    ev = ProbEvaluator(family.states(), qwindow)
    for interp in interpretations(lvars, qwindow, rvars):
        for label, dist in family:
            if ev.value(f, dist, interp) != ev.value(g, dist, interp):
                return ValidityVerdict(False, scope, (label, interp))
    return ValidityVerdict(True, scope)


def real_equivalent_on_family(a: RealExpr, b: RealExpr, family: DistFamily,
                              qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                              ) -> ValidityVerdict:
    """Same rational value on every family member: the validity of a = b.
    One expression (terms are hash-consed) is equivalent to itself."""
    return check_valid_prob(PTRUE if a is b else PRel("=", a, b), family, qwindow)


# ---------------------------------------------------------------------------
# Distribution literals on disk: a JSON list of {"state": {...}, "prob": "n/d"}


def dist_from_json(data) -> SubDistribution:
    if not isinstance(data, list):
        raise ValueError("distribution file must be a JSON list of entries")
    entries: dict[State, Fraction] = {}
    for item in data:
        if not isinstance(item, dict) or set(item) != {"state", "prob"}:
            raise ValueError(f"bad distribution entry: {item!r}")
        state = State.make({k: int(v) for k, v in item["state"].items()})
        p = parse_fraction(str(item["prob"]))
        if p <= 0:
            raise ValueError(f"non-positive probability {p} at {state}")
        entries[state] = entries.get(state, Fraction(0)) + p
    return SubDistribution(entries)  # rejects total mass > 1


def dist_to_json(dist: SubDistribution) -> list:
    return [
        {"state": s.as_dict(), "prob": format_fraction(p)}
        for s, p in sorted(dist.items())
    ]


def load_dist(path: str) -> SubDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        return dist_from_json(json.load(fh))
