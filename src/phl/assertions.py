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
family members' supports, from which every member's P(phi) is summed.  The
first counterexample is the one of the state-by-state loops (interpretation
outer, state or member inner).  Terms are hash-consed, so identical
operands are one object, and they are equivalent without being evaluated.
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
    Prob, ProbFormula, RatConst, RealExpr, RealVar, RBin, State,
    SubDistribution, dag_walk, format_fraction, log_vars, parse_fraction,
    real_vars, _AOP_FUN, _ROP_FUN,
)
from .semantics import DEFAULT_QWINDOW, sat_det_batch

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

    def real(self, r: RealExpr, dist: SubDistribution,
             interp: Interpretation) -> Fraction:
        """Exact rational value of a real expression against dist."""
        def step(n: RealExpr, go) -> Fraction:
            if isinstance(n, RatConst):
                return n.value
            if isinstance(n, RealVar):
                return interp.real_value(n.name)
            if isinstance(n, Prob):
                return self.prob(n.formula, dist, interp)
            if isinstance(n, RBin):
                return _AOP_FUN[n.op](go(n.left), go(n.right))
            raise TypeError(f"not a real expression: {n!r}")

        return dag_walk(r, step)

    def sat(self, f: ProbFormula, dist: SubDistribution,
            interp: Interpretation) -> bool:
        if isinstance(f, PRel):
            return _ROP_FUN[f.op](self.real(f.left, dist, interp),
                                  self.real(f.right, dist, interp))
        if isinstance(f, PNot):
            return not self.sat(f.body, dist, interp)
        if isinstance(f, PAnd):
            return self.sat(f.left, dist, interp) and self.sat(f.right, dist, interp)
        if isinstance(f, POr):
            return self.sat(f.left, dist, interp) or self.sat(f.right, dist, interp)
        if isinstance(f, PImplies):
            return (not self.sat(f.left, dist, interp)) or self.sat(f.right, dist, interp)
        raise TypeError(f"not a probabilistic formula: {f!r}")


_ZERO = Fraction(0)


def _support(dist: SubDistribution) -> list[State]:
    return [s for s, _ in dist.items()]


def eval_real(r: RealExpr, dist: SubDistribution,
              interp: Interpretation = EMPTY_INTERP,
              qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> Fraction:
    """Exact rational value of a real expression against a sub-distribution."""
    return ProbEvaluator(_support(dist), qwindow).real(r, dist, interp)


def sat_prob(f: ProbFormula, dist: SubDistribution,
             interp: Interpretation = EMPTY_INTERP,
             qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> bool:
    return ProbEvaluator(_support(dist), qwindow).sat(f, dist, interp)


# ---------------------------------------------------------------------------
# Test domains


@dataclass(frozen=True)
class StateWindow:
    """Finite grid of stores: each variable ranges over an inclusive interval."""

    bounds: tuple[tuple[str, int, int], ...]  # sorted by variable name

    @staticmethod
    def make(names: Iterable[str], lo: int = -8, hi: int = 8,
             per_var: Optional[dict[str, tuple[int, int]]] = None) -> "StateWindow":
        out = []
        for name in sorted(set(names)):
            a, b = (per_var or {}).get(name, (lo, hi))
            if a > b:
                raise ValueError(f"empty interval for {name}: [{a}, {b}]")
            out.append((name, a, b))
        return StateWindow(tuple(out))

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
                    real_grid: Sequence[Fraction] = REAL_GRID,
                    ) -> Iterator[Interpretation]:
    """All interpretations with logical vars on the quantifier window and
    real vars on the grid, in deterministic order."""
    lnames = sorted(set(log_vars))
    rnames = sorted(set(real_vars))
    lo, hi = qwindow
    lranges = [range(lo, hi + 1)] * len(lnames)
    rranges = [real_grid] * len(rnames)
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
                     qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                     real_grid: Sequence[Fraction] = REAL_GRID) -> ValidityVerdict:
    """Truth on every family member under every interpretation in the grids."""
    scope = f"{family.description}, quantifiers over {list(qwindow)}"
    ev = ProbEvaluator(family.states(), qwindow)
    for interp in interpretations(log_vars(f), qwindow, real_vars(f), real_grid):
        for label, dist in family:
            if not ev.sat(f, dist, interp):
                return ValidityVerdict(False, scope, (label, interp))
    return ValidityVerdict(True, scope)


def prob_equivalent_on_family(f: ProbFormula, g: ProbFormula, family: DistFamily,
                              qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                              real_grid: Sequence[Fraction] = REAL_GRID,
                              ) -> ValidityVerdict:
    """Same truth value on every family member (used for WP-schema matching).
    One formula (terms are hash-consed) is equivalent to itself."""
    scope = f"{family.description}, quantifiers over {list(qwindow)}"
    if f is g:
        return ValidityVerdict(True, scope)
    lvars = log_vars(f) | log_vars(g)
    rvars = real_vars(f) | real_vars(g)
    ev = ProbEvaluator(family.states(), qwindow)
    for interp in interpretations(lvars, qwindow, rvars, real_grid):
        for label, dist in family:
            if ev.sat(f, dist, interp) != ev.sat(g, dist, interp):
                return ValidityVerdict(False, scope, (label, interp))
    return ValidityVerdict(True, scope)


def real_equivalent_on_family(a: RealExpr, b: RealExpr, family: DistFamily,
                              qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                              real_grid: Sequence[Fraction] = REAL_GRID,
                              ) -> ValidityVerdict:
    """Same rational value on every family member; one expression is
    equivalent to itself."""
    scope = f"{family.description}, quantifiers over {list(qwindow)}"
    if a is b:
        return ValidityVerdict(True, scope)
    lvars = log_vars(a) | log_vars(b)
    rvars = real_vars(a) | real_vars(b)
    ev = ProbEvaluator(family.states(), qwindow)
    for interp in interpretations(lvars, qwindow, rvars, real_grid):
        for label, dist in family:
            if ev.real(a, dist, interp) != ev.real(b, dist, interp):
                return ValidityVerdict(False, scope, (label, interp))
    return ValidityVerdict(True, scope)


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
