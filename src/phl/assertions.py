"""Assertion semantics and bounded validity and triple checking.

P(phi) evaluates to the exact probability mass of the states satisfying phi.
Validity is never decided symbolically; it is checked over explicit finite
test domains: a window of integer stores, a quantifier window, a family of
sub-distributions, and a small grid of rational values for free real
variables.  Verdicts carry their scope so "valid" always reads as "valid on
this domain".  A window and a family are two domains that answer the same
questions, so one `check_valid` and one `check_triple` serve both flavors.

Each check decides a formula one node per domain, not one state at a time,
through the one evaluator in `semantics`: under each interpretation, a
deterministic formula is one column over the window's states, and a
probabilistic formula one column over the family's members, whose P(phi)
bodies are decided once over the union of the members' supports.
`eval_real` and `sat_prob` are batches of one distribution.  A window
keeps its states, and inside a memo scope (`core.memo_scoped`) a node's
column over a window is decided once for every check that reads it.  The
first counterexample is the one of the state-by-state loops
(interpretation outer, state or member inner).  Equivalence is validity:
of a = b for real terms, of (f && g) || (!f && !g) for probabilistic
formulas.  Terms are hash-consed, so identical operands are one object,
and they are equivalent without being evaluated.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import not_
from typing import Iterable, Iterator, Optional

from .core import (
    Command, Formula, Interpretation, EMPTY_INTERP, PAnd, PNot, POr, PRel,
    ProbFormula, RealExpr, State, SubDistribution, log_vars, memo_table,
    parse_fraction, real_vars,
)
from .parser import ParseError, parse_state
from .semantics import DEFAULT_QWINDOW, eval_batch, execute, sat_det_batch, sat_det_dist

DEFAULT_INT_WINDOW = (-8, 8)

REAL_GRID: tuple[Fraction, ...] = (
    Fraction(-1), Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1),
)


def eval_real(r: RealExpr, dist: SubDistribution,
              interp: Interpretation = EMPTY_INTERP,
              qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> Fraction:
    """Exact rational value of a real expression against a sub-distribution:
    a batch of one."""
    value = eval_batch(r, (dist,), interp, qwindow)[0]
    bool(value)  # raises UnboundVariable if the value is an unbound read
    return value


def sat_prob(f: ProbFormula, dist: SubDistribution,
             interp: Interpretation = EMPTY_INTERP,
             qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> bool:
    return bool(eval_batch(f, (dist,), interp, qwindow)[0])


# ---------------------------------------------------------------------------
# Test domains


@dataclass(frozen=True)
class StateWindow:
    """Finite grid of stores: each variable ranges over [lo, hi]."""

    names: tuple[str, ...]  # sorted
    lo: int
    hi: int
    _states = None  # not a field: equality, hash and repr read the bounds only

    @staticmethod
    def make(names: Iterable[str], lo: int = DEFAULT_INT_WINDOW[0],
             hi: int = DEFAULT_INT_WINDOW[1]) -> "StateWindow":
        names = tuple(sorted(set(names)))
        if names and lo > hi:
            raise ValueError(f"empty interval for {names[0]}: [{lo}, {hi}]")
        return StateWindow(names, lo, hi)

    def states(self) -> tuple[State, ...]:
        """Every store of the window, in order; built on the first call
        and kept on the window."""
        states = self._states
        if states is None:
            values = range(self.lo, self.hi + 1)
            states = tuple(State(zip(self.names, point)) for point
                           in itertools.product(values, repeat=len(self.names)))
            object.__setattr__(self, "_states", states)
        return states

    def truth(self, f: Formula, interp: Interpretation = EMPTY_INTERP,
              qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> list:
        """`sat_det_batch` of f over the window's states.  Inside a memo
        scope every formula node's column over this window, interpretation
        and quantifier window is decided once."""
        memo = memo_table("window", self, tuple(sorted(interp.log.items())), qwindow)
        return sat_det_batch(f, self.states(), interp, qwindow, memo)

    # the domain questions `check_valid` and `check_triple` ask, as DistFamily's
    witnesses = states
    holds = staticmethod(sat_det_dist)

    def input(self, i: int) -> SubDistribution:
        return SubDistribution.point(self.states()[i])  # built on demand

    @staticmethod
    def interpretations(fs: tuple[Formula, ...], qwindow) -> Iterator[Interpretation]:
        return interpretations(frozenset().union(*map(log_vars, fs)), qwindow)

    def __str__(self) -> str:
        parts = ", ".join(f"{n} in [{self.lo}, {self.hi}]" for n in self.names)
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
    k = len(lnames)
    for vals in itertools.product(*[range(lo, hi + 1)] * k, *[REAL_GRID] * len(rnames)):
        yield Interpretation(dict(zip(lnames, vals)), dict(zip(rnames, vals[k:])))


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
            members.append((f"mix{i}", SubDistribution(
                (s, Fraction(rng.randint(1, max(1, den // k)), den)) for s in support)))
        for j, d in enumerate(extra):
            members.append((f"user{j}", d))
        return DistFamily(members, f"family(seed={seed}, size={len(members)}) on {window}")

    def __iter__(self) -> Iterator[tuple[str, SubDistribution]]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __str__(self) -> str:  # the domain questions, as StateWindow's
        return self.description

    def truth(self, f: ProbFormula, interp: Interpretation, qwindow) -> list:
        return eval_batch(f, [d for _, d in self.members], interp, qwindow)

    @staticmethod
    def interpretations(fs: tuple[ProbFormula, ...], qwindow) -> Iterator[Interpretation]:
        return interpretations(frozenset().union(*map(log_vars, fs)), qwindow,
                               frozenset().union(*map(real_vars, fs)))

    def witnesses(self) -> list[str]:
        return [label for label, _ in self.members]

    def input(self, i: int) -> SubDistribution:
        return self.members[i][1]

    holds = staticmethod(sat_prob)


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


@dataclass(frozen=True)
class TripleVerdict:
    holds: bool
    scope: str
    counterexample: Optional[tuple] = None  # (witness, Interpretation)
    inexact: bool = False
    max_residual: Fraction = Fraction(0)

    def __str__(self) -> str:
        if self.holds:
            out = f"holds on {self.scope}"
        else:
            witness, interp = self.counterexample
            out = f"fails on {self.scope}: counterexample {witness} under {interp}"
        if self.inexact:
            out += (f" (loop truncation left residual mass up to "
                    f"{self.max_residual}; verdict is up to that residual)")
        return out


def _scope(domain: StateWindow | DistFamily, qwindow: tuple[int, int]) -> str:
    return f"{domain}, quantifiers over {list(qwindow)}"


def check_valid(f: Formula | ProbFormula, domain: StateWindow | DistFamily,
                qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> ValidityVerdict:
    """Truth at every point of the domain under every interpretation."""
    scope = _scope(domain, qwindow)
    witnesses = domain.witnesses()
    for interp in domain.interpretations((f,), qwindow):
        truth = domain.truth(f, interp, qwindow)
        for witness in itertools.compress(witnesses, map(not_, truth)):  # the first, if any
            return ValidityVerdict(False, scope, (witness, interp))
    return ValidityVerdict(True, scope)


def check_triple(pre: Formula | ProbFormula, c: Command, post: Formula | ProbFormula,
                 domain: StateWindow | DistFamily, qwindow, loop_bound) -> TripleVerdict:
    """Every domain point satisfying pre must, after running c, satisfy post.
    A run does not depend on the interpretation, so each point runs once."""
    scope = f"{_scope(domain, qwindow)}, loop bound {loop_bound}"
    worst = Fraction(0)  # the largest residual mass of a truncated run so far
    witnesses = domain.witnesses()
    runs = {}  # each point's run, by its index
    for interp in domain.interpretations((pre, post), qwindow):
        for i, ok in enumerate(domain.truth(pre, interp, qwindow)):
            if not ok:
                continue
            res = runs.get(i)
            if res is None:
                res = runs[i] = execute(c, domain.input(i), loop_bound)
            if not res.exact:  # its residual mass is positive
                worst = max(worst, res.residual_mass)
            if not domain.holds(post, res.output, interp, qwindow):
                return TripleVerdict(False, scope, (witnesses[i], interp), worst > 0, worst)
    return TripleVerdict(True, scope, None, worst > 0, worst)


def check_valid_det(f: Formula, window: StateWindow,
                    qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> ValidityVerdict:
    """Truth at every window state under every interpretation of free vars."""
    return check_valid(f, window, qwindow)


def check_valid_prob(f: ProbFormula, family: DistFamily,
                     qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> ValidityVerdict:
    """Truth on every family member under every interpretation."""
    return check_valid(f, family, qwindow)


def prob_equivalent_on_family(f: ProbFormula, g: ProbFormula, family: DistFamily,
                              qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                              ) -> ValidityVerdict:
    """Same truth value on every family member (used for WP-schema
    matching): the validity of (f && g) || (!f && !g).  One formula (terms
    are hash-consed) is equivalent to itself, with nothing evaluated."""
    if f is g:
        return ValidityVerdict(True, _scope(family, qwindow))
    return check_valid_prob(POr(PAnd(f, g), PAnd(PNot(f), PNot(g))), family, qwindow)


def real_equivalent_on_family(a: RealExpr, b: RealExpr, family: DistFamily,
                              qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                              ) -> ValidityVerdict:
    """Same rational value on every family member: the validity of a = b.
    One expression (terms are hash-consed) is equivalent to itself, with
    nothing evaluated."""
    if a is b:
        return ValidityVerdict(True, _scope(family, qwindow))
    return check_valid_prob(PRel("=", a, b), family, qwindow)


# ---------------------------------------------------------------------------
# Distribution literals on disk: a JSON list of {"state": {...}, "prob": "n/d"}


def dist_from_json(data) -> SubDistribution:
    if not isinstance(data, list):
        raise ValueError("distribution file must be a JSON list of entries")
    entries = []
    for item in data:
        if not isinstance(item, dict) or set(item) != {"state", "prob"}:
            raise ValueError(f"bad distribution entry: {item!r}")
        state = _state_from_json(item["state"])
        p = parse_fraction(str(item["prob"]))
        if p <= 0:
            raise ValueError(f"non-positive probability {p} at {state}")
        entries.append((state, p))
    return SubDistribution(entries)  # adds repeated states, rejects mass > 1


def _state_from_json(data) -> State:
    """A JSON object mapping program variables, named as `parse_state`
    reads them, to JSON integers (not booleans or floats)."""
    if isinstance(data, dict) and all(type(v) is int for v in data.values()):
        try:  # the text parses back to data iff every key is a variable name
            state = parse_state(", ".join(f"{k}={v}" for k, v in data.items()))
        except ParseError:
            state = None
        if state is not None and state.as_dict() == data:
            return state
    raise ValueError(f"a distribution entry's state must map program variables "
                     f"to integers, got {data!r}")


def dist_to_json(dist: SubDistribution) -> list:
    return [
        {"state": s.as_dict(), "prob": str(p)}
        for s, p in sorted(dist.items())
    ]


def load_dist(path: str) -> SubDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        return dist_from_json(json.load(fh))
