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
probabilistic formula one column over the family's members.  A family
keeps, from its first use on, its members' distinct stores as value rows
and each member as a vector of integer numerators over them, so a P(phi)
body is decided once over the rows.  `eval_real` and `sat_prob` are
batches of one distribution.  A window keeps its states, and inside a memo
scope (`core.memo_scoped`) a node's column over a window is decided once
for every check that reads it.  A triple check runs each distinct row of
the points satisfying pre once (a window state is the point on its own
row), as a lane of a few interpreter passes, and reads a point's output as
the mixture of its rows' outputs: post is decided in a few batches over the
passes' outputs.  The first counterexample is the one of the state-by-state
loops (interpretation outer, state or member inner).  Equivalence is
validity: of a = b for real terms, of (f && g) || (!f && !g) for
probabilistic formulas.  Terms are hash-consed, so identical operands are
one object, and they are equivalent without being evaluated.
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
    ProbFormula, RealExpr, State, SubDistribution, UnboundVariable, assigned_vars,
    log_vars, memo_table, parse_fraction, real_vars,
)
from .parser import ParseError, parse_state
from .semantics import (
    DEFAULT_QWINDOW, Mixtures, eval_batch, eval_mixtures, eval_outputs, execute,
    run_lanes, sat_det_batch, sat_det_outputs,
)

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
    _states = _mixtures = None  # not fields: equality, hash and repr read the bounds only

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

    def mixtures(self) -> Mixtures:
        """The window's stores as value rows, in order, each state the
        point of mass 1 on its row; built on the first call and kept on the
        window."""
        mix = self._mixtures
        if mix is None:
            rows = list(itertools.product(range(self.lo, self.hi + 1), repeat=len(self.names)))
            mix = Mixtures(self.names, rows, [[(i, 1)] for i in range(len(rows))], 1)
            object.__setattr__(self, "_mixtures", mix)
        return mix

    # the domain questions `check_valid` and `check_triple` ask, as DistFamily's
    witnesses = states

    def input(self, i: int) -> SubDistribution:
        return SubDistribution.point(self.states()[i])

    holds = staticmethod(sat_det_outputs)

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
        self._mixtures = None

    def mixtures(self) -> Mixtures:
        """The members as vectors over their distinct stores; built on the
        first call and kept on the family."""
        if self._mixtures is None:
            self._mixtures = Mixtures.of([d for _, d in self.members])
        return self._mixtures

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
        return eval_mixtures(f, self.mixtures(), interp, qwindow)

    @staticmethod
    def interpretations(fs: tuple[ProbFormula, ...], qwindow) -> Iterator[Interpretation]:
        return interpretations(frozenset().union(*map(log_vars, fs)), qwindow,
                               frozenset().union(*map(real_vars, fs)))

    def witnesses(self) -> list[str]:
        return [label for label, _ in self.members]

    def input(self, i: int) -> SubDistribution:
        return self.members[i][1]

    holds = staticmethod(eval_outputs)


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

    A point is a vector over the domain's distinct stores (a window state
    is the point of mass 1 on its own store).  The program is linear, so a
    point's output is the mixture of its stores' outputs, and a run does
    not depend on the interpretation: each store runs at most once, as a
    point.  Under each interpretation, the stores of the points satisfying
    pre that have not run go to one interpreter pass per chunk of 1, 2, 4,
    ... points in domain order, and post is decided over the passes'
    outputs in batches of 1, 2, 4, ... points (`domain.holds`); a point's
    residual is the sum of its stores' residuals.  The points are read in
    domain order, so the verdict, its residual bound and any
    `UnboundVariable` raised are those of running and checking one point at
    a time: a point whose stores read an unbound variable is run alone for
    the name it raises."""
    if loop_bound < 0:
        raise ValueError(f"loop bound must be non-negative, got {loop_bound}")
    scope = f"{_scope(domain, qwindow)}, loop bound {loop_bound}"
    mix = domain.mixtures()
    vectors, witnesses = mix.vectors, domain.witnesses()
    names = sorted(assigned_vars(c).union(mix.names))
    rows = mix.rows
    if len(names) > len(mix.names):  # c assigns a variable no store binds
        spots = [mix.layout.get(name) for name in names]
        rows = [tuple(None if i is None else r[i] for i in spots) for r in rows]
    worst, worst_den = 0, 1  # the largest residual mass of a truncated run so far
    ran = {}  # each store that ran: its pass and lane
    stopped = set()  # the stores whose run read an unbound variable
    lost = {}  # the stores whose run dropped mass: its numerator and denominator
    done = set()  # the points whose stores have all run
    size = 1

    def pending(i):  # whether a store of point i, not yet done, has not run
        for s, _ in vectors[i]:
            if s not in ran:
                return True
        done.add(i)
        return False

    for interp in domain.interpretations((pre, post), qwindow):
        points, unbound = _selected(domain.truth(pre, interp, qwindow))
        held = {}  # each point's post verdict under interp
        cache = {}  # what deciding post over the passes' outputs keeps under interp
        batch = 1
        for k, i in enumerate(points):
            if i not in done and pending(i):
                chunk = [*itertools.islice(
                    (j for j in points[k:] if j not in done and pending(j)), size)]
                size *= 2
                new = [*dict.fromkeys(s for j in chunk for s, _ in vectors[j] if s not in ran)]
                run = run_lanes(c, names, [rows[s] for s in new], loop_bound)
                ran.update({s: (run, lane) for lane, s in enumerate(new)})
                done.update(chunk)
                if run.unbound:
                    stopped.update(new[lane] for lane in run.unbound)
                if run.lost is not None:
                    lost.update((s, (run.lost[lane], run.lost_den))
                                for lane, s in enumerate(new) if run.lost[lane])
            if stopped and any(s in stopped for s, _ in vectors[i]):
                execute(c, domain.input(i), loop_bound)  # raises what point i alone raises
            if lost:
                num, num_den = 0, 1  # point i's residual mass is num / (num_den * mix.den)
                for s, m in vectors[i]:
                    if s in lost:
                        n, d = lost[s]
                        num, num_den = num * d + m * n * num_den, num_den * d
                if num * worst_den > worst * num_den * mix.den:
                    worst, worst_den = num, num_den * mix.den
            ok = held.get(i)
            if ok is None:
                chosen = [*itertools.islice(
                    (j for j in points[k:]
                     if j not in held and (j in done or not pending(j))), batch)]
                batch *= 2
                held.update(zip(chosen, domain.holds(
                    post, [vectors[j] for j in chosen], mix.den, ran, interp, qwindow, cache)))
                ok = held[i]
            if ok is not True and ok is not False and len(vectors[i]) > 1:
                # an unbound read of one of its stores: the one point i alone raises
                sat_prob(post, execute(c, domain.input(i), loop_bound).output, interp, qwindow)
            if not ok:
                return TripleVerdict(False, scope, (witnesses[i], interp), worst > 0,
                                     Fraction(worst, worst_den))
        if unbound is not None:
            raise unbound
    return TripleVerdict(True, scope, None, worst > 0, Fraction(worst, worst_den))


def _selected(truth: list) -> tuple[list[int], Optional[UnboundVariable]]:
    """The indices of the true entries, in order, up to the first entry
    that raises `UnboundVariable` when read, and what it raised."""
    out = []
    try:
        for i in itertools.compress(range(len(truth)), truth):
            out.append(i)
    except UnboundVariable as unbound:
        return out, unbound
    return out, None


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
