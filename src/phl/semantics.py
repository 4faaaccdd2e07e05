"""Exact denotational semantics over sub-distributions.

A command maps a sub-distribution on stores to another one.  Assignment and
conditionals preserve total mass; only loop truncation can lose mass, and the
lost mass is exactly the probability of running past the iteration bound.
Satisfaction is possibility-style: a distribution satisfies a formula when
every support state does, so the zero distribution satisfies everything.

One engine evaluates every expression level set-at-a-time: a batch decides
each distinct DAG node once for a whole sequence of states (integer terms,
deterministic formulas) or of mixtures (real expressions, probabilistic
formulas).  A mixture is a sub-distribution held as a vector of integer
numerators over a list of distinct stores, the value rows of a `Mixtures`
or the outputs of an interpreter pass, so a P(phi) body is one column over
those stores and a mixture's mass an integer dot product with it.  A real
value stays an integer numerator over one denominator per column; a
`Fraction` is made only where a value leaves the engine.  `sat_det_batch`,
`eval_mixtures` and `eval_batch` are its entry points; `eval_arith`,
`sat_det`, the interpreter's assignments and guards and every checker run
one batch over their domain.  The answers, the first failing state or
distribution and the `UnboundVariable` raised are those of evaluating one
at a time, left to right with short-circuit connectives.

The interpreter, `run_lanes`, runs many inputs in one pass, one lane each,
over value rows: a store's values in one sorted variable layout, None where
a variable is unbound, and the lane's index last.  Each lane's output,
residual and first unbound read are those of running its input alone.  The
program is linear on sub-distributions, so a mixture of inputs runs to the
same mixture of their outputs: `sat_det_outputs` decides a formula over
lanes' outputs, and `eval_outputs` over mixtures of lanes, in batches.
`execute` is the pass of one lane.  Weights are integer numerators over one
denominator, reduced after each step, as a `SubDistribution` holds them.  A
loop whose sub-distribution one more pass leaves unchanged stops unrolling:
nothing exits it any more, so its output, residual and iteration count are
those of unrolling to the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import and_, attrgetter, is_, is_not, itemgetter, mul, or_, xor
from typing import Optional, Sequence

from .core import (
    AOP_FUN, ROP_FUN, ABin, And, Assign, BoolLit, Command, EMPTY_INTERP,
    Forall, Formula, If, IntConst, Interpretation, LogVar, Not, Or, Implies,
    PAnd, PImplies, PNot, POr, PRel, Prob, ProbFormula, ProgVar, RandAssign,
    RatConst, RBin, RealExpr, RealVar, Rel, Seq, Skip, State, SubDistribution,
    UnboundVariable, While, assigned_vars,
)

DEFAULT_QWINDOW = (-8, 8)
DEFAULT_LOOP_BOUND = 64

_ZERO = Fraction(0)
_value = itemgetter(1)
_den = attrgetter("den")


# ---------------------------------------------------------------------------
# Set-at-a-time evaluation.  Each distinct DAG node gets one column, one
# value per state or distribution, built by C-level `map` over its
# children's columns with the `operator` functions; negation is `x ^ True`
# and an implication `(a ^ True) | b`.  Reading a variable that is not bound
# gives an `_Unbound` value instead of raising.  It absorbs every operation
# it is the left operand of, and every one whose left operand does not
# already decide the result (`False & u` is False, `True | u` is True), so
# it ends up exactly where the one-at-a-time, left-to-right, short-circuit
# evaluation would have raised; reading it as a truth value or an integer
# raises `UnboundVariable` there.


class _Unbound:
    """The value of a read of an unbound variable."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __bool__(self):
        raise UnboundVariable(self.name)

    __int__ = __bool__

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
    """One evaluation: its rows, the values of the variables the rows do
    not bind, the quantifier window and a column per distinct node.  Rows
    are stores, with logical variables' values, or mixtures, with real
    variables' values.  A store is a `State`, or, where `layout` maps each
    variable to its position, a value row (see `run_lanes`).  A mixture is
    a list of (index, numerator) pairs over the shared denominator `den`,
    and `union` weighs the indices for a P(phi) body: it gives a column of
    integer weights, or truth values, over one denominator.  Program-
    variable columns do not depend on the logical values, so the batches
    of a quantifier's body share them with the enclosing one."""

    __slots__ = ("rows", "values", "qwindow", "prog", "layout", "union", "den", "memo")

    def __init__(self, rows, values, qwindow, prog, layout=None, union=None, den=1):
        self.rows = rows
        self.values = values
        self.qwindow = qwindow
        self.prog = prog
        self.layout = layout
        self.union = union
        self.den = den
        self.memo = {}


def _column(b: _Batch, n) -> list:
    got = b.memo.get(n)
    if got is None:
        got = b.memo[n] = _COLUMN.get(type(n), _not_an_expression)(b, n)
    return got


def _not_an_expression(b: _Batch, n):
    raise TypeError(f"not an expression or formula: {n!r}")


def _const(b: _Batch, n) -> list:
    return [n.value] * len(b.rows)


def _prog_var(b: _Batch, n: ProgVar) -> list:
    name = n.name
    out = b.prog.get(name)
    if out is None:
        if b.layout is None:
            out = []
            for s in b.rows:
                for k, v in s:
                    if k == name:
                        out.append(v)
                        break
                else:
                    out.append(_Unbound(name))
        else:
            i = b.layout.get(name)
            if i is None:
                out = [_Unbound(name)] * len(b.rows)
            else:
                out = [*map(itemgetter(i), b.rows)]
                if None in out:
                    out = [_Unbound(name) if v is None else v for v in out]
        b.prog[name] = out
    return out


def _var(b: _Batch, n: LogVar) -> list:
    value = b.values.get(n.name)
    return [_Unbound(n.name) if value is None else value] * len(b.rows)


def _abin(b: _Batch, n: ABin) -> list:
    return [*map(AOP_FUN[n.op], _column(b, n.left), _column(b, n.right))]


def _rel(b: _Batch, n: Rel) -> list:
    return [*map(ROP_FUN[n.op], _column(b, n.left), _column(b, n.right))]


def _not(b: _Batch, n: Not | PNot) -> list:
    return [*map(xor, _column(b, n.body), repeat(True))]


def _conj(b: _Batch, n: And | PAnd) -> list:
    return [*map(and_, _column(b, n.left), _column(b, n.right))]


def _disj(b: _Batch, n: Or | POr) -> list:
    return [*map(or_, _column(b, n.left), _column(b, n.right))]


def _implies(b: _Batch, n: Implies | PImplies) -> list:
    return [*map(or_, map(xor, _column(b, n.left), repeat(True)),
                 _column(b, n.right))]


def _forall(b: _Batch, n: Forall) -> list:
    lo, hi = b.qwindow
    out = [True] * len(b.rows)
    for value in range(lo, hi + 1):
        body = _Batch(b.rows, {**b.values, n.var: value}, b.qwindow, b.prog, b.layout)
        out = [*map(and_, out, _column(body, n.body))]
        if not any(map(is_, out, repeat(True))):
            break  # every state is decided: false, or unbound from here on
    return out


# A real column is a pair: integer numerators, or unbound reads, over one
# positive denominator.  A `Fraction` is made only where a value leaves the
# engine (`eval_batch`).


def _rational(b: _Batch, n: RatConst) -> tuple[list, int]:
    return [n.value.numerator] * len(b.rows), n.value.denominator


def _real_var(b: _Batch, n: RealVar) -> tuple[list, int]:
    value = b.values.get(n.name)
    if value is None:
        return [_Unbound(n.name)] * len(b.rows), 1
    return [value.numerator] * len(b.rows), value.denominator


def _rbin(b: _Batch, n: RBin) -> tuple[list, int]:
    (xs, dx), (ys, dy) = _column(b, n.left), _column(b, n.right)
    if n.op == "*":
        return [*map(mul, xs, ys)], dx * dy
    if dx != dy:
        den = lcm(dx, dy)
        xs = [*map(mul, xs, repeat(den // dx))]
        ys = [*map(mul, ys, repeat(den // dy))]
        dx = den
    return [*map(AOP_FUN[n.op], xs, ys)], dx


def _prel(b: _Batch, n: PRel) -> list:
    (xs, dx), (ys, dy) = _column(b, n.left), _column(b, n.right)
    if dx != dy:  # x / dx against y / dy is x * dy against y * dx
        xs, ys = [*map(mul, xs, repeat(dy))], [*map(mul, ys, repeat(dx))]
    return [*map(ROP_FUN[n.op], xs, ys)]


def _prob(b: _Batch, n: Prob) -> tuple[list, int]:
    """Each mixture's weighed mass where the body holds: a sum in the
    mixture's own order, so its first unbound read is the one it stops
    at (an unbound read absorbs the sum)."""
    weights, den = b.union(n.formula)
    return [sum([m * weights[i] for i, m in pairs]) for pairs in b.rows], b.den * den


_COLUMN = {
    IntConst: _const, BoolLit: _const, ProgVar: _prog_var, LogVar: _var,
    ABin: _abin, Rel: _rel, Not: _not, And: _conj, Or: _disj,
    Implies: _implies, Forall: _forall,
    RatConst: _rational, RealVar: _real_var, Prob: _prob, RBin: _rbin, PRel: _prel,
    PNot: _not, PAnd: _conj, POr: _disj, PImplies: _implies,
}


def sat_det_batch(f: Formula, states: Sequence[State],
                  interp: Interpretation = EMPTY_INTERP,
                  qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                  memo: Optional[dict] = None) -> list:
    """The truth of f at each state, in order, each distinct node decided
    once for the whole batch.  Where `sat_det` would raise
    `UnboundVariable`, the entry raises it when read as a truth value, so
    scanning the result in order fails at the same state as scanning the
    states one by one.  memo maps nodes to their columns over these
    states, interp and qwindow already known (a fresh dict by default);
    the columns are shared, and the caller must not change them."""
    b = _Batch(states, interp.log, qwindow, {})
    if memo is not None:
        b.memo = memo
    return _column(b, f)


def _value_row(s: State, layout: dict[str, int], *tail) -> tuple:
    """The values of s at their positions in layout, None where s binds
    no value, then tail."""
    if len(s) == len(layout):  # it binds every variable of the layout
        return (*map(_value, s), *tail)
    row = [None] * len(layout)
    for name, v in s:
        row[layout[name]] = v
    return (*row, *tail)


class Mixtures:
    """Sub-distributions as integer vectors over their distinct stores.
    `rows` holds each distinct store once as a value row in the sorted
    layout `names` (None where a store binds no value); `vectors` holds
    each distribution as a list of (row index, numerator) pairs, in its own
    order, over the shared denominator `den`.  `prog` keeps the
    program-variable columns over the rows, which no interpretation
    changes."""

    __slots__ = ("names", "layout", "rows", "vectors", "den", "prog")

    def __init__(self, names: tuple[str, ...], rows: list, vectors: list, den: int):
        self.names, self.rows, self.vectors, self.den = names, rows, vectors, den
        self.layout = {name: i for i, name in enumerate(names)}
        self.prog = {}

    @staticmethod
    def of(dists: Sequence[SubDistribution]) -> Mixtures:
        """dists over the stores of their supports, in first-seen order,
        laid out by every variable a store binds."""
        den = lcm(*map(_den, dists))
        index: dict[State, int] = {}
        vectors = [[(index.setdefault(s, len(index)), m * (den // d.den))
                    for s, m in d.nums.items()] for d in dists]
        names = tuple(sorted({k for s in index for k, _ in s}))
        layout = {name: i for i, name in enumerate(names)}
        return Mixtures(names, [_value_row(s, layout) for s in index], vectors, den)


def eval_mixtures(n: RealExpr | ProbFormula, mix: Mixtures,
                  interp: Interpretation = EMPTY_INTERP,
                  qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> list | tuple[list, int]:
    """The column of a probabilistic formula, or of a real expression (a
    pair, see `_prob`), over mix's distributions: each P(phi) body is one
    column over mix's rows, and a distribution's mass is an integer dot
    product with it."""
    stores = _Batch(mix.rows, interp.log, qwindow, mix.prog, mix.layout)
    return _column(_Batch(mix.vectors, interp.real, qwindow, None, None,
                          lambda f: (_column(stores, f), 1), mix.den), n)


def eval_batch(n: RealExpr | ProbFormula, dists: Sequence[SubDistribution],
               interp: Interpretation = EMPTY_INTERP,
               qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> list:
    """The exact rational value of a real expression, or the truth of a
    probabilistic formula, on each distribution, in order: `eval_mixtures`
    over `Mixtures.of(dists)`.  Where evaluating one distribution at a time
    would raise `UnboundVariable`, the entry raises it when read as a truth
    value."""
    out = eval_mixtures(n, Mixtures.of(dists), interp, qwindow)
    if isinstance(n, RealExpr):
        nums, den = out
        return [Fraction(v, den) if type(v) is int else v for v in nums]
    return out


def eval_arith(e, state: State, interp: Interpretation = EMPTY_INTERP) -> int:
    """The value of an integer term at a state: a batch of one state."""
    return int(_column(_Batch((state,), interp.log, DEFAULT_QWINDOW, {}), e)[0])


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
    """Every support state satisfies f, tested in insertion order."""
    return all(sat_det_batch(f, list(dist.nums), interp, qwindow))


def restrict(dist: SubDistribution, f: Formula,
             qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> SubDistribution:
    """Keep only the mass sitting on states that satisfy f."""
    return SubDistribution.of_weights(*_reduced(_split(dist.nums, f, qwindow)[0], dist.den))


def _split(dist: dict, f: Formula,
           qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> tuple[dict, dict]:
    """The weights on states that satisfy f, and the rest, from one batch."""
    truth = sat_det_batch(f, list(dist), EMPTY_INTERP, qwindow)
    yes = {}
    no = {}
    for (s, p), ok in zip(dist.items(), truth):
        (yes if ok else no)[s] = p
    return yes, no


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
    mass still live at the bound is dropped and reported as residual.  A
    loop whose sub-distribution one more pass leaves unchanged stops there,
    with the same output, residual and iteration count.  This is a pass of
    one lane, whose output rows become `State`s again.
    """
    names = sorted({k for s in dist.nums for k, _ in s}.union(assigned_vars(c)))
    run = run_lanes(c, names, (dist,), loop_bound)
    if run.unbound:
        raise UnboundVariable(run.unbound[0])
    nums = {State([(k, v) for k, v in zip(names, r) if v is not None]): n
            for r, n in run.rows.items()}
    residual = run.residuals[0]
    return ExecResult(SubDistribution.of_weights(nums, run.den), residual,
                      run.iterations, residual == 0)


# The interpreter runs many inputs in one pass; the semantics is linear, so
# each input, a lane, gives what it gives alone.  A store is a row: its
# values in one layout of sorted variable names, None where a variable is
# unbound, and last the index of its lane, so lanes never merge.  An
# assignment rebuilds the row at the variable's position, and an expression
# reads a variable's column by position.  A lane's first unbound read, the
# read that running it alone would raise at, stops that lane alone.
#
# The weight maps hold integer numerators, whose shared denominator travels
# beside the map.  Every map a step makes is reduced by the gcd of its
# denominator and numerators, as a `SubDistribution` is.  All the lanes of a
# pass share that denominator, from the lcm of the inputs' on, so they are
# reduced jointly: a lane's numerators may carry the other lanes'
# denominators and be larger than those of its own reduced fractions.  Each
# lane's weights are exact whatever the shared denominator.

Weights = dict[tuple, int]


class Lanes:
    """One pass over several inputs.  Its steps share each variable's
    position in a row, the loop bound, whether some loop dropped live mass
    and the variable each stopped lane read unbound.  It ends with the rows
    of every running lane's output in one map over one denominator, each
    lane's residual mass, as a numerator over `lost_den` (None when no loop
    dropped mass), and the deepest unrolling of any lane; from them
    `sat_det_outputs` and `eval_outputs` evaluate over the outputs."""

    __slots__ = ("index", "loop_bound", "count", "truncated", "unbound", "rows", "den",
                 "lost", "lost_den", "iterations", "prog")

    def __init__(self, names: Sequence[str], count: int, loop_bound: int):
        self.index = {name: i for i, name in enumerate(names)}
        self.loop_bound = loop_bound
        self.count = count
        self.truncated = False
        self.unbound: dict[int, str] = {}
        self.prog = {}           # program-variable columns over the output rows

    @property
    def residuals(self) -> list[Fraction]:
        """Each lane's input mass minus its output mass."""
        if self.lost is None:
            return [_ZERO] * self.count
        return [Fraction(n, self.lost_den) for n in self.lost]


def run_lanes(c: Command, names: Sequence[str],
              inputs: Sequence[SubDistribution | tuple],
              loop_bound: int = DEFAULT_LOOP_BOUND) -> Lanes:
    """Run c on each input, a lane, in one pass.  names is the layout,
    sorted: every variable of an input store and every variable c assigns
    (a read of any other variable is unbound in every row).  An input is a
    sub-distribution, or a value row in that layout, the point of mass 1
    there.  Each lane's output, residual and unbound read are those of
    `execute` on its input alone."""
    if loop_bound < 0:
        raise ValueError(f"loop bound must be non-negative, got {loop_bound}")
    run = Lanes(names, len(inputs), loop_bound)
    den = lcm(*[d.den for d in inputs if type(d) is not tuple])
    rows: Weights = {}
    for lane, d in enumerate(inputs):
        if type(d) is tuple:
            rows[(*d, lane)] = den
            continue
        k = den // d.den
        for s, n in d.nums.items():
            rows[_value_row(s, run.index, lane)] = n * k
    out, out_den, run.iterations = _run(c, *_reduced(rows, den), run)
    if run.unbound:
        out = {r: n for r, n in out.items() if r[-1] not in run.unbound}
    run.rows, run.den = out, out_den
    run.lost = None
    if run.truncated:  # otherwise every running lane kept its mass
        held = [0] * len(inputs)
        for r, n in out.items():
            held[r[-1]] += n
        run.lost = [(den if type(d) is tuple else sum(d.nums.values()) * (den // d.den))
                    * out_den - h * den for d, h in zip(inputs, held)]
        run.lost_den = den * out_den
    return run


def sat_det_outputs(f: Formula, vectors: list, den: int, ran: dict,
                    interp: Interpretation, qwindow: tuple[int, int], cache: dict) -> list:
    """For each point, whether every store of its output satisfies f, as
    `sat_det_dist` decides it: each vector is a point's one (row, 1) pair,
    and ran maps a row to the pass and lane that ran it (den is 1, as in
    `eval_outputs`).  f is one column over all of a pass's output rows,
    kept in cache under this interp, and a lane's entry is True, or its
    first row's entry that is not: False, or one that raises
    `UnboundVariable` when read as a truth value."""
    out = []
    for [(s, _)] in vectors:
        run, lane = ran[s]
        verdicts = cache.get(run)
        if verdicts is None:
            rows = list(run.rows)
            truth = _column(_Batch(rows, interp.log, qwindow, run.prog, run.index), f)
            verdicts = cache[run] = [True] * run.count
            if any(map(is_not, truth, repeat(True))):
                for r, ok in zip(rows, truth):
                    if ok is not True and verdicts[r[-1]] is True:
                        verdicts[r[-1]] = ok
        out.append(verdicts[lane])
    return out


def eval_outputs(n: RealExpr | ProbFormula, vectors: list, den: int, ran: dict,
                 interp: Interpretation, qwindow: tuple[int, int],
                 cache: dict) -> list | tuple[list, int]:
    """The column of a probabilistic formula, or of a real expression (a
    pair, see `_prob`), over mixtures of outputs: the vectors hold each
    mixture's (row, numerator) pairs over den, and ran maps a row to the
    pass and lane that ran it, as a point.  By linearity a mixture's
    P(phi) is the sum of its numerators times c, the mass of each row's
    output where phi holds: one column of phi over a pass's output rows
    gives c for all its lanes.  cache keeps, under this interp, each pass's
    batch and each (pass, body)'s c.  An unbound read is a row's first, not
    necessarily the mixture's; `execute` on the mixture gives the latter."""
    lanes: dict[Lanes, dict] = {}  # the rows of the vectors, by the pass that ran them
    for vector in vectors:
        for s, _ in vector:
            run, lane = ran[s]
            lanes.setdefault(run, {})[s] = lane
    common = lcm(*[run.den for run in lanes])

    def weigh(f):
        weights = {}
        for run, rows in lanes.items():
            masses = cache.get((run, f))
            if masses is None:
                batch = cache.get(run)
                if batch is None:
                    batch = cache[run] = _Batch(list(run.rows), interp.log, qwindow,
                                                run.prog, run.index)
                masses = cache[run, f] = [0] * run.count
                for (r, m), ok in zip(run.rows.items(), _column(batch, f)):
                    masses[r[-1]] += m * ok
            k = common // run.den
            for s, lane in rows.items():
                weights[s] = masses[lane] * k
        return weights, common

    return _column(_Batch(vectors, interp.real, qwindow, None, None, weigh, den), n)


def _reduced(weights: dict, den: int) -> tuple[dict, int]:
    if den == 1:  # a deterministic run's weights stay over 1
        return weights, den
    g = gcd(den, *weights.values())
    if g == 1:
        return weights, den
    return {s: n // g for s, n in weights.items()}, den // g


def _merged(acc: Weights, acc_den: int, weights: Weights,
            den: int) -> tuple[Weights, int]:
    """acc plus weights over the lcm of their denominators, reduced; acc
    is a map made by the caller and may be updated in place."""
    if not weights:
        return acc, acc_den
    if not acc:
        return weights, den
    common = lcm(acc_den, den)
    if common != acc_den:
        k = common // acc_den
        acc = {s: n * k for s, n in acc.items()}
    k = common // den
    get = acc.get
    for s, n in weights.items():
        n *= k
        q = get(s)
        acc[s] = n if q is None else q + n
    return _reduced(acc, common)


def _entries(dist: Weights, column: list, p: Lanes):
    """Each (row, weight) of dist with its entry in column.  A lane whose
    entry is an unbound read stops there: its rows from then on are left
    out, and p records the variable.  While no lane has stopped, a C-level
    scan of the column's types finds that there is nothing to leave out."""
    if not p.unbound and _Unbound not in map(type, column):
        return zip(dist.items(), column)
    return _running(dist, column, p.unbound)


def _running(dist: Weights, column: list, stopped: dict[int, str]):
    for item, v in zip(dist.items(), column):
        lane = item[0][-1]
        if lane in stopped:
            continue
        if type(v) is _Unbound:
            stopped[lane] = v.name
            continue
        yield item, v


def _branches(dist: Weights, guard: Formula, p: Lanes) -> tuple[Weights, Weights]:
    """The weights on rows where guard holds, and the rest, from one batch."""
    truth = _column(_Batch(list(dist), {}, DEFAULT_QWINDOW, {}, p.index), guard)
    yes = {}
    no = {}
    for (r, n), ok in _entries(dist, truth, p):
        (yes if ok else no)[r] = n
    return yes, no


def _run(c: Command, dist: Weights, den: int, p: Lanes) -> tuple[Weights, int, int]:
    """The output weights, their denominator and the deepest unrolling.
    The input is never changed; the output is the input itself or a map
    made here."""
    if not dist:
        return dist, den, 0
    if isinstance(c, Skip):
        return dist, den, 0
    if isinstance(c, Assign):
        values = _column(_Batch(list(dist), {}, DEFAULT_QWINDOW, {}, p.index), c.expr)
        i = p.index[c.var]
        acc: Weights = {}
        get = acc.get
        for (r, n), v in _entries(dist, values, p):
            t = list(r)
            t[i] = int(v)  # as `State.make`: a bool constant stores 0 or 1
            t = tuple(t)
            q = get(t)
            acc[t] = n if q is None else q + n
        return (*_reduced(acc, den), 0)
    if isinstance(c, RandAssign):
        acc = {}
        get = acc.get
        i = p.index[c.var]
        for r, n in dist.items():
            t = list(r)
            for m, value in c.dist.scaled:
                t[i] = value
                u = tuple(t)
                q = get(u)
                acc[u] = n * m if q is None else q + n * m
        return (*_reduced(acc, den * c.dist.den), 0)
    if isinstance(c, Seq):
        mid, mid_den, i1 = _run(c.first, dist, den, p)
        out, out_den, i2 = _run(c.second, mid, mid_den, p)
        return out, out_den, max(i1, i2)
    if isinstance(c, If):
        then_in, else_in = _branches(dist, c.guard, p)
        then_out, then_den, i1 = _run(c.then_branch, *_reduced(then_in, den), p)
        else_out, else_den, i2 = _run(c.else_branch, *_reduced(else_in, den), p)
        # then_out is made here: _branches made then_in
        return (*_merged(then_out, then_den, else_out, else_den), max(i1, i2))
    if isinstance(c, While):
        # output = sum over i of the mass that exits after exactly i bodies
        exited: Weights = {}
        exited_den = 1
        inner = 0
        loop_bound = p.loop_bound
        for i in range(loop_bound + 1):
            live, done = _branches(dist, c.guard, p)
            exited, exited_den = _merged(exited, exited_den, *_reduced(done, den))
            if not live or i == loop_bound:
                p.truncated = p.truncated or bool(live)
                return exited, exited_den, max(i, inner)
            prev, prev_den = dist, den
            dist, den, used = _run(c.body, *_reduced(live, den), p)
            inner = max(inner, used)
            if den == prev_den and dist == prev:
                # a fixed point: nothing exited this pass (commands add no
                # mass), so no later pass changes anything either, and the
                # live mass is what unrolling to the bound drops
                p.truncated = True
                return exited, exited_den, max(loop_bound, inner)
    raise TypeError(f"not a command: {c!r}")
