"""Reference forms and generated suites that only the tests use.

The library computes each of these another way; the tests check it
against them:

- `execute_fractions` runs a program with a `Fraction` per state, the
  interpreter `semantics.execute` reproduces with integer numerators over
  one denominator;
- `subdist_form` builds a sub-distribution's numerators and denominator
  by rescaling at each new denominator and dividing by a gcd at the end,
  the form `SubDistribution` reaches in one pass over summed weights;
- `iterate_cmd` builds C^n, the n-fold composition the termination-class
  key lemma unrolls a loop into;
- `pas_preterm_subset_sum` writes the random-assignment preterm as the
  exponential sum over value subsets, against `pas_preterm_linear`;
- `pt_semantic_oracle` runs a program and evaluates the term on its output,
  the value `pt` must reproduce;
- `wp_prob_per_relation` builds WP of a probabilistic formula with one `pt`
  call per side of each relation, the formula `pt`'s one walk over the
  whole formula reproduces;
- `rule_soundness_suite` generates valid instances of every deterministic
  proof rule from `gen` and checks each conclusion semantically;
- `check_derivation_unshared` checks a derivation one node at a time, with
  no memo scope spanning two nodes and a window that rebuilds its states
  on every call, the verdict `proofsys.check_derivation` reproduces with
  one scope for the whole derivation;
- `check_valid_det_loop`, `check_valid_prob_loop`, `check_triple_det_loop`
  and `check_triple_prob_loop` are the four per-flavor checking loops,
  interpretations outside and window states or family members inside, the
  verdicts `assertions.check_valid` and `assertions.check_triple` reproduce
  with one loop each over a window or a family;
- `wp_conjunction` is `wp` as it was before a loop's precondition became
  its last approximant: each loop gives the conjunction of its whole
  approximant chain, and each step is tested by the validity of
  (f && g) || (!f && !g) (`window_equivalent_by_validity`), where
  `wp.window_equivalent` compares two truth columns;
- `det_derivation_from_traces` builds a deterministic derivation of
  {wp(C, post)} C {post} whose loop invariants are the last approximants
  of `wp`'s loop traces, for the paper's first completeness step: a triple
  that holds on the window has an accepted derivation;
- `_free_vars` and `_has_quantifier` answer each variable sort and the
  quantifier test with a bottom-up `dag_walk` that tests the sort at
  every node, and `node_size_walk` counts the nodes that walk visits;
  `guard_error` and `assign_error` build on them the two construction
  checks.  `core` reads program and real variables, DAG size and both
  checks off one scan of the distinct nodes, and walks bottom-up only
  for the free logical variables;
- `ReferenceParser` reads expressions by recursive descent, one method per
  precedence level, and reads a parenthesized relation by trying an
  operand first and backtracking on failure; `phl.parser` reads the same
  text in one operator-precedence loop without backtracking, to the same
  node or the same error.
"""

from __future__ import annotations

import itertools
import random
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import not_
from typing import Optional

import gen
from phl.assertions import (
    DistFamily, StateWindow, TripleVerdict, ValidityVerdict, check_valid_det,
    eval_real, interpretations, sat_prob,
)
from phl.core import (
    ABin, And, ArithExpr, Assign, Command, DistSpec, EMPTY_INTERP, FALSE,
    Forall, Formula, If, Implies, IntConst, LogVar, Node, Not, Or, PAnd,
    PFALSE, PImplies, PNot, POr, PRel, PTRUE, Prob, ProbFormula, ProgVar,
    RandAssign, RatConst, RealExpr, RealVar, RBin, Rel, ROPS, Seq, Skip, State,
    SubDistribution, TRUE, While, and_all, dag_walk, log_vars, memo_scoped,
    real_sum, real_vars, simplify_formula, subst_prog_var,
)
from phl.proofsys import (
    DET_RULES, PROB_RULES, Derivation, DerivationVerdict, _check_node,
    conseq_over, derivation_vars,
)
from phl.semantics import (
    DEFAULT_LOOP_BOUND, DEFAULT_QWINDOW, ExecResult, _Batch, _column, _split,
    eval_batch, execute, sat_det_dist,
)
from phl.parser import ParseError, ParserWarning, SourceTriple, Token, tokenize
from phl.preterm import DEFAULT_DEPTH, WhileExpansion, pt
from phl.wp import (
    DEFAULT_UNROLL, WpLoopTrace, check_triple_det, default_window, pas_precondition, wp,
)

SUBSET_SUM_LIMIT = 12

_ZERO = Fraction(0)


def execute_fractions(c: Command, dist: SubDistribution,
                      loop_bound: int = DEFAULT_LOOP_BOUND) -> ExecResult:
    """`semantics.execute` with one `Fraction` weight per state."""
    if loop_bound < 0:
        raise ValueError(f"loop bound must be non-negative, got {loop_bound}")
    out, iters = _run(c, dict(dist.items()), loop_bound)
    output = SubDistribution(out)
    residual = dist.mass - output.mass
    return ExecResult(output, residual, iters, residual == 0)


Weights = dict[State, Fraction]


def _add_into(acc: Weights, weights: Weights) -> Weights:
    for s, p in weights.items():
        acc[s] = acc.get(s, _ZERO) + p
    return acc


def _run(c: Command, dist: Weights, loop_bound: int) -> tuple[Weights, int]:
    """The output weights and the deepest unrolling.  The input is never
    changed; the output is the input itself or a map made here."""
    if not dist:
        return dist, 0
    if isinstance(c, Skip):
        return dist, 0
    if isinstance(c, Assign):
        values = _column(_Batch(list(dist), {}, DEFAULT_QWINDOW, {}), c.expr)
        acc: Weights = {}
        for (s, p), v in zip(dist.items(), values):
            t = s.set(c.var, v)  # reads v with int(): an unbound read raises
            acc[t] = acc.get(t, _ZERO) + p
        return acc, 0
    if isinstance(c, RandAssign):
        acc = {}
        for s, p in dist.items():
            for weight, value in c.dist.pairs:
                t = s.set(c.var, value)
                acc[t] = acc.get(t, _ZERO) + p * weight
        return acc, 0
    if isinstance(c, Seq):
        mid, i1 = _run(c.first, dist, loop_bound)
        out, i2 = _run(c.second, mid, loop_bound)
        return out, max(i1, i2)
    if isinstance(c, If):
        then_in, else_in = _split(dist, c.guard)
        then_out, i1 = _run(c.then_branch, then_in, loop_bound)
        else_out, i2 = _run(c.else_branch, else_in, loop_bound)
        return _add_into(then_out, else_out), max(i1, i2)  # then_out is made here
    if isinstance(c, While):
        # output = sum over i of the mass that exits after exactly i bodies
        exited: Weights = {}
        inner = 0
        for i in range(loop_bound + 1):
            dist, done = _split(dist, c.guard)
            _add_into(exited, done)
            if not dist or i == loop_bound:
                return exited, max(i, inner)
            dist, used = _run(c.body, dist, loop_bound)
            inner = max(inner, used)
    raise TypeError(f"not a command: {c!r}")


def subdist_form(entries) -> tuple[dict[State, int], int]:
    """`(nums, den)` of the entries by the incremental construction: grow
    the lcm one entry at a time, rescale every numerator at each new
    denominator, then divide by the gcd of the denominator and the
    numerators.  Raises `SubDistribution`'s `ValueError`s."""
    nums: dict[State, int] = {}
    den = 1
    items = entries.items() if isinstance(entries, Mapping) else entries
    for state, p in items:
        if not isinstance(p, Fraction):
            p = Fraction(p)
        n, d = p.numerator, p.denominator
        if n < 0:
            raise ValueError(f"negative probability {p} at {state}")
        if n == 0:
            continue
        if den % d:
            k = d // gcd(den, d)
            den *= k
            nums = {s: m * k for s, m in nums.items()}
        n *= den // d
        nums[state] = nums.get(state, 0) + n
    g = gcd(den, *nums.values())  # repeated states can share a factor
    if g > 1:
        nums, den = {s: m // g for s, m in nums.items()}, den // g
    total = sum(nums.values())
    if total > den:
        raise ValueError(f"total mass {Fraction(total, den)} exceeds 1")
    return nums, den


def iterate_cmd(c: Command, n: int) -> Command:
    """n-fold sequential composition; zero iterations is skip."""
    if n < 0:
        raise ValueError("negative iteration count")
    if n == 0:
        return Skip()
    out = c
    for _ in range(n - 1):
        out = Seq(c, out)
    return out


def pas_preterm_subset_sum(dist, var: str, phi: Formula) -> RealExpr:
    """Random-assignment preterm, written as the sum over nonempty value
    subsets T of (sum of weights in T) * P(phi holds exactly at T's values).

    Exponential in the number of values; refuses more than SUBSET_SUM_LIMIT.
    """
    pairs = dist.pairs
    if len(pairs) > SUBSET_SUM_LIMIT:
        raise ValueError(
            f"subset-sum preterm over {len(pairs)} values would need "
            f"{2 ** len(pairs) - 1} terms; limit is {SUBSET_SUM_LIMIT}")
    substituted = [(w, subst_prog_var(phi, var, IntConst(v))) for w, v in pairs]
    terms: list[RealExpr] = []
    for pattern in itertools.product((True, False), repeat=len(pairs)):
        if not any(pattern):
            continue
        weight = sum((w for (w, _), inside in zip(substituted, pattern) if inside),
                     Fraction(0))
        shape = and_all(
            inst if inside else Not(inst)
            for (_, inst), inside in zip(substituted, pattern))
        terms.append(RBin("*", RatConst(weight), Prob(shape)))
    return real_sum(terms)


def pt_semantic_oracle(c: Command, r: RealExpr, dist: SubDistribution,
                       interp=None, loop_bound: int = DEFAULT_LOOP_BOUND,
                       qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> Fraction:
    """Run C, then evaluate r on the output: the value pt must reproduce."""
    res = execute(c, dist, loop_bound)
    return eval_real(r, res.output, interp or EMPTY_INTERP, qwindow)


@memo_scoped
def wp_prob_per_relation(c: Command, f: ProbFormula, unroll: int = DEFAULT_UNROLL,
                         depth: int = DEFAULT_DEPTH, window: Optional[StateWindow] = None,
                         qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                         ) -> tuple[ProbFormula, list[WhileExpansion]]:
    """Weakest precondition of a probabilistic formula: pt applied to every
    real expression, connectives left in place."""
    if window is None:
        window = default_window(c, f)
    expansions: list[WhileExpansion] = []

    def go(n: ProbFormula) -> ProbFormula:
        if isinstance(n, PRel):
            left, ex1 = pt(c, n.left, unroll, depth, window, qwindow)
            right, ex2 = pt(c, n.right, unroll, depth, window, qwindow)
            expansions.extend(ex1)
            expansions.extend(ex2)
            return PRel(n.op, left, right)
        if isinstance(n, ProbFormula):
            return n.map(go)  # a connective: rebuilt over its transformed operands
        raise TypeError(f"not a probabilistic formula: {n!r}")

    return go(f), expansions


@dataclass
class SoundnessReport:
    instances: int
    per_rule: dict[str, int]
    failures: tuple[str, ...]
    scope: str

    @property
    def ok(self) -> bool:
        return not self.failures


def rule_soundness_suite(count: int = 300, seed: int = 0,
                         window: Optional[StateWindow] = None,
                         qwindow: tuple[int, int] = (-3, 3),
                         loop_bound: int = DEFAULT_LOOP_BOUND,
                         ) -> SoundnessReport:
    """Generate valid instances across all deterministic rules (premises are
    verified semantically, not assumed) and check every conclusion."""
    rng = random.Random(seed)
    pv = ("X", "Y")
    if window is None:
        window = StateWindow.make(pv, -2, 2)
    values = tuple(range(window.lo, window.hi + 1))
    per_rule: dict[str, int] = {r: 0 for r in DET_RULES}
    failures: list[str] = []

    def semantic(pre, c, post) -> bool:
        return check_triple_det(pre, c, post, window, qwindow, loop_bound).holds

    def wp_of(c, post):
        return wp(c, post, window=window, qwindow=qwindow)[0]

    def record(rule: str, ok: bool, pre, c, post):
        per_rule[rule] += 1
        if not ok:
            failures.append(f"{rule}: {{ {pre} }} {c} {{ {post} }}")

    made = 0
    rules = list(DET_RULES)
    while made < count:
        rule = rules[made % len(rules)]
        if rule == "SKIP":
            phi = gen.gen_formula(rng, pv, 2)
            record(rule, semantic(phi, Skip(), phi), phi, Skip(), phi)
        elif rule == "AS":
            post = gen.gen_formula(rng, pv, 2, lv=("k",) if rng.random() < 0.3 else ())
            var = rng.choice(pv)
            expr = gen.gen_aexp(rng, pv, 2)
            pre = subst_prog_var(post, var, expr)
            c = Assign(var, expr)
            record(rule, semantic(pre, c, post), pre, c, post)
        elif rule == "PAS":
            post = gen.gen_formula(rng, pv, 2)
            var = rng.choice(pv)
            c = RandAssign(var, gen.gen_dist_spec(rng, values))
            pre = pas_precondition(c, post)
            record(rule, semantic(pre, c, post), pre, c, post)
        elif rule == "SEQ":
            c1 = gen.gen_loopfree(rng, pv, 2, values)
            c2 = gen.gen_loopfree(rng, pv, 2, values)
            post = gen.gen_formula(rng, pv, 2)
            mid = wp_of(c2, post)
            pre = wp_of(c1, mid)
            ok = (semantic(pre, c1, mid) and semantic(mid, c2, post)
                  and semantic(pre, Seq(c1, c2), post))
            record(rule, ok, pre, Seq(c1, c2), post)
        elif rule == "IF":
            guard = gen.gen_guard(rng, pv)
            c1 = gen.gen_loopfree(rng, pv, 2, values)
            c2 = gen.gen_loopfree(rng, pv, 2, values)
            post = gen.gen_formula(rng, pv, 2)
            c = If(guard, c1, c2)
            pre = wp_of(c, post)
            ok = (semantic(And(pre, guard), c1, post)
                  and semantic(And(pre, Not(guard)), c2, post)
                  and semantic(pre, c, post))
            record(rule, ok, pre, c, post)
        elif rule == "WHILE":
            loop = gen.gen_safe_loop(rng, pv, window.lo, window.hi)
            inv = None
            for _ in range(4):
                cand = gen.gen_formula(rng, pv, 1)
                if semantic(And(cand, loop.guard), loop.body, cand):
                    inv = cand
                    break
            if inv is None:
                inv = and_all(())  # true preserves itself
            ok = semantic(inv, loop, And(inv, Not(loop.guard)))
            record(rule, ok, inv, loop, And(inv, Not(loop.guard)))
        elif rule == "CONS":
            c = gen.gen_loopfree(rng, pv, 2, values)
            post = gen.gen_formula(rng, pv, 2)
            pre = wp_of(c, post)
            stronger = And(pre, gen.gen_formula(rng, pv, 1))
            weaker = Or(post, gen.gen_formula(rng, pv, 1))
            ok = (check_valid_det(Implies(stronger, pre), window, qwindow).valid
                  and check_valid_det(Implies(post, weaker), window, qwindow).valid
                  and semantic(pre, c, post)
                  and semantic(stronger, c, weaker))
            record(rule, ok, stronger, c, weaker)
        else:  # AND / OR
            c = gen.gen_loopfree(rng, pv, 2, values)
            post1 = gen.gen_formula(rng, pv, 2)
            post2 = gen.gen_formula(rng, pv, 2)
            pre1, pre2 = wp_of(c, post1), wp_of(c, post2)
            ctor = And if rule == "AND" else Or
            ok = (semantic(pre1, c, post1) and semantic(pre2, c, post2)
                  and semantic(ctor(pre1, pre2), c, ctor(post1, post2)))
            record(rule, ok, ctor(pre1, pre2), c, ctor(post1, post2))
        made += 1

    scope = f"{window}, quantifiers over {list(qwindow)}, seed {seed}"
    return SoundnessReport(made, per_rule, tuple(failures), scope)


class RebuiltWindow(StateWindow):
    """A window that builds a new list of its states on every call."""

    def states(self) -> list[State]:
        values = range(self.lo, self.hi + 1)
        return [State(tuple(zip(self.names, point)))
                for point in itertools.product(values, repeat=len(self.names))]


def check_derivation_unshared(d: Derivation, window: Optional[StateWindow] = None,
                              family: Optional[DistFamily] = None,
                              qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                              unroll: int = DEFAULT_UNROLL,
                              depth: int = DEFAULT_DEPTH,
                              seed: int = 0) -> DerivationVerdict:
    """`proofsys.check_derivation` with each node checked on its own: no
    memo scope is open between nodes, so every validity check decides its
    formula afresh, and the window's states are rebuilt for every use."""
    if window is None:
        window = StateWindow.make(derivation_vars(d))
    window = RebuiltWindow(window.names, window.lo, window.hi)
    if family is None and d.conclusion.prob:
        family = DistFamily.build(window, seed)
    scope = str(family.description if d.conclusion.prob else window)
    failures: list[str] = []

    def visit(node: Derivation, path: str) -> None:
        t = node.conclusion
        if t.prob != d.conclusion.prob:
            failures.append(f"{path}: assertion flavor differs from the root")
            return
        ruleset = PROB_RULES if t.prob else DET_RULES
        if node.rule not in ruleset:
            failures.append(
                f"{path}: rule {node.rule!r} is not in the "
                f"{'probabilistic' if t.prob else 'deterministic'} system")
            return
        reason = _check_node(node, window, family, qwindow, unroll, depth)
        if reason:
            failures.append(f"{path}: {reason}")
        for i, p in enumerate(node.premises):
            visit(p, f"{path}.premises[{i}]")

    visit(d, "root")
    return DerivationVerdict(not failures, scope, tuple(failures))


# ---------------------------------------------------------------------------
# The per-flavor checking loops: interpretations outside, window states or
# family members inside, the first failing witness, and the residual mass of
# truncated runs up to it.


def check_valid_det_loop(f: Formula, window: StateWindow,
                         qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> ValidityVerdict:
    """Truth at every window state under every interpretation of free vars."""
    scope = f"{window}, quantifiers over {list(qwindow)}"
    states = window.states()
    for interp in interpretations(log_vars(f), qwindow):
        truth = window.truth(f, interp, qwindow)
        witness = next(itertools.compress(states, map(not_, truth)), None)
        if witness is not None:
            return ValidityVerdict(False, scope, (witness, interp))
    return ValidityVerdict(True, scope)


def _family_scope(family: DistFamily, qwindow: tuple[int, int]) -> str:
    return f"{family.description}, quantifiers over {list(qwindow)}"


def check_valid_prob_loop(f: ProbFormula, family: DistFamily,
                          qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> ValidityVerdict:
    """Truth on every family member under every interpretation."""
    scope = _family_scope(family, qwindow)
    labels = [label for label, _ in family]
    dists = [d for _, d in family]
    for interp in interpretations(log_vars(f), qwindow, real_vars(f)):
        truth = eval_batch(f, dists, interp, qwindow)
        witness = next(itertools.compress(labels, map(not_, truth)), None)
        if witness is not None:
            return ValidityVerdict(False, scope, (witness, interp))
    return ValidityVerdict(True, scope)


def check_triple_det_loop(pre: Formula, c: Command, post: Formula,
                          window: Optional[StateWindow] = None,
                          qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                          loop_bound: int = DEFAULT_LOOP_BOUND) -> TripleVerdict:
    """Semantic triple check: run from every window state satisfying pre and
    demand every output support state satisfies post."""
    if window is None:
        window = default_window(pre, c, post)
    lvars = log_vars(pre) | log_vars(post)
    scope = f"{window}, quantifiers over {list(qwindow)}, loop bound {loop_bound}"
    inexact = False
    worst = Fraction(0)
    states = window.states()
    for interp in interpretations(lvars, qwindow):
        for s, ok in zip(states, window.truth(pre, interp, qwindow)):
            if not ok:
                continue
            res = execute(c, SubDistribution.point(s), loop_bound)
            if not res.exact:
                inexact = True
                worst = max(worst, res.residual_mass)
            if not sat_det_dist(post, res.output, interp, qwindow):
                return TripleVerdict(False, scope, (s, interp), inexact, worst)
    return TripleVerdict(True, scope, None, inexact, worst)


def check_triple_prob_loop(pre: ProbFormula, c: Command, post: ProbFormula,
                           family: DistFamily,
                           qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                           loop_bound: int = DEFAULT_LOOP_BOUND) -> TripleVerdict:
    """Semantic triple check over a distribution family: every member
    satisfying pre must, after running c, satisfy post."""
    lvars = log_vars(pre) | log_vars(post)
    rvars = real_vars(pre) | real_vars(post)
    scope = f"{family.description}, quantifiers over {list(qwindow)}, loop bound {loop_bound}"
    inexact = False
    worst = Fraction(0)
    dists = [d for _, d in family]
    for interp in interpretations(lvars, qwindow, rvars):
        for (label, dist), ok in zip(family, eval_batch(pre, dists, interp, qwindow)):
            if not ok:
                continue
            res = execute(c, dist, loop_bound)
            if not res.exact:
                inexact = True
                worst = max(worst, res.residual_mass)
            if not sat_prob(post, res.output, interp, qwindow):
                return TripleVerdict(False, scope, (label, interp), inexact, worst)
    return TripleVerdict(True, scope, None, inexact, worst)


# ---------------------------------------------------------------------------
# wp with a loop's precondition the conjunction of its approximant chain


def window_equivalent_by_validity(f: Formula, g: Formula, window: StateWindow,
                                  qwindow: tuple[int, int] = DEFAULT_QWINDOW) -> bool:
    """The validity of (f && g) || (!f && !g) on the window; one formula is
    equivalent to itself."""
    return f is g or check_valid_det(
        Or(And(f, g), And(Not(f), Not(g))), window, qwindow).valid


@memo_scoped
def wp_conjunction(c: Command, post: Formula, unroll: int = DEFAULT_UNROLL,
                   window: Optional[StateWindow] = None,
                   qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                   ) -> tuple[Formula, list[WpLoopTrace]]:
    """`wp`, with each loop's precondition the simplified conjunction of
    its approximants and each fixpoint test a validity check."""
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
            fixpoint = None
            for i in range(unroll):
                psis.append(simplify_formula(Or(
                    And(c.guard, go(c.body, psis[-1])), And(Not(c.guard), post))))
                if window_equivalent_by_validity(psis[-1], psis[-2], window, qwindow):
                    fixpoint = i + 1
                    break
            traces.append(WpLoopTrace(c, tuple(psis), fixpoint is not None, fixpoint))
            return simplify_formula(and_all(psis))
        raise TypeError(f"not a command: {c!r}")

    return go(c, post), traces


# ---------------------------------------------------------------------------
# The first completeness step: deterministic derivations from wp's traces


def det_derivation_from_traces(c: Command, post: Formula, window: StateWindow,
                               qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                               unroll: int = DEFAULT_UNROLL,
                               ) -> tuple[Derivation, bool]:
    """A deterministic derivation of {wp(C, post)} C {post}, and whether
    every loop's approximant chain converged.  Each head gets its schema;
    an IF premise restates its precondition by CONS; a loop's invariant is
    the last approximant of its `WpLoopTrace` (the window fixpoint when the
    chain converged), its body premise is CONS over the body's derivation,
    and CONS restates the WHILE conclusion's postcondition as post."""
    converged = True

    def build(c: Command, post: Formula) -> Derivation:
        nonlocal converged
        if isinstance(c, Skip):
            return Derivation("SKIP", SourceTriple(post, c, post, False))
        if isinstance(c, Assign):
            pre = subst_prog_var(post, c.var, c.expr)
            return Derivation("AS", SourceTriple(pre, c, post, False))
        if isinstance(c, RandAssign):
            return Derivation("PAS", SourceTriple(pas_precondition(c, post), c, post, False))
        if isinstance(c, Seq):
            second = build(c.second, post)
            first = build(c.first, second.conclusion.pre)
            return Derivation("SEQ", SourceTriple(first.conclusion.pre, c, post, False),
                              (first, second))
        if isinstance(c, If):
            pre = wp(c, post, unroll, window, qwindow)[0]
            then_d = conseq_over(build(c.then_branch, post), And(pre, c.guard))
            else_d = conseq_over(build(c.else_branch, post), And(pre, Not(c.guard)))
            return Derivation("IF", SourceTriple(pre, c, post, False), (then_d, else_d))
        if isinstance(c, While):
            trace = wp(c, post, unroll, window, qwindow)[1][-1]  # the loop's own
            converged = converged and trace.converged
            inv = trace.approximants[-1]
            body = conseq_over(build(c.body, inv), And(inv, c.guard))
            loop = Derivation("WHILE", SourceTriple(inv, c, And(inv, Not(c.guard)), False),
                              (body,))
            return Derivation("CONS", SourceTriple(inv, c, post, False), (loop,))
        raise TypeError(f"not a command: {c!r}")

    return build(c, post), converged


# ---------------------------------------------------------------------------
# Variable collection as one bottom-up walk per sort, and the construction
# checks of guards and assignments built on it.

_NO_VARS: frozenset[str] = frozenset()


def _free_vars(root: Node, sort: type) -> frozenset[str]:
    def step(n, go):
        if type(n) is sort:
            return frozenset((n.name,))
        out = _NO_VARS
        for k in n._kids:
            out |= go(getattr(n, k))
        if sort is ProgVar and isinstance(n, (Assign, RandAssign)):
            out |= {n.var}
        elif sort is LogVar and isinstance(n, Forall):
            out -= {n.var}
        return out
    return dag_walk(root, step)


def _has_quantifier(node: Node) -> bool:
    return dag_walk(node, lambda n, go: isinstance(n, Forall)
                    or any(go(getattr(n, k)) for k in n._kids))


def node_size_walk(root: Node) -> int:
    """The number of distinct nodes a bottom-up walk of root visits."""
    memo: dict = {}
    dag_walk(root, lambda n, go: [go(getattr(n, k)) for k in n._kids], memo)
    return len(memo)


def guard_error(guard: Formula) -> Optional[str]:
    """The ValueError text of an `If` or `While` over guard, or None."""
    if _free_vars(guard, LogVar) or _has_quantifier(guard):
        return f"guard must be quantifier- and logical-var-free: {guard}"
    return None


def assign_error(expr: ArithExpr) -> Optional[str]:
    """The ValueError text of an `Assign` of expr, or None."""
    bad = _free_vars(expr, LogVar)
    if bad:
        return f"assignment right-hand side uses logical variables {sorted(bad)}"
    return None


# ---------------------------------------------------------------------------
# The recursive-descent parser: one method per precedence level, and a
# parenthesized relation read by backtracking.

# the constructors each flavor hands to the shared towers
_INT_SUMS = (ABin, IntConst, 0)
_REAL_SUMS = (RBin, RatConst, Fraction(0))
_DET_CONNECTIVES = (Not, And, Or, Implies)
_PROB_CONNECTIVES = (PNot, PAnd, POr, PImplies)


class ReferenceParser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        used = {t.text for t in tokens if t.kind == "IDENT"}
        self._fresh_iter = (f"_F{i}" for i in range(len(used) + len(tokens) + 1))
        self._used = used

    # -- token plumbing

    def peek(self) -> Token:
        return self.toks[self.pos]  # next() never moves past the final EOF

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.next()

    def at_end(self) -> bool:
        return self.peek().kind == "EOF"

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def _fresh_var(self) -> str:
        for name in self._fresh_iter:
            if name not in self._used:
                self._used.add(name)
                return name
        raise AssertionError("fresh variable pool exhausted")

    # -- numbers

    def frac(self) -> Fraction:
        num = int(self.expect("INT").text)
        if self.peek().kind == "/":
            self.next()
            den_tok = self.expect("INT")
            den = int(den_tok.text)
            if den == 0:
                raise ParseError("zero denominator", den_tok.line, den_tok.col)
            return Fraction(num, den)
        return Fraction(num)

    def signed_int(self) -> int:
        if self.peek().kind == "-":
            self.next()
            return -int(self.expect("INT").text)
        return int(self.expect("INT").text)

    # -- SUMS, CONN and REL: the levels both flavors share

    def sums(self, ctors, prim):
        """`+`/`-` over `*` over unary `-` over prim, all left-associative."""
        left = self._product(ctors, prim)
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            left = ctors[0](op, left, self._product(ctors, prim))
        return left

    def _product(self, ctors, prim):
        left = self._minus(ctors, prim)
        while self.peek().kind == "*":
            self.next()
            left = ctors[0]("*", left, self._minus(ctors, prim))
        return left

    def _minus(self, ctors, prim):
        if self.peek().kind == "-":
            self.next()
            body = self._minus(ctors, prim)
            binop, const, zero = ctors
            if isinstance(body, const):  # a negated constant folds into it
                return const(-body.value)
            return binop("-", const(zero), body)
        return prim()

    def connectives(self, ctors, atom):
        """`->` (right-associative) over `||` over `&&` over `!` over atom."""
        left = self._disjunction(ctors, atom)
        if self.peek().kind == "->":
            self.next()
            return ctors[3](left, self.connectives(ctors, atom))
        return left

    def _disjunction(self, ctors, atom):
        left = self._conjunction(ctors, atom)
        while self.peek().kind == "||":
            self.next()
            left = ctors[2](left, self._conjunction(ctors, atom))
        return left

    def _conjunction(self, ctors, atom):
        left = self._negation(ctors, atom)
        while self.peek().kind == "&&":
            self.next()
            left = ctors[1](left, self._negation(ctors, atom))
        return left

    def _negation(self, ctors, atom):
        if self.peek().kind == "!":
            self.next()
            return ctors[0](self._negation(ctors, atom))
        return atom()

    def relation_or_group(self, operand, rel, formula, what: str):
        """`operand rop operand` (backtracking on failure), else `(formula)`."""
        tok = self.peek()
        save = self.pos
        try:
            left = operand()
            op = self.peek().kind
            if op not in ROPS:
                self.fail("expected a relation")
            self.next()
            return rel(op, left, operand())
        except ParseError:
            self.pos = save
        if tok.kind == "(":
            self.next()
            f = formula()
            self.expect(")")
            return f
        self.fail(f"expected a {what}, found {tok.text or 'end of input'!r}")

    # -- arithmetic over integers

    def aexp(self) -> "ABin | IntConst | ProgVar | LogVar":
        return self.sums(_INT_SUMS, self.aprim)

    def aprim(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return IntConst(int(tok.text))
        if tok.kind == "IDENT":
            if tok.text == "P":
                self.fail("'P' is reserved for the probability operator")
            self.next()
            return ProgVar(tok.text)
        if tok.kind == "LIDENT":
            self.next()
            return LogVar(tok.text)
        if tok.kind == "(":
            self.next()
            e = self.aexp()
            self.expect(")")
            return e
        self.fail(f"expected an arithmetic expression, found {tok.text or 'end of input'!r}")

    # -- deterministic formulas

    def detf(self) -> Formula:
        return self.connectives(_DET_CONNECTIVES, self.datom)

    def datom(self) -> Formula:
        tok = self.peek()
        if tok.kind in ("true", "false"):
            self.next()
            return TRUE if tok.kind == "true" else FALSE
        if tok.kind == "forall":
            self.next()
            name = self.expect("LIDENT").text
            self.expect(".")
            return Forall(name, self.detf())
        return self.relation_or_group(self.aexp, Rel, self.detf, "formula")

    # -- commands

    def cmd(self) -> Command:
        # a `;` chain is read in a loop and folded to the right, so its
        # length is not bounded by the recursion limit
        parts = [self.choice()]
        while self.peek().kind == ";":
            self.next()
            parts.append(self.choice())
        out = parts.pop()
        while parts:
            out = Seq(parts.pop(), out)
        return out

    def choice(self) -> Command:
        left = self.prim_cmd()
        while self.peek().kind == "[":
            self.next()
            p = self.frac()
            if not (0 <= p <= 1):
                self.fail(f"choice probability {p} outside [0, 1]")
            self.expect("]")
            right = self.prim_cmd()
            left = self._desugar_choice(left, p, right)
        return left

    def _desugar_choice(self, c1: Command, p: Fraction, c2: Command) -> Command:
        flag = self._fresh_var()
        dist = DistSpec.make([(p, 0), (1 - p, 1)])
        toss = RandAssign(flag, dist)
        branch = If(Rel("=", ProgVar(flag), IntConst(0)), c1, c2)
        return Seq(toss, branch)

    def prim_cmd(self) -> Command:
        tok = self.peek()
        if tok.kind == "skip":
            self.next()
            return Skip()
        if tok.kind == "if":
            self.next()
            g = self.detf()
            self.expect("then")
            self.expect("{")
            then_branch = self.cmd()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            else_branch = self.cmd()
            self.expect("}")
            return self._guarded(tok, If, g, then_branch, else_branch)
        if tok.kind == "while":
            self.next()
            g = self.detf()
            self.expect("do")
            self.expect("{")
            body = self.cmd()
            self.expect("}")
            return self._guarded(tok, While, g, body)
        if tok.kind == "(":
            self.next()
            c = self.cmd()
            self.expect(")")
            return c
        if tok.kind == "IDENT":
            if tok.text == "P":
                self.fail("'P' is reserved for the probability operator")
            self.next()
            op = self.peek()
            if op.kind == ":=":
                self.next()
                return Assign(tok.text, self.aexp())
            if op.kind == ":=$":
                self.next()
                return RandAssign(tok.text, self.dist_literal())
            self.fail("expected ':=' or ':=$' after variable")
        self.fail(f"expected a command, found {tok.text or 'end of input'!r}")

    @staticmethod
    def _guarded(tok: Token, ctor, *fields) -> Command:
        """An If or While; the node's own guard check is reported at tok."""
        try:
            return ctor(*fields)
        except ValueError as err:
            raise ParseError(str(err), tok.line, tok.col) from None

    def dist_literal(self) -> DistSpec:
        open_tok = self.expect("{")
        pairs: list[tuple[Fraction, int]] = []
        while True:
            w = self.frac()
            self.expect(":")
            pairs.append((w, self.signed_int()))
            if self.peek().kind != ",":
                break
            self.next()
        self.expect("}")
        values = [v for _, v in pairs]
        if len(set(values)) != len(values):
            warnings.warn("duplicate values in distribution literal merged",
                          ParserWarning, stacklevel=4)
        total = sum(w for w, _ in pairs)
        if total != 1:  # frac() is never negative, so no weight exceeds 1
            raise ParseError(f"distribution weights sum to {total}, expected 1",
                             open_tok.line, open_tok.col)
        return DistSpec.make(pairs)

    # -- real expressions and probabilistic formulas

    def rexp(self) -> RealExpr:
        return self.sums(_REAL_SUMS, self.rprim)

    def rprim(self) -> RealExpr:
        tok = self.peek()
        if tok.kind == "INT":
            return RatConst(self.frac())
        if tok.kind == "@":
            self.next()
            return RealVar(self.expect("LIDENT").text)
        if tok.kind == "IDENT" and tok.text == "P":
            self.next()
            self.expect("(")
            f = self.detf()
            self.expect(")")
            return Prob(f)
        if tok.kind == "(":
            self.next()
            r = self.rexp()
            self.expect(")")
            return r
        self.fail(f"expected a real expression, found {tok.text or 'end of input'!r}")

    def probf(self) -> ProbFormula:
        return self.connectives(_PROB_CONNECTIVES, self.patom)

    def patom(self) -> ProbFormula:
        tok = self.peek()
        if tok.kind in ("true", "false"):
            self.next()
            return PTRUE if tok.kind == "true" else PFALSE
        return self.relation_or_group(self.rexp, PRel, self.probf,
                                      "probabilistic formula")


def reference_parse(text: str, production: str):
    """Read the whole text as `production`: aexp, detf, rexp, probf or cmd."""
    p = ReferenceParser(tokenize(text))
    result = getattr(p, production)()
    if not p.at_end():
        p.fail(f"unexpected trailing input {p.peek().text!r}")
    return result
