"""Reference forms and generated suites that only the tests use.

The library computes each of these another way; the tests check it
against them:

- `execute_fractions` runs a program with a `Fraction` per state, the
  interpreter `semantics.execute` reproduces with integer numerators over
  one denominator;
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
  one scope for the whole derivation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import gen
from phl.assertions import DistFamily, StateWindow, check_valid_det, eval_real
from phl.core import (
    And, Assign, Command, EMPTY_INTERP, Formula, If, Implies, IntConst, Not,
    Or, PRel, Prob, ProbFormula, RandAssign, RatConst, RealExpr, RBin, Seq,
    Skip, State, SubDistribution, While, and_all, memo_scoped, real_sum,
    subst_prog_var,
)
from phl.proofsys import (
    DET_RULES, PROB_RULES, Derivation, DerivationVerdict, _check_node,
    derivation_vars,
)
from phl.semantics import (
    DEFAULT_LOOP_BOUND, DEFAULT_QWINDOW, ExecResult, _Batch, _column, _split,
    execute,
)
from phl.preterm import DEFAULT_DEPTH, WhileExpansion, pt
from phl.wp import (
    DEFAULT_UNROLL, check_triple_det, default_window, pas_precondition, wp,
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
