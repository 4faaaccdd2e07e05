"""Proof derivation checking for both assertion flavors.

Each proof system is one rule table, `DET_RULES` or `PROB_RULES`, mapping a
rule to the command shape it applies to (None for any command) and its
number of premises.  One node checker serves both systems: it looks up the
node's entry, checks the shape and then the premise count, and only then
the rule's schema.  The rules the systems share are written once: SKIP and
SEQ match their schemas syntactically, and CONS discharges its implications
and stated side formulas by bounded validity (`Implies` on the state window,
or `PImplies` on the distribution family).  The deterministic system adds
AS/PAS/IF/WHILE schemas (PAS builds its conjunction left-folded) and
AND/OR.  The probabilistic system takes AS/PAS/IF/WHILE as axioms
{WP(C, Phi)} C {Phi} (`WP_AXIOMS`, which `build_wp_derivation` also reads):
any stated precondition family-equivalent to the computed WP is accepted.
It has no AND/OR rules, and the checker does not invent any.  One memo
scope spans the whole check, so the nodes' implications, side conditions
and weakest preconditions decide each shared subformula once; another spans
reading a derivation, so its triples parse each shared text once.

Derivations serialize as JSON:

    {"rule": "CONS", "conclusion": "{ ... } C { ... }",
     "premises": [ ... ], "side": ["<formula>", ...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    And, Assign, Command, Formula, If, Implies, Not, Or, PImplies,
    ProbFormula, RandAssign, Seq, Skip, While, memo_scoped, prog_vars,
    subst_prog_var,
)
from .parser import SourceTriple, parse_det_formula, parse_prob_formula, parse_triple
from .semantics import DEFAULT_QWINDOW
from .assertions import (
    DistFamily, StateWindow, check_valid_det,
    check_valid_prob, prob_equivalent_on_family,
)
from .wp import DEFAULT_UNROLL, default_window, pas_precondition
from .preterm import DEFAULT_DEPTH, wp_prob

# rule -> (command shape, or None for any command; number of premises)
WP_AXIOMS = {Assign: "AS", RandAssign: "PAS", If: "IF", While: "WHILE"}
DET_RULES = {"SKIP": (Skip, 0), "AS": (Assign, 0), "PAS": (RandAssign, 0),
             "SEQ": (Seq, 2), "IF": (If, 2), "WHILE": (While, 1),
             "CONS": (None, 1), "AND": (None, 2), "OR": (None, 2)}
PROB_RULES = {rule: (shape, 0 if shape in WP_AXIOMS else n)
              for rule, (shape, n) in DET_RULES.items() if rule not in ("AND", "OR")}
_NOUNS = {Skip: "skip", Assign: "assignments", RandAssign: "random assignments",
          Seq: "sequential compositions", If: "conditionals", While: "loops"}


@dataclass(frozen=True)
class Derivation:
    rule: str
    conclusion: SourceTriple
    premises: tuple["Derivation", ...] = ()
    side: tuple[Union[Formula, ProbFormula], ...] = ()


@memo_scoped
def derivation_from_json(data) -> Derivation:
    """Read a derivation in one memo scope, so each distinct assertion,
    command and parenthesized formula in its triples is read once."""
    return _from_json(data)


def _from_json(data) -> Derivation:
    if not isinstance(data, dict):
        raise ValueError("derivation node must be a JSON object")
    for field in ("rule", "conclusion"):
        if field not in data:
            raise ValueError(f"derivation node lacks {field!r}")
        if not isinstance(data[field], str):
            raise ValueError(f"derivation {field} must be a JSON string")
    conclusion = parse_triple(data["conclusion"])
    premises, side = data.get("premises", []), data.get("side", [])
    if not (isinstance(premises, list) and isinstance(side, list)):
        raise ValueError("derivation premises and side conditions must be JSON lists")
    if not all(isinstance(s, str) for s in side):
        raise ValueError("derivation side conditions must be JSON strings")
    formulas = tuple(map(parse_prob_formula if conclusion.prob else parse_det_formula, side))
    return Derivation(data["rule"].upper(), conclusion,
                      tuple(_from_json(p) for p in premises), formulas)


def derivation_to_json(d: Derivation) -> dict:
    out = {"rule": d.rule, "conclusion": str(d.conclusion)}
    if d.premises:
        out["premises"] = [derivation_to_json(p) for p in d.premises]
    if d.side:
        out["side"] = [str(s) for s in d.side]
    return out


def load_derivation(path: str) -> Derivation:
    with open(path, "r", encoding="utf-8") as fh:
        return derivation_from_json(json.load(fh))


@dataclass(frozen=True)
class DerivationVerdict:
    accepted: bool
    scope: str
    failures: tuple[str, ...] = ()

    def __str__(self) -> str:
        if self.accepted:
            return f"accepted on {self.scope}"
        return "rejected:\n" + "\n".join(f"  {f}" for f in self.failures)


def derivation_vars(d: Derivation) -> frozenset[str]:
    """Program variables of every triple in the derivation."""
    t = d.conclusion
    out = prog_vars(t.command) | prog_vars(t.pre) | prog_vars(t.post)
    for p in d.premises:
        out |= derivation_vars(p)
    return out


@memo_scoped
def check_derivation(d: Derivation, window: Optional[StateWindow] = None,
                     family: Optional[DistFamily] = None,
                     qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                     unroll: int = DEFAULT_UNROLL,
                     depth: int = DEFAULT_DEPTH,
                     seed: int = 0) -> DerivationVerdict:
    """Validate every node's rule schema; discharge side conditions by
    bounded validity (window for deterministic, family for probabilistic)."""
    if window is None:
        window = StateWindow.make(derivation_vars(d))
    if family is None and d.conclusion.prob:
        family = DistFamily.build(window, seed)
    scope = str(family if d.conclusion.prob else window)
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

    try:
        visit(d, "root")
    finally:  # visit refers to itself: break the cycle
        del visit
    return DerivationVerdict(not failures, scope, tuple(failures))


def _check_node(node: Derivation, window: StateWindow,
                family: Optional[DistFamily], qwindow, unroll: int,
                depth: int) -> Optional[str]:
    t = node.conclusion
    c = t.command
    rule = node.rule
    shape, count = (PROB_RULES if t.prob else DET_RULES)[rule]
    if shape is not None and not isinstance(c, shape):
        return f"{rule} applies to {_NOUNS[shape]} only"
    premises = tuple(p.conclusion for p in node.premises)
    if len(premises) != count:
        return f"rule {rule} expects {count} premises, found {len(premises)}"

    if rule == "SKIP":
        return None if t.pre == t.post else "SKIP needs identical pre and post"

    if rule == "SEQ":
        p1, p2 = premises
        if p1.command != c.first or p2.command != c.second:
            return "SEQ premises must cover the two components in order"
        if p1.pre != t.pre or p2.post != t.post or p1.post != p2.pre:
            return "SEQ assertions must chain (pre, mid, post)"
        return None

    if rule == "CONS":
        p, = premises
        if p.command != c:
            return "CONS premise must cover the same command"
        implies = PImplies if t.prob else Implies

        def valid(f):
            return (check_valid_prob(f, family, qwindow) if t.prob
                    else check_valid_det(f, window, qwindow))

        # any author-supplied side formulas must themselves be valid
        for s in node.side:
            verdict = valid(s)
            if not verdict.valid:
                return f"stated side condition {s} is not valid: {verdict}"
        # an implication between one formula and itself (terms are
        # hash-consed) holds without a check
        for side, stronger, weaker in (("precondition", t.pre, p.pre),
                                       ("postcondition", p.post, t.post)):
            if stronger is not weaker:
                verdict = valid(implies(stronger, weaker))
                if not verdict.valid:
                    return f"{side} implication fails: {verdict}"
        return None

    if t.prob:  # AS, PAS, IF and WHILE are axioms {WP(C, Phi)} C {Phi}
        computed, _ = wp_prob(c, t.post, unroll, depth, window, qwindow)
        verdict = prob_equivalent_on_family(t.pre, computed, family, qwindow)
        if not verdict.valid:
            return (f"precondition is not family-equivalent to the computed "
                    f"weakest precondition {computed}: {verdict}")
        return None

    if rule in ("AS", "PAS"):
        expected = (subst_prog_var(t.post, c.var, c.expr) if rule == "AS"
                    else pas_precondition(c, t.post))
        return None if t.pre == expected else f"{rule} precondition must be {expected}"

    if rule == "IF":
        p1, p2 = premises
        if p1.command != c.then_branch or p2.command != c.else_branch:
            return "IF premises must cover the two branches in order"
        if p1.pre != And(t.pre, c.guard) or p2.pre != And(t.pre, Not(c.guard)):
            return "IF premises must strengthen the precondition by the guard"
        if p1.post != t.post or p2.post != t.post:
            return "IF premises must share the conclusion postcondition"
        return None

    if rule == "WHILE":
        p, = premises
        inv = t.pre
        if p.command != c.body:
            return "WHILE premise must cover the loop body"
        if p.pre != And(inv, c.guard) or p.post != inv:
            return "WHILE premise must preserve the invariant under the guard"
        if t.post != And(inv, Not(c.guard)):
            return "WHILE postcondition must be invariant && !guard"
        return None

    p1, p2 = premises  # AND, OR
    if p1.command != c or p2.command != c:
        return f"{rule} premises must cover the same command"
    ctor = And if rule == "AND" else Or
    if t.pre != ctor(p1.pre, p2.pre) or t.post != ctor(p1.post, p2.post):
        return f"{rule} must combine both premises' assertions"
    return None


# ---------------------------------------------------------------------------
# Mechanical derivations for {WP(C, Phi)} C {Phi}


@memo_scoped
def build_wp_derivation(c: Command, post: ProbFormula,
                        window: Optional[StateWindow] = None,
                        qwindow: tuple[int, int] = DEFAULT_QWINDOW,
                        unroll: int = DEFAULT_UNROLL,
                        depth: int = DEFAULT_DEPTH) -> Derivation:
    """Derivation of {WP(C, post)} C {post} by structural recursion: axiom
    nodes at assignment/conditional/loop heads, SEQ at compositions."""
    if window is None:
        window = default_window(c, post)
    if isinstance(c, Skip):
        return Derivation("SKIP", SourceTriple(post, c, post, True))
    if isinstance(c, Seq):
        mid_deriv = build_wp_derivation(c.second, post, window, qwindow, unroll, depth)
        first_deriv = build_wp_derivation(
            c.first, mid_deriv.conclusion.pre, window, qwindow, unroll, depth)
        conclusion = SourceTriple(first_deriv.conclusion.pre, c, post, True)
        return Derivation("SEQ", conclusion, (first_deriv, mid_deriv))
    rule = WP_AXIOMS.get(type(c))
    if rule is None:
        raise TypeError(f"not a command: {c!r}")
    pre, _ = wp_prob(c, post, unroll, depth, window, qwindow)
    return Derivation(rule, SourceTriple(pre, c, post, True))


def conseq_over(d: Derivation, pre: ProbFormula) -> Derivation:
    """Wrap a derivation in CONS to restate its precondition."""
    t = d.conclusion
    return Derivation("CONS", SourceTriple(pre, t.command, t.post, t.prob), (d,))
