"""Acceptance gate: ten end-to-end criteria, each one test with exact
rational tolerances (plain == on Fraction-valued objects, never approximate)
and a wall-clock budget asserted inside the test, plus a wall-clock budget
for the preterm of a loop with a probabilistic body.

Run with -v to get one pass/fail line per criterion.
"""

import random
import time
from fractions import Fraction

import gen
from phl.assertions import DistFamily, StateWindow, eval_real
from phl.core import (
    EMPTY_INTERP, And, If, Not, Skip, State, SubDistribution,
    node_size, point_dist, simplify_formula,
)
from phl.parser import parse_command, parse_real_expr, parse_triple
from phl.preterm import check_triple_prob, cond_term, pas_preterm_linear, pt
from phl.proofsys import check_derivation, conseq_over, derivation_from_json
from phl.semantics import execute, restrict, sat_det, sat_det_dist
from phl.wp import check_triple_det, wp
from reference import (
    det_derivation_from_traces, iterate_cmd, pas_preterm_subset_sum,
    rule_soundness_suite,
)

HALF = Fraction(1, 2)
PV = ("X", "Y")
WINDOW = StateWindow.make(PV, -2, 2)
QW = (-3, 3)

GEOMETRIC = "while X = 0 do { X :=$ {1/2:0, 1/2:1}; Y := Y + 1 }"
DIVERGE = "while true do { skip }"
CSTAR = ("X :=$ {1/3:0, 2/3:1}; "
         "if X = 0 then { while true do { skip } } else { skip }")
COIN = "while X > 0 do { X := X - 1 [1/2] skip }"

DIVERGE_DERIV = {
    "rule": "CONS",
    "conclusion": "{ true } while true do { skip } { P(true) = 0 }",
    "premises": [{
        "rule": "WHILE",
        "conclusion": "{ 0 = 0 } while true do { skip } { P(true) = 0 }",
    }],
}

CSTAR_DERIV = {
    "rule": "CONS",
    "conclusion": "{ true } %s { P(true) <= 2/3 }" % CSTAR,
    "premises": [{
        "rule": "SEQ",
        "conclusion": "{ 2/3 * P(true) <= 2/3 } %s { P(true) <= 2/3 }" % CSTAR,
        "premises": [
            {"rule": "PAS",
             "conclusion": "{ 2/3 * P(true) <= 2/3 } X :=$ {1/3:0, 2/3:1} "
                           "{ P(!(X = 0)) <= 2/3 }"},
            {"rule": "IF",
             "conclusion": "{ P(!(X = 0)) <= 2/3 } if X = 0 then "
                           "{ while true do { skip } } else { skip } "
                           "{ P(true) <= 2/3 }"},
        ],
    }],
}


class Budget:
    """Context manager asserting a wall-clock limit for one criterion."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert self.elapsed < self.limit, (
                f"took {self.elapsed:.2f}s; budget {self.limit}s")


def family(seed=0, mixtures=32):
    return DistFamily.build(StateWindow.make(("X",), -8, 8), seed=seed,
                            mixtures=mixtures)


def test_criterion_01_geometric_loop_exact_masses():
    with Budget(1.0):
        res = execute(parse_command(GEOMETRIC), point_dist({"X": 0, "Y": 0}),
                      loop_bound=20)
        for i in range(1, 21):
            assert res.output.get(State.make({"X": 1, "Y": i})) == HALF ** i
        assert res.output.mass == 1 - HALF ** 20
        assert res.residual_mass == HALF ** 20


def test_divergence_stops_at_its_fixed_point():
    # one pass leaves the sub-distribution unchanged, so a million-pass
    # bound costs one body run and still reports every iteration
    with Budget(1.0):
        res = execute(parse_command(DIVERGE), point_dist({"X": 0}), loop_bound=10**6)
    assert res.output == SubDistribution.zero()
    assert res.residual_mass == 1 and not res.exact
    assert res.iterations_used == 10**6


def test_criterion_02_divergence_returns_zero_distribution():
    with Budget(1.0):
        loop = parse_command(DIVERGE)
        for label, mu in family():
            res = execute(loop, mu)
            assert res.output == SubDistribution.zero(), label
            assert res.residual_mass == mu.mass, label


def test_criterion_03_preterm_worked_examples():
    with Budget(5.0):
        top = parse_real_expr("P(true)")
        diverge_pt, _ = pt(parse_command(DIVERGE), top)
        cstar_pt, _ = pt(parse_command(CSTAR), top)
        for label, mu in family():
            assert eval_real(diverge_pt, mu, EMPTY_INTERP) == 0, label
            assert eval_real(cstar_pt, mu, EMPTY_INTERP) \
                == Fraction(2, 3) * mu.mass, label


def test_criterion_04_worked_triples_and_derivations():
    with Budget(5.0):
        fam = family()
        t1 = parse_triple("{ true } %s { P(true) = 0 }" % DIVERGE)
        assert check_triple_prob(t1.pre, t1.command, t1.post, fam).holds
        t2 = parse_triple("{ true } %s { P(true) <= 2/3 }" % CSTAR)
        assert check_triple_prob(t2.pre, t2.command, t2.post, fam).holds
        v1 = check_derivation(derivation_from_json(DIVERGE_DERIV), family=fam)
        assert v1.accepted, v1.failures
        v2 = check_derivation(derivation_from_json(CSTAR_DERIV), family=fam)
        assert v2.accepted, v2.failures


def test_criterion_05_preterm_characterization_suite():
    with Budget(60.0):
        rng = random.Random(5)
        window_states = WINDOW.states()
        done = 0
        while done < 500:
            if done % 3 == 2:
                c = gen.gen_safe_loop(rng, PV, -2, 2)
            else:
                c = gen.gen_loopfree(rng, PV, depth=rng.randint(0, 3))
            r = gen.gen_real_expr(rng, PV, depth=rng.randint(0, 2))
            mu = gen.gen_subdist(rng, window_states)
            term, expansions = pt(c, r, window=WINDOW, qwindow=QW)
            assert all(e.exhaustive for e in expansions)
            res = execute(c, mu)
            assert res.exact
            assert eval_real(term, mu, EMPTY_INTERP, QW) \
                == eval_real(r, res.output, EMPTY_INTERP, QW), (c, r, mu)
            done += 1
        assert done >= 500


def test_criterion_06_wp_characterization_suite():
    with Budget(60.0):
        rng = random.Random(6)
        window_states = WINDOW.states()
        done = 0
        while done < 500:
            if done % 3 == 2:
                c = gen.gen_safe_loop(rng, PV, -2, 2)
            else:
                c = gen.gen_loopfree(rng, PV, depth=rng.randint(0, 3))
            phi = gen.gen_formula(rng, PV, depth=rng.randint(0, 3))
            pre, traces = wp(c, phi, window=WINDOW, qwindow=QW)
            assert all(t.converged for t in traces)
            s = rng.choice(window_states)
            res = execute(c, point_dist(s.as_dict()))
            assert res.exact
            assert sat_det(pre, s, EMPTY_INTERP, QW) \
                == sat_det_dist(phi, res.output, EMPTY_INTERP, QW), (c, phi, s)
            done += 1
        assert done >= 500


def test_criterion_07_conditional_term_lemma_suite():
    with Budget(30.0):
        rng = random.Random(7)
        window_states = WINDOW.states()
        for _ in range(500):
            r = gen.gen_real_expr(rng, PV, depth=rng.randint(0, 3))
            b = gen.gen_guard(rng, PV, depth=rng.randint(0, 2))
            mu = gen.gen_subdist(rng, window_states)
            assert eval_real(cond_term(r, b), mu, EMPTY_INTERP, QW) \
                == eval_real(r, restrict(mu, b), EMPTY_INTERP, QW), (r, b, mu)


def test_criterion_08_pas_dual_form_suite():
    with Budget(30.0):
        rng = random.Random(8)
        window_states = WINDOW.states()
        for _ in range(200):
            dist = gen.gen_dist_spec(rng, (-3, -2, -1, 0, 1, 2), max_n=6)
            phi = gen.gen_formula(rng, PV, depth=rng.randint(0, 3))
            mu = gen.gen_subdist(rng, window_states)
            a = pas_preterm_subset_sum(dist, "X", phi)
            b = pas_preterm_linear(dist, "X", phi)
            assert eval_real(a, mu, EMPTY_INTERP, QW) \
                == eval_real(b, mu, EMPTY_INTERP, QW), (dist, phi, mu)


def test_criterion_09_termination_class_key_lemma():
    """States in the class "exits after exactly i bodies" see no difference
    between the loop and its i-fold guarded unrolling."""
    with Budget(60.0):
        rng = random.Random(9)
        checked = 0
        while checked < 100:
            loop = gen.gen_safe_loop(rng, PV, -2, 2)
            guarded = If(loop.guard, loop.body, Skip())
            w = [simplify_formula(Not(loop.guard))]
            prefix = None
            for i in range(12):
                if i:
                    w.append(wp(loop.body, w[-1], window=WINDOW, qwindow=QW)[0])
                cls = w[i] if prefix is None else And(prefix, w[i])
                prefix = Not(w[i]) if prefix is None else And(prefix, Not(w[i]))
                for s in WINDOW.states():
                    if not sat_det(cls, s, EMPTY_INTERP, QW):
                        continue
                    mu = point_dist(s.as_dict())
                    via_loop = execute(loop, mu)
                    via_unroll = execute(iterate_cmd(guarded, i), mu)
                    assert via_loop.exact and via_unroll.exact
                    assert via_loop.output == via_unroll.output, (loop, i, s)
                    checked += 1
        assert checked >= 100


def test_criterion_10_rule_soundness_suite():
    with Budget(60.0):
        report = rule_soundness_suite(count=300, seed=0)
        assert report.ok, report.failures
        assert report.instances >= 300
        for rule in ("SKIP", "AS", "PAS", "SEQ", "IF", "WHILE", "CONS",
                     "AND", "OR"):
            assert report.per_rule.get(rule, 0) > 0, rule


def test_det_completeness_on_template_loops():
    """The paper's first completeness step, deterministic assertions end to
    end: for triples over `gen`'s commands with loop templates, the triple
    holds on the window exactly when the derivation of {wp(C, post)} C {post}
    whose loop invariants are the last approximants of wp's traces, restated
    by CONS to the triple's pre, is accepted.  A rejection's counterexample
    runs to an output that falsifies post.  Chains that did not converge
    within the unroll bound give no fixpoint invariant; they are counted
    apart."""
    window, qwindow = StateWindow.make(PV, -2, 2), (-2, 2)
    with Budget(5.0):
        rng = random.Random(12)
        verdicts = {True: 0, False: 0}
        unconverged = 0
        for _ in range(300):
            c = gen.gen_command(rng, PV, rng.randint(0, 3), loops=True)
            post = gen.gen_formula(rng, PV, rng.randint(0, 3))
            pre = gen.gen_formula(rng, PV, rng.randint(0, 3))
            d, converged = det_derivation_from_traces(c, post, window, qwindow)
            if not converged:
                unconverged += 1
                continue
            semantic = check_triple_det(pre, c, post, window, qwindow, 64)
            proof = check_derivation(conseq_over(d, pre), window, qwindow=qwindow)
            assert semantic.holds == proof.accepted, (c, pre, post, proof.failures)
            assert not semantic.inexact
            if not semantic.holds:
                state, interp = semantic.counterexample
                output = execute(c, point_dist(state.as_dict()), 64).output
                assert not sat_det_dist(post, output, interp, qwindow)
            verdicts[semantic.holds] += 1
        assert unconverged == 0 and min(verdicts.values()) >= 100, (verdicts, unconverged)


def test_coin_countdown_preterm_budget():
    """The coin countdown's preterm at unroll 16 and depth 8: every class and
    tail term rewrites terms the earlier ones share, so the call's one memo
    scope does each rewrite once.  The term is not printed: its text is far
    larger than its DAG."""
    with Budget(1.0):
        term, expansions = pt(parse_command(COIN), parse_real_expr("P(X = 0)"),
                              unroll=16, depth=8,
                              window=StateWindow.make(("X", "_F0"), -4, 4))
        assert node_size(term) == 3626
        assert [e.exhaustive for e in expansions] == [False]
