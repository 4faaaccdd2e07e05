"""Probabilistic assertion evaluation, validity checking, JSON distributions."""

import json
from fractions import Fraction

import pytest
from hypothesis import given

from phl.core import (
    EMPTY_INTERP, Interpretation, Not, PRel, Prob, RatConst, State,
    SubDistribution, UnboundVariable, point_dist,
)
from phl.assertions import (
    DistFamily, StateWindow, check_valid_det, check_valid_prob, dist_from_json,
    dist_to_json, eval_real, interpretations, load_dist, prob_equivalent_on_family,
    real_equivalent_on_family, sat_prob,
)
from phl.parser import (
    parse_det_formula, parse_prob_formula, parse_real_expr, parse_triple,
)
from phl.wp import check_triple_det, window_equivalent

import strategies as sts

HALF = Fraction(1, 2)


def mixture():
    return (point_dist({"X": 0, "Y": 1}).scale(HALF)
            + point_dist({"X": 2, "Y": 1}).scale(Fraction(1, 4)))


class TestEvalReal:
    def test_prob_atom(self):
        mu = mixture()
        r = parse_real_expr("P(X = 0)")
        assert eval_real(r, mu, EMPTY_INTERP) == HALF
        assert eval_real(parse_real_expr("P(Y = 1)"), mu, EMPTY_INTERP) == Fraction(3, 4)
        assert eval_real(parse_real_expr("P(X = 9)"), mu, EMPTY_INTERP) == 0

    def test_arithmetic(self):
        mu = mixture()
        r = parse_real_expr("1/2 * P(Y = 1) - 1/8")
        assert eval_real(r, mu, EMPTY_INTERP) == Fraction(1, 4)

    def test_real_var(self):
        r = parse_real_expr("@eps + 1/4")
        i = Interpretation(real={"eps": HALF})
        assert eval_real(r, SubDistribution.zero(), i) == Fraction(3, 4)

    def test_prob_true_is_mass(self):
        assert eval_real(parse_real_expr("P(true)"), mixture(), EMPTY_INTERP) \
            == Fraction(3, 4)

    @given(sts.det_formulas(), sts.subdists())
    def test_complement_sums_to_mass(self, f, mu):
        p = eval_real(Prob(f), mu, EMPTY_INTERP)
        q = eval_real(Prob(Not(f)), mu, EMPTY_INTERP)
        assert p + q == mu.mass
        assert 0 <= p <= 1


class TestSatProb:
    def test_relations(self):
        mu = mixture()
        assert sat_prob(parse_prob_formula("P(X = 0) = 1/2"), mu, EMPTY_INTERP)
        assert sat_prob(parse_prob_formula("P(X = 0) >= 1/4 && P(true) < 1"), mu,
                        EMPTY_INTERP)
        assert not sat_prob(parse_prob_formula("P(X = 2) > 1/4"), mu, EMPTY_INTERP)

    def test_connectives(self):
        mu = mixture()
        f = parse_prob_formula("P(true) = 1 -> P(X = 5) > 0")
        assert sat_prob(f, mu, EMPTY_INTERP)


class TestWindowsAndFamilies:
    def test_window_states(self):
        w = StateWindow.make(("X",), -1, 1)
        got = [s.as_dict() for s in w.states()]
        assert got == [{"X": -1}, {"X": 0}, {"X": 1}]

    def test_window_states_are_made_states(self):
        w = StateWindow.make(("Y", "X"), -2, 2, per_var={"Y": (0, 1)})
        got = w.states()
        assert [s.items for s in got] == [
            State.make({"X": x, "Y": y}).items for x in range(-2, 3) for y in (0, 1)]
        assert got == sorted(got)

    def test_family_states_in_first_seen_order(self):
        fam = DistFamily.build(StateWindow.make(("X",), -1, 1), seed=0, mixtures=4)
        got = fam.states()
        assert len(got) == len(set(got)) == 3
        assert got == [s for s in StateWindow.make(("X",), -1, 1).states()]

    def test_interpretations_cover_grid(self):
        interps = list(interpretations(("k",), (-1, 1), ("eps",), (Fraction(0), HALF)))
        assert len(interps) == 6
        assert {(i.log_value("k"), i.real_value("eps")) for i in interps} \
            == {(k, e) for k in (-1, 0, 1) for e in (Fraction(0), HALF)}

    def test_family_contents(self):
        w = StateWindow.make(("X",), 0, 1)
        fam = DistFamily.build(w, seed=0, mixtures=5)
        labels = [label for label, _ in fam.members]
        assert labels[0].startswith("point") and "zero" in labels
        assert any(label.startswith("half") for label in labels)
        assert sum(1 for label in labels if label.startswith("mix")) == 5
        assert all(mu.mass <= 1 for _, mu in fam.members)

    def test_family_deterministic(self):
        w = StateWindow.make(("X", "Y"), -1, 1)
        a = DistFamily.build(w, seed=7, mixtures=8)
        b = DistFamily.build(w, seed=7, mixtures=8)
        assert a.members == b.members
        c = DistFamily.build(w, seed=8, mixtures=8)
        assert a.members != c.members


class TestValidity:
    def test_det_valid(self):
        w = StateWindow.make(("X",), -4, 4)
        v = check_valid_det(parse_det_formula("X * X >= 0"), w)
        assert v.valid

    def test_det_counterexample(self):
        w = StateWindow.make(("X",), -4, 4)
        v = check_valid_det(parse_det_formula("k <= X"), w, qwindow=(-2, 2))
        assert not v.valid
        state, interp = v.counterexample
        assert not interp.log_value("k") <= state["X"]

    def test_prob_valid_on_family(self):
        w = StateWindow.make(("X",), -2, 2)
        fam = DistFamily.build(w, seed=0, mixtures=8)
        f = parse_prob_formula("P(X = 0) <= P(true)")
        assert check_valid_prob(f, fam).valid

    def test_prob_counterexample(self):
        w = StateWindow.make(("X",), -2, 2)
        fam = DistFamily.build(w, seed=0, mixtures=8)
        v = check_valid_prob(parse_prob_formula("P(X = 0) = 1"), fam)
        assert not v.valid and v.counterexample is not None

    def test_real_equivalence(self):
        w = StateWindow.make(("X",), -2, 2)
        fam = DistFamily.build(w, seed=0, mixtures=8)
        a = parse_real_expr("P(X = 0) + P(!(X = 0))")
        b = parse_real_expr("P(true)")
        assert real_equivalent_on_family(a, b, fam).valid
        # fails on the zero member, where total mass is 0, not 1
        assert not real_equivalent_on_family(a, parse_real_expr("1"), fam).valid

    def test_prob_equivalence(self):
        w = StateWindow.make(("X",), -2, 2)
        fam = DistFamily.build(w, seed=0, mixtures=8)
        a = parse_prob_formula("P(X = 0) + P(!(X = 0)) = P(true)")
        assert prob_equivalent_on_family(a, parse_prob_formula("true"), fam).valid
        b = parse_prob_formula("P(X = 0) = P(true)")
        assert not prob_equivalent_on_family(a, b, fam).valid


class TestFirstCounterexample:
    """Interpretation outer, state or member inner: the first failure in
    that order is reported, here among several failing points."""

    def test_det(self):
        w = StateWindow.make(("X", "Y"), -2, 2)
        v = check_valid_det(parse_det_formula("k <= X || Y > k"), w, qwindow=(-2, 2))
        state, interp = v.counterexample
        assert state == State.make({"X": -2, "Y": -2}) and interp.log == {"k": -1}

    def test_prob(self):
        fam = DistFamily.build(StateWindow.make(("X",), -2, 2), seed=0, mixtures=8)
        v = check_valid_prob(parse_prob_formula("P(X = 0) >= @eps"), fam)
        assert v.counterexample[0] == "point{X=-2}"
        assert v.counterexample[1].real == {"eps": Fraction(1, 4)}
        v = check_valid_prob(parse_prob_formula("P(X <= k) >= P(X = 0)"), fam,
                             qwindow=(-2, 2))
        assert v.counterexample[0] == "point{X=0}"
        assert v.counterexample[1].log == {"k": -2}

    def test_triple_det(self):
        t = parse_triple("{ k <= X } X := X - 1 { k <= X }")
        v = check_triple_det(t.pre, t.command, t.post,
                             window=StateWindow.make(("X",), -3, 3), qwindow=(-1, 1))
        state, interp = v.counterexample
        assert state == State.make({"X": -1}) and interp.log == {"k": -1}


class TestIdenticalOperands:
    """One node is equivalent to itself without being evaluated: here
    evaluating it would read the unbound variable Z."""

    def test_prob_equivalent(self):
        fam = DistFamily.build(StateWindow.make(("X",), -1, 1), seed=0, mixtures=4)
        f = parse_prob_formula("P(Z = 0) <= 1/2")
        assert prob_equivalent_on_family(f, parse_prob_formula("P(Z = 0) <= 1/2"), fam).valid
        with pytest.raises(UnboundVariable):
            prob_equivalent_on_family(f, parse_prob_formula("P(Z = 1) <= 1/2"), fam)

    def test_real_equivalent(self):
        fam = DistFamily.build(StateWindow.make(("X",), -1, 1), seed=0, mixtures=4)
        a = parse_real_expr("P(Z = 0) + 1")
        assert real_equivalent_on_family(a, parse_real_expr("P(Z = 0) + 1"), fam).valid

    def test_window_equivalent(self):
        w = StateWindow.make(("X",), -1, 1)
        f = parse_det_formula("Z > 0")
        assert window_equivalent(f, parse_det_formula("Z > 0"), w)
        with pytest.raises(UnboundVariable):
            window_equivalent(f, parse_det_formula("Z > 1"), w)


class TestDistJson:
    def test_round_trip(self):
        mu = mixture()
        blob = dist_to_json(mu)
        assert dist_from_json(blob) == mu
        assert dist_from_json(json.loads(json.dumps(blob))) == mu

    def test_load(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text(json.dumps(dist_to_json(mixture())))
        assert load_dist(str(p)) == mixture()

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            dist_from_json([{"state": {"X": 0}, "prob": "2/3"},
                            {"state": {"X": 1}, "prob": "2/3"}])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dist_from_json([{"state": {"X": 0}, "prob": "0"}])
        with pytest.raises(ValueError):
            dist_from_json([{"state": {"X": 0}, "prob": "-1/2"}])

    def test_rejects_decimal_prob(self):
        with pytest.raises(ValueError):
            dist_from_json([{"state": {"X": 0}, "prob": "0.5"}])
