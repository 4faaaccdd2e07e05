"""Probabilistic assertion evaluation, validity checking, JSON distributions."""

import contextlib
import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phl.core import (
    AOP_FUN, EMPTY_INTERP, PTRUE, ROP_FUN, TRUE, Interpretation, Not, PAnd,
    PImplies, PNot, POr, PRel, Prob, RatConst, RBin, RealVar, State,
    SubDistribution, UnboundVariable, log_vars, memo_scoped, point_dist,
    real_vars,
)
from phl import assertions
from phl.assertions import (
    REAL_GRID, DistFamily, StateWindow, ValidityVerdict, check_triple,
    check_valid, check_valid_det, check_valid_prob, dist_from_json,
    dist_to_json, eval_real, interpretations, load_dist,
    prob_equivalent_on_family, real_equivalent_on_family, sat_prob,
)
from phl.parser import (
    parse_det_formula, parse_prob_formula, parse_real_expr, parse_triple,
)
from phl.preterm import check_triple_prob, wp_prob
from phl.semantics import eval_batch, sat_det
from phl.wp import check_triple_det, window_equivalent, wp

import strategies as sts
from reference import (
    check_triple_det_loop, check_triple_prob_loop, check_valid_det_loop,
    check_valid_prob_loop,
)
from test_semantics import reference_sat

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

    @pytest.mark.parametrize("text, want", [
        ("P(X = 0) = 1 && P(Z = 0) = 1", False),
        ("P(X = 0) < 1 || P(Z = 0) = 1", True),
        ("P(X = 0) = 1 -> P(Z = 0) = 1", True),
        ("P(Z = 0) = 1 && P(X = 0) = 1", UnboundVariable),
        ("P(X = 0) = 1 || P(Z = 0) = 1", UnboundVariable),
    ])
    def test_short_circuit_left_to_right(self, text, want):
        """The right operand is read only when the left does not decide."""
        f = parse_prob_formula(text)
        if want is UnboundVariable:
            with pytest.raises(UnboundVariable):
                sat_prob(f, mixture(), EMPTY_INTERP)
        else:
            assert sat_prob(f, mixture(), EMPTY_INTERP) is want


def reference_value(n, mu, interp, qwindow):
    """One member at a time, left to right with short-circuit connectives;
    an unbound variable raises where it is read."""
    def value(n):
        if isinstance(n, RatConst):
            return n.value
        if isinstance(n, RealVar):
            return interp.real_value(n.name)
        if isinstance(n, Prob):
            return sum((p for s, p in mu.items()
                        if reference_sat(n.formula, s, interp.log, qwindow)),
                       Fraction(0))
        if isinstance(n, RBin):
            return AOP_FUN[n.op](value(n.left), value(n.right))
        if isinstance(n, PRel):
            return ROP_FUN[n.op](value(n.left), value(n.right))
        if isinstance(n, PNot):
            return not value(n.body)
        if isinstance(n, PAnd):
            return value(n.left) and value(n.right)
        if isinstance(n, POr):
            return value(n.left) or value(n.right)
        assert isinstance(n, PImplies)
        return not value(n.left) or value(n.right)

    return value(n)


def _read(entry):
    """An entry of a column as a plain value, or the unbound variable's name."""
    try:
        bool(entry)
    except UnboundVariable as err:
        return ("unbound", err.args[0])
    return entry


members = st.lists(st.lists(sts.partial_states(), max_size=3), max_size=5).map(
    lambda family: [SubDistribution({s: Fraction(1, 4) for s in support})
                    for support in family])


class TestEvalBatch:
    """A column over a family agrees, member by member, with evaluating one
    member at a time: the value, or the variable whose read raised."""

    @given(st.one_of(sts.prob_formulas(free=True), sts.open_real_exprs()),
           members,
           st.dictionaries(st.sampled_from(("j", "k")), st.integers(-2, 2)),
           st.dictionaries(st.just("eps"), st.sampled_from(REAL_GRID)))
    @settings(deadline=None, max_examples=300)
    def test_agrees_with_per_member_reference(self, n, dists, log, real):
        interp, qwindow = Interpretation(log, real), (-2, 2)
        got = eval_batch(n, dists, interp, qwindow)
        assert len(got) == len(dists)
        for mu, entry in zip(dists, got):
            want = _outcome(reference_value, n, mu, interp, qwindow)
            assert _read(entry) == want

    def test_first_unbound_state_of_a_member(self):
        """A member's P(phi) raises at its first support state that reads
        an unbound variable, in the member's own order."""
        f = parse_prob_formula("P(Z = 0 || W = 0) >= 0")
        lacks_w, lacks_z = State.make({"Z": 1}), State.make({"W": 1})
        first_w = SubDistribution({lacks_w: HALF, lacks_z: HALF})
        first_z = SubDistribution({lacks_z: HALF, lacks_w: HALF})
        got = eval_batch(f, [first_w, first_z, point_dist({"Z": 0})])
        assert [_read(v) for v in got] == [("unbound", "W"), ("unbound", "Z"), True]


class TestWindowsAndFamilies:
    def test_window_states(self):
        w = StateWindow.make(("X",), -1, 1)
        got = [s.as_dict() for s in w.states()]
        assert got == [{"X": -1}, {"X": 0}, {"X": 1}]
        assert str(w) == "window {X in [-1, 1]}"
        assert str(StateWindow.make((), 3, 1)) == "window {}"

    def test_window_states_are_made_states(self):
        w = StateWindow.make(("Y", "X"), -2, 2)
        got = w.states()
        assert [s.items for s in got] == [
            State.make({"X": x, "Y": y}).items
            for x in range(-2, 3) for y in range(-2, 3)]
        assert list(got) == sorted(got)

    def test_window_keeps_its_states(self):
        w = StateWindow.make(("Y", "X"), -2, 2)
        assert w.states() is w.states()
        assert w == StateWindow.make(("X", "Y"), -2, 2)
        assert repr(w) == "StateWindow(names=('X', 'Y'), lo=-2, hi=2)"

    def test_memoized_unbound_column_raises_on_every_read(self):
        w = StateWindow.make(("X",), -1, 1)
        f = parse_det_formula("X = 0 || Y = 1")

        @memo_scoped
        def twice():
            first = w.truth(f)
            assert w.truth(f) is first  # one column per scope
            for _ in range(2):
                with pytest.raises(UnboundVariable, match="Y"):
                    all(first)
                with pytest.raises(UnboundVariable, match="Y"):
                    check_valid_det(f, w)
            return first
        column = twice()
        assert column is not w.truth(f)  # nothing is kept after the scope
        with pytest.raises(UnboundVariable, match="Y"):
            bool(column[0])
        assert column[1] is True

    def test_interpretations_cover_grid(self):
        interps = list(interpretations(("k",), (-1, 1), ("eps",)))
        assert len(interps) == 3 * len(REAL_GRID)
        assert [(i.log_value("k"), i.real_value("eps")) for i in interps] \
            == [(k, e) for k in (-1, 0, 1) for e in REAL_GRID]

    def test_interpretations_order(self):
        """Logical values outer, in name order, then the real grid."""
        interps = list(interpretations(("j", "k"), (-1, 1), ("eps",)))
        assert [(i.log, i.real) for i in interps] == [
            ({"j": j, "k": k}, {"eps": e})
            for j in (-1, 0, 1) for k in (-1, 0, 1) for e in REAL_GRID]
        assert list(interps[0].log) == ["j", "k"]
        assert repr(interps[1]) == "[j=-1, k=-1, @eps=0]"

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


def _fields(check, *args):
    """A verdict's type and fields, with its interpretation as text, or the
    type and text of the exception the check raised."""
    try:
        verdict = check(*args)
    except Exception as err:
        return type(err), str(err)
    out = {f.name: getattr(verdict, f.name) for f in dataclasses.fields(verdict)}
    if verdict.counterexample is not None:
        witness, interp = verdict.counterexample
        out["counterexample"] = (witness, repr(interp))
    return type(verdict), out


class TestOneChecker:
    """`check_valid` and `check_triple` over a window or a family give the
    verdict of the per-flavor loops they replaced (`reference`), field for
    field, or raise the same exception: the same first witness under the
    same interpretation, and the same residual up to it."""

    WINDOW = sts.WINDOW
    FAM_WINDOW = StateWindow.make(("X", "Y"), -1, 1)
    FAM = DistFamily.build(FAM_WINDOW, seed=0, mixtures=6)
    QW = (-1, 1)
    LOOPING = st.one_of(sts.commands(loops=True), sts.coprime_commands())
    BOUNDS = st.sampled_from((0, 1, 3, 64))
    DET = st.one_of(sts.det_formulas(lv=("k",)), sts.quantified_formulas())
    PROB = st.one_of(sts.prob_formulas(), sts.prob_formulas(free=True))

    # passing, failing, truncated, logical, real and unbound-read cases
    TRIPLES = [
        ("{ X >= 0 } X := X + 1 { X >= 1 }", 64, "holds"),
        ("{ true } X := X - 1 { X >= -1 }", 64, "fails"),
        ("{ k <= X } X := X - 1 { k <= X }", 64, "fails"),
        ("{ true } while X > 0 do { X := X - 1 } { X <= 0 }", 1, "inexact"),
        ("{ true } while X < 2 do { X := X + 1 } { X = 2 && Y > -2 }", 1,
         "fails inexact"),
        ("{ X > 0 } skip { Z > 0 }", 64, "raises"),
        ("{ P(X = 0) >= @eps } skip { P(X = 0) >= @eps }", 64, "holds"),
        ("{ true } X := X + 1 { P(X <= k) = 1 }", 64, "fails"),
        ("{ true } while X > 0 do { X := X - 1 [1/2] skip } { P(X > 0) <= 1/4 }", 2,
         "inexact"),
        ("{ true } while X > 0 do { X := X - 1 [1/2] skip } { P(X <= 0) = 1 }", 2,
         "fails inexact"),
        ("{ true } skip { P(Z = 0) = 1 }", 64, "raises"),
    ]

    def _triple(self, pre, c, post, bound, prob):
        if prob:
            return (_fields(check_triple, pre, c, post, self.FAM, self.QW, bound),
                    _fields(check_triple_prob_loop, pre, c, post, self.FAM, self.QW, bound))
        return (_fields(check_triple, pre, c, post, self.WINDOW, self.QW, bound),
                _fields(check_triple_det_loop, pre, c, post, self.WINDOW, self.QW, bound))

    @pytest.mark.parametrize("text, bound, kind", TRIPLES)
    def test_pinned_triples(self, text, bound, kind):
        t = parse_triple(text)
        got, want = self._triple(t.pre, t.command, t.post, bound, t.prob)
        assert got == want
        if kind == "raises":
            assert got[0] is UnboundVariable
            return
        fields = got[1]
        assert fields["holds"] == (not kind.startswith("fails"))
        assert fields["inexact"] == kind.endswith("inexact")
        entry = check_triple_prob if t.prob else check_triple_det
        domain = self.FAM if t.prob else self.WINDOW
        assert _fields(entry, t.pre, t.command, t.post, domain, self.QW, bound) == got

    @pytest.mark.parametrize("text", ["{ k <= X } X := X - 1 { k <= X }",
                                      "{ k <= X } X := X + 1 { k <= X }"])
    def test_each_point_runs_once(self, monkeypatch, text):
        """A run does not depend on the interpretation: each window state
        runs at most once however many interpretations its pre holds in."""
        window = StateWindow.make(("X",), -1, 1)
        t = parse_triple(text)
        run, runs = assertions.execute, []
        monkeypatch.setattr(assertions, "execute",
                            lambda *args: runs.append(args) or run(*args))
        got = _fields(check_triple, t.pre, t.command, t.post, window, self.QW, 64)
        assert len(runs) <= 3
        monkeypatch.undo()
        assert got == _fields(check_triple_det_loop, t.pre, t.command, t.post,
                              window, self.QW, 64)

    @settings(max_examples=80, deadline=None)
    @given(LOOPING, DET, DET, BOUNDS, st.sampled_from(("drawn", "wp", "true")))
    def test_det_triple(self, c, pre, post, bound, how):
        if how == "wp":  # a post that reads Z has no wp on the window
            with contextlib.suppress(UnboundVariable):
                pre = wp(c, post, unroll=4, window=self.WINDOW, qwindow=self.QW)[0]
        elif how == "true":
            pre = TRUE
        got, want = self._triple(pre, c, post, bound, False)
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(LOOPING, PROB, PROB, BOUNDS, st.sampled_from(("drawn", "wp", "true")))
    def test_prob_triple(self, c, pre, post, bound, how):
        if how == "wp":
            with contextlib.suppress(UnboundVariable):
                pre = wp_prob(c, post, unroll=4, depth=2, window=self.FAM_WINDOW,
                              qwindow=self.QW)[0]
        elif how == "true":
            pre = PTRUE
        got, want = self._triple(pre, c, post, bound, True)
        assert got == want

    @settings(max_examples=80, deadline=None)
    @given(DET, PROB)
    def test_validity(self, f, g):
        assert _fields(check_valid, f, self.WINDOW, self.QW) \
            == _fields(check_valid_det_loop, f, self.WINDOW, self.QW)
        assert _fields(check_valid, g, self.FAM, self.QW) \
            == _fields(check_valid_prob_loop, g, self.FAM, self.QW)


def _outcome(check, *args):
    """A check's result, with a counterexample as (label, log, real), or
    the name of the unbound variable it raised."""
    try:
        got = check(*args)
    except UnboundVariable as err:
        return ("unbound", err.args[0])
    if isinstance(got, ValidityVerdict):
        if got.valid:
            return None
        label, interp = got.counterexample
        return label, interp.log, interp.real
    return got


def _family_reference(value, a, b, fam, qwindow):
    """Interpretation outer, member inner: the first member where a and b
    differ, evaluating one member at a time."""
    lvars = log_vars(a) | log_vars(b)
    rvars = real_vars(a) | real_vars(b)
    for interp in interpretations(lvars, qwindow, rvars):
        for label, mu in fam:
            if value(a, mu, interp, qwindow) != value(b, mu, interp, qwindow):
                return label, interp.log, interp.real
    return None


def _window_reference(f, g, w, qwindow):
    for interp in interpretations(log_vars(f) | log_vars(g), qwindow):
        for s in w.states():
            if sat_det(f, s, interp, qwindow) != sat_det(g, s, interp, qwindow):
                return False
    return True


class TestEquivalenceOrder:
    """The equivalence checks report what a loop over interpretations, then
    members or states, reading the first operand before the second, would:
    the first differing point, or the first unbound read."""

    FAM = DistFamily.build(StateWindow.make(("X",), -2, 2), seed=0, mixtures=8)
    WINDOW = StateWindow.make(("X", "Y"), -1, 1)
    QW = (-2, 2)

    @pytest.mark.parametrize("a, b", [
        ("P(X <= k) + @eps", "P(X < k) + @eps"),
        ("P(X = 0) * @eps", "P(X = 0) * 1/4"),
        ("P(X >= 0) + P(X >= 0)", "2 * P(X > 0)"),
        ("P(X = k)", "P(X = k) + 0"),
        ("P(X < 5 || Z = 0)", "P(X > -2 || W = 0)"),
        ("P(Z = 0)", "P(W = 0)"),
        ("P(W = 0)", "P(Z = 0)"),
    ])
    def test_real(self, a, b):
        a, b = parse_real_expr(a), parse_real_expr(b)
        assert _outcome(real_equivalent_on_family, a, b, self.FAM, self.QW) \
            == _outcome(_family_reference, eval_real, a, b, self.FAM, self.QW)

    @pytest.mark.parametrize("f, g", [
        ("P(X <= k) >= @eps", "P(X < k) >= @eps"),
        ("P(X = 0) >= @eps || P(X = 1) >= @eps", "P(X = 0) + P(X = 1) >= @eps"),
        ("P(X < 5 || Z = 0) = 1", "P(X > -2 || W = 0) = 1"),
        ("P(Z = 0) = 1", "P(W = 0) = 1"),
        ("P(true) = 1 || P(Z = 0) = 1", "P(X > -2 || W = 0) >= 0"),
    ])
    def test_prob(self, f, g):
        f, g = parse_prob_formula(f), parse_prob_formula(g)
        assert _outcome(prob_equivalent_on_family, f, g, self.FAM, self.QW) \
            == _outcome(_family_reference, sat_prob, f, g, self.FAM, self.QW)

    @pytest.mark.parametrize("f, g", [
        ("X <= k", "X < k"),
        ("X = -1 || Z > 0", "X > 5"),
        ("X < 0 || Z > 0", "X > 0 || W > 0"),
        ("Z > 0", "W > 0"),
        ("W > 0", "Z > 0"),
        ("X > k || Z > 0", "X >= k && Y > 0"),
    ])
    def test_window(self, f, g):
        f, g = parse_det_formula(f), parse_det_formula(g)
        assert _outcome(window_equivalent, f, g, self.WINDOW, self.QW) \
            == _outcome(_window_reference, f, g, self.WINDOW, self.QW)

    def test_pinned_outcomes(self):
        """Several members differ, and the first one is reported; at a
        state where both operands read an unbound variable, the first
        operand's is raised, and the second's where the first is decided."""
        a, b = parse_real_expr("P(X <= k) + @eps"), parse_real_expr("P(X < k) + @eps")
        differing = {label for interp in interpretations(("k",), self.QW, ("eps",))
                     for label, mu in self.FAM
                     if eval_real(a, mu, interp) != eval_real(b, mu, interp)}
        assert len(differing) > 3
        assert _outcome(real_equivalent_on_family, a, b, self.FAM, self.QW) \
            == ("point{X=-2}", {"k": -2}, {"eps": Fraction(-1)})
        cases = (("Z > 0", "W > 0", "Z"), ("W > 0", "Z > 0", "W"),
                 ("X < 0 || Z > 0", "X > 0 || W > 0", "W"))
        for f, g, name in cases:
            assert _outcome(window_equivalent, parse_det_formula(f),
                            parse_det_formula(g), self.WINDOW, self.QW) \
                == ("unbound", name)


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

    def test_family_checks_evaluate_nothing(self, monkeypatch):
        fam = DistFamily.build(StateWindow.make(("X",), -1, 1), seed=0, mixtures=4)
        scope = check_valid_prob(parse_prob_formula("true"), fam, (-2, 2)).scope

        def refuse(*args):
            raise AssertionError("eval_batch called")

        monkeypatch.setattr(assertions, "eval_batch", refuse)
        f = parse_prob_formula("P(X = 0) <= 1/2")
        a = parse_real_expr("P(X = 0) + 1")
        for verdict in (prob_equivalent_on_family(f, f, fam, (-2, 2)),
                        real_equivalent_on_family(a, a, fam, (-2, 2))):
            assert verdict == ValidityVerdict(True, scope)


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
