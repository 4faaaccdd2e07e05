"""Core types: exact rationals, stores, sub-distributions, substitution,
simplification."""

import ast
import copy
import gc
import importlib
import inspect
import pickle
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from phl import core
from phl.core import (
    ABin, And, Assign, BoolLit, DistSpec, FALSE, Forall, IntConst,
    Interpretation, LogVar, Node, Not, Or, Prob, ProgVar, RatConst,
    RBin, Rel, Skip, State, SubDistribution, TRUE, UnboundVariable, While,
    and_all, format_fraction, log_vars, normalize_real,
    parse_fraction, point_dist,
    prog_vars, real_vars, simplify_formula, subst_prog_var,
)
from phl.assertions import StateWindow
from phl.parser import (
    parse_command, parse_det_formula, parse_prob_formula, parse_real_expr,
)
from phl.preterm import pt
from phl.proofsys import (
    build_wp_derivation, check_derivation, conseq_over, derivation_from_json,
)
from phl.semantics import sat_det
from phl.wp import wp

import strategies as sts


class TestFractions:
    def test_parse(self):
        assert parse_fraction("1/2") == Fraction(1, 2)
        assert parse_fraction("3") == Fraction(3)
        assert parse_fraction("-2/4") == Fraction(-1, 2)

    def test_decimals_rejected(self):
        with pytest.raises(ValueError):
            parse_fraction("0.5")
        with pytest.raises(ValueError):
            parse_fraction("1e-3")

    @pytest.mark.parametrize("text", [
        "1_0/2_0", "+1/2", "1 / 2", "-2/-4", "\uff11/\uff12", "\u0661/2", "1/",
        "/2", "--1", "1/2/3", "0x10",
    ])
    def test_only_ascii_digits_and_one_minus(self, text):
        with pytest.raises(ValueError, match="not a fraction literal"):
            parse_fraction(text)

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_fraction("1/0")

    def test_format_round_trip(self):
        for q in (Fraction(1, 2), Fraction(-7, 3), Fraction(4), Fraction(0)):
            assert parse_fraction(format_fraction(q)) == q


class TestState:
    def test_lookup_and_update(self):
        s = State.make({"X": 1, "Y": -2})
        assert s["X"] == 1 and s["Y"] == -2
        t = s.set("X", 5)
        assert t["X"] == 5 and s["X"] == 1  # original untouched
        assert t.vars() == ("X", "Y")

    def test_unbound(self):
        with pytest.raises(UnboundVariable):
            State.make({})["X"]

    @pytest.mark.parametrize("name", ["A", "C", "G", "B", "D", "F"],
                             ids=["new-first", "new-middle", "new-last",
                                  "overwrite-first", "overwrite-middle",
                                  "overwrite-last"])
    def test_set_is_one_sorted_insertion(self, name):
        s = State.make({"B": 1, "D": 2, "F": 3})
        got = s.set(name, 7)
        assert got.items == State.make({**s.as_dict(), name: 7}).items
        assert s.items == (("B", 1), ("D", 2), ("F", 3))  # original untouched
        assert State.make({}).set(name, 7).items == ((name, 7),)

    def test_ordering_is_by_valuation(self):
        a = State.make({"X": 0, "Y": 5})
        b = State.make({"X": 1, "Y": 0})
        assert a < b  # X compared first

    def test_hash_equality_and_order_are_the_tuples(self):
        """A store is the tuple of its sorted pairs: equal stores built
        apart are distinct objects that hash alike, and they order and
        print as pinned."""
        a = State.make({"Y": 2, "X": 1})
        b = State.make({"X": 1}).set("Y", 2)
        assert a == b and a is not b
        assert hash(a) == hash(b) and len({a, b}) == 1
        assert sorted([State.make({"X": 1}), a, State.make({"X": 0, "Y": 5}),
                       State.make({"X": 0})]) == [
            State.make({"X": 0}), State.make({"X": 0, "Y": 5}),
            State.make({"X": 1}), a]
        assert repr(a) == "State(items=(('X', 1), ('Y', 2)))"
        assert str(a) == "{X=1, Y=2}"

    def test_equals_the_plain_tuple_of_its_items(self):
        a = State.make({"Y": 2, "X": 1})
        assert type(a.items) is tuple and a.items == (("X", 1), ("Y", 2))
        assert a == a.items and hash(a) == hash(a.items)

    def test_pickle_round_trip(self):
        a = State.make({"X": 1, "Y": -3})
        b = pickle.loads(pickle.dumps(a))
        assert type(b) is State and b == a and hash(b) == hash(a)
        assert b["Y"] == -3 and str(b) == str(a)


class TestDistSpec:
    def test_duplicates_merge(self):
        d = DistSpec.make([(Fraction(1, 2), 0), (Fraction(1, 4), 1),
                           (Fraction(1, 4), 0)])
        assert d.pairs == ((Fraction(3, 4), 0), (Fraction(1, 4), 1))

    def test_zero_weights_dropped(self):
        d = DistSpec.make([(Fraction(1), 0), (Fraction(0), 7)])
        assert d.values() == (0,)

    def test_bad_total(self):
        with pytest.raises(ValueError):
            DistSpec.make([(Fraction(1, 2), 0)])

    def test_integer_weights(self):
        """The weights over the lcm of their denominators, for the
        interpreter; equality and text read the pairs only."""
        pairs = ((Fraction(1, 3), 0), (Fraction(1, 5), 1), (Fraction(7, 15), 2))
        d = DistSpec.make(pairs)
        assert d.den == 15 and d.scaled == ((5, 0), (3, 1), (7, 2))
        assert d == DistSpec(pairs) and hash(d) == hash(DistSpec(pairs))
        assert repr(d) == f"DistSpec(pairs={pairs!r})"


class TestSubDistribution:
    def test_point_mass(self):
        s = State.make({"X": 0})
        mu = point_dist(s)
        assert mu.mass == 1 and mu.get(s) == 1 and mu.support() == {s}

    def test_zero_entries_dropped(self):
        s, t = State.make({"X": 0}), State.make({"X": 1})
        mu = SubDistribution({s: Fraction(1, 2), t: Fraction(0)})
        assert mu.support() == {s}

    def test_mass_cap(self):
        s, t = State.make({"X": 0}), State.make({"X": 1})
        with pytest.raises(ValueError):
            SubDistribution({s: Fraction(3, 4), t: Fraction(1, 2)})

    def test_add_and_scale(self):
        s, t = State.make({"X": 0}), State.make({"X": 1})
        mu = point_dist(s).scale(Fraction(1, 2)) + point_dist(t).scale(Fraction(1, 4))
        assert mu.mass == Fraction(3, 4)
        assert mu.get(s) == Fraction(1, 2)

    def test_project(self):
        mu = SubDistribution({State.make({"X": 0, "F": 0}): Fraction(1, 2),
                              State.make({"X": 0, "F": 1}): Fraction(1, 2)})
        assert mu.project(["X"]) == point_dist(State.make({"X": 0}))

    @given(sts.subdists())
    def test_mass_at_most_one(self, mu):
        assert 0 <= mu.mass <= 1
        assert all(p > 0 for _, p in mu.items())

    def test_integer_form(self):
        """Numerators over the lcm of the reduced weights' denominators;
        repeated states are added before the form is reduced."""
        s, t = State.make({"X": 0}), State.make({"X": 1})
        mu = SubDistribution([(t, Fraction(1, 6)), (s, Fraction(1, 4)),
                              (t, Fraction(1, 12))])
        assert mu.nums == {t: 1, s: 1} and mu.den == 4
        nu = SubDistribution({s: Fraction(1, 3), t: Fraction(1, 2)})
        assert nu.nums == {s: 2, t: 3} and nu.den == 6
        assert SubDistribution({s: 1}).den == 1

    def test_items_are_fractions_in_insertion_order(self):
        states = [State.make({"X": x}) for x in (3, -1, 0, 2)]
        weights = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 10), Fraction(1, 5)]
        mu = SubDistribution(zip(states, weights))
        assert list(mu.items()) == list(zip(states, weights))
        assert all(type(p) is Fraction for _, p in mu.items())
        assert mu.get(states[1]) == Fraction(1, 3) and type(mu.get(states[1])) is Fraction
        assert mu.get(State.make({"X": 9})) == 0
        assert mu.mass == Fraction(4, 5) and type(mu.mass) is Fraction
        assert repr(mu) == "1/3*{X=-1} + 1/10*{X=0} + 1/5*{X=2} + 1/6*{X=3}"

    def test_empty_distributions_are_equal(self):
        s = State.make({"X": 0})
        empties = [SubDistribution(), SubDistribution.zero(),
                   SubDistribution({s: Fraction(0)}),
                   point_dist(s).scale(Fraction(0)),
                   SubDistribution({s: Fraction(1, 3)}).project(["Y"]).scale(0)]
        assert all(e == empties[0] and hash(e) == hash(empties[0]) for e in empties)
        assert all(e.den == 1 and not e and e.mass == 0 for e in empties)
        assert repr(empties[0]) == "0"

    def test_rejections(self):
        s, t = State.make({"X": 0}), State.make({"X": 1})
        with pytest.raises(ValueError, match=r"^negative probability -1/3 at \{X=1\}$"):
            SubDistribution({s: Fraction(1, 2), t: Fraction(-1, 3)})
        with pytest.raises(ValueError, match=r"^total mass 31/30 exceeds 1$"):
            SubDistribution({s: Fraction(2, 3), t: Fraction(11, 30)})
        with pytest.raises(ValueError, match=r"^total mass 3/2 exceeds 1$"):
            SubDistribution([(s, Fraction(3, 4)), (s, Fraction(3, 4))])
        with pytest.raises(ValueError, match=r"^total mass 3/2 exceeds 1$"):
            point_dist(s).scale(Fraction(3, 2))
        with pytest.raises(ValueError, match="exceeds 1"):
            point_dist(s) + point_dist(t).scale(Fraction(1, 5))
        with pytest.raises(ValueError, match="negative scale factor"):
            point_dist(s).scale(Fraction(-1, 2))

    @given(sts.subdists())
    def test_rebuilt_from_items_is_equal(self, mu):
        nu = SubDistribution(list(mu.items()))
        assert nu == mu and hash(nu) == hash(mu)
        assert nu.nums == mu.nums and list(nu.nums) == list(mu.nums)


class TestSubstitution:
    def test_assignment_shape(self):
        # (X + y)[X / X*2] = X*2 + y
        e = ABin("+", ProgVar("X"), LogVar("y"))
        phi = Rel("=", e, IntConst(3))
        out = subst_prog_var(phi, "X", ABin("*", ProgVar("X"), IntConst(2)))
        assert out == Rel("=", ABin("+", ABin("*", ProgVar("X"), IntConst(2)),
                                    LogVar("y")), IntConst(3))

    def test_logical_vars_untouched(self):
        phi = Rel("=", LogVar("x"), IntConst(0))
        assert subst_prog_var(phi, "x", IntConst(5)) is phi

    def test_quantifier_passthrough(self):
        phi = Forall("k", Rel("<", ProgVar("X"), LogVar("k")))
        out = subst_prog_var(phi, "X", IntConst(0))
        assert out == Forall("k", Rel("<", IntConst(0), LogVar("k")))

    def test_identity_preserves_sharing(self):
        phi = And(Rel("=", ProgVar("Y"), IntConst(0)),
                  Rel("<", LogVar("x"), IntConst(2)))
        assert subst_prog_var(phi, "X", IntConst(1)) is phi


class TestVariableCollection:
    def test_free_vars(self):
        phi = Forall("x", And(Rel("=", LogVar("x"), ProgVar("X")),
                              Rel("<", LogVar("y"), IntConst(0))))
        assert prog_vars(phi) == {"X"}
        assert log_vars(phi) == {"y"}

    def test_any_node(self):
        c = parse_command("Z :=$ {1/2:0, 1/2:1}; while X > 0 do { Y := X }")
        assert prog_vars(c) == {"X", "Y", "Z"}
        r = parse_real_expr("@eps * P(forall k. X < k && k < j)")
        assert prog_vars(r) == {"X"}
        assert log_vars(r) == {"j"}
        assert real_vars(r) == {"eps"}


def rebuilt(n):
    """n built again from copies of its fields, children first."""
    if isinstance(n, Node):
        return type(n)(*[rebuilt(getattr(n, f)) for f in n._fields])
    return copy.copy(n)


COUNTDOWN = "while X > 0 do { X := X - 1; Y := Y + X }"
COIN = "while X > 0 do { X := X - 1 [1/2] skip }"


class TestInterning:
    def test_equal_structure_is_one_object(self):
        a = And(Rel("<", ProgVar("X"), IntConst(1)), Not(TRUE))
        b = And(Rel("<", ProgVar("X"), IntConst(1)), Not(TRUE))
        assert a is b and hash(a) == hash(b)
        assert Skip() is Skip()
        assert RatConst(Fraction(1, 2)) is RatConst(Fraction(2, 4))

    @given(sts.commands(loops=True))
    def test_rebuilt_commands(self, c):
        assert rebuilt(c) is c
        assert pickle.loads(pickle.dumps(c)) is c

    @given(sts.det_formulas(lv=("k",)), sts.real_exprs())
    def test_rebuilt_assertions(self, f, r):
        assert rebuilt(f) is f
        assert rebuilt(r) is r

    def test_keys_are_type_exact(self):
        assert IntConst(1) is not IntConst(True)
        assert RatConst(Fraction(1)) is not RatConst(1)
        assert BoolLit(True) is not BoolLit(1)
        assert type(IntConst(True).value) is bool

    @pytest.mark.parametrize("build", [
        lambda: ABin("/", ProgVar("X"), IntConst(1)),
        lambda: Assign("X", LogVar("y")),
        lambda: While(Forall("k", Rel("<", ProgVar("X"), LogVar("k"))), Skip()),
    ], ids=["operator", "assign-logical", "quantified-guard"])
    def test_invalid_node_never_interned(self, build):
        # the children are valid; hold them so only the node itself is new
        children = (IntConst(1), LogVar("y"), Skip(),
                    Forall("k", Rel("<", ProgVar("X"), LogVar("k"))))
        size = len(core._TABLE)
        for _ in range(2):
            with pytest.raises(ValueError):
                build()
            assert len(core._TABLE) == size
        assert children

    def test_dropped_terms_leave_the_table(self):
        c, r = parse_command(COUNTDOWN), parse_real_expr("P(Y >= 2)")
        window = StateWindow.make(("X", "Y"), -2, 2)
        gc.collect()
        size = len(core._TABLE)
        term, expansions = pt(c, r, window=window)
        assert len(core._TABLE) > size
        del term, expansions
        gc.collect()
        assert len(core._TABLE) == size
        # a probabilistic loop body fills the substitution, r/B and
        # simplify tables of the call's memo scope; they go with the call
        c, r = parse_command(COIN), parse_real_expr("P(X = 0)")
        gc.collect()
        size = len(core._TABLE)
        pt(c, r, unroll=8, depth=4, window=StateWindow.make(("X", "_F0"), -3, 3))
        gc.collect()
        assert len(core._TABLE) == size

    def test_large_equal_operands_simplify(self):
        def conj():
            return and_all(Rel("=", ProgVar("X"), IntConst(i)) for i in range(40))
        a, b = conj(), conj()
        assert core.node_size(a) > 64
        assert simplify_formula(And(a, b)) is a
        assert simplify_formula(Or(a, b)) is a
        assert simplify_formula(And(a, Not(b))) is FALSE

    def test_traced_functions_stay_distinct(self):
        source = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        tree = ast.parse(source.read_text(encoding="utf-8"))
        wrapped = next(ast.literal_eval(node.value) for node in tree.body
                       if isinstance(node, ast.Assign)
                       and getattr(node.targets[0], "id", None) == "WRAPPED")
        fns = [getattr(importlib.import_module(m), attr) for m, attr, _ in wrapped]
        for fn, (module, attr, _) in zip(fns, wrapped):
            assert inspect.isfunction(fn), attr
            assert (fn.__module__, fn.__qualname__) == (module, attr)
        assert len({id(fn) for fn in fns}) == len(fns)


class TestNoCycles:
    """A walk's closures are emptied when it returns, so a call leaves no
    reference cycle: with the cyclic collector off, its terms and memo
    tables go as soon as the caller drops the result."""

    def test_tail_terms_die_with_the_result(self):
        c, r = parse_command(COIN), parse_real_expr("P(X = 0)")
        window = StateWindow.make(("X", "_F0"), -3, 3)
        gc.collect()
        gc.disable()
        try:
            term, expansions = pt(c, r, unroll=4, depth=2, window=window)
            tails = [weakref.ref(t) for e in expansions for t in e.tail_terms]
            assert len(tails) == 3 and all(t() is not None for t in tails)
            del term, expansions
            assert [t() for t in tails] == [None] * 3
        finally:
            gc.enable()

    def test_calls_leave_nothing_to_collect(self):
        coin, countdown = parse_command(COIN), parse_command(COUNTDOWN)
        post, prob_post = parse_det_formula("Y >= 0"), parse_prob_formula("P(X = 0) >= 1/2")
        det = conseq_over(derivation_from_json(
            {"rule": "AS", "conclusion": "{ X - 1 >= 0 } X := X - 1 { X >= 0 }"}),
            parse_det_formula("X >= 1"))
        window = StateWindow.make(("X", "Y"), -2, 2)
        gc.collect()
        gc.disable()
        try:
            pt(coin, prob_post, unroll=4, depth=2, window=window)
            wp(countdown, post, window=window)
            prob = build_wp_derivation(coin, prob_post, window, unroll=4, depth=2)
            assert check_derivation(conseq_over(prob, prob_post), window,
                                    unroll=4, depth=2).accepted
            assert check_derivation(det, window).accepted
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSimplify:
    def test_constant_folding(self):
        assert simplify_formula(Rel("=", IntConst(0), IntConst(0))) == TRUE
        assert simplify_formula(Rel(">", IntConst(0), IntConst(1))) == FALSE

    def test_boolean_absorption(self):
        x = Rel("=", ProgVar("X"), IntConst(0))
        assert simplify_formula(And(TRUE, x)) == x
        assert simplify_formula(And(x, FALSE)) == FALSE
        assert simplify_formula(Or(FALSE, x)) == x
        assert simplify_formula(Not(Not(x))) == x
        assert simplify_formula(And(Not(x), x)) == FALSE
        assert simplify_formula(Or(x, Not(x))) == TRUE

    def test_vacuous_quantifier(self):
        body = Rel("=", ProgVar("X"), IntConst(0))
        assert simplify_formula(Forall("x", body)) == body

    @given(sts.det_formulas(lv=("k",)), sts.states(),
           st.integers(-3, 3))
    def test_preserves_meaning(self, phi, s, kval):
        interp = Interpretation({"k": kval})
        simplified = simplify_formula(phi)
        assert (sat_det(phi, s, interp, sts.QWINDOW)
                == sat_det(simplified, s, interp, sts.QWINDOW))


class TestNormalizeReal:
    def test_folds_constants_and_zeros(self):
        p = Prob(Rel("=", ProgVar("X"), IntConst(0)))
        zero, one = RatConst(Fraction(0)), RatConst(Fraction(1))
        assert normalize_real(RBin("+", zero, p)) == p
        assert normalize_real(RBin("+", p, zero)) == p
        assert normalize_real(RBin("-", p, zero)) == p
        assert normalize_real(RBin("*", one, p)) == p
        assert normalize_real(RBin("*", p, one)) == p
        assert normalize_real(RBin("*", zero, p)) == zero
        assert normalize_real(RBin("*", p, zero)) == zero
        for kept in (RBin("-", zero, p), RBin("+", one, p), RBin("-", p, one),
                     RBin("-", one, p)):
            assert normalize_real(kept) is kept
        assert normalize_real(Prob(FALSE)) == zero
        assert normalize_real(
            RBin("+", RatConst(Fraction(1, 2)), RatConst(Fraction(1, 3)))
        ) == RatConst(Fraction(5, 6))

    @given(sts.real_exprs(), sts.subdists())
    def test_preserves_value(self, r, mu):
        from phl.assertions import eval_real
        assert eval_real(normalize_real(r), mu, qwindow=sts.QWINDOW) \
            == eval_real(r, mu, qwindow=sts.QWINDOW)
