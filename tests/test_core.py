"""Core types: exact rationals, stores, sub-distributions, substitution,
simplification."""

import ast
import copy
import gc
import importlib
import inspect
import pickle
import re
import sys
import weakref
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from phl import core
from phl.core import (
    ABin, And, Assign, BoolLit, DistSpec, FALSE, Forall, If, Implies, IntConst,
    Interpretation, LogVar, Node, Not, Or, PAnd, PFALSE, PImplies, PNot, POr,
    PTRUE, Prob, ProgVar, RandAssign, RatConst, RBin, RealVar, Rel, Seq, Skip,
    State, SubDistribution, TRUE, UnboundVariable, While,
    and_all, assigned_vars, log_vars, normalize_real,
    parse_fraction, point_dist,
    prog_vars, real_vars, simplify_formula, subst_prog_var,
)
from phl.assertions import StateWindow
from phl.parser import (
    parse_arith, parse_command, parse_det_formula, parse_prob_formula,
    parse_real_expr,
)
from phl.preterm import pt
from phl.proofsys import (
    build_wp_derivation, check_derivation, conseq_over, derivation_from_json,
)
from phl.semantics import sat_det
from phl.wp import wp

import strategies as sts
from reference import (
    _free_vars, assign_error, dataclass_repr, dist_spec_by_fractions, guard_error,
    map_generic, node_size_walk, subdist_form,
)


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
            assert parse_fraction(str(q)) == q


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

    def test_integer_weights_become_fractions(self):
        d = DistSpec.make([(0, 9), (1, 2)])
        assert d.pairs == ((Fraction(1), 2),) and type(d.pairs[0][0]) is Fraction

    def test_weights_merging_to_zero_drop_their_value(self):
        d = DistSpec.make([(Fraction(1, 2), 3), (Fraction(1, 4), 5),
                           (Fraction(1, 2), 7), (Fraction(-1, 4), 5)])
        assert d.pairs == ((Fraction(1, 2), 3), (Fraction(1, 2), 7))

    @given(st.lists(st.tuples(st.one_of(st.integers(-1, 1),
                                        st.fractions(-1, 2, max_denominator=12)),
                              st.integers(0, 3)), max_size=5),
           st.booleans())
    def test_make_checks_as_fraction_sums(self, pairs, complete):
        """Merging and checking in integers gives what summing `Fraction`s
        gives: the same spec, or the same error."""
        if complete:  # a last weight that brings the sum to 1
            pairs.append((1 - sum((w for w, _ in pairs), Fraction(0)), 4))

        def outcome(build):
            try:
                return build(pairs)
            except ValueError as err:
                return str(err)

        got = outcome(lambda ps: (lambda d: (d.pairs, d.den, d.scaled))(DistSpec.make(ps)))
        assert got == outcome(dist_spec_by_fractions)
        if not isinstance(got, str):
            assert all(type(w) is Fraction for w, _ in got[0])


# entry lists with repeated states, zero and negative weights, and integer
# and mixed-denominator weights; many exceed mass 1
_ENTRY_LISTS = st.lists(st.tuples(
    st.sampled_from([State.make({"X": x}) for x in (0, 1, 2)] + [State.make({})]),
    st.one_of(st.integers(-1, 1),
              st.fractions(Fraction(-1, 8), Fraction(1, 2), max_denominator=36))),
    max_size=6)


class TestSubDistribution:
    @given(_ENTRY_LISTS)
    def test_one_pass_form_is_the_incremental_one(self, entries):
        """Summing each state's weights and taking one lcm of the reduced
        denominators gives the incrementally built form: the same
        numerators in the same key order over the same denominator, or
        the same rejection."""
        try:
            nums, den = subdist_form(entries)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                SubDistribution(entries)
            assert str(got.value) == str(exc)
            return
        mu = SubDistribution(entries)
        assert list(mu.nums.items()) == list(nums.items()) and mu.den == den
        assert all(type(n) is int for n in mu.nums.values())

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
        assert assigned_vars(c) == {"Y", "Z"}
        r = parse_real_expr("@eps * P(forall k. X < k && k < j)")
        assert prog_vars(r) == {"X"}
        assert log_vars(r) == {"j"}
        assert real_vars(r) == {"eps"}

    @given(st.one_of(sts.ANY_TERM, sts.quantified_formulas(), sts.commands(loops=True),
                     sts.open_real_exprs(), sts.prob_formulas(free=True)))
    def test_scan_matches_walk(self, n):
        assert prog_vars(n) == _free_vars(n, ProgVar)
        assert log_vars(n) == _free_vars(n, LogVar)
        assert real_vars(n) == _free_vars(n, RealVar)
        assert core.node_size(n) == node_size_walk(n)

    @pytest.mark.parametrize("text, free", [
        ("(forall k. k = 0) && k = 1", {"k"}),
        ("forall k. (forall k. k = j) && k < 0", {"j"}),
        ("forall k. forall k. k = 0", set()),
    ], ids=["bound-and-free", "shadowed", "shadowed-closed"])
    def test_forall_binds(self, text, free):
        f = parse_det_formula(text)
        assert log_vars(f) == _free_vars(f, LogVar) == free

    def test_unread_targets(self):
        c = parse_command("Z := 1; W :=$ {1/2:0, 1/2:1}")
        assert prog_vars(c) == _free_vars(c, ProgVar) == {"Z", "W"}

    @given(sts.commands(loops=True))
    def test_assigned_vars_are_the_targets(self, c):
        assert assigned_vars(c) == {n.var for n in core._nodes(c)
                                    if type(n) is Assign or type(n) is RandAssign}

    def test_assigned_vars_scan_shared_commands_once(self):
        c = Assign("X", ProgVar("Y"))
        for _ in range(200):  # 2^200 paths, 201 distinct nodes
            c = Seq(c, c)
        assert assigned_vars(c) == {"X"}


def construction_error(build) -> Optional[str]:
    """The text of the ValueError build() raises, or None."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


class TestConstructionChecks:
    """Guards and assignment right-hand sides are checked as the
    per-sort walks check them, to the same error text."""

    @pytest.mark.parametrize("text, bad", [
        ("!(X = k)", True),
        ("X = 0 && !(k < 1)", True),
        ("!(forall k. X < k)", True),
        ("X = 0 && !!(forall j. Y = 1)", True),
        ("!(X = 0) && forall k. k = k", True),
        ("!!(X = 0) && !(Y < 1)", False),
    ])
    def test_guards(self, text, bad):
        g = parse_det_formula(text)
        expected = guard_error(g)
        assert (expected is not None) == bad
        assert construction_error(lambda: If(g, Skip(), Skip())) == expected
        assert construction_error(lambda: While(g, Skip())) == expected

    @given(st.one_of(sts.det_formulas(lv=("k",)), sts.quantified_formulas()))
    def test_any_guard(self, g):
        expected = guard_error(g)
        assert construction_error(lambda: If(g, Skip(), Skip())) == expected
        assert construction_error(lambda: While(g, Skip())) == expected

    def test_right_hand_side_names_sorted(self):
        e = parse_arith("k * X + j - (m + k) * j")
        assert assign_error(e) == ("assignment right-hand side uses logical "
                                   "variables ['j', 'k', 'm']")
        assert construction_error(lambda: Assign("X", e)) == assign_error(e)

    @given(sts.aexprs(lv=("j", "k")))
    def test_any_right_hand_side(self, e):
        assert construction_error(lambda: Assign("X", e)) == assign_error(e)


class TestDepth:
    """Terms thousands of levels deep: a `;` chain, a `P` sum, a guard and
    a right-hand side.  None of them is printed, since `str` still takes a
    frame per level."""

    @pytest.fixture(autouse=True)
    def default_recursion_limit(self):
        assert sys.getrecursionlimit() == 1000

    def test_long_chain_variables_and_size(self):
        c = parse_command("; ".join(["X := Y", "Y := X"] * 5000))
        assert prog_vars(c) == assigned_vars(c) == {"X", "Y"}
        assert core.node_size(c) == 10003

    def test_wp_of_a_chain_without_a_window(self):
        c = parse_command("; ".join(["X := Y", "Y := X"] * 300))
        assert wp(c, parse_det_formula("X = 1"))[0] is parse_det_formula("Y = 1")

    def test_real_vars_of_a_long_sum(self):
        r = parse_real_expr(" + ".join(f"P(X = {i})" for i in range(3000)) + " + @e")
        assert real_vars(r) == {"e"}

    def test_deep_guard_builds(self):
        g = parse_det_formula("!" * 3000 + "(X = 0)")
        assert While(g, Skip()).guard is g

    def test_deep_right_hand_side_is_checked(self):
        e = parse_arith(" + ".join(["X"] * 3000 + ["k"]))
        with pytest.raises(ValueError, match=re.escape("logical variables ['k']")):
            Assign("X", e)


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
        # the generated constructor keys on the type as pickle rebuilds it
        for n in (IntConst(True), BoolLit(True), RatConst(Fraction(1))):
            assert pickle.loads(pickle.dumps(n)) is n

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

    @pytest.mark.parametrize("build, name", [
        (lambda: ABin("+", ProgVar("X")), "ABin"),
        (lambda: Skip(1), "Skip"),
    ], ids=["missing-field", "extra-field"])
    def test_wrong_arity_names_the_class(self, build, name):
        children = (ProgVar("X"), Skip())
        size = len(core._TABLE)
        for _ in range(2):
            with pytest.raises(TypeError, match=rf"\b{name}\b"):
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


# one node of every class `_node` declares
NODE_SAMPLES = [
    IntConst(1), ProgVar("X"), LogVar("k"), ABin("+", ProgVar("X"), IntConst(1)),
    BoolLit(True), Rel("<", ProgVar("X"), IntConst(1)), Not(TRUE), And(TRUE, FALSE),
    Or(TRUE, FALSE), Implies(TRUE, FALSE), Forall("k", Rel("=", LogVar("k"), IntConst(0))),
    Skip(), Assign("X", IntConst(1)), RandAssign("X", DistSpec.make([(Fraction(1), 0)])),
    Seq(Skip(), Skip()), If(TRUE, Skip(), Skip()), While(FALSE, Skip()),
    RatConst(Fraction(1, 2)), RealVar("eps"), Prob(TRUE), RBin("+", RealVar("eps"), Prob(TRUE)),
    PTRUE, PNot(PTRUE), PAnd(PTRUE, PFALSE), POr(PTRUE, PFALSE), PImplies(PTRUE, PFALSE),
]


class TestNodeClasses:
    def test_samples_cover_every_class(self):
        declared = {c for c in vars(core).values()
                    if isinstance(c, type) and issubclass(c, Node) and "__new__" in vars(c)}
        assert {type(n) for n in NODE_SAMPLES} == declared
        assert len(NODE_SAMPLES) == len(declared)

    @pytest.mark.parametrize("n", NODE_SAMPLES, ids=lambda n: type(n).__name__)
    def test_fields_are_immutable(self, n):
        before = [getattr(n, f) for f in n._fields]
        for f in n._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(n, f, IntConst(0))
            with pytest.raises(AttributeError):
                delattr(n, f)
        assert [getattr(n, f) for f in n._fields] == before
        assert not hasattr(n, "__dict__")

    @given(st.one_of(sts.ANY_TERM, sts.commands(loops=True), sts.prob_formulas(free=True)))
    def test_map_is_the_generic_map(self, n):
        repl = ABin("+", ProgVar("Y"), IntConst(1))
        for fn in (lambda k: k, lambda k: core._subst(k, "X", repl)):
            assert n.map(fn) is map_generic(n, fn)
        assert n.map(lambda k: k) is n

    def test_repr_is_the_class_and_its_text(self):
        assert repr(ProgVar("X")) == "ProgVar('X')"
        assert repr(Skip()) == "Skip('skip')"

    def test_repr_prints_each_distinct_node_once(self):
        term, _ = pt(parse_command(COIN), parse_real_expr("P(X = 0)"), unroll=4, depth=2,
                     window=StateWindow.make(("X", "_F0"), -2, 2))
        assert core.node_size(term) == 86
        # a frozen dataclass printed the tree: every shared node again
        assert len(dataclass_repr(term)) == 54_060
        assert len(str(term)) == 6_512
        assert repr(term) == f"{type(term).__name__}({str(term)!r})"
        assert len(repr(term)) == 6_520


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
