"""Evaluator and the exact interpreter over sub-distributions."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phl import semantics
from phl.core import (
    EMPTY_INTERP, FALSE, ABin, And, Assign, BoolLit, DistSpec, Forall, Implies,
    Interpretation, IntConst, LogVar, Not, Or, ProgVar, RandAssign, Rel, State,
    SubDistribution, UnboundVariable, assigned_vars, point_dist, prog_vars,
)
from phl.parser import parse_command, parse_det_formula, parse_real_expr, parse_state
from phl.semantics import (
    eval_arith, execute, restrict, sat_det, sat_det_batch, sat_det_dist,
)

import strategies as sts
from reference import execute_fractions

HALF = Fraction(1, 2)
SRC = Path(__file__).resolve().parent.parent / "src"


def states(mu):
    return {s.as_dict(): None for s, _ in mu.items()}


class TestEvalAndSat:
    def test_eval_arith(self):
        s = parse_state("X=3, Y=-2")
        e = parse_det_formula("X * Y + 1 < 0").left
        assert eval_arith(e, s, EMPTY_INTERP) == -5

    def test_logical_var_needs_interpretation(self):
        s = parse_state("X=0")
        f = Rel("=", LogVar("k"), IntConst(0))
        assert sat_det(f, s, Interpretation({"k": 0}))
        with pytest.raises(KeyError):
            sat_det(f, s, EMPTY_INTERP)

    def test_connectives(self):
        s = parse_state("X=1")
        assert sat_det(parse_det_formula("X = 1 && !(X = 0)"), s, EMPTY_INTERP)
        assert sat_det(parse_det_formula("X = 0 -> X = 5"), s, EMPTY_INTERP)
        assert not sat_det(parse_det_formula("X = 1 -> X = 0"), s, EMPTY_INTERP)

    def test_forall_over_window(self):
        s = parse_state("X=0")
        f = parse_det_formula("forall x. x * X = 0")
        assert sat_det(f, s, EMPTY_INTERP, qwindow=(-3, 3))
        assert not sat_det(f, parse_state("X=1"), EMPTY_INTERP, qwindow=(-3, 3))

    def test_sat_dist_requires_all_support(self):
        mu = (point_dist({"X": 0}).scale(HALF)
              + point_dist({"X": 1}).scale(HALF))
        assert sat_det_dist(parse_det_formula("X >= 0"), mu, EMPTY_INTERP)
        assert not sat_det_dist(parse_det_formula("X = 0"), mu, EMPTY_INTERP)

    def test_sat_dist_vacuous_on_zero(self):
        assert sat_det_dist(FALSE, SubDistribution.zero(), EMPTY_INTERP)

    def test_sat_dist_order_is_insertion_order(self):
        # {X=0, Z=1} falsifies Z = 5 and {X=1} reads an unbound Z: the
        # answer is the first state's in insertion order, whatever the
        # string hash seed of the process
        script = (
            "from fractions import Fraction\n"
            "from phl.core import State, SubDistribution\n"
            "from phl.parser import parse_det_formula\n"
            "from phl.semantics import sat_det_dist\n"
            "mu = SubDistribution({State.make({'X': 0, 'Z': 1}): Fraction(1, 2),\n"
            "                      State.make({'X': 1}): Fraction(1, 2)})\n"
            "print(sat_det_dist(parse_det_formula('Z = 5'), mu))\n")
        for seed in range(8):
            env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed))
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=60)
            assert (seed, out.stdout, out.stderr) == (seed, "False\n", "")


def reference_sat(f, state, log, qwindow):
    """Per-state satisfaction, left to right with short-circuit connectives;
    an unbound variable raises where it is read."""
    def arith(e, log):
        if isinstance(e, IntConst):
            return e.value
        if isinstance(e, ProgVar):
            return state[e.name]
        if isinstance(e, LogVar):
            if e.name not in log:
                raise UnboundVariable(e.name)
            return log[e.name]
        assert isinstance(e, ABin)
        a, b = arith(e.left, log), arith(e.right, log)
        return {"+": a + b, "-": a - b, "*": a * b}[e.op]

    def sat(n, log):
        if isinstance(n, BoolLit):
            return n.value
        if isinstance(n, Rel):
            a, b = arith(n.left, log), arith(n.right, log)
            return {"<": a < b, "<=": a <= b, "=": a == b,
                    ">=": a >= b, ">": a > b}[n.op]
        if isinstance(n, Not):
            return not sat(n.body, log)
        if isinstance(n, And):
            return sat(n.left, log) and sat(n.right, log)
        if isinstance(n, Or):
            return sat(n.left, log) or sat(n.right, log)
        if isinstance(n, Implies):
            return not sat(n.left, log) or sat(n.right, log)
        assert isinstance(n, Forall)
        return all(sat(n.body, {**log, n.var: v})
                   for v in range(qwindow[0], qwindow[1] + 1))

    return sat(f, log)


def outcome(read):
    """A truth value, or the variable whose reading raised."""
    try:
        return bool(read())
    except UnboundVariable as exc:
        return ("unbound", exc.args[0])


class TestBatch:
    @given(sts.quantified_formulas(), st.lists(sts.partial_states(), max_size=6),
           st.dictionaries(st.sampled_from(("j", "k")), st.integers(-2, 2)))
    @settings(deadline=None, max_examples=300)
    def test_agrees_with_per_state_reference(self, f, states, log):
        qwindow = (-2, 2)
        interp = Interpretation(log)
        got = sat_det_batch(f, states, interp, qwindow)
        assert len(got) == len(states)
        for s, value in zip(states, got):
            want = outcome(lambda: reference_sat(f, s, log, qwindow))
            assert outcome(lambda: value) == want
            assert outcome(lambda: sat_det(f, s, interp, qwindow)) == want

    def test_unbound_read_follows_evaluation_order(self):
        s = parse_state("X=1")
        assert sat_det(parse_det_formula("X > 0 || Z > 0"), s)
        with pytest.raises(UnboundVariable, match="Z"):
            sat_det(parse_det_formula("Z > 0 || X > 0"), s)
        # a false left conjunct decides before the unbound right one is read
        assert not sat_det(parse_det_formula("X < 0 && Z > 0"), s)
        assert sat_det(parse_det_formula("X < 0 -> Z > 0"), s)
        with pytest.raises(UnboundVariable, match="W"):
            sat_det(parse_det_formula("W + Z > 0"), s)

    def test_unbound_raises_at_its_state_only(self):
        states = [parse_state("X=0"), parse_state("X=1, Z=5"), parse_state("X=2")]
        got = sat_det_batch(parse_det_formula("X = 0 || Z > 0"), states)
        assert got[0] is True and got[1] is True
        with pytest.raises(UnboundVariable, match="Z"):
            bool(got[2])
        # scanning in order meets the counterexample before the unbound state
        f = parse_det_formula("X = 1 || Z > 0")
        with pytest.raises(UnboundVariable, match="Z"):
            restrict(SubDistribution({s: Fraction(1, 3) for s in states}), f)
        assert not all(sat_det_batch(parse_det_formula("X = 1 && Z > 9"), states))

    def test_forall_columns(self):
        states = [parse_state(f"X={x}") for x in range(-2, 3)]
        f = parse_det_formula("forall k. k * X = 0 || k > X")
        want = [sat_det(f, s, qwindow=(-3, 3)) for s in states]
        assert sat_det_batch(f, states, qwindow=(-3, 3)) == want == [
            False, False, True, False, False]

    def test_empty_batch(self):
        assert sat_det_batch(parse_det_formula("Z > 0"), []) == []


class TestRestrict:
    def test_split(self):
        mu = (point_dist({"X": 0}).scale(HALF)
              + point_dist({"X": 1}).scale(Fraction(1, 4)))
        guard = parse_det_formula("X = 0")
        yes = restrict(mu, guard)
        no = restrict(mu, Not(guard))
        assert yes.mass == HALF and no.mass == Fraction(1, 4)
        assert yes + no == mu


class TestExecute:
    def test_skip(self):
        mu = point_dist({"X": 7})
        r = execute(parse_command("skip"), mu)
        assert r.output == mu and r.exact and r.residual_mass == 0

    def test_assign(self):
        r = execute(parse_command("X := X + 1; Y := X * 2"), point_dist({"X": 1, "Y": 0}))
        assert r.output == point_dist({"X": 2, "Y": 4})

    def test_random_assign(self):
        r = execute(parse_command("X :=$ {1/3:0, 2/3:5}"), point_dist({"X": 9}))
        assert r.output.get(State.make({"X": 0})) == Fraction(1, 3)
        assert r.output.get(State.make({"X": 5})) == Fraction(2, 3)

    def test_if(self):
        c = parse_command("X :=$ {1/2:0, 1/2:1}; if X = 0 then { Y := 10 } else { Y := 20 }")
        r = execute(c, point_dist({"X": 0, "Y": 0}))
        assert r.output.get(State.make({"X": 0, "Y": 10})) == HALF
        assert r.output.get(State.make({"X": 1, "Y": 20})) == HALF

    def test_terminating_loop(self):
        c = parse_command("while X > 0 do { X := X - 1 }")
        r = execute(c, point_dist({"X": 5}))
        assert r.output == point_dist({"X": 0})
        assert r.exact and r.iterations_used == 5

    def test_geometric_loop(self):
        # each round keeps looping with probability 1/2; stopping in round i
        # leaves Y = i, and after the bound a 2^-bound sliver remains live
        c = parse_command(
            "X := 0; Y := 0; while X = 0 do { Y := Y + 1; X :=$ {1/2:0, 1/2:1} }")
        r = execute(c, point_dist({"X": 3, "Y": 3}), loop_bound=20)
        for i in range(1, 21):
            assert r.output.get(State.make({"X": 1, "Y": i})) == HALF ** i
        assert r.residual_mass == HALF ** 20
        assert not r.exact

    def test_diverging_loop(self):
        r = execute(parse_command("while true do { skip }"),
                    point_dist({"X": 0}), loop_bound=50)
        assert r.output == SubDistribution.zero()
        assert r.residual_mass == 1 and not r.exact

    def test_partial_divergence(self):
        c = parse_command("X :=$ {1/2:0, 1/2:1}; while X = 0 do { skip }")
        r = execute(c, point_dist({"X": 5}))
        assert r.output == point_dist({"X": 1}).scale(HALF)
        assert r.residual_mass == HALF

    def test_zero_input(self):
        r = execute(parse_command("while true do { skip }"), SubDistribution.zero())
        assert r.output == SubDistribution.zero() and r.exact

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            execute(parse_command("skip"), point_dist({"X": 0}), loop_bound=-1)

    def test_unbound_variable(self):
        with pytest.raises(KeyError):
            execute(parse_command("X := Y"), point_dist({"X": 0}))

    def test_unbound_read_at_first_state_in_support_order(self):
        has_z, has_w = State.make({"Z": 1}), State.make({"W": 1})
        with pytest.raises(UnboundVariable, match="Z"):
            execute(parse_command("Y := Z"), SubDistribution({has_z: HALF, has_w: HALF}))
        c = parse_command("Y := Z + W")
        with pytest.raises(UnboundVariable, match="W"):
            execute(c, SubDistribution({has_z: HALF, has_w: HALF}))
        with pytest.raises(UnboundVariable, match="Z"):
            execute(c, SubDistribution({has_w: HALF, has_z: HALF}))

    def test_output_in_insertion_order(self):
        """Then-branch states first, each branch in the order its states
        were made."""
        c = parse_command("X :=$ {1/4:2, 1/4:0, 1/2:1}; if X = 0 then { Y := 1 } else { skip }")
        r = execute(c, point_dist({"X": 5, "Y": 0}))
        assert [s.as_dict() for s, _ in r.output.items()] == [
            {"X": 0, "Y": 1}, {"X": 2, "Y": 0}, {"X": 1, "Y": 0}]


class TestExecuteProperties:
    @given(sts.loopfree_commands(), sts.subdists())
    def test_loopfree_preserves_mass(self, c, mu):
        r = execute(c, mu)
        assert r.exact and r.output.mass == mu.mass

    @given(sts.commands(loops=True), sts.subdists())
    @settings(deadline=None)
    def test_mass_never_grows(self, c, mu):
        r = execute(c, mu, loop_bound=12)
        assert r.output.mass + r.residual_mass == mu.mass

    @given(sts.commands(loops=True), sts.subdists(), sts.subdists())
    @settings(deadline=None)
    def test_linear_in_input(self, c, mu, nu):
        # guard against mass overflow when summing two drawn inputs
        mu = mu.scale(HALF)
        nu = nu.scale(HALF)
        lhs = execute(c, mu + nu, loop_bound=12).output
        rhs = (execute(c, mu, loop_bound=12).output
               + execute(c, nu, loop_bound=12).output)
        assert lhs == rhs

    @given(sts.safe_loops(), sts.states())
    @settings(deadline=None)
    def test_safe_loops_terminate_exactly(self, c, s):
        r = execute(c, point_dist(s.as_dict()))
        assert r.exact and r.residual_mass == 0


def run_or_unbound(run):
    try:
        r = run()
    except UnboundVariable as unbound:
        return "unbound", unbound.args[0]
    return (list(r.output.items()), r.residual_mass, r.iterations_used, r.exact)


class TestIntegerWeights:
    """The interpreter keeps integer numerators over one denominator; it
    gives what one `Fraction` per state gives."""

    @given(st.one_of(sts.commands(loops=True), sts.coprime_commands()),
           st.one_of(sts.subdists(), sts.coprime_subdists()),
           st.integers(0, 6))
    @settings(deadline=None, max_examples=300)
    def test_agrees_with_fraction_interpreter(self, c, mu, loop_bound):
        assert (run_or_unbound(lambda: execute(c, mu, loop_bound))
                == run_or_unbound(lambda: execute_fractions(c, mu, loop_bound)))

    def test_coprime_loop_truncates_alike(self):
        c = parse_command("while X > 0 do { X :=$ {1/3:0, 1/5:1, 7/15:2} }")
        mu = SubDistribution({State.make({"X": 1}): Fraction(1, 7),
                              State.make({"X": 2}): Fraction(1, 5)})
        got = execute(c, mu, loop_bound=3)
        assert run_or_unbound(lambda: got) == run_or_unbound(
            lambda: execute_fractions(c, mu, loop_bound=3))
        assert not got.exact and got.iterations_used == 3

    def test_chain_reduces_to_denominator_one(self):
        c = parse_command("; ".join(["X :=$ {1/2:0, 1/2:1}; X := 0"] * 100))
        row = (0, 0)  # X = 0 in lane 0
        p = semantics.Lanes(["X"], 1, 64)
        assert semantics._run(c, {row: 1}, 1, p) == ({row: 1}, 1, 0)

    def test_weights_still_checked(self):
        s, t = State.make({"X": 0}), State.make({"X": 1})
        with pytest.raises(ValueError, match="negative probability"):
            SubDistribution({s: Fraction(1, 2), t: Fraction(-1, 3)})
        with pytest.raises(ValueError, match="exceeds 1"):
            SubDistribution({s: Fraction(2, 3), t: Fraction(2, 5)})
        mu = SubDistribution([(s, Fraction(1, 3)), (t, Fraction(0)), (s, Fraction(1, 5))])
        assert list(mu.items()) == [(s, Fraction(8, 15))] and mu.mass == Fraction(8, 15)


class TestOneWeightForm:
    """A sub-distribution holds the interpreter's own form, so one built
    from `Fraction`s and one `execute` made are equal whenever their
    weights are."""

    def test_execute_reduces_to_a_point(self):
        c = parse_command("X :=$ {1/2:0, 1/2:1}; X := 0")
        out = execute(c, point_dist({"X": 5})).output
        want = point_dist({"X": 0})
        assert out == want and hash(out) == hash(want)
        assert out.den == 1 and out.nums == {State.make({"X": 0}): 1}

    def test_execute_equals_fractions_built(self):
        c = parse_command("X :=$ {1/3:0, 2/3:1}")
        out = execute(c, SubDistribution({State.make({"X": 5}): HALF})).output
        want = SubDistribution({State.make({"X": 0}): Fraction(1, 6),
                                State.make({"X": 1}): Fraction(1, 3)})
        assert out == want and hash(out) == hash(want)
        assert out.den == 6 and list(out.items()) == list(want.items())

    def test_empty_output_equals_zero(self):
        c = parse_command("while true do { X := X + 1 }")
        res = execute(c, SubDistribution({State.make({"X": 0}): Fraction(1, 3)}), 4)
        assert res.output == SubDistribution.zero() and res.output.den == 1
        assert hash(res.output) == hash(SubDistribution())
        assert res.residual_mass == Fraction(1, 3) and not res.exact
        assert restrict(point_dist({"X": 0}), FALSE) == SubDistribution()

    @given(st.one_of(sts.commands(loops=True), sts.coprime_commands()),
           st.one_of(sts.subdists(), sts.coprime_subdists()),
           st.integers(0, 6))
    @settings(deadline=None, max_examples=100)
    def test_equal_and_hash_alike_to_fraction_interpreter(self, c, mu, loop_bound):
        try:
            got = execute(c, mu, loop_bound).output
        except UnboundVariable:
            return
        want = execute_fractions(c, mu, loop_bound).output
        assert got == want and hash(got) == hash(want)
        assert (got.nums, got.den) == (want.nums, want.den)

    def test_prob_sums_numerators(self):
        s, t = State.make({"X": 0}), State.make({"X": 1})
        dists = [point_dist(s), point_dist(t), SubDistribution.zero(),
                 SubDistribution({s: Fraction(1, 6), t: Fraction(1, 2)})]
        got = semantics.eval_batch(parse_real_expr("P(X = 0)"), dists)
        assert got == [1, 0, 0, Fraction(1, 6)]
        assert all(type(v) is Fraction for v in got)
        got = semantics.eval_batch(parse_real_expr("P(true)"), dists)
        assert got == [1, 1, 0, Fraction(2, 3)]


class TestLanes:
    """One pass over several inputs gives each lane what running its input
    alone gives: the same output, in the same order, and residual, or the
    same unbound variable."""

    @given(st.one_of(sts.commands(loops=True), sts.coprime_commands()),
           st.lists(st.one_of(sts.subdists(), sts.coprime_subdists()),
                    min_size=1, max_size=5),
           st.integers(0, 6), st.sampled_from([assigned_vars, prog_vars]))
    @settings(deadline=None, max_examples=200)
    def test_each_lane_as_run_alone(self, c, inputs, loop_bound, program_names):
        # the layout holds the inputs' variables and at least c's targets:
        # a variable c only reads is unbound in every row without a position
        names = sorted({k for mu in inputs for s in mu.nums for k in s.vars()}
                       | program_names(c))
        run = semantics.run_lanes(c, names, inputs, loop_bound)
        for lane, mu in enumerate(inputs):
            if lane in run.unbound:
                got = ("unbound", run.unbound[lane])
            else:
                got = ([(State((k, v) for k, v in zip(names, r) if v is not None),
                         Fraction(n, run.den))
                        for r, n in run.rows.items() if r[-1] == lane],
                       run.residuals[lane])
            want = run_or_unbound(lambda: execute_fractions(c, mu, loop_bound))
            assert got == (want if want[0] == "unbound" else want[:2])

    def test_bool_constants_store_integers(self):
        """A store holds integers, as `State.make` makes them: assigning
        the constant `True` stores 1."""
        for c in (Assign("X", IntConst(True)),
                  RandAssign("X", DistSpec.make([(Fraction(1), True)]))):
            (s, p), = execute(c, point_dist({"X": 0})).output.items()
            assert s.items == (("X", 1),) and type(s["X"]) is int and p == 1

    def test_lanes_do_not_merge(self):
        """Two lanes reaching the same store keep their own weights."""
        c = parse_command("X := 0")
        inputs = [point_dist({"X": 1}), SubDistribution({State.make({"X": 2}): HALF})]
        run = semantics.run_lanes(c, ["X"], inputs)
        assert run.rows == {(0, 0): 2, (0, 1): 1} and run.den == 2
        assert run.residuals == [0, 0] and not run.unbound


class TestFixedPoint:
    """A loop whose sub-distribution one more pass leaves unchanged stops
    unrolling; its output, residual, `exact` and iteration count are those
    of unrolling to the bound."""

    CASES = {
        "diverge": ("while true do { skip }", point_dist({"X": 0})),
        "stuck-guard": ("while X = 0 do { X := 0 }",
                        SubDistribution({State.make({"X": 0}): HALF,
                                         State.make({"X": 1}): Fraction(1, 3)})),
        "after-one-pass": ("while X > 0 do { Y := 1 }", point_dist({"X": 1, "Y": 0})),
        "period-2": ("while true do { X := 1 - X }", point_dist({"X": 0})),
        "nested": ("while X > 0 do { X := X - 1; while Y = 0 do { Y := 0 } }",
                   SubDistribution({State.make({"X": 2, "Y": 0}): HALF,
                                    State.make({"X": 2, "Y": 1}): HALF})),
    }

    @pytest.mark.parametrize("loop_bound", [0, 1, 2, 64])
    @pytest.mark.parametrize("case", list(CASES))
    def test_agrees_with_unrolling_to_the_bound(self, case, loop_bound):
        text, mu = self.CASES[case]
        c = parse_command(text)
        assert (run_or_unbound(lambda: execute(c, mu, loop_bound))
                == run_or_unbound(lambda: execute_fractions(c, mu, loop_bound)))

    @pytest.mark.parametrize("case, body_runs", [
        ("diverge", 1), ("stuck-guard", 2), ("after-one-pass", 2), ("period-2", 64)])
    def test_body_runs(self, monkeypatch, case, body_runs):
        text, mu = self.CASES[case]
        c = parse_command(text)
        run, runs = semantics._run, []

        def counted(cmd, *args):
            runs.append(cmd is c.body)
            return run(cmd, *args)

        monkeypatch.setattr(semantics, "_run", counted)
        res = execute(c, mu, 64)
        assert sum(runs) == body_runs
        assert res.iterations_used == 64 and not res.exact


def test_readme_library_block():
    """The README's Library example runs and gives the values its comments
    state."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    res = scope["res"]
    assert res.output.mass == Fraction(1048575, 1048576)
    assert res.residual_mass == Fraction(1, 1048576)
    assert not res.exact and res.iterations_used == 20
    assert scope["pre"] is not None and scope["term"] is not None
