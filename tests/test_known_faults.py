"""Known faults, each a test that asserts the right answer.

Every test here fails today and is a strict xfail that names the ROADMAP
item whose fix makes it pass.  When a change fixes a fault, its test
passes, `strict` turns that into a failure, and the change removes the
marker.  No test here starts a run that hangs or exhausts memory today:
each ends in well under a second.
"""

import json
from contextlib import contextmanager

import pytest

from phl import cli
from phl.assertions import DistFamily, StateWindow, check_valid_prob
from phl.core import point_dist
from phl.parser import (
    parse_command, parse_det_formula, parse_prob_formula, parse_real_expr,
    parse_triple,
)
from phl.preterm import check_triple_prob, pt
from phl.proofsys import (
    build_wp_derivation, check_derivation, derivation_from_json,
    derivation_to_json,
)
from phl.semantics import execute
from phl.wp import default_window, wp


def known_fault(item: str, reason: str, raises=AssertionError):
    return pytest.mark.xfail(strict=True, raises=raises,
                             reason=f"ROADMAP {item}: {reason}")


@contextmanager
def frames_dropped():
    """Re-raise a RecursionError from here, without the thousand frames
    below, which pytest takes seconds to format for the xfail report."""
    try:
        yield
    except RecursionError as exc:
        raise RecursionError(*exc.args) from None


X8 = StateWindow.make(("X",), -8, 8)


# ---------------------------------------------------------------------------
# Semantics: false verdicts


@known_fault("item 1", "loop truncation leaves residual mass 2^-64 on an almost "
                  "surely terminating loop")
def test_coin_countdown_triple_holds():
    t = parse_triple("{ P(X >= 0) = 1 } while X > 0 do { X := X - 1 [1/2] skip } "
                     "{ P(X = 0) = 1 }")
    family = DistFamily.build(default_window(t.pre, t.command, t.post, lo=0, hi=8), 0)
    assert check_triple_prob(t.pre, t.command, t.post, family).holds


@known_fault("items 1 and 3", "the WHILE axiom accepts a non-exhaustive preterm")
def test_while_axiom_rejects_an_invalid_triple():
    c = parse_command("while X = 0 do { X :=$ {1/2:0, 1/2:1} }")
    d = build_wp_derivation(c, parse_prob_formula("P(X = 1) < 1"), X8,
                            unroll=6, depth=4)
    verdict = check_derivation(d, X8, DistFamily.build(X8, 0), unroll=6, depth=4)
    assert not verdict.accepted


@known_fault("item 2", "the seeded family misses the counterexample")
@pytest.mark.parametrize("text", [
    "P(X = 0) = 1/3 -> P(X = 1) = 0",
    "P(X = 0) + P(X = 1) = 1 -> P(X = 0) = 0 || P(X = 1) = 0 || P(X = 0) >= 1/4",
    "P(X >= 0) >= 1/2 -> P(X >= 1) >= 1/3 || P(X = 0) >= 1/6",
])
def test_invalid_formula_is_invalid(text):
    family = DistFamily.build(X8, 0)
    assert len(family) == 51
    assert not check_valid_prob(parse_prob_formula(text), family).valid


@known_fault("item 2", "the CONS side condition is checked on the seeded family, "
                  "which misses its counterexample")
def test_unsound_cons_is_rejected():
    d = derivation_from_json({
        "rule": "CONS",
        "conclusion": "{ P(X = 0) = 1/3 } skip { P(X = 1) = 0 }",
        "premises": [{"rule": "SKIP",
                      "conclusion": "{ P(X = 1) = 0 } skip { P(X = 1) = 0 }"}]})
    assert not check_derivation(d).accepted


# ---------------------------------------------------------------------------
# Limits: window size, recursion depth, value size


@known_fault("item 4", "the default window covers the generated flags _F0-_F2")
def test_flag_variables_stay_out_of_the_window(capsys):
    """`X := e` keeps e's variables live, so `Y` stays: the window is
    {X, Y}, 289 states at the default -8..8."""
    triple = ("{ X >= 0 } " + "; ".join(["Y := Y + 1 [1/2] skip"] * 3)
              + " { X >= 0 }")
    assert cli.main(["check", "--triple", triple, "--int-window=0..1",
                     "--format", "json"]) == 0
    scope = json.loads(capsys.readouterr().out)["scope"]
    assert scope.startswith("window {X in [0, 1], Y in [0, 1]},")


CHAIN = 10_000


@known_fault("item 13", "`;` chains are walked one frame per statement",
             raises=RecursionError)
def test_long_chain_goes_through_every_walker():
    c = parse_command("; ".join(["X := Y", "Y := X"] * (CHAIN // 2)))
    window = StateWindow.make(("X", "Y"), -1, 1)
    with frames_dropped():
        assert str(c).count(";") == CHAIN - 1
        assert execute(c, point_dist({"X": 1, "Y": 2})).output == point_dist({"X": 2, "Y": 2})
        assert wp(c, parse_det_formula("X = 1"))[0] is parse_det_formula("Y = 1")
        assert pt(c, parse_real_expr("P(X = 1)"))[0] is parse_real_expr("P(Y = 1)")
        d = build_wp_derivation(c, parse_prob_formula("P(X = 1) = 1"), window)
        assert d.rule == "SEQ" and d.conclusion.pre is parse_prob_formula("P(Y = 1) = 1")
        assert check_derivation(d, window).accepted


@known_fault("item 13", "derivations are read, checked and written one frame per level",
             raises=RecursionError)
def test_deep_derivation_is_read_checked_and_written():
    """A SEQ derivation restates the rest of its chain at every level, so
    its text grows with the square of its depth; the deep derivation read
    here is a tower of CONS nodes over one SKIP axiom, and the deep SEQ
    derivation is the one the chain test above builds in memory."""
    data = {"rule": "SKIP", "conclusion": "{ X = 0 } skip { X = 0 }"}
    for _ in range(CHAIN - 1):
        data = {"rule": "CONS", "conclusion": "{ X = 0 } skip { X = 0 }",
                "premises": [data]}
    with frames_dropped():
        d = derivation_from_json(data)
        assert check_derivation(d, X8).accepted
        assert same_tower(derivation_to_json(d), data)


def same_tower(a: dict, b: dict) -> bool:
    """Equal towers of one-premise nodes, compared down the `premises[0]`
    chain: `==` on the dicts recurses in C, once per level."""
    while a.keys() == b.keys() and all(a[k] == b[k] for k in a if k != "premises"):
        if "premises" not in a:
            return True
        a, b = a["premises"][0], b["premises"][0]
    return False


@known_fault("item 5", "term walkers recurse once per nesting level",
             raises=RecursionError)
def test_long_sum_goes_through_pt_and_str():
    r = parse_real_expr(" + ".join(f"P(X = {i})" for i in range(1000)))
    with frames_dropped():
        term, _ = pt(parse_command("X := X + 1"), r)
        assert str(term) == " + ".join(f"P(X + 1 = {i})" for i in range(1000))


@known_fault("item 3", "the interpreter has no budget on value size")
def test_squaring_loop_stops_on_a_value_budget():
    """At the default bound 64 the run would need 2^64-bit values; at 20
    it ends, after all 20 squarings."""
    result = execute(parse_command("while Y > 1 do { Y := Y * Y }"),
                     point_dist({"Y": 2}), loop_bound=20)
    assert not result.exact and result.residual_mass == 1
    assert result.iterations_used < 20
