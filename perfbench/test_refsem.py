"""Closed-form tests of the reference semantics (no phl involved).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest
from fractions import Fraction
from math import comb

import inputs
import refsem

X, Y, N = ("pvar", "X"), ("pvar", "Y"), ("pvar", "N")
HALF = Fraction(1, 2)


def rel(op, a, b):
    return ("rel", op, a, b)


def num(v):
    return ("int", v)


def coin(then, otherwise):
    """`then [1/2] otherwise`, desugared like phl's parser does."""
    flag = ("pvar", "_F0")
    return ("seq", ("rand", "_F0", ((HALF, 0), (HALF, 1))),
            ("if", rel("=", flag, num(0)), then, otherwise))


class ReferenceSemantics(unittest.TestCase):
    def test_geometric_loop_weights_are_powers_of_one_half(self):
        loop = ("while", rel("=", X, num(0)),
                ("seq", ("rand", "X", ((HALF, 0), (HALF, 1))),
                 ("assign", "Y", ("bin", "+", Y, num(1)))))
        out = refsem.Evaluator(bound=20).run(loop, {refsem.state(X=0, Y=0): 1})
        self.assertEqual(out, {refsem.state(X=1, Y=i): HALF ** i for i in range(1, 21)})
        self.assertEqual(1 - refsem.mass(out), HALF ** 20)

    def test_random_walk_weights_are_binomial(self):
        step = coin(("assign", "X", ("bin", "+", X, num(1))),
                    ("assign", "X", ("bin", "-", X, num(1))))
        walk = ("seq", ("assign", "N", num(64)),
                ("while", rel(">", N, num(0)),
                 ("seq", step, ("assign", "N", ("bin", "-", N, num(1))))))
        out = refsem.Evaluator().run(walk, {refsem.state(X=0): 1})
        self.assertEqual(len(out), 128)
        by_x = {}
        for s, p in out.items():
            by_x[dict(s)["X"]] = by_x.get(dict(s)["X"], 0) + p
        self.assertEqual(by_x, {2 * k - 64: Fraction(comb(64, k), 2 ** 64)
                                for k in range(65)})

    def test_divergent_loop_outputs_the_zero_distribution(self):
        loop = ("while", ("bool", True), ("skip",))
        mu = {refsem.state(X=3): Fraction(1, 3), refsem.state(X=-1): Fraction(1, 2)}
        self.assertEqual(refsem.Evaluator().run(loop, mu), {})
        self.assertEqual(refsem.Evaluator(bound=64).run(loop, mu), {})

    def test_coin_countdown_terminates_exactly(self):
        loop = ("while", rel(">", X, num(0)),
                coin(("assign", "X", ("bin", "-", X, num(1))), ("skip",)))
        out = refsem.Evaluator().run(loop, {refsem.state(X=8, _F0=0): 1})
        self.assertEqual(refsem.mass(out), 1)
        self.assertTrue(all(dict(s)["X"] == 0 for s in out))
        truncated = refsem.Evaluator(bound=64).run(loop, {refsem.state(X=1, _F0=0): 1})
        self.assertEqual(refsem.mass(truncated), 1 - HALF ** 64)

    def test_real_expressions_and_triples(self):
        ev = refsem.Evaluator()
        mu = {refsem.state(X=0): Fraction(1, 3), refsem.state(X=1): Fraction(1, 2)}
        two_p = ("rbin", "*", ("rat", Fraction(2)), ("prob", rel("=", X, num(1))))
        self.assertEqual(ev.real(two_p, mu), 1)
        self.assertEqual(ev.real(("prob", ("bool", True)), mu), Fraction(5, 6))
        bump = ("assign", "X", ("bin", "+", X, num(1)))
        states = refsem.window_states([("X", -2, 2)])
        self.assertIsNone(refsem.check_det(ev, rel(">=", X, num(0)), bump,
                                           rel(">=", X, num(1)), states))
        self.assertEqual(refsem.check_det(ev, ("bool", True), bump, rel(">=", X, num(0)),
                                          states), refsem.state(X=-2))

    def test_rendered_sources_keep_the_tree_shape(self):
        c = ("seq", ("seq", ("assign", "X", ("bin", "-", X, ("bin", "-", Y, num(-2)))),
                     ("skip",)), ("rand", "Y", ((Fraction(1, 3), -1), (Fraction(2, 3), 2))))
        self.assertEqual(inputs.command_src(c),
                         "(X := X - (Y - -2); skip); Y :=$ {1/3:-1, 2/3:2}")
        f = ("imp", ("and", rel("<", X, num(0)), ("not", rel("=", Y, num(1)))),
             ("or", ("bool", False), rel(">=", ("bin", "*", X, ("bin", "+", Y, num(1))),
                                         num(2))))
        self.assertEqual(inputs.formula_src(f),
                         "X < 0 && !(Y = 1) -> false || X * (Y + 1) >= 2")


if __name__ == "__main__":
    unittest.main()
