"""Seeded inputs for the `transform`, `check` and `prove` workloads.

The generators copy the shape of `phl.gen`'s distributions (the acceptance
suite's mix) but are the benchmark's own code, so a change to phl cannot
change a workload.  Each generator builds the tuple ASTs of `refsem` and
renders them as source text; a job hands phl only the text, and the
reference checks run on the tuples.  Nothing here imports phl.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import refsem

PV = ("X", "Y")
XY_SMALL = (PV, -2, 2)      # the acceptance suites' window
QW = (-3, 3)                 # and their quantifier window
CLI_RANGE = (-8, 8)          # phl's default --int-window and --quant-window
AOPS = ("+", "-", "*")
ROPS = ("<", "<=", "=", ">=", ">")


@dataclass
class Job:
    """One operation: texts go to phl; `ref` holds what the checks need."""

    label: str
    kind: str
    texts: tuple
    params: dict = field(default_factory=dict)
    ref: dict = field(default_factory=dict)
    known_fault: str = ""


# ---------------------------------------------------------------------------
# Concrete syntax, with the precedence table of phl's parser


_APREC = {"+": 1, "-": 1, "*": 2}


def arith_src(e, prec=0) -> str:
    tag = e[0]
    if tag == "int":
        return str(e[1])
    if tag in ("pvar", "lvar"):
        return e[1]
    p = _APREC[e[1]]
    s = f"{arith_src(e[2], p)} {e[1]} {arith_src(e[3], p + 1)}"
    return f"({s})" if p < prec else s


def formula_src(f, prec=0) -> str:
    tag = f[0]
    if tag == "bool":
        return "true" if f[1] else "false"
    if tag == "rel":
        s = f"{arith_src(f[2])} {f[1]} {arith_src(f[3])}"
        return f"({s})" if prec >= 4 else s
    if tag == "not":
        return f"!{formula_src(f[1], 4)}"
    if tag == "and":
        s = f"{formula_src(f[1], 3)} && {formula_src(f[2], 4)}"
        return f"({s})" if prec > 3 else s
    if tag == "or":
        s = f"{formula_src(f[1], 2)} || {formula_src(f[2], 3)}"
        return f"({s})" if prec > 2 else s
    if tag == "imp":
        s = f"{formula_src(f[1], 2)} -> {formula_src(f[2], 1)}"
        return f"({s})" if prec > 1 else s
    raise TypeError(f"not a formula: {f!r}")


def command_src(c, prec=0) -> str:
    tag = c[0]
    if tag == "skip":
        return "skip"
    if tag == "assign":
        return f"{c[1]} := {arith_src(c[2])}"
    if tag == "rand":
        return f"{c[1]} :=$ {{{', '.join(f'{w}:{v}' for w, v in c[2])}}}"
    if tag == "seq":
        s = f"{command_src(c[1], 1)}; {command_src(c[2], 0)}"
        return f"({s})" if prec > 0 else s
    if tag == "if":
        return (f"if {formula_src(c[1])} then {{ {command_src(c[2])} }} "
                f"else {{ {command_src(c[3])} }}")
    if tag == "while":
        return f"while {formula_src(c[1])} do {{ {command_src(c[2])} }}"
    raise TypeError(f"not a command: {c!r}")


def real_src(r, prec=0) -> str:
    tag = r[0]
    if tag == "rat":
        return str(r[1])
    if tag == "prob":
        return f"P({formula_src(r[1])})"
    p = _APREC[r[1]]
    s = f"{real_src(r[2], p)} {r[1]} {real_src(r[3], p + 1)}"
    return f"({s})" if p < prec else s


def prob_src(f, prec=0) -> str:
    tag = f[0]
    if tag == "prel":
        s = f"{real_src(f[2])} {f[1]} {real_src(f[3])}"
        return f"({s})" if prec >= 4 else s
    if tag == "pnot":
        return f"!{prob_src(f[1], 4)}"
    if tag == "pand":
        s = f"{prob_src(f[1], 3)} && {prob_src(f[2], 4)}"
        return f"({s})" if prec > 3 else s
    if tag == "por":
        s = f"{prob_src(f[1], 2)} || {prob_src(f[2], 3)}"
        return f"({s})" if prec > 2 else s
    raise TypeError(f"not a probabilistic formula: {f!r}")


def triple_src(pre, c, post, prob: bool) -> str:
    show = prob_src if prob else formula_src
    return f"{{ {show(pre)} }} {command_src(c)} {{ {show(post)} }}"


# ---------------------------------------------------------------------------
# Generators (the shapes of phl.gen)


def gen_aexp(rng, pv, depth=2):
    if depth <= 0 or rng.random() < 0.4:
        if rng.randrange(2) == 1 and pv:
            return ("pvar", rng.choice(list(pv)))
        return ("int", rng.randint(-2, 2))
    return ("bin", rng.choice(AOPS), gen_aexp(rng, pv, depth - 1), gen_aexp(rng, pv, depth - 1))


def gen_guard(rng, pv, depth=1):
    if depth <= 0 or rng.random() < 0.6:
        return ("rel", rng.choice(ROPS), gen_aexp(rng, pv, 1), gen_aexp(rng, pv, 1))
    pick = rng.randrange(3)
    if pick == 0:
        return ("not", gen_guard(rng, pv, depth - 1))
    return ("and" if pick == 1 else "or", gen_guard(rng, pv, depth - 1),
            gen_guard(rng, pv, depth - 1))


def gen_formula(rng, pv, depth=2):
    if depth <= 0 or rng.random() < 0.45:
        roll = rng.random()
        if roll < 0.05:
            return ("bool", True)
        if roll < 0.1:
            return ("bool", False)
        return ("rel", rng.choice(ROPS), gen_aexp(rng, pv, 1), gen_aexp(rng, pv, 1))
    pick = rng.randrange(4)
    if pick == 0:
        return ("not", gen_formula(rng, pv, depth - 1))
    return (("and", "or", "imp")[pick - 1], gen_formula(rng, pv, depth - 1),
            gen_formula(rng, pv, depth - 1))


def gen_dist_spec(rng, values, max_n=3) -> tuple:
    n = rng.randint(1, min(max_n, len(values)))
    chosen = rng.sample(list(values), n)
    den = rng.choice((2, 3, 4, 6, 8))
    cuts = sorted(rng.randint(1, den - 1) for _ in range(n - 1))
    bounds = [0] + cuts + [den]
    pairs = [(Fraction(bounds[i + 1] - bounds[i], den), v) for i, v in enumerate(chosen)]
    return tuple((w, v) for w, v in pairs if w > 0)


def gen_loopfree(rng, pv, depth=2, values=(-2, -1, 0, 1, 2)):
    if depth <= 0 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.15:
            return ("skip",)
        var = rng.choice(list(pv))
        if roll < 0.6:
            return ("assign", var, gen_aexp(rng, pv, 1))
        return ("rand", var, gen_dist_spec(rng, values))
    if rng.random() < 0.6:
        return ("seq", gen_loopfree(rng, pv, depth - 1, values),
                gen_loopfree(rng, pv, depth - 1, values))
    return ("if", gen_guard(rng, pv), gen_loopfree(rng, pv, depth - 1, values),
            gen_loopfree(rng, pv, depth - 1, values))


def gen_safe_loop(rng, pv, lo=-2, hi=2):
    """A loop that terminates from every store in [lo, hi] and stays there.

    Unlike phl.gen, a random side effect draws at most two values: a
    three-valued draw inside a counting loop costs up to seconds, and one
    such draw more or less would swing a workload's total time by seed.
    The fixed stress cases carry that shape instead."""
    counter = rng.choice(list(pv))
    others = [v for v in pv if v != counter]
    values = list(range(lo, hi + 1))

    def side_effect():
        if not others or rng.random() < 0.4:
            return ("skip",)
        var = rng.choice(others)
        if rng.random() < 0.5:
            return ("assign", var, ("int", rng.choice(values)))
        return ("rand", var, gen_dist_spec(rng, values, max_n=2))

    template = rng.randrange(3)
    x = ("pvar", counter)
    if template == 0:
        guard = ("rel", ">", x, ("int", rng.randint(lo, hi - 1)))
        step = ("assign", counter, ("bin", "-", x, ("int", 1)))
    elif template == 1:
        guard = ("rel", "<", x, ("int", rng.randint(lo + 1, hi)))
        step = ("assign", counter, ("bin", "+", x, ("int", 1)))
    else:
        stay = rng.choice(values)
        guard = ("rel", "=", x, ("int", stay))
        step = ("rand", counter, gen_dist_spec(rng, [v for v in values if v != stay]))
    se = side_effect()
    return ("while", guard, step if se == ("skip",) else ("seq", step, se))


def gen_command(rng, i: int, pv=PV):
    """The acceptance mix: every third program a safe loop, the others
    loop-free of depth 0..3."""
    if i % 3 == 2:
        return gen_safe_loop(rng, pv)
    return gen_loopfree(rng, pv, rng.randint(0, 3))


def gen_real_expr(rng, pv, depth=2):
    if depth <= 0 or rng.random() < 0.5:
        if rng.random() < 0.35:
            return ("rat", Fraction(rng.randint(-2, 4), rng.choice((1, 2, 3, 4))))
        return ("prob", gen_formula(rng, pv, 1))
    return ("rbin", rng.choice(AOPS), gen_real_expr(rng, pv, depth - 1),
            gen_real_expr(rng, pv, depth - 1))


def gen_prob_formula(rng, pv, depth=1):
    if depth <= 0 or rng.random() < 0.6:
        return ("prel", rng.choice(ROPS), gen_real_expr(rng, pv, rng.randint(0, 2)),
                gen_real_expr(rng, pv, rng.randint(0, 1)))
    pick = rng.randrange(3)
    if pick == 0:
        return ("pnot", gen_prob_formula(rng, pv, depth - 1))
    return ("pand" if pick == 1 else "por", gen_prob_formula(rng, pv, depth - 1),
            gen_prob_formula(rng, pv, depth - 1))


def gen_subdist(rng, states, max_support=3) -> dict:
    k = rng.randint(1, min(max_support, len(states)))
    support = rng.sample(list(states), k)
    den = rng.choice((2, 3, 4, 6, 8, 12))
    out = {}
    budget = den
    for s in support:
        top = max(1, budget // 2) if s is not support[-1] else budget
        n = rng.randint(1, max(1, top))
        budget -= n
        out[s] = Fraction(n, den)
        if budget <= 0:
            break
    return out


def family_members(bounds, seed: int, mixtures: int = 32) -> list:
    """The shape of phl's DistFamily.build: every point, zero, a half-mass
    point and seeded mixtures.  Used only to balance generated verdicts; the
    checks run on the family phl actually built."""
    states = refsem.window_states(bounds)
    members = [(f"point{s}", {s: Fraction(1)}) for s in states]
    members.append(("zero", {}))
    members.append(("half", {states[0]: Fraction(1, 2)}))
    rng = random.Random(seed)
    for i in range(mixtures):
        k = rng.randint(1, min(4, len(states)))
        support = rng.sample(states, k)
        den = rng.randint(max(k, 2), 64)
        members.append((f"mix{i}", {s: Fraction(rng.randint(1, max(1, den // k)), den)
                                    for s in support}))
    return members


def bounds_of(window) -> list:
    names, lo, hi = window
    return [(n, lo, hi) for n in sorted(names)]


def subst_arith(e, name, repl):
    if e[0] == "pvar":
        return repl if e[1] == name else e
    if e[0] == "bin":
        return ("bin", e[1], subst_arith(e[2], name, repl), subst_arith(e[3], name, repl))
    return e


def subst(f, name, repl):
    """f[name/repl] on a quantifier-free formula."""
    tag = f[0]
    if tag == "rel":
        return ("rel", f[1], subst_arith(f[2], name, repl), subst_arith(f[3], name, repl))
    if tag == "not":
        return ("not", subst(f[1], name, repl))
    if tag in ("and", "or", "imp"):
        return (tag, subst(f[1], name, repl), subst(f[2], name, repl))
    return f


def and_all(fs):
    """Left-folded conjunction, as phl's PAS schema builds it."""
    out = None
    for f in fs:
        out = f if out is None else ("and", out, f)
    return ("bool", True) if out is None else out


def or_all(fs):
    out = None
    for f in fs:
        out = f if out is None else ("or", out, f)
    return ("bool", False) if out is None else out


def point_formula(s) -> tuple:
    return and_all(("rel", "=", ("pvar", n), ("int", v)) for n, v in s)


# ---------------------------------------------------------------------------
# Fixed cases: README examples, acceptance cases and stress cases

GEOMETRIC = "while X = 0 do { X :=$ {1/2:0, 1/2:1}; Y := Y + 1 }"
COIN = "while X > 0 do { X := X - 1 [1/2] skip }"
WALK = "N := 64; while N > 0 do { X := X + 1 [1/2] X := X - 1; N := N - 1 }"
DIVERGE = "while true do { skip }"
CSTAR = ("X :=$ {1/3:0, 2/3:1}; "
         "if X = 0 then { while true do { skip } } else { skip }")

DIVERGE_DERIV = {
    "rule": "CONS",
    "conclusion": "{ true } while true do { skip } { P(true) = 0 }",
    "premises": [{"rule": "WHILE",
                  "conclusion": "{ 0 = 0 } while true do { skip } { P(true) = 0 }"}],
}


def cstar_deriv(root_post="P(true) <= 2/3", pas_pre="2/3 * P(true) <= 2/3") -> dict:
    return {
        "rule": "CONS",
        "conclusion": "{ true } %s { %s }" % (CSTAR, root_post),
        "premises": [{
            "rule": "SEQ",
            "conclusion": "{ 2/3 * P(true) <= 2/3 } %s { P(true) <= 2/3 }" % CSTAR,
            "premises": [
                {"rule": "PAS",
                 "conclusion": "{ %s } X :=$ {1/3:0, 2/3:1} { P(!(X = 0)) <= 2/3 }" % pas_pre},
                {"rule": "IF",
                 "conclusion": "{ P(!(X = 0)) <= 2/3 } if X = 0 then "
                               "{ while true do { skip } } else { skip } "
                               "{ P(true) <= 2/3 }"},
            ],
        }],
    }


def pas_program(n: int) -> str:
    body = ", ".join(f"1/{n}:{i}" for i in range(n))
    return f"X :=$ {{{body}}}; Y := X + Y"


def cli(names) -> dict:
    """phl's CLI defaults: the -8..8 window over the named variables."""
    return {"window": (tuple(sorted(names)), *CLI_RANGE), "qwindow": CLI_RANGE}


# ---------------------------------------------------------------------------
# Workloads
#
# The shapes of the generated jobs (programs, formulas, derivation trees) are
# one fixed draw from the generators above, the pool.  `--seed` varies every
# job without changing what it costs: X and Y may swap names (the windows
# treat them alike), random assignments draw new weights on the same values,
# and the families and the checks' test distributions are reseeded.  The job
# order stays fixed.  A fresh draw per seed would change the workload
# itself: a few-percent-rare shape decides the summed time and the tail, and
# one draw more or less of it moved job_tail_s by 45-81 ms between seeds.


class Variation:
    """The seeded, cost-neutral change of one pool job."""

    def __init__(self, rng):
        self.rng = rng
        self.names = {"X": "Y", "Y": "X"} if rng.random() < 0.5 else {}
        self._drawn: dict = {}

    def __call__(self, n):
        tag = n[0]
        if tag == "pvar":
            return ("pvar", self.names.get(n[1], n[1]))
        if tag == "assign":
            return ("assign", self.names.get(n[1], n[1]), self(n[2]))
        if tag == "rand":
            # a command shared by several derivation nodes gets one draw
            got = self._drawn.get(id(n))
            if got is None:
                got = self._drawn[id(n)] = (n, ("rand", self.names.get(n[1], n[1]),
                                                reweigh(self.rng, n[2])))
            return got[1]
        return (tag, *(self(x) if isinstance(x, tuple) else x for x in n[1:]))

    def tree(self, node):
        rule, pre, c, post, premises = node
        return (rule, self(pre), self(c), self(post), tuple(self.tree(p) for p in premises))

    def state(self, s):
        return tuple(sorted((self.names.get(k, k), v) for k, v in s))


def reweigh(rng, pairs) -> tuple:
    """New positive weights, summing to 1, on the same values."""
    n = len(pairs)
    den = rng.choice((4, 6, 8)) if n > 1 else 1
    cuts = sorted(rng.sample(range(1, den), n - 1))
    bounds = [0] + cuts + [den]
    return tuple((Fraction(bounds[k + 1] - bounds[k], den), v)
                 for k, (_, v) in enumerate(pairs))


def rngs(workload: str, seed: int):
    return random.Random(f"{workload}:pool"), random.Random(f"{workload}:{seed}")


def transform_jobs(seed: int) -> list[Job]:
    pool, rng = rngs("transform", seed)
    jobs = [
        Job("readme-wp", "wp", ("while X = 0 do { X := 1 }", "X = 1"), cli("X")),
        Job("readme-pt", "pt", (DIVERGE, "P(true)"), cli(())),
        Job("readme-wpp", "wpp", ("X := X + 1", "P(X = 2) <= 1/2"), cli("X")),
        Job("readme-lib-pt", "pt", ("while X = 0 do { X :=$ {1/2:0, 1/2:1} }", "P(true)"),
            {"window": None}),
        Job("readme-lib-wp", "wp", ("while X = 0 do { X :=$ {1/2:0, 1/2:1} }", "X = 1"),
            {"window": None}),
        Job("stress-countdown", "pt",
            ("while X > 0 do { X := X - 1; Y := Y + X }", "P(Y >= 2)"), {"window": None}),
        Job("stress-pas8", "pt", (pas_program(8), "P(Y >= 2)"), {"window": None}),
        Job("stress-pas13", "pt", (pas_program(13), "P(Y >= 2)"), {"window": None}),
        Job("stress-coin", "pt", (COIN, "P(X = 0)"),
            {"window": None, "unroll": 6, "depth": 3}),
        Job("fault-pas10", "pt", (pas_program(10), "P(Y >= 2)"), {"window": None},
            known_fault="the subset-sum PAS preterm for 10 values raises RecursionError"),
    ]
    gen = {"window": XY_SMALL, "qwindow": QW}
    show = {"pt": real_src, "wp": formula_src, "wpp": prob_src}
    for i in range(200):
        kind = ("pt", "wp", "wpp")[i % 3]
        c = gen_command(pool, i // 3)
        if kind == "pt":
            a = gen_real_expr(pool, PV, pool.randint(0, 2))
        elif kind == "wp":
            a = gen_formula(pool, PV, pool.randint(0, 3))
        else:
            a = gen_prob_formula(pool, PV)
        vary = Variation(rng)
        c, a = vary(c), vary(a)
        jobs.append(Job(f"{kind}-{i}", kind, (command_src(c), show[kind](a)), dict(gen),
                        {"c": c, "a": a}))
    return jobs


def check_jobs(seed: int) -> list[Job]:
    pool, rng = rngs("check", seed)
    jobs = [
        Job("readme-check", "check_det", ("{ X >= 0 } X := X + 1 { X >= 1 }",),
            dict(cli("X"), loop_bound=64)),
        Job("acceptance-diverge", "check_prob", ("{ true } %s { P(true) = 0 }" % DIVERGE,),
            {"family": (("X",), -8, 8, 0), "qwindow": CLI_RANGE, "loop_bound": 64}),
        Job("acceptance-cstar", "check_prob", ("{ true } %s { P(true) <= 2/3 }" % CSTAR,),
            {"family": (("X",), -8, 8, 0), "qwindow": CLI_RANGE, "loop_bound": 64}),
        Job("readme-run-geometric", "run", (GEOMETRIC, "X=0, Y=0"), {"loop_bound": 20}),
        Job("walk-64", "run", (WALK, "X=0"), {"loop_bound": 64}),
        Job("fault-coin-check", "check_prob",
            ("{ P(X >= 0) = 1 } %s { P(X = 0) = 1 }" % COIN,),
            {"family": (("X", "_F0"), 0, 8, 0), "qwindow": CLI_RANGE, "loop_bound": 64},
            known_fault="the almost surely terminating loop is reported failing "
                        "because loop truncation leaves residual mass 2^-64"),
    ]
    det_windows = [(PV, -2, 2), (PV, -3, 3)]
    for i in range(150):
        window = det_windows[i % 2]
        vary = Variation(rng)
        pre, c, post = (vary(x) for x in det_triple(pool, i, window, want_valid=i % 4 < 2))
        jobs.append(Job(f"det-{i}", "check_det", (triple_src(pre, c, post, False),),
                        {"window": window, "qwindow": QW, "loop_bound": 64},
                        {"pre": pre, "c": c, "post": post}))
    fam_keys = [(PV, -2, 2, seed * 4 + k) for k in range(4)]
    families = {key: family_members(bounds_of(key[:3]), key[3]) for key in fam_keys}
    points = family_members(bounds_of(XY_SMALL), 0, mixtures=0)
    for i in range(150):
        key = fam_keys[i % 4]
        pre, c, post = prob_triple(pool, Variation(rng), i, points, families[key],
                                   want_valid=i % 4 < 2)
        jobs.append(Job(f"prob-{i}", "check_prob", (triple_src(pre, c, post, True),),
                        {"family": key, "qwindow": QW, "loop_bound": 64},
                        {"pre": pre, "c": c, "post": post}))
    states = refsem.window_states(bounds_of(XY_SMALL))
    for i in range(95):
        c, s = gen_command(pool, i), pool.choice(states)
        vary = Variation(rng)
        c, s = vary(c), vary.state(s)
        text = ", ".join(f"{n}={v}" for n, v in s)
        jobs.append(Job(f"run-{i}", "run", (command_src(c), text), {"loop_bound": 64},
                        {"c": c, "state": s}))
    return jobs


def det_triple(rng, i: int, window, want_valid: bool):
    """A deterministic triple whose reference verdict is `want_valid`."""
    ev = refsem.Evaluator(QW)
    states = refsem.window_states(bounds_of(window))
    while True:
        c = gen_command(rng, i)
        pre = gen_formula(rng, PV, rng.randint(0, 2))
        starts = [s for s in states if ev.sat(pre, s)]
        if not starts:
            continue
        outputs = sorted({t for s in starts for t in ev.run_point(c, s)})
        if not outputs:
            continue
        for _ in range(20):
            post = gen_formula(rng, PV, rng.randint(0, 2))
            if all(ev.sat(post, t) for t in outputs) == want_valid:
                return pre, c, post
        if want_valid:
            return pre, c, or_all(point_formula(t) for t in outputs)


def prob_triple(pool, vary, i: int, points, members, want_valid: bool):
    """A probabilistic triple { pre } c { P(phi) op q } with q at (valid) or
    just past (invalid) the extreme value over the pre-satisfying members.
    The pool fixes pre, c, phi and op, with pre true on some point
    distribution; q follows the seeded family and weights."""
    ev = refsem.Evaluator(QW)
    while True:
        c = gen_command(pool, i)
        pre = ("prel", pool.choice(ROPS[1:4]), gen_real_expr(pool, PV, pool.randint(0, 1)),
               ("rat", Fraction(pool.randint(0, 4), 4)))
        if any(ev.sat_prob(pre, d) for _, d in points):
            break
    phi = gen_formula(pool, PV, pool.randint(0, 2))
    op = pool.choice((">=", "<="))
    c, pre, phi = vary(c), vary(pre), vary(phi)
    values = sorted({ev.real(("prob", phi), ev.run(c, d))
                     for _, d in members if ev.sat_prob(pre, d)})
    if op == "<=":
        values = [-v for v in values]
    if want_valid:
        q = values[0]
    elif len(values) > 1:
        q = (values[0] + values[1]) / 2
    else:
        q = values[0] + Fraction(1, 8)
    return pre, c, ("prel", op, ("prob", phi), ("rat", q if op == ">=" else -q))


def prove_jobs(seed: int) -> list[Job]:
    pool, rng = rngs("prove", seed)
    x8_family = (("X",), -8, 8, 0)
    jobs = [
        Job("readme-diverge-deriv", "prove_json", (json.dumps(DIVERGE_DERIV),),
            {"family": ((), -8, 8, 0), "qwindow": CLI_RANGE}, {"accept": True}),
        Job("acceptance-cstar-deriv", "prove_json", (json.dumps(cstar_deriv()),),
            {"family": x8_family, "qwindow": CLI_RANGE}, {"accept": True}),
        Job("tampered-cstar-post", "prove_json",
            (json.dumps(cstar_deriv(root_post="P(true) <= 1/2")),),
            {"family": x8_family, "qwindow": CLI_RANGE}, {"accept": False}),
        Job("tampered-cstar-pas", "prove_json",
            (json.dumps(cstar_deriv(pas_pre="1/3 * P(true) <= 2/3")),),
            {"family": x8_family, "qwindow": CLI_RANGE}, {"accept": False}),
        Job("tampered-diverge-while", "prove_json",
            (json.dumps({**DIVERGE_DERIV, "premises": [
                {"rule": "WHILE",
                 "conclusion": "{ 1 = 0 } while true do { skip } { P(true) = 0 }"}]}),),
            {"family": ((), -8, 8, 0), "qwindow": CLI_RANGE}, {"accept": False}),
        Job("fault-while-deriv", "prove_wp",
            ("while X = 0 do { X :=$ {1/2:0, 1/2:1} }", "P(X = 1) < 1", None),
            {"window": (("X",), -8, 8), "family": x8_family, "qwindow": CLI_RANGE,
             "unroll": 6, "depth": 4},
            known_fault="the WHILE axiom accepts a non-exhaustive preterm, so an "
                        "invalid triple is accepted"),
    ]
    fam_keys = [(PV, -2, 2, seed * 4 + k) for k in range(4)]
    for i in range(40):
        c, post = gen_command(pool, i), gen_prob_formula(pool, PV)
        extra = gen_prob_formula(pool, PV, 0) if i % 3 == 0 else None
        vary = Variation(rng)
        c, post, extra = vary(c), vary(post), extra and vary(extra)
        texts = (command_src(c), prob_src(post), extra and prob_src(extra))
        jobs.append(Job(f"wpderiv-{i}", "prove_wp", texts,
                        {"window": XY_SMALL, "family": fam_keys[i % 4], "qwindow": QW},
                        {"c": c, "post": post, "extra": extra, "accept": True}))
    for i in range(60):
        node = det_derivation(pool)
        tampered = i % 5 == 4
        if tampered:
            node = tamper(pool, node)
        node = Variation(rng).tree(node)
        jobs.append(Job(f"{'tampered' if tampered else 'schema'}-{i}", "prove_json",
                        (json.dumps(node_json(node)),),
                        {"window": (PV, *CLI_RANGE), "qwindow": CLI_RANGE},
                        {"pre": node[1], "c": node[2], "post": node[3],
                         "accept": not tampered}))
    return jobs


# -- deterministic derivations built from the rule schemas
# a node is (rule, pre, command, post, premises)


def det_derivation(rng):
    roll = rng.random()
    if roll < 0.2:
        return while_derivation(rng)
    c = gen_loopfree(rng, PV, rng.randint(1, 3))
    if roll < 0.35:
        rule = rng.choice(("and", "or"))
        d1 = derive(c, gen_formula(rng, PV, 1))
        d2 = derive(c, gen_formula(rng, PV, 1))
        node = (rule.upper(), (rule, d1[1], d2[1]), c, (rule, d1[3], d2[3]), (d1, d2))
    else:
        node = derive(c, gen_formula(rng, PV, rng.randint(0, 2)))
    if rng.random() < 0.3:
        node = cons(node, ("and", node[1], gen_formula(rng, PV, 1)),
                    ("or", node[3], gen_formula(rng, PV, 1)))
    return node


def cons(node, pre, post):
    return ("CONS", pre, node[2], post, (node,))


def derive(c, post):
    """The schema derivation of { wp } c { post } for a loop-free c."""
    tag = c[0]
    if tag == "skip":
        return ("SKIP", post, c, post, ())
    if tag == "assign":
        return ("AS", subst(post, c[1], c[2]), c, post, ())
    if tag == "rand":
        return ("PAS", and_all(subst(post, c[1], ("int", v)) for _, v in c[2]), c, post, ())
    if tag == "seq":
        d2 = derive(c[2], post)
        d1 = derive(c[1], d2[1])
        return ("SEQ", d1[1], c, post, (d1, d2))
    if tag == "if":
        g = c[1]
        d1, d2 = derive(c[2], post), derive(c[3], post)
        pre = ("and", ("imp", g, d1[1]), ("imp", ("not", g), d2[1]))
        return ("IF", pre, c, post, (cons(d1, ("and", pre, g), post),
                                     cons(d2, ("and", pre, ("not", g)), post)))
    raise TypeError(f"not a loop-free command: {c!r}")


def while_derivation(rng):
    """{ inv } while X > b do body { inv && !(X > b) } with inv = X >= b && psi(Y),
    psi chosen so that the body premise's CONS implication is valid."""
    ev = refsem.Evaluator(CLI_RANGE)
    states = refsem.window_states([(n, *CLI_RANGE) for n in PV])
    x = ("pvar", "X")
    b = rng.randint(-3, 2)
    guard = ("rel", ">", x, ("int", b))
    body = ("assign", "X", ("bin", "-", x, ("int", 1)))
    if rng.random() < 0.5:
        body = ("seq", body, ("assign", "Y", ("int", rng.randint(-2, 2))))
    for _ in range(20):
        inv = ("and", ("rel", ">=", x, ("int", b)), gen_formula(rng, ("Y",), 1))
        inner = derive(body, inv)
        entry = ("and", inv, guard)
        if all(ev.sat(inner[1], s) for s in states if ev.sat(entry, s)):
            break
    else:
        inv = ("rel", ">=", x, ("int", b))
        inner = derive(body, inv)
    loop = ("while", guard, body)
    node = ("WHILE", inv, loop, ("and", inv, ("not", guard)),
            (cons(inner, ("and", inv, guard), inv),))
    if rng.random() < 0.5:
        first = gen_loopfree(rng, PV, 1)
        d1 = derive(first, inv)
        node = ("SEQ", d1[1], ("seq", first, loop), node[3], (d1, node))
    return node


def tamper(rng, node):
    """Break one schema: rename the root rule, or negate a leaf's pre."""
    if rng.random() < 0.5:
        wrong = "AS" if node[2][0] == "skip" else "SKIP"
        return (wrong, *node[1:])
    path = []
    cur = node
    while cur[4]:
        k = rng.randrange(len(cur[4]))
        path.append(k)
        cur = cur[4][k]

    def rebuild(n, steps):
        if not steps:
            return (n[0], ("not", n[1]), n[2], n[3], n[4])
        k = steps[0]
        kids = list(n[4])
        kids[k] = rebuild(kids[k], steps[1:])
        return (*n[:4], tuple(kids))

    return rebuild(node, path)


def node_json(node) -> dict:
    rule, pre, c, post, premises = node
    out = {"rule": rule, "conclusion": triple_src(pre, c, post, False)}
    if premises:
        out["premises"] = [node_json(p) for p in premises]
    return out


WORKLOADS = {"transform": transform_jobs, "check": check_jobs, "prove": prove_jobs}
