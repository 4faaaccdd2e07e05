"""Reference semantics for the benchmark's correctness checks.

Independent of `phl.semantics` and `phl.assertions`: programs, formulas and
real expressions are plain tuples (see `inputs.py` for the constructors), and
every weight is an exact `Fraction`.  `from_phl` turns the ASTs that phl
returns into the same tuples by reading their fields, keeping DAG sharing.

Loops run in one of two modes.  With a `bound`, a loop activation executes
at most `bound` bodies and drops the mass still live, as phl's interpreter
documents.  Without one the result is exact: a loop whose live states form a
small finite chain is solved as an absorbing Markov chain over Q; otherwise
it is unrolled until no mass is live, and `Inexact` is raised if that does
not happen within `EXACT_UNROLL` iterations.

States are tuples of (name, value) pairs sorted by name; distributions are
dicts from states to positive Fractions.
"""

from __future__ import annotations

import itertools
import sys
from contextlib import contextmanager
from fractions import Fraction

CHAIN_CAP = 400       # live states a loop may have for the exact chain solve
EXACT_UNROLL = 4096   # unrolling limit of the exact mode when the chain is too big

_REL = {
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b, "=": lambda a, b: a == b,
    ">=": lambda a, b: a >= b, ">": lambda a, b: a > b,
}
_ARITH = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}


class Inexact(Exception):
    """The exact mode could not settle a loop."""


@contextmanager
def deep_recursion(limit: int = 200000):
    """Terms returned by the transformers can be deep DAGs."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# ---------------------------------------------------------------------------
# Conversion from phl's ASTs (field reads only)

_FIELDS = {
    "IntConst": ("int", "value"), "ProgVar": ("pvar", "name"), "LogVar": ("lvar", "name"),
    "ABin": ("bin", "op", "left", "right"),
    "BoolLit": ("bool", "value"), "Rel": ("rel", "op", "left", "right"),
    "Not": ("not", "body"), "And": ("and", "left", "right"), "Or": ("or", "left", "right"),
    "Implies": ("imp", "left", "right"), "Forall": ("forall", "var", "body"),
    "Skip": ("skip",), "Assign": ("assign", "var", "expr"),
    "Seq": ("seq", "first", "second"),
    "If": ("if", "guard", "then_branch", "else_branch"), "While": ("while", "guard", "body"),
    "RatConst": ("rat", "value"), "RealVar": ("rvar", "name"), "Prob": ("prob", "formula"),
    "RBin": ("rbin", "op", "left", "right"),
    "PRel": ("prel", "op", "left", "right"), "PNot": ("pnot", "body"),
    "PAnd": ("pand", "left", "right"), "POr": ("por", "left", "right"),
    "PImplies": ("pimp", "left", "right"),
}


def from_phl(node, memo=None):
    """Tuple form of a phl AST node; shared subterms stay shared."""
    if memo is None:
        memo = {}
    got = memo.get(id(node))
    if got is not None:
        return got
    kind = type(node).__name__
    if kind == "RandAssign":
        out = ("rand", node.var, tuple((w, v) for w, v in node.dist.pairs))
    else:
        tag, *fields = _FIELDS[kind]
        parts = []
        for f in fields:
            value = getattr(node, f)
            parts.append(value if isinstance(value, (str, int, bool, Fraction))
                         else from_phl(value, memo))
        out = (tag, *parts)
    memo[id(node)] = out
    return out


# ---------------------------------------------------------------------------
# States and distributions


def state(**values) -> tuple:
    return tuple(sorted(values.items()))


def set_var(s: tuple, name: str, value: int) -> tuple:
    d = dict(s)
    d[name] = value
    return tuple(sorted(d.items()))


def add_into(acc: dict, s: tuple, p: Fraction) -> None:
    if p:
        acc[s] = acc.get(s, 0) + p


def mass(dist: dict) -> Fraction:
    return sum(dist.values(), Fraction(0))


def prog_vars(*nodes) -> set[str]:
    """Program variables read or assigned anywhere in the given nodes."""
    out: set[str] = set()
    seen: set[int] = set()
    stack = list(nodes)
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if n[0] == "pvar":
            out.add(n[1])
        elif n[0] in ("assign", "rand"):
            out.add(n[1])
        stack.extend(x for x in n[1:] if isinstance(x, tuple) and x and isinstance(x[0], str))
    return out


def window_states(bounds) -> list[tuple]:
    """All states of a window given as (name, lo, hi) triples."""
    names = [n for n, _, _ in bounds]
    ranges = [range(lo, hi + 1) for _, lo, hi in bounds]
    return [tuple(sorted(zip(names, vals))) for vals in itertools.product(*ranges)]


# ---------------------------------------------------------------------------
# Expressions and formulas


def eval_arith(e, s: tuple, log: dict):
    tag = e[0]
    if tag == "int":
        return e[1]
    if tag == "pvar":
        return dict(s)[e[1]]
    if tag == "lvar":
        return log[e[1]]
    return _ARITH[e[1]](eval_arith(e[2], s, log), eval_arith(e[3], s, log))


class Evaluator:
    """Formula, real-expression and program evaluation with shared memos.

    `qwindow` is the range of `forall`; `bound` selects the loop mode (see
    the module docstring).
    """

    def __init__(self, qwindow=(-8, 8), bound=None):
        self.qwindow = qwindow
        self.bound = bound
        self._sat: dict = {}
        self._point_runs: dict = {}

    def sat(self, f, s: tuple, log: dict | None = None) -> bool:
        log = log or {}
        key = (id(f), s, tuple(sorted(log.items())))
        got = self._sat.get(key)
        if got is None:
            got = (self._sat_step(f, s, log), f)  # f stays alive, so its id stays unique
            self._sat[key] = got
        return got[0]

    def _sat_step(self, f, s, log) -> bool:
        tag = f[0]
        if tag == "bool":
            return f[1]
        if tag == "rel":
            return _REL[f[1]](eval_arith(f[2], s, log), eval_arith(f[3], s, log))
        if tag == "not":
            return not self.sat(f[1], s, log)
        if tag == "and":
            return self.sat(f[1], s, log) and self.sat(f[2], s, log)
        if tag == "or":
            return self.sat(f[1], s, log) or self.sat(f[2], s, log)
        if tag == "imp":
            return not self.sat(f[1], s, log) or self.sat(f[2], s, log)
        if tag == "forall":
            lo, hi = self.qwindow
            return all(self.sat(f[2], s, {**log, f[1]: v}) for v in range(lo, hi + 1))
        raise TypeError(f"not a formula: {f!r}")

    def real(self, r, dist: dict) -> Fraction:
        """Value of a real expression without real variables on dist."""
        memo: dict = {}

        def go(n):
            got = memo.get(id(n))
            if got is not None:
                return got
            tag = n[0]
            if tag == "rat":
                out = n[1]
            elif tag == "prob":
                out = sum((p for s, p in dist.items() if self.sat(n[1], s)), Fraction(0))
            else:
                out = _ARITH[n[1]](go(n[2]), go(n[3]))
            memo[id(n)] = out
            return out

        return go(r)

    def sat_prob(self, f, dist: dict) -> bool:
        tag = f[0]
        if tag == "prel":
            return _REL[f[1]](self.real(f[2], dist), self.real(f[3], dist))
        if tag == "pnot":
            return not self.sat_prob(f[1], dist)
        left = self.sat_prob(f[1], dist)
        if tag == "pand":
            return left and self.sat_prob(f[2], dist)
        if tag == "por":
            return left or self.sat_prob(f[2], dist)
        if tag == "pimp":
            return not left or self.sat_prob(f[2], dist)
        raise TypeError(f"not a probabilistic formula: {f!r}")

    # -- programs

    def run(self, c, dist: dict) -> dict:
        """Output sub-distribution of c on dist (see the loop modes above)."""
        out: dict = {}
        for s, p in dist.items():
            for t, q in self.run_point(c, s).items():
                add_into(out, t, p * q)
        return out

    def run_point(self, c, s: tuple) -> dict:
        key = (id(c), s)
        got = self._point_runs.get(key)
        if got is None:
            got = (self._step(c, s), c)
            self._point_runs[key] = got
        return got[0]

    def _step(self, c, s: tuple) -> dict:
        tag = c[0]
        if tag == "skip":
            return {s: Fraction(1)}
        if tag == "assign":
            return {set_var(s, c[1], eval_arith(c[2], s, {})): Fraction(1)}
        if tag == "rand":
            out: dict = {}
            for w, v in c[2]:
                add_into(out, set_var(s, c[1], v), w)
            return out
        if tag == "seq":
            return self.run(c[2], self.run_point(c[1], s))
        if tag == "if":
            return self.run_point(c[2] if self.sat(c[1], s) else c[3], s)
        if tag == "while":
            return self._loop(c, s)
        raise TypeError(f"not a command: {c!r}")

    def _loop(self, c, s: tuple) -> dict:
        guard, body = c[1], c[2]
        if self.bound is None:
            solved = self._solve_chain(c, s)
            if solved is not None:
                return solved
        limit = EXACT_UNROLL if self.bound is None else self.bound
        out: dict = {}
        cur = {s: Fraction(1)}
        for i in range(limit + 1):
            live: dict = {}
            for t, p in cur.items():
                if self.sat(guard, t):
                    live[t] = p
                else:
                    add_into(out, t, p)
            if not live:
                return out
            if i == limit:
                break
            cur = self.run(body, live)
        if self.bound is None:
            raise Inexact(f"loop still live after {limit} iterations")
        return out

    def _solve_chain(self, c, s: tuple):
        """Exact exit distribution from s when the live states reachable
        from it are at most CHAIN_CAP; None otherwise."""
        guard, body = c[1], c[2]
        if not self.sat(guard, s):
            return {s: Fraction(1)}
        succ: dict = {}
        order = [s]
        seen = {s}
        while len(succ) < len(order):
            t = order[len(succ)]
            step = self.run_point(body, t)
            succ[t] = step
            for u in step:
                if u not in seen and self.sat(guard, u):
                    seen.add(u)
                    order.append(u)
                    if len(order) > CHAIN_CAP:
                        return None
        # live states that can never exit keep their mass forever
        exits_from: set = set()
        changed = True
        while changed:
            changed = False
            for t, step in succ.items():
                if t not in exits_from and any(
                        u in exits_from or not self.sat(guard, u) for u in step):
                    exits_from.add(t)
                    changed = True
        if s not in exits_from:
            return {}
        live = [t for t in order if t in exits_from]
        index = {t: i for i, t in enumerate(live)}
        n = len(live)
        # expected visits y solve (I - Q)^T y = e_s; output = y^T B
        rows = [[Fraction(0)] * n + [Fraction(1 if t == s else 0)] for t in live]
        for j, t in enumerate(live):
            rows[j][j] += 1
            for u, p in succ[t].items():
                i = index.get(u)
                if i is not None:
                    rows[i][j] -= p
        y = _gauss(rows, n)
        out: dict = {}
        for j, t in enumerate(live):
            if y[j]:
                for u, p in succ[t].items():
                    if not self.sat(guard, u):
                        add_into(out, u, y[j] * p)
        return out


def _gauss(rows: list, n: int) -> list:
    """Solve a nonsingular n x n system given as augmented rows, over Q."""
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# Brute-force triple checks


def check_det(ev: Evaluator, pre, c, post, states) -> tuple | None:
    """A window state satisfying pre with an output state violating post, or
    None when the triple holds on the window.  No free logical variables."""
    for s in states:
        if ev.sat(pre, s) and not all(ev.sat(post, t) for t in ev.run_point(c, s)):
            return s
    return None


def check_prob(ev: Evaluator, pre, c, post, members) -> str | None:
    """Label of a family member satisfying pre whose output violates post, or
    None.  `members` is a list of (label, distribution)."""
    for label, dist in members:
        if ev.sat_prob(pre, dist) and not ev.sat_prob(post, ev.run(c, dist)):
            return label
    return None
