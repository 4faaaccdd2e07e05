"""Run one workload in this fresh process and print its raw figures as JSON.

    python3 perfbench/worker.py JOBS.pickle --seconds S [--trace FILE] [--setup-only]

The job list comes from `run.py` (inputs are generated there, outside every
timing).  The clock for set-up starts just before `import phl` and stops
when the program-side set-up the jobs need (state windows, distribution
families, derivation JSON) is built.  Jobs then run in a closed loop, one
round of the whole job list after another, for as many rounds as fit in
S seconds of wall-clock time (at least one).  A job's timed region is
exactly: parse its text with `phl.parser`, call the library, render the
result with `str()`; a short job repeats it back to back (see REP_TARGET_S).
Its check runs after the timed region: in the first round against the
reference semantics, otherwise by comparing the rendered text with the
checked first text.
"""

from __future__ import annotations

import argparse
import gc
import json
import pickle
import random
import resource
import statistics
import sys
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import comb
from pathlib import Path
from time import perf_counter, thread_time

import refsem
from inputs import Job, bounds_of, gen_subdist  # noqa: F401  (Job is unpickled)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("jobs")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    with open(args.jobs, "rb") as fh:
        jobs: list[Job] = pickle.load(fh)

    speed = HostSpeed()
    start = thread_time()
    sys.path.insert(0, str(SRC))
    import phl
    if Path(phl.__file__).resolve().parent != SRC / "phl":
        print(f"phl was imported from {phl.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ctx = Context(phl, jobs)
    setup_raw = thread_time() - start
    gc.freeze()  # the job list and set-up stay out of the program's collections
    for _ in range(SETUP_REFERENCE_RUNS):
        speed.sample()
    setup = {"setup_s": setup_raw * REFERENCE_NOMINAL_S / speed.median_s(),
             "setup_raw_s": setup_raw}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    setup_trace = tracer.snapshot() if tracer else None
    report = run_rounds(ctx, jobs, args.seconds, args.seed, tracer, speed)
    report.update(setup)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        report["trace_setup"] = setup_trace
        report["trace_total"] = tracer.snapshot()
        tracer.dump(args.trace)
    print(json.dumps(report))
    return 0


# ---------------------------------------------------------------------------
# Host speed
#
# This machine is a few cores of a shared host, and its speed swings by up
# to half for minutes at a time, in CPU time as much as in wall time.  Every
# time the benchmark reports is therefore scaled by the host's speed at the
# moment it was taken: a fixed reference computation, the benchmark's own
# and independent of phl, is timed every REFERENCE_EVERY_S between jobs, and
# a time t taken between wall-clock instants t0 and t1 is reported as
# t * REFERENCE_NOMINAL_S / (median reference time within REFERENCE_WINDOW_S
# of [t0, t1]).  A change to phl moves the reported times as it moves the
# raw ones; the host's slow phases move both the job and the reference.

REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW_S = 2.0
REFERENCE_NOMINAL_S = 0.0025    # about the reference's CPU time when run alone here
SETUP_REFERENCE_RUNS = 5


def _reference_program():
    """An 8-step random walk with a random step, as refsem tuples."""
    def pv(name):
        return ("pvar", name)

    step = ("seq", ("rand", "D", ((Fraction(1, 2), 1), (Fraction(1, 2), -1))),
            ("seq", ("assign", "X", ("bin", "+", pv("X"), pv("D"))),
             ("assign", "N", ("bin", "-", pv("N"), ("int", 1)))))
    return ("seq", ("assign", "N", ("int", 8)),
            ("while", ("rel", ">", pv("N"), ("int", 0)), step))


class HostSpeed:
    """Reference-computation samples of one process, and the scale they give."""

    def __init__(self):
        self.program = _reference_program()
        self.start = refsem.state(X=0, D=0, N=0)
        self.at = array("d")      # wall-clock start of each sample
        self.cpu = array("d")     # its CPU time

    def sample(self) -> None:
        t0, c0 = perf_counter(), thread_time()
        refsem.Evaluator(bound=64).run(self.program, {self.start: Fraction(1)})
        self.at.append(t0)
        self.cpu.append(thread_time() - c0)

    def due(self) -> bool:
        return not self.at or perf_counter() - self.at[-1] >= REFERENCE_EVERY_S

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_NOMINAL_S over the median reference time near [t0, t1]:
        the samples within REFERENCE_WINDOW_S, and at least the two nearest
        on either side."""
        lo = bisect_left(self.at, t0 - REFERENCE_WINDOW_S)
        hi = bisect_right(self.at, t1 + REFERENCE_WINDOW_S)
        lo = min(lo, max(0, bisect_left(self.at, t0) - 2))
        hi = max(hi, min(len(self.at), bisect_right(self.at, t1) + 2))
        return REFERENCE_NOMINAL_S / statistics.median(self.cpu[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.cpu)


class Context:
    """Program-side set-up: windows, families and loaded derivation JSON."""

    def __init__(self, phl, jobs: list[Job]):
        self.phl = phl
        self.windows = {}
        self.families = {}
        self.loaded = {}
        for job in jobs:
            key = job.params.get("window")
            if key is not None and key not in self.windows:
                self.windows[key] = phl.StateWindow.make(key[0], key[1], key[2])
            key = job.params.get("family")
            if key is not None and key not in self.families:
                names, lo, hi, seed = key
                self.families[key] = phl.DistFamily.build(
                    phl.StateWindow.make(names, lo, hi), seed)
            if job.kind == "prove_json":
                self.loaded[job.label] = json.loads(job.texts[0])
        self._members = {}

    def window(self, job: Job):
        key = job.params.get("window")
        return None if key is None else self.windows[key]

    def family(self, job: Job):
        key = job.params.get("family")
        return None if key is None else self.families[key]

    def members(self, job: Job) -> list:
        """The family phl built, read as reference distributions."""
        key = job.params["family"]
        if key not in self._members:
            self._members[key] = [(label, {s.items: p for s, p in d.items()})
                                  for label, d in self.families[key].members]
        return self._members[key]


# ---------------------------------------------------------------------------
# Jobs: each returns (rendered text, objects its check reads)


def _opts(job: Job, *names) -> dict:
    return {k: job.params[k] for k in names if k in job.params}


def job_pt(ctx, job):
    phl = ctx.phl
    c = phl.parse_command(job.texts[0])
    r = phl.parse_real_expr(job.texts[1])
    term, expansions = phl.pt(c, r, window=ctx.window(job),
                              **_opts(job, "unroll", "depth", "qwindow"))
    return str(term), (term, expansions, c, r)


def job_wp(ctx, job):
    phl = ctx.phl
    c = phl.parse_command(job.texts[0])
    post = phl.parse_det_formula(job.texts[1])
    pre, traces = phl.wp(c, post, window=ctx.window(job), **_opts(job, "unroll", "qwindow"))
    return str(pre), (pre, traces, c, post)


def job_wpp(ctx, job):
    phl = ctx.phl
    c = phl.parse_command(job.texts[0])
    post = phl.parse_prob_formula(job.texts[1])
    pre, expansions = phl.wp_prob(c, post, window=ctx.window(job),
                                  **_opts(job, "unroll", "depth", "qwindow"))
    return str(pre), (pre, expansions, c, post)


def job_check_det(ctx, job):
    phl = ctx.phl
    t = phl.parse_triple(job.texts[0])
    verdict = phl.check_triple_det(t.pre, t.command, t.post, ctx.window(job),
                                   **_opts(job, "qwindow", "loop_bound"))
    return str(verdict), (verdict, t)


def job_check_prob(ctx, job):
    phl = ctx.phl
    t = phl.parse_triple(job.texts[0])
    verdict = phl.check_triple_prob(t.pre, t.command, t.post, ctx.family(job),
                                    **_opts(job, "qwindow", "loop_bound"))
    return str(verdict), (verdict, t)


def job_run(ctx, job):
    phl = ctx.phl
    c = phl.parse_command(job.texts[0])
    s = phl.parse_state(job.texts[1])
    result = phl.execute(c, phl.point_dist(s), **_opts(job, "loop_bound"))
    return str(result), (result, c, s)


def job_prove_json(ctx, job):
    phl = ctx.phl
    d = phl.derivation_from_json(ctx.loaded[job.label])
    verdict = phl.check_derivation(d, ctx.window(job), ctx.family(job),
                                   **_opts(job, "qwindow", "unroll", "depth"))
    return str(verdict), (verdict, d)


def job_prove_wp(ctx, job):
    """Build the mechanical derivation of { WP(C, post) } C { post }, restate
    its pre by CONS when the job has an extra conjunct, and check it."""
    phl = ctx.phl
    c = phl.parse_command(job.texts[0])
    post = phl.parse_prob_formula(job.texts[1])
    window = ctx.window(job)
    d = phl.build_wp_derivation(c, post, window, **_opts(job, "qwindow", "unroll", "depth"))
    if job.texts[2]:
        extra = phl.parse_prob_formula(job.texts[2])
        d = phl.conseq_over(d, phl.PAnd(d.conclusion.pre, extra))
    verdict = phl.check_derivation(d, window, ctx.family(job),
                                   **_opts(job, "qwindow", "unroll", "depth"))
    return str(verdict), (verdict, d)


RUNNERS = {
    "pt": job_pt, "wp": job_wp, "wpp": job_wpp, "check_det": job_check_det,
    "check_prob": job_check_prob, "run": job_run, "prove_json": job_prove_json,
    "prove_wp": job_prove_wp,
}


# ---------------------------------------------------------------------------
# Checks: None when the output is right, else the reason


def check(ctx, job: Job, out, seed: int):
    try:
        with refsem.deep_recursion():
            return CHECKS[job.kind](ctx, job, out, random.Random(f"{seed}:{job.label}"))
    except (refsem.Inexact, KeyError, TypeError) as exc:  # output the reference cannot read
        return f"check failed: {type(exc).__name__}: {exc}"


def _parsed_as_generated(job: Job, pairs) -> str | None:
    for key, node in pairs:
        if key in job.ref and refsem.from_phl(node) != job.ref[key]:
            return f"phl parsed {key} differently from the generated input"
    return None


def _window_bounds(job: Job, *nodes) -> list:
    key = job.params.get("window")
    if key is None:
        key = (refsem.prog_vars(*nodes), -8, 8)
    return bounds_of(key)


def _qwindow(job: Job):
    return job.params.get("qwindow", (-8, 8))


def _sample_dists(rng, bounds, n=3) -> list:
    states = refsem.window_states(bounds)
    return [gen_subdist(rng, states) for _ in range(n)] + [{rng.choice(states): 1}]


def _monotone(r) -> bool:
    """No subtraction and no negative constant: r grows with every P(.)."""
    if r[0] == "rat":
        return r[1] >= 0
    if r[0] == "rbin":
        return r[1] != "-" and _monotone(r[2]) and _monotone(r[3])
    return True


def check_pt(ctx, job, out, rng):
    term, expansions, c_obj, r_obj = out
    bad = _parsed_as_generated(job, [("c", c_obj), ("a", r_obj)])
    if bad:
        return bad
    c, r, t = refsem.from_phl(c_obj), refsem.from_phl(r_obj), refsem.from_phl(term)
    exhaustive = all(e.exhaustive for e in expansions)
    if not exhaustive and not _monotone(r):
        return "non-exhaustive expansion of a non-monotone term"
    ev = refsem.Evaluator(_qwindow(job))
    for mu in _sample_dists(rng, _window_bounds(job, c, r)):
        got, want = ev.real(t, mu), ev.real(r, ev.run(c, mu))
        if (got != want) if exhaustive else (got > want):
            return f"pt gives {got}, the output gives {want} on {mu}"
    return None


def check_wp(ctx, job, out, rng):
    pre_obj, traces, c_obj, post_obj = out
    bad = _parsed_as_generated(job, [("c", c_obj), ("a", post_obj)])
    if bad:
        return bad
    if not all(t.converged for t in traces):
        return "a loop trace did not converge"
    c, post, pre = (refsem.from_phl(x) for x in (c_obj, post_obj, pre_obj))
    ev = refsem.Evaluator(_qwindow(job))
    for s in refsem.window_states(_window_bounds(job, c, post)):
        if ev.sat(pre, s) != all(ev.sat(post, t) for t in ev.run_point(c, s)):
            return f"wp is wrong at {s}"
    return None


def check_wpp(ctx, job, out, rng):
    pre_obj, expansions, c_obj, post_obj = out
    bad = _parsed_as_generated(job, [("c", c_obj), ("a", post_obj)])
    if bad:
        return bad
    if not all(e.exhaustive for e in expansions):
        return "non-exhaustive expansion"
    c, post, pre = (refsem.from_phl(x) for x in (c_obj, post_obj, pre_obj))
    ev = refsem.Evaluator(_qwindow(job))
    for mu in _sample_dists(rng, _window_bounds(job, c, post)):
        if ev.sat_prob(pre, mu) != ev.sat_prob(post, ev.run(c, mu)):
            return f"wp_prob is wrong on {mu}"
    return None


def _triple(job, t):
    bad = _parsed_as_generated(job, [("pre", t.pre), ("c", t.command), ("post", t.post)])
    return bad, tuple(refsem.from_phl(x) for x in (t.pre, t.command, t.post))


def check_det_triple(ctx, job, out, rng):
    verdict, t = out
    bad, (pre, c, post) = _triple(job, t)
    if bad:
        return bad
    ev = refsem.Evaluator(_qwindow(job))
    states = refsem.window_states(_window_bounds(job, pre, c, post))
    witness = refsem.check_det(ev, pre, c, post, states)
    if verdict.holds != (witness is None):
        return f"phl says holds={verdict.holds}, the reference says {witness is None}"
    if not verdict.holds:
        s = verdict.counterexample[0].items
        if refsem.check_det(ev, pre, c, post, [s]) is None:
            return f"counterexample {s} is not one"
    return None


def check_prob_triple(ctx, job, out, rng):
    verdict, t = out
    bad, (pre, c, post) = _triple(job, t)
    if bad:
        return bad
    ev = refsem.Evaluator(_qwindow(job))
    members = ctx.members(job)
    witness = refsem.check_prob(ev, pre, c, post, members)
    if verdict.holds != (witness is None):
        return f"phl says holds={verdict.holds}, the reference says {witness is None}"
    if not verdict.holds:
        label = verdict.counterexample[0]
        if refsem.check_prob(ev, pre, c, post, [m for m in members if m[0] == label]) is None:
            return f"counterexample {label} is not one"
    return None


def check_run(ctx, job, out, rng):
    result, c_obj, s_obj = out
    bad = _parsed_as_generated(job, [("c", c_obj)])
    if bad:
        return bad
    if "state" in job.ref and s_obj.items != job.ref["state"]:
        return "phl parsed the state differently"
    c = refsem.from_phl(c_obj)
    got = {s.items: p for s, p in result.output.items()}
    want = refsem.Evaluator(bound=job.params["loop_bound"]).run(c, {s_obj.items: 1})
    if got != want:
        return "output distribution differs from the reference"
    if result.residual_mass != 1 - refsem.mass(want) or result.exact != (refsem.mass(want) == 1):
        return "residual mass or exactness flag is wrong"
    return CLOSED_FORMS.get(job.label, lambda got: None)(got)


def _geometric(got):
    """README geometric loop at loop bound 20: weight 2^-i at X=1, Y=i."""
    for i in range(1, 21):
        if got.get(refsem.state(X=1, Y=i)) != refsem.Fraction(1, 2 ** i):
            return f"weight at Y={i} is not 2^-{i}"
    return None


def _walk(got):
    """64-step walk: X = 2k - 64 with binomial weight C(64, k) / 2^64."""
    by_x: dict = {}
    for s, p in got.items():
        x = dict(s)["X"]
        by_x[x] = by_x.get(x, 0) + p
    want = {2 * k - 64: refsem.Fraction(comb(64, k), 2 ** 64) for k in range(65)}
    return None if by_x == want else "walk weights are not binomial"


CLOSED_FORMS = {"readme-run-geometric": _geometric, "walk-64": _walk}


def check_prove(ctx, job, out, rng):
    verdict, d = out
    if verdict.accepted != job.ref.get("accept", True):
        return f"phl says accepted={verdict.accepted}, expected {job.ref.get('accept', True)}"
    if not verdict.accepted:
        return None
    t = d.conclusion
    bad = _parsed_as_generated(job, [("pre", t.pre), ("c", t.command), ("post", t.post)])
    if bad:
        return bad
    pre, c, post = (refsem.from_phl(x) for x in (t.pre, t.command, t.post))
    ev = refsem.Evaluator(_qwindow(job))
    if t.prob:
        witness = refsem.check_prob(ev, pre, c, post, ctx.members(job))
    else:
        states = refsem.window_states(_window_bounds(job, pre, c, post))
        witness = refsem.check_det(ev, pre, c, post, states)
    return None if witness is None else f"accepted conclusion fails at {witness}"


CHECKS = {
    "pt": check_pt, "wp": check_wp, "wpp": check_wpp, "check_det": check_det_triple,
    "check_prob": check_prob_triple, "run": check_run, "prove_json": check_prove,
    "prove_wp": check_prove,
}


# ---------------------------------------------------------------------------
# The closed loop


# A job runs back to back until its repetitions have taken REP_TARGET_S or
# it has run REP_MAX times, and counts as one operation.  Short jobs so get
# several samples per round.
REP_TARGET_S = 0.05
REP_MAX = 12


def run_rounds(ctx, jobs: list[Job], seconds: float, seed: int, tracer,
               speed: HostSpeed) -> dict:
    # one entry per timed execution: its job, wall-clock span and CPU time
    sample_job, sample_t0, sample_t1, sample_cpu = array("i"), array("d"), array("d"), array("d")
    first_text: dict[str, str] = {}
    failures: dict[str, str] = {}
    result_nodes = 0
    rounds = attempted = failed = 0
    start = perf_counter()
    last_round = 0.0
    # the traced run times every job once, so its counts are per round
    rep_max = 1 if tracer is not None else REP_MAX
    # no round starts that the previous one says would overrun `seconds`
    # of wall-clock time
    while rounds == 0 or perf_counter() - start + last_round <= seconds:
        round_start = perf_counter()
        for index, job in enumerate(jobs):
            run = RUNNERS[job.kind]
            error = None
            texts = []
            job_time = 0.0
            while len(texts) < rep_max and job_time < REP_TARGET_S:
                if speed.due():
                    speed.sample()
                t0, c0 = perf_counter(), thread_time()
                try:
                    if tracer is None:
                        text, out = run(ctx, job)
                    else:
                        text, out = tracer.call(f"job.{job.kind}", "job", run, ctx, job)
                except Exception as exc:  # a job that raises is a failed operation
                    error = f"{type(exc).__name__}: {str(exc)[:200]}"
                cpu, t1 = thread_time() - c0, perf_counter()
                job_time += cpu
                if error is not None:
                    break
                sample_job.append(index)
                sample_t0.append(t0)
                sample_t1.append(t1)
                sample_cpu.append(cpu)
                texts.append(text)
            attempted += 1
            if error is None and rounds == 0:
                error = check(ctx, job, out, seed)
                first_text[job.label] = texts[0] if error is None else None
            if error is None and any(t != first_text.get(job.label) for t in texts):
                error = "output differs from the checked first output"
            if error is not None:
                failed += 1
                failures.setdefault(job.label, error)
            if tracer is not None:
                result_nodes += sum(dag_nodes(t) for t in tracer.returned_terms)
                tracer.returned_terms.clear()
        rounds += 1
        last_round = perf_counter() - round_start
    speed.sample()
    # a job's latency is the median of its samples, each scaled by the host's
    # speed when it was taken (see HostSpeed)
    scaled: dict[int, list[float]] = {}
    raw: dict[int, list[float]] = {}
    for k, index in enumerate(sample_job):
        raw.setdefault(index, []).append(sample_cpu[k])
        scaled.setdefault(index, []).append(
            sample_cpu[k] * speed.scale(sample_t0[k], sample_t1[k]))
    # a job with no successful sample has failed, and `correct` says so
    timed = [i for i, job in enumerate(jobs) if not job.known_fault and i in scaled]
    return {
        "rounds": rounds, "attempted": attempted, "failed": failed,
        "failures": failures,
        "unexpected": sorted(label for label in failures
                             if not next(j for j in jobs if j.label == label).known_fault),
        "job_latencies": [statistics.median(scaled[i]) for i in timed],
        "raw_job_latencies": [statistics.median(raw[i]) for i in timed],
        "reference_median_s": speed.median_s(),
        "result_nodes": result_nodes,
    }


def dag_nodes(node) -> int:
    """AST nodes counted with sharing (the benchmark's own count)."""
    seen: set[int] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        for attr in ("left", "right", "body", "formula"):
            child = getattr(n, attr, None)
            if child is not None and not isinstance(child, (str, int)):
                stack.append(child)
    return len(seen)


if __name__ == "__main__":
    sys.exit(main())
