"""phl benchmark: the transform, check and prove workloads, end to end.

    python3 perfbench/run.py --workload transform --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run it from the root of a checkout; it benchmarks the phl under `src/`.
Each workload runs in a fresh single-threaded process (`worker.py`); in the
untraced run, SETUP_PROBES further fresh processes, half before and half
after it, only time the set-up.  The last
line of standard output is one JSON object: `correct`, `attempted`,
`failed` and the `metrics` (end-to-end with `--trace 0`, per layer with
`--trace 1`).  See README.md for the workloads, the metrics and the
known-fault operations.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from worker import REFERENCE_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 12
DEADLINE_S = 170   # for all processes of one workload
TAIL_BEYOND = 10   # job_tail_s is the highest latency with this many jobs above it

LAYER_METRICS = [
    # (metric, source, key): source "calls"/"self_s" read the layer's spans,
    # "counts" a counter, "ratio" a quotient of two counters
    ("parser.calls", "calls", "parser"),
    ("parser.self_s", "self_s", "parser"),
    ("core.simplify.calls", "calls", "core.simplify"),
    ("core.simplify.self_s", "self_s", "core.simplify"),
    ("core.normalize.self_s", "self_s", "core.normalize"),
    ("core.subst.self_s", "self_s", "core.subst"),
    ("core.node_size.calls", "calls", "core.node_size"),
    ("core.node_size.self_s", "self_s", "core.node_size"),
    ("core.print.self_s", "self_s", "core.print"),
    ("semantics.execute.calls", "calls", "semantics.execute"),
    ("semantics.execute.self_s", "self_s", "semantics.execute"),
    ("semantics.sat_det.calls", "calls", "semantics.sat_det"),
    ("semantics.sat_det.self_s", "self_s", "semantics.sat_det"),
    ("semantics.inexact_runs", "counts", "semantics.inexact_runs"),
    ("assertions.eval_real.calls", "calls", "assertions.eval_real"),
    ("assertions.eval_real.self_s", "self_s", "assertions.eval_real"),
    ("assertions.validity.calls", "calls", "assertions.validity"),
    ("assertions.validity.self_s", "self_s", "assertions.validity"),
    ("assertions.family.self_s", "self_s", "assertions.family"),
    ("wp.wp.calls", "calls", "wp.wp"),
    ("wp.wp.self_s", "self_s", "wp.wp"),
    ("wp.window_equivalent.calls", "calls", "wp.window_equivalent"),
    ("wp.window_equivalent.self_s", "self_s", "wp.window_equivalent"),
    ("wp.check_triple.self_s", "self_s", "wp.check_triple"),
    ("wp.converged_ratio", "ratio", ("wp.converged_traces", "wp.loop_traces")),
    ("preterm.pt.calls", "calls", "preterm.pt"),
    ("preterm.pt.self_s", "self_s", "preterm.pt"),
    ("preterm.cond_term.self_s", "self_s", "preterm.cond_term"),
    ("preterm.check_triple.self_s", "self_s", "preterm.check_triple"),
    ("preterm.exhaustive_ratio", "ratio",
     ("preterm.exhaustive_expansions", "preterm.expansions")),
    ("preterm.result_nodes", "counts", "preterm.result_nodes"),
    ("proofsys.check_derivation.calls", "calls", "proofsys.check_derivation"),
    ("proofsys.check_derivation.self_s", "self_s", "proofsys.check_derivation"),
    ("proofsys.build_wp_derivation.self_s", "self_s", "proofsys.build_wp_derivation"),
    ("proofsys.nodes", "counts", "proofsys.nodes"),
]
UNITS = {"calls": "count", "self_s": "s", "counts": "count", "ratio": "ratio"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "phl" / "__init__.py").is_file():
        print(f"no phl sources under {SRC}; run from the root of a phl checkout",
              file=sys.stderr)
        return 2
    # byte-code is compiled here, so set-up times measure imports only
    if not (compileall.compile_dir(str(SRC / "phl"), quiet=1)
            and compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)):
        print("phl does not compile", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        if results[name] is None:
            return 1
        show(name, results[name])
    if len(names) == 1:
        final = {k: results[names[0]][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: int):
    deadline = time.monotonic() + DEADLINE_S
    jobs = inputs.WORKLOADS[name](seed)
    stem = OUT / f"{name}-seed{seed}-{os.getpid()}"
    job_file = stem.with_suffix(".jobs.pickle")
    with open(job_file, "wb") as fh:
        pickle.dump(jobs, fh)
    try:
        if not trace:
            # set-up probes before and after the run sample two moments of
            # this machine's drifting speed
            setups = probe_setups(deadline, job_file, seed)
            plain = worker(deadline, job_file, seed, seconds)
            setups += probe_setups(deadline, job_file, seed)
            if plain is None or None in setups:
                return None
            reports = [plain]
            metrics = end_to_end(plain, setups + [plain])
        else:
            plain = worker(deadline, job_file, seed, seconds / 2)
            trace_file = stem.with_suffix(".trace.json.gz")
            traced = worker(deadline, job_file, seed, seconds / 2,
                            ["--trace", str(trace_file)])
            if plain is None or traced is None:
                return None
            reports = [plain, traced]
            metrics = per_layer(traced)
            metrics["trace.overhead"] = {
                "value": jobs_per_s(plain) / jobs_per_s(traced), "unit": "ratio"}
    finally:
        job_file.unlink()
    failures = {}
    for r in reports:
        failures.update(r["failures"])
    return {
        "raw": raw_figures(plain, setups + [plain]) if not trace else None,
        "correct": not any(r["unexpected"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
        "failures": failures,
        "rounds": [r["rounds"] for r in reports],
        "jobs": len(plain["job_latencies"]),
    }


def probe_setups(deadline: float, job_file: Path, seed: int) -> list:
    """Set-up times of SETUP_PROBES // 2 fresh processes (None if one failed)."""
    probes = [worker(deadline, job_file, seed, 0, ["--setup-only"])
              for _ in range(SETUP_PROBES // 2)]
    return probes


def worker(deadline: float, job_file: Path, seed: int, seconds: float, extra=()):
    """Run worker.py to its end (killed at the deadline); its report or None."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(job_file), "--seed", str(seed),
           "--seconds", str(seconds), *extra]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"the workload did not finish within {DEADLINE_S} s", file=sys.stderr)
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"worker exited with {done.returncode}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def jobs_per_s(report) -> float:
    return len(report["job_latencies"]) / sum(report["job_latencies"])


def end_to_end(report, setups) -> dict:
    latencies = sorted(report["job_latencies"])
    return {
        "setup_s": {"value": statistics.median(p["setup_s"] for p in setups), "unit": "s"},
        "jobs_per_s": {"value": jobs_per_s(report), "unit": "1/s"},
        "job_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "job_tail_s": {"value": latencies[len(latencies) - TAIL_BEYOND - 1], "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
    }


def raw_figures(report, setups) -> str:
    """The unscaled CPU times behind the metrics, and the host's speed."""
    latencies = sorted(report["raw_job_latencies"])
    return (f"unscaled: jobs_per_s {len(latencies) / sum(latencies):.6g}, "
            f"job_p50_s {statistics.median(latencies):.6g}, "
            f"job_tail_s {latencies[len(latencies) - TAIL_BEYOND - 1]:.6g}, "
            f"setup_s {statistics.median(p['setup_raw_s'] for p in setups):.6g}; "
            f"reference computation {report['reference_median_s'] * 1e3:.4g} ms "
            f"(nominal {REFERENCE_NOMINAL_S * 1e3:.4g} ms)")


def per_layer(report) -> dict:
    """Per round of the job list, plus the one set-up the process made."""
    setup, total, rounds = report["trace_setup"], report["trace_total"], report["rounds"]
    counts = dict(total["counts"], **{"preterm.result_nodes": report["result_nodes"]})

    def value(source, key):
        if source == "ratio":
            num, den = (counts.get(k, 0) for k in key)
            return num / den if den else 0.0
        if source == "counts":
            return counts.get(key, 0) / rounds
        at_setup = setup[source].get(key, 0)
        return at_setup + (total[source].get(key, 0) - at_setup) / rounds

    return {name: {"value": value(source, key), "unit": UNITS[source]}
            for name, source, key in LAYER_METRICS}


def show(name: str, result) -> None:
    print(f"== {name}: {result['attempted']} operations attempted, {result['failed']} "
          f"failed, {result['jobs']} timed jobs, rounds {result['rounds']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:40s} {m['value']:.6g} {m['unit']}")
    if result["raw"]:
        print(f"  {result['raw']}")
    for label, reason in sorted(result["failures"].items()):
        print(f"  failed: {label}: {reason}")


if __name__ == "__main__":
    sys.exit(main())
