"""Command-line front end.

Subcommands: run, wp, pt, wpp, check, prove.  Exit status 0 means the
requested property holds (or printing succeeded), 1 means a counterexample
was found or a derivation was rejected, 2 means bad usage or a parse error.
Defaults can be preloaded from a JSON file named by the PHL_CONFIG
environment variable; explicit flags win.  JSON output is byte-identical for
identical input and configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

from .core import (
    SubDistribution, UnboundVariable, format_fraction, prog_vars,
)
from .parser import (
    ParseError, parse_command, parse_det_formula, parse_prob_formula,
    parse_real_expr, parse_state, parse_triple, tokenize,
)
from .semantics import DEFAULT_LOOP_BOUND, DEFAULT_QWINDOW, execute
from .assertions import DEFAULT_INT_WINDOW, DistFamily, StateWindow, load_dist
from .wp import DEFAULT_UNROLL, check_triple_det, default_window, wp
from .preterm import DEFAULT_DEPTH, check_triple_prob, pt, wp_prob
from .proofsys import check_derivation, derivation_vars, load_derivation

CONFIG_ENV = "PHL_CONFIG"


@dataclass
class Config:
    loop_bound: int = DEFAULT_LOOP_BOUND
    unroll: int = DEFAULT_UNROLL
    depth: int = DEFAULT_DEPTH
    int_window: tuple[int, int] = DEFAULT_INT_WINDOW
    quant_window: tuple[int, int] = DEFAULT_QWINDOW
    seed: int = 0
    format: str = "text"


def _parse_window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected MIN..MAX, got {text!r}")
    try:
        bounds = (int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MIN..MAX, got {text!r}") from None
    if bounds[0] > bounds[1]:
        raise argparse.ArgumentTypeError(f"empty window {text!r}")
    return bounds


def _config_value(key: str, value):
    """The Config field for one PHL_CONFIG entry; UsageError if malformed."""
    def fail(shape: str):
        raise UsageError(f"{CONFIG_ENV} {key} must be {shape}, got {json.dumps(value)}")
    if key in ("loop_bound", "unroll", "depth", "seed"):
        if type(value) is not int:  # JSON true and 1.5 are not integers
            fail("an integer")
        return value
    if key in ("int_window", "quant_window"):
        if not (isinstance(value, list) and len(value) == 2
                and all(type(v) is int for v in value) and value[0] <= value[1]):
            fail("[MIN, MAX] with integers MIN <= MAX")
        return tuple(value)
    if key == "format":
        if value not in ("text", "json"):
            fail('"text" or "json"')
        return value
    raise UsageError(f"{CONFIG_ENV} has an unknown key {key!r}")


def load_config() -> Config:
    cfg = Config()
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError(f"{CONFIG_ENV} must hold a JSON object")
    return replace(cfg, **{k: _config_value(k, v) for k, v in data.items()})


def apply_flags(cfg: Config, args: argparse.Namespace) -> Config:
    fields = {}
    for key in ("loop_bound", "unroll", "depth", "seed",
                "int_window", "quant_window", "format"):
        value = getattr(args, key, None)
        if value is not None:
            fields[key] = value
    return replace(cfg, **fields)


def check_bounds(cfg: Config) -> None:
    """Bounds from flags or the config file must be non-negative."""
    for key in ("loop_bound", "unroll", "depth"):
        value = getattr(cfg, key)
        if value < 0:
            raise UsageError(f"{key} must be non-negative, got {value}")


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))


def _dist_json(dist: SubDistribution) -> list[dict]:
    return [{"vars": s.as_dict(), "prob": format_fraction(p)}
            for s, p in sorted(dist.items())]


def _interp_json(interp) -> dict:
    return {"log": dict(interp.log),
            "real": {k: format_fraction(v) for k, v in interp.real.items()}}


def _triple_verdict_payload(verdict) -> dict:
    payload = {
        "holds": verdict.holds,
        "scope": verdict.scope,
        "inexact": verdict.inexact,
        "residual": format_fraction(verdict.max_residual),
        "counterexample": None,
    }
    if verdict.counterexample is not None:
        witness, interp = verdict.counterexample
        entry = {"interpretation": _interp_json(interp)}
        if hasattr(witness, "as_dict"):
            entry["state"] = witness.as_dict()
        else:
            entry["member"] = str(witness)
        payload["counterexample"] = entry
    return payload


# ---------------------------------------------------------------------------
# Subcommands


def cmd_run(args, cfg: Config) -> int:
    program = parse_command(args.program)
    if (args.state is None) == (args.dists is None):
        raise UsageError("run needs exactly one of --state or --dists")
    if args.state is not None:
        dist = SubDistribution.point(parse_state(args.state))
    else:
        dist = load_dist(args.dists)
    # `C1 [p] C2` tosses a fresh flag named unlike every identifier in the
    # text; it must not overwrite an input variable, and it is not shown
    written = {t.text for t in tokenize(args.program) if t.kind == "IDENT"}
    given = {name for s, _ in dist.items() for name in s.vars()}
    clash = sorted((prog_vars(program) - written) & given)
    if clash:
        raise UsageError(f"input variable {clash[0]} has the name of the flag "
                         f"generated for a `[p]` choice; rename it")
    result = execute(program, dist, cfg.loop_bound)
    output = result.output.project(written | given)
    if cfg.format == "json":
        _emit_json({
            "states": _dist_json(output),
            "residual": format_fraction(result.residual_mass),
            "iterations": result.iterations_used,
            "exact": result.exact,
        })
    else:
        for state, p in sorted(output.items()):
            print(f"  {format_fraction(p)}  {state}")
        print(f"residual mass: {format_fraction(result.residual_mass)}")
        print(f"iterations used: {result.iterations_used}")
        print(f"exact: {result.exact}")
    return 0


def cmd_wp(args, cfg: Config) -> int:
    program = parse_command(args.program)
    post = parse_det_formula(args.post)
    lo, hi = cfg.int_window
    window = default_window(program, post, lo=lo, hi=hi)
    formula, traces = wp(program, post, cfg.unroll, window, cfg.quant_window)
    if cfg.format == "json":
        _emit_json({
            "wp": str(formula),
            "loops": [{
                "converged": t.converged,
                "fixpoint_index": t.fixpoint_index,
                "approximants": [str(a) for a in t.approximants],
            } for t in traces],
        })
    else:
        print(str(formula))
        for i, t in enumerate(traces):
            status = (f"converged at {t.fixpoint_index}" if t.converged
                      else f"no fixpoint within {len(t.approximants) - 1} unrollings")
            print(f"loop {i} ({t.loop.guard}): {status}, "
                  f"{len(t.approximants)} approximants")
    return 0


def cmd_pt(args, cfg: Config) -> int:
    program = parse_command(args.program)
    expr = parse_real_expr(args.term)
    lo, hi = cfg.int_window
    window = default_window(program, expr, lo=lo, hi=hi)
    term, expansions = pt(program, expr, cfg.unroll, cfg.depth, window,
                          cfg.quant_window)
    if cfg.format == "json":
        _emit_json({
            "preterm": str(term),
            "loops": [{
                "exhaustive": e.exhaustive,
                "unroll": e.unroll,
                "depth": e.depth,
                "sum": str(e.sum_term),
                "tails": [str(t) for t in e.tail_terms],
            } for e in expansions],
        })
    else:
        print(str(term))
        for i, e in enumerate(expansions):
            print(f"loop {i} ({e.loop.guard}): "
                  f"{'exhaustive' if e.exhaustive else 'non-exhaustive'} "
                  f"on {e.window}, {e.unroll} classes, {e.depth} tail terms")
    return 0


def cmd_wpp(args, cfg: Config) -> int:
    program = parse_command(args.program)
    post = parse_prob_formula(args.post)
    lo, hi = cfg.int_window
    window = default_window(program, post, lo=lo, hi=hi)
    formula, expansions = wp_prob(program, post, cfg.unroll, cfg.depth, window,
                                  cfg.quant_window)
    if cfg.format == "json":
        _emit_json({
            "wp": str(formula),
            "loops": [{"exhaustive": e.exhaustive, "unroll": e.unroll,
                       "depth": e.depth} for e in expansions],
        })
    else:
        print(str(formula))
        for i, e in enumerate(expansions):
            print(f"loop {i} ({e.loop.guard}): "
                  f"{'exhaustive' if e.exhaustive else 'non-exhaustive'} on {e.window}")
    return 0


def cmd_check(args, cfg: Config) -> int:
    triple = parse_triple(args.triple)
    lo, hi = cfg.int_window
    window = default_window(triple.command, triple.pre, triple.post, lo=lo, hi=hi)
    if triple.prob:
        extra = [load_dist(args.dists)] if args.dists else []
        family = DistFamily.build(window, cfg.seed, extra=extra)
        verdict = check_triple_prob(triple.pre, triple.command, triple.post,
                                    family, cfg.quant_window, cfg.loop_bound)
    else:
        verdict = check_triple_det(triple.pre, triple.command, triple.post,
                                   window, cfg.quant_window, cfg.loop_bound)
    if cfg.format == "json":
        _emit_json(_triple_verdict_payload(verdict))
    else:
        print(str(verdict))
    return 0 if verdict.holds else 1


def cmd_prove(args, cfg: Config) -> int:
    derivation = load_derivation(args.derivation)
    window = StateWindow.make(derivation_vars(derivation), *cfg.int_window)
    verdict = check_derivation(derivation, window, qwindow=cfg.quant_window,
                               unroll=cfg.unroll, depth=cfg.depth,
                               seed=cfg.seed)
    if cfg.format == "json":
        _emit_json({
            "accepted": verdict.accepted,
            "scope": verdict.scope,
            "failures": list(verdict.failures),
        })
    else:
        print(str(verdict))
    return 0 if verdict.accepted else 1


class UsageError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--loop-bound", dest="loop_bound", type=int)
    shared.add_argument("--unroll", type=int)
    shared.add_argument("--depth", type=int)
    shared.add_argument("--int-window", dest="int_window", type=_parse_window,
                        metavar="MIN..MAX")
    shared.add_argument("--quant-window", dest="quant_window", type=_parse_window,
                        metavar="MIN..MAX")
    shared.add_argument("--seed", type=int)
    shared.add_argument("--format", choices=("text", "json"))

    top = argparse.ArgumentParser(
        prog="phl",
        description="Exact analysis of probabilistic imperative programs.")
    sub = top.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[shared],
                         help="execute a program on a state or distribution")
    run.add_argument("--program", required=True)
    run.add_argument("--state")
    run.add_argument("--dists", metavar="FILE")
    run.set_defaults(handler=cmd_run)

    wp_cmd = sub.add_parser("wp", parents=[shared],
                            help="weakest precondition of a deterministic assertion")
    wp_cmd.add_argument("--program", required=True)
    wp_cmd.add_argument("--post", required=True)
    wp_cmd.set_defaults(handler=cmd_wp)

    pt_cmd = sub.add_parser("pt", parents=[shared],
                            help="weakest preterm of a real expression")
    pt_cmd.add_argument("--program", required=True)
    pt_cmd.add_argument("--term", required=True)
    pt_cmd.set_defaults(handler=cmd_pt)

    wpp = sub.add_parser("wpp", parents=[shared],
                         help="weakest precondition of a probabilistic assertion")
    wpp.add_argument("--program", required=True)
    wpp.add_argument("--post", required=True)
    wpp.set_defaults(handler=cmd_wpp)

    check = sub.add_parser("check", parents=[shared],
                           help="check a Hoare triple semantically")
    check.add_argument("--triple", required=True)
    check.add_argument("--dists", metavar="FILE",
                       help="extra distribution added to the test family")
    check.set_defaults(handler=cmd_check)

    prove = sub.add_parser("prove", parents=[shared],
                           help="check a proof derivation from a JSON file")
    prove.add_argument("--derivation", required=True, metavar="FILE")
    prove.set_defaults(handler=cmd_prove)
    return top


_WINDOW_FLAGS = ("--int-window", "--quant-window")


def _join_window_values(argv: list[str]) -> list[str]:
    """argparse reads a window such as -8..8 as an option, so a window flag
    followed by a value starting with '-' is joined to it with '='."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _WINDOW_FLAGS and arg.startswith("-"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_window_values(argv))
    except SystemExit as stop:
        return int(stop.code or 0)
    try:
        cfg = apply_flags(load_config(), args)
        check_bounds(cfg)
        return args.handler(args, cfg)
    except (ParseError, UsageError, UnboundVariable, ValueError, OSError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
