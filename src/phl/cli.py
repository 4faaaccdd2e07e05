"""Command-line front end.

Subcommands: run, wp, pt, wpp, check, prove.  Exit status 0 means the
requested property holds (or printing succeeded), 1 means a counterexample
was found or a derivation was rejected, 2 means bad usage or a parse error.
Each subcommand's handler returns its exit status, a function that builds
its JSON payload, and its text lines; `main` alone prints them, in the chosen
format, builds the payload only for JSON, and turns every usage or input
error, and running out of memory, into one `error:` line.  Each setting is
written once, in SETTINGS, with its default: a flag wins over the JSON file
named by the PHL_CONFIG environment variable, which wins over the default.
JSON output is byte-identical for identical input and configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

from .core import SubDistribution, UnboundVariable, prog_vars
from .parser import (
    ParseError, parse_command, parse_det_formula, parse_prob_formula,
    parse_real_expr, parse_state, parse_triple, tokenize,
)
from .semantics import DEFAULT_LOOP_BOUND, DEFAULT_QWINDOW, execute
from .assertions import DEFAULT_INT_WINDOW, DistFamily, StateWindow, check_triple, load_dist
from .wp import DEFAULT_UNROLL, default_window, wp
from .preterm import DEFAULT_DEPTH, pt
from .proofsys import check_derivation, derivation_vars, load_derivation

CONFIG_ENV = "PHL_CONFIG"


class UsageError(ValueError):
    pass


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


def _is_window(value) -> bool:
    return (isinstance(value, list) and len(value) == 2
            and all(type(v) is int for v in value) and value[0] <= value[1])


# A kind of setting: (argparse options of its flag, the shape a PHL_CONFIG
# value must have, the test of that shape).  JSON true and 1.5 are not
# integers; a window [MIN, MAX] is read as the tuple (MIN, MAX).
_INT = ({"type": int}, "an integer", lambda v: type(v) is int)
_WINDOW = ({"type": _parse_window, "metavar": "MIN..MAX"},
           "[MIN, MAX] with integers MIN <= MAX", _is_window)
_FORMATS = ("text", "json")
_FORMAT = ({"choices": _FORMATS}, '"text" or "json"', lambda v: v in _FORMATS)

# name: (default, kind, must be non-negative).  The flag is --name with `-`
# for `_`; the PHL_CONFIG key is the name.
SETTINGS = {
    "loop_bound": (DEFAULT_LOOP_BOUND, _INT, True),
    "unroll": (DEFAULT_UNROLL, _INT, True),
    "depth": (DEFAULT_DEPTH, _INT, True),
    "int_window": (DEFAULT_INT_WINDOW, _WINDOW, False),
    "quant_window": (DEFAULT_QWINDOW, _WINDOW, False),
    "seed": (0, _INT, False),
    "format": ("text", _FORMAT, False),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def load_config() -> dict:
    """The settings in the PHL_CONFIG file; UsageError if it is malformed."""
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError(f"{CONFIG_ENV} must hold a JSON object")
    for key, value in data.items():
        if key not in SETTINGS:
            raise UsageError(f"{CONFIG_ENV} has an unknown key {key!r}")
        _, shape, valid = SETTINGS[key][1]
        if not valid(value):
            raise UsageError(f"{CONFIG_ENV} {key} must be {shape}, got {json.dumps(value)}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}


def resolve_settings(args: argparse.Namespace) -> None:
    """Give each setting that no flag gave its PHL_CONFIG value, or else its
    default; bounds from either must be non-negative."""
    config = load_config()
    for name, (default, _, bound) in SETTINGS.items():
        if getattr(args, name) is None:
            setattr(args, name, config.get(name, default))
        value = getattr(args, name)
        if bound and value < 0:
            raise UsageError(f"{name} must be non-negative, got {value}")


def _dist_json(dist: SubDistribution) -> list[dict]:
    return [{"vars": s.as_dict(), "prob": str(p)}
            for s, p in sorted(dist.items())]


def _interp_json(interp) -> dict:
    return {"log": dict(interp.log),
            "real": {k: str(v) for k, v in interp.real.items()}}


def _triple_verdict_payload(verdict) -> dict:
    payload = {
        "holds": verdict.holds,
        "scope": verdict.scope,
        "inexact": verdict.inexact,
        "residual": str(verdict.max_residual),
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
# Subcommands: each returns (exit status, JSON payload builder, text lines)

Outcome = tuple[int, Callable[[], dict], list[str]]


def _window(args, *nodes) -> StateWindow:
    lo, hi = args.int_window
    return default_window(*nodes, lo=lo, hi=hi)


def cmd_run(args) -> Outcome:
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
    result = execute(program, dist, args.loop_bound)
    output = result.output.project(written | given)
    residual = str(result.residual_mass)
    payload = lambda: {"states": _dist_json(output), "residual": residual,
                       "iterations": result.iterations_used, "exact": result.exact}
    lines = [f"  {p}  {state}" for state, p in sorted(output.items())]
    return 0, payload, lines + [f"residual mass: {residual}",
                                f"iterations used: {result.iterations_used}",
                                f"exact: {result.exact}"]


def cmd_wp(args) -> Outcome:
    program = parse_command(args.program)
    post = parse_det_formula(args.post)
    formula, traces = wp(program, post, args.unroll, _window(args, program, post),
                         args.quant_window)
    text = str(formula)
    payload = lambda: {"wp": text, "loops": [{
        "converged": t.converged,
        "fixpoint_index": t.fixpoint_index,
        "approximants": [str(a) for a in t.approximants],
    } for t in traces]}
    lines = [text]
    for i, t in enumerate(traces):
        status = (f"converged at {t.fixpoint_index}" if t.converged
                  else f"no fixpoint within {len(t.approximants) - 1} unrollings")
        lines.append(f"loop {i} ({t.loop.guard}): {status}, "
                     f"{len(t.approximants)} approximants")
    return 0, payload, lines


def cmd_pt(args) -> Outcome:
    program = parse_command(args.program)
    root = args.grammar(args.text)
    result, expansions = pt(program, root, args.unroll, args.depth,
                            _window(args, program, root), args.quant_window)
    text = str(result)
    payload = lambda: {args.key: text, "loops": [{
        "exhaustive": e.exhaustive,
        "unroll": e.unroll,
        "depth": e.depth,
        "sum": str(e.sum_term),
        "tails": [str(t) for t in e.tail_terms],
    } for e in expansions]}
    return 0, payload, [text] + [
        f"loop {i} ({e.loop.guard}): "
        f"{'exhaustive' if e.exhaustive else 'non-exhaustive'} "
        f"on {e.window}, {e.unroll} classes, {e.depth} tail terms"
        for i, e in enumerate(expansions)]


def cmd_check(args) -> Outcome:
    triple = parse_triple(args.triple)
    if args.dists is not None and not triple.prob:
        raise UsageError("check takes --dists only with a probabilistic triple")
    domain = _window(args, triple.command, triple.pre, triple.post)
    if triple.prob:
        extra = [] if args.dists is None else [load_dist(args.dists)]
        domain = DistFamily.build(domain, args.seed, extra=extra)
    verdict = check_triple(triple.pre, triple.command, triple.post, domain,
                           args.quant_window, args.loop_bound)
    payload = lambda: _triple_verdict_payload(verdict)
    return (0 if verdict.holds else 1), payload, [str(verdict)]


def cmd_prove(args) -> Outcome:
    derivation = load_derivation(args.derivation)
    window = StateWindow.make(derivation_vars(derivation), *args.int_window)
    verdict = check_derivation(derivation, window, qwindow=args.quant_window,
                               unroll=args.unroll, depth=args.depth,
                               seed=args.seed)
    payload = lambda: {"accepted": verdict.accepted, "scope": verdict.scope,
                       "failures": list(verdict.failures)}
    return (0 if verdict.accepted else 1), payload, [str(verdict)]


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    for name, (_, (options, _, _), _) in SETTINGS.items():
        shared.add_argument(_flag(name), dest=name, **options)

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

    # wpp is pt over a probabilistic formula, and reports its loops as pt does
    for name, flag, grammar, key, help_text in (
            ("pt", "--term", parse_real_expr, "preterm",
             "weakest preterm of a real expression"),
            ("wpp", "--post", parse_prob_formula, "wp",
             "weakest precondition of a probabilistic assertion")):
        cmd = sub.add_parser(name, parents=[shared], help=help_text)
        cmd.add_argument("--program", required=True)
        cmd.add_argument(flag, dest="text", metavar=flag[2:].upper(), required=True)
        cmd.set_defaults(handler=cmd_pt, grammar=grammar, key=key)

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


_WINDOW_FLAGS = {_flag(name) for name, (_, kind, _) in SETTINGS.items()
                 if kind is _WINDOW}


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
        resolve_settings(args)
        status, payload, lines = args.handler(args)
        if args.format == "json":
            print(json.dumps(payload(), sort_keys=True, separators=(", ", ": ")))
        else:
            print(*lines, sep="\n")
        return status
    except (ParseError, UsageError, UnboundVariable, ValueError, OSError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
