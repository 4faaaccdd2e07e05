"""Exact verification toolkit for a probabilistic imperative language.

The pieces: an exact interpreter over finite sub-distributions
(`semantics.execute`), weakest preconditions for deterministic assertions
(`wp.wp`), weakest preterms and preconditions for probabilistic assertions
(`preterm.pt`, which `preterm.wp_prob` also names), bounded validity and
triple checking with one checker over a state window or a distribution
family (`assertions.check_valid` and `assertions.check_triple`), and a
proof derivation checker (`proofsys.check_derivation`).  All arithmetic is
exact rational.
"""

from .core import (
    ABin, And, Assign, BoolLit, Command, DistSpec, FALSE, Forall, Formula,
    If, Implies, IntConst, Interpretation, LogVar, Not, Or, PAnd, PFALSE,
    PImplies, PNot, POr, PRel, PTRUE, Prob, ProbFormula, ProgVar, RandAssign,
    RatConst, RealExpr, RealVar, RBin, Rel, Seq, Skip, State, SubDistribution,
    TRUE, UnboundVariable, While, point_dist, simplify_formula,
    normalize_real, subst_prog_var,
)
from .parser import (
    FlavorMixError, ParseError, ParserWarning, SourceTriple, parse_command,
    parse_det_formula, parse_prob_formula, parse_real_expr, parse_state,
    parse_triple,
)
from .semantics import (
    ExecResult, eval_arith, eval_batch, execute, restrict, sat_det, sat_det_batch,
    sat_det_dist,
)
from .assertions import (
    DistFamily, StateWindow, TripleVerdict, ValidityVerdict, check_triple,
    check_valid, check_valid_det, check_valid_prob, eval_real,
    prob_equivalent_on_family, real_equivalent_on_family, sat_prob,
)
from .wp import WpLoopTrace, check_triple_det, wp
from .preterm import WhileExpansion, check_triple_prob, cond_term, pt, wp_prob
from .proofsys import (
    Derivation, DerivationVerdict, build_wp_derivation, check_derivation,
    conseq_over, derivation_from_json, derivation_to_json,
)

__version__ = "0.1.0"
