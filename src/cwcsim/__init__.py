"""Stochastic simulator for the calculus of wrapped compartments.

States are multisets of atoms and wrapped compartments taken up to
structural congruence.  Rewrite rules with rate annotations induce a
continuous-time Markov chain whose mass-action propensities count distinct
completely-labeled rule instantiations; trajectories are sampled with the
Gillespie direct method.
"""

from .errors import CwcError, InvalidPathError
from .terms import (
    EMPTY,
    Atom,
    Compartment,
    Observable,
    Scope,
    Term,
    atom_bag,
    bag_contains,
    bag_count,
    bag_diff,
    bag_total,
    bag_union,
    count_atom,
    replace_at,
    resolve,
)
from .pattern import (
    OpenCompartment,
    OpenTerm,
    Rule,
    RuleValidationError,
    SubstitutionError,
    Variable,
    apply_subst,
    ground_term,
    open_of_term,
    term_var,
    validate_rule,
    vars_of,
    wrap_var,
)
from .matching import (
    Context,
    enumerate_contexts,
    level_matches,
    level_outcomes,
)
from .oracle import (
    OracleLimitError,
    complete_labeling,
    count_oracle,
    distinct_substitutions,
    erase,
    oracle_total,
)
from .rates import FnRate, MassAction, RateEvaluationError, rate_of
from .engine import (
    Model,
    SimConfig,
    SimulationError,
    Trajectory,
    Transition,
    TransitionStore,
    derive_seed,
    enumerate_transitions,
    incremental_retransitions,
    run,
    run_replicates,
    step,
)
from .dsl import (
    Diagnostic,
    Directives,
    ModelError,
    ModelFile,
    format_open_term,
    format_path,
    format_rule,
    format_term,
    parse_model,
    parse_rule,
    parse_term,
)

__version__ = "0.1.0"

__all__ = [
    "Atom", "Compartment", "Term", "EMPTY", "Scope", "Observable",
    "atom_bag", "resolve", "replace_at", "count_atom",
    "bag_contains", "bag_count", "bag_diff", "bag_total", "bag_union",
    "Variable", "OpenTerm", "OpenCompartment", "term_var", "wrap_var",
    "open_of_term", "ground_term", "vars_of", "apply_subst",
    "Rule", "validate_rule", "RuleValidationError", "SubstitutionError",
    "Context", "enumerate_contexts", "level_matches", "level_outcomes",
    "complete_labeling", "erase", "count_oracle", "oracle_total",
    "distinct_substitutions", "OracleLimitError",
    "MassAction", "FnRate", "rate_of", "RateEvaluationError",
    "Model", "SimConfig", "Trajectory", "Transition", "TransitionStore",
    "SimulationError",
    "enumerate_transitions", "incremental_retransitions", "step", "run",
    "run_replicates", "derive_seed",
    "parse_model", "parse_term", "parse_rule", "format_term",
    "format_open_term", "format_path", "format_rule",
    "ModelFile", "ModelError", "Diagnostic", "Directives",
    "CwcError", "InvalidPathError",
]
