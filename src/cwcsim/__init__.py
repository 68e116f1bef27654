"""Stochastic simulator for the calculus of wrapped compartments.

States are multisets of atoms and wrapped compartments taken up to
structural congruence.  Rewrite rules with rate annotations induce a
continuous-time Markov chain whose mass-action propensities count distinct
completely-labeled rule instantiations; trajectories are sampled with the
Gillespie direct method.

The package exports the library API; everything else lives in its
submodule (terms, pattern, matching, oracle, rates, engine, dsl).
"""

from .errors import CwcError
from .terms import Term
from .oracle import oracle_outcomes
from .engine import (
    Model,
    SimConfig,
    SimulationError,
    Trajectory,
    enumerate_transitions,
    run,
    run_replicates,
)
from .dsl import ModelError, format_path, format_term, parse_model, parse_rule, parse_term

__version__ = "0.1.0"

__all__ = [
    "Model", "SimConfig", "Trajectory", "SimulationError", "CwcError",
    "run", "run_replicates", "enumerate_transitions",
    "parse_model", "parse_term", "parse_rule", "ModelError",
    "format_term", "format_path", "Term", "oracle_outcomes",
]
