"""Compositional systems modeling with port-graph operads.

Architectures are typed port-graphs that compose by substitution; semantics
functors assign failure probabilities, causation relations, and stochastic
kernels to them, with coherence checked against the declared equations.
"""
from .portgraph import (
    Architecture,
    Boundary,
    ComponentCorrespondence,
    PortRef,
    TypeTable,
    Wire,
    canonicalize,
    compose,
    equal,
    identity,
    validate,
)
from .presentation import (
    CoherenceEquation,
    OperadPresentation,
    Term,
    check_equation,
    compile_presentation,
    elaborate,
    parse_term,
)
from .prob import (
    Distribution,
    ProbFunctor,
    check_prob_functor,
    compose_dist,
    leaf_probability,
    symbolic_constraints,
)
from .modes import ModeFunctor, ModeRelation, ModeSet, can_cause, check_mode_functor, compose_rel
from .stoch import (
    Kernel,
    Point,
    PtKernel,
    StochFunctor,
    aggr,
    check_lifting,
    compose_kernel,
    diagnose,
    pt_condition,
    supp,
)
# eager though no CLI command uses it: benchmarks/tracing.py finds it in sys.modules
from .rates import FailureHistory, combine_meantime, history_stats, invert, normalize, pipeline_check
from .dsl import DslError, Model, parse, serialize
from .corpus import load_lsi, lsi_text

__version__ = "0.1.0"
