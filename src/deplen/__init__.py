"""deplen: dependency length measurement and minimization for trees.

Measures dependency lengths in words or characters, aggregates them
into an exact per-distance cost, searches for minimum-length linear
arrangements (exhaustive, projective-only, constrained), checks a set
of word-order placement predictions on synthetic trees, and ships a
small French case study comparing clitic and full-noun objects.
"""

from .errors import (
    CycleError,
    DeplenError,
    DisconnectedError,
    DomainError,
    EmptyCorpusError,
    InfeasibleConstraintsError,
    MultiRootError,
    NonLeafPunctuationError,
    NonMonotoneError,
    ParseError,
    RangeError,
    SizeMismatchError,
    TooLargeError,
    UnknownEdgeError,
)
from .tree import (
    ROOT,
    DepTree,
    Linearization,
    Token,
    Unit,
    build_tree,
    char_count,
    is_projective,
    random_tree,
)
from .conllu import (
    drop_punctuation,
    is_punctuation,
    parse_conllu,
    to_conllu,
)
from .costs import (
    IDENTITY,
    CostFunction,
    PairingResult,
    cost_function_from_spec,
    make_cost_function,
    optimal_pairing,
    verify_pairing_optimal,
)
from .metrics import (
    CostReport,
    EdgeLength,
    LengthHistogram,
    cost_D,
    edge_length,
    generalized_cost,
    length_histogram,
    sum_lengths,
    word_centers,
)
from .optimize import (
    MlaResult,
    PrecedenceConstraint,
    brute_force_mla,
    enumerate_projective,
    projective_mla,
)
from .predictions import (
    PredictionReport,
    antilocality_demo,
    check_auxiliary_placement,
    check_star_placement,
    check_verb_argument_branching,
    run_default_suite,
    star_tree,
)
from .casestudy import (
    CaseStudyReport,
    Fixture,
    compare_fixture,
    french_fixture,
)

__version__ = "0.1.0"

__all__ = [
    "ROOT",
    "CaseStudyReport",
    "CostFunction",
    "CostReport",
    "CycleError",
    "DepTree",
    "DeplenError",
    "DisconnectedError",
    "DomainError",
    "EdgeLength",
    "EmptyCorpusError",
    "Fixture",
    "IDENTITY",
    "InfeasibleConstraintsError",
    "LengthHistogram",
    "Linearization",
    "MlaResult",
    "MultiRootError",
    "NonLeafPunctuationError",
    "NonMonotoneError",
    "PairingResult",
    "ParseError",
    "PrecedenceConstraint",
    "PredictionReport",
    "RangeError",
    "SizeMismatchError",
    "Token",
    "TooLargeError",
    "Unit",
    "UnknownEdgeError",
    "antilocality_demo",
    "brute_force_mla",
    "build_tree",
    "char_count",
    "check_auxiliary_placement",
    "check_star_placement",
    "check_verb_argument_branching",
    "compare_fixture",
    "cost_D",
    "cost_function_from_spec",
    "drop_punctuation",
    "edge_length",
    "enumerate_projective",
    "french_fixture",
    "generalized_cost",
    "is_projective",
    "is_punctuation",
    "length_histogram",
    "make_cost_function",
    "optimal_pairing",
    "parse_conllu",
    "projective_mla",
    "random_tree",
    "run_default_suite",
    "star_tree",
    "sum_lengths",
    "to_conllu",
    "verify_pairing_optimal",
    "word_centers",
]
