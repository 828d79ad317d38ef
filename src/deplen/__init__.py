"""deplen: dependency length measurement and minimization for trees.

Measures dependency lengths in words or characters, aggregates them
into an exact per-distance cost, searches for minimum-length linear
arrangements (exhaustive, projective-only, constrained), checks a set
of word-order placement predictions on synthetic trees, and ships a
small French case study comparing clitic and full-noun objects.
"""

import importlib

__version__ = "0.1.0"

# Defined here so that the CLI can offer them without loading a measuring
# module: the values of tree.Unit, and the largest n optimize.brute_force_mla
# searches.
UNIT_NAMES = ("words", "chars")
BRUTE_FORCE_MAX = 10

# Each public name, by the module that defines it.  A module is imported
# when one of its names is first used, so a run loads only what it needs.
_EXPORTS = {
    "errors": """CycleError DeplenError DisconnectedError DomainError
        EmptyCorpusError InfeasibleConstraintsError MultiRootError
        NonLeafPunctuationError NonMonotoneError ParseError RangeError
        SizeMismatchError TooLargeError""",
    "tree": """ROOT DepTree Linearization Token Unit build_tree char_count
        is_projective random_tree""",
    "conllu": "drop_punctuation is_punctuation iter_conllu parse_conllu to_conllu",
    "costs": """IDENTITY CostFunction PairingResult cost_function_from_spec
        make_cost_function optimal_pairing verify_pairing_optimal""",
    "metrics": "CostReport LengthHistogram cost_D length_histogram sum_lengths",
    "optimize": """MlaResult PrecedenceConstraint brute_force_mla
        enumerate_projective projective_minimum projective_mla subset_minimum""",
    "predictions": """PredictionReport antilocality_demo check_auxiliary_placement
        check_star_placement check_verb_argument_branching run_default_suite
        star_tree""",
    "casestudy": "CaseStudyReport Fixture compare_fixture french_fixture",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _MODULE_OF[name], __name__), name)
    globals()[name] = value
    return value
