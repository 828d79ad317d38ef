"""Character-unit comparison of three French clause shapes.

Three exemplars of the same small clause family:

  (a) "Marie mange la pomme"  subject, verb, article + object noun;
  (b) "Marie la mange"        the object is a clitic pronoun before
                              the verb;
  (c) "Marie la pomme mange"  the tokens of (a) forced into
                              subject-object-verb order.

(b) and (c) are both verb-final, so the pair isolates the effect of the
object's size; (a) differs from (b) in both order and object size, so
that comparison is only reported, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .metrics import edge_halves, frac_dec, frac_str
from .tree import DepTree, Linearization, Unit


@dataclass(frozen=True)
class Fixture:
    """One exemplar: a tree, the order to measure it in, and its gloss."""

    label: str
    gloss: str
    tree: DepTree
    lin: Linearization


def french_fixture() -> tuple[Fixture, Fixture, Fixture]:
    """The three exemplars; (c) reuses (a)'s tree with a different order."""
    tree_a = DepTree(["Marie", "mange", "la", "pomme"], [2, 0, 4, 2])
    tree_b = DepTree(["Marie", "la", "mange"], [3, 3, 0])
    a = Fixture(
        "a", "Marie mange la pomme", tree_a, tree_a.identity_linearization()
    )
    b = Fixture(
        "b", "Marie la mange", tree_b, tree_b.identity_linearization()
    )
    c = Fixture(
        "c", "Marie la pomme mange", tree_a, Linearization((1, 3, 4, 2))
    )
    return a, b, c


@dataclass(frozen=True)
class FixtureEntry:
    label: str
    gloss: str
    edge_lengths: tuple  # ((head, dep, Fraction), ...) by dependent index
    total: Fraction

    def to_json_dict(self):
        return {
            "label": self.label,
            "gloss": self.gloss,
            "edges": [
                {
                    "head": h,
                    "dep": d,
                    "length": frac_str(v),
                    "length_dec": frac_dec(v),
                }
                for h, d, v in self.edge_lengths
            ],
            "total": frac_str(self.total),
            "total_dec": frac_dec(self.total),
        }


@dataclass(frozen=True)
class CaseStudyReport:
    """Per-fixture lengths plus the one asserted comparison.

    holds is true iff the clitic version (b) comes out strictly shorter
    than the heavy verb-final version (c).  How (a) relates to (b) is
    exposed in svo_vs_clitic but not asserted.
    """

    unit: Unit
    entries: tuple
    ranking: tuple
    holds: bool
    svo_vs_clitic: str

    def to_json_dict(self):
        return {
            "unit": self.unit.value,
            "entries": [e.to_json_dict() for e in self.entries],
            "ranking": list(self.ranking),
            "clitic_shorter_than_heavy_final": self.holds,
            "svo_vs_clitic": self.svo_vs_clitic,
        }


def compare_fixture(unit: Unit = Unit.CHARACTERS) -> CaseStudyReport:
    """Measure the three exemplars and compare their totals."""
    entries = []
    totals = {}
    for fx in french_fixture():
        halves = edge_halves(fx.tree, fx.lin, unit)
        per_edge = tuple(
            (h, d, Fraction(hv, 2)) for (h, d), hv in zip(fx.tree.edges, halves)
        )
        totals[fx.label] = Fraction(sum(halves), 2)
        entries.append(
            FixtureEntry(fx.label, fx.gloss, per_edge, totals[fx.label])
        )
    ranking = tuple(sorted(totals, key=lambda lb: (totals[lb], lb)))
    if totals["a"] < totals["b"]:
        svo_vs_clitic = "a<b"
    elif totals["b"] < totals["a"]:
        svo_vs_clitic = "b<a"
    else:
        svo_vs_clitic = "a=b"
    return CaseStudyReport(
        unit=unit,
        entries=tuple(entries),
        ranking=ranking,
        holds=totals["b"] < totals["c"],
        svo_vs_clitic=svo_vs_clitic,
    )
