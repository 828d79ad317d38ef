"""Dependency length measurement and aggregate cost.

Lengths come in two units, defined once by DepTree.widths.  Words:
absolute difference of positions.  Characters: distance between word
centers, with a single space between words.  Both are distances between
doubled centers, so character values, which are half-integers, are
carried as integers ("half-units") and all arithmetic stays exact.

The aggregate cost of an arrangement is

    D = (n-1) * sum over d of p(d) * g(d)

with p(d) the proportion of dependencies at distance d, which equals
the plain edge-wise sum of g; both are computed and compared exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .costs import IDENTITY
from .errors import EmptyCorpusError, UnknownEdgeError
from .tree import DepTree, Linearization, Unit


def frac_str(p, q=1) -> str:
    """Render the rational p/q as 'p/q' in lowest terms, or as an integer.

    p is an int or a rational, q a positive int.
    """
    p, q = p.numerator, p.denominator * q
    k = gcd(p, q)
    if k == q:
        return str(p // q)
    return "%d/%d" % (p // k, q // k)


def frac_dec(p, q=1) -> str:
    """Decimal rendering of the rational p/q: the repr of the nearest double.

    p is an int or a rational, q a positive int.  Int true division is
    correctly rounded, as Fraction.__float__ is, so p/q needs no
    reduction.  Past the double range the nearest double is an infinity,
    shown as 'inf' or '-inf'.
    """
    p, q = p.numerator, p.denominator * q
    try:
        return repr(p / q)
    except OverflowError:
        return "inf" if p > 0 else "-inf"


def _half_positions(tree, unit, seq=None):
    """Each token's doubled center, by token - 1, in the order seq.

    seq None is the tree's own order; see DepTree.widths.
    """
    widths = tree.widths(unit)
    at = [0] * tree.n
    start = 0
    for t in range(1, tree.n + 1) if seq is None else seq:
        w = widths[t - 1]
        at[t - 1] = 2 * start + w
        start += w
    return at


def word_centers(tree: DepTree, lin: Linearization) -> dict[int, int]:
    """Doubled center of every word in characters, an integer.

    A word of length lam starting at character s + 1, after words of
    total width s (see DepTree.widths), has its center at s + (lam+1)/2.
    """
    at = _half_positions(tree, Unit.CHARACTERS, lin.seq)
    return {t: at[t - 1] for t in lin.seq}


def edge_halves(tree, lin, unit):
    """Per-edge lengths in half-units, ordered like tree.edges.

    lin None measures the tree's own order, without building one.
    """
    if lin is not None and lin.n != tree.n:
        raise ValueError(
            "order has %d tokens but the tree has %d" % (lin.n, tree.n)
        )
    at = _half_positions(tree, unit, None if lin is None else lin.seq)
    return [abs(at[h - 1] - c) for h, c in zip(tree.head_column, at) if h]


@dataclass(frozen=True)
class EdgeLength:
    """One measured dependency: (head, dep) and its length."""

    head: int
    dep: int
    unit: Unit
    halves: int  # doubled length, exact

    @property
    def length(self) -> Fraction:
        return Fraction(self.halves, 2)


def edge_length(tree, lin, edge, unit: Unit = Unit.WORDS) -> EdgeLength:
    """Length of a single edge of the tree under the given order."""
    h, d = edge
    if (h, d) not in tree.edge_set:
        raise UnknownEdgeError("(%s, %s) is not an edge of the tree" % (h, d))
    halves = edge_halves(tree, lin, unit)[tree.edges.index((h, d))]
    return EdgeLength(h, d, unit, halves)


def sum_lengths(tree, lin, unit: Unit = Unit.WORDS) -> Fraction:
    """Total dependency length of the arrangement."""
    return Fraction(sum(edge_halves(tree, lin, unit)), 2)


@dataclass(frozen=True)
class LengthHistogram:
    """Counts of dependencies by words-unit distance."""

    counts: dict[int, int]
    total_edges: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.total_edges:
            raise ValueError("histogram counts do not sum to total_edges")

    def proportions(self) -> dict[int, Fraction]:
        """p(d): exact proportion of dependencies at each distance."""
        return {
            d: Fraction(c, self.total_edges)
            for d, c in sorted(self.counts.items())
        }

    def to_csv(self) -> str:
        lines = ["d,count,p"]
        for d, c in sorted(self.counts.items()):
            lines.append(
                "%d,%d,%s" % (d, c, frac_dec(c, self.total_edges))
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "counts": {str(d): c for d, c in sorted(self.counts.items())},
            "total_edges": self.total_edges,
        }


def length_histogram(items, unit: Unit = Unit.WORDS) -> LengthHistogram:
    """Histogram of words-unit distances over (tree, linearization) pairs."""
    if unit is not Unit.WORDS:
        raise ValueError("length histograms are defined for the words unit")
    counts = Counter()
    for tree, lin in items:
        counts.update(h // 2 for h in edge_halves(tree, lin, unit))
    total = sum(counts.values())
    if total == 0:
        raise EmptyCorpusError("no dependencies to count")
    return LengthHistogram(dict(counts), total)


class CostReport:
    """Cost of one arrangement: total length and aggregate cost D.

    Kept as integers: half_counts maps each half-unit edge length to its
    number of edges, half_sum is the total length in half-units, and D is
    D_numerator / scale, scale being g's HalfTable scale.  sum_lengths, D
    and histogram (words only, else None) are built when read.
    """

    __slots__ = ("n", "unit", "half_counts", "half_sum", "D_numerator", "scale")

    def __init__(self, n, unit, half_counts, half_sum, D_numerator, scale):
        self.n, self.unit, self.half_counts = n, unit, half_counts
        self.half_sum, self.D_numerator, self.scale = half_sum, D_numerator, scale

    @property
    def sum_lengths(self) -> Fraction:
        return Fraction(self.half_sum, 2)

    @property
    def D(self) -> Fraction:
        return Fraction(self.D_numerator, self.scale)

    @property
    def histogram(self) -> LengthHistogram | None:
        if self.unit is not Unit.WORDS:
            return None
        counts = {h // 2: c for h, c in self.half_counts.items()}
        return LengthHistogram(counts, self.n - 1)

    def _values(self):
        return self.n, self.unit, self.sum_lengths, self.D, self.histogram

    def __eq__(self, other):
        if not isinstance(other, CostReport):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "CostReport(n=%r, unit=%r, sum_lengths=%r, D=%r, histogram=%r)" % self._values()

    def to_json_dict(self):
        histogram = self.histogram
        return {
            "n": self.n,
            "unit": self.unit.value,
            "sum_lengths": frac_str(self.half_sum, 2),
            "sum_lengths_dec": frac_dec(self.half_sum, 2),
            "D": frac_str(self.D_numerator, self.scale),
            "D_dec": frac_dec(self.D_numerator, self.scale),
            "histogram": histogram.to_json_dict() if histogram else None,
        }


def cost_D(tree, lin, g=None, unit: Unit = Unit.WORDS) -> CostReport:
    """Aggregate cost of an arrangement (lin None: the tree's own) under g.

    Computes D = (n-1) * sum_d p(d) g(d) from the distance proportions
    and checks it against the direct edge-wise sum; with exact
    arithmetic the two must agree.  Both sums are integers over the
    fixed scale of g's HalfTable, so (n-1) * p(d) is the count
    of distance d.
    """
    if g is None:
        g = IDENTITY
    halves = edge_halves(tree, lin, unit)
    grouped = Counter(halves)
    table = g.half_table
    table.fill(grouped)
    ints = table.ints
    direct = sum(map(ints.__getitem__, halves))
    by_distance = sum(c * ints[h] for h, c in grouped.items())
    if by_distance != direct:
        raise AssertionError(
            "grouped cost %s differs from edge-wise sum %s"
            % (Fraction(by_distance, table.scale), Fraction(direct, table.scale))
        )
    return CostReport(tree.n, unit, grouped, sum(halves), by_distance, table.scale)


def generalized_cost(tree, lin, g3, unit: Unit = Unit.WORDS) -> Fraction:
    """Sum of g3(head_token, dep_token, distance) over the edges."""
    halves = edge_halves(tree, lin, unit)
    total = Fraction(0)
    for (h, d), hv in zip(tree.edges, halves):
        total += g3(tree.token(h), tree.token(d), Fraction(hv, 2))
    return total
