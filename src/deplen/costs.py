"""Cost functions over dependency distances, and optimal pairing.

All evaluation is exact: every g(d) is a Fraction.  The logarithmic
kind snaps log(1+d) to the nearest IEEE double once and embeds that
value exactly into the rationals, so downstream sums and comparisons
stay exact and reproducible.  Sums over many edges go through a
HalfTable: g is evaluated once per half-unit distance, scaled to an
integer over a denominator fixed for each g, and summed as integers.
A CostFunction keeps its kind and at most one parameter: a power's
exponent, or a table's values g(1), ..., g(K) as a tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations

from .errors import (
    DomainError,
    NonMonotoneError,
    SizeMismatchError,
    TooLargeError,
)

KINDS = ("identity", "power", "log", "table")


def _exact(value) -> Fraction:
    """Coerce to Fraction; floats are refused to keep arithmetic exact."""
    if isinstance(value, bool):
        raise TypeError("cannot use a bool as a number")
    if isinstance(value, float):
        raise TypeError(
            "floats are not exact; pass int, Fraction or a numeric string"
        )
    if not isinstance(value, (int, Fraction, str)):
        raise TypeError("cannot convert %r to an exact rational" % (value,))
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (value,)) from None


@dataclass(frozen=True)
class CostFunction:
    """A per-dependency cost g(d) of kind 'identity', 'power', 'log' or 'table'.

    The analytic kinds are total on d > 0 and increasing.  A table is
    the tuple g(1), ..., g(K), defined on integers 1..K only;
    make_cost_function checks that it is strictly increasing unless
    allow_nonmonotone is set.
    """

    kind: str
    exponent: Fraction | None = None
    table: tuple[Fraction, ...] | None = None

    @property
    def domain_max(self) -> int | None:
        """K for a table on 1..K; None for the analytic kinds."""
        return None if self.table is None else len(self.table)

    @cached_property
    def half_table(self) -> "HalfTable":
        """This function's memo over half-unit distances; see HalfTable.

        Its scale is a denominator of g at every distance d >= 1, the
        least that any measure or search meets.
        """
        k = 1 if self.kind == "identity" else self.exponent  # None: log, table
        if self.kind == "table":
            scale = math.lcm(*(value.denominator for value in self.table))
        elif k is not None and k.denominator == 1:
            scale = 2 ** int(k)  # (h/2)**k is a multiple of 2**-k
        else:  # log(1+d) >= log 2 > 1/2 and d**a >= 1, and every
            # double >= 1/2 is a multiple of 2**-53
            scale = 2 ** 53
        return HalfTable(self, scale)

    def __call__(self, d) -> Fraction:
        d = Fraction(d)
        if d <= 0:
            raise DomainError("distance must be positive, got %s" % d)
        if self.kind == "identity":
            return d
        if self.kind == "power":
            if self.exponent.denominator == 1:
                return d ** int(self.exponent)
            return Fraction(float(d) ** float(self.exponent))
        if self.kind == "log":
            return Fraction(math.log1p(float(d)))
        # table
        if d.denominator != 1:
            raise DomainError("table costs are defined on integers only")
        if d > len(self.table):
            raise DomainError(
                "table has no cost for d=%d (domain 1..%d)"
                % (int(d), self.domain_max)
            )
        return self.table[int(d) - 1]

    def spec(self) -> str:
        """Canonical spec string for reports."""
        if self.kind == "power":
            return "power:%s" % self.exponent
        if self.kind == "table":
            return "table[1..%d]" % self.domain_max
        return self.kind


def make_cost_function(
    kind: str,
    exponent=None,
    table=None,
    allow_nonmonotone: bool = False,
) -> CostFunction:
    """Build and validate a cost function.

    Tables must cover integer distances 1..K consecutively and be
    strictly increasing unless allow_nonmonotone is set.  The analytic
    kinds need no check: identity, power with an exponent > 0 and log
    are increasing by definition.
    """
    if kind not in KINDS:
        raise ValueError("unknown cost kind %r; expected one of %s" % (kind, ", ".join(KINDS)))
    if kind == "power":
        if exponent is None:
            raise ValueError("power cost needs an exponent")
        exponent = Fraction(exponent)
        if exponent <= 0:
            raise ValueError("power exponent must be > 0")
    elif exponent is not None:
        raise ValueError("%s cost takes no exponent" % kind)

    if kind == "table":
        if not table:
            raise ValueError("table cost needs at least one entry")
        entries = sorted((int(k), _exact(v)) for k, v in dict(table).items())
        keys = [k for k, _ in entries]
        if keys != list(range(1, len(keys) + 1)):
            raise ValueError("table keys must be exactly 1..%d" % len(keys))
        table = tuple(v for _, v in entries)
        if not allow_nonmonotone:
            for d, (v1, v2) in enumerate(zip(table, table[1:]), 2):
                if v2 <= v1:
                    raise NonMonotoneError(
                        "table not strictly increasing at d=%d (%s -> %s)"
                        % (d, v1, v2)
                    )
    elif table is not None:
        raise ValueError("%s cost takes no table" % kind)
    return CostFunction(kind, exponent, table)


IDENTITY = make_cost_function("identity")


class HalfTable:
    """g over half-unit distances, as integers over one fixed denominator.

    ints[h] * Fraction(1, scale) == g(Fraction(h, 2)) for every half
    distance h evaluated so far; entries not evaluated yet are None.  g
    is called once per distinct h, in the order fill is given them, and
    errors propagate unchanged.  scale never changes, so no sum of
    entries is ever rescaled; a value off it raises AssertionError.
    """

    def __init__(self, g, scale):
        self.g = g
        self.scale = scale
        self.ints = []

    def fill(self, halves) -> None:
        """Evaluate g at each half distance not evaluated yet."""
        ints, scale = self.ints, self.scale
        for h in halves:
            if h >= len(ints):
                ints.extend([None] * (h + 1 - len(ints)))
            if ints[h] is not None:
                continue
            value = self.g(Fraction(h, 2))
            if scale % value.denominator:
                raise AssertionError(
                    "g(%s) = %s is not a multiple of 1/%d"
                    % (Fraction(h, 2), value, scale)
                )
            ints[h] = value.numerator * (scale // value.denominator)


def cost_function_from_spec(text: str, allow_nonmonotone: bool = False) -> CostFunction:
    """Parse a command-line cost spec.

    Accepted forms: 'identity', 'log', 'power:A' with A a positive
    number like 2, 1.5 or 3/2, and 'table:PATH' naming a CSV file with
    columns d,cost.
    """
    text = text.strip()
    if text in ("identity", "log"):
        return make_cost_function(text)
    if text.startswith("power:"):
        raw = text[len("power:"):]
        try:
            exponent = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ValueError("bad power exponent %r" % raw) from None
        return make_cost_function("power", exponent=exponent)
    if text.startswith("table:"):
        path = text[len("table:"):]
        table = _read_table_csv(path)
        return make_cost_function(
            "table", table=table, allow_nonmonotone=allow_nonmonotone
        )
    raise ValueError(
        "unknown cost spec %r; expected identity, power:A, log or table:PATH"
        % text
    )


def _is_number(text: str) -> bool:
    """True iff text is written as a rational, as 2, 0.5, 1/2 and 1e3 are."""
    try:
        Fraction(text)
    except ValueError:
        return False
    except ZeroDivisionError:  # 1/0
        pass
    return True


def _read_table_csv(path: str) -> dict[int, Fraction]:
    import csv

    table = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            if not row or not "".join(row).strip():
                continue
            if row_no == 1 and not _is_number(row[0]):
                continue  # a header: its d cell is no number
            if len(row) < 2:
                raise ValueError(
                    "%s row %d: expected columns d,cost" % (path, row_no)
                )
            try:
                d, cost = int(row[0]), Fraction(row[1].strip())
            except (ValueError, ZeroDivisionError):
                raise ValueError("%s row %d: expected an integer d and a rational"
                                 " cost, got %r" % (path, row_no, ",".join(row[:2]))) from None
            if d in table:
                raise ValueError("%s row %d: distance %d listed twice" % (path, row_no, d))
            table[d] = cost
    if not table:
        raise ValueError("%s: empty cost table" % path)
    return table


@dataclass(frozen=True)
class PairingResult:
    """Outcome of pairing proportions with costs.

    assignment maps the 1-based rank in the given p sequence to the
    cost value paired with it; total is sum(p * paired cost).
    """

    assignment: dict[int, Fraction]
    total: Fraction


PAIRING_VERIFY_MAX = 8  # largest m whose m! assignments are all checked


def _pairing_values(p_values, g_values):
    p = [_exact(v) for v in p_values]
    g = [_exact(v) for v in g_values]
    if not p or len(p) != len(g):
        raise SizeMismatchError(
            "need two equally sized non-empty multisets, got %d and %d"
            % (len(p), len(g))
        )
    return p, g


def optimal_pairing(p_values, g_values) -> PairingResult:
    """Pair proportions with costs to minimize sum(p * g).

    Sorts p descending and g ascending and pairs rank by rank, so the
    largest proportion takes the smallest cost.  Ties keep input order;
    any tie-break gives the same total.
    """
    p, g = _pairing_values(p_values, g_values)
    by_p_desc = sorted(range(len(p)), key=lambda i: p[i], reverse=True)
    g_asc = sorted(g)
    assignment = {}
    for i, value in zip(by_p_desc, g_asc):
        assignment[i + 1] = value
    total = sum((p[i - 1] * v for i, v in assignment.items()), Fraction(0))
    return PairingResult(assignment, total)


def verify_pairing_optimal(p_values, g_values) -> bool:
    """Check the rank pairing against every one of the m! assignments."""
    p, g = _pairing_values(p_values, g_values)
    if len(p) > PAIRING_VERIFY_MAX:
        raise TooLargeError(
            "exhaustive check is limited to m <= %d" % PAIRING_VERIFY_MAX
        )
    best = min(
        sum((pi * gi for pi, gi in zip(p, perm)), Fraction(0))
        for perm in permutations(g)
    )
    return optimal_pairing(p, g).total == best
